//! The multi-query top-`k` service.
//!
//! [`TopKService`] owns a fixed pool of OS worker threads over one shared
//! [`Arc<Database>`]. Clients [`submit`](TopKService::submit) a
//! [`QueryRequest`] and receive a [`QueryTicket`] to wait on (or call the
//! blocking [`query`](TopKService::query)). Each query is dispatched
//! through the [`Planner`] and executed on its own [`Session`], so access
//! accounting and policy enforcement stay per-query even when many
//! queries run concurrently —
//! exactly the Garlic middleware shape of the paper's introduction, with
//! the paper's algorithms behind the counter.
//!
//! The service layers four serving concerns on top of the library:
//!
//! 1. **the threshold-aware result cache** (see [`crate::cache`]): repeat
//!    and smaller-`k` queries are answered in `O(k)` with zero middleware
//!    accesses, and larger-`k` near-misses warm-start from the cached
//!    certificate;
//! 2. **single-flight coalescing** (`crate::inflight`): a query that
//!    misses the cache while an identical-shape run with `k' ≥ k` is
//!    already executing follows that leader instead of re-executing, and
//!    is served the leader's answer by the τ-prefix rule. The cache and
//!    the in-flight table live under **one** admission mutex, so
//!    "lookup, else join or lead" and "insert, then retire the flight"
//!    are atomic: exactly one cold run per shape per burst, by
//!    construction, with no gap for a stampede to slip through;
//! 3. **admission control**: a queue-depth cap rejects work before it
//!    queues ([`ServeError::QueueFull`]) and per-query middleware-cost
//!    budgets abort runaway queries mid-run
//!    ([`ServeError::CostBudgetExceeded`]), both typed so clients can
//!    react. Worker panics are caught at the loop: the caller's ticket
//!    resolves to [`ServeError::WorkerPanicked`] and the worker survives;
//! 4. **observability**: a [`ServiceMetrics`] snapshot with throughput,
//!    cache hit rate, coalescing counters, and bounded log₂-bucket
//!    histograms for per-query cost and latency; plus the flight
//!    recorder — every query's lifecycle (admission, cache probe,
//!    coalesce join, drive-loop rounds, halt, delivery) lands as
//!    fixed-size binary events in one preallocated service-wide ring
//!    ([`TopKService::flight_events`]), exportable as Chrome-trace JSON —
//!    a Prometheus text endpoint ([`TopKService::metrics_text`]), and a
//!    top-N slow-query log ([`TopKService::slow_queries`]).

use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fagin_core::algorithms::WarmStart;
use fagin_core::planner::Planner;
use fagin_core::{
    AlgoError, AnytimeConfig, HaltReason, RunMetrics, RunScratch, ScoredObject, TopKOutput,
};
use fagin_middleware::{
    AccessError, AccessPolicy, AccessStats, CostBudget, Database, Entry, Grade, Middleware,
    ObjectId, Session,
};
use fagin_obs::{EventKind, FlightRecorder, TraceEvent};
use fagin_remote::{
    BreakerConfig, ConnectError, FaultInjector, FaultPlan, RemoteSource, Resilient, RetryPolicy,
    ShardInfo,
};

use crate::cache::{CacheHit, CacheKey, CachedRun, ResultCache};
use crate::error::ServeError;
use crate::inflight::{self, Flight, FlightAnswer, FlightOutcome, InflightMap, Join};
use crate::metrics::{Recorder, ServiceMetrics, SlowQuery};
use crate::request::QueryRequest;

/// How many failed follows (leader errored, or its answer could not serve
/// our `k`) a query tolerates before it stops coalescing and runs solo.
/// A leader that failed from *source loss* is not retried at all: every
/// follower fails fast with the typed error instead of stampeding the
/// dead shard with solo runs.
const FOLLOW_RETRIES: usize = 2;

/// Transparent [`ServeError::QueueFull`] retries inside
/// [`TopKService::query`] (the queue drains as workers finish, so a
/// brief full queue is not worth surfacing to a blocking caller).
const QUEUE_RETRIES: u32 = 3;

/// Base backoff between those queue retries; grows linearly per attempt.
const QUEUE_BACKOFF: Duration = Duration::from_micros(500);

/// Per-request socket timeout for remote-backed services
/// ([`TopKService::connect`]).
const REMOTE_TIMEOUT: Duration = Duration::from_secs(2);

/// Fraction of a degrade-opted query's cost budget at which the anytime
/// cost watermark fires: the run yields its best certified answer at a
/// round boundary *before* the hard budget would reject an access mid-round
/// (the budget itself stays in force as the backstop).
const DEGRADE_WATERMARK: f64 = 0.9;

/// Capacity of the service-wide flight-record ring (most recent events
/// win; the ring never grows).
const SERVICE_RING_CAPACITY: usize = 4096;

/// Capacity of each worker session's private ring, drained into the
/// service ring after every executed query.
const WORKER_RING_CAPACITY: usize = 1024;

/// Where an answer came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnswerSource {
    /// Executed from scratch.
    Cold,
    /// Executed, but seeded with a cached certificate's `(object, grade)`
    /// pairs (a `k > K` near-miss).
    WarmStarted {
        /// Number of seeded objects.
        seeds: usize,
    },
    /// Served from the result cache with zero middleware accesses.
    CacheHit {
        /// The `k` the cached run certified (≥ the requested `k`).
        certified_k: usize,
    },
    /// Served by riding an identical-shape in-flight run (single-flight
    /// coalescing) with zero middleware accesses of its own.
    Coalesced {
        /// The `k` the leader ran (≥ the requested `k`).
        leader_k: usize,
    },
}

/// One answered query.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The top-`k` items. Fully graded answers are in canonical order
    /// (grade descending, ties towards the smaller object id).
    pub items: Vec<ScoredObject>,
    /// Middleware accesses this query performed (all zero on cache hits
    /// and coalesced rides).
    pub stats: AccessStats,
    /// The run's metrics (threshold, rounds, …); synthesized from the
    /// cached certificate on hits and from the leader's run on rides.
    pub run: RunMetrics,
    /// Name of the algorithm that produced the answer.
    pub algorithm: String,
    /// How the answer was produced.
    pub source: AnswerSource,
    /// Middleware cost of this query under the request's cost model.
    pub cost: f64,
    /// The planner's (and cache's) reasoning.
    pub rationale: Vec<String>,
    /// Wall-clock time from worker pickup to answer.
    pub latency: Duration,
}

impl QueryResponse {
    /// The answer objects, in order.
    pub fn objects(&self) -> Vec<ObjectId> {
        self.items.iter().map(|i| i.object).collect()
    }

    /// Whether the answer was served from the cache.
    pub fn is_cache_hit(&self) -> bool {
        matches!(self.source, AnswerSource::CacheHit { .. })
    }

    /// Whether the answer rode an identical in-flight run.
    pub fn is_coalesced(&self) -> bool {
        matches!(self.source, AnswerSource::Coalesced { .. })
    }

    /// Whether the answer was degraded: an anytime trigger (deadline, cost
    /// watermark, or budget strike) cut the run short and this is the best
    /// certified answer, with its achieved guarantee in
    /// [`guarantee`](QueryResponse::guarantee).
    pub fn is_degraded(&self) -> bool {
        self.run.halt.is_interrupted()
    }

    /// The guarantee this answer certifies: `1.0` = exact, otherwise the
    /// θ (requested) or θ̂ (achieved, for degraded answers) such that the
    /// answer is a valid θ-approximation.
    pub fn guarantee(&self) -> f64 {
        self.run.approximation_guarantee
    }
}

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (min 1). Each worker executes one query at a time.
    pub workers: usize,
    /// Maximum queued-but-unstarted queries; submissions beyond it are
    /// rejected with [`ServeError::QueueFull`]. `0` rejects everything —
    /// useful for drain tests.
    pub queue_cap: usize,
    /// Result-cache capacity in entries; `None` disables the cache.
    pub cache_capacity: Option<usize>,
    /// Whether identical-shape concurrent queries are coalesced onto one
    /// leader run (single-flight). On by default; turn off only to
    /// measure the stampede it prevents.
    pub coalescing: bool,
    /// Whether the database satisfies the distinctness property (§6);
    /// `None` detects it once at construction.
    pub distinctness: Option<bool>,
    /// Deterministic fault schedule injected between every worker's
    /// session and the database (each worker replays its own copy).
    /// `None` (the default) serves faithfully. With a plan installed the
    /// service exercises its full fault plane — retries, breakers,
    /// degraded answers — without any network.
    pub fault_plan: Option<FaultPlan>,
    /// Retry/backoff policy of the per-worker resilience layer (used when
    /// a fault plan is installed or the service is remote-backed).
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds of the per-worker resilience layer.
    pub breaker: BreakerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_cap: 1024,
            cache_capacity: Some(128),
            coalescing: true,
            distinctness: None,
            fault_plan: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the queue-depth cap.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Disables the result cache.
    pub fn without_cache(mut self) -> Self {
        self.cache_capacity = None;
        self
    }

    /// Sets the result-cache capacity.
    pub fn with_cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = Some(entries);
        self
    }

    /// Disables single-flight coalescing (every query executes its own
    /// run, as the pre-coalescing service did).
    pub fn without_coalescing(mut self) -> Self {
        self.coalescing = false;
        self
    }

    /// Overrides distinctness detection.
    pub fn with_distinctness(mut self, distinct: bool) -> Self {
        self.distinctness = Some(distinct);
        self
    }

    /// Installs a deterministic fault schedule between every worker's
    /// session and the database (chaos testing; see
    /// [`ServiceConfig::fault_plan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the resilience layer's retry/backoff policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the resilience layer's circuit-breaker thresholds.
    pub fn with_breaker_config(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }
}

struct Job {
    request: QueryRequest,
    reply: mpsc::Sender<Result<QueryResponse, ServeError>>,
}

/// The shared admission state: the result cache and the in-flight table
/// under **one** lock, so "cache lookup, else join/lead a flight" and
/// "cache insert, then retire the flight" are each atomic. A burst of
/// identical queries therefore resolves to exactly one cold run: every
/// other query either follows the flight or hits the cache entry the
/// leader installed in the same critical section that retired it.
struct Coalescer {
    cache: Option<ResultCache>,
    inflight: InflightMap,
}

/// Where worker sessions get their lists from.
enum WorkerBackend {
    /// Plain sessions over the shared in-process database.
    Local,
    /// Sessions over the shared database, wrapped in a deterministic
    /// fault injector and the resilience layer (chaos testing).
    Faulty {
        /// The schedule every worker replays (its own copy, so per-worker
        /// access indices are deterministic).
        plan: FaultPlan,
    },
    /// Remote sources speaking the shard protocol, wrapped in the
    /// resilience layer. Workers dial lazily on first access.
    Remote {
        addr: SocketAddr,
        info: ShardInfo,
        timeout: Duration,
    },
}

struct Shared {
    /// The in-process database (`None` for remote-backed services, where
    /// the lists live behind [`WorkerBackend::Remote`]).
    db: Option<Arc<Database>>,
    /// Number of sorted lists `m` (cached: valid with or without a local
    /// database).
    lists: usize,
    backend: WorkerBackend,
    retry: RetryPolicy,
    breaker: BreakerConfig,
    distinctness: bool,
    admission: Mutex<Coalescer>,
    cache_enabled: bool,
    coalescing: bool,
    recorder: Recorder,
    queue_len: AtomicUsize,
    queue_cap: usize,
    /// The merged flight record: lifecycle events recorded service-side
    /// plus every worker session's drained ring, all stamped on `epoch`.
    flight: Mutex<FlightRecorder>,
    /// Shared time axis for every recorder in the service.
    epoch: Instant,
    /// Source of the trace query ids (ids start at 1; 0 = outside any
    /// query).
    query_counter: AtomicU32,
}

impl Shared {
    fn admit(&self) -> MutexGuard<'_, Coalescer> {
        // A worker that panics while holding the admission lock poisons
        // it; the state is still valid (cache and table mutations are
        // individually complete), so siblings recover and keep serving.
        self.admission
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn flight_ring(&self) -> MutexGuard<'_, FlightRecorder> {
        // Same recovery argument: every ring mutation is a complete
        // struct store, so a poisoned ring is still a valid ring.
        self.flight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn next_query(&self) -> u32 {
        self.query_counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records one service-side lifecycle instant for `query`.
    fn trace(&self, query: u32, kind: EventKind, detail: u32, count: u64) {
        let mut ring = self.flight_ring();
        ring.set_query(query);
        ring.record(kind, detail, count);
    }

    /// Records the delivery event: `dur_nanos` carries the query's
    /// wall-clock latency, `count` its total middleware accesses.
    fn trace_done(&self, query: u32, latency: Duration, accesses: u64) {
        let mut ring = self.flight_ring();
        let now = ring.now_nanos();
        ring.push(TraceEvent {
            nanos: now,
            dur_nanos: latency.as_nanos().min(u128::from(u64::MAX)) as u64,
            count: accesses,
            query,
            detail: 0,
            kind: EventKind::Done,
        });
    }
}

/// One worker's middleware tower, chosen by the service backend: a plain
/// [`Session`], a fault-injected session, or a remote source — the latter
/// two behind the [`Resilient`] retry/breaker layer. Implements
/// [`Middleware`] by delegation so `run_query` is backend-agnostic.
enum WorkerSource<'db> {
    Local(Box<Session<'db>>),
    Faulty(Box<Resilient<FaultInjector<Session<'db>>>>),
    Remote(Box<Resilient<RemoteSource>>),
}

impl<'db> WorkerSource<'db> {
    /// Builds one worker's tower. Infallible: remote sources are prepared
    /// undialed (the shape was validated at [`TopKService::connect`] time)
    /// and dial lazily on first access.
    fn build(shared: &'db Shared) -> Self {
        let recorder = FlightRecorder::with_epoch(WORKER_RING_CAPACITY, shared.epoch);
        let local_session = |shared: &'db Shared, recorder| {
            let db = shared
                .db
                .as_deref()
                .expect("local backends hold a database");
            let mut session = Session::new(db);
            session.attach_recorder(recorder);
            session
        };
        match &shared.backend {
            WorkerBackend::Local => WorkerSource::Local(Box::new(local_session(shared, recorder))),
            WorkerBackend::Faulty { plan } => {
                WorkerSource::Faulty(Box::new(Resilient::with_policy(
                    FaultInjector::new(local_session(shared, recorder), plan.clone()),
                    shared.retry,
                    shared.breaker,
                )))
            }
            WorkerBackend::Remote {
                addr,
                info,
                timeout,
            } => {
                let mut source =
                    RemoteSource::prepared(*addr, *info, AccessPolicy::default(), *timeout);
                source.attach_recorder(recorder);
                WorkerSource::Remote(Box::new(Resilient::with_policy(
                    source,
                    shared.retry,
                    shared.breaker,
                )))
            }
        }
    }

    /// Rewinds to a fresh run under `policy` (counters, cursors, seen-set;
    /// breakers and fault counters deliberately survive — a dead shard
    /// stays dead across queries until a probe revives it).
    fn reset(&mut self, policy: AccessPolicy) {
        match self {
            WorkerSource::Local(s) => s.reset(policy),
            WorkerSource::Faulty(r) => r.inner_mut().inner_mut().reset(policy),
            WorkerSource::Remote(r) => r.inner_mut().reset(policy),
        }
    }

    fn recorder(&self) -> Option<&FlightRecorder> {
        match self {
            WorkerSource::Local(s) => s.recorder(),
            WorkerSource::Faulty(r) => r.inner().inner().recorder(),
            WorkerSource::Remote(r) => r.inner().recorder(),
        }
    }

    fn recorder_mut(&mut self) -> Option<&mut FlightRecorder> {
        match self {
            WorkerSource::Local(s) => s.recorder_mut(),
            WorkerSource::Faulty(r) => r.inner_mut().inner_mut().recorder_mut(),
            WorkerSource::Remote(r) => r.inner_mut().recorder_mut(),
        }
    }

    /// Propagates the query deadline into the resilience layer: a retry
    /// whose backoff would sleep past it converts to a source loss, so a
    /// struggling shard can degrade the answer but never stall the query.
    fn set_deadline(&mut self, deadline: Option<Instant>) {
        match self {
            WorkerSource::Local(_) => {}
            WorkerSource::Faulty(r) => r.set_deadline(deadline),
            WorkerSource::Remote(r) => r.set_deadline(deadline),
        }
    }

    /// Lists whose circuit breakers are open — the failure-aware planning
    /// input ([`fagin_core::planner::Capabilities::degraded`]).
    fn lost_lists(&self) -> Vec<usize> {
        match self {
            WorkerSource::Local(_) => Vec::new(),
            WorkerSource::Faulty(r) => r.lost_lists(),
            WorkerSource::Remote(r) => r.lost_lists(),
        }
    }

    /// Cumulative fault-plane totals `(faults, retries, breaker trips)`;
    /// the worker loop drains per-query deltas into the service metrics.
    fn fault_totals(&self) -> (u64, u64, u64) {
        match self {
            WorkerSource::Local(_) => (0, 0, 0),
            WorkerSource::Faulty(r) => {
                let s = r.fault_stats();
                (s.faults(), s.retries(), s.trips())
            }
            WorkerSource::Remote(r) => {
                let s = r.fault_stats();
                (s.faults(), s.retries(), s.trips())
            }
        }
    }
}

impl Middleware for WorkerSource<'_> {
    fn num_lists(&self) -> usize {
        match self {
            WorkerSource::Local(s) => s.num_lists(),
            WorkerSource::Faulty(r) => r.num_lists(),
            WorkerSource::Remote(r) => r.num_lists(),
        }
    }

    fn num_objects(&self) -> usize {
        match self {
            WorkerSource::Local(s) => s.num_objects(),
            WorkerSource::Faulty(r) => r.num_objects(),
            WorkerSource::Remote(r) => r.num_objects(),
        }
    }

    fn sorted_next(&mut self, list: usize) -> Result<Option<Entry>, AccessError> {
        match self {
            WorkerSource::Local(s) => s.sorted_next(list),
            WorkerSource::Faulty(r) => r.sorted_next(list),
            WorkerSource::Remote(r) => r.sorted_next(list),
        }
    }

    fn random_lookup(&mut self, list: usize, object: ObjectId) -> Result<Grade, AccessError> {
        match self {
            WorkerSource::Local(s) => s.random_lookup(list, object),
            WorkerSource::Faulty(r) => r.random_lookup(list, object),
            WorkerSource::Remote(r) => r.random_lookup(list, object),
        }
    }

    fn sorted_next_batch(
        &mut self,
        list: usize,
        max: usize,
        out: &mut Vec<Entry>,
    ) -> Result<usize, AccessError> {
        match self {
            WorkerSource::Local(s) => s.sorted_next_batch(list, max, out),
            WorkerSource::Faulty(r) => r.sorted_next_batch(list, max, out),
            WorkerSource::Remote(r) => r.sorted_next_batch(list, max, out),
        }
    }

    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError> {
        match self {
            WorkerSource::Local(s) => s.random_lookup_many(list, objects, out),
            WorkerSource::Faulty(r) => r.random_lookup_many(list, objects, out),
            WorkerSource::Remote(r) => r.random_lookup_many(list, objects, out),
        }
    }

    fn stats(&self) -> &AccessStats {
        match self {
            WorkerSource::Local(s) => s.stats(),
            WorkerSource::Faulty(r) => r.stats(),
            WorkerSource::Remote(r) => r.stats(),
        }
    }

    fn policy(&self) -> &AccessPolicy {
        match self {
            WorkerSource::Local(s) => s.policy(),
            WorkerSource::Faulty(r) => r.policy(),
            WorkerSource::Remote(r) => r.policy(),
        }
    }

    fn position(&self, list: usize) -> usize {
        match self {
            WorkerSource::Local(s) => s.position(list),
            WorkerSource::Faulty(r) => r.position(list),
            WorkerSource::Remote(r) => r.position(list),
        }
    }

    fn trace(&mut self, kind: EventKind, detail: u32, count: u64) {
        match self {
            WorkerSource::Local(s) => s.trace(kind, detail, count),
            WorkerSource::Faulty(r) => r.trace(kind, detail, count),
            WorkerSource::Remote(r) => r.trace(kind, detail, count),
        }
    }
}

/// A handle to one submitted query's eventual answer.
pub struct QueryTicket {
    rx: mpsc::Receiver<Result<QueryResponse, ServeError>>,
}

impl QueryTicket {
    /// Blocks until the query completes.
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

/// A concurrent top-`k` query service over a shared database.
///
/// ```
/// use std::sync::Arc;
/// use fagin_middleware::Database;
/// use fagin_serve::{AggSpec, QueryRequest, ServiceConfig, TopKService};
///
/// let db = Arc::new(Database::from_f64_columns(&[
///     vec![0.9, 0.5, 0.1, 0.8],
///     vec![0.2, 0.8, 0.5, 0.7],
/// ]).unwrap());
/// let service = TopKService::new(db, ServiceConfig::default());
/// let top = service.query(QueryRequest::new(AggSpec::Min, 1)).unwrap();
/// assert_eq!(top.items[0].object.0, 3); // min(0.8, 0.7) = 0.7 wins
/// let again = service.query(QueryRequest::new(AggSpec::Min, 1)).unwrap();
/// assert!(again.is_cache_hit());
/// assert_eq!(again.stats.total(), 0);
/// ```
pub struct TopKService {
    shared: Arc<Shared>,
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl TopKService {
    /// Starts the worker pool over `db`.
    pub fn new(db: Arc<Database>, config: ServiceConfig) -> Self {
        let distinctness = config
            .distinctness
            .unwrap_or_else(|| db.satisfies_distinctness());
        let lists = db.num_lists();
        let backend = match &config.fault_plan {
            Some(plan) => WorkerBackend::Faulty { plan: plan.clone() },
            None => WorkerBackend::Local,
        };
        Self::start(Some(db), lists, distinctness, backend, config)
    }

    /// Starts the worker pool over a *remote* shard server: each worker
    /// owns one lazily-dialed connection to `addr`, wrapped in the
    /// retry/backoff + circuit-breaker layer. The address is probed once
    /// here to learn the shard's shape (list count, object-id space,
    /// distinctness); queries then run the same planner and algorithms as
    /// the local path, access for access.
    ///
    /// With faults disabled on the far side, answers and access counts
    /// are byte-identical to serving the same data in-process; when the
    /// shard misbehaves, the service retries transient failures, trips
    /// the breaker on persistent ones, and — for requests opting in via
    /// [`QueryRequest::with_degradation`] — returns a certified θ̂ answer
    /// over the surviving lists.
    ///
    /// [`QueryRequest::with_degradation`]: crate::request::QueryRequest::with_degradation
    pub fn connect(
        addr: impl std::net::ToSocketAddrs,
        config: ServiceConfig,
    ) -> Result<Self, ConnectError> {
        let probe = RemoteSource::connect(addr)?;
        let info = probe.info();
        let addr = probe.addr();
        drop(probe);
        let distinctness = config.distinctness.unwrap_or(info.distinct);
        let backend = WorkerBackend::Remote {
            addr,
            info,
            timeout: REMOTE_TIMEOUT,
        };
        Ok(Self::start(None, info.lists, distinctness, backend, config))
    }

    fn start(
        db: Option<Arc<Database>>,
        lists: usize,
        distinctness: bool,
        backend: WorkerBackend,
        config: ServiceConfig,
    ) -> Self {
        let flight = FlightRecorder::new(SERVICE_RING_CAPACITY);
        let epoch = flight.epoch();
        let shared = Arc::new(Shared {
            db,
            lists,
            backend,
            retry: config.retry,
            breaker: config.breaker,
            distinctness,
            admission: Mutex::new(Coalescer {
                cache: config.cache_capacity.map(ResultCache::new),
                inflight: InflightMap::new(),
            }),
            cache_enabled: config.cache_capacity.is_some(),
            coalescing: config.coalescing,
            recorder: Recorder::new(),
            queue_len: AtomicUsize::new(0),
            queue_cap: config.queue_cap,
            flight: Mutex::new(flight),
            epoch,
            query_counter: AtomicU32::new(0),
        });
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("fagin-serve-{i}"))
                    .spawn(move || worker_loop(&shared, &receiver))
                    .expect("failed to spawn service worker")
            })
            .collect();
        TopKService {
            shared,
            sender: Some(sender),
            workers,
        }
    }

    /// Cold-starts a service from a store file written by
    /// [`fagin_store::StoreWriter`]: the file is validated and opened
    /// (zero-copy via mmap where supported), then served exactly as an
    /// in-memory database would be — same answers, same access counts.
    /// Returns the service together with the backend that is serving the
    /// stripes, for status lines and metrics.
    pub fn from_store(
        path: &std::path::Path,
        options: fagin_store::StoreOptions,
        config: ServiceConfig,
    ) -> Result<(TopKService, fagin_store::BackendKind), fagin_store::StoreError> {
        let store = fagin_store::Store::open(path, options)?;
        let backend = store.backend();
        let service = TopKService::new(Arc::new(store.into_database()), config);
        Ok((service, backend))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The shared in-memory database, when one backs this service
    /// (`None` for remote-backed services, whose data lives behind the
    /// shard server).
    pub fn database(&self) -> Option<&Arc<Database>> {
        self.shared.db.as_ref()
    }

    /// Number of graded lists served (local or remote).
    pub fn num_lists(&self) -> usize {
        self.shared.lists
    }

    /// Whether the service treats the database as distinct (§6).
    pub fn distinctness(&self) -> bool {
        self.shared.distinctness
    }

    /// Submits a query; returns a ticket to wait on, or a typed admission
    /// rejection. The queue-depth cap is enforced exactly (a
    /// compare-exchange loop, so concurrent submitters cannot overshoot
    /// it).
    ///
    /// Cache hits are answered on the *caller's* thread, before the queue:
    /// a certified prefix is already sitting in memory, so routing it
    /// through the worker pool would only add a queue round-trip (and, on
    /// few cores, contention with queries doing real work). The returned
    /// ticket is pre-resolved; `wait` does not block.
    pub fn submit(&self, request: QueryRequest) -> Result<QueryTicket, ServeError> {
        let sender = self.sender.as_ref().ok_or(ServeError::Shutdown)?;
        if self.shared.cache_enabled {
            let started = Instant::now();
            let hit = self
                .shared
                .admit()
                .cache
                .as_mut()
                .and_then(|c| c.lookup(&request));
            if let Some(hit) = hit {
                let latency = started.elapsed();
                self.shared.recorder.record_completed(0.0, true, latency);
                let qid = self.shared.next_query();
                {
                    // One lock for the whole fast-path lifecycle:
                    // admitted, probed (hit), delivered.
                    let mut ring = self.shared.flight_ring();
                    ring.set_query(qid);
                    ring.record(EventKind::Admitted, request.k as u32, 0);
                    ring.record(EventKind::CacheProbe, 0, 1);
                    let now = ring.now_nanos();
                    ring.push(TraceEvent {
                        nanos: now,
                        dur_nanos: latency.as_nanos().min(u128::from(u64::MAX)) as u64,
                        count: 0,
                        query: qid,
                        detail: 0,
                        kind: EventKind::Done,
                    });
                }
                let resp = hit_response(self.shared.lists, &request, hit, latency);
                let (reply, rx) = mpsc::channel();
                let _ = reply.send(Ok(resp));
                return Ok(QueryTicket { rx });
            }
        }
        let mut depth = self.shared.queue_len.load(Ordering::SeqCst);
        loop {
            if depth >= self.shared.queue_cap {
                self.shared.recorder.record_queue_rejection();
                return Err(ServeError::QueueFull {
                    depth,
                    cap: self.shared.queue_cap,
                });
            }
            match self.shared.queue_len.compare_exchange(
                depth,
                depth + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(current) => depth = current,
            }
        }
        let (reply, rx) = mpsc::channel();
        sender.send(Job { request, reply }).map_err(|_| {
            self.shared.queue_len.fetch_sub(1, Ordering::SeqCst);
            ServeError::Shutdown
        })?;
        Ok(QueryTicket { rx })
    }

    /// Submits and waits: the blocking convenience path.
    ///
    /// Transparently retries [`ServeError::QueueFull`] — the only purely
    /// load-induced rejection — up to [`QUEUE_RETRIES`](self) times with a
    /// short linear backoff, since by its own taxonomy
    /// ([`ServeError::is_retryable`]) the queue drains as workers finish.
    /// Every attempt is still tallied in
    /// [`ServiceMetrics::rejected_queue_full`]; callers that want a single
    /// shot (or their own backoff) use [`submit`](TopKService::submit).
    ///
    /// [`ServiceMetrics::rejected_queue_full`]: crate::metrics::ServiceMetrics::rejected_queue_full
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse, ServeError> {
        let mut attempt = 0u32;
        loop {
            match self.submit(request.clone()) {
                Err(e @ ServeError::QueueFull { .. }) => {
                    if attempt >= QUEUE_RETRIES {
                        return Err(e);
                    }
                    attempt += 1;
                    std::thread::sleep(QUEUE_BACKOFF * attempt);
                }
                other => return other?.wait(),
            }
        }
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        self.shared.recorder.snapshot()
    }

    /// The Prometheus text exposition of every service counter and
    /// histogram (parseable by [`fagin_obs::prometheus::parse`]).
    pub fn metrics_text(&self) -> String {
        self.shared.recorder.metrics_text(&self.metrics())
    }

    /// A snapshot of the merged flight record, oldest event first: every
    /// query's lifecycle (admission, cache probe, coalesce join, rounds,
    /// batches, halt, delivery) on one monotonic time axis. The ring
    /// holds the most recent [`SERVICE_RING_CAPACITY`](self) events.
    pub fn flight_events(&self) -> Vec<TraceEvent> {
        self.shared.flight_ring().to_vec()
    }

    /// The slow-query log: the top-N executed queries by wall-clock
    /// latency, slowest first, each with its halt reason, certified
    /// guarantee, depth and access counts.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared.recorder.slow_queries()
    }

    /// Drops every cached entry (no-op when the cache is disabled).
    pub fn clear_cache(&self) {
        if let Some(cache) = self.shared.admit().cache.as_mut() {
            cache.clear();
        }
    }
}

impl Drop for TopKService {
    fn drop(&mut self) {
        // Closing the channel drains the pool: workers finish in-flight
        // queries, see the disconnect, and exit.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Renders a caught panic payload for [`ServeError::WorkerPanicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(shared: &Shared, receiver: &Mutex<mpsc::Receiver<Job>>) {
    // Each worker owns one run arena and one session, leased to every query
    // it executes: steady-state serving re-allocates neither per-object run
    // state nor session bookkeeping per request (both clear in O(1) via
    // generation stamps; see `fagin_core::arena`).
    let mut arena = RunScratch::new();
    // The source's session ring shares the service epoch, so draining it
    // into the service ring after each query is a plain copy on one time
    // axis.
    let mut source = WorkerSource::build(shared);
    // Cumulative fault-plane totals already drained into the service
    // metrics; breakers (and their counters) survive across queries, so
    // per-query contributions are deltas against this base.
    let mut fault_base = (0u64, 0u64, 0u64);
    loop {
        // Holding the lock only around `recv` hands exactly one job to
        // exactly one idle worker; execution happens lock-free. A sibling
        // that panicked mid-`recv` poisons the lock without corrupting the
        // channel — recover and keep draining, don't strand the queue.
        let job = receiver
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        let Ok(job) = job else {
            return; // channel closed: service is shutting down
        };
        shared.queue_len.fetch_sub(1, Ordering::SeqCst);
        let result = catch_unwind(AssertUnwindSafe(|| {
            execute(shared, &job.request, &mut source, &mut arena)
        }))
        .unwrap_or_else(|payload| {
            // The worker survives its query's panic: tally it, rebuild the
            // possibly mid-run source and arena, and fail this query with
            // a typed error instead of stranding the caller's ticket. (If
            // the query led a flight, the guard already failed it during
            // unwinding, so followers retried rather than blocking.)
            shared.recorder.record_worker_panic();
            arena = RunScratch::new();
            source = WorkerSource::build(shared);
            fault_base = (0, 0, 0);
            Err(ServeError::WorkerPanicked {
                message: panic_message(payload),
            })
        });
        // Fold this query's fault-plane activity into the service counters.
        let totals = source.fault_totals();
        shared.recorder.add_fault_counts(
            totals.0.saturating_sub(fault_base.0),
            totals.1.saturating_sub(fault_base.1),
            totals.2.saturating_sub(fault_base.2),
        );
        fault_base = totals;
        if let Err(e) = &result {
            match e {
                ServeError::CostBudgetExceeded { .. } => shared.recorder.record_budget_rejection(),
                _ => shared.recorder.record_failure(),
            }
        }
        // A dropped ticket just discards the answer.
        let _ = job.reply.send(result);
    }
}

/// A fault-injection `k`: requests with this `k` panic inside the worker
/// (after flight registration), exercising the catch/recover path.
#[cfg(test)]
pub(crate) const PANIC_K: usize = usize::MAX - 41;

/// How a query was admitted under the combined cache + in-flight lock.
enum Admission {
    /// Served from the cache inside the admission section.
    Hit(CacheHit),
    /// Elected leader of its shape's flight; must execute and settle.
    Lead(inflight::FlightGuard, Option<WarmStart>),
    /// An identical-shape covering flight exists; wait on it.
    Follow(Arc<Flight>),
    /// Executes without a flight (coalescing off / ineligible / retries
    /// exhausted).
    Solo(Option<WarmStart>),
}

/// The zero-access answer for a cache hit: a certified exact top-`K`'s
/// grade-sorted prefix serves any `k ≤ K` (the τ-prefix rule), and a
/// guarantee-tagged θ̂ entry serves any looser-θ request at its certified
/// `k`. Shared by the submit-side fast path and the worker-side admission
/// loop.
fn hit_response(m: usize, req: &QueryRequest, hit: CacheHit, latency: Duration) -> QueryResponse {
    let run = RunMetrics {
        final_threshold: hit.threshold,
        approximation_guarantee: hit.guarantee,
        ..RunMetrics::default()
    };
    let rationale = if hit.guarantee > 1.0 {
        format!(
            "cache hit: a certified θ̂={:.3} answer serves θ={} at k={} \
             (guarantee-ordering rule)",
            hit.guarantee, req.theta, req.k
        )
    } else {
        format!(
            "cache hit: a certified exact top-{} covers k={} (τ-prefix rule)",
            hit.certified_k, req.k
        )
    };
    QueryResponse {
        items: hit.items,
        stats: AccessStats::new(m),
        run,
        algorithm: format!("cache({})", hit.algorithm),
        source: AnswerSource::CacheHit {
            certified_k: hit.certified_k,
        },
        cost: 0.0,
        rationale: vec![rationale],
        latency,
    }
}

/// Finalizes one executed run: latency and histogram recording, the
/// slow-query log entry, the delivery trace event, and the response.
fn finish_executed(
    shared: &Shared,
    qid: u32,
    req: &QueryRequest,
    run: ExecutedRun,
    started: Instant,
) -> QueryResponse {
    let latency = started.elapsed();
    shared.recorder.record_completed(run.cost, false, latency);
    shared
        .recorder
        .record_bound_recomputations(run.metrics.bound_recomputations);
    shared.recorder.note_slow(SlowQuery {
        query: qid,
        latency,
        algorithm: run.name.clone(),
        k: req.k,
        halt: run.metrics.halt.label(),
        guarantee: run.metrics.approximation_guarantee,
        rounds: run.metrics.rounds,
        sorted_accesses: run.stats.sorted_total(),
        random_accesses: run.stats.random_total(),
        cost: run.cost,
        bound_recomputations: run.metrics.bound_recomputations,
    });
    shared.trace_done(qid, latency, run.stats.total());
    run.into_response(latency)
}

/// Answers one query: admission (cache read and flight join under one
/// lock) → plan (with warm start) → execute on the worker's reused
/// session + run arena → canonicalize → commit (cache write and flight
/// settlement under one lock).
fn execute(
    shared: &Shared,
    req: &QueryRequest,
    source: &mut WorkerSource<'_>,
    arena: &mut RunScratch,
) -> Result<QueryResponse, ServeError> {
    let started = Instant::now();
    let m = shared.lists;
    let qid = shared.next_query();
    shared.trace(qid, EventKind::Admitted, req.k as u32, 0);

    // Every request is cache-eligible: exact entries serve any θ by the
    // prefix rule, and guarantee-tagged θ̂ entries serve looser-θ requests
    // at their certified k (the cache's θ-ordering rule). Coalescing stays
    // exact-only and non-anytime: followers are handed the leader's answer
    // verbatim, which is only sound when both demand the same certificate
    // and the leader cannot be interrupted into a θ̂ answer.
    let cache_eligible = shared.cache_enabled;
    let coalesce_eligible = req.is_exact() && !req.is_anytime() && shared.coalescing;

    if !cache_eligible && !coalesce_eligible {
        let warm = if shared.cache_enabled {
            shared.admit().cache.as_mut().and_then(|c| c.warm_hint(req))
        } else {
            None
        };
        let run = run_query(shared, req, source, arena, warm, qid)?;
        return Ok(finish_executed(shared, qid, req, run, started));
    }

    let mut follow_failures = 0;
    // What happened on follow attempts that didn't pan out, prepended to
    // the eventual answer's rationale.
    let mut follow_notes: Vec<String> = Vec::new();
    loop {
        let admission = {
            let mut adm = shared.admit();
            let hit = if cache_eligible {
                adm.cache.as_mut().and_then(|c| c.lookup(req))
            } else {
                None
            };
            if let Some(hit) = hit {
                Admission::Hit(hit)
            } else if coalesce_eligible && follow_failures < FOLLOW_RETRIES {
                match inflight::join(&mut adm.inflight, &CacheKey::of(req), req.k) {
                    Join::Lead(guard) => {
                        let warm = adm.cache.as_mut().and_then(|c| c.warm_hint(req));
                        Admission::Lead(guard, warm)
                    }
                    Join::Follow(flight) => Admission::Follow(flight),
                }
            } else {
                let warm = adm.cache.as_mut().and_then(|c| c.warm_hint(req));
                Admission::Solo(warm)
            }
        };

        // The probe outcome is part of the query's lifecycle: a hit ends
        // it, a miss leads into a flight join or an execution.
        if cache_eligible {
            let hit = matches!(admission, Admission::Hit(_));
            shared.trace(qid, EventKind::CacheProbe, 0, u64::from(hit));
        }

        match admission {
            Admission::Hit(hit) => {
                let latency = started.elapsed();
                shared.recorder.record_completed(0.0, true, latency);
                shared.trace_done(qid, latency, 0);
                return Ok(hit_response(m, req, hit, latency));
            }
            Admission::Follow(flight) => {
                match flight.await_outcome() {
                    FlightOutcome::Answer(answer) if answer.serves(req.k) => {
                        let latency = started.elapsed();
                        shared.recorder.record_coalesced(latency);
                        shared.trace(
                            qid,
                            EventKind::CoalesceJoin,
                            answer.requested_k as u32,
                            latency.as_nanos().min(u128::from(u64::MAX)) as u64,
                        );
                        shared.trace_done(qid, latency, 0);
                        let take = req.k.min(answer.items.len());
                        return Ok(QueryResponse {
                            items: answer.items[..take].to_vec(),
                            stats: AccessStats::new(m),
                            run: RunMetrics {
                                final_threshold: answer.threshold,
                                approximation_guarantee: 1.0,
                                ..RunMetrics::default()
                            },
                            algorithm: format!("coalesced({})", answer.algorithm),
                            source: AnswerSource::Coalesced {
                                leader_k: answer.requested_k,
                            },
                            cost: 0.0,
                            rationale: vec![format!(
                                "coalesced: rode an identical in-flight top-{} run \
                                 (τ-prefix rule); zero middleware accesses",
                                answer.requested_k
                            )],
                            latency,
                        });
                    }
                    // The leader died of *source loss*: the shard is down
                    // for every flight member alike, so re-running solo
                    // would only hammer the same dead source once per
                    // follower (a solo-run storm). Fail fast with the
                    // leader's typed error; the caller can opt into
                    // degradation and retry.
                    FlightOutcome::Failed(e) if e.is_source_loss() => {
                        return Err(e);
                    }
                    // The leader failed or its answer cannot serve our k
                    // (e.g. a gradeless run at a larger k'): re-enter
                    // admission — the cache may have been fed meanwhile,
                    // or we lead our own run.
                    FlightOutcome::Failed(e) => {
                        follow_notes.push(format!(
                            "followed an in-flight run whose leader failed ({e}); re-admitted"
                        ));
                        follow_failures += 1;
                        continue;
                    }
                    FlightOutcome::Answer(answer) => {
                        follow_notes.push(format!(
                            "followed an in-flight top-{} run that could not serve k={}; \
                             re-admitted",
                            answer.requested_k, req.k
                        ));
                        follow_failures += 1;
                        continue;
                    }
                }
            }
            Admission::Lead(guard, warm) => {
                let run = run_query(shared, req, source, arena, warm, qid);
                return match run {
                    Ok(mut run) => {
                        let items = Arc::new(std::mem::take(&mut run.items));
                        // Commit atomically: install the cache entry and
                        // retire the flight in one admission section, so
                        // no query can miss both.
                        let mut adm = shared.admit();
                        if cache_eligible && run.exact {
                            if let Some(cache) = adm.cache.as_mut() {
                                cache.insert(
                                    req,
                                    CachedRun {
                                        items: Arc::clone(&items),
                                        threshold: run.metrics.final_threshold,
                                        requested_k: req.k,
                                        graded: run.graded,
                                        algorithm: run.name.clone(),
                                        guarantee: 1.0,
                                    },
                                );
                                run.rationale.push(cached_rationale(req.k, run.graded, 1.0));
                            }
                        }
                        let outcome = if run.exact {
                            FlightOutcome::Answer(FlightAnswer {
                                items: Arc::clone(&items),
                                threshold: run.metrics.final_threshold,
                                graded: run.graded,
                                requested_k: req.k,
                                algorithm: run.name.clone(),
                            })
                        } else if matches!(run.metrics.halt, HaltReason::SourceLost) {
                            // The leader survived a source loss with a
                            // certified θ̂ answer (it asked for
                            // degradation), but followers demanded exact:
                            // hand them the typed loss so they fail fast
                            // instead of re-running against the dead
                            // shard. The leader still gets its answer.
                            let list = source.lost_lists().first().copied().unwrap_or(0);
                            FlightOutcome::Failed(ServeError::Query(AlgoError::Access(
                                AccessError::SourceLost { list },
                            )))
                        } else {
                            // Unreachable for exact requests (the only
                            // ones that coalesce), but never hand
                            // followers an uncertified answer.
                            FlightOutcome::Failed(ServeError::WorkerPanicked {
                                message: "leader produced a non-exact answer".into(),
                            })
                        };
                        guard.settle(&mut adm.inflight, outcome);
                        drop(adm);
                        run.items = (*items).clone();
                        if !follow_notes.is_empty() {
                            follow_notes.append(&mut run.rationale);
                            run.rationale = std::mem::take(&mut follow_notes);
                        }
                        Ok(finish_executed(shared, qid, req, run, started))
                    }
                    Err(e) => {
                        // Followers wake with the typed error and retry
                        // (it may be leader-specific, e.g. a cost budget).
                        let mut adm = shared.admit();
                        guard.settle(&mut adm.inflight, FlightOutcome::Failed(e.clone()));
                        drop(adm);
                        Err(e)
                    }
                };
            }
            Admission::Solo(warm) => {
                let mut run = run_query(shared, req, source, arena, warm, qid)?;
                if cache_eligible {
                    // Every completed run certifies *something*: exact runs
                    // the τ-prefix family (guarantee 1.0), θ and degraded
                    // runs their guarantee θ̂ — cache it under that tag.
                    let guarantee = run.metrics.approximation_guarantee;
                    let mut adm = shared.admit();
                    if let Some(cache) = adm.cache.as_mut() {
                        cache.insert(
                            req,
                            CachedRun {
                                items: Arc::new(run.items.clone()),
                                threshold: run.metrics.final_threshold,
                                requested_k: req.k,
                                graded: run.graded,
                                algorithm: run.name.clone(),
                                guarantee,
                            },
                        );
                        run.rationale
                            .push(cached_rationale(req.k, run.graded, guarantee));
                    }
                }
                if !follow_notes.is_empty() {
                    follow_notes.append(&mut run.rationale);
                    run.rationale = std::mem::take(&mut follow_notes);
                }
                return Ok(finish_executed(shared, qid, req, run, started));
            }
        }
    }
}

fn cached_rationale(k: usize, graded: bool, guarantee: f64) -> String {
    if guarantee > 1.0 {
        format!("cached under guarantee θ̂={guarantee:.3}: serves any request with θ ≥ θ̂ at k={k}")
    } else {
        format!(
            "cached: certifies top-k for every k ≤ {}{}",
            k,
            if graded {
                ""
            } else {
                " (exact-k repeats only: gradeless)"
            }
        )
    }
}

/// One executed (not cached/coalesced) run, before response assembly.
struct ExecutedRun {
    items: Vec<ScoredObject>,
    graded: bool,
    exact: bool,
    stats: AccessStats,
    metrics: RunMetrics,
    name: String,
    source: AnswerSource,
    cost: f64,
    rationale: Vec<String>,
}

impl ExecutedRun {
    fn into_response(self, latency: Duration) -> QueryResponse {
        QueryResponse {
            items: self.items,
            stats: self.stats,
            run: self.metrics,
            algorithm: self.name,
            source: self.source,
            cost: self.cost,
            rationale: self.rationale,
            latency,
        }
    }
}

/// Plans and executes one query on the worker's reused session + run
/// arena (reset per query, so accounting and policy enforcement stay
/// per-query), then canonicalizes the answer.
fn run_query(
    shared: &Shared,
    req: &QueryRequest,
    source: &mut WorkerSource<'_>,
    arena: &mut RunScratch,
    warm: Option<WarmStart>,
    qid: u32,
) -> Result<ExecutedRun, ServeError> {
    #[cfg(test)]
    if req.k == PANIC_K {
        panic!("injected worker fault");
    }

    let m = shared.lists;
    // Stamp the session ring for this query; anything a previous query
    // left behind (e.g. after a panic) is stale and dropped.
    let run_start = match source.recorder_mut() {
        Some(rec) => {
            rec.clear();
            rec.set_query(qid);
            rec.now_nanos()
        }
        None => 0,
    };
    let warm_seeds = warm.as_ref().map(WarmStart::len);

    let agg = req.agg.instance();
    let mut caps = req.capabilities(m, shared.distinctness);
    // Failure-aware planning: lists whose circuit breakers are open are
    // not worth planning over — sorted scans on them would only convert
    // to immediate `SourceLost`. Plan over the survivors (§C: losing a
    // sorted source forces TA_Z-style Z-restriction; the monotone
    // capability lattice picks the right algorithm automatically).
    let lost = source.lost_lists();
    if !lost.is_empty() {
        caps = caps.degraded(lost.iter().copied(), false);
    }
    // The planner threads θ into every branch of its decision table
    // (θ-TA, TA_Z, θ-NRA, θ-CA); choices without a θ channel fall back
    // exact and say so in the rationale.
    let plan =
        Planner.plan_query_theta(&caps, agg, req.k, &req.costs, req.batch, warm, req.theta)?;
    let algorithm = plan.algorithm;
    let mut rationale = plan.rationale;
    if !lost.is_empty() {
        rationale.insert(
            0,
            format!(
                "failure-aware planning: lists {lost:?} have open breakers; \
                 planned over the survivors"
            ),
        );
    }

    // The worker's source, rewound in place: accounting and policy
    // enforcement are per-query even though the storage is per-worker.
    // (Breaker state deliberately survives the rewind.)
    source.reset(req.policy.clone());
    // Deadline-budget propagation: the resilience layer refuses retries
    // whose backoff would overrun the query deadline, converting them to
    // source loss so the anytime engine can degrade instead of stalling.
    source.set_deadline(req.deadline.map(|d| Instant::now() + d));
    let out: TopKOutput = if req.is_anytime() {
        // Degraded admission: run cooperatively. A deadline or watermark
        // interrupt — or a budget strike with a certificate in hand —
        // returns the best-known answer with its achieved guarantee θ̂
        // instead of erroring.
        let mut cfg = AnytimeConfig::new();
        if let Some(d) = req.deadline {
            cfg = cfg.with_deadline(Instant::now() + d);
        }
        match req.cost_budget {
            Some(limit) => {
                let mut guarded = CostBudget::new(&mut *source, req.costs, limit);
                if req.degrade {
                    let (model, at) = guarded.watermark(DEGRADE_WATERMARK);
                    cfg = cfg.with_cost_watermark(model, at);
                }
                match algorithm.run_anytime(&mut guarded, agg, req.k, &cfg, arena) {
                    Err(AlgoError::Access(AccessError::BudgetExhausted)) => {
                        // No certified snapshot existed when the budget
                        // struck (e.g. the first round never completed):
                        // there is nothing sound to degrade to.
                        return Err(ServeError::CostBudgetExceeded {
                            budget: limit,
                            spent: guarded.spent(),
                        });
                    }
                    other => other?,
                }
            }
            None => algorithm.run_anytime(&mut *source, agg, req.k, &cfg, arena)?,
        }
    } else {
        match req.cost_budget {
            Some(limit) => {
                let mut guarded = CostBudget::new(&mut *source, req.costs, limit);
                match algorithm.run_with(&mut guarded, agg, req.k, arena) {
                    Err(AlgoError::Access(AccessError::BudgetExhausted)) => {
                        return Err(ServeError::CostBudgetExceeded {
                            budget: limit,
                            spent: guarded.spent(),
                        });
                    }
                    other => other?,
                }
            }
            None => algorithm.run_with(&mut *source, agg, req.k, arena)?,
        }
    };
    if out.metrics.halt.is_interrupted() {
        shared.recorder.record_degraded();
        if let Some(rec) = source.recorder_mut() {
            rec.record(EventKind::Degraded, out.metrics.halt.code(), 1);
        }
        rationale.push(format!(
            "degraded admission: {:?} interrupt returned the best certified answer \
             with θ̂ = {:.3}",
            out.metrics.halt, out.metrics.approximation_guarantee
        ));
    }

    // Fold the run's flight record into the service histograms (round
    // durations from successive round boundaries; the sorted/random time
    // split from timed batch spans), then merge it into the service ring.
    if let Some(rec) = source.recorder() {
        let mut prev_round = run_start;
        let mut prev_round_no = 0u64;
        let mut sorted_nanos = 0u64;
        let mut random_nanos = 0u64;
        for ev in rec.iter() {
            match ev.kind {
                EventKind::RoundBoundary => {
                    // Round events are decimated (the middleware records
                    // every STRIDEth), so a stamp delta can span several
                    // rounds; `count` carries the true round number, and
                    // dividing by its delta recovers per-round duration.
                    let rounds = ev.count.saturating_sub(prev_round_no).max(1);
                    shared
                        .recorder
                        .record_round_duration(ev.nanos.saturating_sub(prev_round) / rounds);
                    prev_round = ev.nanos;
                    prev_round_no = ev.count;
                }
                EventKind::SortedBatch => sorted_nanos += ev.dur_nanos,
                EventKind::RandomLookup => random_nanos += ev.dur_nanos,
                _ => {}
            }
        }
        if sorted_nanos > 0 {
            shared.recorder.record_sorted_time(sorted_nanos);
        }
        if random_nanos > 0 {
            shared.recorder.record_random_time(random_nanos);
        }
    }
    if let Some(rec) = source.recorder_mut() {
        if !rec.is_empty() {
            rec.drain_into(&mut shared.flight_ring());
        }
    }

    let mut items = out.items;
    let graded = items.iter().all(|i| i.grade.is_some());
    if graded {
        // Canonical answer order: grade descending, ties towards the
        // smaller id — the same order the cache serves prefixes in.
        items.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.object.cmp(&b.object)));
    }

    let cost = req.costs.cost(&out.stats);
    // Report WarmStarted only when the chosen algorithm actually consumed
    // the seeds — the planner ignores them for choices without a seeding
    // channel (NRA, CA, …), and seeded TA-family runs advertise it in
    // their name (`Ta::name` appends "+warm(n)").
    let name = algorithm.name();
    let source = match warm_seeds {
        Some(seeds) if name.contains("+warm(") => AnswerSource::WarmStarted { seeds },
        _ => AnswerSource::Cold,
    };
    Ok(ExecutedRun {
        items,
        graded,
        exact: out.metrics.approximation_guarantee == 1.0,
        stats: out.stats,
        metrics: out.metrics,
        name,
        source,
        cost,
        rationale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::AggSpec;
    use fagin_middleware::{AccessPolicy, CostModel};

    fn db() -> Arc<Database> {
        Arc::new(
            Database::from_f64_columns(&[
                vec![0.90, 0.50, 0.10, 0.30, 0.75, 0.62],
                vec![0.20, 0.80, 0.50, 0.40, 0.70, 0.41],
                vec![0.60, 0.55, 0.95, 0.10, 0.65, 0.33],
            ])
            .unwrap(),
        )
    }

    #[test]
    fn answers_and_caches() {
        let service = TopKService::new(db(), ServiceConfig::default());
        let cold = service
            .query(QueryRequest::new(AggSpec::Average, 4))
            .unwrap();
        assert_eq!(cold.source, AnswerSource::Cold);
        assert!(cold.stats.total() > 0);
        assert!(cold.cost > 0.0);
        // Smaller k: prefix hit with zero accesses, identical items.
        let hit = service
            .query(QueryRequest::new(AggSpec::Average, 2))
            .unwrap();
        assert_eq!(hit.source, AnswerSource::CacheHit { certified_k: 4 });
        assert_eq!(hit.stats.total(), 0);
        assert_eq!(hit.cost, 0.0);
        assert_eq!(hit.items[..], cold.items[..2]);
        let m = service.metrics();
        assert_eq!(m.completed, 2);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cost_p50, Some(0.0));
    }

    #[test]
    fn near_miss_warm_starts() {
        let service = TopKService::new(db(), ServiceConfig::default());
        service
            .query(QueryRequest::new(AggSpec::Average, 2))
            .unwrap();
        let warm = service
            .query(QueryRequest::new(AggSpec::Average, 5))
            .unwrap();
        assert_eq!(warm.source, AnswerSource::WarmStarted { seeds: 2 });
        assert!(warm.algorithm.contains("warm"));
        // The warm run re-certifies the larger k; smaller ks now hit it.
        let hit = service
            .query(QueryRequest::new(AggSpec::Average, 3))
            .unwrap();
        assert_eq!(hit.source, AnswerSource::CacheHit { certified_k: 5 });
    }

    #[test]
    fn queue_cap_rejects_typed() {
        let service = TopKService::new(db(), ServiceConfig::default().with_queue_cap(0));
        // `submit` is single-shot: one attempt, one tallied rejection.
        let err = match service.submit(QueryRequest::new(AggSpec::Min, 1)) {
            Err(e) => e,
            Ok(_) => panic!("a zero-cap queue must reject"),
        };
        assert_eq!(err, ServeError::QueueFull { depth: 0, cap: 0 });
        assert!(err.is_retryable());
        assert_eq!(service.metrics().rejected_queue_full, 1);
        // `query` is retry-transparent for QueueFull: with a cap of zero
        // the queue never drains, so it exhausts its retry budget and
        // surfaces the same typed rejection, each attempt tallied.
        let err = service
            .query(QueryRequest::new(AggSpec::Min, 1))
            .unwrap_err();
        assert_eq!(err, ServeError::QueueFull { depth: 0, cap: 0 });
        assert_eq!(
            service.metrics().rejected_queue_full,
            1 + u64::from(1 + QUEUE_RETRIES)
        );
    }

    #[test]
    fn cost_budget_rejects_typed() {
        let service = TopKService::new(db(), ServiceConfig::default());
        let err = service
            .query(QueryRequest::new(AggSpec::Average, 2).with_cost_budget(2.0))
            .unwrap_err();
        match err {
            ServeError::CostBudgetExceeded { budget, spent } => {
                assert_eq!(budget, 2.0);
                assert!(spent <= budget);
            }
            other => panic!("expected CostBudgetExceeded, got {other:?}"),
        }
        assert_eq!(service.metrics().rejected_over_budget, 1);
        // A workable budget still answers.
        let ok = service
            .query(QueryRequest::new(AggSpec::Average, 2).with_cost_budget(10_000.0))
            .unwrap();
        assert!(ok.cost <= 10_000.0);
    }

    #[test]
    fn warm_source_reported_only_when_seeds_are_consumed() {
        // A CA-shaped request: distinct database + expensive random access.
        let service = TopKService::new(db(), ServiceConfig::default().with_distinctness(true));
        let shape =
            |k| QueryRequest::new(AggSpec::Average, k).with_costs(CostModel::new(1.0, 60.0));
        let cold = service.query(shape(2)).unwrap();
        assert!(cold.algorithm.starts_with("CA"), "{}", cold.algorithm);
        // The near-miss offers seeds, but CA has no seeding channel: the
        // response must say Cold, with the rationale explaining why.
        let next = service.query(shape(4)).unwrap();
        assert_eq!(next.source, AnswerSource::Cold);
        assert!(
            next.rationale
                .iter()
                .any(|r| r.contains("warm start") && r.contains("ignored")),
            "{:?}",
            next.rationale
        );
    }

    #[test]
    fn theta_near_misses_warm_start_too() {
        let service = TopKService::new(db(), ServiceConfig::default());
        service
            .query(QueryRequest::new(AggSpec::Average, 3))
            .unwrap();
        // A θ-request for a larger k is seeded from the exact certificate
        // (sound: exact seeds preserve θ-guarantees)…
        let approx = service
            .query(QueryRequest::new(AggSpec::Average, 5).with_theta(2.0))
            .unwrap();
        assert_eq!(approx.source, AnswerSource::WarmStarted { seeds: 3 });
        assert!(approx.algorithm.contains("+warm"));
        // …without writing the cache: the exact k=5 still has to execute.
        let exact = service
            .query(QueryRequest::new(AggSpec::Average, 5))
            .unwrap();
        assert!(!exact.is_cache_hit());
    }

    #[test]
    fn theta_requests_are_served_from_exact_certificates() {
        let service = TopKService::new(db(), ServiceConfig::default());
        service
            .query(QueryRequest::new(AggSpec::Average, 4))
            .unwrap();
        // An exact prefix is a valid θ-approximation for every θ: the θ
        // request rides the exact certificate with zero accesses.
        let approx = service
            .query(QueryRequest::new(AggSpec::Average, 2).with_theta(2.0))
            .unwrap();
        assert!(approx.is_cache_hit());
        assert_eq!(approx.guarantee(), 1.0);
        assert_eq!(approx.stats.total(), 0);
        // The exact k=2 still prefix-hits the k=4 entry.
        let hit = service
            .query(QueryRequest::new(AggSpec::Average, 2))
            .unwrap();
        assert!(hit.is_cache_hit());
    }

    #[test]
    fn theta_runs_are_cached_under_their_guarantee() {
        let service = TopKService::new(db(), ServiceConfig::default());
        let cold = service
            .query(QueryRequest::new(AggSpec::Average, 2).with_theta(2.0))
            .unwrap();
        assert_eq!(cold.source, AnswerSource::Cold);
        assert!(cold.algorithm.starts_with("TA_theta"), "{}", cold.algorithm);
        assert_eq!(cold.run.approximation_guarantee, 2.0);
        // A looser-θ repeat is served from the guarantee-tagged entry…
        let looser = service
            .query(QueryRequest::new(AggSpec::Average, 2).with_theta(3.0))
            .unwrap();
        assert!(looser.is_cache_hit());
        assert_eq!(looser.guarantee(), 2.0);
        assert_eq!(looser.stats.total(), 0);
        // …a tighter-θ request must execute (θ̂ = 2 certifies nothing
        // about θ = 1.5)…
        let tighter = service
            .query(QueryRequest::new(AggSpec::Average, 2).with_theta(1.5))
            .unwrap();
        assert!(!tighter.is_cache_hit());
        // …and so must the exact request, whose run then upgrades the
        // entry to the exact certificate.
        let exact = service
            .query(QueryRequest::new(AggSpec::Average, 2))
            .unwrap();
        assert_eq!(exact.source, AnswerSource::Cold);
        let again = service
            .query(QueryRequest::new(AggSpec::Average, 2).with_theta(2.0))
            .unwrap();
        assert!(again.is_cache_hit());
        assert_eq!(again.guarantee(), 1.0, "upgraded to the exact certificate");
    }

    #[test]
    fn degraded_admission_returns_certified_theta_instead_of_erroring() {
        let service = TopKService::new(db(), ServiceConfig::default().without_cache());
        // Establish this shape's exact cost, then budget well below it.
        let exact = service
            .query(QueryRequest::new(AggSpec::Average, 2))
            .unwrap();
        assert!(!exact.is_degraded());
        let budget = exact.cost * 0.6;
        // Without the opt-in, the budget rejects with a typed error…
        let err = service
            .query(QueryRequest::new(AggSpec::Average, 2).with_cost_budget(budget))
            .unwrap_err();
        assert!(matches!(err, ServeError::CostBudgetExceeded { .. }));
        // …with it, the same request answers degraded and certified.
        let resp = service
            .query(
                QueryRequest::new(AggSpec::Average, 2)
                    .with_cost_budget(budget)
                    .with_degradation(),
            )
            .unwrap();
        assert!(resp.is_degraded());
        assert!(resp.guarantee() >= 1.0 && resp.guarantee().is_finite());
        assert_eq!(resp.items.len(), 2);
        assert!(resp.cost <= budget, "degraded runs respect the budget");
        assert!(
            resp.rationale.iter().any(|r| r.contains("degraded")),
            "{:?}",
            resp.rationale
        );
        let m = service.metrics();
        assert_eq!(m.degraded, 1);
        assert_eq!(m.rejected_over_budget, 1, "only the non-degrade request");
    }

    #[test]
    fn deadline_requests_return_the_best_answer_at_the_deadline() {
        let service = TopKService::new(db(), ServiceConfig::default().without_cache());
        // An already-expired deadline interrupts at the first certified
        // round boundary instead of erroring.
        let resp = service
            .query(QueryRequest::new(AggSpec::Average, 2).with_deadline(Duration::ZERO))
            .unwrap();
        assert!(resp.is_degraded());
        assert!(resp.guarantee() >= 1.0 && resp.guarantee().is_finite());
        assert_eq!(resp.items.len(), 2);
        assert_eq!(service.metrics().degraded, 1);
    }

    #[test]
    fn cache_disabled_always_runs_cold() {
        let service = TopKService::new(db(), ServiceConfig::default().without_cache());
        let a = service.query(QueryRequest::new(AggSpec::Min, 2)).unwrap();
        let b = service.query(QueryRequest::new(AggSpec::Min, 2)).unwrap();
        assert_eq!(a.source, AnswerSource::Cold);
        assert_eq!(b.source, AnswerSource::Cold);
        assert_eq!(a.items, b.items, "cold runs are deterministic");
        assert_eq!(service.metrics().cache_hits, 0);
        service.clear_cache(); // no-op, must not panic
    }

    #[test]
    fn coalescing_disabled_still_serves() {
        // Without coalescing the service is the pre-coalescing service.
        let service = TopKService::new(db(), ServiceConfig::default().without_coalescing());
        let cold = service.query(QueryRequest::new(AggSpec::Sum, 3)).unwrap();
        assert_eq!(cold.source, AnswerSource::Cold);
        let hit = service.query(QueryRequest::new(AggSpec::Sum, 2)).unwrap();
        assert!(hit.is_cache_hit());
        let m = service.metrics();
        assert_eq!(m.coalesced, 0);
    }

    #[test]
    fn worker_panics_are_caught_and_the_pool_survives() {
        let service = TopKService::new(db(), ServiceConfig::default().with_workers(1));
        let err = service
            .query(QueryRequest::new(AggSpec::Min, PANIC_K))
            .unwrap_err();
        match err {
            ServeError::WorkerPanicked { message } => {
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        let m = service.metrics();
        assert_eq!(m.worker_panics, 1);
        assert_eq!(m.failed, 1);
        // The same single worker keeps serving — including the very shape
        // whose flight the panicking run abandoned.
        let ok = service.query(QueryRequest::new(AggSpec::Min, 2)).unwrap();
        assert_eq!(ok.items.len(), 2);
        assert_eq!(service.metrics().worker_panics, 1);
    }

    #[test]
    fn nra_requests_are_served_and_repeat_hits_exact_k() {
        let service = TopKService::new(db(), ServiceConfig::default());
        let req = || {
            QueryRequest::new(AggSpec::Min, 3)
                .with_policy(AccessPolicy::no_random_access())
                .require_grades(false)
        };
        let cold = service.query(req()).unwrap();
        assert!(cold.algorithm.starts_with("NRA"));
        assert_eq!(cold.stats.random_total(), 0, "policy enforced per query");
        let repeat = service.query(req()).unwrap();
        assert!(repeat.is_cache_hit());
        assert_eq!(repeat.stats.total(), 0);
        assert_eq!(repeat.objects(), cold.objects());
    }

    #[test]
    fn zero_k_is_a_query_error() {
        let service = TopKService::new(db(), ServiceConfig::default());
        let err = service
            .query(QueryRequest::new(AggSpec::Min, 0))
            .unwrap_err();
        assert_eq!(err, ServeError::Query(AlgoError::ZeroK));
        assert_eq!(service.metrics().failed, 1);
    }

    #[test]
    fn clear_cache_forces_cold_runs() {
        let service = TopKService::new(db(), ServiceConfig::default());
        service.query(QueryRequest::new(AggSpec::Sum, 3)).unwrap();
        service.clear_cache();
        let after = service.query(QueryRequest::new(AggSpec::Sum, 3)).unwrap();
        assert_eq!(after.source, AnswerSource::Cold);
    }

    #[test]
    fn drop_joins_workers() {
        let service = TopKService::new(db(), ServiceConfig::default().with_workers(4));
        assert_eq!(service.workers(), 4);
        let ticket = service.submit(QueryRequest::new(AggSpec::Min, 1)).unwrap();
        drop(service); // drains in-flight work, then joins
        assert!(ticket.wait().is_ok(), "in-flight answers are delivered");
    }

    #[test]
    fn fault_plan_degrades_with_certificate() {
        // List 1 dies after the first complete round. The query opted
        // into degradation, so the anytime rescue returns the best
        // certified snapshot as a θ̂ answer with halt = SourceLost, and
        // every fault and retry is tallied in the service metrics.
        let service = TopKService::new(
            db(),
            ServiceConfig::default()
                .with_workers(1)
                .with_fault_plan(FaultPlan::new().kill_list_from(1, 9))
                .with_retry_policy(RetryPolicy::instant(1)),
        );
        let resp = service
            .query(QueryRequest::new(AggSpec::Average, 2).with_degradation())
            .unwrap();
        assert_eq!(resp.run.halt, HaltReason::SourceLost);
        assert!(
            resp.run.approximation_guarantee >= 1.0,
            "degraded answers certify a θ̂: {}",
            resp.run.approximation_guarantee
        );
        assert!(resp.is_degraded());
        let m = service.metrics();
        assert!(m.source_faults > 0, "faults tallied: {m}");
        assert!(m.retries > 0, "retries tallied: {m}");
        assert_eq!(m.degraded, 1);
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn exact_queries_surface_typed_source_loss() {
        // Without the degradation opt-in, a dead source is a typed,
        // non-retryable error — never a silently partial answer.
        let service = TopKService::new(
            db(),
            ServiceConfig::default()
                .with_workers(1)
                .with_fault_plan(FaultPlan::new().kill_list_from(0, 0))
                .with_retry_policy(RetryPolicy::instant(0)),
        );
        let err = service
            .query(QueryRequest::new(AggSpec::Min, 2))
            .unwrap_err();
        assert!(err.is_source_loss(), "got {err:?}");
        assert!(!err.is_retryable());
        let m = service.metrics();
        assert!(m.source_faults > 0);
        assert_eq!(m.failed, 1);
    }

    #[test]
    fn open_breakers_drive_failure_aware_planning() {
        // List 2 is dead from the first access. With zero retries the
        // breaker books one consecutive failure per query and trips on
        // the third; from then on planning consults the open breaker
        // instead of walking back into the loss.
        let service = TopKService::new(
            db(),
            ServiceConfig::default()
                .with_workers(1)
                .with_fault_plan(FaultPlan::new().kill_list_from(2, 0))
                .with_retry_policy(RetryPolicy::instant(0)),
        );
        let mut tripped = false;
        for k in 1..=4 {
            let err = service
                .query(QueryRequest::new(AggSpec::Average, k))
                .unwrap_err();
            assert!(err.is_source_loss(), "got {err:?}");
            if service.metrics().breaker_trips > 0 {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "breaker should trip: {}", service.metrics());
        let faults_at_trip = service.metrics().source_faults;

        // Failure-aware planning is now observable two ways. A request
        // whose capabilities cannot cover the surviving lists is refused
        // at *plan* time with a typed error (before the trip, the same
        // shape planned NRA and died at runtime instead):
        let err = service
            .query(
                QueryRequest::new(AggSpec::Average, 2)
                    .with_policy(AccessPolicy::no_random_access())
                    .require_grades(false),
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::Plan(_)), "got {err:?}");

        // And a plannable request fails fast on the open breaker's
        // rejection — no fresh faults, no retry storm against the dead
        // shard.
        let err = service
            .query(QueryRequest::new(AggSpec::Average, 2))
            .unwrap_err();
        assert!(err.is_source_loss(), "got {err:?}");
        assert_eq!(
            service.metrics().source_faults,
            faults_at_trip,
            "open breaker rejects without re-probing the dead source"
        );
    }
}
