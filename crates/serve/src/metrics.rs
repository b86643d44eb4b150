//! Service-level metrics: throughput, hit rate, bounded latency/cost
//! histograms, and the slow-query log.
//!
//! Per-query samples land in constant-memory log₂-bucket histograms
//! ([`fagin_obs::Histogram`]): recording is one relaxed atomic increment,
//! memory never grows with query count, and quantiles are answered from
//! bucket upper edges (a ≤2× overestimate — the resolution the bucket
//! scheme advertises). This replaces the earlier sliding sample window:
//! percentiles now describe *every* completion since the service started,
//! not just the most recent few thousand.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fagin_obs::{prometheus, Histogram};

/// Entries the slow-query log retains: the top-N completed queries by
/// wall-clock latency, preallocated so steady-state inserts never grow
/// the backing storage.
const SLOW_LOG_CAPACITY: usize = 16;

/// One entry of the slow-query log: a completed (executed, not cached or
/// coalesced) query's latency together with everything needed to explain
/// it — how the run halted, what it certified, and how hard it hit the
/// middleware.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowQuery {
    /// The query's trace id (matches the flight-record `query` stamps).
    pub query: u32,
    /// Wall-clock time from worker pickup to answer.
    pub latency: Duration,
    /// Algorithm that produced the answer.
    pub algorithm: String,
    /// The requested `k`.
    pub k: usize,
    /// Why the run ended ([`fagin_core::HaltReason::label`]).
    pub halt: &'static str,
    /// The certified guarantee: 1.0 exact, otherwise θ (or θ̂ when
    /// degraded).
    pub guarantee: f64,
    /// Rounds of sorted access in parallel (the paper's depth `d`).
    pub rounds: u64,
    /// Sorted accesses performed.
    pub sorted_accesses: u64,
    /// Random accesses performed.
    pub random_accesses: u64,
    /// Middleware cost under the request's cost model.
    pub cost: f64,
    /// `W`/`B` bound evaluations the engine performed
    /// ([`fagin_core::RunMetrics::bound_recomputations`]): the
    /// deterministic bookkeeping-work counter that exposes a blow-up the
    /// access counts cannot show.
    pub bound_recomputations: u64,
}

/// The preallocated top-N-by-latency log.
struct SlowLog {
    entries: Vec<SlowQuery>,
}

impl SlowLog {
    fn new() -> Self {
        SlowLog {
            entries: Vec::with_capacity(SLOW_LOG_CAPACITY),
        }
    }

    fn note(&mut self, q: SlowQuery) {
        if self.entries.len() < SLOW_LOG_CAPACITY {
            self.entries.push(q);
            return;
        }
        // Full: replace the fastest held entry iff the newcomer is slower.
        if let Some((i, min)) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.latency)
        {
            if q.latency > min.latency {
                self.entries[i] = q;
            }
        }
    }
}

/// Thread-safe metrics recorder shared by the service front door and its
/// workers. Counters and histograms are atomics (shared-reference,
/// allocation-free recording); only the slow-query log sits behind a
/// mutex, touched once per executed query.
pub(crate) struct Recorder {
    started: Instant,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced: AtomicU64,
    degraded: AtomicU64,
    rejected_queue: AtomicU64,
    rejected_budget: AtomicU64,
    failed: AtomicU64,
    worker_panics: AtomicU64,
    source_faults: AtomicU64,
    retries: AtomicU64,
    breaker_trips: AtomicU64,
    /// Middleware cost per completed query (cost-model units, rounded).
    costs: Histogram,
    /// Wall-clock latency per completed query, nanoseconds.
    latency: Histogram,
    /// Per-round drive-loop duration, nanoseconds (from the flight
    /// record's round boundaries).
    round_duration: Histogram,
    /// Time a query spent inside timed sorted-access batches, nanoseconds.
    sorted_time: Histogram,
    /// Time a query spent inside timed random-lookup batches, nanoseconds.
    random_time: Histogram,
    /// Engine bound evaluations per executed run.
    bound_recomputations: Histogram,
    slow: Mutex<SlowLog>,
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Recorder {
            started: Instant::now(),
            completed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            rejected_queue: AtomicU64::new(0),
            rejected_budget: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            source_faults: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            costs: Histogram::new(),
            latency: Histogram::new(),
            round_duration: Histogram::new(),
            sorted_time: Histogram::new(),
            random_time: Histogram::new(),
            bound_recomputations: Histogram::new(),
            slow: Mutex::new(SlowLog::new()),
        }
    }

    pub(crate) fn record_completed(&self, cost: f64, cache_hit: bool, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.costs.record(cost.max(0.0).round() as u64);
        self.latency.record_nanos(latency);
    }

    /// A query answered by riding an identical in-flight leader run
    /// (single-flight coalescing). Counted as completed with zero cost but
    /// as neither a cache hit nor a miss: the hit rate keeps describing
    /// the *finished-run* cache alone.
    pub(crate) fn record_coalesced(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        self.costs.record(0);
        self.latency.record_nanos(latency);
    }

    /// A query answered degraded: an anytime trigger (deadline, cost
    /// watermark, or a budget strike with a certificate in hand) cut the
    /// run short and the best certified θ̂ answer was returned instead of
    /// an error. Counted *in addition to* the completion tally.
    pub(crate) fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker caught a panic while executing a query (the worker
    /// survives; the caller got [`ServeError::WorkerPanicked`]).
    ///
    /// [`ServeError::WorkerPanicked`]: crate::error::ServeError::WorkerPanicked
    pub(crate) fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// One drive-loop round's duration, from the flight record.
    pub(crate) fn record_round_duration(&self, nanos: u64) {
        self.round_duration.record(nanos);
    }

    /// Total timed sorted-access time of one query, from the flight record.
    pub(crate) fn record_sorted_time(&self, nanos: u64) {
        self.sorted_time.record(nanos);
    }

    /// Total timed random-lookup time of one query, from the flight record.
    pub(crate) fn record_random_time(&self, nanos: u64) {
        self.random_time.record(nanos);
    }

    /// The engine's bound evaluations for one executed run (cache hits and
    /// coalesced rides execute nothing and record nothing).
    pub(crate) fn record_bound_recomputations(&self, count: u64) {
        self.bound_recomputations.record(count);
    }

    /// Offers a completed query to the slow-query log (kept iff it ranks
    /// in the top [`SLOW_LOG_CAPACITY`] by latency).
    pub(crate) fn note_slow(&self, q: SlowQuery) {
        self.slow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .note(q);
    }

    /// The slow-query log, slowest first.
    pub(crate) fn slow_queries(&self) -> Vec<SlowQuery> {
        let mut entries = self
            .slow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entries
            .clone();
        entries.sort_by_key(|e| std::cmp::Reverse(e.latency));
        entries
    }

    pub(crate) fn record_queue_rejection(&self) {
        self.rejected_queue.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_budget_rejection(&self) {
        self.rejected_budget.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_failure(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one batch of fault-plane counters (drained from a worker's
    /// `FaultStats` deltas after each executed query) into the service
    /// totals: transient source faults observed, transparent retries
    /// performed, circuit-breaker trips.
    pub(crate) fn add_fault_counts(&self, faults: u64, retries: u64, trips: u64) {
        if faults > 0 {
            self.source_faults.fetch_add(faults, Ordering::Relaxed);
        }
        if retries > 0 {
            self.retries.fetch_add(retries, Ordering::Relaxed);
        }
        if trips > 0 {
            self.breaker_trips.fetch_add(trips, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> ServiceMetrics {
        let completed = self.completed.load(Ordering::Relaxed);
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64();
        ServiceMetrics {
            completed,
            cache_hits: hits,
            cache_misses: misses,
            coalesced: self.coalesced.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue.load(Ordering::Relaxed),
            rejected_over_budget: self.rejected_budget.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            source_faults: self.source_faults.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            elapsed_secs: elapsed,
            queries_per_sec: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            cost_p50: self.costs.quantile(0.50).map(|v| v as f64),
            cost_p99: self.costs.quantile(0.99).map(|v| v as f64),
            latency_p50: self.latency.quantile(0.50).map(Duration::from_nanos),
            latency_p99: self.latency.quantile(0.99).map(Duration::from_nanos),
        }
    }

    /// The Prometheus text exposition of every counter and histogram
    /// (round-trips through [`fagin_obs::prometheus::parse`]).
    pub(crate) fn metrics_text(&self, m: &ServiceMetrics) -> String {
        use prometheus::{counter, gauge, histogram};
        let mut out = String::new();
        counter(
            &mut out,
            "fagin_queries_completed_total",
            "Queries answered (cache hits included).",
            m.completed,
        );
        counter(
            &mut out,
            "fagin_cache_hits_total",
            "Queries served from the result cache.",
            m.cache_hits,
        );
        counter(
            &mut out,
            "fagin_cache_misses_total",
            "Completed queries that had to execute.",
            m.cache_misses,
        );
        counter(
            &mut out,
            "fagin_coalesced_total",
            "Queries that rode an identical in-flight run.",
            m.coalesced,
        );
        counter(
            &mut out,
            "fagin_degraded_total",
            "Queries answered degraded by an anytime interrupt.",
            m.degraded,
        );
        counter(
            &mut out,
            "fagin_rejected_queue_full_total",
            "Submissions rejected by the queue-depth cap.",
            m.rejected_queue_full,
        );
        counter(
            &mut out,
            "fagin_rejected_over_budget_total",
            "Queries aborted by their middleware-cost budget.",
            m.rejected_over_budget,
        );
        counter(
            &mut out,
            "fagin_failed_total",
            "Queries that failed for any other reason.",
            m.failed,
        );
        counter(
            &mut out,
            "fagin_worker_panics_total",
            "Worker panics caught at the worker loop.",
            m.worker_panics,
        );
        counter(
            &mut out,
            "fagin_source_faults_total",
            "Transient source faults observed by the fault plane.",
            m.source_faults,
        );
        counter(
            &mut out,
            "fagin_source_retries_total",
            "Transparent retries of transient source faults.",
            m.retries,
        );
        counter(
            &mut out,
            "fagin_breaker_trips_total",
            "Per-list circuit-breaker trips (source declared lost).",
            m.breaker_trips,
        );
        gauge(
            &mut out,
            "fagin_cache_hit_rate",
            "cache_hits / (cache_hits + cache_misses).",
            m.cache_hit_rate,
        );
        gauge(
            &mut out,
            "fagin_queries_per_second",
            "Completions per second since service start.",
            m.queries_per_sec,
        );
        histogram(
            &mut out,
            "fagin_query_cost",
            "Middleware cost per completed query (cost-model units).",
            &self.costs.snapshot(),
            1.0,
        );
        histogram(
            &mut out,
            "fagin_query_latency_seconds",
            "Wall-clock latency per completed query.",
            &self.latency.snapshot(),
            1e9,
        );
        histogram(
            &mut out,
            "fagin_round_duration_seconds",
            "Drive-loop round duration.",
            &self.round_duration.snapshot(),
            1e9,
        );
        histogram(
            &mut out,
            "fagin_sorted_batch_seconds",
            "Per-query time inside timed sorted-access batches.",
            &self.sorted_time.snapshot(),
            1e9,
        );
        histogram(
            &mut out,
            "fagin_random_lookup_seconds",
            "Per-query time inside timed random-lookup batches.",
            &self.random_time.snapshot(),
            1e9,
        );
        histogram(
            &mut out,
            "fagin_bound_recomputations",
            "Engine bound (W/B) evaluations per executed run.",
            &self.bound_recomputations.snapshot(),
            1.0,
        );
        out
    }
}

/// A point-in-time snapshot of a service's counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceMetrics {
    /// Queries answered (cache hits included).
    pub completed: u64,
    /// Queries served from the result cache.
    pub cache_hits: u64,
    /// Completed queries that had to execute.
    pub cache_misses: u64,
    /// Queries answered by riding an identical in-flight run
    /// (single-flight coalescing) — counted in `completed` but in neither
    /// `cache_hits` nor `cache_misses`.
    pub coalesced: u64,
    /// Queries answered degraded: an anytime interrupt (deadline, cost
    /// watermark, or budget strike) returned the best certified θ̂ answer
    /// instead of an error. A subset of `completed`.
    pub degraded: u64,
    /// Submissions rejected by the queue-depth cap.
    pub rejected_queue_full: u64,
    /// Queries aborted by their middleware-cost budget.
    pub rejected_over_budget: u64,
    /// Queries that failed for any other reason.
    pub failed: u64,
    /// Worker panics caught at the worker loop (each one also failed its
    /// query with a typed error; the worker itself survived).
    pub worker_panics: u64,
    /// Transient source faults observed by the fault plane (remote
    /// transport failures, injected faults). Each one was either retried
    /// transparently or converted into a permanent source loss.
    pub source_faults: u64,
    /// Transparent retries the fault plane performed; a subset of
    /// `source_faults` (the rest became losses).
    pub retries: u64,
    /// Circuit-breaker trips: a list's consecutive-failure streak crossed
    /// the threshold and the source was declared lost until a half-open
    /// probe succeeds.
    pub breaker_trips: u64,
    /// Seconds since the service started.
    pub elapsed_secs: f64,
    /// `completed / elapsed_secs`.
    pub queries_per_sec: f64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 before any query.
    pub cache_hit_rate: f64,
    /// Median middleware cost per completed query (cache hits cost 0),
    /// over every completion since service start. Reported as the holding
    /// log₂ bucket's upper edge (a ≤2× overestimate).
    pub cost_p50: Option<f64>,
    /// 99th-percentile middleware cost per completed query, same bucket
    /// semantics as [`ServiceMetrics::cost_p50`].
    pub cost_p99: Option<f64>,
    /// Median wall-clock latency per completed query (bucket upper edge,
    /// ≤2× overestimate), over every completion since service start.
    pub latency_p50: Option<Duration>,
    /// 99th-percentile wall-clock latency per completed query, same
    /// bucket semantics as [`ServiceMetrics::latency_p50`].
    pub latency_p99: Option<Duration>,
}

impl fmt::Display for ServiceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries ({:.1}/s) | hit rate {:.1}% | coalesced {} | degraded {} | \
             cost p50 {} p99 {} | latency p50 {} p99 {} | rejected {}+{} | failed {} | \
             panics {} | faults {} (retried {}, trips {})",
            self.completed,
            self.queries_per_sec,
            self.cache_hit_rate * 100.0,
            self.coalesced,
            self.degraded,
            self.cost_p50.map_or("-".into(), |c| format!("{c:.1}")),
            self.cost_p99.map_or("-".into(), |c| format!("{c:.1}")),
            self.latency_p50.map_or("-".into(), |l| format!("{l:.2?}")),
            self.latency_p99.map_or("-".into(), |l| format!("{l:.2?}")),
            self.rejected_queue_full,
            self.rejected_over_budget,
            self.failed,
            self.worker_panics,
            self.source_faults,
            self.retries,
            self.breaker_trips,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_snapshot_aggregates() {
        let r = Recorder::new();
        r.record_completed(10.0, false, Duration::from_micros(100));
        r.record_completed(0.0, true, Duration::from_micros(5));
        r.record_completed(30.0, false, Duration::from_micros(200));
        r.record_queue_rejection();
        r.record_budget_rejection();
        r.record_failure();
        r.record_degraded();
        r.add_fault_counts(5, 4, 1);
        r.add_fault_counts(0, 0, 0);
        let m = r.snapshot();
        assert_eq!(m.completed, 3);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 2);
        assert_eq!(m.coalesced, 0);
        assert_eq!(m.degraded, 1);
        assert!(m.to_string().contains("degraded 1"));
        assert_eq!(m.worker_panics, 0);
        assert_eq!(m.rejected_queue_full, 1);
        assert_eq!(m.rejected_over_budget, 1);
        assert_eq!(m.failed, 1);
        assert_eq!(m.source_faults, 5);
        assert_eq!(m.retries, 4);
        assert_eq!(m.breaker_trips, 1);
        assert!(m.to_string().contains("faults 5 (retried 4, trips 1)"));
        assert!((m.cache_hit_rate - 1.0 / 3.0).abs() < 1e-12);
        // Log₂-bucket upper edges: 10 lands in [8, 15], 30 in [16, 31].
        assert_eq!(m.cost_p50, Some(15.0));
        assert_eq!(m.cost_p99, Some(31.0));
        assert!(m.cost_p50 <= m.cost_p99);
        // Latency percentiles cover the recorded samples within a bucket.
        let p50 = m.latency_p50.unwrap();
        let p99 = m.latency_p99.unwrap();
        assert!(p50 >= Duration::from_micros(100) && p50 < Duration::from_micros(200));
        assert!(p99 >= Duration::from_micros(200) && p99 < Duration::from_micros(400));
        let text = m.to_string();
        assert!(text.contains("3 queries") && text.contains("hit rate 33.3%"));
        assert!(text.contains("latency p50"));
    }

    #[test]
    fn coalesced_and_panics_count_separately_from_the_hit_rate() {
        let r = Recorder::new();
        r.record_completed(10.0, false, Duration::from_micros(50));
        r.record_coalesced(Duration::from_micros(1));
        r.record_coalesced(Duration::from_micros(1));
        r.record_worker_panic();
        let m = r.snapshot();
        assert_eq!(m.completed, 3, "coalesced answers complete");
        assert_eq!(m.coalesced, 2);
        assert_eq!(m.worker_panics, 1);
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.cache_misses, 1, "only the executing leader is a miss");
        assert_eq!(m.cache_hit_rate, 0.0, "hit rate ignores coalesced rides");
        assert_eq!(m.cost_p50, Some(0.0), "coalesced rides cost nothing");
        assert!(m.to_string().contains("coalesced 2"));
    }

    #[test]
    fn histograms_hold_constant_memory_and_bound_quantile_error() {
        let r = Recorder::new();
        // Far more samples than any sliding window would hold: the
        // histograms absorb them all in constant memory and the quantile
        // stays within the advertised 2× of the exact nearest-rank value.
        for i in 0..10_000u64 {
            r.record_completed(i as f64, false, Duration::from_nanos(i));
        }
        let m = r.snapshot();
        assert_eq!(m.completed, 10_000);
        let p50 = m.cost_p50.unwrap();
        assert!((5000.0..=10_000.0).contains(&p50), "p50 {p50}");
        let p99 = m.cost_p99.unwrap();
        assert!((9900.0..=19_800.0).contains(&p99), "p99 {p99}");
        assert!(m.latency_p50.unwrap() <= m.latency_p99.unwrap());
    }

    #[test]
    fn slow_log_keeps_the_top_n_by_latency() {
        let r = Recorder::new();
        let q = |id: u32, micros: u64| SlowQuery {
            query: id,
            latency: Duration::from_micros(micros),
            algorithm: "TA".into(),
            k: 10,
            halt: "converged",
            guarantee: 1.0,
            rounds: 3,
            sorted_accesses: 30,
            random_accesses: 60,
            cost: 90.0,
            bound_recomputations: 120,
        };
        // Overfill with ascending latencies: only the slowest survive.
        for i in 0..(SLOW_LOG_CAPACITY as u64 + 10) {
            r.note_slow(q(i as u32, i + 1));
        }
        let log = r.slow_queries();
        assert_eq!(log.len(), SLOW_LOG_CAPACITY);
        assert!(
            log.windows(2).all(|w| w[0].latency >= w[1].latency),
            "slowest first"
        );
        assert_eq!(
            log[0].latency,
            Duration::from_micros(SLOW_LOG_CAPACITY as u64 + 10)
        );
        // The fastest retained entry beats every evicted one.
        assert!(log.last().unwrap().latency > Duration::from_micros(10));
        // A fast newcomer is rejected once the log is full.
        r.note_slow(q(999, 1));
        assert!(r.slow_queries().iter().all(|e| e.query != 999));
    }

    #[test]
    fn metrics_text_round_trips_through_the_parser() {
        let r = Recorder::new();
        r.record_completed(100.0, false, Duration::from_micros(250));
        r.record_completed(0.0, true, Duration::from_micros(2));
        r.record_round_duration(50_000);
        r.record_sorted_time(40_000);
        r.record_random_time(10_000);
        r.record_bound_recomputations(4_321);
        r.add_fault_counts(3, 2, 1);
        let m = r.snapshot();
        let text = r.metrics_text(&m);
        let samples = fagin_obs::prometheus::parse(&text).expect("well-formed exposition");
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(find("fagin_queries_completed_total").value, 2.0);
        assert_eq!(find("fagin_cache_hits_total").value, 1.0);
        assert_eq!(find("fagin_cache_hit_rate").value, 0.5);
        assert_eq!(find("fagin_source_faults_total").value, 3.0);
        assert_eq!(find("fagin_source_retries_total").value, 2.0);
        assert_eq!(find("fagin_breaker_trips_total").value, 1.0);
        assert_eq!(find("fagin_query_cost_count").value, 2.0);
        assert_eq!(find("fagin_query_latency_seconds_count").value, 2.0);
        assert_eq!(find("fagin_round_duration_seconds_count").value, 1.0);
        // One executed run (the hit executed nothing).
        assert_eq!(find("fagin_bound_recomputations_count").value, 1.0);
        assert_eq!(find("fagin_bound_recomputations_sum").value, 4_321.0);
        // The +Inf bucket closes every histogram family.
        let inf_buckets = samples
            .iter()
            .filter(|s| s.name.ends_with("_bucket") && s.label("le") == Some("+Inf"))
            .count();
        assert_eq!(inf_buckets, 6, "six histogram families");
    }
}
