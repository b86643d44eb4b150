//! The traced mode: spans recorded from benchmark code around calls into
//! each layer, and a replay of every executed query through the layers.
//!
//! The service runs its queries on worker threads the benchmark cannot
//! see into, so the traced run times the serve layer from outside
//! (`submit`, `wait`, and the worker time the service reports in
//! `QueryResponse::latency`) and then replays each executed query itself:
//! `QueryRequest::capabilities` → `Planner::plan_query_theta` →
//! `TopKAlgorithm::run_with` or `run_anytime`, through `CostBudget` when
//! the request carries a budget, with every access passing a timing
//! [`Middleware`] wrapper around a `Session` or a `RemoteSource`. A result
//! cache fed with the service's own answers decides hits and warm starts
//! exactly as the service's did, and the replay must reproduce each
//! query's access counts.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fagin_core::planner::Planner;
use fagin_core::{AlgoError, AnytimeConfig, RunScratch, TopKOutput};
use fagin_middleware::{
    AccessError, AccessPolicy, AccessStats, CostBudget, Entry, EventKind, Grade, Middleware,
    ObjectId, Session,
};
use fagin_remote::RemoteSource;
use fagin_serve::{AnswerSource, CachedRun, QueryRequest, ResultCache, ServiceConfig};

use crate::run::{Answer, LoopOutcome};

/// The service's degraded-admission watermark (`DEGRADE_WATERMARK` in
/// fagin-serve): the fraction of a degradable query's cost budget at which
/// its anytime run yields. If the service changes it, the replay's access
/// counts stop matching and the traced run fails.
const DEGRADE_WATERMARK: f64 = 0.9;

/// The layer a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One query as the client saw it, `submit` to answer.
    Query,
    /// Inside `TopKService::submit`.
    Submit,
    /// Inside `QueryTicket::wait`.
    Wait,
    /// Worker pickup to answer, as `QueryResponse::latency` reports it.
    Worker,
    /// One replayed query.
    Replay,
    /// `Planner::plan_query_theta`.
    Plan,
    /// `run_with` / `run_anytime`.
    Run,
    /// Every sorted access of one run, summed.
    Sorted,
    /// Every random access of one run, summed.
    Random,
}

impl Layer {
    /// The span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Query => "client.query",
            Layer::Submit => "serve.submit",
            Layer::Wait => "serve.wait",
            Layer::Worker => "serve.worker",
            Layer::Replay => "replay.query",
            Layer::Plan => "core.plan",
            Layer::Run => "core.run",
            Layer::Sorted => "middleware.sorted",
            Layer::Random => "middleware.random",
        }
    }
}

/// One span: a layer's time for one query, with the span that caused it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of the query in the counted sequence.
    pub query: u32,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    /// What the span times.
    pub layer: Layer,
    /// Start, in nanoseconds since the phase began (summed spans start at
    /// their first call).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Accesses the span covers (access spans only).
    pub count: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Records a span and returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Writes every span as tab-separated lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tquery\tparent\tlayer\tstart_ns\tdur_ns\tcount")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.query,
                s.layer.name(),
                s.start_ns,
                s.dur_ns,
                s.count
            )?;
        }
        out.flush()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Records the serve-layer spans of a traced loop's counted queries.
pub fn serve_spans(outcome: &LoopOutcome, spans: &mut Spans) {
    for (i, s) in outcome.serve_spans.iter().enumerate() {
        let query = i as u32;
        let latency = outcome.counted_latency[i];
        let root = spans.push(Span {
            query,
            parent: None,
            layer: Layer::Query,
            start_ns: s.start_ns,
            dur_ns: nanos(latency),
            count: 0,
        });
        spans.push(Span {
            query,
            parent: Some(root),
            layer: Layer::Submit,
            start_ns: s.start_ns,
            dur_ns: nanos(s.submit),
            count: 0,
        });
        let wait = spans.push(Span {
            query,
            parent: Some(root),
            layer: Layer::Wait,
            start_ns: s.start_ns + nanos(s.submit),
            dur_ns: nanos(s.wait),
            count: 0,
        });
        if let Ok(resp) = &outcome.counted[i] {
            if executed(&resp.source) {
                spans.push(Span {
                    query,
                    parent: Some(wait),
                    layer: Layer::Worker,
                    start_ns: s.start_ns + nanos(s.submit),
                    dur_ns: nanos(resp.latency),
                    count: 0,
                });
            }
        }
    }
}

/// Whether the service ran the engine for an answer (not a cache hit or a
/// coalesced ride).
pub fn executed(source: &AnswerSource) -> bool {
    matches!(
        source,
        AnswerSource::Cold | AnswerSource::WarmStarted { .. }
    )
}

/// A source the replay can rewind between queries, as the service's
/// workers rewind theirs.
pub trait Rewind: Middleware {
    /// Rewinds to a fresh run under `policy`.
    fn rewind(&mut self, policy: AccessPolicy);
}

impl Rewind for Session<'_> {
    fn rewind(&mut self, policy: AccessPolicy) {
        self.reset(policy);
    }
}

impl Rewind for RemoteSource {
    fn rewind(&mut self, policy: AccessPolicy) {
        self.reset(policy);
    }
}

/// Access time and counts of one replayed run.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    first_sorted: Option<Instant>,
    first_random: Option<Instant>,
    sorted_ns: u64,
    sorted: u64,
    random_ns: u64,
    random: u64,
    calls: u64,
}

/// The timing wrapper: times every sorted and random access call into the
/// wrapped source and counts what it served.
struct Timed<M> {
    inner: M,
    tally: Tally,
    /// Duration of every call, in nanoseconds.
    call_ns: Vec<u32>,
}

impl<M: Middleware> Timed<M> {
    fn sorted(&mut self, start: Instant, served: u64) {
        let ns = nanos(start.elapsed());
        self.tally.first_sorted.get_or_insert(start);
        self.tally.sorted_ns += ns;
        self.tally.sorted += served;
        self.tally.calls += 1;
        self.call_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    fn random(&mut self, start: Instant, served: u64) {
        let ns = nanos(start.elapsed());
        self.tally.first_random.get_or_insert(start);
        self.tally.random_ns += ns;
        self.tally.random += served;
        self.tally.calls += 1;
        self.call_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }
}

impl<M: Middleware> Middleware for Timed<M> {
    fn num_lists(&self) -> usize {
        self.inner.num_lists()
    }

    fn num_objects(&self) -> usize {
        self.inner.num_objects()
    }

    fn sorted_next(&mut self, list: usize) -> Result<Option<Entry>, AccessError> {
        let start = Instant::now();
        let r = self.inner.sorted_next(list);
        self.sorted(start, u64::from(matches!(r, Ok(Some(_)))));
        r
    }

    fn random_lookup(&mut self, list: usize, object: ObjectId) -> Result<Grade, AccessError> {
        let start = Instant::now();
        let r = self.inner.random_lookup(list, object);
        self.random(start, u64::from(r.is_ok()));
        r
    }

    fn sorted_next_batch(
        &mut self,
        list: usize,
        max: usize,
        out: &mut Vec<Entry>,
    ) -> Result<usize, AccessError> {
        let before = out.len();
        let start = Instant::now();
        let r = self.inner.sorted_next_batch(list, max, out);
        self.sorted(start, (out.len() - before) as u64);
        r
    }

    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError> {
        let before = out.len();
        let start = Instant::now();
        let r = self.inner.random_lookup_many(list, objects, out);
        self.random(start, (out.len() - before) as u64);
        r
    }

    fn stats(&self) -> &AccessStats {
        self.inner.stats()
    }

    fn policy(&self) -> &AccessPolicy {
        self.inner.policy()
    }

    fn position(&self, list: usize) -> usize {
        self.inner.position(list)
    }

    fn trace(&mut self, kind: EventKind, detail: u32, count: u64) {
        self.inner.trace(kind, detail, count);
    }
}

/// What the replay measured over every executed query.
#[derive(Clone, Debug, Default)]
pub struct ReplayTotals {
    /// Queries replayed (the executed ones).
    pub executed: u64,
    /// Time in the planner.
    pub plan_ns: u64,
    /// Run time minus access time.
    pub engine_self_ns: u64,
    /// Sorted accesses and the time spent in them.
    pub sorted: u64,
    /// Time in sorted access calls.
    pub sorted_ns: u64,
    /// Random accesses.
    pub random: u64,
    /// Time in random access calls.
    pub random_ns: u64,
    /// Access calls (a batch is one call).
    pub calls: u64,
    /// Duration of every access call, in nanoseconds.
    pub call_ns: Vec<u32>,
}

/// Plans and runs one request on `mw` the way the service's workers do.
fn execute<M: Middleware>(
    mw: &mut M,
    req: &QueryRequest,
    plan: &fagin_core::planner::Plan,
    arena: &mut RunScratch,
) -> Result<TopKOutput, AlgoError> {
    let agg = req.agg.instance();
    let algorithm = &plan.algorithm;
    match (req.is_anytime(), req.cost_budget) {
        (true, Some(limit)) => {
            let mut guarded = CostBudget::new(mw, req.costs, limit);
            let mut cfg = AnytimeConfig::new();
            if req.degrade {
                let (model, at) = guarded.watermark(DEGRADE_WATERMARK);
                cfg = cfg.with_cost_watermark(model, at);
            }
            algorithm.run_anytime(&mut guarded, agg, req.k, &cfg, arena)
        }
        (true, None) => algorithm.run_anytime(mw, agg, req.k, &AnytimeConfig::new(), arena),
        (false, Some(limit)) => {
            let mut guarded = CostBudget::new(mw, req.costs, limit);
            algorithm.run_with(&mut guarded, agg, req.k, arena)
        }
        (false, None) => algorithm.run_with(mw, agg, req.k, arena),
    }
}

/// Replays every executed query of a traced loop's counted sequence on
/// `source`, recording spans, and requires the replay to reproduce the
/// service's per-list sorted and random access counts.
pub fn replay<M: Rewind>(
    source: M,
    requests: &[&QueryRequest],
    answers: &[Answer],
    lists: usize,
    distinctness: bool,
    spans: &mut Spans,
    epoch: Instant,
) -> Result<ReplayTotals, String> {
    let capacity = ServiceConfig::default().cache_capacity;
    let mut mirror = capacity.map(ResultCache::new);
    let mut mw = Timed {
        inner: source,
        tally: Tally::default(),
        call_ns: Vec::new(),
    };
    let mut arena = RunScratch::new();
    let mut totals = ReplayTotals::default();
    let since = |t: Instant| nanos(t.saturating_duration_since(epoch));
    for (i, (req, answer)) in requests.iter().zip(answers).enumerate() {
        let Ok(resp) = answer else { continue };
        let hit = mirror.as_mut().and_then(|c| c.lookup(req)).is_some();
        if hit || !executed(&resp.source) {
            if hit != resp.is_cache_hit() {
                return Err(format!(
                    "query {i}: the replay's cache {} but the service answered {:?}",
                    if hit { "hit" } else { "missed" },
                    resp.source
                ));
            }
            continue;
        }
        let warm = mirror.as_mut().and_then(|c| c.warm_hint(req));
        let query = i as u32;
        let started = Instant::now();
        let caps = req.capabilities(lists, distinctness);
        let plan = Planner
            .plan_query_theta(
                &caps,
                req.agg.instance(),
                req.k,
                &req.costs,
                req.batch,
                warm,
                req.theta,
            )
            .map_err(|e| format!("query {i}: replay planning failed: {e}"))?;
        let planned = Instant::now();
        mw.inner.rewind(req.policy.clone());
        mw.tally = Tally::default();
        let out = execute(&mut mw, req, &plan, &mut arena)
            .map_err(|e| format!("query {i}: replay failed where the service answered: {e}"))?;
        let ran = Instant::now();

        for list in 0..lists {
            let (s, r) = (out.stats.sorted_on(list), out.stats.random_on(list));
            let (ws, wr) = (resp.stats.sorted_on(list), resp.stats.random_on(list));
            if (s, r) != (ws, wr) {
                return Err(format!(
                    "query {i}: replay of {} made {s} sorted / {r} random accesses on list \
                     {list}, the service {ws} / {wr}",
                    resp.algorithm
                ));
            }
        }

        let t = mw.tally;
        let run_ns = nanos(ran - planned);
        let root = spans.push(Span {
            query,
            parent: None,
            layer: Layer::Replay,
            start_ns: since(started),
            dur_ns: nanos(ran - started),
            count: 0,
        });
        spans.push(Span {
            query,
            parent: Some(root),
            layer: Layer::Plan,
            start_ns: since(started),
            dur_ns: nanos(planned - started),
            count: 0,
        });
        let run = spans.push(Span {
            query,
            parent: Some(root),
            layer: Layer::Run,
            start_ns: since(planned),
            dur_ns: run_ns,
            count: 0,
        });
        for (layer, first, ns, count) in [
            (Layer::Sorted, t.first_sorted, t.sorted_ns, t.sorted),
            (Layer::Random, t.first_random, t.random_ns, t.random),
        ] {
            if let Some(first) = first {
                spans.push(Span {
                    query,
                    parent: Some(run),
                    layer,
                    start_ns: since(first),
                    dur_ns: ns,
                    count,
                });
            }
        }
        totals.executed += 1;
        totals.plan_ns += nanos(planned - started);
        totals.engine_self_ns += run_ns.saturating_sub(t.sorted_ns + t.random_ns);
        totals.sorted += t.sorted;
        totals.sorted_ns += t.sorted_ns;
        totals.random += t.random;
        totals.random_ns += t.random_ns;
        totals.calls += t.calls;

        if let Some(cache) = mirror.as_mut() {
            cache.insert(
                req,
                CachedRun {
                    items: Arc::new(resp.items.clone()),
                    threshold: resp.run.final_threshold,
                    requested_k: req.k,
                    graded: resp.items.iter().all(|i| i.grade.is_some()),
                    algorithm: resp.algorithm.clone(),
                    guarantee: resp.guarantee(),
                },
            );
        }
    }
    totals.call_ns = mw.call_ns;
    Ok(totals)
}
