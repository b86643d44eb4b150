//! A whole benchmark run: inputs, set-up, the loops, checks and metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fagin_middleware::{Database, Session};
use fagin_remote::RemoteSource;
use fagin_serve::QueryRequest;

use crate::check::Oracle;
use crate::gen::{self, Stream, Workload};
use crate::run::{self, LoopOutcome, Running, SetupTimes, TempDir};
use crate::stats::{median, quantile, ratio};
use crate::trace::{self, executed, ReplayTotals, Spans};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Queries submitted.
    pub attempted: u64,
    /// Queries that returned a typed error.
    pub failed: u64,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// What failed a check, if anything.
    pub problems: Vec<String>,
    /// How much slower than nominal the machine ran during the timed loop;
    /// end-to-end timings are divided by it (see `stats::Reference`).
    pub speed: f64,
}

impl Report {
    /// The value of the metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The last line the benchmark prints.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The generated inputs of one run.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Grade columns, `columns[list][object]`.
    pub columns: Vec<Vec<f64>>,
    /// The requests.
    pub stream: Stream,
}

impl Inputs {
    /// The inputs of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Inputs {
            columns: gen::columns(workload),
            stream: gen::stream(workload, seed),
        }
    }

    /// Keeps only the first `objects` objects, `warmup` warm-up requests
    /// and `pass` pass requests: a small run with the same structure.
    pub fn shrink(&mut self, objects: usize, warmup: usize, pass: usize) {
        for column in &mut self.columns {
            column.truncate(objects);
        }
        self.stream.warmup.truncate(warmup);
        self.stream.pass.truncate(pass);
    }

    /// An in-RAM database over the columns, for the oracle and the
    /// differential.
    fn database(&self) -> Result<Arc<Database>, String> {
        Database::from_f64_columns(&self.columns)
            .map(Arc::new)
            .map_err(|e| format!("ingest: {e}"))
    }
}

/// Count metrics over a loop's counted sequence: the mean middleware cost
/// per query (cache hits cost 0) and the mean certified guarantee.
fn cost_and_theta(outcome: &LoopOutcome) -> (f64, f64) {
    let counted = outcome.counted.len() as f64;
    let answered: Vec<_> = outcome.answered().collect();
    let cost: f64 = answered.iter().map(|r| r.cost).sum();
    let theta: f64 = answered.iter().map(|r| r.guarantee()).sum();
    (ratio(cost, counted), ratio(theta, answered.len() as f64))
}

/// An untraced run: the eight end-to-end metrics.
pub fn run_untraced(workload: Workload, inputs: &Inputs, seconds: f64) -> Result<Report, String> {
    let columns = &inputs.columns;
    let tmp = TempDir::new()?;
    let mut setups = Vec::new();
    let running = run::setup_round(workload, columns, &tmp, &mut setups)?;
    let outcome = run::closed_loop(&running.service, None, &inputs.stream, seconds, false)?;
    running.shutdown();
    run::setup_round(workload, columns, &tmp, &mut setups)?.shutdown();

    let db = inputs.database()?;
    let mut problems = Vec::new();
    let mut oracle = Oracle::new(&db);
    if let Err(e) = run::check_answers(&mut oracle, &inputs.stream, &outcome) {
        problems.push(e);
    }
    if workload.is_remote() {
        if let Err(e) = run::differential(Arc::clone(&db), &inputs.stream, &outcome.counted) {
            problems.push(format!("cross-backend differential: {e}"));
        }
    }
    run::setup_round(workload, columns, &tmp, &mut setups)?.shutdown();
    let setup = SetupTimes::median(&setups);

    let (cost, theta) = cost_and_theta(&outcome);
    let attempted = outcome.attempted();
    let failed = outcome.failed();
    let metrics = vec![
        metric("qps", outcome.qps(), "1/s"),
        metric("latency_p50_ms", outcome.latency_ms(|p| p.p50_ms), "ms"),
        metric("latency_p99_ms", outcome.latency_ms(|p| p.p99_ms), "ms"),
        metric("cost_per_query", cost, "cost"),
        metric("theta_hat_mean", theta, "ratio"),
        metric(
            "success_rate",
            1.0 - ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        metric("setup_s", setup.total, "s"),
        metric("rss_peak_mb", outcome.rss_mib, "MiB"),
    ];
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        speed: outcome.speed,
    })
}

/// Where a traced run writes its spans.
pub fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(".svcbench_out").join(format!("spans-{}-{seed}.tsv", workload.name()))
}

/// A traced run: half the time untraced as the overhead baseline, half
/// traced, then the replay; reports the per-layer metrics and writes the
/// spans to `spans_out`.
pub fn run_traced(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    spans_out: &Path,
) -> Result<Report, String> {
    let (columns, stream) = (&inputs.columns, &inputs.stream);
    let tmp = TempDir::new()?;
    let half = seconds / 2.0;
    let mut setups = Vec::new();

    let running = run::setup_round(workload, columns, &tmp, &mut setups)?;
    let base = run::closed_loop(&running.service, None, stream, half, false)?;
    running.shutdown();

    let running = run::setup_round(workload, columns, &tmp, &mut setups)?;
    let epoch = Instant::now();
    let traced = run::closed_loop(
        &running.service,
        running.server.as_ref(),
        stream,
        half,
        true,
    )?;
    let mut spans = Spans::default();
    trace::serve_spans(&traced, &mut spans);
    let replayed = replay(&running, stream, &traced, &mut spans, epoch);
    running.shutdown();
    run::setup_round(workload, columns, &tmp, &mut setups)?.shutdown();
    let setup = SetupTimes::median(&setups);

    let db = inputs.database()?;
    let mut problems = Vec::new();
    let mut oracle = Oracle::new(&db);
    for outcome in [&base, &traced] {
        if let Err(e) = run::check_answers(&mut oracle, stream, outcome) {
            problems.push(e);
        }
    }
    let totals = replayed.unwrap_or_else(|e| {
        problems.push(format!("replay: {e}"));
        ReplayTotals::default()
    });
    spans
        .write_tsv(spans_out)
        .map_err(|e| format!("cannot write {spans_out:?}: {e}"))?;

    let metrics = layer_metrics(&traced, &totals, &setup, base.qps());
    Ok(Report {
        correct: problems.is_empty(),
        attempted: base.attempted() + traced.attempted(),
        failed: base.failed() + traced.failed(),
        metrics,
        problems,
        speed: traced.speed,
    })
}

/// Replays the traced loop's counted sequence on a fresh source over the
/// same data: a `Session` on the service's database, or a `RemoteSource`
/// on the same shard server.
fn replay(
    running: &Running,
    stream: &Stream,
    traced: &LoopOutcome,
    spans: &mut Spans,
    epoch: Instant,
) -> Result<ReplayTotals, String> {
    let service = &running.service;
    let requests: Vec<&QueryRequest> = stream.counted().collect();
    let (lists, distinct) = (service.num_lists(), service.distinctness());
    match (&running.server, service.database()) {
        (Some(server), _) => {
            let source =
                RemoteSource::connect(server.addr()).map_err(|e| format!("replay connect: {e}"))?;
            trace::replay(
                source,
                &requests,
                &traced.counted,
                lists,
                distinct,
                spans,
                epoch,
            )
        }
        (None, Some(db)) => {
            let source = Session::new(db);
            trace::replay(
                source,
                &requests,
                &traced.counted,
                lists,
                distinct,
                spans,
                epoch,
            )
        }
        (None, None) => Err("a local service without a database".into()),
    }
}

/// The per-layer metrics of a traced loop and its replay.
fn layer_metrics(
    traced: &LoopOutcome,
    totals: &ReplayTotals,
    setup: &SetupTimes,
    untraced_qps: f64,
) -> Vec<Metric> {
    let counted = traced.counted.len() as f64;
    let answered: Vec<_> = traced.answered().collect();
    let executed_runs: Vec<_> = answered.iter().filter(|r| executed(&r.source)).collect();
    let sum = |f: &dyn Fn(&fagin_serve::QueryResponse) -> f64| -> f64 {
        answered.iter().map(|r| f(r)).sum()
    };
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;

    let mut submit_us: Vec<f64> = traced.serve_spans[traced.warmup..]
        .iter()
        .map(|s| us(s.submit))
        .collect();
    let mut handoff_us: Vec<f64> = traced
        .counted
        .iter()
        .zip(&traced.counted_latency)
        .filter_map(|(a, latency)| match a {
            Ok(r) if executed(&r.source) => Some(us(latency.saturating_sub(r.latency))),
            _ => None,
        })
        .collect();
    let snapshot = traced.metrics_at_count.as_ref();
    let hit_rate = snapshot.map_or(0.0, |m| m.cache_hit_rate);
    let degraded_share = snapshot.map_or(0.0, |m| ratio(m.degraded as f64, m.completed as f64));
    let peak_buffer: f64 = executed_runs.iter().map(|r| r.run.peak_buffer as f64).sum();
    let mut rtt_us: Vec<f64> = if traced.round_trips.is_some() {
        totals.call_ns.iter().map(|&n| n as f64 / 1e3).collect()
    } else {
        Vec::new()
    };
    let traced_qps = traced.qps();

    vec![
        metric("serve.submit_us_p50", median(&mut submit_us), "us"),
        metric("serve.handoff_us_p50", median(&mut handoff_us), "us"),
        metric("serve.cache_hit_rate", hit_rate, "ratio"),
        metric("serve.degraded_share", degraded_share, "ratio"),
        metric(
            "core.plan_us_mean",
            ratio(totals.plan_ns as f64 / 1e3, totals.executed as f64),
            "us",
        ),
        metric(
            "core.engine_self_ms_per_query",
            totals.engine_self_ns as f64 / 1e6 / counted,
            "ms",
        ),
        metric(
            "core.bound_recomputations_per_query",
            sum(&|r| r.run.bound_recomputations as f64) / counted,
            "count",
        ),
        metric(
            "core.rounds_per_query",
            sum(&|r| r.run.rounds as f64) / counted,
            "count",
        ),
        metric(
            "core.peak_buffer_mean",
            ratio(peak_buffer, executed_runs.len() as f64),
            "count",
        ),
        metric(
            "middleware.sorted_per_query",
            sum(&|r| r.stats.sorted_total() as f64) / counted,
            "count",
        ),
        metric(
            "middleware.random_per_query",
            sum(&|r| r.stats.random_total() as f64) / counted,
            "count",
        ),
        metric(
            "middleware.sorted_ns_per_access",
            ratio(totals.sorted_ns as f64, totals.sorted as f64),
            "ns",
        ),
        metric(
            "middleware.random_ns_per_access",
            ratio(totals.random_ns as f64, totals.random as f64),
            "ns",
        ),
        metric(
            "middleware.calls_per_query",
            totals.calls as f64 / counted,
            "count",
        ),
        metric("store.write_s", setup.store_write, "s"),
        metric("store.open_s", setup.store_open, "s"),
        metric(
            "remote.round_trips_per_query",
            traced.round_trips.unwrap_or(0) as f64 / counted,
            "count",
        ),
        metric("remote.rtt_us_p50", quantile(&mut rtt_us, 0.5), "us"),
        metric("remote.connect_s", setup.connect, "s"),
        metric(
            "trace.overhead_pct",
            100.0 * ratio(untraced_qps - traced_qps, untraced_qps),
            "%",
        ),
    ]
}
