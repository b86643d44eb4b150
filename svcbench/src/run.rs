//! One benchmark run: set-up, warm-up, the timed closed loop and the checks.
//!
//! The timed path uses only the service's public entry points:
//! `Database::from_f64_columns`, `StoreWriter::write`, `Store::open`,
//! `ShardServer`, `TopKService::{new, connect, submit}` and
//! `QueryTicket::wait`, all with `ServiceConfig::default()`. One client
//! thread keeps one query outstanding (a closed loop), so the client, the
//! service workers and the shard server take turns instead of competing,
//! and no count depends on timing.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fagin_middleware::Database;
use fagin_remote::{ServerHandle, ShardServer};
use fagin_serve::{
    QueryRequest, QueryResponse, QueryTicket, ServeError, ServiceConfig, ServiceMetrics,
    TopKService,
};
use fagin_store::{Backend, Store, StoreOptions, StoreWriter, Verify};

use crate::check::{fingerprint, same_answer, Oracle};
use crate::gen::{Stream, Workload};
use crate::stats::{median, peak_rss_mib, quantile, Reference};

/// Fewest set-ups per timing round (see [`setup_round`]); `setup_s` is the
/// median over every round of a run.
pub const SETUPS_PER_ROUND: usize = 8;

/// Least time a timing round spends setting up: a set-up of a small
/// database takes about a millisecond, and a handful of those is too few
/// to give a steady median.
const SETUP_ROUND_MIN: Duration = Duration::from_millis(100);

/// How often the timed loop samples the machine-speed reference.
const REFERENCE_EVERY: Duration = Duration::from_millis(25);

/// One query's outcome.
pub type Answer = Result<QueryResponse, ServeError>;

/// A service ready to answer, with the shard server behind it when the
/// workload is remote.
pub struct Running {
    /// The service under test.
    pub service: TopKService,
    /// The loopback shard server (remote-store only).
    pub server: Option<ServerHandle>,
}

impl Running {
    /// Stops the service (joining its workers), then the server behind it.
    pub fn shutdown(self) {
        drop(self.service);
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// Durations of one set-up, split by layer, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Generated columns → service ready to answer.
    pub total: f64,
    /// `StoreWriter::write` (remote-store only).
    pub store_write: f64,
    /// `Store::open` with mmap and full verification (remote-store only).
    pub store_open: f64,
    /// `ShardServer` bind + spawn and `TopKService::connect` (remote-store
    /// only).
    pub connect: f64,
}

/// A scratch directory for store files under the working directory,
/// removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `.svcbench_tmp/<pid>`.
    pub fn new() -> Result<TempDir, String> {
        let dir = Path::new(".svcbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(TempDir(dir))
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Builds the workload's service from generated columns.
fn build(
    workload: Workload,
    columns: &[Vec<f64>],
    tmp: &TempDir,
) -> Result<(Running, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let db = Database::from_f64_columns(columns).map_err(|e| format!("ingest: {e}"))?;
    if !workload.is_remote() {
        let service = TopKService::new(Arc::new(db), ServiceConfig::default());
        times.total = secs(start);
        let running = Running {
            service,
            server: None,
        };
        return Ok((running, times));
    }
    let path = tmp.file("data.fstore");
    let t = Instant::now();
    StoreWriter::write(&db, &path).map_err(|e| format!("store write: {e}"))?;
    times.store_write = secs(t);
    drop(db);
    let t = Instant::now();
    let options = StoreOptions::with_backend(Backend::Mmap).verify(Verify::Full);
    let store = Store::open(&path, options).map_err(|e| format!("store open: {e}"))?;
    times.store_open = secs(t);
    let t = Instant::now();
    let server = ShardServer::bind("127.0.0.1:0", Arc::new(store.into_database()))
        .and_then(ShardServer::spawn)
        .map_err(|e| format!("shard server: {e}"))?;
    let service = TopKService::connect(server.addr(), ServiceConfig::default())
        .map_err(|e| format!("connect: {e}"))?;
    times.connect = secs(t);
    times.total = secs(start);
    let running = Running {
        service,
        server: Some(server),
    };
    Ok((running, times))
}

/// Sets the service up at least [`SETUPS_PER_ROUND`] times and for at least
/// [`SETUP_ROUND_MIN`], appending each set-up's times to `log`, and returns
/// the last service, still running.
///
/// A run takes several such rounds at different moments, because the
/// machine's speed can drift by tens of percent over a second or two:
/// back-to-back set-ups all land in one fast or one slow spell. Each
/// set-up follows a reference sample, and the round's times are scaled to
/// nominal machine speed by the median of its samples.
pub fn setup_round(
    workload: Workload,
    columns: &[Vec<f64>],
    tmp: &TempDir,
    log: &mut Vec<SetupTimes>,
) -> Result<Running, String> {
    let mut pace = Reference::default();
    let mut raw = Vec::with_capacity(SETUPS_PER_ROUND);
    let mut kept: Option<Running> = None;
    let round = Instant::now();
    while raw.len() < SETUPS_PER_ROUND || round.elapsed() < SETUP_ROUND_MIN {
        if let Some(previous) = kept.take() {
            previous.shutdown();
        }
        pace.sample();
        let (running, times) = build(workload, columns, tmp)?;
        raw.push(times);
        kept = Some(running);
    }
    let speed = pace.speed();
    log.extend(raw.into_iter().map(|t| SetupTimes {
        total: t.total / speed,
        store_write: t.store_write / speed,
        store_open: t.store_open / speed,
        connect: t.connect / speed,
    }));
    Ok(kept.expect("SETUPS_PER_ROUND ≥ 1"))
}

impl SetupTimes {
    /// The median of each duration over `samples`.
    pub fn median(samples: &[SetupTimes]) -> SetupTimes {
        let med =
            |f: fn(&SetupTimes) -> f64| median(&mut samples.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            total: med(|t| t.total),
            store_write: med(|t| t.store_write),
            store_open: med(|t| t.store_open),
            connect: med(|t| t.connect),
        }
    }
}

/// What the traced loop records around each counted query.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSpan {
    /// Submission time, in nanoseconds since the loop started.
    pub start_ns: u64,
    /// Time inside `TopKService::submit`.
    pub submit: Duration,
    /// Time inside `QueryTicket::wait`.
    pub wait: Duration,
}

/// Throughput and latency of one complete timed pass.
#[derive(Clone, Copy, Debug)]
pub struct PassTiming {
    /// Pass requests answered per second of pass wall time.
    pub qps: f64,
    /// Median client latency, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client latency, in milliseconds.
    pub p99_ms: f64,
}

impl PassTiming {
    fn new(latency_ns: &[u64], wall: Duration) -> Self {
        let mut ms: Vec<f64> = latency_ns.iter().map(|&n| n as f64 / 1e6).collect();
        PassTiming {
            qps: ms.len() as f64 / wall.as_secs_f64(),
            p50_ms: quantile(&mut ms, 0.5),
            p99_ms: quantile(&mut ms, 0.99),
        }
    }
}

/// The outcome of one warm-up plus timed loop.
pub struct LoopOutcome {
    /// Requests in the warm-up.
    pub warmup: usize,
    /// Answers of the counted sequence: the warm-up, then the first pass.
    pub counted: Vec<Answer>,
    /// Client-observed latency of each counted query.
    pub counted_latency: Vec<Duration>,
    /// Serve-layer spans of each counted query (traced loops only).
    pub serve_spans: Vec<ServeSpan>,
    /// Timing of every complete pass; a pass cut short by the deadline is
    /// checked but not timed.
    pub passes: Vec<PassTiming>,
    /// Timed queries, in complete and cut passes.
    pub timed: u64,
    /// How much slower than nominal the machine ran during the timed loop
    /// (see [`Reference`]).
    pub speed: f64,
    /// Typed errors among timed queries after the first pass.
    pub repeat_failures: u64,
    /// Answers after the first pass that differ from the first pass's
    /// answer to the same request, with the request's pass index. They are
    /// checked on their own: a different cache state may legitimately
    /// change tie order or θ̂.
    pub divergent: Vec<(usize, QueryResponse)>,
    /// `ServiceMetrics` as the counted sequence completed (traced loops
    /// only).
    pub metrics_at_count: Option<ServiceMetrics>,
    /// Requests the shard server answered during the counted sequence
    /// (traced remote loops only).
    pub round_trips: Option<u64>,
    /// Peak RSS right after the timed loop, in MiB.
    pub rss_mib: f64,
}

impl LoopOutcome {
    /// The median over complete passes of `f`: every pass holds the same
    /// requests, and the median sets aside passes that a slow spell of
    /// the machine caught.
    pub fn pass_median(&self, f: fn(&PassTiming) -> f64) -> f64 {
        median(&mut self.passes.iter().map(f).collect::<Vec<_>>())
    }

    /// Queries per second (median over passes), scaled to nominal machine
    /// speed.
    pub fn qps(&self) -> f64 {
        self.pass_median(|p| p.qps) * self.speed
    }

    /// A latency quantile in milliseconds (median over passes), scaled to
    /// nominal machine speed.
    pub fn latency_ms(&self, f: fn(&PassTiming) -> f64) -> f64 {
        self.pass_median(f) / self.speed
    }

    /// Queries submitted: the warm-up plus every timed query.
    pub fn attempted(&self) -> u64 {
        self.warmup as u64 + self.timed
    }

    /// Queries that returned a typed error.
    pub fn failed(&self) -> u64 {
        self.counted.iter().filter(|a| a.is_err()).count() as u64 + self.repeat_failures
    }

    /// The counted answers that succeeded.
    pub fn answered(&self) -> impl Iterator<Item = &QueryResponse> {
        self.counted.iter().filter_map(|a| a.as_ref().ok())
    }
}

/// Runs the warm-up untimed, then walks the pass list in a closed loop
/// until `seconds` have passed and the first pass is complete, timing each
/// complete pass on its own. With
/// `traced`, `submit` and `wait` are timed separately for the counted
/// queries, and the service metrics and the shard server's request count
/// are read once the first pass ends.
pub fn closed_loop(
    service: &TopKService,
    server: Option<&ServerHandle>,
    stream: &Stream,
    seconds: f64,
    traced: bool,
) -> Result<LoopOutcome, String> {
    let counted_len = stream.counted_len();
    let mut counted = Vec::with_capacity(counted_len);
    let mut counted_latency = Vec::with_capacity(counted_len);
    let mut serve_spans = Vec::with_capacity(if traced { counted_len } else { 0 });
    let epoch = Instant::now();
    let requests_at_start = server.filter(|_| traced).map(ServerHandle::requests);

    let mut serve = |req: &QueryRequest| -> (Answer, Duration) {
        let req = req.clone();
        let t0 = Instant::now();
        if traced {
            let ticket = service.submit(req);
            let t1 = Instant::now();
            let answer = ticket.and_then(QueryTicket::wait);
            let t2 = Instant::now();
            serve_spans.push(ServeSpan {
                start_ns: (t0 - epoch).as_nanos() as u64,
                submit: t1 - t0,
                wait: t2 - t1,
            });
            (answer, t2 - t0)
        } else {
            let answer = service.submit(req).and_then(QueryTicket::wait);
            (answer, t0.elapsed())
        }
    };

    for req in &stream.warmup {
        let (answer, latency) = serve(req);
        counted.push(answer);
        counted_latency.push(latency);
    }

    let pass = &stream.pass;
    let mut pass_ns = Vec::with_capacity(pass.len());
    let mut passes = Vec::new();
    let mut fingerprints = Vec::with_capacity(pass.len());
    let mut metrics_at_count = None;
    let mut round_trips = None;
    let mut repeat_failures = 0;
    let mut divergent = Vec::new();
    let deadline = Duration::from_secs_f64(seconds);
    let mut pace = Reference::default();
    let start = Instant::now();
    let mut pass_start = start;
    let mut next_reference = start + REFERENCE_EVERY;
    let mut i = 0usize;
    loop {
        if i > 0 && i.is_multiple_of(pass.len()) {
            passes.push(PassTiming::new(&pass_ns, pass_start.elapsed()));
            pass_ns.clear();
            if i == pass.len() {
                // The counted pass just ended: fingerprint it for the
                // repeat checks, and read the metrics it produced.
                fingerprints.extend(counted[stream.warmup.len()..].iter().map(|a| match a {
                    Ok(resp) => fingerprint(resp),
                    Err(_) => 0,
                }));
                if traced {
                    metrics_at_count = Some(service.metrics());
                    round_trips = requests_at_start
                        .zip(server)
                        .map(|(before, s)| s.requests() - before);
                }
            }
            pass_start = Instant::now();
        }
        if i >= pass.len() && start.elapsed() >= deadline {
            break;
        }
        let idx = i % pass.len();
        let (answer, latency) = if i < pass.len() {
            serve(&pass[idx])
        } else {
            // Later passes are never traced: only the counted pass is.
            let req = pass[idx].clone();
            let t0 = Instant::now();
            let answer = service.submit(req).and_then(QueryTicket::wait);
            (answer, t0.elapsed())
        };
        pass_ns.push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
        let now = Instant::now();
        if now >= next_reference {
            pace.sample();
            let after = Instant::now();
            // The pass is timed without the reference kernel.
            pass_start += after - now;
            next_reference = after + REFERENCE_EVERY;
        }
        if i < pass.len() {
            counted.push(answer);
            counted_latency.push(latency);
        } else {
            match answer {
                Ok(resp) if fingerprint(&resp) == fingerprints[idx] => {}
                Ok(resp) => divergent.push((idx, resp)),
                Err(_) => repeat_failures += 1,
            }
        }
        i += 1;
    }
    let rss_mib = peak_rss_mib()?;
    Ok(LoopOutcome {
        warmup: stream.warmup.len(),
        counted,
        counted_latency,
        serve_spans,
        passes,
        timed: i as u64,
        speed: pace.speed(),
        repeat_failures,
        divergent,
        metrics_at_count,
        round_trips,
        rss_mib,
    })
}

/// Checks every answer of a loop against the oracle: the counted answers
/// one by one, and the later-pass answers that differed from the first
/// pass. Returns the first wrong answer.
pub fn check_answers(
    oracle: &mut Oracle<'_>,
    stream: &Stream,
    outcome: &LoopOutcome,
) -> Result<(), String> {
    for (i, (req, answer)) in stream.counted().zip(&outcome.counted).enumerate() {
        if let Ok(resp) = answer {
            oracle
                .check(req, resp)
                .map_err(|e| format!("query {i}: {e}"))?;
        }
    }
    for (idx, resp) in &outcome.divergent {
        oracle
            .check(&stream.pass[*idx], resp)
            .map_err(|e| format!("repeat of pass query {idx}: {e}"))?;
    }
    Ok(())
}

/// The cross-backend differential: replays the counted sequence on a fresh
/// in-RAM service over the same columns and requires byte-identical items,
/// per-list access counts and θ̂ for every query.
pub fn differential(db: Arc<Database>, stream: &Stream, remote: &[Answer]) -> Result<(), String> {
    let local = TopKService::new(db, ServiceConfig::default());
    for (i, (req, remote)) in stream.counted().zip(remote).enumerate() {
        let local_answer = local.submit(req.clone()).and_then(QueryTicket::wait);
        match (remote, &local_answer) {
            (Ok(r), Ok(l)) => {
                same_answer(r, l).map_err(|e| format!("query {i}: remote vs local: {e}"))?
            }
            (Err(r), Err(l)) if r.to_string() == l.to_string() => {}
            (r, l) => {
                return Err(format!(
                    "query {i}: remote {:?} vs local {:?}",
                    r.as_ref().map(|x| &x.algorithm),
                    l.as_ref().map(|x| &x.algorithm)
                ))
            }
        }
    }
    Ok(())
}
