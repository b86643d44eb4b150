//! Machine-readable perf reports: the `BENCH_topk.json` artifact.
//!
//! The text tables of the experiment harness are for humans; this module
//! records the perf trajectory in a form tooling can diff across commits.
//! [`perf_matrix`] runs a fixed algorithm × workload grid and measures
//! sorted/random access counts and wall-clock time; [`to_json`] renders the
//! records as JSON (hand-rolled — the build environment is offline, so no
//! serde) and [`write_json`] writes the standard artifact.
//! [`access_count_drift`] is the CI referee: it re-measures the grid and
//! reports any `sorted`/`random`/`bound_recomputations` count that differs
//! from the recorded artifact (perf work may move `wall_secs`, never the
//! access sequence or the engine's exact-run bookkeeping work).

use std::time::Instant;

use fagin_core::aggregation::{Aggregation, Min};
use fagin_core::algorithms::{BookkeepingStrategy, Ca, Nra, Ta, TopKAlgorithm};
use fagin_core::{oracle, AlgoError, AnytimeConfig, RunScratch, TopKOutput};
use fagin_middleware::{AccessPolicy, Database, Session};
use fagin_remote::{BreakerConfig, FaultInjector, FaultPlan, Resilient, RetryPolicy};
use fagin_workloads::random;

use crate::Scale;

/// One measured cell of the algorithm × workload grid.
#[derive(Clone, Debug)]
pub struct PerfRecord {
    /// Algorithm name as reported by [`TopKAlgorithm::name`].
    pub algorithm: String,
    /// Workload name (`uniform`, `correlated`, …).
    pub workload: String,
    /// Objects in the database.
    pub n: usize,
    /// Lists in the database.
    pub m: usize,
    /// Answers requested.
    pub k: usize,
    /// Sorted accesses performed.
    pub sorted: u64,
    /// Random accesses performed.
    pub random: u64,
    /// Bound (`W`/`B`) evaluations the engine performed
    /// ([`fagin_core::RunMetrics::bound_recomputations`]): deterministic,
    /// so a bookkeeping blow-up shows here with no wall-clock noise.
    pub bound_recomputations: u64,
    /// Wall-clock seconds for one steady-state run: the timed executions
    /// lease a warmed run arena and a reset session, exactly like a
    /// serving worker's second-and-later queries (best of two timed runs,
    /// damping scheduler noise as the guardrail does; indicative).
    pub wall_secs: f64,
}

/// Runs the standard grid: four workload shapes × the core algorithm
/// suite at `k = 10`, including a batched TA configuration so the batching
/// win (or a regression) shows up in the trajectory, plus NRA(lazy) and
/// CA(h=2) at `k = 100`, where the engine's per-round selection work grows
/// with `k`.
///
/// Each cell runs twice over one shared [`fagin_core::RunScratch`]: an
/// untimed warm-up (growing the arena for the workload) and the timed
/// steady-state run. That is the configuration the serving layer actually
/// executes — every `TopKService` worker leases one arena to all of its
/// queries — and it is what the access-optimal algorithms' wall-clock
/// trajectory should track. Access counts are identical either way (the
/// arena never changes a decision; `tests/arena_reuse.rs`).
pub fn perf_matrix(scale: Scale) -> Vec<PerfRecord> {
    let n = scale.pick(2_000, 40_000);
    let m = 3;
    measure_grid(&standard_workloads(n, m))
}

/// The same grid, but with every workload round-tripped through a store
/// file first (write → reopen, auto backend, full verification). The
/// storage tier's contract is that this changes *nothing* the algorithms
/// can observe, so the records must be identical to [`perf_matrix`]'s in
/// every column except `wall_secs`.
pub fn perf_matrix_store_backed(scale: Scale) -> Vec<PerfRecord> {
    let n = scale.pick(2_000, 40_000);
    let m = 3;
    let workloads: Vec<(&'static str, Database)> = standard_workloads(n, m)
        .into_iter()
        .map(|(name, db)| (name, store_roundtrip(&db, name)))
        .collect();
    measure_grid(&workloads)
}

/// Writes `db` to a temporary store file and reopens it (default
/// options: auto backend, full verify). The file is unlinked immediately
/// — on unix the mapping keeps the pages alive until the database drops.
fn store_roundtrip(db: &Database, tag: &str) -> Database {
    let path =
        std::env::temp_dir().join(format!("fagin-bench-{}-{tag}.fstore", std::process::id()));
    fagin_store::StoreWriter::write(db, &path)
        .unwrap_or_else(|e| panic!("store write for {tag}: {e}"));
    let store = fagin_store::Store::open_default(&path)
        .unwrap_or_else(|e| panic!("store open for {tag}: {e}"));
    std::fs::remove_file(&path).ok();
    store.into_database()
}

/// The perf grid's `k = 10` algorithm suite with each algorithm's natural
/// policy — one definition shared by [`measure_grid`] (the
/// `BENCH_topk.json` rows) and [`obs_overhead_guard`], so the overhead
/// check always measures the artifact's `k = 10` cells.
fn grid_algorithms() -> Vec<(Box<dyn TopKAlgorithm>, AccessPolicy)> {
    vec![
        (Box::new(Ta::new()), AccessPolicy::no_wild_guesses()),
        (
            Box::new(Ta::new().batched(64)),
            AccessPolicy::no_wild_guesses(),
        ),
        (
            Box::new(Nra::with_strategy(BookkeepingStrategy::LazyHeap)),
            AccessPolicy::no_random_access(),
        ),
        (
            Box::new(Nra::with_strategy(BookkeepingStrategy::LazyHeap).batched(64)),
            AccessPolicy::no_random_access(),
        ),
        (Box::new(Ca::new(2)), AccessPolicy::no_wild_guesses()),
    ]
}

/// The `k` of the large-`k` grid cells: ROADMAP item 5's largest `k`.
const LARGE_K: usize = 100;

fn measure_grid(workloads: &[(&'static str, Database)]) -> Vec<PerfRecord> {
    let mut cells: Vec<_> = grid_algorithms()
        .into_iter()
        .map(|(algo, policy)| (algo, policy, 10))
        .collect();
    cells.push((
        Box::new(Nra::with_strategy(BookkeepingStrategy::LazyHeap)),
        AccessPolicy::no_random_access(),
        LARGE_K,
    ));
    cells.push((
        Box::new(Ca::new(2)),
        AccessPolicy::no_wild_guesses(),
        LARGE_K,
    ));

    let agg: &dyn Aggregation = &Min;
    let mut arena = RunScratch::new();
    let mut records = Vec::new();
    for (workload, db) in workloads {
        for (algo, policy, k) in &cells {
            let k = *k;
            let mut session = Session::with_policy(db, policy.clone());
            algo.run_with(&mut session, agg, k, &mut arena)
                .unwrap_or_else(|e| panic!("{} failed on {workload}: {e}", algo.name()));
            let mut wall_secs = f64::INFINITY;
            let mut out = None;
            for _ in 0..2 {
                session.reset(policy.clone());
                let started = Instant::now();
                let run = algo
                    .run_with(&mut session, agg, k, &mut arena)
                    .unwrap_or_else(|e| panic!("{} failed on {workload}: {e}", algo.name()));
                wall_secs = wall_secs.min(started.elapsed().as_secs_f64());
                out = Some(run);
            }
            let out = out.expect("timed runs executed");
            records.push(PerfRecord {
                algorithm: algo.name(),
                workload: (*workload).to_string(),
                n: db.num_objects(),
                m: db.num_lists(),
                k,
                sorted: out.stats.sorted_total(),
                random: out.stats.random_total(),
                bound_recomputations: out.metrics.bound_recomputations,
                wall_secs,
            });
        }
    }
    records
}

/// The standard four workload shapes (fixed seeds) that both the JSON perf
/// matrix and the wall-clock guardrail measure — one definition so the two
/// artifacts can never drift onto different grids.
fn standard_workloads(n: usize, m: usize) -> Vec<(&'static str, Database)> {
    vec![
        ("uniform", random::uniform(n, m, 1)),
        ("correlated", random::correlated(n, m, 0.2, 2)),
        ("anticorrelated", random::anticorrelated(n, m, 0.1, 3)),
        ("zipf", random::zipf(n, m, 1.1, 4)),
    ]
}

/// One measured row of the θ/anytime matrix (experiment E16 and the
/// `BENCH_topk.json` anytime rows): how access counts and wall time
/// respond to approximation slack and to mid-run interruption.
#[derive(Clone, Debug)]
pub struct AnytimeRecord {
    /// Algorithm name as reported by [`TopKAlgorithm::name`] (θ-variants
    /// include their slack, e.g. `TA_theta(1.5)`).
    pub algorithm: String,
    /// Workload name (`uniform`, `correlated`, …).
    pub workload: String,
    /// Objects in the database.
    pub n: usize,
    /// Lists in the database.
    pub m: usize,
    /// How the run was relaxed: `"exact"`, `"theta"` (θ-halting), or
    /// `"cap=R"` (an anytime run interrupted at round cap `R`).
    pub mode: String,
    /// Requested approximation slack θ (1 for exact and capped runs —
    /// capped runs ask for the exact answer and get interrupted).
    pub theta: f64,
    /// Certified guarantee θ̂ of the returned answer: θ for θ-halting
    /// runs, the achieved bound at the interrupt point for capped runs.
    pub guarantee: f64,
    /// Sorted accesses performed.
    pub sorted: u64,
    /// Random accesses performed.
    pub random: u64,
    /// Bound evaluations the engine performed (as in [`PerfRecord`]); on
    /// capped rows this includes the per-round certificate work.
    pub bound_recomputations: u64,
    /// Wall-clock seconds (warmed arena, best of two timed runs, like
    /// [`perf_matrix`]).
    pub wall_secs: f64,
}

/// A θ-capable algorithm family: a constructor from the requested slack
/// paired with the family's natural access policy.
type ThetaFamily = (fn(f64) -> Box<dyn TopKAlgorithm>, AccessPolicy);

/// The three θ-capable algorithm families the θ/anytime artifacts
/// measure, each as a constructor from the requested slack (θ = 1 builds
/// the plain exact configuration, so names stay `TA`/`NRA`/`CA(h=2)` on
/// baseline rows) paired with its natural access policy. One definition
/// shared by [`anytime_matrix`] and [`theta_monotone_guard`] so the
/// recorded artifact and the CI referee can never drift onto different
/// configurations.
fn theta_families() -> Vec<ThetaFamily> {
    fn ta(theta: f64) -> Box<dyn TopKAlgorithm> {
        if theta > 1.0 {
            Box::new(Ta::theta(theta))
        } else {
            Box::new(Ta::new())
        }
    }
    fn nra(theta: f64) -> Box<dyn TopKAlgorithm> {
        let base = Nra::with_strategy(BookkeepingStrategy::LazyHeap);
        if theta > 1.0 {
            Box::new(base.with_theta(theta))
        } else {
            Box::new(base)
        }
    }
    fn ca(theta: f64) -> Box<dyn TopKAlgorithm> {
        if theta > 1.0 {
            Box::new(Ca::new(2).with_theta(theta))
        } else {
            Box::new(Ca::new(2))
        }
    }
    vec![
        (ta, AccessPolicy::no_wild_guesses()),
        (nra, AccessPolicy::no_random_access()),
        (ca, AccessPolicy::no_wild_guesses()),
    ]
}

/// Runs `algo` once untimed (warming the arena) and twice timed, exactly
/// like [`perf_matrix`]'s cells; `anytime` switches the executions to the
/// interruptible entry point. Returns the last output and the best wall
/// time.
fn timed_run(
    db: &Database,
    algo: &dyn TopKAlgorithm,
    policy: &AccessPolicy,
    agg: &dyn Aggregation,
    k: usize,
    arena: &mut RunScratch,
    anytime: Option<&AnytimeConfig>,
) -> (TopKOutput, f64) {
    let mut session = Session::with_policy(db, policy.clone());
    let mut wall_secs = f64::INFINITY;
    let mut out = None;
    for pass in 0..3 {
        if pass > 0 {
            session.reset(policy.clone());
        }
        let started = Instant::now();
        let run = match anytime {
            Some(cfg) => algo.run_anytime(&mut session, agg, k, cfg, arena),
            None => algo.run_with(&mut session, agg, k, arena),
        }
        .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
        if pass > 0 {
            wall_secs = wall_secs.min(started.elapsed().as_secs_f64());
            out = Some(run);
        }
    }
    (out.expect("timed runs executed"), wall_secs)
}

/// The θ/anytime measurement grid behind experiment E16 and the
/// `BENCH_topk.json` anytime rows: every standard workload ×
/// {TA, NRA(lazy), CA(h=2)}, measured exactly, under θ-halting for
/// θ ∈ {1.1, 1.5, 2.0}, and under round-capped anytime interruption at
/// ¼, ½ and ¾ of the exact run's round count. Every recorded answer is
/// checked against the oracle's θ-approximation predicate for its own
/// certified guarantee — the artifact cannot record an uncertified row.
/// (The access-count inequality θ-run ≤ exact-run is *not* asserted here;
/// that is [`theta_monotone_guard`]'s job, so a regression fails the
/// guardrail instead of panicking the artifact writer.)
pub fn anytime_matrix(scale: Scale) -> Vec<AnytimeRecord> {
    let n = scale.pick(2_000, 40_000);
    let m = 3;
    let k = 10;
    let agg: &dyn Aggregation = &Min;
    let mut arena = RunScratch::new();
    let mut records = Vec::new();
    for (workload, db) in &standard_workloads(n, m) {
        for (family, policy) in theta_families() {
            let exact_algo = family(1.0);
            let (exact, exact_wall) =
                timed_run(db, exact_algo.as_ref(), &policy, agg, k, &mut arena, None);
            records.push(AnytimeRecord {
                algorithm: exact_algo.name(),
                workload: (*workload).to_string(),
                n: db.num_objects(),
                m: db.num_lists(),
                mode: "exact".to_string(),
                theta: 1.0,
                guarantee: exact.metrics.approximation_guarantee,
                sorted: exact.stats.sorted_total(),
                random: exact.stats.random_total(),
                bound_recomputations: exact.metrics.bound_recomputations,
                wall_secs: exact_wall,
            });
            for theta in [1.1, 1.5, 2.0] {
                let algo = family(theta);
                let (out, wall_secs) =
                    timed_run(db, algo.as_ref(), &policy, agg, k, &mut arena, None);
                let guarantee = out.metrics.approximation_guarantee;
                assert!(
                    oracle::is_valid_theta_approximation(db, agg, k, guarantee, &out.objects()),
                    "{} on {workload}: answer violates its certificate θ̂ = {guarantee}",
                    algo.name()
                );
                records.push(AnytimeRecord {
                    algorithm: algo.name(),
                    workload: (*workload).to_string(),
                    n: db.num_objects(),
                    m: db.num_lists(),
                    mode: "theta".to_string(),
                    theta,
                    guarantee,
                    sorted: out.stats.sorted_total(),
                    random: out.stats.random_total(),
                    bound_recomputations: out.metrics.bound_recomputations,
                    wall_secs,
                });
            }
            // Interruption sweep: round caps at quarters of the exact
            // run's round count (deduplicated — tiny runs collapse).
            let rounds = exact.metrics.rounds;
            let mut caps: Vec<u64> = [rounds / 4, rounds / 2, 3 * rounds / 4]
                .into_iter()
                .map(|c| c.max(1))
                .collect();
            caps.dedup();
            for cap in caps {
                let cfg = AnytimeConfig::new().with_round_cap(cap);
                let (out, wall_secs) = timed_run(
                    db,
                    exact_algo.as_ref(),
                    &policy,
                    agg,
                    k,
                    &mut arena,
                    Some(&cfg),
                );
                let guarantee = out.metrics.approximation_guarantee;
                assert!(
                    guarantee.is_finite() && guarantee >= 1.0,
                    "{} on {workload} cap {cap}: uncertified guarantee {guarantee}",
                    exact_algo.name()
                );
                assert!(
                    oracle::is_valid_theta_approximation(db, agg, k, guarantee, &out.objects()),
                    "{} on {workload} cap {cap}: answer violates θ̂ = {guarantee}",
                    exact_algo.name()
                );
                records.push(AnytimeRecord {
                    algorithm: exact_algo.name(),
                    workload: (*workload).to_string(),
                    n: db.num_objects(),
                    m: db.num_lists(),
                    mode: format!("cap={cap}"),
                    theta: 1.0,
                    guarantee,
                    sorted: out.stats.sorted_total(),
                    random: out.stats.random_total(),
                    bound_recomputations: out.metrics.bound_recomputations,
                    wall_secs,
                });
            }
        }
    }
    records
}

/// One measured restart path: how long until the first answer, starting
/// either from raw grade columns (sort + index build) or from a store
/// file (validate + map/decode).
#[derive(Clone, Debug)]
pub struct ColdStartRecord {
    /// `"build"` (the from-columns baseline) or `"open:<backend>,<verify>"`.
    pub phase: String,
    /// Objects per list.
    pub n: usize,
    /// Lists.
    pub m: usize,
    /// Seconds to a queryable database (column build, or store open).
    pub prepare_secs: f64,
    /// Seconds for the first top-10 TA query on the fresh database.
    pub first_query_secs: f64,
    /// `prepare + first query` — the restart-to-first-answer time.
    pub total_secs: f64,
    /// Baseline `total_secs` ÷ this row's `total_secs` (the build row
    /// records 1.0).
    pub speedup: f64,
}

/// Measures restart-to-first-answer: build-from-columns vs opening a
/// store file at each verification level, n = 50 000 (`Quick`) /
/// 5 000 000 (`Full`), m = 2. The store open serves the pre-sorted
/// stripes in place, so it skips the O(n log n) sort per list *and* the
/// rank-table build — the mmap rows should beat the baseline by well
/// over an order of magnitude at full scale.
pub fn cold_start_matrix(scale: Scale) -> Vec<ColdStartRecord> {
    use fagin_store::{Store, StoreOptions, StoreWriter, Verify};

    let n = scale.pick(50_000, 5_000_000);
    let m = 2;
    let k = 10;
    let agg: &dyn Aggregation = &Min;

    // Raw columns, generated untimed (SplitMix64: deterministic, and the
    // generator's cost must not pollute the build measurement).
    let columns: Vec<Vec<f64>> = (0..m as u64)
        .map(|list| {
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (list << 32) ^ n as u64;
            (0..n)
                .map(|_| {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
                    (z >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect()
        })
        .collect();

    let first_query = |db: &Database| {
        let started = Instant::now();
        let mut session = Session::with_policy(db, AccessPolicy::no_wild_guesses());
        Ta::new()
            .run(&mut session, agg, k)
            .expect("cold-start query");
        started.elapsed().as_secs_f64()
    };

    let started = Instant::now();
    let db = Database::from_f64_columns(&columns).expect("cold-start build");
    let build_secs = started.elapsed().as_secs_f64();
    let build_query_secs = first_query(&db);
    let baseline_total = build_secs + build_query_secs;
    let mut records = vec![ColdStartRecord {
        phase: "build".into(),
        n,
        m,
        prepare_secs: build_secs,
        first_query_secs: build_query_secs,
        total_secs: baseline_total,
        speedup: 1.0,
    }];

    let path = std::env::temp_dir().join(format!("fagin-bench-coldstart-{}.fstore", n));
    StoreWriter::write(&db, &path).expect("cold-start store write");
    drop(db);
    for (verify, label) in [
        (Verify::HeaderOnly, "header"),
        (Verify::Structural, "structural"),
        (Verify::Full, "full"),
    ] {
        let started = Instant::now();
        let store =
            Store::open(&path, StoreOptions::default().verify(verify)).expect("cold-start open");
        let prepare_secs = started.elapsed().as_secs_f64();
        let backend = store.backend().label();
        let db = store.into_database();
        let first_query_secs = first_query(&db);
        let total_secs = prepare_secs + first_query_secs;
        records.push(ColdStartRecord {
            phase: format!("open:{backend},{label}"),
            n,
            m,
            prepare_secs,
            first_query_secs,
            total_secs,
            speedup: baseline_total / total_secs.max(1e-12),
        });
    }
    std::fs::remove_file(&path).ok();
    records
}

/// One measured service configuration of the mixed-stream serving bench
/// (see `experiments::serving`): queries/sec and cache hit rate at a given
/// worker count, recorded alongside the per-algorithm grid so the serving
/// layer's trajectory is diffable across commits too.
#[derive(Clone, Debug)]
pub struct ServicePerfRecord {
    /// Stream name (`mixed-stream` or `dup-burst`).
    pub stream: String,
    /// Worker threads.
    pub workers: usize,
    /// Whether the result cache was enabled.
    pub cache: bool,
    /// Objects in the database.
    pub n: usize,
    /// Lists in the database.
    pub m: usize,
    /// Queries in the stream.
    pub queries: usize,
    /// Answered queries per second.
    pub qps: f64,
    /// Cache hit rate over completed queries.
    pub cache_hit_rate: f64,
    /// Queries answered by riding an identical in-flight run
    /// (single-flight coalescing).
    pub coalesced: u64,
    /// Total sorted accesses across the stream.
    pub sorted: u64,
    /// Total random accesses across the stream.
    pub random: u64,
    /// Wall-clock seconds for the whole stream.
    pub wall_secs: f64,
}

/// Runs the serving grid: the mixed stream at 1/2/4/8 workers × cache
/// on/off, plus the duplicate-burst (stampede) stream at 1/4/8 workers
/// with the cache on.
///
/// Measured **once per process per scale** (memoized): the E15 table and
/// the `BENCH_topk.json` rows must come from the same runs, not from two
/// back-to-back measurements that disagree on wall-clock numbers — and
/// `experiments all` must not pay for the grid twice. The first (cheapest)
/// configuration validates every answer against the oracle.
pub fn service_matrix(scale: Scale) -> Vec<ServicePerfRecord> {
    use std::sync::{Mutex, OnceLock};
    type Memo = Mutex<Vec<(Scale, Vec<ServicePerfRecord>)>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(Vec::new()));
    let mut memo = memo.lock().expect("service matrix memo");
    if let Some((_, records)) = memo.iter().find(|(s, _)| *s == scale) {
        return records.clone();
    }
    let records = measure_service_matrix(scale);
    memo.push((scale, records.clone()));
    records
}

/// Measures one configuration twice and keeps the faster run: stream
/// throughput on a loaded machine (or one without `workers` real cores)
/// is scheduler-noisy, and the trajectory should record capability, not
/// jitter. Access totals and hit rates are deterministic across the pair
/// up to worker/coalescing races; the kept run reports its own.
fn best_of_runs(
    db: &std::sync::Arc<fagin_middleware::Database>,
    stream: &[fagin_serve::QueryRequest],
    workers: usize,
    cache: bool,
    validate: bool,
) -> crate::experiments::serving::ServiceRun {
    use crate::experiments::serving::run_service_config;
    let mut best = run_service_config(db, stream, workers, cache, validate);
    for _ in 1..3 {
        let run = run_service_config(db, stream, workers, cache, false);
        if run.qps > best.qps {
            best = run;
        }
    }
    best
}

fn measure_service_matrix(scale: Scale) -> Vec<ServicePerfRecord> {
    use crate::experiments::serving::{duplicate_burst_stream, mixed_stream, ServiceRun};
    let n = scale.pick(2_000, 40_000);
    let m = 3;
    let db = std::sync::Arc::new(random::uniform(n, m, 0xE15));
    let mixed = mixed_stream(scale.pick(40, 200));
    let dup = duplicate_burst_stream(scale.pick(40, 200));
    let record = |stream: &str, run: ServiceRun| ServicePerfRecord {
        stream: stream.to_string(),
        workers: run.workers,
        cache: run.cache,
        n,
        m,
        queries: run.answered,
        qps: run.qps,
        cache_hit_rate: run.hit_rate,
        coalesced: run.coalesced,
        sorted: run.sorted,
        random: run.random,
        wall_secs: run.wall_secs,
    };
    let mut records = Vec::new();
    let mut validated = false;
    for cache in [false, true] {
        for workers in [1usize, 2, 4, 8] {
            let run = best_of_runs(&db, &mixed, workers, cache, !validated);
            validated = true;
            records.push(record("mixed-stream", run));
        }
    }
    // The stampede stream: cache on (the pre-coalescing worst case — every
    // worker racing the same cold shape), across the worker sweep.
    for workers in [1usize, 4, 8] {
        let run = best_of_runs(&db, &dup, workers, true, false);
        records.push(record("dup-burst", run));
    }
    records
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the algorithm grid, the service grid, and the cold-start rows
/// as one pretty-printed JSON array: algorithm rows first (unchanged
/// shape, so tooling diffs keep working), then service rows carrying
/// `queries`, `qps` and `cache_hit_rate` instead of `k`, then cold-start
/// rows carrying `prepare_secs`, `first_query_secs` and `speedup`, then
/// anytime rows carrying `mode`, `theta` and `guarantee`. Only algorithm
/// rows carry `k` — the access-count referee keys on it.
pub fn to_json(
    records: &[PerfRecord],
    service: &[ServicePerfRecord],
    cold: &[ColdStartRecord],
    anytime: &[AnytimeRecord],
) -> String {
    let mut s = String::from("[\n");
    let total = records.len() + service.len() + cold.len() + anytime.len();
    let mut written = 0usize;
    for r in records {
        written += 1;
        s.push_str(&format!(
            "  {{\"algorithm\": \"{}\", \"workload\": \"{}\", \"n\": {}, \"m\": {}, \
             \"k\": {}, \"sorted\": {}, \"random\": {}, \"bound_recomputations\": {}, \
             \"wall_secs\": {:.6}}}{}\n",
            escape(&r.algorithm),
            escape(&r.workload),
            r.n,
            r.m,
            r.k,
            r.sorted,
            r.random,
            r.bound_recomputations,
            r.wall_secs,
            if written < total { "," } else { "" }
        ));
    }
    for r in service {
        written += 1;
        s.push_str(&format!(
            "  {{\"algorithm\": \"TopKService[w={}]\", \"workload\": \"{}({})\", \
             \"n\": {}, \"m\": {}, \"queries\": {}, \"qps\": {:.2}, \
             \"cache_hit_rate\": {:.4}, \"coalesced\": {}, \"sorted\": {}, \"random\": {}, \
             \"wall_secs\": {:.6}}}{}\n",
            r.workers,
            escape(&r.stream),
            if r.cache { "cache" } else { "no-cache" },
            r.n,
            r.m,
            r.queries,
            r.qps,
            r.cache_hit_rate,
            r.coalesced,
            r.sorted,
            r.random,
            r.wall_secs,
            if written < total { "," } else { "" }
        ));
    }
    for r in cold {
        written += 1;
        s.push_str(&format!(
            "  {{\"algorithm\": \"ColdStart[{}]\", \"workload\": \"cold-start\", \
             \"n\": {}, \"m\": {}, \"prepare_secs\": {:.6}, \"first_query_secs\": {:.6}, \
             \"speedup\": {:.2}, \"wall_secs\": {:.6}}}{}\n",
            escape(&r.phase),
            r.n,
            r.m,
            r.prepare_secs,
            r.first_query_secs,
            r.speedup,
            r.total_secs,
            if written < total { "," } else { "" }
        ));
    }
    for r in anytime {
        written += 1;
        s.push_str(&format!(
            "  {{\"algorithm\": \"{}\", \"workload\": \"{}\", \"n\": {}, \"m\": {}, \
             \"mode\": \"{}\", \"theta\": {:.2}, \"guarantee\": {:.4}, \
             \"sorted\": {}, \"random\": {}, \"bound_recomputations\": {}, \
             \"wall_secs\": {:.6}}}{}\n",
            escape(&r.algorithm),
            escape(&r.workload),
            r.n,
            r.m,
            escape(&r.mode),
            r.theta,
            r.guarantee,
            r.sorted,
            r.random,
            r.bound_recomputations,
            r.wall_secs,
            if written < total { "," } else { "" }
        ));
    }
    s.push_str("]\n");
    s
}

/// Runs all four grids and writes `path` (conventionally
/// `BENCH_topk.json`); returns how many records were written.
pub fn write_json(path: &str, scale: Scale) -> std::io::Result<usize> {
    let records = perf_matrix(scale);
    let service = service_matrix(scale);
    let cold = cold_start_matrix(scale);
    let anytime = anytime_matrix(scale);
    std::fs::write(path, to_json(&records, &service, &cold, &anytime))?;
    Ok(records.len() + service.len() + cold.len() + anytime.len())
}

/// Compares a freshly measured algorithm grid against the access counts
/// recorded in an existing `BENCH_topk.json` (the
/// `experiments -- --assert-access-counts` smoke check).
///
/// Returns one human-readable line per drifted cell (empty = no drift), or
/// `Err` when the file is missing/unparsable or the grids don't line up.
/// Only the *algorithm* rows are compared: their access counts and bound
/// recomputations are deterministic functions of the workload seeds, so
/// any drift means an algorithm's access sequence, or the bookkeeping work
/// of an exact run, changed — exactly what a perf refactor must never do
/// silently. Service rows are excluded (their totals depend on worker
/// scheduling races against the cache), cold-start rows are excluded
/// (pure wall-clock), and so is `wall_secs` (that is the row that is
/// *supposed* to change).
///
/// The grid is measured **twice**: once in memory and once with every
/// workload round-tripped through a store file, both compared against the
/// same recorded counts — so a storage-tier bug that perturbs a single
/// access anywhere on the grid fails this check even though every
/// in-memory row still matches.
pub fn access_count_drift(path: &str, scale: Scale) -> Result<Vec<String>, String> {
    let recorded = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // A cell is identified by its algorithm, workload and these shape
    // fields (rows that differ only in `k` are different cells); the
    // counts are what must not move.
    const SHAPE: [&str; 3] = ["n", "m", "k"];
    const COUNTS: [&str; 3] = ["sorted", "random", "bound_recomputations"];
    let mut want: Vec<(String, String, [u64; 3], [u64; 3])> = Vec::new();
    for line in recorded.lines() {
        // Algorithm rows carry "k"; service rows carry "queries".
        if !line.contains("\"algorithm\"") || !line.contains("\"k\":") {
            continue;
        }
        let algorithm = json_str_field(line, "algorithm")
            .ok_or_else(|| format!("{path}: row without algorithm: {line}"))?;
        let workload = json_str_field(line, "workload")
            .ok_or_else(|| format!("{path}: row without workload: {line}"))?;
        let mut shape = [0u64; 3];
        let mut counts = [0u64; 3];
        for (slot, key) in shape
            .iter_mut()
            .chain(&mut counts)
            .zip(SHAPE.iter().chain(&COUNTS))
        {
            *slot = json_u64_field(line, key)
                .ok_or_else(|| format!("{path}: row without {key}: {line}"))?;
        }
        want.push((algorithm, workload, shape, counts));
    }
    if want.is_empty() {
        return Err(format!("{path}: no algorithm rows found"));
    }
    let mut drift = Vec::new();
    for (label, measured) in [
        ("", perf_matrix(scale)),
        ("store-backed: ", perf_matrix_store_backed(scale)),
    ] {
        if measured.len() != want.len() {
            return Err(format!(
                "{path} records {} algorithm rows but the {}grid measures {} — \
                 regenerate the artifact",
                want.len(),
                label,
                measured.len()
            ));
        }
        for r in &measured {
            let shape = [r.n as u64, r.m as u64, r.k as u64];
            let cell = format!(
                "{label}{} on {} (n={}, m={}, k={})",
                r.algorithm, r.workload, r.n, r.m, r.k
            );
            let Some((_, _, _, counts)) = want
                .iter()
                .find(|(a, w, s, _)| *a == r.algorithm && *w == r.workload && *s == shape)
            else {
                drift.push(format!("{cell}: measured but not recorded in {path}"));
                continue;
            };
            let got = [r.sorted, r.random, r.bound_recomputations];
            for ((key, &want), got) in COUNTS.iter().zip(counts).zip(got) {
                if want != got {
                    drift.push(format!("{cell}: {key} recorded {want} but measured {got}"));
                }
            }
        }
    }
    Ok(drift)
}

/// Extracts a `"key": "value"` string field from one JSON row of our own
/// `to_json` output (hand-rolled like the writer — the build is offline).
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts a `"key": 123` unsigned field from one JSON row.
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One measured row of the wall-clock guardrail.
#[derive(Clone, Debug)]
pub struct BudgetRow {
    /// Workload name.
    pub workload: String,
    /// Algorithm name.
    pub algorithm: String,
    /// The algorithm's wall time (best of two runs), seconds.
    pub wall_secs: f64,
    /// TA's wall time on the same workload (best of two runs), seconds.
    pub ta_secs: f64,
    /// `wall_secs / max(ta_secs, noise floor)`.
    pub ratio: f64,
    /// Whether the row stays within the budget multiple.
    pub ok: bool,
}

/// Timing noise floor: TA can finish in microseconds on easy workloads,
/// where a ratio against its raw time would amplify scheduler jitter into
/// spurious failures. Ratios are taken against at least this many seconds.
const BUDGET_NOISE_FLOOR_SECS: f64 = 1e-3;

/// Wall-clock guardrail (`experiments -- --assert-budget`): NRA(lazy) and
/// CA(h=2) must finish within `multiple ×` TA's wall time on every
/// workload shape. The bookkeeping layer is the only thing that separates
/// their wall time from TA's at comparable access counts, so a blown
/// multiple means an engine regression (pre-rewrite the uniform ratios
/// were ≈150× and ≈580×; post-rewrite both sit under 10×).
///
/// Runs at n = 10 000 (`Scale::Full`) / 2 000 (`Scale::Quick`) — a smoke
/// size chosen so CI pays a fraction of a second per row.
pub fn wall_clock_guardrail(scale: Scale, multiple: f64) -> Vec<BudgetRow> {
    let n = scale.pick(2_000, 10_000);
    let m = 3;
    let k = 10;
    let workloads = standard_workloads(n, m);
    let agg: &dyn Aggregation = &Min;

    // Deterministic runs: best-of-two damps scheduler noise.
    let time_best_of_two = |db: &Database, algo: &dyn TopKAlgorithm, policy: &AccessPolicy| {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let mut session = Session::with_policy(db, policy.clone());
            let started = Instant::now();
            algo.run(&mut session, agg, k)
                .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
            best = best.min(started.elapsed().as_secs_f64());
        }
        best
    };

    let mut rows = Vec::new();
    for (workload, db) in &workloads {
        let ta_secs = time_best_of_two(db, &Ta::new(), &AccessPolicy::no_wild_guesses());
        let contenders: Vec<(Box<dyn TopKAlgorithm>, AccessPolicy)> = vec![
            (
                Box::new(Nra::with_strategy(BookkeepingStrategy::LazyHeap)),
                AccessPolicy::no_random_access(),
            ),
            (Box::new(Ca::new(2)), AccessPolicy::no_wild_guesses()),
        ];
        for (algo, policy) in &contenders {
            let wall_secs = time_best_of_two(db, algo.as_ref(), policy);
            let ratio = wall_secs / ta_secs.max(BUDGET_NOISE_FLOOR_SECS);
            rows.push(BudgetRow {
                workload: (*workload).to_string(),
                algorithm: algo.name(),
                wall_secs,
                ta_secs,
                ratio,
                ok: ratio <= multiple,
            });
        }
    }
    rows
}

/// One measured row of the service-throughput guardrail.
#[derive(Clone, Debug)]
pub struct ServiceQpsRow {
    /// Worker threads.
    pub workers: usize,
    /// Answered queries per second (best of two runs).
    pub qps: f64,
    /// Cache hit rate over the stream.
    pub hit_rate: f64,
    /// Coalesced rides over the stream.
    pub coalesced: u64,
}

/// The service-throughput guardrail's verdict.
#[derive(Clone, Debug)]
pub struct ServiceQpsGuard {
    /// The measured rows (w = 1, then w = 4).
    pub rows: Vec<ServiceQpsRow>,
    /// `qps(w=4) / qps(w=1)`.
    pub ratio: f64,
    /// The ratio the build demands.
    pub min_ratio: f64,
    /// Whether the ratio clears the bar.
    pub ok: bool,
}

/// Service-throughput guardrail (`experiments -- --assert-service-qps`):
/// the cached mixed stream at 4 workers must sustain at least `min_ratio ×`
/// its single-worker throughput. Before single-flight coalescing the
/// multi-worker pool *stampeded* — every worker re-ran the same cold shape,
/// so adding workers divided qps (the recorded ratio was ≈0.27 at w=4);
/// with coalescing each shape cold-runs once regardless of worker count,
/// so the ratio sits near (or above, given real cores) 1. Both sides are
/// best-of-two runs, damping scheduler noise the same way the wall-clock
/// guardrail does.
pub fn service_qps_guard(scale: Scale, min_ratio: f64) -> ServiceQpsGuard {
    use crate::experiments::serving::mixed_stream;
    let n = scale.pick(2_000, 40_000);
    let m = 3;
    let db = std::sync::Arc::new(random::uniform(n, m, 0xE15));
    let stream = mixed_stream(scale.pick(40, 200));
    let rows: Vec<ServiceQpsRow> = [1usize, 4]
        .iter()
        .map(|&workers| {
            let run = best_of_runs(&db, &stream, workers, true, false);
            ServiceQpsRow {
                workers,
                qps: run.qps,
                hit_rate: run.hit_rate,
                coalesced: run.coalesced,
            }
        })
        .collect();
    let ratio = rows[1].qps / rows[0].qps.max(1e-9);
    ServiceQpsGuard {
        ratio,
        min_ratio,
        ok: ratio >= min_ratio,
        rows,
    }
}

/// One measured cell of the observability-overhead guardrail.
#[derive(Clone, Debug)]
pub struct ObsOverheadRow {
    /// Workload name.
    pub workload: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Steady-state wall time with no recorder attached (best of three).
    pub off_secs: f64,
    /// Steady-state wall time narrating into an attached worker-sized
    /// flight ring (best of three).
    pub on_secs: f64,
    /// Sorted accesses of the traced run.
    pub sorted: u64,
    /// Random accesses of the traced run.
    pub random: u64,
    /// Whether the traced run's access counts are byte-identical to the
    /// untraced run's — tracing must observe the access sequence, never
    /// steer it.
    pub counts_match: bool,
}

/// The observability-overhead guardrail's verdict.
#[derive(Clone, Debug)]
pub struct ObsOverheadGuard {
    /// The measured cells (full perf grid).
    pub rows: Vec<ObsOverheadRow>,
    /// Aggregate untraced wall time over the grid, seconds.
    pub off_total_secs: f64,
    /// Aggregate traced wall time over the grid, seconds.
    pub on_total_secs: f64,
    /// `(on_total - off_total) / off_total`, as a percentage (negative
    /// when tracing happened to measure faster — scheduler noise).
    pub overhead_pct: f64,
    /// The largest overhead percentage the build tolerates.
    pub max_pct: f64,
    /// Whether the aggregate overhead stays under `max_pct` *and* every
    /// cell's access counts match.
    pub ok: bool,
}

/// The ring size the overhead guard attaches — the serving layer's
/// per-worker configuration, so the guard prices exactly what production
/// queries pay (including the overwrite path once a run saturates it).
const OBS_GUARD_RING_SLOTS: usize = 1024;

/// Observability-overhead guardrail (`experiments -- --assert-obs-overhead`):
/// the full perf grid — every workload shape × the `BENCH_topk.json`
/// algorithm suite — re-measured twice per cell, once with no recorder and
/// once narrating into an attached worker-sized flight ring. The aggregate
/// traced wall time must stay within `max_pct` percent of untraced, and
/// every cell's access counts must be byte-identical (instrumentation
/// observes the run; it must never change what the run does).
///
/// The two variants are interleaved rep-by-rep (off, on, off, on, …) and
/// each side keeps its best of three, so frequency scaling and cache drift
/// hit both sides alike instead of biasing whichever ran second. The
/// verdict compares grid-aggregate sums, not per-cell ratios: individual
/// cells finish in microseconds, where a percentage is pure jitter.
pub fn obs_overhead_guard(scale: Scale, max_pct: f64) -> ObsOverheadGuard {
    let n = scale.pick(2_000, 40_000);
    let m = 3;
    let k = 10;
    let agg: &dyn Aggregation = &Min;
    let workloads = standard_workloads(n, m);
    let algorithms = grid_algorithms();

    let mut arena = RunScratch::new();
    let mut rows = Vec::new();
    for (workload, db) in &workloads {
        for (algo, policy) in &algorithms {
            let mut s_off = Session::with_policy(db, policy.clone());
            let mut s_on = Session::with_policy(db, policy.clone());
            s_on.attach_recorder(fagin_middleware::FlightRecorder::new(OBS_GUARD_RING_SLOTS));
            // Warm-ups size the shared arena for this cell on both sides.
            for s in [&mut s_off, &mut s_on] {
                algo.run_with(s, agg, k, &mut arena)
                    .unwrap_or_else(|e| panic!("{} failed on {workload}: {e}", algo.name()));
            }
            let mut off_secs = f64::INFINITY;
            let mut on_secs = f64::INFINITY;
            let mut off_counts = (0u64, 0u64);
            let mut on_counts = (0u64, 0u64);
            for _ in 0..3 {
                s_off.reset(policy.clone());
                let started = Instant::now();
                let out = algo
                    .run_with(&mut s_off, agg, k, &mut arena)
                    .unwrap_or_else(|e| panic!("{} failed on {workload}: {e}", algo.name()));
                off_secs = off_secs.min(started.elapsed().as_secs_f64());
                off_counts = (out.stats.sorted_total(), out.stats.random_total());

                s_on.reset(policy.clone());
                if let Some(rec) = s_on.recorder_mut() {
                    rec.clear();
                    rec.set_query(1);
                }
                let started = Instant::now();
                let out = algo
                    .run_with(&mut s_on, agg, k, &mut arena)
                    .unwrap_or_else(|e| panic!("{} failed on {workload}: {e}", algo.name()));
                on_secs = on_secs.min(started.elapsed().as_secs_f64());
                on_counts = (out.stats.sorted_total(), out.stats.random_total());
            }
            rows.push(ObsOverheadRow {
                workload: (*workload).to_string(),
                algorithm: algo.name(),
                off_secs,
                on_secs,
                sorted: on_counts.0,
                random: on_counts.1,
                counts_match: off_counts == on_counts,
            });
        }
    }
    let off_total_secs: f64 = rows.iter().map(|r| r.off_secs).sum();
    let on_total_secs: f64 = rows.iter().map(|r| r.on_secs).sum();
    let overhead_pct =
        (on_total_secs - off_total_secs) / off_total_secs.max(BUDGET_NOISE_FLOOR_SECS) * 100.0;
    let ok = overhead_pct <= max_pct && rows.iter().all(|r| r.counts_match);
    ObsOverheadGuard {
        rows,
        off_total_secs,
        on_total_secs,
        overhead_pct,
        max_pct,
        ok,
    }
}

/// One measured row of the θ-monotonicity guardrail.
#[derive(Clone, Debug)]
pub struct ThetaMonotoneRow {
    /// Workload name.
    pub workload: String,
    /// The θ-variant's name (includes the slack).
    pub algorithm: String,
    /// Requested slack.
    pub theta: f64,
    /// The θ-run's sorted accesses.
    pub sorted: u64,
    /// The θ-run's random accesses.
    pub random: u64,
    /// The exact counterpart's sorted accesses.
    pub exact_sorted: u64,
    /// The exact counterpart's random accesses.
    pub exact_random: u64,
    /// Whether the answer satisfies the oracle's θ-approximation predicate.
    pub valid: bool,
    /// `valid` and both access counts ≤ the exact counterpart's.
    pub ok: bool,
}

/// θ-monotonicity guardrail (`experiments -- --assert-theta-monotone`):
/// for TA, NRA(lazy) and CA(h=2) on every workload shape, a θ-relaxed run
/// (θ ∈ {1.1, 1.5, 2.0}) must (a) return an answer satisfying the
/// oracle's θ-approximation predicate and (b) perform no more sorted or
/// random accesses than its exact counterpart — relaxing the guarantee
/// may only ever remove work (Theorem 6.6's point). Access counts are
/// deterministic functions of the workload seeds, so unlike the
/// wall-clock guardrail no noise floor is needed; runs at the same smoke
/// size (n = 10 000 `Full` / 2 000 `Quick`).
pub fn theta_monotone_guard(scale: Scale) -> Vec<ThetaMonotoneRow> {
    let n = scale.pick(2_000, 10_000);
    let m = 3;
    let k = 10;
    let agg: &dyn Aggregation = &Min;
    let mut arena = RunScratch::new();
    let run_once =
        |db: &Database, algo: &dyn TopKAlgorithm, policy: &AccessPolicy, arena: &mut RunScratch| {
            let mut session = Session::with_policy(db, policy.clone());
            algo.run_with(&mut session, agg, k, arena)
                .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()))
        };
    let mut rows = Vec::new();
    for (workload, db) in &standard_workloads(n, m) {
        for (family, policy) in theta_families() {
            let exact = run_once(db, family(1.0).as_ref(), &policy, &mut arena);
            let (exact_sorted, exact_random) =
                (exact.stats.sorted_total(), exact.stats.random_total());
            for theta in [1.1, 1.5, 2.0] {
                let algo = family(theta);
                let out = run_once(db, algo.as_ref(), &policy, &mut arena);
                let valid = oracle::is_valid_theta_approximation(db, agg, k, theta, &out.objects());
                let (sorted, random) = (out.stats.sorted_total(), out.stats.random_total());
                rows.push(ThetaMonotoneRow {
                    workload: (*workload).to_string(),
                    algorithm: algo.name(),
                    theta,
                    sorted,
                    random,
                    exact_sorted,
                    exact_random,
                    valid,
                    ok: valid && sorted <= exact_sorted && random <= exact_random,
                });
            }
        }
    }
    rows
}

/// One checked cell of the fault-survival matrix.
#[derive(Clone, Debug)]
pub struct FaultSurvivalRow {
    /// Workload name.
    pub workload: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Human-readable fault-schedule label.
    pub schedule: String,
    /// How the run ended: `"exact"`, `"certified-degraded"`, or
    /// `"typed-error"` (an `"INVALID"` ending fails the row).
    pub ending: &'static str,
    /// Faults the resilience layer absorbed or surfaced.
    pub faults: u64,
    /// Retries it spent doing so.
    pub retries: u64,
    /// The ending is one of the three legal ones and (for answers) the
    /// oracle certifies it.
    pub valid: bool,
    /// Every fault is accounted: `faults == retries + lost_conversions`.
    pub accounted: bool,
    /// `valid && accounted`.
    pub ok: bool,
}

/// Classifies one chaos run against the survival trichotomy: an exact
/// answer the oracle confirms, a certified θ̂ answer with an interrupted
/// halt, or a typed source loss. Anything else — a transient error
/// leaking through the stack, an uncertified answer, a wrong exact
/// answer — is `("INVALID", false)`.
fn classify_survival(
    db: &Database,
    agg: &dyn Aggregation,
    k: usize,
    result: Result<TopKOutput, AlgoError>,
) -> (&'static str, bool) {
    match result {
        Ok(out) => {
            let theta = out.metrics.approximation_guarantee;
            if !(theta.is_finite() && theta >= 1.0) {
                return ("INVALID", false);
            }
            if theta == 1.0 && !out.metrics.halt.is_interrupted() {
                let valid = oracle::is_valid_top_k(db, agg, k, &out.objects());
                ("exact", valid)
            } else {
                let valid = out.metrics.halt.is_interrupted()
                    && oracle::is_valid_theta_approximation(db, agg, k, theta, &out.objects());
                ("certified-degraded", valid)
            }
        }
        Err(AlgoError::Access(e)) if e.is_source_loss() => ("typed-error", true),
        Err(_) => ("INVALID", false),
    }
}

/// Fault-survival guardrail (`experiments -- --assert-fault-survival`):
/// a fixed fault-schedule matrix — seeded chaos at three rates, a source
/// dying mid-query, and a permanently tripped breaker — driven through
/// TA, NRA(lazy) and CA(h=2) on every workload shape, under the full
/// resilience stack (fault injector → bounded retries → circuit
/// breakers). Every cell must end in the trichotomy: a bytewise-exact
/// answer, a certified θ̂ answer with an interrupted halt, or a typed
/// source loss — no panics, no uncertified answers — and the fault-plane
/// counters must account for every retry
/// (`faults == retries + lost_conversions`). Schedules are deterministic
/// functions of their seeds, so any failure reproduces exactly.
pub fn fault_survival_guard(scale: Scale) -> Vec<FaultSurvivalRow> {
    let n = scale.pick(300, 1_500);
    let m = 3;
    let k = 10;
    let agg: &dyn Aggregation = &Min;
    let mut arena = RunScratch::new();
    let mut rows = Vec::new();
    for (workload, db) in &standard_workloads(n, m) {
        for (family, policy) in theta_families() {
            let algo = family(1.0);
            let push = |schedule: String,
                        result: Result<TopKOutput, AlgoError>,
                        fs: fagin_remote::FaultStats,
                        rows: &mut Vec<FaultSurvivalRow>| {
                let (ending, valid) = classify_survival(db, agg, k, result);
                let accounted = fs.faults() == fs.retries() + fs.lost_conversions();
                rows.push(FaultSurvivalRow {
                    workload: (*workload).to_string(),
                    algorithm: algo.name(),
                    schedule,
                    ending,
                    faults: fs.faults(),
                    retries: fs.retries(),
                    valid,
                    accounted,
                    ok: valid && accounted,
                });
            };

            // (a) Seeded chaos at three rates: transient errors,
            // disconnect outages and truncated batches at deterministic
            // access indices.
            for (seed, rate) in [(11u64, 25u32), (23, 60), (41, 100)] {
                let plan = FaultPlan::seeded(seed, rate, 100_000);
                let mut mw = Resilient::with_policy(
                    FaultInjector::new(Session::with_policy(db, policy.clone()), plan),
                    RetryPolicy::instant(2),
                    BreakerConfig::default(),
                );
                let result = algo.run_anytime(&mut mw, agg, k, &AnytimeConfig::new(), &mut arena);
                push(
                    format!("seeded({seed}, {rate}/1000)"),
                    result,
                    mw.fault_stats(),
                    &mut rows,
                );
            }

            // (b) A source dying mid-query: list 1 goes down for good
            // after the run has made real progress.
            let plan = FaultPlan::new().kill_list_from(1, (n as u64) / 4);
            let mut mw = Resilient::with_policy(
                FaultInjector::new(Session::with_policy(db, policy.clone()), plan),
                RetryPolicy::instant(1),
                BreakerConfig::default(),
            );
            let result = algo.run_anytime(&mut mw, agg, k, &AnytimeConfig::new(), &mut arena);
            push(
                "kill(list 1)".to_string(),
                result,
                mw.fault_stats(),
                &mut rows,
            );

            // (c) A permanently tripped breaker: the first failure opens
            // the breaker (trip_after = 1), and a second query on the
            // same stack faces it open from its very first access. Both
            // queries must still end inside the trichotomy.
            let plan = FaultPlan::new().kill_list_from(1, 8);
            let mut mw = Resilient::with_policy(
                FaultInjector::new(Session::with_policy(db, policy.clone()), plan),
                RetryPolicy::instant(0),
                BreakerConfig {
                    trip_after: 1,
                    probe_after: u64::MAX,
                },
            );
            let result = algo.run_anytime(&mut mw, agg, k, &AnytimeConfig::new(), &mut arena);
            push(
                "breaker-trip".to_string(),
                result,
                mw.fault_stats(),
                &mut rows,
            );
            mw.inner_mut().inner_mut().reset(policy.clone());
            let result = algo.run_anytime(&mut mw, agg, k, &AnytimeConfig::new(), &mut arena);
            push(
                "breaker-open".to_string(),
                result,
                mw.fault_stats(),
                &mut rows,
            );
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_covers_the_grid() {
        let records = perf_matrix(Scale::Quick);
        assert_eq!(
            records.len(),
            4 * 7,
            "4 workloads x (5 algorithms at k = 10 + 2 at k = 100)"
        );
        assert!(records.iter().any(|r| r.algorithm == "TA[b=64]"));
        assert_eq!(records.iter().filter(|r| r.k == LARGE_K).count(), 4 * 2);
        assert!(records.iter().all(|r| r.sorted > 0));
        // NRA rows never do random accesses.
        assert!(records
            .iter()
            .filter(|r| r.algorithm.starts_with("NRA"))
            .all(|r| r.random == 0));
    }

    #[test]
    fn json_is_well_formed() {
        let records = vec![
            PerfRecord {
                algorithm: "TA\"quoted\"".into(),
                workload: "uniform".into(),
                n: 10,
                m: 2,
                k: 1,
                sorted: 5,
                random: 4,
                bound_recomputations: 12,
                wall_secs: 0.001,
            },
            PerfRecord {
                algorithm: "NRA".into(),
                workload: "zipf".into(),
                n: 10,
                m: 2,
                k: 1,
                sorted: 9,
                random: 0,
                bound_recomputations: 30,
                wall_secs: 0.002,
            },
        ];
        let json = to_json(&records, &[], &[], &[]);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches('{').count(), 2);
        assert_eq!(json.matches('}').count(), 2);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"sorted\": 9"));
        assert!(json.contains("\"bound_recomputations\": 30"));
        // Exactly one separating comma between the two objects.
        assert_eq!(json.matches("},").count(), 1);
    }

    #[test]
    fn access_count_drift_detects_changes_and_accepts_reruns() {
        let records = perf_matrix(Scale::Quick);
        let json = to_json(&records, &[], &[], &[]);
        let path = std::env::temp_dir().join("bench_drift_check.json");
        let path = path.to_str().unwrap().to_string();

        std::fs::write(&path, &json).unwrap();
        let drift = access_count_drift(&path, Scale::Quick).unwrap();
        assert!(
            drift.is_empty(),
            "identical rerun must not drift: {drift:?}"
        );

        // Corrupt one sorted count: exactly that cell must be reported —
        // by the in-memory pass AND the store-backed pass.
        let corrupted = json.replacen(
            &format!("\"sorted\": {}", records[0].sorted),
            &format!("\"sorted\": {}", records[0].sorted + 1),
            1,
        );
        std::fs::write(&path, corrupted).unwrap();
        let drift = access_count_drift(&path, Scale::Quick).unwrap();
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(drift.iter().all(|d| d.contains("sorted")));
        assert!(drift.iter().any(|d| d.starts_with("store-backed: ")));

        // The work counter is refereed exactly, like the access counts.
        let corrupted = json.replacen(
            &format!(
                "\"bound_recomputations\": {}",
                records[0].bound_recomputations
            ),
            &format!(
                "\"bound_recomputations\": {}",
                records[0].bound_recomputations + 1
            ),
            1,
        );
        std::fs::write(&path, corrupted).unwrap();
        let drift = access_count_drift(&path, Scale::Quick).unwrap();
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(drift.iter().all(|d| d.contains("bound_recomputations")));

        // Two rows that differ only in k are two cells: the identical
        // rerun above matched each to its own row, and a drift in the
        // k = 100 row is reported against that row alone.
        let large = records
            .iter()
            .position(|r| r.k == LARGE_K)
            .expect("a large-k cell");
        let r = &records[large];
        assert!(records.iter().any(|t| t.k != r.k
            && (&t.algorithm, &t.workload, t.n, t.m) == (&r.algorithm, &r.workload, r.n, r.m)));
        let line = json.lines().nth(1 + large).expect("one line per row");
        let corrupted = json.replacen(
            line,
            &line.replacen(
                &format!("\"sorted\": {}", r.sorted),
                &format!("\"sorted\": {}", r.sorted + 1),
                1,
            ),
            1,
        );
        std::fs::write(&path, corrupted).unwrap();
        let drift = access_count_drift(&path, Scale::Quick).unwrap();
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(drift
            .iter()
            .all(|d| d.contains("k=100") && d.contains("sorted recorded")));

        // A missing artifact is an error, not silence.
        assert!(access_count_drift("/nonexistent/bench.json", Scale::Quick).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn service_rows_join_the_same_array() {
        let perf = vec![PerfRecord {
            algorithm: "TA".into(),
            workload: "uniform".into(),
            n: 10,
            m: 2,
            k: 1,
            sorted: 5,
            random: 4,
            bound_recomputations: 12,
            wall_secs: 0.001,
        }];
        let service = vec![ServicePerfRecord {
            stream: "mixed-stream".into(),
            workers: 4,
            cache: true,
            n: 10,
            m: 2,
            queries: 40,
            qps: 1234.5,
            cache_hit_rate: 0.625,
            coalesced: 7,
            sorted: 100,
            random: 50,
            wall_secs: 0.032,
        }];
        let json = to_json(&perf, &service, &[], &[]);
        assert_eq!(json.matches('{').count(), 2);
        // The bridge comma between the grids exists exactly once.
        assert_eq!(json.matches("},").count(), 1);
        assert!(json.contains("\"algorithm\": \"TopKService[w=4]\""));
        assert!(json.contains("\"workload\": \"mixed-stream(cache)\""));
        assert!(json.contains("\"qps\": 1234.50"));
        assert!(json.contains("\"cache_hit_rate\": 0.6250"));
        assert!(json.contains("\"coalesced\": 7"));
        // Service rows carry no "k": the access-count referee skips them.
        assert!(!json
            .lines()
            .any(|l| l.contains("TopKService") && l.contains("\"k\":")));
        // Service-only output still closes the array correctly.
        let json = to_json(&[], &service, &[], &[]);
        assert!(json.ends_with("}\n]\n"));
        assert_eq!(json.matches("},").count(), 0);
    }

    /// The storage contract, measured: round-tripping every workload
    /// through a store file must leave every record identical to the
    /// in-memory grid in all columns but `wall_secs`.
    #[test]
    fn store_backed_grid_is_observationally_identical() {
        let direct = perf_matrix(Scale::Quick);
        let stored = perf_matrix_store_backed(Scale::Quick);
        assert_eq!(direct.len(), stored.len());
        for (a, b) in direct.iter().zip(&stored) {
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!(a.workload, b.workload);
            assert_eq!(
                (a.n, a.m, a.k),
                (b.n, b.m, b.k),
                "{} on {}",
                a.algorithm,
                a.workload
            );
            assert_eq!(
                (a.sorted, a.random),
                (b.sorted, b.random),
                "{} on {}: access counts must survive the store round-trip",
                a.algorithm,
                a.workload
            );
        }
    }

    #[test]
    fn cold_start_rows_cover_build_and_all_verify_levels() {
        let rows = cold_start_matrix(Scale::Quick);
        assert_eq!(rows.len(), 4, "build + three verify levels");
        assert_eq!(rows[0].phase, "build");
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        for r in &rows[1..] {
            assert!(r.phase.starts_with("open:"), "{}", r.phase);
            assert!(r.total_secs > 0.0);
        }
        // Cold-start rows carry no "k", so the access-count referee
        // ignores them by construction.
        let json = to_json(&[], &[], &rows, &[]);
        assert!(json.contains("\"algorithm\": \"ColdStart[build]\""));
        assert!(json.contains("\"speedup\": 1.00"));
        assert!(!json
            .lines()
            .any(|l| l.contains("ColdStart") && l.contains("\"k\":")));
        assert!(json.ends_with("}\n]\n"));
    }

    #[test]
    fn anytime_matrix_covers_every_family_and_mode() {
        let records = anytime_matrix(Scale::Quick);
        // 4 workloads × 3 families × (1 exact + 3 θ + ≥1 cap rows).
        assert!(records.len() >= 4 * 3 * 5, "{} rows", records.len());
        for prefix in ["TA", "NRA", "CA"] {
            assert!(
                records
                    .iter()
                    .any(|r| r.algorithm.starts_with(prefix) && r.mode == "theta"),
                "no θ rows for {prefix}"
            );
            assert!(
                records
                    .iter()
                    .any(|r| r.algorithm.starts_with(prefix) && r.mode.starts_with("cap=")),
                "no interruption rows for {prefix}"
            );
        }
        // Exact rows certify θ̂ = 1; every guarantee is a real certificate.
        assert!(records
            .iter()
            .filter(|r| r.mode == "exact")
            .all(|r| r.guarantee == 1.0));
        assert!(records
            .iter()
            .all(|r| r.guarantee.is_finite() && r.guarantee >= 1.0));
        // θ rows certify exactly their requested slack.
        assert!(records
            .iter()
            .filter(|r| r.mode == "theta")
            .all(|r| r.guarantee == r.theta));

        // Anytime rows carry no "k": the access-count referee skips them.
        let json = to_json(&[], &[], &[], &records[..2]);
        assert!(json.contains("\"mode\": \"exact\""));
        assert!(json.contains("\"guarantee\": 1.0000"));
        assert!(!json.lines().any(|l| l.contains("\"k\":")));
        assert!(json.ends_with("}\n]\n"));
    }

    #[test]
    fn theta_monotone_guard_holds_on_the_quick_grid() {
        let rows = theta_monotone_guard(Scale::Quick);
        // 4 workloads × 3 families × 3 θ values.
        assert_eq!(rows.len(), 4 * 3 * 3);
        for row in &rows {
            assert!(
                row.ok,
                "{} on {} (θ = {}): valid = {}, sorted {} vs exact {}, random {} vs exact {}",
                row.algorithm,
                row.workload,
                row.theta,
                row.valid,
                row.sorted,
                row.exact_sorted,
                row.random,
                row.exact_random
            );
        }
    }
}
