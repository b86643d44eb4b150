//! `topk` — command-line front end for the fagin-topk library.
//!
//! Generate a workload, pick (or auto-plan) an algorithm, run a top-`k`
//! query and report the answer with its middleware cost.
//!
//! ```text
//! cargo run --release --bin topk -- --workload zipf --n 100000 --m 3 \
//!     --agg avg --algo auto --k 10 --cr 10
//! cargo run --release --bin topk -- --help
//! ```

use std::path::Path;
use std::process::ExitCode;

use fagin_topk::prelude::*;

#[derive(Debug)]
struct Args {
    workload: String,
    n: usize,
    m: usize,
    seed: u64,
    agg: String,
    algo: String,
    k: usize,
    c_s: f64,
    c_r: f64,
    theta: f64,
    batch: usize,
    rounds: Option<u64>,
    time_limit_ms: Option<u64>,
    cost_limit: Option<f64>,
    degrade: bool,
    verbose: bool,
    queries: Option<String>,
    workers: usize,
    queue_cap: usize,
    no_cache: bool,
    save: Option<String>,
    load: Option<String>,
    store_backend: String,
    connect: Option<String>,
    trace: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: "uniform".into(),
            n: 10_000,
            m: 3,
            seed: 42,
            agg: "avg".into(),
            algo: "auto".into(),
            k: 10,
            c_s: 1.0,
            c_r: 1.0,
            theta: 1.0,
            batch: 1,
            rounds: None,
            time_limit_ms: None,
            cost_limit: None,
            degrade: false,
            verbose: false,
            queries: None,
            workers: 4,
            queue_cap: 65_536,
            no_cache: false,
            save: None,
            load: None,
            store_backend: "auto".into(),
            connect: None,
            trace: None,
        }
    }
}

const HELP: &str = "topk — top-k aggregation over middleware (Fagin/Lotem/Naor, PODS 2001)

USAGE: topk [OPTIONS]

OPTIONS:
  --workload <w>  uniform | distinct | correlated | anticorrelated | zipf |
                  multimedia | ir | restaurants          [default: uniform]
  --n <N>         number of objects                      [default: 10000]
  --m <M>         number of lists                        [default: 3]
  --seed <S>      RNG seed                               [default: 42]
  --agg <t>       min | max | avg | sum | product | median [default: avg]
  --algo <a>      auto | ta | ta-theta | fa | nra | ca | naive |
                  quick-combine | stream-combine | max    [default: auto]
  --k <K>         answers wanted                         [default: 10]
  --cs <c>        cost of one sorted access              [default: 1]
  --cr <c>        cost of one random access              [default: 1]
  --theta <t>     approximation slack for ta-theta       [default: 1.0]
  --batch <b>     sorted accesses consumed per list per round (1 = the
                  paper's exact access-by-access execution; larger batches
                  amortize middleware overhead for auto/ta/ta-theta/nra/ca,
                  overshooting halting by at most b-1 per list)  [default: 1]
  --verbose       print the full top-k list
  --help          this text

ANYTIME (interruptible execution, §6.2 — any trigger may fire first):
  --rounds <R>    interrupt the run after R rounds, returning the best
                  certified answer with its achieved guarantee θ̂
  --time-limit <ms>  wall-clock deadline for the run (milliseconds)
  --cost-limit <c>   middleware-cost watermark under --cs/--cr; unlike a
                  hard budget the run answers with a certified θ̂
                  instead of failing when the watermark is crossed

STORAGE (the on-disk columnar tier, see fagin-store):
  --save <f>      after building the workload, write it to <f> as a store
                  file (checksummed stripes, fsync + atomic rename)
  --load <f>      serve from a store file instead of generating a workload
                  (--workload/--n/--m/--seed are ignored); the file is
                  fully verified before the first query
  --store-backend auto | mmap | in-memory                 [default: auto]
                  how --load serves the stripes: mmap = zero-copy mapped
                  pages, in-memory = portable decode into owned memory

REMOTE (the shard-server transport, see fagin-remote):
  --connect <a>   serve the query from a fagin-shardd shard at HOST:PORT
                  instead of a local workload (--workload/--n/--m/--seed
                  are ignored; --save/--load do not apply). Single-query
                  mode runs the algorithm client-side over the remote
                  middleware; batch mode (--queries) drives a
                  remote-backed TopKService. Answers and access counts
                  must match a local run over the same store bytes

OBSERVABILITY (the flight recorder, see fagin-obs):
  --trace <f>     dump the run's flight record to <f> as Chrome-trace
                  JSON (load in chrome://tracing or ui.perfetto.dev).
                  Single-query mode records the session's sorted/random
                  batches, round boundaries and halt; batch mode dumps
                  the service's merged ring across every query

BATCH MODE (drive the query service without writing Rust):
  --queries <f>   newline-delimited query list, fed through TopKService;
                  reports aggregate throughput + cache hit rate. Each line
                  overrides the CLI defaults with key=value tokens:
                    agg=min k=25 theta=1.0 batch=8 budget=5000
                    policy=no-wild|unrestricted|no-random|sorted:0,2
                    grades=true|false degrade=true|false deadline_ms=50
                  Blank lines and lines starting with # are skipped.
  --workers <w>   service worker threads                  [default: 4]
  --queue-cap <q> admission queue-depth cap               [default: 65536]
  --no-cache      disable the threshold-aware result cache
  --degrade       degraded admission for every query: over-budget and
                  past-deadline queries answer with a certified θ̂
                  instead of being rejected";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        if flag == "--verbose" {
            args.verbose = true;
            continue;
        }
        if flag == "--no-cache" {
            args.no_cache = true;
            continue;
        }
        if flag == "--degrade" {
            args.degrade = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let parse_usize = |v: &str| v.parse::<usize>().map_err(|e| format!("{flag}: {e}"));
        let parse_f64 = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--n" => args.n = parse_usize(&value)?,
            "--m" => args.m = parse_usize(&value)?,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--agg" => args.agg = value,
            "--algo" => args.algo = value,
            "--k" => args.k = parse_usize(&value)?,
            "--cs" => args.c_s = parse_f64(&value)?,
            "--cr" => args.c_r = parse_f64(&value)?,
            "--theta" => args.theta = parse_f64(&value)?,
            "--batch" => {
                args.batch = parse_usize(&value)?;
                if args.batch == 0 {
                    return Err("--batch: batch size must be at least 1".into());
                }
            }
            "--rounds" => {
                let rounds: u64 = value.parse().map_err(|e| format!("--rounds: {e}"))?;
                if rounds == 0 {
                    return Err("--rounds: at least 1 round is required".into());
                }
                args.rounds = Some(rounds);
            }
            "--time-limit" => {
                args.time_limit_ms = Some(value.parse().map_err(|e| format!("--time-limit: {e}"))?);
            }
            "--cost-limit" => {
                let limit = parse_f64(&value)?;
                if !(limit.is_finite() && limit >= 0.0) {
                    return Err(format!("--cost-limit: must be non-negative, got {value}"));
                }
                args.cost_limit = Some(limit);
            }
            "--queries" => args.queries = Some(value),
            "--trace" => args.trace = Some(value),
            "--save" => args.save = Some(value),
            "--load" => args.load = Some(value),
            "--store-backend" => args.store_backend = value,
            "--connect" => args.connect = Some(value),
            "--workers" => {
                args.workers = parse_usize(&value)?;
                if args.workers == 0 {
                    return Err("--workers: at least 1 worker is required".into());
                }
            }
            "--queue-cap" => args.queue_cap = parse_usize(&value)?,
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(Some(args))
}

fn parse_backend(name: &str) -> Result<Backend, String> {
    match name {
        "auto" => Ok(Backend::Auto),
        "mmap" => Ok(Backend::Mmap),
        "in-memory" => Ok(Backend::InMemory),
        other => Err(format!(
            "unknown store backend '{other}' (valid: auto, mmap, in-memory)"
        )),
    }
}

/// How the database got here and how its stripes are being served:
/// `"in-memory"` for a generated workload, `"mmap"`/`"fallback"` for a
/// loaded store.
fn acquire_database(a: &Args) -> Result<(Database, Vec<usize>, String, &'static str), String> {
    // Validate the backend name even when it is unused (no --load): a
    // typo should be a typed error, not silently ignored.
    let backend = parse_backend(&a.store_backend)?;
    if let Some(path) = &a.load {
        let options = StoreOptions::with_backend(backend);
        let store = Store::open(Path::new(path), options)
            .map_err(|e| format!("cannot load store {path}: {e}"))?;
        let serving = store.backend().label();
        let db = store.into_database();
        let z = (0..db.num_lists()).collect();
        return Ok((db, z, format!("store:{path}"), serving));
    }
    let (db, z) = build_workload(a)?;
    Ok((db, z, a.workload.clone(), "in-memory"))
}

fn build_workload(a: &Args) -> Result<(Database, Vec<usize>), String> {
    let db = match a.workload.as_str() {
        "uniform" => random::uniform(a.n, a.m, a.seed),
        "distinct" => random::uniform_distinct(a.n, a.m, a.seed),
        "correlated" => random::correlated(a.n, a.m, 0.3, a.seed),
        "anticorrelated" => random::anticorrelated(a.n, a.m, 0.1, a.seed),
        "zipf" => random::zipf(a.n, a.m, 1.1, a.seed),
        "multimedia" => scenarios::multimedia(a.n, a.m, a.seed),
        "ir" => scenarios::ir_corpus(a.n, a.m, a.seed),
        "restaurants" => {
            let (db, z) = scenarios::restaurants(a.n, a.seed);
            return Ok((db, z));
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    let m = db.num_lists();
    Ok((db, (0..m).collect()))
}

fn build_aggregation(name: &str) -> Result<Box<dyn Aggregation>, String> {
    Ok(match name {
        "min" => Box::new(Min),
        "max" => Box::new(Max),
        "avg" => Box::new(Average),
        "sum" => Box::new(Sum),
        "product" => Box::new(Product),
        "median" => Box::new(Median),
        other => return Err(format!("unknown aggregation '{other}'")),
    })
}

/// An algorithm choice: what to run, under which policy, and why.
type AlgoChoice = (Box<dyn TopKAlgorithm>, AccessPolicy, Vec<String>);

fn build_algorithm(
    a: &Args,
    z: &[usize],
    m: usize,
    agg: &dyn Aggregation,
    costs: &CostModel,
    distinct: bool,
) -> Result<AlgoChoice, String> {
    let restricted = z.len() < m;
    let default_policy = if restricted {
        AccessPolicy::sorted_only_on(z.iter().copied())
    } else {
        AccessPolicy::no_wild_guesses()
    };
    let batch = BatchConfig::new(a.batch);
    let algo: AlgoChoice = match a.algo.as_str() {
        "auto" => {
            let caps = Capabilities {
                num_lists: m,
                sorted_lists: z.iter().copied().collect(),
                random_access: true,
                require_grades: true,
                distinctness: distinct,
            };
            // The planner threads the batch into its choice when the
            // chosen algorithm has a batched drive loop (TA/TA_Z/NRA/CA)
            // and explains itself in the rationale when it does not.
            let plan = Planner
                .plan_with_batch(&caps, agg, a.k, costs, batch)
                .map_err(|e| e.to_string())?;
            let rationale = plan.rationale.clone();
            (plan.algorithm, default_policy, rationale)
        }
        "ta" => (
            Box::new(Ta::new().with_batch(batch)),
            default_policy,
            vec![],
        ),
        "ta-theta" => (
            Box::new(Ta::theta(a.theta).with_batch(batch)),
            default_policy,
            vec![],
        ),
        "fa" => (Box::new(Fa), default_policy, vec![]),
        "nra" => (
            Box::new(Nra::with_strategy(BookkeepingStrategy::LazyHeap).with_batch(batch)),
            AccessPolicy::no_random_access(),
            vec![],
        ),
        "ca" => (
            Box::new(Ca::for_costs(costs).with_batch(batch)),
            default_policy,
            vec![],
        ),
        "naive" => (Box::new(Naive), AccessPolicy::no_random_access(), vec![]),
        "quick-combine" => (Box::new(QuickCombine::default()), default_policy, vec![]),
        "stream-combine" => (
            Box::new(StreamCombine::default()),
            AccessPolicy::no_random_access(),
            vec![],
        ),
        "max" => (Box::new(MaxTopK), AccessPolicy::no_random_access(), vec![]),
        other => return Err(format!("unknown algorithm '{other}'")),
    };
    if !batch.is_scalar() && !matches!(a.algo.as_str(), "auto" | "ta" | "ta-theta" | "nra" | "ca") {
        let (algo, policy, mut rationale) = algo;
        rationale.push(format!(
            "--batch {} ignored: {} has no batched drive loop",
            batch.size(),
            algo.name()
        ));
        return Ok((algo, policy, rationale));
    }
    Ok(algo)
}

/// The base request encoded by the CLI flags, which each query line then
/// overrides.
fn base_request(a: &Args, z: &[usize], m: usize) -> Result<QueryRequest, String> {
    let agg: AggSpec = a.agg.parse()?;
    let policy = if z.len() < m {
        AccessPolicy::sorted_only_on(z.iter().copied())
    } else {
        AccessPolicy::no_wild_guesses()
    };
    let mut req = QueryRequest::new(agg, a.k)
        .with_policy(policy)
        .with_costs(CostModel::new(a.c_s, a.c_r))
        .with_batch(BatchConfig::new(a.batch));
    if a.theta > 1.0 {
        req = req.with_theta(a.theta);
    }
    if a.degrade {
        req = req.with_degradation();
    }
    Ok(req)
}

/// Parses one `key=value …` query line over the base request.
fn parse_query_line(line: &str, base: &QueryRequest) -> Result<QueryRequest, String> {
    let mut req = base.clone();
    let mut grades_explicit = false;
    for token in line.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got '{token}'"))?;
        match key {
            "agg" => req.agg = value.parse()?,
            "k" => req.k = value.parse().map_err(|e| format!("k: {e}"))?,
            "theta" => {
                let theta: f64 = value.parse().map_err(|e| format!("theta: {e}"))?;
                if !(theta.is_finite() && theta >= 1.0) {
                    return Err(format!("theta must be at least 1, got {value}"));
                }
                req.theta = theta;
            }
            "batch" => {
                let b: usize = value.parse().map_err(|e| format!("batch: {e}"))?;
                if b == 0 {
                    return Err("batch size must be at least 1".into());
                }
                req.batch = BatchConfig::new(b);
            }
            "budget" => {
                let budget: f64 = value.parse().map_err(|e| format!("budget: {e}"))?;
                if !(budget.is_finite() && budget >= 0.0) {
                    return Err(format!("budget must be non-negative, got {value}"));
                }
                req.cost_budget = Some(budget);
            }
            "grades" => {
                req.require_grades = value.parse().map_err(|e| format!("grades: {e}"))?;
                grades_explicit = true;
            }
            "degrade" => {
                req.degrade = value.parse().map_err(|e| format!("degrade: {e}"))?;
            }
            "deadline_ms" => {
                let ms: u64 = value.parse().map_err(|e| format!("deadline_ms: {e}"))?;
                req.deadline = Some(std::time::Duration::from_millis(ms));
            }
            "policy" => {
                req.policy = match value {
                    "no-wild" => AccessPolicy::no_wild_guesses(),
                    "unrestricted" => AccessPolicy::unrestricted(),
                    "no-random" => {
                        if !grades_explicit {
                            // The §8.1 scenario: without random access,
                            // demanding grades forfeits instance
                            // optimality, so default it off.
                            req.require_grades = false;
                        }
                        AccessPolicy::no_random_access()
                    }
                    sorted if sorted.starts_with("sorted:") => {
                        let lists: Result<Vec<usize>, _> = sorted["sorted:".len()..]
                            .split(',')
                            .map(str::parse)
                            .collect();
                        let lists = lists.map_err(|e| format!("policy sorted list: {e}"))?;
                        if lists.is_empty() {
                            return Err("policy=sorted: needs at least one list".into());
                        }
                        AccessPolicy::sorted_only_on(lists)
                    }
                    other => {
                        return Err(format!(
                            "unknown policy '{other}' (valid: no-wild, unrestricted, \
                             no-random, sorted:i,j,…)"
                        ))
                    }
                };
            }
            other => return Err(format!("unknown query key '{other}'")),
        }
    }
    Ok(req)
}

/// The service configuration encoded by the CLI flags, shared by local
/// (`--queries`) and remote (`--connect --queries`) batch modes.
fn service_config(args: &Args) -> ServiceConfig {
    let mut config = ServiceConfig::default()
        .with_workers(args.workers)
        .with_queue_cap(args.queue_cap);
    if args.no_cache {
        config = config.without_cache();
    }
    config
}

/// Batch mode: feed the query file through a [`TopKService`] — local or
/// remote-backed — and report aggregate throughput and cache behavior.
fn run_service_batch(
    args: &Args,
    service: &TopKService,
    z: &[usize],
    path: &str,
    header: &str,
    serving: &str,
) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read queries file: {e}"))?;
    let base = base_request(args, z, service.num_lists())?;
    let requests: Vec<(usize, QueryRequest)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| {
            let l = l.trim();
            !l.is_empty() && !l.starts_with('#')
        })
        .map(|(i, l)| Ok((i + 1, parse_query_line(l, &base)?)))
        .collect::<Result<_, String>>()
        .map_err(|e| format!("{path}: {e}"))?;
    if requests.is_empty() {
        return Err(format!(
            "{path}: no queries (blank lines and # are skipped)"
        ));
    }
    if args.algo != "auto" {
        println!(
            "note: --algo {} ignored in batch mode (the service plans)",
            args.algo
        );
    }

    println!(
        "service: {} workers, queue cap {}, cache {} | {header} | serving: {serving}",
        args.workers,
        args.queue_cap,
        if args.no_cache { "off" } else { "on" },
    );

    let started = std::time::Instant::now();
    // Submit everything up front (admission control may reject), then wait.
    let tickets: Vec<(usize, Result<QueryTicket, ServeError>)> = requests
        .iter()
        .map(|(line, req)| (*line, service.submit(req.clone())))
        .collect();
    let mut answered = 0usize;
    let mut rejected = 0usize;
    let mut failed = 0usize;
    for (line, ticket) in tickets {
        let outcome = ticket.and_then(QueryTicket::wait);
        match outcome {
            Ok(resp) => {
                answered += 1;
                if args.verbose {
                    let top = resp
                        .items
                        .first()
                        .map_or("-".to_string(), ToString::to_string);
                    let degraded = if resp.is_degraded() {
                        format!(" | degraded θ̂={:.4}", resp.guarantee())
                    } else {
                        String::new()
                    };
                    println!(
                        "  line {line:>4}: {} | top: {top} | cost {:.1} | {:?}{degraded}",
                        resp.algorithm, resp.cost, resp.source
                    );
                }
            }
            Err(e @ (ServeError::QueueFull { .. } | ServeError::CostBudgetExceeded { .. })) => {
                rejected += 1;
                if args.verbose {
                    println!("  line {line:>4}: rejected: {e}");
                }
            }
            Err(e) => {
                failed += 1;
                println!("  line {line:>4}: failed: {e}");
            }
        }
    }
    let elapsed = started.elapsed();

    let metrics = service.metrics();
    println!();
    println!(
        "{} queries in {:.2?}: {} answered ({:.1}/s), {} rejected, {} failed | backend: {serving}",
        requests.len(),
        elapsed,
        answered,
        answered as f64 / elapsed.as_secs_f64().max(1e-9),
        rejected,
        failed,
    );
    println!(
        "cache hit rate: {:.1}% ({} hits / {} completed) | degraded: {}",
        metrics.cache_hit_rate * 100.0,
        metrics.cache_hits,
        metrics.completed,
        metrics.degraded,
    );
    println!("coalesced: {} rides on in-flight runs", metrics.coalesced);
    println!(
        "middleware cost per query: p50 {} p99 {}",
        metrics.cost_p50.map_or("-".into(), |c| format!("{c:.1}")),
        metrics.cost_p99.map_or("-".into(), |c| format!("{c:.1}")),
    );
    println!(
        "latency per query: p50 {} p99 {}",
        metrics
            .latency_p50
            .map_or("-".into(), |l| format!("{l:.2?}")),
        metrics
            .latency_p99
            .map_or("-".into(), |l| format!("{l:.2?}")),
    );
    let slow = service.slow_queries();
    if !slow.is_empty() {
        println!("slowest queries:");
        for q in slow.iter().take(5) {
            println!(
                "  #{:<5} {:>10.2?} | {} | k={} | halt={} | θ̂={:.3} | depth {} | \
                 {} sorted + {} random (cost {:.1}) | {} bound recomputations",
                q.query,
                q.latency,
                q.algorithm,
                q.k,
                q.halt,
                q.guarantee,
                q.rounds,
                q.sorted_accesses,
                q.random_accesses,
                q.cost,
                q.bound_recomputations,
            );
        }
    }
    if let Some(path) = &args.trace {
        let events = service.flight_events();
        std::fs::write(path, fagin_topk::obs::chrome::render(&events))
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        println!("trace: {} events -> {path}", events.len());
    }
    Ok(())
}

/// The anytime trigger set, if any `--rounds`/`--time-limit`/
/// `--cost-limit` flag asked for interruptible execution. The deadline is
/// anchored here so parse/build time never eats into the user's budget.
fn anytime_config(args: &Args, costs: CostModel) -> Option<AnytimeConfig> {
    if args.rounds.is_none() && args.time_limit_ms.is_none() && args.cost_limit.is_none() {
        return None;
    }
    let mut cfg = AnytimeConfig::new();
    if let Some(rounds) = args.rounds {
        cfg = cfg.with_round_cap(rounds);
    }
    if let Some(ms) = args.time_limit_ms {
        cfg = cfg.with_deadline(std::time::Instant::now() + std::time::Duration::from_millis(ms));
    }
    if let Some(limit) = args.cost_limit {
        cfg = cfg.with_cost_watermark(costs, limit);
    }
    Some(cfg)
}

/// Prints the answer block — anytime status, ranked items, access and
/// round accounting — identically for local and remote runs, so loopback
/// smoke checks can diff the lines byte-for-byte.
fn report_answer(
    args: &Args,
    costs: &CostModel,
    out: &TopKOutput,
    elapsed: std::time::Duration,
    interruptible: bool,
) {
    if out.metrics.halt.is_interrupted() {
        println!(
            "anytime: interrupted ({:?}) — best certified answer, guarantee θ̂ = {:.6}",
            out.metrics.halt, out.metrics.approximation_guarantee
        );
    } else if interruptible {
        println!("anytime: ran to convergence before any trigger fired (answer is exact)");
    }

    println!();
    let show = if args.verbose {
        out.items.len()
    } else {
        out.items.len().min(5)
    };
    for (rank, item) in out.items.iter().take(show).enumerate() {
        match item.grade {
            Some(g) => println!("  {:>3}. object {:>8}  grade {g}", rank + 1, item.object.0),
            None => println!(
                "  {:>3}. object {:>8}  grade not determined (certified top-{})",
                rank + 1,
                item.object.0,
                args.k
            ),
        }
    }
    if show < out.items.len() {
        println!("  … {} more (use --verbose)", out.items.len() - show);
    }
    println!();
    println!(
        "accesses: {} sorted + {} random  (middleware cost {:.1})",
        out.stats.sorted_total(),
        out.stats.random_total(),
        costs.cost(&out.stats)
    );
    println!(
        "depth {} | rounds {} | peak buffer {} objects | {:.2?} wall clock",
        out.stats.depth(),
        out.metrics.rounds,
        out.metrics.peak_buffer,
        elapsed
    );
}

/// `--connect` mode: the query is served by a `fagin-shardd` shard over
/// the length-prefixed TCP protocol. Single-query mode runs the algorithm
/// client-side with the shard as its middleware; batch mode drives a
/// remote-backed [`TopKService`]. Either way the answers (and, with
/// healthy links, the access counts) are byte-identical to a local run
/// over the same store bytes.
fn run_remote(args: &Args, addr: &str) -> Result<(), String> {
    if args.save.is_some() || args.load.is_some() {
        return Err("--connect serves from a remote shard: --save/--load do not apply".into());
    }
    let costs = CostModel::new(args.c_s, args.c_r);
    let mut remote =
        RemoteSource::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let info = remote.info();
    let (n, m) = (info.objects, info.lists);
    let z: Vec<usize> = (0..m).collect();

    if let Some(path) = args.queries.clone() {
        drop(remote);
        let service = TopKService::connect(addr, service_config(args))
            .map_err(|e| format!("cannot connect service to {addr}: {e}"))?;
        let header = format!("shard {addr} (N={n}, m={m})");
        return run_service_batch(args, &service, &z, &path, &header, "remote");
    }

    let agg = build_aggregation(&args.agg)?;
    let (algo, policy, rationale) =
        build_algorithm(args, &z, m, agg.as_ref(), &costs, info.distinct)?;
    remote.reset(policy);
    if args.trace.is_some() {
        println!("note: --trace ignored with --connect (traces record local sessions)");
    }
    println!("workload: shard {addr} (N={n}, m={m}) | serving: remote");
    println!(
        "query: top-{} under {} | algorithm: {} | c_S={}, c_R={}",
        args.k,
        agg.name(),
        algo.name(),
        args.c_s,
        args.c_r
    );
    for line in &rationale {
        println!("planner: {line}");
    }

    let cfg = anytime_config(args, costs);
    let start = std::time::Instant::now();
    let out = match &cfg {
        Some(cfg) => algo.run_anytime(
            &mut remote,
            agg.as_ref(),
            args.k,
            cfg,
            &mut RunScratch::new(),
        ),
        None => algo.run(&mut remote, agg.as_ref(), args.k),
    }
    .map_err(|e| format!("query failed: {e}"))?;
    let elapsed = start.elapsed();
    report_answer(args, &costs, &out, elapsed, cfg.is_some());
    Ok(())
}

fn run() -> Result<(), String> {
    let Some(args) = parse_args()? else {
        println!("{HELP}");
        return Ok(());
    };
    if let Some(addr) = args.connect.clone() {
        return run_remote(&args, &addr);
    }
    let costs = CostModel::new(args.c_s, args.c_r);
    let (db, z, workload, serving) = acquire_database(&args)?;
    if let Some(path) = &args.save {
        let summary = StoreWriter::write(&db, Path::new(path))
            .map_err(|e| format!("cannot save store {path}: {e}"))?;
        println!(
            "saved store: {path} ({} bytes, N={}, m={})",
            summary.file_len, summary.n, summary.m
        );
    }
    if let Some(path) = args.queries.clone() {
        let header = format!(
            "workload {workload} (N={}, m={})",
            db.num_objects(),
            db.num_lists()
        );
        let service = TopKService::new(std::sync::Arc::new(db), service_config(&args));
        return run_service_batch(&args, &service, &z, &path, &header, serving);
    }
    let agg = build_aggregation(&args.agg)?;
    let (algo, policy, rationale) = build_algorithm(
        &args,
        &z,
        db.num_lists(),
        agg.as_ref(),
        &costs,
        args.workload == "distinct",
    )?;

    let provenance = if args.load.is_some() {
        String::new()
    } else {
        format!(", seed={}", args.seed)
    };
    println!(
        "workload: {} (N={}, m={}{provenance}) | serving: {serving}",
        workload,
        db.num_objects(),
        db.num_lists(),
    );
    println!(
        "query: top-{} under {} | algorithm: {} | c_S={}, c_R={}",
        args.k,
        agg.name(),
        algo.name(),
        args.c_s,
        args.c_r
    );
    for line in &rationale {
        println!("planner: {line}");
    }

    let cfg = anytime_config(&args, costs);
    let mut session = Session::with_policy(&db, policy);
    if args.trace.is_some() {
        let mut rec = FlightRecorder::new(65_536);
        rec.set_query(1);
        rec.record(EventKind::Admitted, args.k as u32, 0);
        session.attach_recorder(rec);
    }
    let start = std::time::Instant::now();
    let out = match &cfg {
        Some(cfg) => algo.run_anytime(
            &mut session,
            agg.as_ref(),
            args.k,
            cfg,
            &mut RunScratch::new(),
        ),
        None => algo.run(&mut session, agg.as_ref(), args.k),
    }
    .map_err(|e| format!("query failed: {e}"))?;
    let elapsed = start.elapsed();

    if let Some(path) = &args.trace {
        if let Some(rec) = session.recorder_mut() {
            let now = rec.now_nanos();
            rec.push(TraceEvent {
                nanos: now,
                dur_nanos: elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
                count: out.stats.total(),
                query: 1,
                detail: 0,
                kind: EventKind::Done,
            });
            let dropped = rec.dropped();
            let events = rec.to_vec();
            std::fs::write(path, fagin_topk::obs::chrome::render(&events))
                .map_err(|e| format!("cannot write trace {path}: {e}"))?;
            print!("trace: {} events -> {path}", events.len());
            if dropped > 0 {
                print!(" ({dropped} oldest dropped: ring full)");
            }
            println!();
        }
    }

    report_answer(&args, &costs, &out, elapsed, cfg.is_some());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
