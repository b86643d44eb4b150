//! Experiment runner: regenerates every table/figure of the paper, plus
//! the machine-readable perf trajectory `BENCH_topk.json` (algorithm ×
//! workload → access counts and wall time) and the wall-clock guardrail.
//!
//! ```text
//! cargo run --release -p fagin-bench --bin experiments -- all
//! cargo run --release -p fagin-bench --bin experiments -- e5 e6
//! cargo run --release -p fagin-bench --bin experiments -- --quick all
//! cargo run --release -p fagin-bench --bin experiments -- --no-json e7
//! cargo run --release -p fagin-bench --bin experiments -- --assert-budget
//! cargo run --release -p fagin-bench --bin experiments -- --assert-access-counts
//! cargo run --release -p fagin-bench --bin experiments -- --assert-service-qps
//! cargo run --release -p fagin-bench --bin experiments -- --assert-theta-monotone
//! cargo run --release -p fagin-bench --bin experiments -- --assert-obs-overhead
//! cargo run --release -p fagin-bench --bin experiments -- --assert-fault-survival
//! ```
//!
//! `--assert-budget[=MULT]` measures NRA(lazy) and CA(h=2) against TA on
//! every workload shape at n = 10 000 and exits non-zero if any exceeds
//! `MULT ×` TA's wall time (default 8×) — the CI smoke test that keeps
//! bound-engine bookkeeping regressions out of the build.
//!
//! `--assert-access-counts[=PATH]` re-measures the full-scale algorithm
//! grid and exits non-zero if any `sorted`/`random` access count differs
//! from the recorded `BENCH_topk.json` (default path) — the referee that a
//! perf change touched only wall-clock, never the access sequence.
//!
//! `--assert-service-qps[=RATIO]` measures the cached mixed stream at 1
//! and 4 workers and exits non-zero if the 4-worker throughput falls below
//! `RATIO ×` the single-worker throughput (default 0.75) — the CI smoke
//! test that keeps the multi-worker cache stampede from regressing (the
//! pre-coalescing service sat at ≈0.27).
//!
//! `--assert-theta-monotone` runs TA, NRA(lazy) and CA(h=2) at
//! θ ∈ {1.1, 1.5, 2.0} against their exact counterparts on every workload
//! shape and exits non-zero if any θ-run performs more sorted or random
//! accesses than exact, or returns an answer that fails the oracle's
//! θ-approximation predicate — relaxing the guarantee may only ever
//! remove work.
//!
//! `--assert-obs-overhead[=PCT]` re-measures the full perf grid twice —
//! with and without a flight recorder attached — and exits non-zero if the
//! aggregate traced wall time exceeds untraced by more than `PCT` percent
//! (default 5) or any cell's access counts differ: observability must
//! watch the run without slowing or steering it.
//!
//! `--assert-fault-survival` drives a fixed fault-schedule matrix (seeded
//! chaos, a source dying mid-query, a permanently tripped breaker)
//! through TA/NRA/CA on every workload shape under the full resilience
//! stack and exits non-zero if any run ends outside the trichotomy —
//! exact, certified θ̂-degraded, or typed source loss — or any fault goes
//! unaccounted (`faults != retries + lost_conversions`).
//!
//! Any assertion given alone runs just its check; combined with
//! experiment ids they run after the experiments.

use fagin_bench::experiments::{by_id, ALL_IDS};
use fagin_bench::{report, Scale};

/// Default wall-time multiple: with the dense slot-table engine the
/// NRA/CA ratios sit around 1–4× of TA (the pre-incremental engine blew
/// past 100×, the PR 3 engine sat under 10×); 8× leaves room for CI noise
/// while still catching any bookkeeping regression.
const DEFAULT_BUDGET_MULTIPLE: f64 = 8.0;

/// Default minimum `qps(w=4) / qps(w=1)` on the cached mixed stream: with
/// single-flight coalescing the ratio sits near 1 even on one core (and
/// above it with real cores); 0.75 leaves room for scheduler noise while
/// still failing loudly on a stampede regression (which lands near 0.27).
const DEFAULT_SERVICE_QPS_RATIO: f64 = 0.75;

/// Default ceiling on the flight recorder's aggregate wall-clock overhead
/// across the perf grid, in percent: the instrumented drive loops pay one
/// monotonic-clock read per batch and one ring write per event, which
/// measures well under this on the grid; 5% leaves room for CI noise while
/// still catching an accidentally hot trace path.
const DEFAULT_OBS_OVERHEAD_PCT: f64 = 5.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_json = args.iter().any(|a| a == "--no-json");
    let budget: Option<f64> = args.iter().find_map(|a| {
        if a == "--assert-budget" {
            Some(DEFAULT_BUDGET_MULTIPLE)
        } else {
            a.strip_prefix("--assert-budget=")
                .map(|v| v.parse().expect("--assert-budget=MULT needs a number"))
        }
    });
    let access_counts: Option<String> = args.iter().find_map(|a| {
        if a == "--assert-access-counts" {
            Some("BENCH_topk.json".to_string())
        } else {
            a.strip_prefix("--assert-access-counts=").map(String::from)
        }
    });
    let service_qps: Option<f64> = args.iter().find_map(|a| {
        if a == "--assert-service-qps" {
            Some(DEFAULT_SERVICE_QPS_RATIO)
        } else {
            a.strip_prefix("--assert-service-qps=").map(|v| {
                v.parse()
                    .expect("--assert-service-qps=RATIO needs a number")
            })
        }
    });
    let theta_monotone = args.iter().any(|a| a == "--assert-theta-monotone");
    let fault_survival = args.iter().any(|a| a == "--assert-fault-survival");
    let obs_overhead: Option<f64> = args.iter().find_map(|a| {
        if a == "--assert-obs-overhead" {
            Some(DEFAULT_OBS_OVERHEAD_PCT)
        } else {
            a.strip_prefix("--assert-obs-overhead=")
                .map(|v| v.parse().expect("--assert-obs-overhead=PCT needs a number"))
        }
    });
    if let Some(unknown) = args.iter().find(|a| {
        a.starts_with("--")
            && *a != "--quick"
            && *a != "--no-json"
            && *a != "--assert-budget"
            && !a.starts_with("--assert-budget=")
            && *a != "--assert-access-counts"
            && !a.starts_with("--assert-access-counts=")
            && *a != "--assert-service-qps"
            && !a.starts_with("--assert-service-qps=")
            && *a != "--assert-theta-monotone"
            && *a != "--assert-fault-survival"
            && *a != "--assert-obs-overhead"
            && !a.starts_with("--assert-obs-overhead=")
    }) {
        eprintln!(
            "unknown flag: {unknown} (valid: --quick, --no-json, \
             --assert-budget[=MULT], --assert-access-counts[=PATH], \
             --assert-service-qps[=RATIO], --assert-theta-monotone, \
             --assert-fault-survival, --assert-obs-overhead[=PCT])"
        );
        std::process::exit(2);
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let named: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    // An assertion flag alone runs only its check; otherwise an empty id
    // list means every experiment.
    let ids: Vec<&str> = if named.is_empty() {
        if budget.is_some()
            || access_counts.is_some()
            || service_qps.is_some()
            || theta_monotone
            || fault_survival
            || obs_overhead.is_some()
        {
            Vec::new()
        } else {
            ALL_IDS.to_vec()
        }
    } else if named.contains(&"all") {
        ALL_IDS.to_vec()
    } else {
        named
    };

    println!("fagin-topk experiment harness ({:?} scale)", scale);
    println!("reproducing: Fagin, Lotem, Naor - Optimal Aggregation Algorithms for Middleware (PODS 2001)");
    println!();
    let mut failed = false;
    for id in &ids {
        match by_id(id, scale) {
            Some(tables) => {
                for t in tables {
                    println!("{t}");
                }
            }
            None => {
                eprintln!(
                    "unknown experiment id: {id} (valid: {})",
                    ALL_IDS.join(", ")
                );
                failed = true;
            }
        }
    }
    if !no_json && !ids.is_empty() {
        // The machine-readable companion to the tables above.
        const PATH: &str = "BENCH_topk.json";
        match report::write_json(PATH, scale) {
            Ok(count) => println!("wrote {PATH} ({count} records)"),
            Err(e) => {
                eprintln!("failed to write {PATH}: {e}");
                failed = true;
            }
        }
    }
    if let Some(multiple) = budget {
        println!("wall-clock guardrail (limit: {multiple}x TA per workload)");
        for row in report::wall_clock_guardrail(scale, multiple) {
            println!(
                "  {:14} {:10} {:9.3}ms vs TA {:9.3}ms -> {:6.1}x {}",
                row.workload,
                row.algorithm,
                row.wall_secs * 1e3,
                row.ta_secs * 1e3,
                row.ratio,
                if row.ok { "ok" } else { "OVER BUDGET" }
            );
            if !row.ok {
                failed = true;
            }
        }
    }
    if let Some(path) = access_counts {
        // Access counts are scale-dependent and the committed artifact is
        // regenerated at Full scale, so the check always measures Full —
        // comparing a --quick grid against it would report false drift on
        // every cell.
        if quick {
            println!(
                "note: --assert-access-counts ignores --quick ({path} is a Full-scale artifact)"
            );
        }
        println!("access-count check against {path} (Full scale)");
        match report::access_count_drift(&path, Scale::Full) {
            Ok(drift) if drift.is_empty() => {
                println!(
                    "  every sorted/random access count and bound-recomputation count matches"
                );
            }
            Ok(drift) => {
                for line in drift {
                    eprintln!("  DRIFT: {line}");
                }
                eprintln!(
                    "  access or work counts changed — a perf refactor must only move wall_secs"
                );
                failed = true;
            }
            Err(e) => {
                eprintln!("  access-count check failed: {e}");
                failed = true;
            }
        }
    }
    if let Some(min_ratio) = service_qps {
        println!("service qps guardrail (cached mixed stream, w=4 vs w=1, min ratio {min_ratio})");
        let guard = report::service_qps_guard(scale, min_ratio);
        for row in &guard.rows {
            println!(
                "  w={} {:10.0} qps (hit rate {:5.1}%, coalesced {})",
                row.workers,
                row.qps,
                row.hit_rate * 100.0,
                row.coalesced
            );
        }
        println!(
            "  ratio {:.2} (min {:.2}) {}",
            guard.ratio,
            guard.min_ratio,
            if guard.ok {
                "ok"
            } else {
                "STAMPEDE REGRESSION"
            }
        );
        if !guard.ok {
            failed = true;
        }
    }
    if theta_monotone {
        println!("theta-monotonicity guardrail (θ-run accesses ≤ exact, answers certified)");
        for row in report::theta_monotone_guard(scale) {
            println!(
                "  {:14} {:20} sorted {:8} (exact {:8})  random {:8} (exact {:8}) {}",
                row.workload,
                row.algorithm,
                row.sorted,
                row.exact_sorted,
                row.random,
                row.exact_random,
                if row.ok {
                    "ok"
                } else if !row.valid {
                    "UNCERTIFIED ANSWER"
                } else {
                    "MORE ACCESSES THAN EXACT"
                }
            );
            if !row.ok {
                failed = true;
            }
        }
    }
    if fault_survival {
        println!(
            "fault-survival guardrail (exact | certified θ̂ | typed error, every fault accounted)"
        );
        for row in report::fault_survival_guard(scale) {
            println!(
                "  {:14} {:20} {:18} {:3} faults / {:3} retries -> {:18} {}",
                row.workload,
                row.algorithm,
                row.schedule,
                row.faults,
                row.retries,
                row.ending,
                if row.ok {
                    "ok"
                } else if !row.valid {
                    "OUTSIDE THE TRICHOTOMY"
                } else {
                    "UNACCOUNTED FAULTS"
                }
            );
            if !row.ok {
                failed = true;
            }
        }
    }
    if let Some(max_pct) = obs_overhead {
        println!(
            "observability-overhead guardrail (traced vs untraced perf grid, max +{max_pct}%)"
        );
        let guard = report::obs_overhead_guard(scale, max_pct);
        for row in &guard.rows {
            println!(
                "  {:14} {:14} off {:9.3}ms  on {:9.3}ms  {:7}s+{:<7}r {}",
                row.workload,
                row.algorithm,
                row.off_secs * 1e3,
                row.on_secs * 1e3,
                row.sorted,
                row.random,
                if row.counts_match {
                    "ok"
                } else {
                    "ACCESS COUNTS CHANGED"
                }
            );
        }
        println!(
            "  aggregate off {:.3}ms  on {:.3}ms -> {:+.2}% (max +{:.2}%) {}",
            guard.off_total_secs * 1e3,
            guard.on_total_secs * 1e3,
            guard.overhead_pct,
            guard.max_pct,
            if guard.ok {
                "ok"
            } else {
                "OBS OVERHEAD OVER BUDGET"
            }
        );
        if !guard.ok {
            failed = true;
        }
    }
    if failed {
        std::process::exit(2);
    }
}
