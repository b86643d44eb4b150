//! One seed names one run: every count the benchmark reports repeats
//! exactly, and another seed changes the inputs. The workloads run at a
//! reduced size (same structure, fewer objects and requests) so the test
//! finishes quickly in a debug build.

use std::path::PathBuf;

use svcbench::bench::{run_traced, run_untraced, Inputs, Report};
use svcbench::gen::Workload;

/// End-to-end metrics that are counts, not times.
const COUNTS: [&str; 3] = ["cost_per_query", "theta_hat_mean", "success_rate"];

/// Per-layer metrics that are counts, not times.
const LAYER_COUNTS: [&str; 9] = [
    "serve.cache_hit_rate",
    "serve.degraded_share",
    "core.bound_recomputations_per_query",
    "core.rounds_per_query",
    "core.peak_buffer_mean",
    "middleware.sorted_per_query",
    "middleware.random_per_query",
    "middleware.calls_per_query",
    "remote.round_trips_per_query",
];

fn small(workload: Workload, seed: u64) -> Inputs {
    let mut inputs = Inputs::new(workload, seed);
    inputs.shrink(3_000, 40, 60);
    inputs
}

fn assert_same(a: &Report, b: &Report, names: &[&str], what: &str) {
    assert!(
        a.correct && b.correct,
        "{what}: {:?} {:?}",
        a.problems,
        b.problems
    );
    for name in names {
        let (x, y) = (a.get(name), b.get(name));
        assert!(x.is_some(), "{what}: {name} missing");
        assert_eq!(x, y, "{what}: {name} differs between runs of one seed");
    }
}

#[test]
fn one_seed_repeats_every_count() {
    let spans = PathBuf::from(".svcbench_out").join(format!("test-{}.tsv", std::process::id()));
    for workload in Workload::ALL {
        let inputs = small(workload, 7);
        let a = run_untraced(workload, &inputs, 0.0).expect("untraced run");
        let b = run_untraced(workload, &inputs, 0.0).expect("untraced run");
        assert_same(&a, &b, &COUNTS, workload.name());
        assert_eq!(a.failed, 0, "{}: no query may fail", workload.name());

        let a = run_traced(workload, &inputs, 0.0, &spans).expect("traced run");
        let b = run_traced(workload, &inputs, 0.0, &spans).expect("traced run");
        assert_same(&a, &b, &LAYER_COUNTS, workload.name());
        if workload.is_remote() {
            // Every replayed access call is one request to the shard server.
            assert_eq!(
                a.get("remote.round_trips_per_query"),
                a.get("middleware.calls_per_query")
            );
        }
    }
    let _ = std::fs::remove_file(&spans);
    let _ = std::fs::remove_dir(".svcbench_out");
}

#[test]
fn another_seed_reorders_the_stream() {
    for workload in Workload::ALL {
        let (a, b) = (Inputs::new(workload, 1), Inputs::new(workload, 2));
        let requests = |i: &Inputs| format!("{:?}", i.stream.pass);
        assert_ne!(requests(&a), requests(&b), "{}", workload.name());
        let again = Inputs::new(workload, 1);
        assert_eq!(a.columns, again.columns);
        assert_eq!(requests(&a), requests(&again));
        // The same work in another order.
        let sorted = |i: &Inputs| {
            let mut v: Vec<String> = i.stream.pass.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&a), sorted(&b), "{}", workload.name());
    }
}
