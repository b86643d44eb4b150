//! Deterministic work referee for the anytime path. An anytime run under
//! an empty `AnytimeConfig` never triggers, so it must make exactly the
//! accesses of the plain run and return the same answer; the only extra
//! work it may do is certifying each round, and that is held to at most
//! twice the plain run's bound recomputations. Work counters repeat
//! exactly, so a per-round certificate blow-up fails here without any wall
//! clock.

use fagin_topk::prelude::*;

/// Largest allowed `anytime / exact` ratio of `bound_recomputations`.
const MAX_WORK_RATIO: u64 = 2;

#[test]
fn empty_config_anytime_runs_match_exact_accesses_within_twice_the_work() {
    let n = 10_000;
    let k = 10;
    let shapes = [
        ("uniform", random::uniform(n, 3, 1)),
        ("correlated", random::correlated(n, 3, 0.2, 2)),
        ("anticorrelated", random::anticorrelated(n, 3, 0.1, 3)),
        ("zipf", random::zipf(n, 3, 1.1, 4)),
    ];
    let algorithms: [(Box<dyn TopKAlgorithm>, AccessPolicy); 2] = [
        (
            Box::new(Nra::with_strategy(BookkeepingStrategy::LazyHeap)),
            AccessPolicy::no_random_access(),
        ),
        (Box::new(Ca::new(2)), AccessPolicy::no_wild_guesses()),
    ];
    let aggregations: [&dyn Aggregation; 2] = [&Min, &Max];
    let mut arena = RunScratch::new();
    for (shape, db) in &shapes {
        for (algo, policy) in &algorithms {
            for agg in aggregations {
                let cell = format!("{} {} on {shape}", algo.name(), agg.name());
                let mut s = Session::with_policy(db, policy.clone());
                let exact = algo.run_with(&mut s, agg, k, &mut arena).unwrap();
                let mut s = Session::with_policy(db, policy.clone());
                let anytime = algo
                    .run_anytime(&mut s, agg, k, &AnytimeConfig::new(), &mut arena)
                    .unwrap();
                assert_eq!(anytime.stats, exact.stats, "{cell}: accesses differ");
                assert_eq!(anytime.items, exact.items, "{cell}: answers differ");
                assert_eq!(anytime.metrics.rounds, exact.metrics.rounds, "{cell}");
                assert_eq!(anytime.metrics.halt, HaltReason::Converged, "{cell}");
                let (work, base) = (
                    anytime.metrics.bound_recomputations,
                    exact.metrics.bound_recomputations,
                );
                assert!(
                    work <= MAX_WORK_RATIO * base,
                    "{cell}: anytime run did {work} bound recomputations, {:.1}x the \
                     exact run's {base} (limit {MAX_WORK_RATIO}x)",
                    work as f64 / base as f64
                );
            }
        }
    }
}
