//! Batched access-path invariance (ISSUE 2 tentpole guarantees).
//!
//! Three families of properties:
//!
//! 1. **Answer invariance** — every batchable algorithm returns an
//!    identical top-`k` set and certificate (grades) for batch sizes
//!    `{1, 3, 8, 64, > N}`.
//! 2. **Scalar fidelity** — batch size 1 reproduces the *pre-refactor*
//!    scalar path exactly: the `AccessStats` below were captured from the
//!    access-by-access implementation before the batched drive loops
//!    landed, and must match to the access.
//! 3. **Policy enforcement mid-batch** — an [`AccessPolicy::with_budget`]
//!    budget is enforced inside a batch: a batch is truncated at the
//!    budget, never blown past it, and the violation surfaces as
//!    [`AccessError::BudgetExhausted`].

use fagin_topk::prelude::*;
use fagin_topk::workloads::random;
use proptest::prelude::*;

fn answer(out: &TopKOutput) -> Vec<(u32, Option<Grade>)> {
    out.items.iter().map(|i| (i.object.0, i.grade)).collect()
}

/// The answer as a *set*: NRA-family output is ordered by the lower bounds
/// `W`, which refine differently at different batch depths, so only the
/// membership (the paper's top-k guarantee) is batch-invariant.
fn object_set(objects: &[ObjectId]) -> Vec<ObjectId> {
    let mut sorted = objects.to_vec();
    sorted.sort();
    sorted
}

/// The deterministic workloads the pre-refactor counts were captured on.
fn workloads() -> Vec<(&'static str, Database)> {
    vec![
        ("uniform-200-3-7", random::uniform(200, 3, 7)),
        ("anticorr-150-4-9", random::anticorrelated(150, 4, 0.1, 9)),
        ("zipf-300-2-11", random::zipf(300, 2, 1.1, 11)),
    ]
}

#[test]
fn batch_one_stats_match_pre_refactor_scalar_path() {
    // (workload, k, TA s/r, TA(memo) s/r, NRA s, NRA(lazy) s, CA(3) s/r) —
    // captured from the scalar implementation at commit 92505f6, before
    // the batched access path existed.
    type Row = (
        &'static str,
        usize,
        (u64, u64),
        (u64, u64),
        u64,
        u64,
        (u64, u64),
    );
    #[rustfmt::skip]
    let expected: &[Row] = &[
        ("uniform-200-3-7",   1,  (60, 120),  (60, 104), 177, 177,  (81, 14)),
        ("uniform-200-3-7",   5,  (95, 190),  (95, 160), 258, 258, (171, 26)),
        ("uniform-200-3-7",  17, (160, 320), (160, 244), 435, 435, (261, 35)),
        ("anticorr-150-4-9",  1,  (87, 261),  (87, 240), 176, 176, (136, 29)),
        ("anticorr-150-4-9",  5, (147, 441), (147, 327), 372, 372, (312, 48)),
        ("anticorr-150-4-9", 17, (206, 618), (206, 384), 560, 560, (404, 56)),
        ("zipf-300-2-11",     1,    (4, 4),     (4, 4),   36,  36,  (34, 5)),
        ("zipf-300-2-11",     5,   (11, 11),   (11, 11),  72,  72,  (72, 11)),
        ("zipf-300-2-11",    17,   (30, 30),   (30, 30), 110, 110, (122, 20)),
    ];
    let dbs = workloads();
    for &(name, k, ta, ta_memo, nra, nra_lazy, ca) in expected {
        let db = &dbs.iter().find(|(n, _)| *n == name).unwrap().1;
        // Explicit batch size 1 and the default constructor must both
        // reproduce the captured scalar counts.
        for variant in [Ta::new(), Ta::new().batched(1)] {
            let mut s = Session::new(db);
            let out = variant.run(&mut s, &Average, k).unwrap();
            assert_eq!(
                (out.stats.sorted_total(), out.stats.random_total()),
                ta,
                "TA {name} k={k}"
            );
        }
        let mut s = Session::new(db);
        let out = Ta::new()
            .memoized()
            .batched(1)
            .run(&mut s, &Average, k)
            .unwrap();
        assert_eq!(
            (out.stats.sorted_total(), out.stats.random_total()),
            ta_memo,
            "TA(memo) {name} k={k}"
        );
        let mut s = Session::with_policy(db, AccessPolicy::no_random_access());
        let out = Nra::new().batched(1).run(&mut s, &Sum, k).unwrap();
        assert_eq!(
            (out.stats.sorted_total(), out.stats.random_total()),
            (nra, 0),
            "NRA {name} k={k}"
        );
        let mut s = Session::with_policy(db, AccessPolicy::no_random_access());
        let out = Nra::with_strategy(BookkeepingStrategy::LazyHeap)
            .batched(1)
            .run(&mut s, &Sum, k)
            .unwrap();
        assert_eq!(
            (out.stats.sorted_total(), out.stats.random_total()),
            (nra_lazy, 0),
            "NRA(lazy) {name} k={k}"
        );
        let mut s = Session::new(db);
        let out = Ca::new(3).batched(1).run(&mut s, &Min, k).unwrap();
        assert_eq!(
            (out.stats.sorted_total(), out.stats.random_total()),
            ca,
            "CA {name} k={k}"
        );
    }
}

#[test]
fn every_algorithm_answers_identically_across_batch_sizes() {
    for (name, db) in &workloads() {
        let n = db.num_objects();
        for k in [1usize, 5, 17] {
            // Reference answers at batch size 1.
            let mut s = Session::new(db);
            let ta_ref = answer(&Ta::new().run(&mut s, &Average, k).unwrap());
            let mut s = Session::with_policy(db, AccessPolicy::no_random_access());
            let nra_ref = Nra::new().run(&mut s, &Sum, k).unwrap().objects();
            let mut s = Session::new(db);
            let ca_ref = Ca::new(3).run(&mut s, &Min, k).unwrap().objects();
            let sharded_ref = Sharded::new(Ta::new(), 3).run(db, &Min, k).unwrap();

            for batch in [3usize, 8, 64, n + 64] {
                let mut s = Session::new(db);
                let ta = answer(&Ta::new().batched(batch).run(&mut s, &Average, k).unwrap());
                assert_eq!(ta, ta_ref, "TA {name} k={k} batch={batch}");

                let mut s = Session::with_policy(db, AccessPolicy::no_random_access());
                let nra = Nra::new().batched(batch).run(&mut s, &Sum, k).unwrap();
                assert_eq!(
                    object_set(&nra.objects()),
                    object_set(&nra_ref),
                    "NRA {name} k={k} batch={batch}"
                );

                let mut s = Session::new(db);
                let ca = Ca::new(3).batched(batch).run(&mut s, &Min, k).unwrap();
                assert_eq!(
                    object_set(&ca.objects()),
                    object_set(&ca_ref),
                    "CA {name} k={k} batch={batch}"
                );

                let sharded = Sharded::new(Ta::new().batched(batch), 3)
                    .batched(batch)
                    .run(db, &Min, k)
                    .unwrap();
                assert_eq!(
                    answer(&sharded),
                    answer(&sharded_ref),
                    "Sharded<TA> {name} k={k} batch={batch}"
                );
            }
        }
    }
}

#[test]
fn budget_is_enforced_mid_batch() {
    let db = random::uniform(200, 3, 7);
    // Unbudgeted baseline: how much batched TA actually needs.
    let mut s = Session::new(&db);
    let full = Ta::new().batched(8).run(&mut s, &Average, 5).unwrap();
    let need = full.stats.total();

    // Budgets clearly below what any correct execution needs must fail
    // with BudgetExhausted — and no batch may blow past the budget.
    for budget in [1u64, 2, 7, 23] {
        let policy = AccessPolicy::no_wild_guesses().with_budget(budget);
        let mut s = Session::with_policy(&db, policy);
        let err = Ta::new()
            .batched(8)
            .run(&mut s, &Average, 5)
            .expect_err("budget far below need must fail");
        assert!(
            matches!(err, AlgoError::Access(AccessError::BudgetExhausted)),
            "budget={budget}: {err:?}"
        );
        assert!(
            s.stats().total() <= budget,
            "budget={budget} but {} accesses billed",
            s.stats().total()
        );
    }

    // A budget of need−1 truncates the final batch; whether the truncated
    // run still halts (the trimmed entries were pure overshoot) or errors,
    // the budget is respected to the access.
    let policy = AccessPolicy::no_wild_guesses().with_budget(need - 1);
    let mut s = Session::with_policy(&db, policy);
    match Ta::new().batched(8).run(&mut s, &Average, 5) {
        Ok(out) => assert_eq!(answer(&out), answer(&full), "truncated halt is exact"),
        Err(err) => assert!(matches!(
            err,
            AlgoError::Access(AccessError::BudgetExhausted)
        )),
    }
    assert!(s.stats().total() < need);

    // A sufficient budget changes nothing.
    let mut s = Session::with_policy(&db, AccessPolicy::no_wild_guesses().with_budget(need));
    let out = Ta::new().batched(8).run(&mut s, &Average, 5).unwrap();
    assert_eq!(answer(&out), answer(&full));
    assert_eq!(out.stats.total(), need);
}

#[test]
fn budget_is_enforced_mid_batch_for_sorted_only_algorithms() {
    let db = random::uniform(120, 3, 5);
    let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
    let need = Nra::new()
        .batched(16)
        .run(&mut s, &Sum, 4)
        .unwrap()
        .stats
        .total();
    for budget in [1u64, 5, 31, need - 1] {
        let policy = AccessPolicy {
            access_budget: Some(budget),
            ..AccessPolicy::no_random_access()
        };
        let mut s = Session::with_policy(&db, policy);
        match Nra::new().batched(16).run(&mut s, &Sum, 4) {
            // A near-need budget may merely trim overshoot and still halt…
            Ok(out) => assert!(
                oracle::is_valid_top_k(&db, &Sum, 4, &out.objects()),
                "budget={budget}"
            ),
            Err(err) => assert!(matches!(
                err,
                AlgoError::Access(AccessError::BudgetExhausted)
            )),
        }
        // …but in every case the batch stops at the budget line.
        assert!(
            s.stats().total() <= budget,
            "budget={budget} but {} accesses billed",
            s.stats().total()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On continuous-grade databases (ties vanishingly unlikely) the
    /// batched and scalar executions of TA and NRA return identical
    /// top-k certificates for arbitrary batch sizes.
    #[test]
    fn batched_answers_equal_scalar_on_random_databases(
        m in 1usize..4,
        n in 1usize..60,
        k in 1usize..8,
        batch in 1usize..70,
        seed in 0u32..1000,
    ) {
        let db = random::uniform(n, m, seed as u64);
        let mut s = Session::new(&db);
        let scalar = Ta::new().run(&mut s, &Average, k).unwrap();
        let mut s = Session::new(&db);
        let batched = Ta::new().batched(batch).run(&mut s, &Average, k).unwrap();
        prop_assert_eq!(answer(&scalar), answer(&batched));

        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let scalar = Nra::new().run(&mut s, &Sum, k).unwrap();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let batched = Nra::new().batched(batch).run(&mut s, &Sum, k).unwrap();
        prop_assert_eq!(object_set(&scalar.objects()), object_set(&batched.objects()));
    }

    /// Batched runs always produce *valid* top-k answers, even on
    /// tie-heavy discrete databases where the chosen set may differ.
    #[test]
    fn batched_answers_stay_valid_on_tied_databases(
        m in 1usize..4,
        n in 1usize..40,
        k in 1usize..6,
        batch in 1usize..50,
        seed in 0u32..1000,
    ) {
        let cols: Vec<Vec<f64>> = (0..m)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let h = (j as u64 * 2654435761) ^ (seed as u64) ^ ((i as u64) << 32);
                        ((h >> 7) % 9) as f64 / 8.0
                    })
                    .collect()
            })
            .collect();
        let db = Database::from_f64_columns(&cols).unwrap();
        let mut s = Session::new(&db);
        let ta = Ta::new().batched(batch).run(&mut s, &Min, k).unwrap();
        prop_assert!(oracle::is_valid_top_k(&db, &Min, k, &ta.objects()));
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let nra = Nra::new().batched(batch).run(&mut s, &Min, k).unwrap();
        prop_assert!(oracle::is_valid_top_k(&db, &Min, k, &nra.objects()));
        let mut s = Session::new(&db);
        let ca = Ca::new(2).batched(batch).run(&mut s, &Min, k).unwrap();
        prop_assert!(oracle::is_valid_top_k(&db, &Min, k, &ca.objects()));
    }
}
