//! The Combined Algorithm — CA (§8.2).
//!
//! CA runs NRA's sorted phase, but every `h = ⌊c_R/c_S⌋` rounds it spends
//! one random-access *phase*: it picks the seen, still-incomplete, viable
//! object with the **largest upper bound** `B` and resolves all of its
//! missing fields. This "wise" choice of random-access target is the design
//! principle that makes CA's optimality ratio independent of `c_R/c_S`
//! (Theorems 8.9/8.10) — §8.4 shows the *intermittent* algorithm, which
//! spends the same random-access budget in TA's arrival order instead, can
//! be worse by an unbounded factor.

use fagin_middleware::{AccessError, BatchConfig, EventKind, Middleware};

use crate::aggregation::Aggregation;
use crate::anytime::{AnytimeConfig, BestSnapshot};
use crate::arena::RunScratch;
use crate::output::{AlgoError, HaltReason, RunMetrics, TopKOutput};

use super::engine::{BookkeepingStrategy, BoundEngine};
use super::{random_one, validate, TopKAlgorithm};

/// The Combined Algorithm.
///
/// The drive loop is round-based: each round consumes one batch of sorted
/// accesses per unexhausted list ([`Ca::with_batch`]; one entry with the
/// default scalar batch, reproducing the paper exactly). With batch size
/// `b`, a "round" carries `b` sorted accesses per list, so the random-access
/// cadence in units of accesses becomes `h·b` — callers tuning `h` from a
/// cost model should account for the coarser rounds.
#[derive(Clone, Copy, Debug)]
pub struct Ca {
    h: usize,
    strategy: BookkeepingStrategy,
    batch: BatchConfig,
    theta: f64,
}

impl Ca {
    /// CA with phase length `h = ⌊c_R/c_S⌋` (the paper assumes `c_R ≥ c_S`,
    /// i.e. `h ≥ 1`).
    ///
    /// # Panics
    /// Panics if `h == 0`.
    pub fn new(h: usize) -> Self {
        assert!(h >= 1, "h = floor(c_R/c_S) must be at least 1 (c_R >= c_S)");
        Ca {
            h,
            strategy: BookkeepingStrategy::Exhaustive,
            batch: BatchConfig::scalar(),
            theta: 1.0,
        }
    }

    /// CA configured from a cost model (`h = ⌊c_R/c_S⌋`).
    pub fn for_costs(model: &fagin_middleware::CostModel) -> Self {
        Self::new(model.h())
    }

    /// Overrides the bookkeeping strategy.
    pub fn with_strategy(mut self, strategy: BookkeepingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the batched access configuration (batch size 1, the default,
    /// is the paper's exact access-by-access execution).
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Convenience for [`Ca::with_batch`]`(BatchConfig::new(size))`.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn batched(self, size: usize) -> Self {
        self.with_batch(BatchConfig::new(size))
    }

    /// The θ-approximate variant: the halting rule relaxes to
    /// `θ·M_k ≥ B` over viable candidates, so the run halts no later (and
    /// typically much earlier) than exact CA while certifying a
    /// θ-approximation. θ = 1 (the default) is exact CA.
    ///
    /// # Panics
    /// Panics unless `θ` is finite and at least 1.
    pub fn with_theta(mut self, theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta >= 1.0,
            "theta must be finite and at least 1"
        );
        self.theta = theta;
        self
    }

    /// The phase length `h`.
    pub fn h(&self) -> usize {
        self.h
    }
}

impl Ca {
    /// The shared drive loop behind [`Ca::run_with`] (no interruption) and
    /// [`Ca::run_anytime`].
    fn run_impl(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
        scratch: &mut RunScratch,
        anytime: Option<&AnytimeConfig>,
    ) -> Result<TopKOutput, AlgoError> {
        validate(mw, agg, k)?;
        let m = mw.num_lists();
        let n = mw.num_objects();
        let b = self.batch.size();
        let (engine_scratch, drive) = scratch.engine_and_drive();
        drive.reset(m);
        let mut engine = BoundEngine::new_in(agg, m, k, self.strategy, engine_scratch)
            .tracking_incomplete()
            .with_theta(self.theta);
        let mut rounds = 0u64;
        let mut ra_phases = 0u64;
        let mut best = BestSnapshot::default();
        let mut halt = HaltReason::Converged;
        let mut evictions_traced = 0usize;

        'drive: loop {
            rounds += 1;
            let mut budget_err = None;
            for (i, done) in drive.exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                drive.batch_buf.clear();
                // Only Ok(0) signals exhaustion — a short batch may be a
                // budget truncation (see the Middleware batch contract).
                match mw.sorted_next_batch(i, b, &mut drive.batch_buf) {
                    Ok(0) => {
                        *done = true;
                        continue;
                    }
                    Ok(_) => engine.observe_sorted_batch(i, &drive.batch_buf),
                    Err(e) if e.is_source_loss() => {
                        // Dead source: freeze the list at its last-seen
                        // grade (bounds stay sound) and continue on the
                        // surviving lists; see the NRA drive loop.
                        *done = true;
                        drive.lost[i] = true;
                        continue;
                    }
                    Err(e) => {
                        if anytime.is_none() {
                            return Err(e.into());
                        }
                        budget_err = Some(e);
                        break;
                    }
                }
            }
            engine.refresh_selection();

            // Every h rounds: one random-access phase on the most promising
            // incomplete viable object ("escape clause": skip if none).
            if budget_err.is_none() && rounds.is_multiple_of(self.h as u64) {
                if let Some(object) = engine.best_viable_incomplete() {
                    engine.missing_fields_into(object, &mut drive.missing);
                    for &list in drive.missing.iter() {
                        // A lost source serves no random lookups either:
                        // skip its fields (the object stays incomplete,
                        // its B bound stays soundly pessimistic).
                        if drive.lost[list] {
                            continue;
                        }
                        match random_one(mw, list, object, &mut drive.grades) {
                            Ok(g) => engine.learn_random(object, list, g),
                            Err(e) if e.is_source_loss() => {
                                drive.lost[list] = true;
                                drive.exhausted[list] = true;
                            }
                            Err(e) => {
                                if anytime.is_none() {
                                    return Err(e.into());
                                }
                                budget_err = Some(e);
                                break;
                            }
                        }
                    }
                    ra_phases += 1;
                    engine.refresh_selection();
                }
            }

            let evicted = engine.evictions().len();
            if evicted > evictions_traced {
                mw.trace(
                    EventKind::EvictionWave,
                    0,
                    (evicted - evictions_traced) as u64,
                );
                evictions_traced = evicted;
            }
            if budget_err.is_none() && engine.check_halt(n) {
                // θ-scaled completion is relaxed, not exact.
                if self.theta > 1.0 {
                    halt = HaltReason::ThetaSatisfied;
                }
                break;
            }
            if drive.exhausted.iter().all(|&e| e) {
                if !drive.lost.iter().any(|&l| l) {
                    break;
                }
                // Surviving lists exhausted with at least one source lost:
                // salvage a certified degraded answer or fail typed (see
                // the NRA drive loop for the reasoning).
                if anytime.is_some() {
                    if let Some(g) = engine.certificate(n) {
                        best.offer(g, || engine.output_items());
                    }
                    if best.is_certified() {
                        halt = HaltReason::SourceLost;
                        break 'drive;
                    }
                }
                let list = drive.lost.iter().position(|&l| l).expect("a lost list");
                return Err(AccessError::SourceLost { list }.into());
            }
            mw.trace(EventKind::RoundBoundary, 0, rounds);
            if let Some(cfg) = anytime {
                // Each learned field keeps the bounds sound, so even a
                // mid-phase budget failure certifies whatever is known.
                if let Some(g) = engine.certificate(n) {
                    best.offer(g, || engine.output_items());
                }
                if let Some(e) = budget_err {
                    if best.is_certified() {
                        halt = HaltReason::BudgetExhausted;
                        break 'drive;
                    }
                    return Err(e.into());
                }
                if best.is_certified() {
                    if let Some(reason) = cfg.triggered(rounds, mw.stats()) {
                        halt = reason;
                        break 'drive;
                    }
                }
            }
        }

        mw.trace(EventKind::Halt, halt.code(), rounds);
        let (items, guarantee) = if halt.is_interrupted() {
            best.take().map(|(g, items)| (items, g)).expect("certified")
        } else {
            (engine.output_items(), self.theta)
        };
        let mut metrics = RunMetrics::new();
        metrics.rounds = rounds;
        metrics.peak_buffer = engine.peak_candidates;
        metrics.bound_recomputations = engine.bound_recomputations;
        metrics.evicted = engine.evictions().to_vec();
        metrics.random_access_phases = ra_phases;
        metrics.final_threshold = Some(engine.threshold());
        metrics.approximation_guarantee = guarantee;
        metrics.halt = halt;
        Ok(TopKOutput {
            items,
            stats: mw.stats().clone(),
            metrics,
        })
    }
}

impl TopKAlgorithm for Ca {
    fn name(&self) -> String {
        let base = if self.theta > 1.0 {
            format!("CA(h={},theta={})", self.h, self.theta)
        } else {
            format!("CA(h={})", self.h)
        };
        if self.batch.is_scalar() {
            base
        } else {
            format!("{base}[b={}]", self.batch.size())
        }
    }

    fn run(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
    ) -> Result<TopKOutput, AlgoError> {
        self.run_with(mw, agg, k, &mut RunScratch::new())
    }

    fn run_with(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
        scratch: &mut RunScratch,
    ) -> Result<TopKOutput, AlgoError> {
        self.run_impl(mw, agg, k, scratch, None)
    }

    fn run_anytime(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
        anytime: &AnytimeConfig,
        scratch: &mut RunScratch,
    ) -> Result<TopKOutput, AlgoError> {
        self.run_impl(mw, agg, k, scratch, Some(anytime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{Average, Min, Sum};
    use crate::algorithms::Nra;
    use crate::oracle;
    use fagin_middleware::{AccessPolicy, CostModel, Database, Session};

    fn db() -> Database {
        Database::from_f64_columns(&[
            vec![0.90, 0.50, 0.10, 0.30, 0.75, 0.05],
            vec![0.20, 0.80, 0.50, 0.40, 0.70, 0.15],
            vec![0.60, 0.55, 0.95, 0.10, 0.65, 0.25],
        ])
        .unwrap()
    }

    #[test]
    fn ca_matches_oracle_across_h() {
        let db = db();
        for h in [1usize, 2, 3, 10, 1000] {
            for k in 1..=6 {
                let mut s = Session::new(&db);
                let out = Ca::new(h).run(&mut s, &Average, k).unwrap();
                assert!(
                    oracle::is_valid_top_k(&db, &Average, k, &out.objects()),
                    "h={h} k={k}"
                );
            }
        }
    }

    #[test]
    fn ca_with_huge_h_behaves_like_nra() {
        // "if h is very large … CA is the same as NRA" (§8.2).
        let db = db();
        let mut s1 = Session::new(&db);
        let ca = Ca::new(10_000).run(&mut s1, &Sum, 2).unwrap();
        let mut s2 = Session::with_policy(&db, AccessPolicy::no_random_access());
        let nra = Nra::new().run(&mut s2, &Sum, 2).unwrap();
        assert_eq!(ca.stats.sorted_total(), nra.stats.sorted_total());
        assert_eq!(ca.stats.random_total(), 0);
        assert_eq!(ca.objects(), nra.objects());
    }

    #[test]
    fn ca_random_accesses_bounded_by_phase_budget() {
        // CA performs at most one phase (≤ m−1 probes) per h rounds.
        let db = db();
        for h in [1usize, 2, 3] {
            let mut s = Session::new(&db);
            let out = Ca::new(h).run(&mut s, &Min, 1).unwrap();
            let phases = out.metrics.rounds.div_ceil(h as u64);
            assert!(
                out.stats.random_total() <= phases * (db.num_lists() as u64 - 1),
                "h={h}: {} probes in {} rounds",
                out.stats.random_total(),
                out.metrics.rounds
            );
        }
    }

    #[test]
    fn ca_never_wild_guesses() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_wild_guesses());
        assert!(Ca::new(1).run(&mut s, &Min, 2).is_ok());
    }

    #[test]
    fn escape_clause_when_everything_known() {
        // Footnote 15's scenario: with m = 1, every seen object is complete
        // after its sorted access, so no random-access target ever exists.
        let db = Database::from_f64_columns(&[vec![0.9, 0.5, 0.1]]).unwrap();
        let mut s = Session::new(&db);
        let out = Ca::new(1).run(&mut s, &Min, 1).unwrap();
        assert_eq!(out.stats.random_total(), 0);
        assert_eq!(out.metrics.random_access_phases, 0);
        assert!(oracle::is_valid_top_k(&db, &Min, 1, &out.objects()));
    }

    #[test]
    fn for_costs_uses_floor_ratio() {
        let ca = Ca::for_costs(&CostModel::new(1.0, 7.9));
        assert_eq!(ca.h(), 7);
    }

    #[test]
    #[should_panic(expected = "h = floor(c_R/c_S) must be at least 1")]
    fn zero_h_rejected() {
        let _ = Ca::new(0);
    }

    #[test]
    fn k_greater_than_n() {
        let db = db();
        let mut s = Session::new(&db);
        let out = Ca::new(2).run(&mut s, &Min, 42).unwrap();
        assert_eq!(out.items.len(), db.num_objects());
    }

    #[test]
    fn batched_ca_matches_oracle() {
        let db = db();
        for batch in [1usize, 2, 4, 100] {
            for h in [1usize, 3] {
                for k in 1..=6 {
                    let mut s = Session::new(&db);
                    let out = Ca::new(h).batched(batch).run(&mut s, &Average, k).unwrap();
                    assert!(
                        oracle::is_valid_top_k(&db, &Average, k, &out.objects()),
                        "batch={batch} h={h} k={k}"
                    );
                }
            }
        }
        assert_eq!(Ca::new(2).batched(8).name(), "CA(h=2)[b=8]");
    }

    #[test]
    fn theta_ca_is_valid_and_never_costs_more_than_exact() {
        let db = db();
        for h in [1usize, 2, 4] {
            for theta in [1.1, 1.5, 2.0] {
                for k in 1..=4 {
                    let mut s1 = Session::new(&db);
                    let exact = Ca::new(h).run(&mut s1, &Average, k).unwrap();
                    let mut s2 = Session::new(&db);
                    let approx = Ca::new(h)
                        .with_theta(theta)
                        .run(&mut s2, &Average, k)
                        .unwrap();
                    assert!(
                        oracle::is_valid_theta_approximation(
                            &db,
                            &Average,
                            k,
                            theta,
                            &approx.objects()
                        ),
                        "h={h} theta={theta} k={k}"
                    );
                    assert!(
                        approx.stats.sorted_total() <= exact.stats.sorted_total()
                            && approx.stats.random_total() <= exact.stats.random_total(),
                        "h={h} theta={theta} k={k}: θ-CA cost more than exact CA"
                    );
                    assert_eq!(approx.metrics.approximation_guarantee, theta);
                }
            }
        }
    }

    #[test]
    fn theta_one_ca_is_bit_identical_to_exact() {
        let db = db();
        let mut s1 = Session::new(&db);
        let exact = Ca::new(2).run(&mut s1, &Sum, 3).unwrap();
        let mut s2 = Session::new(&db);
        let theta_one = Ca::new(2).with_theta(1.0).run(&mut s2, &Sum, 3).unwrap();
        assert_eq!(exact.objects(), theta_one.objects());
        assert_eq!(exact.stats, theta_one.stats);
    }

    #[test]
    fn theta_name_includes_slack() {
        assert_eq!(Ca::new(3).with_theta(1.5).name(), "CA(h=3,theta=1.5)");
        assert_eq!(Ca::new(3).name(), "CA(h=3)");
    }

    #[test]
    #[should_panic(expected = "theta must be finite and at least 1")]
    fn ca_theta_below_one_rejected() {
        let _ = Ca::new(1).with_theta(0.99);
    }
}
