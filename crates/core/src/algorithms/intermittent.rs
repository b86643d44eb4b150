//! The intermittent algorithm (§8.4) — CA's strawman.
//!
//! It "does random accesses in the same time order as TA does, but simply
//! delays them, so that it does random accesses every `h = ⌊c_R/c_S⌋`
//! steps". Unlike CA it does **not** prioritize the object with the best
//! upper bound; the paper's Figure 5 database makes it pay a factor
//! `≥ 3(h−2)` more than CA, proving that CA's choice of random-access
//! target is essential for an optimality ratio independent of `c_R/c_S`.

use fagin_middleware::{EventKind, Middleware};

use crate::aggregation::Aggregation;
use crate::arena::RunScratch;
use crate::output::{AlgoError, HaltReason, RunMetrics, TopKOutput};

use super::engine::{BookkeepingStrategy, BoundEngine};
use super::{random_one, sorted_one, validate, TopKAlgorithm};

/// The intermittent baseline: TA's random-access order, delayed in batches
/// of one phase per `h` rounds of sorted access.
#[derive(Clone, Copy, Debug)]
pub struct Intermittent {
    h: usize,
    strategy: BookkeepingStrategy,
}

impl Intermittent {
    /// Intermittent algorithm with phase length `h`.
    ///
    /// # Panics
    /// Panics if `h == 0`.
    pub fn new(h: usize) -> Self {
        assert!(h >= 1, "h must be at least 1");
        Intermittent {
            h,
            strategy: BookkeepingStrategy::Exhaustive,
        }
    }

    /// Overrides the bookkeeping strategy.
    pub fn with_strategy(mut self, strategy: BookkeepingStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

impl TopKAlgorithm for Intermittent {
    fn name(&self) -> String {
        format!("Intermittent(h={})", self.h)
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
        validate(mw, agg, k)?;
        let m = mw.num_lists();
        let n = mw.num_objects();
        // No eviction: the intermittent strawman resolves queued objects in
        // TA's sighting order regardless of viability, so it must remember
        // every candidate's resolved fields to keep its (deliberately
        // wasteful) access sequence intact.
        let (engine_scratch, drive) = scratch.engine_and_drive();
        drive.reset(m);
        let mut engine =
            BoundEngine::new_in(agg, m, k, self.strategy, engine_scratch).without_eviction();
        let mut rounds = 0u64;

        'drive: loop {
            rounds += 1;
            for (i, done) in drive.exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                match sorted_one(mw, i, &mut drive.batch_buf)? {
                    None => *done = true,
                    Some(entry) => {
                        engine.observe_sorted(i, entry);
                        // TA would resolve this sighting immediately; the
                        // intermittent algorithm queues it instead.
                        drive.pending.push_back(entry.object);
                    }
                }
            }
            engine.refresh_selection();
            if engine.check_halt(n) {
                break;
            }

            // Every h rounds: drain the backlog in TA's arrival order,
            // stopping as soon as the halting condition is met.
            if rounds.is_multiple_of(self.h as u64) {
                while let Some(object) = drive.pending.pop_front() {
                    if engine.is_complete(object) {
                        continue;
                    }
                    engine.missing_fields_into(object, &mut drive.missing);
                    for &list in drive.missing.iter() {
                        let g = random_one(mw, list, object, &mut drive.grades)?;
                        engine.learn_random(object, list, g);
                    }
                    engine.refresh_selection();
                    if engine.check_halt(n) {
                        break 'drive;
                    }
                }
            }
            if drive.exhausted.iter().all(|&e| e) {
                break;
            }
            mw.trace(EventKind::RoundBoundary, 0, rounds);
        }

        mw.trace(EventKind::Halt, HaltReason::Converged.code(), rounds);
        let items = engine.output_items();
        let mut metrics = RunMetrics::new();
        metrics.rounds = rounds;
        metrics.peak_buffer = engine.peak_candidates;
        metrics.bound_recomputations = engine.bound_recomputations;
        metrics.final_threshold = Some(engine.threshold());
        Ok(TopKOutput {
            items,
            stats: mw.stats().clone(),
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{Average, Min, Sum};
    use crate::oracle;
    use fagin_middleware::{Database, Session};

    fn db() -> Database {
        Database::from_f64_columns(&[
            vec![0.90, 0.50, 0.10, 0.30, 0.75, 0.05],
            vec![0.20, 0.80, 0.50, 0.40, 0.70, 0.15],
            vec![0.60, 0.55, 0.95, 0.10, 0.65, 0.25],
        ])
        .unwrap()
    }

    #[test]
    fn intermittent_matches_oracle() {
        let db = db();
        for h in [1usize, 2, 5, 100] {
            for k in 1..=6 {
                let mut s = Session::new(&db);
                let out = Intermittent::new(h).run(&mut s, &Sum, k).unwrap();
                assert!(
                    oracle::is_valid_top_k(&db, &Sum, k, &out.objects()),
                    "h={h} k={k}"
                );
            }
        }
    }

    #[test]
    fn intermittent_correct_for_min_and_avg() {
        let db = db();
        for k in [1usize, 3] {
            let mut s = Session::new(&db);
            let a = Intermittent::new(2).run(&mut s, &Min, k).unwrap();
            assert!(oracle::is_valid_top_k(&db, &Min, k, &a.objects()));
            let mut s = Session::new(&db);
            let b = Intermittent::new(2).run(&mut s, &Average, k).unwrap();
            assert!(oracle::is_valid_top_k(&db, &Average, k, &b.objects()));
        }
    }

    #[test]
    #[should_panic(expected = "h must be at least 1")]
    fn zero_h_rejected() {
        let _ = Intermittent::new(0);
    }

    #[test]
    fn name_mentions_h() {
        assert_eq!(Intermittent::new(4).name(), "Intermittent(h=4)");
    }
}
