//! Fagin's Algorithm — FA (§3).
//!
//! Phase 1: sorted access in parallel until at least `k` objects have been
//! seen in **every** list (the match set `H`). Phase 2: random access for
//! every seen object's missing fields; return the `k` best.
//!
//! FA's access pattern is *oblivious* to the aggregation function — for a
//! fixed database its cost is identical for every monotone `t` (§3). Its
//! match buffer grows with the database (contrast Theorem 4.2 for TA):
//! [`RunMetrics::peak_buffer`] reports the number of distinct objects
//! buffered, which the buffer-growth experiment (E8) plots against `N`.
//!
//! The match buffer is a dense generation-stamped [`RowTable`] (ids are
//! dense indices), leased from a [`RunScratch`] arena so repeated runs
//! reuse the storage — one flat stripe per object instead of a
//! `HashMap<ObjectId, PartialObject>` full of boxed rows.

use fagin_middleware::{Entry, EventKind, Grade, Middleware, ObjectId};

use crate::aggregation::Aggregation;
use crate::arena::{RowTable, RunScratch};
use crate::buffer::TopKBuffer;
use crate::output::{AlgoError, HaltReason, RunMetrics, TopKOutput};

use super::{random_one, sorted_one, validate, TopKAlgorithm};

/// Reusable per-run storage for FA, owned by
/// [`RunScratch`](crate::arena::RunScratch).
#[derive(Default)]
pub(crate) struct FaScratch {
    /// The phase-1 match buffer: every object seen under sorted access.
    rows: RowTable<()>,
    /// First-sighting order (sorted by id before phase 2 for determinism).
    order: Vec<ObjectId>,
    buffer: TopKBuffer,
    scratch: Vec<Grade>,
    /// The one-slot access buffers behind the batch-of-one calls.
    entries: Vec<Entry>,
    grades: Vec<Grade>,
}

/// Fagin's Algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fa;

impl TopKAlgorithm for Fa {
    fn name(&self) -> String {
        "FA".to_string()
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
        let s = &mut *scratch.fa();
        s.rows.reset(m);
        s.order.clear();
        s.buffer.reset(k);
        s.scratch.clear();
        let mut exhausted_scratch = [false; 64];
        let exhausted = &mut exhausted_scratch[..m];

        // Phase 1: sorted access in parallel until k matches.
        let mut matches = 0usize;
        let mut rounds = 0u64;
        'phase1: while matches < k && !exhausted.iter().all(|&e| e) {
            rounds += 1;
            for (i, done) in exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                let Some(entry) = sorted_one(mw, i, &mut s.entries)? else {
                    *done = true;
                    continue;
                };
                let idx = entry.object.index();
                if !s.rows.is_live(idx) {
                    s.rows.admit(idx);
                    s.order.push(entry.object);
                }
                s.rows.learn(idx, i, entry.grade);
                if s.rows.is_complete(idx) {
                    matches += 1;
                    if matches >= k {
                        break 'phase1;
                    }
                }
            }
        }

        // Phase 2: random access for the missing fields of every seen
        // object, then grade and select.
        let peak_buffer = s.rows.live();
        // Deterministic iteration order for reproducible tie-breaks.
        s.order.sort_unstable();
        for oi in 0..s.order.len() {
            let object = s.order[oi];
            let idx = object.index();
            for i in 0..m {
                if !s.rows.knows(idx, i) {
                    let g = random_one(mw, i, object, &mut s.grades)?;
                    s.rows.learn(idx, i, g);
                }
            }
            let grade = s
                .rows
                .exact(idx, agg, &mut s.scratch)
                .expect("row complete");
            s.buffer.offer(object, grade);
        }

        mw.trace(EventKind::Halt, HaltReason::Converged.code(), rounds);
        let mut metrics = RunMetrics::new();
        metrics.rounds = rounds;
        metrics.peak_buffer = peak_buffer;
        Ok(TopKOutput {
            items: s.buffer.items_desc(),
            stats: mw.stats().clone(),
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{Average, Max, Median, Min, Product, Sum};
    use crate::algorithms::Ta;
    use crate::oracle;
    use fagin_middleware::{AccessPolicy, Database, Session};

    fn db() -> Database {
        Database::from_f64_columns(&[
            vec![0.90, 0.50, 0.10, 0.30, 0.75, 0.05],
            vec![0.20, 0.80, 0.50, 0.40, 0.70, 0.15],
            vec![0.60, 0.55, 0.95, 0.10, 0.65, 0.25],
        ])
        .unwrap()
    }

    #[test]
    fn fa_matches_oracle() {
        let db = db();
        let aggs: Vec<Box<dyn Aggregation>> = vec![
            Box::new(Min),
            Box::new(Max),
            Box::new(Average),
            Box::new(Sum),
            Box::new(Median),
            Box::new(Product),
        ];
        for agg in &aggs {
            for k in 1..=6 {
                let mut s = Session::new(&db);
                let out = Fa.run(&mut s, agg.as_ref(), k).unwrap();
                assert!(
                    oracle::is_valid_top_k(&db, agg.as_ref(), k, &out.objects()),
                    "agg={} k={k}",
                    agg.name()
                );
            }
        }
    }

    #[test]
    fn fa_cost_is_oblivious_to_aggregation() {
        // §3: "the access pattern of FA is oblivious to the choice of
        // aggregation function".
        let db = db();
        let mut costs = Vec::new();
        let aggs: Vec<Box<dyn Aggregation>> = vec![Box::new(Min), Box::new(Max), Box::new(Average)];
        for agg in &aggs {
            let mut s = Session::new(&db);
            let out = Fa.run(&mut s, agg.as_ref(), 2).unwrap();
            costs.push((out.stats.sorted_total(), out.stats.random_total()));
        }
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
    }

    #[test]
    fn ta_sorted_cost_never_exceeds_fa() {
        // §4: "for every database, the sorted access cost for TA is at most
        // that of FA".
        let db = db();
        for k in 1..=4 {
            let mut s1 = Session::new(&db);
            let fa = Fa.run(&mut s1, &Min, k).unwrap();
            let mut s2 = Session::new(&db);
            let ta = Ta::new().run(&mut s2, &Min, k).unwrap();
            assert!(
                ta.stats.sorted_total() <= fa.stats.sorted_total(),
                "k={k}: TA {} vs FA {}",
                ta.stats.sorted_total(),
                fa.stats.sorted_total()
            );
        }
    }

    #[test]
    fn fa_never_wild_guesses() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_wild_guesses());
        assert!(Fa.run(&mut s, &Min, 3).is_ok());
    }

    #[test]
    fn fa_buffer_tracks_all_seen_objects() {
        let db = db();
        let mut s = Session::new(&db);
        let out = Fa.run(&mut s, &Min, 2).unwrap();
        // FA must remember every object seen in phase 1.
        assert!(out.metrics.peak_buffer >= 2);
    }

    #[test]
    fn k_greater_than_n() {
        let db = db();
        let mut s = Session::new(&db);
        let out = Fa.run(&mut s, &Min, 100).unwrap();
        assert_eq!(out.items.len(), db.num_objects());
        assert!(oracle::is_valid_top_k(&db, &Min, 100, &out.objects()));
    }

    #[test]
    fn leased_runs_match_fresh_runs_exactly() {
        let db = db();
        let mut arena = RunScratch::new();
        for k in [1usize, 4, 2, 6] {
            let mut s1 = Session::new(&db);
            let fresh = Fa.run(&mut s1, &Median, k).unwrap();
            let mut s2 = Session::new(&db);
            let leased = Fa.run_with(&mut s2, &Median, k, &mut arena).unwrap();
            assert_eq!(fresh.items, leased.items, "k={k}");
            assert_eq!(fresh.stats, leased.stats, "k={k}");
            assert_eq!(fresh.metrics, leased.metrics, "k={k}");
        }
    }
}
