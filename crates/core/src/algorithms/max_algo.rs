//! The `mk`-sorted-access algorithm for `t = max` (§3, §6).
//!
//! The paper observes that for the (non-strict) aggregation function max
//! "there is a simple algorithm that makes at most `mk` sorted accesses and
//! no random accesses that finds the top `k` answers": read the top `k` of
//! each list; every true top-`k` object must appear in the top-`k` prefix of
//! whichever list realizes its maximum (otherwise `k` objects in that list
//! would beat it), with its true overall grade visible there. TA also
//! handles max — halting after `k` rounds with optimality ratio exactly `m`
//! (footnote 9) — but pays `m−1` random accesses per sighting; this
//! specialist shows the gap.

use std::collections::HashMap;

use fagin_middleware::{EventKind, Grade, Middleware, ObjectId};

use crate::aggregation::Aggregation;
use crate::buffer::TopKBuffer;
use crate::output::{AlgoError, HaltReason, RunMetrics, TopKOutput};

use super::{sorted_one, validate, TopKAlgorithm};

/// Specialist top-`k` algorithm for `t = max`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxTopK;

impl MaxTopK {
    /// Sanity-probes whether `agg` behaves like max on a handful of grade
    /// vectors (it is a logic error to run this algorithm with any other
    /// aggregation; the [`Planner`](crate::planner::Planner) also uses this
    /// to detect when the specialist applies).
    pub fn behaves_like_max(agg: &dyn Aggregation, m: usize) -> bool {
        if !agg.arity().accepts(m) {
            return false;
        }
        let probe = |grades: &[Grade]| -> bool {
            let want = grades.iter().copied().reduce(Grade::max).unwrap();
            agg.evaluate(grades) == want
        };
        let mut cases: Vec<Vec<Grade>> = vec![
            vec![Grade::new(0.25); m],
            (0..m).map(|i| Grade::new(i as f64 / m as f64)).collect(),
            (0..m)
                .map(|i| Grade::new(1.0 - i as f64 / m as f64))
                .collect(),
        ];
        let mut spike = vec![Grade::ZERO; m];
        spike[m - 1] = Grade::ONE;
        cases.push(spike);
        cases.iter().all(|c| probe(c))
    }

    fn validate_is_max(agg: &dyn Aggregation, m: usize) -> Result<(), AlgoError> {
        if Self::behaves_like_max(agg, m) {
            Ok(())
        } else {
            Err(AlgoError::UnsupportedAggregation {
                algorithm: "MaxTopK",
                reason: format!("'{}' does not behave like max", agg.name()),
            })
        }
    }
}

impl TopKAlgorithm for MaxTopK {
    fn name(&self) -> String {
        "MaxTopK".to_string()
    }

    fn run(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
    ) -> Result<TopKOutput, AlgoError> {
        validate(mw, agg, k)?;
        let m = mw.num_lists();
        Self::validate_is_max(agg, m)?;

        // Read the top k of every list (mk sorted accesses), tracking each
        // object's best observed grade = its true max for any true top-k
        // object.
        let mut best: HashMap<ObjectId, Grade> = HashMap::new();
        let mut exhausted = vec![false; m];
        let mut entries = Vec::with_capacity(1);
        let mut rounds = 0u64;
        for _ in 0..k {
            if exhausted.iter().all(|&e| e) {
                break;
            }
            rounds += 1;
            for (i, done) in exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                let Some(entry) = sorted_one(mw, i, &mut entries)? else {
                    *done = true;
                    continue;
                };
                best.entry(entry.object)
                    .and_modify(|g| *g = (*g).max(entry.grade))
                    .or_insert(entry.grade);
            }
        }
        mw.trace(EventKind::Halt, HaltReason::Converged.code(), rounds);

        let mut buffer = TopKBuffer::new(k);
        let mut objects: Vec<ObjectId> = best.keys().copied().collect();
        objects.sort_unstable();
        for o in objects {
            buffer.offer(o, best[&o]);
        }

        let mut metrics = RunMetrics::new();
        metrics.rounds = rounds;
        metrics.peak_buffer = best.len();
        Ok(TopKOutput {
            items: buffer.items_desc(),
            stats: mw.stats().clone(),
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{Max, Min};
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
    fn max_topk_matches_oracle() {
        let db = db();
        for k in 1..=6 {
            let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
            let out = MaxTopK.run(&mut s, &Max, k).unwrap();
            assert!(
                oracle::is_valid_top_k(&db, &Max, k, &out.objects()),
                "k={k}"
            );
            // Reported grades are true overall grades.
            for item in &out.items {
                let row = db.row(item.object).unwrap();
                assert_eq!(item.grade.unwrap(), Max.evaluate(&row));
            }
        }
    }

    #[test]
    fn cost_is_at_most_mk_sorted_accesses() {
        let db = db();
        for k in 1..=6 {
            let mut s = Session::new(&db);
            let out = MaxTopK.run(&mut s, &Max, k).unwrap();
            assert!(out.stats.sorted_total() <= (db.num_lists() * k) as u64);
            assert_eq!(out.stats.random_total(), 0);
        }
    }

    #[test]
    fn rejects_non_max_aggregation() {
        let db = db();
        let mut s = Session::new(&db);
        let err = MaxTopK.run(&mut s, &Min, 1).unwrap_err();
        assert!(matches!(err, AlgoError::UnsupportedAggregation { .. }));
    }

    #[test]
    fn k_greater_than_n() {
        let db = db();
        let mut s = Session::new(&db);
        let out = MaxTopK.run(&mut s, &Max, 99).unwrap();
        assert_eq!(out.items.len(), db.num_objects());
        assert!(oracle::is_valid_top_k(&db, &Max, 99, &out.objects()));
    }
}
