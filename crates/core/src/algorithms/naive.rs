//! The naive algorithm (§1): scan every list completely under sorted
//! access, compute every overall grade, return the top `k`.
//!
//! Middleware cost is always exactly `m·N·c_S` — linear in the database —
//! which is the baseline every other algorithm is trying to beat. It makes
//! no random accesses, so it is also a correct (if slow) member of the
//! no-random-access class of §8.1 and the only instance-optimal algorithm
//! when `c_S = 0` (see the discussion after Corollary 6.2).

use fagin_middleware::{EventKind, Middleware};

use crate::aggregation::Aggregation;
use crate::bounds::PartialObject;
use crate::buffer::TopKBuffer;
use crate::output::{AlgoError, HaltReason, RunMetrics, TopKOutput};

use super::{sorted_one, validate, TopKAlgorithm};

/// The full-scan baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct Naive;

impl TopKAlgorithm for Naive {
    fn name(&self) -> String {
        "Naive".to_string()
    }

    fn run(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
    ) -> Result<TopKOutput, AlgoError> {
        validate(mw, agg, k)?;
        let m = mw.num_lists();

        // Accumulate every object's row. Memory is O(N·m): the naive
        // algorithm pays in space as well as accesses.
        let mut rows: Vec<PartialObject> = Vec::new();
        let mut rounds = 0u64;
        let mut exhausted = vec![false; m];
        let mut entries = Vec::with_capacity(1);
        while !exhausted.iter().all(|&e| e) {
            rounds += 1;
            for (i, done) in exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                match sorted_one(mw, i, &mut entries)? {
                    None => *done = true,
                    Some(entry) => {
                        let idx = entry.object.index();
                        if idx >= rows.len() {
                            rows.resize_with(idx + 1, || PartialObject::new(m));
                        }
                        rows[idx].learn(i, entry.grade);
                    }
                }
            }
        }

        let mut scratch = Vec::with_capacity(m);
        let mut buffer = TopKBuffer::new(k);
        for (idx, row) in rows.iter().enumerate() {
            let grade = row
                .exact(agg, &mut scratch)
                .expect("full scan sees every field");
            buffer.offer(fagin_middleware::ObjectId::from(idx), grade);
        }

        mw.trace(EventKind::Halt, HaltReason::Converged.code(), rounds);
        let mut metrics = RunMetrics::new();
        metrics.rounds = rounds;
        metrics.peak_buffer = rows.len();
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
    use crate::aggregation::{Average, Min};
    use crate::oracle;
    use fagin_middleware::{AccessPolicy, Database, ObjectId, Session};

    fn db() -> Database {
        Database::from_f64_columns(&[vec![0.9, 0.5, 0.1, 0.3], vec![0.2, 0.8, 0.5, 0.4]]).unwrap()
    }

    #[test]
    fn naive_matches_oracle() {
        let db = db();
        for k in 1..=4 {
            let mut s = Session::new(&db);
            let out = Naive.run(&mut s, &Min, k).unwrap();
            assert!(oracle::is_valid_top_k(&db, &Min, k, &out.objects()));
            // Grades are reported and correct.
            let want = oracle::true_top_k(&db, &Min, k);
            let got: Vec<_> = out.items.iter().map(|i| i.grade.unwrap()).collect();
            let expect: Vec<_> = want.iter().map(|i| i.grade.unwrap()).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn naive_cost_is_m_times_n() {
        let db = db();
        let mut s = Session::new(&db);
        let out = Naive.run(&mut s, &Average, 2).unwrap();
        assert_eq!(out.stats.sorted_total(), (2 * 4) as u64);
        assert_eq!(out.stats.random_total(), 0);
        assert_eq!(out.metrics.peak_buffer, 4);
    }

    #[test]
    fn naive_works_without_random_access() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Naive.run(&mut s, &Min, 1).unwrap();
        assert_eq!(out.items[0].object, ObjectId(1));
    }

    #[test]
    fn k_exceeding_n_returns_everything() {
        let db = db();
        let mut s = Session::new(&db);
        let out = Naive.run(&mut s, &Min, 10).unwrap();
        assert_eq!(out.items.len(), 4);
    }

    #[test]
    fn zero_k_rejected() {
        let db = db();
        let mut s = Session::new(&db);
        assert!(matches!(Naive.run(&mut s, &Min, 0), Err(AlgoError::ZeroK)));
    }
}
