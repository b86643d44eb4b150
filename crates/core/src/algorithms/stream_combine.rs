//! Stream-Combine (§10): Güntzer, Balke & Kiessling's no-random-access
//! algorithm, reimplemented as the paper describes it — including the
//! design decisions that make it **not** instance optimal, so the NRA
//! comparison of §10 can be reproduced:
//!
//! * it "considers only upper bounds on overall grades of objects, unlike
//!   our algorithm NRA, which considers both upper and lower bounds";
//! * it "cannot say that an object is in the top k unless that object has
//!   been seen in every sorted list" (it reports grades, where NRA
//!   deliberately does not);
//! * it chooses the next list by a heuristic, with the same safety net as
//!   [`QuickCombine`](crate::algorithms::QuickCombine).
//!
//! On Figure 4's database NRA certifies the winner in O(1) accesses while
//! Stream-Combine must scan `L₂` to the bottom to learn the winner's grade
//! — the integration tests assert exactly this separation.

use std::collections::HashMap;

use fagin_middleware::{EventKind, Grade, Middleware, ObjectId};

use crate::aggregation::Aggregation;
use crate::bounds::{Bottoms, PartialObject};
use crate::output::{AlgoError, HaltReason, RunMetrics, ScoredObject, TopKOutput};

use super::{sorted_one, validate, TopKAlgorithm};

/// Stream-Combine: sorted access only, upper-bound-only bookkeeping,
/// outputs grades.
#[derive(Clone, Copy, Debug)]
pub struct StreamCombine {
    /// Safety parameter for the heuristic schedule (see `QuickCombine`).
    safety: usize,
}

impl Default for StreamCombine {
    fn default() -> Self {
        Self::new(16)
    }
}

impl StreamCombine {
    /// Stream-Combine with safety parameter `u`.
    ///
    /// # Panics
    /// Panics if `u == 0`.
    pub fn new(safety: usize) -> Self {
        assert!(safety >= 1, "safety parameter u must be at least 1");
        StreamCombine { safety }
    }
}

impl TopKAlgorithm for StreamCombine {
    fn name(&self) -> String {
        format!("StreamCombine(u={})", self.safety)
    }

    fn run(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
    ) -> Result<TopKOutput, AlgoError> {
        validate(mw, agg, k)?;
        let m = mw.num_lists();
        let n = mw.num_objects();
        let mut bottoms = Bottoms::new(m);
        let mut seen: HashMap<ObjectId, PartialObject> = HashMap::new();
        let mut exhausted = vec![false; m];
        let mut prev_grade: Vec<Option<Grade>> = vec![None; m];
        let mut decline: Vec<f64> = vec![f64::INFINITY; m];
        let mut since_visit: Vec<usize> = vec![0; m];
        let weight = |i: usize| agg.linear_weight(i, m).unwrap_or(1.0).max(1e-9);
        let mut scratch: Vec<Grade> = Vec::new();
        let mut entries = Vec::with_capacity(1);
        let mut steps = 0u64;
        let mut peak = 0usize;

        let finished = loop {
            if exhausted.iter().all(|&e| e) {
                break self.finished(agg, &seen, &bottoms, k, n, &mut scratch);
            }
            // Schedule the next sorted access (overdue list first).
            let most_overdue = (0..m)
                .filter(|&i| !exhausted[i])
                .max_by_key(|&i| since_visit[i])
                .expect("not all exhausted");
            let list = if since_visit[most_overdue] >= self.safety {
                most_overdue
            } else {
                (0..m)
                    .filter(|&i| !exhausted[i])
                    .max_by(|&a, &b| {
                        decline[a]
                            .total_cmp(&decline[b])
                            .then(since_visit[a].cmp(&since_visit[b]))
                    })
                    .expect("not all exhausted")
            };
            for (i, s) in since_visit.iter_mut().enumerate() {
                *s = if i == list { 0 } else { *s + 1 };
            }
            let Some(entry) = sorted_one(mw, list, &mut entries)? else {
                exhausted[list] = true;
                decline[list] = f64::NEG_INFINITY;
                continue;
            };
            steps += 1;
            if let Some(prev) = prev_grade[list] {
                decline[list] = weight(list) * (prev.value() - entry.grade.value());
            }
            prev_grade[list] = Some(entry.grade);
            bottoms.observe(list, entry.grade);
            seen.entry(entry.object)
                .or_insert_with(|| PartialObject::new(m))
                .learn(list, entry.grade);
            peak = peak.max(seen.len());

            if let Some(out) = self.finished(agg, &seen, &bottoms, k, n, &mut scratch) {
                break Some(out);
            }
        };

        mw.trace(EventKind::Halt, HaltReason::Converged.code(), steps);
        let items = finished.unwrap_or_default();
        let mut metrics = RunMetrics::new();
        metrics.rounds = steps;
        metrics.peak_buffer = peak;
        metrics.final_threshold = Some(bottoms.threshold(agg, &mut scratch));
        Ok(TopKOutput {
            items,
            stats: mw.stats().clone(),
            metrics,
        })
    }
}

impl StreamCombine {
    /// The upper-bound-only halting rule: the `k` best *fully seen* objects
    /// must dominate every other object's `B` (and the threshold, which is
    /// the `B` of unseen objects).
    fn finished(
        &self,
        agg: &dyn Aggregation,
        seen: &HashMap<ObjectId, PartialObject>,
        bottoms: &Bottoms,
        k: usize,
        n: usize,
        scratch: &mut Vec<Grade>,
    ) -> Option<Vec<ScoredObject>> {
        let k_eff = k.min(n);
        // Grade every complete object.
        let mut complete: Vec<(ObjectId, Grade)> = seen
            .iter()
            .filter_map(|(&o, p)| p.exact(agg, scratch).map(|g| (o, g)))
            .collect();
        if complete.len() < k_eff {
            return None;
        }
        complete.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        complete.truncate(k_eff);
        let cutoff = complete.last().expect("k_eff >= 1").1;

        // Unseen objects.
        if seen.len() < n && bottoms.threshold(agg, scratch) > cutoff {
            return None;
        }
        // Every other seen object must have B ≤ cutoff.
        for (&o, p) in seen {
            if complete.iter().any(|&(c, _)| c == o) {
                continue;
            }
            if p.b(agg, bottoms, scratch) > cutoff {
                return None;
            }
        }
        Some(
            complete
                .into_iter()
                .map(|(object, grade)| ScoredObject {
                    object,
                    grade: Some(grade),
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{Average, Min, Sum};
    use crate::algorithms::Nra;
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
    fn stream_combine_matches_oracle_with_grades() {
        let db = db();
        for agg in [&Min as &dyn Aggregation, &Average, &Sum] {
            for k in 1..=6 {
                let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
                let out = StreamCombine::default().run(&mut s, agg, k).unwrap();
                assert!(
                    oracle::is_valid_top_k(&db, agg, k, &out.objects()),
                    "agg={} k={k}",
                    agg.name()
                );
                // Unlike NRA, every output has its grade.
                for item in &out.items {
                    let row = db.row(item.object).unwrap();
                    assert_eq!(item.grade, Some(agg.evaluate(&row)));
                }
            }
        }
    }

    #[test]
    fn stream_combine_makes_no_random_accesses() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = StreamCombine::default().run(&mut s, &Min, 2).unwrap();
        assert_eq!(out.stats.random_total(), 0);
    }

    #[test]
    fn not_instance_optimal_on_figure_4() {
        // §10: Stream-Combine "cannot say that an object is in the top k
        // unless that object has been seen in every sorted list" — on the
        // Figure 4 database that costs Θ(n) where NRA pays O(1).
        let n = 60usize;
        let mut c1 = vec![1.0 / 3.0; n];
        let mut c2 = vec![1.0 / 3.0; n];
        c1[0] = 1.0;
        c2[0] = 0.0;
        let db = Database::from_f64_columns(&[c1, c2]).unwrap();

        let mut s1 = Session::with_policy(&db, AccessPolicy::no_random_access());
        let nra = Nra::new().run(&mut s1, &Average, 1).unwrap();
        let mut s2 = Session::with_policy(&db, AccessPolicy::no_random_access());
        let sc = StreamCombine::new(1).run(&mut s2, &Average, 1).unwrap();

        assert_eq!(nra.objects(), sc.objects());
        assert!(nra.stats.total() <= 6);
        assert!(
            sc.stats.total() >= n as u64,
            "Stream-Combine should be forced deep: {} accesses",
            sc.stats.total()
        );
        // And it does report the grade NRA could not.
        assert_eq!(sc.items[0].grade, Some(Grade::new(0.5)));
        assert_eq!(nra.items[0].grade, None);
    }

    #[test]
    fn k_greater_than_n() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = StreamCombine::default().run(&mut s, &Min, 50).unwrap();
        assert_eq!(out.items.len(), db.num_objects());
        assert!(oracle::is_valid_top_k(&db, &Min, 50, &out.objects()));
    }

    #[test]
    #[should_panic(expected = "safety parameter u must be at least 1")]
    fn zero_safety_rejected() {
        let _ = StreamCombine::new(0);
    }
}
