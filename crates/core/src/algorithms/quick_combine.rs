//! Quick-Combine-style heuristic sorted-access scheduling (§10).
//!
//! Güntzer, Balke & Kiessling's *Quick-Combine* is TA plus "a heuristic
//! rule that determines which sorted list `L_i` to do the next sorted
//! access on", aiming to exploit skewed grade distributions. The paper
//! makes two observations we implement directly:
//!
//! 1. the published heuristic uses a partial derivative, "which is not
//!    defined for certain aggregation functions (such as min)" — we fall
//!    back to weight 1 when [`Aggregation::linear_weight`] is undefined;
//! 2. "heuristics that modify TA by deciding which list should be accessed
//!    next … can be forced to be instance optimal simply by insuring that
//!    each list is accessed under sorted access at least every `u` steps,
//!    for some constant `u`" — the [`QuickCombine::safety`] net.
//!
//! This is also the crate's demonstration of footnote 6: TA's correctness
//! does not require lockstep sorted access; any schedule whose per-list
//! rates stay within constant multiples of each other preserves both
//! correctness and instance optimality.

use fagin_middleware::{EventKind, Grade, Middleware};

use crate::aggregation::Aggregation;
use crate::bounds::Bottoms;
use crate::buffer::TopKBuffer;
use crate::output::{AlgoError, HaltReason, RunMetrics, TopKOutput};

use super::{random_one, sorted_one, validate, TopKAlgorithm};

/// TA with heuristic (non-lockstep) sorted-access scheduling.
#[derive(Clone, Copy, Debug)]
pub struct QuickCombine {
    /// Safety net `u`: no list goes more than `u` consecutive sorted
    /// accesses without being visited.
    safety: usize,
}

impl Default for QuickCombine {
    fn default() -> Self {
        Self::new(16)
    }
}

impl QuickCombine {
    /// Heuristic TA with safety parameter `u` (the §10 fix that restores
    /// instance optimality).
    ///
    /// # Panics
    /// Panics if `u == 0`.
    pub fn new(safety: usize) -> Self {
        assert!(safety >= 1, "safety parameter u must be at least 1");
        QuickCombine { safety }
    }

    /// The safety parameter `u`.
    pub fn safety(&self) -> usize {
        self.safety
    }
}

impl TopKAlgorithm for QuickCombine {
    fn name(&self) -> String {
        format!("QuickCombine(u={})", self.safety)
    }

    fn run(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
    ) -> Result<TopKOutput, AlgoError> {
        validate(mw, agg, k)?;
        let m = mw.num_lists();
        let mut bottoms = Bottoms::new(m);
        let mut buffer = TopKBuffer::new(k);
        let mut exhausted = vec![false; m];
        // Heuristic state: per-list expected gain = weight_i × recent grade
        // decline. Before a list produced two samples its score is +∞ so
        // every list is primed once.
        let mut prev_grade: Vec<Option<Grade>> = vec![None; m];
        let mut decline: Vec<f64> = vec![f64::INFINITY; m];
        let mut since_visit: Vec<usize> = vec![0; m];
        let weight = |i: usize| agg.linear_weight(i, m).unwrap_or(1.0).max(1e-9);

        let mut scratch: Vec<Grade> = Vec::with_capacity(m);
        let mut row: Vec<Grade> = vec![Grade::ZERO; m];
        let mut entries = Vec::with_capacity(1);
        let mut grades = Vec::with_capacity(1);
        let mut steps = 0u64;
        let mut halted = false;

        while !halted && !exhausted.iter().all(|&e| e) {
            // Scheduling rule: overdue lists first (the safety net), then
            // the list with the best heuristic score; ties towards the
            // least recently visited list.
            let most_overdue = (0..m)
                .filter(|&i| !exhausted[i])
                .max_by_key(|&i| since_visit[i])
                .expect("some list is not exhausted");
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
                    .expect("some list is not exhausted")
            };

            for (i, s) in since_visit.iter_mut().enumerate() {
                if i == list {
                    *s = 0;
                } else {
                    *s += 1;
                }
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

            // TA's random-access and bookkeeping step.
            row[list] = entry.grade;
            for (j, slot) in row.iter_mut().enumerate() {
                if j != list {
                    *slot = random_one(mw, j, entry.object, &mut grades)?;
                }
            }
            scratch.clear();
            scratch.extend_from_slice(&row);
            let grade = agg.evaluate(&scratch);
            buffer.offer(entry.object, grade);

            // The TA stopping rule is schedule-independent (footnote 6):
            // τ over the current bottoms still upper-bounds every unseen
            // object.
            if let Some(kth) = buffer.kth_grade() {
                if kth >= bottoms.threshold(agg, &mut scratch) {
                    halted = true;
                }
            }
        }
        mw.trace(EventKind::Halt, HaltReason::Converged.code(), steps);

        let mut metrics = RunMetrics::new();
        metrics.rounds = steps;
        metrics.peak_buffer = buffer.len() + m;
        metrics.final_threshold = Some(bottoms.threshold(agg, &mut scratch));
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
    use crate::aggregation::{Average, Max, Median, Min, Sum};
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
    fn quick_combine_matches_oracle() {
        let db = db();
        let aggs: Vec<Box<dyn Aggregation>> = vec![
            Box::new(Min),
            Box::new(Max),
            Box::new(Average),
            Box::new(Sum),
            Box::new(Median),
        ];
        for u in [1usize, 2, 16] {
            for agg in &aggs {
                for k in 1..=6 {
                    let mut s = Session::new(&db);
                    let out = QuickCombine::new(u).run(&mut s, agg.as_ref(), k).unwrap();
                    assert!(
                        oracle::is_valid_top_k(&db, agg.as_ref(), k, &out.objects()),
                        "u={u} agg={} k={k}",
                        agg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn quick_combine_never_wild_guesses() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_wild_guesses());
        assert!(QuickCombine::default().run(&mut s, &Min, 2).is_ok());
    }

    #[test]
    fn safety_net_bounds_per_list_starvation() {
        // With u = 1 the schedule degenerates to round-robin: per-list
        // sorted-access counts may differ by at most 1 while running.
        let db = db();
        let mut s = Session::new(&db);
        let out = QuickCombine::new(1).run(&mut s, &Sum, 2).unwrap();
        let counts: Vec<u64> = (0..3).map(|i| out.stats.sorted_on(i)).collect();
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(max - min <= 1, "u=1 must behave like lockstep: {counts:?}");
    }

    #[test]
    fn heuristic_skews_access_toward_informative_lists() {
        // One list is flat (no information), the other falls steeply:
        // Quick-Combine should hammer the steep list.
        let n = 200usize;
        let flat: Vec<f64> = (0..n).map(|i| 0.80 - 1e-6 * i as f64).collect();
        let steep: Vec<f64> = (0..n).map(|i| 1.0 - 0.9 * i as f64 / n as f64).collect();
        let db = Database::from_f64_columns(&[flat, steep]).unwrap();
        let mut s = Session::new(&db);
        let out = QuickCombine::new(64).run(&mut s, &Sum, 3).unwrap();
        assert!(oracle::is_valid_top_k(&db, &Sum, 3, &out.objects()));
        assert!(
            out.stats.sorted_on(1) > out.stats.sorted_on(0),
            "expected more accesses on the steep list: {:?}",
            (out.stats.sorted_on(0), out.stats.sorted_on(1))
        );
    }

    #[test]
    fn cost_is_comparable_to_ta_within_safety_factor() {
        // Instance optimality is preserved: the safety net keeps per-list
        // rates within a constant multiple of round-robin.
        let db = db();
        for k in [1usize, 3] {
            let mut s1 = Session::new(&db);
            let ta = Ta::new().run(&mut s1, &Average, k).unwrap();
            let mut s2 = Session::new(&db);
            let qc = QuickCombine::new(4).run(&mut s2, &Average, k).unwrap();
            // Depth bounded by u · (TA rounds + 1) per list.
            assert!(
                qc.stats.depth() <= 4 * (ta.metrics.rounds + 1),
                "k={k}: depth {} vs TA rounds {}",
                qc.stats.depth(),
                ta.metrics.rounds
            );
        }
    }

    #[test]
    #[should_panic(expected = "safety parameter u must be at least 1")]
    fn zero_safety_rejected() {
        let _ = QuickCombine::new(0);
    }

    #[test]
    fn k_greater_than_n() {
        let db = db();
        let mut s = Session::new(&db);
        let out = QuickCombine::default().run(&mut s, &Min, 99).unwrap();
        assert_eq!(out.items.len(), db.num_objects());
    }
}
