//! Answer checks, run after every timed region.
//!
//! `fagin_core::oracle` recomputes and sorts all `n` overall grades on every
//! call (7.5 ms at n = 100k on a 2-vCPU Xeon virtual machine), which would
//! make checking a run's thousands of answers slower than the run itself. [`Truth`] takes the
//! oracle's canonical ranking once per aggregation and then applies the
//! same predicates as `oracle::is_valid_top_k` and `oracle::achieved_theta`
//! to each answer; the crate's tests pin the two against each other.

use std::collections::BTreeMap;

use fagin_core::oracle;
use fagin_middleware::{Database, Grade, ObjectId};
use fagin_serve::{AggSpec, QueryRequest, QueryResponse};

/// The true ranking of one aggregation over one database.
pub struct Truth {
    /// Every object's overall grade, in the oracle's canonical order
    /// (grade descending, ties towards the smaller id).
    ranked: Vec<Grade>,
    ranked_ids: Vec<ObjectId>,
    /// Overall grade by object index.
    grade_of: Vec<Grade>,
}

impl Truth {
    /// Ranks every object of `db` under `agg`.
    pub fn new(db: &Database, agg: AggSpec) -> Self {
        let top = oracle::true_top_k(db, agg.instance(), db.num_objects());
        let mut grade_of = vec![Grade::ZERO; db.num_objects()];
        let mut ranked = Vec::with_capacity(top.len());
        let mut ranked_ids = Vec::with_capacity(top.len());
        for s in top {
            let g = s.grade.expect("the oracle grades every object");
            grade_of[s.object.0 as usize] = g;
            ranked.push(g);
            ranked_ids.push(s.object);
        }
        Truth {
            ranked,
            ranked_ids,
            grade_of,
        }
    }

    /// Sorted, duplicate-free ids of a `k`-answer of the right size.
    fn selection(&self, k: usize, objects: &[ObjectId]) -> Option<Vec<ObjectId>> {
        let k_eff = k.min(self.ranked.len());
        let mut ids = objects.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let in_range = ids.iter().all(|o| (o.0 as usize) < self.grade_of.len());
        (objects.len() == k_eff && ids.len() == k_eff && in_range).then_some(ids)
    }

    /// `oracle::is_valid_top_k`: the answer's grade multiset equals the
    /// true top-`k` grade multiset.
    pub fn is_valid_top_k(&self, k: usize, objects: &[ObjectId]) -> bool {
        let Some(ids) = self.selection(k, objects) else {
            return false;
        };
        let mut got: Vec<Grade> = ids.iter().map(|o| self.grade_of[o.0 as usize]).collect();
        got.sort_unstable_by(|a, b| b.cmp(a));
        got[..] == self.ranked[..ids.len()]
    }

    /// `oracle::achieved_theta`: the smallest θ for which the answer is a
    /// valid θ-approximation, or `None` when no finite θ certifies it.
    pub fn achieved_theta(&self, k: usize, objects: &[ObjectId]) -> Option<f64> {
        let ids = self.selection(k, objects)?;
        let min_selected = ids.iter().map(|o| self.grade_of[o.0 as usize]).min()?;
        let max_unselected = self
            .ranked_ids
            .iter()
            .zip(&self.ranked)
            .find(|(o, _)| ids.binary_search(o).is_err())
            .map(|(_, &g)| g);
        match max_unselected {
            None => Some(1.0),
            Some(z) if z == Grade::ZERO => Some(1.0),
            Some(_) if min_selected == Grade::ZERO => None,
            Some(z) => {
                let mut theta = (z.value() / min_selected.value()).max(1.0);
                while theta * min_selected.value() < z.value() {
                    theta = theta.next_up();
                }
                Some(theta)
            }
        }
    }
}

/// The true rankings of one database, built on first use per aggregation.
pub struct Oracle<'db> {
    db: &'db Database,
    truths: BTreeMap<&'static str, Truth>,
}

impl<'db> Oracle<'db> {
    /// An oracle over `db`.
    pub fn new(db: &'db Database) -> Self {
        Oracle {
            db,
            truths: BTreeMap::new(),
        }
    }

    /// Checks one answer: an exact answer must be a valid top-`k`, and a
    /// degraded one must really be as good as the θ̂ it certifies.
    pub fn check(&mut self, req: &QueryRequest, resp: &QueryResponse) -> Result<(), String> {
        let db = self.db;
        let truth = self
            .truths
            .entry(req.agg.name())
            .or_insert_with(|| Truth::new(db, req.agg));
        let objects = resp.objects();
        let claimed = resp.guarantee();
        if claimed == 1.0 {
            if truth.is_valid_top_k(req.k, &objects) {
                return Ok(());
            }
            return Err(format!(
                "{} k={} answered by {}: not a valid top-k",
                req.agg, req.k, resp.algorithm
            ));
        }
        match truth.achieved_theta(req.k, &objects) {
            Some(actual) if actual <= claimed => Ok(()),
            actual => Err(format!(
                "{} k={} answered by {}: certified θ̂={claimed} but the answer achieves {actual:?}",
                req.agg, req.k, resp.algorithm
            )),
        }
    }
}

/// A 64-bit digest of an answer's items (ids and grade bits), used to
/// compare repeat answers against the checked first pass.
pub fn fingerprint(resp: &QueryResponse) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for item in &resp.items {
        mix(u64::from(item.object.0));
        mix(item.grade.map_or(u64::MAX, |g| g.value().to_bits()));
    }
    h
}

/// Whether two services answered one request identically: the same items
/// (ids and grade bits), the same per-list sorted and random access
/// counts, and the same certified guarantee.
pub fn same_answer(a: &QueryResponse, b: &QueryResponse) -> Result<(), String> {
    let bits = |r: &QueryResponse| -> Vec<(u32, Option<u64>)> {
        r.items
            .iter()
            .map(|i| (i.object.0, i.grade.map(|g| g.value().to_bits())))
            .collect()
    };
    if bits(a) != bits(b) {
        return Err("items differ".into());
    }
    if a.stats.num_lists() != b.stats.num_lists() {
        return Err("list counts differ".into());
    }
    for list in 0..a.stats.num_lists() {
        let (sa, sb) = (a.stats.sorted_on(list), b.stats.sorted_on(list));
        let (ra, rb) = (a.stats.random_on(list), b.stats.random_on(list));
        if sa != sb || ra != rb {
            return Err(format!(
                "list {list}: sorted {sa} vs {sb}, random {ra} vs {rb}"
            ));
        }
    }
    if a.guarantee().to_bits() != b.guarantee().to_bits() {
        return Err(format!("θ̂ {} vs {}", a.guarantee(), b.guarantee()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn truth_agrees_with_the_oracle() {
        let mut rng = Rng::new(5, 9);
        // Coarse grades, so ties and zero grades occur.
        let columns: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..60).map(|_| rng.below(6) as f64 / 5.0).collect())
            .collect();
        let db = Database::from_f64_columns(&columns).unwrap();
        for agg in AggSpec::ALL {
            let truth = Truth::new(&db, agg);
            for round in 0..300 {
                let k = 1 + rng.below(8);
                let ids: Vec<ObjectId> = if round % 3 == 0 {
                    oracle::true_top_k(&db, agg.instance(), k)
                        .iter()
                        .map(|s| s.object)
                        .collect()
                } else {
                    let len = k + rng.below(3) - 1;
                    (0..len).map(|_| ObjectId(rng.below(60) as u32)).collect()
                };
                assert_eq!(
                    truth.is_valid_top_k(k, &ids),
                    oracle::is_valid_top_k(&db, agg.instance(), k, &ids),
                    "{agg} k={k} {ids:?}"
                );
                assert_eq!(
                    truth.achieved_theta(k, &ids),
                    oracle::achieved_theta(&db, agg.instance(), k, &ids),
                    "{agg} k={k} {ids:?}"
                );
            }
        }
    }
}
