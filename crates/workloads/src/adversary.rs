//! The paper's *interactive adversary*, implemented as a live middleware.
//!
//! The lower-bound proofs (Example 6.3 → Theorem 6.4, and the Theorem 9
//! arguments) do not fix a database up front: "the adversary dynamically
//! adjusts the database as each query comes in from A, in such a way as to
//! evade allowing A to determine the top element until as late as
//! possible." [`AdaptiveAdversary`] is that adversary for the
//! Example 6.3 family (`t = min`, `k = 1`, two lists, `2n+1` objects),
//! implemented as a [`Middleware`]: *any* algorithm — including wild
//! guessers — can be run directly against it, and the adversary commits
//! grades lazily, always consistently with every answer already given.
//!
//! Against the adversary, wild guessing no longer helps: a guessed object
//! is pinned to a losing slot while any freedom remains, so even the
//! 2-access lucky guesser of Figure 1 is forced to ~`2n` probes. This is
//! the constructive content of Theorem 6.4's Yao-style argument.

use std::collections::BTreeSet;

use fagin_middleware::{
    AccessError, AccessPolicy, AccessStats, Database, Entry, Grade, Middleware, ObjectId,
};

/// Interactive adversary for the Example 6.3 / Theorem 6.4 family.
///
/// Invariants maintained while answering queries:
/// * object ids `0..2n+1` are bound to `L₁` ranks lazily, one per query;
/// * the object at `L₁` rank `r` has `L₂` rank `2n − r`;
/// * grades: `L₁` rank ≤ `n` ⟹ grade 1 (else 0); `L₂` rank ≤ `n` ⟹ grade 1;
/// * therefore the unique winner is whatever object ends up at `L₁` rank
///   `n` — which the adversary decides as late as possible.
pub struct AdaptiveAdversary {
    n: usize,
    stats: AccessStats,
    positions: [usize; 2],
    /// `object_at[r]` = object bound to `L₁` rank `r`.
    object_at: Vec<Option<ObjectId>>,
    /// `rank_of[obj]` = committed `L₁` rank.
    rank_of: Vec<Option<usize>>,
    unassigned_objects: BTreeSet<u32>,
    /// Ranks not yet bound, kept split so loser slots are spent first.
    free_loser_ranks: BTreeSet<usize>,
}

impl AdaptiveAdversary {
    /// An adversary over `2n+1` objects.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let total = 2 * n + 1;
        AdaptiveAdversary {
            n,
            stats: AccessStats::new(2),
            positions: [0, 0],
            object_at: vec![None; total],
            rank_of: vec![None; total],
            unassigned_objects: (0..total as u32).collect(),
            free_loser_ranks: (0..total).filter(|&r| r != n).collect(),
        }
    }

    /// Total objects `2n+1`.
    pub fn total_objects(&self) -> usize {
        2 * self.n + 1
    }

    /// The winner, if the adversary has been forced to commit it.
    pub fn committed_winner(&self) -> Option<ObjectId> {
        self.object_at[self.n]
    }

    fn l1_grade(&self, rank: usize) -> Grade {
        if rank <= self.n {
            Grade::ONE
        } else {
            Grade::ZERO
        }
    }

    fn l2_grade(&self, l1_rank: usize) -> Grade {
        // L₂ rank = 2n − l1_rank; grade 1 iff that rank ≤ n ⟺ l1_rank ≥ n.
        if l1_rank >= self.n {
            Grade::ONE
        } else {
            Grade::ZERO
        }
    }

    fn grade(&self, list: usize, l1_rank: usize) -> Grade {
        if list == 0 {
            self.l1_grade(l1_rank)
        } else {
            self.l2_grade(l1_rank)
        }
    }

    /// Binds `object` to `rank`, maintaining both indexes.
    fn bind(&mut self, object: ObjectId, rank: usize) {
        debug_assert!(self.object_at[rank].is_none());
        debug_assert!(self.rank_of[object.index()].is_none());
        self.object_at[rank] = Some(object);
        self.rank_of[object.index()] = Some(rank);
        self.unassigned_objects.remove(&object.0);
        self.free_loser_ranks.remove(&rank);
    }

    /// The object revealed at `L₁` rank `r` (assigning lazily): a fresh
    /// loser id if possible; the winner slot takes whatever id remains
    /// relevant.
    fn object_for_rank(&mut self, rank: usize) -> ObjectId {
        if let Some(obj) = self.object_at[rank] {
            return obj;
        }
        let obj = ObjectId(
            *self
                .unassigned_objects
                .iter()
                .next()
                .expect("as many objects as ranks"),
        );
        self.bind(obj, rank);
        obj
    }

    /// Pins a wild-guessed object to the least helpful consistent slot: a
    /// loser rank while any remains, the winner slot only when forced.
    fn rank_for_object(&mut self, object: ObjectId) -> usize {
        if let Some(rank) = self.rank_of[object.index()] {
            return rank;
        }
        // Deep loser slots first: the guess learns as little as possible
        // (both grades 0 whenever a middle-free slot exists).
        let rank = self
            .free_loser_ranks
            .iter()
            .next_back()
            .copied()
            .unwrap_or(self.n);
        self.bind(object, rank);
        rank
    }

    /// Materializes a full database consistent with every answer given so
    /// far (free slots are filled arbitrarily), for post-hoc verification.
    pub fn materialize(&self) -> Database {
        let mut object_at = self.object_at.clone();
        let mut rest: Vec<u32> = self.unassigned_objects.iter().copied().collect();
        for slot in object_at.iter_mut() {
            if slot.is_none() {
                *slot = Some(ObjectId(rest.pop().expect("enough objects")));
            }
        }
        let total = self.total_objects();
        let l1: Vec<Entry> = (0..total)
            .map(|r| Entry {
                object: object_at[r].unwrap(),
                grade: self.l1_grade(r),
            })
            .collect();
        let l2: Vec<Entry> = (0..total)
            .rev()
            .map(|r| Entry {
                object: object_at[r].unwrap(),
                grade: self.l2_grade(r),
            })
            .collect();
        Database::from_ranked_lists(vec![l1, l2]).expect("adversary stays consistent")
    }
}

impl Middleware for AdaptiveAdversary {
    fn num_lists(&self) -> usize {
        2
    }

    fn num_objects(&self) -> usize {
        self.total_objects()
    }

    /// Serves the ranks one by one, in order, so each binds lazily exactly
    /// as a run of single sorted accesses would bind it.
    fn sorted_next_batch(
        &mut self,
        list: usize,
        max: usize,
        out: &mut Vec<Entry>,
    ) -> Result<usize, AccessError> {
        if list >= 2 {
            return Err(AccessError::NoSuchList { list, num_lists: 2 });
        }
        let start = self.positions[list];
        let served = max.min(self.total_objects() - start);
        for pos in start..start + served {
            // L₁ rank corresponding to this access.
            let l1_rank = if list == 0 { pos } else { 2 * self.n - pos };
            let object = self.object_for_rank(l1_rank);
            out.push(Entry {
                object,
                grade: self.grade(list, l1_rank),
            });
        }
        self.positions[list] = start + served;
        self.stats.record_sorted_n(list, served as u64);
        Ok(served)
    }

    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError> {
        if list >= 2 {
            return Err(AccessError::NoSuchList { list, num_lists: 2 });
        }
        for &object in objects {
            if object.index() >= self.total_objects() {
                return Err(AccessError::NoSuchObject { object });
            }
            self.stats.record_random(list);
            let rank = self.rank_for_object(object);
            out.push(self.grade(list, rank));
        }
        Ok(())
    }

    fn stats(&self) -> &AccessStats {
        &self.stats
    }

    fn policy(&self) -> &AccessPolicy {
        // The adversary deliberately admits wild guesses — that is the
        // class Theorem 6.4 quantifies over.
        static POLICY: std::sync::OnceLock<AccessPolicy> = std::sync::OnceLock::new();
        POLICY.get_or_init(AccessPolicy::unrestricted)
    }

    fn position(&self, list: usize) -> usize {
        self.positions[list]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_access_reveals_losers_first() {
        let mut adv = AdaptiveAdversary::new(5);
        for _ in 0..5 {
            let e = adv.sorted_next(0).unwrap().unwrap();
            assert_eq!(e.grade, Grade::ONE, "top n ranks have grade 1");
        }
        assert_eq!(adv.committed_winner(), None, "winner still open");
        let e = adv.sorted_next(0).unwrap().unwrap();
        assert_eq!(e.grade, Grade::ONE);
        assert_eq!(adv.committed_winner(), Some(e.object), "rank n commits");
    }

    #[test]
    fn wild_guesses_are_pinned_as_losers() {
        let n = 5;
        let mut adv = AdaptiveAdversary::new(n);
        // Guess 2n objects: every one is made a loser (min grade 0).
        let mut losers = 0;
        for id in 0..(2 * n as u32) {
            let g1 = adv.random_lookup(0, ObjectId(id)).unwrap();
            let g2 = adv.random_lookup(1, ObjectId(id)).unwrap();
            if g1.min(g2) == Grade::ZERO {
                losers += 1;
            }
        }
        assert_eq!(losers, 2 * n, "every early guess loses");
        // Only one id remains: the adversary is forced.
        let last = ObjectId(2 * n as u32);
        let g1 = adv.random_lookup(0, last).unwrap();
        let g2 = adv.random_lookup(1, last).unwrap();
        assert_eq!(g1.min(g2), Grade::ONE, "the last object must win");
        assert_eq!(adv.committed_winner(), Some(last));
        assert_eq!(adv.stats().random_total(), (4 * n + 2) as u64);
    }

    #[test]
    fn materialized_database_is_consistent() {
        let mut adv = AdaptiveAdversary::new(4);
        // Mixed access pattern.
        let e = adv.sorted_next(0).unwrap().unwrap();
        let _ = adv.random_lookup(1, e.object).unwrap();
        let _ = adv.random_lookup(0, ObjectId(7)).unwrap();
        let _ = adv.sorted_next(1).unwrap().unwrap();

        let db = adv.materialize();
        assert_eq!(db.num_objects(), 9);
        // Every answer already given matches the materialized database.
        assert_eq!(db.list(0).at_rank(0).unwrap().object, e.object);
        let row7 = db.row(ObjectId(7)).unwrap();
        assert_eq!(row7[0], Grade::ZERO, "guessed object pinned deep in L1");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut adv = AdaptiveAdversary::new(1);
        for _ in 0..3 {
            assert!(adv.sorted_next(0).unwrap().is_some());
        }
        assert!(adv.sorted_next(0).unwrap().is_none());
        assert_eq!(adv.position(0), 3);
    }

    /// What a run has observably done to the adversary.
    fn state(adv: &AdaptiveAdversary) -> (AccessStats, [usize; 2], Option<ObjectId>) {
        let positions = [adv.position(0), adv.position(1)];
        (adv.stats().clone(), positions, adv.committed_winner())
    }

    #[test]
    fn one_sorted_batch_equals_single_steps() {
        let (n, total) = (4, 9);
        for list in 0..2 {
            let mut batched = AdaptiveAdversary::new(n);
            let mut entries = Vec::new();
            assert_eq!(
                batched.sorted_next_batch(list, total, &mut entries),
                Ok(total)
            );
            let mut stepped = AdaptiveAdversary::new(n);
            let steps: Vec<Entry> = (0..total)
                .map(|_| stepped.sorted_next(list).unwrap().unwrap())
                .collect();
            assert_eq!((entries, state(&batched)), (steps, state(&stepped)));
            assert!(batched.committed_winner().is_some(), "a full scan commits");
        }
    }

    #[test]
    fn one_random_batch_equals_single_lookups() {
        let ids = [3, 0, 7, 3, 5].map(ObjectId);
        let (mut batched, mut stepped) = (AdaptiveAdversary::new(4), AdaptiveAdversary::new(4));
        for list in 0..2 {
            let mut grades = Vec::new();
            batched.random_lookup_many(list, &ids, &mut grades).unwrap();
            let singles: Vec<Grade> = ids
                .iter()
                .map(|&o| stepped.random_lookup(list, o).unwrap())
                .collect();
            assert_eq!((grades, state(&batched)), (singles, state(&stepped)));
        }
        // The batch stops at the first error; earlier grades stay delivered.
        let mut grades = Vec::new();
        let err = batched.random_lookup_many(0, &[1, 99, 2].map(ObjectId), &mut grades);
        assert!(matches!(err, Err(AccessError::NoSuchObject { .. })));
        assert_eq!(grades.len(), 1);
    }

    #[test]
    fn out_of_range_errors() {
        let mut adv = AdaptiveAdversary::new(2);
        assert!(matches!(
            adv.sorted_next(2),
            Err(AccessError::NoSuchList { .. })
        ));
        assert!(matches!(
            adv.random_lookup(0, ObjectId(99)),
            Err(AccessError::NoSuchObject { .. })
        ));
    }
}
