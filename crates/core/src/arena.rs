//! Reusable run arenas: the allocation-free hot path.
//!
//! Every algorithm run needs per-run state — TA's memo and top-`k` buffer,
//! the NRA/CA bound engine's candidate table, `T_k` selection and heaps, FA's
//! match buffer, plus assorted batch/probe scratch vectors. Allocating that
//! state per query is pure overhead in a serving system: object ids are
//! dense `u32` indices, the buffers' shapes depend only on `(N, m, k)`, and
//! a worker answers thousands of queries against the same database.
//!
//! [`RunScratch`] is the fix: one arena owning *all* of it, leased to each
//! run and reused across runs. Two mechanisms make reuse free:
//!
//! * **generation stamps** — the dense per-object tables
//!   ([`fagin_middleware::SlotTable`], the crate-internal `RowTable`)
//!   clear in `O(1)` by bumping a generation, so a fresh run starts
//!   instantly no matter how large the previous run's state was;
//! * **capacity retention** — vectors, heaps and group maps are `clear()`ed,
//!   never dropped, so steady state performs no heap allocation.
//!
//! Algorithms accept an arena through
//! [`TopKAlgorithm::run_with`](crate::algorithms::TopKAlgorithm::run_with);
//! plain `run` creates a throwaway arena, so one-shot callers see no
//! difference. The serving layer (`fagin-serve`) holds one arena per worker
//! thread and leases it to every query that worker executes.
//!
//! **Correctness note:** the arena changes *where* run state lives, never
//! what it contains — a leased run is bytewise identical to a fresh-state
//! run (pinned by `tests/arena_reuse.rs`), and access sequences are pinned
//! by `tests/engine_equivalence.rs` / `tests/batch_invariance.rs`.

use std::ops::{Deref, DerefMut};

use fagin_middleware::Grade;

use crate::aggregation::Aggregation;
use crate::algorithms::{EngineScratch, FaScratch, TaScratch};
use crate::bounds::Bottoms;

/// A reusable arena holding every per-run buffer an algorithm needs.
///
/// Sub-arenas are created lazily on first use (a TA-only worker never pays
/// for bound-engine state) and retained forever after. The arena is `Send`,
/// so a worker thread can own one; it is *not* shared — one arena serves
/// one run at a time.
///
/// ```
/// use fagin_core::aggregation::Min;
/// use fagin_core::algorithms::{Ta, TopKAlgorithm};
/// use fagin_core::arena::RunScratch;
/// use fagin_middleware::{Database, Session};
///
/// let db = Database::from_f64_columns(&[vec![0.9, 0.5, 0.1]]).unwrap();
/// let mut arena = RunScratch::new();
/// for k in [1, 2, 3] {
///     let mut session = Session::new(&db);
///     // Identical to `Ta::new().run(..)`, but run state is reused.
///     let out = Ta::new().run_with(&mut session, &Min, k, &mut arena).unwrap();
///     assert_eq!(out.items.len(), k);
/// }
/// ```
#[derive(Default)]
pub struct RunScratch {
    ta: Option<Box<TaScratch>>,
    engine: Option<Box<EngineScratch>>,
    fa: Option<Box<FaScratch>>,
    drive: DriveScratch,
}

impl RunScratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The TA-family sub-arena (created on first use).
    pub(crate) fn ta(&mut self) -> &mut TaScratch {
        self.ta.get_or_insert_with(Default::default)
    }

    /// The FA sub-arena (created on first use).
    pub(crate) fn fa(&mut self) -> &mut FaScratch {
        self.fa.get_or_insert_with(Default::default)
    }

    /// The bound-engine sub-arena plus the drive-loop buffers, borrowed
    /// disjointly (NRA/CA/Intermittent hold both at once).
    pub(crate) fn engine_and_drive(&mut self) -> (&mut EngineScratch, &mut DriveScratch) {
        (
            self.engine.get_or_insert_with(Default::default),
            &mut self.drive,
        )
    }
}

/// Reusable buffers for the round-based drive loops of NRA/CA/Intermittent
/// (exhaustion flags, the per-round sorted batch, the one-slot random
/// access buffer, the intermittent algorithm's sighting queue, and the
/// missing-fields probe list).
#[derive(Default)]
pub(crate) struct DriveScratch {
    pub exhausted: Vec<bool>,
    /// Lists whose backing source died mid-run (`SourceLost`). A lost list
    /// is also marked exhausted (no further sorted access), but the
    /// distinction matters at the end: all-exhausted with no losses means
    /// complete information (exact answer); any loss means the run can only
    /// end exactly via its own halting rule, or degraded/errored.
    pub lost: Vec<bool>,
    pub batch_buf: Vec<fagin_middleware::Entry>,
    pub grades: Vec<Grade>,
    pub pending: std::collections::VecDeque<fagin_middleware::ObjectId>,
    pub missing: Vec<usize>,
}

impl DriveScratch {
    /// Prepares the buffers for a fresh run over `m` lists.
    pub(crate) fn reset(&mut self, m: usize) {
        self.exhausted.clear();
        self.exhausted.resize(m, false);
        self.lost.clear();
        self.lost.resize(m, false);
        self.batch_buf.clear();
        self.grades.clear();
        self.pending.clear();
        self.missing.clear();
    }
}

/// A leased-or-owned sub-arena: algorithms borrow from a caller's
/// [`RunScratch`] when one is provided, and own a throwaway arena
/// otherwise. Either way the run body is identical.
pub(crate) enum Lease<'a, T> {
    Owned(Box<T>),
    Leased(&'a mut T),
}

impl<T: Default> Lease<'_, T> {
    pub(crate) fn owned() -> Self {
        Lease::Owned(Box::default())
    }
}

impl<T> Deref for Lease<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self {
            Lease::Owned(t) => t,
            Lease::Leased(t) => t,
        }
    }
}

impl<T> DerefMut for Lease<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self {
            Lease::Owned(t) => t,
            Lease::Leased(t) => t,
        }
    }
}

/// A dense, generation-stamped table of partial object rows: the flat
/// replacement for `HashMap<ObjectId, PartialObject>`.
///
/// Row `i` stores object `i`'s known-fields bitmask, its `m` field values
/// in one contiguous stripe of a single `Vec<Grade>` (unknown slots hold
/// stale bytes that are never read — the mask gates every access), and a
/// caller-defined `Copy` payload (the bound engine caches `W` and the
/// separable score there). Clearing is a generation bump; the flat layout
/// means a candidate lookup is two indexed loads instead of a hash and a
/// pointer chase.
///
/// Field-evaluation semantics (`w`/`b`/`exact`) mirror
/// [`PartialObject`](crate::bounds::PartialObject) exactly; the bound
/// definitions are Propositions 8.1/8.2 of the paper.
pub(crate) struct RowTable<P> {
    m: usize,
    stamps: Vec<u32>,
    gen: u32,
    known: Vec<u64>,
    fields: Vec<Grade>,
    payload: Vec<P>,
    live: usize,
}

impl<P> Default for RowTable<P> {
    fn default() -> Self {
        RowTable {
            m: 0,
            stamps: Vec::new(),
            gen: 1,
            known: Vec::new(),
            fields: Vec::new(),
            payload: Vec::new(),
            live: 0,
        }
    }
}

impl<P: Copy + Default> RowTable<P> {
    /// Prepares the table for a fresh run over `m` lists. `O(1)` unless the
    /// stride changes or the stamp generation wraps.
    ///
    /// # Panics
    /// Panics if `m == 0` or `m > 64` (the known-fields mask is a `u64`,
    /// as for [`PartialObject`](crate::bounds::PartialObject)).
    pub fn reset(&mut self, m: usize) {
        assert!((1..=64).contains(&m), "RowTable supports 1..=64 lists");
        if m != self.m {
            // Stride change: existing stripes are laid out for the old m.
            // Stale field bytes are never read (the mask gates them), so
            // only the stripe *capacity* needs re-deriving.
            self.m = m;
            let rows = self.stamps.len();
            self.fields.clear();
            self.fields.resize(rows * m, Grade::ZERO);
        }
        if self.gen == u32::MAX {
            self.stamps.fill(0);
            self.gen = 1;
        } else {
            self.gen += 1;
        }
        self.live = 0;
    }

    /// Number of live rows.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether row `idx` is live.
    #[inline]
    pub fn is_live(&self, idx: usize) -> bool {
        self.stamps.get(idx).is_some_and(|&s| s == self.gen)
    }

    /// Admits `idx` as a fresh row with no known fields.
    ///
    /// # Panics
    /// Debug builds panic if the row is already live.
    pub fn admit(&mut self, idx: usize) {
        debug_assert!(!self.is_live(idx), "row {idx} is already live");
        if idx >= self.stamps.len() {
            let n = idx + 1;
            self.stamps.resize(n, 0);
            self.known.resize(n, 0);
            self.payload.resize(n, P::default());
            self.fields.resize(n * self.m, Grade::ZERO);
        }
        self.stamps[idx] = self.gen;
        self.known[idx] = 0;
        self.payload[idx] = P::default();
        self.live += 1;
    }

    /// Kills row `idx`.
    ///
    /// # Panics
    /// Debug builds panic if the row is not live.
    pub fn kill(&mut self, idx: usize) {
        debug_assert!(self.is_live(idx), "killing a dead row {idx}");
        self.stamps[idx] = 0;
        self.live -= 1;
    }

    /// Records field `list = grade` for row `idx`. Returns `true` if the
    /// field was new (re-recording is a no-op, grades being immutable).
    #[inline]
    pub fn learn(&mut self, idx: usize, list: usize, grade: Grade) -> bool {
        debug_assert!(self.is_live(idx));
        let bit = 1u64 << list;
        if self.known[idx] & bit != 0 {
            debug_assert_eq!(
                self.fields[idx * self.m + list],
                grade,
                "grades are immutable"
            );
            return false;
        }
        self.known[idx] |= bit;
        self.fields[idx * self.m + list] = grade;
        true
    }

    /// The payload of live row `idx`.
    #[inline]
    pub fn payload(&self, idx: usize) -> P {
        debug_assert!(self.is_live(idx));
        self.payload[idx]
    }

    /// Mutable payload of live row `idx`.
    #[inline]
    pub fn payload_mut(&mut self, idx: usize) -> &mut P {
        debug_assert!(self.is_live(idx));
        &mut self.payload[idx]
    }

    /// Whether field `list` of row `idx` is known.
    #[inline]
    pub fn knows(&self, idx: usize, list: usize) -> bool {
        debug_assert!(self.is_live(idx));
        self.known[idx] & (1u64 << list) != 0
    }

    /// Whether every field of row `idx` is known.
    #[inline]
    pub fn is_complete(&self, idx: usize) -> bool {
        debug_assert!(self.is_live(idx));
        self.known[idx].count_ones() as usize == self.m
    }

    /// Bitmask of missing fields of row `idx` (bit `i` ⟺ field `i`
    /// unknown) — the grouping key of the separable-bound index.
    #[inline]
    pub fn missing_mask(&self, idx: usize) -> u64 {
        debug_assert!(self.is_live(idx));
        !self.known[idx] & (u64::MAX >> (64 - self.m))
    }

    /// Appends the indices of missing fields of row `idx` to `out`.
    pub fn missing_into(&self, idx: usize, out: &mut Vec<usize>) {
        debug_assert!(self.is_live(idx));
        out.extend((0..self.m).filter(|&i| self.known[idx] & (1u64 << i) == 0));
    }

    /// Appends the known field values of row `idx` to `out`, in list order.
    pub fn known_values(&self, idx: usize, out: &mut Vec<Grade>) {
        debug_assert!(self.is_live(idx));
        let row = &self.fields[idx * self.m..(idx + 1) * self.m];
        out.extend(
            row.iter()
                .enumerate()
                .filter(|&(i, _)| self.known[idx] & (1u64 << i) != 0)
                .map(|(_, &g)| g),
        );
    }

    /// `W_S(R)` of row `idx`: evaluate with 0 for missing fields
    /// (Proposition 8.1).
    pub fn w(&self, idx: usize, agg: &dyn Aggregation, scratch: &mut Vec<Grade>) -> Grade {
        debug_assert!(self.is_live(idx));
        let known = self.known[idx];
        let row = &self.fields[idx * self.m..(idx + 1) * self.m];
        scratch.clear();
        scratch.extend((0..self.m).map(|i| {
            if known & (1u64 << i) != 0 {
                row[i]
            } else {
                Grade::ZERO
            }
        }));
        agg.evaluate(scratch)
    }

    /// `B_S(R)` of row `idx`: evaluate with the per-list bottoms for
    /// missing fields (Proposition 8.2).
    pub fn b(
        &self,
        idx: usize,
        agg: &dyn Aggregation,
        bottoms: &Bottoms,
        scratch: &mut Vec<Grade>,
    ) -> Grade {
        debug_assert!(self.is_live(idx));
        let known = self.known[idx];
        let row = &self.fields[idx * self.m..(idx + 1) * self.m];
        scratch.clear();
        scratch.extend((0..self.m).map(|i| {
            if known & (1u64 << i) != 0 {
                row[i]
            } else {
                bottoms.value(i)
            }
        }));
        agg.evaluate(scratch)
    }

    /// The exact grade `t(R)` of row `idx` when all fields are known.
    pub fn exact(
        &self,
        idx: usize,
        agg: &dyn Aggregation,
        scratch: &mut Vec<Grade>,
    ) -> Option<Grade> {
        if !self.is_complete(idx) {
            return None;
        }
        scratch.clear();
        scratch.extend_from_slice(&self.fields[idx * self.m..(idx + 1) * self.m]);
        Some(agg.evaluate(scratch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{Average, Min};
    use crate::bounds::PartialObject;

    #[test]
    fn row_table_mirrors_partial_object() {
        let mut t: RowTable<()> = RowTable::default();
        t.reset(3);
        t.admit(5);
        t.learn(5, 0, Grade::new(0.6));
        t.learn(5, 2, Grade::new(0.3));

        let mut p = PartialObject::new(3);
        p.learn(0, Grade::new(0.6));
        p.learn(2, Grade::new(0.3));

        let mut bt = Bottoms::new(3);
        bt.observe(1, Grade::new(0.5));
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        assert_eq!(t.w(5, &Average, &mut s1), p.w(&Average, &mut s2));
        assert_eq!(t.b(5, &Average, &bt, &mut s1), p.b(&Average, &bt, &mut s2));
        assert_eq!(t.missing_mask(5), p.missing_mask());
        assert!(!t.is_complete(5));
        assert_eq!(t.exact(5, &Average, &mut s1), None);

        t.learn(5, 1, Grade::new(0.5));
        p.learn(1, Grade::new(0.5));
        assert!(t.is_complete(5));
        assert_eq!(t.exact(5, &Average, &mut s1), p.exact(&Average, &mut s2));

        let mut known = Vec::new();
        t.known_values(5, &mut known);
        assert_eq!(
            known,
            vec![Grade::new(0.6), Grade::new(0.5), Grade::new(0.3)]
        );
    }

    #[test]
    fn reset_clears_in_o1_and_reuses_slots() {
        let mut t: RowTable<u8> = RowTable::default();
        t.reset(2);
        t.admit(0);
        t.learn(0, 1, Grade::new(0.7));
        *t.payload_mut(0) = 9;
        assert_eq!(t.live(), 1);
        t.reset(2);
        assert_eq!(t.live(), 0);
        assert!(!t.is_live(0));
        // Readmission starts from a clean mask and payload despite the
        // stale storage.
        t.admit(0);
        assert_eq!(t.payload(0), 0);
        assert!(!t.knows(0, 1));
    }

    #[test]
    fn stride_change_relays_out_the_stripes() {
        let mut t: RowTable<()> = RowTable::default();
        t.reset(2);
        t.admit(3);
        t.learn(3, 1, Grade::new(0.4));
        t.reset(4); // wider stride: storage re-derived
        t.admit(3);
        t.learn(3, 3, Grade::new(0.9));
        let mut s = Vec::new();
        assert_eq!(t.w(3, &Min, &mut s), Grade::ZERO, "three fields missing");
        t.learn(3, 0, Grade::new(0.8));
        t.learn(3, 1, Grade::new(0.7));
        t.learn(3, 2, Grade::new(0.6));
        assert_eq!(t.exact(3, &Min, &mut s), Some(Grade::new(0.6)));
    }

    #[test]
    fn missing_into_lists_unknown_fields() {
        let mut t: RowTable<()> = RowTable::default();
        t.reset(4);
        t.admit(0);
        t.learn(0, 2, Grade::new(0.5));
        let mut missing = Vec::new();
        t.missing_into(0, &mut missing);
        assert_eq!(missing, vec![0, 1, 3]);
    }

    #[test]
    fn lease_owned_and_leased_deref() {
        let mut backing: Vec<u32> = vec![1];
        let mut leased: Lease<'_, Vec<u32>> = Lease::Leased(&mut backing);
        leased.push(2);
        drop(leased);
        assert_eq!(backing, vec![1, 2]);
        let mut owned: Lease<'_, Vec<u32>> = Lease::owned();
        owned.push(7);
        assert_eq!(*owned, vec![7]);
    }
}
