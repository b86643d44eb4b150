//! The shared lower/upper-bound engine behind NRA (§8.1), CA (§8.2) and the
//! intermittent baseline (§8.4) — plus the NRA algorithm itself.
//!
//! The engine maintains, for every object seen so far, its known fields and
//! the bounds `W(R) ≤ t(R) ≤ B(R)` of Propositions 8.1/8.2, the current
//! top-`k` list `T_k` (ordered by `W`, ties broken by `B` as the paper
//! requires), and the halting test "no viable object remains outside
//! `T_k`" (an object is *viable* when `B(R) > M_k`).
//!
//! ## Dense, allocation-free bookkeeping
//!
//! The paper's cost model charges per *access*; the engine's job is to keep
//! the per-round bookkeeping sub-linear in the candidate count so that the
//! access-optimal algorithms are also wall-clock fast. Object ids are dense
//! indices, so all hot state lives in generation-stamped flat tables inside
//! a reusable [`EngineScratch`] arena (cleared in `O(1)` between runs, no
//! steady-state allocation — see `crate::arena`):
//!
//! * **candidate rows** — a [`RowTable`] replaces the historical
//!   `HashMap<ObjectId, Cand>`: a candidate lookup is two indexed loads,
//!   and each row caches its current `W` and separable score;
//! * **`T_k` carried between rounds** — `W(R)` only ever *rises* as fields
//!   are learned, so `T_k` is kept from one refresh to the next as a sorted
//!   array of at most `k` entries, and membership is a flag on the row.
//!   Each admitted row, and each row whose `W` rises, is queued once per
//!   refresh; [`refresh_selection`] folds in only the queued rows. An
//!   outsider that was not queued ranked below every member last time and
//!   still does (members only rise), so nothing else needs a look. A
//!   refresh costs `O(k)` per queued row instead of `O(k log n)` heap work
//!   every round;
//! * **stale-`B` max-heap** — `B(R)` never increases as sorted access
//!   proceeds, so a heap of *stale* upper bounds is sound: if the largest
//!   stored bound is `≤ M_k`, no outsider is viable and the run halts. Only
//!   entries that could still block halting are refreshed;
//! * **candidate eviction** — once `T_k` is full, an object with
//!   `B(R) < M_k` can never re-enter the top `k` (both quantities are
//!   monotone: `B` falls, `M_k` rises), so the engine kills its row for
//!   good (a stamped bitmap replaces the eviction `HashSet`). A dead
//!   candidate re-encountered later under sorted access is re-admitted with
//!   a *partial* record whose pseudo-bounds are still sound, so it is
//!   harmlessly re-evicted. Strict inequality keeps boundary ties
//!   (`B = M_k`) resident, which is what makes the eviction invisible to
//!   the access sequence. See [`BoundEngine::without_eviction`] for the one
//!   consumer that must opt out.
//!
//! The observable contract: every halting decision, `T_k` selection and
//! random-access choice depends only on `(W, B, τ)` *values*, which the
//! incremental structures reproduce exactly — the sequence of sorted/random
//! accesses is identical to the historical implementations (pinned by
//! `tests/engine_equivalence.rs`).
//!
//! [`refresh_selection`]: BoundEngine::refresh_selection
//! [`RowTable`]: crate::arena::RowTable
//!
//! Two bookkeeping strategies implement Remark 8.7's discussion:
//!
//! * [`BookkeepingStrategy::Exhaustive`] — faithful to the paper's
//!   statement, including `B`-based tie-breaking of the boundary `W`-group
//!   in `T_k`.
//! * [`BookkeepingStrategy::LazyHeap`] — ties at the `M_k` boundary are
//!   broken by object id instead of `B` (a documented deviation that can
//!   delay halting by a round on tied databases but never affects
//!   correctness).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use fagin_middleware::{
    AccessError, BatchConfig, Entry, EventKind, Grade, Middleware, ObjectId, SlotSet,
};

use crate::aggregation::Aggregation;
use crate::anytime::{AnytimeConfig, BestSnapshot};
use crate::arena::{Lease, RowTable, RunScratch};
use crate::bounds::Bottoms;
use crate::output::{AlgoError, HaltReason, RunMetrics, ScoredObject, TopKOutput};

use super::{validate, TopKAlgorithm};

/// How NRA/CA break ties in the `T_k` selection (Remark 8.7).
///
/// Both strategies share the incremental structures and one refresh path;
/// the names are kept because the *selection* semantics still differ
/// (faithful `B` tie-breaking vs id tie-breaking) and because the access
/// sequences of both historical implementations are pinned by tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BookkeepingStrategy {
    /// Faithful boundary tie-breaking: the `W`-tied group at the `T_k`
    /// boundary is ordered by `B` (then id), as the paper requires.
    #[default]
    Exhaustive,
    /// Boundary ties broken by object id only; never recomputes `B` during
    /// selection.
    LazyHeap,
}

/// Per-candidate cached values stored in the row table's payload: the
/// current `W(R)` (changes only when a field is learned), the
/// separable-bound score (see [`Aggregation::bound_score`]; meaningful only
/// while the engine keeps a separable index), and the row's standing in
/// the selection.
#[derive(Clone, Copy, Default)]
struct CandMeta {
    w: Grade,
    score: Grade,
    /// In `T_k` as of the last refresh.
    selected: bool,
    /// Admitted, or `W` rose, since the last refresh (see
    /// [`BoundEngine::refresh_selection`]).
    queued: bool,
}

/// Max-heap entry: a `(value, id)` snapshot ordered largest-value first;
/// ties pop the *smallest* object id first (the `Reverse`). Used for the
/// stale-`B` heaps (value = a sound upper bound on `B`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry(Grade, Reverse<ObjectId>);

/// Whether `a` precedes `b` in the selection order: `W` desc, then id asc.
#[inline]
fn ranks_before(a: (ObjectId, Grade), b: (ObjectId, Grade)) -> bool {
    (a.1, Reverse(a.0)) > (b.1, Reverse(b.0))
}

/// Incomplete candidates sharing one missing-field mask, for aggregations
/// with the separable-bound capability ([`Aggregation::bound_score`]).
/// Within a mask the bottoms restriction is common, so the score orders the
/// `B` bounds exactly; the two lazy heaps answer "largest `B`" (score
/// order) and "smallest id among `B`-ties" (id order) without touching the
/// whole group. Entries are snapshots validated against the row table on
/// pop (a member's score within a mask is fixed, grades being immutable);
/// `members` counts the live membership so empty groups can be retired to a
/// spare pool and their storage reused.
#[derive(Default)]
struct ScoreGroup {
    by_score: BinaryHeap<HeapEntry>,
    by_id: BinaryHeap<Reverse<ObjectId>>,
    members: usize,
}

impl ScoreGroup {
    /// Empties the group for reuse under a (possibly different) mask.
    fn recycle(&mut self) {
        self.by_score.clear();
        self.by_id.clear();
        self.members = 0;
    }
}

/// The current top-`k` list `T_k`. Owned by the engine's arena and carried
/// from refresh to refresh ([`BoundEngine::refresh_selection`]), so no
/// per-round allocation. Membership is the rows' `selected` flag
/// ([`EngineScratch::in_top`]).
#[derive(Default)]
pub(crate) struct Selection {
    /// `(object, W)` best-first. Length `min(k, live candidates)`. Sorted
    /// by `W` desc, then id asc — except that, under
    /// [`BookkeepingStrategy::Exhaustive`], the group tied at `M_k` is in
    /// `(B desc, id asc)` order whenever an outsider also ties `M_k`.
    pub top: Vec<(ObjectId, Grade)>,
    /// Exhaustive only: every live outsider whose `W` equals `M_k`.
    tied_out: Vec<ObjectId>,
    /// `M_k`: the `k`-th largest `W` value (worst `W` in `top` when full).
    pub m_k: Grade,
    /// Whether `top` holds `k` entries.
    pub full: bool,
}

/// Evict-scan floor: below this many live candidates a sweep isn't worth
/// scheduling (the halting check already refreshes the interesting ones).
const PRUNE_FLOOR: usize = 128;

/// All reusable storage of one [`BoundEngine`] run: the dense candidate
/// table, the lazy heaps, the separable-score groups, eviction state, the
/// carried-forward `T_k` selection and its refresh queue, and assorted
/// scan buffers. Cleared in `O(1)` (generation bumps + capacity-retaining
/// `clear`s) at the start of every run; owned by
/// [`RunScratch`](crate::arena::RunScratch).
#[derive(Default)]
pub(crate) struct EngineScratch {
    rows: RowTable<CandMeta>,
    bottoms: Bottoms,
    /// Rows to fold into `T_k` at the next refresh (see the module docs).
    queue: Vec<ObjectId>,
    /// Stale-but-sound upper bounds on `B`, ≥ 1 entry per live candidate.
    b_heap: BinaryHeap<HeapEntry>,
    /// CA only, generic aggregations: stale `B` bounds over incomplete
    /// candidates (may carry duplicates for re-admitted objects; cleaned
    /// lazily).
    incomplete: BinaryHeap<HeapEntry>,
    /// CA only, separable aggregations: per-missing-mask score index.
    groups: HashMap<u64, ScoreGroup>,
    /// Retired group storage, reused for newly occupied masks.
    spare_groups: Vec<ScoreGroup>,
    /// Ids of currently-evicted objects (so re-admission doesn't recount
    /// them in `seen`).
    evicted_ids: SlotSet,
    /// Every eviction event, in order (ids may repeat if re-admitted and
    /// re-evicted). Surfaced as [`RunMetrics::evicted`].
    evicted_log: Vec<ObjectId>,
    sel: Selection,
    /// Exhaustive only: the rows a refresh left outside `T_k` — leavers
    /// and queued outsiders that did not get in.
    dropped: Vec<ObjectId>,
    parked: Vec<HeapEntry>,
    tied: Vec<(ObjectId, Grade)>,
    mask_keys: Vec<u64>,
    tied_masks: Vec<(u64, Grade)>,
    popped_scores: Vec<HeapEntry>,
    popped_ids: Vec<Reverse<ObjectId>>,
    dead: Vec<ObjectId>,
    scratch: Vec<Grade>,
}

impl EngineScratch {
    /// Rewinds every structure for a fresh run over `m` lists.
    fn reset(&mut self, m: usize) {
        self.rows.reset(m);
        self.bottoms.reset(m);
        self.queue.clear();
        self.b_heap.clear();
        self.incomplete.clear();
        // Group storage parks in the spare pool rather than dropping.
        let spare = &mut self.spare_groups;
        for (_, mut g) in self.groups.drain() {
            g.recycle();
            spare.push(g);
        }
        self.evicted_ids.reset();
        self.evicted_log.clear();
        self.sel.top.clear();
        self.sel.tied_out.clear();
        self.sel.m_k = Grade::ZERO;
        self.sel.full = false;
        self.dropped.clear();
        self.parked.clear();
        self.tied.clear();
        self.mask_keys.clear();
        self.tied_masks.clear();
        self.popped_scores.clear();
        self.popped_ids.clear();
        self.dead.clear();
        self.scratch.clear();
    }

    /// Whether live candidate `object` is in `T_k`.
    #[inline]
    fn in_top(&self, object: ObjectId) -> bool {
        self.rows.payload(object.index()).selected
    }

    /// Queues live candidate `object` for the next refresh, once.
    fn enqueue(&mut self, object: ObjectId) {
        let meta = self.rows.payload_mut(object.index());
        if !meta.queued {
            meta.queued = true;
            self.queue.push(object);
        }
    }
}

/// Shared NRA/CA state machine.
pub(crate) struct BoundEngine<'a> {
    agg: &'a dyn Aggregation,
    s: Lease<'a, EngineScratch>,
    k: usize,
    strategy: BookkeepingStrategy,
    /// Permanently drop candidates with `B < M_k` (on by default; the
    /// intermittent baseline must opt out, see [`Self::without_eviction`]).
    evict: bool,
    /// Maintain the incomplete-candidate index for
    /// [`Self::best_viable_incomplete`] (CA only).
    track_incomplete: bool,
    /// Whether the aggregation advertises the separable-bound capability.
    separable: bool,
    /// Approximation factor θ ≥ 1 (§6.2 extended to NRA/CA): the halting
    /// comparisons treat an outsider bound `x` as still viable only when
    /// `x > θ·M_k`. Eviction and pruning keep the *exact* rule (`B < M_k`)
    /// — dropping a candidate must stay invisible to the access sequence
    /// regardless of θ, and a θ-halt only ever fires earlier.
    theta: f64,
    /// Distinct objects ever seen — what the candidate count used to mean
    /// before eviction existed; the halting test's "whole database seen"
    /// checks depend on it.
    seen: usize,
    /// Next live-candidate count at which to sweep the heap for dead
    /// entries (doubling schedule → amortized `O(1)` per insertion).
    prune_watermark: usize,
    pub(crate) peak_candidates: usize,
    pub(crate) bound_recomputations: u64,
}

impl<'a> BoundEngine<'a> {
    /// An engine leasing the caller's reusable arena.
    pub(crate) fn new_in(
        agg: &'a dyn Aggregation,
        m: usize,
        k: usize,
        strategy: BookkeepingStrategy,
        scratch: &'a mut EngineScratch,
    ) -> Self {
        Self::with_lease(agg, m, k, strategy, Lease::Leased(scratch))
    }

    fn with_lease(
        agg: &'a dyn Aggregation,
        m: usize,
        k: usize,
        strategy: BookkeepingStrategy,
        mut s: Lease<'a, EngineScratch>,
    ) -> Self {
        s.reset(m);
        BoundEngine {
            agg,
            s,
            k,
            strategy,
            evict: true,
            track_incomplete: false,
            separable: false,
            theta: 1.0,
            seen: 0,
            prune_watermark: 0,
            peak_candidates: 0,
            bound_recomputations: 0,
        }
    }

    /// Disables candidate eviction. Required by the intermittent baseline,
    /// which performs random accesses in TA's sighting order regardless of
    /// viability: evicting a dead candidate would forget which fields it
    /// already resolved and change the (deliberately wasteful) access
    /// sequence the strawman is defined by. NRA/CA only ever probe viable
    /// objects, which eviction provably never touches.
    pub(crate) fn without_eviction(mut self) -> Self {
        self.evict = false;
        self
    }

    /// Relaxes the halting test to the θ-approximate rule: halt once
    /// `θ·M_k ≥ B` for every object outside `T_k` (then every unselected
    /// `z` has `θ·t(y) ≥ θ·M_k ≥ B(z) ≥ t(z)` for each selected `y`). At
    /// θ = 1 the comparison stays the exact `Grade` order — bit-identical
    /// to the pinned historical behavior, no float multiply on that path.
    pub(crate) fn with_theta(mut self, theta: f64) -> Self {
        debug_assert!(
            theta.is_finite() && theta >= 1.0,
            "theta must be finite and at least 1"
        );
        self.theta = theta;
        self
    }

    /// The relaxed viability comparison: whether `x` exceeds `θ·m_k`.
    #[inline]
    fn exceeds_relaxed(theta: f64, x: Grade, m_k: Grade) -> bool {
        if theta <= 1.0 {
            x > m_k
        } else {
            x.value() > theta * m_k.value()
        }
    }

    /// Enables the incomplete-candidate index behind
    /// [`Self::best_viable_incomplete`] (CA's random-access target choice).
    /// Aggregations advertising [`Aggregation::bound_score`] get the exact
    /// separable index; the rest get the lazy stale-bound heap.
    pub(crate) fn tracking_incomplete(mut self) -> Self {
        self.track_incomplete = true;
        self.separable = self.agg.bound_score(&[Grade::ZERO]).is_some();
        self
    }

    /// The eviction log so far: every object dropped by the viability rule,
    /// in eviction order. Copied into [`RunMetrics::evicted`] at finish.
    pub(crate) fn evictions(&self) -> &[ObjectId] {
        &self.s.evicted_log
    }

    /// The current threshold value `τ = t(x̱₁,…,x̱_m)` — the `B` bound of
    /// every unseen object.
    pub(crate) fn threshold(&mut self) -> Grade {
        let s = &mut *self.s;
        s.bottoms.threshold(self.agg, &mut s.scratch)
    }

    /// Ingests one sorted-access result.
    pub(crate) fn observe_sorted(&mut self, list: usize, entry: Entry) {
        self.s.bottoms.observe(list, entry.grade);
        self.learn(entry.object, list, entry.grade);
    }

    /// Ingests one batch of sorted-access results from `list`, in order.
    ///
    /// Equivalent to calling [`BoundEngine::observe_sorted`] per entry —
    /// the engine's bounds depend only on the set of observations, so batch
    /// ingestion cannot change any `W`/`B` value; the batching win is in
    /// the middleware call that produced `entries`, not here.
    pub(crate) fn observe_sorted_batch(&mut self, list: usize, entries: &[Entry]) {
        for &entry in entries {
            self.observe_sorted(list, entry);
        }
    }

    /// Ingests one random-access result (the object must already be seen —
    /// NRA-family algorithms never wild-guess).
    pub(crate) fn learn_random(&mut self, object: ObjectId, list: usize, grade: Grade) {
        debug_assert!(self.s.rows.is_live(object.index()), "no wild guesses");
        self.learn(object, list, grade);
    }

    fn learn(&mut self, object: ObjectId, list: usize, grade: Grade) {
        let idx = object.index();
        let s = &mut *self.s;
        if s.rows.is_live(idx) {
            let old_mask = s.rows.missing_mask(idx);
            if !s.rows.learn(idx, list, grade) {
                return;
            }
            let old_w = s.rows.payload(idx).w;
            let new_w = s.rows.w(idx, self.agg, &mut s.scratch);
            self.bound_recomputations += 1;
            if new_w != old_w {
                s.rows.payload_mut(idx).w = new_w;
                s.enqueue(object);
            }
            if self.separable {
                Self::group_remove(s, old_mask);
                if !s.rows.is_complete(idx) {
                    Self::group_insert(s, self.agg, object);
                }
            }
            return;
        }

        // First sighting (or re-admission after eviction): build the row
        // and snapshot it into every index.
        s.rows.admit(idx);
        s.rows.learn(idx, list, grade);
        let w = s.rows.w(idx, self.agg, &mut s.scratch);
        let b = s.rows.b(idx, self.agg, &s.bottoms, &mut s.scratch);
        self.bound_recomputations += 2;
        s.rows.payload_mut(idx).w = w;
        s.enqueue(object);
        s.b_heap.push(HeapEntry(b, Reverse(object)));
        if self.track_incomplete && !s.rows.is_complete(idx) {
            if self.separable {
                Self::group_insert(s, self.agg, object);
            } else {
                s.incomplete.push(HeapEntry(b, Reverse(object)));
            }
        }
        if !s.evicted_ids.remove(idx) {
            self.seen += 1;
        }
        self.peak_candidates = self.peak_candidates.max(s.rows.live());
    }

    /// Files a live incomplete candidate in its separable-bound group,
    /// caching the freshly computed score.
    fn group_insert(s: &mut EngineScratch, agg: &dyn Aggregation, object: ObjectId) {
        let idx = object.index();
        s.scratch.clear();
        s.rows.known_values(idx, &mut s.scratch);
        let score = agg.bound_score(&s.scratch).expect("probed at construction");
        s.rows.payload_mut(idx).score = score;
        let mask = s.rows.missing_mask(idx);
        let spare = &mut s.spare_groups;
        let group = s
            .groups
            .entry(mask)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        group.members += 1;
        group.by_score.push(HeapEntry(score, Reverse(object)));
        group.by_id.push(Reverse(object));
    }

    /// Unfiles a member from its mask group. Heap entries are left behind
    /// (they invalidate by value); empty groups retire their storage to
    /// the spare pool so queries only ever visit occupied masks.
    fn group_remove(s: &mut EngineScratch, mask: u64) {
        let group = s.groups.get_mut(&mask).expect("member's group exists");
        group.members -= 1;
        if group.members == 0 {
            let mut g = s.groups.remove(&mask).expect("group present");
            g.recycle();
            s.spare_groups.push(g);
        }
    }

    /// Whether `object` is currently a live member of the group for `mask`
    /// (the value-based validity test for group heap snapshots).
    #[inline]
    fn is_member(s: &EngineScratch, mask: u64, object: ObjectId) -> bool {
        let idx = object.index();
        s.rows.is_live(idx) && !s.rows.is_complete(idx) && s.rows.missing_mask(idx) == mask
    }

    fn b_of(&mut self, object: ObjectId) -> Grade {
        self.bound_recomputations += 1;
        let s = &mut *self.s;
        s.rows
            .b(object.index(), self.agg, &s.bottoms, &mut s.scratch)
    }

    /// Whether every field of `object` is known.
    pub(crate) fn is_complete(&self, object: ObjectId) -> bool {
        self.s.rows.is_complete(object.index())
    }

    /// Appends the missing fields of `object` to `out`.
    pub(crate) fn missing_fields_into(&self, object: ObjectId, out: &mut Vec<usize>) {
        out.clear();
        self.s.rows.missing_into(object.index(), out);
    }

    /// Brings `T_k` up to date (paper: largest `W`, ties by larger `B`,
    /// then by smaller object id for determinism) by folding in only the
    /// rows queued since the last refresh, members first:
    ///
    /// * a queued member's `W` rose, so it moves up in place;
    /// * a queued outsider enters only if it beats the last entry, which
    ///   then leaves (under [`BookkeepingStrategy::Exhaustive`], "beats"
    ///   means a strictly larger `W`: ties at the boundary are settled by
    ///   the `B` re-rank below).
    ///
    /// This is exact: an outsider that was not queued ranked below every
    /// member at the last refresh, members' `W` only rise, and members are
    /// never evicted (`B ≥ W ≥ M_k`, while eviction needs `B < M_k`), so
    /// the new `T_k` lies inside the old `T_k` plus the queued rows. Under
    /// Exhaustive, [`Self::rerank_boundary`] then re-ranks the group tied
    /// at `M_k` by `B` whenever an outsider is on it.
    pub(crate) fn refresh_selection(&mut self) {
        let exhaustive = self.strategy == BookkeepingStrategy::Exhaustive;
        let old_m_k = self.s.sel.m_k;
        let s = &mut *self.s;
        let k_eff = self.k.min(s.rows.live().max(1));
        let mut queue = std::mem::take(&mut s.queue);
        // Members first: then a row leaves T_k at most once per refresh,
        // with its final W, and never comes back in the same refresh.
        for &o in &queue {
            let idx = o.index();
            if !s.rows.is_live(idx) {
                continue;
            }
            let meta = s.rows.payload_mut(idx);
            if !(meta.queued && meta.selected) {
                continue;
            }
            meta.queued = false;
            let w = meta.w;
            let top = &mut s.sel.top;
            let at = top
                .iter()
                .position(|&(x, _)| x == o)
                .expect("a selected row is in T_k");
            let to = top[..at].partition_point(|&e| ranks_before(e, (o, w)));
            top[to..=at].rotate_right(1);
            top[to] = (o, w);
        }
        for &o in &queue {
            let idx = o.index();
            if !s.rows.is_live(idx) {
                continue;
            }
            let meta = s.rows.payload_mut(idx);
            if !meta.queued {
                continue;
            }
            meta.queued = false;
            let w = meta.w;
            if let Some(&last) = s.sel.top.last().filter(|_| s.sel.top.len() == k_eff) {
                let enters = if exhaustive {
                    w > last.1
                } else {
                    ranks_before((o, w), last)
                };
                if !enters {
                    if exhaustive {
                        s.dropped.push(o);
                    }
                    continue;
                }
                s.sel.top.pop();
                s.rows.payload_mut(last.0.index()).selected = false;
                if exhaustive {
                    s.dropped.push(last.0);
                }
            }
            let at = s.sel.top.partition_point(|&e| ranks_before(e, (o, w)));
            s.sel.top.insert(at, (o, w));
            s.rows.payload_mut(idx).selected = true;
        }
        queue.clear();
        s.queue = queue;

        if exhaustive {
            self.rerank_boundary(old_m_k);
        }
        let s = &mut *self.s;
        s.sel.full = s.sel.top.len() == self.k;
        s.sel.m_k = s.sel.top.last().map_or(Grade::ZERO, |&(_, w)| w);
    }

    /// Exhaustive boundary handling: when a live outsider ties the last
    /// entry's `W`, the whole tied group — the members at that `W` plus
    /// those outsiders — is re-ranked by `(B desc, id asc)`, and the losers
    /// are kept in `tied_out` for the next refresh.
    ///
    /// The tied outsiders are known without a scan. If `M_k` held still,
    /// they are the kept `tied_out` (less any row that entered `T_k`) plus
    /// this refresh's leavers and rejected entrants at `M_k`. If `M_k`
    /// rose, the kept ones fell below it, and only this refresh's leavers
    /// and rejected entrants can tie the new value.
    fn rerank_boundary(&mut self, old_m_k: Grade) {
        let s = &mut *self.s;
        let Some(&(_, wk)) = s.sel.top.last() else {
            return; // nothing seen yet
        };
        let mut tied_out = std::mem::take(&mut s.sel.tied_out);
        if wk == old_m_k {
            tied_out.retain(|&o| !s.in_top(o));
        } else {
            tied_out.clear();
        }
        let rows = &s.rows;
        tied_out.extend(
            s.dropped
                .drain(..)
                .filter(|&o| rows.payload(o.index()).w == wk),
        );
        let start = s.sel.top.partition_point(|&(_, w)| w > wk);
        if tied_out.is_empty() {
            // Ties cannot just vanish: while M_k holds, each entrant pushes
            // a member at M_k out. So a B-ranked group lasts only while an
            // outsider ties it, and without one the group is in id order.
            debug_assert!(s.sel.top[start..].is_sorted_by_key(|&(o, _)| o));
            s.sel.tied_out = tied_out;
            return;
        }

        let slots = s.sel.top.len() - start;
        let mut tied = std::mem::take(&mut s.tied);
        tied.clear();
        tied.extend(s.sel.top.drain(start..));
        tied.extend(tied_out.iter().map(|&o| (o, wk)));
        for slot in tied.iter_mut() {
            slot.1 = self.b_of(slot.0);
        }
        tied.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let s = &mut *self.s;
        tied_out.clear();
        for (rank, &(o, _)) in tied.iter().enumerate() {
            let wins = rank < slots;
            s.rows.payload_mut(o.index()).selected = wins;
            if wins {
                s.sel.top.push((o, wk));
            } else {
                tied_out.push(o);
            }
        }
        tied.clear();
        s.tied = tied;
        s.sel.tied_out = tied_out;
    }

    /// The halting test against the current selection: `T_k` is full (or
    /// the whole database has been seen) and no viable object remains
    /// outside it — including unseen objects, whose `B` equals the
    /// threshold `τ`. Under θ > 1 ([`Self::with_theta`]) "viable" means
    /// `B > θ·M_k`, so the test can only fire earlier, never later.
    ///
    /// Identical in outcome to recomputing every candidate's `B`: stored
    /// heap bounds only ever *over*-estimate, so any genuinely viable
    /// outsider is found, and a max stored bound `≤ θ·M_k` proves none
    /// exists.
    pub(crate) fn check_halt(&mut self, num_objects: usize) -> bool {
        let k_eff = self.k.min(num_objects);
        if self.seen < k_eff {
            return false;
        }
        let (full, m_k) = (self.s.sel.full, self.s.sel.m_k);
        if !full && self.seen < num_objects {
            return false;
        }
        // Unseen objects are viable iff τ > θ·M_k.
        if self.seen < num_objects {
            let tau = self.threshold();
            if Self::exceeds_relaxed(self.theta, tau, m_k) {
                return false;
            }
        }
        self.maybe_prune();

        let mut parked = std::mem::take(&mut self.s.parked);
        let halted = loop {
            let top0 = {
                let s = &*self.s;
                match s.b_heap.peek() {
                    None => break true,
                    Some(top) => top.0,
                }
            };
            if !Self::exceeds_relaxed(self.theta, top0, m_k) {
                break true;
            }
            let HeapEntry(_, Reverse(object)) = self.s.b_heap.pop().expect("peeked");
            if !self.s.rows.is_live(object.index()) {
                continue; // entry for an evicted object: drop for good
            }
            let b = self.b_of(object);
            if self.s.in_top(object) {
                // T_k members may stay viable; park so we can inspect the
                // rest, reinsert afterwards.
                parked.push(HeapEntry(b, Reverse(object)));
                continue;
            }
            if Self::exceeds_relaxed(self.theta, b, m_k) {
                parked.push(HeapEntry(b, Reverse(object)));
                break false;
            }
            if self.evict && full && b < m_k {
                // Viability rule: B(R) < M_k with T_k full ⇒ R can never
                // enter the top k (B falls, M_k rises). Drop it for good.
                self.evict_now(object);
            } else {
                // Refreshed to b ≤ θ·M_k (but not evictably below M_k):
                // re-file; cannot re-pop this round.
                self.s.b_heap.push(HeapEntry(b, Reverse(object)));
            }
        };
        let s = &mut *self.s;
        s.b_heap.extend(parked.drain(..));
        s.parked = parked;
        halted
    }

    /// The *achieved* approximation guarantee `θ̂` of the current
    /// selection: the smallest factor for which every selected `y` and
    /// unselected `z` satisfy `θ̂·t(y) ≥ t(z)`, computed from the live
    /// bounds as `B_max / M_k` (clamped to ≥ 1). Selected objects have
    /// `t ≥ W ≥ M_k`; unseen objects contribute the threshold `τ`; evicted
    /// objects had `B < M_k` and are covered for free. `B_max`, the exact
    /// largest `B` over live outsiders and `τ`, is found in the first of
    /// these ways that applies; each gives the same value, so `θ̂` never
    /// depends on the path:
    ///
    /// * **`M_k = 0` with `τ > 0`**: `B_max ≥ τ > 0 = M_k` already rules a
    ///   certificate out; no bound is evaluated. (Under Min, `W = 0` until
    ///   a candidate is complete, so this is every round before `k`
    ///   objects are fully seen.)
    /// * **Stale-`B` heap top `≤ τ`**: stored bounds over-estimate every
    ///   live candidate's `B`, so `B_max = τ`; no bound is evaluated.
    /// * **Separable index** (CA with Min/Max, see
    ///   [`Self::tracking_incomplete`]): one exact `B` evaluation per
    ///   occupied missing-mask group, on the best-scored member outside
    ///   `T_k` ([`Self::group_maxima`]). Complete outsiders are skipped:
    ///   their `B = W ≤ M_k` cannot lift the ratio above 1.
    /// * **Otherwise**: a lazy drain of the stale-`B` heap
    ///   ([`Self::drain_outsider_max`]), mirroring
    ///   [`Self::best_viable_incomplete`]: `O(candidates above τ)` bound
    ///   evaluations in the worst round.
    ///
    /// `None` when the state cannot certify yet: the selection is not full
    /// while unseen objects remain, or `M_k = 0` with a non-zero outsider
    /// bound. Performs no middleware accesses — certificates are pure
    /// bookkeeping, so probing one at a round boundary cannot perturb the
    /// pinned access sequences.
    pub(crate) fn certificate(&mut self, num_objects: usize) -> Option<f64> {
        if self.s.sel.top.is_empty() || (!self.s.sel.full && self.seen < num_objects) {
            return None;
        }
        let m_k = self.s.sel.m_k;
        let floor = if self.seen < num_objects {
            self.threshold()
        } else {
            Grade::ZERO
        };
        if m_k == Grade::ZERO && floor > Grade::ZERO {
            return None;
        }
        let max_outside = if self.s.b_heap.peek().is_none_or(|top| top.0 <= floor) {
            floor
        } else if self.separable {
            self.group_maxima(true).map_or(floor, |b| b.max(floor))
        } else {
            self.drain_outsider_max(floor)
        };
        if m_k == Grade::ZERO {
            return (max_outside == Grade::ZERO).then_some(1.0);
        }
        Some(crate::anytime::certified_ratio(
            max_outside.value(),
            m_k.value(),
        ))
    }

    /// The exact largest `B` over live outsiders of `T_k`, or `floor` if
    /// none exceeds it: pops the stale-`B` heap while its top is above the
    /// running maximum and refreshes each live outsider; the first refresh
    /// that confirms its stored bound is the maximum (stored bounds only
    /// over-estimate). `T_k` members are parked and re-filed afterwards.
    fn drain_outsider_max(&mut self, floor: Grade) -> Grade {
        let mut max_outside = floor;
        let mut parked = std::mem::take(&mut self.s.parked);
        loop {
            let HeapEntry(key, Reverse(object)) = {
                let s = &*self.s;
                match s.b_heap.peek() {
                    None => break,
                    Some(&top) => top,
                }
            };
            if key <= max_outside {
                break; // stored bounds over-estimate: no outsider beats it
            }
            self.s.b_heap.pop();
            if !self.s.rows.is_live(object.index()) {
                continue; // entry for an evicted object: drop for good
            }
            let b = self.b_of(object);
            if self.s.in_top(object) {
                // T_k members are not outsiders; park, reinsert at the end.
                parked.push(HeapEntry(b, Reverse(object)));
                continue;
            }
            self.s.b_heap.push(HeapEntry(b, Reverse(object)));
            if b == key {
                // The refresh confirmed the heap max: exact outsider max.
                max_outside = b;
                break;
            }
        }
        let s = &mut *self.s;
        s.b_heap.extend(parked.drain(..));
        s.parked = parked;
        max_outside
    }

    /// Permanently drops a candidate that the viability rule proved dead.
    /// Index snapshots are left to invalidate by value.
    fn evict_now(&mut self, object: ObjectId) {
        let idx = object.index();
        let s = &mut *self.s;
        debug_assert!(s.rows.is_live(idx), "evicting a live candidate");
        debug_assert!(!s.in_top(object), "T_k members are never evicted");
        if self.separable && !s.rows.is_complete(idx) {
            let mask = s.rows.missing_mask(idx);
            Self::group_remove(s, mask);
        }
        s.rows.kill(idx);
        s.evicted_ids.mark(idx);
        s.evicted_log.push(object);
    }

    /// Periodic sweep: every heap entry whose *stale* bound is already
    /// below `M_k` is provably dead (true `B` ≤ stored bound), so the whole
    /// candidate row can go. Runs on a doubling watermark so the total
    /// sweep cost stays linear in insertions, keeping `peak_candidates`
    /// within a small factor of the live viable set.
    fn maybe_prune(&mut self) {
        let live = self.s.rows.live();
        if !self.evict || !self.s.sel.full || live < PRUNE_FLOOR.max(self.prune_watermark) {
            return;
        }
        let m_k = self.s.sel.m_k;
        {
            let EngineScratch {
                b_heap, rows, dead, ..
            } = &mut *self.s;
            dead.clear();
            b_heap.retain(|&HeapEntry(bound, Reverse(object))| {
                if !rows.is_live(object.index()) {
                    return false;
                }
                if bound < m_k {
                    dead.push(object);
                    return false;
                }
                true
            });
        }
        let mut dead = std::mem::take(&mut self.s.dead);
        dead.sort_unstable();
        for &object in &dead {
            // A re-admitted candidate can own several heap snapshots; the
            // first kill below the bar suffices.
            if self.s.rows.is_live(object.index()) {
                self.evict_now(object);
            }
        }
        dead.clear();
        self.s.dead = dead;
        if self.track_incomplete && !self.separable {
            // The stale incomplete heap accumulates dead entries; the
            // separable index is exact and was already updated by the
            // evictions above.
            let EngineScratch {
                incomplete, rows, ..
            } = &mut *self.s;
            incomplete.retain(|e| {
                let idx = e.1 .0.index();
                rows.is_live(idx) && !rows.is_complete(idx)
            });
        }
        self.prune_watermark = 2 * self.s.rows.live();
    }

    /// CA's random-access choice (§8.2 step 2): among seen objects with
    /// missing fields that are viable (`B > M_k`; every object is viable
    /// while `T_k` is not yet full), the one with the largest `B`
    /// (deterministic tie-break: smaller id). `None` triggers the escape
    /// clause.
    ///
    /// Resolved lazily off the incomplete-candidate heap: pop the largest
    /// stale bound, refresh it, and re-file; the first entry whose refresh
    /// confirms its stored bound is the exact `(B desc, id asc)` maximum
    /// (ties pop smallest-id first by the heap order).
    pub(crate) fn best_viable_incomplete(&mut self) -> Option<ObjectId> {
        debug_assert!(self.track_incomplete, "enable via tracking_incomplete()");
        if self.separable {
            return self.best_viable_separable();
        }
        let (full, m_k) = (self.s.sel.full, self.s.sel.m_k);
        loop {
            let (key, object) = {
                let top = self.s.incomplete.peek()?;
                (top.0, top.1 .0)
            };
            if full && key <= m_k {
                // Stored bounds over-estimate: nothing incomplete is viable.
                return None;
            }
            self.s.incomplete.pop();
            let idx = object.index();
            let live_incomplete = self.s.rows.is_live(idx) && !self.s.rows.is_complete(idx);
            if !live_incomplete {
                continue; // completed or evicted: drop the entry for good
            }
            let b = self.b_of(object);
            self.s.incomplete.push(HeapEntry(b, Reverse(object)));
            if b == key {
                return Some(object);
            }
        }
    }

    /// Separable-bound variant of [`Self::best_viable_incomplete`]: one
    /// exact `B` evaluation per occupied missing-mask group (each group's
    /// score leader attains the group's largest `B`), then a dual scan of
    /// the tied groups for the smallest id among `B`-ties. Within a group
    /// the `B == B_max` members form a prefix of the score order, so the
    /// scan alternates score-descending (enumerate the tie plateau) with
    /// id-ascending (probe for an early small-id tie) and stops at
    /// whichever concludes first.
    fn best_viable_separable(&mut self) -> Option<ObjectId> {
        let b_max = self.group_maxima(false)?;
        let (full, m_k) = (self.s.sel.full, self.s.sel.m_k);
        if full && b_max <= m_k {
            return None;
        }
        let mut tied_masks = std::mem::take(&mut self.s.tied_masks);
        let mut winner: Option<ObjectId> = None;
        for &(mask, b) in &tied_masks {
            if b != b_max {
                continue;
            }
            let mut group = self.s.groups.remove(&mask).expect("tied group exists");
            let local = self.min_id_at_bound(&mut group, mask, b_max);
            self.s.groups.insert(mask, group);
            winner = Some(winner.map_or(local, |w: ObjectId| w.min(local)));
        }
        tied_masks.clear();
        self.s.tied_masks = tied_masks;
        winner
    }

    /// The largest `B` of each occupied missing-mask group, one exact
    /// evaluation per group on its [`Self::group_leader`], skipping `T_k`
    /// members when `outsiders_only`. Leaves `(mask, B)` per evaluated
    /// group in `tied_masks` and returns the overall maximum (`None` when
    /// no group has a member to evaluate).
    fn group_maxima(&mut self, outsiders_only: bool) -> Option<Grade> {
        let mut mask_keys = std::mem::take(&mut self.s.mask_keys);
        mask_keys.clear();
        self.s.tied_masks.clear();
        mask_keys.extend(self.s.groups.keys().copied());
        let mut b_max: Option<Grade> = None;
        for &mask in &mask_keys {
            // Detach the group so the scans can refresh bounds through
            // `&mut self`; reattach when done.
            let mut group = self.s.groups.remove(&mask).expect("occupied mask");
            let leader = self.group_leader(&mut group, mask, outsiders_only);
            self.s.groups.insert(mask, group);
            if let Some(leader) = leader {
                let b = self.b_of(leader);
                self.s.tied_masks.push((mask, b));
                b_max = Some(b_max.map_or(b, |x: Grade| x.max(b)));
            }
        }
        mask_keys.clear();
        self.s.mask_keys = mask_keys;
        b_max
    }

    /// The group's score leader (largest score, smallest id among ties),
    /// passing over `T_k` members when `outsiders_only`: the member
    /// attaining the largest `B` among those considered. Pops invalidated
    /// snapshots for good and re-files the passed-over ones; every member
    /// keeps a valid snapshot, so the leader is `None` only when every
    /// member is in `T_k`.
    fn group_leader(
        &mut self,
        group: &mut ScoreGroup,
        mask: u64,
        outsiders_only: bool,
    ) -> Option<ObjectId> {
        let mut passed = std::mem::take(&mut self.s.popped_scores);
        passed.clear();
        let leader = loop {
            let Some(&HeapEntry(score, Reverse(o))) = group.by_score.peek() else {
                break None;
            };
            let valid =
                Self::is_member(&self.s, mask, o) && self.s.rows.payload(o.index()).score == score;
            if valid && !(outsiders_only && self.s.in_top(o)) {
                break Some(o);
            }
            let entry = group.by_score.pop().expect("peeked");
            if valid {
                passed.push(entry); // a T_k member: re-filed below
            }
        };
        debug_assert!(
            leader.is_some() || outsiders_only,
            "occupied group has a valid snapshot"
        );
        group.by_score.extend(passed.drain(..));
        self.s.popped_scores = passed;
        leader
    }

    /// Smallest id in `group` whose current `B` equals `b_max` (the group
    /// leader's bound, so at least one member qualifies). The dual scan
    /// pops lazily-validated snapshots from both heaps and re-files every
    /// surviving one.
    fn min_id_at_bound(&mut self, group: &mut ScoreGroup, mask: u64, b_max: Grade) -> ObjectId {
        let mut popped_scores = std::mem::take(&mut self.s.popped_scores);
        let mut popped_ids = std::mem::take(&mut self.s.popped_ids);
        popped_scores.clear();
        popped_ids.clear();
        let mut last_id: Option<ObjectId> = None;
        let mut last_score: Option<(Grade, ObjectId)> = None;
        let mut plateau_min: Option<ObjectId> = None;
        let winner = loop {
            // Ids are scanned in ascending order: the first member whose
            // refreshed B ties b_max wins outright.
            let next_id = loop {
                match group.by_id.pop() {
                    None => break None,
                    Some(Reverse(o)) => {
                        if Self::is_member(&self.s, mask, o) && last_id != Some(o) {
                            break Some(o);
                        }
                        // Dead/foreign/duplicate snapshot: drop for good.
                    }
                }
            };
            if let Some(o) = next_id {
                popped_ids.push(Reverse(o));
                last_id = Some(o);
                if self.b_of(o) == b_max {
                    break o;
                }
            }
            // Score-descending scan enumerates the tie plateau (a prefix
            // of the score order).
            let next_score = loop {
                match group.by_score.pop() {
                    None => break None,
                    Some(HeapEntry(score, Reverse(o))) => {
                        let member = Self::is_member(&self.s, mask, o)
                            && self.s.rows.payload(o.index()).score == score;
                        if member && last_score != Some((score, o)) {
                            break Some((score, o));
                        }
                    }
                }
            };
            match next_score {
                Some((score, o)) => {
                    popped_scores.push(HeapEntry(score, Reverse(o)));
                    last_score = Some((score, o));
                    if self.b_of(o) == b_max {
                        plateau_min = Some(plateau_min.map_or(o, |p: ObjectId| p.min(o)));
                    } else {
                        // A below-max bound ends the plateau (bounds fall
                        // weakly along the score order, so ties form a
                        // prefix).
                        break plateau_min.expect("group leader ties b_max");
                    }
                }
                // An exhausted group means the whole group was the plateau.
                None => break plateau_min.expect("group leader ties b_max"),
            }
        };
        group.by_id.extend(popped_ids.drain(..));
        group.by_score.extend(popped_scores.drain(..));
        self.s.popped_scores = popped_scores;
        self.s.popped_ids = popped_ids;
        winner
    }

    /// Renders the current selection as output items: grades are attached
    /// when free (all fields known), per §8.1's weakened output
    /// requirement.
    pub(crate) fn output_items(&mut self) -> Vec<ScoredObject> {
        let s = &mut *self.s;
        let mut items = Vec::with_capacity(s.sel.top.len());
        for i in 0..s.sel.top.len() {
            let (object, _) = s.sel.top[i];
            let grade = s.rows.exact(object.index(), self.agg, &mut s.scratch);
            items.push(ScoredObject { object, grade });
        }
        items
    }
}

/// The No-Random-Access algorithm (§8.1).
///
/// Performs sorted access in parallel, maintains `W`/`B` bounds, and halts
/// when no object outside the current top-`k` could still beat it. Returns
/// the top-`k` **objects**; grades are attached only when they happen to be
/// fully determined (the paper deliberately does not require grades —
/// Example 8.3 shows demanding them can cost `Θ(N)` extra).
///
/// The drive loop is round-based: each round consumes one batch of sorted
/// accesses per unexhausted list ([`Nra::with_batch`]; one entry with the
/// default scalar batch, reproducing the paper exactly) and runs the
/// halting test once per round.
///
/// [`Nra::with_theta`] gives the θ-approximate variant (§6.2 extended to
/// NRA): the relaxed halting rule fires no later than the exact one, so a
/// θ-NRA run's access counts never exceed its exact counterpart's.
#[derive(Clone, Copy, Debug)]
pub struct Nra {
    strategy: BookkeepingStrategy,
    batch: BatchConfig,
    theta: f64,
}

impl Default for Nra {
    fn default() -> Self {
        Self::new()
    }
}

impl Nra {
    /// NRA with the faithful exhaustive bookkeeping.
    pub fn new() -> Self {
        Nra {
            strategy: BookkeepingStrategy::Exhaustive,
            batch: BatchConfig::scalar(),
            theta: 1.0,
        }
    }

    /// NRA with the chosen bookkeeping strategy.
    pub fn with_strategy(strategy: BookkeepingStrategy) -> Self {
        Nra {
            strategy,
            ..Self::new()
        }
    }

    /// Sets the batched access configuration (batch size 1, the default,
    /// is the paper's exact access-by-access execution; size `b` can
    /// overshoot halting by at most `b − 1` sorted accesses per list).
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Convenience for [`Nra::with_batch`]`(BatchConfig::new(size))`.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn batched(self, size: usize) -> Self {
        self.with_batch(BatchConfig::new(size))
    }

    /// The θ-approximate variant: halts once `θ·M_k ≥ B` for every object
    /// outside the selection, certifying a θ-approximation at a fraction
    /// of the exact access cost. θ = 1 (the default) is exact NRA.
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
}

impl Nra {
    /// The shared drive loop behind [`Nra::run_with`] (no interruption)
    /// and [`Nra::run_anytime`].
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
        let mut engine =
            BoundEngine::new_in(agg, m, k, self.strategy, engine_scratch).with_theta(self.theta);
        let mut rounds = 0u64;
        let mut best = BestSnapshot::default();
        let mut halt = HaltReason::Converged;
        let mut evictions_traced = 0usize;

        loop {
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
                        // The list's backing source died. Freezing the list
                        // at its last-seen grade keeps τ and every B bound
                        // sound (unseen grades there are ≤ the frozen
                        // bottom), so the run continues on the survivors;
                        // `lost` keeps this from masquerading as
                        // exhaustion-by-complete-information below.
                        *done = true;
                        drive.lost[i] = true;
                        continue;
                    }
                    Err(e) => {
                        if anytime.is_none() {
                            return Err(e.into());
                        }
                        // Anytime rescue: salvage the best certified
                        // snapshot instead of erroring (below).
                        budget_err = Some(e);
                        break;
                    }
                }
            }
            engine.refresh_selection();
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
                // With slack, the θ-scaled rule firing is a relaxed (not
                // exact) completion — reported distinctly on every run.
                if self.theta > 1.0 {
                    halt = HaltReason::ThetaSatisfied;
                }
                break;
            }
            if drive.exhausted.iter().all(|&e| e) {
                if !drive.lost.iter().any(|&l| l) {
                    // Complete information: the selection is exact.
                    break;
                }
                // Every surviving list is exhausted but lost sources
                // withheld entries, so the frozen bounds cannot improve
                // further. Salvage the best certified snapshot as a
                // degraded answer, or fail with the typed loss.
                if anytime.is_some() {
                    if let Some(g) = engine.certificate(n) {
                        best.offer(g, || engine.output_items());
                    }
                    if best.is_certified() {
                        halt = HaltReason::SourceLost;
                        break;
                    }
                }
                let list = drive.lost.iter().position(|&l| l).expect("a lost list");
                return Err(AccessError::SourceLost { list }.into());
            }
            mw.trace(EventKind::RoundBoundary, 0, rounds);
            if let Some(cfg) = anytime {
                // The engine's bounds are sound at any observation
                // boundary, so even a mid-round budget failure certifies.
                if let Some(g) = engine.certificate(n) {
                    best.offer(g, || engine.output_items());
                }
                if let Some(e) = budget_err {
                    if best.is_certified() {
                        halt = HaltReason::BudgetExhausted;
                        break;
                    }
                    return Err(e.into());
                }
                if best.is_certified() {
                    if let Some(reason) = cfg.triggered(rounds, mw.stats()) {
                        halt = reason;
                        break;
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

impl TopKAlgorithm for Nra {
    fn name(&self) -> String {
        let mut base = match self.strategy {
            BookkeepingStrategy::Exhaustive => "NRA".to_string(),
            BookkeepingStrategy::LazyHeap => "NRA(lazy)".to_string(),
        };
        if self.theta > 1.0 {
            base = format!("{base}_theta({})", self.theta);
        }
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
    use crate::aggregation::{Average, Max, Median, Min, Sum};
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
    fn nra_matches_oracle_all_aggregations_and_strategies() {
        let db = db();
        let aggs: Vec<Box<dyn Aggregation>> = vec![
            Box::new(Min),
            Box::new(Max),
            Box::new(Average),
            Box::new(Sum),
            Box::new(Median),
        ];
        for strategy in [
            BookkeepingStrategy::Exhaustive,
            BookkeepingStrategy::LazyHeap,
        ] {
            for agg in &aggs {
                for k in 1..=6 {
                    let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
                    let out = Nra::with_strategy(strategy)
                        .run(&mut s, agg.as_ref(), k)
                        .unwrap();
                    assert!(
                        oracle::is_valid_top_k(&db, agg.as_ref(), k, &out.objects()),
                        "strategy={strategy:?} agg={} k={k} got={:?}",
                        agg.name(),
                        out.objects()
                    );
                }
            }
        }
    }

    #[test]
    fn nra_makes_no_random_accesses() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Nra::new().run(&mut s, &Average, 2).unwrap();
        assert_eq!(out.stats.random_total(), 0);
    }

    #[test]
    fn nra_example_8_3_early_halt_without_grade() {
        // Figure 4: avg aggregation, object R has (1, 0) and everyone else
        // (1/3, 1/3). After two sorted accesses to L1 and one to L2, R is
        // provably the top object even though its grade is unknown.
        let n = 20usize;
        let mut col1 = vec![1.0 / 3.0; n];
        let mut col2 = vec![1.0 / 3.0; n];
        col1[0] = 1.0; // R = object 0
        col2[0] = 0.0;
        let db = Database::from_f64_columns(&[col1, col2]).unwrap();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Nra::new().run(&mut s, &Average, 1).unwrap();
        assert_eq!(out.objects(), vec![ObjectId(0)]);
        // Halts long before exhausting the lists…
        assert!(out.stats.sorted_total() < (2 * n) as u64 / 2);
        // …and therefore cannot know R's exact grade.
        assert_eq!(out.items[0].grade, None);
    }

    #[test]
    fn nra_grade_attached_when_complete() {
        // min forces NRA to learn every field of the winner before halting
        // (W is 0 until the row is complete), so the grade comes for free.
        let db = Database::from_f64_columns(&[vec![1.0, 0.9], vec![0.1, 0.9]]).unwrap();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Nra::new().run(&mut s, &Min, 1).unwrap();
        assert_eq!(out.objects(), vec![ObjectId(1)]);
        assert_eq!(out.items[0].grade, Some(Grade::new(0.9)));
    }

    #[test]
    fn nra_partial_grades_match_oracle_when_reported() {
        // Whenever NRA attaches a grade it must be the true grade.
        let db = db();
        for k in 1..=6 {
            let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
            let out = Nra::new().run(&mut s, &Average, k).unwrap();
            for item in &out.items {
                if let Some(g) = item.grade {
                    let row = db.row(item.object).unwrap();
                    assert_eq!(g, Average.evaluate(&row));
                }
            }
        }
    }

    #[test]
    fn lazy_and_exhaustive_agree_on_distinct_databases() {
        // Deterministic pseudo-random distinct grades.
        let n = 60;
        // Per-list multipliers coprime to n decorrelate the rankings.
        let mults = [37usize, 41, 43];
        let cols: Vec<Vec<f64>> = (0..3usize)
            .map(|i| {
                let mut v: Vec<f64> = (0..n)
                    .map(|j| (((j * 7919 + i * 104729 + 13) % 99991) as f64) / 99991.0)
                    .collect();
                // Ensure distinctness per list.
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v.dedup();
                assert_eq!(v.len(), n);
                // Shuffle deterministically by index arithmetic.
                (0..n).map(|j| v[(j * mults[i]) % n]).collect()
            })
            .collect();
        let db = Database::from_f64_columns(&cols).unwrap();
        for k in [1usize, 3, 10] {
            let mut s1 = Session::with_policy(&db, AccessPolicy::no_random_access());
            let a = Nra::new().run(&mut s1, &Sum, k).unwrap();
            let mut s2 = Session::with_policy(&db, AccessPolicy::no_random_access());
            let b = Nra::with_strategy(BookkeepingStrategy::LazyHeap)
                .run(&mut s2, &Sum, k)
                .unwrap();
            assert!(oracle::is_valid_top_k(&db, &Sum, k, &a.objects()));
            assert!(oracle::is_valid_top_k(&db, &Sum, k, &b.objects()));
            assert_eq!(
                a.stats.sorted_total(),
                b.stats.sorted_total(),
                "strategies must agree access-for-access on distinct grades"
            );
            // Both strategies share the incremental structures; the lazy
            // selection can only skip tie-break B refreshes, never add any.
            assert!(
                b.metrics.bound_recomputations <= a.metrics.bound_recomputations,
                "lazy {} vs exhaustive {}",
                b.metrics.bound_recomputations,
                a.metrics.bound_recomputations
            );
        }
    }

    #[test]
    fn bookkeeping_is_subquadratic() {
        // Remark 8.7: the historical exhaustive strategy did Ω(d²m) bound
        // updates. The incremental engine's bookkeeping must stay within a
        // small per-access constant: W updates (≤1 per access), member
        // refreshes (≤k per round) and amortized heap refreshes.
        let n = 1_000;
        let cols: Vec<Vec<f64>> = (0..3usize)
            .map(|i| {
                (0..n)
                    .map(|j| (((j * 7919 + i * 104729 + 13) % 999983) as f64) / 999983.0)
                    .collect()
            })
            .collect();
        let db = Database::from_f64_columns(&cols).unwrap();
        for strategy in [
            BookkeepingStrategy::Exhaustive,
            BookkeepingStrategy::LazyHeap,
        ] {
            let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
            let out = Nra::with_strategy(strategy).run(&mut s, &Sum, 10).unwrap();
            assert!(oracle::is_valid_top_k(&db, &Sum, 10, &out.objects()));
            let sorted = out.stats.sorted_total();
            let budget = sorted * (10 + 6); // k + slack per sorted access
            assert!(
                out.metrics.bound_recomputations <= budget,
                "{strategy:?}: {} recomputations for {sorted} sorted accesses (budget {budget})",
                out.metrics.bound_recomputations,
            );
        }
    }

    #[test]
    fn eviction_shrinks_the_candidate_pool() {
        let n = 4_000;
        let cols: Vec<Vec<f64>> = (0..3usize)
            .map(|i| {
                (0..n)
                    .map(|j| (((j * 7919 + i * 104729 + 13) % 999983) as f64) / 999983.0)
                    .collect()
            })
            .collect();
        let db = Database::from_f64_columns(&cols).unwrap();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Nra::new().run(&mut s, &Sum, 10).unwrap();
        assert!(
            !out.metrics.evicted.is_empty(),
            "a long uniform run must evict dead candidates"
        );
        // Peak live candidates stay below the distinct objects seen (which
        // is what peak_buffer measured before eviction existed). Sorted
        // accesses over-count distinct objects, so this bound is loose.
        assert!(
            out.metrics.peak_buffer < out.stats.sorted_total() as usize,
            "peak {} vs sorted {}",
            out.metrics.peak_buffer,
            out.stats.sorted_total()
        );
        // No evicted object may be part of the answer.
        for item in &out.items {
            assert!(
                !out.metrics.evicted.contains(&item.object),
                "evicted object {} in the top-k",
                item.object
            );
        }
    }

    #[test]
    fn k_greater_than_n() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Nra::new().run(&mut s, &Min, 50).unwrap();
        assert_eq!(out.items.len(), db.num_objects());
        assert!(oracle::is_valid_top_k(&db, &Min, 50, &out.objects()));
    }

    #[test]
    fn names() {
        assert_eq!(Nra::new().name(), "NRA");
        assert_eq!(
            Nra::with_strategy(BookkeepingStrategy::LazyHeap).name(),
            "NRA(lazy)"
        );
        assert_eq!(Nra::new().batched(8).name(), "NRA[b=8]");
        assert_eq!(Nra::new().with_theta(1.5).name(), "NRA_theta(1.5)");
        assert_eq!(
            Nra::new().with_theta(2.0).batched(4).name(),
            "NRA_theta(2)[b=4]"
        );
    }

    #[test]
    fn theta_nra_is_valid_and_never_costs_more_than_exact() {
        let db = db();
        for theta in [1.1, 1.5, 2.0] {
            for k in 1..=4 {
                let mut s1 = Session::with_policy(&db, AccessPolicy::no_random_access());
                let exact = Nra::new().run(&mut s1, &Average, k).unwrap();
                let mut s2 = Session::with_policy(&db, AccessPolicy::no_random_access());
                let approx = Nra::new()
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
                    "theta={theta} k={k}"
                );
                assert!(
                    approx.stats.sorted_total() <= exact.stats.sorted_total(),
                    "theta={theta} k={k}: θ-NRA read more than exact NRA"
                );
                assert_eq!(approx.metrics.approximation_guarantee, theta);
            }
        }
    }

    #[test]
    fn theta_one_nra_is_bit_identical_to_exact() {
        let db = db();
        let mut s1 = Session::with_policy(&db, AccessPolicy::no_random_access());
        let exact = Nra::new().run(&mut s1, &Sum, 3).unwrap();
        let mut s2 = Session::with_policy(&db, AccessPolicy::no_random_access());
        let theta_one = Nra::new().with_theta(1.0).run(&mut s2, &Sum, 3).unwrap();
        assert_eq!(exact.objects(), theta_one.objects());
        assert_eq!(exact.stats, theta_one.stats);
    }

    #[test]
    #[should_panic(expected = "theta must be finite and at least 1")]
    fn nra_theta_below_one_rejected() {
        let _ = Nra::new().with_theta(0.5);
    }

    #[test]
    fn batched_nra_matches_oracle_and_makes_no_random_accesses() {
        let db = db();
        for batch in [1usize, 2, 5, 64] {
            for strategy in [
                BookkeepingStrategy::Exhaustive,
                BookkeepingStrategy::LazyHeap,
            ] {
                for k in [1usize, 3, 6] {
                    let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
                    let out = Nra::with_strategy(strategy)
                        .batched(batch)
                        .run(&mut s, &Average, k)
                        .unwrap();
                    assert!(
                        oracle::is_valid_top_k(&db, &Average, k, &out.objects()),
                        "batch={batch} strategy={strategy:?} k={k}"
                    );
                    assert_eq!(out.stats.random_total(), 0);
                }
            }
        }
    }

    /// Brute-force reference for [`BoundEngine::certificate`]: `τ` (0 once
    /// every object is seen), the exact `B` of every live candidate outside
    /// `T_k`, the `M_k = 0` rule and `certified_ratio`. Bounds are
    /// evaluated straight off the row table, so the reference neither
    /// counts recomputations nor touches a heap.
    fn reference_certificate(e: &mut BoundEngine<'_>, n: usize) -> Option<f64> {
        if e.s.sel.top.is_empty() || (!e.s.sel.full && e.seen < n) {
            return None;
        }
        let mut max_outside = if e.seen < n {
            e.threshold()
        } else {
            Grade::ZERO
        };
        let mut scratch = Vec::new();
        for idx in 0..n {
            if e.s.rows.is_live(idx) && !e.s.in_top(ObjectId(idx as u32)) {
                let b = e.s.rows.b(idx, e.agg, &e.s.bottoms, &mut scratch);
                max_outside = max_outside.max(b);
            }
        }
        let m_k = e.s.sel.m_k;
        if m_k == Grade::ZERO {
            return (max_outside == Grade::ZERO).then_some(1.0);
        }
        Some(crate::anytime::certified_ratio(
            max_outside.value(),
            m_k.value(),
        ))
    }

    /// Brute-force reference for [`BoundEngine::refresh_selection`]:
    /// every live row sorted by `(W desc, id asc)`, with `W` evaluated
    /// straight off the row table, cut to `min(k, live)`. Under Exhaustive,
    /// when a row outside the cut ties the last `W`, every row at that `W`
    /// is re-ranked by `(B desc, id asc)`. Returns `(T_k, M_k, full)`.
    fn reference_selection(e: &BoundEngine<'_>, n: usize) -> (Vec<(ObjectId, Grade)>, Grade, bool) {
        let mut scratch = Vec::new();
        let mut live: Vec<(ObjectId, Grade)> = (0..n)
            .filter(|&idx| e.s.rows.is_live(idx))
            .map(|idx| (ObjectId(idx as u32), e.s.rows.w(idx, e.agg, &mut scratch)))
            .collect();
        live.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let cut = e.k.min(live.len());
        let mut top = live[..cut].to_vec();
        if let Some(&(_, wk)) = top.last() {
            let tie_outside = live.get(cut).is_some_and(|&(_, w)| w == wk);
            if e.strategy == BookkeepingStrategy::Exhaustive && tie_outside {
                let start = top.partition_point(|&(_, w)| w > wk);
                let mut tied: Vec<(ObjectId, Grade)> = live[start..]
                    .iter()
                    .take_while(|&&(_, w)| w == wk)
                    .map(|&(o, _)| (o, e.s.rows.b(o.index(), e.agg, &e.s.bottoms, &mut scratch)))
                    .collect();
                tied.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                top.truncate(start);
                top.extend(tied[..cut - start].iter().map(|&(o, _)| (o, wk)));
            }
        }
        let m_k = top.last().map_or(Grade::ZERO, |&(_, w)| w);
        let full = top.len() == e.k;
        (top, m_k, full)
    }

    /// Steps NRA-style rounds (`h = None`) or CA-style rounds with a
    /// random-access phase every `h` rounds through a bare engine, the way
    /// the drive loops do, and asserts after the sorted phase and again
    /// after the random-access phase and halting test that the selection
    /// (order, `M_k`, `full` and every row's membership flag) equals
    /// [`reference_selection`] and that `certificate` equals
    /// [`reference_certificate`] bit for bit. Returns how many
    /// certificates were `Some`.
    fn certificates_match_reference(
        db: &Database,
        agg: &dyn Aggregation,
        k: usize,
        strategy: BookkeepingStrategy,
        batch: usize,
        h: Option<u64>,
    ) -> usize {
        let (n, m) = (db.num_objects(), db.num_lists());
        let mut scratch = EngineScratch::default();
        let mut engine = BoundEngine::new_in(agg, m, k, strategy, &mut scratch);
        if h.is_some() {
            engine = engine.tracking_incomplete();
        }
        let mut mw = Session::new(db);
        let (mut buf, mut missing) = (Vec::new(), Vec::new());
        let mut exhausted = vec![false; m];
        let mut certified = 0;
        let mut check = |engine: &mut BoundEngine<'_>, round: u64, at: &str| {
            let (top, m_k, full) = reference_selection(engine, n);
            let sel = &engine.s.sel;
            assert!(
                sel.top == top && sel.m_k == m_k && sel.full == full,
                "{} k={k} {strategy:?} b={batch} h={h:?} round {round} ({at}): \
                 selection {:?} (M_k {:?}, full {}), reference {top:?} (M_k {m_k:?}, full {full})",
                agg.name(),
                sel.top,
                sel.m_k,
                sel.full
            );
            for idx in (0..n).filter(|&idx| engine.s.rows.is_live(idx)) {
                let o = ObjectId(idx as u32);
                assert_eq!(
                    engine.s.in_top(o),
                    top.iter().any(|&(x, _)| x == o),
                    "membership flag of {o} (round {round}, {at})"
                );
            }
            let want = reference_certificate(engine, n);
            let got = engine.certificate(n);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{} k={k} {strategy:?} b={batch} h={h:?} round {round} ({at}): \
                 got {got:?}, reference {want:?}",
                agg.name()
            );
            certified += usize::from(got.is_some());
        };
        for round in 1u64.. {
            for (list, done) in exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                buf.clear();
                if mw.sorted_next_batch(list, batch, &mut buf).unwrap() == 0 {
                    *done = true;
                } else {
                    engine.observe_sorted_batch(list, &buf);
                }
            }
            engine.refresh_selection();
            check(&mut engine, round, "sorted phase");
            if h.is_some_and(|h| round.is_multiple_of(h)) {
                if let Some(object) = engine.best_viable_incomplete() {
                    engine.missing_fields_into(object, &mut missing);
                    for &list in &missing {
                        let grade = mw.random_lookup(list, object).unwrap();
                        engine.learn_random(object, list, grade);
                    }
                    engine.refresh_selection();
                }
            }
            let halted = engine.check_halt(n);
            check(&mut engine, round, "round boundary");
            if halted || exhausted.iter().all(|&e| e) {
                break;
            }
        }
        certified
    }

    /// A seeded `n × m` instance: `shape` 0 is uniform, 1 is skewed
    /// (Zipf-like, most grades near 0), 2 draws from eight levels so ties
    /// are everywhere, 3 anticorrelates list 1 with list 0, and 4 is
    /// sparse (80% zeros, so Min runs end with `M_k = 0` and `τ = 0`).
    fn seeded_instance(n: usize, m: usize, shape: u32, seed: u64) -> Database {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut cols: Vec<Vec<f64>> = (0..m)
            .map(|_| {
                (0..n)
                    .map(|_| match shape {
                        1 => next().powi(4),
                        2 => (next() * 8.0).floor() / 8.0,
                        4 if next() < 0.8 => 0.0,
                        _ => next(),
                    })
                    .collect()
            })
            .collect();
        if shape == 3 {
            let (first, rest) = cols.split_at_mut(1);
            for (x1, &x0) in rest[0].iter_mut().zip(&first[0]) {
                *x1 = (1.0 - x0 + 0.1 * next()).clamp(0.0, 1.0);
            }
        }
        Database::from_f64_columns(&cols).unwrap()
    }

    #[test]
    fn certificate_equals_brute_force_reference_at_every_round() {
        let aggs: [&dyn Aggregation; 4] = [&Min, &Max, &Average, &Sum];
        let mut certified = 0;
        for (seed, m) in [(1u64, 3usize), (2, 2)] {
            for shape in 0..5 {
                let db = seeded_instance(120, m, shape, seed);
                for agg in aggs {
                    for strategy in [
                        BookkeepingStrategy::Exhaustive,
                        BookkeepingStrategy::LazyHeap,
                    ] {
                        for k in [1usize, 3, 10, 50] {
                            for batch in [1usize, 4] {
                                for h in [None, Some(1), Some(3)] {
                                    certified += certificates_match_reference(
                                        &db, agg, k, strategy, batch, h,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(certified > 0, "no round ever certified");
    }

    #[test]
    fn leased_runs_match_fresh_runs_exactly() {
        // The arena changes where state lives, never what it contains.
        let db = db();
        let mut arena = RunScratch::new();
        for k in [1usize, 3, 6, 2, 1] {
            for strategy in [
                BookkeepingStrategy::Exhaustive,
                BookkeepingStrategy::LazyHeap,
            ] {
                let mut s1 = Session::with_policy(&db, AccessPolicy::no_random_access());
                let fresh = Nra::with_strategy(strategy).run(&mut s1, &Sum, k).unwrap();
                let mut s2 = Session::with_policy(&db, AccessPolicy::no_random_access());
                let leased = Nra::with_strategy(strategy)
                    .run_with(&mut s2, &Sum, k, &mut arena)
                    .unwrap();
                assert_eq!(fresh.items, leased.items, "k={k} {strategy:?}");
                assert_eq!(fresh.stats, leased.stats);
                assert_eq!(fresh.metrics, leased.metrics);
            }
        }
    }
}
