//! Access sessions: the only surface algorithms see.
//!
//! A [`Session`] binds a [`Database`] to an [`AccessPolicy`] and an
//! [`AccessStats`] counter, and serves the two access modes of §2 in
//! batches: [`Middleware::sorted_next_batch`] and
//! [`Middleware::random_lookup_many`] serve many entries per
//! dynamic-dispatch round trip (§2's "ask the subsystem for, say, the top
//! 10 objects … then request the next 10"). Scalar access
//! ([`Middleware::sorted_next`], [`Middleware::random_lookup`]) is a batch
//! of one. Every access is counted; policy violations surface as typed
//! [`AccessError`]s, so tests can verify an algorithm belongs to the class
//! `A` a theorem quantifies over.

use fagin_obs::{EventKind, FlightRecorder};

use crate::cost::AccessStats;
use crate::database::Database;
use crate::error::AccessError;
use crate::grade::{Entry, Grade, ObjectId};
use crate::policy::AccessPolicy;
use crate::slots::SlotSet;

/// How many entries an algorithm's drive loop consumes per list per round.
///
/// `BatchConfig::scalar()` (size 1) reproduces the paper's access-by-access
/// execution exactly; size `b > 1` amortizes interface overhead (one policy
/// check, one stats bump, one dispatch per batch) at the price of
/// overshooting the halting point by at most `b − 1` sorted accesses per
/// list — see `fagin_core::optimality` for the effect on instance
/// optimality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    size: usize,
}

impl BatchConfig {
    /// Batch size 1: the paper's exact access-by-access behavior.
    pub const fn scalar() -> Self {
        BatchConfig { size: 1 }
    }

    /// A batch of `size` entries per list per round.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "batch size must be at least 1");
        BatchConfig { size }
    }

    /// Entries per list per round.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether this is the exact (size 1) configuration.
    #[inline]
    pub fn is_scalar(&self) -> bool {
        self.size == 1
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self::scalar()
    }
}

/// The middleware access interface (paper §2).
///
/// Implementations must count every access and enforce their policy. The
/// default implementation is [`Session`]; the trait exists so algorithms can
/// also run against instrumented or synthetic sources.
///
/// An implementation writes one access path: the two batch methods
/// [`Middleware::sorted_next_batch`] and [`Middleware::random_lookup_many`].
/// Scalar access ([`Middleware::sorted_next`], [`Middleware::random_lookup`])
/// is provided as a batch of one, so a batch of one behaves exactly like a
/// scalar access by construction. The scalar methods allocate a one-slot
/// buffer per call, so drive loops must not use them: they call the batch
/// methods with a reused buffer.
pub trait Middleware {
    /// Number of sorted lists `m`.
    fn num_lists(&self) -> usize;

    /// Number of objects `N`.
    ///
    /// The paper's algorithms never need `N` to operate (TA has constant
    /// buffers), but terminating scans (the naive algorithm) and test
    /// oracles do.
    fn num_objects(&self) -> usize;

    /// *Batched sorted access*: reads up to `max` further entries of `list`,
    /// proceeding from the top, appends them to `out`, and returns how many
    /// were appended.
    ///
    /// Every appended entry counts as one sorted access and the same policy
    /// applies to each, but a conforming implementation may do its policy
    /// check and stats bookkeeping once per batch. Contract:
    ///
    /// * `Ok(0)` with `max > 0` means the list is exhausted (which does not
    ///   count as an access).
    /// * A **short** batch (`0 < served < max`) is *not* an exhaustion
    ///   signal: an access budget may have truncated it. Callers keep
    ///   requesting until `Ok(0)` or an error.
    /// * An error that would strike before the first entry is served is
    ///   returned as `Err`; one that strikes mid-batch (a budget running
    ///   out) truncates the batch to `Ok(served)` and resurfaces on the
    ///   next call. A batch therefore never blows past an access budget.
    fn sorted_next_batch(
        &mut self,
        list: usize,
        max: usize,
        out: &mut Vec<Entry>,
    ) -> Result<usize, AccessError>;

    /// *Batched random access*: the grades of `objects` in `list`, appended
    /// to `out` in order.
    ///
    /// Objects are looked up in order, stopping at the first error: grades
    /// fetched before the error remain in `out` (and are counted —
    /// `out.len()` tells the caller how far the batch got), and the error
    /// is returned. As with sorted batches, an access budget is enforced
    /// mid-batch.
    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError>;

    /// *Sorted access*: the next entry of list `list`, or `Ok(None)` when
    /// the list is exhausted — a [`Middleware::sorted_next_batch`] of one.
    fn sorted_next(&mut self, list: usize) -> Result<Option<Entry>, AccessError> {
        let mut buf = Vec::with_capacity(1);
        self.sorted_next_batch(list, 1, &mut buf)?;
        Ok(buf.pop())
    }

    /// *Random access*: the grade of `object` in list `list` — a
    /// [`Middleware::random_lookup_many`] of one.
    fn random_lookup(&mut self, list: usize, object: ObjectId) -> Result<Grade, AccessError> {
        let mut buf = Vec::with_capacity(1);
        self.random_lookup_many(list, &[object], &mut buf)?;
        Ok(buf[0])
    }

    /// Access counters so far.
    fn stats(&self) -> &AccessStats;

    /// The active policy.
    fn policy(&self) -> &AccessPolicy;

    /// Current sorted-access depth of `list` (how many entries have been
    /// read from it).
    fn position(&self, list: usize) -> usize;

    /// Emits a structured trace event toward whatever flight recorder
    /// this middleware carries (see [`Session::attach_recorder`]).
    ///
    /// This is how the core drive loops narrate themselves — round
    /// boundaries, eviction waves, the halt — without owning a recorder
    /// or even knowing whether one is attached: the middleware stamps the
    /// monotonic clock and stores the event, or does nothing at all. The
    /// default is a no-op so external implementations keep compiling;
    /// *wrappers* (budget decorators, fault injectors, `&mut M`) must forward
    /// it or the record loses every drive-loop event.
    #[inline]
    fn trace(&mut self, kind: EventKind, detail: u32, count: u64) {
        let _ = (kind, detail, count);
    }
}

/// Forwarding impl so a wrapper that takes a middleware *by value* (e.g.
/// [`CostBudget`](crate::budget::CostBudget)) can also wrap a borrowed
/// session — which is what lets a serving worker reuse one [`Session`]
/// across queries instead of constructing one per request.
impl<M: Middleware + ?Sized> Middleware for &mut M {
    fn num_lists(&self) -> usize {
        (**self).num_lists()
    }

    fn num_objects(&self) -> usize {
        (**self).num_objects()
    }

    fn sorted_next_batch(
        &mut self,
        list: usize,
        max: usize,
        out: &mut Vec<Entry>,
    ) -> Result<usize, AccessError> {
        (**self).sorted_next_batch(list, max, out)
    }

    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError> {
        (**self).random_lookup_many(list, objects, out)
    }

    fn stats(&self) -> &AccessStats {
        (**self).stats()
    }

    fn policy(&self) -> &AccessPolicy {
        (**self).policy()
    }

    fn position(&self, list: usize) -> usize {
        (**self).position(list)
    }

    fn trace(&mut self, kind: EventKind, detail: u32, count: u64) {
        (**self).trace(kind, detail, count)
    }
}

/// A counted, policy-enforcing session over a [`Database`].
#[derive(Clone, Debug)]
pub struct Session<'db> {
    db: &'db Database,
    policy: AccessPolicy,
    stats: AccessStats,
    /// Next rank to read per list.
    positions: Vec<usize>,
    /// Objects seen under sorted access (for wild-guess detection).
    /// Generation-stamped so [`Session::reset`] is `O(m)`, not `O(N)`.
    seen: SlotSet,
    /// When attached, access batches and drive-loop narration land here
    /// as fixed-size binary events. The ring is preallocated at attach
    /// time, so the instrumented hot path stays allocation-free.
    recorder: Option<FlightRecorder>,
    /// Round boundaries swallowed since the last recorded one (round
    /// events are decimated to every [`ROUND_TRACE_STRIDE`]th).
    rounds_untraced: u32,
}

/// Batches below this size are deferred — tallied clock-free in the
/// recorder and flushed as one aggregate instant event at the next round
/// boundary ([`FlightRecorder::defer`]); at or above it the serve is
/// individually timed (two clock reads). Tiny batches — the paper's
/// access-by-access `BatchConfig::scalar()` drive loops issue size-1
/// batches — take sub-clock-resolution time anyway, and their real cost is
/// a few slot-table reads, so even *one* clock read per batch would
/// multiply the round; deferral is what keeps instrumented wall clock
/// within the obs-overhead guardrail's budget.
const TIMED_BATCH_MIN: usize = 8;

/// Every `STRIDE`th round boundary is recorded (with its true round number
/// in `count`); the rest are swallowed clock-free. One stamped event per
/// scalar round would otherwise dominate the round's own work — see
/// [`Session::trace`]'s body — and the count delta preserves exact
/// per-round durations for consumers.
const ROUND_TRACE_STRIDE: u32 = 8;

impl<'db> Session<'db> {
    /// Opens a session with the default policy
    /// ([`AccessPolicy::no_wild_guesses`]).
    pub fn new(db: &'db Database) -> Self {
        Self::with_policy(db, AccessPolicy::default())
    }

    /// Opens a session with an explicit policy.
    pub fn with_policy(db: &'db Database, policy: AccessPolicy) -> Self {
        let mut seen = SlotSet::new();
        seen.grow_to(db.num_objects());
        Session {
            db,
            policy,
            stats: AccessStats::new(db.num_lists()),
            positions: vec![0; db.num_lists()],
            seen,
            recorder: None,
            rounds_untraced: 0,
        }
    }

    /// Attaches a flight recorder: subsequent access batches and every
    /// [`Middleware::trace`] call land in its ring as fixed-size events
    /// stamped on its monotonic clock. The ring was preallocated when the
    /// recorder was built, so recording never allocates — the counting-
    /// allocator tests run TA's steady-state loop with a recorder
    /// attached and still observe zero allocations.
    ///
    /// The attachment survives [`Session::reset`] (a serving worker
    /// attaches once and rewinds per query); the ring's *contents* also
    /// survive, so the owner decides when a new query starts
    /// ([`FlightRecorder::clear`] + [`FlightRecorder::set_query`]).
    pub fn attach_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the flight recorder, if any; subsequent
    /// accesses are untraced.
    pub fn detach_recorder(&mut self) -> Option<FlightRecorder> {
        self.recorder.take()
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Mutable access to the attached flight recorder, if any.
    pub fn recorder_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.recorder.as_mut()
    }

    /// Rewinds the session to a fresh run under `policy`: counters zeroed,
    /// sorted cursors back to the top, seen-set emptied. Everything is done
    /// in place (the seen-set clear is a generation bump), so a worker that
    /// serves many queries over one database reuses a single session with
    /// zero per-query allocation.
    pub fn reset(&mut self, policy: AccessPolicy) {
        self.policy = policy;
        self.stats.reset();
        self.positions.fill(0);
        self.seen.reset();
        self.rounds_untraced = 0;
    }

    /// The underlying database (subsystem-side; for oracles and reports).
    pub fn database(&self) -> &Database {
        self.db
    }

    /// Consumes the session and returns its counters.
    pub fn into_stats(self) -> AccessStats {
        self.stats
    }

    /// Whether `object` has been seen under sorted access in this session.
    pub fn has_seen(&self, object: ObjectId) -> bool {
        self.seen.contains(object.index())
    }

    fn check_list(&self, list: usize) -> Result<(), AccessError> {
        if list >= self.db.num_lists() {
            Err(AccessError::NoSuchList {
                list,
                num_lists: self.db.num_lists(),
            })
        } else {
            Ok(())
        }
    }
}

impl Middleware for Session<'_> {
    fn num_lists(&self) -> usize {
        self.db.num_lists()
    }

    fn num_objects(&self) -> usize {
        self.db.num_objects()
    }

    /// Serves the batch as one slice read out of the [`SortedList`]: one
    /// list/policy check, one budget computation and one stats bump for the
    /// whole batch, instead of per entry.
    ///
    /// [`SortedList`]: crate::list::SortedList
    fn sorted_next_batch(
        &mut self,
        list: usize,
        max: usize,
        out: &mut Vec<Entry>,
    ) -> Result<usize, AccessError> {
        self.check_list(list)?;
        if !self.policy.sorted_lists.allows(list) {
            return Err(AccessError::SortedAccessForbidden { list });
        }
        let pos = self.positions[list];
        let db = self.db;
        let l = db.list(list);
        let want = max.min(l.len().saturating_sub(pos));
        if want == 0 {
            // Exhausted (or max == 0): not billed and not a budget
            // violation.
            return Ok(0);
        }
        let allowed = match self.policy.access_budget {
            Some(b) => {
                let remaining = b.saturating_sub(self.stats.total());
                if remaining == 0 {
                    return Err(AccessError::BudgetExhausted);
                }
                want.min(usize::try_from(remaining).unwrap_or(usize::MAX))
            }
            None => want,
        };
        let trace_start = match &self.recorder {
            Some(r) if allowed >= TIMED_BATCH_MIN => r.now_nanos(),
            _ => 0,
        };
        let served = &l.entries()[pos..pos + allowed];
        for entry in served {
            self.seen.mark(entry.object.index());
        }
        out.extend_from_slice(served);
        self.positions[list] = pos + allowed;
        self.stats.record_sorted_n(list, allowed as u64);
        if let Some(r) = &mut self.recorder {
            if allowed >= TIMED_BATCH_MIN {
                r.record_span(
                    EventKind::SortedBatch,
                    list as u32,
                    allowed as u64,
                    trace_start,
                );
            } else {
                // Clock-free: tallied, and flushed as one aggregate event
                // at the next stamped recording (the round boundary).
                r.defer(EventKind::SortedBatch, allowed as u64);
            }
        }
        Ok(allowed)
    }

    /// One list/policy check per batch; per-object checks (range, wild
    /// guess, budget) run in that order, so a failing batch bills exactly
    /// the lookups before the failing object.
    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError> {
        self.check_list(list)?;
        if !self.policy.allow_random {
            return Err(AccessError::RandomAccessForbidden { list });
        }
        let db = self.db;
        let l = db.list(list);
        let allowed: u64 = match self.policy.access_budget {
            Some(b) => b.saturating_sub(self.stats.total()),
            None => u64::MAX,
        };
        let trace_start = match &self.recorder {
            Some(r) if objects.len() >= TIMED_BATCH_MIN => r.now_nanos(),
            _ => 0,
        };
        let mut served: u64 = 0;
        let mut failure = None;
        out.reserve(objects.len());
        for &object in objects {
            if object.index() >= db.num_objects() {
                failure = Some(AccessError::NoSuchObject { object });
                break;
            }
            if !self.policy.allow_wild_guesses && !self.seen.contains(object.index()) {
                failure = Some(AccessError::WildGuess { list, object });
                break;
            }
            if served >= allowed {
                failure = Some(AccessError::BudgetExhausted);
                break;
            }
            out.push(l.grade_of(object).expect("object exists in every list"));
            served += 1;
        }
        self.stats.record_random_n(list, served);
        if let Some(r) = &mut self.recorder {
            if objects.len() >= TIMED_BATCH_MIN {
                r.record_span(EventKind::RandomLookup, list as u32, served, trace_start);
            } else {
                r.defer(EventKind::RandomLookup, served);
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn stats(&self) -> &AccessStats {
        &self.stats
    }

    fn policy(&self) -> &AccessPolicy {
        &self.policy
    }

    fn position(&self, list: usize) -> usize {
        self.positions[list]
    }

    fn trace(&mut self, kind: EventKind, detail: u32, count: u64) {
        if let Some(r) = &mut self.recorder {
            // Round boundaries arrive once per drive-loop round — tens of
            // nanoseconds of real work on a scalar loop — so stamping each
            // one would put a clock read on every round. Every STRIDEth is
            // recorded instead; `count` carries the true 1-based round
            // number, so consumers recover exact per-round durations from
            // the count delta (the serve layer divides by it), and the
            // halt event still reports the exact total.
            if kind == EventKind::RoundBoundary {
                self.rounds_untraced += 1;
                if self.rounds_untraced < ROUND_TRACE_STRIDE {
                    return;
                }
                self.rounds_untraced = 0;
            }
            r.record(kind, detail, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;

    fn db() -> Database {
        // Object grades:       L0    L1
        //   0:                 0.9   0.2
        //   1:                 0.5   0.8
        //   2:                 0.1   0.5
        Database::from_f64_columns(&[vec![0.9, 0.5, 0.1], vec![0.2, 0.8, 0.5]]).unwrap()
    }

    #[test]
    fn sorted_access_walks_down() {
        let db = db();
        let mut s = Session::new(&db);
        let e0 = s.sorted_next(0).unwrap().unwrap();
        let e1 = s.sorted_next(0).unwrap().unwrap();
        let e2 = s.sorted_next(0).unwrap().unwrap();
        assert_eq!(
            (e0.object.0, e1.object.0, e2.object.0),
            (0, 1, 2),
            "descending grade order"
        );
        assert_eq!(s.sorted_next(0).unwrap(), None, "exhausted list");
        assert_eq!(s.stats().sorted_on(0), 3, "exhaustion not counted");
        assert_eq!(s.position(0), 3);
    }

    #[test]
    fn random_access_counts() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::unrestricted());
        let g = s.random_lookup(1, ObjectId(0)).unwrap();
        assert_eq!(g, Grade::new(0.2));
        assert_eq!(s.stats().random_total(), 1);
    }

    #[test]
    fn wild_guess_detected() {
        let db = db();
        let mut s = Session::new(&db); // no wild guesses
        let err = s.random_lookup(1, ObjectId(0)).unwrap_err();
        assert_eq!(
            err,
            AccessError::WildGuess {
                list: 1,
                object: ObjectId(0)
            }
        );
        // After sorted access sees object 0, random access is fine.
        let e = s.sorted_next(0).unwrap().unwrap();
        assert_eq!(e.object, ObjectId(0));
        assert!(s.random_lookup(1, ObjectId(0)).is_ok());
        assert!(s.has_seen(ObjectId(0)));
        assert!(!s.has_seen(ObjectId(1)));
    }

    #[test]
    fn no_random_access_policy() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        s.sorted_next(0).unwrap();
        assert_eq!(
            s.random_lookup(0, ObjectId(0)).unwrap_err(),
            AccessError::RandomAccessForbidden { list: 0 }
        );
    }

    #[test]
    fn restricted_sorted_access_policy() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::sorted_only_on([1]));
        assert_eq!(
            s.sorted_next(0).unwrap_err(),
            AccessError::SortedAccessForbidden { list: 0 }
        );
        let e = s.sorted_next(1).unwrap().unwrap();
        assert_eq!(e.object, ObjectId(1));
        // Random access on list 0 is fine for seen objects.
        assert!(s.random_lookup(0, ObjectId(1)).is_ok());
    }

    #[test]
    fn budget_enforced() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_wild_guesses().with_budget(2));
        s.sorted_next(0).unwrap();
        s.sorted_next(1).unwrap();
        assert_eq!(s.sorted_next(0).unwrap_err(), AccessError::BudgetExhausted);
        assert_eq!(s.stats().total(), 2);
    }

    #[test]
    fn out_of_range_accesses() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::unrestricted());
        assert!(matches!(
            s.sorted_next(9),
            Err(AccessError::NoSuchList { list: 9, .. })
        ));
        assert!(matches!(
            s.random_lookup(0, ObjectId(42)),
            Err(AccessError::NoSuchObject { .. })
        ));
    }

    #[test]
    fn reset_rewinds_everything_in_place() {
        let db = db();
        let mut s = Session::new(&db);
        s.sorted_next(0).unwrap();
        s.sorted_next(0).unwrap();
        assert!(s.has_seen(ObjectId(0)));
        s.reset(AccessPolicy::unrestricted());
        assert_eq!(s.stats().total(), 0, "counters zeroed");
        assert_eq!(s.position(0), 0, "cursor rewound");
        assert!(!s.has_seen(ObjectId(0)), "seen-set emptied");
        // The new policy is in force: wild guesses now allowed.
        assert!(s.random_lookup(1, ObjectId(2)).is_ok());
        // And the cursor serves the top of the list again.
        assert_eq!(s.sorted_next(0).unwrap().unwrap().object, ObjectId(0));
    }

    #[test]
    fn mut_ref_forwards_the_middleware_interface() {
        // Drive the session through the blanket `impl Middleware for &mut M`
        // (a generic consumer taking the middleware *by value*, as
        // `CostBudget` does when wrapping a worker's reused session).
        fn drive<M: Middleware>(mut mw: M) -> u64 {
            assert_eq!(mw.num_lists(), 2);
            assert_eq!(mw.num_objects(), 3);
            let e = mw.sorted_next(0).unwrap().unwrap();
            assert_eq!(e.object, ObjectId(0));
            assert!(mw.random_lookup(1, e.object).is_ok());
            let mut buf = Vec::new();
            assert_eq!(mw.sorted_next_batch(1, 2, &mut buf).unwrap(), 2);
            let mut grades = Vec::new();
            mw.random_lookup_many(0, &[buf[0].object], &mut grades)
                .unwrap();
            assert_eq!(mw.position(0), 1);
            assert!(!mw.policy().allow_wild_guesses);
            mw.stats().total()
        }
        let db = db();
        let mut s = Session::new(&db);
        assert_eq!(drive(&mut s), 5);
        assert_eq!(s.stats().total(), 5, "accesses land on the inner session");
    }

    #[test]
    fn into_stats_returns_counters() {
        let db = db();
        let mut s = Session::new(&db);
        s.sorted_next(0).unwrap();
        let stats = s.into_stats();
        assert_eq!(stats.sorted_total(), 1);
    }

    #[test]
    fn batched_sorted_access_serves_slices() {
        let db = db();
        let mut s = Session::new(&db);
        let mut buf = Vec::new();
        assert_eq!(s.sorted_next_batch(0, 2, &mut buf).unwrap(), 2);
        assert_eq!(
            buf.iter().map(|e| e.object.0).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(s.stats().sorted_on(0), 2);
        assert_eq!(s.position(0), 2);
        assert!(s.has_seen(ObjectId(0)) && s.has_seen(ObjectId(1)));
        // Asking past the end serves the remainder, then signals exhaustion.
        buf.clear();
        assert_eq!(s.sorted_next_batch(0, 10, &mut buf).unwrap(), 1);
        assert_eq!(s.sorted_next_batch(0, 10, &mut buf).unwrap(), 0);
        assert_eq!(s.stats().sorted_on(0), 3, "exhaustion not billed");
    }

    #[test]
    fn batched_sorted_access_respects_budget_mid_batch() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_wild_guesses().with_budget(2));
        let mut buf = Vec::new();
        // The batch is cut at the budget rather than blown past it…
        assert_eq!(s.sorted_next_batch(0, 3, &mut buf).unwrap(), 2);
        assert_eq!(s.stats().total(), 2);
        // …and the violation resurfaces on the next call.
        assert_eq!(
            s.sorted_next_batch(0, 3, &mut buf).unwrap_err(),
            AccessError::BudgetExhausted
        );
        assert_eq!(s.stats().total(), 2);
    }

    #[test]
    fn batched_sorted_access_checks_policy_once() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::sorted_only_on([1]));
        let mut buf = Vec::new();
        assert_eq!(
            s.sorted_next_batch(0, 2, &mut buf).unwrap_err(),
            AccessError::SortedAccessForbidden { list: 0 }
        );
        assert_eq!(s.sorted_next_batch(1, 2, &mut buf).unwrap(), 2);
    }

    #[test]
    fn batched_random_lookup_counts_and_orders() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::unrestricted());
        let mut grades = Vec::new();
        s.random_lookup_many(1, &[ObjectId(2), ObjectId(0)], &mut grades)
            .unwrap();
        assert_eq!(grades, vec![Grade::new(0.5), Grade::new(0.2)]);
        assert_eq!(s.stats().random_on(1), 2);
    }

    #[test]
    fn batched_random_lookup_stops_at_wild_guess() {
        let db = db();
        let mut s = Session::new(&db);
        let e = s.sorted_next(0).unwrap().unwrap(); // sees object 0
        let mut grades = Vec::new();
        let err = s
            .random_lookup_many(1, &[e.object, ObjectId(2)], &mut grades)
            .unwrap_err();
        assert_eq!(
            err,
            AccessError::WildGuess {
                list: 1,
                object: ObjectId(2)
            }
        );
        // The grade fetched before the violation is delivered and billed.
        assert_eq!(grades.len(), 1);
        assert_eq!(s.stats().random_on(1), 1);
    }

    #[test]
    fn batched_random_lookup_respects_budget_mid_batch() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::unrestricted().with_budget(2));
        let mut grades = Vec::new();
        let err = s
            .random_lookup_many(0, &[ObjectId(0), ObjectId(1), ObjectId(2)], &mut grades)
            .unwrap_err();
        assert_eq!(err, AccessError::BudgetExhausted);
        assert_eq!(grades.len(), 2);
        assert_eq!(s.stats().total(), 2);
    }

    #[test]
    fn batch_config_validates() {
        assert!(BatchConfig::scalar().is_scalar());
        assert_eq!(BatchConfig::default(), BatchConfig::scalar());
        assert_eq!(BatchConfig::new(8).size(), 8);
        assert!(!BatchConfig::new(8).is_scalar());
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_rejected() {
        let _ = BatchConfig::new(0);
    }
}
