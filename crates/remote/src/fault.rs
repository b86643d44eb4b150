//! Deterministic fault injection at the [`Middleware`] boundary.
//!
//! A [`FaultInjector`] wraps any middleware and fails accesses according
//! to a [`FaultPlan`] — a schedule keyed by *access index* (the 0-based
//! count of middleware calls placed through the wrapper). The plan is
//! data, not randomness at run time: the same plan over the same access
//! sequence injects byte-identical faults, so chaos tests can replay a
//! seed and assert exact outcomes, retries, and breaker transitions.
//!
//! Injected failures surface as
//! [`AccessError::SourceUnavailable`] — the *transient* taxonomy class —
//! exactly as the real transport ([`RemoteSource`](crate::RemoteSource))
//! reports a lost connection. Faults that fail a call outright
//! ([`FaultKind::Error`], [`FaultKind::Disconnect`]) do so **without
//! touching the inner middleware**, so nothing is billed and a retry
//! observes the same counters a clean first attempt would have — the
//! invariant the access-count parity tests pin down. [`FaultKind::Truncate`]
//! instead exercises the *legal* degraded paths of the middleware
//! contract: a short (but non-empty) sorted batch, or a random batch that
//! bills its served prefix before failing.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use fagin_middleware::{
    AccessError, AccessPolicy, AccessStats, Entry, EventKind, Grade, Middleware, ObjectId,
};

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the call with a transient error; the inner source is untouched.
    Error,
    /// Fail the call and the next `outage` calls *on the same list*
    /// (a connection drop whose reconnects keep failing for a while).
    Disconnect {
        /// Further calls on the list that fail after this one.
        outage: u32,
    },
    /// Degrade, don't fail: a sorted batch is truncated to at most `keep`
    /// entries (minimum 1 — an empty batch would be an exhaustion signal,
    /// which the contract reserves for real exhaustion); a random batch
    /// serves and bills at most `keep` grades, then fails transiently.
    Truncate {
        /// Entries allowed through.
        keep: usize,
    },
    /// Serve normally after sleeping (a slow source, not a broken one).
    Delay {
        /// Sleep before forwarding.
        micros: u64,
    },
    /// Serve normally, then sleep per entry served (a drip-feeding
    /// source).
    SlowDrip {
        /// Sleep per served entry, after forwarding.
        micros_per_entry: u64,
    },
}

/// A deterministic schedule of faults, keyed by access index.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    at: BTreeMap<u64, FaultKind>,
    dead_from: BTreeMap<usize, u64>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at the `index`-th middleware call.
    pub fn fault_at(mut self, index: u64, kind: FaultKind) -> Self {
        self.at.insert(index, kind);
        self
    }

    /// Permanently kills `list` from the `index`-th call on: every access
    /// to it fails transiently, which is what drives a retry storm into a
    /// breaker trip and a certified degraded answer downstream.
    pub fn kill_list_from(mut self, list: usize, index: u64) -> Self {
        self.dead_from.insert(list, index);
        self
    }

    /// A pseudo-random plan: over access indices `0..horizon`, each index
    /// faults with probability `rate_per_mille`/1000, drawn from a
    /// splitmix-style generator seeded with `seed`. Fault kinds cycle
    /// through transient errors, short disconnect outages, and single-entry
    /// truncations — the cheap kinds, so seeded chaos sweeps stay fast.
    pub fn seeded(seed: u64, rate_per_mille: u32, horizon: u64) -> Self {
        let mut plan = FaultPlan::new();
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for index in 0..horizon {
            let roll = next();
            if roll % 1000 < u64::from(rate_per_mille) {
                let kind = match (roll >> 10) % 3 {
                    0 => FaultKind::Error,
                    1 => FaultKind::Disconnect {
                        outage: 1 + ((roll >> 20) % 2) as u32,
                    },
                    _ => FaultKind::Truncate { keep: 1 },
                };
                plan = plan.fault_at(index, kind);
            }
        }
        plan
    }

    /// Indices with a scheduled fault (not counting killed lists).
    pub fn scheduled(&self) -> BTreeSet<u64> {
        self.at.keys().copied().collect()
    }

    /// Number of scheduled point faults.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty() && self.dead_from.is_empty()
    }
}

/// A [`Middleware`] wrapper that injects the faults of a [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct FaultInjector<M> {
    inner: M,
    plan: FaultPlan,
    access_index: u64,
    /// Per-list remaining outage calls (from [`FaultKind::Disconnect`]).
    outages: Vec<u64>,
    faults_injected: u64,
}

enum Injection {
    Fail,
    Truncate(usize),
    Delay(Duration),
    SlowDrip(u64),
    None,
}

impl<M: Middleware> FaultInjector<M> {
    /// Wraps `inner`, injecting per `plan`.
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        let m = inner.num_lists();
        FaultInjector {
            inner,
            plan,
            access_index: 0,
            outages: vec![0; m],
            faults_injected: 0,
        }
    }

    /// The wrapped middleware.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The wrapped middleware, mutably (for reattaching recorders etc.).
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Unwraps the injector.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// How many calls failed (or were truncated) by injection so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Middleware calls placed through the injector so far.
    pub fn accesses(&self) -> u64 {
        self.access_index
    }

    /// Decides the fate of the call now being placed on `list`, advancing
    /// the access index and outage counters.
    fn inject(&mut self, list: usize) -> Injection {
        let idx = self.access_index;
        self.access_index += 1;
        if let Some(&from) = self.plan.dead_from.get(&list) {
            if idx >= from {
                self.faults_injected += 1;
                return Injection::Fail;
            }
        }
        if list < self.outages.len() && self.outages[list] > 0 {
            self.outages[list] -= 1;
            self.faults_injected += 1;
            return Injection::Fail;
        }
        match self.plan.at.get(&idx) {
            Some(FaultKind::Error) => {
                self.faults_injected += 1;
                Injection::Fail
            }
            Some(FaultKind::Disconnect { outage }) => {
                if list < self.outages.len() {
                    self.outages[list] += u64::from(*outage);
                }
                self.faults_injected += 1;
                Injection::Fail
            }
            Some(FaultKind::Truncate { keep }) => {
                self.faults_injected += 1;
                Injection::Truncate((*keep).max(1))
            }
            Some(FaultKind::Delay { micros }) => Injection::Delay(Duration::from_micros(*micros)),
            Some(FaultKind::SlowDrip { micros_per_entry }) => {
                Injection::SlowDrip(*micros_per_entry)
            }
            None => Injection::None,
        }
    }
}

impl<M: Middleware> Middleware for FaultInjector<M> {
    fn num_lists(&self) -> usize {
        self.inner.num_lists()
    }

    fn num_objects(&self) -> usize {
        self.inner.num_objects()
    }

    fn sorted_next_batch(
        &mut self,
        list: usize,
        max: usize,
        out: &mut Vec<Entry>,
    ) -> Result<usize, AccessError> {
        match self.inject(list) {
            Injection::Fail => Err(AccessError::SourceUnavailable { list }),
            // A short batch is contract-legal and must NOT read as
            // exhaustion — `keep` is clamped to ≥ 1 at plan build time.
            Injection::Truncate(keep) => self.inner.sorted_next_batch(list, max.min(keep), out),
            Injection::Delay(d) => {
                std::thread::sleep(d);
                self.inner.sorted_next_batch(list, max, out)
            }
            Injection::SlowDrip(micros) => {
                let r = self.inner.sorted_next_batch(list, max, out);
                if let Ok(served) = r {
                    std::thread::sleep(Duration::from_micros(micros * served as u64));
                }
                r
            }
            Injection::None => self.inner.sorted_next_batch(list, max, out),
        }
    }

    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError> {
        match self.inject(list) {
            Injection::Fail => Err(AccessError::SourceUnavailable { list }),
            // Serve (and bill) a prefix through the inner middleware, then
            // fail transiently — the contract's mid-batch error shape.
            Injection::Truncate(keep) if keep < objects.len() => {
                self.inner.random_lookup_many(list, &objects[..keep], out)?;
                Err(AccessError::SourceUnavailable { list })
            }
            Injection::Truncate(_) => self.inner.random_lookup_many(list, objects, out),
            Injection::Delay(d) => {
                std::thread::sleep(d);
                self.inner.random_lookup_many(list, objects, out)
            }
            Injection::SlowDrip(micros) => {
                let before = out.len();
                let r = self.inner.random_lookup_many(list, objects, out);
                std::thread::sleep(Duration::from_micros(micros * (out.len() - before) as u64));
                r
            }
            Injection::None => self.inner.random_lookup_many(list, objects, out),
        }
    }

    fn stats(&self) -> &AccessStats {
        self.inner.stats()
    }

    fn policy(&self) -> &AccessPolicy {
        self.inner.policy()
    }

    fn position(&self, list: usize) -> usize {
        self.inner.position(list)
    }

    fn trace(&mut self, kind: EventKind, detail: u32, count: u64) {
        self.inner.trace(kind, detail, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fagin_middleware::{Database, Session};

    fn db() -> Database {
        Database::from_f64_columns(&[vec![0.9, 0.5, 0.1], vec![0.2, 0.8, 0.5]]).unwrap()
    }

    #[test]
    fn scheduled_error_fails_without_billing() {
        let db = db();
        let plan = FaultPlan::new().fault_at(1, FaultKind::Error);
        let mut mw = FaultInjector::new(
            Session::with_policy(&db, AccessPolicy::unrestricted()),
            plan,
        );
        assert!(mw.sorted_next(0).is_ok()); // index 0: clean
        let err = mw.sorted_next(0).unwrap_err(); // index 1: injected
        assert_eq!(err, AccessError::SourceUnavailable { list: 0 });
        assert!(err.is_retryable());
        assert_eq!(mw.stats().total(), 1, "failed call billed nothing");
        assert_eq!(mw.position(0), 1, "cursor did not advance");
        assert_eq!(mw.faults_injected(), 1);
        // The fault was one-shot: the retry (index 2) serves rank 1.
        assert_eq!(mw.sorted_next(0).unwrap().unwrap().object, ObjectId(1));
    }

    #[test]
    fn disconnect_outage_spans_calls_on_the_list() {
        let db = db();
        let plan = FaultPlan::new().fault_at(0, FaultKind::Disconnect { outage: 2 });
        let mut mw = FaultInjector::new(
            Session::with_policy(&db, AccessPolicy::unrestricted()),
            plan,
        );
        assert!(mw.sorted_next(0).is_err()); // the disconnect itself
        assert!(mw.sorted_next(1).is_ok(), "other lists unaffected");
        assert!(mw.sorted_next(0).is_err()); // outage call 1
        assert!(mw.sorted_next(0).is_err()); // outage call 2
        assert!(mw.sorted_next(0).is_ok(), "outage over");
        assert_eq!(mw.faults_injected(), 3);
    }

    #[test]
    fn truncate_shortens_sorted_batches_legally() {
        let db = db();
        let plan = FaultPlan::new().fault_at(0, FaultKind::Truncate { keep: 1 });
        let mut mw = FaultInjector::new(Session::new(&db), plan);
        let mut buf = Vec::new();
        // Truncated to 1 — short, but non-empty and correctly billed.
        assert_eq!(mw.sorted_next_batch(0, 3, &mut buf).unwrap(), 1);
        assert_eq!(mw.stats().sorted_on(0), 1);
        // The next call is clean and resumes where the cursor stands.
        assert_eq!(mw.sorted_next_batch(0, 3, &mut buf).unwrap(), 2);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn truncate_on_random_bills_the_prefix_then_fails() {
        let db = db();
        let plan = FaultPlan::new().fault_at(0, FaultKind::Truncate { keep: 1 });
        let mut mw = FaultInjector::new(
            Session::with_policy(&db, AccessPolicy::unrestricted()),
            plan,
        );
        let mut grades = Vec::new();
        let err = mw
            .random_lookup_many(1, &[ObjectId(0), ObjectId(1)], &mut grades)
            .unwrap_err();
        assert_eq!(err, AccessError::SourceUnavailable { list: 1 });
        assert_eq!(grades.len(), 1, "prefix delivered");
        assert_eq!(mw.stats().random_on(1), 1, "prefix billed");
    }

    #[test]
    fn killed_list_fails_forever_others_survive() {
        let db = db();
        let plan = FaultPlan::new().kill_list_from(1, 2);
        let mut mw = FaultInjector::new(
            Session::with_policy(&db, AccessPolicy::unrestricted()),
            plan,
        );
        assert!(mw.sorted_next(1).is_ok()); // index 0 < 2: still alive
        assert!(mw.sorted_next(1).is_ok()); // index 1
        for _ in 0..3 {
            assert!(mw.sorted_next(1).is_err(), "dead from index 2 on");
        }
        assert!(mw.sorted_next(0).is_ok(), "list 0 unaffected");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_rate_bounded() {
        let a = FaultPlan::seeded(42, 100, 1000);
        let b = FaultPlan::seeded(42, 100, 1000);
        assert_eq!(a.scheduled(), b.scheduled(), "same seed, same schedule");
        let c = FaultPlan::seeded(43, 100, 1000);
        assert_ne!(a.scheduled(), c.scheduled(), "different seed differs");
        // ~10% rate: allow generous slack but catch off-by-10x bugs.
        assert!(a.len() > 50 && a.len() < 200, "got {}", a.len());
        assert!(FaultPlan::seeded(7, 0, 1000).is_empty());
    }
}
