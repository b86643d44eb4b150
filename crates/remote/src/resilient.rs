//! The resilience layer: retries, backoff, deadlines, and circuit
//! breakers over any [`Middleware`].
//!
//! [`Resilient`] wraps a fallible middleware (the remote transport
//! [`RemoteSource`](crate::RemoteSource), or a
//! [`FaultInjector`](crate::FaultInjector) in tests) and converts its
//! *transient* failures ([`AccessError::is_retryable`]) into one of:
//!
//! * a transparent **retry** — bounded by [`RetryPolicy::max_retries`],
//!   spaced by capped exponential backoff with deterministic xorshift
//!   jitter, and never sleeping past the optional query
//!   [`deadline`](Resilient::set_deadline);
//! * a permanent [`AccessError::SourceLost`] — when retries are
//!   exhausted, the deadline would be blown, or the list's
//!   [`CircuitBreaker`] trips.
//!
//! Non-retryable errors (policy violations, budget exhaustion) pass
//! through untouched: resilience is about the transport, not about
//! relitigating the access model.
//!
//! **Billing stays exact.** The wrapper adds no counters of its own to
//! [`Middleware::stats`] — a failed attempt that billed nothing is
//! retried from the same position, and a partially-billed random batch is
//! retried only for its unserved remainder, so the access counts an
//! algorithm observes are byte-identical to a fault-free run whenever
//! every fault is eventually retried through.
//!
//! Accounting for the *fault plane* lives in [`FaultStats`], shared
//! handles over atomic counters, with the invariant the chaos suite
//! asserts: every observed fault is either retried or converted to a
//! loss — `faults() == retries() + lost_conversions()`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fagin_middleware::{
    AccessError, AccessPolicy, AccessStats, Entry, EventKind, Grade, Middleware, ObjectId,
};

use crate::health::{BreakerConfig, BreakerState, CircuitBreaker};

/// Retry and backoff knobs for one [`Resilient`] wrapper.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries per call (attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0x5DEE_CE66,
        }
    }
}

impl RetryPolicy {
    /// A zero-sleep policy for tests: same retry *logic*, no waiting.
    pub fn instant(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_seed: 0x5DEE_CE66,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    faults: AtomicU64,
    retries: AtomicU64,
    trips: AtomicU64,
    probes_closed: AtomicU64,
    lost_conversions: AtomicU64,
    rejections: AtomicU64,
}

/// Shared fault-plane counters (cloning shares the same counters).
///
/// Invariant: `faults() == retries() + lost_conversions()` — every
/// transient failure observed by the wrapper is either retried or
/// converted into a permanent [`AccessError::SourceLost`]. Open-breaker
/// fast-fails are counted separately in [`FaultStats::rejections`]
/// because no inner fault occurred.
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    c: Arc<Counters>,
}

impl FaultStats {
    /// Transient failures observed from the wrapped middleware.
    pub fn faults(&self) -> u64 {
        self.c.faults.load(Ordering::Relaxed)
    }

    /// Transparent retries performed.
    pub fn retries(&self) -> u64 {
        self.c.retries.load(Ordering::Relaxed)
    }

    /// Circuit-breaker trips (closed/half-open → open).
    pub fn trips(&self) -> u64 {
        self.c.trips.load(Ordering::Relaxed)
    }

    /// Half-open probes that succeeded and closed their breaker.
    pub fn probes_closed(&self) -> u64 {
        self.c.probes_closed.load(Ordering::Relaxed)
    }

    /// Transient faults converted to [`AccessError::SourceLost`]
    /// (retries exhausted, deadline blown, or breaker tripped).
    pub fn lost_conversions(&self) -> u64 {
        self.c.lost_conversions.load(Ordering::Relaxed)
    }

    /// Calls fast-failed by an already-open breaker (no inner fault).
    pub fn rejections(&self) -> u64 {
        self.c.rejections.load(Ordering::Relaxed)
    }
}

/// A [`Middleware`] wrapper adding retries, backoff, deadlines, and
/// per-list circuit breakers (see the module docs).
#[derive(Debug)]
pub struct Resilient<M> {
    inner: M,
    retry: RetryPolicy,
    breakers: Vec<CircuitBreaker>,
    stats: FaultStats,
    deadline: Option<Instant>,
    jitter: u64,
}

impl<M: Middleware> Resilient<M> {
    /// Wraps `inner` with default retry and breaker settings.
    pub fn new(inner: M) -> Self {
        Self::with_policy(inner, RetryPolicy::default(), BreakerConfig::default())
    }

    /// Wraps `inner` with explicit settings.
    pub fn with_policy(inner: M, retry: RetryPolicy, breaker: BreakerConfig) -> Self {
        let m = inner.num_lists();
        Resilient {
            inner,
            retry,
            breakers: vec![CircuitBreaker::new(breaker); m],
            stats: FaultStats::default(),
            deadline: None,
            jitter: retry.jitter_seed | 1,
        }
    }

    /// The wrapped middleware.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The wrapped middleware, mutably.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Unwraps the resilience layer.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// A shared handle on the fault-plane counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats.clone()
    }

    /// Sets (or clears) the query deadline. A retry whose backoff would
    /// sleep past the deadline is not attempted; the call converts to
    /// [`AccessError::SourceLost`] instead, so a struggling source can
    /// degrade the answer but never stall the query.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Convenience: deadline `budget` from now.
    pub fn deadline_within(&mut self, budget: Duration) {
        self.deadline = Some(Instant::now() + budget);
    }

    /// Breaker state of `list`.
    pub fn breaker_state(&self, list: usize) -> BreakerState {
        self.breakers[list].state()
    }

    /// Lists whose breakers are currently open — the input for
    /// failure-aware re-planning
    /// ([`Capabilities::degraded`](../../fagin_core/planner/struct.Capabilities.html)).
    pub fn lost_lists(&self) -> Vec<usize> {
        self.breakers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_open())
            .map(|(i, _)| i)
            .collect()
    }

    /// Breaker admission check: an open breaker fast-fails the call.
    fn admit(&mut self, list: usize) -> Result<(), AccessError> {
        if self.breakers[list].allow() {
            Ok(())
        } else {
            self.stats.c.rejections.fetch_add(1, Ordering::Relaxed);
            Err(AccessError::SourceLost { list })
        }
    }

    fn note_success(&mut self, list: usize) {
        if self.breakers[list].record_success() {
            self.stats.c.probes_closed.fetch_add(1, Ordering::Relaxed);
            // count = 0: a probe closed the breaker.
            self.inner.trace(EventKind::Breaker, list as u32, 0);
        }
    }

    /// Books one transient failure on `list`. Returns `Ok(())` when the
    /// caller should retry (after this method slept the backoff), or the
    /// permanent error to surface.
    fn note_failure(&mut self, list: usize, attempt: &mut u32) -> Result<(), AccessError> {
        self.stats.c.faults.fetch_add(1, Ordering::Relaxed);
        let consecutive = self.breakers[list].consecutive_failures() + 1;
        self.inner
            .trace(EventKind::Fault, list as u32, u64::from(consecutive));
        if self.breakers[list].record_failure() {
            self.stats.c.trips.fetch_add(1, Ordering::Relaxed);
            self.stats
                .c
                .lost_conversions
                .fetch_add(1, Ordering::Relaxed);
            // count = 1: the breaker tripped open.
            self.inner.trace(EventKind::Breaker, list as u32, 1);
            return Err(AccessError::SourceLost { list });
        }
        if *attempt >= self.retry.max_retries {
            self.stats
                .c
                .lost_conversions
                .fetch_add(1, Ordering::Relaxed);
            return Err(AccessError::SourceLost { list });
        }
        let backoff = self.backoff(*attempt);
        if let Some(deadline) = self.deadline {
            if Instant::now() + backoff >= deadline {
                self.stats
                    .c
                    .lost_conversions
                    .fetch_add(1, Ordering::Relaxed);
                return Err(AccessError::SourceLost { list });
            }
        }
        *attempt += 1;
        self.stats.c.retries.fetch_add(1, Ordering::Relaxed);
        self.inner
            .trace(EventKind::Retry, list as u32, u64::from(*attempt));
        if backoff > Duration::ZERO {
            std::thread::sleep(backoff);
        }
        Ok(())
    }

    /// Places `call` on `list` behind the breaker, retrying transient
    /// failures with backoff until it succeeds or converts to a loss.
    fn with_retries<T>(
        &mut self,
        list: usize,
        mut call: impl FnMut(&mut M) -> Result<T, AccessError>,
    ) -> Result<T, AccessError> {
        self.admit(list)?;
        let mut attempt = 0;
        loop {
            match call(&mut self.inner) {
                Ok(v) => {
                    self.note_success(list);
                    return Ok(v);
                }
                Err(e) if e.is_retryable() => self.note_failure(list, &mut attempt)?,
                Err(e) => return Err(e),
            }
        }
    }

    /// Capped exponential backoff with jitter in `[1/2, 1) × window`.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let window = self
            .retry
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.retry.max_backoff);
        if window.is_zero() {
            return Duration::ZERO;
        }
        // xorshift64: deterministic per wrapper, independent of the clock.
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let frac = 0.5 + (self.jitter >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        window.mul_f64(frac)
    }
}

impl<M: Middleware> Middleware for Resilient<M> {
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
        // A failing sorted batch appends nothing (transient transport
        // errors bill nothing; contract errors that bill truncate to Ok),
        // so the retry re-issues the identical request.
        self.with_retries(list, |inner| inner.sorted_next_batch(list, max, out))
    }

    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError> {
        // A transient failure may have served (and billed) a prefix — `out`
        // tells us how far it got; retry only the remainder so nothing is
        // double-billed.
        let base = out.len();
        self.with_retries(list, |inner| {
            let done = out.len() - base;
            inner.random_lookup_many(list, &objects[done..], out)
        })
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
    use crate::fault::{FaultInjector, FaultKind, FaultPlan};
    use fagin_middleware::{Database, Session};

    fn db() -> Database {
        Database::from_f64_columns(&[vec![0.9, 0.5, 0.1], vec![0.2, 0.8, 0.5]]).unwrap()
    }

    fn faulty<'db>(
        db: &'db Database,
        plan: FaultPlan,
        retries: u32,
    ) -> Resilient<FaultInjector<Session<'db>>> {
        Resilient::with_policy(
            FaultInjector::new(Session::with_policy(db, AccessPolicy::unrestricted()), plan),
            RetryPolicy::instant(retries),
            BreakerConfig::default(),
        )
    }

    #[test]
    fn transient_faults_are_retried_transparently() {
        let db = db();
        let plan = FaultPlan::new()
            .fault_at(0, FaultKind::Error)
            .fault_at(3, FaultKind::Disconnect { outage: 1 });
        let mut mw = faulty(&db, plan, 3);
        // Same drive as a clean run; the caller never sees a fault.
        let mut buf = Vec::new();
        assert_eq!(mw.sorted_next_batch(0, 2, &mut buf).unwrap(), 2);
        assert_eq!(mw.sorted_next(1).unwrap().unwrap().object, ObjectId(1));
        assert_eq!(mw.random_lookup(1, ObjectId(0)).unwrap(), Grade::new(0.2));

        // Billing matches a fault-free run exactly.
        assert_eq!(mw.stats().sorted_on(0), 2);
        assert_eq!(mw.stats().sorted_on(1), 1);
        assert_eq!(mw.stats().random_on(1), 1);
        assert_eq!(mw.stats().total(), 4);

        let fs = mw.fault_stats();
        assert_eq!(fs.faults(), 3, "error + disconnect + its outage call");
        assert_eq!(fs.retries(), 3);
        assert_eq!(fs.lost_conversions(), 0);
        assert_eq!(fs.faults(), fs.retries() + fs.lost_conversions());
    }

    #[test]
    fn partial_random_batch_retries_only_the_remainder() {
        let db = db();
        let plan = FaultPlan::new().fault_at(0, FaultKind::Truncate { keep: 1 });
        let mut mw = faulty(&db, plan, 2);
        let mut grades = Vec::new();
        mw.random_lookup_many(1, &[ObjectId(0), ObjectId(1), ObjectId(2)], &mut grades)
            .unwrap();
        assert_eq!(
            grades,
            vec![Grade::new(0.2), Grade::new(0.8), Grade::new(0.5)],
            "order preserved across the splice"
        );
        assert_eq!(mw.stats().random_on(1), 3, "each object billed once");
        assert_eq!(mw.fault_stats().retries(), 1);
    }

    #[test]
    fn exhausted_retries_convert_to_source_lost() {
        let db = db();
        // Dead list, generous breaker: retries run out first.
        let plan = FaultPlan::new().kill_list_from(0, 0);
        let mut mw = Resilient::with_policy(
            FaultInjector::new(
                Session::with_policy(&db, AccessPolicy::unrestricted()),
                plan,
            ),
            RetryPolicy::instant(2),
            BreakerConfig {
                trip_after: 100,
                probe_after: 4,
            },
        );
        let err = mw.sorted_next(0).unwrap_err();
        assert_eq!(err, AccessError::SourceLost { list: 0 });
        assert!(!err.is_retryable());
        let fs = mw.fault_stats();
        assert_eq!(fs.faults(), 3, "initial + 2 retries");
        assert_eq!(fs.retries(), 2);
        assert_eq!(fs.lost_conversions(), 1);
        assert_eq!(fs.faults(), fs.retries() + fs.lost_conversions());
        assert_eq!(mw.stats().total(), 0, "nothing billed for the dead list");
    }

    #[test]
    fn breaker_trips_then_fast_fails_then_probes() {
        let db = db();
        let plan = FaultPlan::new().kill_list_from(0, 0);
        let mut mw = Resilient::with_policy(
            FaultInjector::new(
                Session::with_policy(&db, AccessPolicy::unrestricted()),
                plan,
            ),
            RetryPolicy::instant(10),
            BreakerConfig {
                trip_after: 3,
                probe_after: 2,
            },
        );
        // One call's retry loop hits the trip threshold mid-call.
        assert_eq!(
            mw.sorted_next(0).unwrap_err(),
            AccessError::SourceLost { list: 0 }
        );
        assert_eq!(mw.breaker_state(0), BreakerState::Open);
        assert_eq!(mw.lost_lists(), vec![0]);
        let fs = mw.fault_stats();
        assert_eq!(fs.trips(), 1);
        assert_eq!(fs.faults(), 3, "stopped at the trip, not at max_retries");
        assert_eq!(fs.faults(), fs.retries() + fs.lost_conversions());

        // Open breaker: fast-fail without touching the dead source.
        let before = fs.faults();
        assert_eq!(
            mw.sorted_next(0).unwrap_err(),
            AccessError::SourceLost { list: 0 }
        );
        assert_eq!(mw.fault_stats().faults(), before, "no inner call placed");
        assert_eq!(mw.fault_stats().rejections(), 1);

        // The next admission is the half-open probe; the list is still
        // dead, so it re-trips.
        assert_eq!(
            mw.sorted_next(0).unwrap_err(),
            AccessError::SourceLost { list: 0 }
        );
        assert!(mw.fault_stats().trips() >= 2, "probe failure re-trips");
        // Other lists keep serving the whole time.
        assert!(mw.sorted_next(1).is_ok());
    }

    #[test]
    fn probe_success_closes_the_breaker() {
        let db = db();
        // List 0 dies for a window of accesses, then recovers.
        let mut plan = FaultPlan::new();
        for i in 0..6 {
            plan = plan.fault_at(i, FaultKind::Error);
        }
        let mut mw = Resilient::with_policy(
            FaultInjector::new(
                Session::with_policy(&db, AccessPolicy::unrestricted()),
                plan,
            ),
            RetryPolicy::instant(0),
            BreakerConfig {
                trip_after: 2,
                probe_after: 1,
            },
        );
        // Two calls fail (trip), then fast-fail/probe until recovery.
        let mut lost = 0;
        let mut served = 0;
        for _ in 0..12 {
            match mw.sorted_next(0) {
                Ok(Some(_)) => served += 1,
                Ok(None) => break,
                Err(AccessError::SourceLost { .. }) => lost += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(served >= 3, "all three entries served after recovery");
        assert!(lost >= 2, "the outage surfaced as losses");
        assert_eq!(mw.breaker_state(0), BreakerState::Closed);
        assert!(mw.fault_stats().probes_closed() >= 1);
        assert_eq!(mw.stats().sorted_on(0), served as u64, "billing exact");
    }

    #[test]
    fn deadline_budget_caps_the_retry_loop() {
        let db = db();
        let plan = FaultPlan::new().kill_list_from(0, 0);
        let mut mw = Resilient::with_policy(
            FaultInjector::new(
                Session::with_policy(&db, AccessPolicy::unrestricted()),
                plan,
            ),
            RetryPolicy {
                max_retries: 1000,
                base_backoff: Duration::from_millis(50),
                max_backoff: Duration::from_millis(50),
                jitter_seed: 1,
            },
            BreakerConfig {
                trip_after: 10_000,
                probe_after: 1,
            },
        );
        mw.deadline_within(Duration::from_millis(5));
        let start = Instant::now();
        let err = mw.sorted_next(0).unwrap_err();
        assert_eq!(err, AccessError::SourceLost { list: 0 });
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "gave up instead of sleeping through 1000 × 50ms of backoff"
        );
        let fs = mw.fault_stats();
        assert_eq!(fs.faults(), fs.retries() + fs.lost_conversions());
    }

    #[test]
    fn non_retryable_errors_pass_through() {
        let db = db();
        let mut mw = Resilient::with_policy(
            FaultInjector::new(Session::new(&db), FaultPlan::new()),
            RetryPolicy::instant(3),
            BreakerConfig::default(),
        );
        // Wild guess under the default policy: a contract error, not a
        // transport fault — no retry, no breaker movement.
        let err = mw.random_lookup(0, ObjectId(2)).unwrap_err();
        assert!(matches!(err, AccessError::WildGuess { .. }));
        assert_eq!(mw.fault_stats().faults(), 0);
        assert_eq!(mw.breaker_state(0), BreakerState::Closed);
    }
}
