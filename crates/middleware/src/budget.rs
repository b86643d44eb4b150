//! Middleware-cost budgets: enforce `s·c_S + r·c_R ≤ B` around any session.
//!
//! The per-access budget of [`AccessPolicy`](crate::policy::AccessPolicy)
//! caps the *count* `s + r`; a serving system wants to cap the *cost*
//! `s·c_S + r·c_R` (§2's middleware cost), because a random access on an
//! expensive subsystem should spend more of a query's allowance than a
//! sorted one. [`CostBudget`] wraps any [`Middleware`] and refuses accesses
//! that would push the accumulated cost past a limit, reusing the typed
//! [`AccessError::BudgetExhausted`] rejection so algorithms and tests treat
//! both budget kinds uniformly.
//!
//! Batched accesses are truncated at the budget boundary rather than blown
//! past it, exactly like the count budget in
//! [`Session`](crate::session::Session): a sorted batch serves as many
//! entries as the remaining allowance affords (the violation resurfaces on
//! the next call), and a random batch delivers the affordable prefix
//! together with the error.

use crate::cost::{AccessStats, CostModel};
use crate::error::AccessError;
use crate::grade::{Entry, Grade, ObjectId};
use crate::policy::AccessPolicy;
use crate::session::Middleware;

/// A [`Middleware`] wrapper that enforces a middleware-cost budget
/// `s·c_S + r·c_R ≤ limit` on top of the inner session's own policy.
///
/// ```
/// use fagin_middleware::{AccessError, CostBudget, CostModel, Database, Middleware, Session};
///
/// let db = Database::from_f64_columns(&[vec![0.9, 0.5, 0.1]]).unwrap();
/// let session = Session::new(&db);
/// // Budget of 2.5 cost units at c_S = 1: two sorted accesses fit, not three.
/// let mut guarded = CostBudget::new(session, CostModel::UNIT, 2.5);
/// assert!(guarded.sorted_next(0).is_ok());
/// assert!(guarded.sorted_next(0).is_ok());
/// assert_eq!(guarded.sorted_next(0), Err(AccessError::BudgetExhausted));
/// assert_eq!(guarded.spent(), 2.0);
/// ```
#[derive(Debug)]
pub struct CostBudget<M> {
    inner: M,
    model: CostModel,
    limit: f64,
    spent: f64,
}

impl<M: Middleware> CostBudget<M> {
    /// Wraps `inner`, allowing accesses until their cost under `model`
    /// would exceed `limit`.
    ///
    /// # Panics
    /// Panics if `limit` is negative or non-finite.
    pub fn new(inner: M, model: CostModel, limit: f64) -> Self {
        assert!(
            limit >= 0.0 && limit.is_finite(),
            "cost budget must be finite and non-negative"
        );
        CostBudget {
            inner,
            model,
            limit,
            spent: 0.0,
        }
    }

    /// Cost spent so far (`s·c_S + r·c_R` of the accesses served through
    /// this wrapper).
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// The configured limit.
    pub fn limit(&self) -> f64 {
        self.limit
    }

    /// Remaining allowance (never negative).
    pub fn remaining(&self) -> f64 {
        (self.limit - self.spent).max(0.0)
    }

    /// Unwraps the inner middleware.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// The cost model this budget bills under.
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// An early-warning watermark at `fraction` of the limit: the billing
    /// model paired with `fraction·limit`, in the shape an anytime cost
    /// trigger consumes. A run that yields its best certified answer at the
    /// watermark halts gracefully *before* the hard budget would reject an
    /// access mid-round.
    ///
    /// # Panics
    /// Panics unless `fraction` is in `[0, 1]`.
    pub fn watermark(&self, fraction: f64) -> (CostModel, f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "watermark fraction must be in [0, 1]"
        );
        (self.model, self.limit * fraction)
    }

    /// How many accesses of unit cost `unit` the remaining allowance
    /// affords.
    fn affordable(&self, unit: f64) -> usize {
        let slots = (self.remaining() / unit).floor();
        if slots >= usize::MAX as f64 {
            usize::MAX
        } else {
            slots as usize
        }
    }

    /// Whether `list` is already exhausted (so the next sorted access is
    /// the unbilled `Ok(0)` signal, which must not be turned
    /// into a budget violation — drive loops rely on it to retire lists).
    fn sorted_exhausted(&self, list: usize) -> bool {
        list < self.inner.num_lists() && self.inner.position(list) >= self.inner.num_objects()
    }
}

impl<M: Middleware> Middleware for CostBudget<M> {
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
        if max == 0 || self.sorted_exhausted(list) {
            return self.inner.sorted_next_batch(list, max, out);
        }
        let affordable = self.affordable(self.model.sorted);
        if affordable == 0 {
            return Err(AccessError::BudgetExhausted);
        }
        let served = self
            .inner
            .sorted_next_batch(list, max.min(affordable), out)?;
        self.spent += served as f64 * self.model.sorted;
        Ok(served)
    }

    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError> {
        if objects.is_empty() {
            return self.inner.random_lookup_many(list, objects, out);
        }
        let affordable = self.affordable(self.model.random);
        if affordable == 0 {
            return Err(AccessError::BudgetExhausted);
        }
        let take = objects.len().min(affordable);
        let before = out.len();
        let result = self.inner.random_lookup_many(list, &objects[..take], out);
        self.spent += (out.len() - before) as f64 * self.model.random;
        result?;
        if take < objects.len() {
            // The affordable prefix was delivered (and billed); the
            // violation is reported with it, per the Middleware contract.
            return Err(AccessError::BudgetExhausted);
        }
        Ok(())
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

    fn trace(&mut self, kind: fagin_obs::EventKind, detail: u32, count: u64) {
        self.inner.trace(kind, detail, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::session::Session;

    fn db() -> Database {
        Database::from_f64_columns(&[vec![0.9, 0.5, 0.1, 0.3], vec![0.2, 0.8, 0.5, 0.4]]).unwrap()
    }

    #[test]
    fn sorted_cost_budget_enforced() {
        let db = db();
        let mut g = CostBudget::new(Session::new(&db), CostModel::new(2.0, 1.0), 5.0);
        assert!(g.sorted_next(0).is_ok());
        assert!(g.sorted_next(0).is_ok());
        // 4.0 spent; a third sorted access would cost 6.0 > 5.0.
        assert_eq!(g.sorted_next(0), Err(AccessError::BudgetExhausted));
        assert_eq!(g.spent(), 4.0);
        assert_eq!(g.remaining(), 1.0);
        assert_eq!(g.stats().sorted_total(), 2);
    }

    #[test]
    fn weighted_random_accesses_drain_faster() {
        let db = db();
        let session = Session::with_policy(&db, AccessPolicy::unrestricted());
        let mut g = CostBudget::new(session, CostModel::new(1.0, 10.0), 12.0);
        assert!(g.random_lookup(1, ObjectId(0)).is_ok()); // 10.0 spent
        assert_eq!(
            g.random_lookup(1, ObjectId(1)),
            Err(AccessError::BudgetExhausted)
        );
        // Sorted accesses still fit (2.0 remaining at c_S = 1).
        assert!(g.sorted_next(0).is_ok());
        assert!(g.sorted_next(0).is_ok());
        assert_eq!(g.sorted_next(0), Err(AccessError::BudgetExhausted));
    }

    #[test]
    fn exhaustion_is_not_a_violation() {
        let db = db();
        // Budget exactly covers reading one full list.
        let mut g = CostBudget::new(Session::new(&db), CostModel::UNIT, 4.0);
        for _ in 0..4 {
            assert!(g.sorted_next(0).unwrap().is_some());
        }
        // The list is exhausted: Ok(None), not BudgetExhausted.
        assert_eq!(g.sorted_next(0).unwrap(), None);
        let mut buf = Vec::new();
        assert_eq!(g.sorted_next_batch(0, 8, &mut buf).unwrap(), 0);
        // A *fresh* list with no allowance left is a violation.
        assert_eq!(g.sorted_next(1), Err(AccessError::BudgetExhausted));
    }

    #[test]
    fn sorted_batches_truncate_at_the_boundary() {
        let db = db();
        let mut g = CostBudget::new(Session::new(&db), CostModel::UNIT, 3.0);
        let mut buf = Vec::new();
        assert_eq!(g.sorted_next_batch(0, 10, &mut buf).unwrap(), 3);
        assert_eq!(buf.len(), 3);
        assert_eq!(
            g.sorted_next_batch(0, 10, &mut buf),
            Err(AccessError::BudgetExhausted)
        );
        assert_eq!(g.spent(), 3.0);
    }

    #[test]
    fn random_batches_deliver_the_affordable_prefix() {
        let db = db();
        let session = Session::with_policy(&db, AccessPolicy::unrestricted());
        let mut g = CostBudget::new(session, CostModel::new(1.0, 2.0), 5.0);
        let mut grades = Vec::new();
        let err = g
            .random_lookup_many(1, &[ObjectId(0), ObjectId(1), ObjectId(2)], &mut grades)
            .unwrap_err();
        assert_eq!(err, AccessError::BudgetExhausted);
        assert_eq!(grades.len(), 2, "two lookups of cost 2 fit in 5");
        assert_eq!(g.spent(), 4.0);
        assert_eq!(g.stats().random_total(), 2);
    }

    #[test]
    fn inner_errors_pass_through() {
        let db = db();
        // Default policy: wild guesses are forbidden by the inner session.
        let mut g = CostBudget::new(Session::new(&db), CostModel::UNIT, 100.0);
        assert!(matches!(
            g.random_lookup(0, ObjectId(0)),
            Err(AccessError::WildGuess { .. })
        ));
        assert_eq!(g.spent(), 0.0, "refused accesses are not billed");
    }

    #[test]
    fn zero_budget_refuses_everything_billable() {
        let db = db();
        let mut g = CostBudget::new(Session::new(&db), CostModel::UNIT, 0.0);
        assert_eq!(g.sorted_next(0), Err(AccessError::BudgetExhausted));
        assert_eq!(g.num_lists(), 2);
        assert_eq!(g.num_objects(), 4);
        assert_eq!(g.position(0), 0);
        assert!(!g.policy().allow_wild_guesses);
        let session = g.into_inner();
        assert_eq!(session.stats().total(), 0);
    }

    #[test]
    fn watermark_scales_the_limit() {
        let db = db();
        let g = CostBudget::new(Session::new(&db), CostModel::new(1.0, 5.0), 40.0);
        let (model, at) = g.watermark(0.75);
        assert_eq!(model, CostModel::new(1.0, 5.0));
        assert_eq!(at, 30.0);
        assert_eq!(g.model(), CostModel::new(1.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "watermark fraction must be in [0, 1]")]
    fn watermark_fraction_out_of_range_rejected() {
        let db = db();
        let g = CostBudget::new(Session::new(&db), CostModel::UNIT, 1.0);
        let _ = g.watermark(1.5);
    }

    #[test]
    #[should_panic(expected = "cost budget must be finite")]
    fn negative_budget_rejected() {
        let db = db();
        let _ = CostBudget::new(Session::new(&db), CostModel::UNIT, -1.0);
    }
}
