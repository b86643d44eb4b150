//! The paper's algorithm suite.
//!
//! | Algorithm | Paper | Access modes | Output |
//! |-----------|-------|--------------|--------|
//! | [`Naive`] | §1 | sorted only (full scan) | objects + grades |
//! | [`Fa`] (Fagin's Algorithm) | §3 | sorted + random | objects + grades |
//! | [`Ta`] (Threshold Algorithm) | §4 | sorted + random | objects + grades |
//! | [`Ta::theta`] (TAθ) | §6.2 | sorted + random | θ-approximation |
//! | [`Ta::restricted`] (TA_Z) | §7 | sorted on `Z` + random | objects + grades |
//! | [`Nra`] | §8.1 | sorted only | objects (grades if free) |
//! | [`Ca`] | §8.2 | sorted + selective random | objects (grades if free) |
//! | [`Intermittent`] | §8.4 | sorted + delayed random | objects (grades if free) |
//! | [`MaxTopK`] | §3/§6 | sorted only, `mk` accesses | objects + grades (`t = max` only) |
//! | [`QuickCombine`] | §10 | heuristic sorted scheduling + safety net | objects + grades |
//! | [`StreamCombine`] | §10 | no random access, upper bounds only | objects + grades |
//!
//! All algorithms implement [`TopKAlgorithm`] and run against any
//! [`Middleware`] implementation; they never bypass the access interface,
//! so the session's counters are a complete record of their cost.

mod ca;
mod engine;
mod fa;
mod intermittent;
mod max_algo;
mod naive;
mod quick_combine;
mod sharded;
mod stream_combine;
mod ta;

pub use ca::Ca;
pub use engine::BookkeepingStrategy;
pub use fa::Fa;
pub use intermittent::Intermittent;
pub use max_algo::MaxTopK;
pub use naive::Naive;
pub use quick_combine::QuickCombine;
pub use sharded::Sharded;
pub use stream_combine::StreamCombine;
pub use ta::{Ta, TaStepper, TaView, WarmStart};

pub(crate) use engine::EngineScratch;
pub(crate) use fa::FaScratch;
pub(crate) use ta::TaScratch;

use fagin_middleware::{AccessError, Entry, Grade, Middleware, ObjectId};

use crate::aggregation::Aggregation;
use crate::anytime::AnytimeConfig;
use crate::arena::RunScratch;
use crate::output::{AlgoError, TopKOutput};

/// Re-export under the paper's name.
pub use engine::Nra;

/// A top-`k` aggregation algorithm.
pub trait TopKAlgorithm {
    /// Short name for reports ("TA", "NRA", …).
    fn name(&self) -> String;

    /// Finds the top `k` objects of `mw` under `agg`.
    ///
    /// If the database has fewer than `k` objects, all of them are
    /// returned (the paper assumes `N ≥ k`; we degrade gracefully).
    fn run(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
    ) -> Result<TopKOutput, AlgoError>;

    /// Like [`TopKAlgorithm::run`], but leases all per-run buffers from
    /// `scratch` (see [`RunScratch`]) so a caller executing many queries —
    /// a serving worker, a benchmark loop — allocates nothing per run in
    /// steady state.
    ///
    /// The answer, access sequence and metrics are identical to
    /// [`run`](TopKAlgorithm::run)'s; the arena only changes where the
    /// run's state lives. The default implementation ignores the arena
    /// (algorithms with no reusable state — the naive scan, the max
    /// specialist — have nothing to lease).
    fn run_with(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
        scratch: &mut RunScratch,
    ) -> Result<TopKOutput, AlgoError> {
        let _ = scratch;
        self.run(mw, agg, k)
    }

    /// Like [`TopKAlgorithm::run_with`], but cooperatively interruptible:
    /// at round boundaries the run checks `anytime`'s triggers and, once it
    /// holds a certified snapshot, returns the best-known answer with its
    /// *achieved* guarantee `θ̂` in
    /// [`RunMetrics::approximation_guarantee`] and the trigger in
    /// [`RunMetrics::halt`] instead of running to convergence. A mid-run
    /// middleware budget exhaustion is likewise downgraded to the best
    /// certified snapshot when one exists (and still errors when none
    /// does).
    ///
    /// The default implementation runs to convergence ignoring the config —
    /// algorithms without incremental certificates (the naive scan, FA)
    /// have no sound early answer to return.
    ///
    /// [`RunMetrics::approximation_guarantee`]: crate::output::RunMetrics::approximation_guarantee
    /// [`RunMetrics::halt`]: crate::output::RunMetrics::halt
    fn run_anytime(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
        anytime: &AnytimeConfig,
        scratch: &mut RunScratch,
    ) -> Result<TopKOutput, AlgoError> {
        let _ = anytime;
        self.run_with(mw, agg, k, scratch)
    }
}

/// Validates the common preconditions shared by every algorithm.
pub(crate) fn validate(
    mw: &dyn Middleware,
    agg: &dyn Aggregation,
    k: usize,
) -> Result<(), AlgoError> {
    if k == 0 {
        return Err(AlgoError::ZeroK);
    }
    let m = mw.num_lists();
    if !agg.arity().accepts(m) {
        return Err(AlgoError::ArityMismatch {
            lists: m,
            aggregation: agg.name().to_string(),
        });
    }
    Ok(())
}

/// One sorted access on `list`: a batch of one through the reused `buf`, so
/// a drive loop never pays [`Middleware::sorted_next`]'s per-call buffer.
pub(crate) fn sorted_one(
    mw: &mut dyn Middleware,
    list: usize,
    buf: &mut Vec<Entry>,
) -> Result<Option<Entry>, AccessError> {
    buf.clear();
    mw.sorted_next_batch(list, 1, buf)?;
    Ok(buf.pop())
}

/// One random access: a batch of one through the reused `buf`, so a drive
/// loop never pays [`Middleware::random_lookup`]'s per-call buffer.
pub(crate) fn random_one(
    mw: &mut dyn Middleware,
    list: usize,
    object: ObjectId,
    buf: &mut Vec<Grade>,
) -> Result<Grade, AccessError> {
    buf.clear();
    mw.random_lookup_many(list, &[object], buf)?;
    Ok(buf[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{Min, MinPlus};
    use fagin_middleware::{Database, Session};

    #[test]
    fn validate_rejects_zero_k() {
        let db = Database::from_f64_columns(&[vec![0.5]]).unwrap();
        let s = Session::new(&db);
        assert_eq!(validate(&s, &Min, 0), Err(AlgoError::ZeroK));
        assert!(validate(&s, &Min, 1).is_ok());
    }

    #[test]
    fn validate_rejects_arity_mismatch() {
        let db = Database::from_f64_columns(&[vec![0.5], vec![0.5]]).unwrap();
        let s = Session::new(&db);
        assert!(matches!(
            validate(&s, &MinPlus, 1),
            Err(AlgoError::ArityMismatch { lists: 2, .. })
        ));
    }
}
