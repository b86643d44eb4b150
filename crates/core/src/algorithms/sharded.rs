//! Sharded parallel top-`k` execution.
//!
//! [`Sharded`] wraps any [`TopKAlgorithm`] and runs it over a horizontally
//! partitioned database: objects are split into `n` disjoint shards
//! ([`Database::shard`]), the inner algorithm runs on every shard in
//! parallel (one OS thread per shard), and the per-shard answers are merged
//! by a threshold-checked resolution pass.
//!
//! ## Why this is exact
//!
//! For *any* aggregation function, an object `R` in the global top-`k` is
//! also in the top-`k` of its own shard: the objects that beat `R` inside
//! the shard are a subset of the objects that beat `R` globally, so fewer
//! than `k` of them exist. Hence the union of the per-shard top-`k` answers
//! contains the global top-`k`, and the merge only has to rank at most
//! `n·k` candidates. Monotonicity of the aggregation is what lets the
//! *inner* algorithms (TA, NRA, CA, …) be exact per shard, exactly as in
//! the unsharded case — sharding neither adds nor removes assumptions.
//!
//! The merge additionally cross-checks the per-shard halting thresholds:
//! for a monotone aggregation, `max_i τ_i` bounds the overall grade of any
//! object no shard examined, so it is reported as the merged run's
//! [`final_threshold`](RunMetrics::final_threshold).
//!
//! ## Cost accounting
//!
//! Every access still flows through a per-shard [`Session`], and the merged
//! [`AccessStats`] is the sum over shards — plus the random accesses of the
//! resolution pass, which re-grades candidates whose inner algorithm
//! reported no grade (e.g. NRA). Wall-clock time parallelizes; middleware
//! cost, by design, is the honest total.

use std::thread;

use fagin_middleware::{
    AccessPolicy, AccessStats, BatchConfig, Database, Grade, Middleware, ObjectId, Session,
};

use crate::aggregation::Aggregation;
use crate::algorithms::TopKAlgorithm;
use crate::output::{AlgoError, RunMetrics, ScoredObject, TopKOutput};

/// Runs an inner [`TopKAlgorithm`] over `n` database shards in parallel and
/// merges the answers exactly.
///
/// ```
/// use fagin_core::aggregation::Min;
/// use fagin_core::algorithms::{Sharded, Ta};
/// use fagin_middleware::Database;
///
/// let db = Database::from_f64_columns(&[
///     vec![0.9, 0.5, 0.1, 0.8],
///     vec![0.2, 0.8, 0.5, 0.7],
/// ]).unwrap();
/// let top = Sharded::new(Ta::new(), 2).run(&db, &Min, 1).unwrap();
/// assert_eq!(top.items[0].object.0, 3); // min(0.8, 0.7) = 0.7 wins
/// ```
#[derive(Clone, Debug)]
pub struct Sharded<A> {
    inner: A,
    shards: usize,
    batch: BatchConfig,
}

impl<A: TopKAlgorithm + Sync> Sharded<A> {
    /// Wraps `inner`, to be run over `shards` shards (clamped to the number
    /// of objects at run time; `0` behaves as `1`).
    pub fn new(inner: A, shards: usize) -> Self {
        Sharded {
            inner,
            shards: shards.max(1),
            batch: BatchConfig::scalar(),
        }
    }

    /// Sets the merge coordinator's batch configuration: the resolution
    /// pass fetches missing candidate grades in chunks of `batch.size()`
    /// objects per [`Middleware::random_lookup_many`] call (scalar lookups
    /// with the default).
    ///
    /// Per-shard batching is configured on the *inner* algorithm (e.g.
    /// `Sharded::new(Ta::new().batched(64), 4)`): every shard runs the
    /// inner algorithm against its own [`Session`] on the shard's
    /// database, so shard sessions batch independently and sharding
    /// composes with batching.
    ///
    /// [`Session`]: fagin_middleware::Session
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Convenience for [`Sharded::with_batch`]`(BatchConfig::new(size))`.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn batched(self, size: usize) -> Self {
        self.with_batch(BatchConfig::new(size))
    }

    /// Short name for reports, e.g. `"Sharded<TA>×4"`.
    pub fn name(&self) -> String {
        format!("Sharded<{}>×{}", self.inner.name(), self.shards)
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Finds the global top `k` of `db` under `agg`, running the inner
    /// algorithm per shard under the default access policy.
    pub fn run(
        &self,
        db: &Database,
        agg: &dyn Aggregation,
        k: usize,
    ) -> Result<TopKOutput, AlgoError> {
        self.run_with_policy(db, AccessPolicy::default(), agg, k)
    }

    /// Finds the global top `k` of `db` under `agg`; each shard session is
    /// opened with a clone of `policy`.
    ///
    /// Note that a per-session access budget in `policy` applies to each
    /// shard independently, not to the merged total. The merge coordinator
    /// itself is **not** bound by `policy`: when the inner algorithm
    /// returns objects without grades (NRA-style output), the resolution
    /// pass grades them through an unrestricted session on `db` — those
    /// random accesses are counted in the merged stats, so a
    /// random-access-incapable deployment should inspect
    /// [`AccessStats::random_total`] rather than rely on the policy to
    /// reject the run.
    pub fn run_with_policy(
        &self,
        db: &Database,
        policy: AccessPolicy,
        agg: &dyn Aggregation,
        k: usize,
    ) -> Result<TopKOutput, AlgoError> {
        self.run_on_shards(db, &db.shard(self.shards), policy, agg, k)
    }

    /// Finds the global top `k` using pre-built `shards` of `db`.
    ///
    /// Partitioning is `O(N·m)` while a top-`k` query usually touches far
    /// fewer entries, so a serving system shards once
    /// ([`Database::shard`]) and amortizes that cost over every query it
    /// answers. `shards` must partition `db` (as produced by
    /// [`Database::shard`]).
    ///
    /// # Panics
    /// Release builds panic when the shard sizes do not sum to `db`'s
    /// object count; debug builds verify the full partition property
    /// (every object in exactly one shard). Shards of a *different*
    /// database that happen to have the right total are the caller's
    /// responsibility in release mode.
    pub fn run_on_shards(
        &self,
        db: &Database,
        shards: &[fagin_middleware::DatabaseShard],
        policy: AccessPolicy,
        agg: &dyn Aggregation,
        k: usize,
    ) -> Result<TopKOutput, AlgoError> {
        if k == 0 {
            return Err(AlgoError::ZeroK);
        }
        let m = db.num_lists();
        if !agg.arity().accepts(m) {
            return Err(AlgoError::ArityMismatch {
                lists: m,
                aggregation: agg.name().to_string(),
            });
        }
        assert_eq!(
            shards.iter().map(|s| s.num_objects()).sum::<usize>(),
            db.num_objects(),
            "shards must partition the database"
        );
        #[cfg(debug_assertions)]
        {
            let mut covered = vec![false; db.num_objects()];
            for global in shards.iter().flat_map(|s| s.global_ids()) {
                let slot = covered
                    .get_mut(global.index())
                    .expect("shard object id outside the database");
                assert!(!*slot, "object {global} appears in two shards");
                *slot = true;
            }
        }

        // Phase 1: the inner algorithm on every shard, in parallel. Each
        // shard asks for the full k (graceful when a shard has fewer
        // objects) so the union of answers contains the global top-k. Each
        // shard runs on its own Session, so an inner algorithm's
        // BatchConfig amortizes per shard session.
        let per_shard: Vec<Result<TopKOutput, AlgoError>> = thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|shard| {
                    let policy = policy.clone();
                    scope.spawn(move || {
                        let mut session = shard.session(policy);
                        self.inner.run(&mut session, agg, k)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        // Phase 2: collect candidates with global ids, remembering which
        // arrived without grades (NRA-style output) for the resolution
        // pass below.
        let mut stats = AccessStats::new(m);
        let mut metrics = RunMetrics::new();
        let mut candidates: Vec<ScoredObject> = Vec::new();
        let mut unresolved: Vec<usize> = Vec::new();

        for (shard, result) in shards.iter().zip(per_shard) {
            let out = result?;
            // Contract of TopKAlgorithm::run: a database with fewer than k
            // objects yields them all. A short answer is a bug in the inner
            // algorithm, not a recoverable condition.
            let expected = k.min(shard.num_objects());
            assert!(
                out.items.len() >= expected,
                "{} returned {} of the {expected} items owed by shard {}",
                self.inner.name(),
                out.items.len(),
                shard.index()
            );

            stats += out.stats;
            metrics.rounds = metrics.rounds.max(out.metrics.rounds);
            metrics.peak_buffer += out.metrics.peak_buffer;
            metrics.random_access_phases += out.metrics.random_access_phases;
            metrics.bound_recomputations += out.metrics.bound_recomputations;
            // Shard-local eviction logs are reported in global id space.
            metrics
                .evicted
                .extend(out.metrics.evicted.iter().map(|&o| shard.to_global(o)));
            metrics.approximation_guarantee = metrics
                .approximation_guarantee
                .max(out.metrics.approximation_guarantee);
            // For monotone t, any object unseen by shard i has grade ≤ τ_i,
            // so max_i τ_i is a valid global threshold.
            if let Some(tau) = out.metrics.final_threshold {
                metrics.final_threshold =
                    Some(metrics.final_threshold.map_or(tau, |t: Grade| t.max(tau)));
            }

            // Cross-check each exact shard answer (debug builds): every
            // object the shard did NOT return must score at most
            // max(τ_i, worst answer grade) — unseen objects are below τ_i
            // by monotonicity, examined-but-rejected ones below the answer
            // floor by exactness. A shard answering wrong trips this.
            #[cfg(debug_assertions)]
            if out.metrics.approximation_guarantee == 1.0 {
                // Sorted ids + binary search, consistent with the engine's
                // `Selection::contains` — no per-merge hash set.
                let answered = {
                    let mut ids: Vec<ObjectId> = out.items.iter().map(|i| i.object).collect();
                    ids.sort_unstable();
                    ids
                };
                let oracle =
                    |local| agg.evaluate(&shard.database().row(local).expect("object exists"));
                let floor = out
                    .items
                    .iter()
                    .map(|i| i.grade.unwrap_or_else(|| oracle(i.object)))
                    .min();
                if let Some(floor) = floor {
                    let cert = out.metrics.final_threshold.map_or(floor, |t| t.max(floor));
                    for local in shard.database().objects() {
                        if answered.binary_search(&local).is_err() {
                            debug_assert!(
                                oracle(local) <= cert,
                                "{} missed shard {} object {local} scoring above \
                                 its exactness certificate {cert}",
                                self.inner.name(),
                                shard.index()
                            );
                        }
                    }
                }
            }
            for item in out.items {
                let object = shard.to_global(item.object);
                if item.grade.is_none() {
                    unresolved.push(candidates.len());
                }
                candidates.push(ScoredObject {
                    object,
                    grade: item.grade,
                });
            }
        }

        // Resolution pass: grade the unresolved candidates through a
        // counted session, `batch.size()` objects per batched lookup (one
        // policy check and one stats bump per chunk per list; the scalar
        // default reproduces the per-object lookup order exactly).
        let mut resolver = Session::with_policy(db, AccessPolicy::unrestricted());
        if !unresolved.is_empty() {
            let mut scratch: Vec<Grade> = Vec::with_capacity(m);
            let mut objects: Vec<ObjectId> = Vec::new();
            let mut grades: Vec<Grade> = Vec::new();
            let mut rows: Vec<Grade> = Vec::new();
            for chunk in unresolved.chunks(self.batch.size()) {
                objects.clear();
                objects.extend(chunk.iter().map(|&i| candidates[i].object));
                rows.clear();
                rows.resize(chunk.len() * m, Grade::ZERO);
                for list in 0..m {
                    grades.clear();
                    resolver.random_lookup_many(list, &objects, &mut grades)?;
                    for (i, &g) in grades.iter().enumerate() {
                        rows[i * m + list] = g;
                    }
                }
                for (i, &idx) in chunk.iter().enumerate() {
                    scratch.clear();
                    scratch.extend_from_slice(&rows[i * m..(i + 1) * m]);
                    candidates[idx].grade = Some(agg.evaluate(&scratch));
                }
            }
        }
        stats += resolver.into_stats();

        // Phase 3: rank the candidate pool and keep the top k. Ties break
        // by object id so the merge is deterministic.
        candidates.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.object.cmp(&b.object)));
        let keep = k.min(db.num_objects());
        debug_assert!(
            candidates.len() >= keep,
            "candidate pool must cover the answer"
        );
        candidates.truncate(keep);

        Ok(TopKOutput {
            items: candidates,
            stats,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{Average, Min};
    use crate::algorithms::{BookkeepingStrategy, Nra, Ta};

    fn db() -> Database {
        Database::from_f64_columns(&[
            vec![0.9, 0.5, 0.1, 0.8, 0.35, 0.62],
            vec![0.2, 0.8, 0.5, 0.7, 0.95, 0.41],
        ])
        .unwrap()
    }

    fn plain_top(db: &Database, k: usize) -> Vec<(u32, Grade)> {
        let mut s = Session::new(db);
        Ta::new()
            .run(&mut s, &Min, k)
            .unwrap()
            .items
            .iter()
            .map(|i| (i.object.0, i.grade.unwrap()))
            .collect()
    }

    #[test]
    fn matches_unsharded_ta() {
        let db = db();
        for shards in [1, 2, 3, 6, 10] {
            let out = Sharded::new(Ta::new(), shards).run(&db, &Min, 3).unwrap();
            let got: Vec<(u32, Grade)> = out
                .items
                .iter()
                .map(|i| (i.object.0, i.grade.unwrap()))
                .collect();
            assert_eq!(got, plain_top(&db, 3), "{} shards", shards);
        }
    }

    #[test]
    fn resolves_grades_for_nra() {
        let db = db();
        let sharded = Sharded::new(Nra::with_strategy(BookkeepingStrategy::LazyHeap), 3);
        let out = sharded
            .run_with_policy(&db, AccessPolicy::no_random_access(), &Average, 2)
            .unwrap();
        assert!(out.items.iter().all(|i| i.grade.is_some()));
        let mut s = Session::new(&db);
        let exact = Ta::new().run(&mut s, &Average, 2).unwrap();
        assert_eq!(out.objects(), exact.objects());
    }

    #[test]
    fn k_larger_than_database() {
        let db = db();
        let out = Sharded::new(Ta::new(), 4).run(&db, &Min, 99).unwrap();
        assert_eq!(out.items.len(), db.num_objects());
    }

    #[test]
    fn rejects_zero_k() {
        assert_eq!(
            Sharded::new(Ta::new(), 2).run(&db(), &Min, 0).unwrap_err(),
            AlgoError::ZeroK
        );
    }

    #[test]
    fn stats_are_summed_over_shards() {
        let db = db();
        let out = Sharded::new(Ta::new(), 2).run(&db, &Min, 1).unwrap();
        assert!(out.stats.total() > 0);
        assert_eq!(out.stats.num_lists(), db.num_lists());
    }

    #[test]
    fn name_mentions_inner_and_count() {
        let s = Sharded::new(Ta::new(), 4);
        assert!(s.name().contains("TA") && s.name().contains('4'));
    }

    #[test]
    fn sharding_composes_with_batching() {
        let db = db();
        // Batched inner algorithm (per-shard sessions batch independently)
        // plus a batched merge resolution pass.
        for (shards, batch) in [(1usize, 2usize), (2, 3), (3, 8), (6, 64)] {
            let sharded = Sharded::new(Ta::new().batched(batch), shards);
            let out = sharded.run(&db, &Min, 3).unwrap();
            let got: Vec<(u32, Grade)> = out
                .items
                .iter()
                .map(|i| (i.object.0, i.grade.unwrap()))
                .collect();
            assert_eq!(got, plain_top(&db, 3), "{shards} shards, batch {batch}");

            let nra = Sharded::new(Nra::new().batched(batch), shards).batched(batch);
            let out = nra
                .run_with_policy(&db, AccessPolicy::no_random_access(), &Min, 3)
                .unwrap();
            let got: Vec<(u32, Grade)> = out
                .items
                .iter()
                .map(|i| (i.object.0, i.grade.unwrap()))
                .collect();
            assert_eq!(got, plain_top(&db, 3), "NRA {shards} shards, batch {batch}");
        }
    }
}
