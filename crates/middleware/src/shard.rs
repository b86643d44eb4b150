//! Horizontal partitioning of a [`Database`] into disjoint shards.
//!
//! A shard is itself a full [`Database`] over a subset of the objects, with
//! dense *local* object ids and per-list rank orders that are restrictions
//! of the global orders (ties keep their global order). This is the
//! substrate for parallel top-`k` execution: because every shard is an
//! ordinary database, any algorithm and any [`AccessPolicy`] runs against a
//! shard unchanged through a normal [`Session`].
//!
//! The containment property that makes sharded top-`k` exact lives here
//! conceptually but is enforced by the merge logic in `fagin-core`: for any
//! aggregation, an object in the global top-`k` is also in the top-`k` of
//! its own shard, because the objects beating it within the shard are a
//! subset of the objects beating it globally.
//!
//! [`AccessPolicy`]: crate::policy::AccessPolicy
//! [`Session`]: crate::session::Session

#![allow(clippy::needless_range_loop)] // indexing parallel columns is the clearest form here

use crate::database::Database;
use crate::grade::ObjectId;
use crate::policy::AccessPolicy;
use crate::session::Session;

/// One horizontal partition of a [`Database`].
///
/// Objects are renumbered densely inside the shard; [`DatabaseShard::to_global`]
/// translates shard-local ids back to ids in the original database.
#[derive(Clone, Debug)]
pub struct DatabaseShard {
    index: usize,
    database: Database,
    /// Local object index → global object id.
    global_ids: Vec<ObjectId>,
}

impl DatabaseShard {
    /// Which shard this is (`0..shard_count`).
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard's own database, with local object ids.
    #[inline]
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Number of objects in this shard.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.database.num_objects()
    }

    /// Translates a shard-local object id to the global id.
    ///
    /// # Panics
    /// Panics if `local` is not an object of this shard.
    #[inline]
    pub fn to_global(&self, local: ObjectId) -> ObjectId {
        self.global_ids[local.index()]
    }

    /// The global ids of this shard's objects, indexed by local id.
    #[inline]
    pub fn global_ids(&self) -> &[ObjectId] {
        &self.global_ids
    }

    /// Opens a counted, policy-enforcing access session over this shard:
    /// a plain [`Session`] on the shard's database, serving local ids
    /// ([`DatabaseShard::to_global`] translates them).
    pub fn session(&self, policy: AccessPolicy) -> Session<'_> {
        Session::with_policy(&self.database, policy)
    }
}

impl Database {
    /// Partitions the database into `shards` disjoint shards, round-robin by
    /// object id (object `j` lands in shard `j % shards`).
    ///
    /// `shards` is clamped to `1..=N` so every shard is nonempty. Each
    /// shard's lists preserve the global rank order restricted to the
    /// shard's objects, including the order of ties, so running an
    /// algorithm against a shard is indistinguishable from running it
    /// against a database that never contained the other objects.
    pub fn shard(&self, shards: usize) -> Vec<DatabaseShard> {
        let n = self.num_objects();
        let count = shards.clamp(1, n);

        // Global object index -> (owning shard, dense local id).
        let mut owner = vec![(0usize, ObjectId(0)); n];
        let mut global_ids: Vec<Vec<ObjectId>> = vec![Vec::new(); count];
        for j in 0..n {
            let s = j % count;
            owner[j] = (s, ObjectId::from(global_ids[s].len()));
            global_ids[s].push(ObjectId::from(j));
        }

        // Split every list's ranked entries among the shards, keeping order.
        let mut ranked: Vec<Vec<Vec<crate::grade::Entry>>> = (0..count)
            .map(|s| {
                (0..self.num_lists())
                    .map(|_| Vec::with_capacity(global_ids[s].len()))
                    .collect()
            })
            .collect();
        for list in 0..self.num_lists() {
            for entry in self.list(list).iter() {
                let (s, local) = owner[entry.object.index()];
                ranked[s][list].push(crate::grade::Entry {
                    object: local,
                    grade: entry.grade,
                });
            }
        }

        // The trusted constructor skips re-validating what the source
        // database already proved (each shard list is a rank-preserving
        // restriction of a sorted list), so the per-shard sorted order —
        // entries *and* the random-access rank index — is computed exactly
        // once here; shard sorted-view reads are `O(1)` rank lookups with
        // no re-sort or re-scan anywhere on the read path.
        ranked
            .into_iter()
            .zip(global_ids)
            .enumerate()
            .map(|(index, (lists, global_ids))| DatabaseShard {
                index,
                database: Database::from_ranked_lists_trusted(lists),
                global_ids,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grade::Grade;
    use crate::session::Middleware;

    fn db() -> Database {
        Database::from_f64_columns(&[vec![0.9, 0.5, 0.1, 0.7, 0.3], vec![0.2, 0.8, 0.5, 0.4, 0.6]])
            .unwrap()
    }

    #[test]
    fn shards_partition_all_objects() {
        let db = db();
        for count in 1..=5 {
            let shards = db.shard(count);
            assert_eq!(shards.len(), count);
            let mut seen: Vec<ObjectId> = shards
                .iter()
                .flat_map(|s| s.global_ids().iter().copied())
                .collect();
            seen.sort();
            assert_eq!(seen, db.objects().collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_grades_match_global() {
        let db = db();
        for shard in db.shard(2) {
            for local in shard.database().objects() {
                let global = shard.to_global(local);
                assert_eq!(
                    shard.database().row(local).unwrap(),
                    db.row(global).unwrap(),
                    "shard {} object {local} should mirror global {global}",
                    shard.index()
                );
            }
        }
    }

    #[test]
    fn shard_lists_preserve_rank_order() {
        let db = db();
        for shard in db.shard(3) {
            for list in 0..db.num_lists() {
                let grades: Vec<Grade> = shard
                    .database()
                    .list(list)
                    .iter()
                    .map(|e| e.grade)
                    .collect();
                let mut sorted = grades.clone();
                sorted.sort_by(|a, b| b.cmp(a));
                assert_eq!(grades, sorted, "shard lists must stay descending");
            }
        }
    }

    #[test]
    fn shard_count_clamps_to_object_count() {
        let db = db();
        assert_eq!(db.shard(0).len(), 1);
        assert_eq!(db.shard(99).len(), 5);
        for shard in db.shard(99) {
            assert_eq!(shard.num_objects(), 1);
        }
    }

    #[test]
    fn shard_session_batches_local_ids() {
        let db = db();
        let shards = db.shard(2);
        let shard = &shards[0]; // objects 0, 2, 4 round-robin
        let mut session = shard.session(AccessPolicy::no_wild_guesses());
        assert_eq!(session.num_objects(), 3);
        let mut buf = Vec::new();
        assert_eq!(session.sorted_next_batch(0, 10, &mut buf).unwrap(), 3);
        assert_eq!(session.stats().sorted_on(0), 3);
        // Entries carry local ids; the shard translates them to global.
        let globals: Vec<u32> = buf.iter().map(|e| shard.to_global(e.object).0).collect();
        assert_eq!(globals, vec![0, 4, 2], "grades 0.9, 0.3, 0.1 descending");
        assert!(session.has_seen(buf[0].object));
        // Batched random lookups flow through the same policy machinery.
        let mut grades = Vec::new();
        session
            .random_lookup_many(1, &[buf[0].object], &mut grades)
            .unwrap();
        assert_eq!(grades.len(), 1);
        assert_eq!(session.into_stats().total(), 4);
    }

    #[test]
    fn tie_order_is_preserved_within_a_shard() {
        // All grades tied in list 0: global tie order is by construction the
        // column order; shard restrictions must keep relative order.
        let db = Database::from_f64_columns(&[vec![0.5; 6], vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]])
            .unwrap();
        for shard in db.shard(2) {
            let globals: Vec<ObjectId> = shard
                .database()
                .list(0)
                .iter()
                .map(|e| shard.to_global(e.object))
                .collect();
            let mut sorted = globals.clone();
            sorted.sort();
            assert_eq!(globals, sorted, "tied entries must keep global order");
        }
    }
}
