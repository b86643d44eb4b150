//! Subsystem sources: the QBIC-style interface of §2.
//!
//! A middleware system does not own its lists — it *receives answers from
//! subsystems* ("the subsystem will output the graded set … one by one …
//! until the middleware system tells the subsystem to halt", §2), possibly
//! in batches ("ask the subsystem for, say, the top 10 objects in sorted
//! order … then request the next 10"), and some subsystems refuse random
//! access entirely (web search engines).
//!
//! [`GradedSource`] models one such subsystem; [`SubsystemMiddleware`]
//! assembles `m` of them into a [`Middleware`] that algorithms can run
//! against directly — with per-entry access accounting, per-source probe
//! capabilities, and batch prefetching. [`MaterializedSource`] adapts an
//! in-memory list; [`GeneratorSource`] adapts a closure that produces the
//! graded stream lazily (for subsystems whose grades are expensive to
//! compute, §1's "in practice it might well be expensive to compute the
//! field values").

use crate::cost::AccessStats;
use crate::error::AccessError;
use crate::grade::{Entry, Grade, ObjectId};
use crate::list::SortedList;
use crate::policy::AccessPolicy;
use crate::session::Middleware;

/// One subsystem: a graded stream in descending grade order, with an
/// optional random-access probe.
pub trait GradedSource {
    /// The next entry of the graded set, or `None` when exhausted.
    fn next_entry(&mut self) -> Option<Entry>;

    /// Random access, if this subsystem supports it.
    fn probe(&mut self, object: ObjectId) -> Option<Grade>;

    /// Whether [`GradedSource::probe`] works (QBIC: yes; a web search
    /// engine: no).
    fn supports_probe(&self) -> bool;

    /// Number of objects in the subsystem's graded set.
    fn len(&self) -> usize;

    /// Whether the graded set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-memory subsystem backed by a [`SortedList`].
pub struct MaterializedSource {
    list: SortedList,
    cursor: usize,
    probes: bool,
}

impl MaterializedSource {
    /// A source over `list` with random access enabled.
    pub fn new(list: SortedList) -> Self {
        MaterializedSource {
            list,
            cursor: 0,
            probes: true,
        }
    }

    /// Disables random access (a search-engine-like subsystem).
    pub fn without_probe(mut self) -> Self {
        self.probes = false;
        self
    }
}

impl GradedSource for MaterializedSource {
    fn next_entry(&mut self) -> Option<Entry> {
        let e = self.list.at_rank(self.cursor)?;
        self.cursor += 1;
        Some(e)
    }

    fn probe(&mut self, object: ObjectId) -> Option<Grade> {
        if self.probes {
            self.list.grade_of(object)
        } else {
            None
        }
    }

    fn supports_probe(&self) -> bool {
        self.probes
    }

    fn len(&self) -> usize {
        self.list.len()
    }
}

/// A lazily-evaluated subsystem: entries come from a closure, one at a
/// time, and are validated to arrive in descending grade order. Probes are
/// answered from a user-supplied lookup closure (or unsupported).
pub struct GeneratorSource<N, P> {
    next_fn: N,
    probe_fn: Option<P>,
    produced: usize,
    len: usize,
    last_grade: Option<Grade>,
}

impl<N, P> GeneratorSource<N, P>
where
    N: FnMut(usize) -> Option<Entry>,
    P: FnMut(ObjectId) -> Option<Grade>,
{
    /// A generator-backed source of `len` objects. `next_fn(rank)` produces
    /// the entry at `rank`; `probe_fn` answers random accesses.
    pub fn new(len: usize, next_fn: N, probe_fn: Option<P>) -> Self {
        GeneratorSource {
            next_fn,
            probe_fn,
            produced: 0,
            len,
            last_grade: None,
        }
    }
}

impl<N, P> GradedSource for GeneratorSource<N, P>
where
    N: FnMut(usize) -> Option<Entry>,
    P: FnMut(ObjectId) -> Option<Grade>,
{
    fn next_entry(&mut self) -> Option<Entry> {
        if self.produced >= self.len {
            return None;
        }
        let e = (self.next_fn)(self.produced)?;
        if let Some(last) = self.last_grade {
            assert!(
                e.grade <= last,
                "generator source must produce descending grades"
            );
        }
        self.last_grade = Some(e.grade);
        self.produced += 1;
        Some(e)
    }

    fn probe(&mut self, object: ObjectId) -> Option<Grade> {
        self.probe_fn.as_mut().and_then(|f| f(object))
    }

    fn supports_probe(&self) -> bool {
        self.probe_fn.is_some()
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// A [`Middleware`] over `m` subsystem sources, with batch prefetching.
///
/// Batching models §2's "ask … for the top 10 … then request the next 10":
/// entries are pulled from a source `batch` at a time and served from the
/// prefetch buffer; every entry *consumed* counts as one sorted access
/// (prefetched-but-unread entries are not billed — the middleware cost
/// model charges for information transferred to the algorithm).
pub struct SubsystemMiddleware {
    sources: Vec<Box<dyn GradedSource>>,
    buffers: Vec<std::collections::VecDeque<Entry>>,
    batch: usize,
    num_objects: usize,
    stats: AccessStats,
    policy: AccessPolicy,
    positions: Vec<usize>,
    seen: Vec<bool>,
}

impl SubsystemMiddleware {
    /// Refills `list`'s prefetch buffer with one batch from its subsystem.
    fn prefetch(&mut self, list: usize) {
        for _ in 0..self.batch {
            match self.sources[list].next_entry() {
                Some(e) => self.buffers[list].push_back(e),
                None => break,
            }
        }
    }

    /// Assembles sources into a middleware. All sources must agree on the
    /// number of objects.
    ///
    /// # Panics
    /// Panics if `sources` is empty, sizes disagree, or `batch == 0`.
    pub fn new(sources: Vec<Box<dyn GradedSource>>, batch: usize) -> Self {
        assert!(!sources.is_empty(), "need at least one source");
        assert!(batch >= 1, "batch size must be at least 1");
        let n = sources[0].len();
        assert!(
            sources.iter().all(|s| s.len() == n),
            "sources disagree on object count"
        );
        // Derive the policy from the sources' declared capabilities.
        let policy = AccessPolicy {
            allow_random: sources.iter().any(|s| s.supports_probe()),
            ..AccessPolicy::no_wild_guesses()
        };
        let m = sources.len();
        SubsystemMiddleware {
            sources,
            buffers: (0..m).map(|_| std::collections::VecDeque::new()).collect(),
            batch,
            num_objects: n,
            stats: AccessStats::new(m),
            policy,
            positions: vec![0; m],
            seen: vec![false; n],
        }
    }

    /// Whether `object` has been seen under sorted access.
    pub fn has_seen(&self, object: ObjectId) -> bool {
        self.seen.get(object.index()).copied().unwrap_or(false)
    }
}

impl Middleware for SubsystemMiddleware {
    fn num_lists(&self) -> usize {
        self.sources.len()
    }

    fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Fuses the algorithm-side batch with the subsystem-side prefetch
    /// buffer: entries stream from the buffer (refilled in source-batch
    /// pulls) and the whole consumed batch is billed with one stats bump.
    fn sorted_next_batch(
        &mut self,
        list: usize,
        max: usize,
        out: &mut Vec<Entry>,
    ) -> Result<usize, AccessError> {
        if list >= self.sources.len() {
            return Err(AccessError::NoSuchList {
                list,
                num_lists: self.sources.len(),
            });
        }
        let mut served = 0;
        while served < max {
            if self.buffers[list].is_empty() {
                self.prefetch(list);
                if self.buffers[list].is_empty() {
                    break; // subsystem exhausted
                }
            }
            while served < max {
                let Some(entry) = self.buffers[list].pop_front() else {
                    break;
                };
                if entry.object.index() < self.seen.len() {
                    self.seen[entry.object.index()] = true;
                }
                out.push(entry);
                served += 1;
            }
        }
        self.positions[list] += served;
        self.stats.record_sorted_n(list, served as u64);
        Ok(served)
    }

    /// Per-object checks (range, capability, wild guess) run in that order,
    /// so a failing batch bills exactly the lookups before the failing
    /// object.
    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError> {
        if list >= self.sources.len() {
            return Err(AccessError::NoSuchList {
                list,
                num_lists: self.sources.len(),
            });
        }
        let mut served: u64 = 0;
        let mut failure = None;
        for &object in objects {
            if object.index() >= self.num_objects {
                failure = Some(AccessError::NoSuchObject { object });
                break;
            }
            if !self.sources[list].supports_probe() {
                failure = Some(AccessError::RandomAccessForbidden { list });
                break;
            }
            if !self.policy.allow_wild_guesses && !self.seen[object.index()] {
                failure = Some(AccessError::WildGuess { list, object });
                break;
            }
            // Billed before the probe: a probe that finds no grade still
            // counts as an access.
            served += 1;
            match self.sources[list].probe(object) {
                Some(g) => out.push(g),
                None => {
                    failure = Some(AccessError::NoSuchObject { object });
                    break;
                }
            }
        }
        self.stats.record_random_n(list, served);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(grades: &[f64]) -> SortedList {
        let col: Vec<Grade> = grades.iter().map(|&v| Grade::new(v)).collect();
        SortedList::from_column(0, &col).unwrap()
    }

    #[test]
    fn materialized_source_streams_descending() {
        let mut src = MaterializedSource::new(list(&[0.1, 0.9, 0.5]));
        let grades: Vec<f64> = std::iter::from_fn(|| src.next_entry())
            .map(|e| e.grade.value())
            .collect();
        assert_eq!(grades, vec![0.9, 0.5, 0.1]);
        assert!(src.supports_probe());
        assert_eq!(src.probe(ObjectId(0)), Some(Grade::new(0.1)));
    }

    #[test]
    fn probe_can_be_disabled() {
        let mut src = MaterializedSource::new(list(&[0.5])).without_probe();
        assert!(!src.supports_probe());
        assert_eq!(src.probe(ObjectId(0)), None);
    }

    #[test]
    fn generator_source_validates_order() {
        let grades = [0.9, 0.5, 0.1];
        let mut src = GeneratorSource::new(
            3,
            move |rank| Some(Entry::new(rank as u32, grades[rank])),
            None::<fn(ObjectId) -> Option<Grade>>,
        );
        assert_eq!(src.next_entry().unwrap().grade, Grade::new(0.9));
        assert_eq!(src.next_entry().unwrap().grade, Grade::new(0.5));
        assert_eq!(src.next_entry().unwrap().grade, Grade::new(0.1));
        assert!(src.next_entry().is_none());
        assert!(!src.supports_probe());
    }

    #[test]
    #[should_panic(expected = "descending grades")]
    fn generator_source_rejects_ascending() {
        let grades = [0.1, 0.9];
        let mut src = GeneratorSource::new(
            2,
            move |rank| Some(Entry::new(rank as u32, grades[rank])),
            None::<fn(ObjectId) -> Option<Grade>>,
        );
        let _ = src.next_entry();
        let _ = src.next_entry();
    }

    #[test]
    fn subsystem_middleware_batches_and_counts() {
        let sources: Vec<Box<dyn GradedSource>> = vec![
            Box::new(MaterializedSource::new(list(&[0.9, 0.5, 0.1]))),
            Box::new(MaterializedSource::new(list(&[0.2, 0.8, 0.4]))),
        ];
        let mut mw = SubsystemMiddleware::new(sources, 2);
        assert_eq!(mw.num_lists(), 2);
        assert_eq!(mw.num_objects(), 3);

        let e = mw.sorted_next(0).unwrap().unwrap();
        assert_eq!(e.object, ObjectId(0));
        // Only consumed entries are billed, not the prefetched batch.
        assert_eq!(mw.stats().sorted_total(), 1);
        assert!(mw.has_seen(ObjectId(0)));

        // Random access works on probing sources, after sorted sighting.
        let g = mw.random_lookup(1, ObjectId(0)).unwrap();
        assert_eq!(g, Grade::new(0.2));
        // Wild guess rejected.
        assert!(matches!(
            mw.random_lookup(1, ObjectId(2)),
            Err(AccessError::WildGuess { .. })
        ));
    }

    #[test]
    fn probe_free_sources_forbid_random_access() {
        let sources: Vec<Box<dyn GradedSource>> = vec![Box::new(
            MaterializedSource::new(list(&[0.9, 0.1])).without_probe(),
        )];
        let mut mw = SubsystemMiddleware::new(sources, 10);
        let _ = mw.sorted_next(0).unwrap();
        assert!(matches!(
            mw.random_lookup(0, ObjectId(0)),
            Err(AccessError::RandomAccessForbidden { list: 0 })
        ));
        assert!(!mw.policy().allow_random);
    }

    #[test]
    fn batched_reads_fuse_with_prefetch_buffer() {
        let sources: Vec<Box<dyn GradedSource>> = vec![
            Box::new(MaterializedSource::new(list(&[0.9, 0.5, 0.1, 0.05]))),
            Box::new(MaterializedSource::new(list(&[0.2, 0.8, 0.4, 0.6]))),
        ];
        // Subsystem prefetch batch (3) deliberately differs from the
        // algorithm-side batch (2): the buffer bridges the mismatch.
        let mut mw = SubsystemMiddleware::new(sources, 3);
        let mut buf = Vec::new();
        assert_eq!(mw.sorted_next_batch(0, 2, &mut buf).unwrap(), 2);
        assert_eq!(mw.stats().sorted_on(0), 2, "consumed entries billed");
        assert_eq!(mw.position(0), 2);
        // Next batch spans the buffered leftover plus a fresh prefetch.
        buf.clear();
        assert_eq!(mw.sorted_next_batch(0, 5, &mut buf).unwrap(), 2);
        assert_eq!(
            buf.iter().map(|e| e.grade.value()).collect::<Vec<_>>(),
            vec![0.1, 0.05]
        );
        assert_eq!(mw.sorted_next_batch(0, 5, &mut buf).unwrap(), 0);
        assert_eq!(mw.stats().sorted_on(0), 4);
    }

    #[test]
    fn batched_probes_count_once_per_batch() {
        let sources: Vec<Box<dyn GradedSource>> = vec![
            Box::new(MaterializedSource::new(list(&[0.9, 0.5, 0.1]))),
            Box::new(MaterializedSource::new(list(&[0.2, 0.8, 0.4]))),
        ];
        let mut mw = SubsystemMiddleware::new(sources, 2);
        let mut buf = Vec::new();
        mw.sorted_next_batch(0, 3, &mut buf).unwrap(); // see everyone
        let mut grades = Vec::new();
        mw.random_lookup_many(1, &[ObjectId(0), ObjectId(2)], &mut grades)
            .unwrap();
        assert_eq!(grades, vec![Grade::new(0.2), Grade::new(0.4)]);
        assert_eq!(mw.stats().random_on(1), 2);
    }

    #[test]
    fn batched_probes_reject_wild_guesses_mid_batch() {
        let sources: Vec<Box<dyn GradedSource>> = vec![
            Box::new(MaterializedSource::new(list(&[0.9, 0.5, 0.1]))),
            Box::new(MaterializedSource::new(list(&[0.2, 0.8, 0.4]))),
        ];
        let mut mw = SubsystemMiddleware::new(sources, 2);
        let mut buf = Vec::new();
        mw.sorted_next_batch(0, 1, &mut buf).unwrap(); // sees object 0 only
        let mut grades = Vec::new();
        let err = mw
            .random_lookup_many(1, &[ObjectId(0), ObjectId(2)], &mut grades)
            .unwrap_err();
        assert!(matches!(err, AccessError::WildGuess { .. }));
        assert_eq!(grades.len(), 1, "grades before the violation delivered");
        assert_eq!(mw.stats().random_on(1), 1);
    }

    #[test]
    fn exhaustion_is_clean_across_batches() {
        let sources: Vec<Box<dyn GradedSource>> =
            vec![Box::new(MaterializedSource::new(list(&[0.9, 0.5, 0.1])))];
        let mut mw = SubsystemMiddleware::new(sources, 2);
        for _ in 0..3 {
            assert!(mw.sorted_next(0).unwrap().is_some());
        }
        assert!(mw.sorted_next(0).unwrap().is_none());
        assert_eq!(mw.position(0), 3);
        assert_eq!(mw.stats().sorted_total(), 3);
    }
}
