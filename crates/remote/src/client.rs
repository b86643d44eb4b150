//! The remote middleware client: a [`Middleware`] over a TCP shard
//! server.
//!
//! [`RemoteSource`] speaks the [`proto`](crate::proto) protocol to a
//! [`ShardServer`](crate::ShardServer) and enforces the *entire access
//! model on the client side* — policy checks, budget clamping, wild-guess
//! detection, position tracking, and access accounting replicate
//! [`Session`]'s two batch methods decision for decision (a scalar access
//! is a batch of one on both, sent as a one-entry request). That is a
//! deliberate invariant, not an optimization: with faults disabled, an
//! algorithm driven over a `RemoteSource` must observe **byte-identical
//! access counts** to the same algorithm over a local [`Session`] on the
//! same database (the loopback parity tests pin this down). The server
//! stays a dumb, stateless entry reader; everything a theorem quantifies
//! over happens here.
//!
//! `RemoteSource` is the *single-attempt* transport: any connection or
//! protocol failure bills nothing, drops the stream (the next call
//! redials lazily), and surfaces as the transient
//! [`AccessError::SourceUnavailable`]. Retries, backoff, deadlines and
//! circuit breaking belong to the [`Resilient`](crate::Resilient) wrapper
//! — compose them with [`RemoteSource::connect_resilient`].
//!
//! [`Session`]: fagin_middleware::Session

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use fagin_middleware::{
    AccessError, AccessPolicy, AccessStats, Entry, EventKind, FlightRecorder, Grade, Middleware,
    ObjectId, SlotSet,
};

use crate::proto::{read_frame, write_frame, Request, Response};
use crate::resilient::Resilient;

/// Mirror of `Session`'s timed-batch threshold: batches at or above this
/// size are individually timed in the flight recorder; smaller ones are
/// deferred clock-free. Kept identical so swapping a local session for a
/// remote source changes the *transport*, not the trace shape.
const TIMED_BATCH_MIN: usize = 8;

/// Mirror of `Session`'s round-boundary decimation stride.
const ROUND_TRACE_STRIDE: u32 = 8;

/// Default per-request socket timeout.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(2);

/// A connection-time failure (distinct from per-access errors: there is
/// no list to blame yet and nothing to degrade onto).
#[derive(Debug)]
pub enum ConnectError {
    /// Dial, read or write failure during the handshake.
    Io(io::Error),
    /// The peer answered the handshake with something other than a valid
    /// `HelloOk`.
    Protocol(String),
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::Io(e) => write!(f, "shard connect failed: {e}"),
            ConnectError::Protocol(m) => write!(f, "shard handshake failed: {m}"),
        }
    }
}

impl std::error::Error for ConnectError {}

impl From<io::Error> for ConnectError {
    fn from(e: io::Error) -> Self {
        ConnectError::Io(e)
    }
}

/// Shape of the served database, learned from the `Hello` handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Number of sorted lists `m`.
    pub lists: usize,
    /// Number of objects `N` (every list has one entry per object).
    pub objects: usize,
    /// Whether the database satisfies the distinctness property (§6).
    pub distinct: bool,
}

/// A policy-enforcing, access-counted [`Middleware`] served over TCP
/// (see the module docs).
#[derive(Debug)]
pub struct RemoteSource {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    info: ShardInfo,
    policy: AccessPolicy,
    stats: AccessStats,
    positions: Vec<usize>,
    seen: SlotSet,
    recorder: Option<FlightRecorder>,
    rounds_untraced: u32,
    reconnects: u64,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

impl RemoteSource {
    /// Connects with the default policy
    /// ([`AccessPolicy::no_wild_guesses`]) and timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ConnectError> {
        Self::connect_with(addr, AccessPolicy::default(), DEFAULT_TIMEOUT)
    }

    /// Connects with an explicit policy and per-request socket timeout.
    ///
    /// The timeout bounds every read and write the source performs, so a
    /// hung server surfaces as a transient error within one request
    /// budget instead of stalling the query.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        policy: AccessPolicy,
        timeout: Duration,
    ) -> Result<Self, ConnectError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ConnectError::Protocol("address resolved to nothing".into()))?;
        let mut source = RemoteSource {
            addr,
            timeout,
            stream: None,
            info: ShardInfo {
                lists: 0,
                objects: 0,
                distinct: false,
            },
            policy,
            stats: AccessStats::new(0),
            positions: Vec::new(),
            seen: SlotSet::new(),
            recorder: None,
            rounds_untraced: 0,
            reconnects: 0,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
        };
        source.dial()?;
        match source.rpc(&Request::Hello) {
            Ok(Response::HelloOk {
                lists,
                objects,
                distinct,
            }) => {
                let objects = usize::try_from(objects)
                    .map_err(|_| ConnectError::Protocol("object count overflows usize".into()))?;
                source.info = ShardInfo {
                    lists: lists as usize,
                    objects,
                    distinct,
                };
            }
            Ok(other) => {
                return Err(ConnectError::Protocol(format!(
                    "expected HelloOk, got {other:?}"
                )))
            }
            Err(e) => return Err(ConnectError::Io(e)),
        }
        source.stats = AccessStats::new(source.info.lists);
        source.positions = vec![0; source.info.lists];
        source.seen.grow_to(source.info.objects);
        Ok(source)
    }

    /// Connects and wraps the source in the default [`Resilient`] layer —
    /// the production composition.
    pub fn connect_resilient(addr: impl ToSocketAddrs) -> Result<Resilient<Self>, ConnectError> {
        Ok(Resilient::new(Self::connect(addr)?))
    }

    /// Builds an *undialed* source over a shape already learned from an
    /// earlier handshake (see [`RemoteSource::info`]): the first access
    /// dials lazily. This lets a worker pool construct its sources
    /// infallibly after one validating probe connection — a worker whose
    /// first dial fails surfaces an ordinary transient
    /// [`AccessError::SourceUnavailable`] instead of dying at spawn.
    pub fn prepared(
        addr: SocketAddr,
        info: ShardInfo,
        policy: AccessPolicy,
        timeout: Duration,
    ) -> Self {
        let mut seen = SlotSet::new();
        seen.grow_to(info.objects);
        RemoteSource {
            addr,
            timeout,
            stream: None,
            info,
            policy,
            stats: AccessStats::new(info.lists),
            positions: vec![0; info.lists],
            seen,
            recorder: None,
            rounds_untraced: 0,
            reconnects: 0,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
        }
    }

    /// The server address this source dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shape of the served database.
    pub fn info(&self) -> ShardInfo {
        self.info
    }

    /// Times the source redialed after a dropped connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Rewinds to a fresh run under `policy`, mirroring
    /// [`Session::reset`](fagin_middleware::Session::reset): counters
    /// zeroed, cursors to the top, seen-set emptied. The TCP connection
    /// is kept.
    pub fn reset(&mut self, policy: AccessPolicy) {
        self.policy = policy;
        self.stats.reset();
        self.positions.fill(0);
        self.seen.reset();
        self.rounds_untraced = 0;
    }

    /// Attaches a flight recorder (see
    /// [`Session::attach_recorder`](fagin_middleware::Session::attach_recorder)).
    pub fn attach_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the flight recorder, if any.
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

    /// Whether `object` has been seen under sorted access this run.
    pub fn has_seen(&self, object: ObjectId) -> bool {
        self.seen.contains(object.index())
    }

    fn dial(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let _ = stream.set_nodelay(true);
        self.stream = Some(stream);
        Ok(())
    }

    /// One request/response exchange. Any failure drops the stream so the
    /// next call redials; the caller maps the error to
    /// [`AccessError::SourceUnavailable`].
    fn rpc(&mut self, req: &Request) -> io::Result<Response> {
        if self.stream.is_none() {
            self.dial()?;
            self.reconnects += 1;
        }
        let result = (|| {
            let stream = self.stream.as_mut().expect("dialed above");
            self.wbuf.clear();
            req.encode(&mut self.wbuf);
            write_frame(stream, &self.wbuf)?;
            read_frame(stream, &mut self.rbuf)?;
            Response::decode(&self.rbuf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        })();
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn fetch_sorted(&mut self, list: usize, pos: usize, n: usize) -> io::Result<Vec<Entry>> {
        let resp = self.rpc(&Request::SortedBatch {
            list: list as u32,
            pos: pos as u64,
            max: n as u32,
        })?;
        match resp {
            Response::Entries(entries) if entries.len() == n => Ok(entries),
            // The server has the full list, so anything but exactly `n`
            // entries is a corrupt or confused peer: fail the attempt
            // (billing nothing) rather than guess.
            other => {
                self.stream = None;
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected {n} entries, got {other:?}"),
                ))
            }
        }
    }

    fn fetch_grades(&mut self, list: usize, objects: &[ObjectId]) -> io::Result<Vec<Grade>> {
        let resp = self.rpc(&Request::RandomMany {
            list: list as u32,
            objects: objects.iter().map(|o| o.0).collect(),
        })?;
        match resp {
            Response::Grades(grades) if grades.len() == objects.len() => Ok(grades),
            other => {
                self.stream = None;
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected {} grades, got {other:?}", objects.len()),
                ))
            }
        }
    }

    fn check_list(&self, list: usize) -> Result<(), AccessError> {
        if list >= self.info.lists {
            Err(AccessError::NoSuchList {
                list,
                num_lists: self.info.lists,
            })
        } else {
            Ok(())
        }
    }
}

impl Middleware for RemoteSource {
    fn num_lists(&self) -> usize {
        self.info.lists
    }

    fn num_objects(&self) -> usize {
        self.info.objects
    }

    /// Mirrors `Session::sorted_next_batch` exactly — one policy check,
    /// one budget clamp, one stats bump per batch — with the slice read
    /// replaced by one RPC. A transport failure bills nothing.
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
        let want = max.min(self.info.objects.saturating_sub(pos));
        if want == 0 {
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
        let entries = self
            .fetch_sorted(list, pos, allowed)
            .map_err(|_| AccessError::SourceUnavailable { list })?;
        out.reserve(allowed);
        for entry in entries {
            self.seen.mark(entry.object.index());
            out.push(entry);
        }
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
                r.defer(EventKind::SortedBatch, allowed as u64);
            }
        }
        Ok(allowed)
    }

    /// Mirrors `Session::random_lookup_many`: the per-object checks run
    /// in `Session`'s order to find how far the batch legally reaches, one
    /// RPC fetches that prefix, and exactly the fetched prefix is billed.
    /// A transport failure bills nothing (the grades never arrived).
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
        let allowed: u64 = match self.policy.access_budget {
            Some(b) => b.saturating_sub(self.stats.total()),
            None => u64::MAX,
        };
        let trace_start = match &self.recorder {
            Some(r) if objects.len() >= TIMED_BATCH_MIN => r.now_nanos(),
            _ => 0,
        };
        let mut served: usize = 0;
        let mut failure = None;
        for &object in objects {
            if object.index() >= self.info.objects {
                failure = Some(AccessError::NoSuchObject { object });
                break;
            }
            if !self.policy.allow_wild_guesses && !self.seen.contains(object.index()) {
                failure = Some(AccessError::WildGuess { list, object });
                break;
            }
            if served as u64 >= allowed {
                failure = Some(AccessError::BudgetExhausted);
                break;
            }
            served += 1;
        }
        if served > 0 {
            let grades = self
                .fetch_grades(list, &objects[..served])
                .map_err(|_| AccessError::SourceUnavailable { list })?;
            out.reserve(grades.len());
            out.extend(grades);
        }
        self.stats.record_random_n(list, served as u64);
        if let Some(r) = &mut self.recorder {
            if objects.len() >= TIMED_BATCH_MIN {
                r.record_span(
                    EventKind::RandomLookup,
                    list as u32,
                    served as u64,
                    trace_start,
                );
            } else {
                r.defer(EventKind::RandomLookup, served as u64);
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
