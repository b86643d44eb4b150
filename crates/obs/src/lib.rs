//! Flight-recorder observability for the fagin-topk stack.
//!
//! The paper's algorithms are analyzed in terms of *access cost*; the
//! serving stack built on top of them (coalescing, τ-certified cache
//! hits, degraded θ̂ answers) has behavior no single counter block can
//! explain. This crate supplies the observability primitives every layer
//! shares, designed around one hard constraint: the drive loops they
//! instrument are proven zero-allocation by a counting global allocator,
//! and tracing must not change that.
//!
//! * [`FlightRecorder`] — a preallocated ring of fixed-size binary
//!   [`TraceEvent`]s stamped with a monotonic clock. Recording is a
//!   branch, a clock read and a 40-byte store: no allocation, ever.
//!   Overwrites the oldest event when full (a flight recorder keeps the
//!   *latest* history). Compiles to a no-op without the `recorder`
//!   feature.
//! * [`Histogram`] — a fixed array of 64 log₂ buckets with atomic
//!   counters: constant-memory latency aggregation that replaces
//!   unbounded (or windowed) sample vectors.
//! * [`chrome`] — renders a flight record as Chrome-trace JSON
//!   (`chrome://tracing` / Perfetto).
//! * [`prometheus`] — renders counters, gauges and histograms in the
//!   Prometheus text exposition format, plus a parser so exports can be
//!   round-trip tested.
//!
//! Layering: this crate sits below the middleware — it knows nothing of
//! lists, grades or algorithms. Producers describe themselves through
//! [`EventKind`] plus two opaque payload words whose meaning is
//! documented per kind.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod histogram;
mod recorder;

pub mod chrome;
pub mod prometheus;

pub use event::{EventKind, TraceEvent};
pub use histogram::{Histogram, HistogramSnapshot};
pub use recorder::FlightRecorder;
