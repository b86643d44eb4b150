//! # fagin-serve
//!
//! The serving layer over the Fagin–Lotem–Naor algorithm suite: a
//! concurrent multi-query top-`k` service ([`TopKService`]) that dispatches
//! [`QueryRequest`]s through the planner onto a fixed worker pool over one
//! shared [`Arc<Database>`](fagin_middleware::Database), with
//!
//! * a **threshold-aware result cache** ([`ResultCache`]): a completed
//!   exact top-`K` run certifies the top-`k` for every `k ≤ K` (the
//!   paper's τ/`M_k` halting logic makes the grade-sorted prefix provably
//!   exact), so smaller-`k` repeats are served in `O(k)` with zero
//!   middleware accesses, and `k > K` near-misses warm-start from the
//!   cached certificate instead of cold-running;
//! * **single-flight coalescing**: identical-shape queries that arrive
//!   while a covering run is still executing register as followers and
//!   receive the leader's canonicalized answer by the same τ-prefix rule —
//!   one cold run per shape per burst, so a multi-worker pool cannot
//!   stampede the subsystem re-computing one answer;
//! * **admission control**: an exact queue-depth cap and per-query
//!   middleware-cost budgets, both rejecting with typed [`ServeError`]s;
//! * **observability** ([`ServiceMetrics`]): throughput, cache hit rate,
//!   coalesced counters, and bounded log₂-bucket histograms for
//!   per-query middleware cost and wall-clock latency; a zero-steady-
//!   state-allocation flight recorder merging every query's lifecycle
//!   events into one service-wide ring ([`TopKService::flight_events`]);
//!   a Prometheus text endpoint ([`TopKService::metrics_text`]); and a
//!   top-N slow-query log ([`TopKService::slow_queries`]).
//!
//! ## Quick tour
//!
//! ```
//! use std::sync::Arc;
//! use fagin_middleware::Database;
//! use fagin_serve::{AggSpec, QueryRequest, ServiceConfig, TopKService};
//!
//! let db = Arc::new(Database::from_f64_columns(&[
//!     vec![0.9, 0.5, 0.1, 0.8],
//!     vec![0.2, 0.8, 0.5, 0.7],
//! ]).unwrap());
//! let service = TopKService::new(db, ServiceConfig::default().with_workers(4));
//!
//! // A cold query plans, executes and caches its certificate…
//! let top2 = service.query(QueryRequest::new(AggSpec::Min, 2)).unwrap();
//! assert!(top2.stats.total() > 0);
//!
//! // …so the smaller-k repeat is served with zero middleware accesses.
//! let top1 = service.query(QueryRequest::new(AggSpec::Min, 1)).unwrap();
//! assert!(top1.is_cache_hit());
//! assert_eq!(top1.stats.total(), 0);
//! assert_eq!(top1.items[0], top2.items[0]);
//!
//! println!("{}", service.metrics());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod error;
mod inflight;
pub mod metrics;
pub mod request;
pub mod service;

pub use cache::{CacheHit, CachedRun, ResultCache};
pub use error::ServeError;
pub use metrics::{ServiceMetrics, SlowQuery};
pub use request::{AggSpec, QueryRequest};
pub use service::{AnswerSource, QueryResponse, QueryTicket, ServiceConfig, TopKService};
