//! An end-to-end benchmark of the fagin-topk service.
//!
//! Four seeded closed-loop workloads run through the public
//! [`TopKService`](fagin_serve::TopKService) API; every answer is checked
//! against the oracle after timing; and a traced mode replays each executed
//! query through the planner, the engine and a timing middleware wrapper to
//! split the time by layer. See `README.md` for the workloads and metrics.

pub mod bench;
pub mod check;
pub mod gen;
pub mod run;
pub mod stats;
pub mod trace;
