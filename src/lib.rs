//! # fagin-topk
//!
//! A comprehensive Rust implementation of **"Optimal Aggregation Algorithms
//! for Middleware"** (Ronald Fagin, Amnon Lotem, Moni Naor — PODS 2001):
//! the Threshold Algorithm (TA), its approximation (TAθ) and
//! restricted-sorted-access (TA_Z) variants, the No-Random-Access algorithm
//! (NRA), the Combined Algorithm (CA), and the baselines the paper measures
//! them against — over a fully instrumented middleware substrate.
//!
//! This umbrella crate re-exports the six component crates:
//!
//! * [`obs`] — the observability substrate: the zero-allocation flight
//!   recorder, bounded log₂-bucket histograms, and the Chrome-trace /
//!   Prometheus exporters;
//! * [`middleware`] — sorted-list databases, access sessions, cost model,
//!   and machine-checked access policies;
//! * [`core`] — aggregation functions and the algorithm suite;
//! * [`workloads`] — random generators, the paper's adversarial witness
//!   families, and domain scenarios;
//! * [`serve`] — the concurrent multi-query service with its
//!   threshold-aware result cache, admission control and metrics;
//! * [`store`] — the on-disk columnar storage tier: versioned,
//!   checksummed stripe files served zero-copy through mmap;
//! * [`remote`] — the fault-tolerant remote-source tier: the shard-server
//!   TCP transport, deterministic fault injection, and the retry /
//!   circuit-breaker resilience layer.
//!
//! The `prelude` brings the common types into scope:
//!
//! ```
//! use fagin_topk::prelude::*;
//!
//! let db = Database::from_f64_columns(&[
//!     vec![0.9, 0.5, 0.1],
//!     vec![0.2, 0.8, 0.5],
//! ]).unwrap();
//! let mut session = Session::new(&db);
//! let top = Ta::new().run(&mut session, &Min, 1).unwrap();
//! assert_eq!(top.items[0].object.0, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fagin_core as core;
pub use fagin_middleware as middleware;
pub use fagin_obs as obs;
pub use fagin_remote as remote;
pub use fagin_serve as serve;
pub use fagin_store as store;
pub use fagin_workloads as workloads;

/// Commonly used types, in one import.
pub mod prelude {
    pub use fagin_core::aggregation::{
        Aggregation, Average, Constant, Custom, GatedMin, GeometricMean, Max, Median, Min, MinPlus,
        Product, Sum, WeightedSum,
    };
    pub use fagin_core::algorithms::{
        BookkeepingStrategy, Ca, Fa, Intermittent, MaxTopK, Naive, Nra, QuickCombine, Sharded,
        StreamCombine, Ta, TaStepper, TaView, TopKAlgorithm, WarmStart,
    };
    pub use fagin_core::oracle;
    pub use fagin_core::planner::{Capabilities, Guarantee, Plan, PlanError, Planner};
    pub use fagin_core::{
        AlgoError, AnytimeConfig, HaltReason, RunMetrics, RunScratch, ScoredObject, TopKOutput,
    };
    pub use fagin_middleware::{
        AccessError, AccessPolicy, AccessStats, BatchConfig, CostBudget, CostModel, Database,
        DatabaseBuilder, DatabaseShard, Entry, GeneratorSource, Grade, GradedSource,
        MaterializedSource, Middleware, ObjectId, Session, ShardView, SlotSet, SlotTable,
        SortedAccessSet, SubsystemMiddleware,
    };
    pub use fagin_obs::{EventKind, FlightRecorder, Histogram, TraceEvent};
    pub use fagin_remote::{
        BreakerConfig, BreakerState, CircuitBreaker, ConnectError, FaultInjector, FaultKind,
        FaultPlan, FaultStats, RemoteSource, Resilient, RetryPolicy, ServerChaos, ServerHandle,
        ShardInfo, ShardServer,
    };
    pub use fagin_serve::{
        AggSpec, AnswerSource, QueryRequest, QueryResponse, QueryTicket, ResultCache, ServeError,
        ServiceConfig, ServiceMetrics, SlowQuery, TopKService,
    };
    pub use fagin_store::{
        Backend, BackendKind, Store, StoreError, StoreOptions, StoreWriter, Verify,
    };
    pub use fagin_workloads::{
        adversarial, adversary, random, scenarios, AdaptiveAdversary, Witness,
    };
}
