//! # fagin-middleware
//!
//! The middleware substrate for [Fagin, Lotem & Naor, *Optimal Aggregation
//! Algorithms for Middleware*, PODS 2001]: databases of `m` sorted lists
//! over `N` objects, the two access modes (sorted and random), access
//! accounting under the `s·c_S + r·c_R` cost model, and machine-checked
//! access policies that mirror the algorithm classes the paper's theorems
//! quantify over.
//!
//! The algorithms themselves (TA, FA, NRA, CA, …) live in the companion
//! crate `fagin-core`; workload generators live in `fagin-workloads`.
//!
//! ## Quick tour
//!
//! ```
//! use fagin_middleware::{Database, Session, Middleware, AccessPolicy, CostModel};
//!
//! // Three objects, two attribute lists.
//! let db = Database::from_f64_columns(&[
//!     vec![0.9, 0.5, 0.1], // list 0 grades of objects 0, 1, 2
//!     vec![0.2, 0.8, 0.5], // list 1 grades
//! ]).unwrap();
//!
//! let mut session = Session::with_policy(&db, AccessPolicy::no_wild_guesses());
//! let top_of_list_0 = session.sorted_next(0).unwrap().unwrap();
//! assert_eq!(top_of_list_0.object.0, 0);
//!
//! // Random access is allowed once the object has been seen.
//! let g = session.random_lookup(1, top_of_list_0.object).unwrap();
//! assert_eq!(g.value(), 0.2);
//!
//! let cost = CostModel::new(1.0, 5.0).cost(session.stats());
//! assert_eq!(cost, 1.0 * 1.0 + 1.0 * 5.0);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the storage tier reinterprets mapped store bytes as
// entry slices in place, and that one cast lives in `stripe.rs` behind a
// module-scoped `#[allow(unsafe_code)]` with its safety contract spelled
// out (StripePod + StripeBytes). Every other module stays unsafe-free and
// the lint keeps it that way.
#![deny(unsafe_code)]

mod budget;
mod cost;
mod database;
mod error;
mod grade;
mod list;
mod policy;
mod session;
mod shard;
mod slots;
mod source;
mod stripe;

pub use budget::CostBudget;
pub use cost::{AccessStats, CostModel};
pub use database::{Database, DatabaseBuilder};
pub use error::{AccessError, BuildError};
pub use fagin_obs::{EventKind, FlightRecorder, TraceEvent};
pub use grade::{Entry, Grade, ObjectId};
pub use list::SortedList;
pub use policy::{AccessPolicy, SortedAccessSet};
pub use session::{BatchConfig, Middleware, Session};
pub use shard::{DatabaseShard, ShardView};
pub use slots::{SlotSet, SlotTable};
pub use source::{GeneratorSource, GradedSource, MaterializedSource, SubsystemMiddleware};
pub use stripe::{Stripe, StripeBytes, StripeLayoutError, StripePod};
