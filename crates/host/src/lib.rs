//! # df-host — the data-flow machine on real threads
//!
//! The simulated machines (`df-core`, `df-ring`) measure the paper's design
//! in virtual time; this crate *runs* it, mapping the hardware of Boral &
//! DeWitt's data-flow database machine onto one OS process. It shares
//! their compiled plan, kernels and transfer mode through `df-query` and
//! links neither simulator:
//!
//! | paper component                  | host construct                        |
//! |----------------------------------|---------------------------------------|
//! | master controller + ICs          | scheduler (the calling thread)        |
//! | instruction memory cells         | per-cell operand page tables          |
//! | instruction processors (IPs)     | the calling thread + helper threads   |
//! | distribution network             | bounded per-helper dispatch channels  |
//! | arbitration network              | bounded shared completion channel     |
//! | disk cache / mass storage        | `Catalog` page store (`Arc<Page>`s)   |
//!
//! Queries fire at **page granularity** (§3.2): a cell becomes eligible the
//! moment an operand page lands, so restriction of page *k* overlaps the
//! join of page *k − 1* on another core. A free processor serves the
//! eligible instruction with the fewest units in flight — the data-flow
//! strategy that \[4\] found best, df-core's `AllocationStrategy::Balanced`
//! among the policies the simulators sweep. A call runs its queries as
//! one data-flow graph, admitted together (they only read, so nothing is
//! locked): a subtree that several queries contain is one cell, fired
//! once, its pages shared by every consumer.
//!
//! Faults are contained, not fatal (§4's case for distributed control): a
//! kernel panic is caught on the processor and fails only the queries that
//! read its cell;
//! a helper thread that dies shrinks the pool and its run is requeued on a
//! survivor — the calling thread, processor 0, always is one; anomalies
//! surface as a structured [`HostError`], and a helper run that wedges
//! trips the stall watchdog instead of hanging the caller (a unit wedged on
//! the calling thread itself has no watchdog) — and a deterministic
//! [`FaultPlan`] injects all of these on demand, into the same execution
//! shape every call runs.
//!
//! ```
//! use df_host::{run_host_query, HostParams};
//! use df_query::TreeBuilder;
//! use df_relalg::{Catalog, DataType, Relation, Schema, Tuple, Value};
//!
//! let mut db = Catalog::new();
//! let schema = Schema::build().attr("id", DataType::Int).finish().unwrap();
//! db.insert(Relation::from_tuples(
//!     "r", schema, 256,
//!     (0..100).map(|i| Tuple::new(vec![Value::Int(i)])),
//! ).unwrap()).unwrap();
//!
//! let query = TreeBuilder::new(&db)
//!     .scan("r").unwrap()
//!     .restrict_where("id", df_relalg::CmpOp::Lt, Value::Int(10)).unwrap()
//!     .finish();
//! let (result, metrics) = run_host_query(&db, &query, &HostParams::with_workers(2)).unwrap();
//! assert_eq!(result.num_tuples(), 10);
//! assert!(metrics.total_units() > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]

mod error;
mod exec;
mod fault;
mod metrics;
mod params;
mod view;

pub use error::{HostError, HostResult};
pub use exec::{run_host_queries, run_host_query, HostRunOutput};
pub use fault::FaultPlan;
pub use metrics::{HostMetrics, QueryStats, WorkerStats};
pub use params::HostParams;
pub use view::{StandingView, ViewUpdate};
