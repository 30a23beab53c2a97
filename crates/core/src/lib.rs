//! # df-core — data-flow query execution at three operand granularities
//!
//! This crate is the paper's primary contribution: a simulated DIRECT-like
//! MIMD database machine executing relational algebra query trees in
//! data-flow fashion, with the **operand granularity** — the unit a
//! scheduling decision is based on — selectable among the three §3
//! alternatives:
//!
//! * [`Granularity::Relation`] — an instruction is enabled only when every
//!   source operand has been *completely* computed (§3.1). No pipelining:
//!   intermediates are fully materialized, and under cache pressure they
//!   spill to disk and must be re-read.
//! * [`Granularity::Page`] — an instruction is enabled as soon as one page
//!   of each operand exists (§3.2). Pages of intermediate relations are
//!   pipelined up the query tree, which is the behaviour the paper shows
//!   outperforming relation-level by ≈2× (Figure 3.1).
//! * [`Granularity::Tuple`] — scheduling per tuple (§3.3). Enabling behaves
//!   like page-level, but every tuple pair crosses the arbitration network
//!   as its own packet: `n·m·(200+c)` bytes for a join of n×m 100-byte
//!   tuples, an order of magnitude more than page-level — the paper's
//!   argument against this granularity, reproduced by the `sec_3_3` bench.
//!
//! The machine executes **real operators on real pages** (the kernels of
//! `df-query::ops`), so a simulated run's result relation is checked for
//! multiset equality against the uniprocessor oracle by the integration
//! tests. The simulation clock advances through a parametric cost model
//! ([`MachineParams`]) defaulting to the paper's hardware: LSI-11
//! processors (16 KB page in 33 ms), a multiport CCD cache, two IBM 3330
//! drives, and a crossbar-style interconnect.
//!
//! Entry points: [`run_query`], [`run_queries`] (multi-query batches — the
//! form the paper's ten-query benchmark uses), both returning
//! ([`Relation`](df_relalg::Relation)s and) [`Metrics`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bandwidth;
pub mod instr;

mod allocation;
mod concurrency;
mod granularity;
mod machine;
mod metrics;
mod params;
mod run;

pub use allocation::{AllocationStrategy, StrategyPicker, WorkCandidate, WorkPicker};
pub use concurrency::{LockRequest, LockTable};
pub use granularity::Granularity;
pub use machine::Machine;
pub use metrics::{InstructionStats, Metrics};
pub use params::{CostModel, MachineParams, TransferMode};
pub use run::{run_queries, run_query, RunOutput};

/// df-host's join algorithm, parsed by the binaries that drive df-host;
/// defined in df-query and re-exported here.
pub use df_query::JoinAlgo;
