//! # df-ring — the Section-4 ring-based data-flow database machine
//!
//! The paper's §4 proposes a machine with **distributed control**: a master
//! controller (MC) and a set of instruction controllers (ICs) on an *inner*
//! control ring, a pool of instruction processors (IPs) joined to the ICs by
//! an *outer* data ring, and a multiport disk cache in front of mass
//! storage. This crate simulates that machine end to end:
//!
//! * [`packet`] — the exact packet formats of Figures 4.3/4.4/4.5
//!   (instruction, result, and control packets) with byte-accurate wire
//!   encodings;
//! * [`Ring`] — a shift-register-insertion ring (the Distributed Loop
//!   Computer Network of \[13\]): per-sender serialization, per-hop latency,
//!   variable-length messages, and single-transmission **broadcast**;
//! * [`LockTable`] — the MC's concurrency control (requirement 1):
//!   relation-granularity shared/exclusive locks deciding "which queries are
//!   permitted to execute concurrently";
//! * [`RingMachine`] — the full machine: MC query admission and IP-pool
//!   arbitration, ICs running the §4.2 instruction protocol (page tables,
//!   partial-page compaction, flush-when-done), IPs running real operator
//!   kernels with **IRC vectors** and the missed-broadcast catch-up protocol
//!   for joins, and the §5 *direct IP→IP routing* extension as an option.
//!
//! Like `df-core`, the data path is exact — IPs execute the kernels of
//! `df-query::ops` on real pages — so ring-machine results are checked
//! against the uniprocessor oracle by the integration tests. Figure 4.2
//! (ring/cache/disk bandwidth vs. number of IPs) is regenerated from this
//! machine's measured byte counters.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]

pub mod packet;

mod ic;
mod ip;
mod machine;
mod mc;
mod metrics;
mod params;
mod ring;

// The lock manager lives in `df-query`, which df-serve's write gate shares
// without linking the simulators; re-exported here so `df_ring::LockTable`
// keeps working (and the MC docs above stay accurate).
pub use df_query::{LockRequest, LockTable};
pub use machine::{run_ring_queries, run_ring_queries_at, RingMachine, RingRunOutput};
pub use metrics::RingMetrics;
pub use params::RingParams;
pub use ring::Ring;
