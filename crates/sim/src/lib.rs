//! # df-sim — deterministic discrete-event simulation kernel
//!
//! The 1979 Boral & DeWitt paper evaluated its data-flow database machine
//! designs with a discrete-event simulation of a DIRECT-like multiprocessor.
//! This crate provides the simulation substrate the rest of the workspace is
//! built on:
//!
//! * [`SimTime`] / [`Duration`] — integer-nanosecond simulated time (no
//!   floating-point drift in the event queue),
//! * [`EventQueue`] — a time-ordered queue with deterministic FIFO
//!   tie-breaking, generic over the caller's event payload,
//! * [`Resource`] — an *M*-server FCFS queueing resource with utilization and
//!   queueing statistics (used to model processors, disk arms, ring links),
//! * [`stats`] — byte counters and their mean bandwidth,
//! * [`rng`] — a small deterministic RNG wrapper so every simulation is
//!   exactly reproducible from a seed.
//!
//! The kernel is deliberately single-threaded: determinism is a correctness
//! requirement for the reproduction (identical metrics for identical seeds),
//! and the simulated machines extract their parallelism from the *model*, not
//! from host threads.
//!
//! ```
//! use df_sim::{EventQueue, SimTime, Duration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + Duration::from_micros(5), "b");
//! q.schedule(SimTime::ZERO, "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (SimTime::ZERO, "a"));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]

mod event;
mod resource;
mod time;

pub mod rng;
pub mod stats;

pub use event::{EventQueue, ScheduledEvent};
pub use resource::{Resource, ResourceStats};
pub use time::{Duration, SimTime};
