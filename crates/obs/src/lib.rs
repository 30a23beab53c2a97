//! # df-obs — the observability layer
//!
//! The paper's quantitative claims are *observational*: Figure 3.1's
//! page-vs-relation 2× comes from measured execution times, Figure 4.2's
//! bandwidth-demand curves from counted bytes. This crate is the shared
//! instrumentation those measurements flow through, for the simulated
//! machines (`df-core`, `df-ring`) and the real-threads executor
//! (`df-host`) alike:
//!
//! * [`Tracer`] — a ring-buffered structured event log with spans and
//!   per-path byte counters, covering the packet-level lifecycle of
//!   Figures 4.3–4.5 (cell fire, unit dispatch, kernel execution, page
//!   transfers, queue depths, faults). Near-zero-cost when disabled: the
//!   executors hold an `Option<Arc<Tracer>>` that is `None` by default,
//!   and even an installed tracer guards every record behind one relaxed
//!   atomic load.
//! * [`IntervalSeries`] — per-interval byte accounting that turns traced
//!   transfer bytes into bandwidth-demand *curves* (Figure 4.2's shape,
//!   not just its average). Self-scaling: buckets coalesce as the horizon
//!   grows, so no run length needs to be known up front.
//! * [`BenchArtifact`] — the schema-versioned `BENCH_<name>.json` format
//!   the bench binaries emit and `bench_check` consumes, with built-in
//!   metric invariants (e.g. `probe_units + sweep_units == pair_units`)
//!   and baseline comparison (exact equality on deterministic counters;
//!   timings are recorded, never compared).
//! * [`JsonValue`] — the minimal JSON writer/parser behind the artifacts.
//!   The build environment is offline (see `shims/README.md`), so the
//!   crate serializes by hand instead of depending on `serde`.
//!
//! ```
//! use df_obs::{EventKind, Path, Tracer};
//!
//! let tracer = Tracer::new(1024);
//! tracer.record(EventKind::UnitDispatch, 0, 3, 7, 0);
//! tracer.transfer(Path::Distribution, 0, 4096);
//! let snap = tracer.snapshot();
//! assert_eq!(snap.events.len(), 2);
//! assert_eq!(snap.bytes(Path::Distribution), 4096);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]

mod artifact;
mod event;
mod json;
mod series;

pub use artifact::{BenchArtifact, QueryRow, SeriesRow, SweepRow, EXACT_COUNTERS, SCHEMA_VERSION};
pub use event::{EventKind, Path, Span, TraceEvent, TraceSnapshot, Tracer};
pub use json::JsonValue;
pub use series::IntervalSeries;
