//! # df-storage — the simulated three-level storage hierarchy
//!
//! Paper §4.1: *"the IC local memory, the disk cache, and the mass storage
//! devices form a three-level storage hierarchy."* This crate models each
//! level plus the metadata that drives data-flow scheduling:
//!
//! * [`PageStore`] — the ground truth: actual page *contents* keyed by
//!   [`PageId`]. Simulated devices track page *location and timing*; the
//!   bytes themselves always live here, so no simulation bug can corrupt
//!   data (and results stay comparable to the oracle executor).
//! * [`MassStorage`] — IBM-3330-like disk drives: average-seek + half-
//!   rotation + transfer cost model, FCFS arm queueing, byte counters.
//! * [`DiskCache`] — the multiport CCD cache: fixed frame pool, optional
//!   per-owner segmentation (paper: *"divide it among the ICs according to
//!   the number of IPs each is controlling"*), LRU eviction of unpinned
//!   frames, port queueing, byte counters.
//! * [`LocalMemory`] — an IC's private page buffer with LRU spill.
//! * [`PageMap`] — the per-page tables of the devices and the simulators:
//!   a vector indexed by [`PageId`], since [`PageStore::put`] mints ids
//!   densely from 0.
//! * [`PageTable`] — paper §2.3: *"the data is represented by page tables"*;
//!   a growing list of page ids plus a `complete` flag. The `complete` flag
//!   is exactly the difference between relation-level granularity (fire when
//!   complete) and page-level granularity (fire when non-empty).
//!
//! Timing parameters default to the hardware named in the paper (§4.1) and
//! are fully overridable — see [`DiskParams`], [`CacheParams`].

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]

mod cache;
mod local;
mod lru;
mod mass;
mod page_map;
mod page_table;
mod store;

pub use cache::{CacheParams, DiskCache};
pub use local::LocalMemory;
pub use mass::{DiskParams, MassStorage};
pub use page_map::PageMap;
pub use page_table::PageTable;
pub use store::{PageId, PageStore};
