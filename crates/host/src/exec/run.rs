//! What a processor serves: a [`Run`] of units taken from one cell in one
//! dispatch, all of them packed through one mask and one output batch into
//! one output buffer, so the run's output leaves as full pages and a unit
//! allocates only the output pages it opens.
//!
//! The unit is still the atom of accounting and of the panic guard: each
//! runs under its own `catch_unwind` and counts in `units`, `kernel_spans`
//! and the probe/sweep split. Its own clock pair, kernel span and
//! distribution transfer are paid only while a tracer records; untraced,
//! the run's busy time is one clock pair around the whole run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use df_obs::{Path, Tracer};
use df_query::ops::hash_join_side_into;
use df_query::Kernel;
use df_relalg::{Page, Relation, TupleBuf};

use super::cell::{Received, WorkKind};
use crate::fault::InjectedFault;
use crate::metrics::WorkerStats;
use crate::plan::QueryPlan;

/// One instruction firing inside a [`Run`].
#[derive(Debug)]
pub(super) struct RunUnit {
    pub kind: WorkKind,
    /// Global dispatch sequence number (the fault plan's unit key).
    pub seq: u64,
    /// Fault injected into this unit, if the plan says so.
    pub fault: Option<InjectedFault>,
}

/// What one processor serves in one dispatch: every unit it took from one
/// instruction cell. Shared (`Arc`) so the scheduler can requeue the units
/// if the helper holding them dies.
#[derive(Debug)]
pub(super) struct Run {
    pub plan: Arc<QueryPlan>,
    pub query: usize,
    pub cell: usize,
    pub units: Vec<RunUnit>,
}

/// How a pair-sweep unit was served, for the probe/sweep metrics split;
/// the discriminant is the kernel span's class in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitClass {
    /// Not a pair unit (restrict, project, union, …).
    Other = 0,
    /// The unit's page probed the opposite side's hash key index.
    Probe = 1,
    /// Nested-loops sweep — of the opposite side's key column or of its
    /// pages (incl. θ-join fallback) — or cross product.
    Sweep = 2,
}

/// A served run: what its units did, summed, and the pages they produced.
#[derive(Debug, Default)]
pub(super) struct RunDone {
    pub worker: usize,
    pub query: usize,
    pub cell: usize,
    /// Units served, panicked ones included.
    pub units: usize,
    pub probe_units: usize,
    pub sweep_units: usize,
    /// Operand pages (and their wire bytes) the units read.
    pub pages_in: usize,
    pub bytes_in: u64,
    /// The run's output, packed: every page but the last is full.
    pub pages: Vec<Arc<Page>>,
    pub bytes_out: u64,
    /// Stringified payload of each unit whose kernel panicked. The panics
    /// were caught and the processor survives, but `pages` may then hold
    /// partial output and must not be routed.
    pub panics: Vec<String>,
}

/// Render a caught panic payload for the [`crate::HostError::UnitPanicked`]
/// report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Serve one run as processor `id`: each unit under its own panic guard, all
/// of them packing through one mask and one output batch into one output
/// buffer, so the run's output leaves as full pages. While a tracer
/// records, each unit also gets its own clock pair, kernel span and
/// distribution transfer; otherwise the run's busy time is one clock pair.
/// Shared by the helper threads and the caller. `poisoned` (helpers only)
/// is set once the scheduler has given the call up; the remaining units
/// are then skipped, since nobody will read the completion.
pub(super) fn serve_run(
    id: usize,
    run: &Run,
    stats: &mut WorkerStats,
    trace: Option<&Tracer>,
    poisoned: Option<&AtomicBool>,
) -> RunDone {
    let started = Instant::now();
    stats.runs += 1;
    // Read once, so a run is traced all through or not at all.
    let tracing = trace.filter(|t| t.is_enabled());
    let spec = run.plan.cell(run.cell);
    let (query, cell) = (run.query as u32, run.cell as u32);
    // A fused span unit runs `k` logical operators in one kernel; each
    // still counts as its own kernel span (start/end pair, busy time
    // split evenly) so the per-operator accounting — and the df-obs
    // conservation identities over it — hold in both transfer modes.
    let logical_kernels = spec.unary.as_ref().map_or(1, |form| form.steps().max(1));
    // The IP output buffer of §4.2: appends fill the last page, then
    // fresh ones. Every unit packs through the same mask and batch.
    let (schema, page_size) = (&spec.out_schema, run.plan.out_page_size[run.cell]);
    let mut pack = Packer {
        mask: Vec::new(),
        batch: TupleBuf::new(schema.clone()),
        out: Relation::new("", schema.clone(), page_size).expect("cell page size fits one tuple"),
    };
    let mut done = RunDone {
        worker: id,
        query: run.query,
        cell: run.cell,
        ..RunDone::default()
    };
    for unit in &run.units {
        if poisoned.is_some_and(|p| p.load(Ordering::Relaxed)) {
            break;
        }
        let span = tracing.map(|t| (t.span(query, cell, unit.seq), Instant::now()));
        let executed = catch_unwind(AssertUnwindSafe(|| {
            match unit.fault {
                Some(InjectedFault::Panic) => {
                    panic!("injected fault: kernel panic on unit {}", unit.seq)
                }
                Some(InjectedFault::Delay(d)) => thread::sleep(d),
                None => {}
            }
            execute_unit(&run.plan, run.cell, &unit.kind, &mut pack)
        }));
        stats.units += 1;
        stats.kernel_spans += logical_kernels;
        done.units += 1;
        if let (Some(t), Some((span, t0))) = (tracing, span) {
            let busy = t0.elapsed();
            stats.busy += busy;
            let class = executed.as_ref().map_or(0, |&(_, _, class)| class as u64);
            let per = busy.as_nanos() as u64 / logical_kernels as u64;
            span.end_with(
                t,
                class,
                busy.as_nanos() as u64 - per * (logical_kernels - 1) as u64,
            );
            for _ in 1..logical_kernels {
                let extra = t.span(query, cell, unit.seq);
                extra.end_with(t, class, per);
            }
        }
        match executed {
            Ok((pages_in, bytes_in, class)) => {
                done.pages_in += pages_in;
                done.bytes_in += bytes_in;
                match class {
                    UnitClass::Probe => done.probe_units += 1,
                    UnitClass::Sweep => done.sweep_units += 1,
                    UnitClass::Other => {}
                }
                stats.bytes_in += bytes_in;
                if let Some(t) = tracing {
                    // Operand pages crossed the distribution network to
                    // this IP.
                    t.transfer(Path::Distribution, query, bytes_in);
                }
            }
            Err(payload) => {
                // Contained: note the failure and keep serving. The IP
                // survives its instruction the way the paper's distributed
                // control survives a node. Whatever the unit left in the
                // batch belongs to a doomed query; drop it.
                pack.batch.clear();
                stats.panics += 1;
                done.panics.push(panic_message(payload.as_ref()));
            }
        }
    }
    done.pages = pack.out.pages().to_vec();
    done.bytes_out = done.pages.iter().map(|p| p.wire_bytes() as u64).sum();
    stats.bytes_out += done.bytes_out;
    if tracing.is_none() {
        stats.busy += started.elapsed();
    }
    if let Some(t) = tracing {
        // Result pages go back over the arbitration network.
        t.transfer(Path::Arbitration, query, done.bytes_out);
    }
    done
}

/// What a run's units pack through: the mask pass's scratch, the batch a
/// kernel writes into, and the output pages the batch drains into. One per
/// run, reused by every unit, so a unit allocates only the output pages it
/// opens.
struct Packer {
    mask: Vec<bool>,
    batch: TupleBuf,
    out: Relation,
}

impl Packer {
    /// Move the batch into the output pages, leaving it empty for reuse.
    fn absorb(&mut self) {
        self.out
            .append_images(self.batch.images())
            .expect("a kernel emits whole images");
        self.batch.clear();
    }
}

/// Run the kernel for one work unit of `cell`, packing its output into the
/// run's output pages. Returns (operand page count, operand bytes, unit
/// class). The unit's kind — fixed by the cell's firing class — says which
/// [`Kernel`] entry point to call; which operator that is, only the kernel
/// knows. What is decided here is what depends on host state: a join's
/// pair unit reads the opposite side in the shape the cell keeps it — a
/// hash join probes its key index, any other `Int` join its key column,
/// any other θ-join sweeps its pages — and a cross product is absorbed
/// pair by pair so the batch stays bounded.
fn execute_unit(
    plan: &QueryPlan,
    cell: usize,
    kind: &WorkKind,
    pack: &mut Packer,
) -> (usize, u64, UnitClass) {
    /// Operand pages read and their wire bytes.
    fn count<'a>(pages: impl Iterator<Item = &'a Page>) -> (usize, u64) {
        pages.fold((0, 0), |(n, b), p| (n + 1, b + p.wire_bytes() as u64))
    }
    let (kernel, out_schema) = (&plan.kernels[cell], &plan.cell(cell).out_schema);
    match kind {
        WorkKind::Page(page) => {
            let Kernel::Unary(form) = kernel else {
                unreachable!("a page unit fires a per-page cell");
            };
            form.pack(page, &mut pack.mask, &mut pack.batch);
            pack.absorb();
            (1, page.wire_bytes() as u64, UnitClass::Other)
        }
        WorkKind::Pair {
            new_page,
            opposite,
            upto,
            new_is_outer,
        } => {
            let (upto, new_is_outer) = (*upto, *new_is_outer);
            // The unit still stands for the §4 broadcast of every opposite
            // page it pairs with, so those pages count as read; the side
            // keeps their byte total, one lookup.
            let bytes = opposite.read().pages().wire_bytes(upto) + new_page.wire_bytes() as u64;
            let class = if let Kernel::CrossPair = kernel {
                // A cross product's output is large, so it is absorbed pair
                // by pair, and the side's read lock is not held across it.
                for at in 0..upto {
                    let page = Arc::clone(&opposite.read().pages().pages()[at]);
                    let batch = &mut pack.batch;
                    kernel.run_sweep_raw_into(new_page, [page.as_ref()], new_is_outer, batch);
                    pack.absorb();
                }
                UnitClass::Sweep
            } else {
                let Kernel::JoinPair(sweep) = kernel else {
                    unreachable!("a pair unit fires a join or cross-product cell");
                };
                let batch = &mut pack.batch;
                let class = match &*opposite.read() {
                    Received::Index(index) => {
                        let condition = sweep.condition();
                        hash_join_side_into(new_page, index, upto, condition, new_is_outer, batch);
                        UnitClass::Probe
                    }
                    Received::Column(column) => {
                        sweep.probe_column_into(new_page, column, upto, new_is_outer, batch);
                        UnitClass::Sweep
                    }
                    Received::Pages(pages) => {
                        let pages = pages.pages()[..upto].iter().map(Arc::as_ref);
                        kernel.run_sweep_raw_into(new_page, pages, new_is_outer, batch);
                        UnitClass::Sweep
                    }
                };
                pack.absorb();
                class
            };
            (upto + 1, bytes, class)
        }
        WorkKind::Complete { left, right } => {
            let inputs = [left, right].map(|port| port.iter().map(Arc::as_ref).collect::<Vec<_>>());
            let images = kernel.run_final_raw(&inputs, out_schema);
            (pack.out.append_images(images.images())).expect("a kernel emits whole images");
            let (n, b) = count(inputs.iter().flatten().copied());
            (n, b, UnitClass::Other)
        }
    }
}
