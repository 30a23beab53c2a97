//! What a worker serves: a [`Run`] of units taken from one cell in one
//! dispatch, each unit under its own panic guard and kernel span, all of
//! them packed into one output buffer so the run's output leaves as full
//! pages.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use df_obs::{Path, Tracer};
use df_query::ops::hash_join_side_into;
use df_query::Kernel;
use df_relalg::{Page, Relation, TupleBuf};

use super::cell::WorkKind;
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

/// The message between scheduler and worker: every unit one dispatch took
/// from one instruction cell. Shared (`Arc`) so the scheduler can requeue
/// the units if the worker holding them dies.
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
    /// The unit's page probed the opposite side's key index.
    Probe = 1,
    /// Nested-loops or cross-product sweep (incl. θ-join fallback).
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
    /// were caught and the worker survives, but `pages` may then hold
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

/// Serve one run as worker `id`: each unit under its own panic guard and
/// kernel span, all of them writing into one output buffer so the run's
/// output leaves as full pages. Shared by the worker threads and by the
/// scheduler of an inline call. `poisoned` (threads only) is set once the
/// scheduler has given the call up; the remaining units are then skipped,
/// since nobody will read the completion.
pub(super) fn serve_run(
    id: usize,
    run: &Run,
    stats: &mut WorkerStats,
    trace: Option<&Tracer>,
    poisoned: Option<&AtomicBool>,
) -> RunDone {
    let spec = run.plan.cell(run.cell);
    let (query, cell) = (run.query as u32, run.cell as u32);
    // A fused span unit runs `k` logical operators in one kernel; each
    // still counts as its own kernel span (start/end pair, busy time
    // split evenly) so the per-operator accounting — and the df-obs
    // conservation identities over it — hold in both transfer modes.
    let logical_kernels = spec.unary.as_ref().map_or(1, |form| form.steps().max(1));
    // The IP output buffer of §4.2: appends fill the last page, then
    // fresh ones.
    let (schema, page_size) = (spec.out_schema.clone(), run.plan.out_page_size[run.cell]);
    let mut out = Relation::new("", schema, page_size).expect("cell page size fits one tuple");
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
        let span = trace.map(|t| t.span(query, cell, unit.seq));
        let t0 = Instant::now();
        let executed = catch_unwind(AssertUnwindSafe(|| {
            match unit.fault {
                Some(InjectedFault::Panic) => {
                    panic!("injected fault: kernel panic on unit {}", unit.seq)
                }
                Some(InjectedFault::Delay(d)) => thread::sleep(d),
                None => {}
            }
            execute_unit(&run.plan, run.cell, &unit.kind, &mut out)
        }));
        let busy = t0.elapsed();
        stats.units += 1;
        stats.busy += busy;
        stats.kernel_spans += logical_kernels;
        done.units += 1;
        if let (Some(t), Some(span)) = (trace, span) {
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
                if let Some(t) = trace {
                    // Operand pages crossed the distribution network to
                    // this IP.
                    t.transfer(Path::Distribution, query, bytes_in);
                }
            }
            Err(payload) => {
                // Contained: note the failure and keep serving. The IP
                // survives its instruction the way the paper's distributed
                // control survives a node.
                stats.panics += 1;
                done.panics.push(panic_message(payload.as_ref()));
            }
        }
    }
    done.pages = out.pages().to_vec();
    done.bytes_out = done.pages.iter().map(|p| p.wire_bytes() as u64).sum();
    stats.bytes_out += done.bytes_out;
    if let Some(t) = trace {
        // Result pages go back over the arbitration network.
        t.transfer(Path::Arbitration, query, done.bytes_out);
    }
    done
}

/// Pack a kernel's output batch into the run's output pages, leaving the
/// batch empty for reuse.
fn absorb(out: &mut Relation, batch: &mut TupleBuf) {
    out.append_images(batch.images())
        .expect("a kernel emits whole images");
    batch.clear();
}

/// Run the kernel for one work unit of `cell`, packing its output into the
/// run's `out` pages. Returns (operand page count, operand bytes, unit
/// class). The unit's kind — fixed by the cell's firing class — says which
/// [`Kernel`] entry point to call; which operator that is, only the kernel
/// knows. What is decided here is what depends on host state: a hash join
/// probes the opposite side's key index the cell maintains, and a cross
/// product is absorbed pair by pair so the batch stays bounded.
fn execute_unit(
    plan: &QueryPlan,
    cell: usize,
    kind: &WorkKind,
    out: &mut Relation,
) -> (usize, u64, UnitClass) {
    /// Operand pages read and their wire bytes.
    fn count<'a>(pages: impl Iterator<Item = &'a Page>) -> (usize, u64) {
        pages.fold((0, 0), |(n, b), p| (n + 1, b + p.wire_bytes() as u64))
    }
    let (kernel, out_schema) = (&plan.kernels[cell], &plan.cell(cell).out_schema);
    match kind {
        WorkKind::Page(page) => {
            absorb(out, &mut kernel.run_unit_raw(&[page], out_schema));
            (1, page.wire_bytes() as u64, UnitClass::Other)
        }
        WorkKind::Sweep {
            new_page,
            opposite,
            new_is_outer,
        } => {
            // One reused output batch per unit. A join sweeps the whole
            // list into it; a cross product's output is large, so it is
            // absorbed pair by pair.
            let mut batch = TupleBuf::new(out_schema.clone());
            let chunk = match kernel {
                Kernel::CrossPair => 1,
                _ => opposite.len().max(1),
            };
            for pairs in opposite.chunks(chunk) {
                let pairs = pairs.iter().map(Arc::as_ref);
                kernel.run_sweep_raw_into(new_page, pairs, *new_is_outer, &mut batch);
                absorb(out, &mut batch);
            }
            let (n, b) = count(opposite.iter().map(Arc::as_ref));
            (n + 1, b + new_page.wire_bytes() as u64, UnitClass::Sweep)
        }
        WorkKind::Probe {
            new_page,
            opposite,
            upto,
            new_is_outer,
        } => {
            let Kernel::JoinPair(sweep, _) = kernel else {
                unreachable!("only a hash-lowered join cell keeps key indexes");
            };
            let mut batch = TupleBuf::new(out_schema.clone());
            // The unit still stands for the §4 broadcast of every opposite
            // page it pairs with, so those pages count as read.
            let (n, b) = {
                let side = opposite.read();
                let condition = sweep.condition();
                hash_join_side_into(new_page, &side, *upto, condition, *new_is_outer, &mut batch);
                count(side.pages()[..*upto].iter().map(Arc::as_ref))
            };
            absorb(out, &mut batch);
            (n + 1, b + new_page.wire_bytes() as u64, UnitClass::Probe)
        }
        WorkKind::Complete { left, right } => {
            let inputs = [left, right].map(|port| port.iter().map(Arc::as_ref).collect::<Vec<_>>());
            absorb(out, &mut kernel.run_final_raw(&inputs, out_schema));
            let (n, b) = count(inputs.iter().flatten().copied());
            (n, b, UnitClass::Other)
        }
    }
}
