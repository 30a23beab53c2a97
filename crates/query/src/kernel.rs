//! The one opcode dispatch: the raw-page kernel an instruction processor
//! runs on the pages of a work unit.
//!
//! Paper §2.3: *"the instruction in each memory cell corresponds to a node
//! in the query tree"*. Each [`crate::PlanNode`] carries its [`Kernel`],
//! classified and compiled once by [`crate::Plan::compile`]: a per-page
//! node's form ([`ops::UnaryKernel`]), a join's sweep, a set operator's
//! finalizer. Four schedulers run it in place — df-core's and df-ring's
//! simulated machines, df-host's threads, and [`crate::run_plan`], the
//! sequential one behind served writes and view install — and standing
//! views fire it over delta pages, each choosing the entry point its
//! node's [`crate::Firing`] class names.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use df_relalg::{Page, Schema, Tuple, TupleBuf, TupleRef};

use crate::ops::{self, JoinSweep};

/// Which algorithm df-host's join cells run. It is df-host's choice alone
/// (`HostParams::join`): the kernel layer has one join, the compiled
/// nested-loops sweep, and the simulated machines run the paper's §2.1
/// nested loops. Under `Hash`, a df-host join whose condition the hash path
/// can run ([`JoinSweep::hash_applicable`]) keeps each operand side as a
/// raw-byte key index and probes it; any other join sweeps, so the knob is
/// always safe to turn on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JoinAlgo {
    /// §2.1 nested loops: every (outer tuple, inner tuple) pair compared.
    #[default]
    Nested,
    /// Symmetric hash join: each side indexed on its raw key bytes as its
    /// pages arrive, each arriving page probing the opposite index.
    Hash,
}

impl JoinAlgo {
    /// Both algorithms, for sweeps.
    pub const ALL: [JoinAlgo; 2] = [JoinAlgo::Nested, JoinAlgo::Hash];
}

impl fmt::Display for JoinAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinAlgo::Nested => "nested",
            JoinAlgo::Hash => "hash",
        };
        write!(f, "{s}")
    }
}

impl FromStr for JoinAlgo {
    type Err = String;

    /// Parse the [`fmt::Display`] form back (round-trip guaranteed).
    fn from_str(s: &str) -> Result<JoinAlgo, String> {
        match s {
            "nested" => Ok(JoinAlgo::Nested),
            "hash" => Ok(JoinAlgo::Hash),
            other => Err(format!(
                "unknown join algorithm `{other}` (expected one of: nested, hash)"
            )),
        }
    }
}

/// The operator code executed per work unit.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// Every per-page operator: the node's compiled [`ops::UnaryKernel`].
    /// σ, bag π and a delete filter (it emits the tuples a delete removes;
    /// the catalog update happens after the run) are one step, a bare scan
    /// root or an append the zero-step identity, and a fused
    /// restrict→project→… chain (the pipeline transfer mode) one step per
    /// operator. Cost: the sum of the step costs ([`Kernel::tuple_ops`]),
    /// but a single page transfer.
    Unary(ops::UnaryKernel),
    /// Join of a page against a list of pages: the plan's compiled
    /// nested-loops sweep.
    JoinPair(JoinSweep),
    /// Cross product of one page pair.
    CrossPair,
    /// Set union of two complete inputs.
    UnionFinal,
    /// Set difference of two complete inputs.
    DifferenceFinal,
    /// π with duplicate elimination over a complete input: the projection
    /// compiled as a one-step [`ops::UnaryKernel`], whose copy pass builds
    /// the projected images the dedup runs over.
    ProjectDedupFinal(ops::UnaryKernel),
}

impl Kernel {
    /// Execute one page-or-pair work unit on the zero-copy path: predicates
    /// and join keys are evaluated directly over the encoded tuple images
    /// and surviving images are memcpy'd into the returned batch — nothing
    /// is decoded or re-encoded. `out_schema` is the node's output schema.
    ///
    /// # Panics
    /// Panics if called on a [`crate::Firing::Complete`] kernel (use
    /// [`Kernel::run_final_raw`]) or with the wrong operand count.
    pub fn run_unit_raw(&self, pages: &[&Page], out_schema: &Schema) -> TupleBuf {
        match self {
            Kernel::Unary(form) => form.run_page(pages[0], out_schema),
            Kernel::JoinPair(..) | Kernel::CrossPair => {
                let mut out = TupleBuf::new(out_schema.clone());
                self.run_sweep_raw_into(pages[0], pages[1..].iter().copied(), true, &mut out);
                out
            }
            k => panic!("run_unit_raw called on whole-relation kernel {k:?}"),
        }
    }

    /// Execute a pair-sweep work unit — `page` against each page of
    /// `opposite` in turn, as the outer operand of every pair when
    /// `page_is_outer`, else as the inner — appending to `out`, so a unit
    /// fills one output batch however many page pairs it covers.
    ///
    /// # Panics
    /// Panics if called on anything but a join or cross-product kernel.
    pub fn run_sweep_raw_into<'a>(
        &self,
        page: &'a Page,
        opposite: impl IntoIterator<Item = &'a Page>,
        page_is_outer: bool,
        out: &mut TupleBuf,
    ) {
        match self {
            Kernel::JoinPair(sweep) => sweep.sweep_list_into(page, opposite, page_is_outer, out),
            Kernel::CrossPair => {
                for opp in opposite {
                    let (outer, inner) = if page_is_outer {
                        (page, opp)
                    } else {
                        (opp, page)
                    };
                    ops::cross_pages_raw_into(outer, inner, out);
                }
            }
            k => panic!("run_sweep_raw_into called on non-pair kernel {k:?}"),
        }
    }

    /// Zero-copy whole-relation finalizer over complete inputs (one list
    /// of pages per operand port): the `ops` set finalizers, whose
    /// membership sets hash the raw tuple images, so nothing is decoded.
    /// Set semantics match the oracle's exactly, first-occurrence order
    /// included.
    ///
    /// # Panics
    /// Panics if called on a streaming kernel.
    pub fn run_final_raw(&self, inputs: &[Vec<&Page>], out_schema: &Schema) -> TupleBuf {
        self.run_final_bucket_raw(inputs, 0, 1, out_schema)
    }

    /// One *bucket* of a whole-relation finalizer on the zero-copy path:
    /// only tuples whose hash lands in `bucket` (of `buckets`) are
    /// considered. Hash partitioning makes the blocking operators
    /// parallelizable — the parallel duplicate-elimination algorithm the
    /// paper's §5 leaves open: duplicates always hash to the same bucket,
    /// so per-bucket deduplication composes to exact global deduplication
    /// (a duplicate-eliminating project partitions on the *projected*
    /// tuple). With `buckets == 1` this is the ordinary serial finalizer.
    ///
    /// Bucket partitioning (buckets > 1) decodes each tuple to hash it
    /// ([`tuple_bucket`]); dedup membership and output construction stay
    /// raw regardless.
    pub fn run_final_bucket_raw(
        &self,
        inputs: &[Vec<&Page>],
        bucket: u64,
        buckets: u64,
        out_schema: &Schema,
    ) -> TupleBuf {
        assert!(
            buckets > 0 && bucket < buckets,
            "invalid bucket {bucket}/{buckets}"
        );
        let in_bucket = |t: &TupleRef<'_>| -> bool {
            buckets == 1 || tuple_bucket(&t.to_tuple(), buckets) == bucket
        };
        match self {
            Kernel::UnionFinal => {
                ops::union_pages_raw_where(&inputs[0], &inputs[1], out_schema, in_bucket)
            }
            Kernel::DifferenceFinal => {
                ops::difference_pages_raw_where(&inputs[0], &inputs[1], out_schema, in_bucket)
            }
            Kernel::ProjectDedupFinal(form) => {
                let mut projected = TupleBuf::new(out_schema.clone());
                for page in &inputs[0] {
                    projected.extend_images(|bytes| form.copy(page, None, bytes));
                }
                ops::dedup_raw_where(projected.refs(), out_schema, in_bucket)
            }
            k => panic!("run_final_raw called on streaming kernel {k:?}"),
        }
    }

    /// Per-tuple operation count for the cost model: how many tuple-level
    /// steps the unit performs. A join or cross product compares every
    /// (outer, inner) tuple pair, n·m.
    pub fn tuple_ops(&self, tuple_counts: &[usize]) -> usize {
        match self {
            Kernel::JoinPair(_) | Kernel::CrossPair => tuple_counts[0] * tuple_counts[1],
            // A fused span charges the *sum* of its step costs — each
            // logical operator still touches every input tuple — while
            // transferring a single page. The transfer saving, not a
            // compute saving, is what the pipeline mode buys. A lone
            // operator and the identity touch each tuple once.
            Kernel::Unary(form) => tuple_counts[0] * form.steps().max(1),
            Kernel::UnionFinal | Kernel::DifferenceFinal | Kernel::ProjectDedupFinal(_) => {
                tuple_counts.iter().sum()
            }
        }
    }
}

/// Deterministic hash bucket of a tuple (used to partition blocking
/// operators across processors).
pub fn tuple_bucket(t: &Tuple, buckets: u64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish() % buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `host_run --join` and `df-serve --join` parse the display form.
    #[test]
    fn join_algo_display_from_str_round_trips() {
        for algo in JoinAlgo::ALL {
            let parsed: JoinAlgo = algo.to_string().parse().unwrap();
            assert_eq!(parsed, algo);
        }
        assert_eq!("hash".parse::<JoinAlgo>().unwrap(), JoinAlgo::Hash);
        assert!("grace".parse::<JoinAlgo>().is_err());
        assert_eq!(JoinAlgo::default(), JoinAlgo::Nested);
    }
}
