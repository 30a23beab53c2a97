//! # df-query — relational algebra query trees and operators
//!
//! Paper §2.1: *"Each relational algebra query is generally comprised of one
//! or more relational algebra operations (instructions) and is organized in
//! the form of a tree."* This crate provides:
//!
//! * [`QueryTree`] / [`Op`] — the query-tree IR. Leaves scan base relations;
//!   inner nodes are restrict / project / join / cross / union / difference;
//!   append and delete (the paper's update operators) are root-only.
//! * [`ops`] — **page-at-a-time raw operator kernels**: predicates, join
//!   keys and set membership evaluated over encoded tuple images, nothing
//!   decoded — what every executor runs inside its work units.
//! * [`Plan`] — the compiled plan every executor runs from: per node its
//!   derived schema, `(parent, port)`, and, from the one classification of
//!   [`Op`], its [`Firing`] class and its compiled [`Kernel`]; and the one
//!   span-fusion pass, which is the whole [`TransferMode::Pipeline`].
//! * [`Graph`] — the compiled batch all three machines run: the batch's
//!   plans as instruction cells, built per query for the simulators and
//!   merged (equal subtrees share a cell) for the host executor, with
//!   each scanned relation a [`Source`] feeding its consumers' ports.
//! * [`Kernel`] — the one opcode dispatch: each plan node carries its own,
//!   executed in place by df-core, df-ring, df-host and [`run_plan`], the
//!   sequential scheduler here.
//! * [`stage_write`] / [`apply_write`] — df-serve's split-phase write on raw
//!   pages: an append's source runs through [`run_plan`], a delete
//!   partitions its target page by page ([`partition_delete`]), sharing
//!   every page it does not touch.
//! * [`oracle`] — the same operators re-implemented over decoded `Tuple`s,
//!   sharing no code with [`ops`]; [`execute`] / [`execute_readonly`] run
//!   queries and writes on it. It is the ground truth every machine, served
//!   write and standing view is checked against, and includes both
//!   nested-loops and sort-merge join algorithms from Blasgen & Eswaran
//!   \[5\]. No served path calls it.
//! * [`LockTable`] / [`LockRequest`] — relation-granularity shared/exclusive
//!   admission locks over a query's read and write sets, taken by the ring
//!   machine's MC and df-serve's write gate.
//! * [`TreeBuilder`] — fluent, name-based construction; each step
//!   resolves names, then checks its node through [`Op::output_schema`].
//! * [`validate`] — whole-tree schema/type checking and output-schema
//!   derivation, folding [`Op::output_schema`], the one per-node schema
//!   rule the builder and df-opt's rewrites also run.
//! * [`parse_query`] — a small s-expression query language, convenient for
//!   examples and tests:
//!
//! ```
//! use df_relalg::{Catalog, DataType, Relation, Schema, Tuple, Value};
//! use df_query::{parse_query, execute_readonly, ExecParams};
//!
//! let schema = Schema::build()
//!     .attr("id", DataType::Int)
//!     .attr("dept", DataType::Int)
//!     .finish().unwrap();
//! let emp = Relation::from_tuples("emp", schema, 1024,
//!     (0..10).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 3)]))).unwrap();
//! let mut db = Catalog::new();
//! db.insert(emp).unwrap();
//!
//! let q = parse_query(&db, "(restrict (scan emp) (> id 6))").unwrap();
//! let out = execute_readonly(&db, &q, &ExecParams::default()).unwrap();
//! assert_eq!(out.num_tuples(), 3);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod builder;
mod concurrency;
mod exec;
mod graph;
mod kernel;
mod parser;
mod plan;
mod render;
mod tree;
mod validate;

pub mod ops;
pub mod oracle;

pub use builder::{SubTree, TreeBuilder};
pub use concurrency::{LockRequest, LockTable};
pub use exec::{
    apply_write, execute, execute_readonly, partition_delete, run_plan, stage_write, ExecParams,
    WriteDelta,
};
pub use graph::{CellSpec, Graph, Source};
pub use kernel::{tuple_bucket, JoinAlgo, Kernel};
pub use parser::parse_query;
pub use plan::{Firing, Plan, PlanNode, TransferMode};
pub use render::render_tree;
pub use tree::{NodeId, Op, QueryNode, QueryTree};
pub use validate::{validate, NodeSchemas};
