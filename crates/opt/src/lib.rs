//! # df-opt — a rule-based optimizer for relational algebra query trees
//!
//! The paper assumes queries arrive at the machine already in query-tree
//! form from a host computer; DIRECT's host-side front end performed the
//! kind of algebraic clean-up this crate implements. The optimizer rewrites
//! a [`QueryTree`](df_query::QueryTree) into an equivalent one that the data-flow machines
//! execute faster:
//!
//! * **predicate pushdown** — σ over ⋈/×/∪/− /π migrates toward the leaves
//!   (with exact attribute-index remapping through joins and projections),
//!   shrinking the pages that cross the arbitration network;
//! * **restrict fusion** — adjacent σs merge into one conjunction, halving
//!   instruction count;
//! * **predicate simplification** — `¬¬p → p`, `p ∧ true → p`, etc.;
//! * **join input ordering** — cost-based outer/inner swap (the machines
//!   parallelize over *outer* pages and broadcast *inner* pages, so the
//!   larger input belongs outside), with a compensating projection keeping
//!   the output schema identical;
//! * **projection collapse** — π over π composes.
//!
//! [`CatalogStats`] supplies exact base-relation statistics and uniformity-
//! based selectivity estimates; [`estimate`] derives per-node cardinalities;
//! [`optimize`] applies the rules to a fixpoint and reports what fired.
//!
//! The optimizer keeps no tree layer of its own: it rewrites the IR's own
//! [`Op`](df_query::Op) nodes (owned, for structural surgery), derives
//! schemas with [`Op::output_schema`](df_query::Op::output_schema), the
//! rule `validate` runs, and cardinalities with the one per-node rule that
//! `estimate` folds.
//!
//! Every rewrite is semantics-preserving: the property tests run random
//! trees through the oracle before and after and require identical
//! multisets.
//!
//! ```
//! use df_opt::{optimize, CatalogStats};
//! use df_query::parse_query;
//! use df_workload::{generate_database, DatabaseSpec};
//!
//! let db = generate_database(&DatabaseSpec::scaled(0.01));
//! let q = parse_query(&db, "(restrict (join (scan r01) (scan r02) (= fk key))
//!                                     (and (< val 300) (> r_val 200)))").unwrap();
//! let stats = CatalogStats::gather(&db);
//! let opt = optimize(&db, &q, &stats).unwrap();
//! // Both restrict conjuncts moved below the join.
//! assert!(opt.applied.iter().any(|r| r.contains("pushdown")));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]

mod estimate;
mod rules;
mod stats;

pub use estimate::{estimate, NodeEstimates};
pub use rules::{optimize, Optimized};
pub use stats::{CatalogStats, HeldStats, RelationStats};
