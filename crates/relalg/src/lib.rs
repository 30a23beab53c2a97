//! # df-relalg — the relational data model
//!
//! The 1979/1980 Boral & DeWitt paper assumes the relational model of its
//! host system DIRECT: relations of **fixed-format tuples** stored in
//! **fixed-size pages**, with a page table mapping each relation to its pages
//! (paper §2.3). This crate implements that model:
//!
//! * [`DataType`] / [`Value`] — a small 1979-plausible type system (64-bit
//!   integers, booleans, fixed-length strings),
//! * [`Schema`] — an ordered list of named, typed attributes with a fixed
//!   tuple width,
//! * [`Tuple`] — a typed row, with an exact fixed-width wire encoding
//!   (`encode`/`decode`) so that all byte accounting in the simulators is
//!   bit-precise,
//! * [`Page`] — a fixed-size slotted page of encoded tuples (the paper's unit
//!   of scheduling for page-level granularity),
//! * [`TupleRef`] / [`TupleBuf`] — borrowed zero-copy views over encoded
//!   tuple images and owned batches of them: the hot path operator kernels
//!   evaluate on, so surviving tuples are memcpy'd rather than
//!   decoded→validated→re-encoded,
//! * [`PageKeyIndex`] / [`SideKeyIndex`] — hash indexes over raw key bytes
//!   of one page, and of every page one join operand has received so far
//!   (the equi-join probe paths),
//! * [`SidePages`] / [`SideKeyColumn`] — the pages one join operand has
//!   received so far, and their `Int` keys as one dense column (the
//!   nested-loops θ-probe path),
//! * [`Relation`] — a named schema plus a sequence of pages,
//! * [`Predicate`] / [`CmpOp`] — boolean restriction expressions,
//! * [`JoinCondition`] — the θ of a θ-join (attribute-vs-attribute compare),
//! * [`Projection`] — an attribute list with output-schema derivation,
//! * [`Catalog`] — a named collection of relations (the "database").
//!
//! ```
//! use df_relalg::{Catalog, DataType, Predicate, CmpOp, Relation, Schema, Tuple, Value};
//!
//! let schema = Schema::build()
//!     .attr("id", DataType::Int)
//!     .attr("name", DataType::Str(12))
//!     .finish()
//!     .unwrap();
//! let mut emp = Relation::new("emp", schema, 1000).unwrap();
//! emp.append(Tuple::new(vec![Value::Int(1), Value::str("alice")])).unwrap();
//! emp.append(Tuple::new(vec![Value::Int(2), Value::str("bob")])).unwrap();
//!
//! let p = Predicate::cmp_const(emp.schema(), "id", CmpOp::Gt, Value::Int(1)).unwrap();
//! let hits: Vec<_> = emp.tuples().filter(|t| p.eval(t)).collect();
//! assert_eq!(hits.len(), 1);
//!
//! let mut db = Catalog::new();
//! db.insert(emp).unwrap();
//! assert!(db.get("emp").is_some());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]

mod catalog;
mod error;
mod key_index;
mod page;
mod predicate;
mod projection;
mod relation;
mod schema;
mod side;
mod tuple;
mod tuple_ref;
mod value;

pub use catalog::Catalog;
pub use error::{Error, Result};
pub use key_index::{PageKeyIndex, SideKeyIndex};
pub use page::{Page, PAGE_HEADER_BYTES};
pub use predicate::{CmpOp, JoinCondition, Predicate};
pub use projection::Projection;
pub use relation::Relation;
pub use schema::{Attribute, Schema, SchemaBuilder};
pub use side::{SideEntry, SideKeyColumn, SidePages};
pub use tuple::Tuple;
pub use tuple_ref::{TupleBuf, TupleRef};
pub use value::{cmp_encoded, cmp_encoded_value, DataType, Value};
