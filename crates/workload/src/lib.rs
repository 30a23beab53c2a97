//! # df-workload — synthetic database and the ten-query benchmark
//!
//! The paper evaluated its granularity strategies with:
//!
//! > "a benchmark containing ten queries (2 queries with 1 restrict operator
//! > only, 3 queries with 1 join and 2 restricts each, 2 queries with 2
//! > joins and 3 restricts each, 1 query with 3 joins and 4 restricts, 1
//! > query with 4 joins and 4 restricts, and 1 query with 5 joins and 6
//! > restricts), a relational database containing 15 relations with a
//! > combined size of 5.5 megabytes"  (§3.2)
//!
//! The database itself was never published, so [`generate_database`]
//! synthesizes one honouring every stated constraint (15 relations, 5.5 MB,
//! ~100-byte tuples as in the §3.3 analysis), with foreign keys arranged in
//! a ring so join chains of any length ≤ 15 exist, and a uniform `val`
//! attribute giving restricts a dial-a-selectivity predicate.
//!
//! [`benchmark_queries`] builds the exact ten-query mix;
//! [`BenchmarkSpec::paper`] is full scale, [`BenchmarkSpec::scaled`] shrinks
//! the database for unit tests and smoke runs.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod dbgen;
mod queries;

pub use dbgen::{
    generate_database, parent_of, parse_scale, DatabaseSpec, FK_ATTR, KEY_ATTR, VAL_ATTR,
    VAL_DOMAIN,
};
pub use queries::{
    benchmark_queries, chain_query, chain_query_naive, pipeline_chain_query, pipeline_queries,
    poisson_arrivals, random_query, BenchmarkSpec,
};
