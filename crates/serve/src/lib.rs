//! df-serve: a standing query service over the df-host executor.
//!
//! The paper's data-flow database machine is a *service*: a master
//! controller that keeps accepting user queries, admits them under
//! relation-granularity locks, and multiplexes the processor pool across
//! everything admitted. The batch entry point
//! ([`df_host::run_host_queries`]) exercises that machinery for a fixed
//! query list; this crate wraps it in a long-lived front-end with the
//! concerns a standing service adds:
//!
//! * a length-prefixed request/response protocol over TCP
//!   ([`proto`], [`server`]),
//! * bounded per-client queues with typed backpressure, priority
//!   classes, and round-robin fairness ([`engine`]),
//! * fusion of identical concurrent read queries into one execution
//!   fanned out to every waiter ([`engine`]),
//! * structured [`df_host::HostError`] propagation over the wire to
//!   exactly the client whose query failed ([`proto::ServeError`]),
//! * client-side helpers and the interactive-shell command parser shared
//!   with the `repl` example ([`client`]).
//!
//! Start a server in-process:
//!
//! ```
//! use df_serve::{Engine, ServeConfig, Server, ServeClient};
//! use df_serve::proto::{Priority, Response};
//! use df_workload::{generate_database, DatabaseSpec};
//!
//! let db = generate_database(&DatabaseSpec::scaled(0.01));
//! let engine = Engine::new(db, ServeConfig::default()).unwrap();
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let server = Server::start(listener, engine).unwrap();
//!
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//! let response = client
//!     .query("(restrict (scan r00) (< val 100))", Priority::Normal, true)
//!     .unwrap();
//! assert!(matches!(response, Response::Result(_)));
//!
//! server.shutdown();
//! server.join();
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod client;
pub mod engine;
pub mod proto;
pub mod server;
#[allow(unsafe_code)]
pub mod sys;

pub use client::{format_stats, ReplCommand, ServeClient};
pub use engine::{Engine, EngineHandle, ServeConfig, ServeStats};
pub use proto::{Priority, Request, Response, ServeError};
pub use server::Server;
