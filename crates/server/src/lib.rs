//! # systolic-server
//!
//! A long-running, multi-client query service in front of the §9 integrated
//! machine. The paper's crossbar organisation exists precisely so that
//! "several operations may be run concurrently" across "a single
//! transaction or a set of transactions" — this crate is the set-of-
//! transactions part: many TCP sessions multiplexed onto one shared
//! [`systolic_machine::System`] and one shared catalog.
//!
//! Architecture, in one paragraph: a bounded pool of worker threads serves
//! newline-delimited request frames (`LOAD`/`QUERY`/`STATS`/`CLOSE`) over
//! `std::net` sockets. Parsing and CSV rendering happen on the worker, with
//! the catalog behind an `RwLock`; actual machine runs are submitted to a
//! single *admission scheduler* thread that owns the `System`, gathers
//! requests arriving within a short window, and runs them as one merged
//! dependency-level schedule (`run_batch_accounted`) so independent client
//! queries genuinely share crossbar ports and devices. Each response still
//! carries standalone per-request accounting, bit-identical to a one-shot
//! run — simulated hardware time in the `RESULT` frame, nondeterministic
//! host wall time in a separate `HOST` frame.
//!
//! ```
//! use systolic_server::{spawn, Client, ServerConfig};
//!
//! let handle = spawn(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let mut client = Client::connect(handle.addr).unwrap();
//! client.load_csv("nums", "int,int", "1,10\n2,20\n3,30\n").unwrap();
//! let result = client.query("filter(scan(nums), c1 >= 20)").unwrap();
//! assert_eq!(result.rows, 2);
//! assert!(result.csv.contains("3,30"));
//! client.close().unwrap();
//! handle.shutdown();
//! handle.join().unwrap();
//! ```

// `deny` rather than the workspace-wide `forbid`: the [`shutdown`] module
// (two `extern "C"` `signal(2)` registrations) carries the crate's one
// documented exception, an `#[allow(unsafe_code)]` that names its safety
// argument. Everything else in the crate is checked as strictly as a
// `forbid` would.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod frame;
mod locks;
mod metrics;
mod profile;
pub mod protocol;
mod router;
mod scheduler;
pub mod server;
mod shutdown;

pub use client::{Client, ClientError, QueryResult};
pub use engine::{Engine, EngineError, Store};
pub use server::{run, spawn, ServerConfig, ServerHandle, ServerReport};
