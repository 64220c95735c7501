//! # systolic-server
//!
//! A long-running, multi-client query service in front of the §9 integrated
//! machine. The paper's crossbar organisation exists precisely so that
//! "several operations may be run concurrently" across "a single
//! transaction or a set of transactions". This crate serves a set of
//! transactions: many TCP sessions multiplexed onto one shared
//! [`systolic_machine::System`] and one shared catalog, one request per
//! turn: on its turn a request runs its compiled plan with
//! [`systolic_machine::System::run_plan`], alone on the machine.
//!
//! Architecture, in one paragraph: a bounded pool of worker threads serves
//! newline-delimited request frames (`LOAD`/`QUERY`/`STATS`/`CLOSE`) over
//! `std::net` sockets. Parsing and CSV rendering happen on the worker, with
//! the catalog behind an `RwLock`. The `System` sits behind one machine
//! lock, and requests take *turns* on it, one request per turn: a worker
//! that finds the machine free runs its own request at once; one that
//! finds it busy waits in a first-come-first-served queue and is handed
//! the turn when the requests before it are done. A panic during a turn
//! fails the machine closed: every later request is answered
//! `ERR shutting_down`. Each response carries standalone per-request
//! accounting, bit-identical to a one-shot run — simulated hardware time
//! in the `RESULT` frame, nondeterministic host wall time in a separate
//! `HOST` frame.
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
mod scheduler;
pub mod server;
mod shutdown;

pub use client::{Client, ClientError, QueryResult};
pub use engine::{Engine, EngineError, Store};
pub use server::{run, spawn, ServerConfig, ServerHandle, ServerReport};
