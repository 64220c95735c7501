//! # systolic-machine
//!
//! The integrated systolic database machine of §9 of Kung & Lehman (SIGMOD
//! 1980): a discrete-event simulation of the crossbar organisation of
//! Figure 9-1 — disk (with optional logic-per-track filtering), memory
//! modules, systolic operator devices, and a deterministic scheduler that
//! pipelines transactions through them, exposing the concurrency the
//! crossbar enables.
//!
//! ```
//! use systolic_machine::{Expr, System};
//! use systolic_relation::gen::synth_schema;
//! use systolic_relation::MultiRelation;
//!
//! let mut sys = System::default_machine();
//! let rows = |r: std::ops::Range<i64>| {
//!     MultiRelation::new(synth_schema(1), r.map(|i| vec![i]).collect()).unwrap()
//! };
//! sys.load_base("a", rows(0..10));
//! sys.load_base("b", rows(5..15));
//! let out = sys.run(&Expr::scan("a").intersect(Expr::scan("b"))).unwrap();
//! assert_eq!(out.result.len(), 5);
//! assert!(out.stats.makespan_ns > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod device;
pub mod error;
pub mod plan;
pub mod query;
pub mod storage;
pub mod system;
pub mod timeline;
pub mod tree;

pub use account::PricedOutcome;
pub use device::{price_op, price_op_max, Device, DeviceKind};
pub use error::{MachineError, Result};
pub use plan::{push_selections, track_filtered, Action, Expr, Plan, PlanOp, PlanStep};
pub use query::{parse, parse_spanned, render_caret, ParseError};
pub use storage::{relation_bytes, Disk, MemoryModule, TrackFilter};
pub use system::{
    BatchOutcome, Interconnect, MachineConfig, QueryOutcome, RunOutcome, RunStats, System,
};
pub use systolic_core::Backend;
pub use timeline::{Event, Timeline};
pub use tree::{TreeMachine, TreeStats};
