//! # systolic-db
//!
//! A production-quality reproduction of **H. T. Kung and Philip L. Lehman,
//! "Systolic (VLSI) Arrays for Relational Database Operations", SIGMOD
//! 1980** — cycle-accurate simulations of every array in the paper, the
//! §8 analytic VLSI performance model, and the §9 integrated database
//! machine, with software baselines and a full experiment harness.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`fabric`] — the synchronous array simulator substrate;
//! * [`relation`] — the relational data model (domains, encoding, schemas,
//!   relations, workload generators);
//! * [`arrays`] — the paper's arrays and the operator API (the primary
//!   contribution);
//! * [`baseline`] — instrumented sequential baselines;
//! * [`perfmodel`] — the §8 analytic performance model;
//! * [`machine`] — the §9 crossbar database machine;
//! * [`analyzer`] — the static plan/schedule analyzer that verifies
//!   queries against the paper's correctness conditions before they touch
//!   the fabric;
//! * [`planner`] — the cost-based plan compiler (verified algebraic
//!   rewrites of the query tree) costed by the machine's own pricing
//!   through the analyzer;
//! * [`server`] — the concurrent TCP query service.
//!
//! ## Quickstart
//!
//! ```
//! use systolic_db::arrays::ops::{self, Execution};
//! use systolic_db::arrays::Backend;
//! use systolic_db::relation::gen::synth_schema;
//! use systolic_db::relation::MultiRelation;
//!
//! let a = MultiRelation::new(synth_schema(2), vec![vec![1, 1], vec![2, 2]]).unwrap();
//! let b = MultiRelation::new(synth_schema(2), vec![vec![2, 2], vec![3, 3]]).unwrap();
//! let (c, stats) = ops::intersect_with(&a, &b, Execution::Marching, Backend::Sim).unwrap();
//! assert_eq!(c.rows().to_vec(), [vec![2, 2]]);
//! assert!(stats.utilisation() <= 0.5 + 1e-9); // §8: marching arrays are half busy
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use systolic_analyzer as analyzer;
pub use systolic_baseline as baseline;
pub use systolic_core as arrays;
pub use systolic_fabric as fabric;
pub use systolic_machine as machine;
pub use systolic_perfmodel as perfmodel;
pub use systolic_planner as planner;
pub use systolic_relation as relation;
pub use systolic_server as server;
