//! # systolic-core
//!
//! The paper's contribution: every systolic array design from Kung &
//! Lehman, *Systolic (VLSI) Arrays for Relational Database Operations*
//! (SIGMOD 1980), as cycle-accurate simulations on the `systolic-fabric`
//! substrate, plus relation-level operator front-ends.
//!
//! | Paper section | Module |
//! |---------------|--------|
//! | §3 tuple comparison (Figs 3-1..3-4) | [`comparison`] |
//! | §4 intersection / difference (Fig 4-1) | [`intersection`] |
//! | §5 remove-duplicates, union, projection | [`dedup`] |
//! | §6 join, multi-column join, theta-join (Fig 6-1) | [`join`] |
//! | §7 division (Figs 7-1, 7-2) | [`division`] |
//! | §8 fixed-operand optimisation | [`fixed`] |
//! | §8 word-to-bit-level transformation | [`bitlevel`] |
//! | §8 problem decomposition | [`tiling`] |
//! | backend choice + analytic pulse accounting | [`kernel`] |
//! | closed-form results over bit-packed word planes | [`columnar`] |
//! | §8 pattern-match chip (ref \[3\]) | [`patmatch`] |
//! | operator API over relations | [`ops`] |
//!
//! ## Quickstart
//!
//! ```
//! use systolic_core::ops::{self, Execution};
//! use systolic_relation::gen::synth_schema;
//! use systolic_relation::MultiRelation;
//!
//! let a = MultiRelation::new(synth_schema(2), vec![vec![1, 1], vec![2, 2]]).unwrap();
//! let b = MultiRelation::new(synth_schema(2), vec![vec![2, 2], vec![3, 3]]).unwrap();
//! let (c, stats) = ops::intersect(&a, &b, Execution::Marching).unwrap();
//! assert_eq!(c.rows().to_vec(), [vec![2, 2]]);
//! assert!(stats.pulses > 0); // the simulated hardware really pulsed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitlevel;
pub mod columnar;
pub mod comparison;
pub mod dedup;
pub mod division;
pub mod error;
pub mod fixed;
pub mod intersection;
pub mod join;
pub mod kernel;
pub mod matrix;
pub mod ops;
pub mod patmatch;
pub mod select;
pub mod stats;
pub mod tiling;

pub use comparison::{ComparisonArray2d, LinearComparisonArray};
pub use dedup::RemoveDuplicatesArray;
pub use division::{DivisionArray, DivisionArrayMulti};
pub use error::{CoreError, Result};
pub use fixed::FixedOperandArray;
pub use intersection::{IntersectionArray, SetOpMode};
pub use join::{JoinArray, JoinSpec, ProgrammableJoinArray};
pub use kernel::Backend;
pub use matrix::TMatrix;
pub use ops::Execution;
pub use patmatch::PatternMatchChip;
pub use select::{Predicate, SelectionArray};
pub use stats::ExecStats;
pub use tiling::ArrayLimits;
