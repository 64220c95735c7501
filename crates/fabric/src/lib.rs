//! # systolic-fabric
//!
//! A cycle-accurate simulator for the synchronous ("systolic") processor
//! arrays of Kung & Lehman, *Systolic (VLSI) Arrays for Relational Database
//! Operations*, SIGMOD 1980.
//!
//! The fabric provides the substrate every array in the paper is built on:
//!
//! * [`word::Word`] — the data alphabet on a wire during one pulse
//!   (integer-encoded relation elements, booleans, null, and a drain
//!   control word);
//! * [`cell::Cell`] — the 3-in/3-out processor prototype of Figure 2-2;
//! * [`grid::Grid`] — orthogonally connected arrays (Figure 2-1) whose
//!   wire planes each stay in their stream's own frame (a cell rewrites its
//!   words in place and edge words are collected from the next injection
//!   slot), pulse-indexed boundary [`feed::ScheduleFeeder`]s and edge
//!   [`feed::Collector`]s, utilisation statistics, and optional per-pulse
//!   tracing;
//! * [`compare::CompareGrid`] — the §3.2 comparison array on the same
//!   stream frames, its wires kept as `u64` planes (one bit per row),
//!   stepped a column at a time with element comparisons only where `a`
//!   and `b` meet, and fed each pulse by a [`compare::CompareFeed`] that
//!   computes its words from the schedule (no feeder tables, no
//!   collectors);
//! * [`schedule`] — the closed-form staggered input schedules of §3 and the
//!   fixed-operand variant of §8;
//! * [`trace`] — ASCII rendering of in-flight data, used to reproduce the
//!   paper's data-flow figures.
//!
//! The simulation is deliberately *synchronous and deterministic*: a
//! systolic array is a clocked machine, and the paper's claims are about
//! pulse counts, cell counts and utilisation — exactly what this fabric
//! measures.
//!
//! ## Example: a word marching through a linear array
//!
//! ```
//! use systolic_fabric::{Cell, CellIo, Grid, ScheduleFeeder, Word};
//!
//! struct Forward;
//! impl Cell for Forward {
//!     fn pulse(&mut self, io: &mut CellIo) {
//!         io.pass_through();
//!         io.t_out = io.t_in;
//!     }
//! }
//!
//! let mut grid: Grid<Forward> = Grid::new(1, 4, |_, _| Forward);
//! grid.set_west_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Elem(42))]));
//! grid.run_until_quiescent(100).unwrap();
//! // The word crosses 4 cells and exits east at pulse 3.
//! assert_eq!(grid.east_emissions().at(3, 0), Some(Word::Elem(42)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod compare;
mod counters;
pub mod feed;
pub mod grid;
pub mod schedule;
pub mod trace;
pub mod word;

pub use cell::{Cell, CellIo};
pub use compare::{CompareFeed, CompareGrid, EastEdge, WestEdge};
pub use counters::record_run;
pub use feed::{Collector, Emission, ScheduleFeeder};
pub use grid::{Grid, GridStats, NotQuiescent};
pub use schedule::{CompareSchedule, FixedSchedule};
pub use trace::{render_animation, render_frame, TraceFrame};
pub use word::{CompareOp, Elem, Word};
