//! # systolic-perfmodel
//!
//! The analytic VLSI performance model of §8 of Kung & Lehman (SIGMOD
//! 1980) — the paper's only quantitative evaluation — reproduced exactly:
//!
//! * [`technology::Technology`] — NMOS constants (bit-comparator area
//!   240µ x 150µ, 6000µ chips ⇒ 1000 comparators/chip, 350 ns/comparison,
//!   1000 chips ⇒ 10^6 parallel comparisons), plus the optimistic variant;
//! * [`predict`] — the intersection-time predictions (**~50 ms**
//!   conservative, **10 ms** optimistic for 10^4-tuple, 1500-bit relations);
//! * [`disk`] — the 3600-rpm / 500 KB-per-revolution mass-storage model and
//!   the "the array keeps up with the disk" claim.
//!
//! ```
//! use systolic_perfmodel::{DiskModel, Prediction, Technology, Workload};
//!
//! let p = Prediction::new(Technology::paper_conservative(), Workload::paper_typical());
//! assert!((p.intersection_ms() - 52.5).abs() < 1e-9); // "about 50ms"
//! let d = DiskModel::paper_disk();
//! assert!((d.revolution_ms() - 16.7).abs() < 0.1);    // "about once every 17ms"
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod disk;
pub mod predict;
pub mod technology;

pub use capacity::{CapacityPlan, Layout};
pub use disk::{array_keeps_up_with_disk, DiskModel};
pub use predict::{Prediction, Workload};
pub use technology::Technology;
