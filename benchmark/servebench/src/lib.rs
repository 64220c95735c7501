//! The served-query benchmark's load generator and its shared parts.
//!
//! `servebench` (this package's binary) drives a real `sdb serve` child
//! process over loopback TCP and sees the program only through its command
//! line and wire protocol. `layerprobe` (the sibling package) reuses [`gen`]
//! and [`trace`] to replay the same inputs through the crates in process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod child;
pub mod gen;
pub mod oracle;
pub mod procfs;
pub mod rng;
pub mod run;
pub mod scrape;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod wire;
