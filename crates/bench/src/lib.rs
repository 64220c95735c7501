//! # systolic-bench
//!
//! Shared harness code for the experiment suite: deterministic workload
//! builders (one per experiment in DESIGN.md §5), closed-form hardware-cost
//! helpers, and plain-text table rendering used by the `repro` binary that
//! regenerates every table in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod docs;
pub mod table;
pub mod workloads;

pub use table::Table;

/// The §8 conservative comparison time, used to convert simulated pulses to
/// hardware nanoseconds throughout the experiments.
pub const PULSE_NS: f64 = 350.0;

/// Hardware latency (ns) of a run of `pulses` pulses at the conservative
/// §8 clock.
pub fn hardware_ns(pulses: u64) -> f64 {
    pulses as f64 * PULSE_NS
}

/// Closed-form pulse count of the marching intersection array for
/// `n_a = n_b = n`, width `m` (verified against simulation below): the last
/// accumulated `t_i` is computed at pulse `4n + m - 4`, after which the
/// grid drains in one pulse.
pub fn intersection_pulses(n: u64, m: u64) -> u64 {
    4 * n + m - 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::{IntersectionArray, SetOpMode};

    #[test]
    fn closed_form_matches_simulation() {
        for n in [2u64, 5, 16, 33] {
            for m in [1u64, 2, 4] {
                let rows: Vec<Vec<i64>> = (0..n as i64)
                    .map(|i| (0..m as i64).map(|c| i + c).collect())
                    .collect();
                let out = IntersectionArray::new(m as usize)
                    .run(&rows, &rows, SetOpMode::Intersect)
                    .unwrap();
                assert_eq!(out.stats.pulses, intersection_pulses(n, m), "n={n} m={m}");
            }
        }
    }

    #[test]
    fn hardware_time_uses_the_conservative_clock() {
        assert_eq!(hardware_ns(1000), 350_000.0);
    }
}
