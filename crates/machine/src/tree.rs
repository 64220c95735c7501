//! The tree machine alternative (§9).
//!
//! "Song \[9\] has suggested the use of a tree machine for database
//! applications. The leaf nodes of the tree machine are responsible for
//! data storage, and for a limited amount of processing of the data. The
//! tree structure itself is used to broadcast instructions and data, and to
//! combine results of low-level computations on the data. This same tree
//! machine is capable of performing all database operations. A detailed
//! comparison of these and other database machine structures is needed in
//! order to understand their relative merits."
//!
//! This module builds that comparison: a cycle-level model of a binary tree
//! machine whose leaves each store a bounded number of tuples and compare
//! them against broadcast values, with results combined (OR/AND/collect)
//! up the tree. The same relational operations are implemented on it, with
//! exact results and accounted latencies, so the E14 experiment can put the
//! crossbar/systolic organisation and the tree machine side by side.
//!
//! ## Cost model
//!
//! For a tree with `L` leaves (depth `d = ceil(log2 L)`):
//!
//! * broadcasting one word to all leaves costs `d` pulses (pipelined, so a
//!   stream of `k` words costs `d + k - 1`);
//! * every leaf compares the broadcast tuple against its stored tuples in
//!   parallel — one pulse per stored tuple per broadcast tuple (a leaf is a
//!   single comparator in Song's design);
//! * combining one-bit results up the tree costs `d` pulses, pipelined
//!   across queries.
//!
//! A membership query for one probe tuple therefore costs
//! `d + m + tuples_per_leaf + d` pulses, and a stream of `n` probes
//! pipelines to `2d + m + tuples_per_leaf + n - 1`.

use systolic_relation::{Elem, MultiRelation, Row};

use crate::error::{MachineError, Result};

/// A binary tree machine with data stored at the leaves.
#[derive(Debug)]
pub struct TreeMachine {
    /// Maximum tuples stored per leaf node.
    pub leaf_capacity: usize,
    /// Leaves (each a small store of rows).
    leaves: Vec<Vec<Row>>,
    /// Pulse period in nanoseconds, for time accounting.
    pub clock_ns: f64,
}

/// Latency accounting for one tree-machine operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Pulses spent broadcasting data down the tree.
    pub broadcast_pulses: u64,
    /// Pulses spent on leaf-local comparisons.
    pub leaf_pulses: u64,
    /// Pulses spent combining results up the tree.
    pub combine_pulses: u64,
    /// Leaf nodes used.
    pub leaves: usize,
    /// Tree depth.
    pub depth: u32,
}

impl TreeStats {
    /// Total pipeline latency in pulses.
    pub fn total_pulses(&self) -> u64 {
        self.broadcast_pulses + self.leaf_pulses + self.combine_pulses
    }
}

impl TreeMachine {
    /// Build an empty machine.
    pub fn new(leaf_capacity: usize, clock_ns: f64) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        TreeMachine {
            leaf_capacity,
            leaves: Vec::new(),
            clock_ns,
        }
    }

    /// Load a relation into the leaves, `leaf_capacity` tuples per leaf.
    pub fn load(&mut self, rel: &MultiRelation) {
        self.leaves = rel
            .rows()
            .to_vec()
            .chunks(self.leaf_capacity)
            .map(|chunk| chunk.to_vec())
            .collect();
    }

    /// Number of occupied leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Tree depth for the current occupancy.
    pub fn depth(&self) -> u32 {
        (self.leaf_count().max(1) as f64).log2().ceil() as u32
    }

    fn base_stats(&self) -> TreeStats {
        TreeStats {
            leaves: self.leaf_count(),
            depth: self.depth(),
            ..TreeStats::default()
        }
    }

    /// Membership of each probe tuple among the stored tuples: the
    /// tree-machine analogue of the intersection array. Probes are
    /// broadcast down; each leaf compares against its stored tuples; the
    /// per-leaf booleans OR-combine up the tree.
    pub fn membership(&self, probes: &[Row]) -> Result<(Vec<bool>, TreeStats)> {
        if self.leaves.is_empty() {
            return Ok((vec![false; probes.len()], self.base_stats()));
        }
        let m = self.leaves[0].first().map(|r| r.len()).unwrap_or(0);
        for p in probes {
            if p.len() != m {
                return Err(MachineError::Core(
                    systolic_relation::RelationError::ArityMismatch {
                        expected: m,
                        got: p.len(),
                    }
                    .into(),
                ));
            }
        }
        let keep: Vec<bool> = probes
            .iter()
            .map(|p| self.leaves.iter().any(|leaf| leaf.iter().any(|r| r == p)))
            .collect();
        let d = self.depth() as u64;
        let n = probes.len() as u64;
        let stats = TreeStats {
            // A pipelined stream of n probes of m words each.
            broadcast_pulses: d + n * m as u64 - 1,
            // Each probe is compared against every stored tuple of its
            // leaf; leaves work in parallel, so the leaf time per probe is
            // leaf_capacity comparisons.
            leaf_pulses: self.leaf_capacity as u64 * n,
            combine_pulses: d + n - 1,
            ..self.base_stats()
        };
        Ok((keep, stats))
    }

    /// Tree-machine equi-join probe: for each probe key, collect the
    /// indices of stored rows whose `key_col` matches. Matches stream up
    /// the tree one per pulse (the tree serialises result extraction — its
    /// structural disadvantage against the crossbar for high-fan-out
    /// operations).
    pub fn probe_join(
        &self,
        probes: &[Elem],
        key_col: usize,
    ) -> Result<(Vec<Vec<usize>>, TreeStats)> {
        let mut matches_total = 0u64;
        let mut out = Vec::with_capacity(probes.len());
        for &p in probes {
            let mut hits = Vec::new();
            let mut idx = 0usize;
            for leaf in &self.leaves {
                for row in leaf {
                    if row.get(key_col) == Some(&p) {
                        hits.push(idx);
                    }
                    idx += 1;
                }
            }
            matches_total += hits.len() as u64;
            out.push(hits);
        }
        let d = self.depth() as u64;
        let n = probes.len() as u64;
        let stats = TreeStats {
            broadcast_pulses: d + n - 1,
            leaf_pulses: self.leaf_capacity as u64 * n,
            // Result extraction serialises: one match per pulse up the
            // root, plus the drain depth.
            combine_pulses: d + matches_total,
            ..self.base_stats()
        };
        Ok((out, stats))
    }

    /// Hardware time in nanoseconds for a stats record.
    pub fn time_ns(&self, stats: &TreeStats) -> f64 {
        stats.total_pulses() as f64 * self.clock_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_relation::gen::synth_schema;

    fn rel(rows: Vec<Row>) -> MultiRelation {
        MultiRelation::new(synth_schema(rows[0].len()), rows).unwrap()
    }

    #[test]
    fn membership_is_exact() {
        let mut t = TreeMachine::new(2, 350.0);
        t.load(&rel(vec![
            vec![1, 1],
            vec![2, 2],
            vec![3, 3],
            vec![4, 4],
            vec![5, 5],
        ]));
        assert_eq!(t.leaf_count(), 3);
        let probes = vec![vec![2, 2], vec![9, 9], vec![5, 5]];
        let (keep, stats) = t.membership(&probes).unwrap();
        assert_eq!(keep, vec![true, false, true]);
        assert_eq!(stats.depth, 2);
        assert!(stats.total_pulses() > 0);
    }

    #[test]
    fn empty_machine_rejects_nothing_and_matches_nothing() {
        let t = TreeMachine::new(4, 350.0);
        let (keep, stats) = t.membership(&[vec![1]]).unwrap();
        assert_eq!(keep, vec![false]);
        assert_eq!(stats.leaves, 0);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut t = TreeMachine::new(2, 350.0);
        t.load(&rel(vec![vec![1, 2]]));
        assert!(t.membership(&[vec![1]]).is_err());
    }

    #[test]
    fn join_probe_returns_all_matching_row_indices() {
        let mut t = TreeMachine::new(2, 350.0);
        t.load(&rel(vec![vec![7, 0], vec![8, 1], vec![7, 2], vec![9, 3]]));
        let (hits, stats) = t.probe_join(&[7, 9, 5], 0).unwrap();
        assert_eq!(hits, vec![vec![0, 2], vec![3], vec![]]);
        // 3 total matches serialise through the root.
        assert_eq!(stats.combine_pulses, t.depth() as u64 + 3);
    }

    #[test]
    fn latency_grows_logarithmically_with_stored_size() {
        // The tree's broadcast/combine cost is log(leaves); the leaf-local
        // cost is leaf_capacity per probe.
        let probe = vec![vec![0i64, 0]];
        let mut small = TreeMachine::new(4, 350.0);
        small.load(&rel((0..64).map(|i| vec![i, i]).collect()));
        let mut large = TreeMachine::new(4, 350.0);
        large.load(&rel((0..4096).map(|i| vec![i, i]).collect()));
        let (_, s_small) = small.membership(&probe).unwrap();
        let (_, s_large) = large.membership(&probe).unwrap();
        // 64x the data, but only log-factor more pulses.
        assert!(s_large.total_pulses() < s_small.total_pulses() + 16);
        assert_eq!(s_small.depth, 4);
        assert_eq!(s_large.depth, 10);
    }

    #[test]
    fn membership_agrees_with_systolic_intersection() {
        use systolic_core::{IntersectionArray, SetOpMode};
        let stored: Vec<Row> = (0..20).map(|i| vec![i, i]).collect();
        let probes: Vec<Row> = (10..30).map(|i| vec![i, i]).collect();
        let mut t = TreeMachine::new(4, 350.0);
        t.load(&rel(stored.clone()));
        let (tree_keep, _) = t.membership(&probes).unwrap();
        let systolic = IntersectionArray::new(2)
            .run(&probes, &stored, SetOpMode::Intersect)
            .unwrap();
        assert_eq!(tree_keep, systolic.keep);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        TreeMachine::new(0, 1.0);
    }
}
