//! Staggered input schedules (§3.1–3.2 and §8).
//!
//! "To make this all work, all of the data must be in the right place at the
//! right time" (§3.1). This module is the closed-form arithmetic for *when*
//! each element enters *which* boundary lane, for the two scheduling styles
//! in the paper:
//!
//! * [`CompareSchedule`] — the two-dimensional comparison array of §3.2:
//!   relation `A` marches south, relation `B` marches north, tuples two
//!   pulses apart within each relation, elements of one tuple one pulse
//!   apart ("staggered"), phased so that every pair `(a_i, b_j)` meets —
//!   element by element, left to right — in row `n_A - 1 + j - i` of an
//!   `n_A + n_B - 1`-row array.
//! * [`FixedSchedule`] — the §8 optimisation: "rather than marching two
//!   relations against each other ... we let only one relation move while
//!   the other remains fixed". `B` is pre-loaded one tuple per row, `A`
//!   streams south with tuples only *one* pulse apart, doubling utilisation
//!   and halving the row count to `n_B`.
//!
//! All indices are 0-based: tuple `i` of `A`, tuple `j` of `B`, element
//! (column) `c`, grid row `rho`. "Injection pulse" is the pulse at which the
//! feeder writes the word into the edge cell's input latch; a word injected
//! at pulse `s` into the north edge is the input of row `rho` at pulse
//! `s + rho` (and symmetrically from the south).

use crate::feed::ScheduleFeeder;
use crate::word::{Elem, Word};

/// Closed-form schedule for the two-dimensional comparison array (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompareSchedule {
    /// `|A|` — tuples streamed from the north.
    pub n_a: usize,
    /// `|B|` — tuples streamed from the south.
    pub n_b: usize,
    /// Tuple width (elements per tuple); the comparison columns of the grid.
    pub m: usize,
    /// Global delay applied to `A` injections so all pulses are non-negative.
    phase_a: u64,
    /// Global delay applied to `B` injections.
    phase_b: u64,
}

impl CompareSchedule {
    /// Build the schedule for comparing every tuple of `A` (cardinality
    /// `n_a`) with every tuple of `B` (cardinality `n_b`), tuple width `m`.
    ///
    /// # Panics
    /// Panics if any dimension is zero; empty relations are handled by the
    /// operator front-ends before an array is ever built.
    pub fn new(n_a: usize, n_b: usize, m: usize) -> Self {
        assert!(
            n_a > 0 && n_b > 0 && m > 0,
            "schedule dimensions must be positive"
        );
        // Choose phases with phase_b - phase_a = n_a - n_b so that pair
        // (i, j) meets in row n_a - 1 + j - i; shift both to be >= 0.
        let phase_a = n_b.saturating_sub(n_a) as u64;
        let phase_b = n_a.saturating_sub(n_b) as u64;
        CompareSchedule {
            n_a,
            n_b,
            m,
            phase_a,
            phase_b,
        }
    }

    /// Rows required: `n_A + n_B - 1` (§3.2 — every pair must cross).
    pub fn rows(&self) -> usize {
        self.n_a + self.n_b - 1
    }

    /// Comparison columns required: the tuple width `m`.
    pub fn cols(&self) -> usize {
        self.m
    }

    /// The row in which tuples `a_i` and `b_j` meet.
    pub fn meeting_row(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n_a && j < self.n_b);
        self.n_a - 1 + j - i
    }

    /// Pulse at which elements `a[i][c]` and `b[j][c]` are compared (both are
    /// inputs of cell `(meeting_row(i, j), c)` at this pulse).
    pub fn meeting_pulse(&self, i: usize, j: usize, c: usize) -> u64 {
        debug_assert!(i < self.n_a && j < self.n_b && c < self.m);
        (i + j + c) as u64 + self.phase_a + (self.n_a - 1) as u64
    }

    /// Injection pulse of element `a[i][c]` into north-edge lane `c`.
    pub fn a_injection(&self, i: usize, c: usize) -> u64 {
        (2 * i + c) as u64 + self.phase_a
    }

    /// Injection pulse of element `b[j][c]` into south-edge lane `c`.
    pub fn b_injection(&self, j: usize, c: usize) -> u64 {
        (2 * j + c) as u64 + self.phase_b
    }

    /// Injection `(lane, pulse)` of the initial `t` value for pair `(i, j)`
    /// on the west edge: it must arrive at the leftmost cell of the meeting
    /// row exactly when the first elements of the two tuples do (§3.1).
    pub fn t_injection(&self, i: usize, j: usize) -> (usize, u64) {
        (self.meeting_row(i, j), self.meeting_pulse(i, j, 0))
    }

    /// Pulse at which `t_{ij}` is computed by the rightmost comparison cell
    /// of its row, i.e. the pulse recorded by the east collector of a grid
    /// that is exactly `m` columns wide.
    pub fn t_exit_pulse(&self, i: usize, j: usize) -> u64 {
        self.meeting_pulse(i, j, self.m - 1)
    }

    /// Inverse of [`Self::t_exit_pulse`]: which pair's `t` exited east from
    /// `row` at `pulse`? Returns `None` for `(row, pulse)` combinations at
    /// which no result is scheduled.
    pub fn pair_at_exit(&self, row: usize, pulse: u64) -> Option<(usize, usize)> {
        if row >= self.rows() {
            return None;
        }
        // row  = n_a - 1 + j - i        => j - i = row - (n_a - 1)
        // pulse = i + j + (m-1) + phase_a + n_a - 1
        let diff = row as i64 - (self.n_a as i64 - 1);
        let sum = pulse as i64 - (self.m as i64 - 1) - self.phase_a as i64 - (self.n_a as i64 - 1);
        let two_i = sum - diff;
        let two_j = sum + diff;
        if two_i < 0 || two_j < 0 || two_i % 2 != 0 || two_j % 2 != 0 {
            return None;
        }
        let (i, j) = ((two_i / 2) as usize, (two_j / 2) as usize);
        (i < self.n_a && j < self.n_b).then_some((i, j))
    }

    /// Index of the accumulation column when a linear accumulation array
    /// (§4.2) is appended to the comparison array: column `m` of an
    /// `(m + 1)`-wide grid.
    pub fn acc_col(&self) -> usize {
        self.m
    }

    /// Injection pulse (north edge, lane [`Self::acc_col`]) of the initial
    /// accumulated value `t_i = FALSE` for tuple `a_i` (§4.2: "provided we
    /// initialize the value moving down through the accumulation array as
    /// FALSE").
    pub fn acc_injection(&self, i: usize) -> u64 {
        debug_assert!(i < self.n_a);
        (2 * i + self.m) as u64 + self.phase_a
    }

    /// Pulse at which the fully accumulated `t_i` leaves the bottom of the
    /// accumulation array (south edge, lane [`Self::acc_col`]).
    pub fn acc_exit_pulse(&self, i: usize) -> u64 {
        self.acc_injection(i) + (self.rows() - 1) as u64
    }

    /// Inverse of [`Self::acc_exit_pulse`].
    pub fn tuple_at_acc_exit(&self, pulse: u64) -> Option<usize> {
        let base = self.m as i64 + self.phase_a as i64 + (self.rows() as i64 - 1);
        let two_i = pulse as i64 - base;
        if two_i < 0 || two_i % 2 != 0 {
            return None;
        }
        let i = (two_i / 2) as usize;
        (i < self.n_a).then_some(i)
    }

    /// An upper bound on the pulse at which the grid is guaranteed to have
    /// drained — used as the `run_until_quiescent` budget.
    pub fn pulse_bound(&self) -> u64 {
        // Last injection + longest possible traversal (rows + cols), padded.
        let last_inject = self
            .a_injection(self.n_a - 1, self.m - 1)
            .max(self.b_injection(self.n_b - 1, self.m - 1))
            .max(self.acc_injection(self.n_a - 1));
        last_inject + (self.rows() + self.m + 2) as u64 + 4
    }

    /// The north-edge injections carrying relation `A` (one tuple per
    /// `tuples[i]`, each of width `m`).
    pub fn a_entries<'t>(
        &self,
        tuples: &'t [Vec<Elem>],
    ) -> impl Iterator<Item = (u64, usize, Word)> + 't {
        debug_assert_eq!(tuples.len(), self.n_a);
        let s = *self;
        tuples.iter().enumerate().flat_map(move |(i, tup)| {
            debug_assert_eq!(tup.len(), s.m);
            tup.iter()
                .enumerate()
                .map(move |(c, &e)| (s.a_injection(i, c), c, Word::Elem(e)))
        })
    }

    /// Build the north-edge feeder carrying relation `A`.
    pub fn a_feeder(&self, tuples: &[Vec<Elem>]) -> ScheduleFeeder {
        ScheduleFeeder::from_entries(self.a_entries(tuples))
    }

    /// Build the south-edge feeder carrying relation `B`.
    pub fn b_feeder(&self, tuples: &[Vec<Elem>]) -> ScheduleFeeder {
        debug_assert_eq!(tuples.len(), self.n_b);
        ScheduleFeeder::from_entries(tuples.iter().enumerate().flat_map(|(j, tup)| {
            debug_assert_eq!(tup.len(), self.m);
            tup.iter()
                .enumerate()
                .map(move |(c, &e)| (self.b_injection(j, c), c, Word::Elem(e)))
        }))
    }

    /// Build the west-edge feeder of initial `t` values. `initial(i, j)`
    /// supplies the boolean injected for pair `(i, j)`: `TRUE` everywhere
    /// for plain comparison (§3.2), `FALSE` on the diagonal and upper
    /// triangle for remove-duplicates (§5).
    pub fn t_feeder(&self, mut initial: impl FnMut(usize, usize) -> bool) -> ScheduleFeeder {
        let mut entries = Vec::with_capacity(self.n_a * self.n_b);
        for i in 0..self.n_a {
            for j in 0..self.n_b {
                let (lane, pulse) = self.t_injection(i, j);
                entries.push((pulse, lane, Word::Bool(initial(i, j))));
            }
        }
        ScheduleFeeder::from_entries(entries)
    }

    /// Build the north-edge injections of the initial accumulated values
    /// `t_i = FALSE` into the accumulation column (chained onto
    /// [`Self::a_entries`] by callers that use an `(m + 1)`-wide grid).
    pub fn acc_feeder_entries(&self) -> Vec<(u64, usize, Word)> {
        (0..self.n_a)
            .map(|i| (self.acc_injection(i), self.acc_col(), Word::Bool(false)))
            .collect()
    }
}

/// Closed-form schedule for the fixed-operand arrays of §8: `B` pre-loaded
/// (one tuple per row, one element per cell), `A` streaming south with
/// consecutive tuples one pulse apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedSchedule {
    /// `|A|` — tuples streamed from the north.
    pub n_a: usize,
    /// `|B|` — tuples pre-loaded, one per row.
    pub n_b: usize,
    /// Tuple width.
    pub m: usize,
}

impl FixedSchedule {
    /// Build the schedule. Panics if any dimension is zero.
    pub fn new(n_a: usize, n_b: usize, m: usize) -> Self {
        assert!(
            n_a > 0 && n_b > 0 && m > 0,
            "schedule dimensions must be positive"
        );
        FixedSchedule { n_a, n_b, m }
    }

    /// Rows required: one per stored tuple of `B`.
    pub fn rows(&self) -> usize {
        self.n_b
    }

    /// Comparison columns required.
    pub fn cols(&self) -> usize {
        self.m
    }

    /// Injection pulse of element `a[i][c]` into north-edge lane `c`:
    /// consecutive tuples only one pulse apart (the stored operand does not
    /// move, so no relative-velocity constraint applies).
    pub fn a_injection(&self, i: usize, c: usize) -> u64 {
        (i + c) as u64
    }

    /// Pulse at which `a[i][c]` is compared against the stored `b[j][c]`
    /// (at cell `(j, c)`).
    pub fn meeting_pulse(&self, i: usize, j: usize, c: usize) -> u64 {
        (i + j + c) as u64
    }

    /// Injection `(lane, pulse)` of the initial `t` for pair `(i, j)`.
    pub fn t_injection(&self, i: usize, j: usize) -> (usize, u64) {
        (j, self.meeting_pulse(i, j, 0))
    }

    /// Pulse at which `t_{ij}` exits east from row `j`.
    pub fn t_exit_pulse(&self, i: usize, j: usize) -> u64 {
        self.meeting_pulse(i, j, self.m - 1)
    }

    /// Inverse of [`Self::t_exit_pulse`].
    pub fn pair_at_exit(&self, row: usize, pulse: u64) -> Option<(usize, usize)> {
        if row >= self.n_b {
            return None;
        }
        let i = pulse as i64 - (self.m as i64 - 1) - row as i64;
        (i >= 0 && (i as usize) < self.n_a).then_some((i as usize, row))
    }

    /// Accumulation column index (column `m` of an `(m + 1)`-wide grid).
    pub fn acc_col(&self) -> usize {
        self.m
    }

    /// Injection pulse of the initial `t_i` into the accumulation column.
    pub fn acc_injection(&self, i: usize) -> u64 {
        (i + self.m) as u64
    }

    /// Pulse at which the accumulated `t_i` exits south.
    pub fn acc_exit_pulse(&self, i: usize) -> u64 {
        self.acc_injection(i) + (self.n_b - 1) as u64
    }

    /// Inverse of [`Self::acc_exit_pulse`].
    pub fn tuple_at_acc_exit(&self, pulse: u64) -> Option<usize> {
        let i = pulse as i64 - self.m as i64 - (self.n_b as i64 - 1);
        (i >= 0 && (i as usize) < self.n_a).then_some(i as usize)
    }

    /// Quiescence budget.
    pub fn pulse_bound(&self) -> u64 {
        (self.n_a + self.n_b + 2 * self.m + 6) as u64
    }

    /// The north-edge injections of the streaming relation `A`.
    pub fn a_entries<'t>(
        &self,
        tuples: &'t [Vec<Elem>],
    ) -> impl Iterator<Item = (u64, usize, Word)> + 't {
        debug_assert_eq!(tuples.len(), self.n_a);
        let s = *self;
        tuples.iter().enumerate().flat_map(move |(i, tup)| {
            debug_assert_eq!(tup.len(), s.m);
            tup.iter()
                .enumerate()
                .map(move |(c, &e)| (s.a_injection(i, c), c, Word::Elem(e)))
        })
    }

    /// Build the north-edge feeder for the streaming relation `A`.
    pub fn a_feeder(&self, tuples: &[Vec<Elem>]) -> ScheduleFeeder {
        ScheduleFeeder::from_entries(self.a_entries(tuples))
    }

    /// West-edge feeder of initial `t` values.
    pub fn t_feeder(&self, mut initial: impl FnMut(usize, usize) -> bool) -> ScheduleFeeder {
        let mut entries = Vec::with_capacity(self.n_a * self.n_b);
        for i in 0..self.n_a {
            for j in 0..self.n_b {
                let (lane, pulse) = self.t_injection(i, j);
                entries.push((pulse, lane, Word::Bool(initial(i, j))));
            }
        }
        ScheduleFeeder::from_entries(entries)
    }

    /// North-edge injections of initial accumulated values.
    pub fn acc_feeder_entries(&self) -> Vec<(u64, usize, Word)> {
        (0..self.n_a)
            .map(|i| (self.acc_injection(i), self.acc_col(), Word::Bool(false)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pair_meets_in_a_valid_row_exactly_once() {
        for (n_a, n_b) in [(1, 1), (3, 3), (2, 5), (7, 2)] {
            let s = CompareSchedule::new(n_a, n_b, 3);
            let mut seen = std::collections::HashSet::new();
            for i in 0..n_a {
                for j in 0..n_b {
                    let row = s.meeting_row(i, j);
                    assert!(row < s.rows(), "row {row} out of range");
                    let pulse = s.meeting_pulse(i, j, 0);
                    assert!(
                        seen.insert((row, pulse)),
                        "pair collision at ({row},{pulse})"
                    );
                }
            }
        }
    }

    #[test]
    fn meeting_is_consistent_with_injection_travel_times() {
        // a[i][c] injected at north lane c reaches row rho after rho pulses;
        // b[j][c] injected at south reaches row rho after rows-1-rho pulses.
        let s = CompareSchedule::new(4, 6, 2);
        for i in 0..4 {
            for j in 0..6 {
                for c in 0..2 {
                    let rho = s.meeting_row(i, j) as u64;
                    let tau = s.meeting_pulse(i, j, c);
                    assert_eq!(s.a_injection(i, c) + rho, tau);
                    assert_eq!(s.b_injection(j, c) + (s.rows() as u64 - 1 - rho), tau);
                }
            }
        }
    }

    #[test]
    fn elements_within_a_tuple_are_staggered_by_one_pulse() {
        let s = CompareSchedule::new(3, 3, 4);
        for c in 1..4 {
            assert_eq!(s.a_injection(1, c), s.a_injection(1, c - 1) + 1);
            assert_eq!(s.b_injection(2, c), s.b_injection(2, c - 1) + 1);
        }
    }

    #[test]
    fn consecutive_tuples_are_two_pulses_apart() {
        // §3.2: "each tuple is two steps behind the tuple that preceded it".
        let s = CompareSchedule::new(5, 4, 2);
        assert_eq!(s.a_injection(3, 0), s.a_injection(2, 0) + 2);
        assert_eq!(s.b_injection(3, 0), s.b_injection(2, 0) + 2);
    }

    #[test]
    fn pair_at_exit_inverts_t_exit_pulse() {
        for (n_a, n_b, m) in [(3, 3, 1), (4, 2, 3), (1, 6, 2), (8, 8, 5)] {
            let s = CompareSchedule::new(n_a, n_b, m);
            for i in 0..n_a {
                for j in 0..n_b {
                    let row = s.meeting_row(i, j);
                    let pulse = s.t_exit_pulse(i, j);
                    assert_eq!(s.pair_at_exit(row, pulse), Some((i, j)));
                }
            }
            // Off-schedule queries decode to nothing.
            assert_eq!(s.pair_at_exit(s.rows(), 0), None);
            assert_eq!(s.pair_at_exit(0, 1_000_000), None);
        }
    }

    #[test]
    fn accumulated_value_rides_one_row_per_pulse_behind_the_results() {
        // t_i must sit at row meeting_row(i, j) exactly one pulse after
        // t_{ij} leaves the rightmost comparison cell.
        let s = CompareSchedule::new(4, 5, 3);
        for i in 0..4 {
            for j in 0..5 {
                let rho = s.meeting_row(i, j) as u64;
                assert_eq!(s.acc_injection(i) + rho, s.t_exit_pulse(i, j) + 1);
            }
        }
    }

    #[test]
    fn tuple_at_acc_exit_inverts_acc_exit_pulse() {
        let s = CompareSchedule::new(6, 3, 2);
        for i in 0..6 {
            assert_eq!(s.tuple_at_acc_exit(s.acc_exit_pulse(i)), Some(i));
        }
        assert_eq!(s.tuple_at_acc_exit(0), None);
    }

    #[test]
    fn latency_is_linear_in_relation_sizes() {
        // The headline systolic property: total pulses grow additively, not
        // multiplicatively, in n_A, n_B and m.
        let s = CompareSchedule::new(100, 100, 10);
        assert!(
            s.pulse_bound() < 450,
            "bound {} not linear",
            s.pulse_bound()
        );
    }

    #[test]
    fn feeders_contain_one_entry_per_element() {
        let s = CompareSchedule::new(2, 3, 2);
        let a = vec![vec![1, 2], vec![3, 4]];
        let b = vec![vec![5, 6], vec![7, 8], vec![9, 10]];
        assert_eq!(s.a_feeder(&a).len(), 4);
        assert_eq!(s.b_feeder(&b).len(), 6);
        assert_eq!(s.t_feeder(|_, _| true).len(), 6);
        assert_eq!(s.acc_feeder_entries().len(), 2);
    }

    #[test]
    fn fixed_schedule_streams_tuples_one_pulse_apart() {
        let s = FixedSchedule::new(5, 3, 2);
        assert_eq!(s.a_injection(2, 0), s.a_injection(1, 0) + 1);
        assert_eq!(s.rows(), 3, "fixed array needs only |B| rows");
    }

    #[test]
    fn fixed_pair_decoding_round_trips() {
        let s = FixedSchedule::new(4, 3, 2);
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(s.pair_at_exit(j, s.t_exit_pulse(i, j)), Some((i, j)));
            }
        }
        for i in 0..4 {
            assert_eq!(s.tuple_at_acc_exit(s.acc_exit_pulse(i)), Some(i));
        }
    }

    #[test]
    fn fixed_accumulator_alignment() {
        let s = FixedSchedule::new(4, 5, 3);
        for i in 0..4 {
            for j in 0..5 {
                assert_eq!(s.acc_injection(i) + j as u64, s.t_exit_pulse(i, j) + 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        CompareSchedule::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn fixed_zero_dimension_rejected() {
        FixedSchedule::new(1, 1, 0);
    }
}
