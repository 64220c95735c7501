//! Arrays for removal of duplicate tuples (§5), and the union and
//! projection operations built on them.
//!
//! "Instead of comparing relation A to relation B, we compare relation A to
//! itself, by feeding it into both the top and bottom of the array. ... For
//! those t_{ij} on the main diagonal and in the upper triangle (i <= j), we
//! set t_init to FALSE. ... To produce A', we eliminate from A any row where
//! the resulting t_i is TRUE, and keep the rest."

use systolic_fabric::Elem;

use crate::error::Result;
use crate::intersection::{IntersectionArray, MembershipOutcome, SetOpMode};

/// The remove-duplicates array: the intersection/difference hardware with a
/// triangle-masked `t` input ("the main 'hardware' — the comparison array —
/// is sufficiently general that it need not be changed at all", §4.3).
#[derive(Debug, Clone, Copy)]
pub struct RemoveDuplicatesArray {
    /// Tuple width.
    pub m: usize,
}

impl RemoveDuplicatesArray {
    /// A remove-duplicates array for tuples of width `m`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "tuple width must be positive");
        RemoveDuplicatesArray { m }
    }

    /// Run over a multi-relation's rows. In the returned outcome, `keep[i]`
    /// is TRUE iff `a_i` is the *first* occurrence of its tuple (the §5
    /// strategy: "remove all tuples that are preceded by another tuple that
    /// equals it").
    pub fn run(&self, rows: &[Vec<Elem>]) -> Result<MembershipOutcome> {
        // Difference mode: keep rows whose accumulated t_i (= OR of the
        // strictly-lower-triangle comparisons) is FALSE — "this is the
        // opposite of the intersection operation".
        IntersectionArray::new(self.m).run_masked(
            rows,
            rows,
            SetOpMode::Difference,
            |i, j| i > j,
            false,
        )
    }

    /// Run over the concatenation `A + B` — the union operation (§5:
    /// `C = remove-duplicates(A + B)`). Returns keep-flags over the
    /// concatenated row sequence.
    pub fn run_union(&self, a: &[Vec<Elem>], b: &[Vec<Elem>]) -> Result<MembershipOutcome> {
        let mut rows: Vec<Vec<Elem>> = Vec::with_capacity(a.len() + b.len());
        rows.extend(a.iter().cloned());
        rows.extend(b.iter().cloned());
        self.run(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[&[Elem]]) -> Vec<Vec<Elem>> {
        vals.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn keeps_first_occurrence_of_each_tuple() {
        // The §5 example: if a_6, a_10 and a_13 are equal, remove a_10 and
        // a_13, keeping a_6.
        let input = rows(&[&[5], &[7], &[5], &[9], &[5], &[7]]);
        let out = RemoveDuplicatesArray::new(1).run(&input).unwrap();
        assert_eq!(out.keep, vec![true, true, false, true, false, false]);
    }

    #[test]
    fn duplicate_free_input_is_untouched() {
        let input = rows(&[&[1, 2], &[3, 4], &[5, 6]]);
        let out = RemoveDuplicatesArray::new(2).run(&input).unwrap();
        assert!(out.keep.iter().all(|&k| k));
    }

    #[test]
    fn all_equal_input_keeps_exactly_one() {
        let four: &[Elem] = &[4, 4];
        let input = rows(&[four; 7]);
        let out = RemoveDuplicatesArray::new(2).run(&input).unwrap();
        assert_eq!(out.keep.iter().filter(|&&k| k).count(), 1);
        assert!(out.keep[0], "the kept occurrence is the first");
    }

    #[test]
    fn union_keeps_shared_tuples_once() {
        let a = rows(&[&[1], &[2]]);
        let b = rows(&[&[2], &[3]]);
        let out = RemoveDuplicatesArray::new(1).run_union(&a, &b).unwrap();
        // Concatenation order: 1, 2, 2, 3 — the second 2 is removed.
        assert_eq!(out.keep, vec![true, true, false, true]);
    }

    #[test]
    fn union_with_internal_duplicates_in_b() {
        let a = rows(&[&[1]]);
        let b = rows(&[&[4], &[4], &[1]]);
        let out = RemoveDuplicatesArray::new(1).run_union(&a, &b).unwrap();
        assert_eq!(out.keep, vec![true, true, false, false]);
    }

    #[test]
    fn agrees_with_reference_dedup_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use systolic_baseline::{nested_loop, OpCounter};
        use systolic_relation::gen;
        let mut rng = StdRng::seed_from_u64(31337);
        for _ in 0..8 {
            let multi = gen::with_duplicates(&mut rng, 8, 3, 2);
            let out = RemoveDuplicatesArray::new(2)
                .run(&multi.rows().to_vec())
                .unwrap();
            let expect = nested_loop::dedup(&multi, &mut OpCounter::new());
            let kept = multi.filter_by_index(|i| out.keep[i]);
            assert_eq!(kept.rows(), expect.rows(), "same rows in the same order");
        }
    }

    #[test]
    fn singleton_input() {
        let out = RemoveDuplicatesArray::new(1).run(&rows(&[&[42]])).unwrap();
        assert_eq!(out.keep, vec![true]);
    }
}
