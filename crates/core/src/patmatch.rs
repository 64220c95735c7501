//! The pattern-match chip (§8, reference \[3\]).
//!
//! "During the past year, we have designed prototypes of several
//! special-purpose chips at CMU. These include a pattern-match chip \[3\] ...
//! The pattern-match chip can be viewed as a scaled-down version of the
//! comparison array in Section 3. (This chip has been fabricated, tested,
//! and found to work.)"
//!
//! This module realises that chip on the same fabric: a linear array of `k`
//! character comparators with the pattern resident (one symbol per cell,
//! wildcards allowed), the text streaming through, and one match verdict
//! emitted per alignment — the AND-chain of Figure 3-2 with a stored
//! operand. It both demonstrates the lineage the paper describes and serves
//! as a second worked application of the fixed-operand layout.

use systolic_fabric::{Cell, CellIo, Elem, Grid, ScheduleFeeder, Word};

use crate::error::{CoreError, Result};
use crate::stats::ExecStats;

/// The wildcard symbol: matches any text character ("don't care" in the
/// Foster–Kung chip).
pub const WILDCARD: Elem = -1;

/// One pattern cell: a comparator with a resident pattern symbol.
#[derive(Debug, Clone, Copy)]
pub struct PatternCell {
    /// The resident symbol ([`WILDCARD`] matches everything).
    pub stored: Elem,
}

impl Cell for PatternCell {
    fn pulse(&mut self, io: &mut CellIo) {
        match io.a_in.as_elem() {
            Some(ch) => {
                let hit = self.stored == WILDCARD || ch == self.stored;
                io.t_out = match io.t_in {
                    Word::Bool(t) => Word::Bool(t && hit),
                    _ => Word::Bool(hit),
                };
            }
            None => io.t_out = io.t_in,
        }
        // The text keeps streaming; nothing moves north.
        io.a_out = io.a_in;
    }
}

/// The linear pattern-match array: `k` resident pattern cells.
///
/// ```
/// use systolic_core::PatternMatchChip;
/// let chip = PatternMatchChip::from_bytes(b"a?a");
/// assert_eq!(chip.find_in_bytes(b"banana").unwrap(), vec![1, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct PatternMatchChip {
    pattern: Vec<Elem>,
}

impl PatternMatchChip {
    /// Pre-load a pattern (symbols, [`WILDCARD`] for don't-care positions).
    ///
    /// # Panics
    /// Panics on an empty pattern.
    pub fn preload(pattern: &[Elem]) -> Self {
        assert!(!pattern.is_empty(), "pattern must be non-empty");
        PatternMatchChip {
            pattern: pattern.to_vec(),
        }
    }

    /// Convenience: pre-load from bytes, `b'?'` as the wildcard.
    pub fn from_bytes(pattern: &[u8]) -> Self {
        Self::preload(
            &pattern
                .iter()
                .map(|&b| if b == b'?' { WILDCARD } else { b as Elem })
                .collect::<Vec<_>>(),
        )
    }

    /// Pattern length (number of processors).
    pub fn k(&self) -> usize {
        self.pattern.len()
    }

    /// Stream `text` through the chip. Returns one boolean per alignment
    /// (`text.len() - k + 1` verdicts: `out[i]` is TRUE iff the pattern
    /// matches at text position `i`), plus the hardware statistics.
    pub fn search(&self, text: &[Elem]) -> Result<(Vec<bool>, ExecStats)> {
        let k = self.k();
        if text.len() < k {
            return Ok((Vec::new(), ExecStats::default()));
        }
        let alignments = text.len() - k + 1;
        let pattern = &self.pattern;
        let mut grid: Grid<PatternCell> =
            Grid::new(1, k, |_, c| PatternCell { stored: pattern[c] });
        // Cell c sees the text delayed by c pulses: lane c carries text[p]
        // at pulse p, restricted to the alignments that use it. Alignment i
        // meets cell c (character text[i+c]) at pulse i + c.
        let mut north = Vec::new();
        for c in 0..k {
            for i in 0..alignments {
                north.push(((i + c) as u64, c, Word::Elem(text[i + c])));
            }
        }
        grid.set_north_feeder(ScheduleFeeder::from_entries(north));
        grid.set_west_feeder(ScheduleFeeder::from_entries(
            (0..alignments).map(|i| (i as u64, 0, Word::Bool(true))),
        ));
        grid.run_until_quiescent((text.len() + 2 * k + 4) as u64)?;

        let mut out = vec![None; alignments];
        for em in grid.east_emissions().emissions() {
            let p = em.pulse as usize;
            if p + 1 < k {
                continue;
            }
            let i = p + 1 - k;
            if i >= alignments {
                return Err(CoreError::ScheduleViolation {
                    detail: format!("verdict at pulse {p} beyond the last alignment"),
                });
            }
            out[i] = em.word.as_bool();
        }
        let out: Vec<bool> = out
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.ok_or_else(|| CoreError::ScheduleViolation {
                    detail: format!("no verdict for alignment {i}"),
                })
            })
            .collect::<Result<_>>()?;
        Ok((out, ExecStats::from_grid(grid.stats(), k)))
    }

    /// Search a byte string; returns the matching start offsets.
    pub fn find_in_bytes(&self, text: &[u8]) -> Result<Vec<usize>> {
        let encoded: Vec<Elem> = text.iter().map(|&b| b as Elem).collect();
        let (hits, _) = self.search(&encoded)?;
        Ok(hits
            .iter()
            .enumerate()
            .filter(|(_, &h)| h)
            .map(|(i, _)| i)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_all_occurrences() {
        let chip = PatternMatchChip::from_bytes(b"aba");
        let hits = chip.find_in_bytes(b"abababa").unwrap();
        assert_eq!(hits, vec![0, 2, 4], "overlapping matches included");
    }

    #[test]
    fn wildcards_match_any_character() {
        let chip = PatternMatchChip::from_bytes(b"a?c");
        let hits = chip.find_in_bytes(b"abc axc azz").unwrap();
        assert_eq!(hits, vec![0, 4]);
    }

    #[test]
    fn no_match_anywhere() {
        let chip = PatternMatchChip::from_bytes(b"xyz");
        assert!(chip.find_in_bytes(b"aaaaaa").unwrap().is_empty());
    }

    #[test]
    fn text_shorter_than_pattern_yields_no_alignments() {
        let chip = PatternMatchChip::from_bytes(b"long pattern");
        let (hits, stats) = chip.search(&[1, 2, 3]).unwrap();
        assert!(hits.is_empty());
        assert_eq!(stats, ExecStats::default());
    }

    #[test]
    fn exact_text_equals_pattern() {
        let chip = PatternMatchChip::from_bytes(b"hello");
        assert_eq!(chip.find_in_bytes(b"hello").unwrap(), vec![0]);
    }

    #[test]
    fn single_symbol_pattern_matches_each_occurrence() {
        let chip = PatternMatchChip::from_bytes(b"a");
        assert_eq!(chip.find_in_bytes(b"banana").unwrap(), vec![1, 3, 5]);
    }

    #[test]
    fn verdicts_agree_with_naive_search_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(808);
        for _ in 0..20 {
            let k = rng.gen_range(1..=4);
            let n = rng.gen_range(k..=24);
            let pattern: Vec<Elem> = (0..k)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        WILDCARD
                    } else {
                        rng.gen_range(0..3)
                    }
                })
                .collect();
            let text: Vec<Elem> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            let chip = PatternMatchChip::preload(&pattern);
            let (hits, _) = chip.search(&text).unwrap();
            for i in 0..=(n - k) {
                let expect = (0..k).all(|c| pattern[c] == WILDCARD || text[i + c] == pattern[c]);
                assert_eq!(hits[i], expect, "alignment {i}");
            }
        }
    }

    #[test]
    fn latency_is_linear_in_text_length() {
        let chip = PatternMatchChip::from_bytes(b"ab");
        let text: Vec<Elem> = (0..100).map(|i| (i % 2) + 97).collect();
        let (_, stats) = chip.search(&text).unwrap();
        assert!(stats.pulses <= 104, "pulses {} not linear", stats.pulses);
        assert_eq!(stats.cells, 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_rejected() {
        PatternMatchChip::preload(&[]);
    }
}
