//! Boundary schedules and collectors of the generic [`crate::Grid`].
//!
//! A systolic array computes correctly only if "all of the data \[is\] in the
//! right place at the right time" (§3.1) — the inputs are *staggered* on the
//! array boundary. A [`ScheduleFeeder`] holds one edge's staggered injection
//! schedule as a flat pulse-indexed table, so the grid takes a whole pulse's
//! injections as one lane-ascending slice. Collectors record every word that
//! falls off an edge, together with the pulse and lane at which it did, so
//! operator front-ends can decode results using the same schedule arithmetic
//! that produced the inputs.
//!
//! Both serve only `Grid`, the mixed-cell arrays (§4's accumulation column,
//! §6.3.2's opcodes, §7's division, the bit-level and fixed-operand
//! layouts). The comparison array, [`crate::CompareGrid`], builds no table
//! and records no emission: its [`crate::CompareFeed`] computes each
//! pulse's words from the schedule and takes each verdict as it leaves.

use crate::word::Word;

/// One edge's injection schedule: the words to write into the edge cells'
/// input latches, indexed by pulse.
///
/// `lane` is the column index for the north/south edges and the row index for
/// the west edge (nothing is ever fed from the east: `t` values flow east).
/// An empty schedule injects nothing; the `schedule` module computes the
/// staggered injection times for each array and materialises them here.
///
/// The table is built once, from all of its entries: two flat buffers, not
/// one per pulse, however long the schedule.
#[derive(Debug, Default, Clone)]
pub struct ScheduleFeeder {
    /// `slots[offsets[p]..offsets[p + 1]]` holds the `(lane, word)`
    /// injections at pulse `p`, lane-ascending; `offsets.len() - 1` is the
    /// horizon (`offsets` is empty for an empty schedule).
    offsets: Vec<usize>,
    slots: Vec<(usize, Word)>,
}

impl ScheduleFeeder {
    /// An empty schedule: it never injects anything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(pulse, lane, word)` triples, in any order. `Null` words
    /// inject nothing and are dropped; the identical entry given twice counts
    /// once.
    ///
    /// One counting pass sizes each pulse's bucket, one pass scatters the
    /// entries into them, and one pass sorts each bucket by lane and drops
    /// repeats.
    ///
    /// # Panics
    /// Panics if two entries target the same `(pulse, lane)` slot with
    /// different words — that would mean two data items collide on one wire,
    /// which is always a schedule construction bug.
    pub fn from_entries(entries: impl IntoIterator<Item = (u64, usize, Word)>) -> Self {
        let entries: Vec<(u64, usize, Word)> = entries.into_iter().collect();
        let present = || entries.iter().filter(|&&(_, _, word)| word.is_present());
        let Some(last) = present().map(|&(pulse, _, _)| pulse).max() else {
            return Self::new();
        };
        let horizon = usize::try_from(last).expect("injection pulse fits in usize") + 1;

        // offsets[p + 1] counts pulse p's entries; the prefix sum turns
        // offsets[p] into the start of its bucket.
        let mut offsets = vec![0usize; horizon + 1];
        for &(pulse, _, _) in present() {
            offsets[pulse as usize + 1] += 1;
        }
        for p in 1..=horizon {
            offsets[p] += offsets[p - 1];
        }
        // Scatter, advancing each bucket's start to its end as it fills;
        // shifting the table one place restores the starts.
        let mut slots = vec![(0, Word::Null); offsets[horizon]];
        for &(pulse, lane, word) in present() {
            let next = &mut offsets[pulse as usize];
            slots[*next] = (lane, word);
            *next += 1;
        }
        offsets.rotate_right(1);
        offsets[0] = 0;

        // Sort each bucket by lane and compact out identical repeats. The
        // kept prefix never overtakes the bucket being read.
        let mut kept = 0;
        for p in 0..horizon {
            let (lo, hi) = (offsets[p], offsets[p + 1]);
            let bucket = &mut slots[lo..hi];
            if bucket.windows(2).any(|w| w[0].0 > w[1].0) {
                // The §3 generators fill a pulse's lanes in descending order.
                if bucket.windows(2).all(|w| w[0].0 > w[1].0) {
                    bucket.reverse();
                } else {
                    bucket.sort_unstable_by_key(|&(lane, _)| lane);
                }
            }
            offsets[p] = kept;
            for k in lo..hi {
                let (lane, word) = slots[k];
                if kept > offsets[p] && slots[kept - 1].0 == lane {
                    let prev = slots[kept - 1].1;
                    assert_eq!(
                        prev, word,
                        "feeder slot collision at pulse {p}, lane {lane}: {prev:?} vs {word:?}"
                    );
                    continue;
                }
                slots[kept] = (lane, word);
                kept += 1;
            }
        }
        offsets[horizon] = kept;
        slots.truncate(kept);
        ScheduleFeeder { offsets, slots }
    }

    /// The `(lane, word)` injections at `pulse`, lane-ascending (empty when
    /// nothing is scheduled then).
    pub fn at(&self, pulse: u64) -> &[(usize, Word)] {
        if pulse >= self.horizon() {
            return &[];
        }
        let p = pulse as usize;
        &self.slots[self.offsets[p]..self.offsets[p + 1]]
    }

    /// A pulse by which this schedule injects nothing more (one past its last
    /// injection; 0 when empty). Used by the grid to detect quiescence.
    pub fn horizon(&self) -> u64 {
        self.offsets.len().saturating_sub(1) as u64
    }

    /// Number of scheduled (non-null) injections.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if no injections are scheduled.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// One word that fell off an array edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Emission {
    /// The pulse at which the producing boundary cell computed the word.
    pub pulse: u64,
    /// Column (north/south edges) or row (east edge) the word exited from.
    pub lane: usize,
    /// The word itself (never `Word::Null`; idle wires are not recorded).
    pub word: Word,
}

/// Records every non-null word leaving one edge of the grid.
#[derive(Debug, Default, Clone)]
pub struct Collector {
    emissions: Vec<Emission>,
}

impl Collector {
    /// Record a word if it is present.
    pub fn collect(&mut self, pulse: u64, lane: usize, word: Word) {
        if word.is_present() {
            self.emissions.push(Emission { pulse, lane, word });
        }
    }

    /// All recorded emissions in pulse order (the grid emits in pulse order).
    pub fn emissions(&self) -> &[Emission] {
        &self.emissions
    }

    /// Consume the collector, returning the recorded emissions.
    pub fn into_emissions(self) -> Vec<Emission> {
        self.emissions
    }

    /// Look up the word emitted from `lane` at `pulse`, if any.
    pub fn at(&self, pulse: u64, lane: usize) -> Option<Word> {
        self.emissions
            .iter()
            .find(|e| e.pulse == pulse && e.lane == lane)
            .map(|e| e.word)
    }

    /// Number of recorded emissions.
    pub fn len(&self) -> usize {
        self.emissions.len()
    }

    /// `true` if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.emissions.is_empty()
    }

    /// Drop all recorded emissions (for array reuse).
    pub fn clear(&mut self) {
        self.emissions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(f: &ScheduleFeeder, pulse: u64) -> Vec<(usize, Word)> {
        f.at(pulse).to_vec()
    }

    #[test]
    fn schedule_feeder_returns_scheduled_words_and_nothing_otherwise() {
        let f = ScheduleFeeder::from_entries([(0, 0, Word::Elem(5)), (2, 1, Word::Bool(true))]);
        assert_eq!(slots(&f, 0), &[(0, Word::Elem(5))]);
        assert_eq!(slots(&f, 1), []);
        assert_eq!(slots(&f, 2), &[(1, Word::Bool(true))]);
        assert_eq!(slots(&f, 3), []);
        assert_eq!(slots(&f, u64::MAX), []);
        assert_eq!(f.horizon(), 3);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn out_of_order_pushes_come_back_lane_ascending() {
        let f = ScheduleFeeder::from_entries([
            (4, 3, Word::Elem(30)),
            (1, 0, Word::Elem(0)),
            (4, 0, Word::Elem(0)),
            (4, 7, Word::Bool(false)),
            (4, 1, Word::Drain),
            (4, 3, Word::Elem(30)),
        ]);
        assert_eq!(
            slots(&f, 4),
            &[
                (0, Word::Elem(0)),
                (1, Word::Drain),
                (3, Word::Elem(30)),
                (7, Word::Bool(false)),
            ]
        );
        assert_eq!(slots(&f, 1), &[(0, Word::Elem(0))]);
        assert_eq!(f.len(), 5);
    }

    #[test]
    fn descending_lanes_come_back_ascending() {
        let f = ScheduleFeeder::from_entries(
            (0..5).rev().map(|lane| (2, lane, Word::Elem(lane as i64))),
        );
        let lanes: Vec<usize> = f.at(2).iter().map(|&(lane, _)| lane).collect();
        assert_eq!(lanes, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn horizon_is_one_past_the_last_injection() {
        assert_eq!(ScheduleFeeder::new().horizon(), 0);
        assert_eq!(
            ScheduleFeeder::from_entries([(0, 2, Word::Elem(1))]).horizon(),
            1
        );
        // An earlier entry never lowers it, wherever it comes in the list.
        let f = ScheduleFeeder::from_entries([
            (0, 2, Word::Elem(1)),
            (10_000, 0, Word::Elem(2)),
            (5, 0, Word::Elem(3)),
        ]);
        assert_eq!(f.horizon(), 10_001);
        assert_eq!(slots(&f, 10_000), &[(0, Word::Elem(2))]);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn a_long_schedule_is_two_flat_buffers() {
        // Nothing is allocated per pulse: 10 001 pulses are one offset per
        // pulse in one buffer and one slot per injection in another.
        let f = ScheduleFeeder::from_entries([(10_000, 1, Word::Elem(2)), (3, 0, Word::Elem(1))]);
        assert_eq!(f.offsets.len(), 10_002);
        assert_eq!(f.slots.len(), 2);
        assert!(f.slots.capacity() <= 2);
        assert!((4..10_000).all(|p| f.at(p).is_empty()));
    }

    #[test]
    fn schedule_feeder_ignores_null_pushes() {
        let f = ScheduleFeeder::from_entries([(4, 0, Word::Null)]);
        assert!(f.is_empty());
        assert_eq!(f.horizon(), 0);
    }

    #[test]
    fn idempotent_double_push_is_allowed() {
        let f = ScheduleFeeder::from_entries([(1, 1, Word::Elem(9)), (1, 1, Word::Elem(9))]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    #[should_panic(expected = "feeder slot collision")]
    fn conflicting_double_push_panics() {
        ScheduleFeeder::from_entries([(1, 1, Word::Elem(9)), (1, 1, Word::Elem(8))]);
    }

    #[test]
    fn collector_skips_null_and_keeps_order() {
        let mut c = Collector::default();
        c.collect(0, 0, Word::Null);
        c.collect(1, 0, Word::Bool(true));
        c.collect(2, 1, Word::Elem(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.at(1, 0), Some(Word::Bool(true)));
        assert_eq!(c.at(1, 1), None);
        assert_eq!(c.emissions()[1].word, Word::Elem(3));
    }

    #[test]
    fn empty_feeder_is_always_quiet() {
        let f = ScheduleFeeder::new();
        assert_eq!(slots(&f, 123), []);
        assert_eq!(f.horizon(), 0);
        assert!(f.is_empty());
    }
}
