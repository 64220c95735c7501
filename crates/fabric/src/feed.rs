//! Boundary schedules and collectors.
//!
//! A systolic array computes correctly only if "all of the data \[is\] in the
//! right place at the right time" (§3.1) — the inputs are *staggered* on the
//! array boundary. A [`ScheduleFeeder`] holds one edge's staggered injection
//! schedule bucketed by pulse, so the grid takes a whole pulse's injections
//! in one lane-ascending pass. Collectors record every word that falls off
//! an edge, together with the pulse and lane at which it did, so operator
//! front-ends can decode results using the same schedule arithmetic that
//! produced the inputs.

use std::collections::VecDeque;

use crate::word::Word;

/// One edge's injection schedule: the words to write into the edge cells'
/// input latches, bucketed by pulse.
///
/// `lane` is the column index for the north/south edges and the row index for
/// the west edge (nothing is ever fed from the east: `t` values flow east).
/// An empty schedule injects nothing; the `schedule` module computes the
/// staggered injection times for each array and materialises them here.
#[derive(Debug, Default, Clone)]
pub struct ScheduleFeeder {
    /// `pulses[p]` holds the `(lane, word)` injections at pulse `p`,
    /// lane-ascending; its length is the horizon. A deque, because the §3
    /// schedules push a pulse's lanes in descending order (tuple `i + 1`
    /// lands one lane lower than tuple `i`), and a deque inserts at either
    /// end without moving the rest.
    pulses: Vec<VecDeque<(usize, Word)>>,
    len: usize,
}

impl ScheduleFeeder {
    /// An empty schedule: it never injects anything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(pulse, lane, word)` triples.
    ///
    /// # Panics
    /// Panics if two entries target the same `(pulse, lane)` slot with
    /// different words — that would mean two data items collide on one wire,
    /// which is always a schedule construction bug.
    pub fn from_entries(entries: impl IntoIterator<Item = (u64, usize, Word)>) -> Self {
        let mut f = Self::new();
        for (pulse, lane, word) in entries {
            f.push(pulse, lane, word);
        }
        f
    }

    /// Add one injection. Panics on conflicting double-booking (same slot,
    /// different word); inserting the identical word twice is idempotent.
    pub fn push(&mut self, pulse: u64, lane: usize, word: Word) {
        if word == Word::Null {
            return;
        }
        let p = usize::try_from(pulse).expect("injection pulse fits in usize");
        if self.pulses.len() <= p {
            self.pulses.resize_with(p + 1, VecDeque::new);
        }
        let bucket = &mut self.pulses[p];
        match bucket.binary_search_by_key(&lane, |&(l, _)| l) {
            Ok(k) => {
                let prev = bucket[k].1;
                assert_eq!(
                    prev, word,
                    "feeder slot collision at pulse {pulse}, lane {lane}: {prev:?} vs {word:?}"
                );
            }
            Err(k) => {
                bucket.insert(k, (lane, word));
                self.len += 1;
            }
        }
    }

    /// The `(lane, word)` injections at `pulse`, lane-ascending (none when
    /// nothing is scheduled then).
    pub fn at(&self, pulse: u64) -> impl Iterator<Item = (usize, Word)> + '_ {
        usize::try_from(pulse)
            .ok()
            .and_then(|p| self.pulses.get(p))
            .into_iter()
            .flatten()
            .copied()
    }

    /// A pulse by which this schedule injects nothing more (one past its last
    /// injection; 0 when empty). Used by the grid to detect quiescence.
    pub fn horizon(&self) -> u64 {
        self.pulses.len() as u64
    }

    /// Number of scheduled (non-null) injections.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no injections are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        f.at(pulse).collect()
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
        let mut f = ScheduleFeeder::new();
        f.push(4, 3, Word::Elem(30));
        f.push(1, 0, Word::Elem(0));
        f.push(4, 0, Word::Elem(0));
        f.push(4, 7, Word::Bool(false));
        f.push(4, 1, Word::Drain);
        f.push(4, 3, Word::Elem(30));
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
    fn horizon_is_one_past_the_last_injection() {
        let mut f = ScheduleFeeder::new();
        assert_eq!(f.horizon(), 0);
        f.push(0, 2, Word::Elem(1));
        assert_eq!(f.horizon(), 1);
        f.push(10_000, 0, Word::Elem(2));
        assert_eq!(f.horizon(), 10_001);
        // An earlier push never lowers it.
        f.push(5, 0, Word::Elem(3));
        assert_eq!(f.horizon(), 10_001);
        assert_eq!(slots(&f, 10_000), &[(0, Word::Elem(2))]);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn schedule_feeder_ignores_null_pushes() {
        let mut f = ScheduleFeeder::new();
        f.push(4, 0, Word::Null);
        assert!(f.is_empty());
        assert_eq!(f.horizon(), 0);
    }

    #[test]
    fn idempotent_double_push_is_allowed() {
        let mut f = ScheduleFeeder::new();
        f.push(1, 1, Word::Elem(9));
        f.push(1, 1, Word::Elem(9));
        assert_eq!(f.len(), 1);
    }

    #[test]
    #[should_panic(expected = "feeder slot collision")]
    fn conflicting_double_push_panics() {
        let mut f = ScheduleFeeder::new();
        f.push(1, 1, Word::Elem(9));
        f.push(1, 1, Word::Elem(8));
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
