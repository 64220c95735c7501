//! Boundary feeders and collectors.
//!
//! A systolic array computes correctly only if "all of the data \[is\] in the
//! right place at the right time" (§3.1) — the inputs are *staggered* on the
//! array boundary. Feeders encode those staggered injection schedules; the
//! grid asks each boundary feeder for a word per lane per pulse. Collectors
//! record every word that falls off an edge, together with the pulse and lane
//! at which it did, so operator front-ends can decode results using the same
//! schedule arithmetic that produced the inputs.

use std::collections::HashMap;

use crate::word::Word;

/// A source of boundary input words.
///
/// `lane` is the column index for the north/south edges and the row index for
/// the west edge (nothing is ever fed from the east: `t` values flow east).
pub trait Feeder {
    /// The word to inject into `lane` at `pulse` (usually `Word::Null`).
    fn feed(&mut self, pulse: u64, lane: usize) -> Word;

    /// A pulse by which this feeder will only ever produce `Word::Null`.
    /// Used by the simulation driver to detect quiescence.
    fn horizon(&self) -> u64;
}

/// A feeder that never injects anything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullFeeder;

impl Feeder for NullFeeder {
    fn feed(&mut self, _pulse: u64, _lane: usize) -> Word {
        Word::Null
    }
    fn horizon(&self) -> u64 {
        0
    }
}

/// A feeder driven by a precomputed `(pulse, lane) -> Word` schedule.
///
/// This is the workhorse: the `schedule` module computes the staggered
/// injection times for each array and materialises them here.
#[derive(Debug, Default, Clone)]
pub struct ScheduleFeeder {
    entries: HashMap<(u64, usize), Word>,
    horizon: u64,
}

impl ScheduleFeeder {
    /// An empty schedule (equivalent to [`NullFeeder`]).
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
        if let Some(prev) = self.entries.insert((pulse, lane), word) {
            assert_eq!(
                prev, word,
                "feeder slot collision at pulse {pulse}, lane {lane}: {prev:?} vs {word:?}"
            );
        }
        self.horizon = self.horizon.max(pulse + 1);
    }

    /// Number of scheduled (non-null) injections.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no injections are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Feeder for ScheduleFeeder {
    fn feed(&mut self, pulse: u64, lane: usize) -> Word {
        self.entries
            .get(&(pulse, lane))
            .copied()
            .unwrap_or(Word::Null)
    }
    fn horizon(&self) -> u64 {
        self.horizon
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

    #[test]
    fn schedule_feeder_returns_scheduled_words_and_null_otherwise() {
        let mut f = ScheduleFeeder::from_entries([(0, 0, Word::Elem(5)), (2, 1, Word::Bool(true))]);
        assert_eq!(f.feed(0, 0), Word::Elem(5));
        assert_eq!(f.feed(0, 1), Word::Null);
        assert_eq!(f.feed(1, 0), Word::Null);
        assert_eq!(f.feed(2, 1), Word::Bool(true));
        assert_eq!(f.horizon(), 3);
        assert_eq!(f.len(), 2);
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
    fn null_feeder_is_always_quiet() {
        let mut f = NullFeeder;
        assert_eq!(f.feed(123, 45), Word::Null);
        assert_eq!(f.horizon(), 0);
    }
}
