//! The §3 comparison array, stepped a column at a time over packed wires.
//!
//! Every array the machine serves except selection is the comparison array
//! of §3.2: an `rows x m` grid of identical Figure 3-2 processors,
//! `t_OUT = t_IN AND (a_IN op b_IN)`, with `a` and `b` passed through. A
//! [`crate::Grid`] of such cells would match and rewrite three [`Word`]s per
//! cell-pulse although two of them only pass through, and a cell only
//! computes where an `a` word meets a `b` word. [`CompareGrid`] keeps each
//! wire as `u64` planes, one bit per row:
//!
//! * per column, which rows hold an `a` word and which a `b` word. These
//!   bits are kept by row, so `a` shifts one bit south and `b` one bit
//!   north each pulse; the elements themselves stand still in the stream
//!   frames of [`crate::grid`] (`a` row `r` at ring slot
//!   `(r - pulse) mod rows`, `b` at `(r + pulse) mod rows`);
//! * per `t` ring slot (column `c` at `(c - pulse) mod cols`), which rows
//!   carry a verdict and which of those are TRUE.
//!
//! A pulse is then one sweep over the columns, each a few word operations
//! over its planes plus one element comparison per row where `a` and `b`
//! meet (the set bits of `a_on & b_on`), the `a` and `b` planes moving a
//! row on in the same sweep; busy cells are a popcount. Planes span several
//! words when `rows > 64`.
//!
//! The grid holds no schedule. Its boundary is a [`CompareFeed`], passed to
//! every [`CompareGrid::step`]: each pulse the feed puts elements on the
//! north and south lanes and seeds on the west rows, and is handed the
//! whole east column of verdicts as an [`EastEdge`], from which it takes
//! the rows its schedule names. A typed feed cannot offer a word the lanes
//! cannot carry, and a second word put into an occupied slot is refused (a
//! panic: two data items on one wire is a schedule bug). The operator front
//! ends compute each pulse's words from the closed-form schedule
//! (`systolic_core::tiling`), so no table of injections or verdicts is ever
//! built.
//!
//! Pulses, busy and total cell-pulses, quiescence, [`NotQuiescent`] and trace
//! frames are exactly those of a `Grid` of comparison cells whose feeders
//! hold the same words.

use crate::grid::{GridStats, NotQuiescent};
use crate::trace::{TraceFrame, Tracer};
use crate::word::{CompareOp, Elem, Word};

/// The boundary of a [`CompareGrid`]: what enters its north, south and west
/// edges each pulse, and where its east verdicts go.
///
/// The grid asks for pulses in ascending order, one call per edge per
/// pulse, and hands over the east edge after the pulse's comparisons.
pub trait CompareFeed {
    /// One past the last pulse at which the feed puts anything (0 if it
    /// never does): the grid is quiescent only from here on.
    fn horizon(&self) -> u64;

    /// Put the elements of `A` entering the north edge at `pulse`, as
    /// `put(column, element)`.
    fn north(&mut self, pulse: u64, put: impl FnMut(usize, Elem));

    /// Put the elements of `B` entering the south edge at `pulse`, as
    /// `put(column, element)`.
    fn south(&mut self, pulse: u64, put: impl FnMut(usize, Elem));

    /// Put the initial `t` values entering the west edge at `pulse` on
    /// `seeds`.
    fn west(&mut self, pulse: u64, seeds: &mut WestEdge<'_>);

    /// Take the verdicts computed by the last column at `pulse`. Called
    /// only at pulses at which at least one verdict leaves; whatever the
    /// feed does not take leaves the array all the same.
    fn east(&mut self, pulse: u64, verdicts: &mut EastEdge<'_>);
}

/// The seeds entering the west edge in one pulse: one presence bit and one
/// value bit per row, put a row or a word of rows at a time.
pub struct WestEdge<'g> {
    rows: usize,
    pulse: u64,
    on: &'g mut [u64],
    val: &'g mut [u64],
}

impl<'g> WestEdge<'g> {
    /// The west edge of a `rows`-row array at `pulse`, whose seeds land in
    /// the planes `on` (rows carrying a seed) and `val` (TRUE seeds), one
    /// bit per row.
    ///
    /// # Panics
    /// Panics if the planes are not `rows.div_ceil(64)` words long.
    #[inline]
    pub fn new(rows: usize, pulse: u64, on: &'g mut [u64], val: &'g mut [u64]) -> Self {
        let words = rows.div_ceil(64);
        assert!(
            on.len() == words && val.len() == words,
            "planes of {rows} rows"
        );
        WestEdge {
            rows,
            pulse,
            on,
            val,
        }
    }

    /// Put `seed` on `row`.
    ///
    /// # Panics
    /// Panics if `row` is off the array or already carries a seed.
    #[inline]
    pub fn put(&mut self, row: usize, seed: bool) {
        let row = lane("west", row, self.rows);
        let bit = 1 << (row % 64);
        self.put_word(row / 64, bit, bit * u64::from(seed));
    }

    /// Put a seed on row `64 * word + k` for each set bit `k` of `rows`,
    /// TRUE where `seeds` has the bit set too.
    ///
    /// # Panics
    /// Panics if a row is off the array or already carries a seed.
    #[inline]
    pub fn put_word(&mut self, word: usize, rows: u64, seeds: u64) {
        let on_array = match self.rows.saturating_sub(64 * word) {
            n if n >= 64 => u64::MAX,
            n => (1 << n) - 1,
        };
        if rows & !on_array != 0 {
            let first = 64 * word + (rows & !on_array).trailing_zeros() as usize;
            lane("west", first, self.rows);
        }
        let pulse = self.pulse;
        assert!(
            self.on[word] & rows == 0,
            "slot collision at pulse {pulse} on the west edge"
        );
        self.on[word] |= rows;
        self.val[word] |= seeds & rows;
    }
}

/// The verdicts leaving the east edge in one pulse: one presence bit and
/// one value bit per row.
pub struct EastEdge<'g> {
    on: &'g mut [u64],
    val: &'g [u64],
}

impl EastEdge<'_> {
    /// Take the verdicts leaving from row `64 * word + k` for each set bit
    /// `k` of `rows`: the rows that had one not yet taken, and which of
    /// those are TRUE, as bits of the same word.
    #[inline]
    pub fn take_word(&mut self, word: usize, rows: u64) -> (u64, u64) {
        let Some(on) = self.on.get_mut(word) else {
            return (0, 0);
        };
        let taken = *on & rows;
        *on &= !rows;
        (taken, self.val[word] & taken)
    }

    /// The verdicts not taken yet.
    #[inline]
    pub fn len(&self) -> usize {
        self.on.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if every verdict has been taken.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.on.iter().all(|&w| w == 0)
    }

    /// The verdicts not taken yet as `(row, verdict)`, row-ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        ones(self.on).map(|r| (r, self.val[r / 64] & (1 << (r % 64)) != 0))
    }
}

/// The set bits of `plane`, ascending.
fn ones(plane: &[u64]) -> impl Iterator<Item = usize> + '_ {
    plane.iter().enumerate().flat_map(|(k, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                64 * k + bit
            })
        })
    })
}

/// The §3.2 comparison array: `rows x ops.len()` Figure 3-2 processors,
/// column `c` applying `ops[c]`.
pub struct CompareGrid {
    rows: usize,
    /// `u64` words per plane: one bit per row.
    words: usize,
    ops: Vec<CompareOp>,
    /// Slots per column on the element rings: each ring of `rows` slots
    /// stored twice over, so that a column's rows are one unbroken run, and
    /// a word's worth of padding, so that every plane word's 64 rows are.
    span: usize,
    /// Southbound elements: row `r` of column `c` reads
    /// `span * c + a0 + r`, `a0 = (-pulse) mod rows`.
    a: Vec<Elem>,
    /// Per column, the rows holding an `a` word and then the rows holding
    /// a `b` word: `2 * words` per column.
    on: Vec<u64>,
    /// Northbound elements: row `r` of column `c` reads `span * c + b0 + r`,
    /// `b0 = pulse mod rows`.
    b: Vec<Elem>,
    /// Per `t` ring slot, the rows carrying a verdict and then which of
    /// those verdicts are TRUE (never a row that carries none): `2 * words`
    /// per slot. Column `c` reads slot `(c - pulse) mod cols`.
    t: Vec<u64>,
    /// `true` while no wire carries a word between pulses.
    idle: bool,
    pulse: u64,
    /// This pulse's ring slots of row 0 on the `a` and `b` rings and of
    /// column 0 on the `t` ring.
    ring: Ring,
    stats: GridStats,
    tracer: Option<Tracer>,
}

impl CompareGrid {
    /// A `rows x ops.len()` comparison array.
    ///
    /// # Panics
    /// Panics if `rows` is zero or `ops` is empty.
    pub fn new(rows: usize, ops: &[CompareOp]) -> Self {
        assert!(
            rows > 0 && !ops.is_empty(),
            "grid must have at least one cell"
        );
        let (cols, words) = (ops.len(), rows.div_ceil(64));
        let span = 2 * rows + 64;
        CompareGrid {
            rows,
            words,
            ops: ops.to_vec(),
            span,
            a: vec![0; span * cols],
            b: vec![0; span * cols],
            on: vec![0; 2 * words * cols],
            t: vec![0; 2 * words * cols],
            idle: true,
            pulse: 0,
            ring: Ring::default(),
            stats: GridStats::default(),
            tracer: None,
        }
    }

    /// Rows in the grid.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns in the grid.
    pub fn cols(&self) -> usize {
        self.ops.len()
    }

    /// Number of processors (`rows x cols`).
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols()
    }

    /// The current pulse counter (pulses executed so far).
    pub fn pulse(&self) -> u64 {
        self.pulse
    }

    /// Utilisation statistics accumulated so far.
    pub fn stats(&self) -> GridStats {
        self.stats
    }

    /// Record per-pulse wire snapshots for rendering (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(Tracer::default());
    }

    /// The recorded trace frames, if tracing was enabled.
    pub fn trace_frames(&self) -> &[TraceFrame] {
        self.tracer.as_ref().map(|t| t.frames()).unwrap_or(&[])
    }

    /// Take the recorded trace frames out of the grid (none if tracing was
    /// not enabled); recording stops.
    pub fn take_trace_frames(&mut self) -> Vec<TraceFrame> {
        self.tracer
            .take()
            .map(Tracer::into_frames)
            .unwrap_or_default()
    }

    /// Execute one pulse: inject what `feed` puts at this pulse, then in one
    /// sweep over the columns compare and move the `a` and `b` planes a row
    /// on (the south row's `a` words and the north row's `b` words leave),
    /// and hand the east column's verdicts to `feed`.
    ///
    /// # Panics
    /// Panics if `feed` puts a word on a lane the edge does not have, or a
    /// second word on one lane in one pulse.
    pub fn step(&mut self, feed: &mut impl CompareFeed) {
        let pulse = self.pulse;
        let (rows, cols, words, span) = (self.rows, self.cols(), self.words, self.span);
        let Ring { a0, b0, t0 } = self.ring;

        // Injection into the rows the last pulse's shift left idle: a row
        // found occupied was filled earlier in this same pulse.
        let (a, on) = (&mut self.a[..], &mut self.on[..]);
        feed.north(pulse, |c, e| {
            let c = lane("north", c, cols);
            Bit::of(0).latch(&mut on[2 * words * c..], pulse, "north");
            a[c * span + a0] = e;
            a[c * span + a0 + rows] = e;
        });
        let south = Bit::of(rows - 1);
        let b_south = back(b0, rows);
        let (b, on) = (&mut self.b[..], &mut self.on[..]);
        feed.south(pulse, |c, e| {
            let c = lane("south", c, cols);
            south.latch(&mut on[(2 * c + 1) * words..], pulse, "south");
            b[c * span + b_south] = e;
            b[c * span + b_south + rows] = e;
        });
        let (west_on, west_val) = self.t[2 * words * t0..][..2 * words].split_at_mut(words);
        let mut seeds = WestEdge::new(rows, pulse, west_on, west_val);
        feed.west(pulse, &mut seeds);

        if self.tracer.is_some() {
            self.snapshot();
        }

        // The row bits of the last plane word that are on the array.
        let last = match rows % 64 {
            0 => u64::MAX,
            n => (1 << n) - 1,
        };
        let (mut busy, mut held) = (0u64, 0u64);
        let mut slot = t0;
        for (c, &op) in self.ops.iter().enumerate() {
            let mut lanes = Lanes {
                a: &self.a[c * span + a0..][..64 * words],
                b: &self.b[c * span + b0..][..64 * words],
                on: &mut self.on[2 * words * c..][..2 * words],
                t: &mut self.t[2 * words * slot..][..2 * words],
                last,
            };
            let (col_busy, col_words, col_verdicts) = match op {
                CompareOp::Eq => lanes.pulse(|x, y| x == y),
                CompareOp::Ne => lanes.pulse(|x, y| x != y),
                CompareOp::Lt => lanes.pulse(|x, y| x < y),
                CompareOp::Le => lanes.pulse(|x, y| x <= y),
                CompareOp::Gt => lanes.pulse(|x, y| x > y),
                CompareOp::Ge => lanes.pulse(|x, y| x >= y),
            };
            busy += col_busy;
            held |= col_words;
            // The east column's verdicts leave this pulse; every other
            // column's stay on the array.
            if c + 1 < cols {
                held |= col_verdicts;
            }
            slot = if slot + 1 == cols { 0 } else { slot + 1 };
        }

        // `slot` has come round to the east column's ring slot.
        let east = &mut self.t[2 * words * back(slot, cols)..][..2 * words];
        let (on, val) = east.split_at_mut(words);
        if on.iter().any(|&w| w != 0) {
            feed.east(pulse, &mut EastEdge { on, val });
            east.fill(0);
        }
        self.idle = held == 0;

        self.stats.pulses += 1;
        self.stats.busy_cell_pulses += busy;
        self.stats.total_cell_pulses += (rows * cols) as u64;
        self.pulse += 1;
        self.ring = Ring {
            a0: back(a0, rows),
            b0: if b0 + 1 == rows { 0 } else { b0 + 1 },
            t0: back(t0, cols),
        };
    }

    /// Record the words entering every cell at this pulse.
    #[cold]
    #[inline(never)]
    fn snapshot(&mut self) {
        let (rows, cols, words, span) = (self.rows, self.cols(), self.words, self.span);
        let Ring { a0, b0, t0 } = self.ring;
        let on = |plane: &[u64], r: usize| plane[r / 64] & (1 << (r % 64)) != 0;
        let elem = |on: bool, e: Elem| if on { Word::Elem(e) } else { Word::Null };
        let (mut a, mut b, mut t) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..rows {
            for c in 0..cols {
                let (col, slot) = (2 * words * c, 2 * words * ((t0 + c) % cols));
                a.push(elem(on(&self.on[col..], r), self.a[c * span + a0 + r]));
                b.push(elem(
                    on(&self.on[col + words..], r),
                    self.b[c * span + b0 + r],
                ));
                t.push(match on(&self.t[slot..], r) {
                    false => Word::Null,
                    true => Word::Bool(on(&self.t[slot + words..], r)),
                });
            }
        }
        if let Some(tracer) = &mut self.tracer {
            tracer.snapshot(self.pulse, rows, cols, &a, &b, &t);
        }
    }

    /// `true` when `feed` will put nothing more and every wire is idle.
    pub fn is_quiescent(&self, feed: &impl CompareFeed) -> bool {
        feed.horizon() <= self.pulse && self.idle
    }

    /// Pulse the grid on `feed` until it drains, or fail after `max_pulses`.
    pub fn run_until_quiescent(
        &mut self,
        feed: &mut impl CompareFeed,
        max_pulses: u64,
    ) -> Result<(), NotQuiescent> {
        let before = self.stats;
        while !self.is_quiescent(feed) {
            if self.pulse >= max_pulses {
                return Err(NotQuiescent { max_pulses });
            }
            self.step(feed);
        }
        crate::counters::record_run(before, self.stats);
        Ok(())
    }
}

/// The ring slots of row 0 on the `a` and `b` rings and of column 0 on the
/// `t` ring at one pulse: `-pulse`, `pulse` and `-pulse` modulo their ring
/// sizes, kept by stepping rather than dividing.
#[derive(Clone, Copy, Default)]
struct Ring {
    a0: usize,
    b0: usize,
    t0: usize,
}

/// The ring slot before `slot` on a ring of `len` slots.
#[inline]
fn back(slot: usize, len: usize) -> usize {
    if slot == 0 {
        len - 1
    } else {
        slot - 1
    }
}

/// `lane`, checked to be one of the `edge`'s `width` lanes.
#[inline]
fn lane(edge: &str, lane: usize, width: usize) -> usize {
    assert!(
        lane < width,
        "{edge} lane {lane} is off the array ({width} lanes)"
    );
    lane
}

/// One row's bit in a plane.
#[derive(Clone, Copy)]
struct Bit {
    word: usize,
    mask: u64,
}

impl Bit {
    #[inline]
    fn of(row: usize) -> Self {
        Bit {
            word: row / 64,
            mask: 1 << (row % 64),
        }
    }

    /// Set the bit, which must be clear: a word latched into an idle slot.
    #[inline]
    fn latch(self, plane: &mut [u64], pulse: u64, edge: &str) {
        let w = &mut plane[self.word];
        assert!(
            *w & self.mask == 0,
            "slot collision at pulse {pulse} on the {edge} edge"
        );
        *w |= self.mask;
    }
}

/// One column's wires for one pulse: its elements on the `a` and `b` rings
/// from this pulse's row 0 on, a whole word of rows per plane word (rows
/// past the array read padding no plane bit selects), its `a` and `b`
/// planes, and the `t` planes of the ring slot it reads.
struct Lanes<'g> {
    a: &'g [Elem],
    b: &'g [Elem],
    /// The `a` plane, then the `b` plane.
    on: &'g mut [u64],
    /// The `t` presence plane, then the value plane.
    t: &'g mut [u64],
    /// The bits of the last plane word that are rows of the array.
    last: u64,
}

impl Lanes<'_> {
    /// Pulse the column's cells, then move its `a` plane a row south and
    /// its `b` plane a row north, dropping the words that leave. Returns
    /// the busy cells, the OR of the moved `a` and `b` planes and the OR of
    /// the new `t` planes (each zero iff no such word is left).
    #[inline(always)]
    fn pulse(&mut self, cmp: impl Fn(Elem, Elem) -> bool + Copy) -> (u64, u64, u64) {
        let words = self.on.len() / 2;
        let ((a_on, b_on), (t_on, t_val)) =
            (self.on.split_at_mut(words), self.t.split_at_mut(words));
        let (mut busy, mut elems, mut verdicts) = (0u64, 0u64, 0u64);
        let (mut carry, mut y_on) = (0u64, b_on[0]);
        for k in 0..words {
            let (x_on, on, val) = (a_on[k], t_on[k], t_val[k]);
            busy += u64::from((x_on | y_on | on).count_ones());
            // Figure 3-2: where both elements meet, the verdict is the
            // incoming `t` (an idle wire is the TRUE seed) AND the
            // comparison; elsewhere `t` passes unchanged.
            let meet = x_on & y_on;
            let (mut rest, mut holds) = (meet, 0u64);
            let (a, b) = (&self.a[64 * k..][..64], &self.b[64 * k..][..64]);
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize & 63;
                rest &= rest - 1;
                holds |= u64::from(cmp(a[bit], b[bit])) << bit;
            }
            let verdict = on | meet;
            t_on[k] = verdict;
            t_val[k] = (val & !meet) | (holds & (!on | val));
            // Row r's `a` word moves to row r + 1 (off the south edge from
            // the last row), row r's `b` word to row r - 1.
            let (keep, y_above) = match b_on.get(k + 1) {
                Some(&above) => (u64::MAX, above),
                None => (self.last, 0),
            };
            let (x_next, y_next) = (((x_on << 1) | carry) & keep, (y_on >> 1) | (y_above << 63));
            (carry, y_on) = (x_on >> 63, y_above);
            a_on[k] = x_next;
            b_on[k] = y_next;
            elems |= x_next | y_next;
            verdicts |= verdict;
        }
        (busy, elems, verdicts)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// A feed read off short lists of `(pulse, lane, word)` entries, keeping
    /// every east verdict.
    #[derive(Default)]
    struct Script {
        north: Vec<(u64, usize, Elem)>,
        south: Vec<(u64, usize, Elem)>,
        west: Vec<(u64, usize, bool)>,
        east: Vec<(u64, usize, bool)>,
    }

    fn put_at<W: Copy>(entries: &[(u64, usize, W)], pulse: u64, mut put: impl FnMut(usize, W)) {
        for &(p, lane, w) in entries {
            if p == pulse {
                put(lane, w);
            }
        }
    }

    impl CompareFeed for Script {
        fn horizon(&self) -> u64 {
            let elems = self.north.iter().chain(&self.south).map(|&(p, _, _)| p);
            let seeds = self.west.iter().map(|&(p, _, _)| p);
            elems.chain(seeds).map(|p| p + 1).max().unwrap_or(0)
        }
        fn north(&mut self, pulse: u64, put: impl FnMut(usize, Elem)) {
            put_at(&self.north, pulse, put);
        }
        fn south(&mut self, pulse: u64, put: impl FnMut(usize, Elem)) {
            put_at(&self.south, pulse, put);
        }
        fn west(&mut self, pulse: u64, seeds: &mut WestEdge<'_>) {
            put_at(&self.west, pulse, |r, v| seeds.put(r, v));
        }
        fn east(&mut self, pulse: u64, verdicts: &mut EastEdge<'_>) {
            let left = verdicts.iter().map(|(row, verdict)| (pulse, row, verdict));
            self.east.extend(left);
        }
    }

    #[test]
    fn a_linear_array_ands_its_comparisons_east() {
        // Figure 3-1: element k of both tuples meets the running AND in
        // processor k at pulse k.
        for (b, seed, want) in [
            ([1, 2, 3], true, true),
            ([1, 9, 3], true, false),
            ([1, 2, 3], false, false),
        ] {
            let mut g = CompareGrid::new(1, &[CompareOp::Eq; 3]);
            let elems = |t: [Elem; 3]| (0..3).map(|k| (k as u64, k, t[k])).collect();
            let mut feed = Script {
                north: elems([1, 2, 3]),
                south: elems(b),
                west: vec![(0, 0, seed)],
                ..Script::default()
            };
            g.run_until_quiescent(&mut feed, 20).unwrap();
            assert_eq!(feed.east, [(2, 0, want)]);
            assert_eq!(g.pulse(), 3);
        }
    }

    #[test]
    fn an_unseeded_meeting_starts_a_verdict_and_a_lone_t_passes() {
        let mut g = CompareGrid::new(1, &[CompareOp::Lt, CompareOp::Eq]);
        let mut feed = Script {
            north: vec![(0, 0, 1)],
            south: vec![(0, 0, 2)],
            west: vec![(3, 0, false)],
            ..Script::default()
        };
        g.run_until_quiescent(&mut feed, 20).unwrap();
        // 1 < 2 with no seed is TRUE; column 1 sees no elements and passes it.
        assert_eq!(feed.east, [(1, 0, true), (4, 0, false)]);
        let s = g.stats();
        assert_eq!(
            (s.pulses, s.busy_cell_pulses, s.total_cell_pulses),
            (5, 4, 10)
        );
    }

    #[test]
    #[should_panic(expected = "slot collision at pulse 3 on the north edge")]
    fn a_second_element_into_an_occupied_slot_is_refused() {
        // Two words on one wire in one pulse is a schedule bug: the grid
        // refuses the second instead of overwriting the first.
        let mut g = CompareGrid::new(2, &[CompareOp::Eq; 2]);
        let mut feed = Script {
            north: vec![(3, 1, 7), (3, 0, 5), (3, 1, 7)],
            ..Script::default()
        };
        let _ = g.run_until_quiescent(&mut feed, 20);
    }

    #[test]
    #[should_panic(expected = "slot collision at pulse 0 on the west edge")]
    fn a_second_seed_into_an_occupied_slot_is_refused() {
        let mut g = CompareGrid::new(2, &[CompareOp::Eq]);
        let mut feed = Script {
            west: vec![(0, 1, true), (0, 1, false)],
            ..Script::default()
        };
        let _ = g.run_until_quiescent(&mut feed, 20);
    }

    #[test]
    #[should_panic(expected = "south lane 2 is off the array (2 lanes)")]
    fn a_lane_off_the_edge_is_refused() {
        let mut g = CompareGrid::new(3, &[CompareOp::Eq; 2]);
        let mut feed = Script {
            south: vec![(0, 2, 1)],
            ..Script::default()
        };
        let _ = g.run_until_quiescent(&mut feed, 20);
    }

    #[test]
    fn a_short_budget_is_not_quiescent() {
        let mut g = CompareGrid::new(3, &[CompareOp::Eq]);
        let mut feed = Script {
            north: vec![(0, 0, 1)],
            ..Script::default()
        };
        assert_eq!(
            g.run_until_quiescent(&mut feed, 2),
            Err(NotQuiescent { max_pulses: 2 })
        );
        assert_eq!(g.run_until_quiescent(&mut feed, 3), Ok(()));
        assert!(g.is_quiescent(&feed));
    }

    #[test]
    fn a_feed_still_owing_words_keeps_an_empty_grid_running() {
        // Nothing is on the wires between pulse 0 and pulse 5, but the feed
        // has not put its last word yet.
        let mut g = CompareGrid::new(1, &[CompareOp::Eq]);
        let mut feed = Script {
            west: vec![(0, 0, true), (5, 0, false)],
            ..Script::default()
        };
        g.run_until_quiescent(&mut feed, 20).unwrap();
        assert_eq!(feed.east, [(0, 0, true), (5, 0, false)]);
        assert_eq!(g.pulse(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_sized_grid_is_rejected() {
        CompareGrid::new(2, &[]);
    }
}
