//! Fabric-level conservation laws, property-tested: a synchronous grid of
//! pass-through cells neither loses, duplicates, reorders nor corrupts
//! words — the physical plausibility conditions every array built on the
//! fabric inherits. The last property pins `Grid` to the reference stepper
//! below, pulse by pulse.

use proptest::prelude::*;

use systolic_fabric::{Cell, CellIo, Grid, NotQuiescent, ScheduleFeeder, Word};

/// Pure wire cell: forwards every stream one hop.
struct Wire;
impl Cell for Wire {
    fn pulse(&mut self, io: &mut CellIo) {
        io.pass_through();
        io.t_out = io.t_in;
    }
}

/// An injection plan: (pulse, lane, value) triples with unique slots.
fn injections(
    max_pulse: u64,
    lanes: usize,
    max_count: usize,
) -> impl Strategy<Value = Vec<(u64, usize, i64)>> {
    prop::collection::btree_map((0..max_pulse, 0..lanes), -100i64..100, 0..=max_count)
        .prop_map(|m| m.into_iter().map(|((p, l), v)| (p, l, v)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn southbound_words_are_conserved_in_order_and_value(
        rows in 1usize..6,
        cols in 1usize..5,
        inj in injections(12, 4, 10),
    ) {
        let inj: Vec<_> = inj.into_iter().filter(|(_, l, _)| *l < cols).collect();
        let mut grid: Grid<Wire> = Grid::new(rows, cols, |_, _| Wire);
        grid.set_north_feeder(ScheduleFeeder::from_entries(
            inj.iter().map(|&(p, l, v)| (p, l, Word::Elem(v))),
        ));
        grid.run_until_quiescent(200).unwrap();
        let out = grid.south_emissions().emissions();
        // Every word exits exactly once, delayed by exactly `rows - 1`
        // pulses, on its own lane, unchanged.
        prop_assert_eq!(out.len(), inj.len());
        for &(p, l, v) in &inj {
            let hit = out
                .iter()
                .find(|e| e.lane == l && e.pulse == p + rows as u64 - 1)
                .expect("word must exit");
            prop_assert_eq!(hit.word, Word::Elem(v));
        }
    }

    #[test]
    fn northbound_and_eastbound_words_are_conserved(
        rows in 1usize..5,
        cols in 1usize..5,
        b_inj in injections(10, 4, 8),
        t_inj in injections(10, 4, 8),
    ) {
        let b_inj: Vec<_> = b_inj.into_iter().filter(|(_, l, _)| *l < cols).collect();
        let t_inj: Vec<_> = t_inj.into_iter().filter(|(_, l, _)| *l < rows).collect();
        let mut grid: Grid<Wire> = Grid::new(rows, cols, |_, _| Wire);
        grid.set_south_feeder(ScheduleFeeder::from_entries(
            b_inj.iter().map(|&(p, l, v)| (p, l, Word::Elem(v))),
        ));
        grid.set_west_feeder(ScheduleFeeder::from_entries(
            t_inj.iter().map(|&(p, l, v)| (p, l, Word::Bool(v % 2 == 0))),
        ));
        grid.run_until_quiescent(200).unwrap();
        prop_assert_eq!(grid.north_emissions().len(), b_inj.len());
        prop_assert_eq!(grid.east_emissions().len(), t_inj.len());
        for &(p, l, v) in &b_inj {
            prop_assert_eq!(
                grid.north_emissions().at(p + rows as u64 - 1, l),
                Some(Word::Elem(v))
            );
        }
        for &(p, l, v) in &t_inj {
            prop_assert_eq!(
                grid.east_emissions().at(p + cols as u64 - 1, l),
                Some(Word::Bool(v % 2 == 0))
            );
        }
    }

    #[test]
    fn utilisation_equals_word_count_times_path_length(
        rows in 1usize..5,
        inj in injections(8, 1, 6),
    ) {
        // In a single-column wire grid, each southbound word makes a cell
        // busy once per row it crosses.
        let mut grid: Grid<Wire> = Grid::new(rows, 1, |_, _| Wire);
        grid.set_north_feeder(ScheduleFeeder::from_entries(
            inj.iter().map(|&(p, _, v)| (p, 0, Word::Elem(v))),
        ));
        grid.run_until_quiescent(200).unwrap();
        prop_assert_eq!(
            grid.stats().busy_cell_pulses,
            (inj.len() * rows) as u64
        );
    }

    #[test]
    fn reset_restores_a_pristine_grid(
        rows in 1usize..4,
        cols in 1usize..4,
        inj in injections(6, 3, 5),
    ) {
        let inj: Vec<_> = inj.into_iter().filter(|(_, l, _)| *l < cols).collect();
        let feeder = || ScheduleFeeder::from_entries(
            inj.iter().map(|&(p, l, v)| (p, l, Word::Elem(v))),
        );
        let mut grid: Grid<Wire> = Grid::new(rows, cols, |_, _| Wire);
        grid.set_north_feeder(feeder());
        grid.run_until_quiescent(100).unwrap();
        let first: Vec<_> = grid.south_emissions().emissions().to_vec();
        grid.reset();
        grid.set_north_feeder(feeder());
        grid.run_until_quiescent(100).unwrap();
        prop_assert_eq!(grid.south_emissions().emissions(), first.as_slice());
    }
}

/// The grid stepper as it was before schedules were bucketed by pulse and
/// latches consumed: a `HashMap` feeder queried once per lane per pulse,
/// three whole next-planes cleared every pulse and a quiescence test that
/// scans every plane. Kept verbatim as the reference `Grid` must match.
mod reference {
    use std::collections::HashMap;

    use systolic_fabric::trace::{TraceFrame, Tracer};
    use systolic_fabric::{Cell, CellIo, Collector, GridStats, NotQuiescent, Word};

    /// `(pulse, lane) -> Word`, as `ScheduleFeeder` used to store it.
    #[derive(Default)]
    pub struct Feeder {
        entries: HashMap<(u64, usize), Word>,
        horizon: u64,
    }

    impl Feeder {
        pub fn from_entries(entries: impl IntoIterator<Item = (u64, usize, Word)>) -> Self {
            let mut f = Self::default();
            for (pulse, lane, word) in entries {
                f.push(pulse, lane, word);
            }
            f
        }

        fn push(&mut self, pulse: u64, lane: usize, word: Word) {
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

    pub struct Grid<C: Cell> {
        rows: usize,
        cols: usize,
        cells: Vec<C>,
        a: Vec<Word>,
        b: Vec<Word>,
        t: Vec<Word>,
        a_next: Vec<Word>,
        b_next: Vec<Word>,
        t_next: Vec<Word>,
        pub pulse: u64,
        pub stats: GridStats,
        north: Feeder,
        south: Feeder,
        west: Feeder,
        pub east_out: Collector,
        pub south_out: Collector,
        pub north_out: Collector,
        tracer: Option<Tracer>,
    }

    impl<C: Cell> Grid<C> {
        pub fn new(
            rows: usize,
            cols: usize,
            mut make: impl FnMut(usize, usize) -> C,
            [north, south, west]: [Feeder; 3],
            tracing: bool,
        ) -> Self {
            let mut cells = Vec::with_capacity(rows * cols);
            for r in 0..rows {
                for c in 0..cols {
                    cells.push(make(r, c));
                }
            }
            let n = rows * cols;
            Grid {
                rows,
                cols,
                cells,
                a: vec![Word::Null; n],
                b: vec![Word::Null; n],
                t: vec![Word::Null; n],
                a_next: vec![Word::Null; n],
                b_next: vec![Word::Null; n],
                t_next: vec![Word::Null; n],
                pulse: 0,
                stats: GridStats::default(),
                north,
                south,
                west,
                east_out: Collector::default(),
                south_out: Collector::default(),
                north_out: Collector::default(),
                tracer: tracing.then(Tracer::default),
            }
        }

        pub fn trace_frames(&self) -> &[TraceFrame] {
            self.tracer.as_ref().map(|t| t.frames()).unwrap_or(&[])
        }

        pub fn step(&mut self) {
            let pulse = self.pulse;
            // Boundary injection: feeders write directly into the input latches
            // of the edge cells for this pulse.
            for c in 0..self.cols {
                let w = self.north.feed(pulse, c);
                if w.is_present() {
                    self.a[c] = w;
                }
                let w = self.south.feed(pulse, c);
                if w.is_present() {
                    self.b[(self.rows - 1) * self.cols + c] = w;
                }
            }
            for r in 0..self.rows {
                let w = self.west.feed(pulse, r);
                if w.is_present() {
                    self.t[r * self.cols] = w;
                }
            }

            if let Some(tracer) = &mut self.tracer {
                tracer.snapshot(pulse, self.rows, self.cols, &self.a, &self.b, &self.t);
            }

            for slot in self.a_next.iter_mut() {
                *slot = Word::Null;
            }
            for slot in self.b_next.iter_mut() {
                *slot = Word::Null;
            }
            for slot in self.t_next.iter_mut() {
                *slot = Word::Null;
            }

            let mut busy = 0u64;
            for r in 0..self.rows {
                for c in 0..self.cols {
                    let idx = r * self.cols + c;
                    let mut io = CellIo::with_inputs(self.a[idx], self.b[idx], self.t[idx]);
                    if io.any_input() {
                        busy += 1;
                    }
                    self.cells[idx].pulse(&mut io);
                    if r + 1 < self.rows {
                        self.a_next[(r + 1) * self.cols + c] = io.a_out;
                    } else {
                        self.south_out.collect(pulse, c, io.a_out);
                    }
                    if r > 0 {
                        self.b_next[(r - 1) * self.cols + c] = io.b_out;
                    } else {
                        self.north_out.collect(pulse, c, io.b_out);
                    }
                    if c + 1 < self.cols {
                        self.t_next[r * self.cols + c + 1] = io.t_out;
                    } else {
                        self.east_out.collect(pulse, r, io.t_out);
                    }
                }
            }

            std::mem::swap(&mut self.a, &mut self.a_next);
            std::mem::swap(&mut self.b, &mut self.b_next);
            std::mem::swap(&mut self.t, &mut self.t_next);

            self.stats.pulses += 1;
            self.stats.busy_cell_pulses += busy;
            self.stats.total_cell_pulses += (self.rows * self.cols) as u64;
            self.pulse += 1;
        }

        pub fn is_quiescent(&self) -> bool {
            let feeders_done = self.north.horizon() <= self.pulse
                && self.south.horizon() <= self.pulse
                && self.west.horizon() <= self.pulse;
            feeders_done
                && self.a.iter().all(|w| !w.is_present())
                && self.b.iter().all(|w| !w.is_present())
                && self.t.iter().all(|w| !w.is_present())
        }

        pub fn run_until_quiescent(&mut self, max_pulses: u64) -> Result<(), NotQuiescent> {
            while !self.is_quiescent() {
                if self.pulse >= max_pulses {
                    return Err(NotQuiescent { max_pulses });
                }
                self.step();
            }
            Ok(())
        }
    }
}

/// The three cell behaviours the stepper must treat alike: a wire, a cell
/// whose outputs depend on what it saw earlier, and a cell that, once it
/// has seen any input, emits forever.
#[derive(Debug, Clone, Copy)]
enum Mixed {
    Wire,
    Stateful(i64),
    Runaway(bool),
}

impl Cell for Mixed {
    fn pulse(&mut self, io: &mut CellIo) {
        io.pass_through();
        io.t_out = io.t_in;
        match self {
            Mixed::Wire => {}
            Mixed::Stateful(seen) => {
                if let Word::Elem(e) = io.a_in {
                    *seen = e;
                }
                io.t_out = match (io.t_in, io.b_in) {
                    (Word::Bool(t), Word::Elem(b)) => Word::Bool(t && b == *seen),
                    (Word::Drain, _) => Word::Elem(*seen),
                    (t, _) => t,
                };
            }
            Mixed::Runaway(armed) => {
                *armed |= io.any_input();
                if *armed {
                    io.t_out = Word::Drain;
                }
            }
        }
    }

    fn reset(&mut self) {
        match self {
            Mixed::Wire => {}
            Mixed::Stateful(seen) => *seen = 0,
            Mixed::Runaway(armed) => *armed = false,
        }
    }
}

/// Every `Word` variant, `Null` included (a feeder drops it).
fn word() -> impl Strategy<Value = Word> {
    prop_oneof![
        Just(Word::Null),
        Just(Word::Drain),
        any::<bool>().prop_map(Word::Bool),
        (-3i64..3).prop_map(Word::Elem),
    ]
}

/// One edge's schedule: unique `(pulse, lane)` slots, some pushed twice
/// with the identical word. Lanes run past the largest grid edge, which the
/// grid must never read. Half the schedules run past pulse 24, three times
/// the longest edge, so every ring of the grid wraps several times.
fn schedule() -> impl Strategy<Value = Vec<(u64, usize, Word)>> {
    let within = |horizon: u64| {
        (
            prop::collection::btree_map((0..horizon, 0usize..8), word(), 0..=16),
            prop::collection::vec(0usize..16, 0..4),
        )
            .prop_map(|(slots, again)| {
                let mut entries: Vec<_> = slots.into_iter().map(|((p, l), w)| (p, l, w)).collect();
                let repeats: Vec<_> = again
                    .iter()
                    .filter_map(|&k| entries.get(k).copied())
                    .collect();
                entries.extend(repeats);
                entries
            })
    };
    prop_oneof![within(14), within(40)]
}

/// Grid shapes up to 6×6, plus single rows and single columns up to 8
/// long, in which the `a`/`b` rings or the `t` rings have one slot.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        (1usize..=6, 1usize..=6),
        (1usize..=1, 1usize..=8),
        (1usize..=8, 1usize..=1),
    ]
}

type Schedules = [Vec<(u64, usize, Word)>; 3];

/// Install `schedules` on `grid`, step it beside a fresh reference grid up
/// to `budget` and check that the two agree on everything observable.
fn matches_fresh_reference(
    grid: &mut Grid<Mixed>,
    make: impl Fn(usize, usize) -> Mixed,
    [north, south, west]: Schedules,
    tracing: bool,
    budget: u64,
) -> TestCaseResult {
    grid.set_north_feeder(ScheduleFeeder::from_entries(north.clone()));
    grid.set_south_feeder(ScheduleFeeder::from_entries(south.clone()));
    grid.set_west_feeder(ScheduleFeeder::from_entries(west.clone()));
    let feeders = [north, south, west].map(reference::Feeder::from_entries);
    let (rows, cols) = (grid.rows(), grid.cols());
    let mut reference = reference::Grid::new(rows, cols, make, feeders, tracing);

    // Step both by hand, comparing quiescence before every pulse...
    loop {
        prop_assert_eq!(grid.is_quiescent(), reference.is_quiescent());
        if grid.is_quiescent() || grid.pulse() >= budget {
            break;
        }
        grid.step();
        reference.step();
    }
    // ...then both steppers must agree on the budget's verdict.
    let verdict = grid.run_until_quiescent(budget);
    prop_assert_eq!(verdict.clone(), reference.run_until_quiescent(budget));
    prop_assert_eq!(
        verdict.is_err(),
        grid.pulse() >= budget && !grid.is_quiescent()
    );
    if let Err(NotQuiescent { max_pulses }) = verdict {
        prop_assert_eq!(max_pulses, budget);
    }

    prop_assert_eq!(grid.pulse(), reference.pulse);
    prop_assert_eq!(grid.stats(), reference.stats);
    prop_assert_eq!(
        grid.north_emissions().emissions(),
        reference.north_out.emissions()
    );
    prop_assert_eq!(
        grid.south_emissions().emissions(),
        reference.south_out.emissions()
    );
    prop_assert_eq!(
        grid.east_emissions().emissions(),
        reference.east_out.emissions()
    );
    prop_assert_eq!(grid.trace_frames(), reference.trace_frames());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn grid_steps_exactly_like_the_reference_stepper(
        shape in shape(),
        kinds in prop::collection::vec(0u8..10, 64),
        first in (schedule(), schedule(), schedule(), 0u64..64),
        second in (schedule(), schedule(), schedule(), 0u64..64),
        tracing in any::<bool>(),
    ) {
        let (rows, cols) = shape;
        let make = |r: usize, c: usize| match kinds[r * cols + c] {
            0..=4 => Mixed::Wire,
            5..=8 => Mixed::Stateful(0),
            _ => Mixed::Runaway(false),
        };
        let mut grid: Grid<Mixed> = Grid::new(rows, cols, make);
        if tracing {
            grid.enable_tracing();
        }
        let (north, south, west, budget) = first;
        matches_fresh_reference(&mut grid, make, [north, south, west], tracing, budget)?;
        // The budget's verdict may leave words in flight and the rings
        // turned part-way: reused after `reset`, the grid must step like a
        // new one.
        grid.reset();
        let (north, south, west, budget) = second;
        matches_fresh_reference(&mut grid, make, [north, south, west], tracing, budget)?;
    }
}

/// `entries` reordered by `keys` (one key per entry, ties kept in order).
fn permuted<T: Clone>(entries: &[T], keys: &[u32]) -> Vec<T> {
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&k| keys[k % keys.len()]);
    order.into_iter().map(|k| entries[k].clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn feeder_table_is_the_same_whatever_order_entries_come_in(
        entries in schedule(),
        keys in prop::collection::vec(any::<u32>(), 1..40),
        clash in (0usize..16, -3i64..3),
    ) {
        // What the table must hold: one word per (pulse, lane), nulls dropped.
        let expect: std::collections::BTreeMap<(u64, usize), Word> = entries
            .iter()
            .filter(|&&(_, _, w)| w.is_present())
            .map(|&(p, l, w)| ((p, l), w))
            .collect();
        let horizon = expect.keys().map(|&(p, _)| p + 1).max().unwrap_or(0);
        let forward = ScheduleFeeder::from_entries(entries.clone());
        let shuffled = ScheduleFeeder::from_entries(permuted(&entries, &keys));
        for f in [&forward, &shuffled] {
            prop_assert_eq!(f.horizon(), horizon);
            prop_assert_eq!(f.len(), expect.len());
            for p in 0..horizon + 2 {
                let want: Vec<(usize, Word)> = expect
                    .range((p, 0)..(p + 1, 0))
                    .map(|(&(_, l), &w)| (l, w))
                    .collect();
                prop_assert_eq!(f.at(p), want.as_slice());
            }
        }

        // A different word on a slot already taken is refused loudly.
        let present: Vec<_> = expect.iter().collect();
        if !present.is_empty() {
            let (&(p, l), &w) = present[clash.0 % present.len()];
            let other = if w == Word::Elem(clash.1) { Word::Drain } else { Word::Elem(clash.1) };
            let mut clashing = permuted(&entries, &keys);
            clashing.insert(clash.0 % (clashing.len() + 1), (p, l, other));
            let panic = std::panic::catch_unwind(|| ScheduleFeeder::from_entries(clashing))
                .expect_err("a clash must panic");
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            prop_assert!(message.contains("feeder slot collision"), "{}", message);
        }
    }
}
