//! `CompareGrid`, the packed comparison array every comparison operator
//! runs on, against the grid of Figure 3-2 cells it replaced: a
//! `Grid<CompareCell>` given the same feeders, stepped beside it pulse by
//! pulse. Rows, columns, per-column comparators and all three schedules are
//! random, so streams cross wherever they happen to meet. `CompareGrid`
//! reads the same tables through [`TableFeed`], the one place a
//! `ScheduleFeeder` still feeds it.

use proptest::prelude::*;

use systolic_core::comparison::CompareCell;
use systolic_fabric::{
    CompareFeed, CompareGrid, CompareOp, EastEdge, Elem, Emission, Grid, NotQuiescent,
    ScheduleFeeder, WestEdge, Word,
};

/// The reference's three feeder tables as a [`CompareFeed`], keeping every
/// east verdict as the emission the reference's collector records. Lanes
/// past the array's edges are skipped, as the reference never reads them,
/// but still count toward the horizon, as they do there.
struct TableFeed {
    north: ScheduleFeeder,
    south: ScheduleFeeder,
    west: ScheduleFeeder,
    rows: usize,
    cols: usize,
    east: Vec<Emission>,
}

/// The words `table` schedules at `pulse` on the first `width` lanes.
fn words_at(table: &ScheduleFeeder, pulse: u64, width: usize) -> &[(usize, Word)] {
    let words = table.at(pulse);
    &words[..words.partition_point(|&(lane, _)| lane < width)]
}

impl CompareFeed for TableFeed {
    fn horizon(&self) -> u64 {
        [&self.north, &self.south, &self.west]
            .iter()
            .map(|table| table.horizon())
            .max()
            .unwrap_or(0)
    }
    fn north(&mut self, pulse: u64, mut put: impl FnMut(usize, Elem)) {
        for &(c, w) in words_at(&self.north, pulse, self.cols) {
            put(c, w.as_elem().expect("north schedules carry elements"));
        }
    }
    fn south(&mut self, pulse: u64, mut put: impl FnMut(usize, Elem)) {
        for &(c, w) in words_at(&self.south, pulse, self.cols) {
            put(c, w.as_elem().expect("south schedules carry elements"));
        }
    }
    fn west(&mut self, pulse: u64, seeds: &mut WestEdge<'_>) {
        for &(r, w) in words_at(&self.west, pulse, self.rows) {
            seeds.put(r, w.as_bool().expect("west schedules carry booleans"));
        }
    }
    fn east(&mut self, pulse: u64, verdicts: &mut EastEdge<'_>) {
        self.east
            .extend(verdicts.iter().map(|(row, verdict)| Emission {
                pulse,
                lane: row,
                word: Word::Bool(verdict),
            }));
    }
}

/// A few element values, so that comparisons come out both ways.
fn elem() -> impl Strategy<Value = Word> {
    (-3i64..3).prop_map(Word::Elem)
}

fn boolean() -> impl Strategy<Value = Word> {
    any::<bool>().prop_map(Word::Bool)
}

/// One edge's schedule of `word`s: unique `(pulse, lane)` slots, some given
/// twice with the identical word, lanes past the largest edge (never read)
/// and, half the time, pulses long enough for every ring to wrap.
fn schedule<W: Strategy<Value = Word> + 'static>(
    word: fn() -> W,
) -> impl Strategy<Value = Vec<(u64, usize, Word)>> {
    let within = move |horizon: u64| {
        (
            prop::collection::btree_map((0..horizon, 0usize..8), word(), 0..=24),
            prop::collection::vec(0usize..24, 0..4),
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

/// Grid shapes up to 6×5, plus single rows and single columns up to 8 long.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        (1usize..=6, 1usize..=5),
        (1usize..=1, 1usize..=8),
        (1usize..=8, 1usize..=1),
    ]
}

type Schedules = [Vec<(u64, usize, Word)>; 3];

/// A `CompareGrid` with its table feed, and the reference grid, both fed
/// `schedules`.
fn pair(
    rows: usize,
    ops: &[CompareOp],
    [north, south, west]: &Schedules,
    tracing: bool,
) -> (CompareGrid, TableFeed, Grid<CompareCell>) {
    let mut packed = CompareGrid::new(rows, ops);
    let mut reference: Grid<CompareCell> =
        Grid::new(rows, ops.len(), |_, c| CompareCell::new(ops[c]));
    if tracing {
        packed.enable_tracing();
        reference.enable_tracing();
    }
    let feeder = |entries: &Vec<(u64, usize, Word)>| ScheduleFeeder::from_entries(entries.clone());
    let feed = TableFeed {
        north: feeder(north),
        south: feeder(south),
        west: feeder(west),
        rows,
        cols: ops.len(),
        east: Vec::new(),
    };
    reference.set_north_feeder(feeder(north));
    reference.set_south_feeder(feeder(south));
    reference.set_west_feeder(feeder(west));
    (packed, feed, reference)
}

/// Step both grids up to `budget`, comparing everything observable before
/// and after every pulse, then compare the budget's verdicts. Returns the
/// pulse at which they stopped.
fn step_alike(
    (packed, feed, reference): &mut (CompareGrid, TableFeed, Grid<CompareCell>),
    budget: u64,
) -> Result<u64, TestCaseError> {
    loop {
        prop_assert_eq!(packed.is_quiescent(feed), reference.is_quiescent());
        if packed.is_quiescent(feed) || packed.pulse() >= budget {
            break;
        }
        packed.step(feed);
        reference.step();
        prop_assert_eq!(packed.pulse(), reference.pulse());
        prop_assert_eq!(packed.stats(), reference.stats());
        prop_assert_eq!(&feed.east[..], reference.east_emissions().emissions());
    }
    let verdict = packed.run_until_quiescent(feed, budget);
    prop_assert_eq!(verdict.clone(), reference.run_until_quiescent(budget));
    if let Err(NotQuiescent { max_pulses }) = verdict {
        prop_assert_eq!(max_pulses, budget);
        prop_assert!(!packed.is_quiescent(feed));
    }
    prop_assert_eq!(packed.trace_frames(), reference.trace_frames());
    Ok(packed.pulse())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compare_grid_steps_exactly_like_a_grid_of_compare_cells(
        shape in shape(),
        op_picks in prop::collection::vec(0usize..6, 8),
        north in schedule(elem),
        south in schedule(elem),
        west in schedule(boolean),
        budget in 0u64..80,
        tracing in any::<bool>(),
    ) {
        let (rows, cols) = shape;
        let ops: Vec<CompareOp> = op_picks[..cols].iter().map(|&k| CompareOp::ALL[k]).collect();
        let schedules = [north, south, west];

        // A random budget, often too short...
        step_alike(&mut pair(rows, &ops, &schedules, tracing), budget)?;

        // ...then a budget that suffices, and the same run one pulse short.
        let mut grids = pair(rows, &ops, &schedules, tracing);
        let drained = step_alike(&mut grids, 200)?;
        prop_assert!(grids.0.is_quiescent(&grids.1));
        if drained > 0 {
            let (mut packed, mut feed, mut reference) = pair(rows, &ops, &schedules, tracing);
            prop_assert_eq!(packed.run_until_quiescent(&mut feed, drained - 1), Err(NotQuiescent { max_pulses: drained - 1 }));
            prop_assert_eq!(reference.run_until_quiescent(drained - 1), Err(NotQuiescent { max_pulses: drained - 1 }));
        }
    }
}
