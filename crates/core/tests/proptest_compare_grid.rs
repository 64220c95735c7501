//! `CompareGrid`, the packed comparison array every comparison operator
//! runs on, against the grid of Figure 3-2 cells it replaced: a
//! `Grid<CompareCell>` given the same feeders, stepped beside it pulse by
//! pulse. Rows, columns, per-column comparators and all three schedules are
//! random, so streams cross wherever they happen to meet.

use proptest::prelude::*;

use systolic_core::comparison::CompareCell;
use systolic_fabric::{
    CompareGrid, CompareOp, Grid, NotQuiescent, RefusedWord, ScheduleFeeder, Word,
};

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

/// A `CompareGrid` and the reference grid, both fed `schedules`.
fn pair(
    rows: usize,
    ops: &[CompareOp],
    [north, south, west]: &Schedules,
    tracing: bool,
) -> (CompareGrid, Grid<CompareCell>) {
    let mut packed = CompareGrid::new(rows, ops);
    let mut reference: Grid<CompareCell> =
        Grid::new(rows, ops.len(), |_, c| CompareCell::new(ops[c]));
    if tracing {
        packed.enable_tracing();
        reference.enable_tracing();
    }
    let feeder = |entries: &Vec<(u64, usize, Word)>| ScheduleFeeder::from_entries(entries.clone());
    packed.set_north_feeder(feeder(north)).unwrap();
    packed.set_south_feeder(feeder(south)).unwrap();
    packed.set_west_feeder(feeder(west)).unwrap();
    reference.set_north_feeder(feeder(north));
    reference.set_south_feeder(feeder(south));
    reference.set_west_feeder(feeder(west));
    (packed, reference)
}

/// Step both grids up to `budget`, comparing everything observable before
/// and after every pulse, then compare the budget's verdicts. Returns the
/// pulse at which they stopped.
fn step_alike(
    packed: &mut CompareGrid,
    reference: &mut Grid<CompareCell>,
    budget: u64,
) -> Result<u64, TestCaseError> {
    loop {
        prop_assert_eq!(packed.is_quiescent(), reference.is_quiescent());
        if packed.is_quiescent() || packed.pulse() >= budget {
            break;
        }
        packed.step();
        reference.step();
        prop_assert_eq!(packed.pulse(), reference.pulse());
        prop_assert_eq!(packed.stats(), reference.stats());
        prop_assert_eq!(
            packed.east_emissions().emissions(),
            reference.east_emissions().emissions()
        );
    }
    let verdict = packed.run_until_quiescent(budget);
    prop_assert_eq!(verdict.clone(), reference.run_until_quiescent(budget));
    if let Err(NotQuiescent { max_pulses }) = verdict {
        prop_assert_eq!(max_pulses, budget);
        prop_assert!(!packed.is_quiescent());
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
        let (mut packed, mut reference) = pair(rows, &ops, &schedules, tracing);
        step_alike(&mut packed, &mut reference, budget)?;

        // ...then a budget that suffices, and the same run one pulse short.
        let (mut packed, mut reference) = pair(rows, &ops, &schedules, tracing);
        let drained = step_alike(&mut packed, &mut reference, 200)?;
        prop_assert!(packed.is_quiescent());
        if drained > 0 {
            let (mut packed, mut reference) = pair(rows, &ops, &schedules, tracing);
            prop_assert_eq!(packed.run_until_quiescent(drained - 1), Err(NotQuiescent { max_pulses: drained - 1 }));
            prop_assert_eq!(reference.run_until_quiescent(drained - 1), Err(NotQuiescent { max_pulses: drained - 1 }));
        }
    }

    #[test]
    fn compare_grid_refuses_words_its_lanes_cannot_carry(
        shape in shape(),
        edge in 0usize..3,
        good in schedule(elem),
        bad in prop_oneof![
            Just(Word::Drain),
            Just(Word::Op(CompareOp::Lt)),
            boolean(),
            elem(),
        ],
        pulse in 0u64..50,
        lane in 0usize..8,
    ) {
        let (rows, cols) = shape;
        let (name, width, fits) = match edge {
            0 => ("north", cols, matches!(bad, Word::Elem(_))),
            1 => ("south", cols, matches!(bad, Word::Elem(_))),
            _ => ("west", rows, matches!(bad, Word::Bool(_))),
        };
        let lane = lane % width;
        // The rest of the schedule is of the right kind and elsewhere.
        let mut entries: Vec<_> = good
            .into_iter()
            .filter(|&(p, l, _)| (p, l) != (pulse, lane))
            .map(|(p, l, w)| if edge == 2 { (p, l, Word::Bool(w == Word::Elem(0))) } else { (p, l, w) })
            .collect();
        entries.push((pulse, lane, bad));
        let feeder = ScheduleFeeder::from_entries(entries);
        let mut grid = CompareGrid::new(rows, &vec![CompareOp::Eq; cols]);
        let installed = match edge {
            0 => grid.set_north_feeder(feeder),
            1 => grid.set_south_feeder(feeder),
            _ => grid.set_west_feeder(feeder),
        };
        if fits {
            prop_assert!(installed.is_ok());
        } else {
            prop_assert_eq!(installed, Err(RefusedWord { edge: name, pulse, lane, word: bad }));
        }
    }
}
