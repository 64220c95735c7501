//! Failure injection: corrupted schedules, truncated streams, exhausted
//! budgets and overflowing memories must surface as *errors*, never as
//! silently wrong relations. (A hardware array has no such safety net —
//! the simulator does, and these tests pin it down.)

use systolic_db::arrays::{CoreError, IntersectionArray, SetOpMode};
use systolic_db::fabric::{
    Cell, CellIo, CompareSchedule, Grid, NotQuiescent, ScheduleFeeder, Word,
};
use systolic_db::machine::{Expr, MachineConfig, MachineError, System};
use systolic_db::relation::gen::synth_schema;
use systolic_db::relation::MultiRelation;

/// A comparison cell for the injection harness: the standard Figure 3-2
/// behaviour.
struct Comparator;
impl Cell for Comparator {
    fn pulse(&mut self, io: &mut CellIo) {
        io.pass_through();
        match (io.a_in.as_elem(), io.b_in.as_elem()) {
            (Some(a), Some(b)) => {
                io.t_out = match io.t_in {
                    Word::Bool(t) => Word::Bool(t && a == b),
                    _ => Word::Bool(a == b),
                }
            }
            _ => io.t_out = io.t_in,
        }
    }
}

#[test]
fn conflicting_feeder_entries_panic_loudly() {
    // Two different words on the same wire in the same pulse is a schedule
    // construction bug; it must never be silently dropped.
    let result = std::panic::catch_unwind(|| {
        ScheduleFeeder::from_entries([(3, 0, Word::Elem(1)), (3, 0, Word::Elem(2))])
    });
    assert!(result.is_err(), "collision must panic");
}

#[test]
fn stray_injected_word_is_detected_at_decode_time() {
    // Run a correct 2x2 comparison, but inject one extra rogue t-seed at a
    // pulse where no pair meets: the rogue result reaches the east edge at
    // an off-schedule pulse and decode reports a ScheduleViolation.
    let a = vec![vec![1i64], vec![2]];
    let b = vec![vec![2i64], vec![3]];
    let sched = CompareSchedule::new(2, 2, 1);
    let mut grid: Grid<Comparator> = Grid::new(sched.rows(), 1, |_, _| Comparator);
    grid.set_north_feeder(sched.a_feeder(&a));
    grid.set_south_feeder(sched.b_feeder(&b));
    let mut west: Vec<_> = (0..2)
        .flat_map(|i| (0..2).map(move |j| (i, j)))
        .map(|(i, j)| {
            let (lane, pulse) = sched.t_injection(i, j);
            (pulse, lane, Word::Bool(true))
        })
        .collect();
    // Rogue seed: one pulse after the last legitimate meeting on row 0.
    let rogue_pulse = sched.meeting_pulse(1, 0, 0) + 1;
    west.push((rogue_pulse, 0, Word::Bool(true)));
    grid.set_west_feeder(ScheduleFeeder::from_entries(west));
    grid.run_until_quiescent(sched.pulse_bound()).unwrap();
    // Decode as the operator front-ends do: every emission must map to a
    // scheduled pair.
    let mut violation = false;
    for em in grid.east_emissions().emissions() {
        if sched.pair_at_exit(em.lane, em.pulse).is_none() {
            violation = true;
        }
    }
    assert!(violation, "the rogue word must be detected as off-schedule");
}

#[test]
fn truncated_tuple_is_detected_by_the_accumulator_count() {
    // A real truncation loses a tuple's elements *and* its accumulator
    // seed. Rebuild the intersection array with the last tuple of A
    // missing while the schedule still claims |A| = 3: only two
    // accumulated t values exit the bottom, and the front-end's
    // completeness check (one t per claimed tuple) detects the shortfall.
    use systolic_db::arrays::comparison::CompareCell;
    use systolic_db::arrays::intersection::{AccumulateCell, IntersectCell};
    let a = vec![vec![1i64, 1], vec![2, 2], vec![3, 3]];
    let b = vec![vec![2i64, 2]];
    // Sanity: the untampered public API works.
    assert!(IntersectionArray::new(2)
        .run(&a, &b, SetOpMode::Intersect)
        .is_ok());
    let sched = CompareSchedule::new(3, 1, 2);
    let mut grid: Grid<IntersectCell> = Grid::new(sched.rows(), 3, |_, c| {
        if c < 2 {
            IntersectCell::Compare(CompareCell::default())
        } else {
            IntersectCell::Accumulate(AccumulateCell)
        }
    });
    let mut north = Vec::new();
    for (i, tup) in a[..2].iter().enumerate() {
        for (c, &e) in tup.iter().enumerate() {
            north.push((sched.a_injection(i, c), c, Word::Elem(e)));
        }
        north.push((sched.acc_injection(i), sched.acc_col(), Word::Bool(false)));
    }
    grid.set_north_feeder(ScheduleFeeder::from_entries(north));
    grid.set_south_feeder(sched.b_feeder(&b));
    grid.set_west_feeder(sched.t_feeder(|_, _| true));
    grid.run_until_quiescent(sched.pulse_bound()).unwrap();
    let accumulated = grid
        .south_emissions()
        .emissions()
        .iter()
        .filter(|em| em.lane == sched.acc_col())
        .count();
    assert_eq!(accumulated, 2, "the third tuple's t never materialises");
    assert_ne!(
        accumulated, sched.n_a,
        "shortfall detected by the count check"
    );
}

#[test]
fn runaway_cell_exhausts_the_pulse_budget_with_an_error() {
    struct Runaway;
    impl Cell for Runaway {
        fn pulse(&mut self, io: &mut CellIo) {
            io.t_out = Word::Bool(true); // regenerates a word forever
        }
    }
    // Two columns so the regenerated word keeps circulating on an internal
    // wire (in a 1x1 grid it would fall straight off the east edge).
    let mut grid: Grid<Runaway> = Grid::new(1, 2, |_, _| Runaway);
    grid.set_west_feeder(ScheduleFeeder::from_entries([(0, 0, Word::Bool(true))]));
    let err = grid.run_until_quiescent(50).unwrap_err();
    assert_eq!(err, NotQuiescent { max_pulses: 50 });
    // And the error converts into the operator-level error type.
    let core: CoreError = err.into();
    assert!(core.to_string().contains("50 pulses"));
}

#[test]
fn machine_memory_overflow_is_reported_not_truncated() {
    let cfg = MachineConfig {
        memories: 2,
        memory_capacity: 64, // 8 two-column rows of 4-byte words
        ..MachineConfig::default()
    };
    let mut sys = System::new(cfg).unwrap();
    let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i]).collect();
    sys.load_base("big", MultiRelation::new(synth_schema(2), rows).unwrap());
    let err = sys.run(&Expr::scan("big").dedup()).unwrap_err();
    assert!(
        matches!(err, MachineError::MemoryOverflow { .. }),
        "got {err:?}"
    );
}

#[test]
fn bit_width_overflow_is_an_error_not_a_wraparound() {
    use systolic_db::arrays::bitlevel::BitSerialComparator;
    let cmp = BitSerialComparator::new(4, systolic_db::fabric::CompareOp::Eq);
    let err = cmp.compare(16, 1).unwrap_err();
    assert!(matches!(
        err,
        CoreError::WidthOverflow {
            value: 16,
            width: 4
        }
    ));
}

#[test]
fn corrupted_word_kind_on_a_result_wire_is_rejected() {
    // An Elem where a Bool verdict belongs: decode refuses it.
    struct Corruptor;
    impl Cell for Corruptor {
        fn pulse(&mut self, io: &mut CellIo) {
            io.pass_through();
            match (io.a_in.as_elem(), io.b_in.as_elem()) {
                (Some(a), Some(_)) => io.t_out = Word::Elem(a), // wrong kind!
                _ => io.t_out = io.t_in,
            }
        }
    }
    let sched = CompareSchedule::new(1, 1, 1);
    let mut grid: Grid<Corruptor> = Grid::new(1, 1, |_, _| Corruptor);
    grid.set_north_feeder(sched.a_feeder(&[vec![5]]));
    grid.set_south_feeder(sched.b_feeder(&[vec![5]]));
    grid.set_west_feeder(sched.t_feeder(|_, _| true));
    grid.run_until_quiescent(sched.pulse_bound()).unwrap();
    let em = grid.east_emissions().emissions()[0];
    assert!(
        em.word.as_bool().is_none(),
        "a non-boolean verdict is detectable"
    );
}
