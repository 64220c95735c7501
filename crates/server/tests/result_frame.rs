//! The one-pass `RESULT` frame against the two-pass rendering it stands in
//! for: `render_result_frame` writes the CSV from the result's codes
//! already escaped, and must equal `result_frame(n, stats, &export_csv(..))`
//! byte for byte — and fail wherever that export fails, with its error.
//!
//! The relations come from the CSV export's own strategies (one shared
//! file), whose strings hold every byte the quoting rule and the frame
//! escape act on: commas, quotes, backslashes, LF and CR.

use proptest::prelude::*;
use systolic_machine::RunStats;
use systolic_relation::{
    export_csv, Catalog, Column, Datum, DomainKind, MultiRelation, RelationError, Schema,
};
use systolic_server::protocol::{parse_result_frame, render_result_frame, result_frame};

#[path = "../../relation/src/csv_strategies.rs"]
mod csv_strategies;
use csv_strategies::{encode, ints, texts, KINDS};

fn stats(seed: u64) -> RunStats {
    RunStats {
        makespan_ns: seed,
        total_pulses: seed / 3,
        array_runs: seed % 97,
        bytes_from_disk: seed.rotate_left(7),
        max_device_concurrency: (seed % 5) as usize,
    }
}

/// The two-pass frame: export the CSV, then escape it into the frame.
fn two_pass(cat: &Catalog, rel: &MultiRelation, stats: &RunStats) -> Result<String, RelationError> {
    Ok(result_frame(rel.len(), stats, &export_csv(cat, rel)?))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_pass_result_frame_is_the_two_pass_frame_byte_for_byte(
        picks in prop::collection::vec(0usize..KINDS.len(), 1..6),
        names in prop::collection::vec(texts(), 5),
        cells in prop::collection::vec(prop::collection::vec((ints(), texts()), 5), 0..10),
        seed in any::<u64>(),
    ) {
        let (cat, rel) = encode(&picks, &names, &cells);
        let stats = stats(seed);
        let frame = render_result_frame(&cat, &rel, &stats).unwrap();
        prop_assert_eq!(&frame, &two_pass(&cat, &rel, &stats).unwrap());
        prop_assert!(!frame.contains(['\n', '\r']), "a frame is one line");
        let fields = parse_result_frame(&frame).unwrap();
        prop_assert_eq!(fields.csv, export_csv(&cat, &rel).unwrap());
        prop_assert_eq!(fields.rows, rel.len());
    }
}

#[test]
fn undecodable_rows_fail_as_the_two_pass_frame_does() {
    let mut cat = Catalog::new();
    let flag = cat.add_domain("flag", DomainKind::Bool);
    let names = cat.add_domain("names", DomainKind::Str);
    let schema = Schema::new(vec![Column::new("flag", flag), Column::new("name", names)]);
    let known = cat.domain_mut(names).encode(&Datum::str("a\nb")).unwrap();
    for (bad, code) in [
        (vec![2, known], 2),             // no such boolean
        (vec![1, known + 1], known + 1), // past the dictionary
        (vec![0, -1], -1),               // before it
        (vec![7, -9], 7),                // the first bad cell is the one named
    ] {
        let rel = MultiRelation::new(schema.clone(), vec![vec![1, known], bad]).unwrap();
        let got = render_result_frame(&cat, &rel, &stats(9));
        assert_eq!(got, two_pass(&cat, &rel, &stats(9)));
        assert_eq!(got, Err(RelationError::DecodeOutOfRange { code }));
    }
    let rel = MultiRelation::new(schema, vec![vec![1, known]]).unwrap();
    let frame = render_result_frame(&cat, &rel, &stats(9)).unwrap();
    assert_eq!(frame, two_pass(&cat, &rel, &stats(9)).unwrap());
    assert!(frame.ends_with("csv=flag,name\\ntrue,a\\nb\\n"), "{frame}");
}
