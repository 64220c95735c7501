//! Which operators pack word planes, counted process-wide — one test in
//! its own binary, so no other test's packing moves the counter.

use systolic_core::ops::{self, Execution};
use systolic_core::{ArrayLimits, Backend};
use systolic_relation::columnar::build_count;
use systolic_relation::gen::synth_schema;
use systolic_relation::MultiRelation;

fn rel(n: i64, stride: i64) -> MultiRelation {
    let rows = (0..n).map(|i| vec![(i * stride) % 97, i % 5]).collect();
    MultiRelation::new(synth_schema(2), rows).unwrap()
}

#[test]
fn tuple_hashing_operators_pack_no_word_planes() {
    let a = rel(200, 7);
    let b = rel(150, 11);
    let exec = Execution::TiledPipelined(ArrayLimits::new(32, 32, 8));
    let before = build_count();
    // Union dedups a fresh concatenation, projection a fresh strip, and
    // division a fresh key column: throwaway relations whose rows are
    // hashed by composite code, for which the code layout is enough.
    let (u, _) = ops::union_with(&a, &b, exec, Backend::Columnar).unwrap();
    let (p, _) = ops::project_with(&a, &[1], exec, Backend::Columnar).unwrap();
    let (q, _) = ops::divide_binary_with(&a, 1, 0, &b, 0, exec, Backend::Columnar).unwrap();
    let (i, _) = ops::intersect_with(&a, &b, exec, Backend::Columnar).unwrap();
    let (d, _) = ops::difference_with(&a, &b, exec, Backend::Columnar).unwrap();
    assert_eq!(build_count(), before, "a cold relation was packed");
    assert!(!a.columnar_built() && !b.columnar_built());

    // Same rows as the simulator, and as a run over warm operands.
    a.columnar();
    b.columnar();
    let after_warm = build_count();
    for backend in [Backend::Sim, Backend::Columnar] {
        assert_eq!(ops::union_with(&a, &b, exec, backend).unwrap().0, u);
        assert_eq!(ops::project_with(&a, &[1], exec, backend).unwrap().0, p);
        assert_eq!(
            ops::divide_binary_with(&a, 1, 0, &b, 0, exec, backend)
                .unwrap()
                .0,
            q
        );
        assert_eq!(ops::intersect_with(&a, &b, exec, backend).unwrap().0, i);
        assert_eq!(ops::difference_with(&a, &b, exec, backend).unwrap().0, d);
    }
    assert_eq!(build_count(), after_warm);
}
