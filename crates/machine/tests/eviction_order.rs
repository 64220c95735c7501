//! Pins the staging-eviction *order*: which dead copy a full module gives
//! up decides where the next relation lands, and that shows on the
//! timeline. Own binary: `staging_evictions` is a process-global counter,
//! and an exact count needs no other test bumping it.

use systolic_machine::{Expr, MachineConfig, System};
use systolic_relation::gen::synth_schema;
use systolic_relation::MultiRelation;
use systolic_storage::StorageMetrics;

#[test]
fn clock_eviction_order_is_pinned() {
    // Five 80-byte relations and their equally sized dedups and unions
    // through two 160-byte modules: every placement after the first few
    // has to reclaim a dead copy, and the clock decides which.
    // Values captured at the commit before accounting stopped holding rows.
    let receives = [
        (0, "mem0"),
        (15_966, "mem0"),
        (59_232, "mem1"),
        (102_498, "mem0"),
        (118_464, "mem0"),
    ];
    let rows = MultiRelation::new(synth_schema(2), (0..10).map(|i| vec![i, i]).collect()).unwrap();
    let expr = Expr::scan("a")
        .dedup()
        .union(Expr::scan("b").dedup())
        .union(Expr::scan("c").dedup())
        .union(Expr::scan("d").dedup().union(Expr::scan("e").dedup()));
    let mut sys = System::new(MachineConfig {
        memories: 2,
        memory_capacity: 160,
        ..MachineConfig::default()
    })
    .unwrap();
    for name in ["a", "b", "c", "d", "e"] {
        sys.load_base(name, rows.clone());
    }
    let before = StorageMetrics::shared().staging_evictions.get();
    let out = sys.run(&expr).unwrap();
    let evictions = StorageMetrics::shared().staging_evictions.get() - before;
    assert_eq!(evictions, 10);
    assert_eq!(out.result.len(), 10);
    assert_eq!(out.stats.makespan_ns, 189_030);
    let got: Vec<(u64, &str)> = out
        .timeline
        .events()
        .iter()
        .filter(|e| e.label.starts_with("receive"))
        .map(|e| (e.start_ns, e.resource.as_str()))
        .collect();
    assert_eq!(got, receives);
}
