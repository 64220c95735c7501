//! Pins the staging-eviction *order*: which dead copy a full module gives
//! up decides where the next relation lands, and that shows on the
//! timeline. Own binary: `staging_evictions` is a process-global counter,
//! and an exact count needs no other test bumping it.

use systolic_machine::{Expr, MachineConfig, System};
use systolic_relation::gen::synth_schema;
use systolic_relation::MultiRelation;
use systolic_storage::{ReplacerKind, StorageMetrics};

#[test]
fn eviction_order_is_pinned_per_replacement_policy() {
    // Five 80-byte relations and their equally sized dedups and unions
    // through two 160-byte modules: every placement after the first few
    // has to reclaim a dead copy, and Clock and LRU pick different ones.
    // Values captured at the commit before accounting stopped holding rows.
    let expected = [
        (
            ReplacerKind::Clock,
            189_030,
            [
                (0, "mem0"),
                (15_966, "mem0"),
                (59_232, "mem1"),
                (102_498, "mem0"),
                (118_464, "mem0"),
            ],
        ),
        (
            ReplacerKind::Lru,
            186_364,
            [
                (0, "mem0"),
                (15_966, "mem0"),
                (59_232, "mem0"),
                (102_498, "mem0"),
                (105_164, "mem1"),
            ],
        ),
    ];
    let rows = MultiRelation::new(synth_schema(2), (0..10).map(|i| vec![i, i]).collect()).unwrap();
    let expr = Expr::scan("a")
        .dedup()
        .union(Expr::scan("b").dedup())
        .union(Expr::scan("c").dedup())
        .union(Expr::scan("d").dedup().union(Expr::scan("e").dedup()));
    for (kind, makespan_ns, receives) in expected {
        let mut sys = System::new(MachineConfig {
            memories: 2,
            memory_capacity: 160,
            ..MachineConfig::default()
        })
        .unwrap();
        sys.set_staging_replacer(kind);
        for name in ["a", "b", "c", "d", "e"] {
            sys.load_base(name, rows.clone());
        }
        let before = StorageMetrics::shared().staging_evictions.get();
        let out = sys.run(&expr).unwrap();
        let evictions = StorageMetrics::shared().staging_evictions.get() - before;
        assert_eq!(evictions, 10, "{kind:?} evictions");
        assert_eq!(out.result.len(), 10);
        assert_eq!(out.stats.makespan_ns, makespan_ns, "{kind:?} makespan");
        let got: Vec<(u64, &str)> = out
            .timeline
            .events()
            .iter()
            .filter(|e| e.label.starts_with("receive"))
            .map(|e| (e.start_ns, e.resource.as_str()))
            .collect();
        assert_eq!(got, receives, "{kind:?} placements");
    }
}
