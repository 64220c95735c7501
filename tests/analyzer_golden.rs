//! Golden-file tests for the analyzer's diagnostic renderings: one
//! canonical query per SA00N code, whose exact multi-line caret rendering
//! is pinned under `tests/golden/`. Run with `UPDATE_GOLDEN=1` to
//! regenerate after an intentional change to a message or the caret
//! layout — then review the diff like any other code change.

use std::fs;
use std::path::PathBuf;

use systolic_db::analyzer::{analyze, CatalogView, ColumnInfo, Diagnostic};
use systolic_db::arrays::ArrayLimits;
use systolic_db::machine::{parse_spanned, DeviceKind, MachineConfig};
use systolic_db::relation::{DomainId, DomainKind};

fn col(domain: usize, kind: DomainKind) -> ColumnInfo {
    ColumnInfo {
        domain: DomainId(domain),
        kind,
    }
}

/// The shared fixture catalog: a small university schema with enough
/// domain variety to trip every check.
fn view() -> CatalogView {
    use DomainKind::{Bool, Int, Str};
    let mut v = CatalogView::new();
    v.add_table("emp", vec![col(1, Str), col(0, Int)], 3);
    v.add_table("dept", vec![col(0, Int), col(1, Str)], 2);
    v.add_table("flags", vec![col(0, Int), col(2, Bool)], 4);
    v.add_table("takes", vec![col(0, Int), col(0, Int)], 6);
    v.add_table("courses", vec![col(0, Int)], 2);
    v
}

/// A machine whose sole set-operation device has a zero `max_a` bound —
/// the §6 tiling induction cannot cover any input, so SA005 fires.
fn zero_bound_machine() -> MachineConfig {
    MachineConfig {
        devices: vec![
            (
                DeviceKind::SetOp,
                ArrayLimits {
                    max_a: 0,
                    max_b: 32,
                    max_cols: 8,
                },
            ),
            (DeviceKind::Join, ArrayLimits::new(32, 32, 8)),
            (DeviceKind::Divide, ArrayLimits::new(32, 32, 8)),
        ],
        ..MachineConfig::default()
    }
}

/// A machine whose memory modules are too small to stage even one base
/// relation — the §9 capacity check (SA006) fires.
fn tiny_memory_machine() -> MachineConfig {
    MachineConfig {
        memory_capacity: 16,
        ..MachineConfig::default()
    }
}

/// Analyze `query` and return the newline-joined pretty renderings —
/// exactly what the `sdb check` human output and the server's `ERR
/// analysis` frame carry.
fn reject(query: &str, machine: &MachineConfig) -> Vec<Diagnostic> {
    let (expr, spans) = parse_spanned(query).expect("golden queries parse");
    match analyze(&expr, &view(), machine, &spans) {
        Ok(a) => panic!(
            "expected rejection for {query:?}, got acceptance:\n{}",
            a.render()
        ),
        Err(diags) => diags,
    }
}

fn check_golden(code: &str, query: &str, machine: &MachineConfig) {
    let diags = reject(query, machine);
    assert!(
        diags.iter().all(|d| d.code.code() == code),
        "{query:?}: expected only {code} diagnostics, got {diags:?}"
    );
    let rendered = diags
        .iter()
        .map(|d| d.pretty(query))
        .collect::<Vec<_>>()
        .join("\n");
    let mut banner = format!("query: {query}\n\n{rendered}\n");
    // Keep golden files newline-terminated and free of trailing spaces so
    // editors and diff tools leave them alone.
    banner = banner.replace(" \n", "\n");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{code}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &banner).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, banner,
        "golden mismatch for {code}; run with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// Pin an *accepted* plan's prose and JSON renderings — the budgets the
/// planner costs candidates against, which are the machine's own prices.
/// `ACCEPT_union` pins the union budget as concat-then-dedup over
/// `|A|+|B|` rows (not `max(|A|,|B|)`), and `ACCEPT_divide` pins division
/// as a dedup pre-pass over the dividend plus the divide pass proper, the
/// latter bounded at one key per dividend row.
fn accept_golden(name: &str, query: &str) {
    let (expr, spans) = parse_spanned(query).expect("golden queries parse");
    let analysis = analyze(&expr, &view(), &MachineConfig::default(), &spans)
        .unwrap_or_else(|d| panic!("expected acceptance for {query:?}, got {d:?}"));
    let banner = format!(
        "query: {query}\n\n{}\n--- json ---\n{}\n",
        analysis.render(),
        analysis.json()
    )
    .replace(" \n", "\n");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &banner).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, banner,
        "golden mismatch for {name}; run with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn accepted_union_budget_prices_concat_then_dedup() {
    accept_golden("ACCEPT_union", "union(scan(takes), scan(takes))");
}

#[test]
fn accepted_divide_budget_prices_the_dedup_prepass() {
    accept_golden(
        "ACCEPT_divide",
        "divide(scan(takes), scan(courses), 0, 1, 0)",
    );
}

#[test]
fn sa001_union_incompatible() {
    check_golden(
        "SA001",
        "union(scan(emp), scan(dept))",
        &MachineConfig::default(),
    );
}

#[test]
fn sa002_column_out_of_range() {
    check_golden(
        "SA002",
        "project(scan(emp), [5])",
        &MachineConfig::default(),
    );
}

#[test]
fn sa003_divisor_not_subset() {
    check_golden(
        "SA003",
        "divide(scan(takes), scan(emp), 0, 1, 0)",
        &MachineConfig::default(),
    );
}

#[test]
fn sa004_domain_mismatch() {
    check_golden(
        "SA004",
        "filter(scan(emp), c0 < 5)",
        &MachineConfig::default(),
    );
}

#[test]
fn sa005_tiling_uncovered() {
    check_golden(
        "SA005",
        "intersect(scan(takes), scan(takes))",
        &zero_bound_machine(),
    );
}

#[test]
fn sa006_capacity_exceeded() {
    check_golden("SA006", "scan(takes)", &tiny_memory_machine());
}

#[test]
fn sa007_unknown_relation() {
    check_golden("SA007", "scan(ghost)", &MachineConfig::default());
}

#[test]
fn sa008_shadowed_load() {
    check_golden("SA008", "store(scan(emp), emp)", &MachineConfig::default());
}

/// The wire rendering used by the server is derivable from the same
/// diagnostics the golden files pin: code + optional `at=` + message.
#[test]
fn wire_rendering_matches_diagnostic_fields() {
    let diags = reject("scan(ghost)", &MachineConfig::default());
    let d = &diags[0];
    let wire = d.wire();
    assert!(wire.starts_with("SA007"), "{wire}");
    if let Some((s, e)) = d.span {
        assert!(wire.contains(&format!("at={s}..{e}")), "{wire}");
    }
}
