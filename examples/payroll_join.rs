//! A realistic multi-operator workload: payroll analytics.
//!
//! The scenario the paper's introduction motivates — a conventional host
//! offloading whole relational operators to attached systolic devices. An
//! employees relation is joined with departments, filtered with a
//! theta-join against salary bands, and audited for duplicates, comparing
//! the marching (§3–4), fixed-operand (§8) and decomposed (§8) executions
//! of the very same operators.
//!
//! Run with: `cargo run --example payroll_join`

use systolic_db::arrays::ops::{self, Execution};
use systolic_db::arrays::tiling::{self, Operand, Seed};
use systolic_db::arrays::{ArrayLimits, Backend, FixedOperandArray, JoinArray, JoinSpec, TMatrix};
use systolic_db::fabric::{CompareOp, Elem};
use systolic_db::relation::{Catalog, Column, Datum, DomainKind, MultiRelation, Schema};

fn main() {
    let mut catalog = Catalog::new();
    let names = catalog.add_domain("names", DomainKind::Str);
    let dept_ids = catalog.add_domain("dept-ids", DomainKind::Int);
    let money = catalog.add_domain("money", DomainKind::Int);
    let dept_names = catalog.add_domain("dept-names", DomainKind::Str);

    let employees_schema = Schema::new(vec![
        Column::new("name", names),
        Column::new("dept", dept_ids),
        Column::new("salary", money),
    ]);
    let employees = catalog
        .encode_multi(
            employees_schema,
            &[
                vec![Datum::str("amara"), Datum::Int(10), Datum::Int(96_000)],
                vec![Datum::str("bruno"), Datum::Int(20), Datum::Int(72_000)],
                vec![Datum::str("chen"), Datum::Int(10), Datum::Int(88_000)],
                vec![Datum::str("dara"), Datum::Int(30), Datum::Int(64_000)],
                vec![Datum::str("emil"), Datum::Int(20), Datum::Int(101_000)],
                vec![Datum::str("fay"), Datum::Int(10), Datum::Int(55_000)],
            ],
        )
        .expect("valid rows");

    let departments_schema = Schema::new(vec![
        Column::new("dept", dept_ids),
        Column::new("dept_name", dept_names),
        Column::new("budget_per_head", money),
    ]);
    let departments = catalog
        .encode_multi(
            departments_schema,
            &[
                vec![Datum::Int(10), Datum::str("storage"), Datum::Int(90_000)],
                vec![Datum::Int(20), Datum::str("query"), Datum::Int(80_000)],
                vec![Datum::Int(30), Datum::str("frontend"), Datum::Int(70_000)],
            ],
        )
        .expect("valid rows");

    println!("payroll analytics on systolic hardware\n");

    // 1. Equi-join employees with their departments (§6).
    let (staffed, join_stats) = ops::join_with(
        &employees,
        &departments,
        &[JoinSpec::eq(1, 0)],
        Execution::Marching,
        Backend::Sim,
    )
    .expect("dept columns share a domain");
    println!("employees |x| departments:");
    print!("{}", catalog.render(&staffed).expect("decodable"));
    println!(
        "   [{} pulses on a {}-cell join array]\n",
        join_stats.pulses, join_stats.cells
    );

    // 2. Theta-join: who earns above their department's per-head budget?
    // staffed columns: name, dept, salary, dept_name, budget_per_head.
    // The array compares salary (col 2 of employees side) against budget.
    let (over_budget, theta_stats) = ops::join_with(
        &employees,
        &departments,
        &[JoinSpec::eq(1, 0), JoinSpec::theta(2, 2, CompareOp::Gt)],
        Execution::Marching,
        Backend::Sim,
    )
    .expect("comparable columns");
    println!("earning above the department budget (equi + > join, §6.3):");
    print!("{}", catalog.render(&over_budget).expect("decodable"));
    println!("   [{} pulses]\n", theta_stats.pulses);

    // 3. Distinct salary bands via projection + remove-duplicates (§5).
    let (bands, band_stats) =
        ops::project_with(&staffed, &[1], Execution::Marching, Backend::Sim).expect("valid column");
    println!("distinct departments with staff (projection, §5):");
    print!("{}", catalog.render(&bands).expect("decodable"));
    println!("   [{} pulses]\n", band_stats.pulses);

    // 4. The same join on constrained hardware: a 4x4x2 physical array,
    // with the problem decomposed onto it and drained between tiles (§8),
    // and the fixed-operand variant with departments resident in the
    // array. Both produce `T` over the key columns; the host assembles the
    // joined rows from it, as `ops` does.
    let spec = [JoinSpec::eq(1, 0)];
    let assemble = |t: &TMatrix| {
        let codes = JoinArray::new(spec.to_vec()).assemble(employees.rows(), departments.rows(), t);
        MultiRelation::from_codes(staffed.schema().clone(), codes).expect("joined rows")
    };
    let (emp_key, dept_key) = ([1], [0]);
    let tiled = tiling::t_matrix_tiled(
        Operand::new(employees.rows(), &emp_key),
        Operand::new(departments.rows(), &dept_key),
        &[CompareOp::Eq],
        ArrayLimits::new(4, 4, 2),
        Seed::All,
    )
    .expect("tiled join");
    let (staffed_tiled, tiled_stats) = (assemble(&tiled.t), tiled.stats);
    let keys = |rel: &MultiRelation, col: usize| -> Vec<Vec<Elem>> {
        rel.rows().iter().map(|row| vec![row[col]]).collect()
    };
    let (fixed_t, fixed_stats) = FixedOperandArray::preload(&keys(&departments, 0))
        .t_matrix(&keys(&employees, 1), &[CompareOp::Eq])
        .expect("fixed-operand join");
    let staffed_fixed = assemble(&fixed_t);
    assert!(staffed_tiled.set_eq(&staffed));
    assert!(staffed_fixed.set_eq(&staffed));
    println!("same join, three hardware strategies (§8):");
    println!(
        "   marching      : {:>4} cells, {:>4} pulses, utilisation {:>5.1}%",
        join_stats.cells,
        join_stats.pulses,
        100.0 * join_stats.utilisation()
    );
    println!(
        "   fixed-operand : {:>4} cells, {:>4} pulses, utilisation {:>5.1}%",
        fixed_stats.cells,
        fixed_stats.pulses,
        100.0 * fixed_stats.utilisation()
    );
    println!(
        "   tiled 4x4x2   : {:>4} cells, {:>4} pulses, utilisation {:>5.1}%  ({} tile runs)",
        tiled_stats.cells,
        tiled_stats.pulses,
        100.0 * tiled_stats.utilisation(),
        tiled_stats.array_runs
    );
    println!("\nidentical relations from all three — only the hardware shape differs.");
}
