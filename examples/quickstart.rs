//! Quickstart: every relational operation of the paper, end to end.
//!
//! Builds two small relations over string/integer domains (encoded to
//! integers per §2.3), pushes them through the simulated systolic arrays,
//! and prints each result together with the hardware cost the run incurred.
//!
//! Run with: `cargo run --example quickstart`

use systolic_db::arrays::ops::{self, Execution};
use systolic_db::arrays::{Backend, ExecStats, JoinSpec};
use systolic_db::fabric::CompareOp;
use systolic_db::relation::{Catalog, Column, Datum, DomainKind, MultiRelation, Schema};

fn show(title: &str, catalog: &Catalog, rel: &MultiRelation, stats: &ExecStats) {
    println!("== {title} ==");
    print!("{}", catalog.render(rel).expect("decodable"));
    println!(
        "   [array: {} cells, {} pulses, utilisation {:.1}%, {} run(s)]\n",
        stats.cells,
        stats.pulses,
        100.0 * stats.utilisation(),
        stats.array_runs
    );
}

fn main() {
    let mut catalog = Catalog::new();
    let names = catalog.add_domain("names", DomainKind::Str);
    let depts = catalog.add_domain("departments", DomainKind::Str);
    let schema = Schema::new(vec![Column::new("name", names), Column::new("dept", depts)]);

    let row = |n: &str, d: &str| vec![Datum::str(n), Datum::str(d)];
    let active = catalog
        .encode_multi(
            schema.clone(),
            &[
                row("ada", "eng"),
                row("grace", "eng"),
                row("edsger", "math"),
                row("alan", "crypto"),
            ],
        )
        .expect("valid rows");
    let retired = catalog
        .encode_multi(
            schema.clone(),
            &[
                row("edsger", "math"),
                row("alan", "crypto"),
                row("kurt", "logic"),
            ],
        )
        .expect("valid rows");

    println!("Systolic (VLSI) arrays for relational database operations — quickstart\n");

    let (c, s) = ops::intersect_with(&active, &retired, Execution::Marching, Backend::Sim)
        .expect("compatible");
    show("intersection: active ∩ retired (§4)", &catalog, &c, &s);

    let (c, s) = ops::difference_with(&active, &retired, Execution::Marching, Backend::Sim)
        .expect("compatible");
    show("difference: active - retired (§4.3)", &catalog, &c, &s);

    let (c, s) =
        ops::union_with(&active, &retired, Execution::Marching, Backend::Sim).expect("compatible");
    show("union: active ∪ retired (§5)", &catalog, &c, &s);

    let (c, s) =
        ops::project_with(&active, &[1], Execution::Marching, Backend::Sim).expect("valid column");
    show(
        "projection on dept, duplicates removed (§5)",
        &catalog,
        &c,
        &s,
    );

    // A second relation for the join: dept -> building.
    let buildings = catalog.add_domain("buildings", DomainKind::Str);
    let loc_schema = Schema::new(vec![
        Column::new("dept", depts),
        Column::new("building", buildings),
    ]);
    let locations = catalog
        .encode_multi(
            loc_schema,
            &[
                vec![Datum::str("eng"), Datum::str("wean hall")],
                vec![Datum::str("math"), Datum::str("doherty")],
            ],
        )
        .expect("valid rows");
    let (c, s) = ops::join_with(
        &active,
        &locations,
        &[JoinSpec::eq(1, 0)],
        Execution::Marching,
        Backend::Sim,
    )
    .expect("join columns share a domain");
    show("equi-join with locations over dept (§6)", &catalog, &c, &s);

    // Division: which students take *every* core course?
    let students = catalog.add_domain("students", DomainKind::Str);
    let courses = catalog.add_domain("courses", DomainKind::Str);
    let takes_schema = Schema::new(vec![
        Column::new("student", students),
        Column::new("course", courses),
    ]);
    let takes = catalog
        .encode_multi(
            takes_schema,
            &[
                vec![Datum::str("ida"), Datum::str("db")],
                vec![Datum::str("ida"), Datum::str("os")],
                vec![Datum::str("joe"), Datum::str("db")],
                vec![Datum::str("kay"), Datum::str("os")],
                vec![Datum::str("kay"), Datum::str("db")],
                vec![Datum::str("joe"), Datum::str("golf")],
            ],
        )
        .expect("valid rows");
    let core_schema = Schema::new(vec![Column::new("course", courses)]);
    let core = catalog
        .encode_multi(
            core_schema,
            &[vec![Datum::str("db")], vec![Datum::str("os")]],
        )
        .expect("valid rows");
    let (c, s) = ops::divide_binary_with(&takes, 0, 1, &core, 0, Execution::Marching, Backend::Sim)
        .expect("valid columns");
    show("division: takes ÷ core courses (§7)", &catalog, &c, &s);

    // Theta-join (§6.3.2): numeric comparison between columns.
    let ints = catalog.add_domain("ints", DomainKind::Int);
    let num_schema = Schema::new(vec![Column::new("v", ints)]);
    let lows = catalog
        .encode_multi(
            num_schema.clone(),
            &[vec![Datum::Int(1)], vec![Datum::Int(5)]],
        )
        .expect("ints");
    let highs = catalog
        .encode_multi(num_schema, &[vec![Datum::Int(3)]])
        .expect("ints");
    let (c, s) = ops::join_with(
        &lows,
        &highs,
        &[JoinSpec::theta(0, 0, CompareOp::Gt)],
        Execution::Marching,
        Backend::Sim,
    )
    .expect("comparable");
    show("greater-than join (§6.3.2)", &catalog, &c, &s);

    println!("All operations executed on simulated systolic hardware.");
}
