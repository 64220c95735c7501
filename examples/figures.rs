//! Reproduce the paper's data-flow figures as pulse-by-pulse ASCII
//! animations from real simulator traces.
//!
//! * Figure 3-1/3-2 — the linear tuple-comparison array;
//! * Figure 3-4 — data moving through the 3x3 two-dimensional comparison
//!   array;
//! * Figure 4-1 — the intersection array (comparison + accumulation);
//! * Figure 6-1 — the single-column join array;
//! * Figure 7-2 — the division array in operation, on the exact relations
//!   of Figure 7-1.
//!
//! Each frame shows the words *entering* every cell at that pulse:
//! `a:` southbound, `b:` northbound, `t:` eastbound.
//!
//! Run with: `cargo run --example figures`

use systolic_db::arrays::{
    DivisionArray, IntersectionArray, JoinArray, LinearComparisonArray, PatternMatchChip, SetOpMode,
};
use systolic_db::fabric::render_animation;
use systolic_db::relation::Rows;

fn main() {
    println!("==============================================================");
    println!("Figure 3-1: linear comparison array, tuples <1,2,3> vs <1,2,3>");
    println!("==============================================================");
    let arr = LinearComparisonArray::new(3);
    let out = arr.run(&[1, 2, 3], &[1, 2, 3], true, true).expect("run");
    println!("{}", render_animation(&out.frames));
    println!(
        "verdict: {} (after {} pulses on {} cells)\n",
        out.result, out.stats.pulses, out.stats.cells
    );

    println!("==============================================================");
    println!("Figure 3-4: data moving through the 3x3 comparison array");
    println!("==============================================================");
    // The paper's example compares two 3-tuple relations of cardinality 3.
    let a = vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
    let b = vec![vec![4, 5, 6], vec![9, 9, 9], vec![1, 2, 3]];
    let out = systolic_db::arrays::ComparisonArray2d::equality(3)
        .run(&a, &b, systolic_db::arrays::tiling::Seed::All, true)
        .expect("run");
    println!("{}", render_animation(&out.frames));
    println!("result matrix T (t_ij = tuple a_i equals tuple b_j):");
    for i in 0..3 {
        let row: Vec<&str> = (0..3)
            .map(|j| if out.t.get(i, j) { "T" } else { "F" })
            .collect();
        println!("   {}", row.join(" "));
    }
    println!();

    println!("==============================================================");
    println!("Figure 4-1: intersection array (comparison + accumulation)");
    println!("==============================================================");
    let out = IntersectionArray::new(3)
        .run_masked(&a, &b, SetOpMode::Intersect, |_, _| true, true)
        .expect("run");
    println!("{}", render_animation(&out.frames));
    println!("accumulated t_i per tuple of A: {:?}", out.t);
    println!("A ∩ B keeps tuples of A with t_i = true: {:?}\n", out.keep);

    println!("==============================================================");
    println!("Figure 6-1: join array (single join column)");
    println!("==============================================================");
    // Join column 2 of A against column 0 of B, as in the figure (the
    // paper joins A's third column with B's first).
    let emp = vec![vec![1, 10, 7], vec![2, 20, 9], vec![3, 30, 7]];
    let dept = vec![vec![7, 100], vec![9, 200]];
    let arr = JoinArray::equi(2, 0);
    let out = arr.run(&emp, &dept, true).expect("run");
    println!("{}", render_animation(&out.frames));
    println!("match matrix T:");
    for i in 0..3 {
        let row: Vec<&str> = (0..2)
            .map(|j| if out.t.get(i, j) { "T" } else { "F" })
            .collect();
        println!("   {}", row.join(" "));
    }
    let (emp, dept) = (emp.concat(), dept.concat());
    let joined = arr.assemble(Rows::new(&emp, 3), Rows::new(&dept, 2), &out.t);
    println!("joined tuples: {:?}\n", Rows::new(&joined, 4));

    println!("==============================================================");
    println!("Figure 7-2: division array on the Figure 7-1 example");
    println!("==============================================================");
    // Keys i,j,k encoded 1,2,3; values a..e encoded 10..14.
    let pairs = [
        (1, 10),
        (1, 11),
        (1, 12),
        (2, 10),
        (2, 12),
        (3, 10),
        (1, 13),
        (2, 14),
        (3, 12),
        (3, 13),
    ];
    let divisor = [10, 11, 12, 13];
    let out = DivisionArray
        .divide_with_keys(&pairs, &[1, 2, 3], &divisor, true)
        .expect("run");
    println!("{}", render_animation(&out.frames));
    println!("keys (preloaded, = distinct A1): {:?}", out.keys);
    println!(
        "row verdicts (AND across divisor rows): {:?}",
        out.quotient_flags
    );
    println!(
        "quotient C = A ÷ B: {:?}  (the paper's answer: {{i}} = [1])",
        out.quotient
    );

    println!("==============================================================");
    println!("Bonus (§8, ref [3]): the pattern-match chip, the comparison");
    println!("array's fabricated ancestor, searching \"aba\" in \"ababa\"");
    println!("==============================================================");
    let chip = PatternMatchChip::from_bytes(b"aba");
    let hits = chip.find_in_bytes(b"ababa").expect("search");
    println!("pattern resident in 3 cells; text streams through;");
    println!("matches at offsets {hits:?} (overlapping matches included)");
}
