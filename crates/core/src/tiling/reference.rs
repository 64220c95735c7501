//! The tile stream and its feed against what they replaced.
//!
//! Before the decomposition was one [`TileStream`], the tilers walked
//! `A`-chunks and `B`-chunks in a nested loop and listed every live tile.
//! That loop is kept here as the reference the stream's expanded tiles
//! must equal.
//!
//! Before the comparison array read its boundary from [`TileFeed`], the
//! pipelined tiler gathered one `(pulse, lane, word)` entry per injected
//! element and per seed and built a [`ScheduleFeeder`] table per edge. That
//! gather is kept here, verbatim in what it computes, as the reference the
//! feed must match pulse by pulse.

use proptest::prelude::*;
use systolic_fabric::{CompareFeed, CompareSchedule, Elem, ScheduleFeeder, WestEdge, Word};

use super::*;

/// The physical rows of a pipelined pass over `n_a x n_b` pairs, its live
/// tiles in stream order (`A`-chunks outer, `B`-chunks inner), and how many
/// pairs its dead tiles hold: the nested chunk loop, tile by tile.
fn nested_chunk_loop(
    n_a: usize,
    n_b: usize,
    limits: ArrayLimits,
    seed: Seed,
) -> (usize, Vec<Block>, usize) {
    let rows = (limits.max_a.min(n_a) + limits.max_b.min(n_b))
        .saturating_sub(1)
        .max(1);
    let (mut live, mut dead) = (Vec::new(), 0);
    for a0 in (0..n_a).step_by(limits.max_a) {
        let a1 = (a0 + limits.max_a).min(n_a);
        for b0 in (0..n_b).step_by(limits.max_b) {
            let b1 = (b0 + limits.max_b).min(n_b);
            if seed.live(a1, b0) {
                live.push((a0..a1, b0..b1));
            } else {
                dead += (a1 - a0) * (b1 - b0);
            }
        }
    }
    (rows, live, dead)
}

/// The gathered north, south and west tables of a pipelined pass, and its
/// run budget.
fn gathered(
    a: &[Vec<Elem>],
    b: &[Vec<Elem>],
    m: usize,
    limits: ArrayLimits,
    seed: Seed,
) -> ([ScheduleFeeder; 3], u64) {
    let rows = (limits.max_a.min(a.len()) + limits.max_b.min(b.len()))
        .saturating_sub(1)
        .max(1);
    let (mut north, mut south, mut west) = (Vec::new(), Vec::new(), Vec::new());
    let (mut offset, mut last_activity) = (0u64, 0u64);
    for a0 in (0..a.len()).step_by(limits.max_a) {
        let a1 = (a0 + limits.max_a).min(a.len());
        for b0 in (0..b.len()).step_by(limits.max_b) {
            let b1 = (b0 + limits.max_b).min(b.len());
            if !seed.live(a1, b0) {
                continue;
            }
            let sched = CompareSchedule::new(a1 - a0, b1 - b0, m);
            let shift = offset + (rows - sched.rows()) as u64;
            let mut last_inject = 0u64;
            for (i, row) in a[a0..a1].iter().enumerate() {
                for (c, &e) in row.iter().enumerate() {
                    let p = sched.a_injection(i, c) + shift;
                    north.push((p, c, Word::Elem(e)));
                    last_inject = last_inject.max(p);
                    last_activity = last_activity.max(p + rows as u64 - 1);
                }
            }
            for (j, row) in b[b0..b1].iter().enumerate() {
                for (c, &e) in row.iter().enumerate() {
                    let p = sched.b_injection(j, c) + offset;
                    south.push((p, c, Word::Elem(e)));
                    last_inject = last_inject.max(p);
                    last_activity = last_activity.max(p + rows as u64 - 1);
                }
            }
            for i in 0..(a1 - a0) {
                for j in 0..(b1 - b0) {
                    let (lane, pulse) = sched.t_injection(i, j);
                    west.push((pulse + shift, lane, Word::Bool(seed.at(a0 + i, b0 + j))));
                    last_activity = last_activity.max(pulse + shift + m as u64 - 1);
                }
            }
            offset = last_inject + 2;
        }
    }
    let tables = [north, south, west].map(ScheduleFeeder::from_entries);
    (tables, last_activity + 1)
}

/// What `feed` puts on each edge at `pulse`, lane-ascending, as words.
fn put_at(feed: &mut TileFeed, pulse: u64) -> [Vec<(usize, Word)>; 3] {
    let (mut north, mut south, mut west) = (Vec::new(), Vec::new(), Vec::new());
    feed.north(pulse, |c, e| north.push((c, Word::Elem(e))));
    feed.south(pulse, |c, e| south.push((c, Word::Elem(e))));
    let mut on = vec![0u64; feed.rows.div_ceil(64)];
    let mut val = on.clone();
    feed.west(
        pulse,
        &mut WestEdge::new(feed.rows, pulse, &mut on, &mut val),
    );
    for r in 0..feed.rows {
        if on[r / 64] >> (r % 64) & 1 == 1 {
            west.push((r, Word::Bool(val[r / 64] >> (r % 64) & 1 == 1)));
        }
    }
    [north, south, west].map(|mut words| {
        words.sort_by_key(|&(lane, _)| lane);
        words
    })
}

fn relation(n: usize, m: usize, salt: i64) -> Vec<Vec<Elem>> {
    (0..n)
        .map(|i| {
            (0..m)
                .map(|c| (i as i64 * 5 + salt + c as i64) % 7)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tile_feed_injects_exactly_the_gathered_tables(
        n_a in 1usize..=40,
        n_b in 1usize..=40,
        m in 1usize..=4,
        max_a in 1usize..=12,
        max_b in 1usize..=12,
        strict in any::<bool>(),
    ) {
        let seed = if strict { Seed::StrictLower } else { Seed::All };
        let limits = ArrayLimits::new(max_a, max_b, m);
        let (a, b) = (relation(n_a, m, 0), relation(n_b, m, 3));
        let (tables, budget) = gathered(&a, &b, m, limits, seed);
        let stream = TileStream::new(n_a, n_b, m, limits, seed);
        let mut t = TMatrix::new(n_a, n_b);
        let mut feed = TileFeed::new(&a, &b, seed, m, stream.rows, &stream.runs, &mut t);
        let horizon = tables.iter().map(ScheduleFeeder::horizon).max().unwrap_or(0);
        prop_assert_eq!(feed.horizon(), horizon);
        if horizon > 0 {
            prop_assert_eq!(feed.budget, budget);
        }
        for pulse in 0..horizon + 4 {
            let put = put_at(&mut feed, pulse);
            for (edge, table) in tables.iter().enumerate() {
                prop_assert_eq!(&put[edge][..], table.at(pulse), "edge {} at pulse {}", edge, pulse);
            }
        }
    }

    #[test]
    fn tile_stream_expands_to_the_nested_chunk_loop(
        n_a in 0usize..=40,
        n_b in 0usize..=40,
        m in 1usize..=7,
        max_a in 1usize..=12,
        max_b in 1usize..=12,
        max_cols in 1usize..=3,
        strict in any::<bool>(),
    ) {
        let seed = if strict { Seed::StrictLower } else { Seed::All };
        let limits = ArrayLimits::new(max_a, max_b, max_cols);
        let stream = TileStream::new(n_a, n_b, m, limits, seed);
        let (rows, live, dead) = nested_chunk_loop(n_a, n_b, limits, seed);
        prop_assert_eq!(stream.rows, rows);
        prop_assert_eq!(stream.blocks().collect::<Vec<_>>(), live.clone());
        prop_assert_eq!(stream.tiles(), live.len() as u64);
        prop_assert_eq!(stream.dead, dead);
        // At most two runs per `A`-chunk, and two column-group widths
        // covering the tuple once.
        prop_assert!(stream.runs.len() <= 2 * n_a.div_ceil(max_a));
        let widths: Vec<usize> = (0..m)
            .step_by(max_cols)
            .map(|c0| (c0 + max_cols).min(m) - c0)
            .collect();
        let expanded: Vec<usize> = stream
            .groups
            .iter()
            .flat_map(|&(w, count)| std::iter::repeat_n(w, count as usize))
            .collect();
        prop_assert_eq!(expanded, widths);
    }
}
