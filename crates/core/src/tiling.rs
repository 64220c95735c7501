//! Problem decomposition onto a fixed-size array (§8).
//!
//! "While such an array would be large enough for many applications, it is
//! also possible to use the array to solve problems that will not fit
//! entirely on it. This calls for the technique of decomposing problems. ...
//! In the intersection problem, consider the matrix, T, of results. For a
//! large problem, one can simply partition this matrix into sub-problems
//! small enough to fit on the array; each of these sub-problems would
//! generate a piece of the matrix."
//!
//! A physical array of bounded size is reused sequentially over tiles of
//! `A`-rows x `B`-rows x column groups; partial results are combined outside
//! the array (§9: "results from subrelations must be stored outside the
//! systolic arrays before they are finally combined") — AND across column
//! groups, then OR across `B` tiles for membership-style operations.
//!
//! The decomposition is built once, as a [`TileStream`]: the physical
//! rows, the column groups, the live tiles as runs of identical tiles and
//! the pairs left in dead ones. Each run's timing has one home
//! (`Run::timing`, from [`CompareSchedule`]). The pipelined tiler's feed
//! expands the runs tile by tile, the drained tiler runs the same tiles
//! one grid each, the closed forms in [`crate::kernel`] fold the runs
//! without expanding them, and `perfmodel`'s §8 capacity model prices the
//! same stream through [`crate::ops`].

use std::ops::Range;

use systolic_fabric::{
    CompareFeed, CompareGrid, CompareOp, CompareSchedule, EastEdge, Elem, TraceFrame, WestEdge,
};

use crate::error::Result;
use crate::intersection::SetOpMode;
use crate::matrix::TMatrix;
use crate::stats::ExecStats;

/// The physical capacity of a fixed systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayLimits {
    /// Maximum `A`-tuples per tile (bounds the rows fed from the top).
    pub max_a: usize,
    /// Maximum `B`-tuples per tile (bounds the rows fed from the bottom).
    pub max_b: usize,
    /// Maximum processor columns (bounds the tuple width per pass).
    pub max_cols: usize,
}

impl ArrayLimits {
    /// Build limits; every bound must be at least 1.
    pub fn new(max_a: usize, max_b: usize, max_cols: usize) -> Self {
        assert!(
            max_a > 0 && max_b > 0 && max_cols > 0,
            "limits must be positive"
        );
        ArrayLimits {
            max_a,
            max_b,
            max_cols,
        }
    }

    /// Physical processor count of the array these limits describe
    /// (comparison columns only).
    pub fn cells(&self) -> usize {
        (self.max_a + self.max_b - 1) * self.max_cols
    }
}

/// The west-edge seed of a tiled comparison: which pairs `(i, j)` of
/// `A x B` may come out TRUE at all. The tilers, their closed forms in
/// [`crate::kernel`] and every price built on them read the same two cases,
/// so a tile the seed rules out is skipped alike in all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seed {
    /// Every pair is seeded TRUE: intersection, difference, join.
    All,
    /// Only pairs `i > j` are seeded TRUE: §5's remove-duplicates array,
    /// which compares a relation with itself so that row `i` of `T` marks
    /// the earlier tuples equal to tuple `i`.
    StrictLower,
}

impl Seed {
    /// The seed of the global pair `(i, j)`.
    pub fn at(self, i: usize, j: usize) -> bool {
        match self {
            Seed::All => true,
            Seed::StrictLower => i > j,
        }
    }

    /// The first `i` for which the pair `(a0 + i, d - i)` is seeded TRUE:
    /// along such a diagonal the seeds are FALSE before it and TRUE from it.
    pub(crate) fn first_true(self, a0: usize, d: usize) -> usize {
        match self {
            Seed::All => 0,
            // a0 + i > d - i
            Seed::StrictLower => d.checked_sub(a0).map_or(0, |gap| gap / 2 + 1),
        }
    }

    /// Whether the tile of `A`-rows below `a1` and `B`-rows from `b0` on
    /// holds a TRUE seed (where its `A`-chunk starts does not matter). A
    /// dead tile's piece of `T` is FALSE before it runs (§8: "each of these
    /// sub-problems would generate a piece of the matrix"), so the tilers
    /// place it on the host and never run it.
    pub fn live(self, a1: usize, b0: usize) -> bool {
        match self {
            Seed::All => true,
            Seed::StrictLower => b0 + 1 < a1,
        }
    }

    /// The end of the live tiles' `B`-rows under the `A`-chunk ending at
    /// `a1`, with `B`'s `n_b` rows cut into chunks of `max_b`. [`Self::live`]
    /// only falls as `b0` grows, so the live tiles are the chunks starting
    /// below this end: a prefix of `B`'s chunks.
    pub fn live_rows(self, a1: usize, n_b: usize, max_b: usize) -> usize {
        match self {
            Seed::All => n_b,
            Seed::StrictLower => (a1.saturating_sub(1).div_ceil(max_b) * max_b).min(n_b),
        }
    }
}

/// Outcome of a tiled run.
#[derive(Debug, Clone)]
pub struct TiledOutcome {
    /// The assembled full matrix `T`.
    pub t: TMatrix,
    /// Sequentially merged statistics over all tile runs.
    pub stats: ExecStats,
}

/// A pair of row ranges, `A`-rows and `B`-rows: one tile of `A x B`.
type Block = (Range<usize>, Range<usize>);

/// §8's decomposition of one comparison, built once and read by everything
/// that runs or prices it (see the module docs). `A` is cut into chunks of
/// `max_a` rows, `B` into chunks of `max_b`, the columns into groups of
/// `max_cols`; every column group streams the same live tiles, `A`-chunks
/// outer and `B`-chunks inner. Under each `A`-chunk the live `B`-chunks
/// are a prefix ([`Seed::live_rows`]) of full chunks and at most one
/// remainder: at most two [`Run`]s, never one entry per tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileStream {
    /// Physical rows of the grid, sized for the largest tile.
    pub(crate) rows: usize,
    /// The column groups as `(width, count)`.
    pub(crate) groups: Vec<(usize, u64)>,
    /// The live tiles in stream order, as runs of identical tiles.
    pub(crate) runs: Vec<Run>,
    /// Pairs in dead tiles: FALSE in `T` before anything runs.
    pub(crate) dead: usize,
}

/// `count` identical `ta x tb` tiles, one after another: `A`-rows
/// `a0..a0 + ta` against the `B`-chunks starting at `b0`, `b0 + tb`, ...
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// `A`-rows per tile.
    pub ta: usize,
    /// `B`-rows per tile.
    pub tb: usize,
    /// Tiles in the run.
    pub count: u64,
    /// First `A`-row of every tile.
    pub a0: usize,
    /// First `B`-row of the first tile.
    pub b0: usize,
}

/// The sizes (and their multiplicities) a length-`n` axis decomposes into
/// under a per-tile bound of `max`: `n / max` full chunks and at most one
/// remainder.
pub(crate) fn chunks(n: usize, max: usize) -> impl Iterator<Item = (usize, u64)> {
    [(max, (n / max) as u64), (n % max, 1)]
        .into_iter()
        .filter(|&(size, count)| size > 0 && count > 0)
}

impl TileStream {
    /// Decompose `n_a x n_b` pairs of `m`-wide tuples onto an array bounded
    /// by `limits`, keeping only the tiles `seed` leaves live.
    pub fn new(n_a: usize, n_b: usize, m: usize, limits: ArrayLimits, seed: Seed) -> Self {
        assert!(m > 0, "tuple width must be positive");
        let (mut runs, mut live) = (Vec::new(), 0);
        for a0 in (0..n_a).step_by(limits.max_a) {
            let (ta, mut b0) = ((a0 + limits.max_a).min(n_a) - a0, 0);
            for (tb, count) in chunks(seed.live_rows(a0 + ta, n_b, limits.max_b), limits.max_b) {
                runs.push(Run {
                    ta,
                    tb,
                    count,
                    a0,
                    b0,
                });
                b0 += tb * count as usize;
            }
            live += ta * b0;
        }
        TileStream {
            rows: (limits.max_a.min(n_a) + limits.max_b.min(n_b))
                .saturating_sub(1)
                .max(1),
            groups: chunks(m, limits.max_cols).collect(),
            runs,
            dead: n_a * n_b - live,
        }
    }

    /// The live tiles in stream order, as runs of identical tiles.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Live tiles: the array runs of one column group.
    pub(crate) fn tiles(&self) -> u64 {
        self.runs.iter().map(|run| run.count).sum()
    }

    /// The live tiles one by one, in stream order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = Block> + '_ {
        self.runs.iter().flat_map(|run| {
            (0..run.count as usize).map(|k| {
                let b0 = run.b0 + k * run.tb;
                (run.a0..run.a0 + run.ta, b0..b0 + run.tb)
            })
        })
    }
}

impl Run {
    /// Where each tile of this run puts its traffic on a `rows`-row grid
    /// comparing `m` columns, in pulses after the tile's own offset.
    pub(crate) fn timing(self, rows: usize, m: usize) -> TileTiming {
        let sched = CompareSchedule::new(self.ta, self.tb, m);
        debug_assert!(sched.rows() <= rows);
        // Edge tiles are smaller than the physical grid: the schedule's
        // row arithmetic assumes the B stream enters sched.rows() - 1 rows
        // below the top, but it physically enters at row rows - 1. Delaying
        // the A stream (and the t seeds, and the exit pulses) by the
        // difference restores the meeting geometry.
        let delta = (rows - sched.rows()) as u64;
        let late = |(first, last): (u64, u64)| (first + delta, last + delta);
        // Every edge's traffic grows with `i`, `j` and `c`, so its window
        // runs from pair (0, 0) to the last pair (i, j).
        let (i, j) = (self.ta - 1, self.tb - 1);
        let windows = [
            late((sched.a_injection(0, 0), sched.a_injection(i, m - 1))),
            (sched.b_injection(0, 0), sched.b_injection(j, m - 1)),
            late((sched.t_injection(0, 0).1, sched.t_injection(i, j).1)),
            late((sched.t_exit_pulse(0, 0), sched.t_exit_pulse(i, j))),
        ];
        let last_inject = windows[NORTH].1.max(windows[SOUTH].1);
        TileTiming {
            sched,
            windows,
            // An A or B word injected at pulse p leaves the grid after row
            // rows - 1, at pulse p + rows - 1; a seed injected at p crosses
            // the m columns and exits at p + m - 1.
            quiet: (last_inject + rows as u64 - 1).max(windows[WEST].1 + m as u64 - 1),
            horizon: last_inject.max(windows[WEST].1) + 1,
            // The next tile streams in right behind this one: its first
            // injection lands two pulses (one tuple slot) after our last.
            advance: last_inject + 2,
        }
    }
}

/// One tile's traffic in time, in pulses after its offset in the stream:
/// the one home of the arithmetic [`TileFeed`] streams and
/// [`crate::kernel`] prices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileTiming {
    pub sched: CompareSchedule,
    /// The first and last pulse of the tile's traffic on each edge
    /// (`NORTH`, `SOUTH`, `WEST`: injections; `EAST`: verdicts).
    pub windows: [(u64, u64); 4],
    /// The pulse during which the tile's last word is consumed.
    pub quiet: u64,
    /// One past the tile's last injection.
    pub horizon: u64,
    /// The gap to the next tile's offset.
    pub advance: u64,
}

/// Run `pass(c0, a, b, ops)` once per column group of `groups`, `c0` its
/// first column, in sequence, and AND the groups' `T` blocks outside the
/// array: tuple equality over all columns is the AND over groups. Every
/// group carries the caller's [`Seed`] — ANDing it once is ANDing it in
/// every group — so a tile that is dead in one group is dead in all of
/// them.
fn by_column_groups(
    a: &[Vec<Elem>],
    b: &[Vec<Elem>],
    ops: &[CompareOp],
    groups: &[(usize, u64)],
    mut pass: impl FnMut(usize, &[Vec<Elem>], &[Vec<Elem>], &[CompareOp]) -> Result<TiledOutcome>,
) -> Result<TiledOutcome> {
    if groups == [(ops.len(), 1)] {
        return pass(0, a, b, ops);
    }
    let group = |rows: &[Vec<Elem>], c0, c1| -> Vec<Vec<Elem>> {
        rows.iter().map(|row| row[c0..c1].to_vec()).collect()
    };
    let mut out: Option<TiledOutcome> = None;
    let mut c0 = 0;
    for &(w, count) in groups {
        for _ in 0..count {
            let c1 = c0 + w;
            let next = pass(c0, &group(a, c0, c1), &group(b, c0, c1), &ops[c0..c1])?;
            c0 = c1;
            out = Some(match out {
                None => next,
                Some(mut acc) => {
                    acc.t.and_assign(&next.t);
                    acc.stats.merge_sequential(&next.stats);
                    acc
                }
            });
        }
    }
    Ok(out.expect("at least one column group"))
}

/// Compute the full `T` matrix with an array bounded by `limits`, tiling
/// over column groups, `A`-chunks and `B`-chunks, the array draining
/// between tiles. `seed` supplies the west-edge seed per *global* pair
/// index; only its live tiles run, and the rest of `T` stays FALSE.
pub fn t_matrix_tiled(
    a: &[Vec<Elem>],
    b: &[Vec<Elem>],
    ops: &[CompareOp],
    limits: ArrayLimits,
    seed: Seed,
) -> Result<TiledOutcome> {
    let stream = TileStream::new(a.len(), b.len(), ops.len(), limits, seed);
    by_column_groups(a, b, ops, &stream.groups, |_, a, b, ops| {
        let mut t = TMatrix::new(a.len(), b.len());
        let mut stats = ExecStats::default();
        for block in stream.blocks() {
            let out = run_tile(a, b, ops, seed, block, &mut t, false)?;
            stats.merge_sequential(&out.stats);
        }
        Ok(TiledOutcome { t, stats })
    })
}

/// Compute the full `T` matrix on a bounded array with *pipelined* tiles:
/// instead of letting the grid drain between sub-problems (as
/// [`t_matrix_tiled`] does, one `run_until_quiescent` per tile), successive
/// tiles' input streams are injected back-to-back into the *same running
/// grid*, separated only by the two-pulse tuple spacing the §3.2 schedule
/// already requires. This is the "extensive pipelining" of §1 applied
/// across sub-problems: the fill/drain cost is paid once per *problem*
/// instead of once per *tile*, roughly halving total pulses for large tile
/// counts. As in [`t_matrix_tiled`], only the `seed`'s live tiles stream.
///
/// A tuple wider than `limits.max_cols` runs one such pass per column
/// group, in sequence, each on its own grid (comparators are per column)
/// and ANDed as in [`t_matrix_tiled`].
pub fn t_matrix_tiled_pipelined(
    a: &[Vec<Elem>],
    b: &[Vec<Elem>],
    ops: &[CompareOp],
    limits: ArrayLimits,
    seed: Seed,
) -> Result<TiledOutcome> {
    pipelined_run(a, b, ops, limits, seed, None)
}

/// [`t_matrix_tiled_pipelined`], with the pass of the column group starting
/// at column `short` given a budget one pulse short — only used by tests
/// to prove every group's budget is *exact*.
fn pipelined_run(
    a: &[Vec<Elem>],
    b: &[Vec<Elem>],
    ops: &[CompareOp],
    limits: ArrayLimits,
    seed: Seed,
    short: Option<usize>,
) -> Result<TiledOutcome> {
    let stream = TileStream::new(a.len(), b.len(), ops.len(), limits, seed);
    by_column_groups(a, b, ops, &stream.groups, |c0, a, b, ops| {
        let trim = u64::from(short == Some(c0));
        let mut t = TMatrix::new(a.len(), b.len());
        if stream.runs.is_empty() {
            // No live tile: `T` is all FALSE and no grid is built.
            return Ok(TiledOutcome {
                t,
                stats: ExecStats::default(),
            });
        }
        let mut feed = TileFeed::new(a, b, seed, ops.len(), stream.rows, &stream.runs, &mut t);
        let out = run_feed(&mut feed, ops, false, trim)?;
        // The dead tiles' pairs are in place already, FALSE.
        complete(stream.dead + out.placed, a.len() * b.len())?;
        let mut stats = out.stats;
        stats.array_runs = stream.tiles();
        Ok(TiledOutcome { t, stats })
    })
}

/// Run the one tile `block` of `A x B` alone on a grid of its own size,
/// drained, placing its verdicts in `t`: §3.2's whole array when the block
/// is the whole problem. Every verdict must be one the tile scheduled, and
/// every pair of the tile must be placed.
pub(crate) fn run_tile(
    a: &[Vec<Elem>],
    b: &[Vec<Elem>],
    ops: &[CompareOp],
    seed: Seed,
    block: Block,
    t: &mut TMatrix,
    trace: bool,
) -> Result<Streamed> {
    let (ta, tb) = (block.0.len(), block.1.len());
    let rows = (ta + tb).saturating_sub(1).max(1);
    let run = Run {
        ta,
        tb,
        count: 1,
        a0: block.0.start,
        b0: block.1.start,
    };
    let mut feed = TileFeed::new(a, b, seed, ops.len(), rows, &[run], t);
    let out = run_feed(&mut feed, ops, trace, 0)?;
    if out.discarded > 0 {
        return Err(crate::error::CoreError::ScheduleViolation {
            detail: format!("{} verdicts left the east edge off schedule", out.discarded),
        });
    }
    complete(out.placed, ta * tb)?;
    Ok(out)
}

/// Fail unless all `expected` results of a run were seen.
fn complete(seen: usize, expected: usize) -> Result<()> {
    if seen == expected {
        return Ok(());
    }
    Err(crate::error::CoreError::ScheduleViolation {
        detail: format!("expected {expected} results, saw {seen}"),
    })
}

/// What a comparison-grid run over a stream of tiles leaves besides `T`.
pub(crate) struct Streamed {
    /// Run statistics (one array run).
    pub stats: ExecStats,
    /// Per-pulse wire snapshots, if tracing was requested.
    pub frames: Vec<TraceFrame>,
    /// Verdicts placed in `T`.
    pub placed: usize,
    /// Verdicts at pulses and rows no tile scheduled.
    pub discarded: usize,
}

/// Drive a fresh comparison grid on `feed` to quiescence within the feed's
/// exact budget less `trim`.
fn run_feed(feed: &mut TileFeed, ops: &[CompareOp], trace: bool, trim: u64) -> Result<Streamed> {
    let mut grid = CompareGrid::new(feed.rows, ops);
    if trace {
        grid.enable_tracing();
    }
    grid.run_until_quiescent(feed, feed.budget.saturating_sub(trim))?;
    Ok(Streamed {
        stats: ExecStats::from_grid(grid.stats(), grid.cell_count()),
        frames: grid.trace_frames().to_vec(),
        placed: feed.placed,
        discarded: feed.discarded,
    })
}

/// Edge indices into [`TileTiming::windows`] and [`TileFeed::open`].
pub(crate) const NORTH: usize = 0;
pub(crate) const SOUTH: usize = 1;
const WEST: usize = 2;
const EAST: usize = 3;

/// One tile of a stream, placed in time: `A`-rows `a0..a0 + sched.n_a`
/// against `B`-rows `b0..b0 + sched.n_b`, its traffic on each edge in its
/// `windows`.
#[derive(Debug, Clone, Copy)]
struct StreamTile {
    sched: CompareSchedule,
    a0: usize,
    b0: usize,
    /// The first and last pulse of the tile's traffic on each edge
    /// (`NORTH`, `SOUTH`, `WEST`: injections; `EAST`: verdicts).
    windows: [(u64, u64); 4],
}

/// The boundary of a comparison grid through which tiles stream back to
/// back (§8 with §1's pipelining). Nothing is tabulated: each pulse's words
/// are found by inverting the open tiles' [`CompareSchedule`]s, and of the
/// east column only the rows those schedules name at the pulse are read,
/// straight into `T`.
struct TileFeed<'r> {
    a: &'r [Vec<Elem>],
    b: &'r [Vec<Elem>],
    seed: Seed,
    tiles: Vec<StreamTile>,
    /// Per edge, the tiles whose window has opened and not yet been passed.
    open: [Open; 4],
    /// Physical rows of the grid.
    rows: usize,
    /// The pulse at which the grid falls quiet: the exact run budget.
    budget: u64,
    /// One past the last injection.
    horizon: u64,
    t: &'r mut TMatrix,
    placed: usize,
    discarded: usize,
}

impl<'r> TileFeed<'r> {
    /// Stream the tiles of `runs` in order through a `rows`-row grid
    /// comparing tuples of width `m`, placing verdicts in `t`: tile `k` of a
    /// run sits `k` advances after the run's first, and each run starts one
    /// advance after the last tile of the one before.
    fn new(
        a: &'r [Vec<Elem>],
        b: &'r [Vec<Elem>],
        seed: Seed,
        m: usize,
        rows: usize,
        runs: &[Run],
        t: &'r mut TMatrix,
    ) -> Self {
        let mut tiles = Vec::new();
        let (mut offset, mut horizon, mut quiet) = (0u64, 0u64, 0u64);
        for &run in runs {
            let time = run.timing(rows, m);
            for k in 0..run.count {
                let at = offset + k * time.advance;
                tiles.push(StreamTile {
                    sched: time.sched,
                    a0: run.a0,
                    b0: run.b0 + k as usize * run.tb,
                    windows: time.windows.map(|(first, last)| (first + at, last + at)),
                });
            }
            let last = offset + (run.count - 1) * time.advance;
            quiet = quiet.max(last + time.quiet);
            horizon = horizon.max(last + time.horizon);
            offset += run.count * time.advance;
        }
        TileFeed {
            a,
            b,
            seed,
            tiles,
            open: Default::default(),
            rows,
            // Exact budget: the last word in flight is consumed during the
            // step at pulse `quiet`, so the grid is quiescent exactly at
            // pulse `quiet + 1` and not one pulse sooner. The tightness
            // test proves both directions: one pulse less must fail with
            // `NotQuiescent`.
            budget: quiet + 1,
            horizon,
            t,
            placed: 0,
            discarded: 0,
        }
    }
}

impl StreamTile {
    /// The tile's pairs `(i, s - i)` whose traffic on `edge` (`WEST`: seeds,
    /// `EAST`: verdicts) is at `pulse`, `s` pulses after pair (0, 0)'s, as
    /// `(s, first i, last i)`; `None` outside the window.
    fn diagonal(&self, pulse: u64, edge: usize) -> Option<(usize, usize, usize)> {
        let s = pulse.checked_sub(self.windows[edge].0)? as usize;
        let (lo, hi) = (
            s.saturating_sub(self.sched.n_b - 1),
            s.min(self.sched.n_a - 1),
        );
        (lo <= hi).then_some((s, lo, hi))
    }

    /// The row on which pair `(i, s - i)` meets: `n_a - 1 + j - i`.
    fn row(&self, s: usize, i: usize) -> usize {
        self.sched.n_a - 1 + s - 2 * i
    }

    /// The rows of the pairs `(i, s - i)` for `i` in `lo..=hi`, every other
    /// row from `row(s, hi)` to `row(s, lo)`, as `(word, rows)` per plane
    /// word they touch.
    fn rows(&self, s: usize, lo: usize, hi: usize) -> impl Iterator<Item = (usize, u64)> {
        let (first, last) = (self.row(s, hi), self.row(s, lo));
        let parity = 0x5555_5555_5555_5555u64 << (first % 2);
        let below = move |w| first.checked_sub(1).map_or(0, |r| through(w, r));
        (first / 64..=last / 64).map(move |w| (w, parity & through(w, last) & !below(w)))
    }
}

impl CompareFeed for TileFeed<'_> {
    fn horizon(&self) -> u64 {
        self.horizon
    }

    fn north(&mut self, pulse: u64, mut put: impl FnMut(usize, Elem)) {
        let open = self.open[NORTH].at(&self.tiles, pulse, NORTH);
        for tile in &self.tiles[open] {
            let tuples = &self.a[tile.a0..tile.a0 + tile.sched.n_a];
            put_elements(tuples, pulse - tile.windows[NORTH].0, &mut put);
        }
    }

    fn south(&mut self, pulse: u64, mut put: impl FnMut(usize, Elem)) {
        let open = self.open[SOUTH].at(&self.tiles, pulse, SOUTH);
        for tile in &self.tiles[open] {
            let tuples = &self.b[tile.b0..tile.b0 + tile.sched.n_b];
            put_elements(tuples, pulse - tile.windows[SOUTH].0, &mut put);
        }
    }

    fn west(&mut self, pulse: u64, seeds: &mut WestEdge<'_>) {
        let open = self.open[WEST].at(&self.tiles, pulse, WEST);
        for tile in &self.tiles[open] {
            // The seed of pair (i, j) enters row n_a - 1 + j - i when its
            // first elements meet there, i + j pulses after pair (0, 0)'s.
            // Along the diagonal the seeds are FALSE up to some `i` and
            // TRUE from it on, so the TRUE ones fill the lowest rows.
            let Some((s, lo, hi)) = tile.diagonal(pulse, WEST) else {
                continue;
            };
            let from = self.seed.first_true(tile.a0, tile.b0 + s).max(lo);
            for (w, rows) in tile.rows(s, lo, hi) {
                let trues = if from <= hi {
                    rows & through(w, tile.row(s, from))
                } else {
                    0
                };
                seeds.put_word(w, rows, trues);
            }
        }
    }

    fn east(&mut self, pulse: u64, verdicts: &mut EastEdge<'_>) {
        let open = self.open[EAST].at(&self.tiles, pulse, EAST);
        for tile in &self.tiles[open] {
            // Two scheduled verdicts never share one `(row, pulse)` wire;
            // if they did, the first tile to name the row would take it.
            // `T` starts FALSE, so only the TRUE verdicts are written.
            let Some((s, lo, hi)) = tile.diagonal(pulse, EAST) else {
                continue;
            };
            for (w, rows) in tile.rows(s, lo, hi) {
                let (taken, mut trues) = verdicts.take_word(w, rows);
                self.placed += taken.count_ones() as usize;
                while trues != 0 {
                    let row = 64 * w + trues.trailing_zeros() as usize;
                    trues &= trues - 1;
                    let i = (tile.row(s, 0) - row) / 2;
                    self.t.set(tile.a0 + i, tile.b0 + s - i, true);
                }
            }
        }
        // With tiles streaming back-to-back, words of adjacent tiles cross
        // inside the grid and compare as they pass; those don't-care
        // verdicts exit at rows no tile names at this pulse and the
        // controller discards them (exactly as a §9 controller gates result
        // capture by schedule). The completeness check still guarantees
        // every *scheduled* result arrived.
        self.discarded += verdicts.len();
    }
}

/// The bits of plane word `w` for rows up to and including `row`.
fn through(w: usize, row: usize) -> u64 {
    match (row + 1).saturating_sub(64 * w) {
        n if n >= 64 => u64::MAX,
        n => (1 << n) - 1,
    }
}

/// Put the elements of `tuples` that enter their edge `d` pulses after the
/// first: element `c` of tuple `i` enters at `2i + c` (§3.2: tuples two
/// pulses apart, their elements staggered one pulse apart).
fn put_elements(tuples: &[Vec<Elem>], d: u64, put: &mut impl FnMut(usize, Elem)) {
    let (d, m) = (d as usize, tuples[0].len());
    let last = 2 * (tuples.len() - 1);
    // `c` shares `d`'s parity, and `i = (d - c) / 2` must be a tuple.
    let first = if d > last { d - last } else { d % 2 };
    for c in (first..m.min(d + 1)).step_by(2) {
        put(c, tuples[(d - c) / 2][c]);
    }
}

/// The tiles whose window on one edge may hold the current pulse. On every
/// edge the windows open in stream order (a tile's traffic starts after the
/// last tile's last injection, which follows that tile's own start on any
/// edge), and pulses only grow, so both ends only move forward.
#[derive(Debug, Default)]
struct Open {
    lo: usize,
    hi: usize,
}

impl Open {
    /// The open tiles' indices at `pulse` on `edge`. A tile in the range
    /// may have closed already; its schedule then finds nothing.
    fn at(&mut self, tiles: &[StreamTile], pulse: u64, edge: usize) -> Range<usize> {
        while self.hi < tiles.len() && tiles[self.hi].windows[edge].0 <= pulse {
            self.hi += 1;
        }
        while self.lo < self.hi && tiles[self.lo].windows[edge].1 < pulse {
            self.lo += 1;
        }
        self.lo..self.hi
    }
}

/// Membership outcome of a tiled intersection/difference: one keep-flag per
/// tuple of `A`, computed by ORing partial results across `B`-tiles outside
/// the array.
pub fn membership_tiled(
    a: &[Vec<Elem>],
    b: &[Vec<Elem>],
    mode: SetOpMode,
    limits: ArrayLimits,
    seed: Seed,
) -> Result<(Vec<bool>, ExecStats)> {
    let m = a.first().map(|r| r.len()).unwrap_or(1);
    let ops = vec![CompareOp::Eq; m];
    let out = t_matrix_tiled(a, b, &ops, limits, seed)?;
    let t = out.t.row_ors();
    let keep = match mode {
        SetOpMode::Intersect => t,
        SetOpMode::Difference => t.into_iter().map(|x| !x).collect(),
    };
    Ok((keep, out.stats))
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::ComparisonArray2d;
    use crate::intersection::IntersectionArray;

    fn relation(n: usize, m: usize, seed: i64) -> Vec<Vec<Elem>> {
        // Deterministic pseudo-data with collisions across seeds.
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|c| ((i as i64 * 7 + seed) % 11) + c as i64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tiled_matrix_equals_whole_array_matrix() {
        let a = relation(13, 3, 0);
        let b = relation(9, 3, 3);
        let ops = vec![CompareOp::Eq; 3];
        let whole = ComparisonArray2d::equality(3)
            .t_matrix(&a, &b, Seed::All)
            .unwrap();
        for limits in [
            ArrayLimits::new(4, 4, 3),
            ArrayLimits::new(5, 3, 2),
            ArrayLimits::new(1, 1, 1),
            ArrayLimits::new(100, 100, 100),
        ] {
            let tiled = t_matrix_tiled(&a, &b, &ops, limits, Seed::All).unwrap();
            assert_eq!(tiled.t, whole.t, "limits {limits:?}");
        }
    }

    #[test]
    fn tiled_membership_equals_whole_array_membership() {
        let a = relation(12, 2, 0);
        let b = relation(10, 2, 5);
        let whole = IntersectionArray::new(2)
            .run(&a, &b, SetOpMode::Intersect)
            .unwrap();
        let (keep, _) = membership_tiled(
            &a,
            &b,
            SetOpMode::Intersect,
            ArrayLimits::new(4, 3, 2),
            Seed::All,
        )
        .unwrap();
        assert_eq!(keep, whole.keep);
        let whole_d = IntersectionArray::new(2)
            .run(&a, &b, SetOpMode::Difference)
            .unwrap();
        let (keep_d, _) = membership_tiled(
            &a,
            &b,
            SetOpMode::Difference,
            ArrayLimits::new(4, 3, 2),
            Seed::All,
        )
        .unwrap();
        assert_eq!(keep_d, whole_d.keep);
    }

    #[test]
    fn masked_tiling_preserves_triangle_suppression() {
        // Remove-duplicates semantics must survive decomposition.
        let rows: Vec<Vec<Elem>> = vec![vec![4], vec![4], vec![5], vec![4], vec![5]];
        let (dup, _) = membership_tiled(
            &rows,
            &rows,
            SetOpMode::Intersect,
            ArrayLimits::new(2, 2, 1),
            Seed::StrictLower,
        )
        .unwrap();
        // dup[i] TRUE iff an earlier equal tuple exists.
        assert_eq!(dup, vec![false, true, false, true, true]);
    }

    #[test]
    fn column_groups_are_anded() {
        // Rows equal in the first column group but not the second must not
        // count as equal.
        let a = vec![vec![1, 2, 3, 9]];
        let b = vec![vec![1, 2, 3, 8]];
        let ops = vec![CompareOp::Eq; 4];
        let out = t_matrix_tiled(&a, &b, &ops, ArrayLimits::new(4, 4, 2), Seed::All).unwrap();
        assert!(!out.t.get(0, 0));
    }

    #[test]
    fn tile_count_and_physical_size_are_reported() {
        let a = relation(8, 2, 0);
        let b = relation(8, 2, 1);
        let limits = ArrayLimits::new(4, 4, 2);
        let ops = vec![CompareOp::Eq; 2];
        let out = t_matrix_tiled(&a, &b, &ops, limits, Seed::All).unwrap();
        assert_eq!(out.stats.array_runs, 4, "2x2 tile grid");
        // The physical array is never larger than the limits allow.
        assert!(out.stats.cells <= limits.cells() + limits.max_a + limits.max_b);
    }

    #[test]
    fn decomposition_costs_more_total_pulses() {
        // Sequential reuse of a small array trades time for hardware.
        let a = relation(16, 2, 0);
        let b = relation(16, 2, 2);
        let ops = vec![CompareOp::Eq; 2];
        let whole = t_matrix_tiled(&a, &b, &ops, ArrayLimits::new(100, 100, 2), Seed::All).unwrap();
        let tiled = t_matrix_tiled(&a, &b, &ops, ArrayLimits::new(4, 4, 2), Seed::All).unwrap();
        assert!(tiled.stats.pulses > whole.stats.pulses);
        assert!(tiled.stats.cells < whole.stats.cells);
        assert_eq!(tiled.t, whole.t);
    }

    #[test]
    fn pipelined_tiling_matches_sequential_tiling() {
        let a = relation(13, 2, 0);
        let b = relation(17, 2, 3);
        let ops = vec![CompareOp::Eq; 2];
        let whole = ComparisonArray2d::equality(2)
            .t_matrix(&a, &b, Seed::All)
            .unwrap();
        for limits in [
            ArrayLimits::new(4, 4, 2),
            ArrayLimits::new(5, 3, 2),
            ArrayLimits::new(1, 1, 2),
            ArrayLimits::new(100, 100, 2),
        ] {
            let piped = t_matrix_tiled_pipelined(&a, &b, &ops, limits, Seed::All).unwrap();
            assert_eq!(piped.t, whole.t, "limits {limits:?}");
        }
    }

    #[test]
    fn pipelined_tiling_is_faster_than_sequential_tiling() {
        let a = relation(32, 2, 0);
        let b = relation(32, 2, 5);
        let ops = vec![CompareOp::Eq; 2];
        let limits = ArrayLimits::new(4, 4, 2);
        let sequential = t_matrix_tiled(&a, &b, &ops, limits, Seed::All).unwrap();
        let piped = t_matrix_tiled_pipelined(&a, &b, &ops, limits, Seed::All).unwrap();
        assert_eq!(sequential.t, piped.t);
        assert_eq!(sequential.stats.array_runs, piped.stats.array_runs);
        assert!(
            piped.stats.pulses * 3 < sequential.stats.pulses * 2,
            "pipelined {} vs sequential {} pulses",
            piped.stats.pulses,
            sequential.stats.pulses
        );
    }

    #[test]
    fn pipelined_tiling_preserves_masks() {
        let rows: Vec<Vec<Elem>> = vec![vec![4], vec![4], vec![5], vec![4], vec![5]];
        let ops = vec![CompareOp::Eq];
        let out = t_matrix_tiled_pipelined(
            &rows,
            &rows,
            &ops,
            ArrayLimits::new(2, 2, 1),
            Seed::StrictLower,
        )
        .unwrap();
        let expect = TMatrix::from_fn(5, 5, |i, j| i > j && rows[i] == rows[j]);
        assert_eq!(out.t, expect);
    }

    #[test]
    fn pipelined_exit_decode_places_every_result() {
        // Each case stresses one part of the exit table: one tile that is
        // the whole problem, edge tiles shorter than the grid (the `delta`
        // shift), one-tuple tiles, and a seed that leaves whole columns of
        // T FALSE and whole tiles dead (dedup's `i > j` empties the last
        // column).
        let ops = vec![CompareOp::Eq, CompareOp::Le];
        for (n_a, n_b, limits) in [
            (6, 4, ArrayLimits::new(8, 8, 2)),
            (13, 17, ArrayLimits::new(5, 3, 2)),
            (7, 9, ArrayLimits::new(4, 6, 2)),
            (5, 6, ArrayLimits::new(1, 1, 2)),
            (1, 1, ArrayLimits::new(1, 1, 2)),
        ] {
            let a = relation(n_a, 2, 0);
            let b = relation(n_b, 2, 4);
            for seed in [Seed::All, Seed::StrictLower] {
                let out = pipelined_run(&a, &b, &ops, limits, seed, None).unwrap();
                let expect = TMatrix::from_fn(n_a, n_b, |i, j| {
                    seed.at(i, j) && a[i][0] == b[j][0] && a[i][1] <= b[j][1]
                });
                assert_eq!(out.t, expect, "{n_a}x{n_b} on {limits:?} {seed:?}");
                assert_eq!(
                    out.stats,
                    crate::kernel::pipelined_stats(n_a, n_b, 2, limits, seed),
                    "{n_a}x{n_b} on {limits:?} {seed:?}"
                );
            }
        }
    }

    /// A verdict that left the east edge: pulse, row, value, and the pair
    /// the schedule assigns it (if any).
    type Verdict = (u64, usize, bool, Option<(usize, usize)>);

    /// A [`TileFeed`] that also records every verdict leaving the east edge.
    struct Spy<'f, 'r> {
        feed: &'f mut TileFeed<'r>,
        verdicts: Vec<Verdict>,
    }

    impl CompareFeed for Spy<'_, '_> {
        fn horizon(&self) -> u64 {
            self.feed.horizon()
        }
        fn north(&mut self, pulse: u64, put: impl FnMut(usize, Elem)) {
            self.feed.north(pulse, put);
        }
        fn south(&mut self, pulse: u64, put: impl FnMut(usize, Elem)) {
            self.feed.south(pulse, put);
        }
        fn west(&mut self, pulse: u64, seeds: &mut WestEdge<'_>) {
            self.feed.west(pulse, seeds);
        }
        fn east(&mut self, pulse: u64, verdicts: &mut EastEdge<'_>) {
            let feed = &mut *self.feed;
            let open = feed.open[EAST].at(&feed.tiles, pulse, EAST);
            for (row, verdict) in verdicts.iter() {
                // The first open tile whose exit diagonal holds `row`.
                let pair = feed.tiles[open.clone()].iter().find_map(|tile| {
                    let (s, lo, hi) = tile.diagonal(pulse, EAST)?;
                    let gap = tile.row(s, 0).checked_sub(row)?;
                    let i = gap / 2;
                    (gap % 2 == 0 && (lo..=hi).contains(&i)).then(|| (tile.a0 + i, tile.b0 + s - i))
                });
                self.verdicts.push((pulse, row, verdict, pair));
            }
            feed.east(pulse, verdicts);
        }
    }

    #[test]
    fn pipelined_exit_sink_places_every_pair_exactly_once() {
        // A short edge tile follows full tiles on both axes, so tile exit
        // windows differ in length and shift. Every pair of a live tile
        // must be placed in `T` exactly once and no pair of a dead one, and
        // the sink's discards are exactly the verdicts no tile scheduled.
        let ops = vec![CompareOp::Eq, CompareOp::Le];
        for (n_a, n_b, limits) in [
            (33, 65, ArrayLimits::new(32, 32, 2)),
            (31, 2, ArrayLimits::new(4, 8, 2)),
            (9, 14, ArrayLimits::new(4, 5, 2)),
        ] {
            let a = relation(n_a, 2, 0);
            let b = relation(n_b, 2, 4);
            for seed in [Seed::All, Seed::StrictLower] {
                let stream = TileStream::new(n_a, n_b, 2, limits, seed);
                let (rows, dead) = (stream.rows, stream.dead);
                let mut t = TMatrix::new(n_a, n_b);
                let mut feed = TileFeed::new(&a, &b, seed, 2, rows, &stream.runs, &mut t);
                let budget = feed.budget;
                let mut spy = Spy {
                    feed: &mut feed,
                    verdicts: Vec::new(),
                };
                let mut grid = CompareGrid::new(rows, &ops);
                grid.run_until_quiescent(&mut spy, budget).unwrap();
                let verdicts = std::mem::take(&mut spy.verdicts);
                let mut hits = vec![0u32; n_a * n_b];
                for &(_, _, v, pair) in &verdicts {
                    if let Some((i, j)) = pair {
                        hits[i * n_b + j] += 1;
                        let expect = seed.at(i, j) && a[i][0] == b[j][0] && a[i][1] <= b[j][1];
                        assert_eq!(v, expect, "T[{i}][{j}] for {n_a}x{n_b} on {limits:?}");
                    }
                }
                for (k, &h) in hits.iter().enumerate() {
                    let (i, j) = (k / n_b, k % n_b);
                    let a1 = (i / limits.max_a * limits.max_a + limits.max_a).min(n_a);
                    let b0 = j / limits.max_b * limits.max_b;
                    assert_eq!(
                        h,
                        u32::from(seed.live(a1, b0)),
                        "{n_a}x{n_b} on {limits:?} {seed:?}: pair ({i}, {j})"
                    );
                }
                let placed = hits.iter().filter(|&&h| h == 1).count();
                let off_schedule = verdicts.iter().filter(|v| v.3.is_none()).count();
                assert_eq!((feed.placed, feed.discarded), (placed, off_schedule));
                assert_eq!(placed + dead, n_a * n_b);
                assert_eq!(placed + off_schedule, verdicts.len());
                assert_eq!(
                    t,
                    TMatrix::from_fn(n_a, n_b, |i, j| {
                        seed.at(i, j) && a[i][0] == b[j][0] && a[i][1] <= b[j][1]
                    })
                );
            }
        }
    }

    #[test]
    fn pipelined_pulse_budget_is_exact() {
        // The derived budget is tight in both directions, in every column
        // group and under either seed: the full budget drains the grid, one
        // pulse less in any one group's pass leaves a word in flight. Under
        // `StrictLower` the one-tuple case has no live tile and builds no
        // grid, so no budget can be short.
        let ops2 = vec![CompareOp::Eq; 2];
        let ops1 = vec![CompareOp::Eq];
        let ops5 = vec![
            CompareOp::Eq,
            CompareOp::Le,
            CompareOp::Eq,
            CompareOp::Ge,
            CompareOp::Eq,
        ];
        let narrow: Vec<Vec<Elem>> = relation(5, 1, 0);
        #[allow(clippy::type_complexity)]
        let cases: Vec<(Vec<Vec<Elem>>, Vec<Vec<Elem>>, Vec<CompareOp>, ArrayLimits)> = vec![
            (
                relation(13, 2, 0),
                relation(17, 2, 3),
                ops2.clone(),
                ArrayLimits::new(4, 4, 2),
            ),
            (
                relation(13, 2, 0),
                relation(17, 2, 3),
                ops2.clone(),
                ArrayLimits::new(100, 100, 2),
            ),
            (
                relation(1, 2, 0),
                relation(1, 2, 1),
                ops2,
                ArrayLimits::new(1, 1, 2),
            ),
            (narrow.clone(), narrow, ops1, ArrayLimits::new(2, 2, 1)),
            // Groups of 2, 2 and 1 columns.
            (
                relation(11, 5, 0),
                relation(7, 5, 3),
                ops5,
                ArrayLimits::new(4, 3, 2),
            ),
        ];
        for (a, b, ops, limits) in &cases {
            for seed in [Seed::All, Seed::StrictLower] {
                let exact =
                    pipelined_run(a, b, ops, *limits, seed, None).expect("the budget must suffice");
                for c0 in (0..ops.len()).step_by(limits.max_cols) {
                    let short = pipelined_run(a, b, ops, *limits, seed, Some(c0));
                    if exact.stats.array_runs == 0 {
                        assert!(short.is_ok(), "{seed:?} on {limits:?}: no grid to starve");
                        continue;
                    }
                    assert!(
                        matches!(short, Err(crate::error::CoreError::Fabric(_))),
                        "budget - 1 must time out for group {c0} on {limits:?} {seed:?}, \
                         got {short:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn grouped_pipelined_matrix_equals_sequential_tiling_under_the_dedup_seed() {
        // Wider tuples than the array has columns: one pipelined pass per
        // column group, ANDed on the host, each seeded and skipping the
        // same dead tiles.
        let rows: Vec<Vec<Elem>> = (0..14)
            .map(|i| (0..5).map(|c| (i % 3 + c * (i % 2)) as Elem).collect())
            .collect();
        for max_cols in 1..=4 {
            let ops = vec![CompareOp::Eq; 5];
            let limits = ArrayLimits::new(4, 3, max_cols);
            let seq = t_matrix_tiled(&rows, &rows, &ops, limits, Seed::StrictLower).unwrap();
            let piped =
                t_matrix_tiled_pipelined(&rows, &rows, &ops, limits, Seed::StrictLower).unwrap();
            assert_eq!(piped.t, seq.t, "max_cols {max_cols}");
            assert_eq!(
                piped.t,
                TMatrix::from_fn(14, 14, |i, j| i > j && rows[i] == rows[j])
            );
            assert_eq!(piped.stats.array_runs, seq.stats.array_runs);
            assert!(piped.stats.pulses < seq.stats.pulses, "max_cols {max_cols}");
        }
    }

    #[test]
    fn live_tiles_are_a_prefix_of_b_chunks_ending_at_live_rows() {
        for seed in [Seed::All, Seed::StrictLower] {
            for max_b in 1..=6 {
                for n_b in 0..=20 {
                    for a1 in 0..=20 {
                        let starts: Vec<usize> = (0..n_b).step_by(max_b).collect();
                        let live = starts.iter().take_while(|&&b0| seed.live(a1, b0)).count();
                        assert!(starts[live..].iter().all(|&b0| !seed.live(a1, b0)));
                        let end = starts.get(live).copied().unwrap_or(n_b);
                        assert_eq!(seed.live_rows(a1, n_b, max_b), end, "{seed:?} {a1} {n_b}");
                    }
                }
            }
        }
    }

    #[test]
    fn strict_lower_keep_flags_equal_the_untiled_remove_duplicates_array() {
        // Every relation size from empty to several tiles per side, with
        // `max_a != max_b` and tuples wider than the array: both tilers
        // skip the dead tiles, and the keep-flags are still §5's.
        let limits = [
            ArrayLimits::new(3, 5, 1),
            ArrayLimits::new(5, 3, 2),
            ArrayLimits::new(2, 7, 2),
            ArrayLimits::new(4, 4, 2),
            ArrayLimits::new(1, 1, 1),
        ];
        let ops = vec![CompareOp::Eq; 2];
        for n in 0..=24usize {
            let rows: Vec<Vec<Elem>> = (0..n)
                .map(|i| vec![(i % 5) as Elem, (i % 3) as Elem])
                .collect();
            let expect = if n == 0 {
                Vec::new()
            } else {
                crate::dedup::RemoveDuplicatesArray::new(2)
                    .run(&rows)
                    .unwrap()
                    .keep
            };
            for limits in limits {
                let seq = t_matrix_tiled(&rows, &rows, &ops, limits, Seed::StrictLower).unwrap();
                let piped = t_matrix_tiled_pipelined(&rows, &rows, &ops, limits, Seed::StrictLower)
                    .unwrap();
                for out in [seq, piped] {
                    let keep: Vec<bool> = out.t.row_ors().into_iter().map(|d| !d).collect();
                    assert_eq!(keep, expect, "n {n} on {limits:?}");
                }
            }
        }
    }

    #[test]
    fn no_live_tile_builds_no_grid_and_charges_nothing() {
        // One tuple compared with itself (a one-row dedup, or the union of
        // nothing with one row) has no pair `i > j`.
        let one = relation(1, 2, 0);
        let ops = vec![CompareOp::Eq; 2];
        for limits in [ArrayLimits::new(4, 4, 2), ArrayLimits::new(1, 1, 1)] {
            let seq = t_matrix_tiled(&one, &one, &ops, limits, Seed::StrictLower).unwrap();
            let piped =
                t_matrix_tiled_pipelined(&one, &one, &ops, limits, Seed::StrictLower).unwrap();
            for out in [seq, piped] {
                assert_eq!(out.t, TMatrix::new(1, 1));
                assert_eq!(out.stats, ExecStats::default(), "{limits:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limits_rejected() {
        ArrayLimits::new(0, 1, 1);
    }
}
