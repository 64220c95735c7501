//! The [`Backend`] choice and the analytic pulse accounting every
//! closed-form run shares, bit-identical to the pulse-accurate simulator.
//!
//! The simulator in this crate steps every cell of an array on every pulse
//! (`fabric::CompareGrid` for the comparison arrays, `fabric::Grid` for the
//! others), so an operator costs `O(pulses x cells)` host time even though
//! the *observable* outcome — the boolean matrix `T` (§3.3), the membership
//! bits (§4), the quotient flags (§7), and the [`ExecStats`] — is a pure
//! function of the inputs and the schedule. [`Backend::Columnar`] computes
//! those observables directly:
//!
//! * **Results** come from the word-plane scans in [`crate::columnar`].
//! * **Statistics** come from this module: the closed-form injection-pulse
//!   arithmetic of [`systolic_fabric::CompareSchedule`] / `FixedSchedule`.
//!   Every word a feeder would inject occupies a known set of cell-pulses,
//!   and the paper's schedules make coincidences (two words meeting in a
//!   cell) exactly enumerable. Each function documents the word-by-word
//!   accounting it replaces. A tiled run is priced from the same
//!   [`TileStream`] the simulator's tilers run, folded run by run, each
//!   run's timing read from the one place the feed reads it. Operators
//!   reach the shape-pure ones only
//!   through the `price_*` functions of [`crate::ops`]; division, whose
//!   cost depends on the data, passes `division[_multi]_stats` the hit
//!   count its scan produced.
//!
//! The invariant — enforced by the differential tests here, in `ops`, and
//! in `tests/backend_differential.rs` — is **bit-identity**: for every
//! operator, every [`crate::ops::Execution`] strategy and every tile
//! shape, the columnar backend produces the same `TMatrix`, the same
//! keep/quotient bits, and the same `ExecStats` (pulses, cells, busy/total
//! cell-pulses, array runs) as running the simulated hardware.
//!
//! One observable intentionally differs: the fabric's *telemetry counters*
//! (`sdb_fabric_*`) do not advance under the columnar backend, because no
//! grid is ever stepped. Everything derived from `ExecStats` — timelines,
//! machine `RunStats`, server frames — is identical.

use systolic_fabric::CompareSchedule;

use crate::stats::ExecStats;
use crate::tiling::{ArrayLimits, Seed, TileStream, NORTH, SOUTH};

/// Environment variable selecting the default backend (`sim` or
/// `columnar`) when a configuration does not set one explicitly — the CI
/// toggle that runs the whole test suite once per backend.
pub const BACKEND_ENV: &str = "SYSTOLIC_BACKEND";

/// How to execute an operator: on the pulse-accurate simulated fabric (the
/// oracle), or in closed form (the fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Step the simulated grid pulse by pulse (the reference semantics).
    #[default]
    Sim,
    /// Results from bit-sliced word-plane scans ([`crate::columnar`]),
    /// stats from the analytic formulas in this module; bit-identical to
    /// [`Self::Sim`].
    Columnar,
}

impl Backend {
    /// Parse a backend name as used by `--backend` and [`BACKEND_ENV`].
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "sim" => Some(Backend::Sim),
            "columnar" => Some(Backend::Columnar),
            _ => None,
        }
    }

    /// The wire/CLI name of this backend.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Columnar => "columnar",
        }
    }

    /// The default backend: [`BACKEND_ENV`] if set, else [`Backend::Sim`].
    /// A value that names no backend is an error, never a silent `Sim` — a
    /// stale toggle would otherwise run a whole suite on the wrong backend
    /// and report green.
    pub fn from_env() -> Result<Backend, String> {
        let Some(value) = std::env::var_os(BACKEND_ENV) else {
            return Ok(Backend::Sim);
        };
        value
            .to_str()
            .and_then(Backend::parse)
            .ok_or_else(|| format!("{BACKEND_ENV} expects sim or columnar, got {value:?}"))
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------------
// Analytic statistics (what the grid would have counted)
// ---------------------------------------------------------------------------
//
// The grid counts, per pulse: `busy_cell_pulses += cells with any input`,
// `total_cell_pulses += rows * cols`, and `pulses` is the first pulse at
// which all feeders are exhausted and all wire planes empty. A word
// injected at pulse `p` into an `R`-row traversal occupies one cell per
// pulse for `R` pulses (p .. p+R-1); a `t` word crossing `m` comparison
// columns occupies `m` cell-pulses. "Busy" counts a cell-pulse ONCE no
// matter how many words meet there, so coincidences must be subtracted —
// and the §3.2 schedule makes them exact: `a[i][c]` and `b[j][c]` meet in
// exactly one cell-pulse per (i, j, c), and every `t` word rides the
// meeting wavefront (it is always in a cell that already has its `a` word),
// contributing zero busy of its own.

/// One marching [`crate::comparison::ComparisonArray2d`] run over
/// `n_a x n_b` tuples of width `m` (also the §6 join array): a stream of
/// one tile, the whole problem, on a grid of its own `n_a + n_b - 1` rows,
/// as the simulator runs it. With no neighbour tile to cross, [`pass_stats`]
/// charges `m * (rows * (n_a + n_b) - n_a * n_b)` busy cell-pulses: every
/// data word occupies `rows` of them, and each element meeting coincides
/// two words.
pub(crate) fn compare_run_stats(n_a: usize, n_b: usize, m: usize) -> ExecStats {
    let whole = ArrayLimits::new(n_a, n_b, m);
    pass_stats(&TileStream::new(n_a, n_b, m, whole, Seed::All), m)
}

/// One marching [`crate::intersection::IntersectionArray`] run (also the
/// §5 remove-duplicates array): the comparison array plus an accumulation
/// column, `rows x (m + 1)` cells.
///
/// On top of [`compare_run_stats`]: the `n_a` accumulator words each
/// occupy `rows` cell-pulses in the extra column (every `t` word entering
/// the accumulation column coincides with its tuple's accumulator —
/// `acc_injection(i) + meeting_row(i, j) = t_exit_pulse(i, j) + 1`), and
/// the last injection is now the accumulator of tuple `n_a - 1` (one pulse
/// after that tuple's last data element).
pub(crate) fn marching_membership_stats(n_a: usize, n_b: usize, m: usize) -> ExecStats {
    debug_assert!(n_a > 0 && n_b > 0 && m > 0);
    let sched = CompareSchedule::new(n_a, n_b, m);
    let rows = sched.rows();
    let cells = rows * (m + 1);
    let last_inject = sched
        .acc_injection(n_a - 1)
        .max(sched.b_injection(n_b - 1, m - 1));
    let pulses = last_inject + rows as u64;
    let busy = (m * (rows * (n_a + n_b) - n_a * n_b) + n_a * rows) as u64;
    ExecStats::one_run(pulses, cells, busy)
}

/// One fixed-operand `t_matrix` run (§8, [`crate::fixed::FixedOperandArray`]
/// with `n_b` resident tuples): `n_b x m` cells, `A` streaming one pulse
/// per tuple.
///
/// * pulses: the last element `a[n_a-1][m-1]` is injected at
///   `n_a + m - 2` and consumed at row `n_b - 1`, `n_b - 1` pulses later.
/// * busy: each of the `n_a * m` streamed elements occupies `n_b`
///   cell-pulses; the resident operand is in cell state, not on wires, and
///   every `t` word coincides with its streamed element.
pub(crate) fn fixed_t_matrix_stats(n_a: usize, n_b: usize, m: usize) -> ExecStats {
    debug_assert!(n_a > 0 && n_b > 0 && m > 0);
    let cells = n_b * m;
    let pulses = (n_a + n_b + m - 2) as u64;
    let busy = (n_a * n_b * m) as u64;
    ExecStats::one_run(pulses, cells, busy)
}

/// One fixed-operand membership run (`run`/`run_masked`): as
/// [`fixed_t_matrix_stats`] plus the accumulation column — `n_a`
/// accumulator words occupying `n_b` cell-pulses each, last injection one
/// pulse later than the plain `t_matrix` layout.
pub(crate) fn fixed_membership_stats(n_a: usize, n_b: usize, m: usize) -> ExecStats {
    debug_assert!(n_a > 0 && n_b > 0 && m > 0);
    let cells = n_b * (m + 1);
    let pulses = (n_a + n_b + m - 1) as u64;
    let busy = (n_a * n_b * (m + 1)) as u64;
    ExecStats::one_run(pulses, cells, busy)
}

/// `count` identical runs of `run`, merged sequentially onto `out`.
fn merge_runs(out: &mut ExecStats, run: ExecStats, count: u64) {
    out.pulses += run.pulses * count;
    out.busy_cell_pulses += run.busy_cell_pulses * count;
    out.total_cell_pulses += run.total_cell_pulses * count;
    out.cells = out.cells.max(run.cells);
    out.array_runs += run.array_runs * count;
}

/// A sequential tiled run ([`crate::tiling::t_matrix_tiled`]): one
/// [`compare_run_stats`] grid run per live tile of the [`TileStream`] in
/// every column group, merged sequentially: one weighted term per run and
/// group. No live tile charges nothing.
pub(crate) fn tiled_stats(
    n_a: usize,
    n_b: usize,
    m: usize,
    limits: ArrayLimits,
    seed: Seed,
) -> ExecStats {
    let stream = TileStream::new(n_a, n_b, m, limits, seed);
    let mut out = ExecStats::default();
    for &(w, groups) in &stream.groups {
        for run in &stream.runs {
            merge_runs(
                &mut out,
                compare_run_stats(run.ta, run.tb, w),
                run.count * groups,
            );
        }
    }
    out
}

/// A pipelined tiled run ([`crate::tiling::t_matrix_tiled_pipelined`]):
/// one [`pass_stats`] pass of the [`TileStream`] per column group, merged
/// sequentially (the groups' `T` blocks are ANDed on the host, so no pass
/// feeds the next).
pub(crate) fn pipelined_stats(
    n_a: usize,
    n_b: usize,
    m: usize,
    limits: ArrayLimits,
    seed: Seed,
) -> ExecStats {
    let stream = TileStream::new(n_a, n_b, m, limits, seed);
    let mut out = ExecStats::default();
    for &(w, count) in &stream.groups {
        merge_runs(&mut out, pass_stats(&stream, w), count);
    }
    out
}

/// A step-2 arithmetic progression of schedule base pulses: one tile's `A`
/// (or `B`) stream, tuple `k` entering lane 0 at `start + 2k`.
#[derive(Debug, Clone, Copy)]
struct Stream {
    start: u64,
    len: u64,
}

impl Stream {
    fn last(self) -> u64 {
        self.start + 2 * (self.len - 1)
    }

    /// The same stream `by` pulses later.
    fn delayed(self, by: u64) -> Stream {
        Stream {
            start: self.start + by,
            ..self
        }
    }
}

/// `#{(i, j) : i < a.len, j < b.len, |a_i - b_j| <= span, a_i - b_j = span
/// (mod 2)}` — the (a, b) tuple pairs of two streams that share a
/// cell-pulse in a `span + 1`-row grid, in O(1).
///
/// With `c = a.start - b.start` the difference is `c + 2(i - j)`, so the
/// parity condition is on `c` alone (`c = span (mod 2)`, else no pair
/// meets) and the range condition bounds `d = i - j` to
/// `[(-span - c) / 2, (span - c) / 2]` — both ends integral under that
/// parity. Pairs with `i - j <= x` form a clipped staircase in the
/// `a.len x b.len` rectangle whose area `below` sums in closed form.
fn crossings(a: Stream, b: Stream, span: u64) -> u64 {
    let c = a.start as i64 - b.start as i64;
    let span = span as i64;
    if (c - span) % 2 != 0 {
        return 0;
    }
    let (ta, tb) = (a.len as i64, b.len as i64);
    // #{(i, j) in [0, ta) x [0, tb) : i - j <= x}: rows `i <= x` are full
    // (`tb` each); row `i` in `(x, x + tb)` keeps `tb - (i - x)`.
    let below = |x: i64| -> i64 {
        let full = (x + 1).clamp(0, ta);
        let (lo, hi) = (full, (x + tb - 1).min(ta - 1));
        let n = (hi - lo + 1).max(0);
        full * tb + n * (tb + x) - (lo + hi) * n / 2
    };
    (below((span - c) / 2) - below((-span - c) / 2 - 1)) as u64
}

/// One pipelined pass of `stream` over `m <= max_cols` columns: every live
/// tile's streams injected back-to-back into one running `rows x m` grid,
/// or nothing at all when no tile is live.
///
/// This folds the stream run by run, never word by word: each tile's `A`
/// and `B` tuples enter as two [`Stream`]s placed by its run's timing
/// (the same [`crate::tiling`] arithmetic the simulator's feed expands),
/// so every per-tile quantity is a maximum or a pair count over arithmetic
/// progressions, and the tiles of a run differ only by whole advances. A
/// stream holds at most two runs per `A`-chunk: `O(n_a / max_a)` time,
/// `O(1)` memory. From the streams:
///
/// * pulses = (last activity) + 1, where each data word's activity ends
///   `rows - 1` pulses after its (lane-`m-1`) injection and each `t` seed's
///   `m - 1` pulses after its meeting-pulse injection;
/// * busy = `m * (rows * words - D)`: every tuple occupies `rows`
///   cell-pulses per column; `D` counts the (a, b) base pairs that meet —
///   `a` at base `s_a` and `b` at base `s_b` share a cell-pulse iff
///   `|s_a - s_b| <= rows - 1` and `s_a - s_b = rows - 1 (mod 2)` (the
///   crossing row `rho = (s_b - s_a + rows - 1) / 2` must be integral and
///   in range) — including *cross-tile* crossings, which is exactly why
///   this cannot be a per-tile sum. `t` words still ride their own tile's
///   `A` wavefront and add nothing.
///
/// `D` splits by tile pair ([`crossings`]). Within a tile every pair
/// meets (§3.2). Across tiles only *neighbours* in the stream of live
/// tiles can: a tile's last `A` base is at least `offset + rows - 1`
/// (`delta` pads short tiles up to the physical grid), so `offset`
/// advances by more than `rows - 1 + m` per tile and a tile two places
/// back ended more than `rows - 1` pulses before this one began. The
/// window of tiles still within reach is therefore the previous live tile
/// alone.
fn pass_stats(stream: &TileStream, m: usize) -> ExecStats {
    if stream.runs.is_empty() {
        // No live tile: no grid is built.
        return ExecStats::default();
    }
    let rows = stream.rows;
    let span = (rows - 1) as u64;
    // Cross-tile meetings of two neighbouring tiles' `(A, B)` streams.
    let between = |p: (Stream, Stream), q: (Stream, Stream)| {
        crossings(q.0, p.1, span) + crossings(p.0, q.1, span)
    };
    let (mut offset, mut words, mut meetings, mut last_activity) = (0u64, 0u64, 0u64, 0u64);
    let mut prev: Option<(Stream, Stream)> = None;
    for run in &stream.runs {
        // `count` identical tiles, each `advance` pulses behind the one
        // before; `a` and `b` are the first one's streams.
        let time = run.timing(rows, m);
        let a = Stream {
            start: offset + time.windows[NORTH].0,
            len: run.ta as u64,
        };
        let b = Stream {
            start: offset + time.windows[SOUTH].0,
            len: run.tb as u64,
        };
        debug_assert!(a.last() >= offset + span, "only neighbours can meet");
        let to_last = (run.count - 1) * time.advance;
        last_activity = last_activity.max(offset + to_last + time.quiet);
        // The run's tile that starts `by` pulses after its first.
        let tile = |by: u64| (a.delayed(by), b.delayed(by));
        meetings += run.count * a.len * b.len;
        if let Some(prev) = prev {
            meetings += between(prev, tile(0));
        }
        if run.count > 1 {
            meetings += (run.count - 1) * between(tile(0), tile(time.advance));
        }
        prev = Some(tile(to_last));
        words += run.count * (a.len + b.len);
        offset += run.count * time.advance;
    }
    let busy = m as u64 * (rows as u64 * words - meetings);
    ExecStats {
        array_runs: stream.tiles(),
        ..ExecStats::one_run(last_activity + 1, rows * m, busy)
    }
}

/// One restricted [`crate::division::DivisionArray`] run: `k` key rows of
/// `2 + nd` cells; `n` pairs streamed, `hits` of them matching a row.
///
/// Word accounting: `x` and `y` streams occupy `n * k` cell-pulses each
/// (every pair visits every row in its column); each matched pair's gated
/// `y` crosses the `nd` store cells; the drain token occupies `k`
/// cell-pulses northbound plus `k` at the gates; the per-row AND verdict
/// crosses `k * nd` store cells. Every key-match boolean reaches the gate
/// exactly with its pair's `y`, adding nothing. The last verdict is
/// consumed at pulse `n + k + nd`.
pub(crate) fn division_stats(n: usize, k: usize, nd: usize, hits: usize) -> ExecStats {
    debug_assert!(k > 0);
    let cells = k * (2 + nd);
    let pulses = (n + k + nd + 1) as u64;
    let busy = (2 * n * k + 2 * k + k * nd + hits * nd) as u64;
    ExecStats::one_run(pulses, cells, busy)
}

/// One [`crate::division::DivisionArrayMulti`] run (composite keys of
/// width `kw`): `k` rows of `kw + 1 + nd` cells. As [`division_stats`]
/// with the key stream `kw` columns wide and the drain crossing the `kw`
/// key columns before the gate; reduces exactly to the restricted formula
/// at `kw = 1`.
pub(crate) fn division_multi_stats(
    n: usize,
    k: usize,
    kw: usize,
    nd: usize,
    hits: usize,
) -> ExecStats {
    debug_assert!(k > 0 && kw > 0);
    let cells = k * (kw + 1 + nd);
    let pulses = (n + k + kw + nd) as u64;
    let busy = (n * k * (kw + 1) + hits * nd + k * (kw + 1) + k * nd) as u64;
    ExecStats::one_run(pulses, cells, busy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar;
    use crate::comparison::ComparisonArray2d;
    use crate::division::{DivisionArray, DivisionArrayMulti};
    use crate::fixed::FixedOperandArray;
    use crate::intersection::{IntersectionArray, SetOpMode};
    use crate::tiling::{self, chunks};
    use systolic_fabric::{CompareOp, Elem};
    use systolic_relation::Rows;

    fn relation(n: usize, m: usize, seed: i64) -> Vec<Vec<Elem>> {
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|c| ((i as i64 * 7 + seed) % 5) + c as i64)
                    .collect()
            })
            .collect()
    }

    /// The per-word routine [`pipelined_stats`] replaced, kept as its
    /// reference: one base pulse per streamed tuple per live tile, meetings
    /// counted by a parity-split binary search over every `B` base.
    fn pipelined_stats_per_word(
        n_a: usize,
        n_b: usize,
        m: usize,
        limits: ArrayLimits,
        seed: Seed,
    ) -> ExecStats {
        debug_assert!(m > 0);
        let tile_a = limits.max_a;
        let tile_b = limits.max_b;
        let rows = (tile_a.min(n_a) + tile_b.min(n_b)).saturating_sub(1).max(1);
        let mut offset = 0u64;
        let mut tiles = 0u64;
        let mut last_activity = 0u64;
        let mut base_a: Vec<u64> = Vec::new();
        let mut base_b: Vec<u64> = Vec::new();
        for a0 in (0..n_a).step_by(tile_a) {
            let ta = (a0 + tile_a).min(n_a) - a0;
            for b0 in (0..n_b).step_by(tile_b) {
                if !seed.live(a0 + ta, b0) {
                    continue;
                }
                let tb = (b0 + tile_b).min(n_b) - b0;
                let (phase_a, phase_b) =
                    (tb.saturating_sub(ta) as u64, ta.saturating_sub(tb) as u64);
                let delta = (rows - (ta + tb - 1)) as u64;
                let mut last_inject = 0u64;
                for i in 0..ta as u64 {
                    let base = 2 * i + phase_a + offset + delta;
                    base_a.push(base);
                    last_inject = last_inject.max(base + (m - 1) as u64);
                    last_activity = last_activity.max(base + (m - 1) as u64 + (rows - 1) as u64);
                }
                for j in 0..tb as u64 {
                    let base = 2 * j + phase_b + offset;
                    base_b.push(base);
                    last_inject = last_inject.max(base + (m - 1) as u64);
                    last_activity = last_activity.max(base + (m - 1) as u64 + (rows - 1) as u64);
                }
                // Last t seed: pair (ta-1, tb-1) injected at its meeting pulse.
                let t_last = (ta - 1 + tb - 1) as u64 + phase_a + (ta - 1) as u64 + offset + delta;
                last_activity = last_activity.max(t_last + (m - 1) as u64);
                tiles += 1;
                offset = last_inject + 2;
            }
        }
        if tiles == 0 {
            return ExecStats::default();
        }
        let pulses = last_activity + 1;

        // D: meeting (a, b) base pairs, counted by parity-split binary search.
        let mut by_parity: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for &s in &base_b {
            by_parity[(s % 2) as usize].push(s);
        }
        debug_assert!(by_parity.iter().all(|v| v.is_sorted()));
        let span = (rows - 1) as u64;
        let mut meetings = 0u64;
        for &s_a in &base_a {
            let lane = &by_parity[((s_a + span) % 2) as usize];
            let lo = lane.partition_point(|&s| s < s_a.saturating_sub(span));
            let hi = lane.partition_point(|&s| s <= s_a + span);
            meetings += (hi - lo) as u64;
        }
        let words = (base_a.len() + base_b.len()) as u64;
        let busy = m as u64 * (rows as u64 * words - meetings);
        let cells = rows * m;
        ExecStats {
            pulses,
            cells,
            busy_cell_pulses: busy,
            total_cell_pulses: pulses * cells as u64,
            array_runs: tiles,
        }
    }

    #[test]
    fn backend_names_round_trip_exactly_sim_and_columnar() {
        for backend in [Backend::Sim, Backend::Columnar] {
            assert_eq!(Backend::parse(backend.label()), Some(backend));
            assert_eq!(format!("{backend}"), backend.label());
        }
        assert_eq!(Backend::Sim.label(), "sim");
        assert_eq!(Backend::Columnar.label(), "columnar");
        // The row-kernel backend is gone, and its name is not an alias.
        for gone in ["kernel", "fpga", "", "Sim", "columnar "] {
            assert_eq!(Backend::parse(gone), None, "{gone:?}");
        }
        assert_eq!(Backend::default(), Backend::Sim);
    }

    #[test]
    fn compare_run_stats_match_the_simulator_exactly() {
        for n_a in 1..=5 {
            for n_b in 1..=5 {
                for m in 1..=3 {
                    let a = relation(n_a, m, 0);
                    let b = relation(n_b, m, 2);
                    let sim = ComparisonArray2d::equality(m)
                        .t_matrix(&a, &b, Seed::All)
                        .unwrap();
                    assert_eq!(compare_run_stats(n_a, n_b, m), sim.stats, "{n_a}x{n_b}x{m}");
                }
            }
        }
    }

    #[test]
    fn marching_membership_stats_match_the_simulator_exactly() {
        for n_a in 1..=5 {
            for n_b in 1..=5 {
                for m in 1..=3 {
                    let a = relation(n_a, m, 0);
                    let b = relation(n_b, m, 2);
                    let sim = IntersectionArray::new(m)
                        .run_masked(&a, &b, SetOpMode::Intersect, |i, j| i > j, false)
                        .unwrap();
                    assert_eq!(
                        marching_membership_stats(n_a, n_b, m),
                        sim.stats,
                        "{n_a}x{n_b}x{m}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_stats_match_the_simulator_exactly() {
        for n_a in 1..=5 {
            for n_b in 1..=4 {
                for m in 1..=3 {
                    let a = relation(n_a, m, 0);
                    let b = relation(n_b, m, 2);
                    let arr = FixedOperandArray::preload(&b);
                    let (_, sim_t) = arr.t_matrix(&a, &vec![CompareOp::Eq; m]).unwrap();
                    assert_eq!(fixed_t_matrix_stats(n_a, n_b, m), sim_t, "{n_a}x{n_b}x{m}");
                    let sim_m = arr.run(&a, SetOpMode::Intersect).unwrap();
                    assert_eq!(
                        fixed_membership_stats(n_a, n_b, m),
                        sim_m.stats,
                        "{n_a}x{n_b}x{m}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_stats_match_the_simulator_exactly() {
        let ops = vec![CompareOp::Eq; 3];
        for (n_a, n_b) in [(13, 9), (9, 13), (12, 12), (1, 1), (2, 1)] {
            let a = relation(n_a, 3, 0);
            let b = relation(n_b, 3, 3);
            for limits in [
                ArrayLimits::new(4, 4, 3),
                ArrayLimits::new(5, 3, 2),
                ArrayLimits::new(3, 5, 2),
                ArrayLimits::new(2, 7, 1),
                ArrayLimits::new(1, 1, 1),
                ArrayLimits::new(100, 100, 100),
            ] {
                for seed in [Seed::All, Seed::StrictLower] {
                    let sim = tiling::t_matrix_tiled(&a, &b, &ops, limits, seed).unwrap();
                    assert_eq!(
                        tiled_stats(n_a, n_b, 3, limits, seed),
                        sim.stats,
                        "{n_a}x{n_b} {limits:?} {seed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pipelined_stats_match_the_simulator_exactly() {
        // 10 x 7 and 7 x 10 put many short tiles back to back (one-row
        // `B` or `A` chunks, one-row remainders), so cross-tile crossings
        // with both neighbours carry most of the busy count. Width 5 on
        // two-column arrays runs groups of 2, 2 and 1 columns. Under
        // `StrictLower` the dead tiles drop out of the stream, so tiles of
        // different `A`-chunks become neighbours; 1 x 1 has no live tile.
        for m in [2, 5] {
            let ops = vec![CompareOp::Eq; m];
            for (n_a, n_b) in [(13, 17), (1, 1), (5, 1), (2, 9), (10, 7), (7, 10), (12, 12)] {
                let a = relation(n_a, m, 0);
                let b = relation(n_b, m, 3);
                for limits in [
                    ArrayLimits::new(4, 4, 2),
                    ArrayLimits::new(5, 3, 2),
                    ArrayLimits::new(3, 5, 2),
                    ArrayLimits::new(2, 7, 2),
                    ArrayLimits::new(1, 1, 2),
                    ArrayLimits::new(3, 1, 2),
                    ArrayLimits::new(1, 3, 2),
                    ArrayLimits::new(2, 2, 2),
                    ArrayLimits::new(100, 100, 2),
                ] {
                    for seed in [Seed::All, Seed::StrictLower] {
                        let sim =
                            tiling::t_matrix_tiled_pipelined(&a, &b, &ops, limits, seed).unwrap();
                        assert_eq!(
                            pipelined_stats(n_a, n_b, m, limits, seed),
                            sim.stats,
                            "{n_a}x{n_b}x{m} {limits:?} {seed:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pipelined_stats_match_the_per_word_reference_at_device_scale() {
        let device = ArrayLimits::new(32, 32, 8);
        for (n_a, n_b, m) in [(2048, 2048, 2), (2048, 33, 1), (2047, 2049, 3), (33, 33, 8)] {
            for seed in [Seed::All, Seed::StrictLower] {
                assert_eq!(
                    pipelined_stats(n_a, n_b, m, device, seed),
                    pipelined_stats_per_word(n_a, n_b, m, device, seed),
                    "{n_a}x{n_b}x{m} {seed:?}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Bit-identity with the per-word reference over arbitrary shapes
        /// and both seeds: `k` and `rem` place `n` on either side of a tile
        /// boundary (`n < max`, `n = k * max`, one-row remainders
        /// `n = k * max + 1`), the two axes draw their limits
        /// independently, and `m` may exceed `max_cols` (column groups).
        #[test]
        fn pipelined_stats_equal_the_per_word_reference(
            max_a in 1usize..=9,
            max_b in 1usize..=9,
            k_a in 0usize..=4,
            k_b in 0usize..=4,
            rem_a in 0usize..=9,
            rem_b in 0usize..=9,
            m in 1usize..=5,
            max_cols in 1usize..=3,
            strict_lower in proptest::prelude::any::<bool>(),
        ) {
            let n_a = (k_a * max_a + rem_a % (max_a + 1)).max(1);
            let n_b = (k_b * max_b + rem_b % (max_b + 1)).max(1);
            let limits = ArrayLimits::new(max_a, max_b, max_cols);
            let seed = if strict_lower { Seed::StrictLower } else { Seed::All };
            let mut reference = ExecStats::default();
            for (w, count) in chunks(m, max_cols) {
                let pass = pipelined_stats_per_word(n_a, n_b, w, limits, seed);
                merge_runs(&mut reference, pass, count);
            }
            proptest::prop_assert_eq!(
                pipelined_stats(n_a, n_b, m, limits, seed),
                reference,
                "{}x{}x{} {:?} {:?}", n_a, n_b, m, limits, seed
            );
        }
    }

    #[test]
    fn division_stats_match_the_simulator_exactly() {
        // Including keys that do not cover every pair (hits < n).
        let pairs: Vec<(Elem, Elem)> = (0..20).map(|p| (p % 6, p % 4)).collect();
        let divisor: Vec<Elem> = vec![0, 1, 2, 3];
        for keys in [vec![0, 1, 2, 3, 4, 5], vec![1, 3], vec![9]] {
            for nd in [0, 2, 4] {
                let sim = DivisionArray
                    .divide_with_keys(&pairs, &keys, &divisor[..nd], false)
                    .unwrap();
                let (flags, hits) = columnar::quotient_flags(&pairs, &keys, &divisor[..nd]);
                assert_eq!(flags, sim.quotient_flags, "keys {keys:?} nd {nd}");
                assert_eq!(
                    division_stats(pairs.len(), keys.len(), nd, hits),
                    sim.stats,
                    "keys {keys:?} nd {nd}"
                );
            }
        }
    }

    #[test]
    fn division_multi_stats_match_the_simulator_exactly() {
        for (n, kw, nd) in [(12, 2, 3), (5, 1, 2), (7, 3, 0), (4, 2, 1)] {
            let rows: Vec<Vec<Elem>> = (0..n)
                .map(|p| {
                    let mut r: Vec<Elem> = (0..kw).map(|c| ((p + c) % 3) as Elem).collect();
                    r.push((p % 4) as Elem);
                    r
                })
                .collect();
            let divisor: Vec<Elem> = (0..nd as Elem).collect();
            let sim = DivisionArrayMulti::new(kw).divide(&rows, &divisor).unwrap();
            let (flat_rows, flat_keys) = (rows.concat(), sim.keys.concat());
            let (flags, hits) = columnar::quotient_flags_multi(
                Rows::new(&flat_rows, kw + 1),
                Rows::new(&flat_keys, kw),
                kw,
                &divisor,
            );
            assert_eq!(flags, sim.quotient_flags, "n {n} kw {kw} nd {nd}");
            assert_eq!(
                division_multi_stats(n, sim.keys.len(), kw, nd, hits),
                sim.stats,
                "n {n} kw {kw} nd {nd}"
            );
        }
    }
}
