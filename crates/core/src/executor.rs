//! Host-parallel execution of independent array runs.
//!
//! The paper's decomposition technique (§8) turns one large problem into
//! many *independent* sub-problems: each (A-tile x B-tile x column-group)
//! run touches its own slices of the input relations and produces its own
//! block of the result matrix. On real hardware those runs would time-share
//! one physical array; in the simulator they are pure functions, so the
//! host may compute them on several OS threads at once without changing
//! anything the paper measures.
//!
//! Two clocks must never be conflated:
//!
//! * **Hardware time** — simulated pulses, accumulated in [`ExecStats`]
//!   exactly as the sequential executor does (`merge_sequential` in a fixed
//!   job order, modelling one array running tile after tile). Parallel and
//!   sequential execution produce *bit-identical* `ExecStats`.
//! * **Host time** — how long the simulation itself took on this machine,
//!   reported separately in [`HostStats`]. Only this number changes with
//!   the thread count.
//!
//! The pool is built on `std::thread::scope` only — no external
//! dependencies — with a shared atomic work counter handing out job
//! indices, and results written into per-job slots so the merge order is
//! independent of completion order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use systolic_fabric::{CompareOp, Elem};
use systolic_telemetry::metrics::{self, Counter};

use crate::comparison::ComparisonArray2d;
use crate::error::Result;
use crate::intersection::SetOpMode;
use crate::matrix::TMatrix;
use crate::stats::ExecStats;
use crate::tiling::{ArrayLimits, TiledOutcome};

/// Environment variable overriding the "auto" thread count (`threads: 0`),
/// so CI can force the parallel executor on for a whole test run.
pub const THREADS_ENV: &str = "SYSTOLIC_THREADS";

/// Host-side (wall-clock) cost of a parallel section. Deliberately *not*
/// part of [`ExecStats`]: simulated hardware latency is a property of the
/// design, host speed is a property of this machine and run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Wall-clock nanoseconds the host spent in the parallel section.
    pub wall_ns: u64,
    /// Worker threads actually used.
    pub threads: usize,
    /// Independent jobs executed.
    pub jobs: usize,
}

/// Resolve a requested thread count. Precedence, highest first:
///
/// 1. an explicit positive `requested` value;
/// 2. [`THREADS_ENV`] set to a positive integer (`requested == 0`, "auto");
/// 3. the host's [`std::thread::available_parallelism`];
/// 4. sequential (`1`) if even that is unavailable.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Run `n_jobs` independent jobs on up to `threads` workers and return the
/// results **indexed by job**, regardless of completion order.
///
/// Jobs are handed out through an atomic counter, so scheduling is dynamic,
/// but because every job writes only its own slot the output is exactly
/// `[f(0), f(1), .., f(n_jobs - 1)]` — the same vector a sequential loop
/// would build. With `threads <= 1` the jobs run inline on this thread.
pub fn run_jobs<T, F>(threads: usize, n_jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n_jobs <= 1 {
        return (0..n_jobs).map(f).collect();
    }
    let workers = threads.min(n_jobs);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n_jobs {
                    break;
                }
                let out = f(k);
                *slots[k].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool completed every job")
        })
        .collect()
}

struct PoolCounters {
    sections: Arc<Counter>,
    jobs: Arc<Counter>,
    wall_ns: Arc<Counter>,
}

fn pool_counters() -> &'static PoolCounters {
    static CACHE: OnceLock<PoolCounters> = OnceLock::new();
    CACHE.get_or_init(|| {
        let r = metrics::global();
        PoolCounters {
            sections: r.counter(
                "sdb_executor_sections_total",
                "Parallel sections executed by the host job pool.",
            ),
            jobs: r.counter(
                "sdb_executor_jobs_total",
                "Independent tile jobs executed by the host job pool.",
            ),
            wall_ns: r.counter(
                "sdb_executor_wall_ns_total",
                "Host wall-clock ns spent inside parallel sections.",
            ),
        }
    })
}

fn record_section(host: HostStats) {
    if !metrics::metrics_enabled() {
        return;
    }
    let c = pool_counters();
    c.sections.inc();
    c.jobs.add(host.jobs as u64);
    c.wall_ns.add(host.wall_ns);
}

/// One (A-tile x B-tile x column-group) sub-problem, in the exact order the
/// sequential executor in [`crate::tiling::t_matrix_tiled`] visits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    a0: usize,
    a1: usize,
    b0: usize,
    b1: usize,
    c0: usize,
    c1: usize,
    group_idx: usize,
}

fn enumerate_jobs(n_a: usize, n_b: usize, m: usize, limits: ArrayLimits) -> Vec<Job> {
    let col_groups: Vec<(usize, usize)> = (0..m)
        .step_by(limits.max_cols)
        .map(|start| (start, (start + limits.max_cols).min(m)))
        .collect();
    let mut jobs = Vec::new();
    for a0 in (0..n_a).step_by(limits.max_a) {
        let a1 = (a0 + limits.max_a).min(n_a);
        for b0 in (0..n_b).step_by(limits.max_b) {
            let b1 = (b0 + limits.max_b).min(n_b);
            for (group_idx, &(c0, c1)) in col_groups.iter().enumerate() {
                jobs.push(Job {
                    a0,
                    a1,
                    b0,
                    b1,
                    c0,
                    c1,
                    group_idx,
                });
            }
        }
    }
    jobs
}

/// As [`crate::tiling::t_matrix_tiled`], but with the independent grid runs
/// fanned over `threads` host workers. The assembled matrix and the merged
/// [`ExecStats`] are bit-identical to the sequential path: results are
/// merged in the sequential job order, and the hardware accounting still
/// models one physical array running every tile in sequence.
///
/// `initial` must be `Fn + Sync` (not `FnMut`) because several workers may
/// consult it concurrently; all uses in this crate are pure masks.
pub fn t_matrix_tiled_parallel(
    a: &[Vec<Elem>],
    b: &[Vec<Elem>],
    ops: &[CompareOp],
    limits: ArrayLimits,
    threads: usize,
    initial: impl Fn(usize, usize) -> bool + Sync,
) -> Result<TiledOutcome> {
    t_matrix_tiled_parallel_timed(a, b, ops, limits, threads, initial).map(|(out, _)| out)
}

/// [`t_matrix_tiled_parallel`] plus the host-side [`HostStats`] for the
/// parallel section, for callers that report host speed-ups (benches, the
/// machine scheduler).
pub fn t_matrix_tiled_parallel_timed(
    a: &[Vec<Elem>],
    b: &[Vec<Elem>],
    ops: &[CompareOp],
    limits: ArrayLimits,
    threads: usize,
    initial: impl Fn(usize, usize) -> bool + Sync,
) -> Result<(TiledOutcome, HostStats)> {
    let m = ops.len();
    assert!(m > 0, "tuple width must be positive");
    let threads = resolve_threads(threads);
    let jobs = enumerate_jobs(a.len(), b.len(), m, limits);
    let mut section_span = systolic_telemetry::span("executor.parallel_section");
    section_span.arg("threads", threads);
    section_span.arg("jobs", jobs.len());
    let start = std::time::Instant::now();
    let results = run_jobs(threads, jobs.len(), |k| {
        let job = jobs[k];
        let sub_a: Vec<Vec<Elem>> = a[job.a0..job.a1]
            .iter()
            .map(|row| row[job.c0..job.c1].to_vec())
            .collect();
        let sub_b: Vec<Vec<Elem>> = b[job.b0..job.b1]
            .iter()
            .map(|row| row[job.c0..job.c1].to_vec())
            .collect();
        let arr = ComparisonArray2d::with_ops(ops[job.c0..job.c1].to_vec());
        // The west-edge seed is applied on the first column group only;
        // later groups are ANDed in, so seeding them TRUE is the identity.
        arr.t_matrix(&sub_a, &sub_b, |i, j| {
            if job.group_idx == 0 {
                initial(job.a0 + i, job.b0 + j)
            } else {
                true
            }
        })
    });
    let host = HostStats {
        wall_ns: start.elapsed().as_nanos() as u64,
        threads,
        jobs: jobs.len(),
    };
    drop(section_span);
    record_section(host);

    // Deterministic merge, in the sequential executor's nesting order.
    let mut t = TMatrix::new(a.len(), b.len());
    let mut stats = ExecStats::default();
    let mut block: Option<TMatrix> = None;
    for (job, result) in jobs.iter().zip(results) {
        let out = result?;
        stats.merge_sequential(&out.stats);
        block = Some(match block {
            None => out.t,
            Some(mut acc) => {
                acc.and_assign(&out.t);
                acc
            }
        });
        if job.c1 == m {
            // Last column group of this (A-tile, B-tile): paste the block.
            t.paste(job.a0, job.b0, &block.take().expect("block accumulated"));
        }
    }
    Ok((TiledOutcome { t, stats }, host))
}

/// Columnar-backend counterpart of [`t_matrix_tiled_parallel`]: the
/// streamed rows of `A` are split into contiguous chunks, each worker
/// scans the shared word planes of `B` ([`crate::columnar::t_matrix`]) for
/// its own band of `T`, and the bands are pasted back in row order.
/// Bit-identical to the single-threaded columnar scan (and therefore to
/// every simulator tiling) at any thread count; only host wall-clock time
/// changes with `threads` — which honours [`THREADS_ENV`] exactly as the
/// simulated parallel executor does.
pub fn columnar_t_matrix_parallel(
    a: &[Vec<Elem>],
    cols_a: &[usize],
    b: &systolic_relation::ColumnarRelation,
    cols_b: &[usize],
    ops: &[CompareOp],
    threads: usize,
) -> TMatrix {
    assert!(!ops.is_empty(), "tuple width must be positive");
    let threads = resolve_threads(threads);
    let chunk = a.len().div_ceil(threads.max(1)).max(1);
    let n_jobs = a.len().div_ceil(chunk);
    let mut section_span = systolic_telemetry::span("executor.parallel_section");
    section_span.arg("threads", threads);
    section_span.arg("jobs", n_jobs);
    let start = std::time::Instant::now();
    let blocks = run_jobs(threads, n_jobs, |k| {
        let lo = k * chunk;
        let hi = (lo + chunk).min(a.len());
        crate::columnar::t_matrix(&a[lo..hi], cols_a, b, cols_b, ops)
    });
    let host = HostStats {
        wall_ns: start.elapsed().as_nanos() as u64,
        threads,
        jobs: n_jobs,
    };
    drop(section_span);
    record_section(host);
    let mut t = TMatrix::new(a.len(), b.n_rows());
    for (k, block) in blocks.iter().enumerate() {
        t.paste(k * chunk, 0, block);
    }
    t
}

/// Membership (intersection/difference keep-flags) over the parallel tiled
/// executor — the parallel counterpart of
/// [`crate::tiling::membership_tiled`].
pub fn membership_tiled_parallel(
    a: &[Vec<Elem>],
    b: &[Vec<Elem>],
    mode: SetOpMode,
    limits: ArrayLimits,
    threads: usize,
    initial: impl Fn(usize, usize) -> bool + Sync,
) -> Result<(Vec<bool>, ExecStats)> {
    let m = a.first().map(|r| r.len()).unwrap_or(1);
    let ops = vec![CompareOp::Eq; m];
    let out = t_matrix_tiled_parallel(a, b, &ops, limits, threads, initial)?;
    let t = out.t.row_ors();
    let keep = match mode {
        SetOpMode::Intersect => t,
        SetOpMode::Difference => t.into_iter().map(|x| !x).collect(),
    };
    Ok((keep, out.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::t_matrix_tiled;

    fn relation(n: usize, m: usize, seed: i64) -> Vec<Vec<Elem>> {
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|c| ((i as i64 * 7 + seed) % 11) + c as i64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn run_jobs_preserves_job_order() {
        for threads in [1, 2, 8] {
            let out = run_jobs(threads, 37, |k| k * k);
            assert_eq!(
                out,
                (0..37).map(|k| k * k).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn run_jobs_handles_zero_and_one_job() {
        assert!(run_jobs(4, 0, |k| k).is_empty());
        assert_eq!(run_jobs(4, 1, |k| k + 10), vec![10]);
    }

    #[test]
    fn parallel_matrix_is_bit_identical_to_sequential() {
        let a = relation(13, 3, 0);
        let b = relation(9, 3, 3);
        let ops = vec![CompareOp::Eq; 3];
        for limits in [
            ArrayLimits::new(4, 4, 3),
            ArrayLimits::new(5, 3, 2),
            ArrayLimits::new(1, 1, 1),
            ArrayLimits::new(100, 100, 100),
        ] {
            let seq = t_matrix_tiled(&a, &b, &ops, limits, |_, _| true).unwrap();
            for threads in [1, 2, 8] {
                let par =
                    t_matrix_tiled_parallel(&a, &b, &ops, limits, threads, |_, _| true).unwrap();
                assert_eq!(par.t, seq.t, "{limits:?} x{threads}");
                assert_eq!(par.stats, seq.stats, "{limits:?} x{threads}");
            }
        }
    }

    #[test]
    fn parallel_masking_matches_sequential() {
        let rows: Vec<Vec<Elem>> = vec![vec![4], vec![4], vec![5], vec![4], vec![5]];
        let limits = ArrayLimits::new(2, 2, 1);
        let (seq, seq_stats) =
            crate::tiling::membership_tiled(&rows, &rows, SetOpMode::Intersect, limits, |i, j| {
                i > j
            })
            .unwrap();
        let (par, par_stats) =
            membership_tiled_parallel(&rows, &rows, SetOpMode::Intersect, limits, 8, |i, j| i > j)
                .unwrap();
        assert_eq!(par, seq);
        assert_eq!(par_stats, seq_stats);
    }

    #[test]
    fn host_stats_report_the_fan_out() {
        let a = relation(8, 2, 0);
        let b = relation(8, 2, 1);
        let ops = vec![CompareOp::Eq; 2];
        let (_, host) =
            t_matrix_tiled_parallel_timed(&a, &b, &ops, ArrayLimits::new(4, 4, 2), 3, |_, _| true)
                .unwrap();
        assert_eq!(host.jobs, 4, "2x2 tile grid");
        assert_eq!(host.threads, 3);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(7), 7);
        // requested == 0 falls back to the environment, then the host's
        // available parallelism; either way the result is positive.
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn columnar_parallel_matrix_is_bit_identical_to_single_threaded() {
        let a = relation(77, 3, 0);
        let b = relation(69, 3, 3);
        let packed = systolic_relation::ColumnarRelation::from_rows(&b, 3);
        let ops = vec![CompareOp::Eq, CompareOp::Le, CompareOp::Ne];
        let cols = [0usize, 1, 2];
        let single = crate::columnar::t_matrix(&a, &cols, &packed, &cols, &ops);
        let simulated = crate::comparison::ComparisonArray2d::with_ops(ops.clone())
            .t_matrix(&a, &b, |_, _| true)
            .unwrap();
        assert_eq!(single, simulated.t);
        for threads in [1, 2, 8, 64] {
            let par = columnar_t_matrix_parallel(&a, &cols, &packed, &cols, &ops, threads);
            assert_eq!(par, single, "{threads} threads");
        }
    }
}
