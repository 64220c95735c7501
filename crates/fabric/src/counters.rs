//! Global metric counters fed by grid runs.
//!
//! The instruments live in the process-global telemetry registry and are
//! cached in `OnceLock`s, so the steady-state cost per completed grid run is
//! a handful of relaxed atomic adds — no locks, no allocation.

use std::sync::{Arc, OnceLock};
use systolic_telemetry::metrics::{self, Counter, Gauge};

use crate::grid::GridStats;

struct GridCounters {
    runs: Arc<Counter>,
    pulses: Arc<Counter>,
    busy_cell_pulses: Arc<Counter>,
    cell_pulses: Arc<Counter>,
    utilisation: Arc<Gauge>,
}

fn counters() -> &'static GridCounters {
    static CACHE: OnceLock<GridCounters> = OnceLock::new();
    CACHE.get_or_init(|| {
        let r = metrics::global();
        GridCounters {
            runs: r.counter(
                "sdb_grid_runs_total",
                "Grid runs driven to quiescence (one per array operation or tile).",
            ),
            pulses: r.counter(
                "sdb_grid_pulses_total",
                "Pulses executed across all grid runs (the §8 time unit).",
            ),
            busy_cell_pulses: r.counter(
                "sdb_grid_busy_cell_pulses_total",
                "Cell-pulses in which a processor saw data on an input wire.",
            ),
            cell_pulses: r.counter(
                "sdb_grid_cell_pulses_total",
                "Cell-pulses offered (pulses x rows x cols) — utilisation denominator.",
            ),
            utilisation: r.gauge(
                "sdb_grid_utilisation",
                "Cell utilisation of the most recently completed grid run (§8).",
            ),
        }
    })
}

/// Record the portion of a grid run delimited by `before`/`after` stats
/// snapshots. Called by every stepper's `run_until_quiescent` on success
/// (the packed division array's in `systolic_core` among them).
pub fn record_run(before: GridStats, after: GridStats) {
    if !metrics::metrics_enabled() {
        return;
    }
    let c = counters();
    c.runs.inc();
    c.pulses.add(after.pulses.saturating_sub(before.pulses));
    c.busy_cell_pulses.add(
        after
            .busy_cell_pulses
            .saturating_sub(before.busy_cell_pulses),
    );
    c.cell_pulses.add(
        after
            .total_cell_pulses
            .saturating_sub(before.total_cell_pulses),
    );
    c.utilisation.set(after.utilisation());
}
