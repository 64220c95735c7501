//! `sdb_storage_*` instruments.
//!
//! All storage series live on the telemetry crate's process-global registry,
//! so the server's `METRICS` verb (which appends the global registry's
//! exposition) picks them up with no extra plumbing. Tests that need
//! isolation build a [`StorageMetrics`] over a private registry instead.
//!
//! Everything here measures *host* time and host cache behaviour. None of
//! these numbers ever feed the simulated pulse accounting — that is the
//! two-clocks rule the repo holds everywhere.

use std::sync::{Arc, OnceLock};

use systolic_telemetry::metrics::{global, Counter, Histogram, Registry, LATENCY_BOUNDS_NS};

/// Shared handles to every storage instrument.
#[derive(Debug, Clone)]
pub struct StorageMetrics {
    /// Buffer-pool page requests served from a resident frame.
    pub pool_hits: Arc<Counter>,
    /// Buffer-pool page requests that went to the page file.
    pub pool_misses: Arc<Counter>,
    /// Frames evicted by the replacement policy.
    pub pool_evictions: Arc<Counter>,
    /// WAL records appended.
    pub wal_records: Arc<Counter>,
    /// WAL bytes appended (frame bytes, headers included).
    pub wal_bytes: Arc<Counter>,
    /// fsync calls issued by the WAL.
    pub wal_fsyncs: Arc<Counter>,
    /// Host nanoseconds per WAL fsync.
    pub wal_fsync_ns: Arc<Histogram>,
    /// Checkpoints taken.
    pub checkpoints: Arc<Counter>,
    /// Logical records redone during recovery.
    pub recovery_records: Arc<Counter>,
    /// Host nanoseconds spent in recovery.
    pub recovery_ns: Arc<Counter>,
    /// Staging-memory relations evicted by the replacement policy
    /// (`MemoryModule` evictions, driven by the same `ClockReplacer`).
    pub staging_evictions: Arc<Counter>,
}

impl StorageMetrics {
    /// Build the instrument set on `registry`.
    pub fn from_registry(registry: &Registry) -> StorageMetrics {
        StorageMetrics {
            pool_hits: registry.counter(
                "sdb_storage_pool_hits_total",
                "Buffer-pool page requests served from a resident frame.",
            ),
            pool_misses: registry.counter(
                "sdb_storage_pool_misses_total",
                "Buffer-pool page requests that read the page file.",
            ),
            pool_evictions: registry.counter(
                "sdb_storage_pool_evictions_total",
                "Buffer-pool frames evicted by the replacement policy.",
            ),
            wal_records: registry.counter(
                "sdb_storage_wal_records_total",
                "Write-ahead log records appended.",
            ),
            wal_bytes: registry.counter(
                "sdb_storage_wal_bytes_total",
                "Write-ahead log bytes appended.",
            ),
            wal_fsyncs: registry.counter(
                "sdb_storage_wal_fsyncs_total",
                "fsync calls issued by the write-ahead log.",
            ),
            wal_fsync_ns: registry.histogram(
                "sdb_storage_wal_fsync_ns",
                "Host nanoseconds per WAL fsync.",
                LATENCY_BOUNDS_NS,
            ),
            checkpoints: registry.counter(
                "sdb_storage_checkpoints_total",
                "Checkpoints taken (snapshot written, WAL truncated).",
            ),
            recovery_records: registry.counter(
                "sdb_storage_recovery_records_total",
                "Logical records redone during crash recovery.",
            ),
            recovery_ns: registry.counter(
                "sdb_storage_recovery_ns_total",
                "Host nanoseconds spent in crash recovery.",
            ),
            staging_evictions: registry.counter(
                "sdb_storage_staging_evictions_total",
                "Staging-memory relations evicted by the replacement policy.",
            ),
        }
    }

    /// The process-global instrument set (what servers use; rendered into
    /// the `METRICS` exposition automatically).
    pub fn shared() -> Arc<StorageMetrics> {
        static SHARED: OnceLock<Arc<StorageMetrics>> = OnceLock::new();
        SHARED
            .get_or_init(|| Arc::new(StorageMetrics::from_registry(global())))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_render_under_the_sdb_storage_prefix() {
        let r = Registry::new();
        let m = StorageMetrics::from_registry(&r);
        m.pool_hits.add(3);
        m.wal_fsync_ns.observe(10_000);
        let text = r.render();
        assert!(text.contains("sdb_storage_pool_hits_total 3"), "{text}");
        assert!(text.contains("# TYPE sdb_storage_wal_fsync_ns histogram"));
        assert!(text.contains("sdb_storage_staging_evictions_total 0"));
    }

    #[test]
    fn shared_set_is_a_singleton() {
        let a = StorageMetrics::shared();
        let b = StorageMetrics::shared();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
