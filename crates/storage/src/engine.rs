//! Recovery orchestration: checkpoint snapshot + WAL = the durable truth.
//!
//! Layout under the data directory:
//!
//! * `wal.log` — logical redo records since the last checkpoint.
//! * `checkpoint.pg` — a paged snapshot of the full logical history,
//!   written atomically (temp file + rename), every page checksummed.
//! * `relations.pg` — the live paged store backing disk reads. This file
//!   is a rebuildable physical cache: recovery recreates it by replaying
//!   the logical history, so [`StorageEngine::open`] starts it fresh.
//!
//! Recovery = read the snapshot (if any), then the intact WAL prefix, and
//! hand the ordered records back for replay through the normal load/query
//! path. Replaying through the front door is what keeps dictionary codes —
//! and therefore every recovered `RESULT` frame — byte-identical (§2.3:
//! codes are assigned in first-appearance order).
//!
//! The history is deliberately *not* compacted at checkpoint: dropping a
//! superseded `LOAD` would change first-appearance order and silently
//! re-code every dictionary. Compaction needs a dictionary snapshot format
//! and is left to a later PR.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::blob::{BlobStore, SharedBlobStore};
use crate::error::{Result, StorageError};
use crate::metrics::StorageMetrics;
use crate::wal::{decode_records, encode_frame, for_each_record, Wal, WalRecord};

/// Name of the blob holding the snapshot record stream.
const SNAPSHOT_BLOB: &str = "snapshot";
/// Pool frames used for snapshot I/O (sequential; a small pool suffices).
const SNAPSHOT_POOL_PAGES: usize = 8;

/// What recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Records redone from the checkpoint snapshot.
    pub checkpoint_records: usize,
    /// Records redone from the WAL suffix.
    pub wal_records: usize,
    /// Torn bytes dropped from the WAL tail.
    pub dropped_tail_bytes: u64,
    /// Host nanoseconds spent reading the snapshot and log.
    pub recovery_ns: u64,
}

/// What a checkpoint wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Records in the snapshot.
    pub records: usize,
    /// Snapshot stream size in bytes (before paging).
    pub bytes: u64,
}

/// The engine: one per data directory (one per shard).
#[derive(Debug)]
pub struct StorageEngine {
    dir: PathBuf,
    wal: Wal,
    /// Records in the ordered logical history (snapshot + log). The records
    /// themselves live only on disk: the next checkpoint re-reads them.
    records: usize,
    /// Records currently in the WAL tail (resets at checkpoint).
    wal_tail: usize,
    blobs: SharedBlobStore,
    pool_pages: usize,
    metrics: Arc<StorageMetrics>,
}

impl StorageEngine {
    /// Open (or create) the engine at `dir` with default pool settings.
    pub fn open(dir: &Path) -> Result<(StorageEngine, Vec<WalRecord>, RecoveryReport)> {
        StorageEngine::open_with(dir, 256)
    }

    /// Open (or create) the engine at `dir`.
    ///
    /// Returns the engine, the ordered logical records to replay through
    /// the normal load/query path, and a recovery report. Recovery happens
    /// *here*, before any listener opens: the caller replays, then serves.
    pub fn open_with(
        dir: &Path,
        pool_pages: usize,
    ) -> Result<(StorageEngine, Vec<WalRecord>, RecoveryReport)> {
        let start = Instant::now();
        fs::create_dir_all(dir)?;
        let metrics = StorageMetrics::shared();

        // 1. Snapshot, if one was ever completed (rename made it atomic).
        let snap_path = dir.join("checkpoint.pg");
        let mut history: Vec<WalRecord> = Vec::new();
        let mut checkpoint_records = 0usize;
        if snap_path.exists() {
            let mut snap = BlobStore::open(&snap_path, SNAPSHOT_POOL_PAGES, metrics.clone())?;
            let bytes = snap.get(SNAPSHOT_BLOB)?;
            history = decode_records(&bytes)?;
            checkpoint_records = history.len();
        }

        // 2. WAL suffix; torn tail truncated by Wal::open.
        let (wal, wal_records, tail) = Wal::open(&dir.join("wal.log"), metrics.clone())?;
        let wal_count = wal_records.len();
        for (_, rec) in wal_records {
            if rec != WalRecord::Checkpoint {
                history.push(rec);
            }
        }

        // 3. Fresh physical cache for the live relation store — its
        //    contents are rebuilt by the caller's replay.
        let blobs = BlobStore::create(&dir.join("relations.pg"), pool_pages, metrics.clone())?;

        let report = RecoveryReport {
            checkpoint_records,
            wal_records: wal_count,
            dropped_tail_bytes: tail.dropped_bytes,
            recovery_ns: start.elapsed().as_nanos() as u64,
        };
        metrics.recovery_records.add(history.len() as u64);
        metrics.recovery_ns.add(report.recovery_ns);

        let engine = StorageEngine {
            dir: dir.to_path_buf(),
            wal,
            records: history.len(),
            wal_tail: wal_count,
            blobs: SharedBlobStore::new(blobs),
            pool_pages,
            metrics,
        };
        Ok((engine, history, report))
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Handle to the live paged store (what `Disk` reads through).
    pub fn blobs(&self) -> SharedBlobStore {
        self.blobs.clone()
    }

    /// Current WAL size in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// Records in the logical history.
    pub fn history_len(&self) -> usize {
        self.records
    }

    /// Records currently in the WAL tail (since the last checkpoint).
    pub fn wal_records(&self) -> usize {
        self.wal_tail
    }

    /// LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Log a `LOAD` durably; returns once the record is fsynced.
    pub fn log_load(&mut self, name: &str, kinds: &[String], csv: &str) -> Result<u64> {
        let rec = WalRecord::Load {
            name: name.to_string(),
            kinds: kinds.to_vec(),
            csv: csv.to_string(),
        };
        let lsn = self.wal.append(&rec)?;
        self.records += 1;
        self.wal_tail += 1;
        Ok(lsn)
    }

    /// Log a store-query durably; returns once the record is fsynced.
    pub fn log_query(&mut self, text: &str) -> Result<u64> {
        let rec = WalRecord::Query {
            text: text.to_string(),
        };
        let lsn = self.wal.append(&rec)?;
        self.records += 1;
        self.wal_tail += 1;
        Ok(lsn)
    }

    /// The full logical history as one snapshot stream, rebuilt from what
    /// is durable: the last snapshot's frames as they stand, then the log's
    /// records framed to continue their numbering. Fails with
    /// [`StorageError::Corrupt`] if that is not exactly the records this
    /// engine acknowledged.
    fn durable_history(&self) -> Result<Vec<u8>> {
        let mut bytes = Vec::new();
        let mut records = 0usize;
        let snap_path = self.dir.join("checkpoint.pg");
        if snap_path.exists() {
            let mut snap = BlobStore::open(&snap_path, SNAPSHOT_POOL_PAGES, self.metrics.clone())?;
            bytes = snap.get(SNAPSHOT_BLOB)?;
            for_each_record(&bytes, |_| records += 1)?;
        }
        for rec in self.wal.read_records()? {
            if rec != WalRecord::Checkpoint {
                bytes.extend_from_slice(&encode_frame(records as u64, &rec));
                records += 1;
            }
        }
        if records != self.records {
            return Err(StorageError::Corrupt {
                detail: format!(
                    "checkpoint: {records} records durable, {} acknowledged",
                    self.records
                ),
            });
        }
        Ok(bytes)
    }

    /// Take a checkpoint: snapshot the full history to a fresh paged file,
    /// rename it over the old snapshot, then truncate the WAL.
    ///
    /// Crash safety: the rename is the commit point. Before it, the old
    /// snapshot + full WAL recover; after it, the new snapshot alone
    /// recovers; the WAL truncation merely drops now-redundant records
    /// (replaying them after the snapshot would double-apply, which is why
    /// the truncation must follow the rename — and does).
    pub fn checkpoint(&mut self) -> Result<CheckpointReport> {
        let bytes = self.durable_history()?;
        let tmp = self.dir.join("checkpoint.tmp");
        let _ = fs::remove_file(&tmp);
        {
            let mut snap = BlobStore::create(&tmp, SNAPSHOT_POOL_PAGES, self.metrics.clone())?;
            snap.put(SNAPSHOT_BLOB, &bytes, self.wal.next_lsn())?;
            snap.flush()?;
        }
        fs::rename(&tmp, self.dir.join("checkpoint.pg"))?;
        // Make the rename itself durable before dropping the WAL.
        sync_dir(&self.dir)?;
        self.wal.reset()?;
        self.wal_tail = 0;
        self.metrics.checkpoints.inc();
        Ok(CheckpointReport {
            records: self.records,
            bytes: bytes.len() as u64,
        })
    }

    /// Pool frame budget this engine was opened with.
    pub fn pool_pages(&self) -> usize {
        self.pool_pages
    }
}

/// fsync a directory so a rename within it is durable (POSIX requires
/// syncing the parent directory, not just the files).
fn sync_dir(dir: &Path) -> Result<()> {
    match fs::File::open(dir) {
        Ok(f) => {
            f.sync_all()?;
            Ok(())
        }
        // Some platforms refuse opening directories; the rename is still
        // ordered after the temp file's own fsync, which is the best
        // available there.
        Err(e) if e.kind() == std::io::ErrorKind::PermissionDenied => Ok(()),
        Err(e) => Err(StorageError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sdb_engine_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn load(name: &str, csv: &str) -> WalRecord {
        WalRecord::Load {
            name: name.to_string(),
            kinds: vec!["str".to_string(), "int".to_string()],
            csv: csv.to_string(),
        }
    }

    #[test]
    fn history_survives_reopen_in_order() {
        let dir = tmpdir("reopen");
        let (mut e, replay, report) = StorageEngine::open(&dir).unwrap();
        assert!(replay.is_empty());
        assert_eq!(report.wal_records, 0);
        e.log_load("emp", &["str".into(), "int".into()], "ada,1\n")
            .unwrap();
        e.log_query("QUERY ... STORE AS rich").unwrap();
        e.log_load("dept", &["str".into(), "int".into()], "eng,2\n")
            .unwrap();
        drop(e);
        let (_, replay, report) = StorageEngine::open(&dir).unwrap();
        assert_eq!(report.wal_records, 3);
        assert_eq!(report.checkpoint_records, 0);
        assert_eq!(replay.len(), 3);
        assert_eq!(replay[0], load("emp", "ada,1\n"));
        assert!(matches!(&replay[1], WalRecord::Query { text } if text.contains("rich")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_still_recovers_everything() {
        let dir = tmpdir("checkpoint");
        let (mut e, _, _) = StorageEngine::open(&dir).unwrap();
        e.log_load("a", &["int".into()], "1\n").unwrap();
        e.log_load("b", &["int".into()], "2\n").unwrap();
        let cp = e.checkpoint().unwrap();
        assert_eq!(cp.records, 2);
        assert_eq!(e.wal_bytes(), 0);
        // Post-checkpoint traffic lands in the (now short) WAL.
        e.log_load("c", &["int".into()], "3\n").unwrap();
        drop(e);
        let (e, replay, report) = StorageEngine::open(&dir).unwrap();
        assert_eq!(report.checkpoint_records, 2);
        assert_eq!(report.wal_records, 1);
        assert_eq!(replay.len(), 3);
        assert_eq!(replay[2], load_int("c", "3\n"));
        assert_eq!(e.history_len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_checkpoints_rebuild_the_history_from_disk_in_order() {
        let dir = tmpdir("recheckpoint");
        let (mut e, _, _) = StorageEngine::open(&dir).unwrap();
        let names = ["a", "b", "c", "d", "e"];
        for name in &names[..3] {
            e.log_load(name, &["int".into()], &format!("{name}\n"))
                .unwrap();
        }
        let first = e.checkpoint().unwrap();
        assert_eq!(first.records, 3);
        for name in &names[3..] {
            e.log_load(name, &["int".into()], &format!("{name}\n"))
                .unwrap();
        }
        // The second snapshot = the first one's frames + the two logged
        // since, exactly what encoding the whole history at once gives.
        let second = e.checkpoint().unwrap();
        assert_eq!(second.records, 5);
        assert_eq!(e.history_len(), 5);
        let want: Vec<WalRecord> = names
            .iter()
            .map(|name| load_int(name, &format!("{name}\n")))
            .collect();
        assert_eq!(second.bytes, crate::wal::encode_records(&want).len() as u64);
        drop(e);
        let (e, replay, report) = StorageEngine::open(&dir).unwrap();
        assert_eq!(report.checkpoint_records, 5);
        assert_eq!(report.wal_records, 0);
        assert_eq!(replay, want);
        assert_eq!(e.history_len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_refuses_a_log_that_lost_records() {
        let dir = tmpdir("lostlog");
        let (mut e, _, _) = StorageEngine::open(&dir).unwrap();
        e.log_load("a", &["int".into()], "1\n").unwrap();
        e.log_load("b", &["int".into()], "2\n").unwrap();
        // Someone else truncates the log under the running engine.
        fs::write(dir.join("wal.log"), b"").unwrap();
        assert!(matches!(e.checkpoint(), Err(StorageError::Corrupt { .. })));
        assert!(
            !dir.join("checkpoint.pg").exists(),
            "a refused checkpoint must not replace the snapshot"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    fn load_int(name: &str, csv: &str) -> WalRecord {
        WalRecord::Load {
            name: name.to_string(),
            kinds: vec!["int".to_string()],
            csv: csv.to_string(),
        }
    }

    #[test]
    fn blobs_are_a_fresh_cache_each_open() {
        let dir = tmpdir("cache");
        let (e, _, _) = StorageEngine::open(&dir).unwrap();
        e.blobs().put("r", b"payload", 1).unwrap();
        e.blobs().flush().unwrap();
        drop(e);
        let (e, _, _) = StorageEngine::open(&dir).unwrap();
        assert!(!e.blobs().contains("r"), "physical cache starts empty");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_reported_and_dropped() {
        use std::io::Write as _;
        let dir = tmpdir("torn");
        let (mut e, _, _) = StorageEngine::open(&dir).unwrap();
        e.log_load("a", &["int".into()], "1\n").unwrap();
        drop(e);
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&[0x55; 7]).unwrap();
        drop(f);
        let (_, replay, report) = StorageEngine::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(report.dropped_tail_bytes, 7);
        let _ = fs::remove_dir_all(&dir);
    }
}
