//! Redo-only write-ahead log of logical operations.
//!
//! Why *logical* records (the `LOAD` text, the store-query text) rather
//! than physical page images: the §2.3 dictionary encoding assigns codes in
//! first-appearance order, so replaying the same loads in the same order
//! re-interns every string to the same code. That makes recovered `RESULT`
//! frames byte-identical to an uninterrupted server — a physical redo log
//! would have to snapshot every dictionary to achieve the same.
//!
//! Frame layout, little-endian: `[body_len: u32][crc: u64][body]` with
//! `body = [lsn: u64][kind: u8][payload]`. The crc is FNV-1a-64 over the
//! body. Replay walks frames until the file ends or a frame fails its
//! checks; everything after the first bad frame is a torn tail, truncated
//! at open so the next append lands on a clean boundary. fsync discipline:
//! [`Wal::append`] does not return until the frame is on stable storage —
//! the server acknowledges a `LOAD` only after its record is durable.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{Result, StorageError};
use crate::fnv1a64;
use crate::metrics::StorageMetrics;

/// Frame header bytes: body_len(4) + crc(8).
const FRAME_HEADER: usize = 12;

/// Upper bound on one body — a defence against interpreting garbage as a
/// multi-gigabyte allocation.
const MAX_BODY: usize = 1 << 30;

/// One logical operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A `LOAD name kinds csv` that mutated the catalog and a disk.
    Load {
        /// Relation name.
        name: String,
        /// Column kind spellings, exactly as the wire request gave them.
        kinds: Vec<String>,
        /// The CSV payload, byte-for-byte.
        csv: String,
    },
    /// A query whose result was stored back (`... STORE AS t`).
    Query {
        /// The query text, byte-for-byte.
        text: String,
    },
    /// A checkpoint marker (records before it are covered by the snapshot).
    Checkpoint,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(bytes: &[u8], at: &mut usize) -> Result<String> {
    let corrupt = || StorageError::Corrupt {
        detail: "wal: truncated string field".to_string(),
    };
    if bytes.len() < *at + 4 {
        return Err(corrupt());
    }
    let len = u32::from_le_bytes(bytes[*at..*at + 4].try_into().unwrap()) as usize;
    *at += 4;
    if bytes.len() < *at + len {
        return Err(corrupt());
    }
    let s =
        String::from_utf8(bytes[*at..*at + len].to_vec()).map_err(|_| StorageError::Corrupt {
            detail: "wal: string field not UTF-8".to_string(),
        })?;
    *at += len;
    Ok(s)
}

impl WalRecord {
    fn kind_byte(&self) -> u8 {
        match self {
            WalRecord::Load { .. } => 1,
            WalRecord::Query { .. } => 2,
            WalRecord::Checkpoint => 3,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Load { name, kinds, csv } => {
                put_str(&mut out, name);
                out.extend_from_slice(&(kinds.len() as u32).to_le_bytes());
                for k in kinds {
                    put_str(&mut out, k);
                }
                put_str(&mut out, csv);
            }
            WalRecord::Query { text } => put_str(&mut out, text),
            WalRecord::Checkpoint => {}
        }
        out
    }

    fn decode_payload(kind: u8, bytes: &[u8]) -> Result<WalRecord> {
        let mut at = 0usize;
        let rec = match kind {
            1 => {
                let name = get_str(bytes, &mut at)?;
                if bytes.len() < at + 4 {
                    return Err(StorageError::Corrupt {
                        detail: "wal: truncated kinds count".to_string(),
                    });
                }
                let n = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
                at += 4;
                let mut kinds = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    kinds.push(get_str(bytes, &mut at)?);
                }
                let csv = get_str(bytes, &mut at)?;
                WalRecord::Load { name, kinds, csv }
            }
            2 => WalRecord::Query {
                text: get_str(bytes, &mut at)?,
            },
            3 => WalRecord::Checkpoint,
            other => {
                return Err(StorageError::Corrupt {
                    detail: format!("wal: unknown record kind {other}"),
                })
            }
        };
        if at != bytes.len() {
            return Err(StorageError::Corrupt {
                detail: "wal: trailing bytes in record payload".to_string(),
            });
        }
        Ok(rec)
    }
}

/// Encode one `[len][crc][body]` frame.
pub fn encode_frame(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let payload = record.encode_payload();
    let mut body = Vec::with_capacity(9 + payload.len());
    body.extend_from_slice(&lsn.to_le_bytes());
    body.push(record.kind_byte());
    body.extend_from_slice(&payload);
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Encode a record sequence as concatenated frames numbered from zero —
/// the snapshot stream format (checkpoint snapshots reuse the WAL framing so
/// one parser covers both). The engine assembles snapshots incrementally
/// from what is durable; tests hold it to this one-shot reference.
#[cfg(test)]
pub(crate) fn encode_records(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, r) in records.iter().enumerate() {
        out.extend_from_slice(&encode_frame(i as u64, r));
    }
    out
}

/// Strictly decode a record sequence: any malformed frame is an error (used
/// for checkpoint snapshots, which are written atomically and must be whole).
pub fn decode_records(bytes: &[u8]) -> Result<Vec<WalRecord>> {
    let mut out = Vec::new();
    for_each_record(bytes, |record| out.push(record))?;
    Ok(out)
}

/// Strictly walk a record sequence, handing each record to `visit` — what
/// [`decode_records`] collects, for callers that only need to look.
pub fn for_each_record(bytes: &[u8], mut visit: impl FnMut(WalRecord)) -> Result<()> {
    let mut at = 0usize;
    while at < bytes.len() {
        match parse_frame(&bytes[at..]) {
            ParsedFrame::Ok {
                record, frame_len, ..
            } => {
                visit(record);
                at += frame_len;
            }
            ParsedFrame::Bad { detail } => return Err(StorageError::Corrupt { detail }),
        }
    }
    Ok(())
}

/// Leniently walk a log image: every intact `(lsn, record)` from the start,
/// and the byte offset where the first bad frame (or the end) was met.
fn intact_prefix(raw: &[u8]) -> (Vec<(u64, WalRecord)>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < raw.len() {
        match parse_frame(&raw[at..]) {
            ParsedFrame::Ok {
                lsn,
                record,
                frame_len,
            } => {
                records.push((lsn, record));
                at += frame_len;
            }
            ParsedFrame::Bad { .. } => break,
        }
    }
    (records, at)
}

enum ParsedFrame {
    Ok {
        lsn: u64,
        record: WalRecord,
        frame_len: usize,
    },
    Bad {
        detail: String,
    },
}

fn parse_frame(bytes: &[u8]) -> ParsedFrame {
    let bad = |detail: &str| ParsedFrame::Bad {
        detail: detail.to_string(),
    };
    if bytes.len() < FRAME_HEADER {
        return bad("short frame header");
    }
    let body_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    if !(9..=MAX_BODY).contains(&body_len) {
        return bad("implausible frame length");
    }
    if bytes.len() < FRAME_HEADER + body_len {
        return bad("frame extends past end of log");
    }
    let crc = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    let body = &bytes[FRAME_HEADER..FRAME_HEADER + body_len];
    if fnv1a64(body) != crc {
        return bad("frame checksum mismatch");
    }
    let lsn = u64::from_le_bytes(body[0..8].try_into().unwrap());
    match WalRecord::decode_payload(body[8], &body[9..]) {
        Ok(record) => ParsedFrame::Ok {
            lsn,
            record,
            frame_len: FRAME_HEADER + body_len,
        },
        Err(e) => ParsedFrame::Bad {
            detail: e.to_string(),
        },
    }
}

/// What replay found at the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalTail {
    /// Bytes of intact frames from the start.
    pub valid_bytes: u64,
    /// Torn/garbage bytes dropped after the last intact frame.
    pub dropped_bytes: u64,
}

/// What [`Wal::open`] yields: the handle, the replayed `(lsn, record)`
/// sequence, and the tail report.
pub type WalOpen = (Wal, Vec<(u64, WalRecord)>, WalTail);

/// The open log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_lsn: u64,
    bytes: u64,
    metrics: Arc<StorageMetrics>,
}

impl Wal {
    /// Open `path`, replay every intact frame, truncate any torn tail.
    ///
    /// Returns the log handle, the replayed `(lsn, record)` sequence and a
    /// tail report.
    pub fn open(path: &Path, metrics: Arc<StorageMetrics>) -> Result<WalOpen> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;

        let (records, at) = intact_prefix(&raw);
        let next_lsn = records.iter().map(|(lsn, _)| lsn + 1).max().unwrap_or(0);
        let tail = WalTail {
            valid_bytes: at as u64,
            dropped_bytes: (raw.len() - at) as u64,
        };
        if tail.dropped_bytes > 0 {
            file.set_len(at as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(at as u64))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                next_lsn,
                bytes: at as u64,
                metrics,
            },
            records,
            tail,
        ))
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Current log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Append `record`, fsync, return its LSN. The record is durable when
    /// this returns — callers acknowledge only after.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let lsn = self.next_lsn;
        let frame = encode_frame(lsn, record);
        self.file.write_all(&frame)?;
        let start = Instant::now();
        self.file.sync_data()?;
        self.metrics
            .wal_fsync_ns
            .observe(start.elapsed().as_nanos() as u64);
        self.metrics.wal_fsyncs.inc();
        self.metrics.wal_records.inc();
        self.metrics.wal_bytes.add(frame.len() as u64);
        self.next_lsn += 1;
        self.bytes += frame.len() as u64;
        Ok(lsn)
    }

    /// Re-read the records this log holds on disk, in append order. Every
    /// append was fsynced before it was counted, so anything but exactly
    /// [`Wal::bytes`] bytes of intact frames means the file is no longer
    /// what was written.
    pub fn read_records(&self) -> Result<Vec<WalRecord>> {
        let raw = std::fs::read(&self.path)?;
        let (records, at) = intact_prefix(&raw);
        if at as u64 != self.bytes || at != raw.len() {
            return Err(StorageError::Corrupt {
                detail: format!(
                    "wal: {} intact of {} bytes on disk, {} appended",
                    at,
                    raw.len(),
                    self.bytes
                ),
            });
        }
        Ok(records.into_iter().map(|(_, record)| record).collect())
    }

    /// Truncate the log to empty (after a checkpoint made it redundant).
    /// LSNs stay monotone across the truncation.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(0))?;
        self.bytes = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_telemetry::metrics::Registry;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sdb_wal_{}_{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn metrics() -> Arc<StorageMetrics> {
        let r = Box::leak(Box::new(Registry::new()));
        Arc::new(StorageMetrics::from_registry(r))
    }

    fn load(name: &str) -> WalRecord {
        WalRecord::Load {
            name: name.to_string(),
            kinds: vec!["int".to_string(), "str".to_string()],
            csv: "1,a\n2,b\n".to_string(),
        }
    }

    #[test]
    fn records_replay_in_order_across_reopen() {
        let path = tmp("replay");
        let m = metrics();
        let (mut wal, recs, tail) = Wal::open(&path, m.clone()).unwrap();
        assert!(recs.is_empty());
        assert_eq!(tail.dropped_bytes, 0);
        assert_eq!(wal.append(&load("emp")).unwrap(), 0);
        assert_eq!(
            wal.append(&WalRecord::Query {
                text: "SELECT ...".to_string()
            })
            .unwrap(),
            1
        );
        drop(wal);
        let (wal, recs, tail) = Wal::open(&path, m).unwrap();
        assert_eq!(tail.dropped_bytes, 0);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], (0, load("emp")));
        assert_eq!(wal.next_lsn(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_appends_continue_cleanly() {
        let path = tmp("torn");
        let m = metrics();
        let (mut wal, _, _) = Wal::open(&path, m.clone()).unwrap();
        wal.append(&load("a")).unwrap();
        drop(wal);
        // A crash mid-append: half a frame of garbage.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&encode_frame(1, &load("b"))[..10]).unwrap();
        drop(f);
        let (mut wal, recs, tail) = Wal::open(&path, m.clone()).unwrap();
        assert_eq!(recs.len(), 1, "only the intact record replays");
        assert_eq!(tail.dropped_bytes, 10);
        wal.append(&load("c")).unwrap();
        drop(wal);
        let (_, recs, tail) = Wal::open(&path, m).unwrap();
        assert_eq!(tail.dropped_bytes, 0);
        assert_eq!(recs.len(), 2);
        assert!(matches!(&recs[1].1, WalRecord::Load { name, .. } if name == "c"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_encoding_round_trips_strictly() {
        let records = vec![load("emp"), WalRecord::Checkpoint, load("dept")];
        let bytes = encode_records(&records);
        assert_eq!(decode_records(&bytes).unwrap(), records);
        // Strict mode: any damage is an error, not a silent stop.
        let mut broken = bytes.clone();
        let last = broken.len() - 1;
        broken[last] ^= 0xFF;
        assert!(decode_records(&broken).is_err());
        assert!(decode_records(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn reset_empties_the_log_but_lsns_stay_monotone() {
        let path = tmp("reset");
        let m = metrics();
        let (mut wal, _, _) = Wal::open(&path, m.clone()).unwrap();
        wal.append(&load("a")).unwrap();
        wal.append(&load("b")).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.bytes(), 0);
        assert_eq!(wal.append(&load("c")).unwrap(), 2);
        drop(wal);
        let (_, recs, _) = Wal::open(&path, m).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, 2);
        let _ = std::fs::remove_file(&path);
    }
}
