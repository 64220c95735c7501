//! Durable storage beneath the §9 machine's disk model.
//!
//! The paper's integrated system "initially ... read\[s\] the relevant
//! relations from disks into memories" (§9) but never says where the disk
//! contents come from or what survives power loss — a 1980 machine paper can
//! leave that to the I/O subsystem. A reproduction that serves queries over
//! a network cannot: a restart must not lose every `LOAD`. This crate is the
//! layer the simulated disk stands on:
//!
//! * [`page`] / [`pagefile`] — fixed-size pages with checksummed headers; a
//!   torn or corrupted page is *detected*, never silently decoded.
//! * [`pool`] — a read-cache buffer pool with a second-chance clock
//!   replacement policy ([`pool::ClockReplacer`]) fronting the page
//!   files; writes bypass it.
//! * [`blob`] — named byte blobs (encoded relations) laid out across pages;
//!   the backing store for `Disk::read` in the machine crate.
//! * [`wal`] — a redo-only write-ahead log of *logical* operations
//!   (`LOAD`s and store-queries), LSN-stamped, fsynced before the server
//!   acknowledges. Logical redo is what makes recovered `RESULT` frames
//!   byte-identical: replaying loads in their original order re-interns
//!   every dictionary code identically (§2.3 encoding).
//! * [`engine`] — recovery orchestration: redo from the last checkpoint,
//!   then the WAL suffix, dropping a torn tail cleanly.
//! * [`lock`] — a shared/exclusive lock table giving concurrent
//!   `LOAD`/`QUERY` sessions real isolation.
//!
//! Two clocks, one rule: everything in this crate runs on *host* time.
//! fsync latency, recovery time and pool hit rates are reported through
//! [`metrics`]; none of it ever enters the simulated pulse accounting.
#![forbid(unsafe_code)]

pub mod blob;
pub mod codec;
pub mod engine;
pub mod error;
pub mod lock;
pub mod metrics;
pub mod page;
pub mod pagefile;
pub mod pool;
pub mod wal;

pub use blob::{BlobRef, BlobStore, SharedBlobStore};
pub use engine::{CheckpointReport, RecoveryReport, StorageEngine};
pub use error::StorageError;
pub use lock::{LockGuard, LockMode, LockTable};
pub use metrics::StorageMetrics;
pub use pool::{BufferPool, ClockReplacer};
pub use wal::WalRecord;

/// FNV-1a over 64 bits — the checksum used by page headers and WAL frames.
///
/// Not cryptographic; it detects torn writes and bit rot, which is all a
/// single-writer log needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
