//! Disk and memory modules of the integrated system (Figure 9-1).
//!
//! "Initially, the relevant relations are read from disks into memories."
//! The disk is the rotational, cylinder-per-revolution device of §8; memory
//! modules are the staging buffers the crossbar connects to the systolic
//! devices. Disks "with 'logic-per-track' capabilities \[8\] can of course be
//! incorporated into the system, so that some simple queries never have to
//! be processed outside the disks" — modelled as a selection predicate
//! applied during the transfer at no extra cost.

use std::collections::{BTreeMap, HashMap};

use systolic_core::select::Predicate;
use systolic_fabric::CompareOp;
use systolic_relation::{Elem, MultiRelation};
use systolic_storage::{codec, BlobRef, SharedBlobStore};

use crate::error::{MachineError, Result};

/// Bytes occupied by a relation: rows x arity x word size (§2.3 stores
/// every element as one integer word).
pub fn relation_bytes(rel: &MultiRelation, bytes_per_word: u64) -> u64 {
    rel.len() as u64 * rel.arity() as u64 * bytes_per_word
}

fn shape_of(rel: &MultiRelation) -> (u64, usize) {
    (rel.len() as u64, rel.arity())
}

/// A selection predicate a logic-per-track disk can apply on the fly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackFilter {
    /// Column tested.
    pub col: usize,
    /// Comparison applied.
    pub op: CompareOp,
    /// Constant compared against.
    pub value: Elem,
}

impl From<Predicate> for TrackFilter {
    fn from(p: Predicate) -> Self {
        TrackFilter {
            col: p.col,
            op: p.op,
            value: p.value,
        }
    }
}

impl TrackFilter {
    /// Apply to a relation (used by the disk during a read).
    ///
    /// # Panics
    ///
    /// If `col` is not a column of `rel`; [`Disk::read`] checks first.
    pub fn apply(&self, rel: &MultiRelation) -> MultiRelation {
        let rows = rel.rows();
        rel.filter_by_index(|i| self.op.eval(rows[i][self.col], self.value))
    }
}

/// The paged backing of one disk: a shared blob store plus this disk's
/// namespace prefix and the names it owns. This map is the one in-memory
/// record of a stored relation: where its blob is (the blob store keeps no
/// directory entry for it) and the `(rows, arity)` it was written with, so
/// pricing can size it without decoding a page. Each simulated disk names
/// its blobs `d<i>:<name>` so a name that moves between disks (`store(...)`
/// write-backs pick channels by load) never aliases another disk's bytes
/// when a page file is rescanned. A `BTreeMap` grows a node at a time; a
/// hash map's doubling would hold two tables at its peak.
#[derive(Debug)]
struct Backing {
    store: SharedBlobStore,
    prefix: String,
    owned: BTreeMap<String, Stored>,
}

/// One relation in the paged store.
#[derive(Debug, Clone, Copy)]
struct Stored {
    blob: BlobRef,
    shape: (u64, usize),
}

impl Backing {
    fn key(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    /// Encode `rel` into pages; false (nothing recorded) on a host I/O
    /// error.
    fn write(&mut self, name: String, rel: &MultiRelation) -> bool {
        let written = self
            .store
            .append_next(&self.key(&name), &codec::encode_relation(rel));
        if let Ok(blob) = written {
            let shape = shape_of(rel);
            self.owned.insert(name, Stored { blob, shape });
        }
        written.is_ok()
    }
}

/// The rotational disk: stores named base relations, delivers them at the
/// §8 rate (one cylinder per revolution), optionally filtering on the fly.
///
/// Unbacked (the default, used by benches and direct simulation), contents
/// live in a host `HashMap`. With [`Disk::attach_backing`], contents live
/// in a paged blob store and every read decodes pages fetched through the
/// buffer pool — the durable-server configuration. Either way the *model*
/// is identical: transfer time is priced from the relation's §2.3 size, so
/// `RunStats` are bit-identical between the two modes (two-clocks rule:
/// host I/O time never leaks into simulated pulses).
#[derive(Debug)]
pub struct Disk {
    relations: HashMap<String, MultiRelation>,
    backing: Option<Backing>,
    /// Bytes transferred per revolution.
    pub bytes_per_revolution: u64,
    /// Revolution time in nanoseconds (17 ms for a 3600-rpm disk).
    pub revolution_ns: u64,
    /// Word size used for byte accounting.
    pub bytes_per_word: u64,
}

impl Disk {
    /// The paper's disk: 3600 rpm, 500,000 bytes per revolution, 4-byte
    /// words, logic-per-track available.
    pub fn paper_disk() -> Self {
        Disk {
            relations: HashMap::new(),
            backing: None,
            bytes_per_revolution: 500_000,
            revolution_ns: 16_666_667,
            bytes_per_word: 4,
        }
    }

    /// Back this disk with a paged store, moving any current contents into
    /// it under the given namespace `prefix`.
    pub fn attach_backing(&mut self, store: SharedBlobStore, prefix: String) {
        let mut backing = Backing {
            store,
            prefix,
            owned: BTreeMap::new(),
        };
        // A relation whose move-in fails stays in the host map, as after a
        // failed `store`; in practice this runs on an empty disk at server
        // startup.
        self.relations
            .retain(|name, rel| !backing.write(name.clone(), rel));
        self.backing = Some(backing);
    }

    /// Whether this disk is backed by a paged store.
    pub fn is_backed(&self) -> bool {
        self.backing.is_some()
    }

    /// Store a base relation under `name` (overwrites).
    ///
    /// When backed, the relation is encoded into pages written to the
    /// paged store (they take no pool frame until read). If the paged
    /// write fails (host I/O error), the copy is kept in memory instead —
    /// the paged store is a rebuildable cache, the WAL above this layer
    /// owns durability, and reads must keep working.
    pub fn store(&mut self, name: impl Into<String>, rel: MultiRelation) {
        let name = name.into();
        self.remove(&name);
        if let Some(backing) = &mut self.backing {
            if backing.write(name.clone(), &rel) {
                return;
            }
        }
        self.relations.insert(name, rel);
    }

    /// Forget `name`, if stored here. A relation has one home on the
    /// machine: whoever writes it to another disk drops this copy.
    pub fn remove(&mut self, name: &str) {
        self.relations.remove(name);
        if let Some(backing) = &mut self.backing {
            backing.owned.remove(name);
        }
    }

    /// `(rows, arity)` of a stored relation, without fetching it: all that
    /// pricing a read needs (§8: transfer time is a function of size).
    pub fn shape(&self, name: &str) -> Option<(u64, usize)> {
        self.relations.get(name).map(shape_of).or_else(|| {
            self.backing
                .as_ref()
                .and_then(|b| b.owned.get(name).map(|s| s.shape))
        })
    }

    /// Names of stored relations (unspecified order).
    pub fn names(&self) -> Vec<String> {
        let mut out: Vec<String> = self.relations.keys().cloned().collect();
        if let Some(backing) = &self.backing {
            out.extend(backing.owned.keys().cloned());
        }
        out
    }

    /// Fetch a stored relation (decoding from pages when backed).
    pub fn fetch(&self, name: &str) -> Result<MultiRelation> {
        if let Some(rel) = self.relations.get(name) {
            return Ok(rel.clone());
        }
        let (backing, stored) = self
            .backing
            .as_ref()
            .and_then(|b| Some((b, b.owned.get(name)?)))
            .ok_or_else(|| MachineError::UnknownRelation {
                name: name.to_string(),
            })?;
        let bytes = backing
            .store
            .read(&backing.key(name), stored.blob)
            .map_err(|e| MachineError::Storage {
                detail: e.to_string(),
            })?;
        codec::decode_relation(&bytes).map_err(|e| MachineError::Storage {
            detail: e.to_string(),
        })
    }

    /// Time to deliver `bytes` through the read channel, in nanoseconds.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        // Rate reasoning as in §8; partial revolutions are prorated.
        (bytes as u128 * self.revolution_ns as u128 / self.bytes_per_revolution as u128) as u64
    }

    /// Read a relation, optionally applying a logic-per-track filter.
    /// Returns the delivered relation and the transfer time. The *full*
    /// relation crosses the head even when filtered (the filter sits behind
    /// the head), so transfer time is based on the stored size — but the
    /// bytes delivered to memory shrink. A filter on a column the relation
    /// does not have is [`RelationError::ColumnOutOfRange`], checked before
    /// any row is looked at (an empty relation included), exactly as the
    /// same predicate fails as an on-device selection.
    ///
    /// [`RelationError::ColumnOutOfRange`]: systolic_relation::RelationError::ColumnOutOfRange
    pub fn read(&self, name: &str, filter: Option<TrackFilter>) -> Result<(MultiRelation, u64)> {
        let stored = self.fetch(name)?;
        let time = self.transfer_ns(relation_bytes(&stored, self.bytes_per_word));
        let delivered = match filter {
            Some(f) => {
                stored.schema().column(f.col)?;
                f.apply(&stored)
            }
            None => stored,
        };
        Ok((delivered, time))
    }
}

/// One memory module on the crossbar: a byte budget and the size of each
/// staged relation. The rows themselves never enter the scheduler — a
/// module's only job in the model is to be full or not.
#[derive(Debug)]
pub struct MemoryModule {
    /// Module index (its crossbar port).
    pub id: usize,
    /// Capacity in bytes.
    pub capacity: u64,
    used: u64,
    contents: HashMap<String, u64>,
}

impl MemoryModule {
    /// An empty module.
    pub fn new(id: usize, capacity: u64) -> Self {
        MemoryModule {
            id,
            capacity,
            used: 0,
            contents: HashMap::new(),
        }
    }

    /// Bytes currently used.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Stage `bytes` under `name`, accounting capacity.
    pub fn store(&mut self, name: impl Into<String>, bytes: u64) -> Result<()> {
        let name = name.into();
        // Replacing frees the old copy first.
        if let Some(old) = self.contents.remove(&name) {
            self.used -= old;
        }
        if bytes > self.free() {
            let res = Err(MachineError::MemoryOverflow {
                module: self.id,
                requested: bytes,
                available: self.free(),
            });
            return res;
        }
        self.used += bytes;
        self.contents.insert(name, bytes);
        Ok(())
    }

    /// Bytes staged under `name`.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.contents.get(name).copied()
    }

    /// Drop a staged relation, freeing (and returning) its bytes.
    pub fn evict(&mut self, name: &str) -> Option<u64> {
        let bytes = self.contents.remove(name)?;
        self.used -= bytes;
        Some(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_relation::gen::synth_schema;

    fn rel(rows: &[&[Elem]]) -> MultiRelation {
        MultiRelation::new(synth_schema(2), rows.iter().map(|r| r.to_vec()).collect()).unwrap()
    }

    #[test]
    fn disk_transfer_time_matches_the_paper_rate() {
        let d = Disk::paper_disk();
        // 500,000 bytes take exactly one revolution.
        assert_eq!(d.transfer_ns(500_000), d.revolution_ns);
        // 2 MB takes 4 revolutions.
        assert_eq!(d.transfer_ns(2_000_000), 4 * d.revolution_ns);
    }

    #[test]
    fn disk_read_round_trips_relations() {
        let mut d = Disk::paper_disk();
        d.store("emp", rel(&[&[1, 10], &[2, 20]]));
        let (got, time) = d.read("emp", None).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(time, d.transfer_ns(2 * 2 * 4));
        assert!(d.read("missing", None).is_err());
        assert_eq!(d.names().len(), 1);
    }

    #[test]
    fn logic_per_track_filters_during_the_read() {
        let mut d = Disk::paper_disk();
        d.store("emp", rel(&[&[1, 10], &[2, 20], &[3, 30]]));
        let f = TrackFilter {
            col: 1,
            op: CompareOp::Ge,
            value: 20,
        };
        let (got, time_filtered) = d.read("emp", Some(f)).unwrap();
        assert_eq!(got.len(), 2);
        // The whole relation still passes under the head.
        let (_, time_plain) = d.read("emp", None).unwrap();
        assert_eq!(time_filtered, time_plain);
    }

    #[test]
    fn memory_accounts_capacity_and_rejects_overflow() {
        let mut m = MemoryModule::new(0, 100);
        m.store("a", relation_bytes(&rel(&[&[1, 1], &[2, 2]]), 4))
            .unwrap(); // 16 bytes
        assert_eq!(m.used(), 16);
        assert_eq!(m.free(), 84);
        let big_rows: Vec<Vec<Elem>> = (0..20).map(|i| vec![i, i]).collect();
        let big = MultiRelation::new(synth_schema(2), big_rows).unwrap(); // 160 bytes
        assert!(matches!(
            m.store("b", relation_bytes(&big, 4)),
            Err(MachineError::MemoryOverflow { .. })
        ));
        assert!(m.get("a").is_some());
        assert!(m.get("b").is_none());
    }

    #[test]
    fn memory_replacement_frees_the_old_copy() {
        let mut m = MemoryModule::new(0, 64);
        m.store("a", 32).unwrap();
        m.store("a", 8).unwrap(); // 8 after freeing 32
        assert_eq!(m.used(), 8);
        assert_eq!(m.evict("a"), Some(8));
        assert_eq!(m.used(), 0);
        assert!(m.evict("a").is_none());
    }

    #[test]
    fn backed_disk_round_trips_with_identical_transfer_time() {
        use systolic_storage::{BlobStore, SharedBlobStore, StorageMetrics};

        let mut path = std::env::temp_dir();
        path.push(format!("sdb_disk_backing_{}.pg", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut plain = Disk::paper_disk();
        let mut backed = Disk::paper_disk();
        // Store before attaching: attach must migrate existing contents.
        backed.store("emp", rel(&[&[1, 10], &[2, 20]]));
        let store =
            SharedBlobStore::new(BlobStore::create(&path, 8, StorageMetrics::shared()).unwrap());
        backed.attach_backing(store.clone(), "d0:".into());
        assert!(backed.is_backed());
        // And after attaching: writes go straight through.
        backed.store("dept", rel(&[&[7, 70]]));
        plain.store("emp", rel(&[&[1, 10], &[2, 20]]));
        plain.store("dept", rel(&[&[7, 70]]));

        for name in ["emp", "dept"] {
            let (want, want_ns) = plain.read(name, None).unwrap();
            let (got, got_ns) = backed.read(name, None).unwrap();
            assert_eq!(got.rows(), want.rows(), "{name} rows diverge");
            assert_eq!(got_ns, want_ns, "{name} transfer time diverges");
        }
        // The bytes really live in the paged store, not in the host map.
        assert!(backed.relations.is_empty());
        assert!(backed.shape("missing").is_none());
        let mut names = backed.names();
        names.sort();
        assert_eq!(names, vec!["dept".to_string(), "emp".to_string()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn track_filter_semantics() {
        let r = rel(&[&[1, 5], &[2, 9]]);
        let f = TrackFilter {
            col: 1,
            op: CompareOp::Lt,
            value: 9,
        };
        let out = f.apply(&r);
        assert_eq!(out.rows().to_vec(), [vec![1, 5]]);
    }
}
