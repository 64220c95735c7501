//! Named blobs laid out across pages — the paged store behind the disk.
//!
//! A blob (an encoded relation, or a checkpoint snapshot) is chunked across
//! consecutive pages: one `BlobHead` page whose payload opens with a
//! directory entry (`name`, total length), then `BlobCont` pages. Blobs are
//! append-only — overwriting a name appends a fresh copy and repoints the
//! in-memory directory; the old pages become garbage reclaimed by the next
//! checkpoint-driven rebuild. Head pages carry the writer's LSN, so when a
//! scan of an existing file finds two heads claiming one name, the higher
//! LSN wins.
//!
//! A caller that keeps its own directory — the machine's disks, which
//! already record every relation they hold — writes with
//! [`BlobStore::append`] and reads by the returned [`BlobRef`], so each
//! relation is recorded once in memory, not also here by name.
//!
//! All reads go through the [`BufferPool`], so disk-model reads exercise
//! real hit/miss/eviction behaviour (`sdb_storage_pool_*`); writes go
//! straight to the file, so blobs nobody reads take no frame.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::error::{Result, StorageError};
use crate::metrics::StorageMetrics;
use crate::page::{Page, PageKind, PAYLOAD_CAP};
use crate::pagefile::PageFile;
use crate::pool::BufferPool;

/// Where a blob's pages start and how many bytes it holds: what
/// [`BlobStore::append`] returns and [`BlobStore::read`] takes, for callers
/// that keep their own directory (the machine's disks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobRef {
    head: u64,
    len: u64,
}

/// Directory entry: where a named blob is, and the LSN it was written at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlobMeta {
    at: BlobRef,
    lsn: u64,
}

/// Head-page payload prefix: name length, name bytes, total blob length.
fn encode_head_prefix(name: &str, total: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + name.len());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&total.to_le_bytes());
    out
}

fn decode_head_prefix(payload: &[u8], page_id: u64) -> Result<(String, u64, usize)> {
    let corrupt = |detail: String| StorageError::Corrupt { detail };
    if payload.len() < 4 {
        return Err(corrupt(format!("blob head {page_id}: truncated prefix")));
    }
    let name_len = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let need = 4 + name_len + 8;
    if payload.len() < need {
        return Err(corrupt(format!("blob head {page_id}: truncated prefix")));
    }
    let name = String::from_utf8(payload[4..4 + name_len].to_vec())
        .map_err(|_| corrupt(format!("blob head {page_id}: name not UTF-8")))?;
    let total = u64::from_le_bytes(payload[4 + name_len..need].try_into().unwrap());
    Ok((name, total, need))
}

/// The paged blob store.
pub struct BlobStore {
    pool: BufferPool,
    dir: BTreeMap<String, BlobMeta>,
    next_page: u64,
    next_lsn: u64,
}

impl std::fmt::Debug for BlobStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlobStore")
            .field("blobs", &self.dir.len())
            .field("next_page", &self.next_page)
            .finish()
    }
}

impl BlobStore {
    /// Open `path`, scanning any existing pages to rebuild the directory.
    ///
    /// The scan stops at the first unreadable page — everything beyond a
    /// torn write is treated as garbage, exactly like a torn WAL tail. The
    /// logical redo pass re-stores anything lost this way.
    pub fn open(path: &Path, pool_pages: usize, metrics: Arc<StorageMetrics>) -> Result<BlobStore> {
        let file = PageFile::open(path)?;
        let mut store = BlobStore {
            pool: BufferPool::new(file, pool_pages, metrics),
            dir: BTreeMap::new(),
            next_page: 0,
            next_lsn: 1,
        };
        store.rescan()?;
        Ok(store)
    }

    /// Open `path` after truncating it — a fresh physical cache, used for
    /// the live relation store that recovery rebuilds from the log.
    pub fn create(
        path: &Path,
        pool_pages: usize,
        metrics: Arc<StorageMetrics>,
    ) -> Result<BlobStore> {
        let mut file = PageFile::open(path)?;
        file.truncate()?;
        Ok(BlobStore {
            pool: BufferPool::new(file, pool_pages, metrics),
            dir: BTreeMap::new(),
            next_page: 0,
            next_lsn: 1,
        })
    }

    fn rescan(&mut self) -> Result<()> {
        self.dir.clear();
        let pages = self.pool.file_mut().pages();
        let mut id = 0u64;
        while id < pages {
            let page = match self.pool.file_mut().read_page(id) {
                Ok(p) => p,
                // Torn/corrupt page: everything from here on is garbage.
                Err(StorageError::Corrupt { .. }) => break,
                Err(e) => return Err(e),
            };
            self.next_lsn = self.next_lsn.max(page.lsn + 1);
            if page.kind == PageKind::BlobHead {
                let (name, total, prefix) = decode_head_prefix(&page.payload, id)?;
                let span = Self::page_span(total, prefix);
                let replace = self
                    .dir
                    .get(&name)
                    .map(|old| page.lsn >= old.lsn)
                    .unwrap_or(true);
                if replace {
                    let at = BlobRef {
                        head: id,
                        len: total,
                    };
                    self.dir.insert(name, BlobMeta { at, lsn: page.lsn });
                }
                id += span;
            } else {
                id += 1;
            }
        }
        self.next_page = id;
        Ok(())
    }

    /// Pages a blob of `total` bytes occupies, given its head prefix size.
    fn page_span(total: u64, prefix: usize) -> u64 {
        let head_room = (PAYLOAD_CAP - prefix) as u64;
        if total <= head_room {
            1
        } else {
            1 + (total - head_room).div_ceil(PAYLOAD_CAP as u64)
        }
    }

    /// Store `bytes` under `name` (overwrites), stamping pages with `lsn`.
    /// Pages go straight to the file (refreshing any resident frame); call
    /// [`BlobStore::flush`] for a durability point.
    pub fn put(&mut self, name: &str, bytes: &[u8], lsn: u64) -> Result<()> {
        let at = self.append(name, bytes, lsn)?;
        self.dir.insert(name.to_string(), BlobMeta { at, lsn });
        Ok(())
    }

    /// Write `bytes` as a blob whose head page carries `name`, stamping
    /// pages with `lsn`, without entering it in the directory: the caller
    /// keeps the returned [`BlobRef`] and reads it back with
    /// [`BlobStore::read`]. A rescan of the file still finds it by name.
    pub fn append(&mut self, name: &str, bytes: &[u8], lsn: u64) -> Result<BlobRef> {
        let prefix = encode_head_prefix(name, bytes.len() as u64);
        let head_room = PAYLOAD_CAP - prefix.len();
        let head_chunk = bytes.len().min(head_room);
        let head_id = self.next_page;

        let mut payload = prefix;
        payload.extend_from_slice(&bytes[..head_chunk]);
        self.pool
            .put(Page::new(PageKind::BlobHead, head_id, lsn, payload))?;
        let mut written = head_chunk;
        let mut id = head_id + 1;
        while written < bytes.len() {
            let chunk = (bytes.len() - written).min(PAYLOAD_CAP);
            self.pool.put(Page::new(
                PageKind::BlobCont,
                id,
                lsn,
                bytes[written..written + chunk].to_vec(),
            ))?;
            written += chunk;
            id += 1;
        }
        self.next_page = id;
        self.next_lsn = self.next_lsn.max(lsn + 1);
        Ok(BlobRef {
            head: head_id,
            len: bytes.len() as u64,
        })
    }

    /// [`BlobStore::append`], stamping with the store's own monotone LSN —
    /// for callers (like the disk backing) that don't run a WAL.
    pub fn append_next(&mut self, name: &str, bytes: &[u8]) -> Result<BlobRef> {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.append(name, bytes, lsn)
    }

    /// Read the blob stored under `name`, through the pool.
    pub fn get(&mut self, name: &str) -> Result<Vec<u8>> {
        let meta = *self
            .dir
            .get(name)
            .ok_or_else(|| StorageError::UnknownBlob {
                name: name.to_string(),
            })?;
        self.read(name, meta.at)
    }

    /// Read the blob at `at`, through the pool, checking that its head
    /// page carries `name` and its length.
    pub fn read(&mut self, name: &str, at: BlobRef) -> Result<Vec<u8>> {
        let head = self.pool.fetch(at.head)?;
        if head.kind != PageKind::BlobHead {
            return Err(StorageError::Corrupt {
                detail: format!("page {} is not a blob head", at.head),
            });
        }
        let (stored_name, total, prefix) = decode_head_prefix(&head.payload, at.head)?;
        if stored_name != name || total != at.len {
            return Err(StorageError::Corrupt {
                detail: format!("blob head {} does not match its reference", at.head),
            });
        }
        let mut out = Vec::with_capacity(total as usize);
        out.extend_from_slice(&head.payload[prefix..]);
        let mut id = at.head + 1;
        while (out.len() as u64) < total {
            let page = self.pool.fetch(id)?;
            if page.kind != PageKind::BlobCont {
                return Err(StorageError::Corrupt {
                    detail: format!("page {id}: expected blob continuation"),
                });
            }
            out.extend_from_slice(&page.payload);
            id += 1;
        }
        if out.len() as u64 != total {
            return Err(StorageError::Corrupt {
                detail: format!("blob {name}: reassembled {} of {total} bytes", out.len()),
            });
        }
        Ok(out)
    }

    /// True when `name` is in the directory.
    pub fn contains(&self, name: &str) -> bool {
        self.dir.contains_key(name)
    }

    /// Names in the directory, sorted.
    pub fn names(&self) -> Vec<String> {
        self.dir.keys().cloned().collect()
    }

    /// fsync the page file.
    pub fn flush(&mut self) -> Result<()> {
        self.pool.flush()
    }
}

/// A cloneable, lockable handle — what the machine's `Disk` holds.
#[derive(Clone)]
pub struct SharedBlobStore {
    inner: Arc<Mutex<BlobStore>>,
}

impl std::fmt::Debug for SharedBlobStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_lock() {
            Ok(store) => store.fmt(f),
            Err(_) => f.write_str("SharedBlobStore(<locked>)"),
        }
    }
}

impl SharedBlobStore {
    /// Wrap a store.
    pub fn new(store: BlobStore) -> SharedBlobStore {
        SharedBlobStore {
            inner: Arc::new(Mutex::new(store)),
        }
    }

    /// See [`BlobStore::put`].
    pub fn put(&self, name: &str, bytes: &[u8], lsn: u64) -> Result<()> {
        self.inner.lock().unwrap().put(name, bytes, lsn)
    }

    /// See [`BlobStore::append_next`].
    pub fn append_next(&self, name: &str, bytes: &[u8]) -> Result<BlobRef> {
        self.inner.lock().unwrap().append_next(name, bytes)
    }

    /// See [`BlobStore::get`].
    pub fn get(&self, name: &str) -> Result<Vec<u8>> {
        self.inner.lock().unwrap().get(name)
    }

    /// See [`BlobStore::read`].
    pub fn read(&self, name: &str, at: BlobRef) -> Result<Vec<u8>> {
        self.inner.lock().unwrap().read(name, at)
    }

    /// See [`BlobStore::contains`].
    pub fn contains(&self, name: &str) -> bool {
        self.inner.lock().unwrap().contains(name)
    }

    /// See [`BlobStore::names`].
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().unwrap().names()
    }

    /// See [`BlobStore::flush`].
    pub fn flush(&self) -> Result<()> {
        self.inner.lock().unwrap().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use systolic_telemetry::metrics::Registry;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sdb_blob_{}_{name}.pg", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn metrics() -> Arc<StorageMetrics> {
        // Leak-free enough for tests: each gets a private registry.
        let r = Box::leak(Box::new(Registry::new()));
        Arc::new(StorageMetrics::from_registry(r))
    }

    #[test]
    fn blobs_round_trip_across_reopen() {
        let path = tmp("roundtrip");
        let m = metrics();
        let mut s = BlobStore::open(&path, 8, m.clone()).unwrap();
        let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        s.put("emp", b"small", 1).unwrap();
        s.put("big", &big, 2).unwrap();
        s.flush().unwrap();
        assert_eq!(s.get("emp").unwrap(), b"small");
        assert_eq!(s.get("big").unwrap(), big);
        drop(s);
        let mut s = BlobStore::open(&path, 8, m).unwrap();
        assert_eq!(s.names(), vec!["big".to_string(), "emp".to_string()]);
        assert_eq!(s.get("big").unwrap(), big);
        assert!(matches!(
            s.get("missing"),
            Err(StorageError::UnknownBlob { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overwrite_appends_and_higher_lsn_wins_on_rescan() {
        let path = tmp("overwrite");
        let m = metrics();
        let mut s = BlobStore::open(&path, 8, m.clone()).unwrap();
        s.put("r", b"old", 1).unwrap();
        s.put("r", b"new contents", 2).unwrap();
        s.flush().unwrap();
        assert_eq!(s.get("r").unwrap(), b"new contents");
        drop(s);
        let mut s = BlobStore::open(&path, 8, m).unwrap();
        assert_eq!(s.get("r").unwrap(), b"new contents");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appended_blobs_are_read_by_reference_not_by_name() {
        let path = tmp("append");
        let m = metrics();
        let mut s = BlobStore::create(&path, 4, m.clone()).unwrap();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 249) as u8).collect();
        let at = s.append_next("d0:r", &big).unwrap();
        assert!(!s.contains("d0:r"), "append keeps no directory entry");
        assert_eq!(s.read("d0:r", at).unwrap(), big);
        assert!(matches!(
            s.read("d0:other", at),
            Err(StorageError::Corrupt { .. })
        ));
        s.flush().unwrap();
        drop(s);
        // The head page still names the blob, so a rescan finds it.
        let mut s = BlobStore::open(&path, 4, m).unwrap();
        assert_eq!(s.get("d0:r").unwrap(), big);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_truncates_existing_contents() {
        let path = tmp("create");
        let m = metrics();
        let mut s = BlobStore::open(&path, 4, m.clone()).unwrap();
        s.put("r", b"stale", 1).unwrap();
        s.flush().unwrap();
        drop(s);
        let s = BlobStore::create(&path, 4, m).unwrap();
        assert!(!s.contains("r"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tiny_pool_still_reassembles_large_blobs() {
        let path = tmp("tinypool");
        let m = metrics();
        let mut s = BlobStore::open(&path, 1, m.clone()).unwrap();
        let big: Vec<u8> = (0..100_000u32).map(|i| (i % 253) as u8).collect();
        s.put("big", &big, 1).unwrap();
        s.flush().unwrap();
        assert_eq!(s.get("big").unwrap(), big);
        assert!(m.pool_evictions.get() > 0, "capacity-1 pool must evict");
        let _ = std::fs::remove_file(&path);
    }
}
