//! Buffer pool and its replacement policy.
//!
//! The pool keeps up to `capacity` resident pages in front of a
//! [`PageFile`]. Which frame to surrender when full is decided by a
//! [`ClockReplacer`] (second-chance clock). It is generic over the key so
//! the *same* policy drives both page frames (keyed by page id) and the
//! machine's staging memories (keyed by relation name).

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;

use crate::error::Result;
use crate::metrics::StorageMetrics;
use crate::page::Page;
use crate::pagefile::PageFile;

/// Second-chance clock: a circular scan over (key, referenced-bit) slots.
/// A referenced entry gets one more lap; an unreferenced one is the victim.
///
/// The clock tracks *candidates*: keys that may be surrendered. Callers
/// record accesses, remove keys that become ineligible, and ask for a
/// victim when space is needed.
#[derive(Debug)]
pub struct ClockReplacer<K> {
    slots: Vec<Option<(K, bool)>>,
    index: HashMap<K, usize>,
    free: Vec<usize>,
    hand: usize,
}

impl<K: Hash + Eq + Clone> ClockReplacer<K> {
    /// An empty clock.
    pub fn new() -> Self {
        ClockReplacer {
            slots: Vec::new(),
            index: HashMap::new(),
            free: Vec::new(),
            hand: 0,
        }
    }

    /// Note that `key` was touched (inserting it if new).
    pub fn record_access(&mut self, key: &K) {
        if let Some(&slot) = self.index.get(key) {
            if let Some(entry) = self.slots[slot].as_mut() {
                entry.1 = true;
            }
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some((key.clone(), true));
                s
            }
            None => {
                self.slots.push(Some((key.clone(), true)));
                self.slots.len() - 1
            }
        };
        self.index.insert(key.clone(), slot);
    }

    /// Forget `key` entirely.
    pub fn remove(&mut self, key: &K) {
        if let Some(slot) = self.index.remove(key) {
            self.slots[slot] = None;
            self.free.push(slot);
        }
    }

    /// Choose and forget a victim, or `None` when empty.
    pub fn victim(&mut self) -> Option<K> {
        if self.index.is_empty() {
            return None;
        }
        // At most two laps: the first clears referenced bits, the second
        // must find an unreferenced entry.
        for _ in 0..2 * self.slots.len() {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            if let Some((key, referenced)) = self.slots[slot].as_mut() {
                if *referenced {
                    *referenced = false;
                } else {
                    let key = key.clone();
                    self.slots[slot] = None;
                    self.free.push(slot);
                    self.index.remove(&key);
                    return Some(key);
                }
            }
        }
        None
    }
}

impl<K: Hash + Eq + Clone> Default for ClockReplacer<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// The buffer pool: resident frames over a page file, write-back on
/// eviction, explicit [`BufferPool::flush`] for durability points.
pub struct BufferPool {
    file: PageFile,
    capacity: usize,
    frames: HashMap<u64, Page>,
    dirty: HashSet<u64>,
    replacer: ClockReplacer<u64>,
    metrics: Arc<StorageMetrics>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.frames.len())
            .field("dirty", &self.dirty.len())
            .finish()
    }
}

impl BufferPool {
    /// A pool of `capacity` frames over `file`, evicting by clock.
    pub fn new(file: PageFile, capacity: usize, metrics: Arc<StorageMetrics>) -> BufferPool {
        BufferPool {
            file,
            capacity: capacity.max(1),
            frames: HashMap::new(),
            dirty: HashSet::new(),
            replacer: ClockReplacer::new(),
            metrics,
        }
    }

    /// Frames currently resident.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// The underlying file (for scans that bypass the pool).
    pub fn file_mut(&mut self) -> &mut PageFile {
        &mut self.file
    }

    /// Fetch page `id`, from a resident frame or the file.
    pub fn fetch(&mut self, id: u64) -> Result<Page> {
        if let Some(page) = self.frames.get(&id) {
            self.metrics.pool_hits.inc();
            let page = page.clone();
            self.replacer.record_access(&id);
            return Ok(page);
        }
        self.metrics.pool_misses.inc();
        let page = self.file.read_page(id)?;
        self.admit(page.clone())?;
        Ok(page)
    }

    /// Write `page` through the pool (frame made resident and dirty; the
    /// file is updated on eviction or [`BufferPool::flush`]).
    pub fn put(&mut self, page: Page) -> Result<()> {
        self.dirty.insert(page.page_id);
        self.admit(page)
    }

    /// Make a frame resident, evicting if the pool is full.
    fn admit(&mut self, page: Page) -> Result<()> {
        let id = page.page_id;
        if !self.frames.contains_key(&id) && self.frames.len() >= self.capacity {
            self.evict_one()?;
        }
        self.frames.insert(id, page);
        self.replacer.record_access(&id);
        Ok(())
    }

    fn evict_one(&mut self) -> Result<()> {
        if let Some(victim) = self.replacer.victim() {
            if let Some(page) = self.frames.remove(&victim) {
                if self.dirty.remove(&victim) {
                    self.file.write_page(&page)?;
                }
                self.metrics.pool_evictions.inc();
            }
        }
        Ok(())
    }

    /// Write every dirty frame and fsync the file.
    pub fn flush(&mut self) -> Result<()> {
        if self.dirty.is_empty() {
            return Ok(());
        }
        let mut ids: Vec<u64> = self.dirty.drain().collect();
        ids.sort_unstable();
        for id in ids {
            if let Some(page) = self.frames.get(&id) {
                self.file.write_page(page)?;
            }
        }
        self.file.sync()
    }

    /// Drop every frame (dirty ones are flushed first).
    pub fn clear(&mut self) -> Result<()> {
        self.flush()?;
        for id in self.frames.keys() {
            self.replacer.remove(id);
        }
        self.frames.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;
    use std::path::PathBuf;
    use systolic_telemetry::metrics::Registry;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sdb_pool_{}_{name}.pg", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn metrics() -> (Registry, Arc<StorageMetrics>) {
        let r = Registry::new();
        let m = Arc::new(StorageMetrics::from_registry(&r));
        (r, m)
    }

    fn page(id: u64) -> Page {
        Page::new(PageKind::BlobCont, id, 0, vec![id as u8; 8])
    }

    #[test]
    fn clock_gives_a_second_chance() {
        let mut c: ClockReplacer<u64> = ClockReplacer::new();
        for k in 0..3u64 {
            c.record_access(&k);
        }
        // First victim call clears all referenced bits, then takes 0.
        assert_eq!(c.victim(), Some(0));
        // Touch 1: it survives the next sweep, 2 goes first.
        c.record_access(&1);
        assert_eq!(c.victim(), Some(2));
        assert_eq!(c.victim(), Some(1));
        assert_eq!(c.victim(), None);
    }

    #[test]
    fn pool_counts_hits_misses_and_evictions() {
        let path = tmp("counts");
        let (_r, m) = metrics();
        let mut pool = BufferPool::new(PageFile::open(&path).unwrap(), 2, m.clone());
        for id in 0..3u64 {
            pool.put(page(id)).unwrap();
        }
        // Capacity 2: inserting page 2 evicted page 0 (the clock's first
        // sweep clears every referenced bit), writing it back.
        assert_eq!(m.pool_evictions.get(), 1);
        assert_eq!(pool.resident(), 2);
        pool.fetch(2).unwrap(); // resident
        assert_eq!(m.pool_hits.get(), 1);
        pool.flush().unwrap();
        pool.fetch(0).unwrap(); // evicted earlier -> file read
        assert_eq!(m.pool_misses.get(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dirty_frames_survive_eviction_and_flush() {
        let path = tmp("dirty");
        let (_r, m) = metrics();
        let mut pool = BufferPool::new(PageFile::open(&path).unwrap(), 1, m);
        pool.put(page(0)).unwrap();
        pool.put(page(1)).unwrap(); // evicts 0, which must hit the file
        pool.flush().unwrap();
        drop(pool);
        let mut f = PageFile::open(&path).unwrap();
        assert_eq!(f.read_page(0).unwrap().payload, vec![0u8; 8]);
        assert_eq!(f.read_page(1).unwrap().payload, vec![1u8; 8]);
        let _ = std::fs::remove_file(&path);
    }
}
