//! A shared/exclusive lock table for concurrent sessions.
//!
//! The machine already serialises *execution* (one request runs on the
//! `System` at a time), but the sessions around it are concurrent: many
//! register loads and prepare queries against the catalog at once. The lock table gives those
//! sessions real isolation — readers share, writers exclude — so a `QUERY`
//! can never observe a relation mid-`LOAD`.
//!
//! Deadlock freedom by construction: [`LockTable::acquire_all`] takes every
//! lock a session needs in one all-or-nothing step under a single mutex.
//! Either all names are grantable and all are taken atomically, or the
//! session waits on the condvar — it never holds some locks while blocking
//! on others, which is the only way lock-order cycles form.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// How a session intends to touch a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockMode {
    /// Read: compatible with other readers.
    Shared,
    /// Write: excludes everyone.
    Exclusive,
}

#[derive(Debug, Default, Clone, Copy)]
struct LockState {
    readers: usize,
    writer: bool,
}

impl LockState {
    fn grantable(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => !self.writer,
            LockMode::Exclusive => !self.writer && self.readers == 0,
        }
    }

    fn grant(&mut self, mode: LockMode) {
        match mode {
            LockMode::Shared => self.readers += 1,
            LockMode::Exclusive => self.writer = true,
        }
    }

    fn release(&mut self, mode: LockMode) {
        match mode {
            LockMode::Shared => self.readers -= 1,
            LockMode::Exclusive => self.writer = false,
        }
    }

    fn idle(&self) -> bool {
        self.readers == 0 && !self.writer
    }
}

/// The table: relation name → grant state.
#[derive(Debug, Default)]
pub struct LockTable {
    state: Mutex<HashMap<String, LockState>>,
    released: Condvar,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> LockTable {
        LockTable::default()
    }

    /// The grant map, whether or not a holder panicked. Every critical
    /// section here is a few map updates that cannot themselves panic, so
    /// the map is consistent after a poisoning panic, and refusing it would
    /// fail every later session (and abort in [`LockGuard`]'s `drop` during
    /// an unwind).
    fn state(&self) -> MutexGuard<'_, HashMap<String, LockState>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire one lock; see [`LockTable::acquire_all`].
    pub fn acquire(&self, name: &str, mode: LockMode) -> LockGuard<'_> {
        self.acquire_all(vec![(name.to_string(), mode)])
    }

    /// Block until *every* requested lock is grantable, then take them all
    /// atomically. Duplicate names collapse to the strongest mode requested.
    pub fn acquire_all(&self, mut wants: Vec<(String, LockMode)>) -> LockGuard<'_> {
        // Sort and collapse duplicates, exclusive winning — a session that
        // both reads and writes a name needs the write lock.
        wants.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        wants.dedup_by(|next, keep| next.0 == keep.0);

        let mut state = self.state();
        loop {
            let all_free = wants
                .iter()
                .all(|(name, mode)| state.get(name).map(|s| s.grantable(*mode)).unwrap_or(true));
            if all_free {
                for (name, mode) in &wants {
                    state.entry(name.clone()).or_default().grant(*mode);
                }
                return LockGuard {
                    table: self,
                    held: wants,
                };
            }
            state = self
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Try to take every lock without blocking.
    pub fn try_acquire_all(&self, mut wants: Vec<(String, LockMode)>) -> Option<LockGuard<'_>> {
        wants.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        wants.dedup_by(|next, keep| next.0 == keep.0);
        let mut state = self.state();
        let all_free = wants
            .iter()
            .all(|(name, mode)| state.get(name).map(|s| s.grantable(*mode)).unwrap_or(true));
        if !all_free {
            return None;
        }
        for (name, mode) in &wants {
            state.entry(name.clone()).or_default().grant(*mode);
        }
        Some(LockGuard {
            table: self,
            held: wants,
        })
    }

    /// Number of names with at least one grant (for tests/telemetry).
    pub fn held_names(&self) -> usize {
        self.state().len()
    }
}

/// RAII grant: dropping releases every lock and wakes waiters.
#[derive(Debug)]
pub struct LockGuard<'a> {
    table: &'a LockTable,
    held: Vec<(String, LockMode)>,
}

impl LockGuard<'_> {
    /// The (name, mode) pairs this guard holds, sorted by name.
    pub fn held(&self) -> &[(String, LockMode)] {
        &self.held
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.table.state();
        for (name, mode) in &self.held {
            if let Some(s) = state.get_mut(name) {
                s.release(*mode);
                if s.idle() {
                    state.remove(name);
                }
            }
        }
        drop(state);
        self.table.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn readers_share_writers_exclude() {
        let t = LockTable::new();
        let r1 = t.acquire("emp", LockMode::Shared);
        let _r2 = t.acquire("emp", LockMode::Shared);
        assert!(t
            .try_acquire_all(vec![("emp".into(), LockMode::Exclusive)])
            .is_none());
        drop(r1);
        assert!(t
            .try_acquire_all(vec![("emp".into(), LockMode::Exclusive)])
            .is_none());
        // Unrelated names are free.
        assert!(t
            .try_acquire_all(vec![("dept".into(), LockMode::Exclusive)])
            .is_some());
    }

    #[test]
    fn duplicates_collapse_to_exclusive() {
        let t = LockTable::new();
        let g = t.acquire_all(vec![
            ("emp".into(), LockMode::Shared),
            ("emp".into(), LockMode::Exclusive),
            ("emp".into(), LockMode::Shared),
        ]);
        assert_eq!(g.held(), &[("emp".to_string(), LockMode::Exclusive)]);
        assert!(t
            .try_acquire_all(vec![("emp".into(), LockMode::Shared)])
            .is_none());
    }

    #[test]
    fn blocked_writer_proceeds_once_readers_drain() {
        let t = Arc::new(LockTable::new());
        let r = t.acquire("emp", LockMode::Shared);
        let t2 = t.clone();
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = done.clone();
        let h = thread::spawn(move || {
            let _w = t2.acquire("emp", LockMode::Exclusive);
            done2.store(1, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(30));
        assert_eq!(done.load(Ordering::SeqCst), 0, "writer must wait");
        drop(r);
        h.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(t.held_names(), 0, "idle entries are pruned");
    }

    #[test]
    fn all_or_nothing_prevents_hold_and_wait_cycles() {
        // Two sessions wanting {a,b} in opposite orders would deadlock under
        // incremental acquisition; all-or-nothing cannot.
        let t = Arc::new(LockTable::new());
        let mut handles = Vec::new();
        for flip in [false, true] {
            for _ in 0..8 {
                let t = t.clone();
                handles.push(thread::spawn(move || {
                    for _ in 0..50 {
                        let wants = if flip {
                            vec![
                                ("a".to_string(), LockMode::Exclusive),
                                ("b".to_string(), LockMode::Exclusive),
                            ]
                        } else {
                            vec![
                                ("b".to_string(), LockMode::Exclusive),
                                ("a".to_string(), LockMode::Exclusive),
                            ]
                        };
                        let _g = t.acquire_all(wants);
                    }
                }));
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.held_names(), 0);
    }
}
