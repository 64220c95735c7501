//! Poison-free lock accessors.
//!
//! `std` mutexes poison when a holder panics, and `.lock().unwrap()` then
//! turns *every later* access into a panic — one crashed worker becomes a
//! server-wide cascade. None of the state guarded in this crate can be left
//! half-updated in a way later readers cannot tolerate (counters are plain
//! integers, queues are pop-safe, the catalog's `register` is effectively
//! transactional), so the right recovery is to take the data and keep
//! serving. These helpers centralise that decision. The one lock that must
//! not recover is the machine's (`Shared::machine`): a panic during a turn
//! can leave it half-updated, so every later turn fails closed instead.

use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock a mutex, recovering the data if a previous holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquire a read guard, recovering from poisoning.
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquire a write guard, recovering from poisoning.
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Wait on a condition variable, recovering the guard from poisoning.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_access_survives_a_poisoning_panic() {
        let m = Arc::new(Mutex::new(7));
        let holder = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("injected panic while holding the lock");
        })
        .join();
        assert!(m.is_poisoned(), "the panic must have poisoned the mutex");
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }

    #[test]
    fn rwlock_access_survives_a_poisoning_panic() {
        let l = Arc::new(RwLock::new(vec![1, 2]));
        let holder = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = holder.write().unwrap();
            panic!("injected panic while holding the write lock");
        })
        .join();
        assert!(l.is_poisoned());
        write(&l).push(3);
        assert_eq!(read(&l).len(), 3);
    }

    #[test]
    fn condvar_wait_recovers_a_poisoned_guard() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let holder = Arc::clone(&pair);
        let _ = std::thread::spawn(move || {
            let _guard = holder.0.lock().unwrap();
            panic!("injected panic");
        })
        .join();
        let notifier = Arc::clone(&pair);
        std::thread::spawn(move || {
            *lock(&notifier.0) = true;
            notifier.1.notify_all();
        });
        let mut guard = lock(&pair.0);
        while !*guard {
            guard = wait(&pair.1, guard);
        }
        assert!(*guard);
    }
}
