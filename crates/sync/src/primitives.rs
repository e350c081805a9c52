//! Drop-in, site-labelled wrappers over `std::sync`.
//!
//! Contracts shared by every wrapper:
//!
//! - **Site labels.** Every instance is constructed with a static label
//!   from [`crate::sites`]; the label is what shows up in the lock-order
//!   graph, the declared hierarchy, and smell reports.
//! - **Poison tolerance.** A panicked holder never cascades: `lock`,
//!   `read`, `write`, `get_mut`, and `into_inner` all recover the inner
//!   value via [`PoisonError::into_inner`]. The workspace's drivers treat a
//!   worker panic as that evaluation's problem, not the ledger's — the data
//!   under the lock is plain-old-data that stays structurally valid.
//! - **Chaos instrumentation.** While [`crate::chaos`] is armed,
//!   acquisitions perturb the schedule (deterministic seeded yields) and
//!   record into the global graph. Disarmed, each operation adds a single
//!   relaxed atomic load.
//!
//! [`PoisonError::into_inner`]: std::sync::PoisonError::into_inner

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::chaos;

// ---------------------------------------------------------------------------
// SyncMutex
// ---------------------------------------------------------------------------

/// A site-labelled, poison-tolerant, chaos-instrumented [`Mutex`].
#[derive(Debug, Default)]
pub struct SyncMutex<T> {
    site: &'static str,
    inner: Mutex<T>,
}

impl<T> SyncMutex<T> {
    /// Wrap `value` under the site label `site` (see [`crate::sites`]).
    pub const fn new(site: &'static str, value: T) -> Self {
        SyncMutex {
            site,
            inner: Mutex::new(value),
        }
    }

    /// The site label this mutex was declared with.
    pub fn site(&self) -> &'static str {
        self.site
    }

    /// Acquire the lock. Never panics on poisoning — the inner value is
    /// recovered. Under chaos, perturbs the schedule first and records the
    /// acquisition into the lock-order graph.
    pub fn lock(&self) -> SyncMutexGuard<'_, T> {
        if chaos::armed() {
            chaos::maybe_perturb(self.site);
        }
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let held = chaos::on_acquired(self.site);
        SyncMutexGuard {
            guard: Some(guard),
            held,
        }
    }

    /// Mutable access without locking (requires `&mut self`, so no other
    /// thread can hold the lock). Poison-tolerant.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Consume the mutex, returning the inner value. Poison-tolerant.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Guard for [`SyncMutex::lock`]; releasing it unwinds the per-thread held
/// stack and flags long critical sections while chaos is armed.
///
/// The inner guard is an `Option` only so [`SyncCondvar::wait`] can move it
/// out past this type's `Drop` impl; it is `Some` for the guard's entire
/// user-visible lifetime.
pub struct SyncMutexGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    held: Option<chaos::HeldToken>,
}

impl<T> Deref for SyncMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_deref().expect("guard moved out by wait()")
    }
}

impl<T> DerefMut for SyncMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_deref_mut()
            .expect("guard moved out by wait()")
    }
}

impl<T> Drop for SyncMutexGuard<'_, T> {
    fn drop(&mut self) {
        chaos::on_released(self.held.take());
    }
}

// ---------------------------------------------------------------------------
// SyncRwLock
// ---------------------------------------------------------------------------

/// A site-labelled, poison-tolerant, chaos-instrumented [`RwLock`]. Both
/// read and write acquisitions participate in the lock-order graph —
/// reader/writer inversions deadlock just as well as writer/writer ones.
#[derive(Debug, Default)]
pub struct SyncRwLock<T> {
    site: &'static str,
    inner: RwLock<T>,
}

impl<T> SyncRwLock<T> {
    /// Wrap `value` under the site label `site`.
    pub const fn new(site: &'static str, value: T) -> Self {
        SyncRwLock {
            site,
            inner: RwLock::new(value),
        }
    }

    /// The site label this lock was declared with.
    pub fn site(&self) -> &'static str {
        self.site
    }

    /// Acquire a shared read guard (poison-tolerant, instrumented).
    pub fn read(&self) -> SyncRwLockReadGuard<'_, T> {
        if chaos::armed() {
            chaos::maybe_perturb(self.site);
        }
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let held = chaos::on_acquired(self.site);
        SyncRwLockReadGuard { guard, held }
    }

    /// Acquire the exclusive write guard (poison-tolerant, instrumented).
    pub fn write(&self) -> SyncRwLockWriteGuard<'_, T> {
        if chaos::armed() {
            chaos::maybe_perturb(self.site);
        }
        let guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let held = chaos::on_acquired(self.site);
        SyncRwLockWriteGuard { guard, held }
    }

    /// Mutable access without locking. Poison-tolerant.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Consume the lock, returning the inner value. Poison-tolerant.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Shared guard for [`SyncRwLock::read`].
pub struct SyncRwLockReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    held: Option<chaos::HeldToken>,
}

impl<T> Deref for SyncRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Drop for SyncRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        chaos::on_released(self.held.take());
    }
}

/// Exclusive guard for [`SyncRwLock::write`].
pub struct SyncRwLockWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    held: Option<chaos::HeldToken>,
}

impl<T> Deref for SyncRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for SyncRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for SyncRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        chaos::on_released(self.held.take());
    }
}

// ---------------------------------------------------------------------------
// SyncCondvar
// ---------------------------------------------------------------------------

/// A site-labelled [`Condvar`] over [`SyncMutex`] guards. Waiting while
/// holding *any other* instrumented lock is recorded as a
/// [`held-across-wait`](crate::graph::SmellKind::HeldAcrossWait) smell —
/// the classic lost-wakeup/deadlock shape the wrapper exists to catch.
#[derive(Debug, Default)]
pub struct SyncCondvar {
    site: &'static str,
    inner: Condvar,
}

impl SyncCondvar {
    /// A condvar under the site label `site`.
    pub const fn new(site: &'static str) -> Self {
        SyncCondvar {
            site,
            inner: Condvar::new(),
        }
    }

    /// The site label this condvar was declared with.
    pub fn site(&self) -> &'static str {
        self.site
    }

    /// Block on the condvar, releasing (and on wake re-acquiring) the
    /// guard's mutex. Poison-tolerant; smell-checked.
    pub fn wait<'a, T>(&self, mut guard: SyncMutexGuard<'a, T>) -> SyncMutexGuard<'a, T> {
        chaos::on_wait(self.site, guard.held.as_ref());
        // The OS-level wait releases the mutex: unwind the held stack for
        // the duration so concurrent acquisitions see the truth.
        let entry = guard.held.take();
        chaos::on_released(entry);
        let inner = guard.guard.take().expect("guard moved out by wait()");
        drop(guard); // held already unwound; releases nothing
        let woken = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        let held = chaos::on_acquired(self.site_of_guard());
        SyncMutexGuard {
            guard: Some(woken),
            held,
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    fn site_of_guard(&self) -> &'static str {
        // Re-acquisition after a wait is attributed to the condvar's own
        // site: the interesting order fact is "woke up inside <site>".
        self.site
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

macro_rules! sync_atomic {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prim:ty) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            site: &'static str,
            inner: $inner,
        }

        impl $name {
            /// Wrap `value` under the site label `site`. `const`, so the
            /// wrapper can back `static` counters.
            pub const fn new(site: &'static str, value: $prim) -> Self {
                $name { site, inner: <$inner>::new(value) }
            }

            /// The site label this atomic was declared with.
            pub fn site(&self) -> &'static str {
                self.site
            }

            /// Atomic load (instrumented under chaos).
            pub fn load(&self, order: Ordering) -> $prim {
                chaos::on_atomic(self.site);
                self.inner.load(order)
            }

            /// Atomic store (instrumented under chaos).
            pub fn store(&self, value: $prim, order: Ordering) {
                chaos::on_atomic(self.site);
                self.inner.store(value, order)
            }

            /// Atomic fetch-add (instrumented under chaos).
            pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                chaos::on_atomic(self.site);
                self.inner.fetch_add(value, order)
            }

            /// Atomic compare-exchange (instrumented under chaos).
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                chaos::on_atomic(self.site);
                self.inner.compare_exchange(current, new, success, failure)
            }

            /// Non-atomic read through `&mut self`.
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }
        }
    };
}

sync_atomic!(
    /// A site-labelled, chaos-instrumented [`AtomicUsize`].
    SyncAtomicUsize,
    AtomicUsize,
    usize
);
sync_atomic!(
    /// A site-labelled, chaos-instrumented [`AtomicU64`].
    SyncAtomicU64,
    AtomicU64,
    u64
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    #[test]
    fn mutex_recovers_from_poisoning() {
        let m = std::sync::Arc::new(SyncMutex::new("test.poison", 41usize));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // A poisoned std Mutex would panic here; the wrapper recovers.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        let Ok(mut m) = std::sync::Arc::try_unwrap(m) else {
            panic!("sole owner")
        };
        assert_eq!(*m.get_mut(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_recovers_from_poisoning() {
        let l = std::sync::Arc::new(SyncRwLock::new("test.rw_poison", vec![1, 2]));
        let l2 = std::sync::Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison the lock");
        })
        .join();
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn armed_nesting_is_recorded_with_sites() {
        let _c = crate::arm(11);
        graph::reset();
        let outer = SyncMutex::new("test.outer", ());
        let inner = SyncRwLock::new("test.inner", 0u32);
        {
            let _o = outer.lock();
            let _i = inner.write();
        }
        {
            let _i = inner.read();
        }
        let snap = graph::snapshot();
        assert_eq!(snap.edges.get(&("test.outer", "test.inner")), Some(&1));
        assert_eq!(snap.nodes.get("test.inner"), Some(&2));
        assert!(snap.inversions.is_empty());
        assert_eq!(snap.cycle(), None);
        graph::reset();
    }

    #[test]
    fn abba_nesting_is_flagged_as_inversion_and_cycle() {
        let _c = crate::arm(12);
        graph::reset();
        let a = SyncMutex::new("test.a", ());
        let b = SyncMutex::new("test.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // single-threaded, so no deadlock — but ABBA
        }
        let snap = graph::snapshot();
        assert_eq!(
            snap.inversions,
            vec![graph::Inversion {
                a: "test.a",
                b: "test.b"
            }]
        );
        assert!(snap.cycle().is_some());
        graph::reset();
    }

    #[test]
    fn condvar_wait_while_holding_another_lock_is_a_smell() {
        let _c = crate::arm(13);
        graph::reset();
        let other = std::sync::Arc::new(SyncMutex::new("test.held_elsewhere", ()));
        let m = std::sync::Arc::new(SyncMutex::new("test.cv_mutex", ()));
        let cv = std::sync::Arc::new(SyncCondvar::new("test.cv"));
        let (other2, m2, cv2) = (
            std::sync::Arc::clone(&other),
            std::sync::Arc::clone(&m),
            std::sync::Arc::clone(&cv),
        );
        // One unconditional wait (spurious wakeups just end it early) while
        // holding an unrelated lock — exactly the smell the wrapper flags.
        let waiter = std::thread::spawn(move || {
            let _held = other2.lock();
            let guard = m2.lock();
            drop(cv2.wait(guard));
        });
        while !waiter.is_finished() {
            cv.notify_all();
            std::thread::yield_now();
        }
        waiter.join().expect("waiter exits");
        let snap = graph::snapshot();
        assert!(
            snap.smells
                .iter()
                .any(|s| s.kind == graph::SmellKind::HeldAcrossWait
                    && s.site == "test.cv"
                    && s.held.contains(&"test.held_elsewhere")),
            "expected a held-across-wait smell: {:?}",
            snap.smells
        );
        graph::reset();
    }

    #[test]
    fn atomics_count_without_joining_the_held_stack() {
        let _c = crate::arm(14);
        graph::reset();
        static COUNTER: SyncAtomicUsize = SyncAtomicUsize::new("test.counter", 0);
        let m = SyncMutex::new("test.atomic_outer", ());
        {
            let _g = m.lock();
            COUNTER.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(COUNTER.load(Ordering::Relaxed), 1);
        let snap = graph::snapshot();
        // The atomic is counted but never appears as an edge endpoint: it
        // cannot be "held".
        assert!(snap.nodes.get("test.counter").copied().unwrap_or(0) >= 2);
        assert!(snap
            .edges
            .keys()
            .all(|(a, b)| *a != "test.counter" && *b != "test.counter"));
        graph::reset();
    }

    #[test]
    fn atomic_u64_and_compare_exchange_work() {
        let a = SyncAtomicU64::new("test.u64", 5);
        assert_eq!(a.fetch_add(2, Ordering::Relaxed), 5);
        assert_eq!(
            a.compare_exchange(7, 9, Ordering::SeqCst, Ordering::SeqCst),
            Ok(7)
        );
        assert_eq!(a.load(Ordering::Relaxed), 9);
        a.store(1, Ordering::Relaxed);
        assert_eq!(a.load(Ordering::Relaxed), 1);
        assert_eq!(a.site(), "test.u64");
    }
}
