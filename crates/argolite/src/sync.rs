//! The sanctioned synchronization module.
//!
//! Every `Mutex` and `Condvar` in `argolite` and `asyncvol` must come
//! from here — clippy's `disallowed_types` (each crate's `clippy.toml`)
//! rejects the `std::sync` ones anywhere else in those crates, tests
//! included; this module, which wraps them, is the one exemption. The
//! same ban covers the standard reader-writer lock, and neither crate
//! needs one, so none is offered. Centralizing acquisition buys two
//! things:
//!
//! 1. **A poison-transparent, `parking_lot`-shaped API.** Guards are
//!    returned directly (no `Result`); a panic while holding a lock does
//!    not poison it for the rest of the process. Background I/O threads
//!    must keep serving other datasets after one job panics — the ring
//!    already turns that panic into the job's error.
//! 2. **A lock-order graph recorder** (compiled under the
//!    `debug-invariants` feature). Locks constructed with
//!    [`Mutex::new_named`] belong to a *lock class*. Each thread tracks
//!    the stack of classes it holds; acquiring
//!    class `B` while holding class `A` records the edge `A → B` in a
//!    process-global graph. An acquisition whose edge closes a cycle —
//!    including the length-1 cycle of re-acquiring a held class — is a
//!    *would-deadlock*: two threads interleaving those orders can block
//!    forever. The recorder panics at the acquisition site with the full
//!    cycle, turning a timing-dependent hang into a deterministic test
//!    failure. Anonymous locks ([`Mutex::new`]) are exempt, so
//!    fine-grained per-object locks opt in deliberately via a class name.
//!
//! Ordering note: `on_acquire` runs *before* blocking on the underlying
//! lock, so a would-deadlock is reported even on the interleaving that
//! would actually deadlock (where `lock()` would never return).
#![allow(clippy::disallowed_types)]

use std::sync;

#[cfg(feature = "debug-invariants")]
pub mod lock_order {
    //! The `debug-invariants` lock-order graph recorder.

    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Named-lock acquisitions recorded process-wide, across every
    /// thread — background reapers and execution streams included. The
    /// ring's lock-free hot-path guarantee is asserted against this:
    /// pure submit/complete traffic must not move it.
    static ACQUIRES: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// Named-lock acquisitions recorded on this thread.
        static THREAD_ACQUIRES: Cell<u64> = const { Cell::new(0) };
    }

    struct Registry {
        ids: HashMap<&'static str, usize>,
        names: Vec<&'static str>,
        /// `edges[a]` = classes ever acquired while `a` was held.
        edges: Vec<Vec<usize>>,
    }

    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

    thread_local! {
        /// Classes held by this thread, in acquisition order.
        static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    fn registry() -> &'static Mutex<Registry> {
        REGISTRY.get_or_init(|| {
            Mutex::new(Registry {
                ids: HashMap::new(),
                names: Vec::new(),
                edges: Vec::new(),
            })
        })
    }

    /// Intern `name`, returning its class id.
    pub(super) fn class_id(name: &'static str) -> usize {
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = reg.ids.get(name) {
            return id;
        }
        let id = reg.names.len();
        reg.ids.insert(name, id);
        reg.names.push(name);
        reg.edges.push(Vec::new());
        id
    }

    /// Depth-first search for a path `from ⇝ to` in the edge graph.
    fn path(reg: &Registry, from: usize, to: usize) -> Option<Vec<usize>> {
        let mut stack = vec![vec![from]];
        let mut visited = vec![false; reg.names.len()];
        while let Some(p) = stack.pop() {
            let last = *p.last().expect("paths are non-empty");
            if last == to {
                return Some(p);
            }
            if visited[last] {
                continue;
            }
            visited[last] = true;
            for &next in &reg.edges[last] {
                let mut q = p.clone();
                q.push(next);
                stack.push(q);
            }
        }
        None
    }

    /// Record that the current thread is about to acquire `class`.
    ///
    /// Panics with the offending cycle if the acquisition order
    /// contradicts an order some thread has already exhibited.
    pub(super) fn on_acquire(class: usize) {
        ACQUIRES.fetch_add(1, Ordering::Relaxed);
        THREAD_ACQUIRES.with(|c| c.set(c.get() + 1));
        let cycle: Option<String> = HELD.with(|held| {
            let held = held.borrow();
            if held.is_empty() {
                return None;
            }
            let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
            // Re-acquiring a held class is a length-1 cycle: two threads
            // each holding one instance and wanting the other deadlock.
            if let Some(&h) = held.iter().find(|&&h| h == class) {
                return Some(format!(
                    "lock-order violation (would deadlock): class `{0}` acquired while \
                     already held; cycle: {0} → {0}",
                    reg.names[h]
                ));
            }
            for &h in held.iter() {
                // New edge h → class. A pre-existing path class ⇝ h means
                // some thread acquires these classes in the opposite
                // order; together the orders can deadlock.
                if let Some(p) = path(&reg, class, h) {
                    let names: Vec<&str> = p.iter().map(|&i| reg.names[i]).collect();
                    return Some(format!(
                        "lock-order violation (would deadlock): acquiring `{}` while \
                         holding `{}`, but the reverse order was already observed; \
                         cycle: {} → {}",
                        reg.names[class],
                        reg.names[h],
                        names.join(" → "),
                        reg.names[class],
                    ));
                }
                if !reg.edges[h].contains(&class) {
                    reg.edges[h].push(class);
                }
            }
            None
        });
        if let Some(msg) = cycle {
            panic!("{msg}");
        }
        HELD.with(|held| held.borrow_mut().push(class));
    }

    /// Record that the current thread released a lock of `class`.
    pub(super) fn on_release(class: usize) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&h| h == class) {
                held.remove(pos);
            }
        });
    }

    /// Number of classes this thread currently holds (test support).
    pub fn held_depth() -> usize {
        HELD.with(|held| held.borrow().len())
    }

    /// Names of the classes this thread currently holds, in acquisition
    /// order — the schedule explorer's per-step diagnostic.
    pub fn classes_held() -> Vec<&'static str> {
        HELD.with(|held| {
            let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
            held.borrow().iter().map(|&h| reg.names[h]).collect()
        })
    }

    /// Total named-lock acquisitions recorded process-wide since program
    /// start, on every thread (test support). A code region is lock-free
    /// with respect to `argolite::sync` exactly when this count is the
    /// same before and after it — including work done by background
    /// threads the region is waiting on, since those bump the same
    /// counter.
    pub fn total_acquire_count() -> u64 {
        ACQUIRES.load(Ordering::SeqCst)
    }

    /// Named-lock acquisitions recorded on the calling thread (test
    /// support for per-thread hot-path assertions).
    pub fn acquire_count() -> u64 {
        THREAD_ACQUIRES.with(|c| c.get())
    }

    /// Forget every class this thread thinks it holds. Only for the
    /// schedule explorer, which runs task bodies under `catch_unwind`: a
    /// body that leaks a guard (e.g. `mem::forget`) would otherwise
    /// poison the held-stack for every later seed on this thread.
    pub fn clear_held() {
        HELD.with(|held| held.borrow_mut().clear());
    }

    /// Record an acquisition of external lock class `name` on this
    /// thread: registered in the same class table, pushed on the same
    /// held-stack, cycle-checked against the same edge graph as native
    /// `argolite::sync` locks. This is the bridge for foreign crates
    /// that cannot depend on argolite (e.g. h5lite's metadata-plane
    /// shard locks, forwarded through `h5lite::sync::order_hook`).
    /// Must be paired with [`release_class`] in LIFO-compatible order.
    pub fn acquire_class(name: &'static str) {
        on_acquire(class_id(name));
    }

    /// Record the release of an external lock class previously reported
    /// via [`acquire_class`].
    pub fn release_class(name: &'static str) {
        on_release(class_id(name));
    }
}

/// Class tag carried by named locks; zero-sized when invariants are off.
#[derive(Clone, Copy)]
struct Class {
    #[cfg(feature = "debug-invariants")]
    id: Option<usize>,
}

impl Class {
    fn anonymous() -> Self {
        Class {
            #[cfg(feature = "debug-invariants")]
            id: None,
        }
    }

    #[cfg_attr(not(feature = "debug-invariants"), allow(unused_variables))]
    fn named(name: &'static str) -> Self {
        Class {
            #[cfg(feature = "debug-invariants")]
            id: Some(lock_order::class_id(name)),
        }
    }

    #[inline]
    fn acquire(&self) {
        #[cfg(feature = "debug-invariants")]
        if let Some(id) = self.id {
            lock_order::on_acquire(id);
        }
    }

    #[inline]
    fn release(&self) {
        #[cfg(feature = "debug-invariants")]
        if let Some(id) = self.id {
            lock_order::on_release(id);
        }
    }
}

/// A mutual-exclusion lock with a `parking_lot`-shaped, poison-transparent
/// API and (under `debug-invariants`) lock-order recording.
pub struct Mutex<T: ?Sized> {
    class: Class,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// An anonymous (order-untracked) mutex.
    pub fn new(value: T) -> Self {
        Mutex {
            class: Class::anonymous(),
            inner: sync::Mutex::new(value),
        }
    }

    /// A mutex belonging to lock class `name` for order tracking.
    pub fn new_named(name: &'static str, value: T) -> Self {
        Mutex {
            class: Class::named(name),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking. Never returns a poison error.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.class.acquire();
        MutexGuard {
            class: self.class,
            inner: Some(
                self.inner
                    .lock()
                    .unwrap_or_else(sync::PoisonError::into_inner),
            ),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// RAII guard for [`Mutex`]. The `Option` exists so [`Condvar::wait`] can
/// move the underlying guard out and back without re-running the
/// order-recorder (the lock is conceptually held across the wait).
#[must_use = "dropping a MutexGuard immediately releases the lock"]
pub struct MutexGuard<'a, T: ?Sized> {
    class: Class,
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("guard present outside wait"),
        }
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("guard present outside wait"),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.class.release();
    }
}

/// Condition variable pairing with [`Mutex`], `parking_lot`-shaped: waits
/// take `&mut MutexGuard` rather than consuming it.
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// A fresh condition variable.
    pub fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's lock and wait for a notification.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if let Some(g) = guard.inner.take() {
            let g = self
                .inner
                .wait(g)
                .unwrap_or_else(sync::PoisonError::into_inner);
            guard.inner = Some(g);
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
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().expect("waiter joins");
    }

    #[test]
    fn poisoned_lock_stays_usable() {
        let m = Arc::new(Mutex::new(5));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 5, "no poison propagation");
    }

    #[cfg(feature = "debug-invariants")]
    mod invariants {
        use super::super::*;

        #[test]
        fn consistent_order_is_silent() {
            let a = Mutex::new_named("sync.test.ok.a", 0);
            let b = Mutex::new_named("sync.test.ok.b", 0);
            for _ in 0..3 {
                let ga = a.lock();
                let gb = b.lock();
                drop(gb);
                drop(ga);
            }
            assert_eq!(lock_order::held_depth(), 0);
        }

        #[test]
        fn inverted_order_is_flagged() {
            let a = Mutex::new_named("sync.test.invert.a", 0);
            let b = Mutex::new_named("sync.test.invert.b", 0);
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _gb = b.lock();
                let _ga = a.lock(); // inversion: closes the a → b → a cycle
            }))
            .expect_err("inverted acquisition order must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("lock-order violation"),
                "diagnostic names the violation: {msg}"
            );
            assert!(
                msg.contains("sync.test.invert.a") && msg.contains("sync.test.invert.b"),
                "diagnostic names both classes: {msg}"
            );
            assert_eq!(lock_order::held_depth(), 0, "unwind releases held classes");
        }

        #[test]
        fn reacquiring_held_class_is_flagged() {
            let a = Mutex::new_named("sync.test.self", 0);
            let b = Mutex::new_named("sync.test.self", 0);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ga = a.lock();
                let _gb = b.lock(); // same class while held: length-1 cycle
            }))
            .expect_err("same-class nesting must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("already held"), "got: {msg}");
        }

        #[test]
        fn anonymous_locks_are_exempt() {
            let a = Mutex::new(0);
            let b = Mutex::new(0);
            let _ga = a.lock();
            let _gb = b.lock();
            assert_eq!(lock_order::held_depth(), 0);
        }
    }
}
