//! The workspace's one lock shim: poison-transparent wrappers over
//! `std::sync`.
//!
//! Every lock of the I/O stack comes from here: h5lite's own, and the
//! async connector's, whose `clippy.toml` rejects the `std::sync` ones.
//! Two properties the rest of the stack relies on: guards without
//! `Result` noise, and no lock poisoning — a panicking background I/O
//! thread must not wedge every later metadata operation on the
//! container.
//!
//! ## Lock classes without a dependency edge
//!
//! Locks constructed with [`Mutex::new_named`]/[`RwLock::new_named`]
//! carry a *class name*. On its own h5lite does nothing with the name;
//! a layer that depends on both h5lite and `argolite` (the async
//! connector) can install process-wide [`order_hook`] callbacks that
//! forward every named acquisition/release into `argolite`'s
//! `debug-invariants` lock-order graph. That is how the metadata-plane
//! shard locks (`crates/h5lite/src/meta.rs`) and the connector's own
//! locks are deadlock-checked together, though h5lite cannot name
//! argolite. The acquire hook fires *before* blocking on the lock, so a
//! would-deadlock between two named locks panics instead of hanging.

use std::sync::{self, OnceLock, PoisonError};

/// Process-wide observation hooks for named-lock traffic.
///
/// Install with [`order_hook::install`]; until then a named acquisition
/// costs one `OnceLock` load, and an anonymous one nothing. The hooks
/// fire on the acquiring thread: the acquire hook *before* it blocks on
/// the lock, the release hook *before* the lock is released. A held-stack
/// lock-order recorder thus sees an acquisition that closes a cycle even
/// on the interleaving where the lock would never be granted. Only a
/// [`Condvar`] wait reports its re-acquisition after the fact: the std
/// wait takes the lock back inside one call.
pub mod order_hook {
    use super::OnceLock;

    /// `(on_acquire, on_release)` callbacks, each given the class name.
    struct Hooks {
        acquire: fn(&'static str),
        release: fn(&'static str),
    }

    static HOOKS: OnceLock<Hooks> = OnceLock::new();

    /// Install the process-wide hooks. First caller wins; later calls
    /// are ignored, so bridges can install idempotently from any number
    /// of entry points.
    pub fn install(acquire: fn(&'static str), release: fn(&'static str)) {
        #[allow(
            clippy::let_underscore_must_use,
            reason = "first-caller-wins install; a later bridge is deliberately ignored"
        )]
        let _ = HOOKS.set(Hooks { acquire, release });
    }

    pub(super) fn acquired(name: &'static str) {
        if let Some(h) = HOOKS.get() {
            (h.acquire)(name);
        }
    }

    pub(super) fn released(name: &'static str) {
        if let Some(h) = HOOKS.get() {
            (h.release)(name);
        }
    }
}

/// Mutual exclusion without poison propagation.
pub struct Mutex<T: ?Sized> {
    name: Option<&'static str>,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A fresh anonymous mutex.
    pub fn new(value: T) -> Self {
        Mutex {
            name: None,
            inner: sync::Mutex::new(value),
        }
    }

    /// A fresh mutex belonging to lock class `name` (see [`order_hook`]).
    pub fn new_named(name: &'static str, value: T) -> Self {
        Mutex {
            name: Some(name),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking; never returns a poison error.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(name) = self.name {
            order_hook::acquired(name);
        }
        MutexGuard {
            name: self.name,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// RAII guard for [`Mutex`]. The `Option` is vacant only transiently
/// inside [`Condvar`] waits, which hold the unique `&mut`.
#[must_use = "dropping a MutexGuard immediately releases the lock"]
pub struct MutexGuard<'a, T: ?Sized> {
    name: Option<&'static str>,
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
        // A vacated guard (mid-`Condvar::wait`) already reported its
        // release when the wait began.
        if self.inner.is_some() {
            if let Some(name) = self.name {
                order_hook::released(name);
            }
        }
    }
}

/// Condition variable pairing with [`Mutex`].
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
            if let Some(name) = guard.name {
                order_hook::released(name);
            }
            guard.inner = Some(self.inner.wait(g).unwrap_or_else(PoisonError::into_inner));
            if let Some(name) = guard.name {
                order_hook::acquired(name);
            }
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

/// Reader-writer lock without poison propagation.
pub struct RwLock<T: ?Sized> {
    name: Option<&'static str>,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A fresh anonymous rwlock.
    pub fn new(value: T) -> Self {
        RwLock {
            name: None,
            inner: sync::RwLock::new(value),
        }
    }

    /// A fresh rwlock belonging to lock class `name` (see
    /// [`order_hook`]).
    pub fn new_named(name: &'static str, value: T) -> Self {
        RwLock {
            name: Some(name),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if let Some(name) = self.name {
            order_hook::acquired(name);
        }
        RwLockReadGuard {
            name: self.name,
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if let Some(name) = self.name {
            order_hook::acquired(name);
        }
        RwLockWriteGuard {
            name: self.name,
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// RAII shared guard for [`RwLock`].
#[must_use = "dropping a read guard immediately releases the lock"]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    name: Option<&'static str>,
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            order_hook::released(name);
        }
    }
}

/// RAII exclusive guard for [`RwLock`].
#[must_use = "dropping a write guard immediately releases the lock"]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    name: Option<&'static str>,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            order_hook::released(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_poison_transparent() {
        let l = Arc::new(RwLock::new(3));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison");
        })
        .join();
        assert_eq!(*l.read(), 3);
        *l.write() = 4;
        assert_eq!(*l.read(), 4);

        // The same for a mutex.
        let m = Arc::new(Mutex::new(5));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 5);
        *m.lock() = 6;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(0);
        *m.lock() = 9;
        assert_eq!(*m.lock(), 9);
        assert_eq!(m.into_inner(), 9);
    }

    #[test]
    fn named_locks_work_without_hooks() {
        let m = Mutex::new_named("h5lite.test.m", 1);
        assert_eq!(*m.lock(), 1);
        let l = RwLock::new_named("h5lite.test.l", 2);
        assert_eq!(*l.read(), 2);
        *l.write() = 3;
        assert_eq!(*l.read(), 3);
    }
}
