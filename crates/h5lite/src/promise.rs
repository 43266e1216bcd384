//! A blocking one-shot result slot, used to hand async read results (and
//! write completions) from a VOL connector's background threads to the
//! caller.
//!
//! It lives here rather than in a tasking runtime (Argobots'
//! `ABT_eventual`): `h5lite` must not depend on any particular runtime —
//! the VOL trait is runtime-agnostic, exactly like HDF5's.

use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

struct Inner<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

/// One-shot, cloneable, blocking value slot.
#[must_use = "a Promise does nothing unless taken or waited on"]
pub struct Promise<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Promise<T> {
    fn clone(&self) -> Self {
        Promise {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Default for Promise<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Promise<T> {
    /// An empty (pending) promise.
    pub fn new() -> Self {
        Promise {
            inner: Arc::new(Inner {
                slot: Mutex::new(None),
                cv: Condvar::new(),
            }),
        }
    }

    /// Create a promise already holding a value (the synchronous VOL path).
    pub fn resolved(value: T) -> Self {
        let p = Promise::new();
        p.fulfill(value);
        p
    }

    /// Publish the value. Panics on double-fulfill: promises are one-shot.
    pub fn fulfill(&self, value: T) {
        let mut slot = self.inner.slot.lock();
        assert!(slot.is_none(), "Promise fulfilled twice");
        *slot = Some(value);
        self.inner.cv.notify_all();
    }

    /// Whether a value has been published.
    pub fn is_fulfilled(&self) -> bool {
        self.inner.slot.lock().is_some()
    }

    /// Block until the value arrives, then take it. Panics if the value
    /// was already taken by another waiter — a promise has one consumer.
    pub fn take(&self) -> T {
        let mut slot = self.inner.slot.lock();
        loop {
            if let Some(v) = slot.take() {
                return v;
            }
            self.inner.cv.wait(&mut slot);
        }
    }

    /// Block until the value arrives and clone it, leaving it in place.
    pub fn wait_cloned(&self) -> T
    where
        T: Clone,
    {
        let mut slot = self.inner.slot.lock();
        loop {
            if let Some(v) = slot.as_ref() {
                return v.clone();
            }
            self.inner.cv.wait(&mut slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn resolved_take() {
        let p = Promise::resolved(5);
        assert!(p.is_fulfilled());
        assert_eq!(p.take(), 5);
        assert!(!p.is_fulfilled());
    }

    #[test]
    fn cross_thread_fulfill() {
        let p: Promise<Vec<u8>> = Promise::new();
        let p2 = p.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            p2.fulfill(vec![1, 2, 3]);
        });
        assert_eq!(p.take(), vec![1, 2, 3]);
        t.join().unwrap();
    }

    #[test]
    fn wait_cloned_leaves_value() {
        let p = Promise::resolved("x".to_owned());
        assert_eq!(p.wait_cloned(), "x");
        assert!(p.is_fulfilled());
        assert_eq!(p.take(), "x");
    }

    #[test]
    #[should_panic(expected = "fulfilled twice")]
    fn double_fulfill_panics() {
        let p = Promise::new();
        p.fulfill(1);
        p.fulfill(2);
    }
}
