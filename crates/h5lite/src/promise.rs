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
    slot: Mutex<Slot<T>>,
    cv: Condvar,
}

/// The value, and whether a waiter took it: a taken promise is spent.
struct Slot<T> {
    value: Option<T>,
    taken: bool,
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
                slot: Mutex::new(Slot { value: None, taken: false }),
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

    /// Publish the value. Panics on double-fulfill, a value already
    /// taken included: promises are one-shot.
    pub fn fulfill(&self, value: T) {
        let mut slot = self.inner.slot.lock();
        assert!(slot.value.is_none() && !slot.taken, "Promise fulfilled twice");
        slot.value = Some(value);
        self.inner.cv.notify_all();
    }

    /// Whether a value has been published and not taken.
    pub fn is_fulfilled(&self) -> bool {
        self.inner.slot.lock().value.is_some()
    }

    /// Block until the value arrives, then take it. Panics if the value
    /// was already taken by another waiter — a promise has one consumer.
    pub fn take(&self) -> T {
        let mut slot = self.inner.slot.lock();
        loop {
            assert!(!slot.taken, "Promise taken twice");
            if let Some(v) = slot.value.take() {
                slot.taken = true;
                // A waiter parked on the same promise finds it spent.
                self.inner.cv.notify_all();
                return v;
            }
            self.inner.cv.wait(&mut slot);
        }
    }

    /// Block until the value arrives and look at it in place, leaving it
    /// there. Panics if the value was taken.
    pub fn wait_with<R>(&self, look: impl FnOnce(&T) -> R) -> R {
        let mut slot = self.inner.slot.lock();
        loop {
            assert!(!slot.taken, "Promise value already taken");
            if let Some(v) = &slot.value {
                return look(v);
            }
            self.inner.cv.wait(&mut slot);
        }
    }

    /// Block until the value arrives and clone it, leaving it in place.
    pub fn wait_cloned(&self) -> T
    where
        T: Clone,
    {
        self.wait_with(T::clone)
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

    /// How long a call that should panic at once may run before it
    /// counts as blocked.
    const HANG: Duration = Duration::from_millis(500);

    /// Run `f` on its own thread: whether it panicked, or `None` if it was
    /// still running at the deadline (a hang, not an answer).
    fn panics_within(f: impl FnOnce() + Send + 'static, limit: Duration) -> Option<bool> {
        let t = std::thread::spawn(f);
        let deadline = std::time::Instant::now() + limit;
        while !t.is_finished() {
            if std::time::Instant::now() > deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Some(t.join().is_err())
    }

    #[test]
    fn a_second_take_panics_rather_than_blocking() {
        let p = Promise::resolved(1);
        assert_eq!(p.take(), 1);
        let second = p.clone();
        let outcome = panics_within(move || assert_eq!(second.take(), 1), HANG);
        assert_eq!(outcome, Some(true), "a second take must panic, not block (None: blocked)");
    }

    #[test]
    fn a_fulfill_after_a_take_panics() {
        let p = Promise::resolved(1);
        assert_eq!(p.take(), 1);
        let again = p.clone();
        let outcome = panics_within(move || again.fulfill(2), HANG);
        assert_eq!(outcome, Some(true), "fulfill after take must panic as a double fulfill");
    }

    #[test]
    fn waiting_on_a_taken_value_panics_rather_than_blocking() {
        let p = Promise::resolved(3);
        assert_eq!(p.take(), 3);
        let late = p.clone();
        let outcome = panics_within(move || assert_eq!(late.wait_cloned(), 3), HANG);
        assert_eq!(outcome, Some(true), "looking at a taken value must panic, not block");
    }
}
