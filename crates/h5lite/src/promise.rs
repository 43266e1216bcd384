//! A blocking one-shot result slot, used to hand async read results (and
//! write completions) from a VOL connector's background threads to the
//! caller.
//!
//! It lives here rather than in a tasking runtime (Argobots'
//! `ABT_eventual`): `h5lite` must not depend on any particular runtime —
//! the VOL trait is runtime-agnostic, exactly like HDF5's.
//!
//! A completion is something its observer finds, not a wake-up every
//! producer pays for (TASIO): the slot counts, under its lock, the threads
//! asleep in [`Promise::take`] and [`Promise::wait_with`], and
//! [`Promise::fulfill`] and `take` notify the condition variable only when
//! that count is not zero. A `notify_all` with no sleeper is still a
//! `futex_wake` system call, and most promises — every ring completion
//! nobody waits on yet, every prefetch taken after it landed — have none.

use std::sync::Arc;

use crate::sync::{Condvar, Mutex, MutexGuard};

struct Inner<T> {
    slot: Mutex<Slot<T>>,
    cv: Condvar,
}

/// The value, whether a waiter took it (a taken promise is spent), and
/// how many threads are asleep on `cv` waiting for either.
struct Slot<T> {
    value: Option<T>,
    taken: bool,
    sleepers: usize,
    /// Notifications made, for the tests that prove a promise nobody
    /// sleeps on wakes nobody.
    #[cfg(test)]
    wakes: usize,
}

impl<T> Slot<T> {
    /// Wake the sleepers, if there are any: a change they wait for has
    /// been made under this lock.
    fn wake(&mut self, cv: &Condvar) {
        if self.sleepers > 0 {
            #[cfg(test)]
            {
                self.wakes += 1;
            }
            cv.notify_all();
        }
    }
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
                slot: Mutex::new(Slot {
                    value: None,
                    taken: false,
                    sleepers: 0,
                    #[cfg(test)]
                    wakes: 0,
                }),
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

    /// Publish the value, waking whoever sleeps on it. Panics on
    /// double-fulfill, a value already taken included: promises are
    /// one-shot.
    pub fn fulfill(&self, value: T) {
        let mut slot = self.inner.slot.lock();
        assert!(slot.value.is_none() && !slot.taken, "Promise fulfilled twice");
        slot.value = Some(value);
        slot.wake(&self.inner.cv);
    }

    /// Whether a value has been published and not taken.
    pub fn is_fulfilled(&self) -> bool {
        self.inner.slot.lock().value.is_some()
    }

    /// Whether a value has been published, taken since or not.
    pub fn is_settled(&self) -> bool {
        let slot = self.inner.slot.lock();
        slot.value.is_some() || slot.taken
    }

    /// Block until the value arrives, then take it. Panics if the value
    /// was already taken by another waiter — a promise has one consumer.
    pub fn take(&self) -> T {
        let mut slot = self.inner.slot.lock();
        loop {
            assert!(!slot.taken, "Promise taken twice");
            if let Some(v) = slot.value.take() {
                slot.taken = true;
                // A waiter asleep on the same promise finds it spent.
                slot.wake(&self.inner.cv);
                return v;
            }
            self.sleep(&mut slot);
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
            self.sleep(&mut slot);
        }
    }

    /// Block until a value has been published, then look at it in place:
    /// `None` if a taker already has it. Unlike
    /// [`wait_with`](Self::wait_with), a waiter that only needs the
    /// producer to be done never races the consumer.
    pub fn wait_settled<R>(&self, look: impl FnOnce(Option<&T>) -> R) -> R {
        let mut slot = self.inner.slot.lock();
        while slot.value.is_none() && !slot.taken {
            self.sleep(&mut slot);
        }
        look(slot.value.as_ref())
    }

    /// Block until the value arrives and clone it, leaving it in place.
    pub fn wait_cloned(&self) -> T
    where
        T: Clone,
    {
        self.wait_with(T::clone)
    }

    /// Sleep until notified, counted as a sleeper for the whole wait so a
    /// fulfil or take made meanwhile wakes this thread.
    fn sleep(&self, slot: &mut MutexGuard<'_, Slot<T>>) {
        slot.sleepers += 1;
        self.inner.cv.wait(slot);
        slot.sleepers -= 1;
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

    // A skipped wake-up hangs rather than fails, so every test below runs
    // its waiters under a deadline.

    /// How long a round of waiters may take before it counts as hung.
    const DEADLINE: Duration = Duration::from_secs(10);

    /// Block until `n` threads are asleep on `p`; false at the deadline.
    fn sleepers_reach<T>(p: &Promise<T>, n: usize) -> bool {
        let deadline = std::time::Instant::now() + DEADLINE;
        while p.inner.slot.lock().sleepers != n {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Spin for a seeded 0–2 000 iterations: either side of a race goes
    /// first in some rounds, and the waiter is asleep in others.
    fn jitter(rng: &mut crate::storage::Lcg) {
        for _ in 0..rng.below(2_000) {
            std::hint::spin_loop();
        }
    }

    /// `rounds` seeded races of a waiter (`wait`) on this thread against a
    /// `fulfill` from another; every waiter must see its round's value.
    fn races(seed: u64, rounds: u64, wait: fn(&Promise<u64>) -> u64) {
        let mut rng = crate::storage::Lcg::new(seed);
        for round in 0..rounds {
            let p = Promise::new();
            let (fulfiller, spin) = (p.clone(), rng.below(2_000));
            let t = std::thread::spawn(move || {
                let mut rng = crate::storage::Lcg::new(spin);
                jitter(&mut rng);
                fulfiller.fulfill(round);
            });
            jitter(&mut rng);
            assert_eq!(wait(&p), round, "seed {seed}, round {round}");
            t.join().unwrap();
        }
    }

    #[test]
    fn a_take_racing_a_fulfill_always_wakes() {
        let outcome = panics_within(|| races(7, 2_000, Promise::take), DEADLINE);
        assert_eq!(outcome, Some(false), "every take returns its value (None: a waiter hung)");
    }

    #[test]
    fn a_wait_racing_a_fulfill_always_wakes() {
        let outcome = panics_within(|| races(11, 2_000, Promise::wait_cloned), DEADLINE);
        assert_eq!(outcome, Some(false), "every wait returns its value (None: a waiter hung)");
    }

    /// Two takers asleep on one promise: the fulfil wakes them, one takes
    /// the value, and the take wakes the other, which finds it spent and
    /// panics rather than sleeping on.
    #[test]
    fn the_second_of_two_sleeping_takers_panics_rather_than_hanging() {
        let p: Promise<u8> = Promise::new();
        let takers: Vec<_> = (0..2)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || p.take())
            })
            .collect();
        assert!(sleepers_reach(&p, 2), "both takers fall asleep");
        p.fulfill(9);
        let deadline = std::time::Instant::now() + DEADLINE;
        while !takers.iter().all(|t| t.is_finished()) {
            assert!(std::time::Instant::now() < deadline, "a taker hung");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut outcomes: Vec<_> = takers.into_iter().map(|t| t.join().ok()).collect();
        outcomes.sort();
        assert_eq!(outcomes, [None, Some(9)], "one takes the value, the other panics");
    }

    /// A settled wait returns once the value is published, whether the
    /// taker has it by then or not, and never panics on a spent promise.
    #[test]
    fn a_settled_wait_sees_the_value_or_its_taking() {
        let p = Promise::resolved(4u8);
        assert!(p.is_settled());
        assert_eq!(p.wait_settled(|v| v.copied()), Some(4));
        assert_eq!(p.take(), 4);
        assert!(p.is_settled() && !p.is_fulfilled());
        assert_eq!(p.wait_settled(|v| v.copied()), None);

        let p: Promise<u8> = Promise::new();
        assert!(!p.is_settled());
        let waiter = p.clone();
        let t = std::thread::spawn(move || waiter.wait_settled(|_| ()));
        assert!(sleepers_reach(&p, 1), "the waiter falls asleep");
        p.fulfill(5);
        assert_eq!(p.take(), 5);
        let outcome = panics_within(move || t.join().unwrap(), DEADLINE);
        assert_eq!(outcome, Some(false), "the waiter wakes (None: it hung)");
    }

    /// The wake-up is paid only when somebody sleeps: a fulfil and a take
    /// with nobody asleep notify nothing; with one taker asleep, at least
    /// once.
    #[test]
    fn a_promise_nobody_sleeps_on_wakes_nobody() {
        let wakes = |p: &Promise<u8>| p.inner.slot.lock().wakes;
        let p = Promise::new();
        p.fulfill(1);
        assert_eq!(p.take(), 1);
        assert_eq!(wakes(&p), 0, "no sleeper, no wake-up");
        assert_eq!(wakes(&Promise::resolved(2)), 0);

        let p = Promise::new();
        let taker = p.clone();
        let t = std::thread::spawn(move || taker.take());
        assert!(sleepers_reach(&p, 1), "the taker falls asleep");
        p.fulfill(3);
        let outcome = panics_within(move || assert_eq!(t.join().unwrap(), 3), DEADLINE);
        assert_eq!(outcome, Some(false), "the sleeper wakes with the value");
        assert!(wakes(&p) >= 1, "a sleeper was woken {} time(s)", wakes(&p));
        assert_eq!(p.inner.slot.lock().sleepers, 0);
    }
}
