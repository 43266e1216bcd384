//! Deterministic event scheduler.
//!
//! Events are closures scheduled at absolute virtual instants. Two events at
//! the same instant fire in the order they were scheduled (FIFO tie-break on
//! a monotone sequence number), which makes every simulation in this
//! workspace fully deterministic for a fixed seed.
//!
//! Shared simulation state (resources, models) lives in `Rc<RefCell<_>>`
//! captured by the event closures; the engine itself only owns the clock and
//! the pending-event heap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

type EventFn = Box<dyn FnOnce(&mut Engine)>;

struct Scheduled {
    time: SimTime,
    seq: u64,
    f: EventFn,
}

// Order by (time, seq); seq is unique so equality of keys never happens
// between distinct events.
impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The discrete-event engine: a virtual clock plus a pending-event heap.
///
/// ```
/// use desim::{Engine, SimDuration};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Engine::new();
/// let fired = Rc::new(Cell::new(0u32));
/// let f = fired.clone();
/// sim.schedule(SimDuration::from_secs(5), move |_| f.set(f.get() + 1));
/// sim.run();
/// assert_eq!(fired.get(), 1);
/// assert_eq!(sim.now().as_secs_f64(), 5.0);
/// ```
pub struct Engine {
    now: SimTime,
    heap: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
    cancelled: HashSet<u64>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An empty engine at virtual time zero.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `f` to run `delay` after the current instant.
    pub fn schedule<F>(&mut self, delay: SimDuration, f: F) -> EventId
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, f)
    }

    /// Schedule `f` at absolute instant `at`.
    ///
    /// Panics if `at` is in the past: causality violations are always bugs in
    /// the model layer and must not be silently reordered.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={:?} at={:?}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled {
            time: at,
            seq,
            f: Box::new(f),
        }));
        EventId(seq)
    }

    /// Cancel a pending event. Cancelling an already-fired or unknown event
    /// is a no-op; the return value says whether anything was cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Lazy deletion: the heap entry stays but is skipped when popped.
        if id.0 >= self.next_seq {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// Execute the single next event. Returns `false` if nothing is pending.
    pub fn step(&mut self) -> bool {
        while let Some(Reverse(ev)) = self.heap.pop() {
            if self.cancelled.remove(&ev.seq) {
                continue;
            }
            debug_assert!(ev.time >= self.now);
            self.now = ev.time;
            (ev.f)(self);
            return true;
        }
        false
    }

    /// Run until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Event = Box<dyn FnOnce(&mut Engine)>;

    fn recorder() -> (Rc<RefCell<Vec<u32>>>, impl Fn(u32) -> Event) {
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let mk = move |tag: u32| -> Event {
            let l = l.clone();
            Box::new(move |_: &mut Engine| l.borrow_mut().push(tag))
        };
        (log, mk)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Engine::new();
        let (log, mk) = recorder();
        sim.schedule(SimDuration::from_secs(3), mk(3));
        sim.schedule(SimDuration::from_secs(1), mk(1));
        sim.schedule(SimDuration::from_secs(2), mk(2));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(3));
    }

    #[test]
    fn same_instant_fires_fifo() {
        let mut sim = Engine::new();
        let (log, mk) = recorder();
        for tag in 0..10 {
            sim.schedule(SimDuration::from_secs(1), mk(tag));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Engine::new();
        let log: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.schedule(SimDuration::from_secs(1), move |sim| {
            l.borrow_mut().push(sim.now().as_secs_f64());
            let l2 = l.clone();
            sim.schedule(SimDuration::from_secs(2), move |sim| {
                l2.borrow_mut().push(sim.now().as_secs_f64());
            });
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![1.0, 3.0]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Engine::new();
        let (log, mk) = recorder();
        let id = sim.schedule(SimDuration::from_secs(1), mk(1));
        sim.schedule(SimDuration::from_secs(2), mk(2));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel reports false");
        sim.run();
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    fn cancel_unknown_is_noop() {
        let mut sim = Engine::new();
        assert!(!sim.cancel(EventId(42)));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Engine::new();
        sim.schedule(SimDuration::from_secs(5), |sim| {
            sim.schedule_at(SimTime::ZERO, |_| {});
        });
        sim.run();
    }

    #[test]
    fn zero_delay_event_fires_now() {
        let mut sim = Engine::new();
        let (log, mk) = recorder();
        sim.schedule(SimDuration::ZERO, mk(7));
        assert!(sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(*log.borrow(), vec![7]);
    }
}
