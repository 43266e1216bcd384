//! Lock-free bounded MPMC ring (Vyukov's bounded queue), shared by the
//! submission/completion rings ([`crate::ring`]) and the buffer
//! recycler's size classes ([`crate::recycle`]).
//!
//! The only `unsafe` in the crate lives here, and the whole protocol is
//! carried by one atomic per slot. Memory-ordering argument (the §14
//! "why this is sound" paragraph, in code):
//!
//! - Each slot carries a `seq` counter. Invariant: `seq == pos` means
//!   "free for the push at ticket `pos`"; `seq == pos + 1` means
//!   "holds the value of ticket `pos`, free for the pop at `pos`";
//!   after that pop, `seq` becomes `pos + capacity`, i.e. free for the
//!   push one lap later.
//! - A producer claims ticket `pos` with a CAS on `tail` (Relaxed: the
//!   CAS only arbitrates ownership; it publishes nothing). It then
//!   writes the value and publishes with `seq.store(pos + 1, Release)`.
//! - A consumer reads `seq` with `Acquire` and only touches the cell
//!   when `seq == pos + 1`; the Acquire pairs with the producer's
//!   Release, so the value write happens-before the read. It takes the
//!   value out and frees the slot with `seq.store(pos + capacity,
//!   Release)`, which the next-lap producer's Acquire load pairs with.
//! - A cell is therefore touched by exactly one thread between any two
//!   `seq` transitions — no tearing, no double-drop, no lock.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Slot<T> {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

pub(crate) struct RingQueue<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Pop ticket counter.
    head: AtomicUsize,
    /// Push ticket counter.
    tail: AtomicUsize,
}

// SAFETY: the slot protocol above hands each cell to exactly one
// thread at a time; `T: Send` is all that crossing threads needs.
unsafe impl<T: Send> Send for RingQueue<T> {}
unsafe impl<T: Send> Sync for RingQueue<T> {}

impl<T> RingQueue<T> {
    /// Fixed-capacity ring; `capacity` must be a power of two ≥ 2.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity >= 2,
            "ring capacity must be a power of two >= 2"
        );
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        RingQueue {
            slots,
            mask: capacity - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Push, or hand the value back when the ring is full.
    pub(crate) fn push(&self, value: T) -> std::result::Result<(), T> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Slot free for this ticket: try to claim it.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread sole
                        // ownership of the cell until the Release
                        // store below publishes it.
                        unsafe { (*slot.val.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if seq.wrapping_sub(pos) > self.mask {
                // seq is from a previous lap: the slot still holds
                // an unpopped value — the ring is full.
                return Err(value);
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest value, or `None` when empty.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos.wrapping_add(1) {
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread sole
                        // ownership; the producer's Release store on
                        // `seq` (paired with our Acquire load) makes
                        // the value write visible.
                        let value = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => pos = current,
                }
            } else if seq == pos || seq.wrapping_sub(pos) > self.mask {
                // Not yet published (in-flight push) or genuinely
                // empty — either way there is nothing to take.
                return None;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for RingQueue<T> {
    fn drop(&mut self) {
        // Pop (and drop) whatever is still queued so `MaybeUninit`
        // never leaks initialized values.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mpmc_push_pop_wraparound() {
        let q: RingQueue<u32> = RingQueue::new(4);
        for lap in 0..5u32 {
            for i in 0..4 {
                q.push(lap * 4 + i).unwrap();
            }
            assert!(q.push(999).is_err(), "full ring must refuse");
            for i in 0..4 {
                assert_eq!(q.pop(), Some(lap * 4 + i), "FIFO per lap");
            }
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn mpmc_concurrent_producers_lose_nothing() {
        let q: Arc<RingQueue<u64>> = Arc::new(RingQueue::new(1024));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = q.clone();
                thread::spawn(move || {
                    for i in 0..200u64 {
                        let mut v = p * 1000 + i;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for t in producers {
            t.join().unwrap();
        }
        let mut seen = Vec::new();
        while let Some(v) = q.pop() {
            seen.push(v);
        }
        seen.sort_unstable();
        let mut expect: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..200u64).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }
}
