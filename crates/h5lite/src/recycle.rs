//! Process-wide recycler of snapshot buffers (DESIGN.md §17).
//!
//! A deferred write hands its encoded buffer to the connector by
//! ownership; when the write retires, the buffer comes back here instead
//! of going to the allocator, so the next write of that size fills warm,
//! already-faulted memory. Without this, a checkpoint whose device time
//! hides behind compute re-faults every page of every epoch: the
//! allocator returns the freed buffers to the kernel during the compute
//! phase.
//!
//! The free list is one bounded lock-free queue ([`crate::mpmc`]) per
//! power-of-two size class from [`MIN_CLASS_BYTES`] to
//! [`MAX_CLASS_BYTES`]; requests outside that range bypass it. No lock
//! is taken on either side, so the ring reaper can return buffers from
//! its hot path. Memory held is bounded by a constant, [`CAP_BYTES`]:
//! a class that is full drops what it is given.
//!
//! There is no `unsafe`, hence no `set_len`: a pooled buffer is kept
//! fully initialised at its class size, [`take`] truncates it to the
//! requested length and [`give`] zero-extends it back. A buffer handed
//! out therefore holds **stale bytes** of an earlier write — every user
//! must overwrite all `len` bytes before the buffer leaves its hands
//! (the slice encoder and `copy_from_slice` both do).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::mpmc::RingQueue;

const MIN_SHIFT: u32 = 12;
const MAX_SHIFT: u32 = 26;
const CLASSES: usize = (MAX_SHIFT - MIN_SHIFT + 1) as usize;

/// Smallest pooled buffer (4 KiB); shorter requests go to the allocator.
pub const MIN_CLASS_BYTES: usize = 1 << MIN_SHIFT;
/// Largest pooled buffer (64 MiB); longer requests go to the allocator.
pub const MAX_CLASS_BYTES: usize = 1 << MAX_SHIFT;

/// Bytes one class may hold, but never fewer than two nor more than
/// [`MAX_SLOTS`] buffers.
const CLASS_BUDGET_BYTES: usize = 64 << 20;
const MAX_SLOTS: usize = 64;

const fn class_bytes(class: usize) -> usize {
    MIN_CLASS_BYTES << class
}

const fn class_slots(class: usize) -> usize {
    let slots = CLASS_BUDGET_BYTES / class_bytes(class);
    if slots < 2 {
        2
    } else if slots > MAX_SLOTS {
        MAX_SLOTS
    } else {
        slots
    }
}

/// The most memory the recycler can hold: Σ slots × class size over the
/// fifteen classes (575.75 MiB, reached only if every class is full).
pub const CAP_BYTES: usize = {
    let mut total = 0;
    let mut class = 0;
    while class < CLASSES {
        total += class_slots(class) * class_bytes(class);
        class += 1;
    }
    total
};

struct Recycler {
    classes: Vec<RingQueue<Vec<u8>>>,
    // Statistics only: each publishes nothing but its own value.
    hits: AtomicU64,
    misses: AtomicU64,
    dropped: AtomicU64,
}

fn pool() -> &'static Recycler {
    static POOL: OnceLock<Recycler> = OnceLock::new();
    POOL.get_or_init(|| Recycler {
        classes: (0..CLASSES)
            .map(|class| RingQueue::new(class_slots(class)))
            .collect(),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
    })
}

/// The class whose buffers hold `len` bytes, if `len` is pooled at all.
fn class_of(len: usize) -> Option<usize> {
    (MIN_CLASS_BYTES..=MAX_CLASS_BYTES)
        .contains(&len)
        .then(|| (len.next_power_of_two().trailing_zeros() - MIN_SHIFT) as usize)
}

/// A buffer of exactly `len` bytes whose contents are **unspecified**
/// (stale bytes of an earlier write, or zeros): overwrite all of it.
pub fn take(len: usize) -> Vec<u8> {
    let Some(class) = class_of(len) else {
        return vec![0u8; len];
    };
    let pool = pool();
    let mut buf = match pool.classes[class].pop() {
        Some(buf) => {
            pool.hits.fetch_add(1, Ordering::Relaxed);
            buf
        }
        None => {
            pool.misses.fetch_add(1, Ordering::Relaxed);
            vec![0u8; class_bytes(class)]
        }
    };
    buf.truncate(len);
    buf
}

/// Return a buffer for reuse. Any `Vec<u8>` is accepted; one whose
/// capacity is not exactly a class size, or whose class is full (or
/// looks full because a preempted taker still holds the slot), is freed
/// instead — that is what keeps [`CAP_BYTES`] a bound.
pub fn give(mut buf: Vec<u8>) {
    let capacity = buf.capacity();
    let Some(class) = class_of(capacity).filter(|_| capacity.is_power_of_two()) else {
        return;
    };
    buf.resize(capacity, 0);
    let pool = pool();
    if pool.classes[class].push(buf).is_err() {
        pool.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`take`]n buffer that is [`give`]n back when dropped, for users
/// that keep it only for the length of a call and have error returns on
/// the way. Contents are as unspecified as [`take`]'s.
pub struct Lease(Vec<u8>);

/// [`take`] `len` bytes for the lifetime of the returned guard.
pub fn lease(len: usize) -> Lease {
    Lease(take(len))
}

impl std::ops::Deref for Lease {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::DerefMut for Lease {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.0));
    }
}

/// Counters since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecycleStats {
    /// [`take`] calls served from the free list.
    pub hits: u64,
    /// Pooled-size [`take`] calls that had to allocate.
    pub misses: u64,
    /// Buffers [`give`] freed because their class was full.
    pub dropped: u64,
}

/// Snapshot of the counters.
pub fn stats() -> RecycleStats {
    let pool = pool();
    RecycleStats {
        hits: pool.hits.load(Ordering::Relaxed),
        misses: pool.misses.load(Ordering::Relaxed),
        dropped: pool.dropped.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_cap() {
        assert_eq!(class_of(MIN_CLASS_BYTES - 1), None);
        assert_eq!(class_of(MIN_CLASS_BYTES), Some(0));
        assert_eq!(class_of(MIN_CLASS_BYTES + 1), Some(1));
        assert_eq!(class_of(1 << 20), Some(8));
        assert_eq!(class_of(MAX_CLASS_BYTES), Some(CLASSES - 1));
        assert_eq!(class_of(MAX_CLASS_BYTES + 1), None);
        assert_eq!(class_slots(0), MAX_SLOTS);
        assert_eq!(class_slots(8), 64);
        assert_eq!(class_slots(CLASSES - 1), 2);
        assert_eq!(CAP_BYTES, 575 * (1 << 20) + 768 * 1024);
    }

    #[test]
    fn out_of_range_requests_bypass_the_pool() {
        // Sizes no other test in this binary uses, so the counters of
        // the shared pool are not needed to tell.
        let small = take(100);
        assert_eq!(small, vec![0u8; 100]);
        give(small);
        assert_eq!(take(0).len(), 0);
        // An odd capacity is never pooled, whatever its length.
        give(Vec::with_capacity(3 * MIN_CLASS_BYTES));
    }
}
