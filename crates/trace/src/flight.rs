//! The flight recorder: an always-on, fixed-capacity black box.
//!
//! Production async-I/O stacks cannot afford an unbounded trace on every
//! run, but when a run dies the first question is always "what were the
//! last things the pipeline did?". A flight-mode tracer
//! ([`Tracer::flight`]) answers it: the record shards become
//! fixed-capacity rings that retain the **last N records per shard** and
//! overwrite the oldest beyond that, so memory stays constant no matter
//! how long the run — the spans, events, and counter machinery is
//! exactly the full tracer's, only the retention differs.
//!
//! The ring is read the one way every trace is read: [`Tracer::sink`]
//! snapshots it as a [`TraceSink`](crate::TraceSink), which also carries
//! the ring's capacity and the records it overwrote, and the exporters in
//! [`export`] render it. [`install_panic_dump`] arms a chaining panic
//! hook that writes the ring as JSONL before the previous hook runs, so a
//! crashing process leaves its black box behind.
//!
//! The rings are lock-sharded (threads map to shards by trace tid), the
//! same structure the full tracer uses: pushes are O(1), allocation-free
//! once a ring is full, and a shard lock is only ever contended by
//! threads hashing to the same shard. A ring bounds memory, not time:
//! each record costs what it costs on the full tracer. The overhead
//! against a disabled tracer is measured in `benches/micro.rs` (see
//! DESIGN.md §11).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::export;
use crate::{Record, Tracer};

/// One record-buffer shard: unbounded for the full tracer, a
/// fixed-capacity overwrite ring for flight mode.
pub(crate) struct Shard {
    buf: Vec<Record>,
    /// Ring capacity; `None` means append-only (full tracing).
    cap: Option<usize>,
    /// Oldest slot — the next to be overwritten once the ring is full.
    head: usize,
    /// Records overwritten so far (flight mode only).
    dropped: u64,
}

impl Shard {
    /// An append-only shard (full tracing).
    pub(crate) fn unbounded() -> Self {
        Shard {
            buf: Vec::new(),
            cap: None,
            head: 0,
            dropped: 0,
        }
    }

    /// A ring shard retaining the last `cap` records (flight mode).
    pub(crate) fn ring(cap: usize) -> Self {
        let cap = cap.max(1);
        Shard {
            buf: Vec::with_capacity(cap),
            cap: Some(cap),
            head: 0,
            dropped: 0,
        }
    }

    /// Append a record; in ring mode, overwrite the oldest when full.
    pub(crate) fn push(&mut self, rec: Record) {
        match self.cap {
            None => self.buf.push(rec),
            Some(cap) => {
                if self.buf.len() < cap {
                    self.buf.push(rec);
                } else {
                    self.buf[self.head] = rec;
                    self.head = (self.head + 1) % cap;
                    self.dropped += 1;
                }
            }
        }
    }

    /// The retained records, in ring order (callers sort by `seq`).
    pub(crate) fn records(&self) -> &[Record] {
        &self.buf
    }

    /// Records overwritten so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// How many panic dumps have been written by hooks installed in this
/// process (tests and operators can await/count them).
static PANIC_DUMPS: AtomicU64 = AtomicU64::new(0);

/// Number of panic dumps written so far in this process.
pub fn panic_dump_count() -> u64 {
    PANIC_DUMPS.load(Ordering::Relaxed)
}

/// Arm a panic hook that dumps `tracer`'s retained records to `path` as
/// JSONL before delegating to the previously installed hook.
///
/// Hooks chain: installing for several tracers dumps each in reverse
/// installation order, then runs the original hook (so default panic
/// output is preserved). The dump goes through the exporter API and
/// swallows I/O errors — a panic path must never double-panic. An empty
/// trace writes nothing.
pub fn install_panic_dump(tracer: &Tracer, path: impl Into<PathBuf>) {
    let tracer = tracer.clone();
    let path = path.into();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let sink = tracer.sink();
        if !sink.records().is_empty()
            && std::fs::write(&path, export::jsonl(sink.records())).is_ok()
        {
            PANIC_DUMPS.fetch_add(1, Ordering::Relaxed);
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, VirtualClock};
    use std::sync::Arc;

    #[test]
    fn ring_shard_retains_the_last_records() {
        let mut s = Shard::ring(3);
        for i in 0..5u64 {
            s.push(Record {
                seq: i,
                kind: crate::RecordKind::Instant,
                name: "e",
                id: 0,
                parent: 0,
                tid: 1,
                start_nanos: i,
                dur_nanos: 0,
                event: None,
            });
        }
        assert_eq!(s.dropped(), 2);
        let mut seqs: Vec<u64> = s.records().iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [2, 3, 4], "oldest two overwritten");
    }

    #[test]
    fn unbounded_shard_never_drops() {
        let mut s = Shard::unbounded();
        for i in 0..100u64 {
            s.push(Record {
                seq: i,
                kind: crate::RecordKind::Instant,
                name: "e",
                id: 0,
                parent: 0,
                tid: 1,
                start_nanos: i,
                dur_nanos: 0,
                event: None,
            });
        }
        assert_eq!(s.records().len(), 100);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn flight_tracer_keeps_the_tail_and_counts_drops() {
        let clock = Arc::new(VirtualClock::new(0));
        let t = Tracer::flight_with_clock(4, clock.clone());
        assert!(t.is_enabled());
        // One thread → one shard → capacity 4 effective.
        for i in 0..10u32 {
            t.instant(
                "mark",
                Event::RetryAttempt {
                    attempt: i,
                    delay_nanos: 1,
                },
            );
            clock.advance(1);
        }
        let sink = t.sink();
        assert_eq!(sink.records().len(), 4);
        assert_eq!(sink.dropped(), 6);
        assert_eq!(sink.capacity(), 4 * crate::SHARDS);
        let epochs: Vec<u32> = sink
            .events_where(|e| matches!(e, Event::RetryAttempt { .. }))
            .iter()
            .map(|r| match r.event {
                Some(Event::RetryAttempt { attempt, .. }) => attempt,
                _ => u32::MAX,
            })
            .collect();
        assert_eq!(epochs, [6, 7, 8, 9], "the last four epochs survive, in seq order");
        // The snapshot speaks the exporter formats.
        let jsonl = export::jsonl(sink.records());
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"type\":\"RetryAttempt\""));
        assert!(export::chrome_json(sink.records()).starts_with("{\"displayTimeUnit\""));
    }

    #[test]
    fn full_tracer_sink_has_zero_capacity_and_drops() {
        let t = Tracer::new();
        t.instant(
            "e",
            Event::Degrade {
                dataset: 1,
                bytes: 2,
            },
        );
        let sink = t.sink();
        assert_eq!(sink.capacity(), 0);
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.records().len(), 1);
    }
}
