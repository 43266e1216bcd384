//! The flight recorder: an always-on, fixed-capacity black box.
//!
//! Production async-I/O stacks cannot afford an unbounded trace on every
//! run, but when a run dies the first question is always "what were the
//! last things the pipeline did?". A flight-mode tracer
//! ([`Tracer::flight`]) answers it: the record shards become
//! fixed-capacity rings that retain the **last N records per shard** and
//! overwrite the oldest beyond that, so recording cost and memory stay
//! constant no matter how long the run — the spans, events, and metrics
//! machinery is exactly the full tracer's, only the retention differs.
//!
//! Dumps go through the existing exporters, never through raw record
//! access: [`FlightDump::jsonl`] and [`FlightDump::chrome_json`] wrap
//! [`export`](crate::export), and the tracer exposes no other way to walk
//! its shards. [`install_panic_dump`] arms a chaining panic hook that
//! writes the ring as JSONL before the previous hook runs, so a crashing
//! process leaves its black box behind.
//!
//! The rings are lock-sharded (threads map to shards by trace tid), the
//! same structure the full tracer uses: pushes are O(1), allocation-free
//! once a ring is full, and a shard lock is only ever contended by
//! threads hashing to the same shard. Overhead against a disabled tracer
//! is measured in `benches/micro.rs` (budget ≤ 2% on the strided VPIC
//! write; see DESIGN.md §11).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::export;
use crate::{Record, TraceSink, Tracer};

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

/// A point-in-time dump of a tracer's retained records, exposed only
/// through the exporter API and structural queries.
///
/// Obtained from [`Tracer::flight_dump`]; works on full tracers too
/// (where `capacity` is 0 and nothing is ever dropped), so one dump path
/// serves both post-hoc and black-box tracing.
pub struct FlightDump {
    sink: TraceSink,
    /// Total ring capacity across shards; 0 for an unbounded tracer.
    capacity: usize,
    /// Records overwritten (lost to the ring) before this dump.
    dropped: u64,
}

impl FlightDump {
    pub(crate) fn new(sink: TraceSink, capacity: usize, dropped: u64) -> Self {
        FlightDump {
            sink,
            capacity,
            dropped,
        }
    }

    /// The retained records as a queryable sink (emission order).
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Number of records retained in this dump.
    pub fn len(&self) -> usize {
        self.sink.records().len()
    }

    /// Whether the dump holds no records.
    pub fn is_empty(&self) -> bool {
        self.sink.records().is_empty()
    }

    /// Total ring capacity across shards (0 = unbounded tracer).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records overwritten by the ring before this dump was taken.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The dump as compact JSONL (one record per line) — the format the
    /// panic hook writes.
    pub fn jsonl(&self) -> String {
        export::jsonl(self.sink.records())
    }

    /// The dump as a Chrome `trace_event` document (loadable in
    /// `chrome://tracing` / Perfetto).
    pub fn chrome_json(&self) -> String {
        export::chrome_json(self.sink.records())
    }

    /// Write the JSONL dump to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.jsonl())
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
        let dump = tracer.flight_dump();
        if !dump.is_empty() && dump.write_jsonl(&path).is_ok() {
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
        assert!(t.is_flight());
        // One thread → one shard → capacity 4 effective.
        for i in 0..10u64 {
            t.instant(
                "mark",
                Event::EpochMark {
                    epoch: i,
                    comp_nanos: 0,
                    io_nanos: 1,
                    bytes: 1,
                },
            );
            clock.advance(1);
        }
        let dump = t.flight_dump();
        assert_eq!(dump.len(), 4);
        assert_eq!(dump.dropped(), 6);
        let epochs: Vec<u64> = dump
            .sink()
            .events_where(|e| matches!(e, Event::EpochMark { .. }))
            .iter()
            .map(|r| match r.event {
                Some(Event::EpochMark { epoch, .. }) => epoch,
                _ => u64::MAX,
            })
            .collect();
        assert_eq!(epochs, [6, 7, 8, 9], "the last four epochs survive, in seq order");
        // The dump speaks the exporter formats.
        assert_eq!(dump.jsonl().lines().count(), 4);
        assert!(dump.jsonl().contains("\"type\":\"EpochMark\""));
        assert!(dump.chrome_json().starts_with("{\"displayTimeUnit\""));
    }

    #[test]
    fn flight_mode_still_feeds_metrics() {
        let clock = Arc::new(VirtualClock::new(0));
        let t = Tracer::flight_with_clock(2, clock.clone());
        for _ in 0..10 {
            let _g = t.span("op");
            clock.advance(1_000);
        }
        // The ring kept 2 spans, the histogram saw all 10.
        assert_eq!(t.flight_dump().len(), 2);
        assert_eq!(t.metrics().unwrap().histogram("op").count(), 10);
    }

    #[test]
    fn full_tracer_dump_has_zero_capacity_and_drops() {
        let t = Tracer::new();
        t.instant(
            "e",
            Event::Degrade {
                dataset: 1,
                bytes: 2,
            },
        );
        let dump = t.flight_dump();
        assert_eq!(dump.capacity(), 0);
        assert_eq!(dump.dropped(), 0);
        assert_eq!(dump.len(), 1);
        assert!(!t.is_flight());
    }
}
