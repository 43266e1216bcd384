//! Exporter golden tests (ISSUE 4): under a seeded [`VirtualClock`] on a
//! single thread, both exporters are deterministic functions of the
//! traced scenario — byte for byte. The goldens pin the exact output so
//! an accidental format change (field order, float formatting, escaping)
//! fails loudly instead of silently breaking downstream tooling.

use std::sync::Arc;

use apio_trace::export::{chrome_json, jsonl};
use apio_trace::{Event, TraceSink, Tracer, VirtualClock};

/// The pinned scenario: a submit span wrapping a snapshot span and a
/// retry instant, with every duration chosen to exercise both the whole-
/// and fractional-microsecond formatting paths.
fn pinned_trace() -> TraceSink {
    let clock = Arc::new(VirtualClock::new(1_000));
    let t = Tracer::with_clock(clock.clone());
    let mut write = t.span_with(
        "vol.write",
        Event::VolCall {
            op: "write",
            dataset: 3,
            bytes: 4096,
        },
    );
    clock.advance(250);
    {
        let mut snap = t.span("vol.snapshot");
        clock.advance(2_000);
        snap.set_event(Event::Snapshot {
            bytes: 4096,
            staged: true,
        });
    }
    t.instant(
        "retry",
        Event::RetryAttempt {
            attempt: 1,
            delay_nanos: 500,
        },
    );
    clock.advance(750);
    write.set_event(Event::VolCall {
        op: "write",
        dataset: 3,
        bytes: 4096,
    });
    drop(write);
    t.sink()
}

const CHROME_GOLDEN: &str = concat!(
    "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n",
    "{\"name\":\"vol.snapshot\",\"cat\":\"apio\",\"ph\":\"X\",\"ts\":1.250,\"dur\":2,\"pid\":1,\"tid\":1,",
    "\"args\":{\"seq\":0,\"type\":\"Snapshot\",\"bytes\":4096,\"staged\":true}},\n",
    "{\"name\":\"retry\",\"cat\":\"apio\",\"ph\":\"i\",\"s\":\"t\",\"ts\":3.250,\"pid\":1,\"tid\":1,",
    "\"args\":{\"seq\":1,\"type\":\"RetryAttempt\",\"attempt\":1,\"delay_nanos\":500}},\n",
    "{\"name\":\"vol.write\",\"cat\":\"apio\",\"ph\":\"X\",\"ts\":1,\"dur\":3,\"pid\":1,\"tid\":1,",
    "\"args\":{\"seq\":2,\"type\":\"VolCall\",\"op\":\"write\",\"dataset\":3,\"bytes\":4096}}\n",
    "]}\n",
);

const JSONL_GOLDEN: &str = concat!(
    "{\"seq\":0,\"kind\":\"span\",\"name\":\"vol.snapshot\",\"id\":2,\"parent\":1,\"tid\":1,",
    "\"ts_ns\":1250,\"dur_ns\":2000,\"event\":{\"type\":\"Snapshot\",\"bytes\":4096,\"staged\":true}}\n",
    "{\"seq\":1,\"kind\":\"instant\",\"name\":\"retry\",\"id\":0,\"parent\":1,\"tid\":1,",
    "\"ts_ns\":3250,\"dur_ns\":0,\"event\":{\"type\":\"RetryAttempt\",\"attempt\":1,\"delay_nanos\":500}}\n",
    "{\"seq\":2,\"kind\":\"span\",\"name\":\"vol.write\",\"id\":1,\"parent\":0,\"tid\":1,",
    "\"ts_ns\":1000,\"dur_ns\":3000,\"event\":{\"type\":\"VolCall\",\"op\":\"write\",\"dataset\":3,\"bytes\":4096}}\n",
);

#[test]
fn chrome_json_matches_the_golden_byte_for_byte() {
    assert_eq!(chrome_json(pinned_trace().records()), CHROME_GOLDEN);
}

#[test]
fn jsonl_matches_the_golden_byte_for_byte() {
    assert_eq!(jsonl(pinned_trace().records()), JSONL_GOLDEN);
}

#[test]
fn exports_are_stable_across_independent_runs() {
    let a = pinned_trace();
    let b = pinned_trace();
    assert_eq!(chrome_json(a.records()), chrome_json(b.records()));
    assert_eq!(jsonl(a.records()), jsonl(b.records()));
}

#[test]
fn chrome_events_carry_the_required_fields() {
    let json = chrome_json(pinned_trace().records());
    for line in json.lines().filter(|l| l.starts_with('{') && l.contains("\"name\"")) {
        assert!(line.contains("\"ph\":\"X\"") || line.contains("\"ph\":\"i\""), "{line}");
        assert!(line.contains("\"ts\":"), "{line}");
        assert!(line.contains("\"pid\":1"), "{line}");
        assert!(line.contains("\"tid\":"), "{line}");
        if line.contains("\"ph\":\"X\"") {
            assert!(line.contains("\"dur\":"), "complete events need a duration: {line}");
        } else {
            assert!(line.contains("\"s\":\"t\""), "instants are thread-scoped: {line}");
        }
    }
}
