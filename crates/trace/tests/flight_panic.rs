//! Panic-dump smoke: a flight tracer armed with [`install_panic_dump`]
//! leaves its black box behind when the process panics.

use std::panic;
use std::sync::Arc;

use apio_trace::{install_panic_dump, Event, Tracer, VirtualClock};

#[test]
fn panic_hook_writes_the_flight_ring_as_jsonl() {
    let path = std::env::temp_dir().join(format!("apio_flight_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let clock = Arc::new(VirtualClock::new(0));
    let tracer = Tracer::flight_with_clock(8, clock.clone());
    install_panic_dump(&tracer, &path);

    // Record more than the ring holds so the dump proves tail retention.
    for epoch in 0..20u32 {
        let guard = tracer.span("epoch.io");
        clock.advance(1_000);
        drop(guard);
        tracer.instant(
            "epoch.mark",
            Event::RetryAttempt {
                attempt: epoch,
                delay_nanos: 1_000,
            },
        );
    }

    let before = apio_trace::flight::panic_dump_count();
    let result = panic::catch_unwind(|| panic!("intentional: flight-dump smoke"));
    assert!(result.is_err(), "the panic must propagate to catch_unwind");
    let _ = panic::take_hook();

    assert_eq!(
        apio_trace::flight::panic_dump_count(),
        before + 1,
        "exactly one dump written by this panic"
    );
    let dump = std::fs::read_to_string(&path).expect("panic hook wrote the dump file");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(
        !lines.is_empty() && lines.len() <= 16,
        "dump is bounded by the ring ({} lines)",
        lines.len()
    );
    assert!(
        dump.contains("\"type\":\"RetryAttempt\""),
        "typed events survive into the dump"
    );
    assert!(
        dump.contains("\"attempt\":19"),
        "the ring retains the most recent epochs"
    );
    assert!(
        !dump.contains("\"attempt\":0,"),
        "the oldest epochs were overwritten"
    );
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each line is a JSON object: {line}"
        );
    }

    let _ = std::fs::remove_file(&path);
}
