//! Trace exporters.
//!
//! Two formats, both deterministic functions of the record list (records
//! are emitted in `seq` order, timestamps come from the tracer's clock —
//! under a [`VirtualClock`](crate::VirtualClock) the output is
//! byte-stable, which the golden tests pin):
//!
//! - [`chrome_json`] — the Chrome `trace_event` array format. Load the
//!   file in `chrome://tracing` or <https://ui.perfetto.dev>: spans are
//!   complete (`ph:"X"`) events nested by timestamp per thread track,
//!   instants are thread-scoped (`ph:"i"`), all on `pid 1` with one row
//!   per tracer thread.
//! - [`jsonl`] — one compact JSON object per record per line, for log
//!   pipelines and ad-hoc `grep`/`jq` analysis.

use crate::{Event, Record, RecordKind};

/// Format nanoseconds as Chrome's microsecond `ts`/`dur` fields without
/// going through floating point (deterministic output).
fn micros(ns: u64) -> String {
    if ns.is_multiple_of(1000) {
        format!("{}", ns / 1000)
    } else {
        format!("{}.{:03}", ns / 1000, ns % 1000)
    }
}

/// JSON-escape a string literal's contents (span names are static
/// identifiers, but the exporter must never emit malformed JSON even for
/// odd ones). The operator report escapes through this one too.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The event payload as JSON object members (no surrounding braces).
fn event_members(e: &Event) -> String {
    match e {
        Event::VolCall { op, dataset, bytes } => format!(
            "\"type\":\"VolCall\",\"op\":\"{}\",\"dataset\":{dataset},\"bytes\":{bytes}",
            json_escape(op)
        ),
        Event::Snapshot { bytes, staged } => {
            format!("\"type\":\"Snapshot\",\"bytes\":{bytes},\"staged\":{staged}")
        }
        Event::WalAppend { seq, bytes } => {
            format!("\"type\":\"WalAppend\",\"seq\":{seq},\"bytes\":{bytes}")
        }
        Event::WalReplay { seq, bytes } => {
            format!("\"type\":\"WalReplay\",\"seq\":{seq},\"bytes\":{bytes}")
        }
        Event::WalTruncated { offset } => {
            format!("\"type\":\"WalTruncated\",\"offset\":{offset}")
        }
        Event::RetryAttempt {
            attempt,
            delay_nanos,
        } => format!("\"type\":\"RetryAttempt\",\"attempt\":{attempt},\"delay_nanos\":{delay_nanos}"),
        Event::BreakerTransition { from, to } => format!(
            "\"type\":\"BreakerTransition\",\"from\":\"{}\",\"to\":\"{}\"",
            json_escape(from),
            json_escape(to)
        ),
        Event::PlanBuilt {
            dataset,
            segments,
            batches,
        } => format!(
            "\"type\":\"PlanBuilt\",\"dataset\":{dataset},\"segments\":{segments},\"batches\":{batches}"
        ),
        Event::BackendBatch { segments, bytes } => {
            format!("\"type\":\"BackendBatch\",\"segments\":{segments},\"bytes\":{bytes}")
        }
        Event::Sieve {
            segments,
            span_bytes,
            fill_bytes,
        } => format!(
            "\"type\":\"Sieve\",\"segments\":{segments},\"span_bytes\":{span_bytes},\"fill_bytes\":{fill_bytes}"
        ),
        Event::FlushHash {
            jobs,
            bytes,
            reads,
            overlapped,
        } => format!(
            "\"type\":\"FlushHash\",\"jobs\":{jobs},\"bytes\":{bytes},\"reads\":{reads},\"overlapped\":{overlapped}"
        ),
        Event::Degrade { dataset, bytes } => {
            format!("\"type\":\"Degrade\",\"dataset\":{dataset},\"bytes\":{bytes}")
        }
    }
}

/// Export records as a Chrome `trace_event` JSON document.
pub fn chrome_json(records: &[Record]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, r) in records.iter().enumerate() {
        let args = match &r.event {
            Some(e) => format!("{{\"seq\":{},{}}}", r.seq, event_members(e)),
            None => format!("{{\"seq\":{}}}", r.seq),
        };
        let line = match r.kind {
            RecordKind::Span => format!(
                "{{\"name\":\"{}\",\"cat\":\"apio\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                json_escape(r.name),
                micros(r.start_nanos),
                micros(r.dur_nanos),
                r.tid,
                args
            ),
            RecordKind::Instant => format!(
                "{{\"name\":\"{}\",\"cat\":\"apio\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                json_escape(r.name),
                micros(r.start_nanos),
                r.tid,
                args
            ),
        };
        out.push_str(&line);
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Export records as compact JSONL: one object per record per line.
pub fn jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        let kind = match r.kind {
            RecordKind::Span => "span",
            RecordKind::Instant => "instant",
        };
        out.push_str(&format!(
            "{{\"seq\":{},\"kind\":\"{kind}\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"tid\":{},\"ts_ns\":{},\"dur_ns\":{}",
            r.seq,
            json_escape(r.name),
            r.id,
            r.parent,
            r.tid,
            r.start_nanos,
            r.dur_nanos
        ));
        if let Some(e) = &r.event {
            out.push_str(&format!(",\"event\":{{{}}}", event_members(e)));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::json_escape as esc;

    fn sample() -> Vec<Record> {
        vec![
            Record {
                seq: 0,
                kind: RecordKind::Instant,
                name: "mark",
                id: 0,
                parent: 1,
                tid: 1,
                start_nanos: 1_500,
                dur_nanos: 0,
                event: Some(Event::RetryAttempt {
                    attempt: 2,
                    delay_nanos: 512,
                }),
            },
            Record {
                seq: 1,
                kind: RecordKind::Span,
                name: "vol.write",
                id: 1,
                parent: 0,
                tid: 1,
                start_nanos: 1_000,
                dur_nanos: 2_345,
                event: Some(Event::VolCall {
                    op: "write",
                    dataset: 3,
                    bytes: 64,
                }),
            },
            Record {
                seq: 2,
                kind: RecordKind::Span,
                name: "epoch.io",
                id: 2,
                parent: 0,
                tid: 1,
                start_nanos: 4_000,
                dur_nanos: 1_000,
                event: None,
            },
        ]
    }

    #[test]
    fn chrome_json_shape() {
        let s = chrome_json(&sample());
        assert!(s.starts_with("{\"displayTimeUnit\""));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"ts\":1.500"));
        assert!(s.contains("\"dur\":2.345"));
        assert!(s.contains("\"type\":\"VolCall\""));
        assert!(s.trim_end().ends_with("]}"));
    }

    #[test]
    fn jsonl_one_line_per_record() {
        let s = jsonl(&sample());
        assert_eq!(s.lines().count(), 3);
        assert!(s.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(s.contains("\"kind\":\"instant\""));
        assert!(s.contains("\"dur_ns\":2345"));
    }

    #[test]
    fn names_are_escaped() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn micros_formatting_is_exact() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(1_000), "1");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(999), "0.999");
    }
}
