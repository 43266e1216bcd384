//! The operator report: live pipeline state as a text dashboard and a
//! machine-readable JSON snapshot.
//!
//! A [`ReportBuilder`] collects whatever views of the pipeline the caller
//! has — the counter registry, a trace snapshot, the adaptive runtime's
//! drift alarms and refit count, advisor decisions, the breaker state, a
//! WAL [`RecoverySummary`] — and renders them two ways:
//! [`render_text`](ReportBuilder::render_text) for a terminal ("what is
//! the pipeline doing right now?") and
//! [`render_json`](ReportBuilder::render_json) (schema `apio-report-v1`)
//! for scripts, CI gates, and the test suite. The E2E drift test asserts
//! the advisor's sync/async flip *from the JSON alone* — the report is
//! the public boundary, not the model internals.
//!
//! Sections the caller never supplied are omitted from both renderings;
//! every number is read at build time, so a report is a consistent
//! point-in-time snapshot. Span-duration percentiles are computed from
//! the span records of a [`TraceSink`], the one place durations are kept.

use std::collections::BTreeMap;

use apio_trace::export::json_escape;
use apio_trace::{Metrics, RecordKind, TraceSink};

use crate::adaptive::{AdaptiveRuntime, DriftAlarm};
use crate::advisor::Advice;
use crate::epoch::Scenario;
use crate::history::IoMode;

/// WAL crash-recovery numbers, as reported by the connector's recovery
/// pass (mirrors `asyncvol`'s `RecoveryReport` without depending on it —
/// the model crate sits below the connector).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// WAL records scanned.
    pub scanned: u64,
    /// Records replayed into the container.
    pub replayed: u64,
    /// Bytes replayed.
    pub bytes_replayed: u64,
    /// Records whose payload extent was unreadable (orphaned).
    pub orphaned: u64,
    /// Records already marked applied (skipped).
    pub already_applied: u64,
}

/// End-to-end integrity numbers: read-path checksum verification, scrub
/// outcome, superblock slot fallbacks, and — when a crash-point sweep
/// ran — its coverage. Mirrors `h5lite`'s `IntegrityStats` plus the
/// sweep shape without depending on either crate (the model crate sits
/// below both).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegritySummary {
    /// Whole extents verified against their checksum on the read path.
    pub verified_extents: u64,
    /// Read-path checksum mismatches (each one surfaced as an error).
    pub checksum_failures: u64,
    /// Extents a scrub found failing their checksum.
    pub scrub_corrupt: u64,
    /// Corrupt extents rebuilt from a durable WAL/staging copy.
    pub scrub_repaired: u64,
    /// Invalid superblock slots skipped at open — non-zero means a torn
    /// or corrupted commit was survived via the other slot.
    pub superblock_fallbacks: u64,
    /// Crash-point sweep: mutation boundaries enumerated (0 = not run).
    pub crash_points: u64,
    /// Crash-point sweep: boundaries that violated a durability
    /// invariant (acked data lost, metadata unreadable, scrub dirty).
    pub crash_failures: u64,
}

/// One epoch's cross-rank straggler attribution (DESIGN.md §16): which
/// rank bounded the epoch and where that rank's time went. Produced by
/// `mpisim::straggler_report`; the model crate only renders it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StragglerEpoch {
    /// 0-based epoch index.
    pub epoch: u64,
    /// The rank with the most busy time: the one the epoch waits for.
    pub straggler: u32,
    /// Epoch wall time in nanoseconds.
    pub wall_nanos: u64,
    /// Straggler's compute share of the wall.
    pub compute_nanos: u64,
    /// Straggler's visible-I/O share.
    pub write_nanos: u64,
    /// Straggler's metadata share.
    pub meta_nanos: u64,
    /// Straggler's wait share (barrier + buffer parks).
    pub wait_nanos: u64,
    /// Median per-rank busy time.
    pub skew_p50_nanos: u64,
    /// 99th-percentile per-rank busy time.
    pub skew_p99_nanos: u64,
}

impl StragglerEpoch {
    /// Straggler magnitude: p99 busy over p50 busy (1.0 when balanced).
    pub fn skew_ratio(&self) -> f64 {
        if self.skew_p50_nanos == 0 {
            return if self.skew_p99_nanos == 0 { 1.0 } else { f64::INFINITY };
        }
        self.skew_p99_nanos as f64 / self.skew_p50_nanos as f64
    }
}

/// The cross-rank straggler/overlap section of the operator report:
/// per-epoch attribution plus observed-vs-predicted (Eq. 2) overlap
/// efficiency for the background I/O.
#[derive(Clone, Debug, Default)]
pub struct StragglerReport {
    /// Ranks the analysis covered.
    pub ranks: u32,
    /// Leading epochs excluded from the per-epoch rows (warmup).
    pub warmup_epochs: u32,
    /// Post-warmup epoch rows, in epoch order.
    pub epochs: Vec<StragglerEpoch>,
    /// Measured fraction of background I/O hidden under compute.
    pub observed_overlap_efficiency: f64,
    /// Eq. 2 prediction: `min(t_io, t_comp) / t_io` (0 for sync).
    pub predicted_overlap_efficiency: f64,
}

/// One advisor decision, labelled by the caller (e.g. `"write"`).
struct AdviceRow {
    label: String,
    advice: Advice,
}

/// One span name's exact duration distribution, in nanoseconds.
struct SpanRow {
    name: &'static str,
    count: usize,
    p50: u64,
    p95: u64,
    p99: u64,
}

/// The trace snapshot's retention window: ring capacity (0 = unbounded),
/// records retained, records overwritten.
struct FlightRow {
    capacity: usize,
    recorded: usize,
    dropped: u64,
}

/// Collects pipeline views and renders the operator report.
#[derive(Default)]
pub struct ReportBuilder {
    title: String,
    metrics: Option<Metrics>,
    spans: Vec<SpanRow>,
    breaker: Option<(String, bool)>,
    advice: Vec<AdviceRow>,
    alarms: Vec<DriftAlarm>,
    recovery: Option<RecoverySummary>,
    integrity: Option<IntegritySummary>,
    flight: Option<FlightRow>,
    refits: Option<u64>,
    stragglers: Option<StragglerReport>,
}

fn mode_tag(mode: IoMode) -> &'static str {
    match mode {
        IoMode::Sync => "sync",
        IoMode::Async => "async",
    }
}

fn scenario_tag(s: Scenario) -> &'static str {
    match s {
        Scenario::Ideal => "ideal",
        Scenario::PartialOverlap => "partial_overlap",
        Scenario::Slowdown => "slowdown",
    }
}

/// The `pct`-th percentile of ascending `sorted` by nearest rank: the
/// smallest retained value with at least `pct`% of the values at or
/// below it (0 when empty).
pub fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    let rank = (sorted.len() * pct).div_ceil(100).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// A float as a JSON number (non-finite values become 0 — JSON has no
/// NaN, and a report must stay parseable).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("0")
    }
}

impl ReportBuilder {
    /// A report titled `title`.
    pub fn new(title: &str) -> Self {
        ReportBuilder {
            title: title.to_string(),
            ..ReportBuilder::default()
        }
    }

    /// Attach a counter registry: every counter it holds appears in the
    /// report, sorted by name.
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attach a trace snapshot. Each span name the sink retains gets a
    /// row (sorted by name) with its span count and exact nearest-rank
    /// p50/p95/p99 duration over those spans; the sink's window — ring
    /// capacity, records retained, records overwritten — fills the
    /// flight section.
    pub fn trace(mut self, sink: &TraceSink) -> Self {
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for r in sink.records().iter().filter(|r| r.kind == RecordKind::Span) {
            durations.entry(r.name).or_default().push(r.dur_nanos);
        }
        self.spans = durations
            .into_iter()
            .map(|(name, mut durs)| {
                durs.sort_unstable();
                SpanRow {
                    name,
                    count: durs.len(),
                    p50: nearest_rank(&durs, 50),
                    p95: nearest_rank(&durs, 95),
                    p99: nearest_rank(&durs, 99),
                }
            })
            .collect();
        self.flight = Some(FlightRow {
            capacity: sink.capacity(),
            recorded: sink.records().len(),
            dropped: sink.dropped(),
        });
        self
    }

    /// Attach the circuit-breaker state (`"closed"` / `"open"` /
    /// `"half-open"`) and whether writes are currently degraded.
    pub fn breaker(mut self, state: &str, degraded: bool) -> Self {
        self.breaker = Some((state.to_string(), degraded));
        self
    }

    /// Attach one advisor decision under a caller-chosen label.
    pub fn advice(mut self, label: &str, advice: Advice) -> Self {
        self.advice.push(AdviceRow {
            label: label.to_string(),
            advice,
        });
        self
    }

    /// Attach the adaptive runtime's drift alarms and refit count.
    pub fn drift(mut self, rt: &AdaptiveRuntime) -> Self {
        self.alarms = rt.drift_alarms().to_vec();
        self.refits = Some(rt.refit_count());
        self
    }

    /// Attach WAL recovery numbers.
    pub fn recovery(mut self, summary: RecoverySummary) -> Self {
        self.recovery = Some(summary);
        self
    }

    /// Attach end-to-end integrity numbers (checksums, scrub, superblock
    /// fallbacks, crash-sweep coverage).
    pub fn integrity(mut self, summary: IntegritySummary) -> Self {
        self.integrity = Some(summary);
        self
    }

    /// Attach the cross-rank straggler attribution section.
    pub fn stragglers(mut self, report: StragglerReport) -> Self {
        self.stragglers = Some(report);
        self
    }

    fn sorted_counters(&self) -> Vec<(String, u64)> {
        let mut counters = self
            .metrics
            .as_ref()
            .map(|m| m.counters())
            .unwrap_or_default();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        counters
    }

    /// The text dashboard.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== apio report: {} ===\n", self.title));
        if let Some(refits) = self.refits {
            out.push_str(&format!("model refits (drift): {refits}\n"));
        }
        if let Some((state, degraded)) = &self.breaker {
            out.push_str(&format!(
                "breaker: {state}{}\n",
                if *degraded { " [degraded]" } else { "" }
            ));
        }
        let counters = self.sorted_counters();
        if !counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &counters {
                out.push_str(&format!("  {name:<28} {value}\n"));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("span durations (nanos):\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<28} count={} p50={} p95={} p99={}\n",
                    s.name, s.count, s.p50, s.p95, s.p99
                ));
            }
        }
        if !self.advice.is_empty() {
            out.push_str("advisor decisions:\n");
            for row in &self.advice {
                let a = &row.advice;
                out.push_str(&format!(
                    "  {:<12} {} (t_sync={:.3}s t_async={:.3}s speedup={:.2}x {})\n",
                    row.label,
                    mode_tag(a.mode),
                    a.t_sync,
                    a.t_async,
                    a.speedup(),
                    scenario_tag(a.scenario),
                ));
            }
        }
        out.push_str(&format!("drift alarms: {}\n", self.alarms.len()));
        for a in &self.alarms {
            out.push_str(&format!(
                "  epoch {}: rate {} (observed {:.3e} B/s, mean {:.3e} B/s, stat {:.2}/{:.2})\n",
                a.epoch,
                a.direction.tag(),
                a.observed_rate,
                a.mean_rate,
                a.statistic,
                a.threshold,
            ));
        }
        if let Some(r) = &self.recovery {
            out.push_str(&format!(
                "wal recovery: scanned={} replayed={} bytes={} orphaned={} already_applied={}\n",
                r.scanned, r.replayed, r.bytes_replayed, r.orphaned, r.already_applied,
            ));
        }
        if let Some(i) = &self.integrity {
            out.push_str(&format!(
                "integrity: verified={} checksum_failures={} scrub_corrupt={} scrub_repaired={} superblock_fallbacks={}\n",
                i.verified_extents,
                i.checksum_failures,
                i.scrub_corrupt,
                i.scrub_repaired,
                i.superblock_fallbacks,
            ));
            if i.crash_points > 0 {
                out.push_str(&format!(
                    "crash sweep: points={} failures={}\n",
                    i.crash_points, i.crash_failures,
                ));
            }
        }
        if let Some(f) = &self.flight {
            out.push_str(&format!(
                "flight recorder: capacity={} recorded={} dropped={}\n",
                f.capacity, f.recorded, f.dropped,
            ));
        }
        if let Some(s) = &self.stragglers {
            out.push_str(&format!(
                "stragglers ({} ranks, warmup {}): overlap eff observed={:.3} predicted={:.3}\n",
                s.ranks, s.warmup_epochs, s.observed_overlap_efficiency, s.predicted_overlap_efficiency,
            ));
            for e in &s.epochs {
                out.push_str(&format!(
                    "  epoch {:>3}: rank {:<4} wall={}ns compute={} write={} meta={} wait={} skew p99/p50={:.2}\n",
                    e.epoch,
                    e.straggler,
                    e.wall_nanos,
                    e.compute_nanos,
                    e.write_nanos,
                    e.meta_nanos,
                    e.wait_nanos,
                    e.skew_ratio(),
                ));
            }
        }
        out
    }

    /// The JSON snapshot (schema `apio-report-v1`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"apio-report-v1\"");
        out.push_str(&format!(",\"title\":\"{}\"", json_escape(&self.title)));
        if let Some(refits) = self.refits {
            out.push_str(&format!(",\"refits\":{refits}"));
        }
        if let Some((state, degraded)) = &self.breaker {
            out.push_str(&format!(
                ",\"breaker\":{{\"state\":\"{}\",\"degraded\":{degraded}}}",
                json_escape(state)
            ));
        }
        out.push_str(",\"counters\":[");
        for (i, (name, value)) in self.sorted_counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"value\":{value}}}",
                json_escape(name)
            ));
        }
        out.push_str("],\"histograms\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_escape(s.name),
                s.count,
                s.p50,
                s.p95,
                s.p99
            ));
        }
        out.push_str("],\"advice\":[");
        for (i, row) in self.advice.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let a = &row.advice;
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"decision\":\"{}\",\"t_sync\":{},\"t_async\":{},\"speedup\":{},\"scenario\":\"{}\"}}",
                json_escape(&row.label),
                mode_tag(a.mode),
                jnum(a.t_sync),
                jnum(a.t_async),
                jnum(a.speedup()),
                scenario_tag(a.scenario),
            ));
        }
        out.push_str("],\"alarms\":[");
        for (i, a) in self.alarms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"epoch\":{},\"direction\":\"{}\",\"observed_rate\":{},\"mean_rate\":{},\"statistic\":{},\"threshold\":{}}}",
                a.epoch,
                a.direction.tag(),
                jnum(a.observed_rate),
                jnum(a.mean_rate),
                jnum(a.statistic),
                jnum(a.threshold),
            ));
        }
        out.push(']');
        if let Some(r) = &self.recovery {
            out.push_str(&format!(
                ",\"recovery\":{{\"scanned\":{},\"replayed\":{},\"bytes_replayed\":{},\"orphaned\":{},\"already_applied\":{}}}",
                r.scanned, r.replayed, r.bytes_replayed, r.orphaned, r.already_applied,
            ));
        }
        if let Some(i) = &self.integrity {
            out.push_str(&format!(
                ",\"integrity\":{{\"verified_extents\":{},\"checksum_failures\":{},\"scrub_corrupt\":{},\"scrub_repaired\":{},\"superblock_fallbacks\":{},\"crash_points\":{},\"crash_failures\":{}}}",
                i.verified_extents,
                i.checksum_failures,
                i.scrub_corrupt,
                i.scrub_repaired,
                i.superblock_fallbacks,
                i.crash_points,
                i.crash_failures,
            ));
        }
        if let Some(f) = &self.flight {
            out.push_str(&format!(
                ",\"flight\":{{\"capacity\":{},\"recorded\":{},\"dropped\":{}}}",
                f.capacity, f.recorded, f.dropped,
            ));
        }
        if let Some(s) = &self.stragglers {
            out.push_str(&format!(
                ",\"stragglers\":{{\"ranks\":{},\"warmup_epochs\":{},\"observed_overlap_efficiency\":{},\"predicted_overlap_efficiency\":{},\"epochs\":[",
                s.ranks,
                s.warmup_epochs,
                jnum(s.observed_overlap_efficiency),
                jnum(s.predicted_overlap_efficiency),
            ));
            for (i, e) in s.epochs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"epoch\":{},\"straggler_rank\":{},\"wall_nanos\":{},\"compute_nanos\":{},\"write_nanos\":{},\"meta_nanos\":{},\"wait_nanos\":{},\"skew_p50_nanos\":{},\"skew_p99_nanos\":{}}}",
                    e.epoch,
                    e.straggler,
                    e.wall_nanos,
                    e.compute_nanos,
                    e.write_nanos,
                    e.meta_nanos,
                    e.wait_nanos,
                    e.skew_p50_nanos,
                    e.skew_p99_nanos,
                ));
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Direction, TransferRecord};
    use apio_trace::{Tracer, VirtualClock};
    use std::sync::Arc;

    fn runtime_with_drift() -> AdaptiveRuntime {
        let mut rt = AdaptiveRuntime::new();
        for i in 0..10u32 {
            let ranks = [64u32, 128, 256][(i % 3) as usize];
            let bytes = ranks as f64 * 32e6;
            rt.observe_compute(2.0);
            for (mode, rate) in [(IoMode::Sync, 100e9), (IoMode::Async, 10e9)] {
                let secs = bytes / rate;
                rt.observe(TransferRecord::from_time(
                    bytes,
                    ranks,
                    mode,
                    Direction::Write,
                    secs,
                ));
            }
            rt.end_epoch();
        }
        rt
    }

    /// Structural check: braces, brackets, and quotes balance outside of
    /// string literals — cheap insurance that the hand-built JSON stays
    /// machine-readable without a parser dependency.
    fn assert_balanced_json(s: &str) {
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {s}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {s}");
        assert!(!in_str, "unterminated string in {s}");
    }

    #[test]
    fn empty_report_is_valid_and_titled() {
        let r = ReportBuilder::new("smoke");
        let json = r.render_json();
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"schema\":\"apio-report-v1\""));
        assert!(json.contains("\"title\":\"smoke\""));
        assert!(json.contains("\"counters\":[]"));
        assert!(!json.contains("\"recovery\""));
        assert!(r.render_text().contains("=== apio report: smoke ==="));
    }

    #[test]
    fn full_report_carries_every_section() {
        let mut rt = runtime_with_drift();
        let advice = rt.advise(Direction::Write, 64.0 * 32e6, 64).unwrap();
        let metrics = Metrics::new();
        metrics.counter("vol.writes").add(7);
        let clock = Arc::new(VirtualClock::new(0));
        let tracer = Tracer::flight_with_clock(512, clock.clone());
        {
            let _write = tracer.span("vol.write");
            clock.advance(1_000);
        }

        let report = ReportBuilder::new("e2e")
            .metrics(metrics)
            .breaker("open", true)
            .advice("write", advice)
            .drift(&rt)
            .recovery(RecoverySummary {
                scanned: 5,
                replayed: 3,
                bytes_replayed: 4096,
                orphaned: 1,
                already_applied: 1,
            })
            .integrity(IntegritySummary {
                verified_extents: 40,
                checksum_failures: 2,
                scrub_corrupt: 2,
                scrub_repaired: 2,
                superblock_fallbacks: 1,
                crash_points: 57,
                crash_failures: 0,
            })
            .trace(&tracer.sink());

        let json = report.render_json();
        assert_balanced_json(&json);
        assert!(json.contains("\"name\":\"vol.writes\",\"value\":7"));
        assert!(json
            .contains("\"name\":\"vol.write\",\"count\":1,\"p50\":1000,\"p95\":1000,\"p99\":1000"));
        assert!(json.contains("\"decision\":\"sync\""));
        assert!(json.contains("\"breaker\":{\"state\":\"open\",\"degraded\":true}"));
        assert!(json.contains("\"replayed\":3"));
        assert!(json.contains("\"bytes_replayed\":4096"));
        assert!(json.contains(
            "\"integrity\":{\"verified_extents\":40,\"checksum_failures\":2,\"scrub_corrupt\":2,\"scrub_repaired\":2,\"superblock_fallbacks\":1,\"crash_points\":57,\"crash_failures\":0}"
        ));
        assert!(json.contains("\"flight\":{\"capacity\":4096,\"recorded\":1,\"dropped\":0}"));
        assert!(json.contains("\"refits\":0"));
        assert!(json.contains("\"alarms\":[]"));

        let text = report.render_text();
        assert!(text.contains("breaker: open [degraded]"));
        assert!(text.contains("vol.writes"));
        assert!(text.contains("write"));
        assert!(text.contains("wal recovery: scanned=5"));
        assert!(text.contains("integrity: verified=40"));
        assert!(text.contains("crash sweep: points=57 failures=0"));
        assert!(text.contains("flight recorder: capacity=4096"));
        assert!(text.contains("count=1 p50=1000 p95=1000 p99=1000"));
    }

    /// The `histograms` array of a report fed `sink`, as rendered in its
    /// JSON.
    fn span_rows(sink: &TraceSink) -> String {
        let json = ReportBuilder::new("spans").trace(sink).render_json();
        assert_balanced_json(&json);
        let start = json.find("\"histograms\":[").expect("histograms section");
        let end = json[start..].find(']').expect("closed") + start;
        json[start..=end].to_string()
    }

    #[test]
    fn span_percentiles_are_exact_nearest_rank() {
        let clock = Arc::new(VirtualClock::new(0));
        let tracer = Tracer::with_clock(clock.clone());
        // Durations 1..=100 ns, emitted out of order.
        for d in (1..=100u64).rev() {
            let _g = tracer.span("op");
            clock.advance(d);
        }
        assert_eq!(
            span_rows(&tracer.sink()),
            "\"histograms\":[{\"name\":\"op\",\"count\":100,\"p50\":50,\"p95\":95,\"p99\":99}]"
        );
    }

    #[test]
    fn a_flight_window_reports_only_the_spans_it_retains() {
        let clock = Arc::new(VirtualClock::new(0));
        // One thread writes one shard: a 2-record ring.
        let tracer = Tracer::flight_with_clock(2, clock.clone());
        for d in 1..=10u64 {
            let _g = tracer.span("op");
            clock.advance(d * 100);
        }
        let sink = tracer.sink();
        let json = ReportBuilder::new("window").trace(&sink).render_json();
        let recorded = sink.records().len() as u64;
        assert_eq!(
            recorded + sink.dropped(),
            10,
            "every span is kept or counted"
        );
        assert!(json.contains(&format!(
            "\"flight\":{{\"capacity\":16,\"recorded\":{recorded},\"dropped\":{}}}",
            sink.dropped()
        )));
        // The ring kept the last two spans (900 and 1000 ns); the eight it
        // overwrote are in no percentile.
        assert_eq!(
            span_rows(&sink),
            "\"histograms\":[{\"name\":\"op\",\"count\":2,\"p50\":900,\"p95\":1000,\"p99\":1000}]"
        );
    }

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank(&[], 50), 0);
        assert_eq!(nearest_rank(&[7], 1), 7);
        assert_eq!(nearest_rank(&[7], 99), 7);
        assert_eq!(nearest_rank(&[1, 2], 50), 1);
        assert_eq!(nearest_rank(&[1, 2], 51), 2);
    }

    #[test]
    fn straggler_section_renders_in_both_formats() {
        let report = ReportBuilder::new("skew").stragglers(StragglerReport {
            ranks: 16,
            warmup_epochs: 1,
            epochs: vec![StragglerEpoch {
                epoch: 1,
                straggler: 7,
                wall_nanos: 1_000,
                compute_nanos: 800,
                write_nanos: 150,
                meta_nanos: 0,
                wait_nanos: 50,
                skew_p50_nanos: 250,
                skew_p99_nanos: 950,
            }],
            observed_overlap_efficiency: 0.97,
            predicted_overlap_efficiency: 1.0,
        });
        let json = report.render_json();
        assert_balanced_json(&json);
        assert!(json.contains("\"stragglers\":{\"ranks\":16,\"warmup_epochs\":1"));
        assert!(json.contains("\"straggler_rank\":7"));
        assert!(json.contains("\"observed_overlap_efficiency\":0.97"));
        let text = report.render_text();
        assert!(text.contains("stragglers (16 ranks, warmup 1)"));
        assert!(text.contains("rank 7"));
        assert!(text.contains("p99/p50=3.80"));
        // Never-supplied sections stay omitted.
        assert!(!ReportBuilder::new("x").render_json().contains("stragglers"));
    }

    #[test]
    fn straggler_skew_ratio_handles_degenerate_rows() {
        let balanced = StragglerEpoch::default();
        assert_eq!(balanced.skew_ratio(), 1.0);
        let skewed = StragglerEpoch {
            skew_p99_nanos: 10,
            ..StragglerEpoch::default()
        };
        assert!(skewed.skew_ratio().is_infinite());
    }

    #[test]
    fn titles_and_states_are_escaped() {
        let json = ReportBuilder::new("a\"b\\c\nd")
            .breaker("we\"ird", false)
            .render_json();
        assert_balanced_json(&json);
        assert!(json.contains("a\\\"b\\\\c\\nd"));
        assert!(json.contains("we\\\"ird"));
    }

    #[test]
    fn non_finite_numbers_degrade_to_zero() {
        assert_eq!(jnum(f64::NAN), "0");
        assert_eq!(jnum(f64::INFINITY), "0");
        assert_eq!(jnum(1.5), "1.5");
    }
}
