//! Cross-rank critical-path analysis (DESIGN.md §16).
//!
//! The emitters in `mpisim` and `kernels` publish one span stream per
//! rank, tagged with a [`SpanContext`]: every epoch of every rank is
//! tiled by `rank.compute` → `rank.wait` → `rank.meta` → `rank.write`
//! spans, with causal-edge instants (barrier entry/exit, write-handoff,
//! settle) marking where streams synchronize. All streams share one
//! virtual clock, so this module can merge them into a single timeline
//! and answer the questions aggregate tracing cannot:
//!
//! - **Attribution** — where did each rank's share of the epoch wall go
//!   ({compute, write, metadata, wait}, summing to the wall by
//!   construction of the tiling)?
//! - **Critical path** — which rank's compute→write→barrier chain bounds
//!   the epoch (the *straggler*: the rank with the most busy time, i.e.
//!   the least barrier wait)?
//! - **Skew** — p50/p99 of per-rank busy time, the straggler magnitude.
//! - **Overlap efficiency** — of the background I/O issued between a
//!   [`Event::WriteHandoff`] and its [`Event::Settle`], what fraction ran
//!   hidden under some rank's compute? Comparable to the Eq. 2b
//!   prediction `min(t_io, t_comp) / t_io`.

use crate::{Event, RecordKind, SpanContext, TraceSink};

/// Span name for a rank's compute phase on its context stream.
pub const SPAN_COMPUTE: &str = "rank.compute";
/// Span name for a rank's barrier/buffer wait on its context stream.
pub const SPAN_WAIT: &str = "rank.wait";
/// Span name for a rank's metadata work on its context stream.
pub const SPAN_META: &str = "rank.meta";
/// Span name for a rank's visible write/read I/O on its context stream.
pub const SPAN_WRITE: &str = "rank.write";

/// One rank's share of an epoch's wall time, decomposed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankSlice {
    /// Rank id.
    pub rank: u32,
    /// Nanoseconds in `rank.compute` spans.
    pub compute_nanos: u64,
    /// Nanoseconds in `rank.write` spans (visible I/O).
    pub write_nanos: u64,
    /// Nanoseconds in `rank.meta` spans (metadata open/commit).
    pub meta_nanos: u64,
    /// Nanoseconds in `rank.wait` spans (barrier + buffer-park waits).
    pub wait_nanos: u64,
}

impl RankSlice {
    /// Time the rank spent doing work (everything but waiting) — the
    /// straggler metric: the epoch's straggler has the *most* busy time.
    pub fn busy_nanos(&self) -> u64 {
        self.compute_nanos + self.write_nanos + self.meta_nanos
    }
}

/// One segment of an epoch's critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CritSegment {
    /// Rank the segment ran on.
    pub rank: u32,
    /// Span name (`rank.compute`, `rank.write`, …).
    pub name: &'static str,
    /// Segment start, nanoseconds on the merged clock.
    pub start_nanos: u64,
    /// Segment duration in nanoseconds.
    pub dur_nanos: u64,
}

/// The merged view of one epoch across all ranks.
#[derive(Clone, Debug)]
pub struct EpochAttribution {
    /// 0-based epoch index.
    pub epoch: u64,
    /// Earliest span start across the epoch's rank streams.
    pub start_nanos: u64,
    /// Latest span end across the epoch's rank streams.
    pub end_nanos: u64,
    /// Per-rank decomposition, sorted by rank.
    pub ranks: Vec<RankSlice>,
    /// The rank with the most busy time — the rank the critical path
    /// runs through (ties break to the lowest rank).
    pub straggler: u32,
    /// Median per-rank busy time.
    pub skew_p50_nanos: u64,
    /// 99th-percentile per-rank busy time (the straggler's, for small
    /// rank counts).
    pub skew_p99_nanos: u64,
    /// The straggler's segments in time order — the chain that bounds
    /// the epoch.
    pub critical_path: Vec<CritSegment>,
}

impl EpochAttribution {
    /// Epoch wall time: latest end minus earliest start across ranks.
    pub fn wall_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    /// The decomposition row for `rank`, if it participated.
    pub fn rank_slice(&self, rank: u32) -> Option<&RankSlice> {
        self.ranks.iter().find(|s| s.rank == rank)
    }

    /// Straggler magnitude: p99 busy over p50 busy (1.0 when balanced).
    pub fn skew_ratio(&self) -> f64 {
        if self.skew_p50_nanos == 0 {
            return if self.skew_p99_nanos == 0 { 1.0 } else { f64::INFINITY };
        }
        self.skew_p99_nanos as f64 / self.skew_p50_nanos as f64
    }
}

/// The full cross-rank analysis of one job's trace.
#[derive(Clone, Debug)]
pub struct CritPathReport {
    /// Job id the analysis covers.
    pub job: u32,
    /// Distinct ranks observed.
    pub ranks: u32,
    /// Per-epoch attribution, sorted by epoch.
    pub epochs: Vec<EpochAttribution>,
    /// Fraction of background I/O (handoff→settle intervals) that
    /// overlapped some compute span of the issuing rank. 0.0 for
    /// synchronous traces (settle coincides with the visible write) and
    /// when no causal edges are present. The final epoch's edge is
    /// excluded — it has no subsequent compute to hide under, so
    /// including it would understate steady-state overlap.
    pub observed_overlap_efficiency: f64,
}

impl CritPathReport {
    /// The attribution row for `epoch`, if present.
    pub fn epoch(&self, epoch: u64) -> Option<&EpochAttribution> {
        self.epochs.iter().find(|e| e.epoch == epoch)
    }
}

/// Analyze the lowest job id present in `sink`. See [`analyze_job`].
pub fn analyze(sink: &TraceSink) -> CritPathReport {
    let job = sink
        .records()
        .iter()
        .filter_map(|r| r.ctx.map(|c| c.job))
        .min()
        .unwrap_or(0);
    analyze_job(sink, job)
}

/// Merge `job`'s rank streams on the shared clock and compute per-epoch
/// critical paths, attribution, skew, and overlap efficiency.
pub fn analyze_job(sink: &TraceSink, job: u32) -> CritPathReport {
    // (epoch, rank) -> slice, plus the epoch time window.
    let mut epochs: Vec<EpochAttribution> = Vec::new();
    let ctx_of = |r: &crate::Record| -> Option<SpanContext> {
        r.ctx.filter(|c| c.job == job)
    };

    for rec in sink.records() {
        let Some(ctx) = ctx_of(rec) else { continue };
        if rec.kind != RecordKind::Span {
            continue;
        }
        let at = match epochs.iter_mut().find(|e| e.epoch == ctx.epoch) {
            Some(e) => e,
            None => {
                epochs.push(EpochAttribution {
                    epoch: ctx.epoch,
                    start_nanos: u64::MAX,
                    end_nanos: 0,
                    ranks: Vec::new(),
                    straggler: 0,
                    skew_p50_nanos: 0,
                    skew_p99_nanos: 0,
                    critical_path: Vec::new(),
                });
                let last = epochs.len() - 1;
                &mut epochs[last]
            }
        };
        at.start_nanos = at.start_nanos.min(rec.start_nanos);
        at.end_nanos = at.end_nanos.max(rec.start_nanos + rec.dur_nanos);
        let slice = match at.ranks.iter_mut().find(|s| s.rank == ctx.rank) {
            Some(s) => s,
            None => {
                at.ranks.push(RankSlice {
                    rank: ctx.rank,
                    ..RankSlice::default()
                });
                let last = at.ranks.len() - 1;
                &mut at.ranks[last]
            }
        };
        match rec.name {
            SPAN_COMPUTE => slice.compute_nanos += rec.dur_nanos,
            SPAN_WAIT => slice.wait_nanos += rec.dur_nanos,
            SPAN_META => slice.meta_nanos += rec.dur_nanos,
            SPAN_WRITE => slice.write_nanos += rec.dur_nanos,
            // Foreign spans on a tagged stream still widen the window but
            // are not attributed to a category.
            _ => {}
        }
    }

    epochs.sort_by_key(|e| e.epoch);
    for e in &mut epochs {
        e.ranks.sort_by_key(|s| s.rank);
        let mut busy: Vec<u64> = e.ranks.iter().map(RankSlice::busy_nanos).collect();
        busy.sort_unstable();
        e.skew_p50_nanos = percentile_sorted(&busy, 0.50);
        e.skew_p99_nanos = percentile_sorted(&busy, 0.99);
        e.straggler = e
            .ranks
            .iter()
            .max_by(|a, b| {
                a.busy_nanos()
                    .cmp(&b.busy_nanos())
                    // On ties, max_by returns the later element; reverse
                    // the rank order so the *lowest* tied rank wins.
                    .then(b.rank.cmp(&a.rank))
            })
            .map(|s| s.rank)
            .unwrap_or(0);
    }

    // Critical path: the straggler's spans for the epoch in start order.
    for e in &mut epochs {
        let mut segs: Vec<CritSegment> = sink
            .records()
            .iter()
            .filter(|r| {
                r.kind == RecordKind::Span
                    && r.ctx
                        .is_some_and(|c| c.job == job && c.epoch == e.epoch && c.rank == e.straggler)
            })
            .map(|r| CritSegment {
                rank: e.straggler,
                name: r.name,
                start_nanos: r.start_nanos,
                dur_nanos: r.dur_nanos,
            })
            .collect();
        segs.sort_by_key(|s| (s.start_nanos, s.dur_nanos));
        e.critical_path = segs;
    }

    let ranks = {
        let mut ids: Vec<u32> = Vec::new();
        for e in &epochs {
            for s in &e.ranks {
                if !ids.contains(&s.rank) {
                    ids.push(s.rank);
                }
            }
        }
        ids.len() as u32
    };

    let observed = overlap_efficiency(sink, job, epochs.last().map(|e| e.epoch));
    CritPathReport {
        job,
        ranks,
        epochs,
        observed_overlap_efficiency: observed,
    }
}

/// `values[⌈q·n⌉-1]` over an ascending-sorted slice (0 when empty).
fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx]
}

/// Fraction of handoff→settle background time that overlapped the
/// issuing rank's compute spans. Edges from `last_epoch` are excluded
/// (no subsequent compute exists to hide their tail).
fn overlap_efficiency(sink: &TraceSink, job: u32, last_epoch: Option<u64>) -> f64 {
    // Per (rank): compute intervals, and per (epoch, rank): handoff /
    // settle timestamps.
    let mut compute: Vec<(u32, u64, u64)> = Vec::new(); // (rank, start, end)
    let mut handoffs: Vec<(u64, u32, u64)> = Vec::new(); // (epoch, rank, ts)
    let mut settles: Vec<(u64, u32, u64)> = Vec::new();
    for r in sink.records() {
        let Some(c) = r.ctx.filter(|c| c.job == job) else {
            continue;
        };
        match (r.kind, r.name, r.event) {
            (RecordKind::Span, SPAN_COMPUTE, _) => {
                compute.push((c.rank, r.start_nanos, r.start_nanos + r.dur_nanos));
            }
            (RecordKind::Instant, _, Some(Event::WriteHandoff { epoch, .. })) => {
                handoffs.push((epoch, c.rank, r.start_nanos));
            }
            (RecordKind::Instant, _, Some(Event::Settle { epoch, .. })) => {
                settles.push((epoch, c.rank, r.start_nanos));
            }
            _ => {}
        }
    }
    let mut bg_total = 0u64;
    let mut hidden = 0u64;
    for &(epoch, rank, h) in &handoffs {
        if last_epoch == Some(epoch) && epoch > 0 {
            continue;
        }
        let Some(&(_, _, s)) = settles
            .iter()
            .find(|&&(e, rk, s)| e == epoch && rk == rank && s > h)
        else {
            continue;
        };
        bg_total += s - h;
        for &(rk, cs, ce) in &compute {
            if rk != rank {
                continue;
            }
            let lo = cs.max(h);
            let hi = ce.min(s);
            hidden += hi.saturating_sub(lo);
        }
    }
    if bg_total == 0 {
        0.0
    } else {
        hidden as f64 / bg_total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, SpanContext, Tracer, VirtualClock};
    use std::sync::Arc;

    /// Emit a synthetic 2-rank, 2-epoch trace: rank 1 computes 3x longer;
    /// rank 0 absorbs the skew in its wait span. Epochs tile exactly.
    fn two_rank_trace() -> TraceSink {
        let clock = Arc::new(VirtualClock::new(0));
        let t = Tracer::with_clock(clock.clone());
        let compute = [1_000u64, 3_000]; // per rank
        let write = 500u64;
        let meta = 100u64;
        let wall = 3_000 + meta + write; // straggler compute + meta + write
        for epoch in 0..2u64 {
            let e0 = epoch * wall;
            for rank in 0..2u32 {
                let ctx = SpanContext::new(0, rank, epoch);
                clock.set(e0);
                {
                    let _g = t.span_ctx(SPAN_COMPUTE, ctx);
                    clock.advance(compute[rank as usize]);
                }
                {
                    let _g = t.span_ctx(SPAN_WAIT, ctx);
                    clock.advance(3_000 - compute[rank as usize]);
                    t.instant_ctx("barrier.enter", ctx, Event::BarrierEnter { epoch });
                }
                {
                    let _g = t.span_ctx(SPAN_META, ctx);
                    clock.advance(meta);
                }
                t.instant_ctx(
                    "handoff",
                    ctx,
                    Event::WriteHandoff { epoch, bytes: 64 },
                );
                {
                    let _g = t.span_ctx(SPAN_WRITE, ctx);
                    clock.advance(write);
                }
                t.instant_ctx("barrier.exit", ctx, Event::BarrierExit { epoch });
            }
        }
        t.sink()
    }

    #[test]
    fn attribution_tiles_the_epoch_and_names_the_straggler() {
        let report = analyze(&two_rank_trace());
        assert_eq!(report.ranks, 2);
        assert_eq!(report.epochs.len(), 2);
        for e in &report.epochs {
            assert_eq!(e.straggler, 1, "rank 1 computes 3x longer");
            assert_eq!(e.wall_nanos(), 3_600);
            for s in &e.ranks {
                assert_eq!(
                    s.busy_nanos() + s.wait_nanos,
                    e.wall_nanos(),
                    "rank {} attribution must tile the wall",
                    s.rank
                );
            }
            let r0 = e.rank_slice(0).unwrap();
            assert_eq!(r0.wait_nanos, 2_000, "rank 0 absorbs the skew");
            let r1 = e.rank_slice(1).unwrap();
            assert_eq!(r1.wait_nanos, 0);
            assert_eq!(e.skew_p99_nanos, r1.busy_nanos());
            assert!(e.skew_ratio() > 2.0);
        }
    }

    #[test]
    fn critical_path_is_the_stragglers_chain() {
        let report = analyze(&two_rank_trace());
        let e = report.epoch(0).unwrap();
        let names: Vec<&str> = e.critical_path.iter().map(|s| s.name).collect();
        assert_eq!(names, [SPAN_COMPUTE, SPAN_WAIT, SPAN_META, SPAN_WRITE]);
        assert!(e.critical_path.iter().all(|s| s.rank == 1));
        let chain: u64 = e.critical_path.iter().map(|s| s.dur_nanos).sum();
        assert_eq!(chain, e.wall_nanos(), "the chain bounds the epoch");
    }

    #[test]
    fn sync_trace_has_zero_overlap_efficiency() {
        // No Settle edges at all -> no background I/O -> 0.0.
        let report = analyze(&two_rank_trace());
        assert_eq!(report.observed_overlap_efficiency, 0.0);
    }

    #[test]
    fn overlap_efficiency_measures_hidden_background_io() {
        let clock = Arc::new(VirtualClock::new(0));
        let t = Tracer::with_clock(clock.clone());
        // Epoch 0: handoff at t=1000, settle at t=1800; the next compute
        // span [1000, 1600] hides 600 of the 800 ns background interval.
        let c0 = SpanContext::new(0, 0, 0);
        clock.set(0);
        {
            let _g = t.span_ctx(SPAN_COMPUTE, c0);
            clock.advance(1_000);
        }
        t.instant_ctx("handoff", c0, Event::WriteHandoff { epoch: 0, bytes: 1 });
        let c1 = SpanContext::new(0, 0, 1);
        {
            let _g = t.span_ctx(SPAN_COMPUTE, c1);
            clock.advance(600);
        }
        clock.set(1_800);
        t.instant_ctx("settle", c0, Event::Settle { epoch: 0, requests: 1 });
        // A second epoch exists, so epoch 0 is not the excluded tail.
        let report = analyze(&t.sink());
        assert!((report.observed_overlap_efficiency - 0.75).abs() < 1e-9);
    }

    #[test]
    fn final_epoch_edges_are_excluded_from_efficiency() {
        let clock = Arc::new(VirtualClock::new(0));
        let t = Tracer::with_clock(clock.clone());
        for epoch in 0..2u64 {
            let ctx = SpanContext::new(0, 0, epoch);
            clock.set(epoch * 1_000);
            {
                let _g = t.span_ctx(SPAN_COMPUTE, ctx);
                clock.advance(400);
            }
            t.instant_ctx("handoff", ctx, Event::WriteHandoff { epoch, bytes: 1 });
            clock.advance(300);
            t.instant_ctx("settle", ctx, Event::Settle { epoch, requests: 1 });
        }
        let report = analyze(&t.sink());
        // Only epoch 0's edge counts; its interval [400, 700] overlaps
        // epoch 1's compute not at all and epoch 0's compute not at all
        // (compute ended at 400) -> efficiency 0, but crucially the
        // last-epoch edge did not contribute to the denominator.
        assert_eq!(report.observed_overlap_efficiency, 0.0);
    }

    #[test]
    fn empty_sink_yields_an_empty_report() {
        let report = analyze(&TraceSink::default());
        assert_eq!(report.ranks, 0);
        assert!(report.epochs.is_empty());
        assert_eq!(report.observed_overlap_efficiency, 0.0);
    }
}
