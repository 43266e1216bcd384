//! The metric tables — what `BENCHMARK.json` declares — and the
//! arithmetic that turns repetitions into those metrics.
//!
//! End-to-end metrics come from plain repetitions (the bare stack,
//! tracing off): each is the median over repetitions of a per-repetition
//! value, except the tail, which pools every epoch. Per-layer metrics
//! come from one traced repetition beside one plain and one synchronous
//! reference repetition.

use apio_core::epoch::{async_epoch_time, sync_epoch_time};

use crate::stats::{median, percentile};
use crate::workload::{Connector, RepResult, Shape, Spec};

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// Every end-to-end metric is a time: lower is better. Every bound is
/// the contract's ceiling, 25%: on the VM this was written on, the same
/// code reads up to 30% slower for minutes at a time (README,
/// "Steadiness"), and a narrower bound would reject the machine, not
/// the change.
pub const END_TO_END: [EndToEnd; 5] = [
    // Backend + container + connector + slots + payload generation +
    // warm passes (+ source write for reads), up to the first timed epoch.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    // First timed epoch start to after the final wait_all + flush
    // (Eq. 1 minus t_init).
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
    },
    // Median epoch wall: I/O calls + compute.
    EndToEnd {
        name: "epoch_s",
        unit: "s",
        bound: 0.25,
    },
    // Median per-epoch time the application thread spends inside
    // Dataset/prefetch calls: t_transact_overhead when the connector
    // defers, t_io when it does not.
    EndToEnd {
        name: "visible_io_s",
        unit: "s",
        bound: 0.25,
    },
    // run_s minus the measured compute sleeps: the seconds I/O added to
    // the application.
    EndToEnd {
        name: "io_cost_s",
        unit: "s",
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`. No bound.
pub type PerLayer = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [PerLayer; 76] = [
    ("api.encode_s", "s", "lower"),
    ("api.decode_s", "s", "lower"),
    ("api.encode_GBps", "GB/s", "higher"),
    ("vol.write_calls", "count", "lower"),
    ("vol.issue_s", "s", "lower"),
    ("vol.write_call_s_p50", "s", "lower"),
    ("vol.write_call_s_p99", "s", "lower"),
    ("vol.read_calls", "count", "lower"),
    ("vol.read_call_s_p50", "s", "lower"),
    ("vol.read_call_s_p99", "s", "lower"),
    ("vol.wait_all_s", "s", "lower"),
    ("asyncvol.snapshot_s", "s", "lower"),
    ("asyncvol.snapshot_GBps", "GB/s", "higher"),
    ("asyncvol.snapshot_vs_memcpy", "ratio", "higher"),
    ("memcpy.fresh_GBps", "GB/s", "higher"),
    ("memcpy.warm_GBps", "GB/s", "higher"),
    ("asyncvol.bg_write_s", "s", "lower"),
    ("asyncvol.queued_max", "count", "lower"),
    ("asyncvol.retries", "count", "lower"),
    ("asyncvol.degraded_writes", "count", "lower"),
    ("asyncvol.prefetch_issue_s", "s", "lower"),
    ("asyncvol.prefetch_hits", "count", "higher"),
    ("asyncvol.prefetch_hit_frac", "ratio", "higher"),
    ("asyncvol.blocking_reads", "count", "lower"),
    ("asyncvol.first_read_s", "s", "lower"),
    ("ring.occupancy_max", "count", "lower"),
    ("ring.occupancy_mean", "count", "lower"),
    ("ring.coalesce_ratio", "ratio", "higher"),
    ("ring.roundtrip_s_p50", "s", "lower"),
    ("plan.select_runs_s", "s", "lower"),
    ("plan.plan_s", "s", "lower"),
    ("plan.runs_per_call", "count", "lower"),
    ("plan.segments_per_call", "count", "lower"),
    ("container.flush_s", "s", "lower"),
    ("container.flush_hash_GBps", "GB/s", "higher"),
    ("container.verified_extents", "count", "lower"),
    ("container.checksum_failures", "count", "lower"),
    ("container.read_amp", "ratio", "lower"),
    ("meta.create_s", "s", "lower"),
    ("meta.lock_acquisitions_per_op", "ratio", "lower"),
    ("superblock.slot_writes", "count", "lower"),
    ("backend.sync_calls", "count", "lower"),
    ("backend.sync_s", "s", "lower"),
    ("backend.write_batches", "count", "lower"),
    ("backend.write_segments", "count", "lower"),
    ("backend.segments_per_batch", "ratio", "higher"),
    ("backend.bytes_written", "count", "lower"),
    ("backend.bytes_written_per_user_byte", "ratio", "lower"),
    ("backend.write_busy_s", "s", "lower"),
    ("backend.read_calls", "count", "lower"),
    ("backend.bytes_read", "count", "lower"),
    ("backend.read_busy_s", "s", "lower"),
    ("backend.busy_frac", "ratio", "lower"),
    ("core.t_comp_s", "s", "lower"),
    ("core.t_io_s", "s", "lower"),
    ("core.t_overhead_s", "s", "lower"),
    ("core.eq2b_pred_epoch_s", "s", "lower"),
    ("core.eq2b_residual_frac", "ratio", "lower"),
    ("core.overlap_frac", "ratio", "higher"),
    ("sync_ref.epoch_s", "s", "lower"),
    ("sync_ref.visible_io_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("bench.tiling_residual_frac", "ratio", "lower"),
    ("tail.epoch_s_p90", "s", "lower"),
    ("tail.drain_s", "s", "lower"),
    ("file_bytes_per_user_byte", "ratio", "lower"),
    ("op_fail_frac", "ratio", "lower"),
    ("self.bench.api_call_s", "s", "lower"),
    ("self.bench.vol_call_s", "s", "lower"),
    ("self.bench.compute_s", "s", "lower"),
    ("self.bench.flush_s", "s", "lower"),
    ("self.bench.prefetch_issue_s", "s", "lower"),
    ("self.bench.verify_s", "s", "lower"),
    ("self.vol.snapshot_s", "s", "lower"),
    ("self.container.plan_io_s", "s", "lower"),
    ("self.backend.batch_s", "s", "lower"),
];

/// One measured value with what it was computed from.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The per-repetition values behind `value`, in run order.
    pub per_rep: Vec<f64>,
    /// Samples the per-repetition values were themselves taken over.
    pub samples: usize,
}

/// Median per-epoch visible I/O of one repetition. BD-CATS drops the
/// first epoch: its reads are cold and blocking by design, the steady
/// state is the prefetched one.
fn rep_visible_io(spec: &Spec, rep: &RepResult) -> f64 {
    let skip = usize::from(spec.shape == Shape::BdcatsRead && rep.visible_io_s.len() > 1);
    median(&rep.visible_io_s[skip..])
}

/// The end-to-end metrics of `reps`, in [`END_TO_END`] order. Each is
/// the **fastest repetition's** value (per-epoch quantities are medians
/// within a repetition). The disturbance on a shared machine is
/// one-sided — on the VM this was written on, bursts of +60% lasting
/// from a fifth of a second to a quarter of a minute — so the minimum
/// over repetitions sits in the undisturbed state, while the median
/// moves with the share of disturbed repetitions. The median is printed
/// beside it.
pub fn end_to_end(spec: &Spec, reps: &[RepResult]) -> Vec<Measured> {
    let epochs: usize = reps.iter().map(|r| r.epoch_s.len()).sum();
    let per_rep = |f: &dyn Fn(&RepResult) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let values: [(Vec<f64>, usize); END_TO_END.len()] = [
        (per_rep(&|r| r.setup_s), reps.len()),
        (per_rep(&|r| r.run_s), reps.len()),
        (per_rep(&|r| median(&r.epoch_s)), epochs),
        (per_rep(&|r| rep_visible_io(spec, r)), epochs),
        (
            per_rep(&|r| r.run_s - r.compute_s.iter().sum::<f64>()),
            reps.len(),
        ),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (per_rep, samples))| Measured {
            name: def.name,
            unit: def.unit,
            value: per_rep.iter().copied().fold(f64::INFINITY, f64::min),
            per_rep,
            samples,
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, in [`PER_LAYER`] order. `sync_ref` is the
/// NativeVol repetition of the same shape and device; a workload that
/// already runs NativeVol is its own reference.
pub fn per_layer(
    spec: &Spec,
    plain: &[RepResult],
    traced: &RepResult,
    sync_ref: Option<&RepResult>,
) -> Vec<Measured> {
    let sync_ref = sync_ref.unwrap_or(&plain[0]);
    let plain_median =
        |f: &dyn Fn(&RepResult) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let plain_epochs: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.epoch_s.iter().copied())
        .collect();
    let l = traced
        .layers
        .as_ref()
        .expect("a traced repetition carries layer samples");
    let epochs = traced.epoch_s.len() as f64;
    let nanos = |n: u64| n as f64 / 1e9;
    let pass_bytes = spec.pass_bytes() as f64;
    let asynchronous = spec.connector != Connector::Native;

    let encode_s = median(&l.api_write_s);
    let snapshot_gbps = ratio(l.vol_stats.snapshot_bytes as f64, l.vol_stats.snapshot_secs) / 1e9;
    let mean = |xs: &[f64]| ratio(xs.iter().sum(), xs.len() as f64);
    let flush_total: f64 = l.flush_s.iter().sum();
    let b = &l.backend;

    // Eq. 2 terms as measured on this machine. `t_io` is device busy
    // time per epoch; `t_overhead` is what the application thread pays
    // inside I/O calls when the connector defers (nothing when it does
    // not: the synchronous path pays `t_io` itself).
    let epoch_s = median(&traced.epoch_s);
    let t_comp = median(&traced.compute_s);
    let t_io = nanos(b.write_nanos + b.read_nanos) / epochs;
    let t_overhead = if asynchronous {
        rep_visible_io(spec, traced)
    } else {
        0.0
    };
    let predicted = if asynchronous {
        async_epoch_time(t_comp, t_io, t_overhead)
    } else {
        sync_epoch_time(t_io, t_comp)
    };
    let exposed = (epoch_s - t_comp - t_overhead).max(0.0);

    let self_s = |name: &str| {
        l.self_time
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    };
    let ops = || plain.iter().chain([traced, sync_ref]);
    let attempted: u64 = ops().map(|r| r.attempted).sum();
    let failed: u64 = ops().map(|r| r.failed).sum();

    let has_ring = !l.occupancy.is_empty();
    let values: [(&str, f64); PER_LAYER.len()] = [
        ("api.encode_s", encode_s),
        ("api.decode_s", median(&l.api_read_s)),
        (
            "api.encode_GBps",
            if l.user_bytes_written > 0 {
                ratio(pass_bytes, encode_s) / 1e9
            } else {
                0.0
            },
        ),
        ("vol.write_calls", l.vol_write_calls.len() as f64),
        ("vol.issue_s", median(&l.vol_write_s)),
        ("vol.write_call_s_p50", median(&l.vol_write_calls)),
        ("vol.write_call_s_p99", percentile(&l.vol_write_calls, 99.0)),
        ("vol.read_calls", l.vol_read_calls.len() as f64),
        ("vol.read_call_s_p50", median(&l.vol_read_calls)),
        ("vol.read_call_s_p99", percentile(&l.vol_read_calls, 99.0)),
        ("vol.wait_all_s", l.wait_all_s),
        ("asyncvol.snapshot_s", median(&l.snapshot_s)),
        ("asyncvol.snapshot_GBps", snapshot_gbps),
        (
            "asyncvol.snapshot_vs_memcpy",
            ratio(snapshot_gbps, l.setup.memcpy_fresh_gbps),
        ),
        ("memcpy.fresh_GBps", l.setup.memcpy_fresh_gbps),
        ("memcpy.warm_GBps", l.setup.memcpy_warm_gbps),
        ("asyncvol.bg_write_s", l.vol_stats.write_io_secs / epochs),
        ("asyncvol.queued_max", l.queued_max as f64),
        ("asyncvol.retries", l.vol_stats.retries as f64),
        (
            "asyncvol.degraded_writes",
            l.vol_stats.degraded_writes as f64,
        ),
        ("asyncvol.prefetch_issue_s", median(&l.prefetch_issue_s)),
        ("asyncvol.prefetch_hits", l.vol_stats.prefetch_hits as f64),
        (
            "asyncvol.prefetch_hit_frac",
            ratio(l.vol_stats.prefetch_hits as f64, l.read_calls as f64),
        ),
        ("asyncvol.blocking_reads", l.vol_stats.blocking_reads as f64),
        (
            "asyncvol.first_read_s",
            if asynchronous {
                l.vol_read_s.first().copied().unwrap_or(0.0)
            } else {
                0.0
            },
        ),
        (
            "ring.occupancy_max",
            l.occupancy.iter().copied().fold(0.0, f64::max),
        ),
        ("ring.occupancy_mean", mean(&l.occupancy)),
        (
            "ring.coalesce_ratio",
            if has_ring {
                ratio(l.vol_write_calls.len() as f64, b.write_batches as f64)
            } else {
                0.0
            },
        ),
        ("ring.roundtrip_s_p50", l.setup.ring_roundtrip_s_p50),
        ("plan.select_runs_s", l.setup.select_runs_s),
        ("plan.plan_s", l.setup.plan_s),
        ("plan.runs_per_call", l.setup.runs_per_call),
        ("plan.segments_per_call", l.setup.segments_per_call),
        ("container.flush_s", median(&l.flush_s)),
        (
            "container.flush_hash_GBps",
            ratio(l.flush_read_bytes as f64, flush_total) / 1e9,
        ),
        ("container.verified_extents", l.verified_extents as f64),
        ("container.checksum_failures", l.checksum_failures as f64),
        (
            "container.read_amp",
            ratio(
                (b.bytes_read - l.flush_read_bytes) as f64,
                l.user_bytes_read as f64,
            ),
        ),
        ("meta.create_s", l.setup.meta_create_s),
        (
            "meta.lock_acquisitions_per_op",
            ratio(l.meta_locks as f64, traced.attempted as f64),
        ),
        ("superblock.slot_writes", b.superblock_writes as f64),
        ("backend.sync_calls", b.sync_calls as f64),
        ("backend.sync_s", nanos(b.sync_nanos)),
        ("backend.write_batches", b.write_batches as f64),
        ("backend.write_segments", b.write_segments as f64),
        (
            "backend.segments_per_batch",
            ratio(b.write_segments as f64, b.write_batches as f64),
        ),
        ("backend.bytes_written", b.bytes_written as f64),
        (
            "backend.bytes_written_per_user_byte",
            ratio(b.bytes_written as f64, l.user_bytes_written as f64),
        ),
        ("backend.write_busy_s", nanos(b.write_nanos)),
        ("backend.read_calls", b.read_calls as f64),
        ("backend.bytes_read", b.bytes_read as f64),
        ("backend.read_busy_s", nanos(b.read_nanos)),
        (
            "backend.busy_frac",
            ratio(
                nanos(b.write_nanos + b.read_nanos + b.sync_nanos),
                traced.run_s,
            ),
        ),
        ("core.t_comp_s", t_comp),
        ("core.t_io_s", t_io),
        ("core.t_overhead_s", t_overhead),
        ("core.eq2b_pred_epoch_s", predicted),
        (
            "core.eq2b_residual_frac",
            ratio(epoch_s - predicted, epoch_s),
        ),
        (
            "core.overlap_frac",
            (1.0 - ratio(exposed, t_io)).clamp(0.0, 1.0),
        ),
        ("sync_ref.epoch_s", median(&sync_ref.epoch_s)),
        ("sync_ref.visible_io_s", rep_visible_io(spec, sync_ref)),
        (
            "trace.overhead_frac",
            ratio(traced.run_s, plain_median(&|r| r.run_s)) - 1.0,
        ),
        ("bench.tiling_residual_frac", l.tiling_residual_frac),
        ("tail.epoch_s_p90", percentile(&plain_epochs, 90.0)),
        ("tail.drain_s", plain_median(&|r| r.drain_s)),
        (
            "file_bytes_per_user_byte",
            ratio(plain[0].file_bytes as f64, plain[0].live_user_bytes as f64),
        ),
        ("op_fail_frac", ratio(failed as f64, attempted as f64)),
        ("self.bench.api_call_s", self_s("bench.api_call")),
        ("self.bench.vol_call_s", self_s("bench.vol_call")),
        ("self.bench.compute_s", self_s("bench.compute")),
        ("self.bench.flush_s", self_s("bench.flush")),
        (
            "self.bench.prefetch_issue_s",
            self_s("bench.prefetch_issue"),
        ),
        ("self.bench.verify_s", self_s("bench.verify")),
        ("self.vol.snapshot_s", self_s("vol.snapshot")),
        ("self.container.plan_io_s", self_s("container.plan_io")),
        (
            "self.backend.batch_s",
            self_s("backend.batch") + self_s("bench.backend_batch"),
        ),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), (computed, value))| {
            assert_eq!(name, computed, "values follow the PER_LAYER table");
            Measured {
                name,
                unit,
                value: if value.is_finite() { value } else { 0.0 },
                per_rep: Vec::new(),
                samples: 1,
            }
        })
        .collect()
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`: the driver's contract, generated from
/// the tables above so the file cannot drift from the program.
pub fn benchmark_json(workloads: &[Spec], run_seconds: u64) -> String {
    let workloads: Vec<String> = workloads
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"crates/bench/src/bin/e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"crates/bench/src/bin/e2e\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn rep(setup_s: f64, run_s: f64, epoch_s: &[f64]) -> RepResult {
        RepResult {
            setup_s,
            run_s,
            drain_s: 0.0,
            epoch_s: epoch_s.to_vec(),
            visible_io_s: epoch_s.iter().map(|e| e / 2.0).collect(),
            compute_s: epoch_s.iter().map(|e| e / 4.0).collect(),
            file_bytes: 0,
            live_user_bytes: 0,
            attempted: 1,
            failed: 0,
            layers: None,
        }
    }

    #[test]
    fn end_to_end_is_the_fastest_repetition() {
        let reps = [
            rep(0.3, 10.0, &[1.0, 2.0, 3.0]),
            rep(0.1, 30.0, &[1.0, 2.0, 9.0]),
            rep(0.2, 20.0, &[4.0, 4.0, 4.0]),
        ];
        let m = end_to_end(&WORKLOADS[0], &reps);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap();
        assert_eq!(get("setup_s").value, 0.1);
        assert_eq!(get("run_s").value, 10.0);
        assert_eq!(
            get("epoch_s").per_rep,
            [2.0, 2.0, 4.0],
            "medians within a rep"
        );
        assert_eq!(get("epoch_s").value, 2.0);
        assert_eq!(get("epoch_s").samples, 9);
        assert_eq!(get("visible_io_s").value, 1.0);
        // run_s minus the compute sleeps: 10 - 1.5, 30 - 3, 20 - 3.
        assert_eq!(get("io_cost_s").per_rep, [8.5, 27.0, 17.0]);
        // BD-CATS drops the cold first epoch.
        let m = end_to_end(&WORKLOADS[2], &[rep(0.0, 1.0, &[100.0, 2.0, 4.0])]);
        assert_eq!(m[3].value, 1.5);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars().all(ok)
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(PER_LAYER.iter().all(|m| m.1.len() <= 16
            && m.1.chars().all(unit_ok)
            && ["lower", "higher"].contains(&m.2)));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repository root is this program's own
    /// description of itself.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        let run_seconds: u64 = committed
            .split("\"run_seconds\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .expect("run_seconds is a whole number");
        assert_eq!(committed, benchmark_json(&WORKLOADS, run_seconds));
    }
}
