//! End-to-end telemetry loop: simulated job → drift alarm → refit → flip.
//!
//! The acceptance scenario for the live-telemetry subsystem: an mpisim
//! epoch run on Cori-Haswell whose file-system rate is stepped down 20x
//! mid-run (a §V-C contention regime change) must
//!
//! 1. fire a drift alarm on the aggregate I/O-rate series,
//! 2. make the adaptive runtime discard the stale history and refit, and
//! 3. flip the advisor's decision from sync to async,
//!
//! with the outcome asserted **from the operator report JSON alone** —
//! the same artifact `apio-report --json` emits — not from internal
//! state.
//!
//! The workload is sized so the paper's Eq. 2a/2b ordering
//! `t_io_fast < t_over < 2·t_comp < t_io_slow` holds: on the uncontended
//! file system a blocking write beats paying the NVMe snapshot overhead
//! (sync wins), while on the contended one the overlap is worth it
//! (async wins). Peak-rate fitting alone can never flip the decision —
//! it keeps the fast-regime peaks forever — so the flip proves the
//! alarm-driven truncation actually ran.

use apio::model::history::{Direction, IoMode};
use apio::model::{AdaptiveRuntime, DriftAlarm, Observation, ReportBuilder};
use apio::mpisim::workload::StagingTier;
use apio::mpisim::{run, Job, RunConfig, Workload};
use apio::platform;

/// Rank counts cycled per epoch — all on one Cori node (32 ranks/node),
/// so the aggregate rate stays level across the cycle while the fits
/// still see three distinct (ranks, size) configurations.
const RANK_CYCLE: [u32; 3] = [8, 16, 32];
/// Bytes written per rank each epoch.
const PER_RANK_BYTES: u64 = 8 << 20;
/// Compute phase per epoch, seconds.
const COMPUTE_SECS: f64 = 0.25;
/// Server-side capacity factor before the step (uncontended).
const FAST: f64 = 1.0;
/// Capacity factor after the step. The factor scales the *server* term
/// of `min(client, server·contention)`, and Cori's stripe capacity is
/// ~93.6 GB/s against a ~2.9 GB/s single-node client term — so it must
/// be deep enough to pull the server term below the client term:
/// 0.0015 leaves ~0.14 GB/s, a ~20x slowdown (ln 20 ≈ 3.0 on the
/// detector's log-rate statistic).
const SLOW: f64 = 0.0015;

/// Application epoch `i`: run a one-epoch mpisim checkpoint both ways
/// (blocking sync for the transfer evidence, NVMe-staged async for the
/// snapshot-overhead evidence) and stream the measures into the runtime.
fn run_epoch(rt: &mut AdaptiveRuntime, i: usize, contention: f64) -> Option<DriftAlarm> {
    let ranks = RANK_CYCLE[i % 3];
    let job = Job::new(platform::cori_haswell(), ranks);
    let w = Workload::checkpoint(ranks, PER_RANK_BYTES, 1, COMPUTE_SECS);

    let sync = run(&job, &w, &RunConfig::sync().with_contention(contention));
    let ovl = run(
        &job,
        &w,
        &RunConfig::async_io()
            .with_staging(StagingTier::Nvme)
            .with_contention(contention),
    );
    let total_bytes = sync.phase_bytes as f64;
    let p = sync.phases[0];
    rt.observe(Observation::Compute { secs: p.t_comp });
    rt.observe(Observation::Transfer {
        mode: IoMode::Sync,
        direction: Direction::Write,
        total_bytes,
        ranks,
        secs: p.visible_io_secs,
    });
    rt.observe(Observation::SnapshotOverhead {
        direction: Direction::Write,
        total_bytes,
        ranks,
        secs: ovl.phases[0].overhead_secs,
    });
    rt.end_epoch()
}

/// Pull the integer that follows `"key":` out of a flat JSON string.
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle).unwrap_or_else(|| {
        panic!("report JSON missing {needle}: {json}");
    });
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("no integer after {needle}"))
}

#[test]
fn midrun_rate_step_flips_advice_in_report_json() {
    let mut rt = AdaptiveRuntime::new();
    let mut epochs = 0..;

    // Fast regime: past the detector's 5-epoch warmup, with every
    // (ranks, size) configuration seen three times. Stationary, so no
    // alarm may fire.
    for i in epochs.by_ref().take(9) {
        assert!(
            run_epoch(&mut rt, i, FAST).is_none(),
            "false alarm on the stationary fast regime"
        );
    }
    let probe_bytes = RANK_CYCLE[2] as f64 * PER_RANK_BYTES as f64;
    let before = rt
        .advise(Direction::Write, probe_bytes, RANK_CYCLE[2])
        .expect("fast-regime history fits both models");

    // The regime change: server-side contention caps the job ~20x
    // below its uncontended rate mid-run.
    let mut alarm_epochs = None;
    for (k, i) in epochs.by_ref().take(12).enumerate() {
        if run_epoch(&mut rt, i, SLOW).is_some() {
            alarm_epochs = Some(k + 1);
            break;
        }
    }
    let fired = alarm_epochs.expect("drift alarm fires after the 20x step");
    assert!(fired <= 4, "alarm took {fired} epochs, expected <= 4");

    // Fresh post-drift evidence so the refit sees all three
    // configurations again, then the post-step probe.
    for i in epochs.take(3) {
        run_epoch(&mut rt, i, SLOW);
    }
    let after = rt
        .advise(Direction::Write, probe_bytes, RANK_CYCLE[2])
        .expect("post-drift history fits both models");

    let json = ReportBuilder::new("telemetry e2e")
        .drift(&rt)
        .advice("pre-step", before)
        .advice("post-step", after)
        .render_json();

    // Everything below is asserted from the report JSON alone.
    assert!(json.contains("\"schema\":\"apio-report-v1\""), "{json}");
    assert!(
        json.contains("\"label\":\"pre-step\",\"decision\":\"sync\""),
        "pre-step advice must be sync: {json}"
    );
    assert!(
        json.contains("\"label\":\"post-step\",\"decision\":\"async\""),
        "post-step advice must flip to async: {json}"
    );
    assert!(
        json.contains("\"alarms\":[{\"epoch\":"),
        "report must carry the drift alarm: {json}"
    );
    assert!(
        json.contains("\"direction\":\"down\""),
        "a rate drop must alarm downward: {json}"
    );
    assert!(
        json_u64(&json, "refits") >= 1,
        "advisor must have refitted at least once: {json}"
    );
    // The alarm's own numbers must describe a collapse: the epoch rate
    // the detector saw sits far below the mean it was measured against.
    let alarm = &rt.drift_alarms()[0];
    assert!(alarm.observed_rate < 0.5 * alarm.mean_rate);
}
