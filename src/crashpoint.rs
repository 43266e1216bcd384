//! Exhaustive crash-point exploration (DESIGN.md §13).
//!
//! The [`argolite::explore`] seeded-schedule pattern applied to
//! durability: instead of enumerating task interleavings, [`sweep`]
//! enumerates *crash instants*. A recording pass runs the workload
//! against an unlimited [`CrashClock`] to learn how many mutation
//! boundaries (each write segment is one, whatever its call's shape;
//! each sync is one) the workload generates; the sweep then re-runs the workload once per
//! boundary `k ∈ 0..=M` with persistence cut after the k-th mutation —
//! every prefix of the mutation sequence a real power cut could leave
//! behind, including `k = M` (the fault-free baseline).
//!
//! The workload closure owns the whole scenario: it wraps its backends
//! in [`CrashBackend`]s sharing the given clock, drives the stack, then
//! reopens the *inner* backends (what actually persisted), recovers,
//! and checks its durability invariants — returning `Err` with the
//! violation text if acked data was lost, the metadata plane is
//! unreadable, or a scrub is not clean. The sweep stops at the first
//! failing cut and reports it with everything needed to reproduce
//! (re-run the same deterministic workload with `cut_after(k)`).

use std::sync::Arc;

pub use h5lite::{CrashBackend, CrashClock};

/// A crash point that violated a durability invariant, with everything
/// needed to reproduce it (the sweep is deterministic: re-run the same
/// workload with `CrashClock::cut_after(cut_after)`).
#[derive(Debug)]
pub struct CrashFailure {
    /// Mutation budget of the failing run; `None` means the fault-free
    /// *recording* pass itself failed (the workload is broken before
    /// any crash is injected).
    pub cut_after: Option<u64>,
    /// The invariant violation text returned by the workload.
    pub message: String,
}

impl std::fmt::Display for CrashFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cut_after {
            Some(k) => write!(
                f,
                "crash-point sweep failed (persistence cut after mutation {k}): {}",
                self.message
            ),
            None => write!(
                f,
                "crash-point sweep failed in the fault-free recording pass: {}",
                self.message
            ),
        }
    }
}

/// Outcome of a crash-point sweep.
#[derive(Debug)]
pub struct CrashSweepReport {
    /// Mutation boundaries the recording pass observed — the sweep ran
    /// one crash per boundary, `0..=boundaries`.
    pub boundaries: u64,
    /// Workload runs executed: the recording pass plus one per
    /// enumerated cut (stops early on the first failure).
    pub runs: u64,
    /// The first failing crash point, if any.
    pub failure: Option<CrashFailure>,
}

impl CrashSweepReport {
    /// Whether every enumerated crash point upheld every invariant.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Enumerate every crash point of a deterministic workload.
///
/// `run` receives a fresh [`CrashClock`] per invocation, builds its
/// scenario on [`CrashBackend`]s sharing that clock, drives it, then
/// recovers from the inner backends and checks its durability
/// invariants, returning `Err(message)` on a violation. The first call
/// records the boundary count on an unlimited clock; each subsequent
/// call crashes at one boundary. Stops at the first failure.
pub fn sweep(mut run: impl FnMut(&Arc<CrashClock>) -> Result<(), String>) -> CrashSweepReport {
    let clock = CrashClock::unlimited();
    let mut report = CrashSweepReport {
        boundaries: 0,
        runs: 1,
        failure: None,
    };
    if let Err(message) = run(&clock) {
        report.failure = Some(CrashFailure {
            cut_after: None,
            message,
        });
        return report;
    }
    report.boundaries = clock.mutations();
    for k in 0..=report.boundaries {
        let clock = CrashClock::cut_after(k);
        report.runs += 1;
        if let Err(message) = run(&clock) {
            report.failure = Some(CrashFailure {
                cut_after: Some(k),
                message,
            });
            break;
        }
    }
    report
}

/// [`sweep`] with torn boundary writes: every crash point is explored
/// once per entry of `prefixes`, with the boundary mutation applying
/// only its first `prefix` bytes before the cut (see
/// [`CrashClock::cut_torn`]). This is the harsher power-cut model —
/// the clean sweep leaves every prefix of the mutation *sequence*, the
/// torn sweep additionally chops the last in-flight write mid-sector —
/// and is what proves recovery disowns partial bytes instead of merely
/// missing absent ones (e.g. a metadata extent whose first half landed:
/// the superblock checksum must reject it and reopen must fall back to
/// the previous generation, whole, on every shard).
pub fn sweep_torn(
    prefixes: &[u64],
    mut run: impl FnMut(&Arc<CrashClock>) -> Result<(), String>,
) -> CrashSweepReport {
    let clock = CrashClock::unlimited();
    let mut report = CrashSweepReport {
        boundaries: 0,
        runs: 1,
        failure: None,
    };
    if let Err(message) = run(&clock) {
        report.failure = Some(CrashFailure {
            cut_after: None,
            message,
        });
        return report;
    }
    report.boundaries = clock.mutations();
    'cuts: for k in 0..report.boundaries {
        for &prefix in prefixes {
            let clock = CrashClock::cut_torn(k, prefix);
            report.runs += 1;
            if let Err(message) = run(&clock) {
                report.failure = Some(CrashFailure {
                    cut_after: Some(k),
                    message: format!("torn boundary (first {prefix} byte(s) landed): {message}"),
                });
                break 'cuts;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use h5lite::{MemBackend, StorageBackend};

    /// A toy journaling workload: write a record, then "commit" it with
    /// a sync. The durability invariant: the inner device must hold a
    /// clean prefix of the committed records.
    fn journal_run(clock: &Arc<CrashClock>) -> Result<(), String> {
        let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let dev = CrashBackend::new(inner.clone(), clock.clone());
        let mut committed = 0u64;
        for i in 0..4u64 {
            if dev.write_at(i * 8, &(i + 1).to_le_bytes()).is_err() {
                break;
            }
            if dev.sync().is_err() {
                break;
            }
            committed = i + 1;
        }
        // Crash: reopen the inner device. Every committed record must
        // read back intact.
        for i in 0..committed {
            let mut buf = [0u8; 8];
            inner
                .read_at(i * 8, &mut buf)
                .map_err(|e| format!("committed record {i} unreadable: {e}"))?;
            if u64::from_le_bytes(buf) != i + 1 {
                return Err(format!("committed record {i} lost"));
            }
        }
        Ok(())
    }

    #[test]
    fn sweep_enumerates_every_boundary_of_a_sound_workload() {
        let report = sweep(journal_run);
        assert!(report.ok(), "{:?}", report.failure);
        // 4 records × (write + sync) = 8 boundaries; recording pass +
        // one run per k in 0..=8.
        assert_eq!(report.boundaries, 8);
        assert_eq!(report.runs, 10);
    }

    #[test]
    fn torn_sweep_passes_a_sound_journal_and_multiplies_runs() {
        let report = sweep_torn(&[1, 4, 7], journal_run);
        assert!(report.ok(), "{:?}", report.failure);
        assert_eq!(report.boundaries, 8);
        // Recording pass + 3 torn prefixes per boundary.
        assert_eq!(report.runs, 1 + 3 * 8);
    }

    #[test]
    fn torn_sweep_catches_a_workload_trusting_unacked_bytes() {
        // Bug: the workload decides what's committed by reading the
        // device back instead of trusting only acked syncs. A clean cut
        // cannot expose it (the device holds whole records or nothing);
        // a torn boundary leaves a half-written record that the naive
        // read-back mistakes for a commit.
        let report = sweep_torn(&[4], |clock| {
            let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            // Pre-size the device (not a crash-gated mutation) so the
            // recovery read-back below sees torn bytes, not EOF.
            inner.write_at(0, &[0u8; 16]).map_err(|e| e.to_string())?;
            let dev = CrashBackend::new(inner.clone(), clock.clone());
            for i in 0..2u64 {
                if dev.write_at(i * 8, &u64::MAX.to_le_bytes()).is_err() {
                    break;
                }
                if dev.sync().is_err() {
                    break;
                }
            }
            // "Recovery": any nonzero record is treated as committed.
            for i in 0..2u64 {
                let mut buf = [0u8; 8];
                let _ = inner.read_at(i * 8, &mut buf);
                let v = u64::from_le_bytes(buf);
                if v != 0 && v != u64::MAX {
                    return Err(format!("record {i} recovered torn: {v:#x}"));
                }
            }
            Ok(())
        });
        let failure = report.failure.expect("torn boundary must be caught");
        assert!(failure.to_string().contains("torn"));
    }

    #[test]
    fn recording_pass_failure_is_reported_without_a_cut() {
        let report = sweep(|_| Err("workload broken".into()));
        assert_eq!(report.runs, 1);
        let failure = report.failure.expect("must fail");
        assert_eq!(failure.cut_after, None);
        assert!(failure.to_string().contains("recording pass"));
    }

    #[test]
    fn a_durability_violation_is_pinned_to_its_cut() {
        // Bug: the workload ignores write errors and acks anyway. The
        // fault-free recording pass cannot see it; the sweep pins it to
        // the first cut that refuses an acked write.
        let report = sweep(|clock| {
            let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            let dev = CrashBackend::new(inner.clone(), clock.clone());
            let mut acked: Vec<u64> = Vec::new();
            for i in 0..2u64 {
                let _ = dev.write_at(i * 8, &(i + 1).to_le_bytes()); // bug: error ignored
                acked.push(i);
            }
            for &i in &acked {
                let mut buf = [0u8; 8];
                if inner.read_at(i * 8, &mut buf).is_err() || u64::from_le_bytes(buf) != i + 1 {
                    return Err(format!("acked record {i} lost"));
                }
            }
            Ok(())
        });
        let failure = report
            .failure
            .expect("the ignored write error must be caught");
        assert_eq!(failure.cut_after, Some(0));
        assert!(failure.to_string().contains("lost"));
    }
}
