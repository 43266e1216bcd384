//! Chaos acceptance tests for the resilience layer (ISSUE 2, ISSUE 7).
//!
//! Scenario 1 enumerates *every* crash point of the device-staged write
//! path: [`apio::crashpoint::sweep`] cuts persistence of the staging
//! device after the k-th mutation, for each WAL frame boundary k (frame
//! appends and applied-flag updates), then reopens the container,
//! recovers, and demands every acknowledged write read back
//! byte-identical to the model while a post-recovery scrub comes back
//! clean. A companion scenario pins the torn-tail truncation and audits
//! it through the flight recorder and the operator report.
//!
//! Scenario 2 runs the connector into a bounded window of persistent
//! faults and demands the circuit breaker degrade to synchronous
//! passthrough without losing a single acknowledged write, then recover
//! to async mode once the device heals.

use std::sync::Arc;

use apio::asyncvol::{AsyncVol, BreakerConfig, BreakerState, RetryPolicy, StagingLog};
use apio::h5lite::{
    container::ROOT_ID, Container, Dataspace, Datatype, FaultInjector, FaultKind, FaultOp,
    FaultPlan, Hyperslab, Layout, MemBackend, Selection, StorageBackend, Vol,
};
use apio::kernels::vpic::particle_value;
use apio::trace::{export, Event, Tracer};

const PROPS: usize = 3; // datasets ("particle properties")
const STEPS: u32 = 4; // slab writes per dataset ("timesteps")
const SLAB: u64 = 64; // elements per slab write
const N: u64 = STEPS as u64 * SLAB; // elements per dataset

fn slab_values(step: u32, prop: usize) -> Vec<f32> {
    (0..SLAB)
        .map(|i| particle_value(step, prop, step as u64 * SLAB + i))
        .collect()
}

/// Create the VPIC-style datasets and return their ids.
fn create_datasets(c: &Container) -> Vec<apio::h5lite::ObjectId> {
    (0..PROPS)
        .map(|p| {
            c.create_dataset(
                ROOT_ID,
                &format!("prop{p}"),
                Datatype::F32,
                &Dataspace::d1(N),
                Layout::Contiguous,
            )
            .expect("create dataset")
        })
        .collect()
}

/// Issue the full write schedule through `vol`, in deterministic order.
/// Returns the per-write results (acknowledged == `Ok`).
fn issue_schedule(
    vol: &AsyncVol,
    c: &Arc<Container>,
    ids: &[apio::h5lite::ObjectId],
) -> Vec<apio::h5lite::Result<apio::h5lite::Request>> {
    let mut results = Vec::new();
    for step in 0..STEPS {
        for (p, &ds) in ids.iter().enumerate() {
            let sel = Selection::Slab(Hyperslab::range1(step as u64 * SLAB, SLAB));
            let bytes = apio::h5lite::datatype::to_bytes(&slab_values(step, p));
            results.push(vol.dataset_write(c, ds, &sel, &bytes));
        }
    }
    results
}

/// The fault-free reference: same schedule, clean backend, same config.
fn fault_free_contents() -> Vec<Vec<u8>> {
    let c = Arc::new(Container::create_mem());
    let ids = create_datasets(&c);
    c.flush().expect("flush metadata");
    let vol = AsyncVol::builder()
        .streams(1)
        .stage_to_device(Arc::new(MemBackend::new()))
        .build();
    for r in issue_schedule(&vol, &c, &ids) {
        let _ = r.expect("fault-free write");
    }
    vol.wait_all().expect("fault-free drain");
    ids.iter()
        .map(|&ds| c.read_selection(ds, &Selection::All).expect("read"))
        .collect()
}

#[test]
fn crash_at_every_wal_frame_boundary_recovers_every_acked_write() {
    let report = apio::crashpoint::sweep(|clock| {
        // The container lives on a plain backend with its metadata plane
        // flushed before the chaos window opens; only the staging device
        // sits behind the persistence cut, so every WAL frame append and
        // applied-flag update is one enumerated crash boundary.
        let c_backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Arc::new(Container::create(c_backend.clone()));
        let ids = create_datasets(&c);
        c.flush().map_err(|e| format!("setup flush: {e}"))?;

        let wal_inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let device: Arc<dyn StorageBackend> = Arc::new(apio::crashpoint::CrashBackend::new(
            wal_inner.clone(),
            clock.clone(),
        ));
        let vol = AsyncVol::builder()
            .streams(1)
            .stage_to_device(device)
            .retry(RetryPolicy::none())
            // The sweep studies WAL durability, not degradation: a dead
            // staging device must keep refusing issues, not reroute them
            // around the log.
            .breaker(BreakerConfig {
                failure_threshold: u32::MAX,
                probe_after: 4,
            })
            .build();

        // An issue is acknowledged once its frame is durable in the WAL.
        // The cut is monotone, so the acked set is a prefix of the
        // deterministic schedule.
        let acked: Vec<bool> = issue_schedule(&vol, &c, &ids)
            .into_iter()
            .map(|r| r.is_ok())
            .collect();
        let _ = vol.wait_all(); // post-cut flag updates may fail: benign
        drop(vol); // crash
        drop(c);

        // The power cut also leaves a partial in-flight frame: garbage
        // lands past the last durable byte.
        let end = wal_inner.len();
        wal_inner
            .write_at(end, &[0xDE, 0xAD, 0xBE, 0xEF])
            .map_err(|e| format!("tear the tail: {e}"))?;

        // Reboot: the metadata plane must reopen, and recovery + scrub
        // must rebuild the container from the surviving WAL prefix.
        let c2 =
            Arc::new(Container::open(c_backend).map_err(|e| format!("reopen after crash: {e}"))?);
        let vol2 = AsyncVol::builder().stage_to_device(wal_inner).build();
        let rec = vol2
            .recover_and_scrub(&c2)
            .map_err(|e| format!("recovery: {e}"))?;
        if rec.scrub_repaired < rec.scrub_corrupt {
            return Err(format!("recovery scrub left corruption behind: {rec:?}"));
        }

        // Byte-identical recovery: acked slabs hold exactly their
        // payload, unacked slabs hold zeros — never garbage.
        let mut expect = vec![vec![0.0f32; N as usize]; PROPS];
        for step in 0..STEPS {
            for p in 0..PROPS {
                if acked[step as usize * PROPS + p] {
                    let at = (step as u64 * SLAB) as usize;
                    expect[p][at..at + SLAB as usize].copy_from_slice(&slab_values(step, p));
                }
            }
        }
        for (p, want) in expect.iter().enumerate() {
            let ds = c2
                .lookup(ROOT_ID, &format!("prop{p}"))
                .map_err(|e| format!("metadata plane lost prop{p}: {e}"))?;
            let got = c2
                .read_selection(ds, &Selection::All)
                .map_err(|e| format!("read back prop{p}: {e}"))?;
            if got != apio::h5lite::datatype::to_bytes(want) {
                return Err(format!("prop{p} is not byte-identical to the acked model"));
            }
        }

        // The recovered container must also checksum clean at rest.
        c2.flush().map_err(|e| format!("post-recovery flush: {e}"))?;
        let scrub = c2.scrub().map_err(|e| format!("post-recovery scrub: {e}"))?;
        if scrub.corrupt > 0 {
            return Err(format!("post-recovery scrub found corruption: {scrub:?}"));
        }
        Ok(())
    });

    assert!(report.ok(), "{}", report.failure.expect("failure"));
    // Every frame append is at least one boundary, and the sweep ran the
    // recording pass plus one run per cut in 0..=boundaries.
    let frames = STEPS as u64 * PROPS as u64;
    assert!(
        report.boundaries >= frames,
        "{} boundaries cannot cover {frames} WAL frames",
        report.boundaries
    );
    assert_eq!(report.runs, report.boundaries + 2);

    // The sweep outcome is operator-visible through the report schema.
    let json = apio::model::ReportBuilder::new("chaos: crash-point sweep")
        .integrity(apio::model::IntegritySummary {
            crash_points: report.boundaries + 1,
            crash_failures: 0,
            ..Default::default()
        })
        .render_json();
    assert!(json.contains(&format!("\"crash_points\":{}", report.boundaries + 1)));
    assert!(json.contains("\"crash_failures\":0"));
}

/// The single-point companion to the sweep: a torn in-flight frame is
/// truncated by recovery, and the evidence survives the black-box
/// telemetry — one `wal.replay` per staged record, one `WalTruncated`
/// at the end of the valid prefix, and the operator report's recovery
/// section, all cross-checked against the [`RecoveryReport`].
#[test]
fn torn_wal_tail_is_truncated_and_audited_in_the_flight_recorder() {
    let reference = fault_free_contents();
    let c = Arc::new(Container::create_mem());
    let ids = create_datasets(&c);
    c.flush().expect("metadata durable before the crash");

    // Stage the schedule straight into the log (no connector): every
    // record durable, none applied — the worst honest crash.
    let device: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let log = StagingLog::open(device.clone());
    let mut staged = 0u64;
    for step in 0..STEPS {
        for (p, &ds) in ids.iter().enumerate() {
            let sel = Selection::Slab(Hyperslab::range1(step as u64 * SLAB, SLAB));
            let bytes = apio::h5lite::datatype::to_bytes(&slab_values(step, p));
            log.append(ds, &sel, &bytes).expect("append");
            staged += 1;
        }
    }
    drop(log);

    // A crash mid-append leaves a partial frame after the last valid
    // record. Recovery must truncate it — and say so.
    let valid_end = device.len();
    device
        .write_at(valid_end, &[0xDE, 0xAD, 0xBE, 0xEF])
        .expect("tear the tail");

    // Recovery runs under the always-on flight recorder (not full
    // tracing): the black-box ring must be enough to audit a replay.
    let tracer = Tracer::flight(4096);
    let vol = AsyncVol::builder()
        .stage_to_device(device)
        .tracer(tracer.clone())
        .build();
    let report = vol.recover_and_scrub(&c).expect("recovery");
    assert_eq!(report.replayed, staged, "every staged record replays");
    assert!(report.bytes_replayed > 0);
    assert_eq!(report.orphaned, 0, "every record targets a live dataset");

    // The recovery trace mirrors the report: one `wal.replay` span per
    // replayed record (all inside the `wal.recover` span), and exactly
    // one torn-tail truncation at the end of the valid prefix.
    let sink = tracer.sink();
    let replays = sink.spans("wal.replay");
    assert_eq!(replays.len() as u64, report.replayed);
    let mut replay_bytes = 0u64;
    for r in &replays {
        assert!(sink.within_span_named(r, "wal.recover"));
        let Some(Event::WalReplay { bytes, .. }) = r.event else {
            panic!("wal.replay span without WalReplay payload");
        };
        replay_bytes += bytes;
    }
    assert_eq!(replay_bytes, report.bytes_replayed);
    let torn = sink.events_where(|e| matches!(e, Event::WalTruncated { .. }));
    assert_eq!(torn.len(), 1, "exactly one torn-tail truncation event");
    let Some(Event::WalTruncated { offset }) = torn[0].event else {
        unreachable!("filtered above");
    };
    assert_eq!(offset, valid_end, "truncation lands at the valid prefix end");

    for (p, &ds) in ids.iter().enumerate() {
        let got = c.read_selection(ds, &Selection::All).expect("read back");
        assert_eq!(
            got, reference[p],
            "dataset prop{p} must be byte-identical to the fault-free run"
        );
    }

    // The same evidence must survive into the black-box telemetry and
    // the operator report JSON.
    assert_eq!(sink.dropped(), 0, "4096/shard must retain the whole recovery");
    let jsonl = export::jsonl(sink.records());
    let replay_lines = jsonl
        .lines()
        .filter(|l| l.contains("\"type\":\"WalReplay\""))
        .count();
    assert_eq!(replay_lines as u64, report.replayed);
    assert_eq!(
        jsonl.matches("\"type\":\"WalTruncated\"").count(),
        1,
        "the one torn-tail truncation shows up in the dump"
    );

    let json = apio::model::ReportBuilder::new("chaos: crash recovery")
        .metrics(vol.metrics())
        .recovery(apio::model::RecoverySummary {
            scanned: report.scanned,
            replayed: report.replayed,
            bytes_replayed: report.bytes_replayed,
            orphaned: report.orphaned,
            already_applied: report.already_applied,
        })
        .trace(&sink)
        .render_json();
    assert!(json.contains("\"schema\":\"apio-report-v1\""));
    assert!(json.contains(&format!("\"replayed\":{}", report.replayed)));
    assert!(json.contains(&format!("\"bytes_replayed\":{}", report.bytes_replayed)));
    assert!(json.contains("\"orphaned\":0"));
    assert!(json.contains(&format!("\"recorded\":{}", sink.records().len())));

    // Recovery is idempotent: a second replay finds everything applied.
    let again = vol.recover_staging(&c).expect("second recovery");
    assert_eq!(again.replayed, 0);
    assert_eq!(again.already_applied, report.scanned);
}

#[test]
fn persistent_faults_degrade_to_sync_without_losing_acknowledged_writes() {
    // The device fails persistently for a bounded window of 4 writes,
    // then heals. threshold=2 / probe_after=2 walks the breaker through
    // Closed → Open → (degraded, probe fails) → Open → degraded → probe
    // succeeds → Closed within a handful of issues.
    let plan = FaultPlan::new(0xB4EA4E4)
        .fail_after(FaultOp::Write, 0, FaultKind::Persistent)
        .times(4);
    let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let injector = Arc::new(FaultInjector::new(inner, plan));
    injector.set_armed(false);

    let c = Arc::new(Container::create(injector.clone()));
    let ds = c
        .create_dataset(
            ROOT_ID,
            "x",
            Datatype::F64,
            &Dataspace::d1(64),
            Layout::Contiguous,
        )
        .expect("create");
    c.flush().expect("flush");

    // The degrade/recover walk happens under the always-on flight
    // recorder, so the transition evidence must survive into its ring.
    let tracer = Tracer::flight(1024);
    let vol = AsyncVol::builder()
        .streams(1)
        .retry(RetryPolicy::none())
        .breaker(BreakerConfig {
            failure_threshold: 2,
            probe_after: 2,
        })
        .tracer(tracer.clone())
        .build();
    injector.set_armed(true);

    // One 8-element slab per issue, each with a distinct fingerprint;
    // wait per request so breaker transitions happen deterministically
    // between issues. An issue is "acknowledged" only if both the issue
    // and its wait succeed.
    let mut acked: Vec<(u64, Vec<f64>)> = Vec::new();
    let mut saw_degraded_ack = false;
    for i in 0..8u64 {
        let start = i * 8;
        let vals: Vec<f64> = (0..8).map(|j| (i * 100 + j) as f64).collect();
        let sel = Selection::Slab(Hyperslab::range1(start, 8));
        let bytes = apio::h5lite::datatype::to_bytes(&vals);
        match vol.dataset_write(&c, ds, &sel, &bytes) {
            Ok(req) => {
                let synchronous = req.is_sync();
                if !synchronous {
                    if vol.wait(req).is_err() {
                        continue; // async failure: reported, not acked
                    }
                } else {
                    saw_degraded_ack = true;
                }
                acked.push((start, vals));
            }
            Err(_) => {
                // Degraded synchronous write against the dead device:
                // the failure is returned immediately, nothing is acked.
            }
        }
    }

    let stats = vol.stats();
    assert!(stats.breaker_opens >= 1, "the breaker must trip: {stats:?}");
    assert!(
        stats.degraded_writes >= 1 && saw_degraded_ack,
        "the healed device must serve degraded writes: {stats:?}"
    );
    assert!(stats.probes >= 1, "open state must probe: {stats:?}");
    assert!(
        stats.breaker_closes >= 1,
        "a clean probe must restore async mode: {stats:?}"
    );
    assert_eq!(
        vol.breaker_state(),
        BreakerState::Closed,
        "the connector must fully recover"
    );
    assert!(!vol.stats().degraded);
    assert!(
        acked.len() >= 3,
        "post-window writes must succeed: {} acked",
        acked.len()
    );

    vol.wait_all().expect("no unreported failures remain");
    for (start, vals) in &acked {
        let sel = Selection::Slab(Hyperslab::range1(*start, 8));
        let got = c.read_selection(ds, &sel).expect("read acked slab");
        let got: Vec<f64> = apio::h5lite::datatype::from_bytes(&got).expect("decode");
        assert_eq!(&got, vals, "acknowledged slab at {start} must be intact");
    }

    // The full degrade → probe → recover walk is visible in the flight
    // dump, transition-for-transition against the stats counters, and
    // the operator report JSON agrees with the same registry.
    let stats = vol.stats();
    let sink = tracer.sink();
    let jsonl = export::jsonl(sink.records());
    assert!(
        jsonl.contains("\"type\":\"BreakerTransition\",\"from\":\"closed\",\"to\":\"open\""),
        "the trip must be in the ring"
    );
    assert!(
        jsonl.contains("\"from\":\"half-open\",\"to\":\"closed\""),
        "the recovery must be in the ring"
    );
    assert_eq!(
        jsonl.matches("\"to\":\"open\"").count() as u64,
        stats.breaker_opens,
        "one BreakerTransition-to-open per counted open"
    );
    assert_eq!(
        jsonl.matches("\"to\":\"closed\"").count() as u64,
        stats.breaker_closes
    );

    let json = apio::model::ReportBuilder::new("chaos: breaker degrade/recover")
        .metrics(vol.metrics())
        .breaker("closed", stats.degraded)
        .trace(&sink)
        .render_json();
    assert!(json.contains("\"breaker\":{\"state\":\"closed\",\"degraded\":false}"));
    assert!(json.contains(&format!(
        "\"name\":\"vol.breaker_opens\",\"value\":{}",
        stats.breaker_opens
    )));
    assert!(json.contains(&format!(
        "\"name\":\"vol.breaker_closes\",\"value\":{}",
        stats.breaker_closes
    )));
    assert!(json.contains(&format!(
        "\"name\":\"vol.degraded_writes\",\"value\":{}",
        stats.degraded_writes
    )));
    assert!(json.contains(&format!("\"name\":\"vol.probes\",\"value\":{}", stats.probes)));
}
