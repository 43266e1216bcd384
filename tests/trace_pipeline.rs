//! Trace-assertion acceptance tests (ISSUE 4).
//!
//! A VPIC-style asynchronous epoch runs against an in-memory backend with
//! one shared [`Tracer`] installed in both the connector and the
//! container, and the tests assert the *structure* of the resulting
//! trace: which spans exist, how they nest across the app and background
//! threads, and in what order the pipeline's instants fire. Timestamps
//! come from a [`VirtualClock`], so nothing here depends on wall time.

use std::sync::Arc;

use apio::asyncvol::{AsyncVol, BreakerConfig, RetryPolicy};
use apio::h5lite::ring::{Ring, RingConfig};
use apio::h5lite::{
    container::ROOT_ID, Container, Dataspace, Datatype, FaultInjector, FaultKind, FaultOp,
    FaultPlan, Hyperslab, Layout, MemBackend, ObjectId, Selection, StorageBackend, Vol,
};
use apio::kernels::vpic::particle_value;
use apio::trace::{export, Event, RecordKind, Tracer, TraceSink, VirtualClock};

const PROPS: usize = 2; // datasets ("particle properties")
const STEPS: u32 = 3; // slab writes per dataset ("timesteps")
const SLAB: u64 = 32; // elements per slab write
const N: u64 = STEPS as u64 * SLAB;

fn virtual_tracer() -> (Tracer, Arc<VirtualClock>) {
    let clock = Arc::new(VirtualClock::new(0));
    (Tracer::with_clock(clock.clone()), clock)
}

fn create_datasets(c: &Container) -> Vec<ObjectId> {
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

/// Issue the VPIC write schedule and drain the connector.
fn run_epoch(vol: &AsyncVol, c: &Arc<Container>, ids: &[ObjectId]) {
    for step in 0..STEPS {
        for (p, &ds) in ids.iter().enumerate() {
            let vals: Vec<f32> = (0..SLAB)
                .map(|i| particle_value(step, p, step as u64 * SLAB + i))
                .collect();
            let sel = Selection::Slab(Hyperslab::range1(step as u64 * SLAB, SLAB));
            let bytes = apio::h5lite::datatype::to_bytes(&vals);
            let _ = vol.dataset_write(c, ds, &sel, &bytes).expect("write");
        }
    }
    vol.wait_all().expect("drain");
}

/// One traced async VPIC epoch over a clean in-memory backend with WAL
/// staging; returns the sink.
fn traced_epoch() -> TraceSink {
    let (tracer, _clock) = virtual_tracer();
    let c = Arc::new(Container::create_mem());
    let ids = create_datasets(&c);
    c.flush().expect("flush metadata");
    c.set_tracer(tracer.clone());
    let vol = AsyncVol::builder()
        .streams(1)
        .stage_to_device(Arc::new(MemBackend::new()))
        .tracer(tracer.clone())
        .build();
    run_epoch(&vol, &c, &ids);
    tracer.sink()
}

const WRITES: usize = PROPS * STEPS as usize;

#[test]
fn async_epoch_emits_the_full_span_pipeline() {
    let sink = traced_epoch();
    assert_eq!(sink.spans("vol.write").len(), WRITES, "one submit per write");
    assert_eq!(sink.spans("vol.snapshot").len(), WRITES);
    assert_eq!(sink.spans("wal.append").len(), WRITES, "device staging logs every write");
    assert_eq!(sink.spans("vol.execute").len(), WRITES, "one background execute per write");
    assert_eq!(sink.spans("container.plan_io").len(), WRITES);
    assert!(!sink.spans("backend.batch").is_empty());
}

#[test]
fn pipeline_spans_nest_submit_snapshot_wal_and_execute_batch() {
    let sink = traced_epoch();
    // App thread: submit ⊇ snapshot ⊇ WAL append.
    for snap in sink.spans("vol.snapshot") {
        assert!(sink.within_span_named(snap, "vol.write"), "snapshot outside submit");
    }
    for wal in sink.spans("wal.append") {
        assert!(sink.within_span_named(wal, "vol.snapshot"), "WAL append outside snapshot");
        assert!(sink.within_span_named(wal, "vol.write"));
    }
    // Background thread: execute ⊇ plan ⊇ batch.
    for plan in sink.spans("container.plan_io") {
        assert!(sink.within_span_named(plan, "vol.execute"), "plan outside execute");
    }
    for batch in sink.spans("backend.batch") {
        assert!(sink.within_span_named(batch, "vol.execute"), "batch outside execute");
    }
    // The two halves run on different threads of the same trace.
    let submit_tid = sink.spans("vol.write")[0].tid;
    let exec_tid = sink.spans("vol.execute")[0].tid;
    assert_ne!(submit_tid, exec_tid, "execute happens off the app thread");
}

#[test]
fn wal_appends_carry_consecutive_log_sequence_numbers() {
    let sink = traced_epoch();
    let seqs: Vec<u64> = sink
        .spans("wal.append")
        .iter()
        .map(|r| match r.event {
            Some(Event::WalAppend { seq, .. }) => seq,
            other => panic!("wal.append span without WalAppend payload: {other:?}"),
        })
        .collect();
    let expect: Vec<u64> = (0..WRITES as u64).collect();
    assert_eq!(seqs, expect);
}

#[test]
fn chrome_export_of_the_epoch_is_loadable_and_complete() {
    let sink = traced_epoch();
    let json = export::chrome_json(sink.records());
    for name in [
        "\"name\":\"vol.write\"",
        "\"name\":\"vol.snapshot\"",
        "\"name\":\"wal.append\"",
        "\"name\":\"vol.execute\"",
        "\"name\":\"backend.batch\"",
        "\"type\":\"PlanBuilt\"",
        "\"type\":\"WalAppend\"",
    ] {
        assert!(json.contains(name), "chrome export missing {name}");
    }
    assert!(json.contains("\"ph\":\"X\""), "spans export as complete events");
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert!(json.trim_end().ends_with("]}"));
}

#[test]
fn strided_1500_run_selection_plans_once_and_sieves_into_one_span() {
    // 1500 non-adjacent runs (stride 2): one plan of 1500 segments, which
    // the issuing side folds into one sieved span — never one backend
    // call per run. The first write finds nothing on the device (its
    // read is clamped away); the second reads the span, scatters, and
    // writes it back, each a batch of one segment inside the
    // `container.sieve` span.
    let (tracer, _clock) = virtual_tracer();
    let c = Container::create_mem();
    let ds = c
        .create_dataset(
            ROOT_ID,
            "strided",
            Datatype::F32,
            &Dataspace::d1(3000),
            Layout::Contiguous,
        )
        .expect("create");
    c.set_tracer(tracer.clone());
    let sel = Selection::Slab(Hyperslab::strided(&[0], &[1500], &[2]));
    let vals = vec![1.0f32; 1500];
    for _ in 0..2 {
        c.write_selection(ds, &sel, &apio::h5lite::datatype::to_bytes(&vals))
            .expect("strided write");
    }
    let sink = tracer.sink();

    let plans = sink.events_where(|e| matches!(e, Event::PlanBuilt { .. }));
    assert_eq!(plans.len(), 2, "exactly one plan per selection");
    for plan in plans {
        let Some(Event::PlanBuilt { segments, batches, .. }) = plan.event else {
            unreachable!();
        };
        assert_eq!(segments, 1500);
        // What the plan alone would need; sieving can only lower it.
        assert_eq!(batches, 2);
    }

    let sieves = sink.spans("container.sieve");
    assert_eq!(sieves.len(), 2);
    for sieve in &sieves {
        assert_eq!(
            sieve.event,
            Some(Event::Sieve {
                segments: 1500,
                span_bytes: 2999 * 4,
                fill_bytes: 1499 * 4,
            })
        );
    }
    let batch_spans = sink.spans("backend.batch");
    let payloads: Vec<(u64, u64)> = batch_spans
        .iter()
        .map(|r| match r.event {
            Some(Event::BackendBatch { segments, bytes }) => (segments, bytes),
            other => panic!("backend.batch span without payload: {other:?}"),
        })
        .collect();
    // Write, then read + write: three batches, one span-sized segment each.
    assert_eq!(payloads, [(1, 2999 * 4); 3]);
    for batch in batch_spans {
        assert!(sink.within_span_named(batch, "container.sieve"));
    }
}

#[test]
fn a_flush_that_does_work_brackets_its_read_back_and_its_commit() {
    // Two flushes: 1 KiB dirty (the data barrier in the commit) and 4
    // MiB dirty over two extents (the barrier beside the read-back),
    // each read back in one window, then a clean one that records
    // nothing.
    let (tracer, _clock) = virtual_tracer();
    let c = Container::create_mem();
    let ids: Vec<ObjectId> = (0..2)
        .map(|i| {
            c.create_dataset(ROOT_ID, &format!("d{i}"), Datatype::U8, &Dataspace::d1(2 << 20), Layout::Contiguous)
                .expect("create")
        })
        .collect();
    c.flush().expect("flush metadata");
    c.set_tracer(tracer.clone());
    let head = Selection::Slab(Hyperslab::range1(0, 1024));
    c.write_selection(ids[0], &head, &[1u8; 1024]).expect("write");
    c.flush().expect("small flush");
    for &ds in &ids {
        c.write_selection(ds, &Selection::All, &vec![2u8; 2 << 20]).expect("write");
    }
    c.flush().expect("fan-out flush");
    c.flush().expect("clean flush");
    let sink = tracer.sink();

    let flushes = sink.spans("container.flush");
    assert_eq!(flushes.len(), 2, "a clean flush records nothing");
    let payloads: Vec<_> = sink.spans("container.flush_hash").iter().map(|r| r.event).collect();
    // The extent is the job, whatever part of it was written.
    let small = Event::FlushHash { jobs: 1, bytes: 2 << 20, reads: 1, overlapped: false };
    let fanned = Event::FlushHash { jobs: 2, bytes: 4 << 20, reads: 1, overlapped: true };
    assert_eq!(payloads, [Some(small), Some(fanned)]);
    let commits = sink.spans("container.flush_commit");
    assert_eq!(commits.len(), 2);
    for ((flush, hash), commit) in flushes.iter().zip(sink.spans("container.flush_hash")).zip(commits) {
        assert_eq!((hash.parent, commit.parent), (flush.id, flush.id));
        assert!(hash.seq < commit.seq, "the read-back closes before the commit does");
    }
}

#[test]
fn retry_attempts_nest_inside_background_execute_spans() {
    // On the ring the connector builds, and on an attached one.
    for attached in [false, true] {
        retry_attempts_nest(attached);
    }
}

fn retry_attempts_nest(attached: bool) {
    // Transient faults on the container backend: every retry happens in
    // the background stream, so every RetryAttempt instant must sit
    // inside a `vol.execute` span — none on the app thread.
    let (tracer, _clock) = virtual_tracer();
    let plan = FaultPlan::new(0x7AC3)
        .fail_at(FaultOp::Write, 1, FaultKind::Transient)
        .random(FaultOp::Write, 0.25, FaultKind::Transient);
    let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let injector = Arc::new(FaultInjector::new(inner, plan));
    injector.set_armed(false);

    let c = Arc::new(Container::create(injector.clone()));
    let ids = create_datasets(&c);
    c.flush().expect("flush");
    c.set_tracer(tracer.clone());

    let builder = AsyncVol::builder()
        .streams(1)
        .tracer(tracer.clone())
        .breaker(BreakerConfig {
            failure_threshold: u32::MAX,
            probe_after: 1,
        });
    let vol = match attached {
        true => builder.ring(Arc::new(Ring::new(injector.clone(), RingConfig::default()))),
        false => builder,
    }
    .build();
    injector.set_armed(true);
    run_epoch(&vol, &c, &ids);

    let sink = tracer.sink();
    let retries = sink.events_where(|e| matches!(e, Event::RetryAttempt { .. }));
    assert!(!retries.is_empty(), "the fault plan must force a retry");
    for r in &retries {
        assert_eq!(r.kind, RecordKind::Instant);
        assert!(
            sink.within_span_named(r, "vol.execute"),
            "retry outside a background execute span: {r:?}"
        );
    }
}

#[test]
fn breaker_opens_before_the_first_degraded_write() {
    // Persistent faults trip the breaker; the trace must show the
    // BreakerTransition to "open" strictly before the first Degrade.
    let (tracer, _clock) = virtual_tracer();
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
    c.set_tracer(tracer.clone());

    let vol = AsyncVol::builder()
        .streams(1)
        .retry(RetryPolicy::none())
        .tracer(tracer.clone())
        .breaker(BreakerConfig {
            failure_threshold: 2,
            probe_after: 2,
        })
        .build();
    injector.set_armed(true);

    for i in 0..8u64 {
        let vals: Vec<f64> = (0..8).map(|j| (i * 100 + j) as f64).collect();
        let sel = Selection::Slab(Hyperslab::range1(i * 8, 8));
        let bytes = apio::h5lite::datatype::to_bytes(&vals);
        match vol.dataset_write(&c, ds, &sel, &bytes) {
            Ok(req) if !req.is_sync() => {
                let _ = vol.wait(req);
            }
            _ => {}
        }
    }
    let _ = vol.wait_all();

    let sink = tracer.sink();
    let opens = sink.events_where(
        |e| matches!(e, Event::BreakerTransition { to: "open", .. }),
    );
    let degrades = sink.events_where(|e| matches!(e, Event::Degrade { .. }));
    assert!(!opens.is_empty(), "the breaker must trip");
    assert!(!degrades.is_empty(), "open state must degrade writes");
    assert!(
        opens[0].seq < degrades[0].seq,
        "transition to open (seq {}) must precede the first degrade (seq {})",
        opens[0].seq,
        degrades[0].seq
    );
    // Every degraded write also leaves a synchronous-write span.
    assert_eq!(sink.spans("vol.degraded_write").len(), degrades.len());
    for d in &degrades {
        assert!(sink.within_span_named(d, "vol.degraded_write"));
    }
}
