//! Cross-crate integration: the real engine, the connector, the kernels,
//! and the model working together.

use std::sync::Arc;

use apio::asyncvol::AsyncVol;
use apio::h5lite::{
    Container, Dataspace, FaultInjector, FaultKind, FaultOp, FaultPlan, File, MemBackend,
    ThrottledBackend,
};
use apio::kernels::vpic::{self, PROPERTIES};
use apio::kernels::{make_file, run_real};
use apio::model::history::{Direction, IoMode};
use apio::model::AdaptiveRuntime;
use apio::mpisim::{run, Job, RunConfig, Workload};
use apio::platform::summit;

/// 4 ranks × 4 Ki particles (8 `f32` properties each) × 3 checkpoints.
fn small() -> Workload {
    Workload::checkpoint(4, (1 << 12) * 32, 3, 0.01)
}

/// Opens a container through a connector: the file, and the async
/// handle [`run_real`] takes as its mode.
type Open = fn(Arc<Container>) -> (File, Option<Arc<AsyncVol>>);

/// The write stacks: native, the task transport built by hand, and the
/// one-shard ring `make_file` builds for async.
fn writers() -> [(&'static str, Open); 3] {
    [
        ("native", |c| make_file(c, IoMode::Sync)),
        ("tasks", |c| {
            let vol = Arc::new(AsyncVol::new());
            (File::from_parts(c, vol.clone()), Some(vol))
        }),
        ("ring", |c| make_file(c, IoMode::Async)),
    ]
}

/// `w` with its I/O phases read instead of written.
fn reading(w: &Workload) -> Workload {
    Workload {
        direction: Direction::Read,
        ..w.clone()
    }
}

#[test]
fn write_with_async_vol_read_with_native_vol() {
    // Data written through the async connector must be readable through
    // the native one (they share the container format).
    let w = small();
    let (source, vol) = make_file(Arc::new(Container::create_mem()), IoMode::Async);
    run_real(&source, vol.as_deref(), &w).unwrap();
    vpic::verify(&source, &w).unwrap();
    // And the read direction in sync mode sees it too.
    let (file, vol) = make_file(source.container().clone(), IoMode::Sync);
    run_real(&file, vol.as_deref(), &reading(&w)).unwrap();
}

#[test]
fn full_pipeline_write_then_clustered_read_with_prefetch() {
    let w = small();
    let (source, vol) = make_file(Arc::new(Container::create_mem()), IoMode::Async);
    let written = run_real(&source, vol.as_deref(), &w).unwrap();
    assert_eq!(written.phases.len(), 3);
    let (file, vol) = make_file(source.container().clone(), IoMode::Async);
    run_real(&file, vol.as_deref(), &reading(&w)).unwrap();
    let stats = vol.unwrap().stats();
    assert!(stats.prefetch_hits > 0, "later steps must hit the prefetch");
}

#[test]
fn every_writer_round_trips_through_every_reader() {
    // Written through each stack, read back through native and through
    // `make_file`'s async connector: the data is the generator's, the
    // read direction's spot checks pass, and every async operation is
    // counted where the paper's connector does it.
    let w = small();
    let per_step = PROPERTIES.len() as u64 * w.ranks as u64;
    let steps = w.epochs as u64;
    for (writer, open) in writers() {
        let (source, vol) = open(Arc::new(Container::create_mem()));
        let written = run_real(&source, vol.as_deref(), &w).unwrap();
        assert_eq!(written.phases.len(), w.epochs as usize, "{writer}");
        if let Some(vol) = vol {
            let stats = vol.stats();
            assert_eq!(stats.writes, steps * per_step, "{writer}");
            assert_eq!(stats.snapshot_bytes, steps * written.phase_bytes, "{writer}");
        }
        for reader in [IoMode::Sync, IoMode::Async] {
            let cell = format!("{writer} -> {reader:?}");
            let (file, vol) = make_file(source.container().clone(), reader);
            let read = run_real(&file, vol.as_deref(), &reading(&w)).unwrap();
            assert_eq!(read.phases.len(), w.epochs as usize, "{cell}");
            assert_eq!(vol.is_some(), reader == IoMode::Async, "{cell}");
            if let Some(vol) = vol {
                // Only the first step is read cold; the others hit the
                // prefetch the step before them issued.
                let stats = vol.stats();
                assert_eq!(stats.prefetch_hits, (steps - 1) * per_step, "{cell}");
                assert_eq!(stats.blocking_reads, per_step, "{cell}");
            }
            vpic::verify(&file, &w).unwrap_or_else(|e| panic!("{cell}: {e}"));
        }
    }
}

#[test]
fn a_failing_device_fails_the_run_in_both_directions_on_every_connector() {
    // The driver drops each async write's request and each prefetch's:
    // neither may drop its failure. A write's surfaces at the final
    // `flush`; a prefetch's at the read that hits its slot.
    let w = small();
    let per_step = PROPERTIES.len() as u64 * w.ranks as u64;
    let failing = |op, after| {
        let plan = FaultPlan::new(0).fail_after(op, after, FaultKind::Persistent);
        Arc::new(FaultInjector::new(Arc::new(MemBackend::new()), plan))
    };
    for (connector, open) in writers() {
        // Every device write from the fifth on fails for good.
        let device = failing(FaultOp::Write, 4);
        let (file, vol) = open(Arc::new(Container::create(device.clone())));
        assert!(run_real(&file, vol.as_deref(), &w).is_err(), "write on {connector}");
        assert!(device.injected() > 0, "write on {connector}");

        // Every device read after the first step's fails for good: step
        // 0 is read cold, one read per rank and property, and what fails
        // is step 1, from its prefetch on an async connector.
        let device = failing(FaultOp::Read, per_step);
        device.set_armed(false);
        let (source, _) = make_file(Arc::new(Container::create(device.clone())), IoMode::Sync);
        run_real(&source, None, &w).unwrap();
        device.set_armed(true);
        let (file, vol) = open(source.container().clone());
        assert!(run_real(&file, vol.as_deref(), &reading(&w)).is_err(), "read on {connector}");
        assert!(device.injected() > 0, "read on {connector}");
        if let Some(vol) = vol {
            // Step 0 read cleanly, and step 1 was prefetched.
            let stats = vol.stats();
            assert_eq!((stats.blocking_reads, stats.prefetches), (per_step, per_step), "{connector}");
        }
    }
}

#[test]
fn real_and_simulated_runs_fill_one_record() {
    // One workload through the simulator and through the real kernel:
    // the same epochs, bytes and compute, and sync epochs that are all
    // transfer on both engines.
    let w = Workload::checkpoint(2, 256 * 32, 3, 0.002);
    let job = Job::new(summit(), w.ranks);
    for (mode, cfg) in [
        (IoMode::Sync, RunConfig::sync()),
        (IoMode::Async, RunConfig::async_io()),
    ] {
        let sim = run(&job, &w, &cfg);
        let (file, vol) = make_file(Arc::new(Container::create_mem()), mode);
        let real = run_real(&file, vol.as_deref(), &w).unwrap();
        assert_eq!(real.phases.len(), sim.phases.len());
        assert_eq!(real.phase_bytes, sim.phase_bytes);
        for (r, s) in real.phases.iter().zip(&sim.phases) {
            assert_eq!(r.t_comp, s.t_comp);
            if mode == IoMode::Sync {
                assert_eq!(r.overhead_secs, 0.0);
                assert_eq!(r.background_io_secs, r.visible_io_secs);
            } else {
                assert_eq!(r.overhead_secs, r.visible_io_secs);
                assert!(r.background_io_secs.is_nan(), "not observed");
            }
        }
    }
    // A run of no particles, or of a size that is not a whole number of
    // them, is an error in both directions, not a panic.
    for per_rank_bytes in [0, 33] {
        let bad = Workload::checkpoint(2, per_rank_bytes, 1, 0.0);
        for bad in [reading(&bad), bad] {
            let (file, vol) = make_file(Arc::new(Container::create_mem()), IoMode::Async);
            assert!(run_real(&file, vol.as_deref(), &bad).is_err());
        }
    }
    // So is a read of a step the container does not hold: here `Step#1`,
    // which the async reader opens to prefetch and the native one to read.
    for mode in [IoMode::Sync, IoMode::Async] {
        let (file, vol) = make_file(Arc::new(Container::create_mem()), mode);
        run_real(&file, vol.as_deref(), &Workload { epochs: 1, ..w.clone() }).unwrap();
        assert!(run_real(&file, vol.as_deref(), &reading(&w)).is_err(), "{mode:?}");
    }
}

#[test]
fn real_measurements_feed_the_model() {
    // Run the real kernel at several scales, feed the measured runs into
    // the adaptive runtime, and get a usable fit out.
    let mut rt = AdaptiveRuntime::new();
    for ranks in [2u32, 4, 8] {
        let w = Workload::checkpoint(ranks, (1 << 12) * 32, 3, 0.05);
        for mode in [IoMode::Sync, IoMode::Async] {
            let backend = Arc::new(ThrottledBackend::in_memory(300e6, 2e-4));
            let (file, vol) = make_file(Arc::new(Container::create(backend)), mode);
            let result = run_real(&file, vol.as_deref(), &w).unwrap();
            result.feed(&mut rt, &w, mode);
        }
    }
    assert_eq!(rt.history().len(), 3 * 2 * 3, "one record per epoch");
    let advice = rt
        .advise(Direction::Write, 8.0 * (1 << 17) as f64, 8)
        .expect("enough real history to fit");
    // The throttled storage is far slower than memcpy, and there is
    // compute to hide behind: async must win.
    assert_eq!(advice.mode, IoMode::Async);
    assert!(advice.t_sync.is_finite() && advice.t_async > 0.0);
}

#[test]
fn persistence_across_connectors_and_processes() {
    let dir = std::env::temp_dir().join(format!("apio-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.h5l");
    let data: Vec<f64> = (0..10_000).map(|i| (i as f64).cos()).collect();
    {
        let container = Arc::new(Container::create_file(&path).unwrap());
        let vol = Arc::new(AsyncVol::builder().streams(2).build());
        let file = File::from_parts(container, vol);
        let run = file.root().create_group("run").unwrap();
        let ds = run
            .create_dataset::<f64>("field", &Dataspace::d1(10_000))
            .unwrap();
        let _ = ds.write_async(&data).unwrap();
        ds.set_attr("iteration", &[7u64]).unwrap();
        file.flush().unwrap();
    }
    // Fresh open, plain native connector (a different "process").
    let file = File::open(&path).unwrap();
    let ds = file.root().open_dataset("run/field").unwrap();
    assert_eq!(ds.read::<f64>().unwrap(), data);
    assert_eq!(ds.get_attr::<u64>("iteration").unwrap(), vec![7]);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn simulator_and_model_agree_on_epoch_structure() {
    // Eq. 2a/2b applied to the simulator's own phase measurements must
    // reconstruct the simulated wall time of the ideal-overlap case.
    let sys = summit();
    let ranks = 768;
    let w = Workload::checkpoint(ranks, vpic::PAPER_BYTES_PER_RANK, 5, 30.0);
    let job = Job::new(sys, ranks);

    let sync = run(&job, &w, &RunConfig::sync());
    let t_io = sync.phases[0].visible_io_secs;
    let asy = run(&job, &w, &RunConfig::async_io());
    let t_ov = asy.phases[0].overhead_secs;

    let p = apio::model::epoch::EpochParams::new(w.compute_secs, t_io, t_ov);
    let predicted_sync = apio::model::epoch::app_time(
        w.t_init,
        std::iter::repeat_n(p.sync_time(), w.epochs as usize),
        w.t_term,
    );
    assert!(
        (predicted_sync / sync.wall_secs - 1.0).abs() < 1e-9,
        "Eq. 1+2a reconstructs the sync run exactly"
    );
    // Ideal overlap: async wall = init + epochs×(comp+ov) + final drain.
    let predicted_async_lower = apio::model::epoch::app_time(
        w.t_init,
        std::iter::repeat_n(p.async_time(), w.epochs as usize),
        w.t_term,
    );
    assert!(
        asy.wall_secs >= predicted_async_lower - 1e-9,
        "Eq. 2b is a lower bound (it ignores the final drain)"
    );
    assert!(
        asy.wall_secs <= predicted_async_lower + t_io + 1e-9,
        "and the drain adds at most one background write"
    );
}
