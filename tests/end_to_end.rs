//! Cross-crate integration: the real engine, the connector, the kernels,
//! and the model working together.

use std::sync::Arc;

use apio::asyncvol::AsyncVol;
use apio::h5lite::{Container, Dataspace, File, ThrottledBackend};
use apio::kernels::{bdcats, make_file, vpic};
use apio::model::history::{Direction, IoMode};
use apio::model::AdaptiveRuntime;
use apio::mpisim::{run, Job, RunConfig, Workload};
use apio::platform::summit;

/// 4 ranks × 4 Ki particles (8 `f32` properties each) × 3 checkpoints.
fn small() -> Workload {
    Workload::checkpoint(4, (1 << 12) * 32, 3, 0.01)
}

#[test]
fn write_with_async_vol_read_with_native_vol() {
    // Data written through the async connector must be readable through
    // the native one (they share the container format).
    let w = small();
    let (source, vol) = make_file(Arc::new(Container::create_mem()), IoMode::Async);
    vpic::run_real(&source, vol.as_deref(), &w).unwrap();
    vpic::verify(&source, &w).unwrap();
    // And the read kernel in sync mode sees it too.
    let (file, vol) = make_file(source.container().clone(), IoMode::Sync);
    bdcats::run_real(&file, vol.as_deref(), &w).unwrap();
}

#[test]
fn full_pipeline_write_then_clustered_read_with_prefetch() {
    let w = small();
    let (source, vol) = make_file(Arc::new(Container::create_mem()), IoMode::Async);
    let written = vpic::run_real(&source, vol.as_deref(), &w).unwrap();
    assert_eq!(written.phases.len(), 3);
    let (file, vol) = make_file(source.container().clone(), IoMode::Async);
    bdcats::run_real(&file, vol.as_deref(), &w).unwrap();
    let stats = vol.unwrap().stats();
    assert!(stats.prefetch_hits > 0, "later steps must hit the prefetch");
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
        let real = vpic::run_real(&file, vol.as_deref(), &w).unwrap();
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
    // them, is an error on both kernels, not a panic.
    for per_rank_bytes in [0, 33] {
        let bad = Workload::checkpoint(2, per_rank_bytes, 1, 0.0);
        let (file, vol) = make_file(Arc::new(Container::create_mem()), IoMode::Async);
        assert!(vpic::run_real(&file, vol.as_deref(), &bad).is_err());
        assert!(bdcats::run_real(&file, vol.as_deref(), &bad).is_err());
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
            let result = vpic::run_real(&file, vol.as_deref(), &w).unwrap();
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
