//! The experiments behind every figure.

use apio_core::history::{Direction, History, IoMode, TransferRecord};
use apio_core::ratemodel::RateModel;
use apio_core::regression::r2_simple;
use desim::SimRng;
use kernels::vpic::PAPER_BYTES_PER_RANK;
use mpisim::workload::StagingTier;
use mpisim::{run, Job, RunConfig, Workload};
use platform::{cori_haswell, summit, SystemConfig};

/// Number of repeated runs per configuration ("at least 5 times across
/// multiple days", §V-A1).
pub const RUNS_PER_CONFIG: u32 = 5;

/// One point of a bandwidth-vs-scale figure.
#[derive(Clone, Copy, Debug)]
pub struct BwRow {
    /// MPI ranks at this point.
    pub ranks: u32,
    /// Nodes the ranks occupy.
    pub nodes: u32,
    /// Peak observed synchronous aggregate bandwidth (bytes/s).
    pub sync_bw: f64,
    /// Peak observed asynchronous aggregate bandwidth (bytes/s).
    pub async_bw: f64,
    /// Model estimate for the sync curve (dotted line), bytes/s.
    pub est_sync: f64,
    /// Model estimate for the async curve (dotted line), bytes/s.
    pub est_async: f64,
}

/// A bandwidth figure: its rows plus the fit quality of both estimates.
///
/// `r²` is the training-set coefficient of determination. For nearly flat
/// curves (Summit strong scaling) the total variance approaches zero and
/// r² degenerates even when every prediction is within a few percent, so
/// the mean relative error of the estimates is reported alongside.
#[derive(Clone, Debug)]
pub struct BwFigure {
    /// Figure identifier (e.g. "fig3a").
    pub id: &'static str,
    /// Human-readable description.
    pub title: String,
    /// One row per swept configuration.
    pub rows: Vec<BwRow>,
    /// Sync-model fit quality (training r²).
    pub sync_r2: f64,
    /// Async-model fit quality (training r²).
    pub async_r2: f64,
    /// Mean |est − measured| / measured over the sync rows.
    pub sync_relerr: f64,
    /// Mean |est − measured| / measured over the async rows.
    pub async_relerr: f64,
}

/// Run one (workload, mode) configuration `RUNS_PER_CONFIG` times with
/// fresh contention draws; returns all per-run peak bandwidths.
fn repeated_peaks(
    system: &SystemConfig,
    w: &Workload,
    mode: IoMode,
    rng: &mut SimRng,
) -> Vec<f64> {
    let job = Job::new(system.clone(), w.ranks);
    (0..RUNS_PER_CONFIG)
        .map(|_| {
            let contention = system.contention.sample(rng);
            let cfg = match mode {
                IoMode::Sync => RunConfig::sync().with_contention(contention),
                IoMode::Async => RunConfig::async_io().with_contention(contention),
            };
            run(&job, w, &cfg).peak_bandwidth()
        })
        .collect()
}

fn peak(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Generic bandwidth-vs-scale sweep used by Figs. 3–6: run both modes at
/// every rank count, fit both models on the collected history, attach the
/// estimates.
pub fn bandwidth_sweep(
    id: &'static str,
    title: String,
    system: &SystemConfig,
    workloads: &[Workload],
    seed: u64,
) -> BwFigure {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut history = History::new();
    let direction = workloads[0].direction;
    let mut raw: Vec<(u32, u32, f64, f64)> = Vec::new();

    for w in workloads {
        let nodes = system.nodes_for_ranks(w.ranks);
        let total = w.per_rank_bytes as f64 * w.ranks as f64;
        let sync_peaks = repeated_peaks(system, w, IoMode::Sync, &mut rng);
        let async_peaks = repeated_peaks(system, w, IoMode::Async, &mut rng);
        for &bw in &sync_peaks {
            history.push(TransferRecord {
                data_size: total,
                ranks: w.ranks,
                mode: IoMode::Sync,
                direction,
                rate: bw,
            });
        }
        for &bw in &async_peaks {
            history.push(TransferRecord {
                data_size: total,
                ranks: w.ranks,
                mode: IoMode::Async,
                direction,
                rate: bw,
            });
        }
        raw.push((w.ranks, nodes, peak(&sync_peaks), peak(&async_peaks)));
    }

    let sync_model =
        RateModel::fit(&history, IoMode::Sync, direction).expect("enough sync history");
    let async_model =
        RateModel::fit(&history, IoMode::Async, direction).expect("enough async history");

    let rows: Vec<BwRow> = raw
        .iter()
        .zip(workloads)
        .map(|(&(ranks, nodes, sync_bw, async_bw), w)| {
            let total = w.per_rank_bytes as f64 * ranks as f64;
            BwRow {
                ranks,
                nodes,
                sync_bw,
                async_bw,
                est_sync: sync_model.estimate_rate(total, ranks),
                est_async: async_model.estimate_rate(total, ranks),
            }
        })
        .collect();

    let relerr = |f: &dyn Fn(&BwRow) -> (f64, f64)| -> f64 {
        rows.iter()
            .map(|r| {
                let (est, meas) = f(r);
                (est - meas).abs() / meas
            })
            .sum::<f64>()
            / rows.len() as f64
    };
    let sync_relerr = relerr(&|r: &BwRow| (r.est_sync, r.sync_bw));
    let async_relerr = relerr(&|r: &BwRow| (r.est_async, r.async_bw));

    BwFigure {
        id,
        title,
        rows,
        sync_r2: sync_model.r_squared(),
        async_r2: async_model.r_squared(),
        sync_relerr,
        async_relerr,
    }
}

// ----- Fig. 3: I/O kernels, weak scaling ------------------------------

/// Rank sweeps used for the kernel figures (6/node on Summit up to 2048
/// nodes; 32/node on Cori).
pub fn summit_kernel_ranks() -> Vec<u32> {
    vec![96, 192, 384, 768, 1536, 3072, 6144, 12288]
}

/// Cori rank sweep (32 ranks/node, 2–128 nodes).
pub fn cori_kernel_ranks() -> Vec<u32> {
    vec![64, 128, 256, 512, 1024, 2048, 4096]
}

/// Fig. 3a: VPIC-IO write on Summit.
pub fn fig3a() -> BwFigure {
    let sys = summit();
    let ws: Vec<Workload> = summit_kernel_ranks()
        .into_iter()
        .map(|r| Workload::checkpoint(r, PAPER_BYTES_PER_RANK, 5, 30.0))
        .collect();
    bandwidth_sweep("fig3a", "VPIC-IO write, Summit (weak scaling)".into(), &sys, &ws, 0x3a)
}

/// Fig. 3b: VPIC-IO write on Cori-Haswell.
pub fn fig3b() -> BwFigure {
    let sys = cori_haswell();
    let ws: Vec<Workload> = cori_kernel_ranks()
        .into_iter()
        .map(|r| Workload::checkpoint(r, PAPER_BYTES_PER_RANK, 5, 30.0))
        .collect();
    bandwidth_sweep(
        "fig3b",
        "VPIC-IO write, Cori-Haswell (weak scaling)".into(),
        &sys,
        &ws,
        0x3b,
    )
}

/// Fig. 3c: BD-CATS-IO read on Summit.
pub fn fig3c() -> BwFigure {
    let sys = summit();
    let ws: Vec<Workload> = summit_kernel_ranks()
        .into_iter()
        .map(|r| Workload::analysis(r, PAPER_BYTES_PER_RANK, 5, 30.0))
        .collect();
    bandwidth_sweep("fig3c", "BD-CATS-IO read, Summit (weak scaling)".into(), &sys, &ws, 0x3c)
}

/// Fig. 3d: BD-CATS-IO read on Cori-Haswell.
pub fn fig3d() -> BwFigure {
    let sys = cori_haswell();
    let ws: Vec<Workload> = cori_kernel_ranks()
        .into_iter()
        .map(|r| Workload::analysis(r, PAPER_BYTES_PER_RANK, 5, 30.0))
        .collect();
    bandwidth_sweep(
        "fig3d",
        "BD-CATS-IO read, Cori-Haswell (weak scaling)".into(),
        &sys,
        &ws,
        0x3d,
    )
}

// ----- Fig. 4–6: applications ------------------------------------------

/// Fig. 4a: Nyx large on Summit (strong scaling).
pub fn fig4a() -> BwFigure {
    let sys = summit();
    let model = apps::nyx::large();
    let ws: Vec<Workload> = [768u32, 1536, 3072, 6144, 12288]
        .iter()
        .map(|&r| model.workload(r))
        .collect();
    bandwidth_sweep("fig4a", "Nyx (large), Summit (strong scaling)".into(), &sys, &ws, 0x4a)
}

/// Fig. 4b: Nyx small on Cori (strong scaling).
pub fn fig4b() -> BwFigure {
    let sys = cori_haswell();
    let model = apps::nyx::small();
    let ws: Vec<Workload> = [512u32, 1024, 2048, 4096]
        .iter()
        .map(|&r| model.workload(r))
        .collect();
    bandwidth_sweep(
        "fig4b",
        "Nyx (small), Cori-Haswell (strong scaling)".into(),
        &sys,
        &ws,
        0x4b,
    )
}

/// Fig. 4c: Castro on Summit (strong scaling).
pub fn fig4c() -> BwFigure {
    let sys = summit();
    let model = apps::castro::paper();
    let ws: Vec<Workload> = [768u32, 1536, 3072, 6144]
        .iter()
        .map(|&r| model.workload(r))
        .collect();
    bandwidth_sweep("fig4c", "Castro, Summit (strong scaling)".into(), &sys, &ws, 0x4c)
}

/// Fig. 4d: Castro on Cori (strong scaling).
pub fn fig4d() -> BwFigure {
    let sys = cori_haswell();
    let model = apps::castro::paper();
    let ws: Vec<Workload> = [256u32, 512, 1024, 2048, 4096]
        .iter()
        .map(|&r| model.workload(r))
        .collect();
    bandwidth_sweep("fig4d", "Castro, Cori-Haswell (strong scaling)".into(), &sys, &ws, 0x4d)
}

/// Fig. 5: Cosmoflow batch reads on Summit.
pub fn fig5() -> BwFigure {
    let sys = summit();
    // Up to 256 nodes, the paper's plotted range: past ~400 nodes the
    // aggregate batch volume exceeds what the PFS can prefetch inside one
    // 1.2 s training step and visible async bandwidth falls back toward
    // the file system rate (see EXPERIMENTS.md).
    let model = apps::cosmoflow::paper();
    let ws: Vec<Workload> = [96u32, 192, 384, 768, 1536]
        .iter()
        .map(|&r| model.workload(r))
        .collect();
    bandwidth_sweep("fig5", "Cosmoflow read, Summit".into(), &sys, &ws, 0x5)
}

/// Fig. 6: EQSIM on Summit (strong scaling).
pub fn fig6() -> BwFigure {
    let sys = summit();
    let model = apps::eqsim::paper();
    let ws: Vec<Workload> = [384u32, 768, 1536, 3072, 6144]
        .iter()
        .map(|&r| model.workload(r))
        .collect();
    bandwidth_sweep("fig6", "EQSIM, Summit (strong scaling)".into(), &sys, &ws, 0x6)
}

// ----- Fig. 7: partial overlap sweep -----------------------------------

/// One point of the Fig. 7 duration sweep.
#[derive(Clone, Copy, Debug)]
pub struct DurationRow {
    /// Simulation steps per computation phase.
    pub steps_per_io: u32,
    /// I/O phases in the run.
    pub epochs: u32,
    /// Simulated synchronous application duration.
    pub sync_secs: f64,
    /// Simulated asynchronous application duration.
    pub async_secs: f64,
    /// Model-estimated durations (Eq. 1 over Eq. 2a/2b with fitted rates).
    pub est_sync_secs: f64,
    /// Eq. 1 estimate of the async duration.
    pub est_async_secs: f64,
}

/// Fig. 7: Nyx (small) on Cori at 1024 ranks, varying the number of
/// simulation steps per computation phase from 1 to 192 over a fixed
/// 192-step simulation.
///
/// The per-step compute time is scaled so that *one* step roughly equals
/// the checkpoint I/O time — the regime the paper's sweep probes: at one
/// step per phase even asynchronous I/O has nothing to overlap with and
/// loses its advantage, while at coarser frequencies the async curve is
/// nearly flat and the sync curve pays the full extra I/O.
pub fn fig7() -> Vec<DurationRow> {
    let sys = cori_haswell();
    let ranks = 1024u32;
    let base = apps::AppModel {
        secs_per_step: 0.008,
        ..apps::nyx::small()
    };
    let job = Job::new(sys.clone(), ranks);
    let mut rng = SimRng::seed_from_u64(0x7);

    // Fit rate models from the strong-scaling history the feedback loop
    // would have gathered on earlier Nyx runs (the checkpoint size is
    // frequency-independent, so distinct configurations come from the
    // rank sweep, not the steps sweep).
    let mut history = History::new();
    for r in [512u32, 1024, 2048, 4096] {
        let w = base.workload(r);
        for mode in [IoMode::Sync, IoMode::Async] {
            for bw in repeated_peaks(&sys, &w, mode, &mut rng) {
                history.push(TransferRecord {
                    data_size: w.per_rank_bytes as f64 * r as f64,
                    ranks: r,
                    mode,
                    direction: Direction::Write,
                    rate: bw,
                });
            }
        }
    }
    let sync_model = RateModel::fit(&history, IoMode::Sync, Direction::Write).unwrap();
    let async_model = RateModel::fit(&history, IoMode::Async, Direction::Write).unwrap();

    // 192 total simulation steps; every sweep point divides it exactly.
    const TOTAL_STEPS: u32 = 192;
    [1u32, 2, 4, 8, 16, 32, 64, 96, 192]
        .iter()
        .map(|&steps| {
            let m = apps::AppModel {
                steps_per_io: steps,
                epochs: TOTAL_STEPS / steps,
                ..base.clone()
            };
            let w = m.workload(ranks);
            let sync_secs = run(&job, &w, &RunConfig::sync()).wall_secs;
            let async_secs = run(&job, &w, &RunConfig::async_io()).wall_secs;

            // Model estimate: Eq. 1 with Eq. 2a/2b epoch times.
            let total = w.per_rank_bytes as f64 * ranks as f64;
            let t_io = sync_model.estimate_io_time(total, ranks);
            let t_ov = async_model.estimate_io_time(total, ranks);
            let p = apio_core::epoch::EpochParams::new(w.compute_secs, t_io, t_ov);
            let est_sync_secs = apio_core::epoch::app_time(
                w.t_init,
                std::iter::repeat_n(p.sync_time(), w.epochs as usize),
                w.t_term,
            );
            let est_async_secs = apio_core::epoch::app_time(
                w.t_init,
                std::iter::repeat_n(p.async_time(), w.epochs as usize),
                w.t_term,
            );
            DurationRow {
                steps_per_io: steps,
                epochs: w.epochs,
                sync_secs,
                async_secs,
                est_sync_secs,
                est_async_secs,
            }
        })
        .collect()
}

// ----- Fig. 8: run-to-run variability -----------------------------------

/// All samples of the variability experiment at one scale.
#[derive(Clone, Debug)]
pub struct VariabilityRow {
    /// Scale of this variability experiment.
    pub ranks: u32,
    /// Peak bandwidth of each synchronous run.
    pub sync_samples: Vec<f64>,
    /// Peak bandwidth of each asynchronous run.
    pub async_samples: Vec<f64>,
}

impl VariabilityRow {
    /// Coefficient of variation of the sync runs.
    pub fn sync_cv(&self) -> f64 {
        cv(&self.sync_samples)
    }

    /// Coefficient of variation of the async runs.
    pub fn async_cv(&self) -> f64 {
        cv(&self.async_samples)
    }
}

fn cv(xs: &[f64]) -> f64 {
    let mut s = desim::OnlineStats::new();
    for &x in xs {
        s.push(x);
    }
    s.cv()
}

/// Fig. 8: VPIC-IO on Summit, 25 runs across "days" (fresh contention
/// draws) in both modes at several scales.
pub fn fig8() -> Vec<VariabilityRow> {
    let sys = summit();
    let mut rng = SimRng::seed_from_u64(0x8);
    [384u32, 1536, 6144]
        .iter()
        .map(|&ranks| {
            let w = Workload::checkpoint(ranks, PAPER_BYTES_PER_RANK, 5, 30.0);
            let job = Job::new(sys.clone(), ranks);
            let sample = |mode: IoMode, rng: &mut SimRng| -> Vec<f64> {
                (0..25)
                    .map(|_| {
                        let contention = sys.contention.sample(rng);
                        let cfg = match mode {
                            IoMode::Sync => RunConfig::sync().with_contention(contention),
                            IoMode::Async => {
                                RunConfig::async_io().with_contention(contention)
                            }
                        };
                        run(&job, &w, &cfg).peak_bandwidth()
                    })
                    .collect()
            };
            VariabilityRow {
                ranks,
                sync_samples: sample(IoMode::Sync, &mut rng),
                async_samples: sample(IoMode::Async, &mut rng),
            }
        })
        .collect()
}

// ----- §III-B1 micro-benchmarks ------------------------------------------

/// One point of the memcpy / GPU-link bandwidth curves.
#[derive(Clone, Copy, Debug)]
pub struct MicroRow {
    /// Transfer size.
    pub bytes: u64,
    /// Effective bandwidth at that size.
    pub bw: f64,
}

/// Modeled memcpy bandwidth vs transfer size (constant above 32 MiB).
pub fn memcpy_micro(system: &SystemConfig) -> Vec<MicroRow> {
    (16..=30)
        .map(|exp| {
            let bytes = 1u64 << exp;
            MicroRow {
                bytes,
                bw: bytes as f64 / system.memcpy.copy_time(bytes),
            }
        })
        .collect()
}

/// Modeled GPU transfer bandwidth vs size, pinned and pageable.
pub fn gpulink_micro() -> Vec<(u64, f64, f64)> {
    let link = summit().gpu.expect("summit has GPUs");
    (16..=30)
        .map(|exp| {
            let bytes = 1u64 << exp;
            (
                bytes,
                link.effective_bw(bytes, true),
                link.effective_bw(bytes, false),
            )
        })
        .collect()
}

// ----- §V-C: model fit quality -------------------------------------------

/// r² / relative-error summary of one figure's fits.
#[derive(Clone, Debug)]
pub struct R2Row {
    /// Figure the fits belong to.
    pub figure: &'static str,
    /// Sync fit r².
    pub sync_r2: f64,
    /// Async fit r².
    pub async_r2: f64,
    /// Mean relative error of the sync estimates.
    pub sync_relerr: f64,
    /// Mean relative error of the async estimates.
    pub async_relerr: f64,
}

/// The paper's §V-C claim table: sync fits above 80%, async above 90%
/// (r² is meaningful where the curve has variance — the weak-scaling
/// kernel figures; flat strong-scaling curves are judged by relative
/// error instead, see `BwFigure` docs).
pub fn r2_table() -> Vec<R2Row> {
    [fig3a(), fig3b(), fig3c(), fig3d(), fig4a(), fig4c(), fig5(), fig6()]
        .into_iter()
        .map(|f| R2Row {
            figure: f.id,
            sync_r2: f.sync_r2,
            async_r2: f.async_r2,
            sync_relerr: f.sync_relerr,
            async_relerr: f.async_relerr,
        })
        .collect()
}

/// Eq. 5's simple r² between ranks and observed sync bandwidth for one
/// figure (reported alongside the multi-feature fit).
pub fn eq5_r2(fig: &BwFigure) -> f64 {
    let x: Vec<f64> = fig.rows.iter().map(|r| r.ranks as f64).collect();
    let y: Vec<f64> = fig.rows.iter().map(|r| r.sync_bw).collect();
    r2_simple(&x, &y)
}

// ----- ablations ----------------------------------------------------------

/// One row of the staging-tier ablation.
#[derive(Clone, Copy, Debug)]
pub struct StagingRow {
    /// Checkpoint bytes per rank.
    pub per_rank_bytes: u64,
    /// Visible (transactional) aggregate bandwidth with DRAM staging.
    pub dram_bw: f64,
    /// Visible aggregate bandwidth with NVMe staging.
    pub nvme_bw: f64,
    /// Synchronous baseline.
    pub sync_bw: f64,
    /// Peak DRAM footprint of the snapshot buffers per node (bytes):
    /// buffer_depth × ranks/node × per-rank size for DRAM staging, ~0 for
    /// NVMe staging.
    pub dram_footprint: u64,
}

/// Ablation (design decision, DESIGN.md §5): staging snapshots in DRAM vs
/// on the node-local NVMe, VPIC-shaped workload on Summit at 768 ranks,
/// sweeping the per-rank checkpoint size. DRAM staging is faster but its
/// footprint grows with the checkpoint; NVMe staging bounds memory use at
/// the cost of device-speed overhead — §II-C's two caching locations.
pub fn ablate_staging() -> Vec<StagingRow> {
    let sys = summit();
    let ranks = 768u32;
    let job = Job::new(sys, ranks);
    [8u64, 32, 128, 512, 2048]
        .iter()
        .map(|&mib| {
            let per_rank = mib << 20;
            let w = Workload::checkpoint(ranks, per_rank, 3, 120.0);
            let dram = run(&job, &w, &RunConfig::async_io());
            let nvme = run(
                &job,
                &w,
                &RunConfig::async_io().with_staging(StagingTier::Nvme),
            );
            let sync = run(&job, &w, &RunConfig::sync());
            StagingRow {
                per_rank_bytes: per_rank,
                dram_bw: dram.peak_bandwidth(),
                nvme_bw: nvme.peak_bandwidth(),
                sync_bw: sync.peak_bandwidth(),
                dram_footprint: 2 * 6 * per_rank,
            }
        })
        .collect()
}

/// One row of the collective-aggregation ablation.
#[derive(Clone, Copy, Debug)]
pub struct CollectiveRow {
    /// Scale of this row.
    pub ranks: u32,
    /// Request size each rank issues.
    pub per_rank_bytes: u64,
    /// Sync phase bandwidth, independent writers (the paper's runs).
    pub independent_bw: f64,
    /// Sync phase bandwidth with 1 aggregator per node.
    pub agg1_bw: f64,
    /// Sync phase bandwidth with 4 aggregators per node.
    pub agg4_bw: f64,
}

/// Ablation: MPI-IO two-phase collective buffering against the paper's
/// independent writes, on the Castro-on-Cori strong-scaling sweep — the
/// workload whose small per-rank requests caused the poor synchronous
/// bandwidth of Fig. 4d. Aggregation recovers the lost request size at
/// the price of an intra-node gather pass.
pub fn ablate_collective() -> Vec<CollectiveRow> {
    use mpisim::CollectiveMode;
    let sys = cori_haswell();
    let model = apps::castro::paper();
    [256u32, 1024, 4096]
        .iter()
        .map(|&ranks| {
            let job = Job::new(sys.clone(), ranks);
            let per_rank = model.per_rank_bytes(ranks);
            let total = per_rank as f64 * ranks as f64;
            let bw = |mode: CollectiveMode| {
                total
                    / job.collective_io_time_with(
                        per_rank,
                        Direction::Write,
                        1.0,
                        mode,
                    )
            };
            CollectiveRow {
                ranks,
                per_rank_bytes: per_rank,
                independent_bw: bw(CollectiveMode::Independent),
                agg1_bw: bw(CollectiveMode::TwoPhase {
                    aggregators_per_node: 1,
                }),
                agg4_bw: bw(CollectiveMode::TwoPhase {
                    aggregators_per_node: 4,
                }),
            }
        })
        .collect()
}

/// One row of the buffer-depth ablation.
#[derive(Clone, Copy, Debug)]
pub struct DepthRow {
    /// Snapshot pool depth.
    pub buffer_depth: u32,
    /// Simulated application duration.
    pub wall_secs: f64,
    /// Mean application-visible I/O time per epoch.
    pub mean_visible_io: f64,
}

/// Ablation: snapshot buffer-pool depth under a compute phase too short
/// to hide the background write (the throttled regime). Deeper pools
/// absorb more bursts before the application parks.
pub fn ablate_buffer_depth() -> Vec<DepthRow> {
    let sys = summit();
    let ranks = 6144u32;
    let job = Job::new(sys, ranks);
    let w = Workload::checkpoint(ranks, 32 << 20, 12, 0.2);
    [1u32, 2, 4, 8]
        .iter()
        .map(|&depth| {
            let r = run(&job, &w, &RunConfig::async_io().with_buffer_depth(depth));
            DepthRow {
                buffer_depth: depth,
                wall_secs: r.wall_secs,
                mean_visible_io: r.total_visible_io() / r.phases.len() as f64,
            }
        })
        .collect()
}
