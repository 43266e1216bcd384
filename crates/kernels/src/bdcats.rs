//! BD-CATS-IO: the clustering read kernel (§IV-B).
//!
//! BD-CATS (trillion-particle DBSCAN) reads the particle data VPIC wrote,
//! one time step per analysis epoch, with the clustering computation
//! replaced by a sleep. In asynchronous mode the behaviour matches the
//! paper's description of the VOL connector: *"prefetching is triggered
//! after reading data for the first time step. The first read is a
//! blocking operation since there is a dependency on the data for the
//! first computational phase"* (§V-A2). Each completed step schedules the
//! prefetch of the next step, so later reads only pay the buffer delivery
//! (plus any un-overlapped prefetch remainder).

use std::sync::Arc;
use std::time::{Duration, Instant};

use apio_core::history::Direction;
use asyncvol::AsyncVol;
use h5lite::{File, Hyperslab, Selection, Vol};
use mpisim::{Perturbation, Workload};

use crate::measure::{KernelMode, PhaseTiming, RealRunReport};
use crate::vpic::{particle_value, VpicConfig, PAPER_BYTES_PER_RANK, PROPERTIES};

/// Run the read kernel over a container previously written by
/// [`crate::vpic`]. The connector is chosen fresh over the same
/// container, so a sync-written file can be read asynchronously.
pub fn run_real(
    source: &File,
    cfg: &VpicConfig,
    mode: KernelMode,
) -> h5lite::Result<RealRunReport> {
    let (file, async_vol): (File, Option<Arc<AsyncVol>>) = match mode {
        KernelMode::Sync => (
            File::from_parts(source.container().clone(), Arc::new(h5lite::NativeVol::new())),
            None,
        ),
        KernelMode::Async => {
            let vol = Arc::new(AsyncVol::new());
            let dynvol: Arc<dyn Vol> = vol.clone();
            (File::from_parts(source.container().clone(), dynvol), Some(vol))
        }
    };

    let t_start = Instant::now();
    let mut phases = Vec::with_capacity(cfg.timesteps as usize);

    for step in 0..cfg.timesteps {
        let group = file.root().open_group(&format!("Step#{step}"))?;
        let datasets: Vec<h5lite::Dataset> = PROPERTIES
            .iter()
            .map(|p| group.open_dataset(p))
            .collect::<h5lite::Result<_>>()?;

        // Read phase: every rank reads its slab of every property and
        // checks a sample against the generator.
        let io_start = Instant::now();
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for rank in 0..cfg.ranks {
                let datasets = &datasets;
                joins.push(scope.spawn(move || -> h5lite::Result<()> {
                    let base = rank as u64 * cfg.particles_per_rank;
                    let slab = Hyperslab::range1(base, cfg.particles_per_rank);
                    for (prop, ds) in datasets.iter().enumerate() {
                        let data: Vec<f32> = ds.read_slab(&slab)?;
                        // Spot-check the first and last particle.
                        let first = particle_value(step, prop, base);
                        let last = particle_value(
                            step,
                            prop,
                            base + cfg.particles_per_rank - 1,
                        );
                        if data[0] != first || *data.last().unwrap() != last {
                            return Err(h5lite::H5Error::Corrupt(format!(
                                "step {step} prop {prop} rank {rank}: stale data"
                            )));
                        }
                    }
                    Ok(())
                }));
            }
            for j in joins {
                j.join().expect("rank thread panicked")?;
            }
            Ok::<(), h5lite::H5Error>(())
        })?;
        let visible_io_secs = io_start.elapsed().as_secs_f64();

        // Schedule the next step's prefetch before computing, so the
        // prefetch overlaps the clustering phase.
        if mode == KernelMode::Async && step + 1 < cfg.timesteps {
            let vol = async_vol.as_ref().expect("async mode has a connector");
            let next = file.root().open_group(&format!("Step#{}", step + 1))?;
            for prop in PROPERTIES {
                let ds = next.open_dataset(prop)?;
                for rank in 0..cfg.ranks {
                    let slab = Hyperslab::range1(
                        rank as u64 * cfg.particles_per_rank,
                        cfg.particles_per_rank,
                    );
                    // Fire-and-forget cache fill; hits are observed via
                    // read_async, not by waiting on this request.
                    let _ = vol.prefetch(file.container(), ds.id(), &Selection::Slab(slab));
                }
            }
        }

        if cfg.compute_secs > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(cfg.compute_secs));
        }
        phases.push(PhaseTiming {
            compute_secs: cfg.compute_secs,
            visible_io_secs,
        });
    }

    file.wait_all()?;
    Ok(RealRunReport {
        mode,
        ranks: cfg.ranks,
        bytes_per_epoch: cfg.bytes_per_epoch(),
        phases,
        wall_secs: t_start.elapsed().as_secs_f64(),
        async_stats: async_vol.map(|v| v.stats()),
    })
}

/// The paper-scale simulator workload: weak-scaling reads of the VPIC
/// output with a 30 s simulated clustering phase.
pub fn workload(ranks: u32, timesteps: u32, compute_secs: f64) -> Workload {
    Workload {
        ranks,
        per_rank_bytes: PAPER_BYTES_PER_RANK,
        epochs: timesteps,
        compute_secs,
        direction: Direction::Read,
        t_init: 0.5,
        t_term: 0.2,
        perturb: Perturbation::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vpic;

    fn small_cfg() -> VpicConfig {
        VpicConfig {
            ranks: 4,
            particles_per_rank: 1 << 12,
            timesteps: 4,
            compute_secs: 0.02,
        }
    }

    #[test]
    fn sync_read_verifies_written_data() {
        let cfg = small_cfg();
        let (_, file) = vpic::run_real_into(&cfg, KernelMode::Sync).unwrap();
        let report = run_real(&file, &cfg, KernelMode::Sync).unwrap();
        assert_eq!(report.phases.len(), 4);
        assert!(report.async_stats.is_none());
    }

    #[test]
    fn async_read_prefetches_later_steps() {
        let cfg = small_cfg();
        let (_, file) = vpic::run_real_into(&cfg, KernelMode::Sync).unwrap();
        let report = run_real(&file, &cfg, KernelMode::Async).unwrap();
        let stats = report.async_stats.unwrap();
        // Steps 1..4 read 8 props × 4 ranks each from prefetch.
        let expected_hits = (cfg.timesteps as u64 - 1) * 8 * cfg.ranks as u64;
        assert_eq!(stats.prefetch_hits, expected_hits);
        // Only step 0 was read cold.
        assert_eq!(stats.blocking_reads, 8 * cfg.ranks as u64);
    }

    #[test]
    fn async_read_data_is_still_correct() {
        // The in-kernel spot checks run on every rank/prop/step; a
        // connector bug surfaces as a Corrupt error here.
        let cfg = small_cfg();
        let (_, file) = vpic::run_real_into(&cfg, KernelMode::Async).unwrap();
        run_real(&file, &cfg, KernelMode::Async).unwrap();
    }

    #[test]
    fn read_workload_is_read_direction() {
        let w = workload(384, 8, 30.0);
        assert_eq!(w.direction, Direction::Read);
        assert_eq!(w.per_rank_bytes, PAPER_BYTES_PER_RANK);
    }

    #[test]
    fn async_later_steps_are_faster_with_compute_overlap() {
        // Over throttled storage (50 MB/s) the blocking first step pays
        // the full read while prefetched steps only pay delivery.
        let cfg = VpicConfig {
            ranks: 2,
            particles_per_rank: 1 << 13,
            timesteps: 3,
            compute_secs: 0.05,
        };
        let (_, file) =
            vpic::run_real_throttled_into(&cfg, KernelMode::Sync, 50e6, 2e-4).unwrap();
        let report = run_real(&file, &cfg, KernelMode::Async).unwrap();
        let bws = report.phase_bandwidths();
        assert!(
            bws[1] > 2.0 * bws[0] && bws[2] > 2.0 * bws[0],
            "prefetched steps should beat the blocking first step: {bws:?}"
        );
    }
}
