//! VPIC-IO: the plasma-physics particle write kernel (§IV-B).
//!
//! Extracted from the Vector Particle-In-Cell code, the kernel emulates
//! checkpointing particle data: each rank owns `particles_per_rank`
//! particles with 8 properties; every time step, each property is written
//! to a 1-D dataset (`/Step#t/<prop>`), every rank writing its own
//! hyperslab. Data size scales with ranks (weak scaling). The paper's
//! configuration is 8×1024×1024 particles (≈32 MB) per rank with a 30 s
//! simulated compute phase between checkpoints.

use std::sync::Arc;
use std::time::{Duration, Instant};

use apio_core::history::Direction;
use h5lite::{Dataspace, File, Hyperslab};
use mpisim::{Perturbation, Workload};
use platform::units::MIB;

use crate::measure::{make_file, KernelMode, PhaseTiming, RealRunReport};

/// The 8 particle properties VPIC-IO writes (h5bench's naming).
pub const PROPERTIES: [&str; 8] = ["x", "y", "z", "i", "ux", "uy", "uz", "q"];

/// Per-rank payload per checkpoint at paper scale (≈32 MB per rank).
pub const PAPER_BYTES_PER_RANK: u64 = 32 * MIB;

/// Configuration of a real-engine VPIC-IO run.
#[derive(Clone, Debug)]
pub struct VpicConfig {
    /// Number of writer threads ("ranks").
    pub ranks: u32,
    /// Particles each rank owns (downscale from the paper's 8 Mi for
    /// test-time runs).
    pub particles_per_rank: u64,
    /// Checkpoints to write.
    pub timesteps: u32,
    /// Simulated compute phase between checkpoints (sleep).
    pub compute_secs: f64,
}

impl VpicConfig {
    /// A small configuration that runs in test time.
    pub fn small(ranks: u32, timesteps: u32) -> Self {
        VpicConfig {
            ranks,
            particles_per_rank: 1 << 14,
            timesteps,
            compute_secs: 0.01,
        }
    }

    /// Bytes each rank writes per checkpoint (8 properties × f32).
    pub fn bytes_per_rank(&self) -> u64 {
        self.particles_per_rank * PROPERTIES.len() as u64 * 4
    }

    /// Bytes all ranks write per checkpoint.
    pub fn bytes_per_epoch(&self) -> u64 {
        self.bytes_per_rank() * self.ranks as u64
    }
}

/// Deterministic particle property value: reproducible across runs and
/// cheap enough not to pollute the I/O timing.
pub fn particle_value(step: u32, prop: usize, global_index: u64) -> f32 {
    let h = (global_index ^ (step as u64) << 40 ^ (prop as u64) << 56)
        .wrapping_mul(0x9E3779B97F4A7C15);
    // Map to a stable, finite float in [0, 1).
    (h >> 40) as f32 / (1u64 << 24) as f32
}

fn rank_payload(cfg: &VpicConfig, step: u32, prop: usize, rank: u32) -> Vec<f32> {
    let base = rank as u64 * cfg.particles_per_rank;
    (0..cfg.particles_per_rank)
        .map(|i| particle_value(step, prop, base + i))
        .collect()
}

/// The strided per-rank selection over *interleaved* particle storage:
/// rank `rank` of `ranks` owns every `ranks`-th element starting at
/// `rank`. This is the BD-CATS-IO access shape over VPIC output when
/// particles are stored interleaved rather than blocked per rank — and
/// the worst case for per-run I/O, since every one of the
/// `elems_per_rank` runs is a single element. The planner/vectored
/// benches use it as the canonical strided scenario.
pub fn interleaved_slab(rank: u32, ranks: u32, elems_per_rank: u64) -> Hyperslab {
    Hyperslab::strided(&[rank as u64], &[elems_per_rank], &[ranks as u64])
}

/// Run the kernel on the real engine. Returns per-epoch timings and, for
/// async mode, the connector statistics.
pub fn run_real(cfg: &VpicConfig, mode: KernelMode) -> h5lite::Result<RealRunReport> {
    run_real_into(cfg, mode).map(|(report, _file)| report)
}

/// Run on the real engine and hand back the file for further use (e.g. a
/// BD-CATS-IO read pass over the same container).
pub fn run_real_into(
    cfg: &VpicConfig,
    mode: KernelMode,
) -> h5lite::Result<(RealRunReport, File)> {
    let (file, async_vol) = make_file(mode);
    let report = write_into(&file, cfg, mode, async_vol)?;
    Ok((report, file))
}

/// Run on the real engine against a throttled backend emulating a storage
/// tier slower than memcpy (`bandwidth` bytes/s, `latency` seconds per
/// operation) — the regime where the async VOL's snapshot-and-return
/// genuinely hides I/O.
pub fn run_real_throttled(
    cfg: &VpicConfig,
    mode: KernelMode,
    bandwidth: f64,
    latency: f64,
) -> h5lite::Result<RealRunReport> {
    run_real_throttled_into(cfg, mode, bandwidth, latency).map(|(r, _)| r)
}

/// Throttled variant of [`run_real_into`].
pub fn run_real_throttled_into(
    cfg: &VpicConfig,
    mode: KernelMode,
    bandwidth: f64,
    latency: f64,
) -> h5lite::Result<(RealRunReport, File)> {
    let (file, async_vol) = crate::measure::make_file_throttled(mode, bandwidth, latency);
    let report = write_into(&file, cfg, mode, async_vol)?;
    Ok((report, file))
}

fn write_into(
    file: &File,
    cfg: &VpicConfig,
    mode: KernelMode,
    async_vol: Option<Arc<asyncvol::AsyncVol>>,
) -> h5lite::Result<RealRunReport> {
    let total_particles = cfg.particles_per_rank * cfg.ranks as u64;
    let t_start = Instant::now();
    let mut phases = Vec::with_capacity(cfg.timesteps as usize);
    for step in 0..cfg.timesteps {
        let group = file.root().create_group(&format!("Step#{step}"))?;
        let datasets: Vec<h5lite::Dataset> = PROPERTIES
            .iter()
            .map(|prop| group.create_dataset::<f32>(prop, &Dataspace::d1(total_particles)))
            .collect::<h5lite::Result<_>>()?;
        let io_start = Instant::now();
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for rank in 0..cfg.ranks {
                let datasets = &datasets;
                let cfg = &cfg;
                joins.push(scope.spawn(move || -> h5lite::Result<()> {
                    let slab = Hyperslab::range1(
                        rank as u64 * cfg.particles_per_rank,
                        cfg.particles_per_rank,
                    );
                    for (prop, ds) in datasets.iter().enumerate() {
                        let data = rank_payload(cfg, step, prop, rank);
                        match mode {
                            KernelMode::Sync => ds.write_slab(&slab, &data)?,
                            KernelMode::Async => {
                                // Drained collectively by wait_all after
                                // the epoch, not per-request.
                                let _ = ds.write_slab_async(
                                    &h5lite::Selection::Slab(slab.clone()),
                                    &data,
                                )?;
                            }
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
        phases.push(PhaseTiming {
            compute_secs: cfg.compute_secs,
            visible_io_secs: io_start.elapsed().as_secs_f64(),
        });
        if cfg.compute_secs > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(cfg.compute_secs));
        }
    }
    file.flush()?;
    Ok(RealRunReport {
        mode,
        ranks: cfg.ranks,
        bytes_per_epoch: cfg.bytes_per_epoch(),
        phases,
        wall_secs: t_start.elapsed().as_secs_f64(),
        async_stats: async_vol.map(|v| v.stats()),
    })
}

/// Verify every particle of every step against the deterministic
/// generator — catches ordering or snapshot-isolation bugs in the
/// connector under test.
pub fn verify(file: &File, cfg: &VpicConfig) -> h5lite::Result<()> {
    for step in 0..cfg.timesteps {
        let group = file.root().open_group(&format!("Step#{step}"))?;
        for (prop, name) in PROPERTIES.iter().enumerate() {
            let ds = group.open_dataset(name)?;
            let data: Vec<f32> = ds.read()?;
            for (i, &v) in data.iter().enumerate() {
                let expect = particle_value(step, prop, i as u64);
                if v != expect {
                    return Err(h5lite::H5Error::Corrupt(format!(
                        "step {step} prop {name} particle {i}: {v} != {expect}"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// The paper-scale simulator workload: weak scaling, ≈32 MiB per rank per
/// checkpoint, 30 s simulated compute (§IV-B).
pub fn workload(ranks: u32, timesteps: u32, compute_secs: f64) -> Workload {
    Workload {
        ranks,
        per_rank_bytes: PAPER_BYTES_PER_RANK,
        epochs: timesteps,
        compute_secs,
        direction: Direction::Write,
        t_init: 0.5,
        t_term: 0.2,
        perturb: Perturbation::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_slab_selects_every_ranks_th_element() {
        use h5lite::Selection;
        let space = Dataspace::d1(12);
        let sel = Selection::Slab(interleaved_slab(1, 4, 3));
        let runs = sel.runs(&space).unwrap();
        // Rank 1 of 4 over 12 elements: indices 1, 5, 9 — three
        // single-element runs (nothing for the linear coalescer to merge).
        assert_eq!(runs, vec![(1, 1), (5, 1), (9, 1)]);
    }

    #[test]
    fn config_sizes() {
        let cfg = VpicConfig::small(4, 2);
        assert_eq!(cfg.bytes_per_rank(), (1 << 14) * 8 * 4);
        assert_eq!(cfg.bytes_per_epoch(), cfg.bytes_per_rank() * 4);
        let w = workload(768, 5, 30.0);
        assert_eq!(w.per_rank_bytes, 32 * MIB);
        assert_eq!(w.ranks, 768);
    }

    #[test]
    fn particle_values_are_deterministic_and_distinct() {
        assert_eq!(particle_value(0, 0, 42), particle_value(0, 0, 42));
        assert_ne!(particle_value(0, 0, 42), particle_value(0, 0, 43));
        assert_ne!(particle_value(0, 0, 42), particle_value(1, 0, 42));
        assert_ne!(particle_value(0, 0, 42), particle_value(0, 1, 42));
        let v = particle_value(3, 5, 1 << 50);
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn sync_run_writes_correct_data() {
        let cfg = VpicConfig {
            ranks: 4,
            particles_per_rank: 512,
            timesteps: 2,
            compute_secs: 0.0,
        };
        let (report, file) = run_real_into(&cfg, KernelMode::Sync).unwrap();
        assert_eq!(report.phases.len(), 2);
        verify(&file, &cfg).unwrap();
    }

    #[test]
    fn async_run_writes_correct_data_after_drain() {
        let cfg = VpicConfig {
            ranks: 4,
            particles_per_rank: 512,
            timesteps: 3,
            compute_secs: 0.0,
        };
        let (report, file) = run_real_into(&cfg, KernelMode::Async).unwrap();
        verify(&file, &cfg).unwrap();
        let stats = report.async_stats.unwrap();
        // 3 steps × 8 properties × 4 ranks background writes.
        assert_eq!(stats.writes, 3 * 8 * 4);
        assert_eq!(stats.snapshot_bytes, 3 * cfg.bytes_per_epoch());
    }

    #[test]
    fn async_visible_io_is_smaller_than_sync_on_slow_storage() {
        // Over a storage tier slower than memcpy (here 200 MB/s + 1 ms per
        // op), the async path only pays the snapshot while sync pays the
        // full transfer — deterministically, not by timing luck.
        let cfg = VpicConfig {
            ranks: 2,
            particles_per_rank: 1 << 14,
            timesteps: 3,
            compute_secs: 0.05,
        };
        let sync = run_real_throttled(&cfg, KernelMode::Sync, 200e6, 1e-3).unwrap();
        let asy = run_real_throttled(&cfg, KernelMode::Async, 200e6, 1e-3).unwrap();
        assert!(
            asy.total_visible_io() < sync.total_visible_io() / 2.0,
            "async visible {} vs sync {}",
            asy.total_visible_io(),
            sync.total_visible_io()
        );
    }
}
