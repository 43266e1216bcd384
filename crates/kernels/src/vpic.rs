//! VPIC-IO: the plasma-physics particle write kernel (§IV-B).
//!
//! Extracted from the Vector Particle-In-Cell code, the kernel emulates
//! checkpointing particle data: each rank owns `per_rank_bytes / 32`
//! particles with 8 `f32` properties; every time step, each property is
//! written to a 1-D dataset (`/Step#t/<prop>`), every rank writing its own
//! hyperslab. Data size scales with ranks (weak scaling). The paper's
//! configuration is 8×1024×1024 particles (≈32 MB) per rank with a 30 s
//! simulated compute phase between checkpoints.

use std::time::{Duration, Instant};

use asyncvol::AsyncVol;
use h5lite::{Dataspace, File, Hyperslab};
use mpisim::{RunResult, Workload};
use platform::units::MIB;

use crate::measure::{measured_phase, particles_per_rank};

/// The 8 particle properties VPIC-IO writes (h5bench's naming).
pub const PROPERTIES: [&str; 8] = ["x", "y", "z", "i", "ux", "uy", "uz", "q"];

/// Per-rank payload per checkpoint at paper scale (≈32 MB per rank).
pub const PAPER_BYTES_PER_RANK: u64 = 32 * MIB;

/// Deterministic particle property value: reproducible across runs and
/// cheap enough not to pollute the I/O timing.
pub fn particle_value(step: u32, prop: usize, global_index: u64) -> f32 {
    let h = (global_index ^ (step as u64) << 40 ^ (prop as u64) << 56)
        .wrapping_mul(0x9E3779B97F4A7C15);
    // Map to a stable, finite float in [0, 1).
    (h >> 40) as f32 / (1u64 << 24) as f32
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

/// Run `w` on the real engine: `w.epochs` checkpoints into `file`, one
/// thread per rank, then a flush. `vol` is the async connector `file`
/// was opened through ([`crate::make_file`]); `None` writes through the
/// native one. `w.direction`, `w.t_init` and `w.t_term` are model inputs
/// the real run does not read.
///
/// Each epoch's `visible_io_secs` covers the rank threads' write calls
/// only: the payloads are generated before it starts, and the compute
/// sleep (`w.effective_compute_secs`) follows it. `wall_secs` includes
/// the final flush.
pub fn run_real(file: &File, vol: Option<&AsyncVol>, w: &Workload) -> h5lite::Result<RunResult> {
    let particles = particles_per_rank(w)?;
    let is_async = vol.is_some();
    let t_start = Instant::now();
    let mut phases = Vec::with_capacity(w.epochs as usize);
    for step in 0..w.epochs {
        let group = file.root().create_group(&format!("Step#{step}"))?;
        let datasets: Vec<h5lite::Dataset> = PROPERTIES
            .iter()
            .map(|prop| {
                group.create_dataset::<f32>(prop, &Dataspace::d1(particles * w.ranks as u64))
            })
            .collect::<h5lite::Result<_>>()?;
        let payloads: Vec<Vec<Vec<f32>>> = (0..w.ranks as u64)
            .map(|rank| {
                (0..PROPERTIES.len())
                    .map(|prop| {
                        (rank * particles..(rank + 1) * particles)
                            .map(|i| particle_value(step, prop, i))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let io_start = Instant::now();
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for (rank, props) in payloads.iter().enumerate() {
                let datasets = &datasets;
                joins.push(scope.spawn(move || -> h5lite::Result<()> {
                    let slab = Hyperslab::range1(rank as u64 * particles, particles);
                    for (ds, data) in datasets.iter().zip(props) {
                        if is_async {
                            // Drained collectively by the final flush,
                            // not per request.
                            let _ =
                                ds.write_slab_async(&h5lite::Selection::Slab(slab.clone()), data)?;
                        } else {
                            ds.write_slab(&slab, data)?;
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
        let t_comp = w.effective_compute_secs(step);
        if t_comp > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(t_comp));
        }
        phases.push(measured_phase(!is_async, t_comp, visible_io_secs));
    }
    file.flush()?;
    Ok(RunResult {
        phases,
        wall_secs: t_start.elapsed().as_secs_f64(),
        phase_bytes: w.per_rank_bytes * w.ranks as u64,
    })
}

/// Verify every particle of every step against the deterministic
/// generator — catches ordering or snapshot-isolation bugs in the
/// connector under test.
pub fn verify(file: &File, w: &Workload) -> h5lite::Result<()> {
    for step in 0..w.epochs {
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use apio_core::history::IoMode;
    use h5lite::{Container, ThrottledBackend};

    use super::*;
    use crate::make_file;

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
        let w = Workload::checkpoint(4, 512 * 32, 2, 0.0);
        let (file, vol) = make_file(Arc::new(Container::create_mem()), IoMode::Sync);
        let run = run_real(&file, vol.as_deref(), &w).unwrap();
        assert_eq!(run.phases.len(), 2);
        verify(&file, &w).unwrap();
    }

    #[test]
    fn async_run_writes_correct_data_after_drain() {
        let w = Workload::checkpoint(4, 512 * 32, 3, 0.0);
        let (file, vol) = make_file(Arc::new(Container::create_mem()), IoMode::Async);
        let run = run_real(&file, vol.as_deref(), &w).unwrap();
        verify(&file, &w).unwrap();
        let stats = vol.unwrap().stats();
        // 3 steps × 8 properties × 4 ranks background writes.
        assert_eq!(stats.writes, 3 * 8 * 4);
        assert_eq!(stats.snapshot_bytes, 3 * run.phase_bytes);
    }

    #[test]
    fn async_visible_io_is_smaller_than_sync_on_slow_storage() {
        // Over a storage tier slower than memcpy (here 200 MB/s + 1 ms per
        // op), the async path only pays the snapshot while sync pays the
        // full transfer — deterministically, not by timing luck.
        let w = Workload::checkpoint(2, (1 << 14) * 32, 3, 0.05);
        let visible = |mode| {
            let backend = Arc::new(ThrottledBackend::in_memory(200e6, 1e-3));
            let (file, vol) = make_file(Arc::new(Container::create(backend)), mode);
            run_real(&file, vol.as_deref(), &w)
                .unwrap()
                .total_visible_io()
        };
        let (sync, asy) = (visible(IoMode::Sync), visible(IoMode::Async));
        assert!(asy < sync / 2.0, "async visible {asy} vs sync {sync}");
    }
}
