//! BD-CATS-IO: the clustering read kernel (§IV-B).
//!
//! BD-CATS (trillion-particle DBSCAN) reads the particle data VPIC wrote,
//! one time step per analysis epoch, with the clustering computation
//! replaced by a sleep. In asynchronous mode the behaviour matches the
//! paper's description of the VOL connector: *"prefetching is triggered
//! after reading data for the first time step. The first read is a
//! blocking operation since there is a dependency on the data for the
//! first computational phase"* (§V-A2). Each completed step schedules the
//! prefetch of the next step, whose background task reads and decodes it
//! during the clustering phase, so later reads only pay the buffer
//! delivery (plus any un-overlapped prefetch remainder).

use std::time::{Duration, Instant};

use asyncvol::AsyncVol;
use h5lite::{File, Hyperslab, Selection};
use mpisim::{RunResult, Workload};

use crate::measure::{measured_phase, particles_per_rank};
use crate::vpic::{particle_value, PROPERTIES};

/// Run `w` as reads over a container [`crate::vpic::run_real`] wrote
/// under the same sizes. `vol` is the async connector `file` was opened
/// through ([`crate::make_file`] over the written container, so a
/// sync-written file can be read asynchronously); with it, each step
/// prefetches the next, and without it every read blocks. `w.direction`,
/// `w.t_init` and `w.t_term` are model inputs the real run does not read.
///
/// Every rank spot-checks the first and last particle it reads against
/// the generator, so stale data is an error. `wall_secs` includes the
/// final drain.
pub fn run_real(file: &File, vol: Option<&AsyncVol>, w: &Workload) -> h5lite::Result<RunResult> {
    let particles = particles_per_rank(w)?;
    let t_start = Instant::now();
    let mut phases = Vec::with_capacity(w.epochs as usize);

    for step in 0..w.epochs {
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
            for rank in 0..w.ranks {
                let datasets = &datasets;
                joins.push(scope.spawn(move || -> h5lite::Result<()> {
                    let base = rank as u64 * particles;
                    let slab = Hyperslab::range1(base, particles);
                    for (prop, ds) in datasets.iter().enumerate() {
                        let data: Vec<f32> = ds.read_slab(&slab)?;
                        // Spot-check the first and last particle.
                        let first = particle_value(step, prop, base);
                        let last = particle_value(step, prop, base + particles - 1);
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
        if let Some(vol) = vol.filter(|_| step + 1 < w.epochs) {
            let next = file.root().open_group(&format!("Step#{}", step + 1))?;
            for prop in PROPERTIES {
                let ds = next.open_dataset(prop)?;
                for rank in 0..w.ranks {
                    let slab = Hyperslab::range1(rank as u64 * particles, particles);
                    // Fire-and-forget cache fill; hits are observed via
                    // read_async, not by waiting on this request.
                    let _ = vol.prefetch(file.container(), ds.id(), &Selection::Slab(slab));
                }
            }
        }

        let t_comp = w.effective_compute_secs(step);
        if t_comp > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(t_comp));
        }
        phases.push(measured_phase(
            vol.is_none() || step == 0,
            t_comp,
            visible_io_secs,
        ));
    }

    file.wait_all()?;
    Ok(RunResult {
        phases,
        wall_secs: t_start.elapsed().as_secs_f64(),
        phase_bytes: w.per_rank_bytes * w.ranks as u64,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use apio_core::history::IoMode;
    use h5lite::{Container, ThrottledBackend};

    use super::*;
    use crate::{make_file, vpic};

    fn small() -> Workload {
        Workload::analysis(4, (1 << 12) * 32, 4, 0.02)
    }

    /// Write `w` through `write_mode` into `container`, then open it for
    /// reading through `read_mode`.
    fn written(
        container: Container,
        w: &Workload,
        write_mode: IoMode,
        read_mode: IoMode,
    ) -> (File, Option<Arc<AsyncVol>>) {
        let (source, vol) = make_file(Arc::new(container), write_mode);
        vpic::run_real(&source, vol.as_deref(), w).unwrap();
        make_file(source.container().clone(), read_mode)
    }

    #[test]
    fn sync_read_verifies_written_data() {
        let w = small();
        let (file, vol) = written(Container::create_mem(), &w, IoMode::Sync, IoMode::Sync);
        let run = run_real(&file, vol.as_deref(), &w).unwrap();
        assert_eq!(run.phases.len(), 4);
        assert!(vol.is_none());
    }

    #[test]
    fn async_read_prefetches_later_steps() {
        let w = small();
        let (file, vol) = written(Container::create_mem(), &w, IoMode::Sync, IoMode::Async);
        run_real(&file, vol.as_deref(), &w).unwrap();
        let stats = vol.unwrap().stats();
        // Steps 1..4 read 8 props × 4 ranks each from prefetch.
        let expected_hits = (w.epochs as u64 - 1) * 8 * w.ranks as u64;
        assert_eq!(stats.prefetch_hits, expected_hits);
        // Only step 0 was read cold.
        assert_eq!(stats.blocking_reads, 8 * w.ranks as u64);
    }

    #[test]
    fn async_read_data_is_still_correct() {
        // The in-kernel spot checks run on every rank/prop/step; a
        // connector bug surfaces as a Corrupt error here.
        let w = small();
        let (file, vol) = written(Container::create_mem(), &w, IoMode::Async, IoMode::Async);
        run_real(&file, vol.as_deref(), &w).unwrap();
    }

    #[test]
    fn async_later_steps_are_faster_with_compute_overlap() {
        // Over throttled storage (50 MB/s) the blocking first step pays
        // the full read while prefetched steps only pay delivery.
        let w = Workload::analysis(2, (1 << 13) * 32, 3, 0.05);
        let slow = Container::create(Arc::new(ThrottledBackend::in_memory(50e6, 2e-4)));
        let (file, vol) = written(slow, &w, IoMode::Sync, IoMode::Async);
        let bws = run_real(&file, vol.as_deref(), &w)
            .unwrap()
            .phase_bandwidths();
        assert!(
            bws[1] > 2.0 * bws[0] && bws[2] > 2.0 * bws[0],
            "prefetched steps should beat the blocking first step: {bws:?}"
        );
    }
}
