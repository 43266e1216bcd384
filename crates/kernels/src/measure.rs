//! The real engine: the connector wiring, the one epoch loop both
//! kernels run, and how a measured epoch fills [`PhaseMeasure`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use apio_core::history::{Direction, IoMode};
use asyncvol::AsyncVol;
use h5lite::ring::{Ring, RingConfig};
use h5lite::{Container, Dataspace, File, H5Error, Hyperslab, NativeVol, Selection, Vol};
use mpisim::{PhaseMeasure, RunResult, Workload};

use crate::vpic::{particle_value, PROPERTIES};

/// Open `container` through the connector `mode` selects. The async
/// connector is the stack the end-to-end benchmark's VPIC rows time: a
/// one-shard [`Ring`] over the container's own backend. Its handle comes
/// back beside the file: [`run_real`] takes it as its mode (`None` is
/// native, synchronous I/O), and the caller reads its stats.
pub fn make_file(container: Arc<Container>, mode: IoMode) -> (File, Option<Arc<AsyncVol>>) {
    match mode {
        IoMode::Sync => (
            File::from_parts(container, Arc::new(NativeVol::new())),
            None,
        ),
        IoMode::Async => {
            let config = RingConfig {
                shards: 1,
                ..RingConfig::default()
            };
            let ring = Arc::new(Ring::new(container.backend(), config));
            let vol = Arc::new(AsyncVol::builder().ring(ring).build());
            let dynvol: Arc<dyn Vol> = vol.clone();
            (File::from_parts(container, dynvol), Some(vol))
        }
    }
}

/// Run `w` on the real engine: `w.epochs` epochs of one thread per rank,
/// each moving its slab of the 8 particle properties of time step
/// `Step#k` in the direction `w.direction` names. `vol` is the async
/// connector `file` was opened through ([`make_file`], or any
/// [`AsyncVol`] the caller built); `None` is the native one. `w.t_init`
/// and `w.t_term` are model inputs the real run does not read.
///
/// - **Write** (VPIC-IO, §IV-B) creates `Step#k` and writes every rank's
///   slab of each property, generated before the timed phase. Async
///   writes are drained collectively by the final `flush`.
/// - **Read** (BD-CATS-IO, §IV-B) opens `Step#k` of a container written
///   under the same sizes, and every rank spot-checks the first and last
///   particle it reads against the generator, so stale data is an error.
///   The clustering computation is the compute sleep. On an async
///   connector this is the paper's prefetch: *"prefetching is triggered
///   after reading data for the first time step. The first read is a
///   blocking operation since there is a dependency on the data for the
///   first computational phase"* (§V-A2). Each step prefetches the next
///   before computing, so later reads pay only the delivery, plus any
///   un-overlapped remainder. The run ends at `wait_all`.
///
/// Each epoch's `visible_io_secs` covers the rank threads' I/O calls
/// only; the compute sleep (`w.effective_compute_secs`) follows it. A
/// phase is blocking on the native connector, and on the first step of
/// an async read. `wall_secs` includes the final drain.
pub fn run_real(file: &File, vol: Option<&AsyncVol>, w: &Workload) -> h5lite::Result<RunResult> {
    let particles = particles_per_rank(w)?;
    let write = w.direction == Direction::Write;
    let slab = |rank: u64| Hyperslab::range1(rank * particles, particles);
    let t_start = Instant::now();
    let mut phases = Vec::with_capacity(w.epochs as usize);
    for step in 0..w.epochs {
        let name = format!("Step#{step}");
        let datasets = if write {
            let group = file.root().create_group(&name)?;
            let space = Dataspace::d1(particles * w.ranks as u64);
            let create = |p: &&str| group.create_dataset::<f32>(p, &space);
            PROPERTIES.iter().map(create).collect::<h5lite::Result<Vec<_>>>()
        } else {
            let group = file.root().open_group(&name)?;
            PROPERTIES.iter().map(|p| group.open_dataset(p)).collect()
        }?;
        // A write's payloads are generated before the timed phase.
        let values = |rank, prop| {
            let base = rank * particles;
            (base..base + particles).map(|i| particle_value(step, prop, i)).collect()
        };
        let payloads: Vec<Vec<Vec<f32>>> = if write {
            let rank = |rank| (0..PROPERTIES.len()).map(|prop| values(rank, prop)).collect();
            (0..w.ranks as u64).map(rank).collect()
        } else {
            Vec::new()
        };

        let io_start = Instant::now();
        std::thread::scope(|scope| {
            let joins: Vec<_> = (0..w.ranks as u64)
                .map(|rank| {
                    let (datasets, payloads, slab) = (&datasets, &payloads, slab(rank));
                    scope.spawn(move || -> h5lite::Result<()> {
                        for (prop, ds) in datasets.iter().enumerate() {
                            if write {
                                // Native writes are done when the call
                                // returns; async ones fail at the final
                                // `flush`, which drains them collectively.
                                let sel = Selection::Slab(slab.clone());
                                let _ = ds.write_slab_async(&sel, &payloads[rank as usize][prop])?;
                                continue;
                            }
                            let data: Vec<f32> = ds.read_slab(&slab)?;
                            // Spot-check the first and last particle.
                            let base = rank * particles;
                            let first = particle_value(step, prop, base);
                            let last = particle_value(step, prop, base + particles - 1);
                            if data[0] != first || *data.last().unwrap() != last {
                                return Err(H5Error::Corrupt(format!(
                                    "step {step} prop {prop} rank {rank}: stale data"
                                )));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            joins.into_iter().try_for_each(|j| j.join().expect("rank thread panicked"))
        })?;
        let visible_io_secs = io_start.elapsed().as_secs_f64();

        // Schedule the next step's prefetch before computing, so the
        // prefetch overlaps the clustering phase.
        if let Some(vol) = vol.filter(|_| !write && step + 1 < w.epochs) {
            let next = file.root().open_group(&format!("Step#{}", step + 1))?;
            for prop in PROPERTIES {
                let ds = next.open_dataset(prop)?;
                for rank in 0..w.ranks as u64 {
                    // A failed prefetch fails the read that hits its
                    // slot, or else the final `wait_all`.
                    let _ = vol.prefetch(file.container(), ds.id(), &Selection::Slab(slab(rank)));
                }
            }
        }

        let t_comp = w.effective_compute_secs(step);
        if t_comp > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(t_comp));
        }
        let blocking = vol.is_none() || (!write && step == 0);
        phases.push(measured_phase(blocking, t_comp, visible_io_secs));
    }
    if write {
        file.flush()?;
    } else {
        file.wait_all()?;
    }
    Ok(RunResult {
        phases,
        wall_secs: t_start.elapsed().as_secs_f64(),
        phase_bytes: w.per_rank_bytes * w.ranks as u64,
    })
}

/// Particles each rank owns under `w`: `per_rank_bytes` over one
/// particle's 8 `f32` properties. A run of no particles, or of a size
/// that is not a whole number of them, is rejected before anything is
/// created.
fn particles_per_rank(w: &Workload) -> h5lite::Result<u64> {
    let particle = PROPERTIES.len() as u64 * 4;
    if w.per_rank_bytes == 0 || !w.per_rank_bytes.is_multiple_of(particle) {
        return Err(H5Error::ShapeMismatch(format!(
            "per_rank_bytes {} is not a positive multiple of a particle's {particle} bytes",
            w.per_rank_bytes
        )));
    }
    Ok(w.per_rank_bytes / particle)
}

/// One measured epoch. A blocking epoch (every sync one, and an async
/// read's first) is all transfer, as in the simulator's sync run. Any
/// other async epoch's wait is Eq. 2b's transactional overhead, and when
/// its data landed is not observed, so `background_io_secs` is NaN.
fn measured_phase(blocking: bool, t_comp: f64, visible_io_secs: f64) -> PhaseMeasure {
    let (overhead_secs, background_io_secs) = if blocking {
        (0.0, visible_io_secs)
    } else {
        (visible_io_secs, f64::NAN)
    };
    PhaseMeasure {
        t_comp,
        visible_io_secs,
        overhead_secs,
        background_io_secs,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use h5lite::{Call, CountingBackend, MemBackend, ThrottledBackend};

    use super::*;

    #[test]
    fn make_file_wires_the_connector() {
        let (f, none) = make_file(Arc::new(Container::create_mem()), IoMode::Sync);
        assert_eq!(f.vol().name(), "native");
        assert!(none.is_none());
        let (f, some) = make_file(Arc::new(Container::create_mem()), IoMode::Async);
        assert_eq!(f.vol().name(), "async");
        assert!(some.is_some());

        // Async is the ring: the data lands from its reaper, and none of
        // it from the task transport's `argolite-es-*` streams.
        let from_streams = Arc::new(AtomicU64::new(0));
        let seen = from_streams.clone();
        let device = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            let name = std::thread::current().name().map(str::to_owned);
            if matches!(call, Call::Write { .. }) && name.is_some_and(|n| n.starts_with("argolite")) {
                seen.fetch_add(1, Ordering::SeqCst);
            }
            Ok(())
        });
        let device = Arc::new(device);
        let (file, vol) = make_file(Arc::new(Container::create(device.clone())), IoMode::Async);
        run_real(&file, vol.as_deref(), &Workload::checkpoint(2, 64 * 32, 1, 0.0)).unwrap();
        assert!(device.counts().write_batches > 0);
        assert_eq!(from_streams.load(Ordering::SeqCst), 0);
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

    #[test]
    fn async_later_steps_are_faster_with_compute_overlap() {
        // Over throttled storage (50 MB/s) the blocking first step pays
        // the full read while prefetched steps only pay delivery.
        let w = Workload::analysis(2, (1 << 13) * 32, 3, 0.05);
        let slow = Container::create(Arc::new(ThrottledBackend::in_memory(50e6, 2e-4)));
        let (source, _) = make_file(Arc::new(slow), IoMode::Sync);
        let checkpoint = Workload { direction: Direction::Write, ..w.clone() };
        run_real(&source, None, &checkpoint).unwrap();
        let (file, vol) = make_file(source.container().clone(), IoMode::Async);
        let bws = run_real(&file, vol.as_deref(), &w)
            .unwrap()
            .phase_bandwidths();
        assert!(
            bws[1] > 2.0 * bws[0] && bws[2] > 2.0 * bws[0],
            "prefetched steps should beat the blocking first step: {bws:?}"
        );
    }
}
