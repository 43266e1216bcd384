//! Connector ablation: what a dataset write costs the *calling thread*
//! under the native VOL (full transfer) versus the async VOL (snapshot
//! only), what the snapshot itself costs, what a read costs it cold
//! versus as a prefetch hit, and — since the planner
//! landed — what coalescing buys a strided BD-CATS-style selection over
//! the historical one-backend-op-per-run path.
//!
//! Everything is a printed table, planned-vs-per-run speedups included.
//!
//! `--trace-out <path>` additionally runs one traced async VPIC-style
//! epoch and writes its Chrome `trace_event` export to `<path>` (works
//! under `--smoke`; CI uses it to keep the exporter loadable).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apio_bench::harness::{bench, bench_bytes, bench_custom, bench_elems, section, Sample};
use apio_trace::{export, Tracer};
use asyncvol::AsyncVol;
use h5lite::container::ROOT_ID;
use h5lite::{
    Container, Dataspace, Datatype, File, Hyperslab, IoPlan, IoVec, Layout, MemBackend, NativeVol,
    Selection, StorageBackend, ThrottledBackend, Vol,
};
use kernels::vpic::interleaved_slab;
use std::hint::black_box;

const SIZES: [usize; 3] = [1 << 16, 1 << 20, 1 << 24];

/// Visible write latency through the native connector on throttled
/// storage (the sync baseline).
fn sync_visible_write() {
    section("visible_write_sync");
    for bytes in SIZES {
        let data = vec![1.0f32; bytes / 4];
        // 2 GB/s throttle: fast enough to keep the benchmark quick,
        // slow enough to dominate the memcpy.
        let backend = Arc::new(ThrottledBackend::in_memory(2e9, 0.0));
        let file = File::from_parts(
            Arc::new(Container::create(backend)),
            Arc::new(NativeVol::new()),
        );
        let ds = file
            .root()
            .create_dataset::<f32>("x", &Dataspace::d1((bytes / 4) as u64))
            .unwrap();
        bench_bytes(&format!("visible_write_sync/{bytes}"), bytes as u64, || {
            ds.write(black_box(&data)).unwrap();
        });
    }
}

/// Visible write latency through the async connector (snapshot only; the
/// background wait is excluded by timing only the submission).
fn async_visible_write() {
    section("visible_write_async");
    for bytes in SIZES {
        let data = vec![1.0f32; bytes / 4];
        let backend = Arc::new(ThrottledBackend::in_memory(2e9, 0.0));
        let vol = Arc::new(AsyncVol::new());
        let file = File::from_parts(Arc::new(Container::create(backend)), vol);
        let ds = file
            .root()
            .create_dataset::<f32>("x", &Dataspace::d1((bytes / 4) as u64))
            .unwrap();
        bench_custom(&format!("visible_write_async/{bytes}"), |iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let t0 = Instant::now();
                let req = ds.write_async(black_box(&data)).unwrap();
                total += t0.elapsed();
                // Drain outside the timed region so requests don't
                // pile up unboundedly.
                ds.wait(req).unwrap();
            }
            total
        });
    }
}

/// Visible read latency through the async connector, typed API: a cold
/// read (blocking read, verify, decode on the calling thread) against a
/// prefetch hit (the background job read and decoded it; the call takes
/// the finished elements). The prefetch and its drain are untimed.
fn visible_read() {
    section("visible_read");
    let mut rows = Vec::new();
    for bytes in [1usize << 19, 1 << 24] {
        let n = (bytes / 4) as u64;
        let vol = Arc::new(AsyncVol::new());
        let file = File::from_parts(Arc::new(Container::create_mem()), vol.clone());
        let ds = file.root().create_dataset::<f32>("x", &Dataspace::d1(n)).unwrap();
        ds.write(&vec![1.0f32; n as usize]).unwrap();
        file.flush().unwrap();

        let cold = bench_bytes(&format!("visible_read_cold/{bytes}"), bytes as u64, || {
            black_box(ds.read::<f32>().unwrap());
        });
        let hit = bench_custom(&format!("visible_read_hit/{bytes}"), |iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let _ = vol.prefetch(file.container(), ds.id(), &Selection::All);
                file.wait_all().unwrap();
                let t0 = Instant::now();
                black_box(ds.read::<f32>().unwrap());
                total += t0.elapsed();
            }
            total
        });
        rows.push((bytes, cold.secs_per_iter(), hit.secs_per_iter()));
    }
    println!("\n| read | cold | prefetch hit | hit / cold |\n|---|---|---|---|");
    // A hit is a hand-off, microseconds at either size: µs, and a ratio
    // with four decimals.
    for (bytes, cold, hit) in rows {
        let size = match bytes >> 20 {
            0 => format!("{} KiB", bytes >> 10),
            mib => format!("{mib} MiB"),
        };
        println!(
            "| {size} | {:.3} ms | {:.1} µs | {:.4}× |",
            cold * 1e3,
            hit * 1e6,
            hit / cold
        );
    }
}

/// End-to-end epoch: compute + write, sync vs async — the smallest
/// reproduction of Fig. 1's comparison on real threads.
fn epoch_overlap() {
    section("epoch");
    let bytes = 1 << 22; // 4 MiB
    let compute = Duration::from_millis(4);
    let data = vec![1.0f32; bytes / 4];

    {
        let backend = Arc::new(ThrottledBackend::in_memory(1e9, 0.0));
        let file = File::from_parts(
            Arc::new(Container::create(backend)),
            Arc::new(NativeVol::new()),
        );
        let ds = file
            .root()
            .create_dataset::<f32>("x", &Dataspace::d1((bytes / 4) as u64))
            .unwrap();
        bench("epoch/sync", || {
            std::thread::sleep(compute);
            ds.write(black_box(&data)).unwrap();
        });
    }
    {
        let backend = Arc::new(ThrottledBackend::in_memory(1e9, 0.0));
        let vol = Arc::new(AsyncVol::new());
        let file = File::from_parts(Arc::new(Container::create(backend)), vol);
        let ds = file
            .root()
            .create_dataset::<f32>("x", &Dataspace::d1((bytes / 4) as u64))
            .unwrap();
        bench("epoch/async", || {
            // The previous iteration's write overlaps this sleep; the
            // requests are drained collectively by wait_all below.
            std::thread::sleep(compute);
            let _ = ds.write_async(black_box(&data)).unwrap();
        });
        file.wait_all().unwrap();
    }
}

/// Resilience ablation: epoch time with the retry path in place but
/// idle (0% faults — the overhead must be indistinguishable from the
/// plain connector) and under a 1% transient-fault rate (the cost of
/// absorbing real faults, still with zero application-visible errors).
fn chaos() {
    use apio_bench::chaos::run_chaos_epoch;
    section("chaos");
    let bytes_per_op = 1 << 16; // 64 KiB slabs
    let ops = 64u64;
    let total = bytes_per_op as u64 * ops;
    for (name, rate) in [("chaos/faults_0pct", 0.0), ("chaos/faults_1pct", 0.01)] {
        bench_bytes(name, total, || {
            let r = run_chaos_epoch(rate, bytes_per_op, ops, 0xC4A05).unwrap();
            black_box(r);
        });
    }
    // One non-timed run per rate so the printed retry counts document
    // what the 1% line actually absorbed.
    for rate in [0.0, 0.01] {
        let r = run_chaos_epoch(rate, bytes_per_op, ops, 0xC4A05).unwrap();
        println!(
            "chaos: rate {:>4.1}%  injected {:>3}  retries {:>3}  epoch {:8.3} ms",
            r.fault_rate * 100.0,
            r.injected,
            r.retries,
            r.epoch_secs * 1e3
        );
    }
}

/// Planner and vectored-backend micro-costs: how long building an
/// [`IoPlan`] over a pathological many-run selection takes, and what a
/// scatter batch costs through `write_vectored_at` versus the same
/// segments issued one scalar call at a time.
fn ioplan_micro() {
    section("ioplan_micro");

    // 2048 single-element f32 runs — the strided worst case below.
    let space = Dataspace::d1(4 * 2048);
    let sel = Selection::Slab(interleaved_slab(1, 4, 2048));
    let runs = sel.runs(&space).unwrap();
    bench_elems("ioplan/build_contiguous_2048_runs", runs.len() as u64, || {
        black_box(IoPlan::for_contiguous(black_box(64), 4, &runs).unwrap());
    });

    bench_elems("ioplan/build_chunked_2048_runs", runs.len() as u64, || {
        black_box(
            IoPlan::for_chunked(256, 4, &runs, |idx| Some(black_box(idx) * 1024)).unwrap(),
        );
    });

    // 1024 scattered 4-byte segments, 16 bytes apart: scalar loop vs one
    // vectored batch against the raw sharded MemBackend.
    let nsegs = 1024u64;
    let payload = vec![0xA5u8; (nsegs * 4) as usize];
    let backend = MemBackend::new();
    let batch: Vec<IoVec<'_>> = (0..nsegs)
        .map(|i| IoVec {
            offset: i * 16,
            data: &payload[(i * 4) as usize..(i * 4 + 4) as usize],
        })
        .collect();

    bench_bytes("membackend/write_scalar_1024x4B", nsegs * 4, || {
        for seg in &batch {
            backend.write_at(seg.offset, seg.data).unwrap();
        }
    });

    bench_bytes("membackend/write_vectored_1024x4B", nsegs * 4, || {
        backend.write_vectored_at(black_box(&batch)).unwrap();
    });
}

/// The BD-CATS-IO pattern the planner exists for: rank `r` of `R` owns
/// every `R`-th element of a shared 1-D dataset, so one rank's selection
/// is thousands of single-element runs. `*_planned` issues the whole
/// selection through the coalescing path; `*_per_run` replays the
/// pre-planner granularity — one single-run `write_selection`/
/// `read_selection` call per run (one metadata-lock acquisition and one
/// scalar-sized backend op each), which is exactly what the old code
/// did internally. Ends with the planned-over-per-run speedup of every
/// variant.
fn strided_vpic() {
    section("strided_vpic");
    let ranks = 4u32;
    let elems_per_rank = 2048u64; // 2048 runs ≥ the 1k-run acceptance bar
    let space = Dataspace::d1(ranks as u64 * elems_per_rank);
    let sel = Selection::Slab(interleaved_slab(1, ranks, elems_per_rank));
    let runs = sel.runs(&space).unwrap();
    let bytes = elems_per_rank * 4;
    let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();

    // (variant, backend latency, layout). 5 µs/op models a cheap NVMe
    // round trip: the per-run path pays it ~2048×, the planned path
    // ceil(2048/COALESCE_WINDOW) = 2×.
    let variants: [(&str, Option<f64>, Layout); 3] = [
        ("mem_contig", None, Layout::Contiguous),
        ("mem_chunked", None, Layout::Chunked1D { chunk_elems: 256 }),
        ("throttled_contig", Some(5e-6), Layout::Contiguous),
    ];

    let speedup = |planned: Sample, per_run: Sample| {
        per_run.secs_per_iter() / planned.secs_per_iter().max(1e-12)
    };
    let mut speedups = Vec::new();
    for (tag, latency, layout) in variants {
        let backend: Arc<dyn StorageBackend> = match latency {
            None => Arc::new(MemBackend::new()),
            Some(lat) => Arc::new(ThrottledBackend::in_memory(8e9, lat)),
        };
        let c = Container::create(backend);
        let id = c
            .create_dataset(ROOT_ID, "x", Datatype::F32, &space, layout)
            .unwrap();
        // Touch every chunk once so both paths measure steady state
        // (no first-write allocation inside the timed region).
        c.write_selection(id, &sel, &data).unwrap();

        let planned = bench_bytes(&format!("strided_vpic/{tag}/write_planned"), bytes, || {
            c.write_selection(id, black_box(&sel), black_box(&data))
                .unwrap();
        });

        let per_run = bench_bytes(&format!("strided_vpic/{tag}/write_per_run"), bytes, || {
            let mut cur = 0usize;
            for &(off, len) in &runs {
                let nb = (len * 4) as usize;
                c.write_selection(
                    id,
                    &Selection::Slab(Hyperslab::range1(off, len)),
                    &data[cur..cur + nb],
                )
                .unwrap();
                cur += nb;
            }
        });
        speedups.push((format!("strided_vpic/{tag}/write"), speedup(planned, per_run)));

        let planned = bench_bytes(&format!("strided_vpic/{tag}/read_planned"), bytes, || {
            black_box(c.read_selection(id, black_box(&sel)).unwrap());
        });

        let per_run = bench_bytes(&format!("strided_vpic/{tag}/read_per_run"), bytes, || {
            for &(off, len) in &runs {
                black_box(
                    c.read_selection(id, &Selection::Slab(Hyperslab::range1(off, len)))
                        .unwrap(),
                );
            }
        });
        speedups.push((format!("strided_vpic/{tag}/read"), speedup(planned, per_run)));
    }

    println!("\n== planned / per_run speedups ==");
    for (name, x) in speedups {
        println!("{name:<44} {x:8.2}x");
    }
}

/// Value of `--trace-out <path>` (or `--trace-out=<path>`), if given.
fn trace_out_path() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next().map(PathBuf::from);
        }
        if let Some(p) = a.strip_prefix("--trace-out=") {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// One traced async VPIC-style epoch — the connector and the container
/// share a tracer, so the export shows the submit-side spans
/// (`vol.write` ⊇ `vol.snapshot` ⊇ `wal.append`) nested on the app
/// thread and the background `vol.execute` ⊇ `container.plan_io` ⊇
/// `backend.batch` chain on the stream thread. Written as Chrome
/// `trace_event` JSON, loadable in `chrome://tracing` / Perfetto.
fn export_trace(path: &Path) {
    let tracer = Tracer::new();
    let c = Arc::new(Container::create_mem());
    let space = Dataspace::d1(4 * 1024);
    let ids: Vec<_> = (0..3)
        .map(|p| {
            c.create_dataset(
                ROOT_ID,
                &format!("prop{p}"),
                Datatype::F32,
                &space,
                Layout::Contiguous,
            )
            .unwrap()
        })
        .collect();
    c.flush().unwrap();
    c.set_tracer(tracer.clone());
    let vol = AsyncVol::builder()
        .streams(1)
        .stage_to_device(Arc::new(MemBackend::new()))
        .tracer(tracer.clone())
        .build();
    for step in 0..4u64 {
        for &ds in &ids {
            let vals = vec![step as f32; 1024];
            let sel = Selection::Slab(Hyperslab::range1(step * 1024, 1024));
            let bytes = h5lite::datatype::to_bytes(&vals);
            // Requests are drained collectively by wait_all below.
            let _ = vol.dataset_write(&c, ds, &sel, &bytes).unwrap();
        }
    }
    vol.wait_all().unwrap();

    let json = export::chrome_json(tracer.sink().records());
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {} ({} bytes)", path.display(), json.len()),
        Err(e) => println!("\nfailed to write {}: {e}", path.display()),
    }
}

fn main() {
    sync_visible_write();
    async_visible_write();
    visible_read();
    epoch_overlap();
    chaos();
    ioplan_micro();
    strided_vpic();
    if let Some(path) = trace_out_path() {
        export_trace(&path);
    }
}
