//! §III-B1 micro-benchmark, for real: host memcpy bandwidth vs transfer
//! size. The paper's observation — bandwidth ramps with size and is
//! constant past tens of MB — is measured here on the machine running the
//! benchmark, validating the saturating-curve shape of
//! `platform::MemcpyModel`.
//!
//! Since the ring backend landed, this binary also owns the queue-depth
//! sweep (depth ∈ {1, 4, 16, 64} × op size {4 KiB, 64 KiB, 1 MiB}), the
//! 64 KiB-op epoch comparison, and since the flush reads back on lanes,
//! its wall time against the device's channel count. Everything is a
//! printed table.

use apio_bench::harness::{bench, bench_bytes, bench_custom, section, Sample};
use apio_trace::Tracer;
use asyncvol::AsyncVol;
use h5lite::checksum::xxh64;
use h5lite::container::ROOT_ID;
use h5lite::ring::{Ring, RingConfig, RingOp};
use h5lite::superblock::{fnv1a64, FNV_BASIS};
use h5lite::{
    Call, Container, CountingBackend, Dataspace, Datatype, Hyperslab, Layout, Selection,
    StorageBackend, ThrottledBackend, Vol,
};
use kernels::vpic::interleaved_slab;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn memcpy_by_size() {
    section("real_memcpy");
    for exp in [12u32, 16, 20, 22, 24, 25] {
        let bytes = 1usize << exp;
        let src = vec![0xA5u8; bytes];
        bench_bytes(&format!("real_memcpy/{bytes}"), bytes as u64, || {
            // The transactional snapshot is exactly this: a fresh
            // allocation plus a copy of the caller's buffer.
            let snapshot = black_box(&src).to_vec();
            black_box(snapshot.len());
        });
    }
}

fn model_copy_time() {
    // The modeled counterpart (pure arithmetic) — here to quantify that
    // consulting the model is ~free relative to doing the copy.
    section("model");
    let sys = platform::summit();
    bench("model_copy_time_32MiB", || {
        black_box(sys.memcpy.copy_time(black_box(32 << 20)));
    });
}

/// Cost of one span guard (create + RAII close) on a disabled or enabled
/// tracer. A fresh tracer per batch keeps the enabled variant from
/// accumulating records across the auto-scaled measurement loop.
fn span_cost(name: &str, enabled: bool) -> Sample {
    bench_custom(name, |iters| {
        let t = if enabled {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let t0 = Instant::now();
        for _ in 0..iters {
            drop(black_box(t.span("bench.span")));
        }
        t0.elapsed()
    })
}

/// A rank's strided BD-CATS-style write (2048 single-element runs)
/// through the container's planned path, with a tracer from `mk`
/// installed (fresh per batch so full tracing doesn't accumulate records
/// across the auto-scaled measurement loop).
fn traced_strided_write(name: &str, mk: impl Fn() -> Tracer) -> Sample {
    let space = Dataspace::d1(4 * 2048);
    let sel = Selection::Slab(interleaved_slab(1, 4, 2048));
    let data = h5lite::datatype::to_bytes(&vec![1.0f32; 2048]);
    bench_custom(name, |iters| {
        let c = Container::create_mem();
        let id = c
            .create_dataset(ROOT_ID, "x", Datatype::F32, &space, Layout::Contiguous)
            .unwrap();
        c.set_tracer(mk());
        c.write_selection(id, &sel, &data).unwrap(); // warm: chunk allocation
        let t0 = Instant::now();
        for _ in 0..iters {
            c.write_selection(id, black_box(&sel), black_box(&data))
                .unwrap();
        }
        t0.elapsed()
    })
}

/// Records one strided write emits when tracing is on — the number of
/// guard sites the disabled path still has to check.
fn trace_sites_per_strided_write() -> usize {
    let space = Dataspace::d1(4 * 2048);
    let sel = Selection::Slab(interleaved_slab(1, 4, 2048));
    let data = h5lite::datatype::to_bytes(&vec![1.0f32; 2048]);
    let c = Container::create_mem();
    let id = c
        .create_dataset(ROOT_ID, "x", Datatype::F32, &space, Layout::Contiguous)
        .unwrap();
    c.write_selection(id, &sel, &data).unwrap();
    let t = Tracer::new();
    c.set_tracer(t.clone());
    c.write_selection(id, &sel, &data).unwrap();
    t.sink().records().len()
}

/// Observability overhead (DESIGN.md §10/§11): what the
/// always-compiled-in instrumentation costs when the tracer is disabled,
/// what turning full tracing on adds, and what the always-on flight
/// recorder (fixed-capacity ring, the black-box mode meant to stay
/// enabled in production) adds, each as a share of the strided write.
/// The ring bounds memory, not time: a retained record costs what it
/// costs on the full tracer.
fn trace_overhead() {
    section("trace");
    let span_off = span_cost("trace/span_disabled", false);
    let span_on = span_cost("trace/span_enabled", true);
    let write_off = traced_strided_write("trace/strided_write_disabled", Tracer::disabled);
    let write_on = traced_strided_write("trace/strided_write_enabled", Tracer::new);
    let write_flight =
        traced_strided_write("trace/strided_write_flight", || Tracer::flight(512));

    let sites = trace_sites_per_strided_write();
    let guard_cost = sites as f64 * span_off.secs_per_iter();
    let base = write_off.secs_per_iter().max(1e-12);
    let disabled_pct = guard_cost / base * 100.0;
    let enabled_pct = (write_on.secs_per_iter() / base - 1.0) * 100.0;
    let flight_pct = (write_flight.secs_per_iter() / base - 1.0) * 100.0;
    println!(
        "trace: {sites} records/write; disabled guards ≈ {:.1} ns/write \
         ({disabled_pct:.3}% of the strided write); \
         enabled tracing adds {enabled_pct:+.1}%  [span on/off: {:.1}/{:.1} ns]",
        guard_cost * 1e9,
        span_on.secs_per_iter() * 1e9,
        span_off.secs_per_iter() * 1e9,
    );
    println!(
        "trace: flight recorder (512/shard ring) adds {flight_pct:+.2}% \
         over disabled tracer on the strided write"
    );
}

/// A rank's strided write with per-extent checksums on or off. The
/// integrity layer's cost on the hot write path is the dirty-extent
/// bookkeeping only — hashing happens at flush, off the epoch's
/// critical path.
fn checksummed_strided_write(name: &str, checksums: bool) -> Sample {
    let space = Dataspace::d1(4 * 2048);
    let sel = Selection::Slab(interleaved_slab(1, 4, 2048));
    let data = h5lite::datatype::to_bytes(&vec![1.0f32; 2048]);
    bench_custom(name, |iters| {
        let c = Container::create_mem();
        let id = c
            .create_dataset(ROOT_ID, "x", Datatype::F32, &space, Layout::Contiguous)
            .unwrap();
        c.set_checksums(checksums);
        c.write_selection(id, &sel, &data).unwrap(); // warm: allocation
        let t0 = Instant::now();
        for _ in 0..iters {
            c.write_selection(id, black_box(&sel), black_box(&data))
                .unwrap();
        }
        t0.elapsed()
    })
}

/// Integrity overhead (DESIGN.md §13): what per-extent checksums cost on
/// the strided-VPIC write path, with a ≤ 3% budget, plus the at-rest
/// scrub rate for capacity planning.
fn integrity_overhead() {
    section("integrity");
    let write_off = checksummed_strided_write("integrity/strided_write_nochecksum", false);
    let write_on = checksummed_strided_write("integrity/strided_write_checksum", true);
    let base = write_off.secs_per_iter().max(1e-12);
    let pct = (write_on.secs_per_iter() / base - 1.0) * 100.0;
    println!(
        "integrity: per-extent checksums add {pct:+.2}% on the strided write \
         (budget 3%); hashing runs at flush, off the epoch's critical path"
    );

    let bytes = 1u64 << 20;
    let c = Container::create_mem();
    let id = c
        .create_dataset(ROOT_ID, "s", Datatype::U8, &Dataspace::d1(bytes), Layout::Contiguous)
        .unwrap();
    c.write_selection(id, &Selection::All, &vec![0x5Au8; bytes as usize])
        .unwrap();
    c.flush().unwrap();
    bench_bytes("integrity/scrub_1MiB", bytes, || {
        black_box(c.scrub().unwrap().checked);
    });

    // BD-CATS's read: half of a flushed 1 MiB extent. Under block sums
    // the verified read fetches and hashes the 8 blocks it returns; a
    // whole-extent sum made it fetch and hash all 16, which is what a
    // read of the whole extent still costs (the second row). Printed,
    // not gated.
    let half = Selection::Slab(Hyperslab::range1(0, bytes / 2));
    let blocked = bench_bytes("integrity/verified_read/half_1MiB_blocked", bytes / 2, || {
        black_box(c.read_selection(id, &half).unwrap());
    });
    let whole = bench_bytes("integrity/verified_read/half_1MiB_whole_extent", bytes / 2, || {
        black_box(c.read_selection(id, &Selection::All).unwrap());
    });
    println!(
        "integrity: a half-extent verified read at 1 MiB takes {:.2}x the whole-extent fetch \
         and hash it replaced",
        blocked.secs_per_iter() / whole.secs_per_iter().max(1e-12)
    );

    // The two data-extent hashes (DESIGN.md §13) at a chunk, a sieved
    // span and a VPIC slab: FNV-1a still verifies files stamped with it,
    // XXH64 stamps everything written now.
    for size in [4usize << 10, 128 << 10, 2 << 20] {
        let buf: Vec<u8> = (0..size).map(|i| (i * 31 + (i >> 9)) as u8).collect();
        let fnv = bench_bytes(&format!("integrity/fnv1a64/{size}"), size as u64, || {
            black_box(fnv1a64(FNV_BASIS, black_box(&buf)));
        });
        let xxh = bench_bytes(&format!("integrity/xxh64/{size}"), size as u64, || {
            black_box(xxh64(black_box(&buf)));
        });
        println!(
            "integrity: xxh64 hashes {size} B {:.1}x as fast as fnv1a64",
            fnv.secs_per_iter() / xxh.secs_per_iter().max(1e-12)
        );
    }
}

/// The strided copy kernels (`IoRecord::scatter` / `gather`) at
/// `strided_rw`'s shape: every other f32 of a flushed 128 KiB extent,
/// 16 384 pieces of 4 bytes. The verified read gathers them out of the
/// checked blocks; the sieved write scatters them into the span it read.
/// The flat copy of the same 64 KiB is the floor. Printed, not gated.
fn strided_copy() {
    section("strided_copy");
    const ELEMS: u64 = 16_384;
    let sel = Selection::Slab(interleaved_slab(1, 2, ELEMS));
    let data = h5lite::datatype::to_bytes(&vec![1.5f32; ELEMS as usize]);
    let bytes = data.len() as u64;
    let extent = || {
        let c = Container::create_mem();
        let space = Dataspace::d1(2 * ELEMS);
        let id = c
            .create_dataset(ROOT_ID, "x", Datatype::F32, &space, Layout::Contiguous)
            .unwrap();
        let all = h5lite::datatype::to_bytes(&vec![0.5f32; 2 * ELEMS as usize]);
        c.write_selection(id, &Selection::All, &all).unwrap();
        c.flush().unwrap();
        (c, id)
    };
    let (c, id) = extent();
    let read = bench_bytes("strided_copy/verified_read/16384xf32", bytes, || {
        black_box(c.read_selection(id, black_box(&sel)).unwrap());
    });
    assert!(c.integrity_stats().verified_extents > 0, "the read skipped verification");
    let (c, id) = extent();
    let write = bench_bytes("strided_copy/sieved_write/16384xf32", bytes, || {
        c.write_selection(id, black_box(&sel), black_box(&data)).unwrap();
    });
    assert!(c.sieve_stats().spans > 0, "the write did not sieve");
    let flat = bench_bytes("strided_copy/flat_memcpy/64KiB", bytes, || {
        black_box(black_box(&data).to_vec());
    });
    println!(
        "strided_copy: verified read {:.1}x, sieved write {:.1}x a flat copy of the same bytes",
        read.secs_per_iter() / flat.secs_per_iter().max(1e-12),
        write.secs_per_iter() / flat.secs_per_iter().max(1e-12)
    );
}

/// `inner` with a `sync` that sleeps `secs_per_byte` for every byte
/// written since the last one: the barrier over a flush's dirty extents
/// costs what they weigh, the two after it next to nothing.
fn paid_sync(inner: Arc<ThrottledBackend>, secs_per_byte: f64) -> CountingBackend {
    let unsynced = AtomicU64::new(0);
    CountingBackend::new(inner).with_hook(move |call| {
        match call {
            Call::Write { segments, .. } => {
                let bytes: usize = segments.iter().map(|seg| seg.data.len()).sum();
                unsynced.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            Call::Sync => {
                let dirty = unsynced.swap(0, Ordering::Relaxed);
                std::thread::sleep(Duration::from_secs_f64(dirty as f64 * secs_per_byte));
            }
            Call::Read { .. } => {}
        }
        Ok(())
    })
}

/// The flush's checksum read-back against the device's channels
/// (DESIGN.md §13, "Bounded flush memory"): sixteen dirty 2 MiB extents
/// flushed on a throttled `MemBackend` (400 MB/s, 200 µs per call) of 1,
/// 2 and 4 channels. The container reads them back in four 8 MiB
/// windows, one call each, hashing each beside the next one's read, and
/// the device stripes a call over its channels, so the read-back term
/// should shrink about 1 : ½ : ¼; the serial term is one call per
/// extent on one channel, Σ(latency + len / bandwidth). The `ch4+sync`
/// row gives the data barrier the price of a four-channel read-back
/// ("The barrier rides beside the read-back") and prints the flush
/// beside the `ch4` row's plus that barrier: the two one after the other.
fn flush_hash_channels() {
    section("flush_hash");
    const EXTENTS: usize = 16;
    const LEN: usize = 2 << 20;
    let serial = EXTENTS as f64 * (2e-4 + LEN as f64 / 400e6);
    let data: Vec<u8> = (0..LEN).map(|i| (i * 31 + (i >> 9)) as u8).collect();
    let flush_secs = |name: &str, device: &Arc<ThrottledBackend>, backend: Arc<dyn StorageBackend>| {
        let c = Container::create(backend);
        let ids: Vec<_> = (0..EXTENTS)
            .map(|i| {
                let space = Dataspace::d1(LEN as u64);
                c.create_dataset(ROOT_ID, &format!("d{i}"), Datatype::U8, &space, Layout::Contiguous)
                    .unwrap()
            })
            .collect();
        let s = bench_custom(name, |iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                // Dirty every extent at memory speed; time the flush alone.
                device.set_bandwidth(1e12);
                for &id in &ids {
                    c.write_selection(id, &Selection::All, &data).unwrap();
                }
                device.set_bandwidth(400e6);
                let t0 = Instant::now();
                c.flush().unwrap();
                timed += t0.elapsed();
            }
            timed
        });
        s.secs_per_iter()
    };
    let mut alone = 0.0;
    for channels in [1usize, 2, 4] {
        let device = Arc::new(ThrottledBackend::with_channels(1e12, 2e-4, channels));
        let name = format!("flush_hash/16x2MiB/ch{channels}");
        let secs = flush_secs(&name, &device, device.clone());
        alone = secs;
        println!(
            "    {name:<28} {:7.1} ms   {:.2} x the serial read-back ({:.1} ms)",
            secs * 1e3,
            secs / serial,
            serial * 1e3
        );
    }
    let device = Arc::new(ThrottledBackend::with_channels(1e12, 2e-4, 4));
    let barrier = serial / 4.0;
    let paid = paid_sync(device.clone(), barrier / (EXTENTS * LEN) as f64);
    let name = "flush_hash/16x2MiB/ch4+sync";
    let secs = flush_secs(name, &device, Arc::new(paid));
    println!(
        "    {name:<28} {:7.1} ms   {:.2} x the ch4 flush then a {:.1} ms barrier ({:.1} ms)",
        secs * 1e3,
        secs / (alone + barrier),
        barrier * 1e3,
        (alone + barrier) * 1e3
    );
}

/// Queue-depth sweep through the raw [`Ring`], submitted the way the
/// connector's `dispatch` does: `depth` writes of `size` bytes each go
/// in one `submit_keyed` at a time, then every promise is waited on,
/// against a 4-channel throttled backend whose 200 µs per-op latency is
/// what depth amortizes. The first submission wakes the reaper, and
/// whatever queues up while it is inside that call goes out as the next
/// pass, so small-op throughput must rise with depth — the io_uring
/// shape the paper's async pipelines rely on. The device stripes a pass
/// of at least 256 KiB over its four channels itself, one per 128 KiB,
/// so the 1 MiB row and the deep 64 KiB rows reach its aggregate rate.
fn ring_depth_sweep() {
    section("ring_depth");
    for size in [4096usize, 65536, 1 << 20] {
        for depth in [1usize, 4, 16, 64] {
            let backend: Arc<dyn StorageBackend> =
                Arc::new(ThrottledBackend::with_channels(2e9, 2e-4, 4));
            let ring = Ring::new(
                backend,
                RingConfig::default(),
            );
            let payload = vec![0xA5u8; size];
            let total = (size * depth) as u64;
            let name = format!("ring_depth/{size}B/d{depth}");
            let s = bench_custom(&name, |iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    // Build the owned ops outside the timed region so
                    // the clone cost doesn't pollute the I/O number.
                    let ops: Vec<RingOp> = (0..depth)
                        .map(|i| RingOp::write_raw((i * size) as u64, payload.clone()))
                        .collect();
                    let t0 = Instant::now();
                    let promises: Vec<_> = ops
                        .into_iter()
                        .map(|op| ring.submit_keyed(0, op).accepted().unwrap())
                        .collect();
                    for promise in promises {
                        promise.wait_cloned().into_result().unwrap();
                    }
                    timed += t0.elapsed();
                }
                timed
            });
            let mbps = total as f64 / s.secs_per_iter() / 1e6;
            println!("    {name:<28} {mbps:9.1} MB/s");
        }
    }
}

/// Fig. 1's epoch comparison at BD-CATS granularity: 1 ms of compute
/// followed by 64 × 64 KiB slab writes, sync through the container vs
/// async through the ring-backed connector. The sync epoch pays the
/// 100 µs device latency per op; the async epoch overlaps I/O with the
/// next compute phase and the reaper coalesces the slabs.
fn ring_epoch() {
    section("ring_epoch");
    let ops = 64u64;
    let op_bytes = 65536u64;
    let total = ops * op_bytes;
    let compute = Duration::from_millis(1);
    let data = vec![0x5Au8; op_bytes as usize];
    let sels: Vec<Selection> = (0..ops)
        .map(|i| Selection::Slab(Hyperslab::range1(i * op_bytes, op_bytes)))
        .collect();

    {
        let backend: Arc<dyn StorageBackend> =
            Arc::new(ThrottledBackend::with_channels(2e9, 1e-4, 4));
        let ring = Arc::new(Ring::new(
            backend.clone(),
            RingConfig::default(),
        ));
        let vol = AsyncVol::builder().streams(2).ring(ring).build();
        let c = Arc::new(Container::create(backend));
        let ds = c
            .create_dataset(ROOT_ID, "e", Datatype::U8, &Dataspace::d1(total), Layout::Contiguous)
            .unwrap();
        // Warm pass: extent allocation happens outside the timed region.
        for sel in &sels {
            // Drained collectively by wait_all below.
            let _ = vol.dataset_write(&c, ds, sel, &data).unwrap();
        }
        vol.wait_all().unwrap();
        bench("ring/epoch_async_64KiB", || {
            std::thread::sleep(compute);
            for sel in &sels {
                let _ = vol.dataset_write(&c, ds, black_box(sel), black_box(&data)).unwrap();
            }
        });
        vol.wait_all().unwrap();
    }
    {
        let backend: Arc<dyn StorageBackend> =
            Arc::new(ThrottledBackend::with_channels(2e9, 1e-4, 4));
        let c = Container::create(backend);
        let ds = c
            .create_dataset(ROOT_ID, "e", Datatype::U8, &Dataspace::d1(total), Layout::Contiguous)
            .unwrap();
        for sel in &sels {
            c.write_selection(ds, sel, &data).unwrap();
        }
        bench("ring/epoch_sync_64KiB", || {
            std::thread::sleep(compute);
            for sel in &sels {
                c.write_selection(ds, black_box(sel), black_box(&data)).unwrap();
            }
        });
    }
}

fn main() {
    memcpy_by_size();
    model_copy_time();
    trace_overhead();
    strided_copy();
    integrity_overhead();
    flush_hash_channels();

    ring_depth_sweep();
    ring_epoch();
}
