//! Sieved spans (ISSUE 15, DESIGN.md §9): a finely strided selection
//! reaches the device as one read and one write per extent, and nothing
//! else about the container changes.
//!
//! The reference everywhere is the per-run path: the same selection
//! written one run at a time, each run a contiguous `write_selection`
//! and so a one-segment span that never touches a sieve buffer.
//!
//! Sieve buffers come from the process-wide recycler, which hands out
//! whatever an earlier user left behind; the stale-byte test stocks it
//! with marked buffers, so the tests here take turns ([`pool_turn`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use apio::asyncvol::{AsyncVol, BreakerConfig, RetryPolicy};
use apio::crashpoint::{sweep, CrashBackend};
use apio::h5lite::{
    container::ROOT_ID, recycle, shard_of, superblock::SUPERBLOCK_AREA, Call, CallCounts,
    Container, CountingBackend, Dataspace, Datatype, FaultInjector, FaultKind, FaultOp, FaultPlan,
    FileBackend, H5Error, Hyperslab, Layout, MemBackend, NativeVol, ObjectId, Selection,
    StorageBackend, Vol, META_SHARDS, SIEVE_PAGE,
};
use apio::kernels::vpic::interleaved_slab;

static POOL: Mutex<()> = Mutex::new(());

/// One test at a time touches the process-wide recycler.
fn pool_turn() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

mod common;
use common::Lcg;

/// Everything the backend holds, as raw bytes.
fn raw(backend: &dyn StorageBackend) -> Vec<u8> {
    let mut bytes = vec![0u8; backend.len() as usize];
    if !bytes.is_empty() {
        backend.read_at(0, &mut bytes).expect("raw read");
    }
    bytes
}

/// Write `sel` one run at a time: the per-run reference. On a 2-D
/// space a run that spans rows goes one row's part at a time.
fn write_per_run(c: &Container, id: ObjectId, sel: &Selection, elem: usize, data: &[u8]) {
    let space = c.dataset_info(id).expect("info").space;
    let cols = *space.dims().last().expect("rank >= 1");
    let mut cursor = 0usize;
    for (mut off, mut left) in sel.runs(&space).expect("runs") {
        while left > 0 {
            let len = left.min(cols - off % cols);
            let slab = match space.rank() {
                1 => Hyperslab::range1(off, len),
                _ => Hyperslab::contiguous(&[off / cols, off % cols], &[1, len]),
            };
            let nbytes = len as usize * elem;
            c.write_selection(id, &Selection::Slab(slab), &data[cursor..cursor + nbytes])
                .expect("reference run");
            cursor += nbytes;
            (off, left) = (off + len, left - len);
        }
    }
}

// ----- (b) seeded equivalence with the per-run reference ---------------

#[derive(Clone, Copy, Debug)]
enum Prefill {
    Full,
    Never,
    Half,
}

#[derive(Clone, Debug)]
struct Case {
    /// The dataset's dimensions: one, or rows and columns.
    dims: Vec<u64>,
    sel: Selection,
    count: u64,
    dtype: Datatype,
    layout: Layout,
    prefill: Prefill,
    /// A canary dataset and a flushed metadata root go in after the
    /// prefill: behind the contiguous extent, or between the chunks the
    /// prefill allocated and the ones the selection will.
    canary: bool,
}

const CANARY: u8 = 0xCA;

fn draw_case(rng: &mut Lcg) -> Case {
    let dtype =
        [Datatype::U8, Datatype::I16, Datatype::F32, Datatype::F64][rng.in_range(0, 4) as usize];
    // Half the strides are fine enough to sieve whatever the element
    // size, the rest range up to well past a page.
    let stride = if rng.next().is_multiple_of(2) {
        rng.in_range(1, 9)
    } else {
        rng.in_range(1, 2048)
    };
    let count = rng.in_range(1, 120);
    let start = rng.in_range(0, 40);
    let n = start + (count - 1) * stride + 1 + rng.in_range(0, 40);
    let layout = if rng.next().is_multiple_of(2) {
        Layout::Contiguous
    } else {
        Layout::Chunked1D {
            chunk_elems: rng.in_range((n / 48).max(1), n + 1),
        }
    };
    Case {
        dims: vec![n],
        sel: Selection::Slab(Hyperslab::strided(&[start], &[count], &[stride])),
        count,
        dtype,
        layout,
        prefill: [Prefill::Full, Prefill::Never, Prefill::Half][rng.in_range(0, 3) as usize],
        canary: rng.next().is_multiple_of(2),
    }
}

/// The state a case starts from; the same calls on both sides, so both
/// containers allocate the same addresses.
fn scenario(backend: Arc<dyn StorageBackend>, case: &Case) -> (Container, ObjectId) {
    let elem = case.dtype.size() as u64;
    let c = Container::create(backend);
    let id = c
        .create_dataset(
            ROOT_ID,
            "d",
            case.dtype,
            &Dataspace::new(&case.dims),
            case.layout.clone(),
        )
        .expect("create");
    let old = |len: u64| -> Vec<u8> { (0..len * elem).map(|i| 0x80 | (i % 0x7b) as u8).collect() };
    // The first half of the outermost dimension.
    let mut half = case.dims.clone();
    half[0] /= 2;
    let start = vec![0; half.len()];
    match case.prefill {
        Prefill::Full => c
            .write_selection(id, &Selection::All, &old(case.dims.iter().product()))
            .expect("prefill"),
        Prefill::Half if case.dims[0] >= 2 => c
            .write_selection(
                id,
                &Selection::Slab(Hyperslab::contiguous(&start, &half)),
                &old(half.iter().product()),
            )
            .expect("prefill"),
        Prefill::Half | Prefill::Never => {}
    }
    if case.canary {
        let canary = c
            .create_dataset(
                ROOT_ID,
                "canary",
                Datatype::U8,
                &Dataspace::d1(48),
                Layout::Contiguous,
            )
            .expect("canary");
        c.write_selection(canary, &Selection::All, &[CANARY; 48])
            .expect("canary bytes");
        c.flush().expect("flush");
    }
    (c, id)
}

/// Run one case on both sides and compare; returns whether the planned
/// write sieved.
fn check_case(
    case: &Case,
    sieved_dev: Arc<dyn StorageBackend>,
    reference_dev: Arc<dyn StorageBackend>,
) -> bool {
    let elem = case.dtype.size();
    // New bytes never have the high bit set, old bytes always do.
    let data: Vec<u8> = (0..case.count as usize * elem)
        .map(|i| (i % 0x7d) as u8)
        .collect();

    let (sc, sid) = scenario(sieved_dev.clone(), case);
    let (rc, rid) = scenario(reference_dev.clone(), case);
    assert_eq!(
        raw(&*sieved_dev),
        raw(&*reference_dev),
        "{case:?}: scenarios differ"
    );

    sc.write_selection(sid, &case.sel, &data)
        .expect("sieved write");
    let sieved = sc.sieve_stats().spans > 0;
    write_per_run(&rc, rid, &case.sel, elem, &data);
    assert_eq!(rc.sieve_stats().spans, 0, "the reference never sieves");
    assert_eq!(
        raw(&*sieved_dev),
        raw(&*reference_dev),
        "{case:?}: device bytes differ"
    );
    assert_eq!(
        sc.read_selection(sid, &case.sel).expect("read back"),
        data,
        "{case:?}: sieved read-back"
    );

    // Commit both, byte-identical still, and what was between the
    // extents survived: the container reopens and the canary is whole.
    sc.flush().expect("flush");
    rc.flush().expect("flush");
    assert_eq!(
        raw(&*sieved_dev),
        raw(&*reference_dev),
        "{case:?}: committed bytes differ"
    );
    drop(sc);
    let reopened = Container::open(sieved_dev).expect("reopen");
    if case.canary {
        let canary = reopened.lookup(ROOT_ID, "canary").expect("canary");
        assert_eq!(
            reopened
                .read_selection(canary, &Selection::All)
                .expect("canary read"),
            [CANARY; 48],
            "{case:?}: canary clobbered"
        );
    }
    let id = reopened.lookup(ROOT_ID, "d").expect("dataset");
    assert_eq!(
        reopened
            .read_selection(id, &case.sel)
            .expect("verified read"),
        data
    );
    sieved
}

#[test]
fn sieved_writes_are_byte_identical_to_the_per_run_reference_on_memory() {
    let _turn = pool_turn();
    let mut rng = Lcg::new(0x51E7E);
    let mut sieved_cases = 0;
    for _ in 0..96 {
        let case = draw_case(&mut rng);
        let sieved = check_case(
            &case,
            Arc::new(MemBackend::new()),
            Arc::new(MemBackend::new()),
        );
        sieved_cases += u64::from(sieved);
    }
    // The draw must exercise both sides of the rule.
    assert!(
        (20..=80).contains(&sieved_cases),
        "{sieved_cases} of 96 cases sieved"
    );
}

/// A 2-D selection of `width`-element rows over a contiguous layout
/// (chunked layouts are 1-D only). Each row is one piece of `width`
/// elements, so a sieved span's parts are `width * elem` bytes wide:
/// 12, 20, 24 and 40 take the copy kernels' run-time width, 16 a
/// compile-time one.
fn draw_narrow_rows(rng: &mut Lcg, dtype: Datatype, width: u64) -> Case {
    let rows = rng.in_range(1, 120);
    let row_stride = rng.in_range(1, 4);
    let (row0, col0) = (rng.in_range(0, 8), rng.in_range(0, 8));
    // Rows a few elements longer than the selection's, or exactly as
    // long: then consecutive rows touch and merge.
    let cols = col0 + width + rng.in_range(0, 3) * rng.in_range(0, 20);
    let sel = Hyperslab::strided(&[row0, col0], &[rows, width], &[row_stride, 1]);
    Case {
        dims: vec![row0 + (rows - 1) * row_stride + 1 + rng.in_range(0, 4), cols],
        sel: Selection::Slab(sel),
        count: rows * width,
        dtype,
        layout: Layout::Contiguous,
        prefill: [Prefill::Full, Prefill::Never, Prefill::Half][rng.in_range(0, 3) as usize],
        canary: rng.next().is_multiple_of(2),
    }
}

#[test]
fn narrow_2d_rows_are_byte_identical_to_the_per_run_reference() {
    let _turn = pool_turn();
    let mut rng = Lcg::new(0x2D_7055);
    let mut sieved_cases = 0;
    for dtype in [Datatype::U8, Datatype::I16, Datatype::F32, Datatype::F64] {
        for width in 1..=5 {
            for _ in 0..3 {
                let case = draw_narrow_rows(&mut rng, dtype, width);
                let sieved = check_case(
                    &case,
                    Arc::new(MemBackend::new()),
                    Arc::new(MemBackend::new()),
                );
                sieved_cases += u64::from(sieved);
            }
        }
    }
    // Most draws fold their rows into spans; a one-row draw, or rows
    // that merge into one run, does not.
    assert!(
        (40..60).contains(&sieved_cases),
        "{sieved_cases} of 60 cases sieved"
    );
}

#[test]
fn sieved_writes_are_byte_identical_to_the_per_run_reference_on_a_file() {
    let _turn = pool_turn();
    let dir = std::env::temp_dir().join(format!("apio-sieve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut rng = Lcg::new(0xF11E);
    for case_no in 0..24 {
        let case = draw_case(&mut rng);
        let paths = [
            dir.join(format!("s{case_no}.h5l")),
            dir.join(format!("r{case_no}.h5l")),
        ];
        let open =
            |p| -> Arc<dyn StorageBackend> { Arc::new(FileBackend::create(p).expect("file")) };
        check_case(&case, open(&paths[0]), open(&paths[1]));
        for p in &paths {
            std::fs::remove_file(p).expect("remove");
        }
    }
    std::fs::remove_dir(&dir).expect("remove dir");
}

/// Design constraint 2 point-blank: chunk 0, then a canary extent and a
/// flushed metadata root, then chunk 1 — all inside one page, so only
/// the extent rule keeps a span from bridging them.
#[test]
fn a_span_stops_at_its_chunk_with_a_canary_and_a_metadata_root_next_door() {
    let _turn = pool_turn();
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let c = Container::create(backend.clone());
    let id = c
        .create_dataset(
            ROOT_ID,
            "d",
            Datatype::F32,
            &Dataspace::d1(128),
            Layout::Chunked1D { chunk_elems: 64 },
        )
        .expect("create");
    let first = Selection::Slab(Hyperslab::range1(0, 64));
    c.write_selection(id, &first, &[0x11; 256])
        .expect("chunk 0");
    let canary = c
        .create_dataset(
            ROOT_ID,
            "canary",
            Datatype::U8,
            &Dataspace::d1(48),
            Layout::Contiguous,
        )
        .expect("canary");
    c.write_selection(canary, &Selection::All, &[CANARY; 48])
        .expect("canary bytes");
    c.flush().expect("flush");
    let between = raw(&*backend);

    // Every other element of both chunks; chunk 1 is allocated now,
    // behind the metadata root.
    let sel = Selection::Slab(Hyperslab::strided(&[0], &[64], &[2]));
    c.write_selection(id, &sel, &[0x22; 256])
        .expect("strided write");
    let stats = c.sieve_stats();
    assert_eq!((stats.spans, stats.segments), (2, 64), "one span per chunk");
    let after = raw(&*backend);
    assert_eq!(
        after.len() - between.len(),
        256,
        "chunk 1 appended after the metadata root"
    );
    assert!(
        after.len() < SIEVE_PAGE as usize,
        "everything lies within one page"
    );
    // Chunk 0 is the first allocation; all that follows it up to the
    // old end of file is canary and metadata.
    let chunk0_end = SUPERBLOCK_AREA as usize + 256;
    assert_eq!(between[SUPERBLOCK_AREA as usize..chunk0_end], [0x11; 256]);
    assert_eq!(
        after[chunk0_end..between.len()],
        between[chunk0_end..],
        "bytes between the chunks changed"
    );
    drop(c);
    let reopened = Container::open(backend).expect("metadata root intact");
    let id = reopened.lookup(ROOT_ID, "d").expect("d");
    let all = reopened.read_selection(id, &Selection::All).expect("read");
    for (i, elem) in all.chunks(4).enumerate() {
        let want = if i % 2 == 0 {
            0x22
        } else if i < 64 {
            0x11
        } else {
            0
        };
        assert_eq!(elem, [want; 4], "element {i}");
    }
}

// ----- (c) concurrency --------------------------------------------------

const RANKS: u32 = 4;

/// Two dataset ids on one gate shard, `per_rank * RANKS` and `neighbour`
/// elements long.
fn gate_mates(c: &Container, per_rank: u64, neighbour: u64) -> (ObjectId, ObjectId) {
    let mut ids = Vec::new();
    for i in 0..=META_SHARDS {
        let len = if i == META_SHARDS {
            neighbour
        } else {
            per_rank * RANKS as u64
        };
        ids.push(
            c.create_dataset(
                ROOT_ID,
                &format!("d{i}"),
                Datatype::U32,
                &Dataspace::d1(len),
                Layout::Contiguous,
            )
            .expect("create"),
        );
    }
    let (a, b) = (ids[0], ids[META_SHARDS]);
    assert_eq!(shard_of(a), shard_of(b));
    (a, b)
}

fn rank_values(rank: u32, round: u32, per_rank: u64) -> Vec<u8> {
    (0..per_rank as u32)
        .flat_map(|i| (rank << 28 | round << 16 | i).to_le_bytes())
        .collect()
}

/// Whether rank `rank`'s elements of the interleaved dataset `all` are
/// exactly `want` (`None`: still the zero fill).
fn rank_holds(all: &[u8], rank: u32, want: Option<Vec<u8>>) -> bool {
    let per_rank = all.len() / 4 / RANKS as usize;
    let want = want.unwrap_or_else(|| vec![0u8; per_rank * 4]);
    (0..per_rank).all(|i| {
        let at = (i * RANKS as usize + rank as usize) * 4;
        all[at..at + 4] == want[i * 4..i * 4 + 4]
    })
}

#[test]
fn interleaved_rank_threads_never_lose_each_others_elements() {
    let _turn = pool_turn();
    const ROUNDS: u32 = 200;
    const PER_RANK: u64 = 2048;
    let c = Arc::new(Container::create_mem());
    let (a, b) = gate_mates(&c, PER_RANK, PER_RANK);
    let vol = NativeVol::new();
    // All five start together, so every rank's read-modify-write of the
    // one shared extent overlaps the others' from the first round on.
    let start = Barrier::new(RANKS as usize + 1);
    std::thread::scope(|s| {
        for rank in 0..RANKS {
            let (c, start) = (&c, &start);
            s.spawn(move || {
                let sel = Selection::Slab(interleaved_slab(rank, RANKS, PER_RANK));
                start.wait();
                for round in 0..ROUNDS {
                    let req = vol
                        .dataset_write(c, a, &sel, &rank_values(rank, round, PER_RANK))
                        .expect("rank write");
                    assert!(req.is_sync());
                }
            });
        }
        let (c, start) = (&c, &start);
        s.spawn(move || {
            start.wait();
            for round in 0..ROUNDS {
                let req = vol
                    .dataset_write(c, b, &Selection::All, &rank_values(9, round, PER_RANK))
                    .expect("neighbour write");
                assert!(req.is_sync());
            }
        });
    });
    let all = c.read_selection(a, &Selection::All).expect("read");
    for rank in 0..RANKS {
        assert!(
            rank_holds(&all, rank, Some(rank_values(rank, ROUNDS - 1, PER_RANK))),
            "rank {rank} lost elements to another rank's write-back"
        );
    }
    assert_eq!(
        c.read_selection(b, &Selection::All).expect("read"),
        rank_values(9, ROUNDS - 1, PER_RANK)
    );
    let stats = c.sieve_stats();
    assert_eq!(
        stats.spans,
        (RANKS * ROUNDS) as u64,
        "every rank write sieved"
    );
}

/// The same writers as task bodies under `argolite::explore`: seeded
/// orders of rank writes, neighbour writes, reads and flushes, every
/// element checked after every step, with h5lite's named locks (gate,
/// metadata shards, allocator) forwarded into the lock-order recorder.
#[cfg(feature = "debug-invariants")]
#[test]
fn explored_orders_of_sieved_writes_keep_every_element_and_the_lock_order() {
    use apio::argolite::explore::{explore, TaskGraph};
    use apio::argolite::lock_order;

    const ROUNDS: u32 = 3;
    const PER_RANK: u64 = 64;
    let _turn = pool_turn();
    apio::h5lite::sync::order_hook::install(lock_order::acquire_class, lock_order::release_class);
    let seeds = std::env::var("APIO_EXPLORE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);

    type World = Option<(Arc<Container>, ObjectId, ObjectId)>;
    let world: Arc<Mutex<World>> = Arc::new(Mutex::new(None));
    let build = || {
        let c = Arc::new(Container::create_mem());
        let (a, b) = gate_mates(&c, PER_RANK, 32);
        // On the device from the start, so every step can read it all.
        c.write_selection(
            a,
            &Selection::All,
            &[0u8; PER_RANK as usize * RANKS as usize * 4],
        )
        .expect("zero fill");
        c.write_selection(b, &Selection::All, &[0u8; 128])
            .expect("zero fill");
        *world.lock().unwrap() = Some((c.clone(), a, b));
        let mut g = TaskGraph::new();
        let chain = |g: &mut TaskGraph, labels: Vec<(String, Box<dyn FnOnce() + Send>)>| {
            let mut prev = None;
            for (label, body) in labels {
                let task = g.add_task(label, body);
                if let Some(prev) = prev {
                    g.add_edge(prev, task);
                }
                prev = Some(task);
            }
        };
        for rank in 0..RANKS {
            let steps = (0..ROUNDS)
                .map(|round| {
                    let c = c.clone();
                    let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                        let sel = Selection::Slab(interleaved_slab(rank, RANKS, PER_RANK));
                        let req = NativeVol::new()
                            .dataset_write(&c, a, &sel, &rank_values(rank, round, PER_RANK))
                            .expect("rank write");
                        assert!(req.is_sync());
                    });
                    (format!("write:{rank}:{round}"), body)
                })
                .collect();
            chain(&mut g, steps);
        }
        let steps = (0..ROUNDS)
            .map(|round| {
                let c = c.clone();
                let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                    c.write_selection(b, &Selection::All, &rank_values(9, round, 32))
                        .expect("neighbour write");
                });
                (format!("write:9:{round}"), body)
            })
            .collect();
        chain(&mut g, steps);
        let steps = (0..2)
            .map(|i| {
                let c = c.clone();
                let body: Box<dyn FnOnce() + Send> = Box::new(move || c.flush().expect("flush"));
                (format!("flush:{i}"), body)
            })
            .collect();
        chain(&mut g, steps);
        g
    };
    let report = explore(seeds, build, |step| {
        let guard = world.lock().unwrap();
        let (c, a, b) = guard.as_ref().expect("built");
        let last = |who: u32| {
            step.executed
                .iter()
                .filter_map(|l| l.strip_prefix(&format!("write:{who}:")))
                .filter_map(|r| r.parse::<u32>().ok())
                .max()
        };
        let all = c
            .read_selection(*a, &Selection::All)
            .map_err(|e| e.to_string())?;
        for rank in 0..RANKS {
            let want = last(rank).map(|round| rank_values(rank, round, PER_RANK));
            if !rank_holds(&all, rank, want) {
                return Err(format!("rank {rank} does not hold round {:?}", last(rank)));
            }
        }
        let neighbour = c
            .read_selection(*b, &Selection::All)
            .map_err(|e| e.to_string())?;
        let want = last(9).map_or(vec![0u8; 128], |round| rank_values(9, round, 32));
        if neighbour != want {
            return Err(format!("neighbour does not hold round {:?}", last(9)));
        }
        Ok(())
    });
    assert!(report.ok(), "failure: {}", report.failure.unwrap());
    assert_eq!(report.seeds_run, seeds);
    assert!(report.distinct_orders >= 2);
}

// ----- (d) faults -------------------------------------------------------

const FAULT_N: u64 = 400;

/// A prefilled (high-bit bytes) 400-element dataset behind a disarmed
/// injector, the stride-2 selection over it, its new bytes (no high
/// bit), and the extent's address.
fn fault_setup(
    plan: FaultPlan,
) -> (
    Arc<FaultInjector>,
    Arc<Container>,
    ObjectId,
    Selection,
    Vec<u8>,
) {
    let inj = Arc::new(FaultInjector::new(Arc::new(MemBackend::new()), plan));
    inj.set_armed(false);
    let c = Arc::new(Container::create(inj.clone()));
    let id = c
        .create_dataset(
            ROOT_ID,
            "d",
            Datatype::F32,
            &Dataspace::d1(FAULT_N),
            Layout::Contiguous,
        )
        .expect("create");
    let old: Vec<u8> = (0..FAULT_N * 4).map(|i| 0x80 | (i % 0x7b) as u8).collect();
    c.write_selection(id, &Selection::All, &old)
        .expect("prefill");
    let sel = Selection::Slab(Hyperslab::strided(&[0], &[FAULT_N / 2], &[2]));
    let new: Vec<u8> = (0..FAULT_N / 2 * 4).map(|i| (i % 0x7d) as u8).collect();
    (inj, c, id, sel, new)
}

/// The dataset's bytes split into `(selected, unselected)` halves.
fn halves(all: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let (mut selected, mut unselected) = (Vec::new(), Vec::new());
    for (i, elem) in all.chunks(4).enumerate() {
        if i % 2 == 0 {
            &mut selected
        } else {
            &mut unselected
        }
        .extend_from_slice(elem);
    }
    (selected, unselected)
}

#[test]
fn a_failed_span_read_fails_the_write_before_anything_is_written() {
    let _turn = pool_turn();
    let plan = FaultPlan::new(1)
        .fail_at(FaultOp::Read, 0, FaultKind::Transient)
        .times(1);
    let (inj, c, id, sel, new) = fault_setup(plan);
    let before = c.read_selection(id, &Selection::All).expect("read");
    inj.set_armed(true);
    let err = c.write_selection(id, &sel, &new).unwrap_err();
    assert!(matches!(err, H5Error::Transient(_)), "{err:?}");
    assert_eq!(inj.injected(), 1);
    inj.set_armed(false);
    assert_eq!(
        c.read_selection(id, &Selection::All).expect("read"),
        before,
        "a byte was written"
    );
    // The retry reads again, so it is the whole write.
    inj.set_armed(true);
    c.write_selection(id, &sel, &new).expect("retry");
    let (selected, unselected) = halves(&c.read_selection(id, &Selection::All).expect("read"));
    assert_eq!(selected, new);
    assert_eq!(unselected, halves(&before).1);
}

#[test]
fn a_failed_or_torn_span_write_leaves_old_or_new_and_the_holes_alone() {
    let _turn = pool_turn();
    for kind in [FaultKind::Persistent, FaultKind::Torn { fraction: 0.5 }] {
        let plan = FaultPlan::new(2)
            .fail_at(FaultOp::Write, 0, kind.clone())
            .times(1);
        let (inj, c, id, sel, new) = fault_setup(plan);
        let before = c.read_selection(id, &Selection::All).expect("read");
        inj.set_armed(true);
        let err = c.write_selection(id, &sel, &new).unwrap_err();
        assert_eq!(inj.injected(), 1, "one op per span: one injection");
        inj.set_armed(false);
        let after = c.read_selection(id, &Selection::All).expect("read");
        let (selected, unselected) = halves(&after);
        assert_eq!(
            unselected,
            halves(&before).1,
            "{kind:?}: a hole byte changed"
        );
        let old_selected = halves(&before).0;
        // The span is one device op: a tear keeps a prefix of it.
        let torn_at = selected
            .iter()
            .zip(&new)
            .take_while(|(got, new)| got == new)
            .count();
        assert_eq!(
            selected[torn_at..],
            old_selected[torn_at..],
            "{kind:?}: neither old nor new"
        );
        match kind {
            FaultKind::Persistent => {
                assert!(matches!(err, H5Error::Storage(_)), "{err:?}");
                assert_eq!(torn_at, 0, "a refused span write wrote something");
            }
            _ => {
                assert!(matches!(err, H5Error::Transient(_)), "{err:?}");
                // The first half of the span landed: whole 8-byte periods
                // of element + hole, then what is left of one element.
                let kept = (FAULT_N as usize - 1) * 4 / 2;
                assert_eq!(torn_at, kept / 8 * 4 + (kept % 8).min(4), "tear position");
            }
        }
        c.write_selection(id, &sel, &new).expect("retry");
        assert_eq!(
            halves(&c.read_selection(id, &Selection::All).expect("read")).0,
            new
        );
    }
}

#[test]
fn the_task_paths_retry_converges_to_the_reference_bytes() {
    let _turn = pool_turn();
    // A failed span read, then a torn span write-back, then a failed
    // write: three attempts lost, the fourth lands.
    let plan = FaultPlan::new(3)
        .fail_at(FaultOp::Read, 0, FaultKind::Transient)
        .times(1)
        .fail_at(FaultOp::Write, 0, FaultKind::Torn { fraction: 0.5 })
        .times(1)
        .fail_at(FaultOp::Write, 1, FaultKind::Transient)
        .times(1);
    let (inj, c, id, sel, new) = fault_setup(plan);
    let (_, rc, rid, _, _) = fault_setup(FaultPlan::new(0));
    write_per_run(&rc, rid, &sel, 4, &new);

    let vol = AsyncVol::builder()
        .streams(1)
        .breaker(BreakerConfig {
            failure_threshold: u32::MAX,
            probe_after: 1,
        })
        .build();
    inj.set_armed(true);
    let _ = vol.dataset_write(&c, id, &sel, &new).expect("issue");
    vol.wait_all().expect("retries absorb every fault");
    assert_eq!(inj.injected(), 3);
    assert_eq!(vol.stats().retries, 3);
    inj.set_armed(false);
    assert_eq!(
        c.read_selection(id, &Selection::All).expect("read"),
        rc.read_selection(rid, &Selection::All).expect("read")
    );
}

#[test]
fn a_crash_at_any_mutation_of_a_strided_epoch_loses_no_acked_write() {
    let _turn = pool_turn();
    const PER_RANK: u64 = 24;
    const PROPS: usize = 2;
    let values = |rank: u32, prop: usize| rank_values(rank + 1, prop as u32, PER_RANK);
    let report = sweep(|clock| {
        let c_inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let wal_inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c_dev: Arc<dyn StorageBackend> =
            Arc::new(CrashBackend::new(c_inner.clone(), clock.clone()));
        let wal_dev: Arc<dyn StorageBackend> =
            Arc::new(CrashBackend::new(wal_inner.clone(), clock.clone()));
        let c = Arc::new(Container::create(c_dev));
        let ids: Vec<ObjectId> = (0..PROPS)
            .map(|p| {
                c.create_dataset(
                    ROOT_ID,
                    &format!("prop{p}"),
                    Datatype::U32,
                    &Dataspace::d1(PER_RANK * RANKS as u64),
                    Layout::Contiguous,
                )
                .expect("create")
            })
            .collect();
        let setup_ok = c.flush().is_ok();
        let mut acked = vec![false; RANKS as usize * PROPS];
        if setup_ok {
            let vol = AsyncVol::builder()
                .streams(1)
                .stage_to_device(wal_dev)
                .retry(RetryPolicy::none())
                .breaker(BreakerConfig {
                    failure_threshold: u32::MAX,
                    probe_after: 4,
                })
                .build();
            // One epoch: every rank's interleaved slab of every
            // property, each write a sieved span over its neighbours'
            // elements.
            for rank in 0..RANKS {
                for (p, &ds) in ids.iter().enumerate() {
                    let sel = Selection::Slab(interleaved_slab(rank, RANKS, PER_RANK));
                    acked[rank as usize * PROPS + p] =
                        vol.dataset_write(&c, ds, &sel, &values(rank, p)).is_ok();
                }
            }
            let _ = vol.wait_all(); // post-cut container writes fail: benign
            drop(vol);
        }
        drop(c);

        let c2 = match Container::open(c_inner) {
            Ok(c2) => Arc::new(c2),
            Err(e) if setup_ok => return Err(format!("flushed metadata plane unreadable: {e}")),
            Err(_) => return Ok(()),
        };
        let vol2 = AsyncVol::builder().stage_to_device(wal_inner).build();
        let rec = vol2
            .recover_and_scrub(&c2)
            .map_err(|e| format!("recovery: {e}"))?;
        if rec.scrub_repaired < rec.scrub_corrupt {
            return Err(format!("recovery scrub left corruption behind: {rec:?}"));
        }
        for p in 0..PROPS {
            let ds = c2
                .lookup(ROOT_ID, &format!("prop{p}"))
                .map_err(|e| e.to_string())?;
            let all = c2
                .read_selection(ds, &Selection::All)
                .map_err(|e| e.to_string())?;
            for rank in 0..RANKS {
                // An acknowledged slab survives, whichever neighbour's
                // span was in flight at the cut; a refused one was never
                // dispatched and is still the zero fill.
                let was_acked = acked[rank as usize * PROPS + p];
                if !rank_holds(&all, rank, was_acked.then(|| values(rank, p))) {
                    return Err(format!(
                        "prop{p} rank {rank}: acked={was_acked} but recovered bytes differ"
                    ));
                }
            }
        }
        Ok(())
    });
    assert!(report.ok(), "{}", report.failure.unwrap());
    assert!(
        report.boundaries > 2 * RANKS as u64 * PROPS as u64,
        "WAL and container mutations both in the sweep"
    );
}

// ----- (e) stale bytes, (f) op counts -----------------------------------

const STALE: u8 = 0xA5;

/// A counted [`MemBackend`], and a flag its hook raises when a vectored
/// write payload carries [`STALE`].
fn watched() -> (Arc<CountingBackend>, Arc<AtomicBool>) {
    let stale_seen = Arc::new(AtomicBool::new(false));
    let seen = stale_seen.clone();
    let backend = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
        if let Call::Write { segments, vectored: true } = call {
            if segments.iter().any(|seg| seg.data.contains(&STALE)) {
                seen.store(true, Ordering::SeqCst);
            }
        }
        Ok(())
    });
    (Arc::new(backend), stale_seen)
}

/// `(scalar calls, read batches, write batches, batched segments)`
/// since `before`.
fn calls_since(backend: &CountingBackend, before: CallCounts) -> (u64, u64, u64, u64) {
    let d = backend.counts() - before;
    (d.reads + d.writes, d.read_batches, d.write_batches, d.segments)
}

/// Empty the recycler class serving `len`-byte requests, then give it
/// `count` buffers full of [`STALE`]. Returns their address ranges.
fn stock(len: usize, count: usize) -> Vec<(usize, usize)> {
    let mut held = Vec::new();
    loop {
        let misses = recycle::stats().misses;
        held.push(recycle::take(len));
        if recycle::stats().misses > misses {
            break;
        }
    }
    drop(held);
    let class = len.next_power_of_two();
    (0..count)
        .map(|_| {
            let buf = vec![STALE; class];
            let range = (buf.as_ptr() as usize, buf.as_ptr() as usize + class);
            recycle::give(buf);
            range
        })
        .collect()
}

#[test]
fn stale_bytes_of_a_recycled_sieve_buffer_never_reach_the_backend() {
    let _turn = pool_turn();
    const N: u64 = 6000;
    for (prefilled, layout) in [
        (true, Layout::Contiguous),
        // Never written: the whole span lies past the watermark and
        // comes from the zero fill alone.
        (false, Layout::Contiguous),
        (true, Layout::Chunked1D { chunk_elems: 1500 }),
    ] {
        let (backend, stale_seen) = watched();
        let c = Container::create(backend.clone() as Arc<dyn StorageBackend>);
        let id = c
            .create_dataset(
                ROOT_ID,
                "d",
                Datatype::F32,
                &Dataspace::d1(N),
                layout.clone(),
            )
            .expect("create");
        if prefilled {
            c.write_selection(id, &Selection::All, &vec![0u8; N as usize * 4])
                .expect("prefill");
        }
        let sel = Selection::Slab(Hyperslab::strided(&[0], &[N / 3], &[3]));
        let payload: Vec<u8> = (0..N / 3 * 4).map(|i| (i % 0x7d) as u8 + 1).collect();
        assert!(!payload.contains(&STALE));
        // The window's sieve buffer: one span of the extent, or the four
        // chunk spans back to back.
        let sieve_len = match layout {
            Layout::Contiguous => (N as usize - 3) * 4 + 4,
            _ => 4 * ((1500 - 3) * 4 + 4),
        };
        stock(sieve_len, 2);
        let hits = recycle::stats().hits;
        c.write_selection(id, &sel, &payload).expect("sieved write");
        assert!(
            recycle::stats().hits > hits,
            "the sieve buffer was a recycled one"
        );
        assert!(
            !stale_seen.load(Ordering::SeqCst),
            "{layout:?} prefilled {prefilled}: 0xA5 reached the backend"
        );
        assert!(!raw(&*backend).contains(&STALE));
        assert_eq!(c.read_selection(id, &sel).expect("read"), payload);
        // The buffer went back: the class serves the next taker.
        let hits = recycle::stats().hits;
        drop(recycle::lease(sieve_len));
        assert_eq!(recycle::stats().hits, hits + 1);
    }
}

#[test]
fn the_hard_shape_is_one_read_batch_and_one_write_batch() {
    let _turn = pool_turn();
    const RUNS: u64 = 16_384;
    let (backend, _) = watched();
    let c = Container::create(backend.clone() as Arc<dyn StorageBackend>);
    let id = c
        .create_dataset(
            ROOT_ID,
            "d",
            Datatype::F32,
            &Dataspace::d1(2 * RUNS),
            Layout::Contiguous,
        )
        .expect("create");
    c.write_selection(id, &Selection::All, &vec![7u8; 2 * RUNS as usize * 4])
        .expect("prefill");
    let sel = Selection::Slab(Hyperslab::strided(&[0], &[RUNS], &[2]));
    let data: Vec<u8> = (0..RUNS * 4).map(|i| (i % 251) as u8).collect();

    let before = backend.counts();
    c.write_selection(id, &sel, &data).expect("write");
    assert_eq!(
        calls_since(&backend, before),
        (0, 1, 1, 2),
        "16 384 runs: one read batch and one write batch of one segment each, no scalar call"
    );

    // The extent is unflushed, so the read is unverified: one batch.
    let before = backend.counts();
    assert_eq!(c.read_selection(id, &sel).expect("read"), data);
    assert_eq!(calls_since(&backend, before), (0, 1, 0, 1));
    let stats = c.sieve_stats();
    assert_eq!((stats.spans, stats.segments), (2, 2 * RUNS));
    assert_eq!(stats.fill_bytes, 2 * (RUNS - 1) * 4);
}
