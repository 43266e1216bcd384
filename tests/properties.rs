//! Property-based tests over the core data structures and invariants.
//!
//! Randomized inputs come from a fixed-seed LCG (no external dependency),
//! so every run explores the same case set deterministically; failures
//! print the case index and inputs for replay.

use apio::asyncvol::{AsyncVol, BreakerConfig, RetryPolicy};
use apio::desim::{Engine, SharedResource, SimDuration};
use apio::h5lite::{
    container::ROOT_ID, sieve_spans, Container, Dataspace, Datatype, FaultInjector, FaultKind,
    FaultOp, FaultPlan, File, Hyperslab, IoPlan, IoSegment, Layout, MemBackend, Selection, Span,
    ThrottledBackend, Vol, SIEVE_PAGE,
};
use apio::model::epoch::EpochParams;
use apio::model::regression::{Design, LinearFit};
use apio::trace::{DriftDirection, SeriesAggregator, SeriesConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

mod common;
use common::Lcg;

const CASES: usize = 128;

/// Any valid hyperslab's runs are sorted, disjoint, in bounds, and
/// cover exactly `npoints` elements.
#[test]
fn hyperslab_runs_partition_the_selection() {
    let mut rng = Lcg::new(0x5AB1);
    for case in 0..CASES {
        let rank = rng.in_range(1, 4) as usize;
        let dims: Vec<u64> = (0..rank).map(|_| rng.in_range(1, 20)).collect();
        let space = Dataspace::new(&dims);
        let mut start = vec![0u64; rank];
        let mut count = vec![1u64; rank];
        let mut stride = vec![1u64; rank];
        for d in 0..rank {
            start[d] = rng.next() % dims[d];
            let room = dims[d] - start[d];
            stride[d] = 1 + rng.next() % 3;
            let max_count = room.div_ceil(stride[d]);
            count[d] = 1 + rng.next() % max_count;
        }
        let slab = Hyperslab::strided(&start, &count, &stride);
        let sel = Selection::Slab(slab);
        let runs = sel.runs(&space).expect("valid slab");
        let total: u64 = runs.iter().map(|&(_, l)| l).sum();
        assert_eq!(
            total,
            sel.npoints(&space),
            "case {case}: dims {dims:?} start {start:?} count {count:?} stride {stride:?}"
        );
        for w in runs.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "case {case}: sorted + disjoint");
        }
        if let Some(&(off, len)) = runs.last() {
            assert!(off + len <= space.npoints(), "case {case}: in bounds");
        }
    }
}

/// Writing a random hyperslab then reading it back returns the data;
/// elements outside the slab stay zero.
#[test]
fn slab_write_read_roundtrip() {
    let mut rng = Lcg::new(0x0C0FFEE);
    for case in 0..CASES {
        let n = rng.in_range(1, 200);
        let start_frac = rng.unit();
        let len_frac = rng.unit();
        let file = File::create_in_memory().expect("in-memory file");
        let ds = file
            .root()
            .create_dataset::<i64>("d", &Dataspace::d1(n))
            .expect("create");
        ds.write(&vec![0i64; n as usize]).expect("zero fill");
        let start = ((n - 1) as f64 * start_frac) as u64;
        let len = 1 + ((n - start - 1) as f64 * len_frac) as u64;
        let slab = Hyperslab::range1(start, len);
        let vals: Vec<i64> = (0..len as i64).map(|i| i + 1).collect();
        ds.write_slab(&slab, &vals).expect("slab write");
        let all = ds.read::<i64>().expect("read");
        for (i, &v) in all.iter().enumerate() {
            let i = i as u64;
            if i >= start && i < start + len {
                assert_eq!(v, (i - start) as i64 + 1, "case {case}: n {n} start {start} len {len}");
            } else {
                assert_eq!(v, 0, "case {case}: n {n} start {start} len {len}");
            }
        }
    }
}

/// Flow conservation on the processor-sharing resource: all bytes are
/// served, and total service time is at least total_bytes/capacity.
#[test]
fn resource_conserves_bytes() {
    let mut rng = Lcg::new(0xF10E5);
    for case in 0..CASES {
        let capacity = rng.f64_in(1.0, 1e6);
        let nflows = rng.in_range(1, 12) as usize;
        let sizes: Vec<f64> = (0..nflows).map(|_| rng.f64_in(0.0, 1e6)).collect();
        let mut sim = Engine::new();
        let res = SharedResource::new("r", capacity);
        let done = Rc::new(RefCell::new(0usize));
        for &bytes in &sizes {
            let d = done.clone();
            res.start_flow(&mut sim, bytes, None, move |_| {
                *d.borrow_mut() += 1;
            });
        }
        sim.run();
        assert_eq!(*done.borrow(), sizes.len(), "case {case}");
        let total: f64 = sizes.iter().sum();
        assert!(
            (res.bytes_served() - total).abs() <= 1e-6 * total.max(1.0),
            "case {case}: served {} vs {total}",
            res.bytes_served()
        );
        let ideal = total / capacity;
        let elapsed = sim.now().as_secs_f64();
        assert!(
            elapsed >= ideal - 1e-6,
            "case {case}: can't beat capacity: {elapsed} < {ideal}"
        );
    }
}

/// Eq. 2b invariants: async epoch time is monotone in each argument
/// and never beats `max(t_comp, t_io/2... )` — concretely, it is
/// bounded below by both `t_comp` and `t_io − t_comp`.
#[test]
fn epoch_equations_invariants() {
    let mut rng = Lcg::new(0xE90C);
    for case in 0..CASES {
        let comp = rng.f64_in(0.0, 100.0);
        let io = rng.f64_in(0.0, 100.0);
        let ov = rng.f64_in(0.0, 10.0);
        let p = EpochParams::new(comp, io, ov);
        assert!(p.async_time() >= comp, "case {case}: comp {comp} io {io} ov {ov}");
        assert!(p.async_time() >= io - comp, "case {case}");
        assert!(p.async_time() >= ov, "case {case}");
        assert!(p.sync_time() >= io.max(comp), "case {case}");
        // Removing overhead can only help.
        let p0 = EpochParams::new(comp, io, 0.0);
        assert!(p0.async_time() <= p.async_time(), "case {case}");
        // The slowdown characterization.
        let slow = p.async_time() >= p.sync_time();
        assert_eq!(slow, ov >= io.min(2.0 * comp), "case {case}: comp {comp} io {io} ov {ov}");
    }
}

/// OLS on exactly-linear data recovers predictions regardless of the
/// coefficient scales (well-conditioned, distinct features).
#[test]
fn regression_recovers_exact_linear_data() {
    let mut rng = Lcg::new(0x0152);
    for case in 0..CASES {
        let b0 = rng.f64_in(-100.0, 100.0);
        let b1 = rng.f64_in(-100.0, 100.0);
        let xs: Vec<Vec<f64>> = (1..25)
            .map(|i| vec![i as f64, ((i * i) % 23) as f64 + 0.5])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| b0 * x[0] + b1 * x[1]).collect();
        let fit = LinearFit::fit(Design::Linear, &xs, &ys).expect("fit");
        for (x, y) in xs.iter().zip(&ys) {
            let err = (fit.predict(x) - y).abs();
            assert!(
                err <= 1e-6 * y.abs().max(1.0),
                "case {case}: b0 {b0} b1 {b1} err {err}"
            );
        }
    }
}

/// A plan of purely retryable faults (transient, torn, delayed) is
/// invisible: the connector absorbs every fault through retry/backoff
/// and the container ends byte-identical to a shadow model of the
/// writes — on the write path, the read path, and the flush path.
#[test]
fn transient_fault_plans_preserve_dataset_contents() {
    let mut rng = Lcg::new(0x7A51E27);
    for case in 0..12 {
        let n = rng.in_range(64, 512);
        let nwrites = rng.in_range(4, 16);
        let write_rate = rng.f64_in(0.02, 0.2);
        let read_rate = rng.f64_in(0.02, 0.2);
        let torn_rate = rng.f64_in(0.01, 0.1);
        let seed = rng.next();

        let plan = FaultPlan::new(seed)
            .random(FaultOp::Write, torn_rate, FaultKind::Torn { fraction: 0.5 })
            .random(FaultOp::Write, write_rate, FaultKind::Transient)
            .random(FaultOp::Read, read_rate, FaultKind::Transient)
            .random(FaultOp::Flush, 0.5, FaultKind::Transient)
            .random(FaultOp::Write, 0.05, FaultKind::Delay { secs: 1e-5 });
        let injector = Arc::new(FaultInjector::new(Arc::new(MemBackend::new()), plan));
        injector.set_armed(false);

        let c = Arc::new(Container::create(injector.clone()));
        let ds = c
            .create_dataset(
                ROOT_ID,
                "d",
                Datatype::F64,
                &Dataspace::d1(n),
                Layout::Contiguous,
            )
            .expect("create");
        c.flush().expect("metadata flush");

        let vol = AsyncVol::builder()
            .streams(1)
            .retry(RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::default()
            })
            .build();
        injector.set_armed(true);

        // Shadow model: last-writer-wins over random overlapping slabs.
        let mut shadow = vec![0.0f64; n as usize];
        let zeros = apio::h5lite::datatype::to_bytes(&shadow);
        let _ = vol
            .dataset_write(&c, ds, &Selection::All, &zeros)
            .expect("zero fill issue");
        for w in 0..nwrites {
            let start = rng.next() % n;
            let len = 1 + rng.next() % (n - start);
            let vals: Vec<f64> = (0..len)
                .map(|j| (case as u64 * 1000 + w * 10) as f64 + j as f64)
                .collect();
            for (j, v) in vals.iter().enumerate() {
                shadow[(start + j as u64) as usize] = *v;
            }
            let sel = Selection::Slab(Hyperslab::range1(start, len));
            let bytes = apio::h5lite::datatype::to_bytes(&vals);
            let _ = vol
                .dataset_write(&c, ds, &sel, &bytes)
                .expect("transient-only plans never fail an issue");
        }
        vol.wait_all().unwrap_or_else(|e| {
            panic!("case {case} (seed {seed:#x}): retry must absorb all faults: {e}")
        });

        // The faulted read path must also come back clean.
        let back = vol
            .dataset_read(&c, ds, &Selection::All)
            .expect("read issue")
            .wait()
            .expect("retry absorbs read faults");
        let got: Vec<f64> = apio::h5lite::datatype::from_bytes(&back).expect("decode");
        assert_eq!(got, shadow, "case {case} (seed {seed:#x}): contents diverged");
        // And a faulted flush must survive its own retries. Flush runs on
        // the caller's thread below the VOL, so transient flush faults are
        // surfaced to the caller — they must still be *classified* as
        // retryable so the caller's own retry loop (or ours) can absorb
        // them. One flush attempt is now a whole commit protocol (extent
        // hashing reads, metadata append, two sync barriers, the slot
        // write), each op drawing its own fault — so the bound here is
        // wider than the connector's per-op policy.
        let mut flushed = c.flush();
        let mut attempt = 0;
        while let Err(e) = &flushed {
            assert!(e.is_retryable(), "case {case}: flush fault must be transient");
            attempt += 1;
            assert!(attempt < 64, "case {case}: flush retries must terminate");
            flushed = c.flush();
        }
    }
}

/// Whatever the persistent-fault weather, an acknowledged write is never
/// lost: if the connector said `Ok` (sync ack or successful wait), the
/// bytes are in the container afterwards — even across breaker trips,
/// degraded windows, and recovery probes.
#[test]
fn degradation_never_loses_acknowledged_writes() {
    let mut rng = Lcg::new(0xDE6ADE);
    for case in 0..12 {
        let window_start = rng.next() % 6;
        let window_len = 1 + rng.next() % 8;
        let threshold = rng.in_range(1, 4) as u32;
        let probe_after = rng.in_range(1, 4) as u32;
        let seed = rng.next();
        let nslabs = 12u64;

        let plan = FaultPlan::new(seed)
            .fail_after(FaultOp::Write, window_start, FaultKind::Persistent)
            .times(window_len);
        let injector = Arc::new(FaultInjector::new(Arc::new(MemBackend::new()), plan));
        injector.set_armed(false);

        let c = Arc::new(Container::create(injector.clone()));
        let ds = c
            .create_dataset(
                ROOT_ID,
                "d",
                Datatype::F64,
                &Dataspace::d1(nslabs * 8),
                Layout::Contiguous,
            )
            .expect("create");
        c.flush().expect("metadata flush");

        let vol = AsyncVol::builder()
            .streams(1)
            .retry(RetryPolicy::none())
            .breaker(BreakerConfig {
                failure_threshold: threshold,
                probe_after,
            })
            .build();
        injector.set_armed(true);

        let mut acked: Vec<(u64, Vec<f64>)> = Vec::new();
        for i in 0..nslabs {
            let start = i * 8;
            let vals: Vec<f64> = (0..8u64)
                .map(|j| (case as u64 * 1000 + i * 10 + j) as f64)
                .collect();
            let sel = Selection::Slab(Hyperslab::range1(start, 8));
            let bytes = apio::h5lite::datatype::to_bytes(&vals);
            let Ok(req) = vol.dataset_write(&c, ds, &sel, &bytes) else {
                continue; // degraded write hit the dead device: not acked
            };
            if req.is_sync() || vol.wait(req).is_ok() {
                acked.push((start, vals));
            }
        }
        let _ = vol.wait_all(); // drain; leftover failures were never acked

        for (start, vals) in &acked {
            let sel = Selection::Slab(Hyperslab::range1(*start, 8));
            let back = c.read_selection(ds, &sel).expect("read acked slab");
            let got: Vec<f64> = apio::h5lite::datatype::from_bytes(&back).expect("decode");
            assert_eq!(
                &got, vals,
                "case {case} (seed {seed:#x}, window {window_start}+{window_len}, \
                 breaker {threshold}/{probe_after}): acked slab at {start} lost"
            );
        }
        // The fault window is finite and shorter than the schedule, so
        // the tail of the run must always land.
        assert!(
            !acked.is_empty(),
            "case {case}: some writes outlive the fault window"
        );
    }
}

/// The planned (coalescing) selection path is observationally identical
/// to the historical per-run path: one vectored write/read of a random
/// strided selection leaves the container byte-identical to issuing one
/// single-run operation per run, on both layouts.
#[test]
fn planned_selection_path_matches_per_run_reference() {
    let mut rng = Lcg::new(0x91A2);
    for case in 0..32 {
        let n = rng.in_range(16, 500);
        let start = rng.next() % n;
        let stride = rng.in_range(1, 5);
        let max_count = (n - start).div_ceil(stride);
        let count = 1 + rng.next() % max_count;
        let layout = if rng.next().is_multiple_of(2) {
            Layout::Contiguous
        } else {
            Layout::Chunked1D {
                chunk_elems: rng.in_range(1, 48),
            }
        };
        let space = Dataspace::d1(n);
        let sel = Selection::Slab(Hyperslab::strided(&[start], &[count], &[stride]));
        let runs = sel.runs(&space).expect("valid slab");
        let data: Vec<u8> = (0..count * 4)
            .map(|i| (case as u64 * 31 + i) as u8 | 1)
            .collect();

        let mk = || {
            let c = Container::create(Arc::new(MemBackend::new()));
            let id = c
                .create_dataset(ROOT_ID, "d", Datatype::F32, &space, layout.clone())
                .expect("create");
            // Zero-fill so the later `Selection::All` read-back is fully
            // backed (a contiguous dataset's unwritten tail is past the
            // backend's end, which reads reject by contract).
            c.write_selection(id, &Selection::All, &vec![0u8; (n * 4) as usize])
                .expect("prefill");
            (c, id)
        };
        let (planned, pid) = mk();
        let (reference, rid) = mk();

        planned.write_selection(pid, &sel, &data).expect("planned");
        let mut cur = 0usize;
        for &(off, len) in &runs {
            let nb = (len * 4) as usize;
            reference
                .write_selection(
                    rid,
                    &Selection::Slab(Hyperslab::range1(off, len)),
                    &data[cur..cur + nb],
                )
                .expect("per-run");
            cur += nb;
        }

        // Full contents agree, zeros outside the selection included…
        let a = planned.read_selection(pid, &Selection::All).expect("read");
        let b = reference.read_selection(rid, &Selection::All).expect("read");
        assert_eq!(
            a, b,
            "case {case}: n {n} start {start} count {count} stride {stride} {layout:?}"
        );
        // …and both read paths return the written bytes.
        let planned_back = planned.read_selection(pid, &sel).expect("planned read");
        assert_eq!(planned_back, data, "case {case}: planned read-back");
        let mut per_run_back = Vec::new();
        for &(off, len) in &runs {
            per_run_back.extend(
                reference
                    .read_selection(rid, &Selection::Slab(Hyperslab::range1(off, len)))
                    .expect("per-run read"),
            );
        }
        assert_eq!(per_run_back, data, "case {case}: reference read-back");
    }
}

/// The planner lowers a selection row by row and extent by extent
/// ([`IoPlan::contiguous`] / [`IoPlan::chunked`] over `Selection::rows`);
/// `Selection::runs` spells the same selection out element by element.
/// Over random dataspaces of rank 1–3, strides from 1 up, contiguous and
/// chunked layouts with some chunks never allocated, the row plan
/// expanded piece by piece is the run plan — address, cursor, length,
/// order, `total_bytes` and `mapped_bytes` — and sieves into the same
/// spans, while holding at most one record per row and touched chunk.
#[test]
fn row_plans_expand_to_the_run_plans_and_sieve_into_the_same_spans() {
    for salt in 0..64u64 {
        let mut rng = Lcg::new(0x20_E7E7 + salt);
        for case in 0..8 {
            let elem = [1u64, 2, 4, 8][(rng.next() % 4) as usize];
            let chunk_elems = rng.next().is_multiple_of(3).then(|| rng.in_range(1, 200));
            let rank = match chunk_elems {
                Some(_) => 1,
                None => rng.in_range(1, 4) as usize,
            };
            let dims: Vec<u64> = (0..rank)
                .map(|_| rng.in_range(1, [4000, 70, 14][rank - 1]))
                .collect();
            let space = Dataspace::new(&dims);
            let sel = if rng.next().is_multiple_of(8) {
                Selection::All
            } else {
                let (mut start, mut count, mut stride) = (vec![], vec![], vec![]);
                for &dim in &dims {
                    let st = rng.next() % dim;
                    // Mostly fine strides (these sieve), sometimes ones
                    // whose holes pass a page.
                    let strd = match rng.next() % 4 {
                        0 => 1,
                        1 if rank == 1 => rng.in_range(2, 1500),
                        _ => rng.in_range(2, 6),
                    };
                    start.push(st);
                    count.push(1 + rng.next() % (dim - st).div_ceil(strd));
                    stride.push(strd);
                }
                Selection::Slab(Hyperslab::strided(&start, &count, &stride))
            };
            let ctx = format!("salt {salt} case {case}: {dims:?} x{elem} {chunk_elems:?} {sel:?}");
            let runs = sel.runs(&space).expect("valid selection");
            let rows = || sel.rows(&space).expect("valid selection");

            let (plan, reference, extents, row_extents) = match chunk_elems {
                None => {
                    let base = 128 + rng.next() % 4096;
                    let extents = vec![(base, space.npoints() * elem)];
                    (
                        IoPlan::contiguous(base, elem, rows()).expect("row plan"),
                        IoPlan::for_contiguous(base, elem, &runs).expect("run plan"),
                        extents,
                        rows().count() as u64,
                    )
                }
                Some(ce) => {
                    // Chunks back to front with something between them;
                    // one in `holes` was never allocated.
                    let chunks = dims[0].div_ceil(ce);
                    let holes = rng.in_range(2, 6);
                    let addr_of = |idx: u64| {
                        (idx % holes != 1).then(|| 4096 + (chunks - idx) * (ce * elem + 40))
                    };
                    let extents = (0..chunks)
                        .filter_map(|idx| Some((addr_of(idx)?, ce * elem)))
                        .collect();
                    // One record at most per row and chunk the row has
                    // pieces in.
                    let touched: u64 = rows()
                        .map(|r| (r.off + (r.count - 1) * r.stride + r.len - 1) / ce - r.off / ce + 1)
                        .sum();
                    (
                        IoPlan::chunked(ce, elem, rows(), addr_of).expect("row plan"),
                        IoPlan::for_chunked(ce, elem, &runs, addr_of).expect("run plan"),
                        extents,
                        touched,
                    )
                }
            };

            let pieces: Vec<IoSegment> = plan.segments().collect();
            let want: Vec<IoSegment> = reference.segments().collect();
            assert_eq!(pieces, want, "{ctx}: pieces");
            assert_eq!(plan.segment_count(), want.len() as u64, "{ctx}: piece count");
            assert_eq!(plan.total_bytes(), reference.total_bytes(), "{ctx}: total bytes");
            assert_eq!(plan.total_bytes(), sel.npoints(&space) * elem, "{ctx}: total bytes");
            assert_eq!(plan.mapped_bytes(), reference.mapped_bytes(), "{ctx}: mapped bytes");
            // Rows that touch split a record in three at most.
            assert!(
                plan.records().len() as u64 <= 3 * row_extents,
                "{ctx}: {} records for {row_extents} row extents",
                plan.records().len()
            );

            // Same spans, whichever way the plan is held: compare what
            // reaches the device and where it lands in the buffer.
            let shape = |s: &Span| (s.addr, s.len, s.cursor, s.count);
            let spans = sieve_spans(plan.records(), extents.iter().copied());
            let by_run = sieve_spans(reference.records(), extents.iter().copied());
            assert!(
                spans.iter().map(shape).eq(by_run.iter().map(shape)),
                "{ctx}: spans {spans:?} vs {by_run:?}"
            );
            assert_eq!(spans.iter().map(|s| s.count).sum::<u64>(), want.len() as u64, "{ctx}");
            for span in &spans {
                let parts: Vec<IoSegment> = span
                    .parts(plan.records())
                    .flat_map(|part| part.pieces().collect::<Vec<_>>())
                    .collect();
                let first = want.iter().position(|s| s.cursor == span.cursor).expect("span start");
                assert_eq!(parts, want[first..first + span.count as usize], "{ctx}: {span:?}");
            }
        }
    }
}

/// Coalescing must not shift fault-plan indices. For a plan with no
/// sieved span the k-th write fault
/// hits the same logical backend operation whether the selection goes
/// through one planned call or the per-run reference sequence, leaving
/// both containers in identical states with identical injection counts.
///
/// A finely strided plan sieves: one backend op per span, so a fault
/// index names a span. There the claims are: the fault fires exactly
/// when the index is below the span count (as it does in the reference,
/// which has at least as many ops); after it, every selected byte is old
/// or new and every unselected byte is unchanged; and a write the fault
/// did not reach is complete.
///
/// Which of the two a case is follows from the sieve rule, not from the
/// stride alone: two neighbouring selected elements share a span iff
/// each is shorter than a page (an f32 always is), the hole between them
/// is at most a page, they lie in one extent — always on a contiguous
/// layout, only when both fall in the same chunk on a chunked one — and
/// the span stays under the cap (two elements always do). A fine stride
/// over chunks no longer than it sieves nothing.
#[test]
fn planned_path_preserves_fault_plan_indices() {
    for salt in 0..64u64 {
        planned_path_fault_indices(salt);
    }
}

fn planned_path_fault_indices(salt: u64) {
    let mut rng = Lcg::new(0xFA171 + salt);
    for case in 0..8 {
        // Half the cases cannot sieve (holes of more than a page), half
        // do wherever two selected elements share an extent (holes of at
        // most three elements).
        let far = case % 2 == 0;
        let stride = if far {
            rng.in_range(1026, 1100)
        } else {
            rng.in_range(2, 5)
        };
        let count = rng.in_range(2, 40);
        let start = rng.in_range(0, 16);
        let n = start + (count - 1) * stride + 1 + rng.in_range(0, 16);
        let layout = if rng.next().is_multiple_of(2) {
            Layout::Contiguous
        } else {
            Layout::Chunked1D {
                chunk_elems: rng.in_range(1, 32),
            }
        };
        let space = Dataspace::d1(n);
        let sel = Selection::Slab(Hyperslab::strided(&[start], &[count], &[stride]));
        let runs = sel.runs(&space).expect("valid slab");
        assert_eq!(runs.len() as u64, count);
        // Old bytes have the high bit set, new bytes never do.
        let old: Vec<u8> = (0..n * 4).map(|i| 0x80 | (i % 0x7f) as u8).collect();
        let data: Vec<u8> = (0..count * 4).map(|i| (7 + case as u64 + i) as u8 & 0x7f).collect();

        // Backend write ops of the planned call, from a fault-free run.
        let ops = {
            let c = Container::create_mem();
            let id = c
                .create_dataset(ROOT_ID, "d", Datatype::F32, &space, layout.clone())
                .expect("create");
            c.write_selection(id, &Selection::All, &old).expect("prefill");
            let spans0 = c.sieve_stats();
            c.write_selection(id, &sel, &data).expect("dry run");
            let sieved = c.sieve_stats();
            let folded = sieved.segments - spans0.segments;
            count - folded + (sieved.spans - spans0.spans)
        };
        let one_extent = |i: u64| match layout {
            Layout::Contiguous => true,
            Layout::Chunked1D { chunk_elems } => {
                (start + i * stride) / chunk_elems == (start + (i + 1) * stride) / chunk_elems
            }
        };
        let sieves = (stride - 1) * 4 <= SIEVE_PAGE && (0..count - 1).any(one_extent);
        assert_eq!(
            ops < count,
            sieves,
            "salt {salt} case {case}: stride {stride} {layout:?} sieves iff two neighbours share a span"
        );

        // Fault the k-th data write; k sometimes past the end (no fault).
        let k = rng.next() % (ops + 3);
        let kind = if rng.next().is_multiple_of(2) {
            FaultKind::Transient
        } else {
            FaultKind::Torn { fraction: 0.5 }
        };

        let mk = || {
            let plan = FaultPlan::new(7)
                .fail_at(FaultOp::Write, k, kind.clone())
                .times(1);
            let inj = Arc::new(FaultInjector::new(Arc::new(MemBackend::new()), plan));
            inj.set_armed(false);
            let c = Container::create(inj.clone());
            let id = c
                .create_dataset(ROOT_ID, "d", Datatype::F32, &space, layout.clone())
                .expect("create");
            // Pre-allocate every chunk while disarmed so both paths run
            // the same steady-state op sequence (first-write zero fills
            // would interleave differently between the two schedules).
            c.write_selection(id, &Selection::All, &old).expect("prefill");
            inj.set_armed(true);
            (c, inj, id)
        };
        let (pc, pinj, pid) = mk();
        let (rc, rinj, rid) = mk();

        let planned_res = pc.write_selection(pid, &sel, &data);
        let mut reference_res = Ok(());
        let mut cur = 0usize;
        for &(off, len) in &runs {
            let nb = (len * 4) as usize;
            let r = rc.write_selection(
                rid,
                &Selection::Slab(Hyperslab::range1(off, len)),
                &data[cur..cur + nb],
            );
            cur += nb;
            if r.is_err() {
                reference_res = r;
                break; // the planned batch also stops at the first fault
            }
        }

        let ctx = format!(
            "salt {salt} case {case}: n {n} start {start} count {count} stride {stride} k {k} of {ops} {layout:?}"
        );
        assert_eq!(planned_res.is_err(), k < ops, "{ctx}: planned outcome");
        assert_eq!(pinj.injected(), u64::from(k < ops), "{ctx}: planned injections");
        pinj.set_armed(false);
        rinj.set_armed(false);
        let a = pc.read_selection(pid, &Selection::All).expect("read");
        if !sieves {
            assert_eq!(planned_res.is_ok(), reference_res.is_ok(), "{ctx}: outcome");
            assert_eq!(pinj.injected(), rinj.injected(), "{ctx}: injected count");
            let b = rc.read_selection(rid, &Selection::All).expect("read");
            assert_eq!(a, b, "{ctx}: post-fault contents diverged");
        } else if k < ops {
            // The reference has one op per run, so index k exists there too.
            assert!(reference_res.is_err(), "{ctx}: reference outcome");
            assert_eq!(rinj.injected(), 1, "{ctx}: reference injections");
        }
        let mut selected = vec![None; a.len()];
        for (i, &(off, len)) in runs.iter().enumerate() {
            assert_eq!(len, 1);
            for byte in 0..4 {
                selected[off as usize * 4 + byte] = Some(data[i * 4 + byte]);
            }
        }
        for (i, (&got, new)) in a.iter().zip(&selected).enumerate() {
            match new {
                Some(new) if planned_res.is_ok() => {
                    assert_eq!(got, *new, "{ctx}: selected byte {i} not written")
                }
                Some(new) => assert!(
                    got == old[i] || got == *new,
                    "{ctx}: byte {i} is neither old nor new"
                ),
                None => assert_eq!(got, old[i], "{ctx}: unselected byte {i} changed"),
            }
        }
    }
}

/// A stationary I/O rate with bounded seeded noise never trips the
/// drift detector: 10k epochs of ±5% rate jitter produce zero alarms,
/// for every seed. (The Page–Hinkley `delta` slack is sized to absorb
/// exactly this kind of stationary wobble.)
#[test]
fn stationary_rate_noise_never_false_alarms() {
    for seed in [0x5E41u64, 0xD41F7, 0x00B5, 0xF00D] {
        let mut rng = Lcg::new(seed);
        let mut series = SeriesAggregator::new(SeriesConfig::default());
        let bytes = 1u64 << 26;
        for epoch in 0..10_000u64 {
            let rate = 1e9 * rng.f64_in(0.95, 1.05);
            let nanos = (bytes as f64 / rate * 1e9) as u64;
            series.record_io(bytes, nanos);
            assert!(
                series.end_epoch().is_none(),
                "seed {seed:#x} epoch {epoch}: false alarm on stationary noise"
            );
        }
        assert!(series.alarms().is_empty(), "seed {seed:#x}");
        assert_eq!(series.epochs(), 10_000);
    }
}

/// A genuine step change in backend rate — the device bandwidth dropped
/// mid-run via [`ThrottledBackend::set_bandwidth`] — fires a `Down`
/// alarm within K epochs of the step, for every seeded degradation
/// factor, while the pre-step epochs stay silent.
#[test]
fn backend_rate_step_fires_drift_alarm_within_k_epochs() {
    const K: usize = 4;
    let mut rng = Lcg::new(0xD21F7);
    for case in 0..4 {
        let factor = rng.f64_in(8.0, 64.0);
        let fast = 2e8; // 200 MB/s: stalls long enough to dominate noise
        let backend = Arc::new(ThrottledBackend::new(
            Box::new(MemBackend::new()),
            fast,
            0.0,
        ));
        let c = Container::create(backend.clone());
        let n = 1u64 << 18; // 1 MiB of f32 per epoch write
        let ds = c
            .create_dataset(ROOT_ID, "d", Datatype::F32, &Dataspace::d1(n), Layout::Contiguous)
            .expect("create");
        let data = vec![1u8; (n * 4) as usize];
        let sel = Selection::All;
        // Warm the path (chunk allocation) outside the measured epochs.
        c.write_selection(ds, &sel, &data).expect("warm write");

        // Real wall-clock rates carry scheduler noise; 1.5 still fires
        // within an epoch on the >= ln(8) ≈ 2.1 log-rate step below.
        let cfg = SeriesConfig {
            ph_lambda: 1.5,
            ..SeriesConfig::default()
        };
        let mut series = SeriesAggregator::new(cfg);
        let epoch_write = |series: &mut SeriesAggregator| {
            let t0 = std::time::Instant::now();
            c.write_selection(ds, &sel, &data).expect("epoch write");
            series.record_io(data.len() as u64, t0.elapsed().as_nanos() as u64);
            series.end_epoch()
        };

        for epoch in 0..10 {
            assert!(
                epoch_write(&mut series).is_none(),
                "case {case} (factor {factor:.1}): false alarm at fast epoch {epoch}"
            );
        }

        backend.set_bandwidth(fast / factor);
        let fired = (0..K).find_map(|k| epoch_write(&mut series).map(|a| (k, a)));
        let (k, alarm) = fired.unwrap_or_else(|| {
            panic!("case {case}: a {factor:.1}x step must fire within {K} epochs")
        });
        assert_eq!(
            alarm.direction,
            DriftDirection::Down,
            "case {case}: degradation is a downward drift"
        );
        assert!(
            alarm.observed_rate < alarm.ewma_rate,
            "case {case} (alarm {k} epochs after the step): observed below the smoothed rate"
        );
    }
}

/// MVCC guarantee for long-lived readers: a snapshot captured once keeps
/// resolving every chunk address byte-identically through 1k interleaved
/// overwrites, dataset resizes, new-dataset creations, and flushes —
/// without a single metadata-lock acquisition per read. In-place
/// overwrites of captured chunks *are* visible (the snapshot pins
/// addresses, not bytes; extent allocation is append-only, so an address
/// never changes owner), while everything allocated after the capture —
/// grown tails, new tenants' datasets — is invisible.
#[test]
fn long_lived_snapshot_resolves_addresses_through_1k_mutations() {
    let mut rng = Lcg::new(0x5AA9_57A7);
    const CHUNK: u64 = 8;
    const BASE: u64 = 256; // elements at capture time
    const MAX: u64 = 4096; // growth cap across the run

    let c = Container::create(Arc::new(MemBackend::new()));
    let base = c
        .create_dataset(
            ROOT_ID,
            "base",
            Datatype::F32,
            &Dataspace::d1(BASE),
            Layout::Chunked1D { chunk_elems: CHUNK },
        )
        .expect("create");
    // Allocate every captured chunk with known bytes.
    let mut shadow: Vec<u8> = (0..BASE * 4).map(|i| (i % 251) as u8 + 1).collect();
    c.write_selection(base, &Selection::All, &shadow).expect("prefill");

    let snap = c.snapshot();
    let gen0 = snap.dataset_generation(base).expect("captured");

    let mut len = BASE; // live length of `base`
    let mut extras: Vec<u64> = Vec::new(); // dataset ids created after capture
    for op in 0..1000u64 {
        match rng.next() % 10 {
            // Overwrite a random slab inside the captured shape — visible
            // through the snapshot because the chunk address is shared.
            0..=5 => {
                let start = rng.next() % BASE;
                let n = 1 + rng.next() % (BASE - start);
                let vals: Vec<u8> = (0..n * 4).map(|i| (op * 13 + i) as u8 | 1).collect();
                c.write_selection(base, &Selection::Slab(Hyperslab::range1(start, n)), &vals)
                    .expect("overwrite");
                shadow[(start * 4) as usize..((start + n) * 4) as usize].copy_from_slice(&vals);
            }
            // Grow the dataset and write into the fresh tail — those
            // chunks allocate after the capture, invisible to it.
            6 | 7 => {
                if len < MAX {
                    let grow = CHUNK * (1 + rng.next() % 4);
                    c.extend_dataset(base, len + grow).expect("extend");
                    let vals = vec![0xEEu8; (grow * 4) as usize];
                    c.write_selection(base, &Selection::Slab(Hyperslab::range1(len, grow)), &vals)
                        .expect("tail write");
                    len += grow;
                }
            }
            // A new tenant arrives after the capture.
            8 => {
                if extras.len() < 24 {
                    let name = format!("t{}", extras.len());
                    let id = c
                        .create_dataset(
                            ROOT_ID,
                            &name,
                            Datatype::F32,
                            &Dataspace::d1(CHUNK),
                            Layout::Chunked1D { chunk_elems: CHUNK },
                        )
                        .expect("tenant create");
                    c.write_selection(id, &Selection::All, &vec![0xAAu8; (CHUNK * 4) as usize])
                        .expect("tenant write");
                    extras.push(id);
                }
            }
            // Flush republishes (model-dependent) and rewrites extent
            // checksums — none of it may disturb captured addresses.
            _ => c.flush().expect("flush"),
        }

        if (op + 1) % 100 == 0 {
            let s0 = c.meta_lock_stats();
            let through = c
                .read_snapshot(&snap, base, &Selection::All)
                .expect("snapshot read");
            let s1 = c.meta_lock_stats();
            assert_eq!(through, shadow, "op {op}: snapshot resolution diverged");
            assert_eq!(s1.total(), s0.total(), "op {op}: snapshot read took a metadata lock");
        }
    }

    // `Selection::All` through the snapshot still resolves the *captured*
    // shape, not the grown one — and every chunk address individually.
    let through = c.read_snapshot(&snap, base, &Selection::All).expect("final read");
    assert_eq!(through.len(), (BASE * 4) as usize);
    assert_eq!(through, shadow);
    for chunkno in 0..BASE / CHUNK {
        let sel = Selection::Slab(Hyperslab::range1(chunkno * CHUNK, CHUNK));
        let one = c.read_snapshot(&snap, base, &sel).expect("chunk read");
        let lo = (chunkno * CHUNK * 4) as usize;
        assert_eq!(&one[..], &shadow[lo..lo + (CHUNK * 4) as usize], "chunk {chunkno}");
    }
    // Post-capture objects are invisible; the captured generation is
    // pinned even though the live dataset mutated ~1k times.
    assert_eq!(snap.dataset_generation(base), Some(gen0));
    assert!(len > BASE, "the schedule must actually resize");
    assert!(!extras.is_empty(), "the schedule must actually add tenants");
    for id in extras {
        assert!(!snap.contains(id), "dataset {id} postdates the capture");
    }
}

/// The slice codec is the per-element `to_le_bytes` reference, for all
/// ten datatypes: seeded random bit patterns (so floats include NaNs
/// with arbitrary payload bits, infinities and subnormals), lengths 0,
/// 1 and odd, decode inverts encode bit for bit, and a byte length that
/// is not a multiple of the element size is refused.
#[test]
fn slice_codec_matches_the_per_element_reference() {
    use apio::h5lite::datatype::{from_bytes, to_bytes};
    use apio::h5lite::{H5Error, H5Type};

    macro_rules! check {
        ($rng:expr, $t:ty, $from_bits:expr) => {{
            const N: usize = std::mem::size_of::<$t>();
            for case in 0..CASES {
                let len = match case {
                    0 => 0,
                    1 => 1,
                    _ => $rng.in_range(0, 300) as usize | 1,
                };
                let vals: Vec<$t> = (0..len)
                    .map(|_| ($from_bits)($rng.next() << 42 | $rng.next() << 21 | $rng.next()))
                    .collect();
                let reference: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
                let name = <$t as H5Type>::DTYPE.name();
                assert_eq!(to_bytes(&vals), reference, "{name} case {case}: encode");
                // Into a dirty buffer: every byte must be overwritten.
                let mut dirty = vec![0xA5u8; len * N];
                <$t>::encode_slice(&vals, &mut dirty);
                assert_eq!(dirty, reference, "{name} case {case}: encode over stale bytes");
                let back = from_bytes::<$t>(&reference).expect("whole elements");
                let back_bytes: Vec<u8> = back.iter().flat_map(|v| v.to_le_bytes()).collect();
                assert_eq!(back_bytes, reference, "{name} case {case}: decode, bit for bit");
                if N > 1 && len > 0 {
                    assert!(
                        matches!(
                            from_bytes::<$t>(&reference[..len * N - 1]),
                            Err(H5Error::ShapeMismatch(_))
                        ),
                        "{name} case {case}: ragged length"
                    );
                }
            }
        }};
    }

    let mut rng = Lcg::new(0xC0DEC);
    check!(rng, u8, |b: u64| b as u8);
    check!(rng, i8, |b: u64| b as i8);
    check!(rng, u16, |b: u64| b as u16);
    check!(rng, i16, |b: u64| b as i16);
    check!(rng, u32, |b: u64| b as u32);
    check!(rng, i32, |b: u64| b as i32);
    check!(rng, u64, |b: u64| b);
    check!(rng, i64, |b: u64| b as i64);
    check!(rng, f32, |b: u64| f32::from_bits(b as u32));
    check!(rng, f64, f64::from_bits);
    // And one NaN chosen by hand: quiet, with payload bits.
    let nan = f32::from_bits(0x7FC0_1234);
    assert_eq!(from_bytes::<f32>(&to_bytes(&[nan])).expect("one f32")[0].to_bits(), nan.to_bits());
}

/// Engine determinism: the same schedule always fires in the same
/// order (a regression guard for the heap tie-break).
#[test]
fn engine_is_deterministic() {
    let mut rng = Lcg::new(0xDE7E);
    for case in 0..CASES {
        let n = rng.in_range(1, 50) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.next() % 1000).collect();
        let run_once = |delays: &[u64]| -> Vec<usize> {
            let mut sim = Engine::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for (i, &d) in delays.iter().enumerate() {
                let log = log.clone();
                sim.schedule(SimDuration::from_nanos(d), move |_| log.borrow_mut().push(i));
            }
            sim.run();
            Rc::try_unwrap(log).expect("sole owner").into_inner()
        };
        assert_eq!(run_once(&delays), run_once(&delays), "case {case}: {delays:?}");
    }
}
