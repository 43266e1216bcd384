//! Whole-stack crash-point enumeration and integrity acceptance tests
//! (ISSUE 7).
//!
//! The first scenario puts the metadata plane, the data plane, and the
//! staging WAL behind one shared [`CrashClock`]: the sweep cuts
//! persistence after the k-th mutation of the *combined* device order,
//! so the enumerated crash instants include the middle of the setup
//! flush, the gap between a WAL append and its applied flag, and the
//! container write itself. Companion scenarios pin the integrity layer
//! point-blank: every seeded bit-flip must surface as a checksum error
//! on the read that saw it, and a scrub must rebuild a silently
//! corrupted extent byte-perfect from the staging WAL.

use std::sync::Arc;

use apio::asyncvol::{AsyncVol, BreakerConfig, RetryPolicy};
use apio::crashpoint::{sweep, sweep_torn, CrashBackend};
use apio::h5lite::{
    container::ROOT_ID, datatype::to_bytes, Container, Dataspace, Datatype, FaultInjector,
    FaultKind, FaultOp, FaultPlan, H5Error, Hyperslab, Layout, MemBackend, Selection,
    StorageBackend, Vol,
};

const PROPS: usize = 2; // datasets
const STEPS: u32 = 2; // slab writes per dataset
const SLAB: u64 = 16; // elements per slab write
const N: u64 = STEPS as u64 * SLAB; // elements per dataset

fn slab_values(step: u32, prop: usize) -> Vec<f32> {
    (0..SLAB)
        .map(|i| (step as u64 * SLAB + i) as f32 + prop as f32 * 1000.0)
        .collect()
}

fn create_datasets(c: &Container) -> Vec<apio::h5lite::ObjectId> {
    (0..PROPS)
        .map(|p| {
            c.create_dataset(
                ROOT_ID,
                &format!("prop{p}"),
                Datatype::F32,
                &Dataspace::d1(N),
                Layout::Contiguous,
            )
            .expect("create dataset")
        })
        .collect()
}

#[test]
fn whole_stack_crash_enumeration_holds_every_durability_invariant() {
    let report = sweep(|clock| {
        // One clock across both devices: the cut lands at a single point
        // of the combined mutation order, exactly like a node power cut.
        let c_inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let wal_inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c_dev: Arc<dyn StorageBackend> =
            Arc::new(CrashBackend::new(c_inner.clone(), clock.clone()));
        let wal_dev: Arc<dyn StorageBackend> =
            Arc::new(CrashBackend::new(wal_inner.clone(), clock.clone()));

        // Setup itself is inside the crash window: the cut may land in
        // the middle of the metadata flush.
        let c = Arc::new(Container::create(c_dev));
        let ids = create_datasets(&c);
        let setup_ok = c.flush().is_ok();

        let mut acked = vec![false; STEPS as usize * PROPS];
        if setup_ok {
            let vol = AsyncVol::builder()
                .streams(1)
                .stage_to_device(wal_dev)
                .retry(RetryPolicy::none())
                // Durability, not degradation: a dead device must keep
                // refusing issues, not reroute them around the log.
                .breaker(BreakerConfig {
                    failure_threshold: u32::MAX,
                    probe_after: 4,
                })
                .build();
            for step in 0..STEPS {
                for (p, &ds) in ids.iter().enumerate() {
                    let sel = Selection::Slab(Hyperslab::range1(step as u64 * SLAB, SLAB));
                    let bytes = to_bytes(&slab_values(step, p));
                    acked[step as usize * PROPS + p] =
                        vol.dataset_write(&c, ds, &sel, &bytes).is_ok();
                }
            }
            let _ = vol.wait_all(); // post-cut container writes fail: benign
            drop(vol); // crash
        }
        drop(c);

        // Reboot from what actually persisted.
        let c2 = match Container::open(c_inner) {
            Ok(c2) => Arc::new(c2),
            Err(e) => {
                // Legal only while the metadata plane never became
                // durable — and then nothing was acknowledged either.
                if setup_ok {
                    return Err(format!("flushed metadata plane unreadable: {e}"));
                }
                return Ok(());
            }
        };
        let vol2 = AsyncVol::builder().stage_to_device(wal_inner).build();
        let rec = vol2
            .recover_and_scrub(&c2)
            .map_err(|e| format!("recovery: {e}"))?;
        if rec.scrub_repaired < rec.scrub_corrupt {
            return Err(format!("recovery scrub left corruption behind: {rec:?}"));
        }

        // Every acknowledged write survives the cut; a refused issue was
        // never dispatched, so its slab must still be zeros.
        for step in 0..STEPS {
            for p in 0..PROPS {
                let ds = c2
                    .lookup(ROOT_ID, &format!("prop{p}"))
                    .map_err(|e| format!("metadata plane lost prop{p}: {e}"))?;
                let sel = Selection::Slab(Hyperslab::range1(step as u64 * SLAB, SLAB));
                let got = c2
                    .read_selection(ds, &sel)
                    .map_err(|e| format!("read prop{p} step {step}: {e}"))?;
                let was_acked = acked[step as usize * PROPS + p];
                let want = if was_acked {
                    to_bytes(&slab_values(step, p))
                } else {
                    vec![0u8; (SLAB * 4) as usize]
                };
                if got != want {
                    return Err(format!(
                        "prop{p} step {step}: acked={was_acked} but recovered bytes differ"
                    ));
                }
            }
        }
        Ok(())
    });

    assert!(report.ok(), "{}", report.failure.expect("failure"));
    // The combined order spans the setup flush, one append and one
    // container write per issued slab, and the applied flags.
    let frames = STEPS as u64 * PROPS as u64;
    assert!(
        report.boundaries > frames,
        "{} boundaries cannot cover setup + {frames} writes",
        report.boundaries
    );
    assert_eq!(report.runs, report.boundaries + 2);
}

/// ISSUE 9 satellite: cross-shard generation atomicity under torn
/// boundary writes. The metadata plane is sharded per dataset, but a
/// flush commits ONE superblock generation covering every shard — so a
/// crash anywhere inside the commit (including a write chopped
/// mid-sector) must reopen as either the whole old generation or the
/// whole new one, never a shard-wise mix. The workload stamps the two
/// generations so a mix is detectable: generation A creates four
/// chunked datasets (ids landing in four different shards) and fills
/// chunk 0; generation B extends all four (a per-shard chunk-map
/// mutation), fills chunk 1, and creates four more datasets. Any
/// reopen where *some* shards show B-state and others A-state fails.
#[test]
fn torn_crash_between_shard_commits_never_reopens_a_mixed_generation() {
    const W: usize = 4; // datasets per wave, ids 2..=5 → shards 2..=5
    const CHUNK: u64 = 16;

    fn wave_values(wave: u64, i: usize) -> Vec<f32> {
        (0..CHUNK)
            .map(|e| (wave * 10_000 + i as u64 * 100 + e) as f32)
            .collect()
    }

    // Clean cut (prefix 0) plus two torn prefixes: one byte (tears
    // everything) and 33 bytes (tears a superblock slot mid-payload and
    // a metadata extent mid-record).
    let report = sweep_torn(&[0, 1, 33], |clock| {
        let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let dev: Arc<dyn StorageBackend> = Arc::new(CrashBackend::new(inner.clone(), clock.clone()));
        let c = Container::create(dev);

        // Generation A.
        let mut ids = Vec::new();
        for i in 0..W {
            let Ok(id) = c.create_dataset(
                ROOT_ID,
                &format!("a{i}"),
                Datatype::F32,
                &Dataspace::d1(CHUNK),
                Layout::Chunked1D { chunk_elems: CHUNK },
            ) else {
                break;
            };
            ids.push(id);
        }
        let mut a_ok = ids.len() == W;
        for (i, &id) in ids.iter().enumerate() {
            let sel = Selection::Slab(Hyperslab::range1(0, CHUNK));
            if c.write_selection(id, &sel, &to_bytes(&wave_values(1, i))).is_err() {
                a_ok = false;
            }
        }
        let committed_a = a_ok && c.flush().is_ok();

        // Generation B: per-shard mutations plus new objects.
        if committed_a {
            let mut b_ok = true;
            for (i, &id) in ids.iter().enumerate() {
                if c.extend_dataset(id, 2 * CHUNK).is_err() {
                    b_ok = false;
                    break;
                }
                let sel = Selection::Slab(Hyperslab::range1(CHUNK, CHUNK));
                if c.write_selection(id, &sel, &to_bytes(&wave_values(2, i))).is_err() {
                    b_ok = false;
                    break;
                }
            }
            for i in 0..W {
                if !b_ok {
                    break;
                }
                b_ok = c
                    .create_dataset(
                        ROOT_ID,
                        &format!("b{i}"),
                        Datatype::F32,
                        &Dataspace::d1(CHUNK),
                        Layout::Chunked1D { chunk_elems: CHUNK },
                    )
                    .and_then(|id| {
                        let sel = Selection::Slab(Hyperslab::range1(0, CHUNK));
                        c.write_selection(id, &sel, &to_bytes(&wave_values(3, i)))
                    })
                    .is_ok();
            }
            if b_ok {
                let _ = c.flush(); // the cut may land anywhere inside
            }
        }
        drop(c); // crash (Drop's best-effort flush is refused past the cut)

        // Reboot from what persisted.
        let c2 = match Container::open(inner) {
            Ok(c2) => c2,
            Err(e) => {
                if committed_a {
                    return Err(format!("generation A was acked but is unreadable: {e}"));
                }
                return Ok(()); // nothing ever committed: legal
            }
        };
        // Which generation is visible? Decide once, then hold EVERY
        // shard to it.
        let have_b = c2.lookup(ROOT_ID, "b0").is_ok();
        for i in 0..W {
            let a_id = c2
                .lookup(ROOT_ID, &format!("a{i}"))
                .map_err(|e| format!("a{i} missing from the visible generation: {e}"))?;
            let len = c2
                .dataset_info(a_id)
                .map_err(|e| format!("a{i} info: {e}"))?
                .space
                .npoints();
            let want_len = if have_b { 2 * CHUNK } else { CHUNK };
            if len != want_len {
                return Err(format!(
                    "mixed generation: b-wave visible={have_b} but a{i} has {len} elements \
                     (want {want_len}) — shard {i} reopened at a different generation"
                ));
            }
            if c2.lookup(ROOT_ID, &format!("b{i}")).is_ok() != have_b {
                return Err(format!(
                    "mixed generation: b0 visible={have_b} but b{i} visibility differs"
                ));
            }
            // A visible generation implies its data mutations were all
            // admitted before the commit — verify bytes, checksums on.
            let sel0 = Selection::Slab(Hyperslab::range1(0, CHUNK));
            let got = c2
                .read_selection(a_id, &sel0)
                .map_err(|e| format!("a{i} chunk 0: {e}"))?;
            if got != to_bytes(&wave_values(1, i)) {
                return Err(format!("a{i} chunk 0 bytes differ after reopen"));
            }
            if have_b {
                let sel1 = Selection::Slab(Hyperslab::range1(CHUNK, CHUNK));
                let got = c2
                    .read_selection(a_id, &sel1)
                    .map_err(|e| format!("a{i} chunk 1: {e}"))?;
                if got != to_bytes(&wave_values(2, i)) {
                    return Err(format!("a{i} chunk 1 bytes differ after reopen"));
                }
                let b_id = c2.lookup(ROOT_ID, &format!("b{i}")).map_err(|e| e.to_string())?;
                let got = c2
                    .read_selection(b_id, &sel0)
                    .map_err(|e| format!("b{i}: {e}"))?;
                if got != to_bytes(&wave_values(3, i)) {
                    return Err(format!("b{i} bytes differ after reopen"));
                }
            }
        }
        Ok(())
    });

    assert!(report.ok(), "{}", report.failure.expect("failure"));
    // Two waves of chunk fills + data writes + two flush commits: the
    // boundary count must cover both generations' mutation trains.
    assert!(
        report.boundaries > 2 * W as u64,
        "{} boundaries cannot span two commit waves",
        report.boundaries
    );
    assert_eq!(report.runs, 1 + 3 * report.boundaries);
}

/// ISSUE 24 satellite: the flush's fan-out path under the cut. From
/// 4 MiB of dirty bytes up, a flush reads its extents back on several
/// lanes with the data barrier beside them, so its mutation train is
/// `sync, write(metadata), sync, write(slot), sync` — and no other crash
/// suite is over that floor. Generation A commits a small stamped
/// dataset and two allocated, unwritten 3 MiB ones; generation B fills
/// those two (6 MiB dirty over two datasets) and creates a marker. Reads
/// do not tick the clock, so with the barrier concurrent the sweep still
/// replays one mutation order. Wherever the cut (clean, or tearing the
/// boundary write) lands in B's flush, reopen shows A whole or B whole,
/// falls back to the other slot exactly when B's slot tore, and every
/// stored sum of the visible generation verifies.
#[test]
fn a_crash_at_any_mutation_of_a_fan_out_flush_reopens_the_old_or_the_new_generation() {
    const BIG: usize = 3 << 20;
    // Mutations of B's flush, in order; a flush refused at `SLOT_WRITE`
    // may have torn the slot, one refused later has written it whole.
    const STEPS: usize = 5;
    const SLOT_WRITE: usize = 3;

    fn big_bytes(salt: usize) -> Vec<u8> {
        (0..BIG).map(|i| (i ^ (i >> 9) ^ (salt * 0x5D)) as u8).collect()
    }

    // A clean cut, then tears that reach past the slot's magic into its
    // generation (9 bytes) and into its payload (33): either leaves a
    // slot that is neither the old image nor the new one.
    for torn in [&[0][..], &[9, 33]] {
        let tears = torn != [0];
        let mut refused_at = [0u32; STEPS];
        let report = sweep_torn(torn, |clock| {
            let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            let dev: Arc<dyn StorageBackend> = Arc::new(CrashBackend::new(inner.clone(), clock.clone()));
            let c = Container::create(dev);
            let create = |name: &str, len: usize| {
                c.create_dataset(ROOT_ID, name, Datatype::U8, &Dataspace::d1(len as u64), Layout::Contiguous)
            };

            // Generation A.
            let small = create("small", 64).expect("metadata only");
            let big: Vec<_> = (0..2).map(|i| create(&format!("big{i}"), BIG).expect("metadata only")).collect();
            let committed_a = c.write_selection(small, &Selection::All, &[7u8; 64]).is_ok() && c.flush().is_ok();

            // Generation B, up to its flush.
            let mut flushed_b = None;
            if committed_a
                && (0..2).all(|i| c.write_selection(big[i], &Selection::All, &big_bytes(i)).is_ok())
                && create("marker", 1).is_ok()
            {
                let before = clock.mutations();
                let ok = c.flush().is_ok();
                let issued = (clock.mutations() - before) as usize;
                if ok && issued != STEPS {
                    return Err(format!("a fan-out flush issued {issued} mutations, not {STEPS}"));
                }
                if !ok {
                    refused_at[issued - 1] += 1;
                }
                flushed_b = Some((ok, issued));
            }
            drop(c); // crash (Drop's best-effort flush is refused past the cut)

            let c2 = match Container::open(inner) {
                Ok(c2) if committed_a => c2,
                Err(e) if committed_a => return Err(format!("generation A was acked but is unreadable: {e}")),
                // The cut fell in A's own commit (the under-floor path,
                // swept above): nothing acked, nothing to hold.
                _ => return Ok(()),
            };
            // B is visible once its slot is on the device whole: the
            // flush returned, or only the last barrier was refused.
            let want_b = matches!(flushed_b, Some((ok, issued)) if ok || issued > SLOT_WRITE + 1);
            let have_b = c2.lookup(ROOT_ID, "marker").is_ok();
            if have_b != want_b {
                return Err(format!("flush B {flushed_b:?}: marker visible = {have_b}"));
            }
            let tore_slot = tears && flushed_b == Some((false, SLOT_WRITE + 1));
            let fallbacks = c2.integrity_stats().superblock_fallbacks;
            if fallbacks != tore_slot as u64 {
                return Err(format!("flush B {flushed_b:?}: {fallbacks} superblock fallback(s)"));
            }
            // Every sum the visible generation stores verifies: A's one
            // (B's writes went to extents A stores no sum for), or all
            // three of B's.
            let scrub = c2.scrub().map_err(|e| format!("scrub: {e}"))?;
            let want_checked = if have_b { 3 } else { 1 };
            if (scrub.checked, scrub.corrupt) != (want_checked, 0) {
                return Err(format!("flush B {flushed_b:?}: {scrub:?}"));
            }
            if have_b {
                for i in 0..2 {
                    let id = c2.lookup(ROOT_ID, &format!("big{i}")).map_err(|e| e.to_string())?;
                    let got = c2.read_selection(id, &Selection::All).map_err(|e| format!("big{i}: {e}"))?;
                    if got != big_bytes(i) {
                        return Err(format!("big{i} bytes differ after reopen"));
                    }
                }
            }
            Ok(())
        });
        assert!(report.ok(), "{}", report.failure.expect("failure"));
        // Every mutation of the fan-out flush was the boundary once per
        // prefix: the data barrier, the append, and the rest.
        assert_eq!(refused_at, [torn.len() as u32; STEPS], "tears: {tears}");
    }
}

#[test]
fn every_injected_bit_flip_is_detected_on_verified_reads() {
    // Silent corruption on half the reads, seeded: the device returns a
    // payload with exactly one bit flipped and reports success.
    let plan = FaultPlan::new(0x1B17F11B).random(FaultOp::Read, 0.5, FaultKind::Corrupt);
    let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let injector = Arc::new(FaultInjector::new(inner, plan));
    injector.set_armed(false); // setup is not under test

    let c = Container::create(injector.clone());
    let ds = c
        .create_dataset(
            ROOT_ID,
            "d",
            Datatype::F32,
            &Dataspace::d1(N),
            Layout::Contiguous,
        )
        .expect("create dataset");
    let vals: Vec<f32> = (0..N).map(|i| i as f32).collect();
    let bytes = to_bytes(&vals);
    c.write_selection(ds, &Selection::All, &bytes).expect("write");
    c.flush().expect("flush records the extent checksum");

    // A clean checksummed extent is verified whole on every planned
    // read, so each call is exactly one device read: the injection and
    // detection counts must match one-for-one.
    injector.set_armed(true);
    let mut detected = 0u64;
    for _ in 0..64 {
        match c.read_selection(ds, &Selection::All) {
            Ok(got) => assert_eq!(got, bytes, "a clean read must return the true bytes"),
            Err(H5Error::Corrupt(_)) => detected += 1,
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
    injector.set_armed(false);
    assert!(injector.injected() > 0, "the plan must actually fire");
    assert_eq!(
        detected,
        injector.injected(),
        "every injected bit-flip must surface as a checksum failure"
    );
    assert_eq!(c.integrity_stats().checksum_failures, detected);
}

#[test]
fn scrub_rebuilds_a_corrupt_extent_from_the_staging_wal() {
    let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let c = Arc::new(Container::create(inner.clone()));
    let ds = c
        .create_dataset(
            ROOT_ID,
            "d",
            Datatype::F32,
            &Dataspace::d1(N),
            Layout::Contiguous,
        )
        .expect("create dataset");
    c.flush().expect("metadata durable");

    let wal: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let vol = AsyncVol::builder()
        .streams(1)
        .stage_to_device(wal.clone())
        .build();
    let vals: Vec<f32> = (0..N).map(|i| (i as f32).sin()).collect();
    let bytes = to_bytes(&vals);
    let req = vol.dataset_write(&c, ds, &Selection::All, &bytes).expect("issue");
    vol.wait(req).expect("land");
    c.flush().expect("checksum the extent at rest");
    drop(vol);

    // Silent media corruption: one byte of the data extent flips at
    // rest. A fresh container's first allocation sits immediately after
    // the superblock area.
    let at = apio::h5lite::superblock::SUPERBLOCK_AREA;
    let mut b = [0u8; 1];
    inner.read_at(at, &mut b).expect("read the victim byte");
    inner.write_at(at, &[b[0] ^ 0x01]).expect("flip it");

    // recover + scrub finds the mismatch and rebuilds the extent from
    // the WAL's durable copy.
    let vol2 = AsyncVol::builder().stage_to_device(wal).build();
    let rec = vol2.recover_and_scrub(&c).expect("recover and scrub");
    assert_eq!(rec.scrub_corrupt, 1, "the flipped extent must be found");
    assert_eq!(rec.scrub_repaired, 1, "and repaired from the WAL: {rec:?}");
    assert_eq!(
        c.read_selection(ds, &Selection::All).expect("read back"),
        bytes,
        "the repaired extent is byte-identical"
    );

    // At rest again: a fresh flush + scrub comes back clean.
    c.flush().expect("post-repair flush");
    let scrub = c.scrub().expect("post-repair scrub");
    assert_eq!(scrub.corrupt, 0, "{scrub:?}");
    assert!(scrub.checked >= 1);
}

#[test]
fn rot_in_the_unread_half_of_an_extent_is_left_to_scrub_and_the_wal_repairs_it() {
    // Two 64 KiB sum blocks of f32; a read of the first half fetches and
    // verifies the first block only.
    let n = 2 * apio::h5lite::checksum::SUM_BLOCK / 4;
    let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let c = Arc::new(Container::create(inner.clone()));
    let ds = c
        .create_dataset(ROOT_ID, "d", Datatype::F32, &Dataspace::d1(n), Layout::Contiguous)
        .expect("create dataset");
    c.flush().expect("metadata durable");
    let wal: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let vol = AsyncVol::builder()
        .streams(1)
        .stage_to_device(wal.clone())
        .build();
    let vals: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
    let bytes = to_bytes(&vals);
    let req = vol.dataset_write(&c, ds, &Selection::All, &bytes).expect("issue");
    vol.wait(req).expect("land");
    c.flush().expect("checksum the extent at rest");
    drop(vol);

    // Rot one byte of the second half at rest. A fresh container's
    // first allocation sits immediately after the superblock area.
    let at = apio::h5lite::superblock::SUPERBLOCK_AREA + 3 * n;
    let mut b = [0u8; 1];
    inner.read_at(at, &mut b).expect("read the victim byte");
    inner.write_at(at, &[b[0] ^ 0x10]).expect("flip it");

    // A read of the first half neither fetches nor reports it.
    let head = Selection::Slab(Hyperslab::range1(0, n / 2));
    let half = c.read_selection(ds, &head).expect("the first half verifies");
    assert_eq!(half, bytes[..bytes.len() / 2]);
    assert_eq!(c.integrity_stats().checksum_failures, 0);

    // Scrub does, and the WAL's durable copy rebuilds the extent.
    let found = c.scrub().expect("scrub");
    assert_eq!((found.corrupt, found.unrepaired), (1, 1), "{found:?}");
    let vol2 = AsyncVol::builder().stage_to_device(wal).build();
    let rec = vol2.recover_and_scrub(&c).expect("recover and scrub");
    assert_eq!(rec.scrub_repaired, 1, "repaired from the WAL: {rec:?}");
    assert_eq!(c.read_selection(ds, &Selection::All).expect("read back"), bytes);
}
