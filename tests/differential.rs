//! Differential test of the async connector against the native one.
//!
//! Seeded scripts drive two containers through one `AsyncVol`, each with
//! a contiguous and a chunked dataset of the same two ids: contiguous and
//! strided writes, prefetches, reads made after waiting on every earlier
//! write to their dataset, and `wait_all`. The same writes go through a
//! `NativeVol` over `MemBackend` containers, the reference. Two checks:
//!
//! - a read made after waiting on every earlier write to its dataset
//!   returns what the reference reads, whether it is a prefetch hit or a
//!   cold read;
//! - after `wait_all`, every dataset of every container holds its
//!   reference's bytes.
//!
//! Columns: where the connector's writes go × how their snapshots are
//! staged. The connector has one ring and every entry names its
//! container's device, so in the attached column container 1's writes go
//! through the ring built over container 0's backend, to container 1's.

use std::collections::HashMap;
use std::sync::Arc;

use apio::asyncvol::AsyncVol;
use apio::h5lite::ring::{Ring, RingConfig};
use apio::h5lite::storage::Lcg;
use apio::h5lite::{
    container::ROOT_ID, Container, Dataspace, Datatype, Hyperslab, Layout, MemBackend, NativeVol,
    ObjectId, Request, Selection, StorageBackend, Vol,
};

/// Elements (`u8`) per dataset.
const LEN: u64 = 256;
/// Operations per script.
const OPS: usize = 160;
/// Scripts per column.
const SEEDS: u64 = 12;

/// Which ring both containers write through.
#[derive(Clone, Copy, Debug)]
enum Executor {
    /// A ring attached to the connector, built over container 0's
    /// backend; container 1's entries name container 1's.
    Attached,
    /// No ring attached: the one the connector builds.
    Own,
}

/// Where write snapshots wait for their write.
#[derive(Clone, Copy, Debug)]
enum Staging {
    Dram,
    /// A write-ahead log on a `MemBackend`.
    Wal,
}

/// The selections a script draws from: few, so that reads and prefetches
/// often share a key with a write in between.
fn menu() -> [Selection; 5] {
    [
        Selection::All,
        Selection::Slab(Hyperslab::range1(0, 64)),
        Selection::Slab(Hyperslab::range1(96, 100)),
        Selection::Slab(Hyperslab::strided(&[1], &[64], &[3])),
        Selection::Slab(Hyperslab::strided(&[0], &[32], &[8])),
    ]
}

/// A draw in `0..n`.
fn below(lcg: &mut Lcg, n: usize) -> usize {
    ((lcg.unit() * n as f64) as usize).min(n - 1)
}

/// Two containers on the given backends, each with a contiguous dataset
/// and a chunked one; the ids are the same in both.
fn containers(backends: [Arc<dyn StorageBackend>; 2]) -> ([Arc<Container>; 2], [ObjectId; 2]) {
    let cs = backends.map(|b| Arc::new(Container::create(b)));
    let layouts = [Layout::Contiguous, Layout::Chunked1D { chunk_elems: 16 }];
    let mut ids = [0; 2];
    for c in &cs {
        for (d, (name, layout)) in ["a", "b"].into_iter().zip(layouts.clone()).enumerate() {
            let id = c
                .create_dataset(ROOT_ID, name, Datatype::U8, &Dataspace::d1(LEN), layout)
                .expect("create dataset");
            assert!(ids[d] == 0 || ids[d] == id, "dataset {name} has one id in both containers");
            ids[d] = id;
        }
    }
    (cs, ids)
}

fn mem() -> Arc<dyn StorageBackend> {
    Arc::new(MemBackend::new())
}

/// Every dataset of every container against its reference.
fn same_contents(cs: &[Arc<Container>; 2], refs: &[Arc<Container>; 2], ids: &[ObjectId; 2], at: &str) {
    for (ci, (c, r)) in cs.iter().zip(refs).enumerate() {
        for id in ids {
            let got = c.read_selection(*id, &Selection::All).expect("read");
            let want = r.read_selection(*id, &Selection::All).expect("read reference");
            assert!(got == want, "{at}: container {ci} dataset {id} differs from the reference");
        }
    }
}

/// One seeded script in one column.
fn script(exec: Executor, staging: Staging, seed: u64) {
    let backends = [mem(), mem()];
    let mut builder = AsyncVol::builder();
    if let Executor::Attached = exec {
        builder = builder.ring(Arc::new(Ring::new(backends[0].clone(), RingConfig::default())));
    }
    if let Staging::Wal = staging {
        builder = builder.stage_to_device(mem());
    }
    let vol = builder.build();
    let native = NativeVol::new();
    let (cs, ids) = containers(backends);
    let (refs, ref_ids) = containers([mem(), mem()]);
    assert_eq!(ids, ref_ids);

    let menu = menu();
    let mut lcg = Lcg::new(seed);
    // Issued writes not yet waited for, by (container, dataset).
    let mut pending: HashMap<(usize, usize), Vec<Request>> = HashMap::new();
    for step in 0..OPS {
        let (ci, di) = (below(&mut lcg, 2), below(&mut lcg, 2));
        let sel = &menu[below(&mut lcg, menu.len())];
        let (c, r, id) = (&cs[ci], &refs[ci], ids[di]);
        let at = format!("seed {seed}, step {step}, container {ci} dataset {id}, {sel:?}");
        match below(&mut lcg, 20) {
            0..=8 => {
                let n = sel.npoints(&Dataspace::d1(LEN)) as usize;
                let data: Vec<u8> = (0..n).map(|_| below(&mut lcg, 256) as u8).collect();
                let done = native.dataset_write(r, id, sel, &data).expect("reference write");
                native.wait(done).expect("a native write is done at issue");
                let req = vol.dataset_write(c, id, sel, &data).expect("issue");
                pending.entry((ci, di)).or_default().push(req);
            }
            9..=12 => {
                let _ = vol.prefetch(c, id, sel);
            }
            13..=18 => {
                for req in pending.remove(&(ci, di)).unwrap_or_default() {
                    vol.wait(req).expect("the write lands");
                }
                let got = vol.dataset_read(c, id, sel).expect("read").wait().expect("read");
                let want = native.dataset_read(r, id, sel).expect("read").wait().expect("read");
                assert!(got == want, "{at}: a read after its writes differs from the reference");
            }
            _ => {
                vol.wait_all().expect("everything lands");
                pending.clear();
                same_contents(&cs, &refs, &ids, &at);
            }
        }
    }
    vol.wait_all().expect("everything lands");
    same_contents(&cs, &refs, &ids, &format!("seed {seed}, the end"));
}

/// Every column runs every seed, and the table is printed, before the
/// verdict.
#[test]
fn every_column_matches_the_native_reference() {
    let mut failed = Vec::new();
    for exec in [Executor::Attached, Executor::Own] {
        for staging in [Staging::Dram, Staging::Wal] {
            let bad: Vec<u64> = (0..SEEDS)
                .filter(|&seed| std::panic::catch_unwind(|| script(exec, staging, seed)).is_err())
                .collect();
            let verdict = if bad.is_empty() { "ok".to_string() } else { format!("FAILED {bad:?}") };
            let column = format!("{exec:?} | {staging:?}");
            eprintln!("differential | {column:<15} | {verdict}");
            if !bad.is_empty() {
                failed.push(format!("{exec:?}/{staging:?} seeds {bad:?}"));
            }
        }
    }
    assert!(failed.is_empty(), "columns that differ from the reference: {failed:?}");
}
