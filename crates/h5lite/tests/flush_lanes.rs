//! Wall time of the flush's checksum read-back against the device's
//! lanes (ISSUE 21). `ThrottledBackend` sleeps every read until its
//! booked completion, so Σ(latency + len / bandwidth) is a floor no
//! serial read-back can beat: a flush under half of it had at least two
//! reads in the throttle at once. The stamps themselves are held to the
//! hash of the bytes in `container.rs`'s unit tests; this file is alone
//! in its binary so that nothing but the flush competes for the cores.

use std::sync::Arc;
use std::time::Instant;

use h5lite::container::ROOT_ID;
use h5lite::{Container, Dataspace, Datatype, Layout, Selection, ThrottledBackend};

const MIB: usize = 1 << 20;
const RATE: f64 = 400e6;
const LATENCY: f64 = 2e-4;

fn bytes(salt: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i ^ (i >> 11) ^ (salt * 0x9E)) as u8).collect()
}

/// Flush sixteen dirty 2 MiB extents and eight dirty 1 MiB chunks on a
/// device of `channels` lanes; returns the flush's wall time and what
/// the same read-backs cost one after another.
fn flush_wall(channels: usize) -> (f64, f64) {
    let device = Arc::new(ThrottledBackend::with_channels(1e12, LATENCY, channels));
    let c = Container::create(device.clone());
    let chunked = Layout::Chunked1D { chunk_elems: MIB as u64 };
    let shapes = (0..16).map(|_| (2 * MIB, Layout::Contiguous)).chain([(8 * MIB, chunked)]);
    for (i, (len, layout)) in shapes.enumerate() {
        let space = Dataspace::d1(len as u64);
        let ds = c.create_dataset(ROOT_ID, &format!("d{i}"), Datatype::U8, &space, layout).unwrap();
        c.write_selection(ds, &Selection::All, &bytes(i, len)).unwrap();
    }

    device.set_bandwidth(RATE);
    let t0 = Instant::now();
    c.flush().unwrap();
    let wall = t0.elapsed().as_secs_f64();
    device.set_bandwidth(1e12);

    let report = c.scrub().unwrap();
    assert_eq!((report.checked, report.corrupt, report.skipped_dirty), (24, 0, 0));
    let serial = 16.0 * (LATENCY + (2 * MIB) as f64 / RATE) + 8.0 * (LATENCY + MIB as f64 / RATE);
    (wall, serial)
}

/// The first of up to three flushes to come in under `factor × serial`
/// (else the fastest): the floor under a serial read-back holds on every
/// attempt, so one flush under the bound proves the overlap, while a
/// neighbour's burst on a shared machine can only slow an attempt down.
fn flush_within(channels: usize, factor: f64) -> (f64, f64) {
    let mut best = flush_wall(channels);
    for _ in 0..2 {
        if best.0 <= factor * best.1 {
            break;
        }
        let next = flush_wall(channels);
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

#[test]
fn the_read_back_uses_every_lane_and_costs_nothing_where_there_is_one() {
    let (wall, serial) = flush_within(4, 0.5);
    assert!(wall <= 0.5 * serial, "four lanes: flush took {wall:.4} s of a serial {serial:.4} s");

    // Four lanes queueing on a one-lane device: the device's own time,
    // nothing added (the hashing hides under the next read's sleep).
    let (wall, serial) = flush_within(1, 1.1);
    assert!(wall >= serial, "the throttle sleeps {serial:.4} s, flush took {wall:.4} s");
    assert!(wall <= 1.1 * serial, "one lane: flush took {wall:.4} s of a serial {serial:.4} s");
}
