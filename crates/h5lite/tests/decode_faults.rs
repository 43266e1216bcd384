//! What `Elements::written` buys a cold read: the pages of the elements
//! are faulted in where they are made, so decoding into them later takes
//! no page faults on the decoding thread, where a fresh `vec![0; n]` —
//! which the allocator hands out lazily zeroed — takes one per page.
//! Counted from this thread's own minor faults (`/proc/thread-self/stat`);
//! the test has a binary of its own so no other test's frees decide
//! whether the fresh vector's memory is resident already.

#![cfg(target_os = "linux")]

use h5lite::datatype::to_bytes;
use h5lite::{Datatype, Elements, H5Type};

/// 1 MiB of `u32`: below a transparent huge page, so every page faults
/// on its own.
const PAGES: usize = 256;
const LEN: usize = PAGES * 4096 / 4;

/// The calling thread's minor page faults so far: the 10th field of
/// `/proc/thread-self/stat`, the 8th after the parenthesised name.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("read thread stat");
    let fields = &stat[stat.rfind(')').expect("a name in parentheses") + 1..];
    fields.split_whitespace().nth(7).expect("minflt").parse().expect("a count")
}

#[test]
fn decode_into_written_elements_takes_almost_no_page_faults() {
    let data: Vec<u32> = (0..LEN as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let bytes = to_bytes(&data);
    let mut dst = Elements::written(Datatype::U32, LEN).into_vec::<u32>().unwrap();

    let before = minor_faults();
    u32::decode_into(&bytes, &mut dst);
    let written = minor_faults() - before;

    let before = minor_faults();
    let mut fresh = vec![0u32; LEN];
    u32::decode_into(&bytes, &mut fresh);
    let lazy = minor_faults() - before;

    assert_eq!(dst, data);
    assert_eq!(fresh, data);
    assert!(
        written <= 4,
        "decoding into written elements took {written} faults over {PAGES} pages"
    );
    assert!(
        lazy >= PAGES as u64 / 2,
        "a fresh vec![0; n] took only {lazy} faults over {PAGES} pages"
    );
}
