//! Data-extent checksums (DESIGN.md §13).
//!
//! Every data extent — a contiguous dataset's extent, or one chunk —
//! carries a [`Checksum`]: the algorithm that produced it and its
//! 64-bit sums, one per block. New sums are always
//! [`Algorithm::CURRENT`]: XXH64 with seed 0 (the published algorithm,
//! so any stock `xxhsum -H64` checks a block) over each [`SUM_BLOCK`] of
//! the extent, the last block short when the extent is not a multiple of
//! it, so a read fetches and verifies only the blocks its records reach.
//! Sums stamped before that are one sum over the whole extent — FNV-1a,
//! or XXH64 — which is the same thing with one block as long as the
//! extent: they keep verifying through the same [`Hasher`] and the same
//! block loop until a flush re-stamps their extent. Nothing selects the
//! algorithm or the block size: the algorithm is read from the stored
//! tag and written as a constant.
//!
//! Superblock slots, the metadata root and the staging WAL's frames stay
//! on [`fnv1a64`]: tens of bytes each, or off every measured path, and
//! their formats do not move.
//!
//! [`Xxh64`] is incremental, so an extent longer than any buffer worth
//! holding is hashed window by window; [`xxh64`] is `new → update →
//! finish` of the same state.

use std::sync::Arc;

use crate::codec::{Reader, Writer};
use crate::error::{H5Error, Result};
use crate::superblock::{fnv1a64, FNV_BASIS};

/// Bytes one block sum covers: every [`Algorithm::CURRENT`] extent is
/// summed in blocks of this size from its first byte, the last block
/// short when the extent is not a multiple of it. A constant of the
/// format, not an option.
pub const SUM_BLOCK: u64 = 64 << 10;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes one pass over the four lanes consumes.
const STRIPE: usize = 32;

#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// Little-endian word `i` of `bytes`, which holds at least `8 * (i + 1)`.
#[inline(always)]
fn word(bytes: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[8 * i..8 * i + 8]);
    u64::from_le_bytes(w)
}

/// Incremental XXH64, seed 0: four independent multiply–rotate lanes
/// over 32-byte stripes, eight bytes per lane per step.
#[derive(Clone, Debug)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// Bytes of an incomplete stripe, carried to the next `update`.
    tail: [u8; STRIPE],
    tail_len: usize,
    total: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Xxh64 {
    /// A fresh state.
    pub fn new() -> Self {
        Xxh64 {
            lanes: [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)],
            tail: [0; STRIPE],
            tail_len: 0,
            total: 0,
        }
    }

    /// Feed `bytes`; any split of an input into consecutive updates
    /// gives the same sum.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return;
            }
            let stripe = self.tail;
            self.lanes = stripes(self.lanes, &stripe);
            self.tail_len = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        self.lanes = stripes(self.lanes, &bytes[..whole]);
        let rest = &bytes[whole..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The sum of everything fed so far (the state can keep going).
    pub fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = if self.total >= STRIPE as u64 {
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            merge(merge(merge(merge(h, a), b), c), d)
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut rest = &self.tail[..self.tail_len];
        while rest.len() >= 8 {
            h = (h ^ round(0, word(rest, 0)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let w = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as u64;
            h = (h ^ w.wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h = (h ^ (b as u64).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// Run the lanes over `bytes`, a whole number of stripes.
#[inline]
fn stripes(lanes: [u64; 4], bytes: &[u8]) -> [u64; 4] {
    let [mut a, mut b, mut c, mut d] = lanes;
    for s in bytes.chunks_exact(STRIPE) {
        a = round(a, word(s, 0));
        b = round(b, word(s, 1));
        c = round(c, word(s, 2));
        d = round(d, word(s, 3));
    }
    [a, b, c, d]
}

/// XXH64 (seed 0) of `bytes` in one call.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut state = Xxh64::new();
    state.update(bytes);
    state.finish()
}

/// The algorithm behind a stored data-extent sum; its discriminant is
/// the tag byte in the metadata (0 there means "no sum").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Algorithm {
    /// One FNV-1a over the whole extent: what every file written before
    /// XXH64 carries. Verified, never stamped.
    Fnv1a = 1,
    /// One XXH64 over the whole extent. Verified, never stamped.
    Xxh64 = 2,
    /// One XXH64 per [`SUM_BLOCK`] of the extent.
    Xxh64Blocks = 3,
}

impl Algorithm {
    /// What a flush stamps.
    pub const CURRENT: Algorithm = Algorithm::Xxh64Blocks;

    /// Bytes one stored sum covers in an extent of `len` bytes: a
    /// [`SUM_BLOCK`], or — for a whole-extent sum — the extent itself,
    /// its one block. Never 0.
    pub fn block(self, len: u64) -> u64 {
        match self {
            Algorithm::Xxh64Blocks => SUM_BLOCK,
            Algorithm::Fnv1a | Algorithm::Xxh64 => len.max(1),
        }
    }

    /// One stored sum's function over `bytes`, in one call.
    fn hash(self, bytes: &[u8]) -> u64 {
        let mut state = State::new(self);
        state.update(bytes);
        state.sum()
    }
}

/// One data extent's stored checksum: the algorithm, and one sum per
/// block of the extent in address order (exactly one for a whole-extent
/// algorithm). Shared, so the copy-on-write dataset states and the
/// plans built from them clone a reference, not the sums.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Checksum {
    pub algorithm: Algorithm,
    pub sums: Arc<[u64]>,
}

impl Checksum {
    /// Write the metadata form: the tag byte (0 when absent); then a
    /// whole-extent algorithm's one sum (0 when absent), or the block
    /// sums as a counted list.
    pub fn encode(w: &mut Writer, sum: Option<&Checksum>) {
        match sum {
            None => {
                w.u8(0);
                w.u64(0);
            }
            Some(c) => {
                w.u8(c.algorithm as u8);
                match c.algorithm {
                    Algorithm::Xxh64Blocks => w.list(&c.sums, |w, s| w.u64(*s)),
                    Algorithm::Fnv1a | Algorithm::Xxh64 => {
                        w.u64(c.sums.first().copied().unwrap_or_default())
                    }
                }
            }
        }
    }

    /// Inverse of [`Checksum::encode`] for an extent of `len` bytes. A
    /// tag this build does not know names bytes it cannot verify, and a
    /// block list that does not cover the extent one sum per block
    /// would leave bytes unverified or name blocks that do not exist:
    /// either way the file is rejected, not trusted.
    pub fn decode(r: &mut Reader<'_>, len: u64) -> Result<Option<Checksum>> {
        let algorithm = match r.u8()? {
            0 => {
                r.u64()?;
                return Ok(None);
            }
            1 => Algorithm::Fnv1a,
            2 => Algorithm::Xxh64,
            3 => Algorithm::Xxh64Blocks,
            t => return Err(H5Error::Corrupt(format!("unknown checksum algorithm tag {t}"))),
        };
        let sums: Arc<[u64]> = match algorithm {
            Algorithm::Xxh64Blocks => {
                let sums = r.list(|r| r.u64())?;
                let want = len.div_ceil(SUM_BLOCK);
                if sums.len() as u64 != want {
                    return Err(H5Error::Corrupt(format!(
                        "an extent of {len} bytes carries {} block sums, not {want}",
                        sums.len()
                    )));
                }
                sums.into()
            }
            Algorithm::Fnv1a | Algorithm::Xxh64 => Arc::new([r.u64()?]),
        };
        Ok(Some(Checksum { algorithm, sums }))
    }

    /// Whether `bytes` — the blocks of an extent of `len` bytes from
    /// block `first` on, the last of them short if it is the extent's
    /// short last block — each still hash to their stored sum. Every
    /// block `bytes` holds is checked; one past the stored sums fails.
    pub fn verify(&self, len: u64, first: usize, bytes: &[u8]) -> bool {
        let block = self.algorithm.block(len) as usize;
        let mut sums = self.sums.get(first..).unwrap_or_default().iter();
        bytes
            .chunks(block)
            .all(|b| sums.next() == Some(&self.algorithm.hash(b)))
    }
}

/// The running hash of one block (the whole extent, for a whole-extent
/// algorithm).
enum State {
    Fnv1a(u64),
    Xxh64(Xxh64),
}

impl State {
    fn new(algorithm: Algorithm) -> Self {
        match algorithm {
            Algorithm::Fnv1a => State::Fnv1a(FNV_BASIS),
            Algorithm::Xxh64 | Algorithm::Xxh64Blocks => State::Xxh64(Xxh64::new()),
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        match self {
            State::Fnv1a(h) => *h = fnv1a64(*h, bytes),
            State::Xxh64(state) => state.update(bytes),
        }
    }

    fn sum(&self) -> u64 {
        match self {
            State::Fnv1a(h) => *h,
            State::Xxh64(state) => state.finish(),
        }
    }
}

/// An incremental hash of one extent under any algorithm, for extents
/// read back in windows: it closes a block sum at every block boundary
/// ([`Algorithm::block`]) and the last, short one at [`Hasher::finish`].
pub(crate) struct Hasher {
    algorithm: Algorithm,
    /// Bytes one sum covers; a whole-extent sum is one block without an
    /// end.
    block: u64,
    state: State,
    /// Bytes fed into the block `state` is summing.
    in_block: u64,
    sums: Vec<u64>,
}

impl Hasher {
    pub fn new(algorithm: Algorithm) -> Self {
        Hasher {
            algorithm,
            block: algorithm.block(u64::MAX),
            state: State::new(algorithm),
            in_block: 0,
            sums: Vec::new(),
        }
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = (self.block - self.in_block).min(bytes.len() as u64) as usize;
            self.state.update(&bytes[..take]);
            self.in_block += take as u64;
            bytes = &bytes[take..];
            if self.in_block == self.block {
                self.sums.push(self.state.sum());
                self.state = State::new(self.algorithm);
                self.in_block = 0;
            }
        }
    }

    /// Feed `n` zero bytes without the caller holding them.
    pub fn update_zeros(&mut self, mut n: u64) {
        const ZEROS: [u8; 4096] = [0; 4096];
        while n > 0 {
            let take = n.min(ZEROS.len() as u64);
            self.update(&ZEROS[..take as usize]);
            n -= take;
        }
    }

    /// The checksum of everything fed: the closed block sums, then the
    /// open block's unless it is empty — a whole-extent sum is always
    /// that one open block, empty or not.
    pub fn finish(mut self) -> Checksum {
        if self.in_block > 0 || self.algorithm != Algorithm::Xxh64Blocks {
            self.sums.push(self.state.sum());
        }
        Checksum {
            algorithm: self.algorithm,
            sums: self.sums.into(),
        }
    }
}

#[cfg(test)]
impl Checksum {
    /// What a flush stamps over an extent holding `bytes`: one XXH64 per
    /// [`SUM_BLOCK`], computed block by block without the [`Hasher`].
    pub(crate) fn blocks_of(bytes: &[u8]) -> Checksum {
        Checksum {
            algorithm: Algorithm::Xxh64Blocks,
            sums: bytes.chunks(SUM_BLOCK as usize).map(xxh64).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_known_answers() {
        // Seed 0, checked against the reference implementation.
        let vectors: [(&[u8], u64); 4] = [
            (b"", 0xEF46_DB37_51D8_E999),
            (b"a", 0xD24E_C4F1_A98C_6E5B),
            (b"abc", 0x44BC_2CF5_AD77_0999),
            (b"Nobody inspects the spammish repetition", 0xFBCE_A83C_8A37_8BF1),
        ];
        for (input, want) in vectors {
            assert_eq!(xxh64(input), want, "xxh64({:?})", String::from_utf8_lossy(input));
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 7) as u8).collect()
    }

    #[test]
    fn incremental_equals_one_shot_at_every_split_point() {
        // 0..=97 bytes: under a stripe, exactly one, three and a tail of
        // every length the finish steps distinguish.
        for len in 0..=97usize {
            let input = pattern(len);
            let want = xxh64(&input);
            for split in 0..=len {
                let mut state = Xxh64::new();
                state.update(&input[..split]);
                state.update(&input[split..]);
                assert_eq!(state.finish(), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn incremental_equals_one_shot_over_uneven_windows() {
        let input = pattern((1 << 20) + 5);
        let want = xxh64(&input);
        let mut state = Xxh64::new();
        let mut rest = input.as_slice();
        // Window lengths that never line up with a stripe for long.
        for window in [1usize, 31, 32, 33, 4096, 65_537, 7, 0, 300_001].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at((*window).min(rest.len()));
            state.update(head);
            rest = tail;
        }
        assert_eq!(state.finish(), want);
        // `finish` does not consume: a second call agrees.
        assert_eq!(state.finish(), want);
    }

    /// What a flush stamps over `bytes` read back in one window.
    fn hash_all(algorithm: Algorithm, bytes: &[u8]) -> Checksum {
        let mut hasher = Hasher::new(algorithm);
        hasher.update(bytes);
        hasher.finish()
    }

    fn whole(algorithm: Algorithm, sum: u64) -> Checksum {
        Checksum {
            algorithm,
            sums: Arc::new([sum]),
        }
    }

    /// The metadata form of `sum` decoded back for an extent of `len`.
    fn round_trip(sum: Option<&Checksum>, len: u64) -> Result<Option<Checksum>> {
        let mut w = Writer::new();
        Checksum::encode(&mut w, sum);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = Checksum::decode(&mut r, len)?;
        assert!(r.is_exhausted(), "decode reads exactly what encode wrote");
        Ok(back)
    }

    #[test]
    fn zeros_fed_by_count_hash_like_zeros_held() {
        for algorithm in [Algorithm::Fnv1a, Algorithm::Xxh64, Algorithm::Xxh64Blocks] {
            // Up to past two block boundaries.
            for zeros in [0u64, 1, 31, 4096, 10_000, 2 * SUM_BLOCK + 5] {
                let mut held = pattern(77);
                let mut by_count = Hasher::new(algorithm);
                by_count.update(&held);
                by_count.update_zeros(zeros);
                held.resize(77 + zeros as usize, 0);
                let want = by_count.finish();
                assert_eq!(want, hash_all(algorithm, &held), "{algorithm:?} + {zeros} zeros");
                assert!(want.verify(held.len() as u64, 0, &held));
                assert_eq!(want.algorithm, algorithm);
            }
        }
    }

    #[test]
    fn a_block_hasher_closes_a_sum_at_every_block_boundary_however_it_is_fed() {
        // Empty, under one block, exactly one, one and a byte, and three
        // and a half: the sums are the blocks' own XXH64s, the last one
        // short, and none for an empty extent.
        let block = SUM_BLOCK as usize;
        for len in [0, 1, block - 1, block, block + 1, 3 * block + block / 2] {
            let input = pattern(len);
            let want = Checksum::blocks_of(&input);
            assert_eq!(want.sums.len(), len.div_ceil(block), "len {len}");
            assert_eq!(hash_all(Algorithm::Xxh64Blocks, &input), want, "len {len}");
            // Windows that straddle block boundaries.
            let mut hasher = Hasher::new(Algorithm::Xxh64Blocks);
            for window in input.chunks(block / 3 + 7) {
                hasher.update(window);
            }
            assert_eq!(hasher.finish(), want, "len {len} in windows");
        }
        // A whole-extent algorithm is the same hasher with one block.
        let input = pattern(3 * block + 1);
        let one = hash_all(Algorithm::Xxh64, &input);
        assert_eq!(one, whole(Algorithm::Xxh64, xxh64(&input)));
        assert_eq!(hash_all(Algorithm::Xxh64, &[]), whole(Algorithm::Xxh64, xxh64(&[])));
    }

    #[test]
    fn block_verification_checks_every_block_it_is_given_and_no_other() {
        let block = SUM_BLOCK as usize;
        let len = 4 * block + 100;
        let mut bytes = pattern(len);
        let sum = Checksum::blocks_of(&bytes);
        // Any block-aligned run of blocks, the short last one included.
        for first in 0..5 {
            for last in first + 1..=5 {
                let run = &bytes[first * block..(last * block).min(len)];
                assert!(sum.verify(len as u64, first, run), "blocks {first}..{last}");
            }
        }
        // A flip fails the block that holds it, and only that block.
        bytes[2 * block + 9] ^= 4;
        assert!(!sum.verify(len as u64, 0, &bytes));
        assert!(!sum.verify(len as u64, 2, &bytes[2 * block..3 * block]));
        assert!(sum.verify(len as u64, 3, &bytes[3 * block..]));
        assert!(sum.verify(len as u64, 0, &bytes[..2 * block]));
        // Bytes past the stored sums fail rather than go unchecked.
        assert!(!sum.verify(len as u64, 5, &bytes[..10]));
        assert!(!sum.verify(len as u64, 4, &bytes[3 * block..]));
    }

    #[test]
    fn the_algorithms_are_told_apart_by_tag_not_by_value() {
        let bytes = pattern(1000);
        let len = bytes.len() as u64;
        let legacy = whole(Algorithm::Fnv1a, fnv1a64(FNV_BASIS, &bytes));
        let whole_xxh = whole(Algorithm::Xxh64, xxh64(&bytes));
        let current = Checksum::blocks_of(&bytes);
        assert_eq!(current.algorithm, Algorithm::CURRENT);
        for sum in [&legacy, &whole_xxh, &current] {
            assert!(sum.verify(len, 0, &bytes), "{sum:?}");
        }
        assert_ne!(legacy.sums, whole_xxh.sums);
        // One block of 1000 bytes: the same value under tags 2 and 3.
        assert_eq!(whole_xxh.sums, current.sums);
        // A right value under the wrong tag does not verify.
        let crossed = whole(Algorithm::Xxh64, legacy.sums[0]);
        assert!(!crossed.verify(len, 0, &bytes));
        // Round trip through the metadata form; tag 0 is "none".
        for sum in [None, Some(&legacy), Some(&whole_xxh), Some(&current)] {
            assert_eq!(round_trip(sum, len).unwrap().as_ref(), sum);
        }
        let tag = |sum: &Checksum| {
            let mut w = Writer::new();
            Checksum::encode(&mut w, Some(sum));
            w.into_bytes()[0]
        };
        assert_eq!((tag(&legacy), tag(&whole_xxh), tag(&current)), (1, 2, 3));
        let unknown = [4u8, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(Checksum::decode(&mut Reader::new(&unknown), len), Err(H5Error::Corrupt(_))));
    }

    #[test]
    fn a_block_list_round_trips_only_at_one_sum_per_block() {
        let block = SUM_BLOCK as usize;
        for len in [1, block, block + 1, 3 * block + 17] {
            let bytes = pattern(len);
            let sum = Checksum::blocks_of(&bytes);
            assert_eq!(round_trip(Some(&sum), len as u64).unwrap(), Some(sum.clone()));
            // One sum too few or too many is corrupt, not short-verified.
            let mut short = sum.sums.to_vec();
            short.pop();
            let mut long = sum.sums.to_vec();
            long.push(7);
            for sums in [short, long] {
                let wrong = Checksum {
                    algorithm: Algorithm::Xxh64Blocks,
                    sums: sums.into(),
                };
                let err = round_trip(Some(&wrong), len as u64).unwrap_err();
                assert!(matches!(err, H5Error::Corrupt(ref m) if m.contains("block sums")), "{err:?}");
            }
        }
    }
}
