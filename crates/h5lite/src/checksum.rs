//! Data-extent checksums (DESIGN.md §13).
//!
//! Every data extent — a contiguous dataset's extent, or one chunk —
//! carries a [`Checksum`]: the algorithm that produced it and the 64-bit
//! sum. New sums are always [`Algorithm::CURRENT`], XXH64 with seed 0
//! (the published algorithm, so any stock `xxhsum -H64` checks a file);
//! sums stamped before it existed are FNV-1a and keep verifying through
//! the same [`Hasher`] until a flush re-stamps their extent. Nothing
//! selects the algorithm: it is read from the stored tag and written as
//! a constant.
//!
//! Superblock slots, the metadata root and the staging WAL's frames stay
//! on [`fnv1a64`]: tens of bytes each, or off every measured path, and
//! their formats do not move.
//!
//! [`Xxh64`] is incremental, so an extent longer than any buffer worth
//! holding is hashed window by window; [`xxh64`] is `new → update →
//! finish` of the same state.

use crate::error::{H5Error, Result};
use crate::superblock::{fnv1a64, FNV_BASIS};

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
    /// What every file written before XXH64 carries. Verified, never
    /// stamped.
    Fnv1a = 1,
    Xxh64 = 2,
}

impl Algorithm {
    /// What a flush stamps.
    pub const CURRENT: Algorithm = Algorithm::Xxh64;
}

/// One data extent's stored checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Checksum {
    pub algorithm: Algorithm,
    pub sum: u64,
}

impl Checksum {
    /// The metadata form: tag byte, then the sum (0 when absent).
    pub fn encode(sum: Option<Checksum>) -> (u8, u64) {
        sum.map_or((0, 0), |c| (c.algorithm as u8, c.sum))
    }

    /// Inverse of [`Checksum::encode`]. A tag this build does not know
    /// names bytes it cannot verify: the file is rejected, not trusted.
    pub fn decode(tag: u8, sum: u64) -> Result<Option<Checksum>> {
        let algorithm = match tag {
            0 => return Ok(None),
            1 => Algorithm::Fnv1a,
            2 => Algorithm::Xxh64,
            t => return Err(H5Error::Corrupt(format!("unknown checksum algorithm tag {t}"))),
        };
        Ok(Some(Checksum { algorithm, sum }))
    }

    /// Whether `bytes` — the whole extent — still hash to this sum.
    pub fn matches(&self, bytes: &[u8]) -> bool {
        let mut hasher = Hasher::new(self.algorithm);
        hasher.update(bytes);
        hasher.finish() == *self
    }
}

/// An incremental hash under either algorithm, for extents read back in
/// windows.
pub(crate) enum Hasher {
    Fnv1a(u64),
    Xxh64(Xxh64),
}

impl Hasher {
    pub fn new(algorithm: Algorithm) -> Self {
        match algorithm {
            Algorithm::Fnv1a => Hasher::Fnv1a(FNV_BASIS),
            Algorithm::Xxh64 => Hasher::Xxh64(Xxh64::new()),
        }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        match self {
            Hasher::Fnv1a(h) => *h = fnv1a64(*h, bytes),
            Hasher::Xxh64(state) => state.update(bytes),
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

    pub fn finish(&self) -> Checksum {
        match self {
            Hasher::Fnv1a(h) => Checksum {
                algorithm: Algorithm::Fnv1a,
                sum: *h,
            },
            Hasher::Xxh64(state) => Checksum {
                algorithm: Algorithm::Xxh64,
                sum: state.finish(),
            },
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

    #[test]
    fn zeros_fed_by_count_hash_like_zeros_held() {
        for algorithm in [Algorithm::Fnv1a, Algorithm::Xxh64] {
            for zeros in [0u64, 1, 31, 4096, 10_000] {
                let mut held = pattern(77);
                let mut by_count = Hasher::new(algorithm);
                by_count.update(&held);
                by_count.update_zeros(zeros);
                held.resize(77 + zeros as usize, 0);
                let want = by_count.finish();
                assert!(want.matches(&held), "{algorithm:?} + {zeros} zeros");
                assert_eq!(want.algorithm, algorithm);
            }
        }
    }

    #[test]
    fn the_two_algorithms_are_told_apart_by_tag_not_by_value() {
        let bytes = pattern(1000);
        let legacy = Checksum {
            algorithm: Algorithm::Fnv1a,
            sum: fnv1a64(FNV_BASIS, &bytes),
        };
        let current = Checksum {
            algorithm: Algorithm::CURRENT,
            sum: xxh64(&bytes),
        };
        assert!(legacy.matches(&bytes) && current.matches(&bytes));
        assert_ne!(legacy.sum, current.sum);
        // A right value under the wrong tag does not verify.
        let crossed = Checksum {
            algorithm: Algorithm::Xxh64,
            sum: legacy.sum,
        };
        assert!(!crossed.matches(&bytes));
        // Round trip through the metadata form; tag 0 is "none".
        for sum in [None, Some(legacy), Some(current)] {
            let (tag, raw) = Checksum::encode(sum);
            assert_eq!(Checksum::decode(tag, raw).unwrap(), sum);
        }
        assert_eq!(Checksum::encode(Some(legacy)).0, 1);
        assert_eq!(Checksum::encode(Some(current)).0, 2);
        assert!(matches!(Checksum::decode(3, 0), Err(H5Error::Corrupt(_))));
    }
}
