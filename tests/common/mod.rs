//! Shared by the root integration tests (`mod common;`): the seeded
//! generator the property-style suites draw their cases from.

// Each test binary uses the part of this module it needs.
#![allow(dead_code)]

use apio::h5lite::storage;

/// `h5lite`'s deterministic LCG (MMIX constants, upper 31 bits as
/// output), with integer draws.
pub struct Lcg(storage::Lcg);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(storage::Lcg::new(seed))
    }

    /// The upper 31 bits of the next state: `unit()` scaled back by
    /// 2^31, which is exact.
    pub fn next(&mut self) -> u64 {
        (self.unit() * (1u64 << 31) as f64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.unit()
    }

    /// Uniform float in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}
