//! Shared by the root integration tests (`mod common;`): the seeded
//! generator the property-style suites draw their cases from.

// Each test binary uses the part of this module it needs.
#![allow(dead_code)]

/// Deterministic 64-bit LCG (MMIX constants), upper 31 bits as output.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `[lo, hi)`.
    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 31) as f64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}
