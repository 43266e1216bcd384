//! Self-contained deterministic random number generation.
//!
//! The simulator's reproducibility guarantee requires an RNG whose sequence
//! is pinned by this crate, not by an external crate's version. [`SimRng`]
//! is xoshiro256** seeded through SplitMix64 (the reference seeding
//! procedure), plus the distributions the contention and workload models
//! need: uniform, standard normal (Box–Muller) and lognormal.

/// Deterministic RNG: xoshiro256** with SplitMix64 seeding.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

/// One SplitMix64 step: advance `state` by the golden-ratio increment
/// and return its finalized (well-mixed) value. Seeds [`SimRng`]; also a
/// stateless 64-bit hash when called on a copy of the key.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Seed deterministically from a single `u64`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output of the generator.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` by rejection (unbiased).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Standard normal via Box–Muller (caches the paired deviate).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u == 0 so ln(u) is finite.
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Lognormal: `exp(N(mu, sigma))`. Used by the full-system contention
    /// model — I/O slowdowns on shared file systems are heavy-tailed.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "negative std dev");
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = SimRng::seed_from_u64(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lognormal_log_moments() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.lognormal(3.0, 2.0).ln()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = SimRng::seed_from_u64(13);
        for _ in 0..10_000 {
            assert!(rng.lognormal(0.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "seed 5 should permute");
    }
}
