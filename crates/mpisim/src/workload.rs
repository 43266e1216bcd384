//! Epoch-structured workload descriptions and run measurements.

use apio_core::history::{Direction, IoMode};

/// A seeded straggler/interference perturbation of the compute phases
/// (DESIGN.md §16). The default is the identity: every rank computes the
/// workload's nominal `compute_secs`, which keeps an unperturbed run
/// bit-identical to the pre-perturbation model.
///
/// The executor and its oracle apply the same perturbation (an epoch's
/// effective compute is the slowest rank's), so their agreement holds
/// under any knob setting — and the per-rank spread is what the
/// cross-rank tracer attributes.
#[derive(Clone, Debug)]
pub struct Perturbation {
    /// Rank whose compute runs `straggler_factor`× slower every epoch.
    pub straggler_rank: Option<u32>,
    /// Slowdown multiplier for the straggler rank (≥ 1).
    pub straggler_factor: f64,
    /// Per-(rank, epoch) uniform compute jitter in `[0, jitter_frac)` of
    /// the nominal compute time — the interference knob.
    pub jitter_frac: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for Perturbation {
    fn default() -> Self {
        Perturbation {
            straggler_rank: None,
            straggler_factor: 1.0,
            jitter_frac: 0.0,
            seed: 0,
        }
    }
}

impl Perturbation {
    /// Whether this perturbation leaves every compute phase unchanged.
    pub fn is_identity(&self) -> bool {
        (self.straggler_rank.is_none() || self.straggler_factor == 1.0) && self.jitter_frac == 0.0
    }

    /// Deterministic jitter draw in `[0, 1)` for one (rank, epoch) cell.
    fn unit_draw(&self, rank: u32, epoch: u32) -> f64 {
        let mut state = self.seed ^ (u64::from(rank) << 32) ^ u64::from(epoch);
        let cell = desim::rng::splitmix64(&mut state);
        // 53 mantissa bits -> uniform in [0, 1).
        (cell >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The perturbed compute time of `rank` in `epoch`, given the
    /// workload's nominal compute time.
    pub fn rank_compute_secs(&self, base: f64, rank: u32, epoch: u32) -> f64 {
        if self.is_identity() {
            return base;
        }
        let mut secs = base;
        if self.straggler_rank == Some(rank) {
            secs *= self.straggler_factor;
        }
        if self.jitter_frac > 0.0 {
            secs *= 1.0 + self.jitter_frac * self.unit_draw(rank, epoch);
        }
        secs
    }
}

/// A bulk-synchronous iterative workload: `epochs` repetitions of
/// (compute phase, collective I/O phase). The simulator ([`crate::run`])
/// and the real-engine kernels (`kernels::vpic::run_real`,
/// `kernels::bdcats::run_real`) run the same description.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Participating MPI ranks.
    pub ranks: u32,
    /// Bytes each rank moves per I/O phase.
    pub per_rank_bytes: u64,
    /// Number of epochs (compute + I/O pairs).
    pub epochs: u32,
    /// Length of each computation phase, seconds.
    pub compute_secs: f64,
    /// Whether the I/O phases write (checkpoint) or read (analysis). A
    /// model input: the real-engine kernels do not read it.
    pub direction: Direction,
    /// One-time setup cost (buffer allocation, background-thread spin-up,
    /// file open) — `t_init` in Eq. 1. A model input: the real-engine
    /// kernels do not read it.
    pub t_init: f64,
    /// One-time teardown cost — `t_term` in Eq. 1. A model input: the
    /// real-engine kernels do not read it.
    pub t_term: f64,
    /// Seeded straggler/interference knob (identity by default).
    pub perturb: Perturbation,
}

impl Workload {
    /// A write-checkpoint workload with the default init/term costs.
    pub fn checkpoint(ranks: u32, per_rank_bytes: u64, epochs: u32, compute_secs: f64) -> Self {
        Workload {
            ranks,
            per_rank_bytes,
            epochs,
            compute_secs,
            direction: Direction::Write,
            t_init: 0.5,
            t_term: 0.2,
            perturb: Perturbation::default(),
        }
    }

    /// A read-analysis workload (BD-CATS-style).
    pub fn analysis(ranks: u32, per_rank_bytes: u64, epochs: u32, compute_secs: f64) -> Self {
        Workload {
            direction: Direction::Read,
            ..Workload::checkpoint(ranks, per_rank_bytes, epochs, compute_secs)
        }
    }

    /// Slow one rank's compute phases by `factor`× every epoch.
    pub fn with_straggler(mut self, rank: u32, factor: f64) -> Self {
        assert!(rank < self.ranks, "straggler rank must participate");
        assert!(factor >= 1.0, "straggler factor must be >= 1");
        self.perturb.straggler_rank = Some(rank);
        self.perturb.straggler_factor = factor;
        self
    }

    /// Add seeded per-(rank, epoch) compute jitter in `[0, frac)`.
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&frac), "jitter fraction in [0, 1)");
        self.perturb.jitter_frac = frac;
        self.perturb.seed = seed;
        self
    }

    /// The perturbed compute time of one rank in one epoch.
    pub fn rank_compute_secs(&self, rank: u32, epoch: u32) -> f64 {
        self.perturb.rank_compute_secs(self.compute_secs, rank, epoch)
    }

    /// The epoch's effective (bulk-synchronous) compute time: the slowest
    /// rank's, since the collective phase cannot start until every rank
    /// reaches it. Equals `compute_secs` for the identity perturbation.
    pub fn effective_compute_secs(&self, epoch: u32) -> f64 {
        if self.perturb.is_identity() {
            return self.compute_secs;
        }
        (0..self.ranks)
            .map(|r| self.rank_compute_secs(r, epoch))
            .fold(self.compute_secs, f64::max)
    }
}

/// Where asynchronous snapshots are staged (paper §II-C).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StagingTier {
    /// On-node DRAM: one memcpy of overhead, background write reads it
    /// for free.
    Dram,
    /// Node-local SSD: overhead is a device write; the background stream
    /// pays a device read-back before the file system write. Slower, but
    /// with bounded DRAM footprint and persistence.
    Nvme,
}

/// How to execute a [`Workload`].
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Synchronous or asynchronous I/O.
    pub mode: IoMode,
    /// Server-side capacity factor in `(0, 1]` (1.0 = uncontended). Drawn
    /// from a [`platform::ContentionModel`] per run by the harnesses.
    pub contention: f64,
    /// Async double-buffer pool depth: how many snapshots may be in
    /// flight before the application blocks on the oldest background
    /// write (2 = classic double buffering).
    pub buffer_depth: u32,
    /// Where async snapshots live until the background write lands.
    pub staging: StagingTier,
}

impl RunConfig {
    /// Synchronous I/O, uncontended, default buffering.
    pub fn sync() -> Self {
        RunConfig {
            mode: IoMode::Sync,
            contention: 1.0,
            buffer_depth: 2,
            staging: StagingTier::Dram,
        }
    }

    /// Asynchronous I/O, uncontended, double buffering, DRAM staging.
    pub fn async_io() -> Self {
        RunConfig {
            mode: IoMode::Async,
            contention: 1.0,
            buffer_depth: 2,
            staging: StagingTier::Dram,
        }
    }

    /// Select the snapshot staging tier.
    pub fn with_staging(mut self, tier: StagingTier) -> Self {
        self.staging = tier;
        self
    }

    /// Apply a server-side capacity factor in `(0, 1]`.
    pub fn with_contention(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "contention in (0,1]");
        self.contention = factor;
        self
    }

    /// Bound the number of in-flight snapshots (≥ 1).
    pub fn with_buffer_depth(mut self, depth: u32) -> Self {
        assert!(depth >= 1, "need at least one buffer");
        self.buffer_depth = depth;
        self
    }
}

/// Measurements of one epoch.
#[derive(Clone, Copy, Debug)]
pub struct PhaseMeasure {
    /// Computation phase wall time.
    pub t_comp: f64,
    /// Time the application thread was blocked by the I/O phase — the
    /// quantity the paper's bandwidth plots divide into (for async this
    /// is the snapshot plus any wait for a free buffer).
    pub visible_io_secs: f64,
    /// Transactional overhead portion of `visible_io_secs` (0 for sync).
    /// On a real-engine async epoch that does not block, all of
    /// `visible_io_secs`: Eq. 2b's overhead is all the caller waits for.
    pub overhead_secs: f64,
    /// When the epoch's data actually became durable, relative to the
    /// epoch's I/O issue time (equals `visible_io_secs` for sync). NaN on
    /// a real-engine async epoch that does not block: the real run has
    /// no per-epoch drain, so it does not observe this.
    pub background_io_secs: f64,
}

/// The outcome of one run, simulated or measured on the real engine.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Per-epoch measurements, in execution order.
    pub phases: Vec<PhaseMeasure>,
    /// Total application wall time (Eq. 1's `t_app`; on the real engine,
    /// the epochs plus the final drain).
    pub wall_secs: f64,
    /// Bytes moved per I/O phase across all ranks.
    pub phase_bytes: u64,
}

impl RunResult {
    /// Observed aggregate bandwidth of each I/O phase (bytes/s).
    pub fn phase_bandwidths(&self) -> Vec<f64> {
        self.phases
            .iter()
            .map(|p| self.phase_bytes as f64 / p.visible_io_secs.max(1e-12))
            .collect()
    }

    /// Peak observed aggregate bandwidth over all phases — what the
    /// paper's bar plots report.
    pub fn peak_bandwidth(&self) -> f64 {
        self.phase_bandwidths()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total visible I/O time across phases.
    pub fn total_visible_io(&self) -> f64 {
        self.phases.iter().map(|p| p.visible_io_secs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        let w = Workload::checkpoint(64, 1024, 5, 30.0);
        assert_eq!(w.direction, Direction::Write);
        let r = Workload::analysis(64, 1024, 5, 30.0);
        assert_eq!(r.direction, Direction::Read);
        assert_eq!(r.ranks, 64);
    }

    #[test]
    fn run_config_builders() {
        let c = RunConfig::async_io().with_contention(0.5).with_buffer_depth(4);
        assert_eq!(c.mode, IoMode::Async);
        assert_eq!(c.contention, 0.5);
        assert_eq!(c.buffer_depth, 4);
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn invalid_contention_rejected() {
        RunConfig::sync().with_contention(0.0);
    }

    #[test]
    fn default_perturbation_is_the_identity() {
        let w = Workload::checkpoint(16, 1024, 4, 5.0);
        assert!(w.perturb.is_identity());
        for e in 0..4 {
            assert_eq!(w.effective_compute_secs(e), 5.0);
            for r in 0..16 {
                assert_eq!(w.rank_compute_secs(r, e), 5.0);
            }
        }
    }

    #[test]
    fn straggler_slows_exactly_one_rank() {
        let w = Workload::checkpoint(16, 1024, 4, 5.0).with_straggler(7, 4.0);
        for e in 0..4 {
            assert_eq!(w.rank_compute_secs(7, e), 20.0);
            assert_eq!(w.rank_compute_secs(6, e), 5.0);
            assert_eq!(w.effective_compute_secs(e), 20.0, "slowest rank gates the epoch");
        }
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let w = Workload::checkpoint(16, 1024, 4, 5.0).with_jitter(0.2, 42);
        let w2 = Workload::checkpoint(16, 1024, 4, 5.0).with_jitter(0.2, 42);
        let mut saw_spread = false;
        for e in 0..4 {
            for r in 0..16 {
                let c = w.rank_compute_secs(r, e);
                assert_eq!(c, w2.rank_compute_secs(r, e), "same seed, same draw");
                assert!((5.0..5.0 * 1.2).contains(&c), "jitter bounded: {c}");
                if c != w.rank_compute_secs((r + 1) % 16, e) {
                    saw_spread = true;
                }
            }
        }
        assert!(saw_spread, "jitter must actually vary across ranks");
        let w3 = Workload::checkpoint(16, 1024, 4, 5.0).with_jitter(0.2, 43);
        assert_ne!(
            w.rank_compute_secs(0, 0),
            w3.rank_compute_secs(0, 0),
            "different seed, different draw"
        );
    }

    #[test]
    #[should_panic(expected = "straggler rank")]
    fn out_of_range_straggler_rejected() {
        let _ = Workload::checkpoint(4, 1024, 1, 1.0).with_straggler(4, 2.0);
    }

    #[test]
    fn result_bandwidth_math() {
        let r = RunResult {
            phases: vec![
                PhaseMeasure {
                    t_comp: 1.0,
                    visible_io_secs: 2.0,
                    overhead_secs: 0.0,
                    background_io_secs: 2.0,
                },
                PhaseMeasure {
                    t_comp: 1.0,
                    visible_io_secs: 1.0,
                    overhead_secs: 0.0,
                    background_io_secs: 1.0,
                },
            ],
            wall_secs: 5.0,
            phase_bytes: 100,
        };
        assert_eq!(r.phase_bandwidths(), vec![50.0, 100.0]);
        assert_eq!(r.peak_bandwidth(), 100.0);
        assert_eq!(r.total_visible_io(), 3.0);
    }
}
