//! The epoch-time equations (Eq. 1–2) and the Fig. 1 scenarios.
//!
//! All times are plain `f64` seconds: the model is arithmetic over
//! estimates, not simulation.
//!
//! ## Eq. 2c: the pipeline behind Eq. 2b
//!
//! The paper's Eq. 2b prices one asynchronous epoch alone. A run is a
//! pipeline: the application computes (`c`), waits for a free snapshot
//! buffer, snapshots (`o`), and one background stream writes the
//! snapshots in order (`τ` each), with `D` buffers. Measured from
//! `t_init`, epoch `e`'s snapshot ends at `a_e` and its write lands at
//! `done_e`:
//!
//! ```text
//! a_e    = max(a_{e−1} + c, done_{e−D}) + o     (done term only for e ≥ D; a_{−1} = 0)
//! done_e = max(done_{e−1}, a_e) + τ
//! ```
//!
//! *D = 1.* `a_e ≥ done_{e−1} + o`, so every write starts when its
//! snapshot ends: `done_e = a_e + τ` and `a_e = a_{e−1} + max(c, τ) + o`.
//!
//! *D ≥ 2.* If `τ ≤ c + o` the stream idles between writes and no buffer
//! is ever waited for (`done_{e−D} = a_{e−D} + τ ≤ a_{e−1} + c`), so
//! `done_e = a_e + τ` with `a_e = (e + 1)(c + o)`. If `τ > c + o` the
//! stream never idles: by induction `a_e ≤ done_{e−1}` (because
//! `o ≤ (D − 1)τ` and `a_{e−1} + c + o < done_{e−1}`), so
//! `done_e = done_0 + eτ`.
//!
//! Both depths then come to this, with the period `P` of
//! [`pipelined_epoch_time`]:
//!
//! ```text
//! done_e = (c + o) + τ + e·P                                 (fill, e periods, one write)
//! a_e    = max((e + 1)(c + o), done_{e−D} + o)               (done term only for e ≥ D)
//! ```
//!
//! `a_e` unrolls the first line of the recurrence into its two max-plus
//! paths: never blocked, or blocked last on epoch `e − D`'s write. The
//! run ends when the last write lands, so the whole run is
//! `t_init + (c + o) + (E − 1)·P + τ + t_term` ([`EpochParams::write_run_time`]).
//!
//! The read direction is one chain. The first step is a blocking read;
//! the prefetch of step `e` lands at `pf_e = (e + 1)τ`, and the delivery
//! of step `e ≥ 1` (a copy, cost `d`) starts at
//! `u_e = max(u_{e−1} + d + c, pf_e)`, with `u_0 + d + c = τ + c`, the
//! end of step 0. Unrolled, `max_k [pf_k + (e − k)(d + c)]` is linear in
//! `k`, so only `k = 1` and `k = e` can win, beside the path that never
//! waits:
//!
//! ```text
//! u_e = max(τ + c + (e − 1)(d + c),    never waits after the blocking read
//!           2τ    + (e − 1)(d + c),    waits once, for the first prefetch
//!           (e + 1)τ)                  waits for every prefetch
//! ```

/// Inputs for one epoch's cost under either I/O mode.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EpochParams {
    /// Computation phase length (includes communication/synchronization).
    pub t_comp: f64,
    /// Blocking I/O phase length (all data transfers of the phase).
    pub t_io: f64,
    /// Transactional overhead of asynchronous I/O (the snapshot copy).
    pub t_overhead: f64,
}

impl EpochParams {
    /// Bundle the three per-epoch costs (all non-negative seconds).
    pub fn new(t_comp: f64, t_io: f64, t_overhead: f64) -> Self {
        assert!(
            t_comp >= 0.0 && t_io >= 0.0 && t_overhead >= 0.0,
            "epoch times must be non-negative"
        );
        EpochParams {
            t_comp,
            t_io,
            t_overhead,
        }
    }

    /// Eq. 2a for these parameters.
    pub fn sync_time(&self) -> f64 {
        sync_epoch_time(self.t_io, self.t_comp)
    }

    /// Eq. 2b for these parameters.
    pub fn async_time(&self) -> f64 {
        async_epoch_time(self.t_comp, self.t_io, self.t_overhead)
    }

    /// Eq. 2c for these parameters with `depth` snapshot buffers.
    pub fn pipelined_time(&self, depth: u32) -> f64 {
        pipelined_epoch_time(self.t_comp, self.t_io, self.t_overhead, depth)
    }

    /// `done_e`: when epoch `e`'s background write lands, from `t_init`.
    fn landed(&self, depth: u32, e: u32) -> f64 {
        self.t_comp + self.t_overhead + self.t_io + f64::from(e) * self.pipelined_time(depth)
    }

    /// `a_e`: when epoch `e`'s snapshot ends, from `t_init`.
    fn snapshot_end(&self, depth: u32, e: u32) -> f64 {
        let unblocked = f64::from(e + 1) * (self.t_comp + self.t_overhead);
        match e.checked_sub(depth) {
            Some(k) => unblocked.max(self.landed(depth, k) + self.t_overhead),
            None => unblocked,
        }
    }

    /// Epoch `e` of an asynchronous write run with `depth` buffers
    /// (the module doc's `a_e` and `done_e`).
    pub fn write_epoch(&self, depth: u32, e: u32) -> WriteEpoch {
        let end = self.snapshot_end(depth, e);
        let prev = e.checked_sub(1).map_or(0.0, |p| self.snapshot_end(depth, p));
        WriteEpoch {
            visible: end - prev - self.t_comp,
            background: self.landed(depth, e) - end,
        }
    }

    /// Eq. 2c's run form: an asynchronous write run of `epochs` epochs,
    /// from `t_init` to its last write landing — the first fill
    /// `t_comp + t_overhead`, `epochs − 1` periods, and the final drain
    /// `t_io`.
    pub fn write_run_time(&self, depth: u32, epochs: u32) -> f64 {
        assert!(epochs > 0, "need at least one epoch");
        self.landed(depth, epochs - 1)
    }

    /// `u_e`: when the delivery of read step `e` starts, from `t_init`.
    /// Step 0 delivers nothing; its `u_0` is the blocking read's end less
    /// `d`, so that `u_0 + d + c` is the step's end.
    fn delivery_start(&self, e: u32) -> f64 {
        let (c, io, d) = (self.t_comp, self.t_io, self.t_overhead);
        let Some(k) = e.checked_sub(1) else {
            return io - d;
        };
        let steps = f64::from(k) * (d + c);
        (io + c + steps).max(2.0 * io + steps).max(f64::from(e + 1) * io)
    }

    /// The time step `e` of an asynchronous read run blocks the
    /// application: `t_io` is one step's read, `t_overhead` the delivery
    /// copy of a prefetched step. Step 0 is the blocking read.
    pub fn read_epoch_visible(&self, e: u32) -> f64 {
        match e.checked_sub(1) {
            None => self.t_io,
            Some(p) => self.delivery_start(e) - self.delivery_start(p) - self.t_comp,
        }
    }

    /// An asynchronous read run of `epochs` steps, from `t_init` to the
    /// end of the last step's compute.
    pub fn read_run_time(&self, epochs: u32) -> f64 {
        assert!(epochs > 0, "need at least one epoch");
        self.delivery_start(epochs - 1) + self.t_overhead + self.t_comp
    }

    /// Speedup of async over sync (> 1 means async wins).
    pub fn speedup(&self) -> f64 {
        self.sync_time() / self.async_time()
    }

    /// Which Fig. 1 scenario these parameters fall into.
    pub fn scenario(&self) -> Scenario {
        if self.async_time() >= self.sync_time() {
            Scenario::Slowdown
        } else if self.t_comp >= self.t_io {
            Scenario::Ideal
        } else {
            Scenario::PartialOverlap
        }
    }
}

/// Eq. 2a: `t_sync_epoch = t_io + t_comp`. Computation stalls during I/O.
pub fn sync_epoch_time(t_io: f64, t_comp: f64) -> f64 {
    t_io + t_comp
}

/// Eq. 2b, the paper's: `t_async_epoch = max(t_comp, t_io − t_comp) +
/// t_overhead`.
///
/// The `max` keeps whichever cannot be hidden: the computation phase when
/// it fully covers the I/O, or the I/O remainder when computation is too
/// short. The transactional overhead is always paid on the application
/// thread — which is why `t_comp ≤ t_overhead` guarantees a slowdown
/// (Fig. 1c). It prices one epoch alone; [`pipelined_epoch_time`] is
/// what a run of them settles to.
pub fn async_epoch_time(t_comp: f64, t_io: f64, t_overhead: f64) -> f64 {
    (t_io - t_comp).max(t_comp) + t_overhead
}

/// Eq. 2c: the period an asynchronous write epoch settles to with
/// `depth` snapshot buffers (the module doc derives it).
///
/// With one buffer the next snapshot waits for this epoch's write, so
/// the overhead adds to the slower of compute and write:
/// `max(t_comp, t_io) + t_overhead`. With two or more the snapshot
/// overlaps the write and the slower stage sets the pace:
/// `max(t_comp + t_overhead, t_io)`. Both are Eq. 2b when
/// `t_comp ≥ t_io` (Fig. 1a).
pub fn pipelined_epoch_time(t_comp: f64, t_io: f64, t_overhead: f64, depth: u32) -> f64 {
    assert!(depth >= 1, "need at least one buffer");
    if depth == 1 {
        t_comp.max(t_io) + t_overhead
    } else {
        (t_comp + t_overhead).max(t_io)
    }
}

/// One epoch of an asynchronous write run in closed form, in the terms
/// the simulator measures (`mpisim::PhaseMeasure`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WriteEpoch {
    /// Time the application was blocked: the buffer wait and the snapshot.
    pub visible: f64,
    /// From the end of the snapshot to the write landing.
    pub background: f64,
}

/// Eq. 1: `t_app = t_init + Σ t_epoch + t_term`.
pub fn app_time(t_init: f64, epoch_times: impl IntoIterator<Item = f64>, t_term: f64) -> f64 {
    t_init + epoch_times.into_iter().sum::<f64>() + t_term
}

/// The three timeline scenarios of Fig. 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// Fig. 1a: computation longer than I/O — the I/O latency hides
    /// completely.
    Ideal,
    /// Fig. 1b: computation shorter than I/O — some latency is exposed,
    /// but async still wins.
    PartialOverlap,
    /// Fig. 1c: the overhead eats any overlap benefit — async loses.
    Slowdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_is_the_sum() {
        assert_eq!(sync_epoch_time(2.0, 3.0), 5.0);
        assert_eq!(sync_epoch_time(0.0, 0.0), 0.0);
    }

    #[test]
    fn ideal_scenario_full_overlap() {
        // Fig. 1a: t_comp=10 > t_io=4. Async epoch = comp + overhead only.
        let p = EpochParams::new(10.0, 4.0, 0.5);
        assert_eq!(p.async_time(), 10.5);
        assert_eq!(p.sync_time(), 14.0);
        assert_eq!(p.scenario(), Scenario::Ideal);
        assert!(p.speedup() > 1.0);
    }

    #[test]
    fn partial_overlap_scenario() {
        // Fig. 1b: t_comp=3 < t_io=10; exposed I/O = 7.
        let p = EpochParams::new(3.0, 10.0, 0.5);
        assert_eq!(p.async_time(), 7.5);
        assert_eq!(p.sync_time(), 13.0);
        assert_eq!(p.scenario(), Scenario::PartialOverlap);
    }

    #[test]
    fn slowdown_when_overhead_dominates() {
        // Fig. 1c: t_comp ≤ t_overhead means async cannot win.
        let p = EpochParams::new(0.2, 1.0, 0.5);
        // async = max(0.2, 0.8) + 0.5 = 1.3 ; sync = 1.2
        assert!(p.async_time() > p.sync_time());
        assert_eq!(p.scenario(), Scenario::Slowdown);
        assert!(p.speedup() < 1.0);
    }

    #[test]
    fn exact_slowdown_characterization_of_eq2b() {
        // §III-A states "when t_comp ≤ t_transact_overhead, async results
        // in a slowdown". Solving Eq. 2a/2b exactly: async loses iff
        // t_overhead ≥ min(t_io, 2·t_comp) — the prose claim is the
        // t_io ≤ 2·t_comp face of this condition. Verify the exact
        // characterization over a dense sweep.
        let grid = [0.0, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0];
        for &comp in &grid {
            for &io in &grid {
                for &ov in &grid {
                    let p = EpochParams::new(comp, io, ov);
                    let slowdown = p.async_time() >= p.sync_time();
                    let predicted = ov >= io.min(2.0 * comp);
                    assert_eq!(
                        slowdown, predicted,
                        "comp={comp} io={io} ov={ov}: async={} sync={}",
                        p.async_time(),
                        p.sync_time()
                    );
                }
            }
        }
    }

    #[test]
    fn paper_claim_holds_in_full_overlap_regime() {
        // In the regime Fig. 1c depicts (the I/O fully fits under the
        // compute phase, t_io ≤ t_comp), t_comp ≤ t_overhead does imply a
        // slowdown: the overhead then dominates anything overlap saved.
        for comp in [0.1, 0.5, 1.0] {
            for io in [0.05 * comp, 0.5 * comp, comp] {
                for ov in [comp, 2.0 * comp] {
                    let p = EpochParams::new(comp, io, ov);
                    assert!(
                        p.async_time() >= p.sync_time() - 1e-12,
                        "comp={comp} io={io} ov={ov}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_overhead_async_never_loses() {
        for comp in [0.1, 1.0, 10.0] {
            for io in [0.1, 1.0, 10.0] {
                let p = EpochParams::new(comp, io, 0.0);
                assert!(p.async_time() <= p.sync_time() + 1e-12);
            }
        }
    }

    #[test]
    fn app_time_eq1() {
        // 3 epochs of 2s each, init 1s, term 0.5s.
        assert_eq!(app_time(1.0, vec![2.0; 3], 0.5), 7.5);
        assert_eq!(app_time(0.0, std::iter::empty(), 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_times_rejected() {
        EpochParams::new(-1.0, 1.0, 0.0);
    }

    /// The steady epoch, read off the closed form far down the run.
    fn late_epoch(p: &EpochParams, depth: u32) -> f64 {
        let late = p.write_run_time(depth, 201) - p.write_run_time(depth, 200);
        let e = p.write_epoch(depth, 200);
        assert!((e.visible + p.t_comp - late).abs() < 1e-9);
        late
    }

    #[test]
    fn eq2c_steady_state_at_depth_one() {
        // One buffer: the snapshot waits for the previous write, so the
        // overhead is never hidden, whichever stage is slower.
        for (comp, io, ov) in [(1.0, 3.0, 0.5), (3.0, 1.0, 0.5), (0.0, 2.0, 0.25)] {
            let p = EpochParams::new(comp, io, ov);
            let want = comp.max(io) + ov;
            assert_eq!(p.pipelined_time(1), want);
            assert!((late_epoch(&p, 1) - want).abs() < 1e-9, "{p:?}");
        }
        // Partial overlap (Fig. 1b): Eq. 2b undershoots by t_comp.
        let p = EpochParams::new(1.0, 3.0, 0.5);
        assert_eq!(p.pipelined_time(1) - p.async_time(), 1.0);
    }

    #[test]
    fn eq2c_steady_state_at_depth_two_and_more() {
        // Two or more: the snapshot overlaps the write in flight, and the
        // slower stage sets the pace.
        for depth in [2, 3, 8] {
            for (comp, io, ov) in [(1.0, 3.0, 0.5), (3.0, 1.0, 0.5), (2.8, 3.0, 0.5)] {
                let p = EpochParams::new(comp, io, ov);
                let want = (comp + ov).max(io);
                assert_eq!(p.pipelined_time(depth), want);
                assert!((late_epoch(&p, depth) - want).abs() < 1e-9, "{p:?} at {depth}");
            }
        }
        // Once write-bound, more buffers only delay the first wait.
        let p = EpochParams::new(1.0, 3.0, 0.5);
        assert_eq!(p.write_epoch(2, 1).visible, 0.5);
        assert!(p.write_epoch(2, 2).visible > 0.5);
        assert_eq!(p.write_epoch(8, 7).visible, 0.5);
    }

    #[test]
    fn eq2b_and_eq2c_agree_when_compute_covers_io() {
        // Fig. 1a: t_comp ≥ t_io hides every write, at any depth, and no
        // epoch ever waits for a buffer.
        for (comp, io, ov) in [(10.0, 4.0, 0.5), (5.0, 5.0, 0.1), (2.0, 0.0, 1.0)] {
            let p = EpochParams::new(comp, io, ov);
            for depth in [1, 2, 8] {
                assert_eq!(p.pipelined_time(depth), p.async_time(), "{p:?} at {depth}");
                for e in 0..20 {
                    let ep = p.write_epoch(depth, e);
                    assert!((ep.visible - ov).abs() < 1e-12, "{p:?} epoch {e}");
                    assert!((ep.background - io).abs() < 1e-12, "{p:?} epoch {e}");
                }
            }
        }
    }

    #[test]
    fn read_chain_has_three_regimes() {
        // Compute-bound: after the blocking read only deliveries show.
        let p = EpochParams::new(5.0, 1.0, 0.1);
        assert_eq!(p.read_epoch_visible(0), 1.0);
        assert!((p.read_epoch_visible(3) - 0.1).abs() < 1e-12);
        // Waits once, for the first prefetch, then keeps up.
        let p = EpochParams::new(1.0, 1.5, 1.0);
        assert!((p.read_epoch_visible(1) - 1.5).abs() < 1e-12);
        assert!((p.read_epoch_visible(2) - 1.0).abs() < 1e-12);
        // Read-bound: every step waits the read out.
        let p = EpochParams::new(0.5, 2.0, 0.1);
        assert!((p.read_epoch_visible(4) - 1.5).abs() < 1e-12);
        assert!((p.read_run_time(5) - (5.0 * 2.0 + 0.1 + 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "need at least one buffer")]
    fn eq2c_needs_a_buffer() {
        pipelined_epoch_time(1.0, 1.0, 0.0, 0);
    }

    #[test]
    fn boundary_equal_comp_and_io_is_ideal() {
        let p = EpochParams::new(5.0, 5.0, 0.1);
        assert_eq!(p.scenario(), Scenario::Ideal);
        assert_eq!(p.async_time(), 5.1);
    }
}
