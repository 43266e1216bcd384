//! Degenerate-input edge cases for the performance model (ISSUE 4), plus
//! the advisor flip driven end-to-end from a fitted history.

use apio_core::advisor::ModeAdvisor;
use apio_core::history::{Direction, History, IoMode, TransferRecord};
use apio_core::ratemodel::RateModel;
use apio_core::regression::{r2_simple, Design, LinearFit};

/// Weak-scaling history: `data_size` exactly proportional to `ranks`.
fn weak_scaling_async_history() -> History {
    let mut h = History::new();
    for ranks in [6u32, 24, 96, 384] {
        h.push(TransferRecord {
            data_size: ranks as f64 * 32e6,
            ranks,
            mode: IoMode::Async,
            direction: Direction::Write,
            rate: ranks as f64 / 6.0 * 10e9,
        });
    }
    h
}

#[test]
fn singular_normal_matrix_is_rejected_then_recovered_by_ridge() {
    // Weak scaling makes (size, ranks) perfectly collinear: XᵀX is
    // singular, the plain solve must refuse...
    let h = weak_scaling_async_history();
    let xs: Vec<Vec<f64>> = [6u32, 24, 96, 384]
        .iter()
        .map(|&r| vec![r as f64 * 32e6, r as f64])
        .collect();
    let ys: Vec<f64> = [6u32, 24, 96, 384]
        .iter()
        .map(|&r| r as f64 / 6.0 * 10e9)
        .collect();
    assert!(
        LinearFit::fit(Design::Linear, &xs, &ys).is_err(),
        "collinear features must make the plain normal equations singular"
    );
    // ...and RateModel's ridge fallback must still produce a usable fit
    // that predicts correctly on the subspace the data lives on.
    let m = RateModel::fit(&h, IoMode::Async, Direction::Write).expect("ridge fallback");
    let rate = m.estimate_rate(96.0 * 32e6, 96);
    assert!(
        (rate / 160e9 - 1.0).abs() < 0.05,
        "prediction on the collinear subspace: {rate}"
    );
}

#[test]
fn single_point_history_cannot_fit_a_rate_model() {
    let mut h = History::new();
    h.push(TransferRecord {
        data_size: 1e6,
        ranks: 8,
        mode: IoMode::Async,
        direction: Direction::Write,
        rate: 1e9,
    });
    assert!(RateModel::fit(&h, IoMode::Async, Direction::Write).is_err());
    // The same degeneracy at the regression layer: one observation, two
    // coefficients.
    assert!(LinearFit::fit(Design::Linear, &[vec![1e6, 8.0]], &[1e9]).is_err());
}

#[test]
fn zero_variance_target_r_squared_conventions() {
    let x: Vec<f64> = (0..16).map(|i| 1.0 + i as f64).collect();
    let y_const = vec![7.5f64; 16];
    // Eq. 5 (squared Pearson correlation): Var(Y) = 0 ⇒ r² defined as 0.
    assert_eq!(r2_simple(&x, &y_const), 0.0);
    // The multivariate fit's 1 − SSE/SST convention: an intercept design
    // reproduces the constant exactly, SST = 0 ⇒ r² defined as 1.
    let xs: Vec<Vec<f64>> = x.iter().map(|&v| vec![v]).collect();
    let fit = LinearFit::fit(Design::LinearLog, &xs, &y_const).expect("constant target fits");
    assert_eq!(fit.r_squared, 1.0);
    assert!((fit.predict(&[3.0]) - 7.5).abs() < 1e-9);
}

/// Fit both rate models from one sync and one async write observation
/// per scale: a sync rate that saturates at 330 GB/s, an async
/// (snapshot) rate that grows with nodes.
fn advisor_from_history() -> ModeAdvisor {
    let mut h = History::new();
    for ranks in [6u32, 24, 96, 384] {
        let nodes = ranks as f64 / 6.0;
        let size = ranks as f64 * 32e6;
        for (mode, rate) in [
            (IoMode::Sync, (nodes * 2.7e9).min(330e9)),
            (IoMode::Async, nodes * 10e9),
        ] {
            h.push(TransferRecord {
                data_size: size,
                ranks,
                mode,
                direction: Direction::Write,
                rate,
            });
        }
    }
    let s = RateModel::fit(&h, IoMode::Sync, Direction::Write).expect("sync fit");
    let a = RateModel::fit(&h, IoMode::Async, Direction::Write).expect("async fit");
    ModeAdvisor::new(s, a).expect("advisor")
}

#[test]
fn advisor_flips_sync_to_async_as_compute_grows() {
    let advisor = advisor_from_history();
    let size = 96.0 * 32e6;

    // No compute to overlap: Eq. 2b pays the snapshot on top of the full
    // I/O remainder — synchronous wins (Fig. 1c).
    let idle = advisor.advise(0.0, size, 96);
    assert_eq!(idle.mode, IoMode::Sync);
    let t_io = idle.params.t_io;
    let t_overhead = idle.params.t_overhead;
    assert!(t_overhead < t_io, "snapshot must be cheaper than the transfer");

    // Compute comfortably above t_io: the transfer hides completely and
    // only the overhead is exposed — asynchronous wins (Fig. 1a).
    let busy = advisor.advise(2.0 * t_io, size, 96);
    assert_eq!(busy.mode, IoMode::Async);
    assert!(busy.t_async < busy.t_sync);

    // Between the overhead and t_io the exposed remainder still beats the
    // full blocking transfer (Fig. 1b).
    let mid = advisor.advise(0.6 * t_io, size, 96);
    assert_eq!(mid.mode, IoMode::Async);
    assert!(mid.params.t_comp < mid.params.t_io);
}
