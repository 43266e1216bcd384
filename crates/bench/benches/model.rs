//! Model-layer benchmarks and the design ablation the paper implies:
//! linear vs linear-log fits on saturating (sync-shaped) and linear
//! (async-shaped) histories, plus the cost of one advisory decision —
//! which must be negligible if the model is to sit inside an I/O library
//! (Fig. 2).

use apio_bench::harness::{bench, section};
use apio_core::history::{Direction, History, IoMode, TransferRecord};
use apio_core::ratemodel::RateModel;
use apio_core::regression::{Design, LinearFit};
use apio_core::AdaptiveRuntime;
use std::hint::black_box;

fn saturating_history(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (1..=n)
        .map(|i| vec![i as f64 * 32e6, i as f64 * 1.7 + 3.0])
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 330e9 * x[1] / (x[1] + 120.0))
        .collect();
    (xs, ys)
}

/// Ablation: the two designs on the same saturating data. The linear-log
/// design should win on r² (checked in tests); here we measure that its
/// fit cost is the same order.
fn design_ablation() {
    section("fit_design");
    let (xs, ys) = saturating_history(64);
    for design in [Design::Linear, Design::LinearLog] {
        bench(&format!("fit_design/{design:?}"), || {
            LinearFit::fit(design, black_box(&xs), black_box(&ys)).unwrap();
        });
    }
}

fn fit_scaling() {
    section("fit_history_size");
    for n in [16usize, 128, 1024] {
        let (xs, ys) = saturating_history(n);
        bench(&format!("fit_history_size/{n}"), || {
            LinearFit::fit(Design::LinearLog, black_box(&xs), black_box(&ys)).unwrap();
        });
    }
}

fn advisory_decision() {
    section("advisory");
    // One advise() call on a warm cache — the per-epoch cost inside an
    // I/O library.
    let mut history = History::new();
    for i in 1..=32u32 {
        let ranks = i * 64;
        let size = ranks as f64 * 32e6;
        history.push(TransferRecord {
            data_size: size,
            ranks,
            mode: IoMode::Sync,
            direction: Direction::Write,
            rate: 330e9 * (ranks as f64) / (ranks as f64 + 700.0),
        });
        history.push(TransferRecord {
            data_size: size,
            ranks,
            mode: IoMode::Async,
            direction: Direction::Write,
            rate: ranks as f64 / 6.0 * 10e9,
        });
    }
    let mut rt = AdaptiveRuntime::with_history(history);
    rt.observe_compute(30.0);
    // Warm the fit cache.
    rt.advise(Direction::Write, 1e9, 768).unwrap();
    bench("advise_warm", || {
        rt.advise(Direction::Write, black_box(1e9), black_box(768)).unwrap();
    });

    // And a cold advisory (refit included).
    let h = rt.history().clone();
    bench("fit_rate_model", || {
        RateModel::fit(black_box(&h), IoMode::Sync, Direction::Write).unwrap();
    });
}

fn main() {
    design_ablation();
    fit_scaling();
    advisory_decision();
}
