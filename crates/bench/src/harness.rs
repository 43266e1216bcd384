//! Minimal self-timed benchmark harness.
//!
//! The bench targets are `harness = false` binaries; this module gives
//! them a shared measurement loop with no external dependencies: warm up,
//! auto-scale the iteration count until a batch is long enough to time
//! reliably, take the best of a few batches, and print one aligned line
//! per benchmark (with derived throughput when the caller supplies a
//! bytes-or-elements denominator).
//!
//! **Smoke mode** (`--smoke` on the bench binary's command line, or
//! `APIO_BENCH_SMOKE=1`): every benchmark body runs exactly once with no
//! warm-up, scaling, or repeat rounds. CI uses it as a build-and-run gate
//! so bench code cannot rot; the timings it produces are meaningless.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Shortest batch we trust the OS clock to time well.
const MIN_BATCH: Duration = Duration::from_millis(20);
/// Measurement batches per benchmark; the minimum is reported.
const ROUNDS: u32 = 3;
/// Cap on auto-scaled iterations per batch.
const MAX_ITERS: u64 = 1 << 16;

/// One benchmark measurement: the best observed batch.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Iterations per measured batch.
    pub iters: u64,
    /// Wall time of the best batch.
    pub total: Duration,
}

impl Sample {
    /// Mean seconds per iteration within the best batch.
    pub fn secs_per_iter(&self) -> f64 {
        self.total.as_secs_f64() / self.iters as f64
    }
}

fn time_batch(f: &mut impl FnMut(), iters: u64) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed()
}

fn human_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:9.3} s ")
    } else if secs >= 1e-3 {
        format!("{:9.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:9.3} µs", secs * 1e6)
    } else {
        format!("{:9.1} ns", secs * 1e9)
    }
}

/// Whether the suite runs in smoke mode: one iteration per benchmark,
/// no warm-up or repeat rounds — a CI gate that the bench code still
/// builds and runs, not a measurement.
pub fn smoke_mode() -> bool {
    static SMOKE: OnceLock<bool> = OnceLock::new();
    *SMOKE.get_or_init(|| {
        std::env::args().any(|a| a == "--smoke") || std::env::var_os("APIO_BENCH_SMOKE").is_some()
    })
}

fn measure(mut f: impl FnMut()) -> Sample {
    if smoke_mode() {
        let total = time_batch(&mut f, 1);
        return Sample { iters: 1, total };
    }
    f(); // warm-up (first-touch allocation, caches, lazy init)
    let mut iters = 1u64;
    let mut batch = time_batch(&mut f, iters);
    while batch < MIN_BATCH && iters < MAX_ITERS {
        iters *= 2;
        batch = time_batch(&mut f, iters);
    }
    let mut best = batch;
    for _ in 1..ROUNDS {
        best = best.min(time_batch(&mut f, iters));
    }
    Sample { iters, total: best }
}

/// Measure `f` and print `name  <time>/op`.
pub fn bench(name: &str, f: impl FnMut()) -> Sample {
    let s = measure(f);
    println!(
        "{name:<44} {:>8} iters  {}/op",
        s.iters,
        human_time(s.secs_per_iter())
    );
    s
}

/// Measure `f`, reporting bytes-per-second throughput for a body that
/// moves `bytes` bytes per iteration.
pub fn bench_bytes(name: &str, bytes: u64, f: impl FnMut()) -> Sample {
    let s = measure(f);
    let gbs = bytes as f64 / s.secs_per_iter() / 1e9;
    println!(
        "{name:<44} {:>8} iters  {}/op  {gbs:8.2} GB/s",
        s.iters,
        human_time(s.secs_per_iter())
    );
    s
}

/// Measure `f`, reporting elements-per-second throughput for a body that
/// processes `elems` items per iteration.
pub fn bench_elems(name: &str, elems: u64, f: impl FnMut()) -> Sample {
    let s = measure(f);
    let meps = elems as f64 / s.secs_per_iter() / 1e6;
    println!(
        "{name:<44} {:>8} iters  {}/op  {meps:8.2} Melem/s",
        s.iters,
        human_time(s.secs_per_iter())
    );
    s
}

/// Criterion's `iter_custom`: the closure runs `iters` iterations and
/// returns only the time it chose to count (excluding drains, setup).
pub fn bench_custom(name: &str, mut f: impl FnMut(u64) -> Duration) -> Sample {
    if smoke_mode() {
        let s = Sample {
            iters: 1,
            total: f(1),
        };
        println!("{name:<44} {:>8} iters  (smoke)", s.iters);
        return s;
    }
    let _ = f(1); // warm-up
    let mut iters = 1u64;
    let mut batch = f(iters);
    while batch < MIN_BATCH && iters < MAX_ITERS {
        iters *= 2;
        batch = f(iters);
    }
    let mut best = batch;
    for _ in 1..ROUNDS {
        best = best.min(f(iters));
    }
    let s = Sample { iters, total: best };
    println!(
        "{name:<44} {:>8} iters  {}/op",
        s.iters,
        human_time(s.secs_per_iter())
    );
    s
}

/// Print a section header so multi-group bench binaries stay readable.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_reports_mean() {
        let s = Sample {
            iters: 4,
            total: Duration::from_millis(8),
        };
        assert!((s.secs_per_iter() - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn human_time_units() {
        assert!(human_time(2.0).contains("s"));
        assert!(human_time(2e-3).contains("ms"));
        assert!(human_time(2e-6).contains("µs"));
        assert!(human_time(2e-9).contains("ns"));
    }
}
