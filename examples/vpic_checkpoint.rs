//! VPIC-IO end to end: the real engine at laptop scale, then the same
//! workload on the Summit model at paper scale.
//!
//! ```text
//! cargo run --release --example vpic_checkpoint
//! ```

use std::sync::Arc;

use apio::h5lite::{Container, ThrottledBackend};
use apio::kernels::{make_file, run_real, vpic};
use apio::model::history::{Direction, IoMode};
use apio::mpisim::{run, Job, RunConfig, Workload};
use apio::platform::summit;

/// 400 MB/s + 0.5 ms/op: a realistically slow shared file system.
fn slow_fs() -> Arc<Container> {
    Arc::new(Container::create(Arc::new(ThrottledBackend::in_memory(
        400e6, 5e-4,
    ))))
}

fn main() {
    // ----- real engine: threads, buffers, a throttled container --------
    // 32 Ki particles/rank × 8 f32 properties = 1 MiB per rank.
    let w = Workload::checkpoint(4, 1 << 20, 4, 0.08);
    println!(
        "real engine: {} ranks × {} particles × 8 properties = {:.1} MiB per checkpoint\n",
        w.ranks,
        w.per_rank_bytes / 32,
        (w.per_rank_bytes * w.ranks as u64) as f64 / (1 << 20) as f64
    );

    for mode in [IoMode::Sync, IoMode::Async] {
        let (file, vol) = make_file(slow_fs(), mode);
        let result = run_real(&file, vol.as_deref(), &w).expect("kernel run");
        println!(
            "  {mode:?}: visible I/O {:>7.3}s over {} checkpoints, peak {:>8.2} MB/s visible bandwidth",
            result.total_visible_io(),
            result.phases.len(),
            result.peak_bandwidth() / 1e6
        );
        if let Some(stats) = vol.map(|v| v.stats()) {
            println!(
                "         write hand-off: {:.1} MiB given to the connector in {:.3}s ({:.2} GB/s)",
                stats.snapshot_bytes as f64 / (1 << 20) as f64,
                stats.snapshot_secs,
                stats.snapshot_bw() / 1e9
            );
        }
    }

    // And the read side: BD-CATS over the same container, with prefetch.
    let (source, _) = make_file(slow_fs(), IoMode::Sync);
    run_real(&source, None, &w).expect("kernel run");
    let (file, vol) = make_file(source.container().clone(), IoMode::Async);
    let analysis = Workload { direction: Direction::Read, ..w.clone() };
    let result = run_real(&file, vol.as_deref(), &analysis).expect("read kernel");
    let bws = result.phase_bandwidths();
    println!(
        "\n  BD-CATS-IO async read: first (blocking) step {:.1} MB/s, prefetched steps up to {:.1} MB/s",
        bws[0] / 1e6,
        bws[1..].iter().fold(f64::MIN, |a, &b| a.max(b)) / 1e6
    );

    // ----- simulator: the paper-scale weak-scaling campaign -------------
    println!("\nSummit model, 5 checkpoints, 30 s compute (paper configuration):\n");
    println!(
        "  {:>6} {:>7} {:>15} {:>15}",
        "ranks", "nodes", "sync peak", "async peak"
    );
    let sys = summit();
    for ranks in [96u32, 768, 6144, 12288] {
        let w = Workload::checkpoint(ranks, vpic::PAPER_BYTES_PER_RANK, 5, 30.0);
        let job = Job::new(sys.clone(), ranks);
        let sync = run(&job, &w, &RunConfig::sync());
        let asy = run(&job, &w, &RunConfig::async_io());
        println!(
            "  {:>6} {:>7} {:>12.1} GB/s {:>12.1} GB/s",
            ranks,
            job.nodes(),
            sync.peak_bandwidth() / 1e9,
            asy.peak_bandwidth() / 1e9
        );
    }
    println!("\n(regenerate every figure with: cargo run -p apio-bench --bin figures -- all)");
}
