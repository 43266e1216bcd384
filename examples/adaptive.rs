//! The Fig. 2 feedback loop: the model rides alongside an application,
//! ingests its measurements, and recommends an I/O mode per epoch.
//!
//! ```text
//! cargo run --release --example adaptive
//! ```
//!
//! The "application" here is VPIC-IO simulated on the Summit model: we
//! replay a weak-scaling campaign, stream every observed phase into an
//! [`apio::model::AdaptiveRuntime`], and query the advisor before each new
//! configuration.

use apio::kernels::vpic::PAPER_BYTES_PER_RANK;
use apio::model::history::{Direction, IoMode};
use apio::model::{AdaptiveRuntime, Observation};
use apio::mpisim::{run, Job, RunConfig, Workload};
use apio::platform::summit;

fn main() {
    let sys = summit();
    let mut loop_ = AdaptiveRuntime::new();

    println!("phase 1: bootstrap — run both modes at small scale, learn rates\n");
    for ranks in [96u32, 192, 384] {
        let w = Workload::checkpoint(ranks, PAPER_BYTES_PER_RANK, 3, 30.0);
        let job = Job::new(sys.clone(), ranks);
        let total = w.per_rank_bytes as f64 * ranks as f64;

        for (mode, cfg) in [
            (IoMode::Sync, RunConfig::sync()),
            (IoMode::Async, RunConfig::async_io()),
        ] {
            let result = run(&job, &w, &cfg);
            for phase in &result.phases {
                loop_.observe(Observation::Compute {
                    secs: phase.t_comp,
                });
                match mode {
                    IoMode::Sync => loop_.observe(Observation::Transfer {
                        mode,
                        direction: Direction::Write,
                        total_bytes: total,
                        ranks,
                        secs: phase.visible_io_secs,
                    }),
                    IoMode::Async => loop_.observe(Observation::SnapshotOverhead {
                        direction: Direction::Write,
                        total_bytes: total,
                        ranks,
                        secs: phase.visible_io_secs,
                    }),
                }
            }
            println!(
                "  observed {ranks:>5} ranks {mode:?}: peak {:.1} GB/s over {} phases",
                result.peak_bandwidth() / 1e9,
                result.phases.len()
            );
        }
    }

    println!("\nphase 2: advise before scaling up\n");
    for ranks in [768u32, 3072, 12288] {
        let total = PAPER_BYTES_PER_RANK as f64 * ranks as f64;
        let advice = loop_
            .advise(Direction::Write, total, ranks)
            .expect("history supports a fit");
        println!(
            "  {ranks:>5} ranks: predict sync epoch {:>7.2}s vs async epoch {:>7.2}s -> use {:?} ({:.2}x, {:?})",
            advice.t_sync,
            advice.t_async,
            advice.mode,
            advice.speedup(),
            advice.scenario,
        );
    }

    println!("\nphase 3: a workload with nothing to overlap\n");
    // Same data, but no compute phase between checkpoints: the snapshot
    // overhead cannot be amortized and the advisor flips to synchronous.
    // (The EWMA needs a few dozen samples to forget the 30 s phases.)
    for _ in 0..60 {
        loop_.observe(Observation::Compute { secs: 1e-4 });
    }
    let ranks = 3072;
    let total = PAPER_BYTES_PER_RANK as f64 * ranks as f64;
    let advice = loop_.advise(Direction::Write, total, ranks).unwrap();
    println!(
        "  {ranks:>5} ranks, ~zero compute: -> use {:?} (sync {:.3}s vs async {:.3}s, {:?})",
        advice.mode, advice.t_sync, advice.t_async, advice.scenario
    );

    println!(
        "\nhistory carries {} transfer records; persist with History::to_text() for the next run",
        loop_.history().len()
    );
}
