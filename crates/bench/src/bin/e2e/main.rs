//! `e2e` — the real-engine epoch benchmark.
//!
//! Drives the real stack (`kernels` shapes → `h5lite::api` → `Vol`
//! {`NativeVol` | `asyncvol`} → `h5lite::plan`/`container`/`meta` →
//! `h5lite::ring` → `FileBackend`, optionally under `ThrottledBackend`)
//! through four named workloads, prints every metric by name with its
//! unit, and verifies the bytes it wrote or read. The program under test
//! is not edited: layers are measured from outside (see `probe.rs`).
//! README.md beside this file has the workload table, the metric
//! glossary and the commands.

mod metrics;
mod probe;
mod stats;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{end_to_end, per_layer, Measured, END_TO_END};
use stats::{median, Summary};
use workload::{run_rep, Connector, Mode, RepResult, Spec, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`:
/// all four workloads, both passes, in under two minutes.
const RUN_SECONDS: u64 = 12;

/// `tail.epoch_s_p90` wants ten samples beyond it.
const TAIL_SAMPLES: usize = 100;

const USAGE: &str =
    "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--dir PATH]
           [--smoke] [--check-repeat] [--selftest] [--benchmark-json]

  --workload NAME   one of vpic_hidden, vpic_exposed, bdcats_prefetch, strided_rw (default: all)
  --seed N          payloads and spot-check positions (default 1)
  --seconds S       keep starting plain repetitions until S seconds have passed (default 12)
  --trace 0|1       0: end-to-end metrics only; 1: per-layer metrics only (default: both)
  --dir PATH        where data files and traces go (default target/e2e)
  --smoke           2 epochs x 1 repetition, 4 096 particles, no sleeps, no throttle
  --check-repeat    run every workload twice, compare the two values against the bounds
  --selftest        prove the verifier rejects a wrong stamp and a snapshot-less connector
  --benchmark-json  print BENCHMARK.json

With --workload and --trace both given, the last line of standard output is
one JSON object {correct, attempted, failed, metrics}.";

struct Args {
    workload: Option<Spec>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    dir: PathBuf,
    smoke: bool,
    command: Command,
}

enum Command {
    Run,
    CheckRepeat,
    Selftest,
    BenchmarkJson,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        dir: PathBuf::from("target/e2e"),
        smoke: false,
        command: Command::Run,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must lie in 0..=600".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--dir" => args.dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.command = Command::CheckRepeat,
            "--selftest" => args.command = Command::Selftest,
            "--benchmark-json" => args.command = Command::BenchmarkJson,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn sized(spec: Spec, args: &Args) -> Spec {
    if args.smoke {
        spec.smoke()
    } else {
        spec
    }
}

/// Plain repetitions of one workload: at least three, at least enough
/// for the tail to have its hundred epochs, and then until `seconds`
/// have passed.
///
/// A short repetition runs first and is thrown away. What the allocator
/// hands the stack's per-call buffers depends on what the process has
/// freed so far: a process's first repetition of `vpic_hidden` spent
/// 9 to 12 ms per epoch inside I/O calls and every later one 15 to 20.
/// The steady state is the one that can be repeated.
fn plain_reps(spec: &Spec, args: &Args, seconds: f64) -> h5lite::Result<Vec<RepResult>> {
    if args.smoke {
        return Ok(vec![run_rep(
            spec,
            args.seed,
            &args.dir,
            Mode::Plain,
            None,
        )?]);
    }
    let warm_up = Spec { epochs: 2, ..*spec };
    run_rep(&warm_up, args.seed, &args.dir, Mode::Plain, None)?;
    let min_reps = TAIL_SAMPLES.div_ceil(spec.epochs).max(3);
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || t0.elapsed().as_secs_f64() < seconds {
        reps.push(run_rep(spec, args.seed, &args.dir, Mode::Plain, None)?);
    }
    Ok(reps)
}

/// What one pass over one workload produced.
struct Outcome {
    metrics: Vec<Measured>,
    attempted: u64,
    failed: u64,
}

fn plain_outcome(spec: &Spec, args: &Args, reps: &[RepResult]) -> Outcome {
    let outcome = Outcome {
        metrics: end_to_end(spec, reps),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
    };
    let epochs: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.epoch_s.iter().copied())
        .collect();
    println!(
        "\n== {}: end to end, tracing off — seed {}, {} reps x {} epochs, {} operations, {} failed",
        spec.name,
        args.seed,
        reps.len(),
        spec.epochs,
        outcome.attempted,
        outcome.failed
    );
    println!(
        "  {:<14} {:>12} {:<4} {:>5}  {:>11} {:>11} {:>11}  per-rep",
        "metric", "value", "unit", "n", "min", "median", "max"
    );
    for m in &outcome.metrics {
        let s = Summary::of(&m.per_rep).expect("at least one repetition");
        let per_rep: Vec<String> = m.per_rep.iter().map(|v| format!("{v:.5}")).collect();
        println!(
            "  {:<14} {:>12.6} {:<4} {:>5}  {:>11.6} {:>11.6} {:>11.6}  [{}]",
            m.name,
            m.value,
            m.unit,
            m.samples,
            s.min,
            s.median,
            s.max,
            per_rep.join(" ")
        );
    }
    if let (Some(s), Some(t)) = (Summary::of(&epochs), stats::tail(&epochs)) {
        println!(
            "  epochs pooled: n {} median {:.6} s, quartiles {:.6}..{:.6}, MAD {:.6}; highest supported tail p{} = {:.6} s ({} beyond)",
            s.n, s.median, s.q1, s.q3, s.mad, t.percentile, t.value, t.beyond
        );
    }
    let drain: Vec<f64> = reps.iter().map(|r| r.drain_s).collect();
    println!(
        "  not gated: drain_s {:.6} s (median), file_bytes_per_user_byte {:.6}, op_fail_frac {} / {}",
        median(&drain),
        reps[0].file_bytes as f64 / reps[0].live_user_bytes as f64,
        outcome.failed,
        outcome.attempted
    );
    outcome
}

/// One traced and one synchronous-reference repetition beside the
/// plain ones.
fn traced_outcome(spec: &Spec, args: &Args, plain: &[RepResult]) -> h5lite::Result<Outcome> {
    let trace_path = args.dir.join(format!("{}.trace.json", spec.name));
    let traced = run_rep(spec, args.seed, &args.dir, Mode::Traced, Some(&trace_path))?;
    let sync_ref = if spec.connector == Connector::Native {
        None
    } else {
        Some(run_rep(spec, args.seed, &args.dir, Mode::SyncRef, None)?)
    };
    let reps = || plain.iter().chain([&traced]).chain(&sync_ref);
    let outcome = Outcome {
        metrics: per_layer(spec, plain, &traced, sync_ref.as_ref()),
        attempted: reps().map(|r| r.attempted).sum(),
        failed: reps().map(|r| r.failed).sum(),
    };
    println!(
        "\n== {}: per layer, one traced repetition of {} epochs — seed {}, {} operations, {} failed",
        spec.name, spec.epochs, args.seed, outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(layers) = &traced.layers {
        println!(
            "  application-thread self time per epoch, by span (epoch wall {:.6} s):",
            traced.epoch_s.iter().sum::<f64>() / traced.epoch_s.len() as f64
        );
        for (name, secs) in &layers.self_time {
            println!("    {name:<28} {secs:>12.6} s");
        }
    }
    println!("  spans written to {}", trace_path.display());
    Ok(outcome)
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> h5lite::Result<ExitCode> {
    let specs: Vec<Spec> = match args.workload {
        Some(spec) => vec![sized(spec, args)],
        None => WORKLOADS.iter().map(|w| sized(*w, args)).collect(),
    };
    let t0 = Instant::now();
    let mut failed = 0;
    let mut last = None;
    for spec in &specs {
        // The per-layer pass alone needs only the tail's hundred epochs.
        let seconds = if args.trace == Some(true) {
            0.0
        } else {
            args.seconds
        };
        let plain = plain_reps(spec, args, seconds)?;
        if args.trace != Some(true) {
            let outcome = plain_outcome(spec, args, &plain);
            failed += outcome.failed;
            last = Some(outcome);
        }
        if args.trace != Some(false) {
            let outcome = traced_outcome(spec, args, &plain)?;
            failed += outcome.failed;
            last = Some(outcome);
        }
    }
    println!("\ntotal wall {:.1} s", t0.elapsed().as_secs_f64());
    if let (Some(_), Some(_), Some(outcome)) = (args.workload, args.trace, &last) {
        println!("{}", json_line(outcome));
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run every workload twice and hold the two values of every end-to-end
/// metric against its bound.
fn check_repeat(args: &Args) -> h5lite::Result<ExitCode> {
    let mut out_of_bound = 0;
    let mut rows = Vec::new();
    for spec in WORKLOADS.iter().map(|w| sized(*w, args)) {
        let a = plain_outcome(&spec, args, &plain_reps(&spec, args, args.seconds)?);
        let b = plain_outcome(&spec, args, &plain_reps(&spec, args, args.seconds)?);
        for ((ma, mb), def) in a.metrics.iter().zip(&b.metrics).zip(&END_TO_END) {
            let diff = (mb.value - ma.value).abs() / ma.value.min(mb.value);
            let spread = |m: &Measured| Summary::of(&m.per_rep).map_or(0.0, |s| s.iqr_frac());
            let verdict = if diff <= def.bound {
                "ok"
            } else {
                "OUT OF BOUND"
            };
            out_of_bound += u32::from(diff > def.bound);
            rows.push(format!(
                "  {:<16} {:<14} {:>11.6} {:>11.6} {:>7.2}% {:>6.0}%  {:>6.2}% {:>6.2}%  {}",
                spec.name,
                def.name,
                ma.value,
                mb.value,
                diff * 100.0,
                def.bound * 100.0,
                spread(ma) * 100.0,
                spread(mb) * 100.0,
                verdict
            ));
        }
        if a.failed + b.failed > 0 {
            out_of_bound += 1;
            rows.push(format!("  {:<16} operations failed", spec.name));
        }
    }
    println!(
        "\n== repeatability: two sets of runs of the same code\n  {:<16} {:<14} {:>11} {:>11} {:>8} {:>7}  {:>7} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound", "iqr 1", "iqr 2"
    );
    for row in rows {
        println!("{row}");
    }
    println!(
        "  demoted, not gated (see README): tail.epoch_s_p90, tail.drain_s; file_bytes_per_user_byte and op_fail_frac are exact"
    );
    Ok(if out_of_bound == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The verifier must pass an honest run and fail two dishonest ones.
fn selftest(args: &Args) -> h5lite::Result<ExitCode> {
    // NativeVol, so that what reaches the file is exactly what the
    // connector under test was handed.
    let spec = Spec {
        connector: Connector::Native,
        ..WORKLOADS[0].smoke()
    };
    let writes = (spec.epochs * 16) as u64;
    let mut ok = true;
    for (mode, want, what) in [
        (Mode::Plain, 0, "an honest run verifies"),
        (
            Mode::WrongStamp,
            writes,
            "a wrong expected stamp fails every write",
        ),
        (
            Mode::Snapshotless,
            writes,
            "a snapshot-less connector fails every write",
        ),
    ] {
        let rep = run_rep(&spec, args.seed, &args.dir, mode, None)?;
        let pass = rep.failed == want;
        ok &= pass;
        println!(
            "selftest: {what}: {} of {} operations failed, expected {want} — {}",
            rep.failed,
            rep.attempted,
            if pass { "ok" } else { "SLIPPED THROUGH" }
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match args.command {
        Command::BenchmarkJson => {
            print!("{}", metrics::benchmark_json(&WORKLOADS, RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        Command::Run => run(&args),
        Command::CheckRepeat => check_repeat(&args),
        Command::Selftest => selftest(&args),
    };
    match done {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            std::iter::once("e2e")
                .chain(line.split_whitespace())
                .map(String::from),
        )
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse("--workload strided_rw --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.unwrap().name, "strided_rw");
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, Some(true)));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = json_line(&Outcome {
            metrics: vec![Measured {
                name: "run_s",
                unit: "s",
                value: 1.25,
                per_rep: vec![],
                samples: 1,
            }],
            attempted: 10,
            failed: 0,
        });
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"run_s": {"value": 1.25, "unit": "s"}}}"#
        );
    }
}
