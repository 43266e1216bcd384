//! CLI entry point:
//! `cargo run -p xtask -- <lint|check-deps|report|json-check>`.

use std::io::Read as _;
use std::process::ExitCode;

use xtask::{combined_json, json, report_json, run_check_deps, run_lint, workspace_root};

const USAGE: &str = "\
usage: cargo run -p xtask -- <command> [--json]
       cargo run -p xtask -- lint [--allow-stale] [--json]
       cargo run -p xtask -- json-check [file]

commands:
  lint         enforce the correctness-gate rule set over all .rs files;
               also fails on stale waivers (escapes that suppress
               nothing) unless --allow-stale
  check-deps   enforce workspace-internal-only dependencies
  report       run both checks, print one combined JSON document with
               per-rule fired/suppressed counts
  json-check   parse stdin (or a file) as JSON with the in-tree parser;
               exit non-zero on malformed input

flags:
  --json        print only the machine-readable JSON summary
  --allow-stale tolerate stale waivers (lint only)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_only = args.iter().any(|a| a == "--json");
    let allow_stale = args.iter().any(|a| a == "--allow-stale");
    let command = args.iter().find(|a| !a.starts_with("--"));
    let root = workspace_root();

    match command.map(String::as_str) {
        Some("lint") => {
            let report = run_lint(&root);
            if json_only {
                println!("{}", report_json("lint", &report));
            } else {
                for v in &report.violations {
                    println!("{v}");
                }
                for s in &report.stale_waivers {
                    println!("{s}");
                }
                println!(
                    "lint: {} violation(s), {} stale waiver(s) across {} file(s) scanned",
                    report.violations.len(),
                    report.stale_waivers.len(),
                    report.files_scanned
                );
                println!("{}", report_json("lint", &report));
            }
            exit_for(report.clean(allow_stale))
        }
        Some("check-deps") => {
            let report = run_check_deps(&root);
            if json_only {
                println!("{}", report_json("check-deps", &report));
            } else {
                for v in &report.violations {
                    println!("{v}");
                }
                println!(
                    "check-deps: {} violation(s) across {} manifest(s)",
                    report.violations.len(),
                    report.files_scanned
                );
                println!("{}", report_json("check-deps", &report));
            }
            exit_for(report.violations.is_empty())
        }
        Some("report") => {
            let lint = run_lint(&root);
            let deps = run_check_deps(&root);
            println!("{}", combined_json(&lint, &deps));
            exit_for(lint.clean(allow_stale) && deps.violations.is_empty())
        }
        Some("json-check") => {
            let positional: Vec<&String> = args
                .iter()
                .filter(|a| !a.starts_with("--") && *a != "json-check")
                .collect();
            let text = match positional.as_slice() {
                [] => {
                    let mut buf = String::new();
                    if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                        eprintln!("json-check: cannot read stdin: {e}");
                        return ExitCode::FAILURE;
                    }
                    buf
                }
                [path] => match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("json-check: cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                _ => {
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            };
            match json::parse(&text) {
                Ok(_) => {
                    println!("json-check: OK ({} bytes)", text.len());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("json-check: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn exit_for(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
