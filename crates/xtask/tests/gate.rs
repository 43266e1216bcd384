//! The gate itself, applied to this repository: the final tree must be
//! lint-clean and dependency-clean, and the walker must actually be
//! seeing the workspace (not silently scanning an empty directory).

use xtask::{run_check_deps, run_lint, source_files, workspace_root};

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let report = run_lint(&root);
    let rendered: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
    assert!(
        report.violations.is_empty(),
        "lint violations in the tree:\n{}",
        rendered.join("\n")
    );
    let stale: Vec<String> = report.stale_waivers.iter().map(ToString::to_string).collect();
    assert!(
        report.stale_waivers.is_empty(),
        "stale waivers in the tree (delete them or fix the code they excused):\n{}",
        stale.join("\n")
    );
}

#[test]
fn workspace_deps_are_internal_only() {
    let root = workspace_root();
    let report = run_check_deps(&root);
    let rendered: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
    assert!(
        report.violations.is_empty(),
        "external dependencies in manifests:\n{}",
        rendered.join("\n")
    );
    // Root + 11 crates.
    assert!(report.files_scanned >= 12, "scanned {}", report.files_scanned);
}

#[test]
fn walker_sees_the_whole_workspace() {
    let root = workspace_root();
    let files = source_files(&root);
    // The rule scopes must all be represented in the walked set.
    for marker in [
        "crates/desim/src/",
        "crates/mpisim/src/",
        "crates/platform/src/",
        "crates/h5lite/src/",
        "crates/asyncvol/src/",
        "crates/core/src/",
        "crates/argolite/src/lock_order.rs",
        "src/lib.rs",
    ] {
        assert!(
            files.iter().any(|f| f.starts_with(marker)),
            "walker missed {marker}; saw {} files",
            files.len()
        );
    }
    assert!(files.len() >= 60, "suspiciously few files: {}", files.len());
}

/// Seven invariants this gate once checked itself are held by rustc and
/// clippy instead (DESIGN.md §7). Deleting any piece of that
/// configuration fails here, not silently.
#[test]
fn retired_rules_are_held_by_compiler_config() {
    let root = workspace_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let bans: [(&[&str], &[&str]); 2] = [
        // virtual-time: the simulator crates ban the wall clock.
        (
            &["desim", "mpisim", "platform"],
            &[
                "disallowed-methods",
                "\"std::time::Instant::now\"",
                "\"std::time::SystemTime::now\"",
                "\"std::thread::sleep\"",
                "disallowed-types",
                "\"std::time::Instant\"",
                "\"std::time::SystemTime\"",
            ],
        ),
        // lock-discipline: every lock is h5lite::sync's, so raw std locks
        // are banned in these crates.
        (
            &["argolite", "asyncvol"],
            &[
                "disallowed-types",
                "\"std::sync::Mutex\"",
                "\"std::sync::RwLock\"",
                "\"std::sync::Condvar\"",
            ],
        ),
    ];
    for (crates, paths) in bans {
        for krate in crates {
            let toml = read(&format!("crates/{krate}/clippy.toml"));
            for path in paths {
                assert!(
                    toml.contains(path),
                    "crates/{krate}/clippy.toml lost {path}"
                );
            }
        }
    }
    // error-path: library code of the I/O stack cannot panic.
    let deny =
        "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]";
    for krate in ["h5lite", "asyncvol", "core"] {
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        assert!(
            lib.lines().any(|l| l.trim() == deny),
            "crates/{krate}/src/lib.rs lost its panic-family deny"
        );
    }
    // swallowed-result: the I/O stack cannot discard a must-use value.
    let deny =
        "#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]";
    for krate in ["h5lite", "asyncvol"] {
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        assert!(
            lib.lines().any(|l| l.trim() == deny),
            "crates/{krate}/src/lib.rs lost its discarded-Result deny"
        );
    }
    // no-dbg-todo: the workspace table denies the debugging macros.
    let manifest = read("Cargo.toml");
    let clippy = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .and_then(|t| t.split("\n[").next())
        .expect("Cargo.toml has [workspace.lints.clippy]");
    for lint in ["dbg_macro", "todo", "unimplemented"] {
        assert!(
            clippy
                .lines()
                .any(|l| l.replace(' ', "") == format!("{lint}=\"deny\"")),
            "[workspace.lints.clippy] no longer denies {lint}"
        );
    }
}
