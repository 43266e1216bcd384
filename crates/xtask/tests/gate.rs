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
        "crates/argolite/src/sync.rs",
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
