//! The gate itself, applied to this repository: the final tree must be
//! lint-clean and dependency-clean, and the walker must actually be
//! seeing the workspace (not silently scanning an empty directory).

use xtask::{benchdiff, run_check_deps, run_lint, source_files, workspace_root};

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

#[test]
fn committed_bench_baseline_passes_the_diff_gate() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("BENCH_baseline.json")).unwrap_or_else(|e| {
        panic!("BENCH_baseline.json must be committed at the workspace root: {e}")
    });
    let baseline = benchdiff::parse_results(&text).unwrap();
    assert!(!baseline.is_empty());
    let report = benchdiff::diff(&baseline, &baseline, 1.25);
    assert!(
        report.ok(),
        "the committed baseline fails the diff gate against itself:\n{}",
        report.render_text()
    );
    assert_eq!(report.compared, baseline.len());
}

#[test]
fn committed_ring_bench_shows_depth_scaling() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("BENCH_ring.json")).unwrap_or_else(|e| {
        panic!("BENCH_ring.json must be committed at the workspace root: {e}")
    });
    let entries = benchdiff::parse_results(&text).unwrap();
    let secs = |name: String| -> f64 {
        entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} missing from BENCH_ring.json"))
            .secs_per_iter
    };
    // Small-op (≤ 64 KiB) throughput must rise monotonically with queue
    // depth at fixed thread count: the reaper coalesces a deeper ring
    // into fewer vectored ops, amortizing the device's per-op latency.
    // The 1 MiB row is bandwidth-bound by design and not asserted.
    for size in [4096u64, 65536] {
        let mut last = 0.0f64;
        for depth in [1u64, 4, 16, 64] {
            let t = (size * depth) as f64 / secs(format!("ring_depth/{size}B/d{depth}"));
            assert!(
                t > last,
                "ring_depth/{size}B: throughput not monotone at d{depth}: \
                 {t:.3e} B/s <= {last:.3e} B/s"
            );
            last = t;
        }
    }
}

#[test]
fn committed_ring_epoch_is_2x_over_the_baseline_async_epoch() {
    let root = workspace_root();
    let read = |name: &str| {
        std::fs::read_to_string(root.join(name))
            .unwrap_or_else(|e| panic!("{name} must be committed at the workspace root: {e}"))
    };
    let ring = benchdiff::parse_results(&read("BENCH_ring.json")).unwrap();
    let baseline = benchdiff::parse_results(&read("BENCH_baseline.json")).unwrap();
    let secs = |entries: &[benchdiff::BenchEntry], name: &str| -> f64 {
        entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .secs_per_iter
    };
    let ring_epoch = secs(&ring, "ring/epoch_async_64KiB");
    let base_epoch = secs(&baseline, "epoch/async");
    assert!(
        ring_epoch <= base_epoch / 2.0,
        "ring async epoch at 64 KiB ops ({ring_epoch:.3e} s) must be >= 2x over \
         the committed baseline epoch/async ({base_epoch:.3e} s)"
    );
    // And async must actually beat its own sync companion — the overlap
    // the ring exists to provide.
    let sync_epoch = secs(&ring, "ring/epoch_sync_64KiB");
    assert!(
        ring_epoch < sync_epoch,
        "ring async epoch ({ring_epoch:.3e} s) should beat sync ({sync_epoch:.3e} s)"
    );
}

#[test]
fn committed_multitenant_bench_meets_the_contention_bar() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("BENCH_multitenant.json")).unwrap_or_else(|e| {
        panic!("BENCH_multitenant.json must be committed at the workspace root: {e}")
    });
    // The timing entries must be benchdiff-parseable so ci.sh can run the
    // self-diff gate over the committed file.
    let entries = benchdiff::parse_results(&text).unwrap();
    for name in [
        "multitenant/sharded/aggregate_writer_op",
        "multitenant/single_lock/aggregate_writer_op",
        "multitenant/sharded/snapshot_reader_op",
    ] {
        assert!(
            entries.iter().any(|e| e.name == name),
            "{name} missing from BENCH_multitenant.json"
        );
    }
    let field = |key: &str| -> f64 {
        let tag = format!("\"{key}\":");
        let at = text
            .find(&tag)
            .unwrap_or_else(|| panic!("{key} missing from BENCH_multitenant.json"));
        let rest = text[at + tag.len()..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
            .unwrap_or(rest.len());
        rest[..end].parse().unwrap_or_else(|e| panic!("{key}: {e}"))
    };
    // 16 writers on disjoint datasets must aggregate ≥ 4x the throughput
    // of the emulated single-metadata-lock discipline (same workload,
    // same device model — the win is lock granularity alone).
    let speedup = field("aggregate_speedup_sharded_over_single_lock");
    assert!(speedup >= 4.0, "sharded speedup {speedup} < 4x over single-lock");
    // Steady-state writes are O(1) metadata-lock acquisitions: exactly one
    // shard read per op, with a hair of slack for counter granularity.
    let locks = field("sharded_meta_locks_per_writer_op");
    assert!(locks <= 1.05, "meta locks per writer op {locks} not O(1)");
    // Snapshot readers take the zero-lock path — exactly zero.
    let reader_locks = field("snapshot_reader_lock_acquisitions");
    assert_eq!(reader_locks, 0.0, "snapshot readers acquired metadata locks");
    // Per-shard balance: 16 tenants on 16 distinct shards means every
    // shard's read delta is identical — no hot lock.
    let list_tag = "\"sharded_shard_reads_delta\": [";
    let at = text.find(list_tag).expect("shard delta list missing");
    let rest = &text[at + list_tag.len()..];
    let deltas: Vec<u64> = rest[..rest.find(']').expect("unterminated shard delta list")]
        .split(',')
        .map(|s| s.trim().parse().expect("shard delta"))
        .collect();
    assert_eq!(deltas.len(), 16);
    assert!(
        deltas.iter().all(|&d| d == deltas[0] && d > 0),
        "shard read deltas unbalanced: {deltas:?}"
    );
}

#[test]
fn synthetic_regression_fails_the_diff_gate() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("BENCH_baseline.json")).unwrap();
    let baseline = benchdiff::parse_results(&text).unwrap();
    // A uniform 10x slowdown of the committed baseline must trip the gate
    // on every benchmark.
    let regressed: Vec<benchdiff::BenchEntry> = baseline
        .iter()
        .map(|e| benchdiff::BenchEntry {
            name: e.name.clone(),
            secs_per_iter: e.secs_per_iter * 10.0,
        })
        .collect();
    let report = benchdiff::diff(&regressed, &baseline, 1.25);
    assert!(!report.ok());
    assert_eq!(report.regressions.len(), baseline.len());
}
