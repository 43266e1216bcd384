#![warn(missing_docs)]
//! # xtask — the workspace correctness gate
//!
//! A zero-dependency static-analysis driver run as
//! `cargo run -p xtask -- <command>`:
//!
//! - **`lint`** — walk every workspace `.rs` file and enforce the
//!   deny-by-default rule set in [`rules`]: nine line-local token
//!   rules (virtual-time purity, error-path discipline, lock
//!   discipline, `#[must_use]` coverage, no debug/placeholder macros,
//!   bounded retries, planned I/O, trace discipline, superblock
//!   discipline) plus four
//!   dataflow rules ([`dataflow`]) for guard liveness across
//!   scheduling boundaries, blocking calls in task closures, checked
//!   offset arithmetic, and swallowed `Result`s. Prints
//!   `file:line: [rule] message` per violation and a machine-readable
//!   JSON summary; exits non-zero on any violation **or any stale
//!   waiver** (escape: `--allow-stale`).
//! - **`check-deps`** — enforce that every manifest dependency is
//!   workspace-internal (see [`deps`]); the build must work offline.
//! - **`report`** — run both and print one combined JSON document with
//!   per-rule fired/suppressed counts.
//! - **`json-check`** — validate that stdin (or a file) parses as JSON
//!   with the in-tree parser ([`json`]); CI uses it to assert the
//!   gate's own output stays machine-readable.
//!
//! Escapes are auditable: inline `// xtask: allow(rule)` markers or
//! path-prefix entries in the root `xtask.allow` file. Both are
//! use-checked — a waiver that suppresses nothing is reported stale so
//! dead escapes cannot rot silently.

pub mod dataflow;
pub mod deps;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rules::{InlineWaiver, Violation};

/// Locate the workspace root from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Workspace-relative paths of every `.rs` file under version-controlled
/// source directories. Skips `target/`, hidden directories, and
/// `fixtures/` trees — the lint corpus under
/// `crates/xtask/tests/fixtures/` contains deliberately-firing snippets
/// that must never count against the workspace itself.
pub fn source_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    files.sort();
    files
}

/// Workspace-relative paths of every `Cargo.toml`.
pub fn manifest_files(root: &Path) -> Vec<String> {
    let mut files = vec!["Cargo.toml".to_owned()];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let m = entry.path().join("Cargo.toml");
            if m.is_file() {
                if let Ok(rel) = m.strip_prefix(root) {
                    files.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    files.sort();
    files
}

/// A stale waiver: an escape that suppressed nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StaleWaiver {
    /// An inline `// xtask: allow(rule)` marker that matched no
    /// violation on its line.
    Inline(InlineWaiver),
    /// An `xtask.allow` entry (`rule path-prefix`) that waived nothing.
    Allowlist {
        /// Rule name (or `*`).
        rule: String,
        /// Path prefix.
        path_prefix: String,
    },
}

impl std::fmt::Display for StaleWaiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaleWaiver::Inline(w) => write!(
                f,
                "{}:{}: stale inline waiver for [{}] — it suppresses nothing; delete it",
                w.file, w.line, w.rule
            ),
            StaleWaiver::Allowlist { rule, path_prefix } => write!(
                f,
                "xtask.allow: stale entry `{rule} {path_prefix}` — it waives nothing; delete it"
            ),
        }
    }
}

/// Outcome of a lint or check-deps run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that survived inline waivers and the allowlist.
    pub violations: Vec<Violation>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// Per-rule count of surviving violations.
    pub fired: BTreeMap<String, usize>,
    /// Per-rule count of waived violations (inline + allowlist).
    pub suppressed: BTreeMap<String, usize>,
    /// Waivers that suppressed nothing (lint only).
    pub stale_waivers: Vec<StaleWaiver>,
}

impl Report {
    /// Whether the gate passes: no violations and no stale waivers
    /// (unless `allow_stale`).
    pub fn clean(&self, allow_stale: bool) -> bool {
        self.violations.is_empty() && (allow_stale || self.stale_waivers.is_empty())
    }
}

/// Run the lint rule set over the workspace at `root`, with the full
/// waiver audit.
pub fn run_lint(root: &Path) -> Report {
    let allow = std::fs::read_to_string(root.join("xtask.allow"))
        .map(|t| rules::parse_allowlist(&t))
        .unwrap_or_default();
    let files = source_files(root);
    let mut violations = Vec::new();
    let mut suppressed_v: Vec<Violation> = Vec::new();
    let mut waivers: Vec<InlineWaiver> = Vec::new();
    for rel in &files {
        if let Ok(src) = std::fs::read_to_string(root.join(rel)) {
            let lint = rules::lint_source_full(rel, &src);
            violations.extend(lint.violations);
            suppressed_v.extend(lint.suppressed);
            waivers.extend(lint.waivers);
        }
    }
    let (violations, hits) = rules::apply_allowlist_tracked(violations, &allow);

    let mut fired = BTreeMap::new();
    for v in &violations {
        *fired.entry(v.rule.to_owned()).or_insert(0) += 1;
    }
    let mut suppressed = BTreeMap::new();
    for v in &suppressed_v {
        *suppressed.entry(v.rule.to_owned()).or_insert(0) += 1;
    }
    // Allowlist-suppressed counts fold into the same per-rule map. An
    // entry's hit count is attributed to its own rule name (`*` stays
    // `*` — it has no single rule).
    for (entry, n) in allow.iter().zip(&hits) {
        if *n > 0 {
            *suppressed.entry(entry.rule.clone()).or_insert(0) += n;
        }
    }

    let mut stale_waivers: Vec<StaleWaiver> = waivers
        .into_iter()
        .filter(|w| !w.used)
        .map(StaleWaiver::Inline)
        .collect();
    for (entry, n) in allow.iter().zip(&hits) {
        if *n == 0 {
            stale_waivers.push(StaleWaiver::Allowlist {
                rule: entry.rule.clone(),
                path_prefix: entry.path_prefix.clone(),
            });
        }
    }

    Report {
        violations,
        files_scanned: files.len(),
        fired,
        suppressed,
        stale_waivers,
    }
}

/// Run the dependency policy over every manifest at `root`.
pub fn run_check_deps(root: &Path) -> Report {
    let files = manifest_files(root);
    let mut violations = Vec::new();
    for rel in &files {
        if let Ok(text) = std::fs::read_to_string(root.join(rel)) {
            violations.extend(deps::check_manifest(rel, &text));
        }
    }
    let mut fired = BTreeMap::new();
    for v in &violations {
        *fired.entry(v.rule.to_owned()).or_insert(0) += 1;
    }
    Report {
        violations,
        files_scanned: files.len(),
        fired,
        ..Report::default()
    }
}

/// Minimal JSON string escaping.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn rule_stats_json(report: &Report) -> String {
    // One entry per known rule (stable inventory for drift tests), plus
    // any extra keys that appear (e.g. `*` allowlist entries).
    let mut keys: Vec<&str> = rules::RULE_NAMES.to_vec();
    for k in report.fired.keys().chain(report.suppressed.keys()) {
        if !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    let items: Vec<String> = keys
        .iter()
        .map(|k| {
            format!(
                "\"{}\":{{\"fired\":{},\"suppressed\":{}}}",
                json_escape(k),
                report.fired.get(*k).copied().unwrap_or(0),
                report.suppressed.get(*k).copied().unwrap_or(0)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn stale_json(report: &Report) -> String {
    let items: Vec<String> = report
        .stale_waivers
        .iter()
        .map(|s| match s {
            StaleWaiver::Inline(w) => format!(
                "{{\"kind\":\"inline\",\"file\":\"{}\",\"line\":{},\"rule\":\"{}\"}}",
                json_escape(&w.file),
                w.line,
                json_escape(&w.rule)
            ),
            StaleWaiver::Allowlist { rule, path_prefix } => format!(
                "{{\"kind\":\"allowlist\",\"rule\":\"{}\",\"path_prefix\":\"{}\"}}",
                json_escape(rule),
                json_escape(path_prefix)
            ),
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Render one report section as a JSON object.
pub fn report_json(name: &str, report: &Report) -> String {
    let items: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&v.file),
                v.line,
                json_escape(v.rule),
                json_escape(&v.message)
            )
        })
        .collect();
    format!(
        "{{\"check\":\"{}\",\"files_scanned\":{},\"violation_count\":{},\"violations\":[{}],\"rule_stats\":{},\"stale_waiver_count\":{},\"stale_waivers\":{}}}",
        json_escape(name),
        report.files_scanned,
        report.violations.len(),
        items.join(","),
        rule_stats_json(report),
        report.stale_waivers.len(),
        stale_json(report)
    )
}

/// Render the combined `report` document (lint + deps + rule inventory).
pub fn combined_json(lint: &Report, deps_report: &Report) -> String {
    let rules: Vec<String> = rules::RULE_NAMES
        .iter()
        .map(|r| format!("\"{r}\""))
        .collect();
    format!(
        "{{\"rules\":[{}],\"lint\":{},\"check_deps\":{},\"ok\":{}}}",
        rules.join(","),
        report_json("lint", lint),
        report_json("check-deps", deps_report),
        lint.clean(false) && deps_report.violations.is_empty()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn report_json_shape_parses_and_counts() {
        let mut fired = BTreeMap::new();
        fired.insert("error-path".to_owned(), 1usize);
        let r = Report {
            violations: vec![Violation {
                file: "a.rs".into(),
                line: 3,
                rule: "error-path",
                message: "msg".into(),
            }],
            files_scanned: 7,
            fired,
            ..Report::default()
        };
        let j = report_json("lint", &r);
        assert!(j.contains("\"files_scanned\":7"));
        assert!(j.contains("\"violation_count\":1"));
        assert!(j.contains("\"rule\":\"error-path\""));
        let v = json::parse(&j).expect("report JSON must parse");
        let stats = v.get("rule_stats").unwrap();
        assert_eq!(
            stats.get("error-path").unwrap().get("fired").unwrap().as_num(),
            Some(1.0)
        );
        // Every rule in the inventory appears in the stats.
        for rule in rules::RULE_NAMES {
            assert!(stats.get(rule).is_some(), "missing stats for {rule}");
        }
    }

    #[test]
    fn stale_waivers_fail_the_gate_unless_allowed() {
        let r = Report {
            stale_waivers: vec![StaleWaiver::Allowlist {
                rule: "error-path".into(),
                path_prefix: "crates/x/".into(),
            }],
            ..Report::default()
        };
        assert!(!r.clean(false));
        assert!(r.clean(true));
        assert!(r.stale_waivers[0].to_string().contains("stale entry"));
        let j = report_json("lint", &r);
        assert!(json::parse(&j).is_ok());
        assert!(j.contains("\"stale_waiver_count\":1"));
    }

    #[test]
    fn workspace_root_has_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn source_walker_skips_fixture_corpora() {
        let files = source_files(&workspace_root());
        assert!(
            !files.iter().any(|f| f.contains("/fixtures/")),
            "fixture snippets must not be linted as workspace code"
        );
    }
}
