//! The correctness-gate rule set, hosted on the token engine.
//!
//! Every rule is deny-by-default and scoped to the layer whose invariant
//! it protects:
//!
//! | rule            | scope                                   | protects |
//! |-----------------|-----------------------------------------|----------|
//! | `must-use`      | argolite, h5lite, asyncvol `src/`       | futures/handles/guards cannot be silently dropped |
//! | `bounded-retry` | h5lite, asyncvol `src/`                 | retry loops carry both an attempt bound and a deadline |
//! | `planned-io`    | h5lite `container.rs` + `integrity.rs`, asyncvol `lib.rs` | data-path I/O goes through the planner's vectored batches or the ring, not scalar per-run calls |
//! | `superblock-discipline` | h5lite `src/` except `superblock.rs` | the superblock area (offset 0) is written only through the dual-slot commit protocol |
//! | `guard-across-boundary` | argolite, asyncvol, h5lite `src/` | no lock guard is live across `submit`/`wait`/`block_on`/channel-recv (dataflow pass) |
//! | `blocking-in-task` | argolite, asyncvol, h5lite `src/`    | no `std::fs`/`std::net`/`thread::sleep` inside closures handed to a ring job, completion hook, thread or explorer task |
//! | `checked-offset-arith` | h5lite `storage.rs`, `container.rs` + `integrity.rs`, `plan.rs` | device offsets/addresses use `checked_*`/`saturating_*`, never raw `+`/`*` |
//!
//! Four of the rules are token patterns; the other three ride the
//! intra-procedural dataflow passes in [`crate::dataflow`]. One lex of
//! the file (see [`crate::lexer`]) feeds them all, which makes every
//! rule comment-, string-, and lifetime-aware for free; the same tokens
//! give the `#[cfg(test)]` regions the rules skip, and the same lex's
//! comment list gives the waiver markers.
//!
//! Only invariants no compiler table can express live here. The wall
//! clock in the simulator crates and raw `std::sync` locks in argolite
//! and asyncvol are clippy's (`disallowed-*` in each crate's
//! `clippy.toml`), panics in library code, discarded `Result`s in
//! h5lite and asyncvol, and `dbg!`/`todo!` too (the `lib.rs` `deny`s
//! and `[workspace.lints.clippy]`), and the metadata plane's locks are
//! private to `h5lite::meta` (DESIGN.md §7).
//!
//! Escapes are explicit and auditable: an inline `// xtask: allow(rule)`
//! on the offending line, or a path entry in the root `xtask.allow`
//! file. Both are themselves audited — a waiver that suppresses nothing
//! is *stale* and fails the gate (see [`crate::run_lint`]).

use std::ops::RangeInclusive;

use crate::dataflow;
use crate::lexer::{lex, match_delim, Delim, Lexed, Token, TokenKind};

/// One rule violation at a specific source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (kebab-case).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Names of all rules, for reports and the fixture corpus.
pub const RULE_NAMES: [&str; 7] = [
    "must-use",
    "bounded-retry",
    "planned-io",
    "superblock-discipline",
    "guard-across-boundary",
    "blocking-in-task",
    "checked-offset-arith",
];

/// Crates whose handle/guard types must be `#[must_use]`.
const MUST_USE_CRATES: [&str; 3] = ["crates/argolite/", "crates/h5lite/", "crates/asyncvol/"];
/// Crates whose retry loops must be bounded (attempts + deadline).
const BOUNDED_RETRY_CRATES: [&str; 2] = ["crates/h5lite/", "crates/asyncvol/"];
/// Files whose data paths must issue I/O through the planner's vectored
/// batches or the ring. Scalar `write_at`/`read_at` here is a regression
/// back to per-run request storms; metadata paths carry inline waivers.
/// In the container every data path is planned; in the connector every
/// background write is a ring entry (`Ring::submit_keyed`, coalesced by
/// the reaper) or goes through the container's planned path. The WAL
/// staging module is out of scope — its scalar device I/O is the log's
/// own format.
const PLANNED_IO_FILES: [&str; 3] = [
    "crates/h5lite/src/container.rs",
    "crates/h5lite/src/integrity.rs",
    "crates/asyncvol/src/lib.rs",
];
/// Type names (beyond the `*Guard` convention) that must be `#[must_use]`.
const MUST_USE_TYPES: [&str; 3] = [
    "Promise",
    "Request",
    "ReadRequest",
];
/// Crates whose `src/` runs on background threads (ring reapers and
/// their jobs): guard liveness and blocking-call discipline apply.
const SCHEDULED_CRATES: [&str; 3] = ["crates/argolite/", "crates/asyncvol/", "crates/h5lite/"];
/// Files carrying device-address arithmetic.
const OFFSET_ARITH_FILES: [&str; 4] = [
    "crates/h5lite/src/storage.rs",
    "crates/h5lite/src/container.rs",
    "crates/h5lite/src/integrity.rs",
    "crates/h5lite/src/plan.rs",
];
/// The one module allowed to write the superblock area (offset 0): the
/// dual-slot commit protocol. A raw offset-0 write anywhere else in the
/// container crate can tear the anchor every reopen depends on.
const SUPERBLOCK_MODULE: &str = "crates/h5lite/src/superblock.rs";

fn in_src(rel: &str, crates: &[&str]) -> bool {
    crates
        .iter()
        .any(|c| rel.starts_with(c) && rel[c.len()..].starts_with("src/"))
}

/// The rule named by an `xtask: allow(rule)` marker in the text of a
/// plain line comment, if it names a known rule. The lexer records only
/// plain `//` comments, so a string literal or doc text that mentions
/// the syntax never reaches here.
fn marker_rule(comment: &str) -> Option<&str> {
    let after = &comment[comment.find("xtask: allow(")? + "xtask: allow(".len()..];
    let rule = &after[..after.find(')')?];
    RULE_NAMES.contains(&rule).then_some(rule)
}

/// Line spans of the `#[cfg(test)]` items in `tokens`: from the
/// attribute through the item's first `;`, or through the `}` that
/// closes its body, whichever comes first. Parenthesised and bracketed
/// groups (further attributes, array types) are stepped over whole, so
/// the `;` in `[u8; 4]` does not end the item. An item cut off by the
/// end of the file runs to its last line.
fn test_regions(tokens: &[Token]) -> Vec<RangeInclusive<usize>> {
    const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let last_line = tokens.last().map_or(0, |t| t.line);
    let mut regions = Vec::new();
    for k in 0..tokens.len() {
        let is_attr = ATTR
            .iter()
            .enumerate()
            .all(|(j, p)| tokens.get(k + j).is_some_and(|t| t.text == *p));
        if !is_attr {
            continue;
        }
        let mut end = None;
        let mut j = k + ATTR.len();
        while let Some(t) = tokens.get(j) {
            match t.kind {
                TokenKind::Open(Delim::Brace) => {
                    end = match_delim(tokens, j);
                    break;
                }
                TokenKind::Open(_) => match match_delim(tokens, j) {
                    Some(close) => j = close,
                    None => break,
                },
                TokenKind::Punct if t.text == ";" => {
                    end = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        regions.push(tokens[k].line..=end.map_or(last_line, |e| tokens[e].line));
    }
    regions
}

/// An inline `// xtask: allow(rule)` marker found in a file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InlineWaiver {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line the marker sits on.
    pub line: usize,
    /// The waived rule.
    pub rule: String,
    /// Whether the marker suppressed at least one violation.
    pub used: bool,
}

/// Full lint outcome for one file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Violations that survived inline waivers (allowlist not applied).
    pub violations: Vec<Violation>,
    /// Violations suppressed by an inline waiver.
    pub suppressed: Vec<Violation>,
    /// Every inline waiver in the file, with usage.
    pub waivers: Vec<InlineWaiver>,
}

/// Lint one source file (workspace-relative `rel` path, full contents),
/// keeping the audit trail: suppressed violations and waiver usage.
pub fn lint_source_full(rel: &str, src: &str) -> FileLint {
    let rel_slash = rel.replace('\\', "/");
    let rel = rel_slash.as_str();
    let Lexed { tokens, comments } = lex(src);
    let regions = test_regions(&tokens);
    let in_test = |line: usize| regions.iter().any(|r| r.contains(&line));
    // Waiver markers outside test code; a line holds at most one `//`
    // comment, so at most one marker.
    let markers: Vec<(usize, &str)> = comments
        .iter()
        .filter(|c| !in_test(c.line))
        .filter_map(|c| Some((c.line, marker_rule(&c.text)?)))
        .collect();

    let mut cands: Vec<Violation> = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        cands.push(Violation {
            file: rel.to_owned(),
            line,
            rule,
            message,
        });
    };

    let must_use = in_src(rel, &MUST_USE_CRATES);
    let bounded_retry = in_src(rel, &BOUNDED_RETRY_CRATES);
    let planned_io = PLANNED_IO_FILES.contains(&rel);
    let scheduled = in_src(rel, &SCHEDULED_CRATES);
    let offset_arith = OFFSET_ARITH_FILES.contains(&rel);
    let superblock = in_src(rel, &["crates/h5lite/"]) && rel != SUPERBLOCK_MODULE;

    // Whole-file evidence for `bounded-retry`: a retry decision
    // (`is_retryable`) in non-test code is only legal when the same file
    // visibly carries an attempt bound and a deadline.
    let has_attempt_bound = bounded_retry
        && tokens.iter().any(|t| {
            t.kind == TokenKind::Ident && t.text.starts_with("attempt") && !in_test(t.line)
                || t.is_ident("max_attempts") && !in_test(t.line)
        });
    let has_deadline = bounded_retry
        && tokens.iter().any(|t| {
            t.kind == TokenKind::Ident && t.text.starts_with("deadline") && !in_test(t.line)
        });

    // --- Line-local token patterns. ---
    for (k, t) in tokens.iter().enumerate() {
        let line = t.line;
        let at =
            |j: usize, text: &str| tokens.get(k + j).is_some_and(|t| t.text == text);
        let seq = |pat: &[&str]| pat.iter().enumerate().all(|(j, p)| at(j, p));

        if bounded_retry
            && t.is_ident("is_retryable")
            && !(k > 0 && tokens[k - 1].is_ident("fn"))
            && !(has_attempt_bound && has_deadline)
        {
            let missing = if has_attempt_bound {
                "a deadline"
            } else if has_deadline {
                "an attempt bound"
            } else {
                "an attempt bound and a deadline"
            };
            push(
                line,
                "bounded-retry",
                format!("retry decision (`is_retryable`) without {missing} in scope; bound the loop with `max_attempts` and a `deadline` (see `asyncvol::retry`)"),
            );
        }

        if planned_io {
            for name in ["write_at", "read_at"] {
                if seq(&[".", name, "("]) {
                    push(
                        line,
                        "planned-io",
                        format!("scalar `.{name}(..)` on a data path; route it through `plan_io` + `write_vectored_at`/`read_vectored_at` or the ring (`submit_keyed`) so requests coalesce (metadata paths may waive inline)"),
                    );
                }
            }
        }

        if superblock && seq(&[".", "write_at", "(", "0", ","]) {
            push(
                line,
                "superblock-discipline",
                "raw write to the superblock area (offset 0); commit through `superblock::commit` so the dual-slot protocol keeps one valid anchor at all times".to_owned(),
            );
        }
    }

    if must_use {
        lint_must_use(rel, &tokens, &mut cands);
    }

    // --- Dataflow rules. ---
    if scheduled {
        for f in dataflow::guard_across_boundary(&tokens) {
            cands.push(Violation {
                file: rel.to_owned(),
                line: f.line,
                rule: "guard-across-boundary",
                message: f.message,
            });
        }
        for f in dataflow::blocking_in_task(&tokens) {
            cands.push(Violation {
                file: rel.to_owned(),
                line: f.line,
                rule: "blocking-in-task",
                message: f.message,
            });
        }
    }
    if offset_arith {
        for f in dataflow::unchecked_offset_arith(&tokens) {
            cands.push(Violation {
                file: rel.to_owned(),
                line: f.line,
                rule: "checked-offset-arith",
                message: f.message,
            });
        }
    }

    // --- Test filtering, inline waivers, waiver audit. ---
    let mut out = FileLint::default();
    for v in cands {
        if in_test(v.line) {
            continue;
        }
        if markers.contains(&(v.line, v.rule)) {
            out.suppressed.push(v);
        } else {
            out.violations.push(v);
        }
    }
    for &(line, rule) in &markers {
        let used = out
            .suppressed
            .iter()
            .any(|s| s.line == line && s.rule == rule);
        out.waivers.push(InlineWaiver {
            file: rel.to_owned(),
            line,
            rule: rule.to_owned(),
            used,
        });
    }
    out.violations.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Lint one source file; violations after inline waivers.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    lint_source_full(rel, src).violations
}

/// `#[must_use]` check on the token stream: a `pub struct` whose name is
/// in [`MUST_USE_TYPES`] or ends in `Guard` must carry the attribute in
/// the attribute block directly above it. Doc comments never interrupt
/// the block — the lexer dropped them.
fn lint_must_use(rel: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for k in 0..tokens.len() {
        if !tokens[k].is_ident("pub")
            || !tokens.get(k + 1).is_some_and(|t| t.is_ident("struct"))
        {
            continue;
        }
        let Some(name_tok) = tokens.get(k + 2).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        let name = name_tok.text.as_str();
        if !(MUST_USE_TYPES.contains(&name) || name.ends_with("Guard")) {
            continue;
        }
        // Walk the contiguous `#[...]` attribute blocks above `pub`.
        let mut j = k;
        let mut marked = false;
        while j >= 1 {
            let prev = &tokens[j - 1];
            if prev.kind != TokenKind::Close(crate::lexer::Delim::Bracket) {
                break;
            }
            // Find the matching `[` backwards.
            let mut depth = 0i64;
            let mut open = j - 1;
            loop {
                match tokens[open].kind {
                    TokenKind::Close(crate::lexer::Delim::Bracket) => depth += 1,
                    TokenKind::Open(crate::lexer::Delim::Bracket) => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if open == 0 {
                    break;
                }
                open -= 1;
            }
            if open == 0 || !tokens[open - 1].is_punct("#") {
                break;
            }
            if tokens[open..j].iter().any(|t| t.is_ident("must_use")) {
                marked = true;
                break;
            }
            j = open - 1;
        }
        if !marked {
            out.push(Violation {
                file: rel.to_owned(),
                line: name_tok.line,
                rule: "must-use",
                message: format!(
                    "`pub struct {name}` is a handle/guard type and must be `#[must_use]` so dropped results are a compile error"
                ),
            });
        }
    }
}

/// Allowlist entry: `rule path-prefix` (or `* path-prefix`), `#` comments.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Rule name, or `*` for any rule.
    pub rule: String,
    /// Workspace-relative path prefix the waiver covers.
    pub path_prefix: String,
}

/// Parse the root `xtask.allow` file.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let rule = parts.next()?.to_owned();
            let path_prefix = parts.next()?.to_owned();
            Some(AllowEntry { rule, path_prefix })
        })
        .collect()
}

/// Drop violations waived by the allowlist, also reporting how many
/// violations each entry suppressed (index-aligned with `allow`) — the
/// stale-waiver audit's input.
pub fn apply_allowlist_tracked(
    violations: Vec<Violation>,
    allow: &[AllowEntry],
) -> (Vec<Violation>, Vec<usize>) {
    let mut hits = vec![0usize; allow.len()];
    let kept = violations
        .into_iter()
        .filter(|v| {
            let mut waived = false;
            for (i, a) in allow.iter().enumerate() {
                if (a.rule == "*" || a.rule == v.rule) && v.file.starts_with(&a.path_prefix) {
                    hits[i] += 1;
                    waived = true;
                }
            }
            !waived
        })
        .collect();
    (kept, hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(rel: &str, src: &str) -> Vec<&'static str> {
        let mut r: Vec<&'static str> = lint_source(rel, src).into_iter().map(|v| v.rule).collect();
        r.dedup();
        r
    }

    #[test]
    fn must_use_fires_on_unmarked_handle_types() {
        let bad = "pub struct Promise<T> {\n    x: T,\n}\n";
        assert_eq!(rules_fired("crates/h5lite/src/promise.rs", bad), ["must-use"]);
        let bad_guard = "pub struct FlushGuard<'a> {\n    x: &'a u32,\n}\n";
        assert_eq!(rules_fired("crates/h5lite/src/x.rs", bad_guard), ["must-use"]);
    }

    #[test]
    fn must_use_satisfied_by_attribute() {
        let ok = "/// Doc.\n#[must_use = \"reason\"]\npub struct Promise<T> {\n    x: T,\n}\n";
        assert!(lint_source("crates/h5lite/src/promise.rs", ok).is_empty());
        let ok2 = "#[derive(Debug)]\n#[must_use]\npub struct IoGuard;\n";
        assert!(lint_source("crates/asyncvol/src/lib.rs", ok2).is_empty());
        // Attribute blocks stack in either order.
        let ok3 = "#[must_use]\n#[derive(Debug)]\npub struct IoGuard;\n";
        assert!(lint_source("crates/asyncvol/src/lib.rs", ok3).is_empty());
    }

    #[test]
    fn must_use_ignores_other_types() {
        let ok = "pub struct Ring {\n    x: u32,\n}\n";
        assert!(lint_source("crates/h5lite/src/ring.rs", ok).is_empty());
    }

    #[test]
    fn bounded_retry_fires_on_unbounded_retry_loop() {
        let bad = "fn f() { while e.is_retryable() { e = op().unwrap_err(); } }\n";
        assert!(rules_fired("crates/asyncvol/src/retry.rs", bad).contains(&"bounded-retry"));
        // Half a bound is still unbounded.
        let half = "fn f(attempt: u32) { while e.is_retryable() && attempt < 5 { op(); } }\n";
        let fired = lint_source("crates/asyncvol/src/retry.rs", half);
        assert!(fired.iter().any(|v| v.rule == "bounded-retry"
            && v.message.contains("a deadline")));
    }

    #[test]
    fn bounded_retry_satisfied_by_attempt_bound_and_deadline() {
        let ok = "\
fn f(policy: &RetryPolicy, started: SimInstant) {
    let mut attempt = 1;
    while e.is_retryable()
        && attempt < policy.max_attempts
        && started.elapsed() < policy.deadline
    {
        attempt += 1;
    }
}
";
        assert!(lint_source("crates/asyncvol/src/retry.rs", ok).is_empty());
    }

    #[test]
    fn bounded_retry_ignores_the_taxonomy_definition_and_other_crates() {
        let def = "impl H5Error {\n    pub fn is_retryable(&self) -> bool {\n        true\n    }\n}\n";
        assert!(lint_source("crates/h5lite/src/error.rs", def).is_empty());
        let elsewhere = "fn f() { while e.is_retryable() { op(); } }\n";
        assert!(lint_source("crates/core/src/lib.rs", elsewhere).is_empty());
        assert!(lint_source("crates/asyncvol/tests/x.rs", elsewhere).is_empty());
    }

    #[test]
    fn planned_io_fires_on_scalar_data_path_calls() {
        let bad = "fn f(&self) { self.backend.write_at(addr, &bytes)?; }\n";
        assert!(rules_fired("crates/h5lite/src/container.rs", bad)
            .contains(&"planned-io"));
        let bad_read = "fn g(&self) { backend.read_at(0, &mut sb)?; }\n";
        assert!(rules_fired("crates/h5lite/src/container.rs", bad_read)
            .contains(&"planned-io"));
    }

    #[test]
    fn planned_io_covers_the_connector_background_path() {
        // Connector writes reach storage as ring entries or through the
        // container's planned path; a scalar backend call is neither.
        let bad = "fn f(&self) { self.backend.write_at(extent.addr, bytes) }\n";
        assert_eq!(rules_fired("crates/asyncvol/src/lib.rs", bad), ["planned-io"]);
        let bad_read = "fn g(&self) { self.backend.read_at(extent.addr, buf) }\n";
        assert_eq!(rules_fired("crates/asyncvol/src/lib.rs", bad_read), ["planned-io"]);
        let ok = "fn f(&self) { ring.submit_keyed(ds, op); c.write_selection(ds, sel, data) }\n";
        assert!(lint_source("crates/asyncvol/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn planned_io_permits_vectored_calls_and_other_files() {
        let vectored =
            "fn f(&self) { self.backend.write_vectored_at(&batch)?; self.backend.read_vectored_at(&mut b)?; }\n";
        assert!(lint_source("crates/h5lite/src/container.rs", vectored).is_empty());
        // Other files are free to use the scalar ops (planned-io-wise).
        let scalar = "fn f(&self) { self.inner.write_at(o, d) }\n";
        assert!(!lint_source("crates/h5lite/src/storage.rs", scalar)
            .iter()
            .any(|v| v.rule == "planned-io"));
        assert!(lint_source("crates/asyncvol/src/staging.rs", scalar).is_empty());
    }

    #[test]
    fn planned_io_waivable_inline_for_metadata_paths() {
        let ok = "fn flush(&self) { self.backend.write_at(meta_addr, &meta)?; // xtask: allow(planned-io) metadata extent\n}\n";
        assert!(lint_source("crates/h5lite/src/container.rs", ok).is_empty());
    }

    #[test]
    fn guard_across_boundary_scoped_and_fires() {
        let bad = "\
fn f(&self) {
    let st = self.state.lock();
    self.handle.wait();
}
";
        assert_eq!(
            rules_fired("crates/argolite/src/lib.rs", bad),
            ["guard-across-boundary"]
        );
        assert!(rules_fired("crates/asyncvol/src/lib.rs", bad)
            .contains(&"guard-across-boundary"));
        assert!(rules_fired("crates/h5lite/src/container.rs", bad)
            .contains(&"guard-across-boundary"));
        // Out of scope: tests, other crates.
        assert!(lint_source("crates/argolite/tests/x.rs", bad).is_empty());
        assert!(lint_source("crates/trace/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn guard_across_boundary_exempts_condvar_handoff() {
        let ok = "\
fn f(&self) {
    let mut st = self.core.state.lock();
    while !st.done {
        self.core.done_cv.wait(&mut st);
    }
}
";
        assert!(lint_source("crates/argolite/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn blocking_in_task_scoped_and_fires() {
        let bad = "\
fn f(ring: &Ring) {
    ring.submit_job(ds, Box::new(move || {
        std::fs::remove_file(p)
    }));
}
";
        assert_eq!(
            rules_fired("crates/asyncvol/src/lib.rs", bad),
            ["blocking-in-task"]
        );
        assert!(lint_source("crates/bench/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn checked_offset_arith_scoped_to_data_path_files() {
        let bad = "fn f(m: &mut Meta) { m.eof += nbytes; }\n";
        assert_eq!(
            rules_fired("crates/h5lite/src/container.rs", bad),
            ["checked-offset-arith"]
        );
        assert_eq!(
            rules_fired("crates/h5lite/src/plan.rs", bad),
            ["checked-offset-arith"]
        );
        assert_eq!(
            rules_fired("crates/h5lite/src/storage.rs", bad),
            ["checked-offset-arith"]
        );
        // Not the whole crate: chunk-count math elsewhere is fine.
        assert!(lint_source("crates/h5lite/src/dataspace.rs", bad).is_empty());
    }

    #[test]
    fn marks_cfg_test_regions() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        assert_eq!(test_regions(&lex(src).tokens), [2..=5]);
        // Further attributes and a `;` inside a type do not end the item.
        let src = "#[cfg(test)]\n#[derive(Debug)]\nstruct S([u8; 4]);\nfn tail() {}\n";
        assert_eq!(test_regions(&lex(src).tokens), [1..=3]);
        // An item cut off by the end of the file runs to its last line.
        let src = "#[cfg(test)]\nmod tests {\n  fn t() {}\n";
        assert_eq!(test_regions(&lex(src).tokens), [1..=3]);
    }

    #[test]
    fn a_braceless_test_item_does_not_hide_the_next_item() {
        let src = "#[cfg(test)]\nmod oracle;\nfn f(&self) { self.backend.write_at(a, &b)?; }\n";
        assert_eq!(test_regions(&lex(src).tokens), [1..=2]);
        assert_eq!(
            rules_fired("crates/h5lite/src/container.rs", src),
            ["planned-io"]
        );
    }

    #[test]
    fn test_code_is_not_linted_and_its_markers_are_not_waivers() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t(&self) { self.backend.write_at(a, &b)?; } // xtask: allow(planned-io)\n}\n";
        let lint = lint_source_full("crates/h5lite/src/container.rs", src);
        assert!(lint.violations.is_empty() && lint.suppressed.is_empty());
        assert!(lint.waivers.is_empty());
    }

    #[test]
    fn superblock_discipline_fires_on_raw_offset_zero_writes() {
        let bad = "fn f(&self) { self.backend.write_at(0, &sb)?; }\n";
        assert!(rules_fired("crates/h5lite/src/container.rs", bad)
            .contains(&"superblock-discipline"));
        assert!(rules_fired("crates/h5lite/src/storage.rs", bad)
            .contains(&"superblock-discipline"));
        // The commit module itself is the sanctioned writer.
        assert!(!lint_source("crates/h5lite/src/superblock.rs", bad)
            .iter()
            .any(|v| v.rule == "superblock-discipline"));
    }

    #[test]
    fn superblock_discipline_permits_nonzero_offsets_and_other_crates() {
        let ok = "fn f(&self) { self.inner.write_at(addr, bytes) }\n";
        assert!(!lint_source("crates/h5lite/src/storage.rs", ok)
            .iter()
            .any(|v| v.rule == "superblock-discipline"));
        // A WAL legitimately starts its first frame at device offset 0.
        let zero = "fn f(&self) { self.device.write_at(0, &rec) }\n";
        assert!(lint_source("crates/asyncvol/src/staging.rs", zero).is_empty());
        assert!(lint_source("crates/h5lite/tests/x.rs", zero).is_empty());
    }

    #[test]
    fn inline_allow_waives_exactly_that_rule() {
        let src = "fn f(&self) { self.backend.write_at(a, &b)?; } // xtask: allow(planned-io) metadata\n";
        assert!(lint_source("crates/h5lite/src/container.rs", src).is_empty());
        // Wrong rule name does not waive.
        let src2 = "fn f(&self) { self.backend.write_at(a, &b)?; } // xtask: allow(must-use)\n";
        assert_eq!(lint_source("crates/h5lite/src/container.rs", src2).len(), 1);
    }

    #[test]
    fn waiver_audit_tracks_usage() {
        let used = "fn f(&self) { self.backend.write_at(a, &b)?; } // xtask: allow(planned-io) metadata\n";
        let lint = lint_source_full("crates/h5lite/src/container.rs", used);
        assert!(lint.violations.is_empty());
        assert_eq!(lint.suppressed.len(), 1);
        assert_eq!(lint.waivers.len(), 1);
        assert!(lint.waivers[0].used);

        let stale = "fn f() { x? } // xtask: allow(planned-io) nothing here fires\n";
        let lint = lint_source_full("crates/h5lite/src/container.rs", stale);
        assert!(lint.violations.is_empty());
        assert_eq!(lint.waivers.len(), 1);
        assert!(!lint.waivers[0].used);
    }

    #[test]
    fn marker_detection_ignores_strings_doc_text_and_unknown_rules() {
        // A string literal mentioning the syntax is not a waiver.
        let in_string = "let m = \"xtask: allow(planned-io)\";\n";
        let lint = lint_source_full("crates/h5lite/src/lib.rs", in_string);
        assert!(lint.waivers.is_empty());
        // Doc text mentioning the syntax is not a waiver.
        let in_doc = "/// Write `// xtask: allow(planned-io)` to waive.\nfn f() {}\n";
        let lint = lint_source_full("crates/h5lite/src/lib.rs", in_doc);
        assert!(lint.waivers.is_empty());
        // Unknown rule names are not waivers (and cannot go stale).
        let unknown = "fn f() {} // xtask: allow(not-a-rule) whatever\n";
        let lint = lint_source_full("crates/h5lite/src/lib.rs", unknown);
        assert!(lint.waivers.is_empty());
    }

    #[test]
    fn allowlist_waives_by_rule_and_path() {
        let v = vec![
            Violation {
                file: "crates/h5lite/src/a.rs".into(),
                line: 1,
                rule: "planned-io",
                message: String::new(),
            },
            Violation {
                file: "crates/asyncvol/src/b.rs".into(),
                line: 2,
                rule: "must-use",
                message: String::new(),
            },
        ];
        let allow = parse_allowlist(
            "# comment\nplanned-io crates/h5lite/ # legacy code\n",
        );
        let (left, hits) = apply_allowlist_tracked(v, &allow);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].rule, "must-use");
        assert_eq!(hits, [1]);
    }
}
