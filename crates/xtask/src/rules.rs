//! The correctness-gate rule set, hosted on the token engine.
//!
//! Every rule is deny-by-default and scoped to the layer whose invariant
//! it protects:
//!
//! | rule            | scope                                   | protects |
//! |-----------------|-----------------------------------------|----------|
//! | `virtual-time`  | desim, mpisim, platform `src/`          | simulated clocks never read the wall clock |
//! | `error-path`    | h5lite, asyncvol, apio-core `src/`      | library code returns errors instead of panicking |
//! | `lock-discipline`| argolite, asyncvol `src/`              | every lock goes through `argolite::sync` (order-checked) |
//! | `must-use`      | argolite, h5lite, asyncvol `src/`       | futures/handles/guards cannot be silently dropped |
//! | `no-dbg-todo`   | whole workspace                         | no debugging or placeholder macros ship |
//! | `bounded-retry` | h5lite, asyncvol `src/`                 | retry loops carry both an attempt bound and a deadline |
//! | `planned-io`    | h5lite `container.rs`                   | data-path I/O goes through the planner's vectored batches, not scalar per-run calls |
//! | `guard-across-boundary` | argolite, asyncvol, h5lite `src/` | no lock guard is live across `submit`/`wait`/`block_on`/channel-recv (dataflow pass) |
//! | `blocking-in-task` | argolite, asyncvol, h5lite `src/`    | no `std::fs`/`std::net`/`thread::sleep` inside closures handed to the task scheduler |
//! | `checked-offset-arith` | h5lite `storage.rs`, `container.rs`, `plan.rs` | device offsets/addresses use `checked_*`/`saturating_*`, never raw `+`/`*` |
//! | `swallowed-result` | asyncvol, h5lite `src/`              | no `let _ =` / statement `.ok();` discarding a `Result` on an I/O path |
//! | `superblock-discipline` | h5lite `src/` except `superblock.rs` | the superblock area (offset 0) is written only through the dual-slot commit protocol |
//! | `ring-discipline` | asyncvol `lib.rs`                       | background-write paths reach storage via ring submission or planned vectored I/O, never scalar backend calls |
//! | `snapshot-discipline` | h5lite `src/` except `meta.rs`       | metadata state is resolved through the sharded `MetaPlane` API, never by locking a monolithic `meta` field directly |
//!
//! Ten of the rules are line-local token patterns; the other four
//! ride the intra-procedural dataflow passes in [`crate::dataflow`].
//! Lexing (see [`crate::lexer`]) makes every rule comment-, string-,
//! and lifetime-aware for free.
//!
//! Escapes are explicit and auditable: an inline `// xtask: allow(rule)`
//! on the offending line, or a path entry in the root `xtask.allow`
//! file. Both are themselves audited — a waiver that suppresses nothing
//! is *stale* and fails the gate (see [`crate::run_lint`]).

use crate::dataflow;
use crate::lexer::{lex, Token, TokenKind};
use crate::scan::scan;

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
pub const RULE_NAMES: [&str; 14] = [
    "virtual-time",
    "error-path",
    "lock-discipline",
    "must-use",
    "no-dbg-todo",
    "bounded-retry",
    "planned-io",
    "guard-across-boundary",
    "blocking-in-task",
    "checked-offset-arith",
    "swallowed-result",
    "superblock-discipline",
    "ring-discipline",
    "snapshot-discipline",
];

/// Crates whose `src/` must stay in virtual time.
const VIRTUAL_TIME_CRATES: [&str; 3] = ["crates/desim/", "crates/mpisim/", "crates/platform/"];
/// Crates whose `src/` must use error returns, not panics.
const ERROR_PATH_CRATES: [&str; 3] = ["crates/h5lite/", "crates/asyncvol/", "crates/core/"];
/// Crates whose `src/` must take locks through the sanctioned module.
const LOCK_CRATES: [&str; 2] = ["crates/argolite/", "crates/asyncvol/"];
/// The one module allowed to touch `std::sync` lock primitives directly.
const SANCTIONED_LOCK_MODULES: [&str; 2] =
    ["crates/argolite/src/sync.rs", "crates/h5lite/src/sync.rs"];
/// Crates whose handle/guard types must be `#[must_use]`.
const MUST_USE_CRATES: [&str; 3] = ["crates/argolite/", "crates/h5lite/", "crates/asyncvol/"];
/// Crates whose retry loops must be bounded (attempts + deadline).
const BOUNDED_RETRY_CRATES: [&str; 2] = ["crates/h5lite/", "crates/asyncvol/"];
/// Files whose data paths must issue I/O through the planner's vectored
/// batches. Scalar `write_at`/`read_at` here is a regression back to
/// per-run request storms; metadata paths carry inline waivers.
const PLANNED_IO_FILES: [&str; 1] = ["crates/h5lite/src/container.rs"];
/// Asyncvol background-write paths. The connector's writes reach
/// storage as ring entries (`Ring::submit_keyed`, coalesced by the
/// reaper) or through the container's planned vectored path; a direct
/// scalar `StorageBackend` call here is a per-request device round trip
/// both exist to eliminate. The WAL staging module is out of scope — its
/// scalar device I/O is the log's own format.
const RING_DISCIPLINE_FILES: [&str; 1] = ["crates/asyncvol/src/lib.rs"];
/// Type names (beyond the `*Guard` convention) that must be `#[must_use]`.
const MUST_USE_TYPES: [&str; 4] = [
    "TaskHandle",
    "Promise",
    "Request",
    "ReadRequest",
];
/// Crates whose `src/` runs under the task scheduler: guard liveness
/// and blocking-call discipline apply.
const SCHEDULED_CRATES: [&str; 3] = ["crates/argolite/", "crates/asyncvol/", "crates/h5lite/"];
/// Files carrying device-address arithmetic.
const OFFSET_ARITH_FILES: [&str; 3] = [
    "crates/h5lite/src/storage.rs",
    "crates/h5lite/src/container.rs",
    "crates/h5lite/src/plan.rs",
];
/// Crates whose `src/` must not discard `Result`s.
const SWALLOWED_RESULT_CRATES: [&str; 2] = ["crates/asyncvol/", "crates/h5lite/"];
/// The one module allowed to write the superblock area (offset 0): the
/// dual-slot commit protocol. A raw offset-0 write anywhere else in the
/// container crate can tear the anchor every reopen depends on.
const SUPERBLOCK_MODULE: &str = "crates/h5lite/src/superblock.rs";
/// The one module allowed to acquire metadata-plane locks directly: the
/// sharded plane itself. A raw `meta.read()`/`meta.write()` anywhere
/// else in the crate is a regression back to the monolithic metadata
/// lock — it bypasses the per-shard counters, the MVCC working/published
/// split, and the zero-lock snapshot path that multi-tenant planning
/// depends on.
const META_PLANE_MODULE: &str = "crates/h5lite/src/meta.rs";

fn in_src(rel: &str, crates: &[&str]) -> bool {
    crates
        .iter()
        .any(|c| rel.starts_with(c) && rel[c.len()..].starts_with("src/"))
}

/// The rule named by an `// xtask: allow(rule)` marker on this line, if
/// the marker sits in a *plain* line comment (`//`, not `///` or `//!`
/// doc text, not a string literal) and names a known rule. `code` is
/// the stripped text from [`scan`] (same length as `raw`, comment and
/// literal contents blanked), which is what distinguishes a real
/// comment from a string literal that merely mentions the syntax.
pub fn marker_rule<'a>(code: &str, raw: &'a str) -> Option<&'a str> {
    let p = raw.find("xtask: allow(")?;
    let after = &raw[p + "xtask: allow(".len()..];
    let rule = &after[..after.find(')')?];
    if !RULE_NAMES.contains(&rule) {
        return None;
    }
    // The marker must sit inside a plain `//` comment. `strip` keeps
    // exactly the comment-opening `//` in the stripped text (string
    // contents, including any `//` they contain, are fully blanked), so
    // the first `//` in `code` is where the line's comment begins.
    let q = code.find("//")?;
    if p < q {
        return None;
    }
    // Doc text (`///`, `//!`) is prose, not a waiver.
    if raw[q..].starts_with("///") || raw[q..].starts_with("//!") {
        return None;
    }
    Some(rule)
}

fn inline_allowed(code: &str, raw: &str, rule: &str) -> bool {
    marker_rule(code, raw) == Some(rule)
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
    let lines = scan(src);
    let tokens = lex(src);
    let in_test =
        |line: usize| lines.get(line.wrapping_sub(1)).is_some_and(|l| l.in_test);

    let mut cands: Vec<Violation> = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        cands.push(Violation {
            file: rel.to_owned(),
            line,
            rule,
            message,
        });
    };

    let virtual_time = in_src(rel, &VIRTUAL_TIME_CRATES);
    let error_path = in_src(rel, &ERROR_PATH_CRATES);
    let lock_discipline = in_src(rel, &LOCK_CRATES) && !SANCTIONED_LOCK_MODULES.contains(&rel);
    let must_use = in_src(rel, &MUST_USE_CRATES);
    let bounded_retry = in_src(rel, &BOUNDED_RETRY_CRATES);
    let planned_io = PLANNED_IO_FILES.contains(&rel);
    let ring_discipline = RING_DISCIPLINE_FILES.contains(&rel);
    let scheduled = in_src(rel, &SCHEDULED_CRATES);
    let offset_arith = OFFSET_ARITH_FILES.contains(&rel);
    let swallowed = in_src(rel, &SWALLOWED_RESULT_CRATES);
    let superblock = in_src(rel, &["crates/h5lite/"]) && rel != SUPERBLOCK_MODULE;
    let snapshot_discipline = in_src(rel, &["crates/h5lite/"]) && rel != META_PLANE_MODULE;

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

    // --- Line-local token patterns (the eight re-hosted rules). ---
    for (k, t) in tokens.iter().enumerate() {
        let line = t.line;
        let at =
            |j: usize, text: &str| tokens.get(k + j).is_some_and(|t| t.text == text);
        let seq = |pat: &[&str]| pat.iter().enumerate().all(|(j, p)| at(j, p));

        if virtual_time {
            for (pat, name) in [
                (&["thread", "::", "sleep"][..], "thread::sleep"),
                (&["Instant", "::", "now"][..], "Instant::now"),
                (&["std", "::", "time", "::", "Instant"][..], "std::time::Instant"),
                (&["SystemTime"][..], "SystemTime"),
            ] {
                if seq(pat) {
                    push(
                        line,
                        "virtual-time",
                        format!("`{name}` reads the wall clock inside a virtual-time simulation path; use the engine's simulated clock"),
                    );
                }
            }
        }

        if error_path {
            for (pat, what) in [
                (&[".", "unwrap", "(", ")"][..], "unwrap"),
                (&[".", "expect", "("][..], "expect"),
                (&["panic", "!", "("][..], "panic!"),
            ] {
                if seq(pat) {
                    push(
                        line,
                        "error-path",
                        format!("`{what}` in non-test library code; return an error (`H5Error`/`Result`) instead of panicking"),
                    );
                }
            }
        }

        if lock_discipline {
            if let Some(ident) = ["Mutex", "RwLock", "Condvar"]
                .into_iter()
                .find(|n| t.is_ident(n))
            {
                // Same-line evidence that this is the std/parking_lot
                // type, not the sanctioned shim.
                let run: Vec<&Token> = tokens.iter().filter(|o| o.line == line).collect();
                let std_sync = (0..run.len().saturating_sub(2)).any(|w| {
                    run[w].is_ident("std")
                        && run[w + 1].is_punct("::")
                        && run[w + 2].is_ident("sync")
                });
                let raw_source = std_sync || run.iter().any(|o| o.is_ident("parking_lot"));
                if raw_source {
                    push(
                        line,
                        "lock-discipline",
                        format!("raw `{ident}` acquisition outside the sanctioned lock-ordering module; use `argolite::sync` so lock-order cycles are detectable"),
                    );
                }
            }
        }

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
                        format!("scalar `.{name}(..)` in the container; route data-path I/O through `plan_io` + `write_vectored_at`/`read_vectored_at` so requests coalesce (metadata paths may waive inline)"),
                    );
                }
            }
        }

        if ring_discipline {
            for name in ["write_at", "read_at"] {
                if seq(&[".", name, "("]) {
                    push(
                        line,
                        "ring-discipline",
                        format!("scalar `.{name}(..)` on an asyncvol background-write path; submit through the ring (`submit_keyed` / `RingOp`) or the container's planned vectored path so requests coalesce"),
                    );
                }
            }
        }

        if snapshot_discipline {
            for name in ["read", "write"] {
                if seq(&["meta", ".", name, "("]) {
                    push(
                        line,
                        "snapshot-discipline",
                        format!("direct metadata lock `meta.{name}()` outside the sharded plane; resolve through `MetaPlane` (`working`/`mutate`/`snapshot`) so per-shard accounting and MVCC publication stay intact"),
                    );
                }
            }
            for name in ["meta_read", "meta_write"] {
                if seq(&[".", name, "("]) {
                    push(
                        line,
                        "snapshot-discipline",
                        format!("raw metadata lock accessor `.{name}()` outside the sharded plane; resolve through `MetaPlane` (`working`/`mutate`/`snapshot`) so per-shard accounting and MVCC publication stay intact"),
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

        if seq(&["dbg", "!", "("]) {
            push(
                line,
                "no-dbg-todo",
                "`dbg!` must not ship; remove the debugging macro".to_owned(),
            );
        }
        for name in ["todo", "unimplemented"] {
            if seq(&[name, "!", "("]) {
                push(
                    line,
                    "no-dbg-todo",
                    format!("`{name}!` placeholder must not ship"),
                );
            }
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
    if swallowed {
        for f in dataflow::swallowed_result(&tokens) {
            cands.push(Violation {
                file: rel.to_owned(),
                line: f.line,
                rule: "swallowed-result",
                message: f.message,
            });
        }
    }

    // --- Test filtering, inline waivers, waiver audit. ---
    let mut out = FileLint::default();
    for v in cands {
        if lines.get(v.line.wrapping_sub(1)).is_some_and(|l| l.in_test) {
            continue;
        }
        let (code, raw) = lines
            .get(v.line.wrapping_sub(1))
            .map(|l| (l.code.as_str(), l.raw.as_str()))
            .unwrap_or(("", ""));
        if inline_allowed(code, raw, v.rule) {
            out.suppressed.push(v);
        } else {
            out.violations.push(v);
        }
    }
    for l in &lines {
        if l.in_test {
            continue;
        }
        if let Some(rule) = marker_rule(&l.code, &l.raw) {
            let used = out
                .suppressed
                .iter()
                .any(|s| s.line == l.number && s.rule == rule);
            out.waivers.push(InlineWaiver {
                file: rel.to_owned(),
                line: l.number,
                rule: rule.to_owned(),
                used,
            });
        }
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
    fn virtual_time_fires_on_wall_clock() {
        let bad = "fn step() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules_fired("crates/desim/src/engine.rs", bad), ["virtual-time"]);
        let bad2 = "fn nap() { std::thread::sleep(d); }\n";
        assert_eq!(rules_fired("crates/mpisim/src/lib.rs", bad2), ["virtual-time"]);
        let bad3 = "fn now() -> SystemTime { SystemTime::now() }\n";
        assert_eq!(rules_fired("crates/platform/src/lib.rs", bad3), ["virtual-time"]);
    }

    #[test]
    fn virtual_time_scoped_to_sim_crates() {
        let src = "fn t0() { let t = std::time::Instant::now(); }\n";
        assert!(lint_source("crates/bench/src/harness.rs", src).is_empty());
        assert!(lint_source("crates/desim/tests/clock.rs", src).is_empty());
    }

    #[test]
    fn virtual_time_ignores_simulated_clock_types() {
        let ok = "fn now(&self) -> SimInstant { SimInstant::now_from(self.t) }\n";
        assert!(lint_source("crates/desim/src/engine.rs", ok).is_empty());
    }

    #[test]
    fn error_path_fires_on_unwrap_expect_panic() {
        assert_eq!(
            rules_fired("crates/h5lite/src/container.rs", "fn f() { x.unwrap(); }\n"),
            ["error-path"]
        );
        assert_eq!(
            rules_fired("crates/asyncvol/src/lib.rs", "fn f() { x.expect(\"m\"); }\n"),
            ["error-path"]
        );
        assert_eq!(
            rules_fired("crates/core/src/lib.rs", "fn f() { panic!(\"boom\"); }\n"),
            ["error-path"]
        );
    }

    #[test]
    fn error_path_skips_tests_comments_and_strings() {
        let src = "\
// a comment may say x.unwrap()
fn f() -> &'static str { \"not .unwrap() either\" }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { f().parse::<u8>().unwrap(); }
}
";
        assert!(lint_source("crates/h5lite/src/lib.rs", src).is_empty());
    }

    #[test]
    fn error_path_allows_unwrap_or_variants() {
        let ok = "fn f() { x.unwrap_or_else(PoisonError::into_inner); y.unwrap_or(0); }\n";
        assert!(lint_source("crates/h5lite/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn lock_discipline_fires_outside_sanctioned_module() {
        let bad = "use std::sync::Mutex;\n";
        assert_eq!(
            rules_fired("crates/argolite/src/lib.rs", bad),
            ["lock-discipline"]
        );
        assert_eq!(
            rules_fired("crates/asyncvol/src/lib.rs", "let m = std::sync::RwLock::new(0);\n"),
            ["lock-discipline"]
        );
        // The sanctioned module itself wraps std::sync — exempt.
        assert!(lint_source("crates/argolite/src/sync.rs", bad).is_empty());
    }

    #[test]
    fn lock_discipline_permits_sanctioned_and_unrelated_sync() {
        let ok = "use crate::sync::Mutex;\nuse std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n";
        assert!(lint_source("crates/argolite/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn must_use_fires_on_unmarked_handle_types() {
        let bad = "pub struct TaskHandle {\n    x: u32,\n}\n";
        assert_eq!(rules_fired("crates/argolite/src/lib.rs", bad), ["must-use"]);
        let bad_guard = "pub struct FlushGuard<'a> {\n    x: &'a u32,\n}\n";
        assert_eq!(rules_fired("crates/h5lite/src/x.rs", bad_guard), ["must-use"]);
    }

    #[test]
    fn must_use_satisfied_by_attribute() {
        let ok = "/// Doc.\n#[must_use = \"reason\"]\npub struct TaskHandle {\n    x: u32,\n}\n";
        assert!(lint_source("crates/argolite/src/lib.rs", ok).is_empty());
        let ok2 = "#[derive(Debug)]\n#[must_use]\npub struct IoGuard;\n";
        assert!(lint_source("crates/asyncvol/src/lib.rs", ok2).is_empty());
        // Attribute blocks stack in either order.
        let ok3 = "#[must_use]\n#[derive(Debug)]\npub struct IoGuard;\n";
        assert!(lint_source("crates/asyncvol/src/lib.rs", ok3).is_empty());
    }

    #[test]
    fn must_use_ignores_other_types() {
        let ok = "pub struct Runtime {\n    x: u32,\n}\n";
        assert!(lint_source("crates/argolite/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn no_dbg_todo_fires_everywhere() {
        assert_eq!(
            rules_fired("crates/apps/src/nyx.rs", "fn f() { dbg!(1); }\n"),
            ["no-dbg-todo"]
        );
        assert_eq!(
            rules_fired("src/lib.rs", "fn f() { todo!() }\n"),
            ["no-dbg-todo"]
        );
        assert_eq!(
            rules_fired("tests/e2e.rs", "fn f() { unimplemented!() }\n"),
            ["no-dbg-todo"]
        );
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
fn f(rt: &Runtime) {
    rt.spawn_dependent(deps, move || {
        std::fs::remove_file(p)
    });
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
    fn swallowed_result_scoped_and_waivable() {
        let bad = "fn f(&self) { let _ = self.log.mark_applied(e); }\n";
        assert_eq!(
            rules_fired("crates/asyncvol/src/lib.rs", bad),
            ["swallowed-result"]
        );
        assert_eq!(
            rules_fired("crates/h5lite/src/container.rs", bad),
            ["swallowed-result"]
        );
        assert!(lint_source("crates/argolite/src/lib.rs", bad).is_empty());
        let waived =
            "fn f(&self) { let _ = self.flush(); // xtask: allow(swallowed-result) Drop cannot propagate\n}\n";
        assert!(lint_source("crates/h5lite/src/container.rs", waived).is_empty());
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
    fn snapshot_discipline_fires_on_direct_meta_locks() {
        let bad = "fn f(&self) { let m = self.meta.read(); m.len() }\n";
        assert_eq!(
            rules_fired("crates/h5lite/src/container.rs", bad),
            ["snapshot-discipline"]
        );
        let bad_write = "fn g(&self) { self.meta.write().generation += 1; }\n";
        assert!(rules_fired("crates/h5lite/src/api.rs", bad_write)
            .contains(&"snapshot-discipline"));
        let bad_accessor = "fn h(&self) { self.plane.meta_read().len() }\n";
        assert_eq!(
            rules_fired("crates/h5lite/src/api.rs", bad_accessor),
            ["snapshot-discipline"]
        );
    }

    #[test]
    fn snapshot_discipline_permits_the_plane_module_and_its_api() {
        // The sharded plane itself is the sanctioned lock owner.
        let direct = "fn f(&self) { let m = self.meta.read(); m.len() }\n";
        assert!(lint_source("crates/h5lite/src/meta.rs", direct).is_empty());
        // Out of scope: tests and other crates.
        assert!(lint_source("crates/h5lite/tests/x.rs", direct).is_empty());
        assert!(lint_source("crates/asyncvol/src/lib.rs", direct).is_empty());
        // The plane API is the sanctioned path everywhere else.
        let ok = "fn f(&self) { let s = self.plane.working(id); self.plane.snapshot(); }\n";
        assert!(lint_source("crates/h5lite/src/container.rs", ok).is_empty());
    }

    #[test]
    fn inline_allow_waives_exactly_that_rule() {
        let src = "fn f() { x.unwrap(); } // xtask: allow(error-path) checked by caller\n";
        assert!(lint_source("crates/h5lite/src/lib.rs", src).is_empty());
        // Wrong rule name does not waive.
        let src2 = "fn f() { x.unwrap(); } // xtask: allow(virtual-time)\n";
        assert_eq!(lint_source("crates/h5lite/src/lib.rs", src2).len(), 1);
    }

    #[test]
    fn waiver_audit_tracks_usage() {
        let used = "fn f() { x.unwrap(); } // xtask: allow(error-path) caller checked\n";
        let lint = lint_source_full("crates/h5lite/src/lib.rs", used);
        assert!(lint.violations.is_empty());
        assert_eq!(lint.suppressed.len(), 1);
        assert_eq!(lint.waivers.len(), 1);
        assert!(lint.waivers[0].used);

        let stale = "fn f() { x? } // xtask: allow(error-path) nothing here fires\n";
        let lint = lint_source_full("crates/h5lite/src/lib.rs", stale);
        assert!(lint.violations.is_empty());
        assert_eq!(lint.waivers.len(), 1);
        assert!(!lint.waivers[0].used);
    }

    #[test]
    fn marker_detection_ignores_strings_doc_text_and_unknown_rules() {
        // A string literal mentioning the syntax is not a waiver.
        let in_string = "let m = \"xtask: allow(error-path)\";\n";
        let lint = lint_source_full("crates/h5lite/src/lib.rs", in_string);
        assert!(lint.waivers.is_empty());
        // Doc text mentioning the syntax is not a waiver.
        let in_doc = "/// Write `// xtask: allow(error-path)` to waive.\nfn f() {}\n";
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
                rule: "error-path",
                message: String::new(),
            },
            Violation {
                file: "crates/desim/src/b.rs".into(),
                line: 2,
                rule: "virtual-time",
                message: String::new(),
            },
        ];
        let allow = parse_allowlist(
            "# comment\nerror-path crates/h5lite/ # legacy code\n",
        );
        let (left, hits) = apply_allowlist_tracked(v, &allow);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].rule, "virtual-time");
        assert_eq!(hits, [1]);
    }
}
