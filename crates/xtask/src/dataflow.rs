//! Intra-procedural dataflow passes over the token stream.
//!
//! Each pass here consumes the output of [`crate::lexer::lex`] and
//! produces [`Finding`]s — candidate violations that `rules.rs` then
//! scopes to the right crates and filters through `#[cfg(test)]` and
//! waiver handling. The passes are deliberately *intra-procedural and
//! syntactic*: they track guard bindings, closure extents, and operand
//! identifier chains, but never types. False negatives are acceptable
//! (the gate is one layer of several); false positives are not, so each
//! pass carries explicit exemptions for the sanctioned idioms in this
//! workspace (condvar guard hand-off, block-scoped guards).

use crate::lexer::{match_delim, Delim, Token, TokenKind};

/// One candidate violation: a line plus the explanation. The caller
/// attaches rule name, file, and waiver handling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Method names whose empty-argument call binds a lock guard.
const ACQUIRERS: [&str; 5] = ["lock", "read", "write", "meta_read", "meta_write"];

/// Method names that are scheduling boundaries: they submit background
/// work, park the caller, or rendezvous with another task. A guard held
/// across one of these serializes the async pipeline (and can deadlock
/// once the metadata plane shards).
const BOUNDARIES: [&str; 12] = [
    "submit",
    "wait",
    "wait_timeout",
    "wait_until",
    "wait_for",
    "wait_all",
    "quiesce",
    "block_on",
    "recv",
    "recv_timeout",
    "try_recv",
    "join",
];

#[derive(Debug)]
struct Guard {
    name: String,
    /// Brace depth at which the binding lives; closing below kills it.
    depth: usize,
    /// Line of the binding, for the diagnostic.
    bound_line: usize,
}

/// `guard-across-boundary`: a `let g = x.lock();`-style guard binding
/// that is still live when a [`BOUNDARIES`] call executes in the same
/// scope. Exemptions:
///
/// - the guard is an argument of the boundary call itself (condvar
///   hand-off: `cv.wait(&mut st)` is *how* the guard is released);
/// - the acquirer ran inside a nested block on the binding's RHS
///   (`let v = { let g = m.lock(); g.val };` — the guard died at the
///   block's end, the binding holds a value, not a guard);
/// - `drop(g)` or shadowing kills the guard before the boundary.
pub fn guard_across_boundary(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut k = 0;

    while k < tokens.len() {
        let t = &tokens[k];
        match t.kind {
            TokenKind::Open(Delim::Brace) => depth += 1,
            TokenKind::Close(Delim::Brace) => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            _ => {}
        }

        // drop(g) kills the guard early.
        if t.is_ident("drop")
            && tokens.get(k + 1).is_some_and(|t| t.kind == TokenKind::Open(Delim::Paren))
        {
            if let Some(arg) = tokens.get(k + 2) {
                if arg.kind == TokenKind::Ident {
                    guards.retain(|g| g.name != arg.text);
                }
            }
        }

        // A `let` binding: possibly a new guard, always a shadow-kill.
        if t.is_ident("let") {
            if let Some((name, name_line, rhs)) = let_binding(tokens, k) {
                guards.retain(|g| g.name != name);
                if rhs_acquires_guard(tokens, rhs) {
                    guards.push(Guard {
                        name,
                        depth,
                        bound_line: name_line,
                    });
                }
            }
        }

        // A boundary call with live guards.
        if t.kind == TokenKind::Ident
            && BOUNDARIES.contains(&t.text.as_str())
            && tokens.get(k + 1).is_some_and(|n| n.kind == TokenKind::Open(Delim::Paren))
        {
            let method_like = k > 0 && tokens[k - 1].is_punct(".");
            let free_boundary = t.text == "block_on";
            if (method_like || free_boundary) && !guards.is_empty() {
                let close = match_delim(tokens, k + 1).unwrap_or(tokens.len() - 1);
                let args = &tokens[k + 2..close];
                for g in &guards {
                    // Condvar hand-off: the guard is *given to* the wait.
                    let handed_off = args.iter().any(|a| a.is_ident(&g.name));
                    if !handed_off {
                        out.push(Finding {
                            line: t.line,
                            message: format!(
                                "lock guard `{}` (bound on line {}) is live across the scheduling boundary `{}(`; drop or scope the guard before blocking so background tasks can make progress",
                                g.name, g.bound_line, t.text
                            ),
                        });
                    }
                }
            }
        }

        k += 1;
    }
    out
}

/// If `tokens[at]` is `let`, return the bound identifier, its line, and
/// the RHS token range (after `=`, up to the statement-ending `;`).
/// `None` for destructuring patterns or `let … else`.
fn let_binding(tokens: &[Token], at: usize) -> Option<(String, usize, std::ops::Range<usize>)> {
    let mut j = at + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name_tok = tokens.get(j)?;
    if name_tok.kind != TokenKind::Ident || name_tok.text == "_" {
        return None;
    }
    let name = name_tok.text.clone();
    let name_line = name_tok.line;
    j += 1;
    // Optional `: Type` annotation — skip to `=` at zero nesting.
    let mut nest = 0i64;
    while j < tokens.len() {
        let t = &tokens[j];
        match t.kind {
            TokenKind::Open(_) => nest += 1,
            TokenKind::Close(_) => nest -= 1,
            TokenKind::Punct if nest == 0 && t.text == "=" => break,
            TokenKind::Punct if nest == 0 && t.text == ";" => return None,
            _ => {}
        }
        // `<` generics in the type are Punct; fine to walk over.
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    let rhs_start = j + 1;
    // Statement end: `;` at zero nesting relative to here.
    let mut nest = 0i64;
    let mut end = rhs_start;
    while end < tokens.len() {
        let t = &tokens[end];
        match t.kind {
            TokenKind::Open(_) => nest += 1,
            TokenKind::Close(_) => {
                nest -= 1;
                if nest < 0 {
                    break;
                }
            }
            TokenKind::Punct if nest == 0 && t.text == ";" => break,
            _ => {}
        }
        end += 1;
    }
    Some((name, name_line, rhs_start..end))
}

/// Whether a binding RHS acquires a guard *at its own nesting level*:
/// `.lock()` / `.read()` / … with empty parens, not inside a nested
/// block (where the guard already died) and not followed by further
/// projection (`.lock().len()` binds the projection, not the guard —
/// still a transient hold, but not a *live binding*).
fn rhs_acquires_guard(tokens: &[Token], rhs: std::ops::Range<usize>) -> bool {
    let mut nest = 0i64;
    let mut k = rhs.start;
    while k < rhs.end {
        let t = &tokens[k];
        match t.kind {
            TokenKind::Open(_) => nest += 1,
            TokenKind::Close(_) => nest -= 1,
            TokenKind::Ident
                if ACQUIRERS.contains(&t.text.as_str())
                    && k > rhs.start
                    && tokens[k - 1].is_punct(".") =>
            {
                // Empty-paren call at RHS nesting level 0.
                let empty_call = tokens.get(k + 1).is_some_and(|o| o.kind == TokenKind::Open(Delim::Paren))
                    && tokens.get(k + 2).is_some_and(|c| c.kind == TokenKind::Close(Delim::Paren));
                if nest == 0 && empty_call {
                    // Projection after the call (`.lock().field`) means
                    // the guard is a temporary, not this binding.
                    let projected = tokens
                        .get(k + 3)
                        .is_some_and(|n| n.is_punct(".") || n.is_punct("?"));
                    if !projected {
                        return true;
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    false
}

/// Method names that hand a closure to a background executor: a thread,
/// a ring job or completion hook, or an explorer task.
const SUBMITTERS: [&str; 4] = ["spawn", "submit_job", "submit_with", "add_task"];

/// Path fragments that block the calling OS thread.
const BLOCKING: [(&str, &str); 3] = [("std", "fs"), ("std", "net"), ("thread", "sleep")];

/// `blocking-in-task`: `std::fs` / `std::net` / `thread::sleep` inside
/// a closure passed to a submission call. Ring jobs and completion hooks
/// run on their shard's one reaper; one blocked job stalls every entry
/// queued behind it.
pub fn blocking_in_task(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for k in 0..tokens.len() {
        let t = &tokens[k];
        if t.kind != TokenKind::Ident || !SUBMITTERS.contains(&t.text.as_str()) {
            continue;
        }
        if !(k > 0 && tokens[k - 1].is_punct(".")) {
            continue;
        }
        let Some(open) = tokens
            .get(k + 1)
            .filter(|n| n.kind == TokenKind::Open(Delim::Paren))
            .map(|_| k + 1)
        else {
            continue;
        };
        let close = match_delim(tokens, open).unwrap_or(tokens.len() - 1);
        let args = &tokens[open + 1..close];
        // Only closures matter; a submission taking a prebuilt value is
        // someone else's problem. (`||` is one maximal-munch token, so a
        // zero-arg closure shows up as `||`, not two `|`s.)
        if !args.iter().any(|a| a.is_punct("|") || a.is_punct("||")) {
            continue;
        }
        for w in 0..args.len().saturating_sub(2) {
            let (a, b, c) = (&args[w], &args[w + 1], &args[w + 2]);
            if b.is_punct("::") {
                for (head, tail) in BLOCKING {
                    if a.is_ident(head) && c.is_ident(tail) {
                        out.push(Finding {
                            line: c.line,
                            message: format!(
                                "blocking call `{head}::{tail}` inside a closure passed to `{}(`; a blocked worker stalls the whole task queue — do the blocking work before submission or route it through the runtime's I/O path",
                                t.text
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Identifier fragments that mark a value as living in device/byte
/// address space, where release-mode wrap silently corrupts data.
const OFFSETY: [&str; 3] = ["offset", "addr", "eof"];

fn is_offsety(text: &str) -> bool {
    let lower = text.to_lowercase();
    OFFSETY.iter().any(|f| lower.contains(f))
}

/// Collect the identifier chain ending at `k` (walking `a.b.c` back
/// from `c`).
fn chain_back(tokens: &[Token], k: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut j = k as i64;
    while let Some(t) = tokens.get(j as usize) {
        if t.kind == TokenKind::Ident {
            idents.push(t.text.clone());
        } else {
            break;
        }
        if j >= 1 && tokens[(j - 1) as usize].is_punct(".") {
            j -= 2;
        } else {
            break;
        }
    }
    idents
}

/// Collect the identifier chain starting at `k` (walking `a.b.c`
/// forward from `a`).
fn chain_fwd(tokens: &[Token], k: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut j = k;
    while let Some(t) = tokens.get(j) {
        if t.kind == TokenKind::Ident {
            idents.push(t.text.clone());
        } else {
            break;
        }
        if tokens.get(j + 1).is_some_and(|n| n.is_punct(".")) {
            j += 2;
        } else {
            break;
        }
    }
    idents
}

fn operand_before(tokens: &[Token], op: usize) -> bool {
    op > 0
        && matches!(
            tokens[op - 1].kind,
            TokenKind::Ident
                | TokenKind::Num
                | TokenKind::Close(Delim::Paren)
                | TokenKind::Close(Delim::Bracket)
        )
}

fn operand_after(tokens: &[Token], op: usize) -> bool {
    matches!(
        tokens.get(op + 1).map(|t| &t.kind),
        Some(TokenKind::Ident)
            | Some(TokenKind::Num)
            | Some(TokenKind::Open(Delim::Paren))
            | Some(TokenKind::Punct) // `&x`, `*x` operands
    )
}

/// `checked-offset-arith`: raw `+` / `*` / `+=` / `*=` where an operand
/// identifier chain mentions `offset` / `addr` / `eof`, or a `let`
/// binding *named* like an address computed with raw arithmetic. Wrap
/// on these is not a math bug, it is silent data corruption at a wrong
/// device address — the arithmetic must be `checked_*`/`saturating_*`.
///
/// The taint set is lexical: a name, not a type or a data flow. A size
/// computed from names that mention none of the three words — the
/// `sel.npoints(&state.space) * elem` that `plan_from_state` compared a
/// buffer length against, bound to `want` — is invisible to it, and
/// widening the set to `len`/`bytes`/`count` would fire on every cursor
/// and counter in the same files. Sizes that gate an address
/// computation are therefore held by unit tests
/// (`selection_size_overflow_is_an_error_not_an_accepted_buffer` in
/// `container.rs`), not by this rule.
pub fn unchecked_offset_arith(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for k in 0..tokens.len() {
        let t = &tokens[k];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "+" | "*" => {
                // Binary only: an operand on both sides.
                if !(operand_before(tokens, k) && operand_after(tokens, k)) {
                    continue;
                }
                let mut idents = Vec::new();
                if tokens[k - 1].kind == TokenKind::Ident {
                    idents.extend(chain_back(tokens, k - 1));
                }
                if tokens.get(k + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
                    idents.extend(chain_fwd(tokens, k + 1));
                }
                if idents.iter().any(|i| is_offsety(i)) {
                    out.push(arith_finding(t, "+"));
                }
            }
            "+=" | "*=" => {
                if k == 0 {
                    continue;
                }
                let mut idents = Vec::new();
                if tokens[k - 1].kind == TokenKind::Ident {
                    idents.extend(chain_back(tokens, k - 1));
                }
                if tokens.get(k + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
                    idents.extend(chain_fwd(tokens, k + 1));
                }
                if idents.iter().any(|i| is_offsety(i)) {
                    out.push(arith_finding(t, &t.text.clone()));
                }
            }
            _ => {}
        }
    }

    // `let addr = base + off * elem;` — the *binding name* marks the
    // value as an address even when no operand does.
    let mut k = 0;
    while k < tokens.len() {
        if tokens[k].is_ident("let") {
            if let Some((name, _, rhs)) = let_binding(tokens, k) {
                if is_offsety(&name) {
                    let mut nest = 0i64;
                    for j in rhs.clone() {
                        let t = &tokens[j];
                        match t.kind {
                            TokenKind::Open(_) => nest += 1,
                            TokenKind::Close(_) => nest -= 1,
                            TokenKind::Punct
                                if nest == 0
                                    && (t.text == "+" || t.text == "*")
                                    && operand_before(tokens, j)
                                    && operand_after(tokens, j) =>
                            {
                                out.push(Finding {
                                    line: t.line,
                                    message: format!(
                                        "raw `{}` computing address binding `{name}`; use `checked_add`/`checked_mul` (or `saturating_*` for watermarks) so release-mode wrap cannot alias a wrong device address",
                                        t.text
                                    ),
                                });
                                break;
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        k += 1;
    }

    out.sort_by_key(|f| f.line);
    out.dedup();
    out
}

fn arith_finding(t: &Token, op: &str) -> Finding {
    Finding {
        line: t.line,
        message: format!(
            "raw `{op}` on an offset/address expression; use `checked_add`/`checked_mul` (or `saturating_*` for watermarks) so release-mode wrap cannot alias a wrong device address"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lines(f: &[Finding]) -> Vec<usize> {
        f.iter().map(|f| f.line).collect()
    }

    #[test]
    fn guard_live_across_wait_fires() {
        let src = "\
fn f(&self) {
    let st = self.state.lock();
    self.handle.wait();
}
";
        let f = guard_across_boundary(&lex(src).tokens);
        assert_eq!(lines(&f), [3]);
        assert!(f[0].message.contains("`st`"));
        assert!(f[0].message.contains("wait"));
    }

    #[test]
    fn guard_live_across_submit_and_block_on() {
        let src = "\
fn f(&self) {
    let mut q = self.queue.write();
    rt.submit(job);
    block_on(fut);
}
";
        assert_eq!(lines(&guard_across_boundary(&lex(src).tokens)), [3, 4]);
    }

    #[test]
    fn condvar_handoff_is_exempt() {
        let src = "\
fn f(&self) {
    let mut st = self.core.state.lock();
    while !st.done {
        self.core.done_cv.wait(&mut st);
    }
}
";
        assert!(guard_across_boundary(&lex(src).tokens).is_empty());
    }

    #[test]
    fn dropped_scoped_and_shadowed_guards_are_dead() {
        let drop_src = "\
fn f(&self) {
    let g = self.m.lock();
    drop(g);
    self.h.wait();
}
";
        assert!(guard_across_boundary(&lex(drop_src).tokens).is_empty());

        let scope_src = "\
fn f(&self) {
    {
        let g = self.m.lock();
        g.push(1);
    }
    self.h.wait();
}
";
        assert!(guard_across_boundary(&lex(scope_src).tokens).is_empty());

        let block_rhs = "\
fn f(&self) {
    let task = { let mut q = self.queue.lock(); q.pop() };
    self.h.wait();
}
";
        assert!(guard_across_boundary(&lex(block_rhs).tokens).is_empty());

        let shadow = "\
fn f(&self) {
    let v = self.m.lock();
    let v = v.len();
    self.h.wait();
}
";
        assert!(guard_across_boundary(&lex(shadow).tokens).is_empty());
    }

    #[test]
    fn projection_binds_a_value_not_a_guard() {
        let src = "\
fn f(&self) {
    let n = self.m.lock().len();
    self.h.wait();
}
";
        assert!(guard_across_boundary(&lex(src).tokens).is_empty());
    }

    #[test]
    fn fn_definitions_are_not_boundaries() {
        let src = "\
fn wait(&self) {
    let g = self.m.lock();
    g.bump();
}
";
        assert!(guard_across_boundary(&lex(src).tokens).is_empty());
    }

    #[test]
    fn blocking_in_task_fires_inside_submission_closures() {
        let src = "\
fn f(ring: &Ring) {
    ring.submit_job(ds, Box::new(move || {
        let data = std::fs::read(path);
        thread::sleep(d);
    }));
    g.add_task(\"t\", || std::net::TcpStream::connect(a));
    ring.submit_with(ds, op, Box::new(|first, _| { thread::sleep(d); first }));
}
";
        let f = blocking_in_task(&lex(src).tokens);
        assert_eq!(lines(&f), [3, 4, 6, 7]);
        assert!(f[0].message.contains("std::fs"));
        assert!(f[1].message.contains("thread::sleep"));
        assert!(f[2].message.contains("std::net"));
        assert!(f[3].message.contains("submit_with("));
    }

    #[test]
    fn blocking_outside_closures_or_submissions_is_fine() {
        let before = "\
fn f(ring: &Ring) {
    let data = std::fs::read(path);
    ring.submit_job(ds, Box::new(move || consume(data)));
}
";
        assert!(blocking_in_task(&lex(before).tokens).is_empty());
        // Submission without a closure argument.
        let no_closure = "fn f(ring: &Ring) { ring.submit_keyed(ds, prebuilt); }\n";
        assert!(blocking_in_task(&lex(no_closure).tokens).is_empty());
        // A local fn named spawn, not method-called.
        let free_fn = "fn f() { spawn(|| std::fs::read(p)); }\n";
        assert!(blocking_in_task(&lex(free_fn).tokens).is_empty());
    }

    #[test]
    fn offset_arith_fires_on_raw_ops() {
        let toks = lex("fn f() { let end = offset + data.len() as u64; }").tokens;
        assert_eq!(lines(&unchecked_offset_arith(&toks)), [1]);
        let toks = lex("fn f(m: &mut Meta) { m.eof += nbytes; }").tokens;
        assert_eq!(lines(&unchecked_offset_arith(&toks)), [1]);
        let toks = lex("fn f() { if prev.addr + prev.len == addr { merge(); } }").tokens;
        assert_eq!(lines(&unchecked_offset_arith(&toks)), [1]);
        // Binding-name form: operands are innocent, the LHS is an address.
        let toks = lex("fn f() { let addr = base + off * elem; }").tokens;
        assert_eq!(lines(&unchecked_offset_arith(&toks)), [1]);
    }

    #[test]
    fn offset_arith_ignores_checked_and_unrelated_math() {
        let ok = "\
fn f() {
    let end = offset.checked_add(len).ok_or(e)?;
    let count = items * width;
    total_bytes += nbytes;
    let x = *ptr;
    let r = &*guard;
}
";
        assert!(unchecked_offset_arith(&lex(ok).tokens).is_empty());
    }
}
