//! A small Rust lexer for the static-analysis engine.
//!
//! [`lex`] turns a source file into a flat stream of [`Token`]s with
//! 1-based line numbers. It understands exactly as much of the Rust
//! grammar as the lint rules need, and no more:
//!
//! - line and (nested) block comments are dropped from the token
//!   stream; each plain `//` comment (not `///` or `//!` doc text) is
//!   kept beside it as a [`Comment`], where the waiver markers live;
//! - string / raw-string / byte-string / char literals become a single
//!   [`TokenKind::Literal`] token (contents discarded, so a doc string
//!   mentioning `.unwrap()` can never fire a rule);
//! - `'a` lifetimes are distinguished from `'a'` char literals and
//!   lexed as [`TokenKind::Lifetime`];
//! - multi-character operators (`::`, `->`, `=>`, `..=`, `+=`, `<<=`,
//!   …) are joined with maximal munch so a rule can ask "is this token
//!   exactly `+`?" without being fooled by `+=`;
//! - `(`/`)`, `[`/`]`, `{`/`}` are [`TokenKind::Open`]/[`TokenKind::Close`]
//!   with a [`Delim`], and [`match_delim`] finds the partner of any
//!   opener, which is what gives the dataflow pass brace-matched blocks.
//!
//! The lexer is infallible: unexpected bytes become one-character
//! `Punct` tokens and unterminated literals end at end-of-file. A lint
//! gate must degrade to "no finding", never crash, on weird input.

/// Bracket family of an [`TokenKind::Open`]/[`TokenKind::Close`] token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delim {
    /// `(` / `)`
    Paren,
    /// `[` / `]`
    Bracket,
    /// `{` / `}`
    Brace,
}

/// Classification of one token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`foo`, `fn`, `let`, `r#async`).
    Ident,
    /// Lifetime (`'a`) — the text excludes the leading quote.
    Lifetime,
    /// String / raw-string / byte / char literal; text is `""`.
    Literal,
    /// Numeric literal (`42`, `0xffu64`, `1.5e-3`).
    Num,
    /// Operator or other punctuation, maximal-munch (`::`, `+=`, `.`).
    Punct,
    /// Opening delimiter.
    Open(Delim),
    /// Closing delimiter.
    Close(Delim),
}

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// The token text (empty for [`TokenKind::Literal`]).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// One plain `//` line comment.
#[derive(Debug)]
pub struct Comment {
    /// 1-based source line.
    pub line: usize,
    /// The text after the opening `//`.
    pub text: String,
}

/// A lexed source file: its tokens and its plain line comments.
#[derive(Debug)]
pub struct Lexed {
    /// The token stream, comments dropped.
    pub tokens: Vec<Token>,
    /// Every plain `//` comment, in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character operators, longest first so maximal munch works by
/// first match.
const MULTI_PUNCT: [&str; 24] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lex `src` into tokens and plain line comments. Never fails; see the
/// module docs for the degradation rules.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0;
    let mut line = 1;

    // Advance over `n` chars starting at `i`, counting newlines.
    // Returns the new index. (Closure-free so the borrow checker is
    // happy with `line` updates inline.)
    macro_rules! bump {
        ($n:expr) => {{
            for k in 0..$n {
                if b.get(i + k) == Some(&'\n') {
                    line += 1;
                }
            }
            i += $n;
        }};
    }

    while i < b.len() {
        let c = b[i];

        if c.is_whitespace() {
            bump!(1);
            continue;
        }

        // Line comment; doc text (`///`, `//!`) is prose, not recorded.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            let mut n = 2;
            while b.get(i + n).is_some_and(|&ch| ch != '\n') {
                n += 1;
            }
            if !matches!(b.get(i + 2), Some('/' | '!')) {
                comments.push(Comment {
                    line,
                    text: b[i + 2..i + n].iter().collect(),
                });
            }
            bump!(n);
            continue;
        }

        // Block comment, nesting.
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            let mut n = 0;
            while i + n < b.len() {
                if b[i + n] == '/' && b.get(i + n + 1) == Some(&'*') {
                    depth += 1;
                    n += 2;
                } else if b[i + n] == '*' && b.get(i + n + 1) == Some(&'/') {
                    depth -= 1;
                    n += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    n += 1;
                }
            }
            bump!(n);
            continue;
        }

        // Raw string / raw byte string: r"…", r#"…"#, br"…".
        let raw_start = match c {
            'r' => Some(i + 1),
            'b' if b.get(i + 1) == Some(&'r') => Some(i + 2),
            _ => None,
        };
        if let Some(start) = raw_start {
            if !prev_is_ident(&b, i) {
                let mut hashes = 0;
                let mut j = start;
                while b.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if b.get(j) == Some(&'"') {
                    let tok_line = line;
                    let mut n = j + 1 - i;
                    while i + n < b.len() {
                        if b[i + n] == '"'
                            && b[i + n + 1..].iter().take(hashes).filter(|&&h| h == '#').count()
                                == hashes
                        {
                            n += 1 + hashes;
                            break;
                        }
                        n += 1;
                    }
                    bump!(n);
                    out.push(Token {
                        kind: TokenKind::Literal,
                        text: String::new(),
                        line: tok_line,
                    });
                    continue;
                }
            }
        }

        // String literal (with optional b prefix).
        if c == '"' || (c == 'b' && b.get(i + 1) == Some(&'"') && !prev_is_ident(&b, i)) {
            let tok_line = line;
            let mut n = if c == 'b' { 2 } else { 1 };
            while i + n < b.len() {
                if b[i + n] == '\\' {
                    n += 2;
                    continue;
                }
                if b[i + n] == '"' {
                    n += 1;
                    break;
                }
                n += 1;
            }
            bump!(n);
            out.push(Token {
                kind: TokenKind::Literal,
                text: String::new(),
                line: tok_line,
            });
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            let is_char = match b.get(i + 1) {
                Some('\\') => true,
                Some(ch) if !(ch.is_alphanumeric() || *ch == '_') => {
                    b.get(i + 2) == Some(&'\'')
                }
                Some(_) => b.get(i + 2) == Some(&'\''),
                None => false,
            };
            // `'a'` is a char; `'a` (no closing quote) is a lifetime.
            if is_char {
                let tok_line = line;
                let mut n = 1;
                while i + n < b.len() {
                    if b[i + n] == '\\' {
                        n += 2;
                        continue;
                    }
                    if b[i + n] == '\'' {
                        n += 1;
                        break;
                    }
                    n += 1;
                }
                bump!(n);
                out.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line: tok_line,
                });
            } else {
                let mut n = 1;
                let mut text = String::new();
                while b
                    .get(i + n)
                    .is_some_and(|&ch| ch.is_alphanumeric() || ch == '_')
                {
                    text.push(b[i + n]);
                    n += 1;
                }
                out.push(Token {
                    kind: TokenKind::Lifetime,
                    text,
                    line,
                });
                bump!(n);
            }
            continue;
        }

        // Number.
        if c.is_ascii_digit() {
            let mut n = 0;
            let mut text = String::new();
            while let Some(&ch) = b.get(i + n) {
                let cont = ch.is_alphanumeric()
                    || ch == '_'
                    || ch == '.'
                        // `1..x` range, `1.method()` — don't eat `..` or `.m`.
                        && b.get(i + n + 1).is_some_and(|&nx| nx.is_ascii_digit())
                    || (ch == '+' || ch == '-')
                        && text
                            .chars()
                            .last()
                            .is_some_and(|p| p == 'e' || p == 'E')
                        && text.starts_with(|f: char| f.is_ascii_digit())
                        && !text.starts_with("0x");
                if !cont {
                    break;
                }
                text.push(ch);
                n += 1;
            }
            out.push(Token {
                kind: TokenKind::Num,
                text,
                line,
            });
            bump!(n);
            continue;
        }

        // Identifier / keyword (incl. raw identifiers r#foo).
        if c.is_alphanumeric() || c == '_' {
            let mut n = 0;
            let mut text = String::new();
            if c == 'r' && b.get(i + 1) == Some(&'#') {
                n = 2;
            }
            while b
                .get(i + n)
                .is_some_and(|&ch| ch.is_alphanumeric() || ch == '_')
            {
                text.push(b[i + n]);
                n += 1;
            }
            out.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
            });
            bump!(n);
            continue;
        }

        // Delimiters.
        let delim = match c {
            '(' => Some((TokenKind::Open(Delim::Paren), "(")),
            ')' => Some((TokenKind::Close(Delim::Paren), ")")),
            '[' => Some((TokenKind::Open(Delim::Bracket), "[")),
            ']' => Some((TokenKind::Close(Delim::Bracket), "]")),
            '{' => Some((TokenKind::Open(Delim::Brace), "{")),
            '}' => Some((TokenKind::Close(Delim::Brace), "}")),
            _ => None,
        };
        if let Some((kind, text)) = delim {
            out.push(Token {
                kind,
                text: text.to_owned(),
                line,
            });
            bump!(1);
            continue;
        }

        // Maximal-munch punctuation.
        let rest: String = b[i..b.len().min(i + 3)].iter().collect();
        let multi = MULTI_PUNCT.iter().find(|p| rest.starts_with(**p));
        if let Some(p) = multi {
            out.push(Token {
                kind: TokenKind::Punct,
                text: (*p).to_owned(),
                line,
            });
            bump!(p.len());
            continue;
        }
        out.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
        bump!(1);
    }
    Lexed {
        tokens: out,
        comments,
    }
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

/// Index of the [`TokenKind::Close`] token matching the
/// [`TokenKind::Open`] at `open`, or `None` when unbalanced (truncated
/// file) or `open` is not an opener.
pub fn match_delim(tokens: &[Token], open: usize) -> Option<usize> {
    let TokenKind::Open(want) = tokens.get(open)?.kind else {
        return None;
    };
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Open(d) if d == want => depth += 1,
            TokenKind::Close(d) if d == want => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_vanish() {
        let toks =
            lex("a // x.unwrap()\nb /* panic!( /* nested */ ) */ c \"lit .wait()\" d").tokens;
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["a", "b", "c", "d"]);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::Literal).count(),
            1
        );
    }

    #[test]
    fn plain_line_comments_are_recorded_and_doc_text_is_not() {
        let src = "/// doc\n//! inner\na // x.unwrap()\n\"// str\" r#\"// raw\"# /* // block */ b\n// last";
        let lexed = lex(src);
        let got: Vec<(usize, &str)> = lexed
            .comments
            .iter()
            .map(|c| (c.line, c.text.as_str()))
            .collect();
        assert_eq!(got, [(3, " x.unwrap()"), (5, " last")]);
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        let toks = lex(r#"let m = "say \".unwrap()\" loudly"; after"#).tokens;
        assert!(!toks.iter().any(|t| t.text == "unwrap"));
        assert!(toks.last().is_some_and(|t| t.is_ident("after")));
    }

    #[test]
    fn raw_strings_and_bytes_are_single_literals() {
        let toks = lex(r##"let x = r#"panic!("no")"#; let y = b"bytes"; let c = 'q';"##).tokens;
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::Literal).count(),
            3
        );
        assert!(!toks.iter().any(|t| t.text == "panic"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = lex("fn f<'a>(v: &'a str) { let c = 'x'; }").tokens;
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "a"]);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::Literal).count(),
            1
        );
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "one\n\"multi\nline\"\nfour";
        let toks = lex(src).tokens;
        assert_eq!(toks[0].line, 1); // one
        assert_eq!(toks[1].line, 2); // the literal starts on line 2
        assert_eq!(toks[2].line, 4); // four
    }

    #[test]
    fn maximal_munch_operators() {
        assert_eq!(texts("a += b; c..=d; x <<= 2; p -> q; m::n"), [
            "a", "+=", "b", ";", "c", "..=", "d", ";", "x", "<<=", "2", ";", "p", "->", "q", ";",
            "m", "::", "n"
        ]);
        // A bare `+` stays a bare `+`.
        let toks = lex("a + b * c").tokens;
        assert!(toks[1].is_punct("+") && toks[3].is_punct("*"));
    }

    #[test]
    fn numeric_literals_hold_together() {
        assert_eq!(texts("0xff_u64 1.5e-3 42usize 1..n"), [
            "0xff_u64", "1.5e-3", "42usize", "1", "..", "n"
        ]);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = lex("let r#async = 1;").tokens;
        assert!(toks.iter().any(|t| t.is_ident("async")));
    }

    #[test]
    fn delimiters_match() {
        let toks = lex("fn f(a: u32) { if x { y(z[0]) } }").tokens;
        let open_brace = toks
            .iter()
            .position(|t| t.kind == TokenKind::Open(Delim::Brace))
            .unwrap();
        let close = match_delim(&toks, open_brace).unwrap();
        assert_eq!(close, toks.len() - 1);
        let open_paren = toks
            .iter()
            .position(|t| t.kind == TokenKind::Open(Delim::Paren))
            .unwrap();
        let close_paren = match_delim(&toks, open_paren).unwrap();
        assert_eq!(toks[close_paren + 1].text, "{");
    }

    #[test]
    fn unbalanced_input_degrades_without_panic() {
        let toks = lex("fn f( { \"unterminated").tokens;
        assert!(match_delim(&toks, 2).is_none());
        assert!(!toks.is_empty());
    }
}
