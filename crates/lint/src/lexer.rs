//! A minimal Rust lexer: just enough token structure for source-level
//! invariant checks — identifiers, string/char/number literals, single-char
//! punctuation, and line comments (kept, because `// lint:allow(...)` and
//! `// invariant:` annotations live there). Block comments and doc comments
//! are skipped entirely, so prose mentioning `unwrap` or `expect` never
//! trips a rule. This is deliberately not a parser: every rule in
//! [`crate::rules`] is phrased over token adjacency and bracket depth,
//! which the lexer provides exactly.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `unwrap`, ...).
    Ident,
    /// String literal; `text` holds the unescaped-ish body (escapes copied
    /// verbatim minus the backslash), without quotes.
    Str,
    /// Numeric literal (`0`, `1_000`, `0x5eed`, `1e-3`, `2.5f32`).
    Num,
    /// Char literal body (`'a'`, `'\n'`).
    Char,
    /// Lifetime (`'a`) — kept distinct so it is never mistaken for a char.
    Lifetime,
    /// Single punctuation character (`.`, `(`, `[`, `!`, ...).
    Punct,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    /// True for a punctuation token equal to `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// True for an identifier token equal to `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// One `//` line comment (body after the slashes, untrimmed).
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// Lexer output: the token stream plus all line comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lexes `src`. Unterminated literals are tolerated (the remainder of the
/// file becomes one token) — the analyzer must never panic on weird input,
/// it reports on what it can see.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    // Advances one char, tracking line/col.
    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let (tline, tcol) = (line, col);
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Line comments (including `///` doc comments — same shape).
        if c == '/' && i + 1 < chars.len() && chars[i + 1] == '/' {
            let mut text = String::new();
            bump!();
            bump!();
            while i < chars.len() && chars[i] != '\n' {
                text.push(chars[i]);
                bump!();
            }
            out.comments.push(Comment { line: tline, text });
            continue;
        }
        // Nested block comments, skipped wholesale.
        if c == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
            let mut depth = 1u32;
            bump!();
            bump!();
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                    depth += 1;
                    bump!();
                    bump!();
                } else if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                    depth -= 1;
                    bump!();
                    bump!();
                } else {
                    bump!();
                }
            }
            continue;
        }
        // Raw / byte string prefixes: r"..", r#".."#, b"..", br#".."#.
        if (c == 'r' || c == 'b') && i + 1 < chars.len() {
            let mut j = i + 1;
            if (c == 'b' && j < chars.len() && chars[j] == 'r') || (c == 'r' && j < chars.len() && chars[j] == 'b') {
                j += 1;
            }
            let mut hashes = 0usize;
            while j < chars.len() && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < chars.len() && chars[j] == '"' && (hashes > 0 || j == i + 1 || j == i + 2) {
                // Consume prefix and opening quote.
                while i <= j {
                    bump!();
                }
                let mut text = String::new();
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        // A closing quote must be followed by `hashes` #s.
                        let mut k = i + 1;
                        let mut seen = 0usize;
                        while k < chars.len() && seen < hashes && chars[k] == '#' {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            bump!();
                            for _ in 0..hashes {
                                bump!();
                            }
                            break 'raw;
                        }
                    }
                    text.push(chars[i]);
                    bump!();
                }
                out.toks.push(Tok { kind: TokKind::Str, text, line: tline, col: tcol });
                continue;
            }
            // Not a raw string: fall through to the identifier arm.
        }
        if c == '"' {
            bump!();
            let mut text = String::new();
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' && i + 1 < chars.len() {
                    bump!();
                    text.push(chars[i]);
                    bump!();
                } else {
                    text.push(chars[i]);
                    bump!();
                }
            }
            if i < chars.len() {
                bump!(); // closing quote
            }
            out.toks.push(Tok { kind: TokKind::Str, text, line: tline, col: tcol });
            continue;
        }
        if c == '\'' {
            // Lifetime vs char literal. `'ident` NOT followed by a closing
            // quote is a lifetime; everything else is a char literal.
            let j = i + 1;
            if j < chars.len() && chars[j] != '\\' && (chars[j].is_alphanumeric() || chars[j] == '_') {
                let mut k = j;
                while k < chars.len() && (chars[k].is_alphanumeric() || chars[k] == '_') {
                    k += 1;
                }
                if k >= chars.len() || chars[k] != '\'' {
                    // Lifetime.
                    let text: String = chars[j..k].iter().collect();
                    while i < k {
                        bump!();
                    }
                    out.toks.push(Tok { kind: TokKind::Lifetime, text, line: tline, col: tcol });
                    continue;
                }
            }
            // Char literal.
            bump!(); // opening quote
            let mut text = String::new();
            if i < chars.len() && chars[i] == '\\' {
                bump!();
                if i < chars.len() {
                    text.push(chars[i]);
                    bump!();
                }
                // Multi-char escapes (\u{..}, \x..) — consume to quote.
                while i < chars.len() && chars[i] != '\'' {
                    text.push(chars[i]);
                    bump!();
                }
            } else {
                while i < chars.len() && chars[i] != '\'' {
                    text.push(chars[i]);
                    bump!();
                }
            }
            if i < chars.len() {
                bump!(); // closing quote
            }
            out.toks.push(Tok { kind: TokKind::Char, text, line: tline, col: tcol });
            continue;
        }
        if c.is_ascii_digit() {
            let mut text = String::new();
            while i < chars.len() {
                let d = chars[i];
                let next_is_digit = i + 1 < chars.len() && chars[i + 1].is_ascii_digit();
                if d.is_alphanumeric() || d == '_' {
                    // `1e-3` / `1E+7`: the sign belongs to the number.
                    text.push(d);
                    let exp = d == 'e' || d == 'E';
                    bump!();
                    if exp && i < chars.len() && (chars[i] == '+' || chars[i] == '-') && i + 1 < chars.len() && chars[i + 1].is_ascii_digit() {
                        text.push(chars[i]);
                        bump!();
                    }
                } else if d == '.' && next_is_digit && !text.contains('.') && !text.starts_with("0x") {
                    // Float point — but never consume `..` range dots.
                    text.push(d);
                    bump!();
                } else {
                    break;
                }
            }
            out.toks.push(Tok { kind: TokKind::Num, text, line: tline, col: tcol });
            continue;
        }
        if c.is_alphanumeric() || c == '_' {
            let mut text = String::new();
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                text.push(chars[i]);
                bump!();
            }
            out.toks.push(Tok { kind: TokKind::Ident, text, line: tline, col: tcol });
            continue;
        }
        // Everything else: single punctuation char.
        out.toks.push(Tok { kind: TokKind::Punct, text: c.to_string(), line: tline, col: tcol });
        bump!();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).toks.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        let ts = kinds("fn add(a: f32) -> f32 { a + 1.5e-3 }");
        assert!(ts.contains(&(TokKind::Ident, "fn".into())));
        assert!(ts.contains(&(TokKind::Num, "1.5e-3".into())));
        assert!(ts.contains(&(TokKind::Punct, "{".into())));
    }

    #[test]
    fn range_dots_are_not_floats() {
        let ts = kinds("0..n");
        assert_eq!(ts[0], (TokKind::Num, "0".into()));
        assert_eq!(ts[1], (TokKind::Punct, ".".into()));
        assert_eq!(ts[2], (TokKind::Punct, ".".into()));
    }

    #[test]
    fn strings_and_escapes() {
        let ts = kinds(r#"x("serve.parse_errors", "a\"b")"#);
        assert!(ts.contains(&(TokKind::Str, "serve.parse_errors".into())));
        assert!(ts.contains(&(TokKind::Str, "a\"b".into())));
    }

    #[test]
    fn raw_strings() {
        let ts = kinds(r###"let s = r#"{"epochs":4}"#;"###);
        assert!(ts.iter().any(|t| t.0 == TokKind::Str && t.1.contains("epochs")));
        let ts = kinds("r\"plain raw\"");
        assert_eq!(ts, vec![(TokKind::Str, "plain raw".into())]);
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let lexed = lex("let a = 1; // lint:allow(panic-site): reason\n/* unwrap in a block comment */ let b = 2;");
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("lint:allow(panic-site)"));
        assert!(!lexed.toks.iter().any(|t| t.text.contains("unwrap")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ts = kinds("fn f<'a>(x: &'a str) -> char { 'y' }");
        assert!(ts.contains(&(TokKind::Lifetime, "a".into())));
        assert!(ts.contains(&(TokKind::Char, "y".into())));
        let ts = kinds(r"let nl = '\n';");
        assert!(ts.contains(&(TokKind::Char, "n".into())));
    }

    #[test]
    fn positions_are_one_based() {
        let lexed = lex("ab\n  cd");
        assert_eq!((lexed.toks[0].line, lexed.toks[0].col), (1, 1));
        assert_eq!((lexed.toks[1].line, lexed.toks[1].col), (2, 3));
    }

    #[test]
    fn byte_strings_lex_as_strings() {
        let ts = kinds(r##"b"bytes" br#"raw bytes"#"##);
        assert!(ts.iter().any(|t| t.0 == TokKind::Str && t.1 == "bytes"));
    }
}
