//! Per-file source model shared by every rule: the token stream, raw lines
//! for snippets, `// lint:allow(<rule>): <why>` records, `// invariant:`
//! coverage for panic sites, and the line ranges occupied by `#[cfg(test)]`
//! items (rules only police shipped code).
//!
//! Allow/invariant comments cover two lines: the line the comment sits on
//! (trailing form) and the next token-bearing line below it (standalone
//! form). That is the entire grammar — an allow above a blank line does not
//! leak further down.

use crate::lexer::{lex, Lexed};

/// A parsed `lint:allow` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule ID between the parens, e.g. `panic-site`.
    pub rule: String,
    /// Line the comment sits on.
    pub line: u32,
    /// The next token-bearing line at or below `line` (== `line` for a
    /// trailing comment).
    pub covers: u32,
    /// True when a non-empty justification follows `): `.
    pub justified: bool,
}

/// One analyzable source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub lexed: Lexed,
    /// Raw lines, for finding snippets (index 0 = line 1).
    pub lines: Vec<String>,
    pub allows: Vec<Allow>,
    /// Lines covered by an `invariant:` comment (the comment's own line and
    /// the next token-bearing line).
    pub invariant_lines: Vec<u32>,
    /// `is_test_line[line as usize]` — inside a `#[cfg(test)]` item.
    is_test_line: Vec<bool>,
}

impl SourceFile {
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let lexed = lex(text);
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let is_test_line = cfg_test_lines(&lexed, lines.len());
        let mut allows = Vec::new();
        let mut invariant_lines = Vec::new();
        for c in &lexed.comments {
            let covers = next_token_line(&lexed, c.line);
            if let Some(a) = parse_allow(&c.text, c.line, covers) {
                allows.push(a);
            }
            if c.text.contains("invariant:") {
                invariant_lines.push(c.line);
                invariant_lines.push(covers);
            }
        }
        SourceFile { path: path.to_string(), lexed, lines, allows, invariant_lines, is_test_line }
    }

    /// True when `line` is inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.is_test_line.get(line as usize).copied().unwrap_or(false)
    }

    /// True when an allow for `rule` covers `line` (justified or not —
    /// justification quality is policed separately so one bad comment does
    /// not double-report).
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| a.rule == rule && (a.line == line || a.covers == line))
    }

    /// True when an `invariant:` comment covers `line`.
    pub fn has_invariant(&self, line: u32) -> bool {
        self.invariant_lines.contains(&line)
    }

    /// The trimmed source text of `line` (1-based), for report snippets.
    pub fn snippet(&self, line: u32) -> String {
        self.lines.get(line as usize - 1).map(|l| l.trim().to_string()).unwrap_or_default()
    }
}

/// The first line >= `after` that carries a token; falls back to `after`
/// itself at end of file so trailing comments still cover something.
fn next_token_line(lexed: &Lexed, after: u32) -> u32 {
    lexed.toks.iter().map(|t| t.line).filter(|&l| l >= after).min().unwrap_or(after)
}

/// Parses `lint:allow(<rule>)` or `lint:allow(<rule>): <why>` out of a
/// comment body. Returns `None` when the marker is absent entirely, or when
/// the parenthesized text is not shaped like a rule ID (lowercase-kebab) —
/// that distinguishes real allows from prose *about* the allow grammar.
fn parse_allow(text: &str, line: u32, covers: u32) -> Option<Allow> {
    let rest = text.split("lint:allow(").nth(1)?;
    let (rule, after) = rest.split_once(')')?;
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
        return None;
    }
    let justified = match after.trim_start().strip_prefix(':') {
        Some(why) => !why.trim().is_empty(),
        None => false,
    };
    Some(Allow { rule: rule.trim().to_string(), line, covers, justified })
}

/// Marks the line span of every `#[cfg(test)]` braced item. Recognizes the
/// token shape `# [ cfg ( test ) ]`, then the item's `{ ... }` body; an
/// attribute whose item ends in `;` before any `{` (e.g. a gated `use`)
/// marks just the statement's lines.
fn cfg_test_lines(lexed: &Lexed, num_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; num_lines + 2];
    let t = &lexed.toks;
    let mut i = 0;
    while i + 6 < t.len() {
        let is_marker = t[i].is_punct('#')
            && t[i + 1].is_punct('[')
            && t[i + 2].is_ident("cfg")
            && t[i + 3].is_punct('(')
            && t[i + 4].is_ident("test")
            && t[i + 5].is_punct(')')
            && t[i + 6].is_punct(']');
        if !is_marker {
            i += 1;
            continue;
        }
        let start_line = t[i].line;
        // Find the item's opening brace, or a terminating `;` for braceless
        // items. Any nesting before that point belongs to other attributes
        // or generics and cannot contain `{`/`;` at item level.
        let mut j = i + 7;
        let mut end_line = start_line;
        while j < t.len() {
            if t[j].is_punct('{') {
                // Brace-match to the end of the body.
                let mut depth = 1i32;
                let mut k = j + 1;
                while k < t.len() && depth > 0 {
                    if t[k].is_punct('{') {
                        depth += 1;
                    } else if t[k].is_punct('}') {
                        depth -= 1;
                    }
                    k += 1;
                }
                end_line = if k > 0 { t[k - 1].line } else { start_line };
                j = k;
                break;
            }
            if t[j].is_punct(';') {
                end_line = t[j].line;
                j += 1;
                break;
            }
            j += 1;
        }
        for l in start_line..=end_line {
            if (l as usize) < mask.len() {
                mask[l as usize] = true;
            }
        }
        i = j.max(i + 7);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_and_standalone_allows_cover_their_lines() {
        let src = "\
let a = v[0]; // lint:allow(panic-site): v is never empty\n\
\n\
// lint:allow(panic-site): standalone form\n\
let x = 1;\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.allowed("panic-site", 1));
        assert!(f.allowed("panic-site", 4), "standalone allow must cover the next token line");
        assert!(!f.allowed("panic-site", 2));
        assert!(!f.allowed("metric-unused", 1), "allow is per-rule");
    }

    #[test]
    fn justification_is_detected() {
        let f = SourceFile::parse(
            "a.rs",
            "let a = 1; // lint:allow(panic-site)\nlet b = 2; // lint:allow(panic-site): reason\nlet c = 3; // lint:allow(x):   \n",
        );
        assert_eq!(f.allows.len(), 3);
        assert!(!f.allows[0].justified);
        assert!(f.allows[1].justified);
        assert!(!f.allows[2].justified, "whitespace-only justification does not count");
    }

    #[test]
    fn cfg_test_mod_lines_are_masked() {
        let src = "\
fn shipped() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    use super::*;\n\
    #[test]\n\
    fn t() { shipped() }\n\
}\n\
fn also_shipped() {}\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(6));
        assert!(f.is_test_line(7));
        assert!(!f.is_test_line(8));
    }

    #[test]
    fn cfg_test_braceless_item_masks_only_its_statement() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn shipped() {}\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn invariant_comments_cover_next_token_line() {
        let src = "// invariant: levels is non-empty by construction\nlet last = levels.last().expect(\"non-empty\");\nlet other = 1;\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.has_invariant(2));
        assert!(!f.has_invariant(3));
    }
}
