//! The two rule families from DESIGN.md §5b8, implemented over the lexed
//! token stream:
//!
//! - `metric-undeclared` / `metric-unused` — telemetry names: every name
//!   emitted through `agnn-obs` must exist in the registry module and every
//!   registered name must be emitted somewhere.
//! - `panic-site` — serve-path panic safety: no
//!   `unwrap`/`expect`/`panic!`-family/literal-index in the inference and
//!   CLI crates without an `invariant:` comment.
//!
//! Plus the allow-comment meta rules `allow-unknown-rule` and
//! `allow-missing-justification`, which police the escape hatch itself.

use crate::report::{Finding, Report};
use crate::source::SourceFile;

/// Every valid rule ID, for `lint:allow(...)` validation.
pub const RULES: &[&str] = &[
    "metric-undeclared",
    "metric-unused",
    "panic-site",
    "allow-unknown-rule",
    "allow-missing-justification",
];

/// `agnn-obs` functions whose first string-literal argument is a telemetry
/// name (emit sites and snapshot lookups).
const EMIT_FNS: &[&str] =
    &["counter_add", "gauge_set", "observe", "timed", "span", "event", "counter", "gauge", "histogram"];

/// Scoping knobs. Paths are workspace-relative with `/` separators;
/// `registry_file` matches by suffix, `panic_paths` by prefix.
pub struct Config {
    /// The telemetry-name registry module.
    pub registry_file: String,
    /// Crates whose panic sites must carry invariant comments.
    pub panic_paths: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            registry_file: "crates/obs/src/names.rs".into(),
            panic_paths: vec!["crates/infer/src/".into(), "crates/cli/src/".into(), "crates/serve/src/".into()],
        }
    }
}

/// Runs every rule over the parsed files and returns the finalized report.
pub fn run(files: &[SourceFile], cfg: &Config) -> Report {
    let mut out = Vec::new();
    for f in files {
        check_allow_comments(f, &mut out);
        if cfg.panic_paths.iter().any(|p| f.path.starts_with(p.as_str())) {
            check_panic_sites(f, &mut out);
        }
    }
    check_metric_names(files, cfg, &mut out);
    let mut report = Report { files_scanned: files.len(), findings: out };
    report.finalize();
    report
}

/// Records a finding unless an allow-comment for `rule` covers the line.
fn push(f: &SourceFile, rule: &'static str, line: u32, col: u32, message: String, out: &mut Vec<Finding>) {
    if f.allowed(rule, line) {
        return;
    }
    out.push(Finding { rule, file: f.path.clone(), line, col, message, snippet: f.snippet(line) });
}

/// The escape hatch is itself linted: unknown rule IDs and missing
/// justifications are violations (these cannot be allowed away).
fn check_allow_comments(f: &SourceFile, out: &mut Vec<Finding>) {
    for a in &f.allows {
        if !RULES.contains(&a.rule.as_str()) {
            out.push(Finding {
                rule: "allow-unknown-rule",
                file: f.path.clone(),
                line: a.line,
                col: 1,
                message: format!("lint:allow({}) names an unknown rule; valid rules: {}", a.rule, RULES.join(", ")),
                snippet: f.snippet(a.line),
            });
        } else if !a.justified {
            out.push(Finding {
                rule: "allow-missing-justification",
                file: f.path.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "lint:allow({}) requires a justification: `// lint:allow({}): <why this is sound>`",
                    a.rule, a.rule
                ),
                snippet: f.snippet(a.line),
            });
        }
    }
}

/// Serve-path panic safety: `unwrap`/`expect`/`panic!`-family macros and
/// bare integer-literal indexing must carry an `invariant:` comment stating
/// why they cannot fire.
fn check_panic_sites(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if f.is_test_line(t.line) || f.has_invariant(t.line) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_paren = i + 1 < toks.len() && toks[i + 1].is_punct('(');
        if t.kind == crate::lexer::TokKind::Ident {
            let msg = if t.text == "unwrap" && prev_dot && next_paren && i + 2 < toks.len() && toks[i + 2].is_punct(')') {
                Some("`.unwrap()` on the serve path".to_string())
            } else if t.text == "expect" && prev_dot && next_paren {
                Some("`.expect(..)` on the serve path".to_string())
            } else if ["panic", "unreachable", "todo", "unimplemented"].contains(&t.text.as_str())
                && i + 1 < toks.len()
                && toks[i + 1].is_punct('!')
            {
                Some(format!("`{}!` on the serve path", t.text))
            } else {
                None
            };
            if let Some(what) = msg {
                push(
                    f,
                    "panic-site",
                    t.line,
                    t.col,
                    format!("{what}: return an error instead, or document why it cannot fire with `// invariant: ...`"),
                    out,
                );
            }
        }
        // Literal indexing `expr[0]`: `[` preceded by an index-able
        // expression end and wrapping a lone integer literal.
        if t.is_punct('[') && i > 0 && i + 2 < toks.len() {
            let p = &toks[i - 1];
            let indexable = p.kind == crate::lexer::TokKind::Ident || p.is_punct(')') || p.is_punct(']');
            let n = &toks[i + 1];
            let lone_int = n.kind == crate::lexer::TokKind::Num && !n.text.contains('.') && toks[i + 2].is_punct(']');
            if indexable && lone_int && !p.is_ident("cfg") {
                push(
                    f,
                    "panic-site",
                    n.line,
                    n.col,
                    format!(
                        "unguarded literal index `[{}]` on the serve path: use `.get({})` or document the \
                         length invariant with `// invariant: ...`",
                        n.text, n.text
                    ),
                    out,
                );
            }
        }
    }
}

/// A telemetry name as emitted or declared: dotted segments, `{..}` format
/// captures normalized to the `*` wildcard.
fn normalize(name: &str) -> Vec<String> {
    name.split('.')
        .map(|s| if s.contains('{') || s == "*" { "*".to_string() } else { s.to_string() })
        .collect()
}

/// Two normalized names match when they have the same arity and every
/// segment pair agrees or either side is the wildcard.
fn names_match(a: &[String], b: &[String]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == "*" || y == "*" || x == y)
}

struct EmitSite {
    file: usize,
    line: u32,
    col: u32,
    raw: String,
    norm: Vec<String>,
}

struct RegEntry {
    line: u32,
    raw: String,
    norm: Vec<String>,
}

/// Telemetry-name registry: cross-file two-phase check. Phase 1 collects
/// every name emitted through the `agnn-obs` emit fns and every name
/// declared in the registry module; phase 2 reports emits that are not
/// declared and declarations that are never emitted. Skipped entirely when
/// the registry module is not among the scanned files (fixture runs for
/// other rules).
fn check_metric_names(files: &[SourceFile], cfg: &Config, out: &mut Vec<Finding>) {
    let Some(reg_idx) = files.iter().position(|f| f.path.ends_with(&cfg.registry_file)) else {
        return;
    };
    let registry = parse_registry(&files[reg_idx]);
    let mut emits: Vec<EmitSite> = Vec::new();
    for (idx, f) in files.iter().enumerate() {
        if idx == reg_idx {
            continue;
        }
        collect_emits(f, idx, &mut emits);
    }
    for e in &emits {
        if !registry.iter().any(|r| names_match(&e.norm, &r.norm)) {
            let f = &files[e.file];
            push(
                f,
                "metric-undeclared",
                e.line,
                e.col,
                format!("telemetry name \"{}\" is not declared in the registry ({})", e.raw, cfg.registry_file),
                out,
            );
        }
    }
    for r in &registry {
        if !emits.iter().any(|e| names_match(&e.norm, &r.norm)) {
            push(
                &files[reg_idx],
                "metric-unused",
                r.line,
                1,
                format!("registry name \"{}\" is never emitted; remove it or wire up the emit site", r.raw),
                out,
            );
        }
    }
}

/// Registry entries are `pub const NAME: &str = "dotted.name";` items.
fn parse_registry(f: &SourceFile) -> Vec<RegEntry> {
    let toks = &f.lexed.toks;
    let mut entries = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("const") && !f.is_test_line(toks[i].line) {
            // Find the string literal before the terminating `;`.
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct(';') {
                if toks[j].kind == crate::lexer::TokKind::Str {
                    let raw = toks[j].text.clone();
                    entries.push(RegEntry { line: toks[j].line, norm: normalize(&raw), raw });
                    break;
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    entries
}

/// An emit site is an `EMIT_FNS` call whose first argument contains a
/// dotted string literal (possibly inside `format!`). Identifiers directly
/// after `fn` are declarations, not calls.
fn collect_emits(f: &SourceFile, file_idx: usize, emits: &mut Vec<EmitSite>) {
    let toks = &f.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if f.is_test_line(t.line)
            || t.kind != crate::lexer::TokKind::Ident
            || !EMIT_FNS.contains(&t.text.as_str())
            || (i > 0 && toks[i - 1].is_ident("fn"))
            || i + 1 >= toks.len()
            || !toks[i + 1].is_punct('(')
        {
            continue;
        }
        // First string literal within the call's balanced argument region.
        let mut depth = 1i32;
        let mut j = i + 2;
        while j < toks.len() && depth > 0 {
            let tok = &toks[j];
            if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
                depth -= 1;
            } else if tok.kind == crate::lexer::TokKind::Str {
                if tok.text.contains('.') {
                    emits.push(EmitSite {
                        file: file_idx,
                        line: tok.line,
                        col: tok.col,
                        norm: normalize(&tok.text),
                        raw: tok.text.clone(),
                    });
                }
                break;
            }
            j += 1;
        }
    }
}
