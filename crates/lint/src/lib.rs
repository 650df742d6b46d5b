//! `agnn-lint` — source-level invariant analysis for the AGNN workspace.
//!
//! Where `agnn check` audits the *runtime tape* (dead parameters, shape
//! violations, NaN provenance), this crate audits the *source tree* for the
//! conventions that keep results bit-identical under parallelism, telemetry
//! names consistent, and the serve path panic-free. See DESIGN.md §5b8 for the rule families and
//! the `// lint:allow(<rule>): <why>` escape-hatch grammar.
//!
//! The crate is deliberately dependency-free (hand-rolled lexer, hand-
//! rendered JSON): it builds and runs identically in CI and in stripped-
//! down offline environments, and `agnn lint` adds no compile cost beyond
//! itself.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use report::{Finding, Report};
pub use rules::Config;

use source::SourceFile;
use std::path::Path;

/// An in-memory file for analysis; paths are workspace-relative with `/`
/// separators (used for rule scoping).
pub struct FileInput {
    pub path: String,
    pub text: String,
}

/// Analyzes the given files under `cfg`. Pure — the fixture tests drive
/// this directly with seeded violations.
pub fn lint_files(files: &[FileInput], cfg: &Config) -> Report {
    let parsed: Vec<SourceFile> = files.iter().map(|f| SourceFile::parse(&f.path, &f.text)).collect();
    rules::run(&parsed, cfg)
}

/// Walks `root` (a workspace checkout) and analyzes every `crates/*/src`
/// Rust file under the default [`Config`]. Returns `Err` on I/O problems
/// (unreadable tree), never on findings — the report carries those.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    let mut files: Vec<FileInput> = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(lint_files(&files, &Config::default()))
}

/// Recursively gathers `.rs` files under `dir`, recording workspace-
/// relative paths.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<FileInput>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push(FileInput { path: rel, text });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, text: &str) -> Report {
        lint_files(&[FileInput { path: path.into(), text: text.into() }], &Config::default())
    }

    #[test]
    fn justified_allow_suppresses_panic_site() {
        let r = lint_one(
            "crates/infer/src/x.rs",
            "fn f(v: &[u8]) -> u8 { v[0] } // lint:allow(panic-site): callers pass a non-empty slice\n",
        );
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn unjustified_allow_is_its_own_violation() {
        let r = lint_one("crates/infer/src/x.rs", "fn f(v: &[u8]) -> u8 { v[0] } // lint:allow(panic-site)\n");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "allow-missing-justification");
    }

    #[test]
    fn deleted_rules_are_unknown_to_allow_comments() {
        for rule in ["raw-rayon", "float-reassoc"] {
            let r = lint_one("crates/graph/src/x.rs", &format!("fn f() {{}} // lint:allow({rule}): once justified\n"));
            let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
            assert_eq!(rules, ["allow-unknown-rule"], "{rule}");
        }
    }

    #[test]
    fn unknown_allow_rule_is_flagged() {
        let r = lint_one("crates/graph/src/x.rs", "// lint:allow(made-up-rule): because\nfn f() {}\n");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "allow-unknown-rule");
    }

    #[test]
    fn panic_sites_flagged_in_scope_with_invariant_escape() {
        let src = "\
fn f(v: &[f32]) -> f32 {\n\
    let a = v.first().unwrap();\n\
    // invariant: v checked non-empty at entry\n\
    let b = v.last().expect(\"non-empty\");\n\
    a + b + v[0]\n\
}\n";
        let r = lint_one("crates/infer/src/x.rs", src);
        let sites: Vec<_> = r.findings.iter().filter(|f| f.rule == "panic-site").collect();
        assert_eq!(sites.len(), 2, "{:?}", r.findings);
        assert_eq!(sites[0].line, 2, "unwrap flagged");
        assert_eq!(sites[1].line, 5, "literal index flagged; expect on line 4 escaped by invariant");
    }

    #[test]
    fn panic_sites_out_of_scope_are_ignored() {
        let r = lint_one("crates/train/src/x.rs", "fn f(v: &[f32]) -> f32 { v[0] + v.first().unwrap() }\n");
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn metric_names_checked_against_registry_both_directions() {
        let registry = "pub const SERVE_REQUESTS: &str = \"serve.requests\";\npub const NEVER_EMITTED: &str = \"serve.ghost\";\npub const TENSOR_CALLS: &str = \"tensor.*.calls\";\n";
        let emitter = "fn f(k: &str) {\n    counter_add(\"serve.requests\", 1);\n    counter_add(\"serve.undeclared_thing.count\", 1);\n    counter_add(&format!(\"tensor.{}.calls\", k), 1);\n}\n";
        let r = lint_files(
            &[
                FileInput { path: "crates/obs/src/names.rs".into(), text: registry.into() },
                FileInput { path: "crates/cli/src/x.rs".into(), text: emitter.into() },
            ],
            &Config::default(),
        );
        let rules: Vec<(&str, &str)> = r.findings.iter().map(|f| (f.rule, f.file.as_str())).collect();
        assert_eq!(
            rules,
            vec![
                ("metric-undeclared", "crates/cli/src/x.rs"),
                ("metric-unused", "crates/obs/src/names.rs"),
            ],
            "{:?}",
            r.findings
        );
        assert!(r.findings[0].message.contains("serve.undeclared_thing.count"));
        assert!(r.findings[1].message.contains("serve.ghost"));
    }

    #[test]
    fn metric_rules_skip_when_registry_absent() {
        let r = lint_one("crates/cli/src/x.rs", "fn f() { counter_add(\"serve.requests\", 1); }\n");
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn report_json_contains_exact_spans() {
        let r = lint_one("crates/infer/src/x.rs", "fn f(v: &[u8]) -> u8 { v[0] }\n");
        let j = r.to_json();
        assert!(j.contains("\"rule\":\"panic-site\""));
        assert!(j.contains("\"file\":\"crates/infer/src/x.rs\""));
        assert!(j.contains("\"line\":1,\"col\":26"), "{j}");
    }
}
