//! Seeded-violation fixtures: one deliberate violation per rule family,
//! asserting the exact rule ID and span (line:col) in the JSON report —
//! the contract the CI gate greps against.

use agnn_lint::{lint_files, Config, FileInput};

fn file(path: &str, text: &str) -> FileInput {
    FileInput { path: path.into(), text: text.into() }
}

/// The JSON report carries machine-checkable `"rule"`, `"line"`, `"col"`
/// fields for each finding.
fn assert_json_has(json: &str, rule: &str, file: &str, line: u32, col: u32) {
    let needle = format!("\"rule\":\"{rule}\",\"file\":\"{file}\",\"line\":{line},\"col\":{col}");
    assert!(json.contains(&needle), "expected {needle} in report:\n{json}");
}

#[test]
fn undeclared_metric_fixture_is_caught_with_exact_span() {
    let registry = file("crates/obs/src/names.rs", "pub const KNOWN: &str = \"serve.requests\";\n");
    let emitter = file(
        "crates/infer/src/stats.rs",
        "fn bump() {\n    counter_add(\"serve.requests\", 1);\n    counter_add(\"infer.rogue.count\", 1);\n}\n",
    );
    let report = lint_files(&[registry, emitter], &Config::default());
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["metric-undeclared"], "{:?}", report.findings);
    assert_json_has(&report.to_json(), "metric-undeclared", "crates/infer/src/stats.rs", 3, 17);
}

#[test]
fn dead_registry_name_fixture_is_caught_at_declaration_site() {
    let registry = file(
        "crates/obs/src/names.rs",
        "pub const LIVE: &str = \"serve.requests\";\npub const DEAD: &str = \"serve.phantom\";\n",
    );
    let emitter = file("crates/cli/src/x.rs", "fn f() { counter_add(\"serve.requests\", 1); }\n");
    let report = lint_files(&[registry, emitter], &Config::default());
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["metric-unused"], "{:?}", report.findings);
    assert_json_has(&report.to_json(), "metric-unused", "crates/obs/src/names.rs", 2, 1);
}

#[test]
fn naked_unwrap_fixture_is_caught_with_exact_span() {
    let fixture = file(
        "crates/infer/src/request.rs",
        "fn parse(line: &str) -> u32 {\n    line.trim().parse().unwrap()\n}\n",
    );
    let report = lint_files(&[fixture], &Config::default());
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["panic-site"], "{:?}", report.findings);
    assert_json_has(&report.to_json(), "panic-site", "crates/infer/src/request.rs", 2, 25);
}

#[test]
fn allow_comments_suppress_only_with_justification() {
    let allowed = file(
        "crates/infer/src/a.rs",
        "fn f(v: &[u8]) -> u8 { v[0] } // lint:allow(panic-site): every caller passes a non-empty slice\n",
    );
    let unjustified = file("crates/infer/src/b.rs", "fn f(v: &[u8]) -> u8 { v[0] } // lint:allow(panic-site)\n");
    let report = lint_files(&[allowed, unjustified], &Config::default());
    let by_file: Vec<(&str, &str)> = report.findings.iter().map(|f| (f.rule, f.file.as_str())).collect();
    assert_eq!(by_file, vec![("allow-missing-justification", "crates/infer/src/b.rs")], "{:?}", report.findings);
}

#[test]
fn violations_in_test_code_are_out_of_scope() {
    let fixture = file(
        "crates/infer/src/x.rs",
        "fn shipped() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n        vec![1][0];\n    }\n}\n",
    );
    let report = lint_files(&[fixture], &Config::default());
    assert!(report.is_clean(), "{:?}", report.findings);
}
