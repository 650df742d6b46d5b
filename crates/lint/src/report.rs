//! Lint findings and the two report renderers: canonical JSON (the CI
//! artifact, stable field order, sorted findings) and an aligned table for
//! humans. JSON is emitted by hand — the crate is dependency-free so it
//! builds identically in stripped-down environments — and the escaping
//! covers exactly what Rust paths, rule IDs, and single-line snippets can
//! contain.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID, e.g. `panic-site` (see [`crate::rules`] for the family list).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human explanation of what tripped and how to silence it legitimately.
    pub message: String,
    /// The source line the finding sits on, trimmed.
    pub snippet: String,
}

/// Full analyzer output for one workspace run.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
}

impl Report {
    /// Sorts findings into the canonical (file, line, col, rule) order every
    /// renderer and test relies on.
    pub fn finalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
        });
    }

    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Canonical JSON document. Schema:
    /// `{"tool":"agnn-lint","version":1,"files_scanned":N,"violations":K,"findings":[...]}`
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.findings.len() * 160);
        s.push_str("{\"tool\":\"agnn-lint\",\"version\":1,\"files_scanned\":");
        s.push_str(&self.files_scanned.to_string());
        s.push_str(",\"violations\":");
        s.push_str(&self.findings.len().to_string());
        s.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"rule\":");
            json_str(&mut s, f.rule);
            s.push_str(",\"file\":");
            json_str(&mut s, &f.file);
            s.push_str(",\"line\":");
            s.push_str(&f.line.to_string());
            s.push_str(",\"col\":");
            s.push_str(&f.col.to_string());
            s.push_str(",\"message\":");
            json_str(&mut s, &f.message);
            s.push_str(",\"snippet\":");
            json_str(&mut s, &f.snippet);
            s.push('}');
        }
        s.push_str("]}\n");
        s
    }

    /// Aligned human-readable table, one row per finding, grouped by file.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        if self.findings.is_empty() {
            let _ = std::fmt::Write::write_fmt(
                &mut s,
                format_args!("agnn-lint: clean ({} files scanned)\n", self.files_scanned),
            );
            return s;
        }
        let loc_w = self
            .findings
            .iter()
            .map(|f| f.file.len() + 1 + digits(f.line) + 1 + digits(f.col))
            .max()
            .unwrap_or(0);
        let rule_w = self.findings.iter().map(|f| f.rule.len()).max().unwrap_or(0);
        for f in &self.findings {
            let loc = format!("{}:{}:{}", f.file, f.line, f.col);
            let _ = std::fmt::Write::write_fmt(
                &mut s,
                format_args!("{loc:<loc_w$}  {:<rule_w$}  {}\n", f.rule, f.message),
            );
        }
        let _ = std::fmt::Write::write_fmt(
            &mut s,
            format_args!(
                "agnn-lint: {} violation(s) across {} files scanned\n",
                self.findings.len(),
                self.files_scanned
            ),
        );
        s
    }
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Appends `v` to `out` as a JSON string literal with full control-character
/// escaping.
fn json_str(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, file: &str, line: u32, col: u32) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line,
            col,
            message: format!("msg for {rule}"),
            snippet: "let x = 1;".into(),
        }
    }

    #[test]
    fn finalize_sorts_canonically() {
        let mut r = Report {
            files_scanned: 2,
            findings: vec![f("b-rule", "z.rs", 1, 1), f("a-rule", "a.rs", 9, 1), f("a-rule", "a.rs", 2, 5)],
        };
        r.finalize();
        let order: Vec<(&str, u32)> = r.findings.iter().map(|x| (x.file.as_str(), x.line)).collect();
        assert_eq!(order, vec![("a.rs", 2), ("a.rs", 9), ("z.rs", 1)]);
    }

    #[test]
    fn json_shape_and_escaping() {
        let mut r = Report { files_scanned: 1, findings: vec![f("panic-site", "crates/x/src/lib.rs", 3, 7)] };
        r.findings[0].snippet = "emit(\"a\\b\")\t".into();
        r.finalize();
        let j = r.to_json();
        assert!(j.starts_with("{\"tool\":\"agnn-lint\",\"version\":1,"));
        assert!(j.contains("\"violations\":1"));
        assert!(j.contains("\"rule\":\"panic-site\""));
        assert!(j.contains("\"line\":3,\"col\":7"));
        assert!(j.contains("emit(\\\"a\\\\b\\\")\\t"));
    }

    #[test]
    fn clean_report_renders_clean() {
        let r = Report { files_scanned: 41, findings: vec![] };
        assert!(r.is_clean());
        assert!(r.to_table().contains("clean (41 files scanned)"));
        assert!(r.to_json().contains("\"violations\":0,\"findings\":[]"));
    }

    #[test]
    fn table_lists_every_finding() {
        let mut r = Report { files_scanned: 2, findings: vec![f("panic-site", "a.rs", 1, 2), f("metric-unused", "b.rs", 10, 4)] };
        r.finalize();
        let t = r.to_table();
        assert!(t.contains("a.rs:1:2"));
        assert!(t.contains("b.rs:10:4"));
        assert!(t.contains("2 violation(s)"));
    }
}
