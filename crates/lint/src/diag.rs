//! Findings, severities, and the text/JSON renderers.
//!
//! JSON is emitted by hand (the crate is dependency-free); the schema is
//! a stable array of flat objects so CI and editors can consume it:
//!
//! ```json
//! [
//!   {"rule": "panic-unwrap", "severity": "error", "file": "crates/obs/src/manifest.rs",
//!    "line": 83, "col": 41, "message": "…", "waived": false}
//! ]
//! ```

use crate::rules::Rule;

/// How serious a finding is. Every severity currently blocks the gate;
/// the level is carried in diagnostics so future advisory rules can be
/// added without a schema change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported but never blocks.
    Warning,
    /// Blocks the lint gate unless waived.
    Error,
}

impl Severity {
    /// Stable lowercase name used in text and JSON output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic: a rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Severity of the rule.
    pub severity: Severity,
    /// Path of the offending file, relative to the scan root, with
    /// forward slashes on every platform.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
    /// Whether an inline waiver suppressed this finding. Waived findings
    /// are still reported (so waivers stay auditable) but do not block.
    pub waived: bool,
}

impl Finding {
    /// Creates an unwaived finding with the rule's default severity.
    #[must_use]
    pub fn new(rule: Rule, file: &str, line: u32, col: u32, message: String) -> Self {
        Finding {
            rule,
            severity: rule.severity(),
            file: file.to_string(),
            line,
            col,
            message,
            waived: false,
        }
    }

    /// Whether this finding blocks the gate.
    #[must_use]
    pub fn blocking(&self) -> bool {
        !self.waived && self.severity == Severity::Error
    }

    /// Renders as `file:line:col: severity[rule] message` (with a
    /// `waived` marker when suppressed).
    #[must_use]
    pub fn render_text(&self) -> String {
        let waived = if self.waived { " (waived)" } else { "" };
        format!(
            "{}:{}:{}: {}[{}]{} {}",
            self.file,
            self.line,
            self.col,
            self.severity.name(),
            self.rule.name(),
            waived,
            self.message
        )
    }

    /// Renders as one flat JSON object.
    #[must_use]
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"waived\":{}}}",
            self.rule.name(),
            self.severity.name(),
            json_escape(&self.file),
            self.line,
            self.col,
            json_escape(&self.message),
            self.waived
        )
    }
}

/// The result of linting a tree: every finding (waived ones included)
/// plus scan statistics.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by file, line, column, rule.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings into the canonical (file, line, col, rule) order.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
    }

    /// Findings that block the gate (errors without a waiver).
    #[must_use]
    pub fn blocking_count(&self) -> usize {
        self.findings.iter().filter(|f| f.blocking()).count()
    }

    /// Renders the whole report as a JSON array (one finding per line).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&f.render_json());
        }
        if !self.findings.is_empty() {
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Renders the report for humans: one line per finding plus a
    /// summary line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render_text());
            out.push('\n');
        }
        let waived = self.findings.iter().filter(|f| f.waived).count();
        out.push_str(&format!(
            "bt-lint: {} file(s) scanned, {} blocking finding(s), {} waived\n",
            self.files_scanned,
            self.blocking_count(),
            waived
        ));
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding::new(
            Rule::PanicUnwrap,
            "a.rs",
            3,
            7,
            "msg \"quoted\"".to_string(),
        )
    }

    #[test]
    fn text_rendering_includes_position_and_rule() {
        assert_eq!(
            finding().render_text(),
            "a.rs:3:7: error[panic-unwrap] msg \"quoted\""
        );
    }

    #[test]
    fn json_rendering_escapes() {
        let json = finding().render_json();
        assert!(json.contains("\"rule\":\"panic-unwrap\""));
        assert!(json.contains("msg \\\"quoted\\\""));
        assert!(json.contains("\"waived\":false"));
    }

    #[test]
    fn waived_findings_do_not_block() {
        let mut f = finding();
        assert!(f.blocking());
        f.waived = true;
        assert!(!f.blocking());
        let report = Report {
            findings: vec![f],
            files_scanned: 1,
        };
        assert_eq!(report.blocking_count(), 0);
        assert!(report.render_text().contains("1 waived"));
    }

    #[test]
    fn report_sorts_canonically() {
        let mut report = Report::default();
        report
            .findings
            .push(Finding::new(Rule::FloatCmp, "b.rs", 1, 1, String::new()));
        report
            .findings
            .push(Finding::new(Rule::FloatCmp, "a.rs", 9, 1, String::new()));
        report
            .findings
            .push(Finding::new(Rule::FloatCmp, "a.rs", 2, 1, String::new()));
        report.sort();
        let order: Vec<(&str, u32)> = report
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.line))
            .collect();
        assert_eq!(order, vec![("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]);
    }

    #[test]
    fn empty_report_renders_empty_array() {
        assert_eq!(Report::default().render_json(), "[]\n");
    }
}
