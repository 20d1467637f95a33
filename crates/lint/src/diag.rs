//! Diagnostics: the one currency both analysis engines deal in.
//!
//! A [`Diagnostic`] pins a rule violation to a `file:line:col` span with a
//! human message and an optional fix note. The set of findings renders two
//! ways: human-readable lines for terminals and a machine-readable JSON
//! report for CI gates (`smn-lint --json`).

use serde::{Deserialize, Serialize};

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Informational: reported, never fails the run.
    Warn,
    /// Hard failure: a deny-level finding makes `smn-lint` exit non-zero.
    Deny,
}

impl Level {
    /// Lowercase display form.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Warn => "warn",
            Level::Deny => "deny",
        }
    }
}

/// One finding from either engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Rule identifier, e.g. `"panic/unwrap"` or `"artifact/dangling-edge"`.
    pub rule: String,
    /// Severity under the active configuration.
    pub level: Level,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the violation (0 when the span is file-level).
    pub line: u32,
    /// 1-based column of the violation (0 when the span is file-level).
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it (empty when self-evident).
    pub note: String,
}

impl Diagnostic {
    /// Build a finding.
    pub fn new(
        rule: &str,
        level: Level,
        file: &str,
        line: u32,
        col: u32,
        message: impl Into<String>,
    ) -> Self {
        Self {
            rule: rule.to_string(),
            level,
            file: file.to_string(),
            line,
            col,
            message: message.into(),
            note: String::new(),
        }
    }

    /// Attach a fix suggestion.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The `file:line:col: level[rule]: message` terminal rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = if self.line == 0 {
            format!("{}: {}[{}]: {}", self.file, self.level.as_str(), self.rule, self.message)
        } else {
            format!(
                "{}:{}:{}: {}[{}]: {}",
                self.file,
                self.line,
                self.col,
                self.level.as_str(),
                self.rule,
                self.message
            )
        };
        if !self.note.is_empty() {
            out.push_str(&format!("\n    note: {}", self.note));
        }
        out
    }
}

/// A full report: findings plus summary counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// All findings, in file/line order.
    pub findings: Vec<Diagnostic>,
    /// Number of deny-level findings.
    pub deny: usize,
    /// Number of warn-level findings.
    pub warn: usize,
    /// Source files read by the deep pass.
    pub files_scanned: usize,
    /// Artifact files checked by the artifact engine.
    pub artifacts_checked: usize,
}

impl Report {
    /// Assemble a report from findings, computing counts and sorting by
    /// (file, line, col, rule) so output order is stable.
    #[must_use]
    pub fn from_findings(mut findings: Vec<Diagnostic>) -> Self {
        findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule))
        });
        let deny = findings.iter().filter(|d| d.level == Level::Deny).count();
        let warn = findings.len() - deny;
        Self { findings, deny, warn, files_scanned: 0, artifacts_checked: 0 }
    }

    /// Merge another report's findings and counts into this one.
    pub fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule))
        });
        self.deny += other.deny;
        self.warn += other.warn;
        self.files_scanned += other.files_scanned;
        self.artifacts_checked += other.artifacts_checked;
    }

    /// True when the run should exit non-zero.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.deny > 0
    }

    /// Machine-readable JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// Human rendering: one block per finding plus a summary line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "smn-lint: {} file(s), {} artifact(s): {} deny, {} warn\n",
            self.files_scanned, self.artifacts_checked, self.deny, self.warn
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_span_and_rule() {
        let d = Diagnostic::new("panic/unwrap", Level::Deny, "crates/x/src/lib.rs", 10, 5, "m")
            .with_note("use ? instead");
        assert!(d.render().starts_with("crates/x/src/lib.rs:10:5: deny[panic/unwrap]: m"));
        assert!(d.render().contains("note: use ? instead"));
    }

    #[test]
    fn report_counts_and_sorts() {
        let r = Report::from_findings(vec![
            Diagnostic::new("b", Level::Warn, "z.rs", 1, 1, "w"),
            Diagnostic::new("a", Level::Deny, "a.rs", 2, 1, "d"),
        ]);
        assert_eq!((r.deny, r.warn), (1, 1));
        assert_eq!(r.findings[0].file, "a.rs");
        assert!(r.failed());
    }

    #[test]
    fn json_roundtrips() {
        let r = Report::from_findings(vec![Diagnostic::new(
            "determinism/wall-clock",
            Level::Deny,
            "f.rs",
            3,
            7,
            "Instant::now in deterministic path",
        )]);
        let back: Report = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(back.findings[0].rule, "determinism/wall-clock");
    }
}
