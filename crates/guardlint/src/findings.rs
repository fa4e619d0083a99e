//! Finding model and output formatting (text and JSON).

use std::fmt;

/// Finding severity. `--deny` fails the run on any [`Severity::Error`];
/// warnings are advisory (unused allowlist entries, unobserved telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; never fails the gate.
    Warning,
    /// Violates a repo invariant; fails the gate under `--deny`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One lint finding at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Check id: a rule-table row's (`L1`, `L2`, `seam`, …), `L1`, `L3`,
    /// `L6`, or `ALLOW` for allowlist meta-errors.
    pub lint: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-oriented description.
    pub message: String,
}

impl Finding {
    /// Renders the canonical `file:line [lint] message` form.
    pub fn render(&self) -> String {
        format!(
            "{}:{} [{}] {}: {}",
            self.file, self.line, self.lint, self.severity, self.message
        )
    }

    /// Renders a GitHub Actions workflow annotation
    /// (`::error file=…,line=…,title=…::message`) so the finding lands
    /// directly on the offending line of the PR diff.
    pub fn render_github(&self) -> String {
        format!(
            "::{} file={},line={},title=guardlint {}::{}",
            self.severity,
            gh_property(&self.file),
            self.line,
            self.lint,
            gh_message(&self.message)
        )
    }
}

/// Escapes an annotation *message* per the workflow-command grammar.
fn gh_message(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escapes an annotation *property* value (`file=`, `title=`), which
/// additionally reserves `:` and `,`.
fn gh_property(s: &str) -> String {
    gh_message(s).replace(':', "%3A").replace(',', "%2C")
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON array (stable field order, sorted input).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"}}{}\n",
            json_escape(&f.file),
            f.line,
            f.lint,
            f.severity,
            json_escape(&f.message),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

/// Sorts findings into the canonical report order: errors first, then by
/// file, line and lint id.
pub fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.file.cmp(&b.file))
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.lint.cmp(b.lint))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_json() {
        let f = Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            lint: "L1",
            severity: Severity::Error,
            message: "`.unwrap()` on a wire-input path".into(),
        };
        assert_eq!(
            f.render(),
            "crates/x/src/lib.rs:7 [L1] error: `.unwrap()` on a wire-input path"
        );
        let json = to_json(&[f]);
        assert!(json.contains("\"lint\":\"L1\""));
        assert!(json.contains("\\u") || json.contains("unwrap"));
    }

    #[test]
    fn github_annotations_escape_and_point_at_the_line() {
        let f = Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            lint: "L6",
            severity: Severity::Error,
            message: "captured `x` is mutated, 100% wrong\nsecond line".into(),
        };
        assert_eq!(
            f.render_github(),
            "::error file=crates/x/src/lib.rs,line=7,title=guardlint L6::captured `x` \
             is mutated, 100%25 wrong%0Asecond line"
        );
        let w = Finding { severity: Severity::Warning, ..f };
        assert!(w.render_github().starts_with("::warning "));
    }

    #[test]
    fn sort_errors_first() {
        let mut v = vec![
            Finding {
                file: "a.rs".into(),
                line: 1,
                lint: "L6",
                severity: Severity::Warning,
                message: String::new(),
            },
            Finding {
                file: "b.rs".into(),
                line: 2,
                lint: "L2",
                severity: Severity::Error,
                message: String::new(),
            },
        ];
        sort(&mut v);
        assert_eq!(v[0].lint, "L2");
    }
}
