//! Finding model and output formatting.

/// One lint finding at a source location. Every finding fails the run.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Check id: a rule-table row's (`L1`, `L2`, `L3`, `seam`, …), which
    /// L1's index check shares; for a justification that exempts nothing,
    /// the id it names.
    pub lint: String,
    /// Human-oriented description.
    pub message: String,
}

impl Finding {
    /// Renders the canonical `file:line [lint] message` form.
    pub fn render(&self) -> String {
        format!("{}:{} [{}] {}", self.file, self.line, self.lint, self.message)
    }

    /// Renders a GitHub Actions workflow annotation
    /// (`::error file=…,line=…,title=…::message`) so the finding lands
    /// directly on the offending line of the PR diff.
    pub fn render_github(&self) -> String {
        format!(
            "::error file={},line={},title=guardlint {}::{}",
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

/// Sorts findings into the canonical report order: by file, line and lint
/// id.
pub fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.lint.cmp(&b.lint))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(file: &str, line: usize, lint: &str, message: &str) -> Finding {
        Finding { file: file.into(), line, lint: lint.into(), message: message.into() }
    }

    #[test]
    fn renders_file_line_id_message() {
        let f = at("crates/x/src/lib.rs", 7, "L1", "`.unwrap()` on a wire-input path");
        assert_eq!(f.render(), "crates/x/src/lib.rs:7 [L1] `.unwrap()` on a wire-input path");
    }

    #[test]
    fn github_annotations_escape_and_point_at_the_line() {
        let f = at("crates/x/src/lib.rs", 7, "L6", "captured `x` is mutated, 100% wrong\nsecond line");
        assert_eq!(
            f.render_github(),
            "::error file=crates/x/src/lib.rs,line=7,title=guardlint L6::captured `x` \
             is mutated, 100%25 wrong%0Asecond line"
        );
    }

    #[test]
    fn sort_by_file_then_line() {
        let mut v = vec![at("b.rs", 1, "L2", ""), at("a.rs", 9, "L6", ""), at("a.rs", 2, "L1", "")];
        sort(&mut v);
        let order: Vec<(&str, usize)> = v.iter().map(|f| (f.file.as_str(), f.line)).collect();
        assert_eq!(order, [("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]);
    }
}
