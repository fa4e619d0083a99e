//! The `Lint.toml` allowlist: explicit, justified exemptions.
//!
//! Every suppression is an auditable record — a `[[allow]]` entry must
//! carry a non-empty `justification`, and entries that no longer match any
//! finding surface as warnings so the file cannot silently rot.
//!
//! The parser is a deliberately small TOML subset (zero dependencies, like
//! everything else in this crate): `[[allow]]` array-of-table headers,
//! `key = "string"` / `key = integer` pairs, `#` comments. That subset is
//! the whole grammar `Lint.toml` needs.

use crate::findings::{Finding, Severity};

/// One `[[allow]]` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Workspace-relative path the exemption applies to.
    pub path: String,
    /// Specific 1-based line; `None` allows the lint anywhere in `path`.
    pub line: Option<usize>,
    /// Check id (`L1`, `L3`, `L6` or a rule-table row's).
    pub lint: String,
    /// Mandatory reason; empty justifications are themselves findings.
    pub justification: String,
    /// Line of the entry header in `Lint.toml` (for diagnostics).
    pub at_line: usize,
}

/// The parsed allowlist plus any parse/validation findings.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Valid entries, in file order.
    pub entries: Vec<AllowEntry>,
    /// Problems found while parsing/validating the file itself.
    pub problems: Vec<Finding>,
}

fn problem(file: &str, line: usize, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        lint: "ALLOW",
        severity: Severity::Error,
        message,
    }
}

/// Parses `Lint.toml` content. `file` is the path used in diagnostics.
pub fn parse(content: &str, file: &str) -> Allowlist {
    let mut list = Allowlist::default();
    let mut current: Option<AllowEntry> = None;

    let finish = |entry: Option<AllowEntry>, problems: &mut Vec<Finding>| {
        let e = entry?;
        if e.path.is_empty() {
            problems.push(problem(file, e.at_line, "allow entry missing `path`".into()));
        } else if e.lint.is_empty() {
            problems.push(problem(file, e.at_line, "allow entry missing `lint`".into()));
        } else if e.justification.trim().len() < 10 {
            problems.push(problem(
                file,
                e.at_line,
                format!(
                    "allow entry for {} needs a real `justification` (≥10 chars), got {:?}",
                    e.path, e.justification
                ),
            ));
        } else {
            return Some(e);
        }
        None
    };

    for (i, raw) in content.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(done) = finish(current.take(), &mut list.problems) {
                list.entries.push(done);
            }
            current = Some(AllowEntry {
                path: String::new(),
                line: None,
                lint: String::new(),
                justification: String::new(),
                at_line: line_no,
            });
            continue;
        }
        if line.starts_with('[') {
            list.problems.push(problem(
                file,
                line_no,
                format!("unsupported table {line:?}; only [[allow]] entries are recognised"),
            ));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            list.problems
                .push(problem(file, line_no, format!("unparseable line {line:?}")));
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        let Some(entry) = current.as_mut() else {
            list.problems.push(problem(
                file,
                line_no,
                format!("`{key}` outside any [[allow]] entry"),
            ));
            continue;
        };
        match key {
            "path" => match parse_string(value) {
                Some(s) => entry.path = s,
                None => list.problems.push(problem(
                    file,
                    line_no,
                    format!("`path` must be a quoted string, got {value:?}"),
                )),
            },
            "lint" => match parse_string(value) {
                Some(s) => entry.lint = s,
                None => list.problems.push(problem(
                    file,
                    line_no,
                    format!("`lint` must be a quoted string, got {value:?}"),
                )),
            },
            "justification" => match parse_string(value) {
                Some(s) => entry.justification = s,
                None => list.problems.push(problem(
                    file,
                    line_no,
                    format!("`justification` must be a quoted string, got {value:?}"),
                )),
            },
            "line" => match value.parse::<usize>() {
                Ok(n) => entry.line = Some(n),
                Err(_) => list.problems.push(problem(
                    file,
                    line_no,
                    format!("`line` must be an integer, got {value:?}"),
                )),
            },
            other => list.problems.push(problem(
                file,
                line_no,
                format!("unknown key `{other}` in [[allow]] entry"),
            )),
        }
    }
    if let Some(done) = finish(current.take(), &mut list.problems) {
        list.entries.push(done);
    }
    list
}

/// Strips a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

impl Allowlist {
    /// Applies the allowlist: suppressed findings are removed, and every
    /// entry that suppressed nothing becomes a *stale-entry* finding.
    /// Stale entries are warnings in advisory runs but hard errors when
    /// `strict` (the `--deny` gate): a suppression that no longer matches
    /// anything is dead wood hiding the next real finding at that site,
    /// so CI refuses to carry it.
    pub fn apply(&self, findings: Vec<Finding>, toml_path: &str, strict: bool) -> Vec<Finding> {
        let mut used = vec![false; self.entries.len()];
        let mut kept: Vec<Finding> = Vec::new();
        for f in findings {
            let hit = self.entries.iter().enumerate().find(|(_, e)| {
                e.lint == f.lint && e.path == f.file && e.line.is_none_or(|l| l == f.line)
            });
            match hit {
                Some((i, _)) => used[i] = true,
                None => kept.push(f),
            }
        }
        for (e, used) in self.entries.iter().zip(used) {
            if !used {
                kept.push(Finding {
                    file: toml_path.to_string(),
                    line: e.at_line,
                    lint: "ALLOW",
                    severity: if strict { Severity::Error } else { Severity::Warning },
                    message: format!(
                        "stale allow entry: no {} finding at {}{} — remove it",
                        e.lint,
                        e.path,
                        e.line.map(|l| format!(":{l}")).unwrap_or_default()
                    ),
                });
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# exemptions
[[allow]]
path = "crates/dnswire/src/message.rs"
line = 108
lint = "L1"
justification = "encode with an unlimited budget cannot return TooLarge"
"#;

    #[test]
    fn parses_entries() {
        let list = parse(GOOD, "Lint.toml");
        assert!(list.problems.is_empty(), "{:?}", list.problems);
        assert_eq!(list.entries.len(), 1);
        let e = &list.entries[0];
        assert_eq!(e.line, Some(108));
        assert_eq!(e.lint, "L1");
    }

    #[test]
    fn missing_justification_is_a_problem() {
        let src = "[[allow]]\npath = \"a.rs\"\nlint = \"L2\"\njustification = \"\"\n";
        let list = parse(src, "Lint.toml");
        assert_eq!(list.entries.len(), 0);
        assert!(list.problems.iter().any(|p| p.message.contains("justification")));
    }

    #[test]
    fn unknown_key_is_a_problem() {
        let src = "[[allow]]\npath = \"a.rs\"\nlint = \"L2\"\nreason = \"x\"\njustification = \"long enough here\"\n";
        let list = parse(src, "Lint.toml");
        assert!(list.problems.iter().any(|p| p.message.contains("unknown key")));
    }

    #[test]
    fn apply_suppresses_and_flags_stale() {
        let list = parse(GOOD, "Lint.toml");
        let hit = Finding {
            file: "crates/dnswire/src/message.rs".into(),
            line: 108,
            lint: "L1",
            severity: Severity::Error,
            message: "x".into(),
        };
        let kept = list.apply(vec![hit], "Lint.toml", false);
        assert!(kept.is_empty(), "{kept:?}");
        let kept = list.apply(vec![], "Lint.toml", false);
        assert_eq!(kept.len(), 1);
        assert!(kept[0].message.contains("stale allow entry"));
        assert_eq!(kept[0].severity, Severity::Warning);
    }

    #[test]
    fn stale_entry_is_a_hard_error_under_deny() {
        let list = parse(GOOD, "Lint.toml");
        // Strict (--deny): the same stale entry must gate the build.
        let kept = list.apply(vec![], "Lint.toml", true);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].severity, Severity::Error, "{kept:?}");
        assert_eq!(kept[0].lint, "ALLOW");
        assert!(kept[0].message.contains("stale allow entry"));
        // A matching finding keeps the entry live in strict mode too.
        let hit = Finding {
            file: "crates/dnswire/src/message.rs".into(),
            line: 108,
            lint: "L1",
            severity: Severity::Error,
            message: "x".into(),
        };
        assert!(list.apply(vec![hit], "Lint.toml", true).is_empty());
    }
}
