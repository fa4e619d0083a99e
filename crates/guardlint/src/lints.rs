//! What guardlint checks: one rule table, one check that needs more than a
//! token, and the one way to exempt a finding.
//!
//! [`RULES`] is declarative. Each row names a path scope, what is forbidden
//! there (tokens in code, or a line cap), its message, and whether
//! `#[cfg(test)]` items count. L1's panic tokens, L2's clocks and RNGs,
//! L3's relaxed atomics and the workspace's layering invariants are rows.
//! The other check is L1's: no slice/array index on wire input.
//!
//! **Exemptions.** A finding is exempt when its line, or the comment-only
//! lines directly above it, carry `// lint: <id> — <why>`: exactly the id
//! the finding prints, then at least three characters of reason. A
//! justification that exempts no finding of its id is itself a finding,
//! reported at its own line, so none outlives the code it excused. Only a
//! plain comment that starts with `lint:` is one; a doc comment quoting the
//! syntax, like this one, is not.
//!
//! The ids of retired checks are never reused (DESIGN.md, "Static analysis",
//! lists them).

use crate::findings::Finding;
use crate::lexer::{Scrubbed, ScrubbedLine};

/// One lexed source file, addressed by workspace-relative path.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Scrubbed view (see [`crate::lexer::scrub`]).
    pub scrub: Scrubbed,
}

impl SourceFile {
    fn finding(&self, line: usize, lint: &str, message: String) -> Finding {
        Finding { file: self.rel.clone(), line, lint: lint.to_string(), message }
    }
}

// ------------------------------------------------------------ rule table

/// Where a rule applies: workspace-relative paths, each a directory when it
/// ends in `/` and a file otherwise, less the `except` paths.
pub struct Scope {
    /// Directories (trailing `/`) and files in scope.
    pub paths: &'static [&'static str],
    /// Directories (trailing `/`) and files left out.
    pub except: &'static [&'static str],
}

impl Scope {
    /// Whether `rel` is in scope.
    pub fn contains(&self, rel: &str) -> bool {
        let hit = |p: &&str| if p.ends_with('/') { rel.starts_with(p) } else { rel == *p };
        self.paths.iter().any(hit) && !self.except.iter().any(hit)
    }
}

/// What a rule forbids.
pub enum Check {
    /// Any of these tokens in code (strings and comments are not code).
    Tokens(&'static [&'static str]),
    /// More lines than this.
    MaxLines(usize),
}

/// One row of [`RULES`].
pub struct Rule {
    /// The finding id.
    pub id: &'static str,
    /// Files the rule reads.
    pub scope: Scope,
    /// What it forbids there.
    pub check: Check,
    /// Why, appended to each finding.
    pub message: &'static str,
    /// Whether lines of `#[cfg(test)]`/`#[test]` items count.
    pub tests: bool,
}

/// L1's scope: the modules that parse adversarial wire input — `dnswire`,
/// every file of the guard, the TCP proxy, and the cookie client's core and
/// its local-guard driver, which read replies anyone may forge.
const WIRE: Scope = Scope {
    paths: &[
        "crates/dnswire/src/", "crates/core/src/guard/", "crates/core/src/tcp_proxy.rs",
        "crates/server/src/cookie_client.rs", "crates/core/src/local_guard.rs",
    ],
    except: &[],
};

/// The rule table.
pub const RULES: &[Rule] = &[
    Rule {
        id: "L1",
        scope: WIRE,
        check: Check::Tokens(&[
            ".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!(",
        ]),
        message: "can panic on adversarial wire input; return a typed error",
        tests: false,
    },
    Rule {
        id: "L2",
        scope: Scope {
            paths: &[
                "crates/core/src/", "crates/netsim/src/", "crates/server/src/",
                "crates/attack/src/", "crates/obs/src/",
            ],
            except: &[],
        },
        check: Check::Tokens(&[
            "Instant::now", "SystemTime", "UNIX_EPOCH", "thread_rng", "from_entropy", "rand::random",
        ]),
        message: "in a sim-domain crate: simulated time is the only clock and a seeded RNG \
                  threaded from the scenario the only randomness",
        tests: false,
    },
    Rule {
        id: "L3",
        // obs's metric cells and trace levels are single monotonic cells
        // with no cross-cell ordering contract.
        scope: Scope {
            paths: &["crates/", "src/"],
            except: &["crates/obs/src/metrics.rs", "crates/obs/src/trace.rs"],
        },
        check: Check::Tokens(&["Ordering::Relaxed"]),
        message: "orders nothing: a flag's store and load want a Release/Acquire pair, and \
                  anything else takes `// lint: L3 — <why>`",
        tests: false,
    },
    Rule {
        id: "seam",
        scope: Scope {
            paths: &["crates/core/src/guard/", "crates/server/src/cookie_client.rs"],
            except: &["crates/core/src/guard/sim.rs"],
        },
        check: Check::Tokens(&[
            "netsim::engine", "netsim::Context", "netsim::Node", "netsim::Simulator",
        ]),
        message: "in a sans-IO core: netsim's event engine belongs to its simulator drivers \
                  (guard/sim.rs; simclient.rs, local_guard.rs); a core may use netsim's packet, time and \
                  cost types",
        tests: true,
    },
    Rule {
        id: "core-size",
        scope: Scope { paths: &["crates/core/src/"], except: &[] },
        check: Check::MaxLines(1200),
        message: "a file of `core` that grows past this is a stage that wants its own module",
        tests: false,
    },
    Rule {
        id: "state-table",
        scope: Scope {
            paths: &[
                "crates/core/src/ratelimit.rs", "crates/core/src/guard/fwd.rs",
                "crates/core/src/guard/keys.rs",
            ],
            except: &[],
        },
        check: Check::Tokens(&["HashMap"]),
        message: "in a fixed state table: the limiter table, the forward table and the \
                  cookie-verdict memo are allocated once and never rehash",
        tests: false,
    },
    Rule {
        id: "ans-wire",
        scope: Scope {
            paths: &["crates/server/src/nodes.rs", "crates/runtime/src/ans.rs"],
            except: &[],
        },
        check: Check::Tokens(&["Message::decode", "answer_wire"]),
        message: "on the ANS wire path: answer through the `AnswerCache`, which answers a miss \
                  from a view over the query's own buffer",
        tests: false,
    },
    Rule {
        id: "client-wire",
        scope: Scope {
            paths: &["crates/server/src/cookie_client.rs", "crates/server/src/simclient.rs", "crates/core/src/local_guard.rs"],
            except: &[],
        },
        check: Check::Tokens(&["Message::decode", ".to_message()"]),
        message: "on the cookie client's wire path: stamp by appending the extension to the \
                  query's bytes and read a reply through its `MessageView`",
        tests: false,
    },
    Rule {
        id: "tcp-framing",
        scope: Scope {
            paths: &["crates/core/src/", "crates/server/src/", "crates/runtime/src/"],
            except: &[],
        },
        check: Check::Tokens(&["as u16).to_be_bytes()"]),
        message: "is a hand-written DNS-over-TCP length prefix: frame and deframe through \
                  `dnswire::framing`",
        tests: false,
    },
    Rule {
        id: "cookie-alg",
        scope: Scope {
            paths: &["crates/core/src/", "crates/server/src/", "crates/runtime/src/", "src/"],
            except: &[],
        },
        check: Check::Tokens(&["CookieAlg::Md5", "CookieAlg::SipHash24"]),
        message: "picks a cookie hash in product code: the default is `CookieAlg::default()`, \
                  and a world that means another hash selects it through `GuardConfig::cookie_alg`",
        tests: false,
    },
    Rule {
        id: "netsim-engine",
        scope: Scope { paths: &["crates/netsim/src/engine.rs"], except: &[] },
        check: Check::Tokens(&["HashMap<(NodeId, NodeId)", "NullNode"]),
        message: "in netsim's engine: a packet reads its link from one record with one probe, \
                  and a handler borrows its node where it lives",
        tests: false,
    },
    Rule {
        id: "features",
        scope: Scope {
            paths: &["crates/", "src/", "tests/", "examples/", "Cargo.toml"],
            except: &[],
        },
        check: Check::Tokens(&["[features]", "feature =", "feature="]),
        message: "declares or tests a cargo feature: the workspace has one build \
                  configuration, and what varies is armed at run time",
        tests: true,
    },
    Rule {
        id: "testbed",
        scope: Scope { paths: &["crates/bench/src/", "tests/"], except: &["crates/bench/src/worlds.rs"] },
        check: Check::Tokens(&["AlertEngine::new(", "RemoteGuard::new("]),
        message: "outside `bench::worlds`: a simulated world's guards are built there \
                  (`guarded_world_with`, `guarded_hierarchy`, `ha_world`, `fleet_world`), and \
                  its alert engine (`alert_engine`), evaluated by `run_evaluated`",
        tests: true,
    },
];

impl Rule {
    /// The rule's findings in `file`.
    pub fn apply(&self, file: &SourceFile) -> Vec<Finding> {
        if !self.scope.contains(&file.rel) {
            return Vec::new();
        }
        let finding = |line: usize, message: String| file.finding(line, self.id, message);
        let mut counted = file.scrub.lines.iter().enumerate().filter(|(_, l)| self.tests || !l.in_test);
        match self.check {
            Check::Tokens(tokens) => counted
                .flat_map(|(i, l)| {
                    tokens.iter().filter(|t| find_token(&l.code, t).is_some()).map(move |t| (i, t))
                })
                .map(|(i, t)| finding(i + 1, format!("`{t}` {}", self.message)))
                .collect(),
            Check::MaxLines(cap) => counted
                .nth(cap)
                .map(|(i, _)| finding(i + 1, format!("more than {cap} lines of code: {}", self.message)))
                .into_iter()
                .collect(),
        }
    }
}

// ------------------------------------------------------------- utilities

/// Finds `token` in `code` at an identifier boundary; returns the byte
/// offset of the first hit.
fn find_token(code: &str, token: &str) -> Option<usize> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let first_ident = token.chars().next().is_some_and(ident);
    let last_ident = token.chars().next_back().is_some_and(ident);
    let mut from = 0;
    while let Some(p) = code[from..].find(token) {
        let at = from + p;
        let pre_ok = !first_ident
            || !code[..at].chars().next_back().is_some_and(ident);
        let post_ok = !last_ident
            || !code[at + token.len()..].chars().next().is_some_and(ident);
        if pre_ok && post_ok {
            return Some(at);
        }
        from = at + token.len();
    }
    None
}

/// Byte positions of index-expression brackets: `[` directly preceded by
/// an identifier char, `)` or `]` (i.e. `buf[…]`, `f(x)[…]`, `a[0][1]`),
/// which excludes array literals/types, slice patterns and attributes.
fn index_brackets(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    (1..bytes.len())
        .filter(|&i| {
            bytes[i] == b'['
                && (bytes[i - 1].is_ascii_alphanumeric()
                    || bytes[i - 1] == b'_'
                    || bytes[i - 1] == b')'
                    || bytes[i - 1] == b']')
        })
        .collect()
}

// -------------------------------------------------------------------- L1

/// L1's index check: a slice/array index on wire input (the panic tokens
/// are [`RULES`]' first row).
fn l1(file: &SourceFile) -> Vec<Finding> {
    if !WIRE.contains(&file.rel) {
        return Vec::new();
    }
    let lines = &file.scrub.lines;
    (0..lines.len())
        .filter(|&i| !lines[i].in_test && !index_brackets(&lines[i].code).is_empty())
        .map(|i| {
            let message = "slice/array index can panic on wire input; use `get()`-style access \
                           with a typed error, or justify with `// lint: L1 — <why>`";
            file.finding(i + 1, "L1", message.to_string())
        })
        .collect()
}

// ------------------------------------------------------------ exemptions

/// The id a line's comment justifies: `lint: <id> — <why>` at the start of
/// a plain comment, with at least three characters of reason. A doc
/// comment's text starts with `!` or `/`, so it never justifies.
fn justification(comment: &str) -> Option<&str> {
    let rest = comment.trim_start().strip_prefix("lint:")?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
        .unwrap_or(rest.len());
    let (id, why) = rest.split_at(end);
    let why = why.trim_start_matches([' ', '—', '–', '-', ':']).trim();
    (!id.is_empty() && why.chars().count() >= 3).then_some(id)
}

/// The 1-based line a justification on line index `j` covers: its own when
/// it holds code, else the first line below its block of comment-only lines.
fn covered_line(lines: &[ScrubbedLine], j: usize) -> usize {
    let comment_only = |l: &ScrubbedLine| l.code.trim().is_empty() && !l.comment.trim().is_empty();
    (j..lines.len()).find(|&i| !comment_only(&lines[i])).unwrap_or(lines.len()) + 1
}

/// Drops each finding that a justification of its id covers, and reports
/// each justification that covers no finding of its id at its own line.
fn justify(file: &SourceFile, findings: Vec<Finding>) -> Vec<Finding> {
    let lines = &file.scrub.lines;
    let notes: Vec<(usize, &str, usize)> = (0..lines.len())
        .filter_map(|j| Some((j + 1, justification(&lines[j].comment)?, covered_line(lines, j))))
        .collect();
    let mut used = vec![false; notes.len()];
    let mut out: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            let mut exempt = false;
            for (k, &(_, id, covers)) in notes.iter().enumerate() {
                if id == f.lint && covers == f.line {
                    used[k] = true;
                    exempt = true;
                }
            }
            !exempt
        })
        .collect();
    for (&(at, id, covers), used) in notes.iter().zip(used) {
        if !used {
            let message = format!(
                "`lint: {id}` exempts no {id} finding on line {covers}; remove it, or move it \
                 to the line it justifies"
            );
            out.push(file.finding(at, id, message));
        }
    }
    out
}

/// Every check over one file — the rule table and L1's index check — less
/// what inline justifications exempt, plus every justification that
/// exempts nothing.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out: Vec<Finding> = RULES.iter().flat_map(|r| r.apply(file)).collect();
    out.extend(l1(file));
    justify(file, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile { rel: rel.to_string(), scrub: scrub(src) }
    }

    /// Every finding of `check` with id `id`.
    fn found(f: &SourceFile, id: &str) -> Vec<Finding> {
        check(f).into_iter().filter(|x| x.lint == id).collect()
    }

    #[test]
    fn l1_flags_unwrap_in_scope_only() {
        let bad = file("crates/dnswire/src/name.rs", "fn f(v: Option<u8>) { v.unwrap(); }\n");
        assert_eq!(found(&bad, "L1").len(), 1);
        let out_of_scope = file("crates/bench/src/report.rs", "fn f(v: Option<u8>) { v.unwrap(); }\n");
        assert!(check(&out_of_scope).is_empty());
    }

    #[test]
    fn l1_ignores_strings_comments_and_tests() {
        let src = "const S: &str = \"x.unwrap()\"; // unwrap() in comment\n#[cfg(test)]\nmod t { fn f(v: Option<u8>) { v.unwrap(); } }\n";
        let f = file("crates/dnswire/src/name.rs", src);
        assert!(check(&f).is_empty(), "{:?}", check(&f));
    }

    #[test]
    fn l1_indexing_needs_justification() {
        let f = file("crates/dnswire/src/header.rs", "fn f(b: &[u8]) -> u8 { b[0] }\n");
        assert_eq!(found(&f, "L1").len(), 1);
        let ok = file(
            "crates/dnswire/src/header.rs",
            "fn f(b: &[u8]) -> u8 { b[0] } // lint: L1 — length checked by caller\n",
        );
        assert!(check(&ok).is_empty(), "{:?}", check(&ok));
    }

    /// `(id, line)` of every finding of `check` over `src` at a `core` path,
    /// by line; on one line, a stale justification follows the finding.
    fn in_core(src: &str) -> Vec<(String, usize)> {
        let f = file("crates/core/src/clock.rs", src);
        let mut v: Vec<(String, usize)> = check(&f).into_iter().map(|x| (x.lint, x.line)).collect();
        v.sort_by_key(|&(_, line)| line);
        v
    }

    #[test]
    fn a_justification_exempts_only_the_id_it_names() {
        let clock = "let t = Instant::now();";
        assert_eq!(in_core(&format!("{clock}\n")), [("L2".into(), 1)]);
        assert!(in_core(&format!("{clock} // lint: L2 — the one wall-clock read\n")).is_empty());
        assert!(in_core(&format!("// lint: L2 — the one wall-clock read,\n// kept apart\n{clock}\n")).is_empty());
        // Another id exempts nothing, so it is stale beside the finding it
        // did not exempt; so are a prefix of the id and an old-style tag.
        for other in ["L1", "L", "L22", "index-ok"] {
            let src = format!("{clock} // lint: {other} — the one wall-clock read\n");
            assert_eq!(in_core(&src), [("L2".into(), 1), (other.into(), 1)], "{other}");
        }
    }

    #[test]
    fn a_justification_shorter_than_three_characters_does_not_count() {
        let clock = "let t = Instant::now();";
        assert_eq!(in_core(&format!("{clock} // lint: L2 — ok\n")), [("L2".into(), 1)]);
        assert_eq!(in_core(&format!("{clock} // lint: L2\n")), [("L2".into(), 1)]);
        assert!(in_core(&format!("{clock} // lint: L2 — why\n")).is_empty());
    }

    #[test]
    fn a_stale_justification_is_reported_at_its_line() {
        let trailing = "let a = 1;\nlet b = 2; // lint: L2 — a clock used to be here\n";
        let stale = found(&file("crates/core/src/clock.rs", trailing), "L2");
        assert_eq!(stale.iter().map(|x| x.line).collect::<Vec<_>>(), [2]);
        assert!(stale[0].message.contains("exempts no L2 finding on line 2"), "{}", stale[0].message);
        // A comment-only block covers the line below it, and no other.
        let above = "// lint: L2 — a clock used to be\n// on the line below\nlet a = 1;\nlet t = Instant::now();\n";
        assert_eq!(in_core(above), [("L2".into(), 1), ("L2".into(), 4)]);
        let blank = "// lint: L2 — a blank line ends the block\n\nlet t = Instant::now();\n";
        assert_eq!(in_core(blank), [("L2".into(), 1), ("L2".into(), 3)]);
    }

    #[test]
    fn syntax_in_a_string_or_a_doc_comment_is_no_justification() {
        let quoted = "let t = Instant::now(); let s = \"// lint: L2 — quoted, not a comment\";\n";
        assert_eq!(in_core(quoted), [("L2".into(), 1)]);
        assert!(in_core("const S: &str = \"lint: L1 — in a string\";\n").is_empty());
        let docs = "//! Exempt with `// lint: <id> — <why>`.\n/// lint: L2 — a doc comment\nfn f() {}\n";
        assert!(in_core(docs).is_empty());
    }

    #[test]
    fn l1_unwrap_or_is_fine() {
        let f = file("crates/dnswire/src/name.rs", "fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn l2_flags_wall_clock_in_sim_domain() {
        let f = file("crates/core/src/guard/core.rs", "fn f() { let t = std::time::Instant::now(); }\n");
        assert_eq!(found(&f, "L2").len(), 1);
        let rt = file("crates/runtime/src/telemetry.rs", "fn f() { let t = std::time::Instant::now(); }\n");
        assert!(check(&rt).is_empty(), "wall clock is allowed in runtime");
    }

    #[test]
    fn scopes_take_directories_files_and_exceptions() {
        let seam = &RULES.iter().find(|r| r.id == "seam").expect("a seam row").scope;
        assert!(seam.contains("crates/core/src/guard/health.rs"));
        assert!(!seam.contains("crates/core/src/guard/sim.rs"), "excepted");
        assert!(!seam.contains("crates/core/src/guardian.rs"), "a directory ends in `/`");
        let l3 = &RULES.iter().find(|r| r.id == "L3").expect("an L3 row").scope;
        assert!(l3.contains("crates/runtime/src/ans.rs") && l3.contains("src/lib.rs"));
        assert!(!l3.contains("examples/live_proxy.rs"), "a directory left out");
        assert!(!l3.contains("crates/obs/src/trace.rs") && l3.contains("crates/obs/src/alert.rs"));
    }

    #[test]
    fn l3_requires_justification_outside_record_path() {
        let relaxed = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let bare = file("crates/runtime/src/ans.rs", &format!("{relaxed}\n"));
        assert_eq!(found(&bare, "L3").len(), 1);
        let just = file("crates/runtime/src/ans.rs", &format!("{relaxed} // lint: L3 — monotonic counter\n"));
        assert!(check(&just).is_empty(), "{:?}", check(&just));
        for exempt in ["crates/obs/src/metrics.rs", "crates/obs/src/trace.rs"] {
            assert!(check(&file(exempt, &format!("{relaxed}\n"))).is_empty(), "{exempt}");
        }
    }
}
