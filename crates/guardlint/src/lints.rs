//! The five guardlint families.
//!
//! | id | invariant |
//! |----|-----------|
//! | L1 | no panic on wire input: `unwrap`/`expect`/`panic!`-family macros and slice indexing are forbidden in `dnswire` and the guard rx modules |
//! | L2 | determinism: wall clocks and ambient RNG are forbidden in the sim-domain crates (`core`, `netsim`, `server`, `attack`, `obs`) |
//! | L3 | atomic-ordering discipline: `Ordering::Relaxed` outside the obs record path needs a `// lint: relaxed-ok — ...` justification |
//! | L6 | shared-state escape: a variable captured by a spawned closure and mutated inside it must go through an atomic/lock (`guardcheck::sync`) or carry `// lint: shared-ok — <why>` |
//! | L7 | lock ordering: the per-function lock-acquisition graph must be acyclic — an A→B hold-while-acquiring edge with a B→A edge elsewhere is a deadlock recipe |
//!
//! L1–L3 are per-line token lints over scrubbed code (see [`crate::lexer`]);
//! L6/L7 are brace-aware structural lints (see [`crate::scopes`]) feeding
//! the guardcheck model checker's static front line. (L4 and L5, the two
//! cross-file telemetry families, are retired: telemetry names are declared
//! once in `obs::vocab` and checked where they are used, at run time.)

use crate::findings::{Finding, Severity};
use crate::lexer::Scrubbed;
use crate::scopes::{functions, ScopeMap};
use std::collections::{BTreeMap, BTreeSet};

/// One lexed source file, addressed by workspace-relative path.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Scrubbed view (see [`crate::lexer::scrub`]).
    pub scrub: Scrubbed,
}

// ---------------------------------------------------------------- scopes

/// The guard's own modules: every file under `crates/core/src/guard/` but
/// its simulated-world tests. L1 follows the guard's code wherever a split
/// puts it.
fn in_guard(rel: &str) -> bool {
    rel.starts_with("crates/core/src/guard/") && rel != "crates/core/src/guard/tests.rs"
}

/// L1 scope: the modules that parse adversarial wire input.
fn in_l1_scope(rel: &str) -> bool {
    rel.starts_with("crates/dnswire/src/") || in_guard(rel) || rel == "crates/core/src/tcp_proxy.rs"
}

/// L2 scope: sim-domain crates where all time/randomness must come from
/// the simulator (wall clock is allowed only in `runtime` and tooling).
fn in_l2_scope(rel: &str) -> bool {
    ["core", "netsim", "server", "attack", "obs"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// L3 exemption: the lock-free metrics/trace record path is the one place
/// plain relaxed counters are the design (single monotonic cells, no
/// cross-cell ordering contract); the guardcheck crate *implements* the
/// ordering semantics, so it necessarily names every `Ordering` variant.
fn l3_exempt(rel: &str) -> bool {
    rel == "crates/obs/src/metrics.rs"
        || rel == "crates/obs/src/trace.rs"
        || rel.starts_with("crates/guardcheck/src/")
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

/// Whether the line comment carries `lint: <tag> — <justification>` with a
/// non-trivial justification.
fn has_justification(comment: &str, tag: &str) -> bool {
    let needle = format!("lint: {tag}");
    let Some(p) = comment.find(&needle) else {
        return false;
    };
    let rest = comment[p + needle.len()..]
        .trim_start_matches([' ', '—', '–', '-', ':']);
    rest.trim().len() >= 3
}

/// Whether line `i` carries a `lint: <tag>` justification, either in its
/// trailing comment or in the comment-only lines directly above it (a
/// justification usually wants more room than the end of the line).
fn justified(lines: &[crate::lexer::ScrubbedLine], i: usize, tag: &str) -> bool {
    if has_justification(&lines[i].comment, tag) {
        return true;
    }
    lines[..i]
        .iter()
        .rev()
        .take_while(|l| l.code.trim().is_empty() && !l.comment.trim().is_empty())
        .any(|l| has_justification(&l.comment, tag))
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

// --------------------------------------------------------------- L1 – L3

/// L1: no panic on wire input.
pub fn l1(file: &SourceFile) -> Vec<Finding> {
    if !in_l1_scope(&file.rel) {
        return Vec::new();
    }
    let mut out = Vec::new();
    const PANICS: &[(&str, &str)] = &[
        (".unwrap()", "`unwrap()` can panic on adversarial wire input; propagate a typed error"),
        (".expect(", "`expect()` can panic on adversarial wire input; propagate a typed error"),
        ("panic!(", "`panic!` on a wire-input path; return a typed error instead"),
        ("unreachable!(", "`unreachable!` on a wire-input path; make the state unrepresentable or return a typed error"),
        ("todo!(", "`todo!` placeholder on a wire-input path"),
        ("unimplemented!(", "`unimplemented!` placeholder on a wire-input path"),
    ];
    for (i, line) in file.scrub.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (tok, msg) in PANICS {
            if find_token(&line.code, tok).is_some() {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: i + 1,
                    lint: "L1",
                    severity: Severity::Error,
                    message: (*msg).to_string(),
                });
            }
        }
        if !index_brackets(&line.code).is_empty()
            && !justified(&file.scrub.lines, i, "index-ok")
        {
            out.push(Finding {
                file: file.rel.clone(),
                line: i + 1,
                lint: "L1",
                severity: Severity::Error,
                message: "slice/array index can panic on wire input; use `get()`-style \
                          access with a typed error, or justify with `// lint: index-ok — <why>`"
                    .to_string(),
            });
        }
    }
    out
}

/// L2: determinism — no wall clock or ambient RNG in sim-domain crates.
pub fn l2(file: &SourceFile) -> Vec<Finding> {
    if !in_l2_scope(&file.rel) {
        return Vec::new();
    }
    const CLOCKS: &[(&str, &str)] = &[
        ("Instant::now", "wall-clock `Instant::now()` in a sim-domain crate; take time from the simulator context"),
        ("SystemTime", "`SystemTime` in a sim-domain crate; sim time is the only clock here"),
        ("UNIX_EPOCH", "`UNIX_EPOCH` in a sim-domain crate; sim time is the only clock here"),
        ("thread_rng", "ambient `thread_rng()` breaks run reproducibility; use a seeded RNG threaded from the scenario"),
        ("from_entropy", "entropy-seeded RNG breaks run reproducibility; use a seeded RNG threaded from the scenario"),
        ("rand::random", "ambient `rand::random` breaks run reproducibility; use a seeded RNG threaded from the scenario"),
    ];
    let mut out = Vec::new();
    for (i, line) in file.scrub.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (tok, msg) in CLOCKS {
            if find_token(&line.code, tok).is_some() {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: i + 1,
                    lint: "L2",
                    severity: Severity::Error,
                    message: (*msg).to_string(),
                });
            }
        }
    }
    out
}

/// L3: every `Ordering::Relaxed` outside the obs record path needs an
/// inline justification; boolean flags published with `Relaxed` get a
/// pairing-specific message.
pub fn l3(file: &SourceFile) -> Vec<Finding> {
    if l3_exempt(&file.rel) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in file.scrub.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if find_token(&line.code, "Ordering::Relaxed").is_none() {
            continue;
        }
        if justified(&file.scrub.lines, i, "relaxed-ok") {
            continue;
        }
        let flag_store = line.code.contains(".store(")
            && (line.code.contains("true") || line.code.contains("false"));
        let message = if flag_store {
            "cross-thread flag stored with `Ordering::Relaxed`; pair Release (store) with \
             Acquire (load), or justify with `// lint: relaxed-ok — <why>`"
        } else {
            "`Ordering::Relaxed` outside the obs record path; justify with \
             `// lint: relaxed-ok — <why>` or use an Acquire/Release pair"
        };
        out.push(Finding {
            file: file.rel.clone(),
            line: i + 1,
            lint: "L3",
            severity: Severity::Error,
            message: message.to_string(),
        });
    }
    out
}

// --------------------------------------------------------------- L6 / L7

/// Matching `)` of the `(` at `open` (byte offsets); `None` if unbalanced.
fn matching_paren(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the token ending just before `at` (skipping whitespace) is `kw`.
fn preceded_by_kw(flat: &str, at: usize, kw: &str) -> bool {
    let head = flat[..at].trim_end();
    head.ends_with(kw)
        && !head[..head.len() - kw.len()]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Byte offsets in `code` where an assignment's left-hand side ends:
/// plain `=` and every compound `op=`, excluding `==`, `!=`, `<=`, `>=`
/// and `=>`.
fn assignment_sites(code: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    for i in 0..b.len() {
        if b[i] != b'=' {
            continue;
        }
        if matches!(b.get(i + 1), Some(b'=') | Some(b'>')) {
            continue; // `==` / `=>`
        }
        let prev = i.checked_sub(1).map(|k| b[k]);
        let prev2 = i.checked_sub(2).map(|k| b[k]);
        match prev {
            Some(b'=') | Some(b'!') => {} // second `=` of `==`, or `!=`
            Some(b'<') => {
                if prev2 == Some(b'<') {
                    out.push(i - 2); // `<<=`
                }
            }
            Some(b'>') => {
                if prev2 == Some(b'>') {
                    out.push(i - 2); // `>>=`
                }
            }
            Some(op) if b"+-*/%&|^".contains(&op) => out.push(i - 1),
            _ => out.push(i),
        }
    }
    out
}

/// Walks backwards from `end` over a place expression — identifiers,
/// `.` / `::` separators and balanced `(…)` / `[…]` groups — returning
/// `(full path text, root identifier)`. The root is the leftmost plain
/// identifier (`self.shared.ring` → `shared.ring` path, root `shared`
/// after the `self.` strip; `*m.lock()` → path `m.lock()`, root `m`).
fn path_before(flat: &str, end: usize) -> (String, String) {
    let b = flat.as_bytes();
    let mut i = end;
    while i > 0 && b[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    let stop = i;
    loop {
        if i == 0 {
            break;
        }
        let c = b[i - 1];
        if c == b')' || c == b']' {
            // Skip the balanced group backwards.
            let (open, close) = if c == b')' { (b'(', b')') } else { (b'[', b']') };
            let mut depth = 0i32;
            let mut k = i;
            while k > 0 {
                let cc = b[k - 1];
                if cc == close {
                    depth += 1;
                } else if cc == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            if k == 0 {
                break;
            }
            i = k - 1;
        } else if is_ident_byte(c) || c == b'.' || c == b':' {
            i -= 1;
        } else {
            break;
        }
    }
    let mut path = flat[i..stop].trim_start_matches(':').to_string();
    if let Some(rest) = path.strip_prefix("self.") {
        path = rest.to_string();
    }
    let root: String = path
        .chars()
        .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
        .collect();
    (path, root)
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Parameter identifiers of closures nested in `text`: a `|` opening a
/// parameter list follows `(`, `,`, `=`, `{`, `;` or the `move` keyword
/// (a binary `|` always follows an operand). Everything up to the
/// closing `|` is parsed as patterns.
fn collect_closure_params(text: &str, into: &mut BTreeSet<String>) {
    let b = text.as_bytes();
    for i in 0..b.len() {
        if b[i] != b'|' {
            continue;
        }
        let head = text[..i].trim_end();
        let opens = head.is_empty()
            || head.ends_with(['(', ',', '=', '{', ';'])
            || preceded_by_kw(text, i, "move");
        if !opens || b.get(i + 1) == Some(&b'|') {
            continue; // operand `|`, or `||` (no params)
        }
        let Some(close) = text[i + 1..].find('|') else { continue };
        let params = &text[i + 1..i + 1 + close];
        if params.contains(';') || params.contains('{') {
            continue; // ran past a statement boundary: not a param list
        }
        for param in params.split(',') {
            let pat = param.split(':').next().unwrap_or("");
            for word in pat.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                if !word.is_empty() && !matches!(word, "mut" | "ref") {
                    into.insert(word.to_string());
                }
            }
        }
    }
}

/// Identifiers bound inside a closure body (or parameter list): `let`
/// patterns, `for` loop variables, closure parameters. Over-collects
/// pattern constructor names (`Some`), which is harmless — they are
/// never assignment roots.
fn collect_bindings(text: &str, into: &mut BTreeSet<String>) {
    let b = text.as_bytes();
    for kw in ["let", "for"] {
        let mut from = 0usize;
        while let Some(p) = find_token(&text[from..], kw) {
            let at = from + p;
            from = at + kw.len();
            // Idents up to the terminator: `=` for let, `in` for for.
            let mut j = from;
            while j < b.len() && b[j] != b'=' && b[j] != b';' && b[j] != b'{' {
                if is_ident_byte(b[j]) {
                    let s = j;
                    while j < b.len() && is_ident_byte(b[j]) {
                        j += 1;
                    }
                    let ident = &text[s..j];
                    if kw == "for" && ident == "in" {
                        break;
                    }
                    if !matches!(ident, "mut" | "ref" | "in") {
                        into.insert(ident.to_string());
                    }
                } else {
                    j += 1;
                }
            }
        }
    }
}

/// L6: shared-state escape. A variable captured by a spawned closure and
/// mutated inside it bypasses the repo's concurrency discipline: every
/// cross-thread cell must be an atomic or lock from `guardcheck::sync`
/// (so the model checker can exercise it) or carry an explicit
/// `// lint: shared-ok — <why>` (e.g. the value is moved, not shared).
/// The lexer cannot see ownership, so moved-and-mutated locals need the
/// justification too — that note is the audit trail the lint wants.
pub fn l6(file: &SourceFile) -> Vec<Finding> {
    let flat = &file.scrub.flat;
    let bytes = flat.as_bytes();
    let scopes = ScopeMap::build(flat);
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = find_token(&flat[from..], "spawn") {
        let at = from + p;
        from = at + "spawn".len();
        if preceded_by_kw(flat, at, "fn") {
            continue; // a `fn spawn(…)` definition, not a call
        }
        let mut i = from;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if bytes.get(i) != Some(&b'(') {
            continue;
        }
        let Some(call_close) = matching_paren(bytes, i) else { continue };
        let args = &flat[i + 1..call_close];
        // The closure literal: `move |params| body` / `|| body`. Calls
        // without one (`GuardServer::spawn(addr, seed)`) are not spawns
        // of interest.
        let Some(bar) = args.find('|') else { continue };
        let (params, body_rel) = if args[bar + 1..].starts_with('|') {
            ("", bar + 2)
        } else {
            match args[bar + 1..].find('|') {
                Some(q) => (&args[bar + 1..bar + 1 + q], bar + 2 + q),
                None => continue,
            }
        };
        // Body extent: a brace block (matched via the scope map) or a
        // bare expression running to the call's closing paren.
        let body_abs = i + 1 + body_rel;
        let mut k = body_abs;
        while k < call_close && bytes[k].is_ascii_whitespace() {
            k += 1;
        }
        let (body_start, body_end) = if bytes.get(k) == Some(&b'{') {
            match scopes.close_of(k) {
                Some(c) => (k + 1, c),
                None => (k + 1, call_close),
            }
        } else {
            (k, call_close)
        };
        let body = &flat[body_start..body_end];

        let mut locals: BTreeSet<String> = BTreeSet::new();
        for param in params.split(',') {
            // Pattern idents before any `: Type` annotation.
            let pat = param.split(':').next().unwrap_or("");
            for word in pat.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                if !word.is_empty() && !matches!(word, "mut" | "ref") {
                    locals.insert(word.to_string());
                }
            }
        }
        collect_bindings(body, &mut locals);
        collect_closure_params(body, &mut locals);

        for lhs_end in assignment_sites(body) {
            let (path, root) = path_before(flat, body_start + lhs_end);
            if root.is_empty()
                || root == "self"
                || root.chars().next().is_some_and(|c| c.is_ascii_digit())
                || locals.contains(&root)
                || path.contains("lock(")
            {
                continue;
            }
            let line = file.scrub.line_of(body_start + lhs_end);
            if file.scrub.is_test_line(line) || justified(&file.scrub.lines, line - 1, "shared-ok")
            {
                continue;
            }
            out.push(Finding {
                file: file.rel.clone(),
                line,
                lint: "L6",
                severity: Severity::Error,
                message: format!(
                    "captured `{root}` is mutated inside a spawned closure; share it \
                     through a guardcheck::sync atomic or lock (so the model checker \
                     covers it), or justify with `// lint: shared-ok — <why>`"
                ),
            });
        }
    }
    out
}

/// One hold-while-acquiring edge: lock `from` was (plausibly) held when
/// lock `to` was acquired.
struct LockEdge {
    from: String,
    to: String,
    file: String,
    /// Line of the `to` acquisition (the finding anchor).
    line: usize,
    /// Line of the `from` acquisition (context in the message).
    held_line: usize,
}

/// Lock acquisitions of one function body, with liveness extents:
/// `let g = x.lock()` guards live to the end of their enclosing scope
/// (or an explicit `drop(g)`); bare `x.lock().f()` temporaries live to
/// the end of their statement.
fn lock_sites(
    file: &SourceFile,
    scopes: &ScopeMap,
    body: (usize, usize),
) -> Vec<(usize, String, usize, usize)> {
    let flat = &file.scrub.flat;
    let bytes = flat.as_bytes();
    let (bo, bc) = body;
    let mut sites = Vec::new();
    let mut from = bo;
    while let Some(p) = flat[from..bc].find(".lock()") {
        let at = from + p;
        from = at + ".lock()".len();
        let line = file.scrub.line_of(at);
        if file.scrub.is_test_line(line) {
            continue;
        }
        let (path, root) = path_before(flat, at);
        if root.is_empty() {
            continue;
        }
        // Statement start: the last `;`/`{`/`}` before the receiver.
        let recv_start = at - path.len();
        let stmt_start = flat[bo..recv_start]
            .rfind([';', '{', '}'])
            .map_or(bo, |q| bo + q + 1);
        let let_bound = find_token(&flat[stmt_start..recv_start], "let").is_some();
        let live_until = if let_bound {
            let scope_end = scopes.enclosing(at).map_or(bc, |(_, c)| c).min(bc);
            // An explicit `drop(guard)` releases early.
            let guard = flat[stmt_start..recv_start]
                .split_whitespace()
                .filter(|w| !matches!(*w, "let" | "mut"))
                .find_map(|w| {
                    let id: String =
                        w.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
                    (!id.is_empty()).then_some(id)
                });
            match guard.and_then(|g| {
                let needle = format!("drop({g})");
                flat[at..scope_end].find(&needle).map(|q| at + q)
            }) {
                Some(dropped) => dropped,
                None => scope_end,
            }
        } else {
            flat[at..bc]
                .find(';')
                .map_or_else(|| bc.min(bytes.len()), |q| at + q)
        };
        sites.push((at, path, live_until, line));
    }
    sites
}

/// L7: lock-ordering. Builds the hold-while-acquiring graph across the
/// whole lint set (edges keyed by receiver path, `self.` stripped) and
/// flags every acquisition participating in a cycle — the classic
/// AB/BA deadlock recipe — plus re-acquisition of a lock already held
/// (a self-deadlock with the non-reentrant `guardcheck::sync::Mutex`).
/// `// lint: lockorder-ok — <why>` on the inner acquisition exempts it.
pub fn l7(files: &[SourceFile]) -> Vec<Finding> {
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut selfs: Vec<LockEdge> = Vec::new();
    for f in files {
        let flat = &f.scrub.flat;
        let scopes = ScopeMap::build(flat);
        for func in functions(flat, &scopes) {
            let sites = lock_sites(f, &scopes, func.body);
            for (i, (at, path, _until, line)) in sites.iter().enumerate() {
                for (_pat, ppath, puntil, pline) in &sites[..i] {
                    if puntil <= at {
                        continue; // earlier guard already dead here
                    }
                    let edge = LockEdge {
                        from: ppath.clone(),
                        to: path.clone(),
                        file: f.rel.clone(),
                        line: *line,
                        held_line: *pline,
                    };
                    if ppath == path {
                        selfs.push(edge);
                    } else {
                        edges.push(edge);
                    }
                }
            }
        }
    }

    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let reaches = |start: &str, goal: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if n == goal {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };

    let mut out = Vec::new();
    for e in &selfs {
        let file = files.iter().find(|f| f.rel == e.file);
        if file.is_some_and(|f| justified(&f.scrub.lines, e.line - 1, "lockorder-ok")) {
            continue;
        }
        out.push(Finding {
            file: e.file.clone(),
            line: e.line,
            lint: "L7",
            severity: Severity::Error,
            message: format!(
                "lock `{}` re-acquired while the guard from line {} is still live — \
                 self-deadlock with a non-reentrant mutex; drop the first guard, or \
                 justify with `// lint: lockorder-ok — <why>`",
                e.to, e.held_line
            ),
        });
    }
    for e in &edges {
        if !reaches(&e.to, &e.from) {
            continue;
        }
        let file = files.iter().find(|f| f.rel == e.file);
        if file.is_some_and(|f| justified(&f.scrub.lines, e.line - 1, "lockorder-ok")) {
            continue;
        }
        let witness = edges
            .iter()
            .find(|w| w.from == e.to && reaches(&w.to, &e.from))
            .map(|w| format!(" (reverse path starts at {}:{})", w.file, w.line))
            .unwrap_or_default();
        out.push(Finding {
            file: e.file.clone(),
            line: e.line,
            lint: "L7",
            severity: Severity::Error,
            message: format!(
                "lock-order cycle: `{}` (held since line {}) → `{}` here, but the \
                 reverse order also exists{witness}; pick one global order or justify \
                 with `// lint: lockorder-ok — <why>`",
                e.from, e.held_line, e.to
            ),
        });
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    out
}

/// Runs every family over the lint set.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        out.extend(l1(f));
        out.extend(l2(f));
        out.extend(l3(f));
        out.extend(l6(f));
    }
    out.extend(l7(files));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile { rel: rel.to_string(), scrub: scrub(src) }
    }

    #[test]
    fn l1_flags_unwrap_in_scope_only() {
        let bad = file("crates/dnswire/src/name.rs", "fn f(v: Option<u8>) { v.unwrap(); }\n");
        assert_eq!(l1(&bad).len(), 1);
        let out_of_scope = file("crates/bench/src/report.rs", "fn f(v: Option<u8>) { v.unwrap(); }\n");
        assert!(l1(&out_of_scope).is_empty());
    }

    #[test]
    fn l1_ignores_strings_comments_and_tests() {
        let src = "const S: &str = \"x.unwrap()\"; // unwrap() in comment\n#[cfg(test)]\nmod t { fn f(v: Option<u8>) { v.unwrap(); } }\n";
        let f = file("crates/dnswire/src/name.rs", src);
        assert!(l1(&f).is_empty(), "{:?}", l1(&f));
    }

    #[test]
    fn l1_indexing_needs_justification() {
        let f = file("crates/dnswire/src/header.rs", "fn f(b: &[u8]) -> u8 { b[0] }\n");
        assert_eq!(l1(&f).len(), 1);
        let ok = file(
            "crates/dnswire/src/header.rs",
            "fn f(b: &[u8]) -> u8 { b[0] } // lint: index-ok — length checked by caller\n",
        );
        assert!(l1(&ok).is_empty());
    }

    #[test]
    fn l1_unwrap_or_is_fine() {
        let f = file("crates/dnswire/src/name.rs", "fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n");
        assert!(l1(&f).is_empty());
    }

    #[test]
    fn l2_flags_wall_clock_in_sim_domain() {
        let f = file("crates/core/src/guard/core.rs", "fn f() { let t = std::time::Instant::now(); }\n");
        let findings = l2(&f);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "L2");
        let rt = file("crates/runtime/src/telemetry.rs", "fn f() { let t = std::time::Instant::now(); }\n");
        assert!(l2(&rt).is_empty(), "wall clock is allowed in runtime");
    }

    #[test]
    fn l3_requires_justification_outside_record_path() {
        let bare = file("crates/runtime/src/ans.rs", "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n");
        assert_eq!(l3(&bare).len(), 1);
        let just = file(
            "crates/runtime/src/ans.rs",
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); } // lint: relaxed-ok — monotonic counter\n",
        );
        assert!(l3(&just).is_empty());
        let exempt = file("crates/obs/src/metrics.rs", "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n");
        assert!(l3(&exempt).is_empty());
    }

    #[test]
    fn l3_flag_store_gets_pairing_message() {
        let f = file("crates/runtime/src/ans.rs", "fn f(s: &AtomicBool) { s.store(true, Ordering::Relaxed); }\n");
        let findings = l3(&f);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("Release"));
    }

    #[test]
    fn l6_flags_captured_mutation_in_spawned_closure() {
        let f = file(
            "crates/runtime/src/worker.rs",
            "fn f() { let mut shared = 0u64; std::thread::spawn(move || { shared += 1; }); }\n",
        );
        let found = l6(&f);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("`shared`"), "{}", found[0].message);
    }

    #[test]
    fn l6_locals_locks_and_justifications_are_clean() {
        let local = file(
            "crates/runtime/src/worker.rs",
            "fn f() { std::thread::spawn(move || { let mut n = 0; n += 1; }); }\n",
        );
        assert!(l6(&local).is_empty(), "{:?}", l6(&local));
        let locked = file(
            "crates/runtime/src/worker.rs",
            "fn f() { std::thread::spawn(move || { *snap.lock() = fresh(); }); }\n",
        );
        assert!(l6(&locked).is_empty(), "{:?}", l6(&locked));
        let just = file(
            "crates/runtime/src/worker.rs",
            "fn f() { std::thread::spawn(move || {\n    total += 1; // lint: shared-ok — moved accumulator, returned via join\n}); }\n",
        );
        assert!(l6(&just).is_empty(), "{:?}", l6(&just));
    }

    #[test]
    fn l6_skips_definitions_and_non_closure_spawn_calls() {
        let f = file(
            "crates/runtime/src/worker.rs",
            "pub fn spawn(x: u8) { total = x; }\nfn g() { GuardServer::spawn(addr, seed); }\n",
        );
        assert!(l6(&f).is_empty(), "{:?}", l6(&f));
    }

    #[test]
    fn l6_closure_params_and_for_bindings_are_local() {
        let f = file(
            "crates/runtime/src/worker.rs",
            "fn f() { pool.spawn(move |mut acc: u64| { for x in 0..3 { acc += x; } acc }); }\n",
        );
        assert!(l6(&f).is_empty(), "{:?}", l6(&f));
    }

    #[test]
    fn l6_nested_closure_params_are_local() {
        // `CURRENT.with(|c| *c.borrow_mut() = …)` inside a spawn: `c` is a
        // nested-closure parameter, not a capture.
        let f = file(
            "crates/runtime/src/worker.rs",
            "fn f() { std::thread::spawn(move || { CURRENT.with(|c| *c.borrow_mut() = Some(1)); }); }\n",
        );
        assert!(l6(&f).is_empty(), "{:?}", l6(&f));
    }

    #[test]
    fn l7_detects_ab_ba_cycle_across_functions() {
        let f = file(
            "crates/core/src/shards.rs",
            "fn a(&self) { let g = self.m1.lock(); self.m2.lock().poke(); }\n\
             fn b(&self) { let g = self.m2.lock(); self.m1.lock().poke(); }\n",
        );
        let found = l7(std::slice::from_ref(&f));
        assert_eq!(found.len(), 2, "both directions flagged: {found:?}");
        assert!(found[0].message.contains("m1") && found[0].message.contains("m2"));
        assert!(found.iter().any(|x| x.message.contains("reverse path starts at")));
    }

    #[test]
    fn l7_temporary_guards_make_no_edges() {
        let f = file(
            "crates/core/src/shards.rs",
            "fn a(&self) { self.m1.lock().poke(); self.m2.lock().poke(); }\n\
             fn b(&self) { self.m2.lock().poke(); self.m1.lock().poke(); }\n",
        );
        assert!(l7(std::slice::from_ref(&f)).is_empty(), "{:?}", l7(std::slice::from_ref(&f)));
    }

    #[test]
    fn l7_self_double_lock_flagged_and_drop_releases() {
        let double = file(
            "crates/core/src/shards.rs",
            "fn a(&self) { let g = self.m.lock(); self.m.lock().poke(); }\n",
        );
        let found = l7(std::slice::from_ref(&double));
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("self-deadlock"), "{}", found[0].message);
        let dropped = file(
            "crates/core/src/shards.rs",
            "fn a(&self) { let g = self.m.lock(); drop(g); self.m.lock().poke(); }\n",
        );
        assert!(l7(std::slice::from_ref(&dropped)).is_empty());
    }

    #[test]
    fn l7_consistent_order_is_clean_and_justification_respected() {
        let consistent = file(
            "crates/core/src/shards.rs",
            "fn a(&self) { let g = self.m1.lock(); self.m2.lock().poke(); }\n\
             fn b(&self) { let g = self.m1.lock(); self.m2.lock().poke(); }\n",
        );
        assert!(l7(std::slice::from_ref(&consistent)).is_empty());
        let justified = file(
            "crates/core/src/shards.rs",
            "fn a(&self) { let g = self.m1.lock(); self.m2.lock().poke(); } // lint: lockorder-ok — m2 is a leaf lock\n\
             fn b(&self) { let g = self.m2.lock(); self.m1.lock().poke(); } // lint: lockorder-ok — never concurrent with a()\n",
        );
        assert!(l7(std::slice::from_ref(&justified)).is_empty());
    }
}
