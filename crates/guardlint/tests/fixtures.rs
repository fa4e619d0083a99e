//! Fixture self-tests: known-bad snippets under `tests/fixtures/` (stored
//! with a `.txt` suffix so cargo never compiles them) and inline probes are
//! lexed and linted with synthetic paths, pinning guardlint's judgements:
//! unjustified constructs are flagged in scope and nowhere else, justified
//! ones and test regions are not, a justification with nothing to exempt is
//! flagged, and code inside strings or comments is invisible.

use guardlint::lexer;
use guardlint::lints::{self, SourceFile, RULES};

fn source(rel: &str, src: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
        scrub: lexer::scrub(src),
    }
}

fn fixture(file: &str, rel: &str) -> SourceFile {
    let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    source(rel, &src)
}

/// Lines of every finding with id `id`.
fn found(f: &SourceFile, id: &str) -> Vec<usize> {
    lints::check(f).iter().filter(|x| x.lint == id).map(|x| x.line).collect()
}

#[test]
fn l1_flags_known_bad_wire_code() {
    let f = fixture("bad_wire.rs.txt", "crates/dnswire/src/bad_wire.rs");
    let mut at = found(&f, "L1");
    at.sort_unstable();
    // msg[0]; [msg[1], msg[2]]; unwrap; expect; panic!. Line 11 justifies
    // line 12's msg[3] under L1; the #[cfg(test)] module (lines 17+)
    // indexes and unwraps freely.
    assert_eq!(at, vec![4, 5, 6, 7, 9], "exactly the five bad lines");
}

#[test]
fn l1_is_scoped_to_wire_input_modules() {
    // The same bad file outside the dnswire/guard-rx scope flags nothing
    // but line 11's justification, which has nothing left to exempt.
    let f = fixture("bad_wire.rs.txt", "crates/netsim/src/bad_wire.rs");
    assert_eq!(found(&f, "L1"), vec![11]);
}

#[test]
fn l1_follows_the_guard_into_every_module() {
    for module in ["core", "fwd", "health", "keys", "mod", "repl", "restore", "schemes", "sim", "stash", "stats"] {
        let f = fixture("bad_wire.rs.txt", &format!("crates/core/src/guard/{module}.rs"));
        assert_eq!(found(&f, "L1").len(), 5, "guard/{module}.rs is in scope");
    }
}

#[test]
fn l1_reads_the_cookie_client_and_its_simulated_driver() {
    for rel in ["crates/server/src/cookie_client.rs", "crates/core/src/local_guard.rs"] {
        let f = fixture("bad_wire.rs.txt", rel);
        assert_eq!(found(&f, "L1").len(), 5, "{rel} is in scope");
    }
    let f = fixture("bad_wire.rs.txt", "crates/core/src/classify.rs");
    assert_eq!(found(&f, "L1"), vec![11], "a core module that reads no wire input");
}

#[test]
fn l2_flags_clocks_and_ambient_rng_in_sim_crates() {
    let f = fixture("bad_determinism.rs.txt", "crates/core/src/clock.rs");
    assert_eq!(found(&f, "L2"), vec![3, 4, 5], "Instant::now, SystemTime, thread_rng");
    let core = fixture("bad_determinism.rs.txt", "crates/server/src/cookie_client.rs");
    assert_eq!(found(&core, "L2"), vec![3, 4, 5], "the cookie client's core reads no clock");
    // The runtime crate is the wall-clock domain: same file, no findings.
    let f2 = fixture("bad_determinism.rs.txt", "crates/runtime/src/clock.rs");
    assert!(found(&f2, "L2").is_empty());
}

#[test]
fn every_row_is_silent_on_strings_and_comments() {
    for rule in RULES {
        for path in rule.scope.paths {
            let rel = if path.ends_with('/') { format!("{path}strings.rs") } else { path.to_string() };
            let f = fixture("strings_and_comments.rs.txt", &rel);
            let all = lints::check(&f);
            assert!(all.is_empty(), "{} under {rel}: {all:?}", rule.id);
        }
    }
}

/// `(id, probe, a path in scope, a path out of scope or left out)`: one
/// case per gate `./ci.sh lint` used to grep for, and L3's exceptions.
const LAYERING: &[(&str, &str, &str, &str)] = &[
    ("seam", "use netsim::engine::Simulator;", "crates/core/src/guard/health.rs", "crates/core/src/guard/sim.rs"),
    ("seam", "fn f(ctx: &mut netsim::Context) {}", "crates/core/src/guard/core.rs", "crates/core/tests/guard_core.rs"),
    ("seam", "use netsim::engine::{Context, Node};", "crates/server/src/cookie_client.rs", "crates/server/src/simclient.rs"),
    ("state-table", "use std::collections::HashMap;", "crates/core/src/guard/fwd.rs", "crates/core/src/classify.rs"),
    ("state-table", "type T = HashMap<u32, u8>;", "crates/core/src/ratelimit.rs", "crates/netsim/src/engine.rs"),
    ("state-table", "let memo: HashMap<u32, bool> = HashMap::new();", "crates/core/src/guard/keys.rs", "crates/core/src/guard/stash.rs"),
    ("ans-wire", "let q = Message::decode(&buf);", "crates/server/src/nodes.rs", "crates/server/src/resolver.rs"),
    ("ans-wire", "let q = Message::decode(&buf);", "crates/runtime/src/ans.rs", "crates/runtime/src/client.rs"),
    ("ans-wire", "let r = self.authority.answer_wire(q, start, 512);", "crates/server/src/nodes.rs", "crates/server/src/authoritative.rs"),
    ("ans-wire", "let r = authority.answer_wire(q, start, 512);", "crates/runtime/src/ans.rs", "crates/server/src/authoritative.rs"),
    ("client-wire", "let reply = Message::decode(&pkt.payload)?;", "crates/server/src/cookie_client.rs", "crates/runtime/src/client.rs"),
    ("client-wire", "let msg = view.to_message();", "crates/server/src/simclient.rs", "crates/core/src/guard/core.rs"),
    ("client-wire", "let q = Message::decode(&pkt.payload).ok();", "crates/core/src/local_guard.rs", "crates/runtime/src/client.rs"),
    ("lrs-deadline", "ctx.set_timer(self.config.pace, tag);", "crates/server/src/simclient.rs", "crates/server/src/recursive.rs"),
    ("tcp-framing", "framed.extend_from_slice(&(wire.len() as u16).to_be_bytes());", "crates/server/src/nodes.rs", "crates/dnswire/src/framing.rs"),
    ("tcp-framing", "let prefix = (msg.len() as u16).to_be_bytes();", "crates/core/src/tcp_proxy.rs", "crates/netsim/src/tcp.rs"),
    ("tcp-framing", "buf.extend_from_slice(&(q.len() as u16).to_be_bytes());", "crates/runtime/src/client.rs", "tests/end_to_end.rs"),
    ("cookie-alg", "cookie_alg: CookieAlg::Md5,", "crates/core/src/config.rs", "crates/bench/src/worlds.rs"),
    ("cookie-alg", "let f = CookieFactory::from_seed(1).with_alg(CookieAlg::SipHash24);", "crates/server/src/nodes.rs", "crates/guardhash/src/cookie.rs"),
    ("cookie-alg", "CookieAlg::Md5 => Cookie::compute(key, ip),", "src/lib.rs", "crates/guardhash/src/cookie.rs"),
    ("cookie-alg", "let c = config.with_cookie_alg(CookieAlg::SipHash24);", "crates/runtime/src/guard.rs", "crates/bench/src/ablations.rs"),
    ("netsim-engine", "links: HashMap<(NodeId, NodeId), Link>,", "crates/netsim/src/engine.rs", "crates/netsim/src/link.rs"),
    ("netsim-engine", "struct NullNode;", "crates/netsim/src/engine.rs", "crates/core/src/lib.rs"),
    ("features", "#[cfg(feature = \"x\")]", "tests/chaos.rs", "perf/src/main.rs"),
    ("features", "if cfg!(feature=\"y\") {}", "examples/quickstart.rs", "vendor/rand/src/lib.rs"),
    ("features", "[features]", "crates/obs/Cargo.toml", "perf/Cargo.toml"),
    ("testbed", "let e = AlertEngine::new(config);", "crates/bench/src/fleet.rs", "crates/bench/src/worlds.rs"),
    ("testbed", "let e = AlertEngine::new(config);", "tests/failover.rs", "crates/obs/src/alert.rs"),
    ("testbed", "let g = RemoteGuard::new(config, classifier);", "tests/end_to_end.rs", "crates/bench/src/worlds.rs"),
    ("L3", "hits.fetch_add(1, Ordering::Relaxed);", "crates/runtime/src/ans.rs", "crates/obs/src/metrics.rs"),
    ("L3", "let n = hits.load(Ordering::Relaxed);", "src/lib.rs", "examples/live_proxy.rs"),
    ("L3", "self.0.store(true, Ordering::Relaxed);", "crates/runtime/src/stopflag.rs", "crates/obs/src/trace.rs"),
];

#[test]
fn layering_rows_fire_in_scope_only() {
    for (id, probe, inside, outside) in LAYERING {
        let src = format!("// a probe for {id}\n{probe}\n");
        assert_eq!(found(&source(inside, &src), id), vec![2], "{id}: {probe} in {inside}");
        assert!(lints::check(&source(outside, &src)).is_empty(), "{id}: {probe} in {outside}");
    }
}

#[test]
fn test_items_count_for_seam_features_and_testbed_only() {
    for (id, probe, inside, _) in LAYERING {
        let src = format!("#[cfg(test)]\nmod tests {{\n    {probe}\n}}\n");
        let reads_tests = matches!(*id, "seam" | "features" | "testbed");
        let want = if reads_tests { vec![3] } else { vec![] };
        assert_eq!(found(&source(inside, &src), id), want, "{id} in {inside}'s tests");
    }
}

#[test]
fn a_doc_comment_naming_cfg_test_does_not_end_the_code() {
    // The sed gate cut each file at its first textual `#[cfg(test)]`, so
    // this module doc blinded it to the HashMap below.
    let src = "//! The unbounded reference lives under `#[cfg(test)]`.\n\nuse std::collections::HashMap;\n";
    assert_eq!(found(&source("crates/core/src/ratelimit.rs", src), "state-table"), vec![3]);
}

#[test]
fn core_files_are_capped_at_1200_lines_of_code() {
    let code = "fn f() {}\n".repeat(1200);
    let tests = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
    let at_cap = source("crates/core/src/guard/core.rs", &format!("{code}{tests}"));
    assert!(found(&at_cap, "core-size").is_empty(), "test items do not count");
    let over = source("crates/core/src/guard/core.rs", &format!("{code}{tests}fn g() {{}}\n"));
    assert_eq!(found(&over, "core-size"), vec![1205], "the first line past the cap");
    let elsewhere = source("crates/netsim/src/engine.rs", &format!("{code}fn g() {{}}\n"));
    assert!(found(&elsewhere, "core-size").is_empty());
}

#[test]
fn l3_requires_justification_outside_obs_record_path() {
    let f = fixture("bad_ordering.rs.txt", "crates/runtime/src/flags.rs");
    let all = lints::check(&f);
    let at: Vec<usize> = all.iter().map(|x| x.line).collect();
    assert_eq!(at, vec![4], "only the unjustified flag store: {all:?}");
    assert!(
        all[0].message.contains("Release/Acquire pair"),
        "a flag store reads the pairing advice: {}",
        all[0].message
    );
    // The obs record path is out of scope wholesale, so the justification
    // on line 5 is stale there.
    for rel in ["crates/obs/src/metrics.rs", "crates/obs/src/trace.rs"] {
        let f = fixture("bad_ordering.rs.txt", rel);
        assert_eq!(found(&f, "L3"), vec![5], "{rel}");
    }
}

#[test]
fn every_finding_of_a_check_can_be_justified() {
    // One justification per id, above the line each finding is on.
    let cases: &[(&str, &str, &str)] = &[
        ("L1", "crates/dnswire/src/name.rs", "let b = msg[0];"),
        ("L2", "crates/netsim/src/clock.rs", "let t = Instant::now();"),
        ("L3", "crates/runtime/src/ans.rs", "hits.fetch_add(1, Ordering::Relaxed);"),
        ("state-table", "crates/core/src/ratelimit.rs", "use std::collections::HashMap;"),
    ];
    for (id, rel, probe) in cases {
        assert_eq!(found(&source(rel, &format!("{probe}\n")), id), vec![1], "{id}: {probe}");
        let src = format!("// lint: {id} — a probe, justified\n{probe}\n");
        let all = lints::check(&source(rel, &src));
        assert!(all.is_empty(), "{id}: {all:?}");
    }
}
