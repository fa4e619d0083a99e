//! Fixture self-tests: known-bad snippets under `tests/fixtures/` (stored
//! with a `.txt` suffix so cargo never compiles them) are lexed and linted
//! with synthetic in-scope paths, pinning guardlint's judgements:
//! unjustified constructs are flagged, justified ones and test regions are
//! not, and code inside strings or comments is invisible.

use guardlint::findings::Finding;
use guardlint::lexer;
use guardlint::lints::{self, SourceFile};

fn fixture(file: &str, rel: &str) -> SourceFile {
    let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    SourceFile {
        rel: rel.to_string(),
        scrub: lexer::scrub(&src),
    }
}

fn lines(findings: &[Finding]) -> Vec<usize> {
    findings.iter().map(|f| f.line).collect()
}

#[test]
fn l1_flags_known_bad_wire_code() {
    let f = fixture("bad_wire.rs.txt", "crates/dnswire/src/bad_wire.rs");
    let found = lints::l1(&f);
    let at = lines(&found);
    // msg[0]; [msg[1], msg[2]]; unwrap; expect; panic!.
    assert!(at.contains(&4), "unjustified index must be flagged: {at:?}");
    assert!(at.contains(&5), "index inside array literal args must be flagged: {at:?}");
    assert!(at.contains(&6), "unwrap must be flagged: {at:?}");
    assert!(at.contains(&7), "expect must be flagged: {at:?}");
    assert!(at.contains(&9), "panic! must be flagged: {at:?}");
    assert_eq!(found.len(), 5, "exactly the five bad lines: {found:?}");
}

#[test]
fn l1_respects_justifications_and_test_regions() {
    let f = fixture("bad_wire.rs.txt", "crates/dnswire/src/bad_wire.rs");
    let at = lines(&lints::l1(&f));
    // Line 12 carries `lint: index-ok` for line 13's msg[3].
    assert!(!at.contains(&12), "{at:?}");
    assert!(!at.contains(&13), "justified index must be exempt: {at:?}");
    // The #[cfg(test)] module (lines 17+) indexes and unwraps freely.
    assert!(
        at.iter().all(|&l| l < 17),
        "test-region code must be exempt: {at:?}"
    );
}

#[test]
fn l1_ignores_strings_and_comments() {
    let f = fixture(
        "strings_and_comments.rs.txt",
        "crates/dnswire/src/strings.rs",
    );
    let found = lints::l1(&f);
    assert!(
        found.is_empty(),
        "unwrap()/panic!/indexing inside strings or comments is not code: {found:?}"
    );
    // The same file is silent under L2/L3 as well.
    let f2 = fixture("strings_and_comments.rs.txt", "crates/core/src/strings.rs");
    assert!(lints::l2(&f2).is_empty());
    assert!(lints::l3(&f2).is_empty());
}

#[test]
fn l1_is_scoped_to_wire_input_modules() {
    // The same bad file outside the dnswire/guard-rx scope is L1-clean.
    let f = fixture("bad_wire.rs.txt", "crates/netsim/src/bad_wire.rs");
    assert!(lints::l1(&f).is_empty());
}

#[test]
fn l1_follows_the_guard_into_every_module_but_its_tests() {
    // Line 6 of the fixture is an `unwrap()`: flagged in a module split out
    // of the guard core, not in the guard's simulated-world tests.
    let f = fixture("bad_wire.rs.txt", "crates/core/src/guard/repl.rs");
    assert!(lines(&lints::l1(&f)).contains(&6), "unwrap in guard/repl.rs must be flagged");
    for module in ["core", "fwd", "health", "restore", "schemes", "sim", "stash", "stats"] {
        let f = fixture("bad_wire.rs.txt", &format!("crates/core/src/guard/{module}.rs"));
        assert_eq!(lints::l1(&f).len(), 5, "guard/{module}.rs is in scope");
    }
    let f = fixture("bad_wire.rs.txt", "crates/core/src/guard/tests.rs");
    assert!(lints::l1(&f).is_empty());
}

#[test]
fn l2_flags_clocks_and_ambient_rng_in_sim_crates() {
    let f = fixture("bad_determinism.rs.txt", "crates/core/src/clock.rs");
    let at = lines(&lints::l2(&f));
    assert!(at.contains(&3), "Instant::now must be flagged: {at:?}");
    assert!(at.contains(&4), "SystemTime must be flagged: {at:?}");
    assert!(at.contains(&5), "thread_rng must be flagged: {at:?}");
    // The runtime crate is the wall-clock domain: same file, no findings.
    let f2 = fixture("bad_determinism.rs.txt", "crates/runtime/src/clock.rs");
    assert!(lints::l2(&f2).is_empty());
}

#[test]
fn l6_flags_known_bad_escapes() {
    let f = fixture("bad_escape.rs.txt", "crates/runtime/src/bad_escape.rs");
    let found = lints::l6(&f);
    let at = lines(&found);
    assert!(at.contains(&7), "plain captured mutation must be flagged: {at:?}");
    assert!(at.contains(&13), "compound captured mutation must be flagged: {at:?}");
    assert_eq!(found.len(), 2, "locals, lock-guarded, justified and test code are exempt: {found:?}");
}

#[test]
fn l7_flags_known_bad_lock_orders() {
    let f = fixture("bad_lockorder.rs.txt", "crates/core/src/bad_lockorder.rs");
    let found = lints::l7(std::slice::from_ref(&f));
    let at = lines(&found);
    assert!(at.contains(&6) || at.contains(&12), "one side of the AB/BA cycle: {at:?}");
    assert!(
        found.iter().any(|x| x.message.contains("self-deadlock")),
        "double-lock must be flagged: {found:?}"
    );
    assert_eq!(found.len(), 3, "temporaries and dropped guards are exempt: {found:?}");
}

#[test]
fn l3_requires_justification_outside_obs_record_path() {
    let f = fixture("bad_ordering.rs.txt", "crates/runtime/src/flags.rs");
    let found = lints::l3(&f);
    let at = lines(&found);
    assert_eq!(at, vec![4], "only the unjustified flag store: {found:?}");
    assert!(
        found[0].message.contains("Release"),
        "flag stores get the pairing-specific message: {}",
        found[0].message
    );
    // The obs record path is exempt wholesale.
    let f2 = fixture("bad_ordering.rs.txt", "crates/obs/src/metrics.rs");
    assert!(lints::l3(&f2).is_empty());
}
