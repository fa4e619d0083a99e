//! Query-journey integration tests: each guard scheme's cold-start world is
//! run end to end, the drained trace is reassembled into causal timelines,
//! and the stage sequence, extra-round-trip count, and latency attribution
//! are checked against the paper's handshake-cost analysis (Section IV):
//! one extra round trip for the NS-label and modified-DNS schemes, two for
//! the COOKIE2 redirect and the TC→TCP fallback.

use bench::experiments::Scheme;
use bench::journeys::{
    chaos_failures, clean_baseline_is_silent, reconstruction_failure, run_chaos, run_scheme,
};
use netsim::time::SimTime;
use std::collections::BTreeMap;

/// The canonical cold-start stage sequence per scheme.
fn expected_stages(scheme: Scheme) -> &'static [&'static str] {
    match scheme {
        Scheme::NsName => &["fabricated_ns", "verify", "forward", "relay"],
        Scheme::Fabricated => &["fabricated_ns", "verify", "forward", "relay", "verify", "stash_hit"],
        Scheme::Tcp => &["tc_sent", "proxy_accept", "forward", "relay"],
        Scheme::Modified => &["grant", "verify", "forward", "relay"],
    }
}

#[test]
fn schemes_produce_expected_stage_sequences() {
    for (scheme, expect_rtt) in [(Scheme::NsName, 1), (Scheme::Fabricated, 2), (Scheme::Tcp, 2), (Scheme::Modified, 1)] {
        let r = run_scheme(scheme, 2_021, SimTime::from_millis(400));
        let label = r.scheme;
        assert!(r.client_completed > 20, "{label}: only {} tx", r.client_completed);
        assert_eq!(reconstruction_failure(label, r.reconstruction(), &r.report), None);

        // Every cold-start transaction follows the scheme's canonical path.
        let mut sequences: BTreeMap<Vec<&'static str>, u64> = BTreeMap::new();
        for j in &r.report.complete {
            *sequences.entry(j.stage_names()).or_insert(0) += 1;
        }
        let (dominant, n) = sequences
            .iter()
            .max_by_key(|&(_, n)| n)
            .map(|(s, n)| (s.clone(), *n))
            .unwrap();
        assert_eq!(
            dominant,
            expected_stages(scheme),
            "{label}: dominant stage sequence"
        );
        assert!(
            n as f64 >= r.report.complete.len() as f64 * 0.9,
            "{label}: canonical sequence covers {n}/{}",
            r.report.complete.len()
        );
        assert_eq!(r.extra_rtt_mode(), expect_rtt, "{label}: extra round trips");
        for j in &r.report.complete {
            assert_eq!(j.scheme(), label, "scheme inferred from stages");
        }
    }
}

#[test]
fn stage_latencies_sum_to_end_to_end() {
    for scheme in Scheme::ALL {
        let r = run_scheme(scheme, 2_022, SimTime::from_millis(300));
        let scheme = r.scheme;
        assert!(!r.report.complete.is_empty(), "{scheme}: no journeys");
        for j in &r.report.complete {
            let gaps: u64 = j.durations().iter().sum();
            assert_eq!(gaps, j.total_ns(), "{scheme}: inter-stage gaps");
            let a = j.attribution();
            assert_eq!(
                a.handshake_ns + a.guard_ns + a.ans_ns,
                j.total_ns(),
                "{scheme}: handshake+guard+ans attribution"
            );
        }
    }
}

#[test]
fn chaos_run_meets_coverage_and_alerting_bars() {
    let c = run_chaos(2_023, SimTime::from_millis(1_000));
    assert!(c.client_completed > 50, "only {} tx", c.client_completed);
    assert_eq!(chaos_failures(&c), Vec::<String>::new());
    assert!(clean_baseline_is_silent(2_024, SimTime::from_millis(600)));
}
