//! The paper's own evaluation as registry entries: Tables I–III and
//! Figures 5–7, each rendered with the paper's columns beside ours (or
//! the shape the paper's plot shows). The measuring is
//! [`crate::experiments`]; this module is the one place it is rendered.

use crate::experiments::{
    fig5_bind_attack, fig6_guard_attack, fig7a_tcp_concurrency, fig7b_tcp_under_attack,
    table1_comparison, table2_latency, table3_throughput,
};
use crate::registry::Outcome;
use crate::report::{kreq, ms, pct, render_table};

/// Table I: the scheme comparison. Latency columns are measured (Table II
/// worlds, divided by RTT); amplification is measured at the guard's
/// unverified-traffic meter; ranges and deployment sides are properties of
/// the encodings.
pub fn table1() -> Outcome {
    let table: Vec<Vec<String>> = table1_comparison()
        .iter()
        .map(|r| {
            vec![
                r.scheme.to_string(),
                format!("{:.1}", r.worst_latency_rtt),
                format!("{:.1}", r.best_latency_rtt),
                r.cookie_range.to_string(),
                format!("{:.0}%", (r.amplification - 1.0) * 100.0),
                r.deployment.to_string(),
            ]
        })
        .collect();
    Outcome::report_only(format!(
        "{}\n\
         Paper reference: worst 2/3/3/2 RTT, best 1/1/3/1 RTT, \
         amplification <50%/<50%/0/0, deployment ANS/ANS/ANS/both.\n",
        render_table(
            "Table I — comparison among spoof detection schemes (measured)",
            &[
                "Scheme",
                "Worst RTTs",
                "Best RTTs",
                "Cookie range",
                "Amplification",
                "Deployment",
            ],
            &table,
        )
    ))
}

/// The shape Tables II and III share: one row per scheme, ours beside the
/// paper's, cache miss then cache hit. `ours` is `(scheme, miss, hit)`.
fn ours_beside_paper(
    title: &str,
    ours: Vec<(&'static str, f64, f64)>,
    paper_miss: [f64; 4],
    paper_hit: [f64; 4],
    cell: fn(f64) -> String,
) -> Outcome {
    let table: Vec<Vec<String>> = ours
        .iter()
        .enumerate()
        .map(|(i, &(scheme, miss, hit))| {
            vec![
                scheme.to_string(),
                cell(miss),
                cell(paper_miss[i]),
                cell(hit),
                cell(paper_hit[i]),
            ]
        })
        .collect();
    let header = [
        "Scheme",
        "Miss (ours)",
        "Miss (paper)",
        "Hit (ours)",
        "Hit (paper)",
    ];
    Outcome::report_only(format!("{}\n", render_table(title, &header, &table)))
}

/// Table II: average DNS request latency per scheme over a 10.9 ms-RTT
/// path, cache miss vs cache hit.
pub fn table2() -> Outcome {
    ours_beside_paper(
        "Table II — average DNS request latency (ms), RTT = 10.9 ms",
        table2_latency()
            .iter()
            .map(|r| (r.scheme.label(), r.miss_ms, r.hit_ms))
            .collect(),
        [21.0, 32.1, 34.5, 22.4],
        [11.1, 11.3, 33.7, 10.8],
        ms,
    )
}

/// Table III: guard throughput (req/s) per scheme at CPU saturation, cache
/// miss vs cache hit, against the 110 K req/s ANS simulator.
pub fn table3() -> Outcome {
    ours_beside_paper(
        "Table III — guard throughput (req/s), CPU-saturated",
        table3_throughput()
            .iter()
            .map(|r| (r.scheme.label(), r.miss, r.hit))
            .collect(),
        [84_200.0, 60_100.0, 22_700.0, 84_300.0],
        [110_100.0, 109_700.0, 22_700.0, 110_300.0],
        kreq,
    )
}

/// Figure 5: throughput of legitimate requests (a) and ANS CPU
/// utilisation (b) for a BIND-9-cost ANS under a spoofed flood, with the
/// guard enabled (activation threshold 14 K req/s) and disabled.
pub fn fig5() -> Outcome {
    let rates: Vec<f64> = (0..=8).map(|i| i as f64 * 2_000.0).collect();
    let enabled = fig5_bind_attack(true, &rates);
    let disabled = fig5_bind_attack(false, &rates);
    let table: Vec<Vec<String>> = enabled
        .iter()
        .zip(disabled.iter())
        .map(|(e, d)| {
            vec![
                format!("{:.0}K", e.attack_rate / 1_000.0),
                format!("{:.0}", e.legit_throughput),
                format!("{:.0}", d.legit_throughput),
                pct(e.ans_cpu),
                pct(d.ans_cpu),
            ]
        })
        .collect();
    Outcome::report_only(format!(
        "{}\n\
         Paper shape: protection off collapses past 12K attack (2s BIND timer); \
         protection on engages at >12K, holds ~1.5K legit and drops ANS CPU.\n",
        render_table(
            "Figure 5 — BIND ANS under attack (2 legit LRSs at ~1K req/s each; threshold 14K)",
            &[
                "Attack",
                "Legit rps (on)",
                "Legit rps (off)",
                "ANS CPU (on)",
                "ANS CPU (off)",
            ],
            &table,
        )
    ))
}

/// Figure 6: throughput of legitimate requests (a) and guard CPU
/// utilisation (b) as a spoofed flood ramps to 250 K req/s, with spoof
/// detection enabled (modified-DNS scheme) and disabled (pure forwarding).
pub fn fig6() -> Outcome {
    let rates: Vec<f64> = (0..=10).map(|i| i as f64 * 25_000.0).collect();
    let enabled = fig6_guard_attack(true, &rates);
    let disabled = fig6_guard_attack(false, &rates);
    let table: Vec<Vec<String>> = enabled
        .iter()
        .zip(disabled.iter())
        .map(|(e, d)| {
            vec![
                format!("{:.0}K", e.attack_rate / 1_000.0),
                kreq(e.legit_throughput),
                kreq(d.legit_throughput),
                pct(e.guard_cpu),
                pct(d.guard_cpu),
            ]
        })
        .collect();
    Outcome::report_only(format!(
        "{}\n\
         Paper shape: protection off decays linearly to ~0 at 110K attack; \
         protection on holds ≥100K to 200K attack and ~80K at 250K, \
         spoof-detection CPU overhead 15–25%.\n",
        render_table(
            "Figure 6 — guard under attack (legit LRS saturates the 110K ANS; modified DNS)",
            &[
                "Attack",
                "Legit (on)",
                "Legit (off)",
                "Guard CPU (on)",
                "Guard CPU (off)",
            ],
            &table,
        )
    ))
}

/// Figure 7: (a) TCP proxy throughput vs number of concurrent requests;
/// (b) proxy throughput (50 concurrent) vs UDP attack rate.
pub fn fig7() -> Outcome {
    let concurrencies = [
        1u32, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 4_000, 6_000,
    ];
    let table_a: Vec<Vec<String>> = fig7a_tcp_concurrency(&concurrencies)
        .iter()
        .map(|p| vec![p.concurrency.to_string(), kreq(p.throughput)])
        .collect();
    let rates: Vec<f64> = (0..=10).map(|i| i as f64 * 25_000.0).collect();
    let table_b: Vec<Vec<String>> = fig7b_tcp_under_attack(&rates)
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}K", p.attack_rate / 1_000.0),
                kreq(p.throughput),
            ]
        })
        .collect();
    Outcome::report_only(format!(
        "{}\n\
         Paper shape: ~22K req/s around 20 concurrent, ~11K at 6000.\n\n\
         {}\n\
         Paper shape: linear decay from ~22K to ~10K req/s at 250K attack.\n",
        render_table(
            "Figure 7(a) — TCP proxy throughput vs concurrent requests",
            &["Concurrent", "Throughput"],
            &table_a,
        ),
        render_table(
            "Figure 7(b) — TCP proxy throughput under UDP attack (50 concurrent)",
            &["Attack", "Throughput"],
            &table_b,
        ),
    ))
}
