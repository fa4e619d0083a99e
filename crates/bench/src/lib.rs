//! The benchmark harness: rebuilds every table and figure of the paper's
//! evaluation section from the simulated testbed, plus the experiments
//! later rounds added beside them.
//!
//! One runner, `cargo run --release -p bench --bin all_experiments --
//! [--out DIR] [NAME…]`, over one table, [`registry::EXPERIMENTS`]; with no
//! names it runs the paper's own evaluation. Each experiment is a module
//! that owns its worlds, the documents it exports and its acceptance bars:
//!
//! * [`worlds`] — the one testbed: the guard + ANS + LRS + attacker
//!   topologies (single guard, primary–standby pair, two-site fleet), the
//!   client shapes, and how a world is observed, alerted on, stepped and
//!   held to a silent baseline;
//! * [`experiments`] — one measuring function per paper artefact (Table
//!   I–III, Figures 5–7), each returning the rows/series the paper reports;
//! * [`paper`] — `table1` … `fig7`: those rows rendered beside the paper's;
//! * [`ablations`] — `ablations`: the design knobs DESIGN.md calls out;
//! * [`obs_export`] — `obs`: the instrumented telemetry run behind
//!   `BENCH_obs.json`;
//! * [`journeys`] — `journeys`: per-scheme query-journey reconstruction and
//!   the chaos alerting run behind `BENCH_journeys.json`;
//! * [`failover`] — `ha`: the high-availability experiment behind
//!   `BENCH_failover.json`: primary–standby crash failover, checkpoint-age
//!   sweep, and flood sweep;
//! * [`fleet`] — `fleet`: the anycast-fleet experiment behind
//!   `BENCH_fleet.json`: a mid-flood catchment shift between two guard
//!   sites, measured with per-site MD5 cookies vs a shared SipHash-2-4
//!   secret;
//! * [`fleetobs`] — `fleetobs`: the fleet-observability experiment behind
//!   `BENCH_fleetobs.json`: both sites polled into a [`FleetAggregator`],
//!   cross-node journey stitching through a mid-flood catchment shift
//!   with clock skew, and the fleet alert rules through a site crash;
//! * [`analytics`] — `analytics`: the spoof-vs-flash-crowd discriminator
//!   experiment behind `BENCH_analytics.json`: one open-loop flood under
//!   four source strategies (a quiet baseline crowd, random spoofing, a
//!   bounded Zipf flash crowd, a low-and-slow botnet pool) driven through
//!   the streaming sketches of guards armed for it, plus a two-site
//!   sketch-merge leg checked against exact generator ground truth;
//! * [`poison`] — `poison`: the cache-poisoning success table behind
//!   `BENCH_poison.json`;
//! * [`registry`] — the table, the runner and the export validator;
//! * [`report`] — plain-text table rendering.
//!
//! [`FleetAggregator`]: obs::fleet::FleetAggregator

#![forbid(unsafe_code)]

pub mod ablations;
pub mod analytics;
pub mod experiments;
pub mod failover;
pub mod fleet;
pub mod fleetobs;
pub mod journeys;
pub mod obs_export;
pub mod paper;
pub mod poison;
pub mod registry;
pub mod report;
pub mod worlds;

#[cfg(test)]
mod smoke {
    //! Smoke tests: each experiment runs (with reduced sweeps) and lands in
    //! the paper's qualitative bands. The full sweeps run in `all_experiments`.

    use crate::experiments::*;

    #[test]
    fn table2_shape() {
        let rows = table2_latency();
        let get = |s: Scheme| rows.iter().find(|r| r.scheme == s).unwrap();
        // Cache hits: one RTT (~11 ms) for everything but TCP (~3 RTT).
        for s in [Scheme::NsName, Scheme::Fabricated, Scheme::Modified] {
            let hit = get(s).hit_ms;
            assert!((10.0..14.0).contains(&hit), "{s:?} hit {hit}");
        }
        let tcp_hit = get(Scheme::Tcp).hit_ms;
        assert!((30.0..38.0).contains(&tcp_hit), "tcp hit {tcp_hit}");
        // Cache misses: 2 RTT for NS-name and modified, 3 for fabricated.
        let ns = get(Scheme::NsName).miss_ms;
        assert!((20.0..25.0).contains(&ns), "ns miss {ns}");
        let fab = get(Scheme::Fabricated).miss_ms;
        assert!((31.0..37.0).contains(&fab), "fabricated miss {fab}");
        let modified = get(Scheme::Modified).miss_ms;
        assert!((20.0..25.0).contains(&modified), "modified miss {modified}");
    }

    #[test]
    fn fig7b_decays_under_attack() {
        let pts = fig7b_tcp_under_attack(&[0.0, 250_000.0]);
        assert!(
            pts[0].throughput > 15_000.0,
            "unattacked proxy ~20K: {}",
            pts[0].throughput
        );
        assert!(
            pts[1].throughput < pts[0].throughput * 0.7,
            "attack halves throughput: {} vs {}",
            pts[1].throughput,
            pts[0].throughput
        );
    }
}
