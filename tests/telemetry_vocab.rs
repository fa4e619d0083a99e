//! Every metric an alert rule reads is one somebody registers.
//!
//! The two rule engines read cells by `(component, name, label)` from their
//! `INPUTS` tables; a name nobody registers would make its rule silently
//! dead. Each row is held to a declaration — the `METRICS` table of one of
//! the four `obs::counters!` components, or the two registration sites that
//! are not one (the analytics gauges, the tracer) — and to a deployment:
//! one registry handed to everything that registers metrics a rule reads —
//! the simulator, an analytics-armed guard (with its limiters and TCP
//! proxy), a recursive resolver and the tracer — with no traffic, where
//! every row of both tables must find a cell in the snapshot.

use bench::worlds::{guarded_world, observe, Scope, WorldParams, PUB};
use dnsguard::guard::{GuardStats, RemoteGuard};
use dnsguard::tcp_proxy::ProxyStats;
use netsim::engine::FaultStats;
use obs::alert::Input;
use obs::Obs;
use server::recursive::{RecursiveResolver, ResolverConfig, ResolverStats};
use std::net::Ipv4Addr;

#[test]
fn every_alert_input_is_registered_by_an_attached_deployment() {
    let mut w = guarded_world(WorldParams::new(1));
    let obs = observe(&mut w.sim, Scope::World, &[w.guard]);
    w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().arm_analytics();
    let mut resolver = RecursiveResolver::new(ResolverConfig::new(Ipv4Addr::new(10, 0, 0, 53), vec![PUB]));
    resolver.attach_obs(&obs);

    let registered = |obs: &Obs, input: &Input| {
        let snapshot = obs.registry.snapshot();
        snapshot.iter().any(|s| input.reads(s.component, s.name, &s.labels))
    };
    let declared = |input: &Input| {
        [GuardStats::METRICS, ResolverStats::METRICS, FaultStats::METRICS, ProxyStats::METRICS]
            .concat()
            .iter()
            .any(|&(component, name, labels)| {
                let labels: Vec<_> = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
                input.reads(component, name, &labels)
            })
    };
    let nothing_attached = Obs::new();
    for (engine, inputs) in [("alert", obs::alert::INPUTS), ("fleet", obs::fleet::INPUTS)] {
        assert!(!inputs.is_empty());
        for input in inputs {
            assert!(registered(&obs, input), "obs::{engine}::INPUTS reads {input:?}, which nobody registers");
            assert!(!registered(&nothing_attached, input), "{input:?} reads anything");
            let elsewhere = input.name.starts_with("analytics_") || input.component == Some("trace");
            assert!(declared(input) != elsewhere, "obs::{engine}::INPUTS reads {input:?}, which no METRICS table declares");
        }
    }
}
