//! Every metric an alert rule reads is one somebody registers.
//!
//! The two rule engines read cells by `(component, name, label)` from their
//! `INPUTS` tables; a name nobody registers would make its rule silently
//! dead. One registry is handed to everything that registers metrics a rule
//! reads — the simulator, an analytics-armed guard (with its limiters and
//! TCP proxy), a recursive resolver and the tracer — with no traffic, and
//! every row of both tables must find a cell in the snapshot.

use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::GuardConfig;
use dnsguard::guard::RemoteGuard;
use netsim::engine::Simulator;
use obs::alert::Input;
use obs::Obs;
use server::authoritative::Authority;
use server::recursive::{RecursiveResolver, ResolverConfig};
use server::zone::paper_hierarchy;
use std::net::Ipv4Addr;

#[test]
fn every_alert_input_is_registered_by_an_attached_deployment() {
    let obs = Obs::new();
    let mut sim = Simulator::new(1);
    sim.attach_obs(&obs);
    let (root, _, _) = paper_hierarchy();
    let (public, ans) = (Ipv4Addr::new(198, 41, 0, 4), Ipv4Addr::new(10, 99, 0, 1));
    let classifier = AuthorityClassifier::new(Authority::new(vec![root]));
    let mut guard = RemoteGuard::new(GuardConfig::new(public, ans), classifier);
    guard.arm_analytics();
    guard.attach_obs(&obs);
    let mut resolver = RecursiveResolver::new(ResolverConfig::new(Ipv4Addr::new(10, 0, 0, 53), vec![public]));
    resolver.attach_obs(&obs);
    obs.tracer.adopt_into(&obs.registry);

    let registered = |obs: &Obs, input: &Input| {
        let snapshot = obs.registry.snapshot();
        snapshot.iter().any(|s| input.reads(s.component, s.name, &s.labels))
    };
    let nothing_attached = Obs::new();
    for (engine, inputs) in [("alert", obs::alert::INPUTS), ("fleet", obs::fleet::INPUTS)] {
        assert!(!inputs.is_empty());
        for input in inputs {
            assert!(registered(&obs, input), "obs::{engine}::INPUTS reads {input:?}, which nobody registers");
            assert!(!registered(&nothing_attached, input), "{input:?} reads anything");
        }
    }
}
