//! The table-flush adversary: a reflection attack on one victim, covered by
//! a spray of distinct spoofed sources meant to make the guard's per-source
//! limiter forget that it is throttling the victim.
//!
//! Rate-Limiter1 has to bound its memory against exactly this traffic. A
//! limiter that does so by forgetting everything once it has seen enough
//! sources lets the attacker choose when: every reset hands the victim's
//! address a fresh burst of cookie responses. The spray costs the attacker
//! one small query per source, so the only thing between it and a reset is
//! the limiter's global budget — which an operator may well have raised, and
//! which this adversary's tests open so that the per-source buckets are what
//! is measured.
//!
//! Timing is the attack. A reset pays the victim `burst` responses it was
//! not owed, but a victim hammered from the start holds no tokens when a
//! window opens, so `rate × window + burst` still covers a window with one
//! reset in it. [`FlushSpray::launch`] therefore starts the hammer a window
//! after the spray, and the tests size the spray to reach the reset in that
//! second window: the victim's own first burst and the reset's then fall
//! into one window, which the bound does not cover.

use crate::amplification::Victim;
use crate::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
use dnsguard::guard::WINDOW;
use dnswire::name::Name;
use netsim::engine::{CpuConfig, Simulator};
use netsim::time::SimTime;
use netsim::NodeId;
use std::net::Ipv4Addr;

/// The attack: `sources` consecutive addresses from `spray_base`, one query
/// each, spread evenly over `over`, and `victim` spoofed at `victim_rate`
/// from the second guard window for as long as the world runs.
#[derive(Debug, Clone)]
pub struct FlushSpray {
    /// The guard's public address.
    pub target: Ipv4Addr,
    /// The address the reflected responses are aimed at.
    pub victim: Ipv4Addr,
    /// Queries per second spoofed from `victim`.
    pub victim_rate: f64,
    /// First sprayed address.
    pub spray_base: Ipv4Addr,
    /// Distinct sprayed addresses.
    pub sources: u32,
    /// How long the spray lasts.
    pub over: SimTime,
    /// What every query asks.
    pub qname: Name,
}

impl FlushSpray {
    /// The attack as two [`SpoofedFlood`] configurations: the hammer and the
    /// spray.
    fn floods(&self) -> [FloodConfig; 2] {
        let flood = |rate, sources, duration| FloodConfig {
            target: self.target,
            rate,
            sources,
            payload: AttackPayload::PlainQuery(self.qname.clone()),
            duration,
        };
        let spray = SourceStrategy::Pool {
            base: self.spray_base,
            count: self.sources,
        };
        [
            flood(self.victim_rate, SourceStrategy::Fixed(self.victim), None),
            flood(self.sources as f64 / self.over.as_secs_f64(), spray, Some(self.over)),
        ]
    }

    /// Puts the attack into a world that has not run yet: a [`Victim`] at the
    /// victim's address, the spray from `attackers[1]` at once, and — after
    /// the world has run its first guard window — the hammer from
    /// `attackers[0]`. Returns the victim's and the hammer's nodes.
    pub fn launch(&self, sim: &mut Simulator, attackers: [Ipv4Addr; 2]) -> (NodeId, NodeId) {
        let [hammer, spray] = self.floods();
        let victim = sim.add_node(self.victim, CpuConfig::unbounded(), Victim::new());
        sim.add_node(attackers[1], CpuConfig::unbounded(), SpoofedFlood::new(spray));
        sim.run_until(WINDOW);
        let hammer = sim.add_node(attackers[0], CpuConfig::unbounded(), SpoofedFlood::new(hammer));
        (victim, hammer)
    }
}

/// Runs `sim` for `windows` guard housekeeping windows and returns how many
/// packets reached the [`Victim`] node `victim` in each.
pub fn victim_packets_per_window(sim: &mut Simulator, victim: NodeId, windows: u64) -> Vec<u64> {
    let mut before = 0;
    let per_window = (1..=windows).map(|n| {
        sim.run_until(WINDOW * n);
        let total = sim.node_ref::<Victim>(victim).map_or(0, |v| v.packets);
        total - std::mem::replace(&mut before, total)
    });
    per_window.collect()
}
