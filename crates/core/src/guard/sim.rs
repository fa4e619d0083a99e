//! The guard as a [`netsim`] node: the core's driver for simulated worlds.

use super::core::{GuardCore, Leg, Output, Outputs, WINDOW};
use crate::checkpoint::GuardCheckpoint;
use crate::classify::AuthorityClassifier;
use crate::config::GuardConfig;
use netsim::engine::{Context, Node};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use std::ops::{Deref, DerefMut};

/// Timer tag for the guard's housekeeping window (rate estimation, proxy
/// reaping, forward-table sweeping).
const TAG_WINDOW: u64 = u64::MAX;

/// Timer tag for the high-availability tick (a snapshot sent from the
/// primary, heartbeat watching on the standby).
const TAG_HA: u64 = u64::MAX - 1;

/// The remote DNS guard node: a [`GuardCore`] (to which it dereferences)
/// fed from the simulator's clock and packets.
///
/// Deploy it by routing the ANS's public address *and* the guard subnet to
/// this node, and giving the real ANS a private address:
///
/// ```text
/// sim.add_node(guard_public_ip, cpu, RemoteGuard::new(config, classifier));
/// sim.add_subnet(subnet_base, 24, guard_node);
/// sim.add_node(ans_private_ip, cpu, AuthNode::new(...));
/// ```
pub struct RemoteGuard {
    core: GuardCore,
    /// What the core asked for during the handler in progress. Drained
    /// before the handler returns and kept, so it is allocated once.
    out: Outputs,
    /// The node's disk: the newest checkpoint the core emitted. A crash
    /// keeps the node object, so this outlives it.
    latest_checkpoint: Option<Box<GuardCheckpoint>>,
}

impl RemoteGuard {
    /// Creates a guard from its configuration and the classifier that knows
    /// the protected ANS's delegations.
    pub fn new(config: GuardConfig, classifier: AuthorityClassifier) -> Self {
        RemoteGuard {
            core: GuardCore::new(config, classifier),
            out: Outputs::default(),
            latest_checkpoint: None,
        }
    }

    /// The newest checkpoint this guard took, if its configuration sets a
    /// cadence and one has come due: what a restart restores from.
    pub fn latest_checkpoint(&self) -> Option<&GuardCheckpoint> {
        self.latest_checkpoint.as_deref()
    }

    /// Creates a guard and immediately applies a previously taken
    /// checkpoint — the crash-restart path. Entries whose deadlines passed
    /// while the guard was down are dropped, never replayed.
    pub fn restore_from_checkpoint(
        config: GuardConfig,
        classifier: AuthorityClassifier,
        cp: &GuardCheckpoint,
        now: SimTime,
    ) -> Self {
        let mut guard = RemoteGuard::new(config, classifier);
        guard.apply_checkpoint(cp, now);
        guard
    }

    /// Arms the daemon timer tagged `tag`, if the guard keeps that tick.
    fn arm(&self, ctx: &mut Context<'_>, tag: u64) -> bool {
        let period = match tag {
            TAG_WINDOW => Some(WINDOW),
            TAG_HA => self.core.ha_interval(),
            _ => None,
        };
        period.map(|period| ctx.set_daemon_timer(period, tag)).is_some()
    }

    /// Replays the out-buffer into `ctx`: the charged cost, then every
    /// output in the order the core appended it.
    fn flush(&mut self, ctx: &mut Context<'_>) {
        let config = self.core.config();
        ctx.charge(self.out.cost());
        for output in self.out.drain() {
            match output {
                Output::Packet(pkt) => ctx.send(pkt),
                Output::ToAns(wire) => {
                    let me = Endpoint::new(config.public_addr, DNS_PORT);
                    let ans = Endpoint::new(config.ans_addr, DNS_PORT);
                    ctx.send(Packet::udp(me, ans, wire));
                }
                Output::ClaimAddress(addr) => ctx.claim_address(addr),
                Output::ClaimSubnet(base, prefix) => ctx.claim_subnet(base, prefix),
                Output::Checkpoint(cp) => self.latest_checkpoint = Some(cp),
            }
        }
    }
}

impl Deref for RemoteGuard {
    type Target = GuardCore;

    fn deref(&self) -> &GuardCore {
        &self.core
    }
}

impl DerefMut for RemoteGuard {
    fn deref_mut(&mut self) -> &mut GuardCore {
        &mut self.core
    }
}

impl Node for RemoteGuard {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for tag in [TAG_WINDOW, TAG_HA] {
            self.arm(ctx, tag);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        // In the simulated network the ANS's private address is reachable
        // only through this node's forwards, so its source address is what
        // marks the upstream leg.
        let leg = if pkt.src.ip == self.core.config().ans_addr {
            Leg::Upstream
        } else {
            Leg::Client
        };
        self.core.handle_packet(ctx.now(), leg, pkt, &mut self.out);
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        // Re-armed before the tick's work, so the timer keeps its place
        // ahead of the tick's packets in the event order.
        if !self.arm(ctx, tag) {
            return;
        }
        let now = ctx.now();
        match tag {
            TAG_WINDOW => self.core.on_window(now, &mut self.out),
            _ => self.core.on_ha_tick(now, &mut self.out),
        }
        self.flush(ctx);
    }
}
