//! Checkpoint and restore: the guard's restorable state as a
//! [`GuardCheckpoint`], emitted on its cadence, and the staleness rules that
//! installing one (the driver's latest after a crash, or the primary's on a
//! standby) applies.

use super::core::{GuardCore, Output, Outputs};
use super::fwd::{Forwarded, Rewrite};
use crate::checkpoint::{
    FwdState, GuardCheckpoint, LimiterState, StashState, CHECKPOINT_VERSION, STASH_TTL,
};
use crate::ha::HaRole;
use netsim::packet::Endpoint;
use netsim::time::SimTime;
use obs::trace::Value;

/// The serializable image of a forward-table entry, or `None` for probes
/// and TCP relays (those must not survive a restart or be replicated).
pub(super) fn fwd_state_of(txid: u16, f: &Forwarded) -> Option<FwdState> {
    let Rewrite::Durable(rewrite) = &f.rewrite else {
        return None;
    };
    Some(FwdState {
        txid,
        requester: (f.requester.ip, f.requester.port),
        reply_from: (f.reply_from.ip, f.reply_from.port),
        orig_txid: f.orig_txid,
        rewrite: rewrite.clone(),
        created_nanos: f.created.as_nanos(),
        qid: f.qid,
    })
}

impl GuardCore {
    /// Builds a consistent snapshot of restorable guard state. Pure — the
    /// guard is unchanged; probes and TCP relays are excluded by
    /// construction. Entries are emitted in a deterministic order so equal
    /// states encode to equal bytes: forwards by table key, stash entries
    /// oldest first.
    pub fn checkpoint(&self, now: SimTime) -> GuardCheckpoint {
        GuardCheckpoint {
            rl1: self.rl1.checkpoint(),
            rl2: self.rl2.checkpoint(),
            ..self.replica(now)
        }
    }

    /// What an HA primary sends its standby every tick: the checkpoint
    /// without the rate limiters' fills, which a standby rebuilds from
    /// scratch (briefly more permissive, never less safe).
    pub(super) fn replica(&self, now: SimTime) -> GuardCheckpoint {
        let mut fwd: Vec<FwdState> = self
            .fwd
            .iter()
            .filter_map(|(txid, f)| fwd_state_of(txid, f))
            .collect();
        fwd.sort_by_key(|f| f.txid);
        let mut stash: Vec<StashState> = self.stash.iter().cloned().collect();
        let order = |s: &StashState| (s.created_nanos, s.src);
        stash.sort_unstable_by(|a, b| order(a).cmp(&order(b)).then_with(|| a.name.cmp(&b.name)));
        GuardCheckpoint {
            version: CHECKPOINT_VERSION,
            seq: self.checkpoint_seq + 1,
            taken_at_nanos: now.as_nanos(),
            key_generation: self.cookies.generation(),
            rl1: LimiterState::default(),
            rl2: LimiterState::default(),
            next_txid: self.next_txid,
            next_qid: self.next_qid,
            active: self.active,
            last_rotation_nanos: self.last_rotation.as_nanos(),
            fwd,
            stash,
        }
    }

    /// The checkpoint cadence and the staleness gauge of an acting primary
    /// (a standby not yet promoted tracks staleness off its heartbeats):
    /// once `checkpoint_interval` has passed since the last one, a snapshot
    /// goes to the driver as [`Output::Checkpoint`].
    pub(super) fn checkpoint_if_due(&mut self, now: SimTime, out: &mut Outputs) {
        let standby_waiting = self.ha_role() == Some(HaRole::Standby);
        let Some(interval) = self.config.checkpoint_interval.filter(|_| !standby_waiting) else {
            return;
        };
        let age = now.saturating_sub(self.last_checkpoint);
        if age < interval {
            self.metrics.checkpoint_age_nanos.set(age.as_nanos());
            return;
        }
        let cp = self.checkpoint(now);
        self.checkpoint_seq = cp.seq;
        self.last_checkpoint = now;
        let bytes = cp.encode().len() as u64;
        self.metrics.checkpoints_taken.inc();
        self.metrics.checkpoint_bytes.set(bytes);
        self.metrics.checkpoint_age_nanos.set(0);
        let fields = [("seq", Value::U64(cp.seq)), ("bytes", Value::U64(bytes))];
        self.metrics.trace.event(now.as_nanos(), "checkpoint", &fields);
        out.push(Output::Checkpoint(Box::new(cp)));
    }

    /// Replaces restorable state with a checkpoint's. Staleness rules:
    /// forwarding entries past the ANS deadline and stash entries past
    /// [`STASH_TTL`] are dropped — a restart never replays an expired
    /// deadline. The keys are re-derived from this guard's own `key_seed`
    /// at the checkpoint's generation, so pre-rotation cookies keep
    /// verifying through the previous key and the generation bit.
    pub fn apply_checkpoint(&mut self, cp: &GuardCheckpoint, now: SimTime) {
        self.cookies.restore(cp.key_generation);
        self.rl1.restore_state(&cp.rl1);
        self.rl2.restore_state(&cp.rl2);
        self.next_txid = cp.next_txid.max(1);
        self.next_qid = cp.next_qid.max(1);
        self.active = self.config.activation_threshold == 0.0 || cp.active;
        self.last_rotation = SimTime::from_nanos(cp.last_rotation_nanos);
        self.fwd.clear();
        self.stash.clear();
        // Oldest first, so each entry goes straight to its table's tail and
        // the byte bounds evict what they would have on the saving guard.
        let mut fwd: Vec<&FwdState> = cp.fwd.iter().collect();
        fwd.sort_by_key(|f| f.created_nanos);
        for f in fwd {
            self.install_fwd_state(f, now);
        }
        let mut stash: Vec<&StashState> = cp.stash.iter().collect();
        stash.sort_by_key(|s| s.created_nanos);
        for s in stash {
            self.install_stash_state(s, now);
        }
        self.checkpoint_seq = cp.seq;
        self.last_checkpoint = SimTime::from_nanos(cp.taken_at_nanos);
        self.metrics.restores.inc();
        let age = ("age_nanos", Value::U64(cp.age(now).as_nanos()));
        self.metrics.trace.event(now.as_nanos(), "restore", &[("seq", Value::U64(cp.seq)), age]);
    }

    /// Installs one serialized forward entry unless its deadline already
    /// passed (then it is counted stale and dropped, never replayed).
    pub(super) fn install_fwd_state(&mut self, f: &FwdState, now: SimTime) {
        let created = SimTime::from_nanos(f.created_nanos);
        if now.saturating_sub(created) >= self.config.ans_timeout {
            self.metrics.restore_stale_fwd.inc();
            return;
        }
        self.insert_fwd(
            f.txid,
            Forwarded {
                requester: Endpoint::new(f.requester.0, f.requester.1),
                reply_from: Endpoint::new(f.reply_from.0, f.reply_from.1),
                orig_txid: f.orig_txid,
                rewrite: Rewrite::Durable(f.rewrite.clone()),
                created,
                qid: f.qid,
            },
        );
    }

    /// Installs one serialized stash entry unless it already expired.
    pub(super) fn install_stash_state(&mut self, s: &StashState, now: SimTime) {
        if now.as_nanos().saturating_sub(s.created_nanos) >= STASH_TTL.as_nanos() {
            self.metrics.restore_stale_stash.inc();
            return;
        }
        self.insert_stash(s.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::AuthorityClassifier;
    use crate::config::GuardConfig;
    use dnswire::name::Name;
    use dnswire::record::Record;
    use server::authoritative::Authority;
    use std::net::Ipv4Addr;

    fn entry(src: u8, created_ms: u64) -> StashState {
        let name: Name = "www.foo.com".parse().unwrap();
        StashState {
            src: Ipv4Addr::new(10, 0, 0, src),
            name: name.clone(),
            answers: vec![Record::a(name, Ipv4Addr::new(192, 0, 2, src), 60)],
            created_nanos: SimTime::from_millis(created_ms).as_nanos(),
        }
    }

    fn sources(stash: &[StashState]) -> Vec<u8> {
        stash.iter().map(|s| s.src.octets()[3]).collect()
    }

    fn guard(stash_bytes_max: usize) -> GuardCore {
        let config = GuardConfig {
            stash_bytes_max,
            ..GuardConfig::new(Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(10, 99, 0, 1))
        };
        GuardCore::new(config, AuthorityClassifier::new(Authority::new(Vec::new())))
    }

    /// A checkpoint lists the stash oldest first, and a restore queues it
    /// oldest first however it is listed: the byte bound then evicts the
    /// earliest-created entry, not the lowest address.
    #[test]
    fn a_restored_stash_evicts_its_oldest_entry_first() {
        let mut saving = guard(usize::MAX);
        for (src, created_ms) in [(30, 1), (20, 2), (10, 3)] {
            saving.insert_stash(entry(src, created_ms));
        }
        let cp = saving.checkpoint(SimTime::from_millis(4));
        assert_eq!(sources(&cp.stash), [30, 20, 10]);
        let mut by_address = cp.stash.clone();
        by_address.reverse();
        for listed in [cp.stash.clone(), by_address] {
            let mut restored = guard(saving.stash.bytes());
            let cp = GuardCheckpoint { stash: listed, ..cp.clone() };
            restored.apply_checkpoint(&cp, SimTime::from_millis(5));
            restored.insert_stash(entry(40, 5));
            let now = SimTime::from_millis(6);
            assert_eq!(sources(&restored.checkpoint(now).stash), [20, 10, 40]);
        }
    }
}
