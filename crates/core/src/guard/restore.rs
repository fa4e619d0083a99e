//! Checkpoint and restore: the guard's restorable state as a
//! [`GuardCheckpoint`], emitted on its cadence, and the staleness rules that
//! installing one (the driver's latest after a crash, or the primary's on a
//! standby) applies.

use super::core::{GuardCore, Output, Outputs};
use super::fwd::{Forwarded, Rewrite};
use crate::checkpoint::{FwdState, GuardCheckpoint, KeyState, StashState, CHECKPOINT_VERSION, STASH_TTL};
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
    /// states encode to equal bytes.
    pub fn checkpoint(&self, now: SimTime) -> GuardCheckpoint {
        let mut fwd: Vec<FwdState> = self
            .fwd
            .iter()
            .filter_map(|(txid, f)| fwd_state_of(txid, f))
            .collect();
        fwd.sort_by_key(|f| f.txid);
        let mut stash: Vec<StashState> = self.stash.iter().cloned().collect();
        stash.sort_by_key(|s| (u32::from(s.src), format!("{:?}", s.name)));
        GuardCheckpoint {
            version: CHECKPOINT_VERSION,
            seq: self.checkpoint_seq + 1,
            taken_at_nanos: now.as_nanos(),
            key: KeyState::capture(&self.cookies),
            rl1: self.rl1.checkpoint(),
            rl2: self.rl2.checkpoint(),
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
    /// deadline. Pre-rotation cookies keep verifying because the key state
    /// restores both generations and the generation bit.
    pub fn apply_checkpoint(&mut self, cp: &GuardCheckpoint, now: SimTime) {
        self.cookies.replace(cp.key.to_factory(self.config.cookie_alg));
        self.rl1.restore_state(&cp.rl1);
        self.rl2.restore_state(&cp.rl2);
        self.next_txid = cp.next_txid.max(1);
        self.next_qid = cp.next_qid.max(1);
        self.active = self.config.activation_threshold == 0.0 || cp.active;
        self.last_rotation = SimTime::from_nanos(cp.last_rotation_nanos);
        self.fwd.clear();
        self.stash.clear();
        // Oldest first, so each entry goes straight to the table's tail.
        let mut fwd: Vec<&FwdState> = cp.fwd.iter().collect();
        fwd.sort_by_key(|f| f.created_nanos);
        for f in fwd {
            self.install_fwd_state(f, now);
        }
        for s in &cp.stash {
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
