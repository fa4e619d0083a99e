//! The guard's counters: the [`GuardStats`] snapshot callers read and the
//! live registry cells behind it.

use obs::trace::ComponentTracer;

obs::counters! {
    /// Observable guard counters, by pipeline decision — a snapshot of the
    /// live registry-backed counters, from [`GuardCore::stats`](super::GuardCore::stats).
    pub struct GuardStats;
    /// Live guard counters: detached registry handles created at
    /// construction (recording always works) and adopted into a registry
    /// when [`GuardCore::attach_obs`](super::GuardCore::attach_obs) runs.
    pub(super) struct GuardMetrics: "guard" {
        /// Queries forwarded to the ANS (verified or pass-through).
        forwarded,
        /// Queries relayed while spoof detection was inactive.
        passthrough,
        /// Fabricated NS responses sent (DNS-based scheme, message 2).
        fabricated_ns_sent,
        /// Truncation responses sent (TCP-based scheme).
        tc_sent,
        /// Cookie grants sent (modified-DNS scheme, message 3).
        grants_sent,
        /// Requests accepted with a valid extension cookie.
        ext_valid = "verify" { scheme = "ext", verdict = "valid" },
        /// Requests dropped with an invalid extension cookie.
        ext_invalid = "verify" { scheme = "ext", verdict = "invalid" },
        /// Cookie-label queries accepted (message 3 of the DNS-based scheme).
        ns_cookie_valid = "verify" { scheme = "ns_label", verdict = "valid" },
        /// Cookie-label queries dropped as spoofed.
        ns_cookie_invalid = "verify" { scheme = "ns_label", verdict = "invalid" },
        /// `COOKIE2` queries accepted (message 7).
        cookie2_valid = "verify" { scheme = "cookie2", verdict = "valid" },
        /// `COOKIE2` queries dropped as spoofed.
        cookie2_invalid = "verify" { scheme = "cookie2", verdict = "invalid" },
        /// Sources that proved their address with an extension cookie: a
        /// `valid` verdict for a source the verdict memo did not hold,
        /// admitted by Rate-Limiter2. Not a disposition: the datagram is
        /// counted under `ext_valid` too.
        ext_proofs = "proofs" { scheme = "ext" },
        /// Sources that proved their address with a cookie label.
        ns_label_proofs = "proofs" { scheme = "ns_label" },
        /// Sources that proved their address at their `COOKIE2` address.
        cookie2_proofs = "proofs" { scheme = "cookie2" },
        /// Plain queries dropped by Rate-Limiter1.
        rl1_dropped = "rl_dropped" { limiter = "rl1" },
        /// Verified queries dropped by Rate-Limiter2.
        rl2_dropped = "rl_dropped" { limiter = "rl2" },
        /// Responses relayed back from the ANS.
        relayed_responses,
        /// Answers served from the guard's one-shot stash (message 10 fast
        /// path).
        stash_hits,
        /// Packets that were not parseable DNS and were dropped.
        unparseable,
        /// Forwarded requests the ANS never answered within the timeout.
        ans_timeouts,
        /// Times the health monitor declared the ANS down.
        ans_down_events,
        /// Liveness probes sent while the ANS was down.
        ans_probes,
        /// Times the ANS came back after being declared down.
        ans_recoveries,
        /// Forward-table entries evicted by the byte bound (oldest first).
        fwd_evicted = "evicted" { table = "fwd" },
        /// Stash entries evicted by the byte bound (oldest first).
        stash_evicted = "evicted" { table = "stash" },
        /// Every UDP datagram that entered the pipeline (the conservation
        /// total: equals [`GuardStats::disposition_total`]).
        udp_datagrams,
        /// ANS responses whose transaction id matched no forward-table entry
        /// (late responses to evicted/expired forwards).
        resp_unmatched,
        /// Response-flagged datagrams from sources other than the ANS
        /// (spoofed or misrouted; dropped).
        resp_foreign,
        /// Plain queries forwarded unprotected (out-of-bailiwick names, root
        /// queries, or names too deep to fabricate a cookie label for).
        plain_forwarded,
        /// State checkpoints emitted to the driver (`Output::Checkpoint`).
        checkpoints_taken,
        /// Times guard state was rebuilt from a checkpoint or replication
        /// snapshot.
        restores,
        /// Checkpointed forward-table entries dropped on restore because they
        /// were already past the ANS-timeout deadline.
        restore_stale_fwd = "restore_stale" { table = "fwd" },
        /// Checkpointed stash entries dropped on restore as expired.
        restore_stale_stash = "restore_stale" { table = "stash" },
        /// Replication snapshots sent to the standby, one per tick (exported
        /// under the metric's long-standing name, `repl_deltas`).
        repl_deltas_sent = "repl_deltas" { dir = "sent" },
        /// Replication snapshots the standby installed.
        repl_deltas_applied = "repl_deltas" { dir = "applied" },
        /// Replication-port packets rejected (wrong peer, failed
        /// authentication, or malformed).
        repl_rejected,
        /// Authenticated peer messages seen (every one refreshes the
        /// heartbeat).
        heartbeats_seen,
        /// Times the standby declared the primary dead.
        peer_down_events,
        /// Times this guard took over the guarded address from a dead peer.
        failover_takeovers,
    }
    gauges {
        /// Staleness of this guard's recoverable state, in nanoseconds: time
        /// since the last checkpoint (acting primary) or since the last
        /// applied replication message (standby). The `checkpoint_lag` alert
        /// thresholds this.
        checkpoint_age_nanos,
        /// Encoded size of the most recent checkpoint.
        checkpoint_bytes,
        /// Current `fwd_bytes + stash_bytes` (refreshed each housekeeping
        /// window).
        table_bytes,
        /// Unverified-traffic amplification ratio × 1000 (refreshed each
        /// housekeeping window) — the paper's ≤ 1.5× reflector bound, as a
        /// gauge the alerting engine can threshold.
        amplification_milli,
    }
    histograms {
        /// Forward→response round-trip to the ANS, in nanoseconds.
        ans_rtt_ns,
    }
    fields {
        trace: ComponentTracer,
    }
}

/// A read-only handle on a guard's live counters, for a thread that does
/// not own the guard: it shares the cells the guard increments, and
/// reading them is all it can do.
#[derive(Debug, Clone)]
pub struct StatsHandle(pub(super) GuardMetrics);

impl StatsHandle {
    /// The counters as they read now.
    pub fn snapshot(&self) -> GuardStats {
        self.0.snapshot()
    }
}

impl GuardStats {
    /// Total requests classified as spoofed and dropped.
    pub fn spoofed_dropped(&self) -> u64 {
        self.ext_invalid + self.ns_cookie_invalid + self.cookie2_invalid
    }

    /// Sum of the mutually-exclusive terminal disposition buckets: every
    /// UDP datagram entering the pipeline lands in exactly one, so this
    /// always equals [`GuardStats::udp_datagrams`]. (Counters like
    /// `forwarded`, `rl2_dropped`, `stash_hits`, `fwd_evicted` describe
    /// *later* stages of an already-dispositioned datagram and are
    /// deliberately excluded.)
    pub fn disposition_total(&self) -> u64 {
        self.unparseable
            + self.resp_foreign
            + self.resp_unmatched
            + self.relayed_responses
            + self.passthrough
            + self.rl1_dropped
            + self.grants_sent
            + self.ext_valid
            + self.ext_invalid
            + self.cookie2_valid
            + self.cookie2_invalid
            + self.ns_cookie_valid
            + self.ns_cookie_invalid
            + self.tc_sent
            + self.fabricated_ns_sent
            + self.plain_forwarded
    }
}
