//! The guard's counters: the [`GuardStats`] snapshot callers read and the
//! live registry cells behind it.

use obs::metrics::{Counter, Gauge, Histogram};
use obs::trace::ComponentTracer;

/// Declares the guard's event counters, each once: a field of the
/// [`GuardStats`] snapshot callers read and a live cell of [`GuardMetrics`]
/// the pipeline increments, which [`GuardMetrics::snapshot`] copies across.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Observable guard counters, by pipeline decision — a snapshot of the
        /// live registry-backed counters, from [`GuardCore::stats`](super::GuardCore::stats).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct GuardStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// Live guard counters: detached registry handles created at
        /// construction (recording always works) and adopted into a registry
        /// when [`GuardCore::attach_obs`](super::GuardCore::attach_obs) runs.
        #[derive(Debug, Default)]
        pub(super) struct GuardMetrics {
            $(pub(super) $name: Counter,)*
            /// Current pressure tier (0 normal / 1 surge / 2 shed), refreshed each
            /// housekeeping window.
            pub(super) admission_tier: Gauge,
            /// Staleness of this guard's recoverable state, in nanoseconds: time
            /// since the last checkpoint (acting primary) or since the last
            /// applied replication message (standby). The `checkpoint_lag` alert
            /// thresholds this.
            pub(super) checkpoint_age_nanos: Gauge,
            /// Encoded size of the most recent checkpoint.
            pub(super) checkpoint_bytes: Gauge,
            /// Current `fwd_bytes + stash_bytes` (refreshed each housekeeping
            /// window).
            pub(super) table_bytes: Gauge,
            /// Unverified-traffic amplification ratio × 1000 (refreshed each
            /// housekeeping window) — the paper's ≤ 1.5× reflector bound, as a
            /// gauge the alerting engine can threshold.
            pub(super) amplification_milli: Gauge,
            /// Forward→response round-trip to the ANS, in nanoseconds.
            pub(super) ans_rtt_ns: Histogram,
            pub(super) trace: ComponentTracer,
        }

        impl GuardMetrics {
            pub(super) fn snapshot(&self) -> GuardStats {
                GuardStats {
                    $($name: self.$name.get(),)*
                }
            }
        }
    };
}

counters! {
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
    ext_valid,
    /// Requests dropped with an invalid extension cookie.
    ext_invalid,
    /// Cookie-label queries accepted (message 3 of the DNS-based scheme).
    ns_cookie_valid,
    /// Cookie-label queries dropped as spoofed.
    ns_cookie_invalid,
    /// `COOKIE2` queries accepted (message 7).
    cookie2_valid,
    /// `COOKIE2` queries dropped as spoofed.
    cookie2_invalid,
    /// Plain queries dropped by Rate-Limiter1.
    rl1_dropped,
    /// Verified queries dropped by Rate-Limiter2.
    rl2_dropped,
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
    /// Queries refused (SERVFAIL or dropped) by the fail-closed policy
    /// while the ANS was down.
    failed_closed,
    /// Forward-table entries evicted by the byte bound (oldest first).
    fwd_evicted,
    /// Stash entries evicted by the byte bound (oldest first).
    stash_evicted,
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
    /// Unverified requests shed by the admission controller before any
    /// rate-limiter decision (Surge/Shed pressure tiers).
    admission_shed,
    /// State checkpoints written to the attached store.
    checkpoints_taken,
    /// Times guard state was rebuilt from a checkpoint or replication
    /// snapshot.
    restores,
    /// Checkpointed forward-table entries dropped on restore because they
    /// were already past the ANS-timeout deadline.
    restore_stale_fwd,
    /// Checkpointed stash entries dropped on restore as expired.
    restore_stale_stash,
    /// Replication deltas (including heartbeats and full snapshots) sent
    /// to the standby.
    repl_deltas_sent,
    /// Replication deltas/snapshots applied by the standby.
    repl_deltas_applied,
    /// Sequence gaps that forced a full-resync request.
    repl_resyncs,
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
    /// Fleet key epochs pushed to member sites (master only).
    fleet_keys_sent,
    /// Fleet key epochs applied from the master (members only).
    fleet_keys_applied,
    /// Catch-up key requests sent while unsynced (members only).
    fleet_key_reqs,
}

impl GuardStats {
    /// Total requests classified as spoofed and dropped.
    pub fn spoofed_dropped(&self) -> u64 {
        self.ext_invalid + self.ns_cookie_invalid + self.cookie2_invalid
    }

    /// Sum of the mutually-exclusive terminal disposition buckets: every
    /// UDP datagram entering the pipeline lands in exactly one, so this
    /// always equals [`GuardStats::udp_datagrams`]. (Counters like
    /// `forwarded`, `rl2_dropped`, `failed_closed`, `stash_hits`,
    /// `fwd_evicted` describe *later* stages of an already-dispositioned
    /// datagram and are deliberately excluded.)
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
            + self.admission_shed
    }
}

impl GuardMetrics {
    pub(super) fn adopt_into(&self, r: &obs::metrics::Registry) {
        r.adopt_counter("guard", "forwarded", &[], &self.forwarded);
        r.adopt_counter("guard", "passthrough", &[], &self.passthrough);
        r.adopt_counter("guard", "fabricated_ns_sent", &[], &self.fabricated_ns_sent);
        r.adopt_counter("guard", "tc_sent", &[], &self.tc_sent);
        r.adopt_counter("guard", "grants_sent", &[], &self.grants_sent);
        let verify = [
            ("ext", "valid", &self.ext_valid),
            ("ext", "invalid", &self.ext_invalid),
            ("ns_label", "valid", &self.ns_cookie_valid),
            ("ns_label", "invalid", &self.ns_cookie_invalid),
            ("cookie2", "valid", &self.cookie2_valid),
            ("cookie2", "invalid", &self.cookie2_invalid),
        ];
        for (scheme, verdict, counter) in verify {
            r.adopt_counter(
                "guard",
                "verify",
                &[("scheme", scheme), ("verdict", verdict)],
                counter,
            );
        }
        r.adopt_counter("guard", "rl_dropped", &[("limiter", "rl1")], &self.rl1_dropped);
        r.adopt_counter("guard", "rl_dropped", &[("limiter", "rl2")], &self.rl2_dropped);
        r.adopt_counter("guard", "relayed_responses", &[], &self.relayed_responses);
        r.adopt_counter("guard", "stash_hits", &[], &self.stash_hits);
        r.adopt_counter("guard", "unparseable", &[], &self.unparseable);
        r.adopt_counter("guard", "ans_timeouts", &[], &self.ans_timeouts);
        r.adopt_counter("guard", "ans_down_events", &[], &self.ans_down_events);
        r.adopt_counter("guard", "ans_probes", &[], &self.ans_probes);
        r.adopt_counter("guard", "ans_recoveries", &[], &self.ans_recoveries);
        r.adopt_counter("guard", "failed_closed", &[], &self.failed_closed);
        r.adopt_counter("guard", "evicted", &[("table", "fwd")], &self.fwd_evicted);
        r.adopt_counter("guard", "evicted", &[("table", "stash")], &self.stash_evicted);
        r.adopt_counter("guard", "udp_datagrams", &[], &self.udp_datagrams);
        r.adopt_counter("guard", "resp_unmatched", &[], &self.resp_unmatched);
        r.adopt_counter("guard", "resp_foreign", &[], &self.resp_foreign);
        r.adopt_counter("guard", "plain_forwarded", &[], &self.plain_forwarded);
        r.adopt_counter("guard", "admission_shed", &[], &self.admission_shed);
        r.adopt_counter("guard", "checkpoints_taken", &[], &self.checkpoints_taken);
        r.adopt_counter("guard", "restores", &[], &self.restores);
        r.adopt_counter("guard", "restore_stale", &[("table", "fwd")], &self.restore_stale_fwd);
        r.adopt_counter("guard", "restore_stale", &[("table", "stash")], &self.restore_stale_stash);
        r.adopt_counter("guard", "repl_deltas", &[("dir", "sent")], &self.repl_deltas_sent);
        r.adopt_counter("guard", "repl_deltas", &[("dir", "applied")], &self.repl_deltas_applied);
        r.adopt_counter("guard", "repl_resyncs", &[], &self.repl_resyncs);
        r.adopt_counter("guard", "repl_rejected", &[], &self.repl_rejected);
        r.adopt_counter("guard", "heartbeats_seen", &[], &self.heartbeats_seen);
        r.adopt_counter("guard", "peer_down_events", &[], &self.peer_down_events);
        r.adopt_counter("guard", "failover_takeovers", &[], &self.failover_takeovers);
        r.adopt_counter("guard", "fleet_keys", &[("dir", "sent")], &self.fleet_keys_sent);
        r.adopt_counter("guard", "fleet_keys", &[("dir", "applied")], &self.fleet_keys_applied);
        r.adopt_counter("guard", "fleet_key_reqs", &[], &self.fleet_key_reqs);
        r.adopt_gauge("guard", "admission_tier", &[], &self.admission_tier);
        r.adopt_gauge("guard", "checkpoint_age_nanos", &[], &self.checkpoint_age_nanos);
        r.adopt_gauge("guard", "checkpoint_bytes", &[], &self.checkpoint_bytes);
        r.adopt_gauge("guard", "table_bytes", &[], &self.table_bytes);
        r.adopt_gauge("guard", "amplification_milli", &[], &self.amplification_milli);
        r.adopt_histogram("guard", "ans_rtt_ns", &[], &self.ans_rtt_ns);
    }
}
