//! Rule-based telemetry alerting over sampled registry snapshots.
//!
//! The paper's threat model gives the rules: a spoofing flood shows up as
//! an **invalid-verify surge** (section III: cookie guessing is a 2⁻³²
//! shot, so invalid verdicts at rate means an active spoofing source),
//! sustained **RL1/RL2 saturation** means the rate limiters — the paper's
//! backstop when cookies alone cannot shed load — are the binding
//! constraint, an **amplification-bound breach** means the guard is
//! replying with more bytes than unverified sources send (the ≤1.5×
//! reflector bound of section III.F), and **ANS down/flap** is the outage
//! the whole guard exists to prevent from spreading. A **handshake storm**
//! is split by the paper's own test of a source: a spoofer never comes back
//! with the cookie sent to the address it forged, so a surge of
//! first-contact answers that few sources prove is a **spoof flood**, and
//! one they keep pace with is a **flash crowd**. **Trace-ring drops** round
//! out the set: they mean the observability layer itself is lossy.
//!
//! [`AlertEngine::evaluate`] consumes `(t_nanos, snapshot)` pairs from the
//! one driver that owns the engine — `bench::worlds::run_evaluated` after
//! the events of each simulated boundary, or the runtime telemetry
//! endpoint's thread on a wall-clock cadence — computes counter deltas
//! against the previous evaluation, and tracks an active-alert set. Every
//! transition emits a structured `alert` trace event and bumps an
//! `alert.fired{rule}` counter.

use crate::export::Json;
use crate::metrics::{Counter, MetricSample, SampleValue};
use crate::trace::{ComponentTracer, Value};
use crate::vocab;
use crate::Obs;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// What a deployment sets of the rule set; every other threshold is a
/// constant beside the rule that reads it.
#[derive(Debug, Clone)]
pub struct AlertConfig {
    /// `handshake_storm` fires when the guard fleet hands out first-contact
    /// answers (fabricated NS + TC redirects + extension grants) above this
    /// rate (events/s). It is the floor that `spoof_flood` and
    /// `flash_crowd` split: forged sources, or real ones arriving (or
    /// re-handshaking en masse, the failure mode shared cookies exist to
    /// prevent).
    pub handshake_per_sec: f64,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig { handshake_per_sec: 2_000.0 }
    }
}

/// Invalid-verify rate (events/s) above which `spoof_surge` fires.
const SPOOF_INVALID_PER_SEC: f64 = 200.0;
/// RL1/RL2 drop rate (events/s) above which the saturation rules fire.
const RL_DROP_PER_SEC: f64 = 2_000.0;
/// `amplification_breach` fires when the guard's unverified-traffic
/// amplification gauge (ratio × 1000) exceeds this. The paper bounds
/// the schemes at 1.5×; 1600 leaves headroom for rounding.
const AMPLIFICATION_MAX_MILLI: u64 = 1_600;
/// `ans_flap` fires when this many down transitions land within
/// [`FLAP_WINDOW_NANOS`].
const FLAP_TRANSITIONS: usize = 2;
/// Window for flap detection.
const FLAP_WINDOW_NANOS: u64 = 2_000_000_000;
/// `checkpoint_lag` fires when the guard's recoverable-state staleness
/// gauge (`checkpoint_age_nanos`) exceeds this. Zero age — checkpoints
/// disabled or just taken — never fires.
const CHECKPOINT_LAG_MAX_NANOS: u64 = 50_000_000;
/// `catchment_shift` fires when the network re-routes packets between
/// anycast sites above this rate (events/s) — the operator signal that
/// BGP moved a catchment mid-flood.
const SHIFT_PER_SEC: f64 = 100.0;
/// Above the `handshake_storm` floor, `flash_crowd` fires while the sources
/// that proved their address keep pace with the first-contact answers (at
/// least this share of them), and `spoof_flood` while they fall short in
/// two evaluations running: a proof trails its handshake by a round trip,
/// so one short window may be proofs still in flight, while a high share
/// is conclusive at once. A real newcomer proves its address at least once
/// per handshake (extension 1, NS label 1, TCP 1); a forged source never
/// does. A proof is a `valid` verdict, admitted by Rate-Limiter2, for a
/// source the guard's verdict memo did not hold: one address proves itself
/// once however many valid cookies it presents (its `COOKIE2` after its
/// label included), and a client that re-handshakes while holding a cookie
/// it has already proven (`cookie_cache = false`) proves nothing new, so a
/// crowd of them reads as spoofing. Sources proving again what they proved
/// before can make a concurrent forged flood read as a crowd: every active
/// verified source once after a key rotation or restore, and sources that
/// evict each other from a crowded memo set, which a guard serving
/// thousands of verified sources has (`dnsguard`'s `guard/keys.rs`),
/// each re-proving as fast as Rate-Limiter2 admits it.
const MIN_PROOF_SHARE: f64 = 0.5;
/// `cache_poisoning` fires when a resolver registers wrong-response
/// mismatches for in-flight queries above this rate (events/s) — the
/// visible footprint of a txid-guessing race — or immediately on any
/// confirmed poisoned cache entry, regardless of rate.
const POISON_ATTEMPT_PER_SEC: f64 = 20.0;

/// What the rules compute from, each summed or maximised over the cells
/// that feed it. (The last variant sizes [`Signals`].)
#[derive(Debug, Clone, Copy)]
pub(crate) enum Signal {
    Invalid,
    Rl1,
    Rl2,
    Downs,
    Recoveries,
    RingDrops,
    AmpMilli,
    CheckpointAge,
    Takeovers,
    Shifted,
    Handshakes,
    Proofs,
    Datagrams,
    PoisonAttempts,
    PoisonHits,
}

/// How a cell feeds its signal.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Read {
    /// The cell's clamped growth since the previous evaluation
    /// ([`AlertState::cell_delta`]), summed.
    Delta,
    /// The gauge's value, the largest over the cells.
    Max,
}

/// One metric a rule reads: every cell named `name`, of `component` if one
/// is given and carrying `label` if one is given.
#[derive(Debug)]
pub struct Input {
    /// The registering component; `None` reads the name under any.
    pub component: Option<&'static str>,
    /// The metric name.
    pub name: &'static str,
    /// A label pair the cell must carry.
    pub label: Option<(&'static str, &'static str)>,
    pub(crate) signal: Signal,
    pub(crate) read: Read,
}

impl Input {
    /// Whether this row reads the cell `component.name{labels}`.
    pub fn reads<K: AsRef<str>>(
        &self,
        component: &str,
        name: &str,
        labels: &[(K, String)],
    ) -> bool {
        self.name == name
            && self.component.is_none_or(|c| c == component)
            && self.label.is_none_or(|(key, value)| {
                labels.iter().any(|(k, v)| k.as_ref() == key && v == value)
            })
    }
}

pub(crate) const fn input(
    component: Option<&'static str>,
    name: &'static str,
    label: Option<(&'static str, &'static str)>,
    signal: Signal,
    read: Read,
) -> Input {
    Input { component, name, label, signal, read }
}

/// Every metric the per-node rules read. `tests/telemetry_vocab.rs` holds
/// each row to a registration site.
pub const INPUTS: &[Input] = &[
    input(None, "verify", Some(("verdict", "invalid")), Signal::Invalid, Read::Delta),
    input(None, "rl_dropped", Some(("limiter", "rl1")), Signal::Rl1, Read::Delta),
    input(None, "rl_dropped", Some(("limiter", "rl2")), Signal::Rl2, Read::Delta),
    input(None, "ans_down_events", None, Signal::Downs, Read::Delta),
    input(None, "ans_recoveries", None, Signal::Recoveries, Read::Delta),
    input(Some("trace"), "ring_dropped", None, Signal::RingDrops, Read::Delta),
    input(None, "amplification_milli", None, Signal::AmpMilli, Read::Max),
    input(None, "checkpoint_age_nanos", None, Signal::CheckpointAge, Read::Max),
    input(None, "failover_takeovers", None, Signal::Takeovers, Read::Delta),
    input(None, "catchment_shifted", None, Signal::Shifted, Read::Delta),
    input(None, "fabricated_ns_sent", None, Signal::Handshakes, Read::Delta),
    input(None, "grants_sent", None, Signal::Handshakes, Read::Delta),
    input(None, "tc_sent", None, Signal::Handshakes, Read::Delta),
    input(None, "proofs", None, Signal::Proofs, Read::Delta),
    input(Some("proxy"), "accepted", None, Signal::Proofs, Read::Delta),
    input(None, "poison_attempts", None, Signal::PoisonAttempts, Read::Delta),
    input(None, "poison_successes", None, Signal::PoisonHits, Read::Delta),
];

/// The signals of one evaluation.
#[derive(Default)]
pub(crate) struct Signals([u64; Signal::PoisonHits as usize + 1]);

impl Signals {
    /// Folds one cell that `input` reads into its signal; `delta` is the
    /// engine's [`AlertState::cell_delta`] under its key for the cell.
    pub(crate) fn fold(&mut self, input: &Input, value: &SampleValue, delta: impl FnOnce(u64) -> u64) {
        let slot = &mut self.0[input.signal as usize];
        match (input.read, value) {
            (Read::Delta, SampleValue::Counter(v) | SampleValue::Gauge(v)) => *slot += delta(*v),
            (Read::Max, SampleValue::Gauge(v)) => *slot = (*slot).max(*v),
            _ => {}
        }
    }

    pub(crate) fn get(&self, signal: Signal) -> u64 {
        self.0[signal as usize]
    }
}

/// One currently-firing alert.
#[derive(Debug, Clone)]
pub struct ActiveAlert {
    /// The rule name (one of [`vocab::RULES`]).
    pub rule: &'static str,
    /// When the alert started firing (evaluation time).
    pub since_nanos: u64,
    /// The measured value that tripped the rule (rate, ratio, or count).
    pub value: f64,
    /// The configured threshold it crossed.
    pub threshold: f64,
}

/// One fire/clear transition, kept for post-run inspection.
#[derive(Debug, Clone)]
pub struct AlertTransition {
    /// The rule name.
    pub rule: &'static str,
    /// Evaluation time of the transition.
    pub t_nanos: u64,
    /// `true` on fire, `false` on clear.
    pub firing: bool,
    /// The measured value at the transition.
    pub value: f64,
}

/// The alert state machine under both rule engines (the per-node
/// [`AlertEngine`] and the fleet's [`crate::fleet::FleetAggregator`]): the
/// per-cell clamped-delta book-keeping, the active set, the transition
/// history, and the trace event and counter every transition leaves. The
/// engines differ only in the rules they evaluate and in what they attach.
#[derive(Default)]
pub(crate) struct AlertState {
    /// Previous value of every cell a rule reads, by caller-chosen key.
    prev: HashMap<String, u64>,
    prev_t: Option<u64>,
    active: BTreeMap<&'static str, ActiveAlert>,
    history: Vec<AlertTransition>,
    /// The engine's trace component; the fleet aggregator's own events
    /// (`journey_stitch`, `node_silent`) go through it too.
    pub(crate) trace: ComponentTracer,
    fired: HashMap<&'static str, Counter>,
}

impl AlertState {
    /// Wires transitions into `trace` and the per-rule `fired` counters.
    pub(crate) fn attach(
        &mut self,
        trace: ComponentTracer,
        fired: impl Iterator<Item = (&'static str, Counter)>,
    ) {
        self.trace = trace;
        self.fired.extend(fired);
    }

    /// The growth of cell `key` (a counter, or a gauge that only moves
    /// forward) since the previous evaluation, clamped to zero: a cell
    /// jumping backwards — a checkpoint restore or failover re-attach swaps
    /// in fresh zero-valued counters — contributes nothing instead of
    /// dragging a summed total negative and masking other cells' genuine
    /// growth. A cell seen for the first time likewise contributes zero, so
    /// metrics attached mid-run cannot fake a surge.
    pub(crate) fn cell_delta(&mut self, key: String, now: u64) -> u64 {
        let was = self.prev.insert(key, now).unwrap_or(now);
        now.saturating_sub(was)
    }

    /// Closes the evaluation interval at `t_nanos` and returns its length;
    /// `None` on the first call (deltas against nothing are meaningless)
    /// and on a zero-length interval.
    pub(crate) fn interval(&mut self, t_nanos: u64) -> Option<u64> {
        let prev_t = self.prev_t.replace(t_nanos)?;
        Some(t_nanos.saturating_sub(prev_t)).filter(|&dt| dt > 0)
    }

    pub(crate) fn set_state(
        &mut self,
        t_nanos: u64,
        rule: &'static str,
        firing: bool,
        value: f64,
        threshold: f64,
    ) {
        debug_assert!(
            vocab::RULES.iter().any(|r| r.name == rule),
            "alert rule {rule:?} is not in obs::vocab"
        );
        let was = self.active.contains_key(rule);
        if firing == was {
            return;
        }
        if firing {
            self.active.insert(
                rule,
                ActiveAlert { rule, since_nanos: t_nanos, value, threshold },
            );
            if let Some(c) = self.fired.get(rule) {
                c.inc();
            }
        } else {
            self.active.remove(rule);
        }
        self.history.push(AlertTransition { rule, t_nanos, firing, value });
        self.trace.event(
            t_nanos,
            "alert",
            &[
                ("rule", Value::Str(rule)),
                ("state", Value::Str(if firing { "firing" } else { "cleared" })),
                ("value", Value::F64(value)),
                ("threshold", Value::F64(threshold)),
            ],
        );
    }

    pub(crate) fn active_rules(&self) -> Vec<&'static str> {
        self.active.keys().copied().collect()
    }

    pub(crate) fn active(&self) -> Vec<ActiveAlert> {
        self.active.values().cloned().collect()
    }

    pub(crate) fn history(&self) -> &[AlertTransition] {
        &self.history
    }

    pub(crate) fn fired_rules(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for t in &self.history {
            if t.firing && !seen.contains(&t.rule) {
                seen.push(t.rule);
            }
        }
        seen
    }

    pub(crate) fn alerts_json(&self) -> Json {
        let active = self.active.values().map(|a| {
            Json::obj([
                ("rule", a.rule.into()),
                ("since", a.since_nanos.into()),
                ("value", Json::fixed(a.value, 3)),
                ("threshold", Json::fixed(a.threshold, 3)),
            ])
        });
        let history = self.history.iter().map(|t| {
            Json::obj([
                ("rule", t.rule.into()),
                ("t", t.t_nanos.into()),
                ("state", if t.firing { "firing" } else { "cleared" }.into()),
                ("value", Json::fixed(t.value, 3)),
            ])
        });
        Json::obj([("active", Json::Arr(active.collect())), ("history", Json::Arr(history.collect()))])
    }
}

/// The rule engine. Feed it snapshots; read back active alerts, the
/// transition history, and `alert` trace events/counters.
pub struct AlertEngine {
    config: AlertConfig,
    alerts: AlertState,
    down_times: VecDeque<u64>,
    /// Whether the previous evaluation saw a storm its sources did not prove.
    unproven: bool,
}

impl std::fmt::Debug for AlertEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlertEngine")
            .field("active", &self.alerts.active_rules())
            .field("history", &self.alerts.history().len())
            .finish()
    }
}

impl AlertEngine {
    /// An engine with the given thresholds, not yet attached to an
    /// observer (transitions are tracked but not traced/counted).
    pub fn new(config: AlertConfig) -> AlertEngine {
        AlertEngine {
            config,
            alerts: AlertState::default(),
            down_times: VecDeque::new(),
            unproven: false,
        }
    }

    /// Wires transition events into `obs`: trace component `alert`, and an
    /// `alert.fired{rule}` counter per rule.
    pub fn attach_obs(&mut self, obs: &Obs) {
        let fired = |rule| (rule, obs.registry.counter("alert", "fired", &[("rule", rule)]));
        self.alerts.attach(obs.tracer.component("alert"), vocab::rules(false).map(fired));
    }

    /// Evaluates every rule against `samples` (a `Registry::snapshot`).
    /// The first call only records baselines; subsequent calls compute
    /// rates over the elapsed interval.
    ///
    /// Deltas are computed **per cell** (keyed by component+name+labels)
    /// and clamped to zero *before* summing into a rule's class, so a
    /// counter reset or a guard attaching its metrics mid-run can neither
    /// mask nor fake a surge.
    pub fn evaluate(&mut self, t_nanos: u64, samples: &[MetricSample]) {
        let mut sig = Signals::default();
        for s in samples {
            for input in INPUTS.iter().filter(|i| i.reads(s.component, s.name, &s.labels)) {
                sig.fold(input, &s.value, |now| self.alerts.cell_delta(s.key(), now));
            }
        }

        let Some(dt) = self.alerts.interval(t_nanos) else {
            return;
        };
        let rate = |signal| sig.get(signal) as f64 * 1e9 / dt as f64;
        let alerts = &mut self.alerts;

        let spoof_rate = rate(Signal::Invalid);
        alerts.set_state(
            t_nanos,
            "spoof_surge",
            spoof_rate > SPOOF_INVALID_PER_SEC,
            spoof_rate,
            SPOOF_INVALID_PER_SEC,
        );
        let rl1_rate = rate(Signal::Rl1);
        alerts.set_state(t_nanos, "rl1_saturation", rl1_rate > RL_DROP_PER_SEC, rl1_rate, RL_DROP_PER_SEC);
        let rl2_rate = rate(Signal::Rl2);
        alerts.set_state(t_nanos, "rl2_saturation", rl2_rate > RL_DROP_PER_SEC, rl2_rate, RL_DROP_PER_SEC);
        let amp_milli = sig.get(Signal::AmpMilli);
        alerts.set_state(
            t_nanos,
            "amplification_breach",
            amp_milli > AMPLIFICATION_MAX_MILLI,
            amp_milli as f64 / 1_000.0,
            AMPLIFICATION_MAX_MILLI as f64 / 1_000.0,
        );

        // ANS health is edge-triggered: a down transition fires the alert,
        // a recovery with no concurrent down clears it.
        let d_downs = sig.get(Signal::Downs);
        if d_downs > 0 {
            alerts.set_state(t_nanos, "ans_down", true, d_downs as f64, 1.0);
            for _ in 0..d_downs {
                self.down_times.push_back(t_nanos);
            }
        } else if sig.get(Signal::Recoveries) > 0 {
            alerts.set_state(t_nanos, "ans_down", false, 0.0, 1.0);
        }
        let horizon = t_nanos.saturating_sub(FLAP_WINDOW_NANOS);
        while self.down_times.front().is_some_and(|&t| t < horizon) {
            self.down_times.pop_front();
        }
        alerts.set_state(
            t_nanos,
            "ans_flap",
            self.down_times.len() >= FLAP_TRANSITIONS,
            self.down_times.len() as f64,
            FLAP_TRANSITIONS as f64,
        );

        let d_ring = sig.get(Signal::RingDrops);
        alerts.set_state(t_nanos, "trace_drops", d_ring > 0, d_ring as f64, 1.0);

        // Recoverable state too stale: a crash now would lose more than
        // the configured window. Age zero means checkpointing is off or a
        // snapshot/replication message just landed — never a lag.
        let checkpoint_age = sig.get(Signal::CheckpointAge);
        alerts.set_state(
            t_nanos,
            "checkpoint_lag",
            checkpoint_age > CHECKPOINT_LAG_MAX_NANOS,
            checkpoint_age as f64 / 1e9,
            CHECKPOINT_LAG_MAX_NANOS as f64 / 1e9,
        );
        // A standby promoted itself. Edge-triggered like ans_down: the
        // takeover counter only ever moves on a real transition.
        let d_takeovers = sig.get(Signal::Takeovers);
        if d_takeovers > 0 {
            alerts.set_state(t_nanos, "failover_triggered", true, d_takeovers as f64, 1.0);
        }
        let shift_rate = rate(Signal::Shifted);
        alerts.set_state(t_nanos, "catchment_shift", shift_rate > SHIFT_PER_SEC, shift_rate, SHIFT_PER_SEC);
        // A surge of first-contact answers, split by who came back.
        let handshake_rate = rate(Signal::Handshakes);
        let storm = handshake_rate > self.config.handshake_per_sec;
        alerts.set_state(t_nanos, "handshake_storm", storm, handshake_rate, self.config.handshake_per_sec);
        let proof_share = sig.get(Signal::Proofs) as f64 / sig.get(Signal::Handshakes).max(1) as f64;
        let proven = proof_share >= MIN_PROOF_SHARE;
        let unproven = storm && !proven;
        alerts.set_state(t_nanos, "spoof_flood", unproven && self.unproven, proof_share, MIN_PROOF_SHARE);
        alerts.set_state(t_nanos, "flash_crowd", storm && proven, proof_share, MIN_PROOF_SHARE);
        self.unproven = unproven;

        // A poisoning race in progress (mismatch burst) or already won
        // (any confirmed poisoned entry fires at once — one success is
        // one too many).
        let poison_rate = rate(Signal::PoisonAttempts);
        let d_poison_hits = sig.get(Signal::PoisonHits);
        alerts.set_state(
            t_nanos,
            "cache_poisoning",
            poison_rate > POISON_ATTEMPT_PER_SEC || d_poison_hits > 0,
            poison_rate.max(d_poison_hits as f64),
            POISON_ATTEMPT_PER_SEC,
        );
    }

    /// Currently-firing alerts, in rule-name order.
    pub fn active(&self) -> Vec<ActiveAlert> {
        self.alerts.active()
    }

    /// Every fire/clear transition so far, oldest first.
    pub fn history(&self) -> &[AlertTransition] {
        self.alerts.history()
    }

    /// True when no rule ever fired — the clean-baseline expectation.
    pub fn is_silent(&self) -> bool {
        self.alerts.history().is_empty()
    }

    /// Rules that fired at least once, deduplicated, in first-fire order.
    pub fn fired_rules(&self) -> Vec<&'static str> {
        self.alerts.fired_rules()
    }

    /// The active set and transition history as one JSON object:
    /// `{"active":[...],"history":[...]}`.
    pub fn alerts_json(&self) -> Json {
        self.alerts.alerts_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    const SEC: u64 = 1_000_000_000;

    fn snapshot_with(reg: &Registry) -> Vec<MetricSample> {
        reg.snapshot()
    }

    /// [`vocab::RULES`] is the only rule list: a rule outside it cannot be
    /// evaluated, by either engine, without tripping this.
    #[test]
    #[should_panic(expected = "alert rule \"dead_rule\" is not in obs::vocab")]
    fn an_undeclared_rule_panics_where_it_is_evaluated() {
        AlertState::default().set_state(0, "dead_rule", false, 0.0, 1.0);
    }

    #[test]
    fn cache_poisoning_fires_on_mismatch_burst_and_on_any_success() {
        let reg = Registry::new();
        let attempts = reg.counter("resolver", "poison_attempts", &[("node", "lrs")]);
        let hits = reg.counter("resolver", "poison_successes", &[("node", "lrs")]);
        let mut engine = AlertEngine::new(AlertConfig::default());

        engine.evaluate(0, &snapshot_with(&reg));
        attempts.add(5); // 5/s: below the 20/s race threshold.
        engine.evaluate(SEC, &snapshot_with(&reg));
        assert!(engine.is_silent(), "a handful of stray mismatches is noise");

        attempts.add(500); // A guessing race: 500 mismatches in a second.
        engine.evaluate(2 * SEC, &snapshot_with(&reg));
        assert_eq!(engine.active().len(), 1);
        assert_eq!(engine.active()[0].rule, "cache_poisoning");

        engine.evaluate(3 * SEC, &snapshot_with(&reg));
        assert!(engine.active().is_empty(), "race over, alert clears");

        hits.inc(); // One confirmed poisoned entry fires regardless of rate.
        engine.evaluate(4 * SEC, &snapshot_with(&reg));
        assert_eq!(engine.active()[0].rule, "cache_poisoning");
    }

    #[test]
    fn spoof_surge_fires_and_clears_on_rate() {
        let obs = Obs::new();
        obs.tracer.set_default_level(crate::trace::Level::Info);
        let reg = Registry::new();
        let invalid = reg.counter("guard", "verify", &[("scheme", "ns_label"), ("verdict", "invalid")]);
        let mut engine = AlertEngine::new(AlertConfig::default());
        engine.attach_obs(&obs);

        engine.evaluate(0, &snapshot_with(&reg));
        assert!(engine.is_silent(), "baseline never fires");
        invalid.add(1_000); // 1000/s over the next second ≫ 200/s.
        engine.evaluate(SEC, &snapshot_with(&reg));
        assert_eq!(engine.active().len(), 1);
        assert_eq!(engine.active()[0].rule, "spoof_surge");
        engine.evaluate(2 * SEC, &snapshot_with(&reg));
        assert!(engine.active().is_empty(), "rate back to zero clears");
        assert_eq!(engine.fired_rules(), vec!["spoof_surge"]);
        assert_eq!(engine.history().len(), 2, "one fire, one clear");
        // The transitions were traced and counted.
        let (events, _) = obs.tracer.drain();
        assert_eq!(events.iter().filter(|e| e.component == "alert").count(), 2);
        let fired = obs.registry.counter("alert", "fired", &[("rule", "spoof_surge")]);
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn each_limiter_saturates_its_own_rule() {
        let reg = Registry::new();
        let rl1 = reg.counter("guard", "rl_dropped", &[("limiter", "rl1")]);
        let rl2 = reg.counter("guard", "rl_dropped", &[("limiter", "rl2")]);
        let mut engine = AlertEngine::new(AlertConfig::default());
        engine.evaluate(0, &snapshot_with(&reg));
        rl1.add(5_000); // 5000/s > 2000/s; RL2 stays under.
        rl2.add(1_000);
        engine.evaluate(SEC, &snapshot_with(&reg));
        assert_eq!(engine.fired_rules(), vec!["rl1_saturation"]);
        rl2.add(5_000);
        engine.evaluate(2 * SEC, &snapshot_with(&reg));
        let rules: Vec<_> = engine.active().iter().map(|a| a.rule).collect();
        assert_eq!(rules, vec!["rl2_saturation"], "RL1 calmed, RL2 saturated");
    }

    #[test]
    fn ans_down_is_edge_triggered_and_flap_detected() {
        let reg = Registry::new();
        let downs = reg.counter("guard", "ans_down_events", &[]);
        let recov = reg.counter("guard", "ans_recoveries", &[]);
        let mut engine = AlertEngine::new(AlertConfig::default());
        engine.evaluate(0, &snapshot_with(&reg));

        downs.inc();
        engine.evaluate(SEC, &snapshot_with(&reg));
        assert!(engine.active().iter().any(|a| a.rule == "ans_down"));
        recov.inc();
        engine.evaluate(SEC + SEC / 2, &snapshot_with(&reg));
        assert!(!engine.active().iter().any(|a| a.rule == "ans_down"), "recovery clears");
        // A second down inside the 2 s window: flap.
        downs.inc();
        engine.evaluate(SEC + SEC, &snapshot_with(&reg));
        assert!(engine.active().iter().any(|a| a.rule == "ans_flap"), "two downs in window");
        assert!(engine.fired_rules().contains(&"ans_down"));
    }

    #[test]
    fn amplification_and_trace_drop_rules() {
        let reg = Registry::new();
        let amp = reg.gauge("guard", "amplification_milli", &[]);
        let ring = reg.counter("trace", "ring_dropped", &[]);
        let mut engine = AlertEngine::new(AlertConfig::default());
        engine.evaluate(0, &snapshot_with(&reg));
        amp.set(1_900);
        ring.add(5);
        engine.evaluate(SEC, &snapshot_with(&reg));
        let rules: Vec<_> = engine.active().iter().map(|a| a.rule).collect();
        assert!(rules.contains(&"amplification_breach"));
        assert!(rules.contains(&"trace_drops"));
        amp.set(1_200);
        engine.evaluate(2 * SEC, &snapshot_with(&reg));
        assert!(engine.active().is_empty(), "both clear when back in bounds");
    }

    #[test]
    fn ha_rules_fire_on_lag_and_takeover() {
        let reg = Registry::new();
        let age = reg.gauge("guard", "checkpoint_age_nanos", &[]);
        let takeovers = reg.counter("guard", "failover_takeovers", &[]);
        let mut engine = AlertEngine::new(AlertConfig::default());
        engine.evaluate(0, &snapshot_with(&reg));
        assert!(engine.is_silent(), "all-zero HA metrics stay silent");

        age.set(80_000_000); // 80 ms > 50 ms default lag budget.
        takeovers.inc();
        engine.evaluate(SEC, &snapshot_with(&reg));
        let rules: Vec<_> = engine.active().iter().map(|a| a.rule).collect();
        assert!(rules.contains(&"checkpoint_lag"));
        assert!(rules.contains(&"failover_triggered"));

        age.set(0); // Snapshot landed.
        engine.evaluate(2 * SEC, &snapshot_with(&reg));
        let rules: Vec<_> = engine.active().iter().map(|a| a.rule).collect();
        assert!(!rules.contains(&"checkpoint_lag"), "fresh snapshot clears lag");
        assert_eq!(engine.fired_rules(), vec!["checkpoint_lag", "failover_triggered"]);
    }

    #[test]
    fn fleet_rules_fire_on_shift_and_handshake_storm() {
        let reg = Registry::new();
        let shifted = reg.counter("netsim", "catchment_shifted", &[]);
        let fab = reg.counter("guard", "fabricated_ns_sent", &[]);
        let tc = reg.counter("guard", "tc_sent", &[]);
        let grants = reg.counter("guard", "grants_sent", &[]);
        let mut engine = AlertEngine::new(AlertConfig::default());
        engine.evaluate(0, &snapshot_with(&reg));
        assert!(engine.is_silent());

        shifted.add(1_000); // 1000/s ≫ 100/s: BGP moved a catchment.
        fab.add(1_500); // The three handshake channels sum: 3000/s > 2000/s.
        tc.add(1_000);
        grants.add(500);
        engine.evaluate(SEC, &snapshot_with(&reg));
        let rules: Vec<_> = engine.active().iter().map(|a| a.rule).collect();
        assert!(rules.contains(&"catchment_shift"), "{rules:?}");
        assert!(rules.contains(&"handshake_storm"), "{rules:?}");

        engine.evaluate(2 * SEC, &snapshot_with(&reg));
        assert!(engine.active().is_empty(), "both clear once rates calm");
        assert_eq!(engine.fired_rules(), vec!["catchment_shift", "handshake_storm"]);
    }

    #[test]
    fn steady_handshake_rate_below_threshold_stays_silent() {
        // A fleet doing ordinary first-contact handshakes (new clients
        // arriving) must not trip the storm rule.
        let reg = Registry::new();
        let fab = reg.counter("guard", "fabricated_ns_sent", &[]);
        let mut engine = AlertEngine::new(AlertConfig::default());
        for i in 0..10 {
            fab.add(500); // 500/s < 2000/s.
            engine.evaluate(i * SEC, &snapshot_with(&reg));
        }
        assert!(engine.is_silent());
    }

    #[test]
    fn counter_reset_does_not_mask_other_cells_growth() {
        // Two cells feed spoof_surge: the guard's invalid NS-label verifies
        // and its invalid extension verifies. Mid-flood, a checkpoint
        // restore re-attaches the first (adopt_replacing swaps in a fresh
        // zero cell) so its counter jumps backwards. The summed-total
        // delta of the old implementation went negative and clamped the
        // whole class to zero — falsely clearing the alert while the other
        // cell's flood kept growing.
        let reg = Registry::new();
        let guard_invalid =
            reg.counter("guard", "verify", &[("scheme", "ns_label"), ("verdict", "invalid")]);
        let ext_invalid =
            reg.counter("guard", "verify", &[("scheme", "ext"), ("verdict", "invalid")]);
        let mut engine = AlertEngine::new(AlertConfig::default());
        engine.evaluate(0, &snapshot_with(&reg));

        guard_invalid.add(5_000);
        ext_invalid.add(1_000);
        engine.evaluate(SEC, &snapshot_with(&reg));
        assert!(engine.active().iter().any(|a| a.rule == "spoof_surge"), "flood fires");

        // Restore: the NS-label cell resets to zero, the other keeps flooding.
        let fresh = crate::metrics::Counter::new();
        reg.adopt_counter(
            "guard",
            "verify",
            &[("scheme", "ns_label"), ("verdict", "invalid")],
            &fresh,
        );
        ext_invalid.add(1_000); // Still 1000/s ≫ 200/s on its own.
        engine.evaluate(2 * SEC, &snapshot_with(&reg));
        assert!(
            engine.active().iter().any(|a| a.rule == "spoof_surge"),
            "reset cell must not mask the other cell's ongoing surge"
        );

        // The reset cell resumes counting from zero; the alert never
        // flapped — one fire transition, no clear.
        fresh.add(900);
        ext_invalid.add(1_000);
        engine.evaluate(3 * SEC, &snapshot_with(&reg));
        assert!(engine.active().iter().any(|a| a.rule == "spoof_surge"));
        let surge_transitions =
            engine.history().iter().filter(|t| t.rule == "spoof_surge").count();
        assert_eq!(surge_transitions, 1, "fired once, never falsely cleared");
    }

    #[test]
    fn mid_run_metric_attach_does_not_fake_a_surge() {
        // A cell appearing for the first time with a large absolute value
        // (a node attaching mid-run) must contribute zero delta.
        let reg = Registry::new();
        let steady = reg.counter("guard", "verify", &[("scheme", "ext"), ("verdict", "invalid")]);
        let mut engine = AlertEngine::new(AlertConfig::default());
        engine.evaluate(0, &snapshot_with(&reg));
        steady.add(10);
        engine.evaluate(SEC, &snapshot_with(&reg));
        assert!(engine.is_silent());
        // Late-attaching cell carrying history: must not read as a burst.
        let late = reg.counter("guard", "verify", &[("scheme", "cookie2"), ("verdict", "invalid")]);
        late.add(1_000_000);
        engine.evaluate(2 * SEC, &snapshot_with(&reg));
        assert!(engine.is_silent(), "first sight of a cell is a baseline, not a delta");
    }

    /// Which of `spoof_flood` and `flash_crowd` are firing after two
    /// seconds, each of `handshakes` (each scheme's first-contact counter in
    /// turn) and `proofs` (each proof counter in turn).
    fn split(handshakes: u64, proofs: u64) -> Vec<Vec<&'static str>> {
        let mut verdicts = Vec::new();
        for handshake in ["fabricated_ns_sent", "grants_sent", "tc_sent"] {
            for (component, proof, labels) in [
                ("guard", "proofs", &[("scheme", "ext")][..]),
                ("guard", "proofs", &[("scheme", "ns_label")][..]),
                ("guard", "proofs", &[("scheme", "cookie2")][..]),
                ("proxy", "accepted", &[][..]),
            ] {
                let reg = Registry::new();
                let (answered, proven) = (reg.counter("guard", handshake, &[]), reg.counter(component, proof, labels));
                let mut engine = AlertEngine::new(AlertConfig::default());
                for second in 0..3 {
                    engine.evaluate(second * SEC, &snapshot_with(&reg));
                    answered.add(handshakes);
                    proven.add(proofs);
                }
                let rules = engine.active().into_iter().map(|a| a.rule);
                verdicts.push(rules.filter(|r| ["spoof_flood", "flash_crowd"].contains(r)).collect());
            }
        }
        verdicts
    }

    #[test]
    fn spoof_flood_fires_on_handshakes_no_source_proves() {
        for verdict in split(5_000, 0) {
            assert_eq!(verdict, ["spoof_flood"]);
        }
        for verdict in split(5_000, 2_499) {
            assert_eq!(verdict, ["spoof_flood"], "fewer than half proved");
        }
    }

    #[test]
    fn flash_crowd_fires_when_proofs_keep_pace() {
        for verdict in split(5_000, 5_000) {
            assert_eq!(verdict, ["flash_crowd"]);
        }
        for verdict in split(5_000, 10_000) {
            assert_eq!(verdict, ["flash_crowd"], "COOKIE2 proves twice");
        }
    }

    #[test]
    fn neither_fires_below_the_handshake_floor() {
        for proofs in [0, 1_500] {
            for verdict in split(1_500, proofs) {
                assert!(verdict.is_empty(), "{verdict:?}");
            }
        }
    }

    /// One window short of proofs is proofs in flight; two running are a
    /// spoof flood.
    #[test]
    fn spoof_flood_waits_a_window_for_the_proofs_and_flash_crowd_does_not() {
        let reg = Registry::new();
        let (grants, proofs) = (reg.counter("guard", "grants_sent", &[]), reg.counter("guard", "proofs", &[("scheme", "ext")]));
        let mut engine = AlertEngine::new(AlertConfig::default());
        engine.evaluate(0, &snapshot_with(&reg));
        for (second, (granted, proven)) in (1..).zip([(3_000, 0), (3_000, 6_000), (3_000, 0), (3_000, 0), (0, 0)]) {
            grants.add(granted);
            proofs.add(proven);
            engine.evaluate(second * SEC, &snapshot_with(&reg));
        }
        let transitions: Vec<_> = engine.history().iter().map(|t| (t.rule, t.firing, t.t_nanos / SEC)).collect();
        assert_eq!(
            transitions,
            [
                ("handshake_storm", true, 1),
                ("flash_crowd", true, 2),
                ("flash_crowd", false, 3),
                ("spoof_flood", true, 4),
                ("handshake_storm", false, 5),
                ("spoof_flood", false, 5),
            ]
        );
    }

    #[test]
    fn clean_baseline_stays_silent_and_json_is_valid() {
        let reg = Registry::new();
        let ok = reg.counter("guard", "verify", &[("scheme", "ext"), ("verdict", "valid")]);
        let mut engine = AlertEngine::new(AlertConfig::default());
        for i in 0..10 {
            ok.add(50); // Healthy verified traffic only.
            engine.evaluate(i * SEC, &snapshot_with(&reg));
        }
        assert!(engine.is_silent());
        assert_eq!(engine.alerts_json().to_string(), "{\"active\":[],\"history\":[]}");
    }
}
