//! The telemetry vocabulary: every trace kind with the fields it may carry,
//! every trace component, every string a field may hold and every alert
//! rule, declared once.
//!
//! Nothing else in the workspace writes a telemetry name as a table. The
//! emitters are held to this one ([`check`], asserted in debug builds by
//! `ComponentTracer::event` / `debug` on every call and by the alert state
//! machine on every rule it is handed), the wire reader interns through it
//! ([`intern`], under `export::parse_event`), and an experiment's required
//! kinds are the rows whose [`Kind::shown_by`] names it. A row with
//! `shown_by: None` is a kind no experiment is required to produce.
//!
//! The emit API takes `&'static str`, not an enum, so the component is not
//! checked: the benchmark package emits `grant` under component names of its
//! own.

use crate::trace::Value;

/// One trace kind.
#[derive(Debug)]
pub struct Kind {
    /// The kind, as emitted.
    pub name: &'static str,
    /// Every field name an event of this kind may carry.
    pub fields: &'static [&'static str],
    /// The registry experiment whose trace must contain the kind.
    pub shown_by: Option<&'static str>,
}

const fn k(
    name: &'static str,
    fields: &'static [&'static str],
    shown_by: Option<&'static str>,
) -> Kind {
    Kind { name, fields, shown_by }
}

const OBS: Option<&str> = Some("obs");
const FLEETOBS: Option<&str> = Some("fleetobs");
const POISON: Option<&str> = Some("poison");

/// Every trace kind, grouped by the component that emits it.
pub const KINDS: &[Kind] = &[
    // guard: the Figure 4 pipeline
    k("grant", &["src", "qid"], OBS),
    k("verify", &["scheme", "verdict", "src", "qid"], OBS),
    k("rl_drop", &["limiter", "src", "qid"], OBS),
    k("tc_sent", &["src", "qid"], OBS),
    k("fabricated_ns", &["src", "qid"], OBS),
    k("evict", &["table", "txid", "src"], OBS),
    k("ans_down", &["timeouts"], OBS),
    k("ans_recovered", &[], OBS),
    k("ans_probe", &[], None),
    k("forward", &["src", "qid", "txid", "orig_txid"], None),
    k("relay", &["src", "qid", "via", "rtt_ns"], None),
    k("passthrough", &["src", "qid"], None),
    k("stash_hit", &["src", "qid"], None),
    k("proxy_accept", &["src", "qid"], None),
    k("proxy_relay", &["src", "qid", "token"], None),
    // guard: HA pair, checkpoints
    k("peer_down", &[], None),
    k("takeover", &["addr"], None),
    k("checkpoint", &["seq", "bytes"], None),
    k("restore", &["seq", "age_nanos"], None),
    // netsim: injected faults and routing
    k("crash_dropped", &["node"], None),
    k("catchment_shift", &["from", "to", "src"], None),
    k("partition_dropped", &["from", "to"], None),
    k("injected_loss", &["from", "to"], None),
    k("duplicated", &["from", "to"], None),
    k("corrupted", &["from", "to"], None),
    k("reordered", &["from", "to"], None),
    k("fragmented", &["from", "to", "bytes"], POISON),
    k("frag_substituted", &["from", "to", "offset"], POISON),
    // resolver: hardening and failures
    k("poison_attempt", &["server", "job"], POISON),
    k("poison_success", &["qtype"], POISON),
    k("anomaly_gate", &["server", "job"], POISON),
    // No leg of `poison` gets a forgery as far as the bailiwick filter; the
    // resolver's own unit test is what runs this emit site.
    k("bailiwick_drop", &["job", "dropped"], None),
    k("frag_rejected", &["server", "job"], POISON),
    k("tcp_fallback", &["server", "job"], None),
    k("servfail", &["job"], None),
    k("timeout", &["job", "op"], None),
    // alert and fleet: the rule engines and the cross-node stitcher
    k("alert", &["rule", "state", "value", "threshold"], None),
    k("journey_stitch", &["qid", "src", "nodes", "inter_site_ns"], FLEETOBS),
    k("node_silent", &["node", "age_ns"], FLEETOBS),
];

/// The components events are traced under.
pub const COMPONENTS: &[&str] = &["alert", "fleet", "guard", "netsim", "resolver"];

/// Every string a [`Value::Str`] field may hold, beside a rule name.
pub const WORDS: &[&str] = &[
    // scheme
    "ext", "ns_label", "cookie2",
    // verdict
    "valid", "invalid",
    // limiter, table
    "rl1", "rl2", "fwd", "stash",
    // via
    "passthrough", "referral", "cookie2_redirect", "tcp",
    // state
    "firing", "cleared",
];

/// One alert rule.
#[derive(Debug)]
pub struct Rule {
    /// The rule, as it appears in `alert` events and `alerts_json`.
    pub name: &'static str,
    /// Evaluated by the fleet aggregator over every node's snapshot, not by
    /// a node's own engine.
    pub fleet: bool,
}

const fn r(name: &'static str, fleet: bool) -> Rule {
    Rule { name, fleet }
}

/// Every alert rule, in the order each engine registers its `fired` counter.
pub const RULES: &[Rule] = &[
    r("spoof_surge", false),
    r("rl1_saturation", false),
    r("rl2_saturation", false),
    r("amplification_breach", false),
    r("ans_down", false),
    r("ans_flap", false),
    r("trace_drops", false),
    r("checkpoint_lag", false),
    r("failover_triggered", false),
    r("catchment_shift", false),
    r("handshake_storm", false),
    r("spoof_flood", false),
    r("flash_crowd", false),
    r("cache_poisoning", false),
    r("fleet_spoof_surge", true),
    r("site_rate_skew", true),
    r("node_silent", true),
];

/// The names of one engine's rules: the fleet aggregator's, or a node's.
pub fn rules(fleet: bool) -> impl Iterator<Item = &'static str> {
    RULES.iter().filter(move |r| r.fleet == fleet).map(|r| r.name)
}

/// The declaration of kind `name`.
pub fn kind(name: &str) -> Option<&'static Kind> {
    KINDS.iter().find(|k| k.name == name)
}

/// The vocabulary's own `'static` copy of `s`: a kind, a field, a word, a
/// component or a rule. `None` for any other string.
pub fn intern(s: &str) -> Option<&'static str> {
    let fields = KINDS.iter().flat_map(|k| k.fields);
    KINDS
        .iter()
        .map(|k| &k.name)
        .chain(fields)
        .chain(WORDS)
        .chain(COMPONENTS)
        .chain(RULES.iter().map(|r| &r.name))
        .find(|v| **v == s)
        .copied()
}

/// Whether an event of `kind` carrying `fields` is one the vocabulary
/// declares: the kind is a row of [`KINDS`], every field name is in that
/// row's list, and every [`Value::Str`] is a word or a rule.
pub fn check(kind: &str, fields: &[(&'static str, Value)]) -> Result<(), String> {
    let decl = self::kind(kind).ok_or_else(|| format!("trace kind {kind:?} is not in obs::vocab"))?;
    for (name, value) in fields {
        if !decl.fields.contains(name) {
            return Err(format!("kind {kind:?} declares no field {name:?} in obs::vocab"));
        }
        if let Value::Str(s) = value {
            if !WORDS.contains(s) && !RULES.iter().any(|r| r.name == *s) {
                return Err(format!("{kind:?}.{name} holds {s:?}, which is no word of obs::vocab"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use std::collections::BTreeSet;

    fn unique<'a>(class: &str, names: impl IntoIterator<Item = &'a &'static str>) {
        let mut seen = BTreeSet::new();
        for name in names {
            assert!(seen.insert(*name), "{class} declares {name:?} twice");
        }
    }

    #[test]
    fn no_name_is_declared_twice_within_a_class() {
        unique("KINDS", KINDS.iter().map(|k| &k.name));
        for k in KINDS {
            unique(k.name, k.fields);
        }
        unique("WORDS", WORDS);
        unique("COMPONENTS", COMPONENTS);
        unique("RULES", RULES.iter().map(|r| &r.name));
        assert_eq!((rules(false).count(), rules(true).count()), (14, 3));
    }

    #[test]
    fn intern_returns_every_declared_name_and_nothing_else() {
        let declared = KINDS
            .iter()
            .flat_map(|k| k.fields.iter().chain([&k.name]))
            .chain(WORDS)
            .chain(COMPONENTS)
            .chain(RULES.iter().map(|r| &r.name));
        for name in declared {
            assert_eq!(intern(name), Some(*name));
        }
        for foreign in ["exfiltrate", "inf", "NaN", "Grant", ""] {
            assert_eq!(intern(foreign), None, "{foreign:?}");
        }
        assert_eq!(kind("evict").map(|k| k.fields), Some(&["table", "txid", "src"][..]));
        assert!(kind("src").is_none(), "a field is not a kind");
    }

    #[test]
    fn check_takes_declared_events_and_names_what_is_not() {
        let rule = [("rule", Value::Str("site_rate_skew")), ("state", Value::Str("firing"))];
        assert_eq!(check("alert", &rule), Ok(()));
        assert_eq!(check("ans_probe", &[]), Ok(()));
        let err = |kind, fields: &[(&'static str, Value)]| check(kind, fields).unwrap_err();
        assert!(err("lonely_kind", &[]).contains("\"lonely_kind\" is not in obs::vocab"));
        assert!(err("grant", &[("txid", Value::U64(1))]).contains("no field \"txid\""));
        assert!(err("verify", &[("scheme", Value::Str("dns_based"))]).contains("\"dns_based\""));
    }

    /// The choke point: an emit site is held to the table by running it,
    /// with nothing listening.
    #[test]
    #[should_panic(expected = "\"lonely_kind\" is not in obs::vocab")]
    fn an_undeclared_kind_panics_at_its_emit_site_with_tracing_off() {
        Tracer::disabled().component("guard").event(0, "lonely_kind", &[]);
    }

    #[test]
    #[should_panic(expected = "no field \"token\"")]
    fn an_undeclared_field_panics_at_its_debug_emit_site() {
        Tracer::disabled().component("guard").debug(0, "forward", &[("token", Value::U64(1))]);
    }
}
