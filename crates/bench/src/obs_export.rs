//! The telemetry-export experiment behind `BENCH_obs.json`: one
//! instrumented guarded run whose event trace covers every guard decision
//! class (grant, verify, RL drop, TC redirect, fabricated NS, eviction,
//! ANS health transitions), sampled on a 10 ms sim-time cadence.
//!
//! Run via `cargo run --release -p bench --bin all_experiments -- obs`.
//! Two files are written:
//!
//! * `BENCH_obs.json` — experiment header, full metrics snapshot, and the
//!   per-metric `[t_nanos, value]` time series.
//! * `BENCH_obs_trace.jsonl` — the structured event trace, one JSON object
//!   per line in sim-time order.

use crate::registry::{untraced_kinds, Export, Format, Outcome};
use crate::worlds::{
    attach_lrs, guarded_world_with, observe, run_stepped, LrsParams, Scope, WorldParams, ZoneSel, PUB,
};
use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
use netsim::engine::CpuConfig;
use netsim::time::SimTime;
use obs::export::{events_jsonl, metrics_json, Json, Sampler};
use server::nodes::AuthNode;
use server::simclient::CookieMode;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// The snapshot document's file name.
pub const SNAPSHOT_FILE: &str = "BENCH_obs.json";
/// The event trace's file name.
pub const TRACE_FILE: &str = "BENCH_obs_trace.jsonl";

/// Substrings the snapshot document must contain: the experiment header,
/// one metric per instrumented component, the labelled guard families,
/// and the time-series block.
const SNAPSHOT_KEYS: &[&str] = &[
    "\"experiment\":\"obs_export\"",
    "\"component\":\"guard\"",
    "\"component\":\"netsim\"",
    "\"component\":\"authoritative\"",
    "\"name\":\"verify\"",
    "\"name\":\"rl_dropped\"",
    "\"name\":\"evicted\"",
    "\"name\":\"queries\"",
    "\"kind\":\"histogram\"",
    "\"timeseries\"",
];

/// The in-memory result of one instrumented run.
pub struct ObsRun {
    /// The composed `BENCH_obs.json` document.
    pub snapshot_json: Json,
    /// The JSONL event trace.
    pub trace_jsonl: String,
    /// Events drained from the tracer ring.
    pub events: usize,
    /// Events the ring discarded (0 unless the scenario overflows it).
    pub dropped: u64,
    /// Event count per kind, for reporting.
    pub kind_counts: BTreeMap<&'static str, usize>,
}

/// The acceptance bar: every kind `obs::vocab` says `obs` shows was traced
/// — a full decision-coverage run.
pub fn failures(run: &ObsRun) -> Vec<String> {
    untraced_kinds("obs", |k| run.kind_counts.contains_key(k))
}

/// Drives the instrumented scenario and composes the export documents.
///
/// The topology is the standard guarded world (root zone, DNS-based
/// scheme) with closed rate limiters and deliberately small guard tables,
/// plus:
///
/// * a plain closed-loop LRS (NS-label cookie flow: fabricated NS,
///   requery, `verify{scheme=ns_label}`),
/// * a cookie-extension LRS (grant + `verify{scheme=ext}`),
/// * a TCP-redirected LRS (every plain query answered with TC),
/// * a 20 K req/s spoofed flood for 600 ms (RL1 drops), and
/// * a guard–ANS partition from 700 ms to 1 s (timeouts, `ans_down`,
///   then `ans_recovered` once a probe gets through).
pub fn run_scenario(seed: u64, duration: SimTime) -> ObsRun {
    let tcp_client = Ipv4Addr::new(10, 0, 3, 1);

    let mut p = WorldParams::new(seed);
    p.zone = ZoneSel::Root;
    p.open_limiters = false;
    let mut world = guarded_world_with(p, |mut c| {
        // Tight tables so the closed-loop load forces fwd-table evictions.
        c.fwd_bytes_max = 1_024;
        c.stash_bytes_max = 1_024;
        // Fast health detection so the 300 ms partition produces a full
        // down/recovered cycle: the timeout horizon must sit below the
        // ~40 ms lifetime the tight fwd table gives an entry, or eviction
        // recycles every stranded forward before the sweep can count it.
        c.ans_timeout = SimTime::from_millis(20);
        c.ans_failure_threshold = 2;
        c.ans_probe_interval = SimTime::from_millis(50);
        c.tcp_redirect_sources.push(tcp_client);
        c
    });

    let obs = observe(&mut world.sim, Scope::Untraced, &[world.guard]);
    world
        .sim
        .node_ref::<AuthNode>(world.ans)
        .unwrap()
        .attach_obs(&obs);

    let lrs = |ip, mode| LrsParams::paced(ip, 8, SimTime::from_millis(50), SimTime::from_millis(2)).with_mode(mode);
    attach_lrs(&mut world.sim, lrs(Ipv4Addr::new(10, 0, 1, 1), CookieMode::Plain));
    attach_lrs(&mut world.sim, lrs(Ipv4Addr::new(10, 0, 2, 1), CookieMode::Extension));
    attach_lrs(&mut world.sim, lrs(tcp_client, CookieMode::Plain));
    world.sim.add_node(
        Ipv4Addr::new(66, 0, 0, 66),
        CpuConfig::unbounded(),
        SpoofedFlood::new(FloodConfig {
            target: PUB,
            rate: 20_000.0,
            sources: SourceStrategy::Random,
            payload: AttackPayload::PlainQuery("www.foo.com".parse().expect("static name")),
            duration: Some(SimTime::from_millis(600)),
        }),
    );
    world.sim.partition(
        world.guard,
        world.ans,
        SimTime::from_millis(700),
        SimTime::from_millis(1_000),
    );

    // The sampler snapshots the registry's metric set at construction, so
    // it must come after every attach above.
    let mut sampler = Sampler::new(&obs.registry);
    run_stepped(&mut world.sim, duration, SimTime::from_millis(10), |sim| sampler.sample(sim.now().as_nanos()));

    let (events, dropped) = obs.tracer.drain();
    let mut kind_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for e in &events {
        *kind_counts.entry(e.kind).or_default() += 1;
    }

    let snapshot_json = Json::obj([
        ("experiment", "obs_export".into()),
        ("seed", seed.into()),
        ("duration_nanos", duration.as_nanos().into()),
        ("trace", Json::obj([("events", events.len().into()), ("dropped", dropped.into())])),
        ("snapshot", metrics_json(&obs.registry.snapshot())),
        ("timeseries", sampler.series_json()),
    ]);
    ObsRun {
        snapshot_json,
        trace_jsonl: events_jsonl(&events),
        events: events.len(),
        dropped,
        kind_counts,
    }
}

/// The registry entry: the scenario at the committed seed and duration.
pub fn experiment() -> Outcome {
    let run = run_scenario(2006, SimTime::from_millis(1_400));
    let report = format!(
        "trace: {} events, {} dropped\nevent kinds: {:?}\n",
        run.events, run.dropped, run.kind_counts
    );
    Outcome {
        report,
        failures: failures(&run),
        exports: vec![
            Export::new(SNAPSHOT_FILE, Format::Json, run.snapshot_json.to_string(), SNAPSHOT_KEYS),
            Export::new(TRACE_FILE, Format::Jsonl, run.trace_jsonl, &[]),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::validate;

    #[test]
    fn scenario_covers_every_decision_kind_and_exports_valid_json() {
        let mut run = run_scenario(2006, SimTime::from_millis(1_400));
        assert_eq!(failures(&run), Vec::<String>::new(), "kinds seen: {:?}", run.kind_counts);
        // Every line reads back into an event of the vocabulary and writes
        // out as the same bytes: nothing a collector relays is lost.
        let trace = Export::new(TRACE_FILE, Format::Jsonl, String::new(), &[]);
        assert_eq!(validate(&trace, &run.trace_jsonl), Vec::<String>::new());
        let snapshot = run.snapshot_json.to_string();
        for key in SNAPSHOT_KEYS {
            assert!(snapshot.contains(key), "missing {key}");
        }
        run.kind_counts.remove("evict");
        assert_eq!(failures(&run), ["required event kind \"evict\" was never traced"]);
    }

    #[test]
    fn trace_is_in_sim_time_order() {
        let run = run_scenario(7, SimTime::from_millis(1_400));
        let mut last = 0u64;
        for line in run.trace_jsonl.lines() {
            let t: u64 = line
                .strip_prefix("{\"t\":")
                .and_then(|r| r.split(',').next())
                .and_then(|n| n.parse().ok())
                .expect("every line starts with a numeric t");
            assert!(t >= last, "events out of sim-time order: {t} after {last}");
            last = t;
        }
        assert!(run.events > 0);
    }
}
