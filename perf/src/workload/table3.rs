//! `table3_sim`: the whole simulated deployment.
//!
//! The eight cells of the paper's Table III (four schemes, requester-side
//! cookie cache off and on) as `bench::worlds::guarded_world` plus
//! closed-loop `LrsSimulator`s with Table III's parameters, telemetry
//! attached at `Info`. A round advances every cell by the same stretch of
//! simulated time; the operation counted is a simulated packet delivered to
//! a node. This is the one workload that runs the TCP proxy, `netsim::tcp`,
//! the simulated clients and the tracer, and the one where the event engine
//! does most of the work.

use super::{note, Round, Workload};
use crate::spans::{SpanId, Spans};
use crate::stats;
use bench::worlds::{attach_lrs, guarded_world, LrsParams, WorldParams, ZoneSel};
use dnsguard::config::SchemeMode;
use dnsguard::guard::RemoteGuard;
use netsim::engine::{NodeId, Simulator};
use netsim::time::SimTime;
use obs::trace::Level;
use obs::Obs;
use server::simclient::{CookieMode, LrsSimulator};
use std::net::Ipv4Addr;
use std::time::Instant;

/// Simulated time each cell advances per round.
const ROUND_SIM: SimTime = SimTime::from_millis(40);
/// Simulated time per latency sample: 160 samples per cell and round.
const SLICE: SimTime = SimTime::from_micros(250);
/// Simulated warm-up per cell during set-up: handshakes done, cookie caches
/// filled, TCP pipelines full.
const WARM_UP: SimTime = SimTime::from_millis(100);

/// Table III's columns: `(label, zone, scheme, client cookie mode)`.
const SCHEMES: [(&str, ZoneSel, SchemeMode, CookieMode); 4] = [
    (
        "ns_name",
        ZoneSel::Root,
        SchemeMode::DnsBased,
        CookieMode::Plain,
    ),
    (
        "fabricated",
        ZoneSel::Foo,
        SchemeMode::DnsBased,
        CookieMode::Plain,
    ),
    ("tcp", ZoneSel::Foo, SchemeMode::TcpBased, CookieMode::Plain),
    (
        "modified",
        ZoneSel::Foo,
        SchemeMode::ModifiedOnly,
        CookieMode::Extension,
    ),
];

struct Cell {
    label: &'static str,
    sim: Simulator,
    guard: NodeId,
    nodes: Vec<NodeId>,
    clients: Vec<NodeId>,
    obs: Obs,
    delivered: u64,
    done: u64,
    bad: u64,
}

impl Cell {
    fn new(
        label: &'static str,
        zone: ZoneSel,
        mode: SchemeMode,
        lrs: CookieMode,
        cache: bool,
        seed: u64,
    ) -> Cell {
        let mut params = WorldParams::new(seed);
        params.zone = zone;
        params.mode = mode;
        let w = guarded_world(params);
        let mut sim = w.sim;
        // Table III: three LRS machines of 64 slots; the TCP scheme two of
        // 50, enough to saturate without the connection table dominating.
        let (machines, slots) = if mode == SchemeMode::TcpBased {
            (2, 50)
        } else {
            (3, 64)
        };
        let clients: Vec<NodeId> = (0..machines)
            .map(|i| {
                let ip = Ipv4Addr::new(10, 0, 1, i + 1);
                attach_lrs(
                    &mut sim,
                    LrsParams {
                        mode: lrs,
                        cookie_cache: cache,
                        ..LrsParams::closed_loop(ip, slots)
                    },
                )
            })
            .collect();
        let obs = Obs::new();
        obs.tracer.set_default_level(Level::Info);
        sim.attach_obs(&obs);
        sim.node_mut::<RemoteGuard>(w.guard)
            .expect("guard node")
            .attach_obs(&obs);
        let mut nodes = vec![w.guard, w.ans];
        nodes.extend(&clients);
        let mut cell = Cell {
            label,
            sim,
            guard: w.guard,
            nodes,
            clients,
            obs,
            delivered: 0,
            done: 0,
            bad: 0,
        };
        cell.sim.run_for(WARM_UP);
        cell.obs.tracer.drain();
        cell.delivered = cell.delivered_now();
        (cell.done, cell.bad) = cell.requests_now();
        cell
    }

    fn delivered_now(&self) -> u64 {
        self.nodes
            .iter()
            .map(|&n| self.sim.cpu_stats(n).delivered)
            .sum()
    }

    /// Requests `(completed, timed out or answered with an error)`.
    fn requests_now(&self) -> (u64, u64) {
        self.clients
            .iter()
            .map(|&c| {
                self.sim
                    .node_ref::<LrsSimulator>(c)
                    .expect("lrs node")
                    .stats
            })
            .fold((0, 0), |(done, bad), s| {
                (done + s.completed, bad + s.timeouts + s.errors)
            })
    }
}

/// The workload, set up.
pub struct Table3 {
    cells: Vec<Cell>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    wall_ns: f64,
    sim_ns: f64,
}

impl Table3 {
    /// Builds and warms the eight cells; cell `i` simulates with seed
    /// `seed + i`.
    pub fn new(seed: u64) -> Table3 {
        let cells = SCHEMES
            .iter()
            .flat_map(|&s| [(s, false), (s, true)])
            .enumerate()
            .map(|(i, ((label, zone, mode, lrs), cache))| {
                Cell::new(label, zone, mode, lrs, cache, seed.wrapping_add(i as u64))
            })
            .collect();
        Table3 {
            cells,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            wall_ns: 0.0,
            sim_ns: 0.0,
        }
    }
}

impl Workload for Table3 {
    fn name(&self) -> &'static str {
        "table3_sim"
    }

    fn round(&mut self, mut trace: Option<(&mut Spans, SpanId)>) -> Round {
        let slices = ROUND_SIM.as_nanos() / SLICE.as_nanos();
        let mut samples: Vec<f64> = Vec::with_capacity(self.cells.len() * slices as usize);
        let (mut ns, mut ops) = (0.0, 0u64);
        for cell in &mut self.cells {
            let span = trace
                .as_mut()
                .map(|(spans, round)| spans.open("batch", cell.label, 0, Some(*round)));
            let mut carried = 0.0;
            for _ in 0..slices {
                let t0 = Instant::now();
                cell.sim.run_for(SLICE);
                let dt = t0.elapsed().as_nanos() as f64;
                ns += dt;
                let now = cell.delivered_now();
                let delivered = now - cell.delivered;
                cell.delivered = now;
                ops += delivered;
                // A slice in which nothing was delivered lengthens the next.
                if delivered == 0 {
                    carried += dt;
                } else {
                    samples.push((dt + carried) / delivered as f64 / 1e3);
                    carried = 0.0;
                }
            }
            if let (Some((spans, _)), Some(id)) = (trace.as_mut(), span) {
                spans.close(id);
            }
        }
        self.wall_ns += ns;
        self.sim_ns += (ROUND_SIM.as_nanos() * self.cells.len() as u64) as f64;

        // Untimed: empty the trace rings and check the clients.
        for i in 0..self.cells.len() {
            let cell = &mut self.cells[i];
            cell.obs.tracer.drain();
            let (done, bad) = cell.requests_now();
            let (new_done, new_bad) = (done - cell.done, bad - cell.bad);
            (cell.done, cell.bad) = (done, bad);
            let drops = cell.sim.cpu_stats(cell.guard).dropped;
            let label = cell.label;
            self.attempted += new_done + new_bad;
            if new_bad > 0 {
                self.failed += new_bad;
                note(
                    &mut self.failures,
                    format!(
                        "table3_sim: cell {i} ({label}): {new_bad} requests timed out or failed"
                    ),
                );
            }
            if new_done == 0 {
                self.failed += 1;
                note(
                    &mut self.failures,
                    format!("table3_sim: cell {i} ({label}) completed no request in a round"),
                );
            }
            if drops > 0 {
                self.failed += drops;
                note(
                    &mut self.failures,
                    format!("table3_sim: cell {i} ({label}): guard NIC dropped {drops} packets"),
                );
            }
        }
        let (p50_us, p99_us) = stats::p50_p99(&mut samples);
        Round {
            ns,
            ops,
            p50_us,
            p99_us,
        }
    }

    fn attempted(&self) -> u64 {
        self.attempted
    }

    fn failed(&self) -> u64 {
        self.failed
    }

    fn failures(&self) -> &[String] {
        &self.failures
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        vec![("netsim.wall_per_sim_s", self.wall_ns / self.sim_ns.max(1.0))]
    }
}
