//! The simulated LRS's wire output, pinned. The eight Table III cells are
//! built as `perf`'s `table3_sim` builds them (`guarded_world` plus
//! `attach_lrs`: three clients of 64 slots, two of 50 for the TCP scheme)
//! and run for 30 ms of simulated time. Every packet a client sends passes a
//! tap that folds it into an FNV-64 and hands it on to the guard. Per cell
//! the test pins that hash, each client's `LrsSimStats` and every node's
//! `CpuStats` to the values the client produced when it still decoded every
//! response into a `Message` and encoded every query from one. The pinned
//! guards hash cookies with the paper's MD5; a second pass under the default
//! hash must send as many packets, complete as many requests and charge as
//! much CPU, because the simulated charge per cookie is Table III's `c`
//! whichever hash runs. Only the bytes of cookie-carrying packets differ.
//!
//! Only public API is used, so the file runs unchanged against an older
//! client. A change that keeps every packet and timer of the clients leaves
//! every number here alone; one that moves any of them prints the cells it
//! produced. (Table III's clients charge no CPU per packet, so their busy
//! time reads zero here.)

use bench::worlds::{attach_lrs, guarded_world_with, LrsParams, WorldParams, ZoneSel};
use dnsguard::config::{GuardConfig, SchemeMode};
use guardhash::cookie::CookieAlg;
use netsim::engine::{Context, CpuConfig, Node, NodeId, Simulator};
use netsim::packet::{Packet, Proto};
use netsim::time::SimTime;
use server::simclient::{CookieMode, LrsSimulator};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(packets, running FNV-64)` over everything the clients sent.
type Sent = Rc<Cell<(u64, u64)>>;

/// The clients' gateway: records each packet (destination, protocol,
/// length, payload) and passes it straight to the guard.
struct Tap {
    guard: NodeId,
    sent: Sent,
}

impl Node for Tap {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let (count, mut h) = self.sent.get();
        h = fnv(h, &pkt.dst.ip.octets());
        h = fnv(h, &pkt.dst.port.to_be_bytes());
        h = fnv(h, &[u8::from(pkt.proto == Proto::Tcp)]);
        h = fnv(h, &(pkt.payload.len() as u32).to_be_bytes());
        h = fnv(h, &pkt.payload);
        self.sent.set((count + 1, h));
        ctx.send_direct(self.guard, pkt);
    }
}

/// Table III's columns: `(label, zone, scheme, client cookie mode)`.
const SCHEMES: [(&str, ZoneSel, SchemeMode, CookieMode); 4] = [
    ("ns_name", ZoneSel::Root, SchemeMode::DnsBased, CookieMode::Plain),
    ("fabricated", ZoneSel::Foo, SchemeMode::DnsBased, CookieMode::Plain),
    ("tcp", ZoneSel::Foo, SchemeMode::TcpBased, CookieMode::Plain),
    ("modified", ZoneSel::Foo, SchemeMode::ModifiedOnly, CookieMode::Extension),
];

/// Edits a cell's guard configuration before the guard is built.
type Configure = fn(GuardConfig) -> GuardConfig;

/// One cell, run: its label, the tap's count and hash, the clients'
/// counters and every node's CPU counters.
fn cell(label: &str, zone: ZoneSel, mode: SchemeMode, lrs: CookieMode, cache: bool, seed: u64, configure: Configure) -> String {
    let mut params = WorldParams::new(seed);
    params.zone = zone;
    params.mode = mode;
    let w = guarded_world_with(params, configure);
    let mut sim: Simulator = w.sim;
    let (machines, slots) = if mode == SchemeMode::TcpBased { (2, 50) } else { (3, 64) };
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
    let sent: Sent = Rc::new(Cell::new((0, FNV_OFFSET)));
    let tap = sim.add_node(
        Ipv4Addr::new(10, 0, 2, 1),
        CpuConfig::unbounded(),
        Tap {
            guard: w.guard,
            sent: sent.clone(),
        },
    );
    for &c in &clients {
        sim.set_gateway(c, tap);
    }
    sim.run_until(SimTime::from_millis(30));

    let (packets, hash) = sent.get();
    let stats: Vec<String> = clients
        .iter()
        .map(|&c| format!("{:?}", sim.node_ref::<LrsSimulator>(c).expect("lrs node").stats))
        .collect();
    let mut nodes = vec![w.guard, w.ans];
    nodes.extend(&clients);
    nodes.push(tap);
    let cpu: Vec<String> = nodes.iter().map(|&n| format!("{:?}", sim.cpu_stats(n))).collect();
    let cache = if cache { "hit" } else { "miss" };
    format!(
        "{label}/{cache}: sent={packets} fnv={hash:#018x} lrs=[{}] cpu=[{}]",
        stats.join(", "),
        cpu.join(", ")
    )
}

/// The eight cells, in Table III's order, each guard built by `configure`.
fn cells(configure: Configure) -> Vec<String> {
    SCHEMES
        .iter()
        .flat_map(|&s| [(s, false), (s, true)])
        .enumerate()
        .map(|(i, ((label, zone, mode, lrs), cache))| cell(label, zone, mode, lrs, cache, 1 + i as u64, configure))
        .collect()
}

/// The paper's cookie hash.
fn md5(c: GuardConfig) -> GuardConfig {
    c.with_cookie_alg(CookieAlg::Md5)
}

/// A cell's line split at its `fnv=` field: `(the line without it, the hash)`.
fn split_fnv(line: &str) -> (String, &str) {
    let (head, rest) = line.split_once(" fnv=").expect("an fnv field");
    let (hash, tail) = rest.split_once(' ').expect("fields after fnv");
    (format!("{head} {tail}"), hash)
}

#[test]
fn every_table3_cell_sends_what_the_decoding_client_sent() {
    let got = cells(md5);
    let want: [&str; 8] = [
        "ns_name/miss: sent=5045 fnv=0xad7aaa3b908bde3a lrs=[LrsSimStats { completed: 832, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 770, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 768, timeouts: 0, tcp_fallbacks: 0, errors: 0 }] cpu=[CpuStats { busy: SimTime(29564108), delivered: 7430, dropped: 0 }, CpuStats { busy: SimTime(22170510), delivered: 2439, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1679, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1602, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1600, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 5045, dropped: 0 }]",
        "ns_name/hit: sent=3450 fnv=0x03d4848018b00b0a lrs=[LrsSimStats { completed: 1040, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 1024, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 1024, timeouts: 0, tcp_fallbacks: 0, errors: 0 }] cpu=[CpuStats { busy: SimTime(23638414), delivered: 6539, dropped: 0 }, CpuStats { busy: SimTime(29215260), delivered: 3214, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1104, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1088, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1088, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 3450, dropped: 0 }]",
        "fabricated/miss: sent=4826 fnv=0x237a581cd5030e2d lrs=[LrsSimStats { completed: 521, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 472, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 484, timeouts: 0, tcp_fallbacks: 0, errors: 0 }] cpu=[CpuStats { busy: SimTime(29322424), delivered: 7551, dropped: 0 }, CpuStats { busy: SimTime(25233840), delivered: 2776, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1618, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1522, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1529, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 4826, dropped: 0 }]",
        "fabricated/hit: sent=3453 fnv=0x18db9144887660c4 lrs=[LrsSimStats { completed: 977, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 961, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 961, timeouts: 0, tcp_fallbacks: 0, errors: 0 }] cpu=[CpuStats { busy: SimTime(23652703), delivered: 6542, dropped: 0 }, CpuStats { busy: SimTime(29215260), delivered: 3214, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1105, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1089, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1089, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 3453, dropped: 0 }]",
        "tcp/miss: sent=3678 fnv=0xe68a146b4a511909 lrs=[LrsSimStats { completed: 300, timeouts: 0, tcp_fallbacks: 318, errors: 0 }, LrsSimStats { completed: 300, timeouts: 0, tcp_fallbacks: 300, errors: 0 }] cpu=[CpuStats { busy: SimTime(25759603), delivered: 4083, dropped: 0 }, CpuStats { busy: SimTime(5454000), delivered: 600, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1487, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1450, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 3678, dropped: 0 }]",
        "tcp/hit: sent=3678 fnv=0xe68a146b4a511909 lrs=[LrsSimStats { completed: 300, timeouts: 0, tcp_fallbacks: 318, errors: 0 }, LrsSimStats { completed: 300, timeouts: 0, tcp_fallbacks: 300, errors: 0 }] cpu=[CpuStats { busy: SimTime(25759603), delivered: 4083, dropped: 0 }, CpuStats { busy: SimTime(5454000), delivered: 600, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1487, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1450, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 3678, dropped: 0 }]",
        "modified/miss: sent=5045 fnv=0xed66cec558c2743a lrs=[LrsSimStats { completed: 832, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 770, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 768, timeouts: 0, tcp_fallbacks: 0, errors: 0 }] cpu=[CpuStats { busy: SimTime(29564108), delivered: 7430, dropped: 0 }, CpuStats { busy: SimTime(22170510), delivered: 2439, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1679, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1602, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1600, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 5045, dropped: 0 }]",
        "modified/hit: sent=3450 fnv=0x479a2bd200475a52 lrs=[LrsSimStats { completed: 1040, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 1024, timeouts: 0, tcp_fallbacks: 0, errors: 0 }, LrsSimStats { completed: 1024, timeouts: 0, tcp_fallbacks: 0, errors: 0 }] cpu=[CpuStats { busy: SimTime(23638414), delivered: 6539, dropped: 0 }, CpuStats { busy: SimTime(29215260), delivered: 3214, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1104, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1088, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 1088, dropped: 0 }, CpuStats { busy: SimTime(0), delivered: 3450, dropped: 0 }]",
    ];
    if got != want {
        for line in &got {
            eprintln!("{line:?},");
        }
    }
    assert_eq!(got, want);
}

#[test]
fn the_default_cookie_hash_moves_no_packet_count_completion_or_cpu_charge() {
    for (paper, default) in cells(md5).iter().zip(cells(|c| c)) {
        let ((paper_rest, paper_fnv), (default_rest, default_fnv)) = (split_fnv(paper), split_fnv(&default));
        assert_eq!(default_rest, paper_rest, "sent=, lrs= and cpu= are the MD5 pass's");
        // The TCP scheme carries no cookie in a client's packets; the other
        // six cells echo cookie bytes (an NS label, a `COOKIE2` address, an
        // extension), which the default hash derives differently.
        let carries_cookies = !paper.starts_with("tcp/");
        assert_eq!(default_fnv != paper_fnv, carries_cookies, "{paper}");
    }
}
