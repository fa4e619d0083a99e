//! Per-layer microbenchmarks: each hot-path primitive in isolation, called
//! through its public function on inputs made from the seed.
//!
//! All benches run interleaved in *sweeps*: one sweep gives every bench one
//! short round, bracketed by a pair of host-speed probes, so each bench
//! samples the same stretches of host time; a bench's figure is the lower
//! quartile over sweeps of its host-normalised ns per call. With
//! [`CALLS`] calls per round, 32 sweeps make 65 536 calls per bench.

use crate::alloc;
use crate::classes::ClassBenches;
use crate::probe::Probe;
use crate::rng::Rng;
use crate::shadow::DispatchSim;
use crate::stats;
use crate::world::{PUB, SINK};
use dnsguard::classify::{AuthorityClassifier, Classifier};
use dnsguard::ratelimit::SourceRateLimiter;
use dnswire::cookie_ext;
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::rdata::RData;
use dnswire::types::RrType;
use guardhash::cookie::{Cookie, CookieAlg, CookieFactory};
use guardhash::md5::md5;
use guardhash::siphash::siphash24;
use netsim::engine::{Context, CpuConfig, Node, Simulator};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use netsim::tokenbucket::TokenBucket;
use obs::sketch::TrafficSketch;
use obs::trace::{Level, Value};
use obs::Obs;
use runtime::{spawn_guarded, CookieClient, GuardServer, ToyAns};
use server::authoritative::Authority;
use server::zone::{paper_hierarchy, WWW_ADDR};
use std::hint::black_box;
use std::io;
use std::net::{Ipv4Addr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Calls per bench and sweep.
pub const CALLS: usize = 2048;

/// Round trips per socket bench and sweep.
const SOCKET_CALLS: usize = 256;

/// Grant exchanges per sweep: the live guard's Rate-Limiter1 allows one
/// source 1 000 grants/s with a burst of 100, and a refused grant costs the
/// client its 2 s time-out, so this stays far below.
const GRANT_CALLS: usize = 8;

/// One bench: `run` makes [`CALLS`] calls and returns the nanoseconds they
/// took.
struct Bench {
    name: &'static str,
    run: Box<dyn FnMut() -> f64>,
    ns_per_call: Vec<f64>,
}

/// A bench whose whole body is timed.
fn bench(name: &'static str, mut body: impl FnMut() + 'static) -> Bench {
    prepared(name, || (), move |()| body())
}

/// A bench that prepares its inputs outside the timed region.
fn prepared<P>(
    name: &'static str,
    mut prepare: impl FnMut() -> P + 'static,
    mut body: impl FnMut(P) + 'static,
) -> Bench {
    Bench {
        name,
        run: Box::new(move || {
            let input = prepare();
            let t0 = Instant::now();
            body(input);
            t0.elapsed().as_nanos() as f64
        }),
        ns_per_call: Vec::new(),
    }
}

/// Allocations one call of `f` makes. Counts are exact and repeat, so one
/// short counted pass suffices.
fn allocs_per_call(mut f: impl FnMut()) -> f64 {
    let before = alloc::allocs();
    for _ in 0..256 {
        f();
    }
    (alloc::allocs() - before) as f64 / 256.0
}

/// Re-arms itself `left` times, 1 µs apart.
struct Ticker {
    left: u32,
}
impl Node for Ticker {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        if self.left > 0 {
            self.left -= 1;
            ctx.set_timer(SimTime::from_micros(1), 0);
        }
    }
}

/// The benchmark's own UDP echo server: the kernel and context-switch
/// floor under every loopback figure.
struct Echo {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Echo {
    fn spawn() -> io::Result<Echo> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_read_timeout(Some(Duration::from_millis(50)))?;
        let addr = sock.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let seen = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            // SeqCst: the flag is the only thing shared; nothing to pair.
            while !seen.load(Ordering::SeqCst) {
                if let Ok((len, peer)) = sock.recv_from(&mut buf) {
                    let _ = sock.send_to(&buf[..len], peer);
                }
            }
        });
        Ok(Echo {
            addr,
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The real-socket benches: per-call samples in µs, pooled over sweeps.
struct Sockets {
    echo: Echo,
    plain: UdpSocket,
    ans: ToyAns,
    _guard: GuardServer,
    _guarded_ans: ToyAns,
    client: CookieClient,
    granter: CookieClient,
    qname: Name,
    echo_us: Vec<f64>,
    direct_us: Vec<f64>,
    guarded_us: Vec<f64>,
    grant_us: Vec<f64>,
    /// This sweep's wall-clock samples `(which series, µs)`, until
    /// [`Sockets::commit`] normalises them.
    pending: Vec<(usize, f64)>,
    failures: Vec<String>,
}

impl Sockets {
    fn new(seed: u64) -> io::Result<Sockets> {
        let (_, _, foo_zone) = paper_hierarchy();
        let authority = Authority::new(vec![foo_zone]);
        let ans = ToyAns::spawn(authority.clone())?;
        let (guarded_ans, guard) = spawn_guarded(authority, seed)?;
        let plain = UdpSocket::bind("127.0.0.1:0")?;
        plain.set_read_timeout(Some(Duration::from_secs(2)))?;
        Ok(Sockets {
            echo: Echo::spawn()?,
            plain,
            client: CookieClient::connect(guard.addr())?,
            granter: CookieClient::connect(guard.addr())?,
            ans,
            _guard: guard,
            _guarded_ans: guarded_ans,
            qname: "www.foo.com".parse().expect("static name"),
            echo_us: Vec::new(),
            direct_us: Vec::new(),
            guarded_us: Vec::new(),
            grant_us: Vec::new(),
            pending: Vec::new(),
            failures: Vec::new(),
        })
    }

    /// One query/response over the plain socket, with the client-side encode
    /// and decode `CookieClient` also performs. `false` on a wrong answer.
    fn exchange(&self, to: std::net::SocketAddr, id: u16, check: bool) -> io::Result<bool> {
        let wire = Message::query(id, self.qname.clone(), RrType::A).encode();
        self.plain.send_to(&wire, to)?;
        let mut buf = [0u8; 2048];
        let (len, _) = self.plain.recv_from(&mut buf)?;
        let Ok(resp) = Message::decode(&buf[..len]) else {
            return Ok(false);
        };
        Ok(resp.header.id == id
            && (!check
                || matches!(resp.answers.first().map(|r| &r.rdata), Some(RData::A(ip)) if *ip == WWW_ADDR)))
    }

    fn sweep(&mut self) {
        let us = |t0: Instant| t0.elapsed().as_nanos() as f64 / 1e3;
        for i in 0..SOCKET_CALLS {
            let t0 = Instant::now();
            match self.exchange(self.echo.addr, i as u16, false) {
                Ok(true) => self.pending.push((0, us(t0))),
                other => self.failures.push(format!("udp echo: {other:?}")),
            }
            let t0 = Instant::now();
            match self.exchange(self.ans.addr(), i as u16, true) {
                Ok(true) => self.pending.push((1, us(t0))),
                other => self.failures.push(format!("direct ANS query: {other:?}")),
            }
            let t0 = Instant::now();
            match self.client.query(self.qname.clone(), RrType::A) {
                Ok(_) => self.pending.push((2, us(t0))),
                Err(e) => self.failures.push(format!("guarded query: {e}")),
            }
        }
        for _ in 0..GRANT_CALLS {
            self.granter.forget_cookie();
            let t0 = Instant::now();
            match self.granter.query(self.qname.clone(), RrType::A) {
                Ok(_) => self.pending.push((3, us(t0))),
                Err(e) => self.failures.push(format!("grant exchange: {e}")),
            }
        }
    }

    /// Files the last sweep's samples, host-normalised by `scale`.
    fn commit(&mut self, scale: f64) {
        for (series, us) in self.pending.drain(..) {
            [
                &mut self.echo_us,
                &mut self.direct_us,
                &mut self.guarded_us,
                &mut self.grant_us,
            ][series]
                .push(us * scale);
        }
    }
}

/// Everything the layer suite measured.
pub struct LayerReport {
    /// `(metric name, value)`; `_ns`/`_us` figures are host-normalised.
    pub metrics: Vec<(String, f64)>,
    /// Operations checked (class-bench datagrams and socket round trips).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
}

fn ips(rng: &mut Rng) -> Vec<Ipv4Addr> {
    (0..CALLS).map(|_| rng.source(|_| false)).collect()
}

/// Runs `sweeps` sweeps of every layer bench.
///
/// # Errors
///
/// When a loopback socket cannot be opened.
pub fn run(seed: u64, sweeps: usize, probe: &mut Probe) -> io::Result<LayerReport> {
    let mut rng = Rng::new(seed, 0x1A);
    let qname: Name = "www.foo.com".parse().expect("static name");
    let (root_zone, _, foo_zone) = paper_hierarchy();
    let root = Authority::new(vec![root_zone]);
    let terminal = Authority::new(vec![foo_zone]);

    // Wire fixtures.
    let query = Message::iterative_query(7, qname.clone(), RrType::A);
    let mut ext_query = query.clone();
    cookie_ext::attach_cookie(&mut ext_query, [0x5A; 16], 0);
    let referral = root.answer(&query).0;
    let mut grant = query.response();
    cookie_ext::attach_cookie(&mut grant, [0xA5; 16], 604_800);
    let (query_wire, ext_wire, referral_wire) =
        (query.encode(), ext_query.encode(), referral.encode());

    let allocs_per_decode =
        allocs_per_call(|| drop(black_box(Message::decode(black_box(&query_wire)))));
    let allocs_per_encode = allocs_per_call(|| drop(black_box(black_box(&referral).encode())));

    let mut benches: Vec<Bench> = Vec::new();
    let decode = |name, wire: Vec<u8>| {
        bench(name, move || {
            for _ in 0..CALLS {
                black_box(Message::decode(black_box(&wire)).expect("fixture decodes"));
            }
        })
    };
    let encode = |name, msg: Message| {
        bench(name, move || {
            for _ in 0..CALLS {
                black_box(black_box(&msg).encode());
            }
        })
    };
    benches.push(decode("dnswire.decode_query_ns", query_wire));
    benches.push(decode("dnswire.decode_ext_query_ns", ext_wire));
    benches.push(decode("dnswire.decode_referral_ns", referral_wire));
    benches.push(encode("dnswire.encode_query_ns", query.clone()));
    benches.push(encode("dnswire.encode_referral_ns", referral));
    benches.push(encode("dnswire.encode_grant_ns", grant));

    // Cookie hashes, MD5 (the paper's) and SipHash-2-4 side by side.
    let input = [0x5Au8; 80];
    benches.push(bench("guardhash.md5_80B_ns", move || {
        for _ in 0..CALLS {
            black_box(md5(black_box(&input)));
        }
    }));
    let key = [7u8; 16];
    let sources = ips(&mut rng);
    {
        let sources = sources.clone();
        benches.push(bench("guardhash.siphash_ns", move || {
            for ip in &sources {
                black_box(siphash24(&key, black_box(&ip.octets())));
            }
        }));
    }
    for (alg, generate, verify) in [
        (
            CookieAlg::Md5,
            "guardhash.generate_md5_ns",
            "guardhash.verify_md5_ns",
        ),
        (
            CookieAlg::SipHash24,
            "guardhash.generate_sip_ns",
            "guardhash.verify_sip_ns",
        ),
    ] {
        let factory = CookieFactory::from_seed(seed).with_alg(alg);
        let cookies: Vec<(Ipv4Addr, Cookie)> = sources
            .iter()
            .map(|&ip| (ip, factory.generate(ip)))
            .collect();
        let (f1, f2, s1) = (factory.clone(), factory.clone(), sources.clone());
        benches.push(bench(generate, move || {
            for &ip in &s1 {
                black_box(f1.generate(black_box(ip)));
            }
        }));
        benches.push(bench(verify, move || {
            for (ip, cookie) in &cookies {
                assert!(black_box(f2.verify(black_box(*ip), cookie)));
            }
        }));
        if alg == CookieAlg::Md5 {
            let suffixes: Vec<(Ipv4Addr, String)> = sources
                .iter()
                .map(|&ip| (ip, factory.generate(ip).ns_label_suffix()))
                .collect();
            benches.push(bench("guardhash.verify_ns_suffix_ns", move || {
                for (ip, hex) in &suffixes {
                    assert!(black_box(factory.verify_ns_suffix(black_box(*ip), hex)));
                }
            }));
        }
    }

    // The limiter: a hot set that fits every cache, and a spray of fresh
    // sources that grows the table to its 65 536-entry generational reset.
    {
        let mut rl = SourceRateLimiter::per_source_only(200_000.0);
        let hot: Vec<Ipv4Addr> = sources.iter().take(1024).copied().collect();
        let mut now = 0u64;
        benches.push(bench("dnsguard.rl_admit_hot_ns", move || {
            for i in 0..CALLS {
                now += 1_000;
                black_box(rl.admit(SimTime::from_nanos(now), hot[i % hot.len()]));
            }
        }));
        let mut rl = SourceRateLimiter::per_source_only(200_000.0);
        let mut spray = Rng::new(seed, 0x5B);
        let mut now = 0u64;
        benches.push(bench("dnsguard.rl_admit_spray_ns", move || {
            for _ in 0..CALLS {
                now += 1_000;
                black_box(rl.admit(SimTime::from_nanos(now), Ipv4Addr::from(spray.next_u32())));
            }
        }));
        let classifier = AuthorityClassifier::new(root.clone());
        let name = qname.clone();
        benches.push(bench("dnsguard.classify_ns", move || {
            for _ in 0..CALLS {
                black_box(classifier.classify(black_box(&name)));
            }
        }));
    }

    // The event engine.
    {
        let mut sim = DispatchSim::new();
        let pkt = Packet::udp(
            Endpoint::new(Ipv4Addr::new(66, 0, 0, 9), 1024),
            Endpoint::new(PUB, DNS_PORT),
            query.encode(),
        );
        // The guard consumes the packets it is handed, so does this; the
        // clones are made outside the timed loop.
        benches.push(prepared(
            "netsim.dispatch_ns",
            move || (0..CALLS).map(|_| pkt.clone()).collect::<Vec<Packet>>(),
            move |pkts| {
                for p in pkts {
                    sim.deliver(p, SimTime::from_micros(4));
                }
            },
        ));

        let mut sim = Simulator::new(1);
        let ticker = sim.add_node(SINK, CpuConfig::unbounded(), Ticker { left: 0 });
        sim.run();
        benches.push(bench("netsim.timer_ns", move || {
            sim.node_mut::<Ticker>(ticker).expect("ticker").left = CALLS as u32 - 1;
            sim.schedule_timer(ticker, sim.now(), 0);
            sim.run();
        }));
        let mut tb = TokenBucket::new(1e9, 1e6);
        let mut now = 0u64;
        benches.push(bench("netsim.token_bucket_take_ns", move || {
            for _ in 0..CALLS {
                now += 1_000;
                black_box(tb.try_take(SimTime::from_nanos(now)));
            }
        }));
    }

    // The ANS's answer logic.
    for (name, authority) in [
        ("server.answer_terminal_ns", terminal),
        ("server.answer_referral_ns", root),
    ] {
        let q = query.clone();
        benches.push(bench(name, move || {
            for _ in 0..CALLS {
                black_box(authority.answer(black_box(&q)));
            }
        }));
    }

    // Telemetry primitives.
    let obs = Obs::new();
    {
        let counter = obs
            .registry
            .counter("perf", "hits", &[("scheme", "dns_based")]);
        benches.push(bench("obs.counter_inc_ns", move || {
            for _ in 0..CALLS {
                counter.inc();
            }
        }));
        let src = Value::Ip(Ipv4Addr::new(66, 0, 0, 9));
        let off = obs.tracer.component("perf_off");
        obs.tracer.set_level("perf_off", Level::Off);
        benches.push(bench("obs.trace_event_off_ns", move || {
            for i in 0..CALLS {
                off.event(i as u64, "grant", &[("src", src), ("qid", Value::U64(42))]);
            }
        }));
        let on = obs.tracer.component("perf_on");
        obs.tracer.set_level("perf_on", Level::Info);
        let tracer = obs.tracer.clone();
        benches.push(bench("obs.trace_event_on_ns", move || {
            for i in 0..CALLS {
                on.event(i as u64, "grant", &[("src", src), ("qid", Value::U64(42))]);
            }
            tracer.drain(); // keep the ring from wrapping; part of the cost of tracing
        }));
        let mut sketch = TrafficSketch::new();
        let sources = sources.clone();
        benches.push(bench("obs.sketch_observe_ns", move || {
            for &ip in &sources {
                sketch.observe(black_box(ip));
            }
        }));
    }

    let mut sockets = Sockets::new(seed)?;
    let mut classes = ClassBenches::new(seed);

    for _ in 0..sweeps {
        let mut raw: Vec<f64> = Vec::with_capacity(benches.len());
        let ((), scale) = probe.around(|| {
            raw.extend(benches.iter_mut().map(|b| (b.run)()));
            classes.sweep();
            sockets.sweep();
        })?;
        for (b, ns) in benches.iter_mut().zip(raw) {
            b.ns_per_call.push(ns * scale / CALLS as f64);
        }
        classes.commit(scale);
        sockets.commit(scale);
    }

    let mut metrics: Vec<(String, f64)> = benches
        .iter()
        .map(|b| (b.name.to_string(), stats::p25(&b.ns_per_call)))
        .collect();
    metrics.push(("dnswire.allocs_per_decode".into(), allocs_per_decode));
    metrics.push(("dnswire.allocs_per_encode".into(), allocs_per_encode));
    metrics.extend(classes.metrics());
    let median = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::p50(v) };
    let (echo, direct, guarded, grant) = (
        median(&sockets.echo_us),
        median(&sockets.direct_us),
        median(&sockets.guarded_us),
        median(&sockets.grant_us),
    );
    metrics.push(("runtime.udp_echo_rtt_us".into(), echo));
    metrics.push(("runtime.ans_direct_rtt_us".into(), direct));
    metrics.push(("runtime.guard_added_us".into(), guarded - direct));
    metrics.push(("runtime.grant_exchange_us".into(), grant));

    let socket_calls = (sweeps * (3 * SOCKET_CALLS + GRANT_CALLS)) as u64;
    let mut failures = classes.failures().to_vec();
    let failed = classes.failed() + sockets.failures.len() as u64;
    failures.extend(sockets.failures.iter().take(8).cloned());
    Ok(LayerReport {
        metrics,
        attempted: classes.attempted() + socket_calls,
        failed,
        failures,
    })
}
