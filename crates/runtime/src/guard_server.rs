//! A real-socket remote DNS guard: [`dnsguard::guard::GuardCore`] driven from
//! `std::net` UDP sockets on loopback.
//!
//! This file decides nothing. The guard listens on one UDP port (the
//! "public" ANS address) and reaches the real ANS from a second, ephemeral
//! one; a thread per socket hands every datagram to the one core — the same
//! code the simulator drives — and sends what the core appends to its
//! out-buffer. Because the core keeps a forward table instead of waiting, a
//! slow or silent ANS delays nobody but the client that asked it. This is
//! the userspace equivalent of the paper's iptables module, sufficient for
//! live demonstrations and latency measurements; the packet-level
//! performance study runs in [`netsim`] (see the `bench` crate).

use crate::ans::ToyAns;
use crate::stopflag::StopFlag;
use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::{GuardCore, Leg, Output, Outputs, WINDOW};
use guardcheck::sync::Mutex;
use netsim::packet::{Endpoint, Packet};
use netsim::time::SimTime;
use server::authoritative::Authority;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a socket read blocks before its thread looks at the stop flag
/// (and, on the client leg, at the housekeeping window) again.
const POLL: Duration = Duration::from_millis(50);

/// The live guard's one configuration. Only the modified-DNS (cookie
/// extension) scheme is exposed over real sockets: it is the scheme RFC 7873
/// standardised, and the only one that makes sense when every loopback
/// client shares the address 127.0.0.1 — which is also why Rate-Limiter2,
/// per verified *address*, is left open.
fn config(key_seed: u64) -> GuardConfig {
    GuardConfig {
        key_seed,
        mode: SchemeMode::ModifiedOnly,
        activation_threshold: 0.0,
        rl1_global_rate: 10_000.0,
        rl1_per_source_rate: 1_000.0,
        rl2_per_source_rate: f64::INFINITY,
        ans_timeout: SimTime::from_millis(500),
        ..GuardConfig::new(Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST)
    }
}

/// What the two socket threads share.
struct Shared {
    core: Mutex<GuardCore>,
    /// The guarded address: queries arrive here and every answer leaves
    /// from here.
    public: UdpSocket,
    /// The leg to the ANS. Its own ephemeral port is entropy: a forger of
    /// ANS answers has to find it.
    upstream: UdpSocket,
    ans: SocketAddr,
    started: Instant,
    stop: StopFlag,
}

impl Shared {
    /// Feeds the core from `leg`'s socket until stopped.
    fn serve(&self, leg: Leg) -> io::Result<()> {
        let sock = match leg {
            Leg::Client => &self.public,
            Leg::Upstream => &self.upstream,
        };
        let local = Endpoint::new(Ipv4Addr::LOCALHOST, sock.local_addr()?.port());
        let mut buf = [0u8; 2048];
        let mut out = Outputs::default();
        let mut next_window = WINDOW;
        while !self.stop.should_stop() {
            let pkt = match sock.recv_from(&mut buf) {
                Ok((len, from)) => buf.get(..len).and_then(|payload| self.packet(leg, from, local, payload)),
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => None,
                Err(e) => return Err(e),
            };
            // The client leg's thread also keeps the housekeeping window.
            if pkt.is_none() && leg == Leg::Upstream {
                continue;
            }
            {
                let mut core = self.core.lock();
                // The core's clock is nanoseconds since spawn (trace events are
                // stamped with it), read under the lock so it never runs
                // backwards.
                let now = SimTime::from_nanos(self.started.elapsed().as_nanos() as u64);
                if leg == Leg::Client && now >= next_window {
                    next_window = now + WINDOW;
                    core.on_window(now, &mut out);
                }
                if let Some(pkt) = pkt {
                    core.handle_packet(now, leg, pkt, &mut out);
                }
            }
            self.execute(&mut out);
        }
        Ok(())
    }

    /// A received datagram as the core takes it; `None` for what must not
    /// enter the guard. The leg is this driver's word: on the upstream one
    /// it lets through only what the ANS's own socket sent, address *and*
    /// port — the check against forged answers that only the socket's
    /// owner can make (the core matches id and question).
    fn packet(&self, leg: Leg, from: SocketAddr, local: Endpoint, payload: &[u8]) -> Option<Packet> {
        let SocketAddr::V4(v4) = from else {
            return None;
        };
        if leg == Leg::Upstream && from != self.ans {
            return None;
        }
        Some(Packet::udp(Endpoint::new(*v4.ip(), v4.port()), local, payload.to_vec()))
    }

    /// Sends what the core asked for, outside its lock. The charged cost is
    /// the simulator's business; here the CPU time was really spent.
    fn execute(&self, out: &mut Outputs) {
        for output in out.drain() {
            // A failed send is a lost datagram, which DNS tolerates.
            let _ = match output {
                Output::Packet(pkt) => {
                    let to = SocketAddrV4::new(pkt.dst.ip, pkt.dst.port);
                    self.public.send_to(&pkt.payload, to)
                }
                Output::ToAns(wire) => self.upstream.send_to(&wire, self.ans),
                // Only a standby of an HA pair claims addresses, and only a
                // configured cadence checkpoints; this server sets neither.
                Output::ClaimAddress(_) | Output::ClaimSubnet(..) | Output::Checkpoint(_) => continue,
            };
        }
    }
}

/// A live remote guard: two background threads around one [`GuardCore`].
pub struct GuardServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<io::Result<()>>>,
}

impl GuardServer {
    /// Spawns a guard forwarding verified queries to `ans`.
    pub fn spawn(ans: SocketAddr, key_seed: u64) -> io::Result<GuardServer> {
        Self::spawn_inner(ans, key_seed, None)
    }

    /// Like [`GuardServer::spawn`], with the guard adopted into `obs` exactly
    /// as a simulated one is ([`GuardCore::attach_obs`]): the same metrics
    /// and decision events, under component `guard`. Event timestamps are
    /// nanoseconds since spawn.
    pub fn spawn_with_obs(ans: SocketAddr, key_seed: u64, obs: &obs::Obs) -> io::Result<GuardServer> {
        Self::spawn_inner(ans, key_seed, Some(obs))
    }

    fn spawn_inner(ans: SocketAddr, key_seed: u64, obs: Option<&obs::Obs>) -> io::Result<GuardServer> {
        let (public, upstream) = (UdpSocket::bind("127.0.0.1:0")?, UdpSocket::bind("127.0.0.1:0")?);
        for sock in [&public, &upstream] {
            sock.set_read_timeout(Some(POLL))?;
        }
        let addr = public.local_addr()?;
        // The loopback guard fabricates no referrals, so its classifier
        // needs no zones.
        let classifier = AuthorityClassifier::new(Authority::new(Vec::new()));
        let mut core = GuardCore::new(config(key_seed), classifier);
        if let Some(obs) = obs {
            core.attach_obs(obs);
        }
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            public,
            upstream,
            ans,
            started: Instant::now(),
            stop: StopFlag::new(),
        });
        let handles = [Leg::Client, Leg::Upstream]
            .into_iter()
            .map(|leg| {
                let shared = shared.clone();
                std::thread::spawn(move || shared.serve(leg))
            })
            .collect();
        Ok(GuardServer {
            addr,
            shared,
            handles,
        })
    }

    /// The guard's public address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot: `(forwarded, grants, dropped_spoofed, dropped_rl1)`,
    /// read off the core's [`dnsguard::guard::GuardStats`].
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        let stats = self.shared.core.lock().stats();
        (
            stats.forwarded,
            stats.grants_sent,
            stats.spoofed_dropped(),
            stats.rl1_dropped,
        )
    }

    /// Stops the guard's threads, as dropping the server does.
    pub fn shutdown(self) {}
}

impl Drop for GuardServer {
    fn drop(&mut self) {
        self.shared.stop.stop();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Convenience: spawns a guarded toy deployment (ANS behind guard); returns
/// both handles.
pub fn spawn_guarded(
    authority: server::authoritative::Authority,
    key_seed: u64,
) -> io::Result<(ToyAns, GuardServer)> {
    let ans = ToyAns::spawn(authority)?;
    let guard = GuardServer::spawn(ans.addr(), key_seed)?;
    Ok((ans, guard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CookieClient;
    use dnswire::cookie_ext;
    use dnswire::message::Message;
    use dnswire::rdata::RData;
    use dnswire::record::Record;
    use dnswire::types::RrType;
    use obs::trace::Value;
    use server::zone::{paper_hierarchy, WWW_ADDR};

    #[test]
    fn live_cookie_exchange_and_query() {
        let (_, _, foo) = paper_hierarchy();
        let (ans, guard) = spawn_guarded(Authority::new(vec![foo]), 42).unwrap();

        let mut client = CookieClient::connect(guard.addr()).unwrap();
        let resp = client.query("www.foo.com".parse().unwrap(), RrType::A).unwrap();
        assert_eq!(resp.answers[0].rdata, RData::A(WWW_ADDR));

        // Second query reuses the cached cookie: exactly one grant total.
        let resp2 = client.query("www.foo.com".parse().unwrap(), RrType::A).unwrap();
        assert_eq!(resp2.answers[0].rdata, RData::A(WWW_ADDR));
        let (forwarded, grants, spoofed, _) = guard.counters();
        assert_eq!(grants, 1);
        assert_eq!(forwarded, 2);
        assert_eq!(spoofed, 0);
        assert_eq!(ans.served(), 2);

        guard.shutdown();
        ans.shutdown();
    }

    /// A `guard` counter or gauge of `obs`'s registry, summed over labels.
    fn metric(obs: &obs::Obs, name: &str) -> u64 {
        let snap = obs.registry.snapshot();
        let cells = snap.iter().filter(|m| m.component == "guard" && m.name == name);
        cells
            .map(|m| match m.value {
                obs::metrics::SampleValue::Counter(v) | obs::metrics::SampleValue::Gauge(v) => v,
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn obs_attached_guard_exports_counters_and_trace() {
        let obs = obs::Obs::new();
        obs.tracer.set_default_level(obs::trace::Level::Info);
        let (_, _, foo) = paper_hierarchy();
        let ans = ToyAns::spawn(Authority::new(vec![foo])).unwrap();
        let guard = GuardServer::spawn_with_obs(ans.addr(), 44, &obs).unwrap();

        let mut client = CookieClient::connect(guard.addr()).unwrap();
        let resp = client.query("www.foo.com".parse().unwrap(), RrType::A).unwrap();
        assert_eq!(resp.answers[0].rdata, RData::A(WWW_ADDR));

        // The simulated guard's vocabulary, not a private one.
        assert_eq!(metric(&obs, "grants_sent"), 1);
        assert_eq!(metric(&obs, "forwarded"), 1);
        assert_eq!(metric(&obs, "verify"), 1);
        assert_eq!(metric(&obs, "relayed_responses"), 1);
        assert_eq!(metric(&obs, "udp_datagrams"), 3);
        let (events, _) = obs.tracer.drain();
        assert!(events.iter().all(|e| e.component == "guard"));
        assert!(events.iter().any(|e| e.kind == "grant"));
        assert!(events
            .iter()
            .any(|e| e.kind == "verify" && e.field("verdict") == Some(Value::Str("valid"))));
        assert!(events.iter().any(|e| e.kind == "relay"));

        guard.shutdown();
        ans.shutdown();
    }

    /// A stand-in ANS (a bare socket the test answers from, or does not) and
    /// a guard in front of it.
    fn guard_before_bare_socket(key_seed: u64, obs: Option<&obs::Obs>) -> (UdpSocket, GuardServer) {
        let ans = UdpSocket::bind("127.0.0.1:0").unwrap();
        ans.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let guard = GuardServer::spawn_inner(ans.local_addr().unwrap(), key_seed, obs).unwrap();
        (ans, guard)
    }

    fn client_socket(wait_ms: u64) -> UdpSocket {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(wait_ms))).unwrap();
        sock
    }

    /// Asks the guard for a cookie from `sock` and returns it with the time
    /// the grant took. Every loopback client shares 127.0.0.1, so one cookie
    /// serves them all.
    fn obtain_cookie(sock: &UdpSocket, guard: &GuardServer) -> ([u8; 16], Duration) {
        let mut probe = Message::query(1, "one.foo.com".parse().unwrap(), RrType::A);
        cookie_ext::attach_cookie(&mut probe, cookie_ext::ZERO_COOKIE, 0);
        let asked = Instant::now();
        sock.send_to(&probe.encode(), guard.addr()).unwrap();
        let mut buf = [0u8; 512];
        let (n, _) = sock.recv_from(&mut buf).expect("a grant");
        let took = asked.elapsed();
        let grant = Message::decode(&buf[..n]).unwrap();
        (cookie_ext::find_cookie(&grant).unwrap().cookie, took)
    }

    fn send_verified(sock: &UdpSocket, guard: &GuardServer, cookie: [u8; 16], id: u16, name: &str) {
        let mut q = Message::query(id, name.parse().unwrap(), RrType::A);
        cookie_ext::attach_cookie(&mut q, cookie, 0);
        sock.send_to(&q.encode(), guard.addr()).unwrap();
    }

    /// The forward table, not a blocked thread, waits for the ANS: while one
    /// client's verified query sits unanswered, another is served at once.
    #[test]
    fn silent_ans_does_not_delay_a_second_client() {
        let (ans, guard) = guard_before_bare_socket(46, None);
        let (first, second) = (client_socket(2_000), client_socket(2_000));
        let (cookie, _) = obtain_cookie(&first, &guard);
        send_verified(&first, &guard, cookie, 0x1111, "one.foo.com");
        // The forward has reached the ANS, which never answers it.
        let mut buf = [0u8; 512];
        ans.recv_from(&mut buf).expect("the verified query is forwarded");

        let (_, took) = obtain_cookie(&second, &guard);
        assert!(took < Duration::from_millis(250), "the grant took {took:?}");
        guard.shutdown();
    }

    /// The upstream leg relays only the ANS's answer to a forward that is
    /// still waiting for it. Two forwards are in flight at once; on the
    /// second's id arrive, in this order, a forged answer from a socket that
    /// is not the ANS, an answer from the ANS to a question the guard did not
    /// ask, and the real answer. The first forward is answered only after it
    /// has expired.
    #[test]
    fn late_and_foreign_upstream_datagrams_never_reach_the_next_client() {
        let obs = obs::Obs::new();
        let (ans, guard) = guard_before_bare_socket(45, Some(&obs));
        let (first, second) = (client_socket(2_000), client_socket(2_000));
        let (cookie, _) = obtain_cookie(&first, &guard);
        send_verified(&first, &guard, cookie, 0x1111, "one.foo.com");
        send_verified(&second, &guard, cookie, 0x2222, "two.foo.com");

        // Both forwards arrive before either is answered.
        let forward = || {
            let mut buf = [0u8; 512];
            let (n, upstream) = ans.recv_from(&mut buf).expect("a forward");
            (Message::decode(&buf[..n]).unwrap(), upstream)
        };
        let ((fwd1, upstream), (fwd2, _)) = (forward(), forward());
        let (fwd1, fwd2) = match fwd1.questions[0].name == "one.foo.com".parse().unwrap() {
            true => (fwd1, fwd2),
            false => (fwd2, fwd1),
        };
        let answer = |to: &Message, name: &str, addr: Ipv4Addr| {
            let mut resp = Message::query(to.header.id, name.parse().unwrap(), RrType::A).response();
            resp.answers.push(Record::a(name.parse().unwrap(), addr, 60));
            resp.encode()
        };
        let (late, forged, real) = (
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(6, 6, 6, 6),
            Ipv4Addr::new(2, 2, 2, 2),
        );
        let intruder = UdpSocket::bind("127.0.0.1:0").unwrap();
        intruder.send_to(&answer(&fwd2, "two.foo.com", forged), upstream).unwrap();
        ans.send_to(&answer(&fwd2, "six.foo.com", forged), upstream).unwrap();
        ans.send_to(&answer(&fwd2, "two.foo.com", real), upstream).unwrap();

        let mut buf = [0u8; 512];
        let (n, _) = second.recv_from(&mut buf).expect("the second query is answered");
        let resp = Message::decode(&buf[..n]).unwrap();
        assert_eq!(resp.header.id, 0x2222);
        assert_eq!(resp.questions[0].name, "two.foo.com".parse().unwrap());
        assert_eq!(resp.answers[0].rdata, RData::A(real));
        second.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        assert!(second.recv_from(&mut buf).is_err(), "and only once");

        // The first forward is seen waiting in the table, then expires; what
        // the ANS says after that is late.
        let wait_until = |what: &str, reached: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !reached() {
                assert!(Instant::now() < deadline, "never saw {what}");
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        wait_until("the first forward waiting", &|| metric(&obs, "table_bytes") > 0);
        wait_until("the first forward expire", &|| metric(&obs, "table_bytes") == 0);
        ans.send_to(&answer(&fwd1, "one.foo.com", late), upstream).unwrap();
        wait_until("the late answer dropped", &|| metric(&obs, "resp_unmatched") == 2);
        first.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        assert!(first.recv_from(&mut buf).is_err(), "the late answer went nowhere");
        assert_eq!(metric(&obs, "relayed_responses"), 1);

        guard.shutdown();
    }

    #[test]
    fn forged_cookie_dropped_live() {
        let (_, _, foo) = paper_hierarchy();
        let (ans, guard) = spawn_guarded(Authority::new(vec![foo]), 43).unwrap();

        let sock = client_socket(300);
        let mut q = Message::query(7, "www.foo.com".parse().unwrap(), RrType::A);
        cookie_ext::attach_cookie(&mut q, [0x66; 16], 0);
        sock.send_to(&q.encode(), guard.addr()).unwrap();

        let mut buf = [0u8; 512];
        assert!(sock.recv_from(&mut buf).is_err(), "no response to a forged cookie");
        let (_, _, spoofed, _) = guard.counters();
        assert_eq!(spoofed, 1);
        assert_eq!(ans.served(), 0);

        guard.shutdown();
        ans.shutdown();
    }
}
