//! A real-socket remote DNS guard: [`dnsguard::guard::GuardCore`] driven from
//! one `std::net` UDP socket on loopback.
//!
//! This file decides nothing. The guard holds one UDP port, the "public"
//! ANS address, and reaches the real ANS from it too, as the paper's
//! firewall module sees both directions of traffic on the ANS's one
//! address. One thread owns the socket and the core — the same code the
//! simulator drives — hands the core every datagram and sends what it
//! appends to its out-buffer. Because the core keeps a forward table
//! instead of waiting, a slow or silent ANS delays nobody but the client
//! that asked it. This is the userspace equivalent of the paper's iptables
//! module, sufficient for live demonstrations and latency measurements; the
//! packet-level performance study runs in [`netsim`] (see the `bench`
//! crate).

use crate::ans::ToyAns;
use crate::stopflag::StopFlag;
use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::{GuardCore, Leg, Output, Outputs, StatsHandle, WINDOW};
use netsim::packet::{Endpoint, Packet};
use netsim::time::SimTime;
use server::authoritative::Authority;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a socket read blocks before the thread looks at the stop flag
/// and the housekeeping window again.
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
        rl1_per_source_rate: 1_000.0,
        rl2_per_source_rate: f64::INFINITY,
        ans_timeout: SimTime::from_millis(500),
        ..GuardConfig::new(Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST)
    }
}

/// What the serving thread owns: the socket, the core and the core's clock.
struct Serve {
    core: GuardCore,
    /// The guarded address: queries arrive here, forwards and answers leave
    /// from here, and the ANS answers here.
    sock: UdpSocket,
    ans: SocketAddr,
    /// `sock`'s address, as the core sees it.
    local: Endpoint,
    started: Instant,
    stop: StopFlag,
}

impl Serve {
    /// Feeds the core from the socket until stopped.
    fn run(mut self) -> io::Result<()> {
        let mut buf = [0u8; 2048];
        let mut out = Outputs::default();
        let mut next_window = WINDOW;
        while !self.stop.should_stop() {
            let received = match self.sock.recv_from(&mut buf) {
                Ok((len, from)) => buf.get(..len).map(|payload| (from, payload)),
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => None,
                Err(e) => return Err(e),
            };
            // The core's clock is nanoseconds since spawn (trace events are
            // stamped with it); one thread reads it, so it never runs
            // backwards.
            let now = SimTime::from_nanos(self.started.elapsed().as_nanos() as u64);
            if now >= next_window {
                next_window = now + WINDOW;
                self.core.on_window(now, &mut out);
            }
            if let Some((SocketAddr::V4(from), payload)) = received {
                let src = Endpoint::new(*from.ip(), from.port());
                let pkt = Packet::udp(src, self.local, payload.to_vec());
                self.core.handle_packet(now, self.leg(from), pkt, &mut out);
            }
            self.execute(&mut out);
        }
        Ok(())
    }

    /// The leg a datagram from `from` arrived on, which is this driver's
    /// word: the upstream leg is what the ANS's own socket sent, address
    /// *and* port, and everything else is the client leg. The core then
    /// relays an upstream answer only under the keyed id and the question
    /// of a live forward.
    fn leg(&self, from: SocketAddrV4) -> Leg {
        if SocketAddr::V4(from) == self.ans {
            Leg::Upstream
        } else {
            Leg::Client
        }
    }

    /// Sends what the core asked for. The charged cost is the simulator's
    /// business; here the CPU time was really spent.
    fn execute(&self, out: &mut Outputs) {
        for output in out.drain() {
            // A failed send is a lost datagram, which DNS tolerates.
            let _ = match output {
                Output::Packet(pkt) => {
                    let to = SocketAddrV4::new(pkt.dst.ip, pkt.dst.port);
                    self.sock.send_to(&pkt.payload, to)
                }
                Output::ToAns(wire) => self.sock.send_to(&wire, self.ans),
                // Only a standby of an HA pair claims addresses, and only a
                // configured cadence checkpoints; this server sets neither.
                Output::ClaimAddress(_) | Output::ClaimSubnet(..) | Output::Checkpoint(_) => continue,
            };
        }
    }
}

/// A live remote guard: one background thread that owns a [`GuardCore`],
/// and a read-only handle on the core's counters.
pub struct GuardServer {
    addr: SocketAddr,
    stats: StatsHandle,
    stop: StopFlag,
    handle: Option<JoinHandle<io::Result<()>>>,
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
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_read_timeout(Some(POLL))?;
        let addr = sock.local_addr()?;
        // The loopback guard fabricates no referrals, so its classifier
        // needs no zones.
        let classifier = AuthorityClassifier::new(Authority::new(Vec::new()));
        let mut core = GuardCore::new(config(key_seed), classifier);
        if let Some(obs) = obs {
            core.attach_obs(obs);
        }
        let stats = core.stats_handle();
        let stop = StopFlag::new();
        let serve = Serve {
            core,
            sock,
            ans,
            local: Endpoint::new(Ipv4Addr::LOCALHOST, addr.port()),
            started: Instant::now(),
            stop: stop.clone(),
        };
        let handle = std::thread::spawn(move || serve.run());
        Ok(GuardServer {
            addr,
            stats,
            stop,
            handle: Some(handle),
        })
    }

    /// The guard's public address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot: `(forwarded, grants, dropped_spoofed, dropped_rl1)`,
    /// read off the core's [`dnsguard::guard::GuardStats`]. A reply the
    /// guard sent is already counted here when it arrives.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        let stats = self.stats.snapshot();
        (
            stats.forwarded,
            stats.grants_sent,
            stats.spoofed_dropped(),
            stats.rl1_dropped,
        )
    }

    /// Stops the guard's thread, as dropping the server does.
    pub fn shutdown(self) {}
}

impl Drop for GuardServer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(handle) = self.handle.take() {
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

    /// The conservation invariant, on the socket driver: every datagram
    /// that entered the core landed in exactly one disposition. Read once
    /// the test's last datagram has been handled.
    fn assert_conserved(guard: &GuardServer) {
        let stats = guard.stats.snapshot();
        assert_eq!(stats.udp_datagrams, stats.disposition_total(), "{stats:?}");
    }

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
        assert_conserved(&guard);

        guard.shutdown();
        ans.shutdown();
    }

    /// The counters are the core's own cells, not a copy the thread
    /// publishes: read the moment each reply arrives, while the serving
    /// thread waits on its socket, they count every datagram of the
    /// exchange that produced it.
    #[test]
    fn counters_are_exact_the_moment_a_reply_arrives() {
        let (_, _, foo) = paper_hierarchy();
        let (ans, guard) = spawn_guarded(Authority::new(vec![foo]), 47).unwrap();
        let mut client = CookieClient::connect(guard.addr()).unwrap();
        for n in 1..=3 {
            client.query("www.foo.com".parse().unwrap(), RrType::A).unwrap();
            assert_eq!(guard.counters(), (n, 1, 0, 0), "after query {n}");
            // The grant request, then a query and its answer per round.
            let stats = guard.stats.snapshot();
            assert_eq!((stats.relayed_responses, stats.udp_datagrams), (n, 2 * n + 1));
            assert_conserved(&guard);
        }
        guard.shutdown();
        ans.shutdown();
    }

    /// With nothing to serve the one thread sits in `recv_from`; shutdown
    /// is seen when the read times out, and the thread is joined.
    #[test]
    fn shutdown_joins_the_one_thread_within_a_poll() {
        let (_ans, guard) = guard_before_bare_socket(48, None);
        let asked = Instant::now();
        guard.shutdown();
        let took = asked.elapsed();
        assert!(took < POLL + Duration::from_millis(100), "shutdown took {took:?}");
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
        assert_conserved(&guard);
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
        assert_conserved(&guard);
        guard.shutdown();
    }

    /// The upstream leg is what the ANS's socket sends, and the core relays
    /// from it only the answer to a forward that is still waiting. Two
    /// forwards are in flight at once, both sent from the guard's one
    /// address; on the second's id arrive there, in this order, a forged
    /// answer from a socket that is not the ANS, an answer from the ANS to a
    /// question the guard did not ask, and the real answer. The first
    /// forward is answered only after it has expired.
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
            let (n, from) = ans.recv_from(&mut buf).expect("a forward");
            assert_eq!(from, guard.addr(), "forwards leave from the guarded address");
            Message::decode(&buf[..n]).unwrap()
        };
        let (fwd1, fwd2) = (forward(), forward());
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
        intruder.send_to(&answer(&fwd2, "two.foo.com", forged), guard.addr()).unwrap();
        ans.send_to(&answer(&fwd2, "six.foo.com", forged), guard.addr()).unwrap();
        ans.send_to(&answer(&fwd2, "two.foo.com", real), guard.addr()).unwrap();

        let mut buf = [0u8; 512];
        let (n, _) = second.recv_from(&mut buf).expect("the second query is answered");
        let resp = Message::decode(&buf[..n]).unwrap();
        assert_eq!(resp.header.id, 0x2222);
        assert_eq!(resp.questions[0].name, "two.foo.com".parse().unwrap());
        assert_eq!(resp.answers[0].rdata, RData::A(real));
        second.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        assert!(second.recv_from(&mut buf).is_err(), "and only once");
        // The intruder's answer came in on the client leg.
        assert_eq!((metric(&obs, "resp_foreign"), metric(&obs, "resp_unmatched")), (1, 1));

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
        ans.send_to(&answer(&fwd1, "one.foo.com", late), guard.addr()).unwrap();
        wait_until("the late answer dropped", &|| metric(&obs, "resp_unmatched") == 2);
        first.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        assert!(first.recv_from(&mut buf).is_err(), "the late answer went nowhere");
        assert_eq!(metric(&obs, "relayed_responses"), 1);
        assert_conserved(&guard);

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
        assert_conserved(&guard);

        guard.shutdown();
        ans.shutdown();
    }
}
