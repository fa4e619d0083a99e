//! A real-socket remote DNS guard: the modified-DNS and NS-name schemes over
//! `std::net` UDP on loopback.
//!
//! The guard listens on one UDP port (the "public" ANS address), verifies or
//! grants cookies per source address, and forwards verified requests to the
//! real ANS. This is the userspace equivalent of the paper's iptables
//! module, sufficient for live demonstrations and latency measurements; the
//! packet-level performance study runs in [`netsim`] (see the `bench`
//! crate).

use crate::ans::ToyAns;
use dnsguard::ratelimit::SourceRateLimiter;
use dnswire::cookie_ext;
use dnswire::message::{Message, MAX_UDP_PAYLOAD};
use dnswire::view::MessageView;
use dnswire::writer::Writer;
use guardhash::cookie::CookieFactory;
use guardhash::Cookie;
use netsim::time::SimTime;
use obs::metrics::Counter;
use obs::trace::{ComponentTracer, Value};
use parking_lot::Mutex;
use std::io;
use std::net::{IpAddr, SocketAddr, UdpSocket};
use crate::stopflag::StopFlag;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the guard waits for the ANS to answer a forwarded query.
const UPSTREAM_TIMEOUT: Duration = Duration::from_millis(500);

/// Read time-out of the upstream socket: how far past [`UPSTREAM_TIMEOUT`] a
/// wait can run when datagrams that are not the answer keep arriving.
const UPSTREAM_POLL: Duration = Duration::from_millis(50);

/// How long a granted cookie may be cached: one week, the key rotation
/// period.
const COOKIE_TTL: u32 = 604_800;

/// Counters shared with the guard thread (detached registry handles;
/// adopted into a registry by [`GuardServer::spawn_with_obs`]).
#[derive(Debug, Default)]
pub struct GuardCounters {
    /// Requests forwarded to the ANS.
    pub forwarded: Counter,
    /// Cookie grants issued.
    pub grants: Counter,
    /// Requests dropped as spoofed (bad cookie).
    pub dropped_spoofed: Counter,
    /// Requests dropped by the cookie-response rate limiter.
    pub dropped_rl1: Counter,
}

/// A live remote guard on a background thread.
///
/// Only the modified-DNS (cookie extension) scheme is exposed over real
/// sockets: it is the scheme RFC 7873 standardised, and the only one that
/// makes sense when every loopback client shares the address 127.0.0.1.
pub struct GuardServer {
    addr: SocketAddr,
    stop: StopFlag,
    counters: Arc<GuardCounters>,
    handle: Option<JoinHandle<()>>,
}

impl GuardServer {
    /// Spawns a guard forwarding verified queries to `ans`.
    pub fn spawn(ans: SocketAddr, key_seed: u64) -> io::Result<GuardServer> {
        Self::spawn_inner(ans, key_seed, ComponentTracer::disabled())
    }

    /// Like [`GuardServer::spawn`], with the guard's counters adopted into
    /// `obs.registry` (component `guard_server`) and decisions traced under
    /// the same component. Event timestamps are nanoseconds since spawn —
    /// the live guard's equivalent of sim-time.
    pub fn spawn_with_obs(ans: SocketAddr, key_seed: u64, obs: &obs::Obs) -> io::Result<GuardServer> {
        let server = Self::spawn_inner(ans, key_seed, obs.tracer.component("guard_server"))?;
        let c = &server.counters;
        let r = &obs.registry;
        r.adopt_counter("guard_server", "forwarded", &[], &c.forwarded);
        r.adopt_counter("guard_server", "grants", &[], &c.grants);
        r.adopt_counter("guard_server", "dropped_spoofed", &[], &c.dropped_spoofed);
        r.adopt_counter("guard_server", "dropped_rl1", &[], &c.dropped_rl1);
        Ok(server)
    }

    fn spawn_inner(
        ans: SocketAddr,
        key_seed: u64,
        trace: ComponentTracer,
    ) -> io::Result<GuardServer> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_read_timeout(Some(Duration::from_millis(50)))?;
        let addr = sock.local_addr()?;
        let upstream = UdpSocket::bind("127.0.0.1:0")?;
        upstream.set_read_timeout(Some(UPSTREAM_POLL))?;

        let stop = StopFlag::new();
        let counters = Arc::new(GuardCounters::default());
        let factory = Arc::new(Mutex::new(CookieFactory::from_seed(key_seed)));
        let rl1 = Arc::new(Mutex::new(SourceRateLimiter::new(10_000.0, 1_000.0)));

        let t_stop = stop.clone();
        let t_counters = counters.clone();
        let started = Instant::now();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            // Journey correlation: one qid per accepted datagram, stamped on
            // every decision event so offline assembly can stitch the
            // grant → verify → forward → relay chain.
            let mut next_qid: u64 = 1;
            while !t_stop.should_stop() {
                let (len, peer) = match sock.recv_from(&mut buf) {
                    Ok(x) => x,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => break,
                };
                let Some(received) = buf.get(..len) else {
                    continue;
                };
                let Ok(view) = MessageView::parse(received) else {
                    continue;
                };
                if view.header.response {
                    continue;
                }
                let IpAddr::V4(peer_ip) = peer.ip() else {
                    continue;
                };
                let now = SimTime::from_nanos(started.elapsed().as_nanos() as u64);
                let qid = next_qid;
                next_qid += 1;

                // A cookie-less request and one asking for a cookie get the
                // same answer: the question back with a cookie (rate limited).
                let Some(ext) = view.cookie().filter(|ext| !ext.is_request()) else {
                    if !rl1.lock().admit(now, peer_ip) {
                        t_counters.dropped_rl1.inc();
                        trace.event(
                            now.as_nanos(),
                            "rl_drop",
                            &[
                                ("limiter", Value::Str("rl1")),
                                ("src", Value::Ip(peer_ip)),
                                ("qid", Value::U64(qid)),
                            ],
                        );
                        continue;
                    }
                    let cookie = factory.lock().generate(peer_ip);
                    let mut grant = Writer::over(received.to_vec(), view.reply_start());
                    cookie_ext::write_cookie(&mut grant, cookie.0, COOKIE_TTL);
                    let _ = sock.send_to(&grant.finish(), peer);
                    t_counters.grants.inc();
                    trace.event(
                        now.as_nanos(),
                        "grant",
                        &[("src", Value::Ip(peer_ip)), ("qid", Value::U64(qid))],
                    );
                    continue;
                };

                if !factory.lock().verify(peer_ip, &Cookie(ext.cookie)) {
                    t_counters.dropped_spoofed.inc();
                    trace.event(
                        now.as_nanos(),
                        "verify",
                        &[
                            ("scheme", Value::Str("ext")),
                            ("verdict", Value::Str("invalid")),
                            ("src", Value::Ip(peer_ip)),
                            ("qid", Value::U64(qid)),
                        ],
                    );
                    continue;
                }
                trace.event(
                    now.as_nanos(),
                    "verify",
                    &[
                        ("scheme", Value::Str("ext")),
                        ("verdict", Value::Str("valid")),
                        ("src", Value::Ip(peer_ip)),
                        ("qid", Value::U64(qid)),
                    ],
                );
                // Verified: strip the extension, proxy to the ANS. The owned
                // query stays for the check on what comes back.
                let mut msg = view.to_message();
                let orig_txid = msg.header.id;
                cookie_ext::strip_cookie(&mut msg);
                let forward = view.without_cookie(orig_txid).unwrap_or_else(|| msg.encode());
                if upstream.send_to(&forward, ans).is_err() {
                    continue;
                }
                t_counters.forwarded.inc();
                trace.event(
                    now.as_nanos(),
                    "forward",
                    &[
                        ("src", Value::Ip(peer_ip)),
                        ("qid", Value::U64(qid)),
                        ("txid", Value::U64(msg.header.id as u64)),
                        ("orig_txid", Value::U64(orig_txid as u64)),
                    ],
                );
                // Only the ANS's answer to *this* query is relayed. Anything
                // else on the upstream socket — an answer that outlived an
                // earlier query's time-out, a datagram from someone who
                // found the port — is skipped, and the wait goes on until
                // the deadline.
                let deadline = Instant::now() + UPSTREAM_TIMEOUT;
                let mut rbuf = [0u8; 2048];
                let answer = loop {
                    match upstream.recv_from(&mut rbuf) {
                        Ok((rlen, from)) if from == ans => {
                            let resp = Message::decode(&rbuf[..rlen]).ok().filter(|resp| {
                                resp.header.response
                                    && resp.header.id == msg.header.id
                                    && resp.questions == msg.questions
                            });
                            if resp.is_some() {
                                break resp;
                            }
                        }
                        Ok(_) => {}
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut => {}
                        Err(_) => break None,
                    }
                    if Instant::now() >= deadline {
                        break None;
                    }
                };
                if let Some(Ok((wire, _))) =
                    answer.map(|resp| resp.encode_with_limit(MAX_UDP_PAYLOAD))
                {
                    let _ = sock.send_to(&wire, peer);
                    let done = SimTime::from_nanos(started.elapsed().as_nanos() as u64);
                    trace.event(
                        done.as_nanos(),
                        "relay",
                        &[
                            ("src", Value::Ip(peer_ip)),
                            ("qid", Value::U64(qid)),
                            ("via", Value::Str("passthrough")),
                            ("rtt_ns", Value::U64(done.saturating_sub(now).as_nanos())),
                        ],
                    );
                }
            }
        });

        Ok(GuardServer {
            addr,
            stop,
            counters,
            handle: Some(handle),
        })
    }

    /// The guard's public address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot: `(forwarded, grants, dropped_spoofed, dropped_rl1)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.counters.forwarded.get(),
            self.counters.grants.get(),
            self.counters.dropped_spoofed.get(),
            self.counters.dropped_rl1.get(),
        )
    }

    /// Stops the guard thread.
    pub fn shutdown(mut self) {
        self.stop.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GuardServer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
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
    use dnswire::rdata::RData;
    use dnswire::types::RrType;
    use server::authoritative::Authority;
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

        let snap = obs.registry.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|m| m.component == "guard_server" && m.name == name)
                .map(|m| match m.value {
                    obs::metrics::SampleValue::Counter(v) => v,
                    _ => 0,
                })
        };
        assert_eq!(get("grants"), Some(1));
        assert_eq!(get("forwarded"), Some(1));
        let (events, _) = obs.tracer.drain();
        assert!(events.iter().any(|e| e.kind == "grant"));
        assert!(events
            .iter()
            .any(|e| e.kind == "verify" && e.field("verdict") == Some(Value::Str("valid"))));

        guard.shutdown();
        ans.shutdown();
    }

    /// The upstream leg relays only the ANS's answer to the query in flight.
    /// The stand-in ANS leaves the first query unanswered until the guard has
    /// given up on it; when the second arrives it sends, in this order, a
    /// forged answer to the second query from a socket that is not the ANS,
    /// the late answer to the first, and the real answer to the second.
    #[test]
    fn late_and_foreign_upstream_datagrams_never_reach_the_next_client() {
        use dnswire::record::Record;
        use std::net::Ipv4Addr;

        let answer = |query: &[u8], addr: Ipv4Addr| {
            let query = Message::decode(query).unwrap();
            let mut resp = query.response();
            resp.answers.push(Record::a(query.questions[0].name.clone(), addr, 60));
            resp.encode()
        };
        let (late, forged, real) = (
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(6, 6, 6, 6),
            Ipv4Addr::new(2, 2, 2, 2),
        );
        let ans_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        ans_sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ans_addr = ans_sock.local_addr().unwrap();
        let ans = std::thread::spawn(move || {
            let (mut first, mut second) = ([0u8; 512], [0u8; 512]);
            let (n1, _) = ans_sock.recv_from(&mut first).unwrap();
            let (n2, upstream) = ans_sock.recv_from(&mut second).unwrap();
            let intruder = UdpSocket::bind("127.0.0.1:0").unwrap();
            intruder.send_to(&answer(&second[..n2], forged), upstream).unwrap();
            ans_sock.send_to(&answer(&first[..n1], late), upstream).unwrap();
            ans_sock.send_to(&answer(&second[..n2], real), upstream).unwrap();
        });
        let guard = GuardServer::spawn(ans_addr, 45).unwrap();

        let client = |wait_ms| {
            let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
            sock.set_read_timeout(Some(Duration::from_millis(wait_ms))).unwrap();
            sock
        };
        let mut buf = [0u8; 512];
        // Every loopback client shares 127.0.0.1, hence the cookie.
        let (first, second) = (client(100), client(3000));
        let mut probe = Message::query(1, "one.foo.com".parse().unwrap(), RrType::A);
        cookie_ext::attach_cookie(&mut probe, cookie_ext::ZERO_COOKIE, 0);
        first.send_to(&probe.encode(), guard.addr()).unwrap();
        let (n, _) = first.recv_from(&mut buf).unwrap();
        let cookie = cookie_ext::find_cookie(&Message::decode(&buf[..n]).unwrap()).unwrap().cookie;

        let send = |sock: &UdpSocket, id, name: &str| {
            let mut q = Message::query(id, name.parse().unwrap(), RrType::A);
            cookie_ext::attach_cookie(&mut q, cookie, 0);
            sock.send_to(&q.encode(), guard.addr()).unwrap();
        };
        send(&first, 0x1111, "one.foo.com");
        send(&second, 0x2222, "two.foo.com");

        let (n, _) = second.recv_from(&mut buf).expect("the second query is answered");
        let resp = Message::decode(&buf[..n]).unwrap();
        assert_eq!(resp.header.id, 0x2222);
        assert_eq!(resp.questions[0].name, "two.foo.com".parse().unwrap());
        assert_eq!(resp.answers[0].rdata, RData::A(real));
        second.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        assert!(second.recv_from(&mut buf).is_err(), "and only once");
        assert!(first.recv_from(&mut buf).is_err(), "the late answer went nowhere");

        ans.join().unwrap();
        guard.shutdown();
    }

    #[test]
    fn forged_cookie_dropped_live() {
        let (_, _, foo) = paper_hierarchy();
        let (ans, guard) = spawn_guarded(Authority::new(vec![foo]), 43).unwrap();

        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
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
