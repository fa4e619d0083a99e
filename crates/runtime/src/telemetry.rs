//! A live telemetry endpoint: newline-JSON over TCP on loopback.
//!
//! The netsim experiments export telemetry *after* a run; a real deployment
//! needs it *during* one. [`TelemetryServer`] serves the session's
//! observability bundle over a trivially scriptable wire protocol — one
//! command per line, one JSON document per reply line:
//!
//! | command    | reply                                                     |
//! |------------|-----------------------------------------------------------|
//! | `ping`     | `{"ok":true}`                                             |
//! | `snapshot` | the full metrics snapshot (same shape as `BENCH_obs.json`'s snapshot array) |
//! | `events`   | the most recent trace events (non-consuming peek)         |
//! | `alerts`   | the alert engine's active set and transition history      |
//!
//! Every command reads and none consumes, so what one client asks changes
//! nothing another sees. `examples/live_proxy.rs` serves an endpoint over
//! the live guard's `Obs`.
//!
//! Unknown commands get `{"error":"unknown command"}`, and a client that
//! sends more than 64 bytes without a newline, or goes quiet for 500 ms, is
//! hung up on. The server also owns the alert engine: every `eval_every`,
//! its one thread evaluates the rules against a fresh registry snapshot, so
//! alerts fire while the deployment runs rather than at export time, and
//! `alerts` reads the engine on that same thread. The thread serves every
//! connected client at once, on nonblocking sockets: each pass accepts who
//! is waiting, reads at most one chunk from each client and answers its
//! complete lines, and evaluates the rules when due between passes. No
//! client holds another out, however often it polls, and the stop flag is
//! seen within a pass.

use obs::alert::AlertEngine;
use obs::export::{event_json, metrics_json, Json};
use obs::Obs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use crate::stopflag::StopFlag;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many trace events an `events` reply carries at most.
const RECENT_EVENTS: usize = 256;

/// A client with more than this many bytes buffered and no newline among
/// them is disconnected: well above the longest command (`snapshot`,
/// 8 bytes), so only a client that is not speaking the protocol meets it.
const MAX_LINE: usize = 64;

/// A client that sends nothing and takes none of its replies for this long
/// is hung up on.
const IDLE: Duration = Duration::from_millis(500);

/// How long the thread sleeps after a pass in which no client moved.
const NAP: Duration = Duration::from_millis(2);

/// A live telemetry endpoint on a background thread.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: StopFlag,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Spawns the endpoint on an ephemeral loopback port, serving `obs` and
    /// `engine`, which moves into the endpoint's thread. The engine is
    /// evaluated every `eval_every` of wall time (timestamps are
    /// nanoseconds since spawn, matching the live guard's trace clock).
    pub fn spawn(
        obs: &Obs,
        engine: AlertEngine,
        eval_every: Duration,
    ) -> io::Result<TelemetryServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = StopFlag::new();
        let started = Instant::now();
        let endpoint = Endpoint {
            obs: obs.clone(),
            engine,
            started,
            eval_every,
            next_eval: started + eval_every,
            stop: stop.clone(),
        };
        let handle = std::thread::spawn(move || endpoint.run(listener));

        Ok(TelemetryServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The endpoint's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the endpoint thread.
    pub fn shutdown(mut self) {
        self.stop.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// What the endpoint's thread owns.
struct Endpoint {
    obs: Obs,
    engine: AlertEngine,
    started: Instant,
    eval_every: Duration,
    next_eval: Instant,
    stop: StopFlag,
}

/// One connected client: the bytes of its unfinished line, the replies it
/// has not taken yet, and when it is hung up on unless it moves.
struct Client {
    stream: TcpStream,
    line: Vec<u8>,
    out: Vec<u8>,
    hang_up: Instant,
}

impl Client {
    /// Writes what the socket takes of the replies owed; true when it took
    /// any.
    fn flush(&mut self) -> io::Result<bool> {
        let mut wrote = false;
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                    wrote = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(wrote)
    }
}

impl Endpoint {
    /// Accepts and serves clients, all of them in each pass, until stopped.
    fn run(mut self, listener: TcpListener) {
        let mut clients: Vec<Client> = Vec::new();
        while !self.stop.should_stop() {
            self.evaluate_if_due();
            loop {
                match listener.accept() {
                    Ok((stream, _)) if stream.set_nonblocking(true).is_ok() => clients.push(Client {
                        stream,
                        line: Vec::new(),
                        out: Vec::new(),
                        hang_up: Instant::now() + IDLE,
                    }),
                    Ok(_) => {}
                    // No client waiting, or an error (an aborted connection,
                    // or out of descriptors while many clients are
                    // connected): either ends this pass's accepting only,
                    // and the next pass tries again.
                    Err(_) => break,
                }
            }
            let mut moved = false;
            clients.retain_mut(|client| match self.serve(client) {
                Ok(m) => {
                    moved |= m;
                    true
                }
                Err(_) => false,
            });
            if !moved {
                std::thread::sleep(NAP);
            }
        }
    }

    /// Evaluates the rules if an evaluation is due.
    fn evaluate_if_due(&mut self) {
        let now = Instant::now();
        if now >= self.next_eval {
            self.engine.evaluate((now - self.started).as_nanos() as u64, &self.obs.registry.snapshot());
            // From now, not from the missed tick: should an evaluation ever
            // come late, it must not be followed by a burst of evaluations
            // whose rate windows are a fraction of the cadence (and read a
            // sub-threshold flood as a surge).
            self.next_eval = now + self.eval_every;
        }
    }

    /// Moves `client` on without waiting: writes what the socket takes of
    /// the replies owed and, once none are, reads one chunk and answers the
    /// complete lines in it. True when bytes moved; an error when the client
    /// is to be dropped: it closed or failed, went quiet for [`IDLE`], or
    /// has more than [`MAX_LINE`] bytes buffered without a newline.
    fn serve(&self, client: &mut Client) -> io::Result<bool> {
        let mut moved = client.flush()?;
        if client.out.is_empty() {
            let mut chunk = [0u8; 1024];
            match client.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    moved = true;
                    // TCP gives no line framing: a command may arrive one
                    // byte per segment, or several commands per segment.
                    // Only a complete newline-terminated line is answered;
                    // an unterminated tail waits in the buffer for its
                    // newline.
                    client.line.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = client.line.iter().position(|&b| b == b'\n') {
                        let line_bytes: Vec<u8> = client.line.drain(..=pos).collect();
                        if let Some(reply) = self.answer(&String::from_utf8_lossy(&line_bytes[..pos])) {
                            client.out.extend_from_slice(format!("{reply}\n").as_bytes());
                        }
                    }
                    if client.line.len() > MAX_LINE {
                        return Err(io::ErrorKind::InvalidData.into());
                    }
                    client.flush()?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        let now = Instant::now();
        if moved {
            client.hang_up = now + IDLE;
        } else if now >= client.hang_up {
            return Err(io::ErrorKind::TimedOut.into());
        }
        Ok(moved)
    }

    /// The reply to one command line; none to a blank one.
    fn answer(&self, line: &str) -> Option<Json> {
        Some(match line.trim() {
            "" => return None,
            "ping" => Json::obj([("ok", true.into())]),
            "snapshot" => metrics_json(&self.obs.registry.snapshot()),
            "events" => Json::Arr(self.obs.tracer.recent(RECENT_EVENTS).iter().map(event_json).collect()),
            "alerts" => self.engine.alerts_json(),
            _ => Json::obj([("error", "unknown command".into())]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::alert::{AlertConfig, AlertEngine};
    use obs::export::{parse_json, validate_json};
    use obs::trace::{Level, Value};
    use std::io::{BufRead, BufReader};

    fn query(addr: SocketAddr, cmds: &[&str]) -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::new();
        for cmd in cmds {
            writer.write_all(cmd.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            replies.push(line.trim().to_string());
        }
        replies
    }

    #[test]
    fn endpoint_serves_snapshot_events_and_alerts() {
        let obs = Obs::new();
        obs.tracer.set_default_level(Level::Info);
        let mut engine = AlertEngine::new(AlertConfig::default());
        engine.attach_obs(&obs);
        let server =
            TelemetryServer::spawn(&obs, engine, Duration::from_millis(20)).unwrap();

        let c = obs.registry.counter("demo", "hits", &[]);
        c.inc();
        obs.tracer
            .component("demo")
            .event(7, "grant", &[("qid", Value::U64(1))]);

        let replies = query(server.addr(), &["ping", "snapshot", "events", "alerts", "bogus"]);
        assert_eq!(replies[0], "{\"ok\":true}");
        for r in &replies[1..4] {
            validate_json(r).unwrap_or_else(|p| panic!("invalid JSON at {p}: {r}"));
        }
        assert!(replies[1].contains("\"demo\"") && replies[1].contains("\"hits\""));
        assert!(replies[2].contains("\"kind\":\"grant\""), "events: {}", replies[2]);
        assert!(replies[3].contains("\"active\""), "alerts: {}", replies[3]);
        assert!(replies[4].contains("unknown command"));

        // The events command peeks; the ring still holds the event.
        let (drained, _) = obs.tracer.drain();
        assert_eq!(drained.len(), 1);
        server.shutdown();
    }

    #[test]
    fn partial_reads_are_buffered_until_newline() {
        let obs = Obs::new();
        let engine = AlertEngine::new(AlertConfig::default());
        let server =
            TelemetryServer::spawn(&obs, engine, Duration::from_millis(50)).unwrap();

        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // One byte per segment (nodelay flushes each write): the server
        // must hold the partial line until its newline arrives.
        for b in b"snapshot\n" {
            writer.write_all(&[*b]).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        validate_json(line.trim()).unwrap_or_else(|p| panic!("invalid JSON at {p}: {line}"));

        // The opposite framing: two commands coalesced into one segment
        // both get answered, in order.
        writer.write_all(b"ping\nbogus\n").unwrap();
        writer.flush().unwrap();
        let mut l1 = String::new();
        reader.read_line(&mut l1).unwrap();
        let mut l2 = String::new();
        reader.read_line(&mut l2).unwrap();
        assert_eq!(l1.trim(), "{\"ok\":true}");
        assert!(l2.contains("unknown command"));
        server.shutdown();
    }

    #[test]
    fn a_line_past_the_cap_is_disconnected_and_the_next_client_served() {
        let obs = Obs::new();
        let engine = AlertEngine::new(AlertConfig::default());
        let server = TelemetryServer::spawn(&obs, engine, Duration::from_millis(50)).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // The endpoint hangs up part-way, so the write may fail.
        let _ = stream.write_all(&vec![b'x'; 1 << 20]);
        // Closed, not waiting for the newline: the read ends before the
        // endpoint's own 500 ms timeout would have closed it.
        stream.set_read_timeout(Some(Duration::from_millis(250))).unwrap();
        let read = stream.read(&mut [0u8; 16]);
        let closed = match &read {
            Ok(n) => *n == 0,
            Err(e) => e.kind() == io::ErrorKind::ConnectionReset,
        };
        assert!(closed, "still connected after 1 MiB without a newline: {read:?}");
        assert_eq!(query(server.addr(), &["ping"]), ["{\"ok\":true}"]);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_not_held_by_a_trickling_client() {
        let obs = Obs::new();
        let engine = AlertEngine::new(AlertConfig::default());
        let server = TelemetryServer::spawn(&obs, engine, Duration::from_millis(50)).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // A byte every 100 ms, each inside the endpoint's read timeout, for
        // at most 5 s (the write fails once the endpoint hangs up).
        let trickler = std::thread::spawn(move || {
            for _ in 0..50 {
                if stream.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        std::thread::sleep(Duration::from_millis(300));
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        trickler.join().unwrap();
        assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
    }

    #[test]
    fn endpoint_evaluates_alerts_periodically() {
        let obs = Obs::new();
        let engine = AlertEngine::new(AlertConfig::default());
        let server = TelemetryServer::spawn(&obs, engine, Duration::from_millis(5)).unwrap();
        // Baseline evaluation happens quickly; a clean start never fired.
        std::thread::sleep(Duration::from_millis(60));
        let replies = query(server.addr(), &["alerts"]);
        assert!(replies[0].contains("\"active\":[]"), "clean start is silent: {}", replies[0]);
        assert!(replies[0].contains("\"history\":[]"), "clean start never fired: {}", replies[0]);
        server.shutdown();
    }

    #[test]
    fn a_polling_client_does_not_stop_the_alert_rules() {
        let obs = Obs::new();
        let server =
            TelemetryServer::spawn(&obs, AlertEngine::new(AlertConfig::default()), Duration::from_millis(50)).unwrap();
        // Invalid verifies at 1 000/s, five times the `spoof_surge` threshold.
        let invalid = obs.registry.counter("guard", "verify", &[("scheme", "ext"), ("verdict", "invalid")]);
        let feeder = std::thread::spawn(move || {
            for _ in 0..400 {
                invalid.add(5);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        // One dashboard connection, held open and polled every 100 ms.
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        for _ in 0..15 {
            std::thread::sleep(Duration::from_millis(100));
            writer.write_all(b"alerts\n").unwrap();
            reply.clear();
            reader.read_line(&mut reply).unwrap();
        }
        let doc = parse_json(&reply).unwrap_or_else(|p| panic!("invalid JSON at {p}: {reply}"));
        let Some(Json::Arr(active)) = doc.get("active") else { panic!("no active set: {reply}") };
        let rules: Vec<_> = active.iter().filter_map(|a| a.get("rule")?.as_str()).collect();
        assert_eq!(rules, ["spoof_surge"], "{reply}");
        drop((writer, reader));
        feeder.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_held_connection_is_not_followed_by_a_burst_of_evaluations() {
        let obs = Obs::new();
        let eval_every = Duration::from_millis(20);
        let server = TelemetryServer::spawn(&obs, AlertEngine::new(AlertConfig::default()), eval_every).unwrap();
        // Invalid verifies at 100/s, half the `spoof_surge` threshold: over
        // any window of at least one cadence the rate stays below it, but a
        // window of a few ms that catches one of them reads 500/s.
        let invalid = obs.registry.counter("guard", "verify", &[("scheme", "ext"), ("verdict", "invalid")]);
        let feeder = std::thread::spawn(move || {
            for _ in 0..40 {
                invalid.inc();
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        std::thread::sleep(eval_every * 2);
        // An idle client holds the endpoint's one thread for ten cadences.
        let idle = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(eval_every * 10);
        drop(idle);
        std::thread::sleep(eval_every * 5);
        let replies = query(server.addr(), &["alerts"]);
        feeder.join().unwrap();
        validate_json(&replies[0]).unwrap_or_else(|p| panic!("invalid JSON at {p}: {}", replies[0]));
        assert!(!replies[0].contains("spoof_surge"), "a 100/s trickle fired: {}", replies[0]);
        server.shutdown();
    }

    /// A dashboard that polls every 100 ms keeps its connection busy; a
    /// second client connecting meanwhile is answered all the same.
    #[test]
    fn a_polling_dashboard_does_not_lock_out_a_second_client() {
        let obs = Obs::new();
        let server =
            TelemetryServer::spawn(&obs, AlertEngine::new(AlertConfig::default()), Duration::from_millis(50)).unwrap();
        let addr = server.addr();
        let dashboard = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for _ in 0..15 {
                writer.write_all(b"ping\n").unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                assert_eq!(reply.trim(), "{\"ok\":true}");
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        std::thread::sleep(Duration::from_millis(300));
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"ping\n").unwrap();
        let mut reply = String::new();
        let read = reader.read_line(&mut reply);
        assert!(read.is_ok() && reply.trim() == "{\"ok\":true}", "second client: {read:?} {reply:?}");
        dashboard.join().unwrap();
        server.shutdown();
    }

    /// Clients that connect and leave at once, some mid-line, each cost
    /// the endpoint one pass: it still answers the next client.
    #[test]
    fn many_short_lived_connections_leave_the_endpoint_answering() {
        let obs = Obs::new();
        let server =
            TelemetryServer::spawn(&obs, AlertEngine::new(AlertConfig::default()), Duration::from_millis(20)).unwrap();
        for i in 0..200 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            if i % 2 == 1 {
                stream.write_all(b"ale").unwrap();
            }
        }
        let replies = query(server.addr(), &["alerts"]);
        assert!(replies[0].contains("\"active\""), "alerts: {}", replies[0]);
        server.shutdown();
    }
}
