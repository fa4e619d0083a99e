//! Live demo on real UDP sockets: a toy authoritative server, the DNS
//! guard in front of it, a cookie-capable client resolving through it —
//! and a forged-cookie packet being dropped. The guard's metrics and trace
//! are served by a telemetry endpoint with the alert rules attached, which
//! the demo asks for its snapshot and alerts at the end.
//!
//! Run: `cargo run --example live_proxy`

use dnswire::cookie_ext;
use dnswire::message::Message;
use dnswire::types::RrType;
use obs::alert::{AlertConfig, AlertEngine};
use obs::export::{parse_json, Json};
use obs::Obs;
use runtime::client::CookieClient;
use runtime::{GuardServer, TelemetryServer, ToyAns};
use server::authoritative::Authority;
use server::zone::paper_hierarchy;
use std::error::Error;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, UdpSocket};
use std::time::Duration;

fn main() -> Result<(), Box<dyn Error>> {
    let (_, _, foo_com) = paper_hierarchy();
    let obs = Obs::new();
    let ans = ToyAns::spawn(Authority::new(vec![foo_com]))?;
    let guard = GuardServer::spawn_with_obs(ans.addr(), 2006, &obs)?;
    let mut engine = AlertEngine::new(AlertConfig::default());
    engine.attach_obs(&obs);
    let telemetry = TelemetryServer::spawn(&obs, engine, Duration::from_millis(100))?;
    println!("== live DNS guard on loopback ==");
    println!("ANS       : {}", ans.addr());
    println!("guard     : {}", guard.addr());
    println!("telemetry : {}", telemetry.addr());
    println!();

    // A cookie-capable client: the first query performs the cookie
    // exchange, later ones reuse the cached cookie.
    let mut client = CookieClient::connect(guard.addr())?;
    for qname in ["www.foo.com", "foo.com", "www.foo.com"] {
        let resp = client.query(qname.parse()?, RrType::A)?;
        let answer = resp
            .answers
            .first()
            .map(|r| r.rdata.to_string())
            .unwrap_or_else(|| format!("{} ({} answers)", resp.header.rcode, resp.answers.len()));
        println!("query {qname:<14} -> {answer}");
    }
    println!("cookie exchanges performed: {}", client.grants_received);
    println!();

    // A spoofer guesses a cookie: silence.
    let spoofer = UdpSocket::bind("127.0.0.1:0")?;
    spoofer.set_read_timeout(Some(Duration::from_millis(300)))?;
    let mut forged = Message::query(13, "www.foo.com".parse()?, RrType::A);
    cookie_ext::attach_cookie(&mut forged, [0xBA; 16], 0);
    spoofer.send_to(&forged.encode(), guard.addr())?;
    let mut buf = [0u8; 512];
    match spoofer.recv_from(&mut buf) {
        Err(_) => println!("forged cookie: dropped silently (as designed)"),
        Ok(_) => println!("forged cookie: unexpectedly answered!"),
    }

    let (forwarded, grants, spoofed, rl1) = guard.counters();
    println!();
    println!("guard counters: forwarded={forwarded} grants={grants} spoofed_dropped={spoofed} rl1_dropped={rl1}");
    println!("ANS served: {}", ans.served());

    // The same counters and the alert rules' verdict, as the endpoint
    // serves them to a dashboard. A wedged endpoint fails the read.
    let stream = TcpStream::connect(telemetry.addr())?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut ask = |cmd: &str| -> Result<Json, Box<dyn Error>> {
        writer.write_all(format!("{cmd}\n").as_bytes())?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        parse_json(&line).map_err(|at| format!("`{cmd}` reply is no JSON (byte {at}): {line:?}").into())
    };
    let snapshot = ask("snapshot")?;
    let alerts = ask("alerts")?;
    let (Some(Json::Arr(metrics)), Some(Json::Arr(active))) = (snapshot.get("metrics"), alerts.get("active")) else {
        return Err("telemetry replies of the wrong shape".into());
    };
    let is = |m: &Json, key: &str, want: &str| m.get(key).and_then(Json::as_str) == Some(want);
    let served_forwarded: u64 = metrics
        .iter()
        .filter(|m| is(m, "component", "guard") && is(m, "name", "forwarded"))
        .filter_map(|m| m.get("value")?.as_u64())
        .sum();
    println!("telemetry forwarded={served_forwarded} active_alerts={}", active.len());

    telemetry.shutdown();
    guard.shutdown();
    ans.shutdown();
    Ok(())
}
