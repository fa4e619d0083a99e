//! `loopback`: the only real-socket path.
//!
//! `runtime::spawn_guarded` (guard thread + ANS thread, `foo.com` zone) and
//! one closed-loop `CookieClient`, all on 127.0.0.1: the traffic crosses the
//! host's loopback interface, never a link. Three threads take turns, so
//! the result is mostly system calls and context switches; the process is
//! pinned to one CPU (see `pin`) because otherwise it measures where the
//! scheduler happened to wake the threads.

use super::{note, Round, Workload};
use crate::spans::{SpanId, Spans};
use crate::stats;
use dnswire::name::Name;
use dnswire::rdata::RData;
use dnswire::types::RrType;
use runtime::{spawn_guarded, CookieClient, GuardServer, ToyAns};
use server::authoritative::Authority;
use server::zone::{paper_hierarchy, WWW_ADDR};
use std::io;
use std::time::Instant;

/// Queries per round.
pub const ROUND: usize = 10_000;
/// Untimed queries after set-up.
const WARM_UP: usize = 2_000;
/// Queries per span in the traced pass.
const SPAN_QUERIES: usize = 250;

/// The workload, set up. Field order is drop order: the client first, then
/// the guard, then the ANS; each server joins its thread when dropped.
pub struct Loopback {
    client: CookieClient,
    guard: GuardServer,
    _ans: ToyAns,
    qname: Name,
    forwarded: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Loopback {
    /// Spawns the deployment (the guard's key derives from `seed`), connects
    /// the client and sends the warm-up queries.
    ///
    /// # Errors
    ///
    /// When a loopback socket cannot be bound.
    pub fn new(seed: u64) -> io::Result<Loopback> {
        let (_, _, foo_zone) = paper_hierarchy();
        let (ans, guard) = spawn_guarded(Authority::new(vec![foo_zone]), seed)?;
        let client = CookieClient::connect(guard.addr())?;
        let mut w = Loopback {
            client,
            guard,
            _ans: ans,
            qname: "www.foo.com".parse().expect("static name"),
            forwarded: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        for _ in 0..WARM_UP {
            w.query();
        }
        w.forwarded = w.guard.counters().0;
        Ok(w)
    }

    /// One checked query; `true` when it was answered correctly.
    fn query(&mut self) -> bool {
        self.attempted += 1;
        let fault = match self.client.query(self.qname.clone(), RrType::A) {
            Ok(resp) => match resp.answers.first().map(|r| &r.rdata) {
                Some(RData::A(ip)) if *ip == WWW_ADDR => return true,
                other => format!("wrong answer {other:?}"),
            },
            Err(e) => e.to_string(),
        };
        self.failed += 1;
        note(&mut self.failures, format!("loopback: {fault}"));
        false
    }
}

impl Workload for Loopback {
    fn name(&self) -> &'static str {
        "loopback"
    }

    fn round(&mut self, mut trace: Option<(&mut Spans, SpanId)>) -> Round {
        let mut samples: Vec<f64> = Vec::with_capacity(ROUND);
        let started = Instant::now();
        for _ in 0..ROUND / SPAN_QUERIES {
            let span = trace.as_mut().map(|(spans, round)| {
                spans.open("batch", "loopback", SPAN_QUERIES as u32, Some(*round))
            });
            for _ in 0..SPAN_QUERIES {
                let t0 = Instant::now();
                // A failed query has no latency: it is missing from the
                // samples and counted in `failed`.
                if self.query() {
                    samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
                }
            }
            if let (Some((spans, _)), Some(id)) = (trace.as_mut(), span) {
                spans.close(id);
            }
        }
        let ns = started.elapsed().as_nanos() as f64;

        // Every query carried a valid cookie: each was forwarded, none
        // needed a second grant.
        let (forwarded, grants, spoofed, rl1) = self.guard.counters();
        let new_forwards = forwarded - self.forwarded;
        self.forwarded = forwarded;
        if new_forwards != ROUND as u64 || grants != 1 || spoofed != 0 || rl1 != 0 {
            self.failed += 1;
            note(
                &mut self.failures,
                format!("loopback: guard counted {new_forwards} forwards, {grants} grants, {spoofed} spoofed, {rl1} limited"),
            );
        }
        if samples.is_empty() {
            samples.push(ns / 1e3);
        }
        let ops = samples.len() as u64;
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
        Vec::new()
    }
}
