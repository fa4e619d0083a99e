//! The paper's closed-loop workload generator (section IV.D: "The LRS
//! simulator repeatedly submits requests to resolve the same domain name,
//! and is able to handle DNS responses containing NS records, A records, and
//! truncation flag").
//!
//! The simulator keeps `concurrency` logical requests in flight. Each
//! request follows standard DNS behaviour, which is exactly what the guard
//! schemes exploit:
//!
//! * an **NS referral without glue** makes it query the same server for the
//!   name server's address (this is the NS-name cookie exchange);
//! * if that NS record's owner is the query name itself (a fabricated ANS
//!   for a non-referral answer), the returned address is used as the next
//!   server for the original question (the `COOKIE2` hop);
//! * a **TC response** makes it retry over TCP;
//! * in [`CookieMode::Extension`] each request's query goes through the
//!   modified-DNS client, [`ClientCore`] — the one the local guard and the
//!   socket client drive too: it is stamped with the cached cookie, or held
//!   in its slot behind a zero-cookie probe and released stamped on the
//!   grant.
//!
//! Each slot is the one owner of its request in flight: its UDP queries
//! leave from a port of its own (10 053 plus the slot's index, as a patched
//! resolver gives each outstanding query a source port), so a
//! reply finds its slot by destination port, and the slot takes it once,
//! when it carries the id the slot sent last. A resolver costs what its
//! slots cost, whatever the id space.
//!
//! With [`LrsSimConfig::cookie_cache`] disabled every request repeats the
//! whole exchange — the paper's *cache miss* scenario; enabled, requests
//! reuse cached cookies — *cache hit*.
//!
//! The client is on the wire path the guard takes: a response is read
//! through a [`MessageView`] where it lies, and a query is a copy of one of
//! a few encoded templates with its transaction id written in (and, in
//! extension mode, the cookie appended). Only the NS record a referral is
//! followed by becomes an owned [`Record`].

use crate::cookie_client::{ClientCore, Held, Reply};
use crate::tcpclient::TcpQueryClient;
use dnswire::cookie_ext::EXT_RECORD_LEN;
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::rdata::RData;
use dnswire::record::Record;
use dnswire::types::{Rcode, RrType};
use dnswire::view::MessageView;
use dnswire::writer::Section;
use netsim::engine::{Context, Node};
use netsim::metrics::LatencyRecorder;
use netsim::packet::{Endpoint, Packet, Proto, DNS_PORT};
use netsim::time::SimTime;
use std::net::Ipv4Addr;

/// Cookie behaviour of the simulated LRS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CookieMode {
    /// Stock DNS only (works with the DNS-based and TCP-based schemes).
    Plain,
    /// Modified-DNS client: carries the cookie TXT extension, as if a local
    /// DNS guard were deployed in front of this LRS.
    Extension,
}

/// Configuration of the closed-loop LRS simulator.
#[derive(Debug, Clone)]
pub struct LrsSimConfig {
    /// The client's own address.
    pub addr: Ipv4Addr,
    /// The (guarded) server it hammers.
    pub server: Ipv4Addr,
    /// The domain name requested, repeatedly, for its address (A) record
    /// as in the paper.
    pub qname: Name,
    /// Logical in-flight requests, at most 22 715: each slot sends from its
    /// own UDP port, 10 053 upward, below the TCP fallback's ports (32 768
    /// upward).
    pub concurrency: u32,
    /// Response wait time before the request is abandoned and restarted
    /// (paper: 10 ms).
    pub wait: SimTime,
    /// Whether cookies (fabricated NS names, `COOKIE2` addresses, extension
    /// cookies) learned on one request are reused by the next.
    pub cookie_cache: bool,
    /// Cookie transport mode.
    pub mode: CookieMode,
    /// CPU charged per packet sent/received (keeps the client from being
    /// infinitely fast; the paper's clients ran on real machines).
    pub per_packet_cost: SimTime,
    /// Pause between finishing one request (complete or timed out) and
    /// starting the next on the same slot. `ZERO` = pure closed loop;
    /// non-zero paces the offered rate (Figure 5's constant-rate LRSs).
    pub pace: SimTime,
}

impl LrsSimConfig {
    /// A plain-DNS closed-loop client with paper defaults (10 ms wait,
    /// concurrency 1, cookie caching on).
    pub fn new(addr: Ipv4Addr, server: Ipv4Addr, qname: Name) -> Self {
        LrsSimConfig {
            addr,
            server,
            qname,
            concurrency: 1,
            wait: SimTime::from_millis(10),
            cookie_cache: true,
            mode: CookieMode::Plain,
            per_packet_cost: SimTime::from_micros(2),
            pace: SimTime::ZERO,
        }
    }
}

/// What the client has learned from the DNS-based schemes and may reuse
/// (their "cookie cache"; the extension cookie is [`ClientCore`]'s).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cached {
    Nothing,
    /// Fabricated NS name for a referral zone: cache hits query its A
    /// record directly.
    NsName(Name),
    /// Fabricated ANS address (`COOKIE2`): cache hits send the original
    /// question straight to it.
    Cookie2(Ipv4Addr),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum SlotState {
    /// Waiting for a UDP answer; `sent_name` is the QNAME in flight and
    /// `chasing` the NS chase in progress, if any.
    AwaitAnswer {
        sent_name: Name,
        chasing: Option<ChaseInfo>,
    },
    /// Waiting for a DNS-over-TCP response.
    AwaitTcp,
    /// Pacing pause between requests.
    Paused,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ChaseInfo {
    /// The NS target being resolved.
    ns: Name,
    /// The owner of the NS record; equal to the query name for fabricated
    /// non-referral delegations, an ancestor for true referrals.
    owner: Name,
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    generation: u64,
    started: SimTime,
    /// The transaction id of the last UDP query sent, until a reply to it
    /// is taken.
    awaiting: Option<u16>,
    /// In [`CookieMode::Extension`], the query held behind that query's
    /// zero-cookie probe, when it was one, until its server replies.
    held: Option<Held>,
}

/// Templates one client keeps. It asks for the question and the fabricated
/// NS name's address, under the key before a rotation and the one after;
/// a new name replaces the oldest.
const TEMPLATES: usize = 3;

/// The client's encoded queries, at most [`TEMPLATES`] of them, oldest
/// first: each name's as `Message::iterative_query(0, name, RrType::A)`
/// encodes it. Only bytes 0–1 (the transaction id) depend on the id, so a
/// copy with the id written in is that query under any id.
#[derive(Debug, Default)]
struct Templates {
    entries: Vec<(Name, Vec<u8>)>,
}

impl Templates {
    /// The encoded address query for `name` under id 0, built on first use.
    /// Names are matched case for case: the bytes must be the ones asked
    /// for.
    fn get(&mut self, name: &Name) -> &[u8] {
        let found = self.entries.iter().position(|(known, _)| known.eq_case_sensitive(name));
        let at = found.unwrap_or_else(|| {
            if self.entries.len() == TEMPLATES {
                self.entries.remove(0);
            }
            let wire = Message::iterative_query(0, name.clone(), RrType::A).encode();
            self.entries.push((name.clone(), wire));
            self.entries.len() - 1
        });
        &self.entries[at].1
    }
}

/// Counters exposed by the simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct LrsSimStats {
    /// Requests completed end-to-end.
    pub completed: u64,
    /// Requests abandoned after `wait` with no usable response.
    pub timeouts: u64,
    /// Requests that fell back to TCP after a TC response.
    pub tcp_fallbacks: u64,
    /// Responses that arrived with an error rcode.
    pub errors: u64,
}

/// The closed-loop LRS simulator node.
pub struct LrsSimulator {
    config: LrsSimConfig,
    slots: Vec<Slot>,
    cached: Cached,
    /// The modified-DNS client, in [`CookieMode::Extension`].
    core: ClientCore,
    templates: Templates,
    next_txid: u16,
    tcp: TcpQueryClient,
    /// Local port of the next TC fallback: 32 768 upward, wrapping there.
    next_tcp_port: u16,
    /// Consecutive timeouts across all slots; two in a row invalidate the
    /// cookie cache (as a real resolver's record TTLs eventually would),
    /// which is how clients recover from a guard key rotation that outlived
    /// their cached cookies. A timed-out cookie request does not count: a
    /// resolver drops a server's cookie when the requests that carry it
    /// fail, not when its own requests for one are rate-limited, and a
    /// first burst of cookie requests past Rate-Limiter1's per-source
    /// budget would otherwise wipe the cookie its admitted ones were given.
    /// (A slot that still holds a query behind its probe timed out on such a
    /// request.)
    consecutive_timeouts: u32,
    /// Counters.
    pub stats: LrsSimStats,
    /// Per-request completion latencies.
    pub latencies: LatencyRecorder,
}

impl LrsSimulator {
    /// Creates the simulator; slots start on `on_start`.
    ///
    /// # Panics
    ///
    /// If `config.concurrency` is above 22 715, where the slots' ports would
    /// reach the TCP fallback's.
    pub fn new(config: LrsSimConfig) -> Self {
        assert!(
            config.concurrency <= Self::MAX_SLOTS,
            "an LRS runs at most {} slots, one UDP port each below the TCP fallback's {}: {} asked for",
            Self::MAX_SLOTS,
            Self::TCP_PORTS,
            config.concurrency,
        );
        let tcp = TcpQueryClient::new(config.addr, u64::from(u32::from(config.addr)) ^ 0x7C9);
        LrsSimulator {
            slots: Vec::new(),
            cached: Cached::Nothing,
            core: ClientCore::default(),
            templates: Templates::default(),
            next_txid: 1,
            tcp,
            next_tcp_port: Self::TCP_PORTS,
            consecutive_timeouts: 0,
            config,
            stats: LrsSimStats::default(),
            latencies: LatencyRecorder::new(),
        }
    }

    /// The port slot 0's UDP queries leave from; slot `i`'s leave from
    /// `PORT + i`.
    const PORT: u16 = 10_053;

    /// The first local port of the TCP fallback, which counts up from here
    /// and wraps back to it.
    const TCP_PORTS: u16 = 32_768;

    /// The most slots one LRS runs: their ports end below [`Self::TCP_PORTS`].
    const MAX_SLOTS: u32 = (Self::TCP_PORTS - Self::PORT) as u32;

    /// The endpoint `slot`'s UDP queries leave from.
    fn me(&self, slot: usize) -> Endpoint {
        Endpoint::new(self.config.addr, Self::PORT + slot as u16)
    }

    /// Bit marking a pacing (restart) timer rather than a wait timeout.
    const PAUSE_BIT: u64 = 1 << 63;

    /// The generation bits of a [`LrsSimulator::timer_tag`].
    const GENERATION: u64 = 0xFF_FFFF_FFFF;

    fn timer_tag(slot: usize, generation: u64) -> u64 {
        ((slot as u64) << 40) | (generation & Self::GENERATION)
    }

    /// The slot `tag` names, while it is still on the request the tag was
    /// made for.
    fn live(&self, tag: u64) -> Option<usize> {
        let slot = (tag >> 40) as usize;
        let generation = self.slots.get(slot)?.generation;
        (generation & Self::GENERATION == tag & Self::GENERATION).then_some(slot)
    }

    /// Sends `query`, a template copy, under the next transaction id; with
    /// `client` set, what the cookie client makes of it: the query stamped
    /// with the cached cookie, or its zero-cookie probe, the query held in
    /// the slot.
    fn send_udp(&mut self, ctx: &mut Context<'_>, slot: usize, server: Ipv4Addr, mut query: Vec<u8>, client: bool) {
        let txid = self.next_txid;
        self.next_txid = self.next_txid.wrapping_add(1).max(1);
        query[..2].copy_from_slice(&txid.to_be_bytes());
        let mut held = None;
        if client {
            (query, held) = self.core.query(ctx.now(), server, query);
        }
        let me = self.me(slot);
        let s = &mut self.slots[slot];
        s.awaiting = Some(txid);
        s.held = held;
        ctx.charge(self.config.per_packet_cost);
        ctx.send(Packet::udp(me, Endpoint::new(server, DNS_PORT), query));
    }

    /// Asks the configured question at `server`, awaiting a direct answer;
    /// with `client` set, through the cookie client.
    fn ask(&mut self, ctx: &mut Context<'_>, slot: usize, server: Ipv4Addr, client: bool) {
        let template = self.templates.get(&self.config.qname);
        let mut query = Vec::with_capacity(template.len() + EXT_RECORD_LEN);
        query.extend_from_slice(template);
        self.slots[slot].state = SlotState::AwaitAnswer {
            sent_name: self.config.qname.clone(),
            chasing: None,
        };
        self.send_udp(ctx, slot, server, query, client);
    }

    fn start_slot(&mut self, ctx: &mut Context<'_>, slot: usize) {
        let generation = self.slots[slot].generation + 1;
        self.slots[slot].generation = generation;
        self.slots[slot].started = ctx.now();
        // The slot's one wait deadline, replacing the previous request's.
        ctx.set_timeout(slot, self.config.wait, Self::timer_tag(slot, generation));

        // Without the cookie cache nothing is ever cached.
        match (self.config.mode, &self.cached) {
            (CookieMode::Extension, _) => self.ask(ctx, slot, self.config.server, true),
            (CookieMode::Plain, Cached::NsName(ns)) => {
                // Cache hit on the NS-name scheme: resolve the fabricated
                // NS name directly.
                let ns = ns.clone();
                let query = self.templates.get(&ns).to_vec();
                self.slots[slot].state = SlotState::AwaitAnswer {
                    sent_name: ns,
                    chasing: None,
                };
                self.send_udp(ctx, slot, self.config.server, query, false);
            }
            (CookieMode::Plain, &Cached::Cookie2(addr)) => {
                // Cache hit on the fabricated NS/IP scheme: straight to the
                // fabricated ANS address.
                self.ask(ctx, slot, addr, false);
            }
            (CookieMode::Plain, Cached::Nothing) => self.ask(ctx, slot, self.config.server, false),
        }
    }

    fn complete(&mut self, ctx: &mut Context<'_>, slot: usize) {
        self.stats.completed += 1;
        self.consecutive_timeouts = 0;
        let started = self.slots[slot].started;
        self.latencies.record(ctx.now() - started);
        self.pause_or_start(ctx, slot);
    }

    /// Starts the next request on `slot`, after the configured pace.
    fn pause_or_start(&mut self, ctx: &mut Context<'_>, slot: usize) {
        if self.config.pace == SimTime::ZERO {
            self.start_slot(ctx, slot);
        } else {
            let generation = self.slots[slot].generation;
            self.slots[slot].state = SlotState::Paused;
            ctx.set_timer(self.config.pace, Self::PAUSE_BIT | Self::timer_tag(slot, generation));
        }
    }

    /// Handles `view`, a response from `from` to local port `port`: the
    /// reply its slot awaits, or nothing.
    fn handle_udp_response(&mut self, ctx: &mut Context<'_>, from: Ipv4Addr, port: u16, view: &MessageView<'_>) {
        let slot = usize::from(port.wrapping_sub(Self::PORT));
        let Some(s) = self.slots.get_mut(slot) else {
            return; // not a slot's port
        };
        if s.awaiting.take_if(|&mut id| id == view.header.id).is_none() {
            return; // not the id the slot sent last, or already answered
        }
        let tag = Self::timer_tag(slot, s.generation);

        if self.config.mode == CookieMode::Extension {
            match self.core.reply(ctx.now(), from, view, &mut self.slots[slot].held) {
                // Read where it lies: an extension is an additional record,
                // where only glue is looked for.
                Reply::Deliver(_) => {}
                Reply::Drop => return,
                // Message 4: the held query, stamped, under the next id.
                Reply::Release(query) => {
                    if !self.config.cookie_cache {
                        self.core.forget(from);
                    }
                    self.send_udp(ctx, slot, from, query, false);
                    return;
                }
            }
        }

        if view.header.truncated {
            // TCP fallback (the TCP-based scheme's redirect).
            self.stats.tcp_fallbacks += 1;
            let port = self.next_tcp_port;
            self.next_tcp_port = port.wrapping_add(1).max(Self::TCP_PORTS);
            let query = self.templates.get(&self.config.qname);
            if let Some(syn) = self.tcp.start_query(port, from, query, tag) {
                ctx.charge(self.config.per_packet_cost);
                ctx.send(syn);
            }
            self.slots[slot].state = SlotState::AwaitTcp;
            return;
        }

        if view.header.rcode != Rcode::NoError {
            self.stats.errors += 1;
            self.start_slot(ctx, slot);
            return;
        }

        // Every path below gives the slot its next state.
        match std::mem::replace(&mut self.slots[slot].state, SlotState::Paused) {
            SlotState::AwaitAnswer { sent_name, chasing } => {
                self.process_answer(ctx, slot, from, view, sent_name, chasing);
            }
            waiting @ (SlotState::AwaitTcp | SlotState::Paused) => self.slots[slot].state = waiting,
        }
    }

    fn process_answer(
        &mut self,
        ctx: &mut Context<'_>,
        slot: usize,
        from: Ipv4Addr,
        view: &MessageView<'_>,
        sent_name: Name,
        chasing: Option<ChaseInfo>,
    ) {
        // A-answer for the in-flight name? (An A record's RDATA is the four
        // bytes of the address: the parse checked its length.)
        let direct_a = view
            .records()
            .take_while(|r| r.section == Section::Answer)
            .find(|r| r.rtype == RrType::A && r.owner_is(&sent_name))
            .and_then(|r| <[u8; 4]>::try_from(r.rdata()).ok())
            .map(Ipv4Addr::from);
        if let Some(addr) = direct_a {
            if let Some(chase) = chasing {
                if chase.owner == self.config.qname {
                    // Fabricated ANS for a non-referral answer: the address
                    // is COOKIE2 — requery the original name there (msg 7).
                    if self.config.cookie_cache {
                        self.cached = Cached::Cookie2(addr);
                    }
                    self.ask(ctx, slot, addr, self.config.mode == CookieMode::Extension);
                    return;
                }
                // True referral: we now hold the next-level ANS name and
                // address — the interaction with *this* server is complete.
                if self.config.cookie_cache {
                    self.cached = Cached::NsName(chase.ns);
                }
                self.complete(ctx, slot);
                return;
            }
            // Plain answer (terminal, or cache-hit NS-name resolution).
            self.complete(ctx, slot);
            return;
        }

        // Referral? Find the first NS record in authorities (or answers).
        let ns_record = view
            .records()
            .filter(|r| r.section == Section::Authority)
            .chain(view.records().take_while(|r| r.section == Section::Answer))
            .find(|r| r.rtype == RrType::Ns);
        if let Some(ns_record) = ns_record {
            let Record {
                name: owner,
                rdata: RData::Ns(ns_name),
                ..
            } = ns_record.to_record()
            else {
                self.stats.errors += 1;
                self.start_slot(ctx, slot);
                return;
            };
            // Glue present → referral complete (a real LRS would descend).
            let glued = view
                .records()
                .any(|r| r.section == Section::Additional && r.rtype == RrType::A && r.owner_is(&ns_name));
            if glued {
                self.complete(ctx, slot);
                return;
            }
            // No glue: chase the NS address at the same server.
            let query = self.templates.get(&ns_name).to_vec();
            self.slots[slot].state = SlotState::AwaitAnswer {
                sent_name: ns_name.clone(),
                chasing: Some(ChaseInfo { ns: ns_name, owner }),
            };
            self.send_udp(ctx, slot, from, query, self.config.mode == CookieMode::Extension);
            return;
        }

        // NODATA or unusable: count as error and restart.
        self.stats.errors += 1;
        self.start_slot(ctx, slot);
    }
}

impl Node for LrsSimulator {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.config.concurrency {
            self.slots.push(Slot {
                state: SlotState::AwaitAnswer {
                    sent_name: self.config.qname.clone(),
                    chasing: None,
                },
                generation: 0,
                started: ctx.now(),
                awaiting: None,
                held: None,
            });
        }
        for slot in 0..self.slots.len() {
            self.start_slot(ctx, slot);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        ctx.charge(self.config.per_packet_cost);
        match pkt.proto {
            Proto::Udp => {
                let Ok(view) = MessageView::parse(&pkt.payload) else {
                    return;
                };
                if view.header.response {
                    self.handle_udp_response(ctx, pkt.src.ip, pkt.dst.port, &view);
                }
            }
            Proto::Tcp => {
                let mut out = Vec::new();
                let done = self.tcp.on_segment(&pkt, &mut out);
                for p in out {
                    ctx.charge(self.config.per_packet_cost);
                    ctx.send(p);
                }
                for (token, _frame) in done {
                    if let Some(slot) = self.live(token).filter(|&slot| self.slots[slot].state == SlotState::AwaitTcp) {
                        self.complete(ctx, slot);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let pause = tag & Self::PAUSE_BIT != 0;
        let tag = tag & !Self::PAUSE_BIT;
        let Some(slot) = self.live(tag) else {
            return; // restarted meanwhile
        };
        if pause {
            if self.slots[slot].state == SlotState::Paused {
                self.start_slot(ctx, slot);
            }
            return;
        }
        if self.slots[slot].state == SlotState::Paused {
            return; // the wait timeout of the request that just finished
        }
        self.stats.timeouts += 1;
        if self.slots[slot].held.take().is_none() {
            self.consecutive_timeouts += 1;
            if self.consecutive_timeouts >= 2 {
                self.cached = Cached::Nothing;
                self.core.forget(self.config.server);
            }
        }
        self.tcp.abandon(tag);
        self.pause_or_start(ctx, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authoritative::Authority;
    use crate::nodes::AuthNode;
    use crate::zone::{paper_hierarchy, FOO_SERVER};
    use dnswire::cookie_ext;
    use netsim::engine::{CpuConfig, Simulator};

    #[test]
    fn a_template_is_the_owned_query_under_any_id() {
        let names: [Name; 4] = ["www.foo.com", "PRdeadbeef.foo.com", "WWW.foo.com", "PRfeedface.foo.com"]
            .map(|name| name.parse().unwrap());
        let mut templates = Templates::default();
        // Four names through three entries, twice: every one is rebuilt.
        for (id, name) in names.iter().chain(&names).enumerate() {
            let id = 0x0100 + id as u16;
            let mut wire = templates.get(name).to_vec();
            wire[..2].copy_from_slice(&id.to_be_bytes());
            assert_eq!(wire, Message::iterative_query(id, name.clone(), RrType::A).encode(), "{name:?}");
            assert!(templates.entries.len() <= TEMPLATES);
        }
    }

    #[test]
    fn plain_closed_loop_completes_requests() {
        let (_, _, foo) = paper_hierarchy();
        let mut sim = Simulator::new(1);
        sim.add_node(
            FOO_SERVER,
            CpuConfig::unbounded(),
            AuthNode::new(FOO_SERVER, Authority::new(vec![foo])),
        );
        let lrs_ip = Ipv4Addr::new(10, 0, 0, 11);
        let config = LrsSimConfig::new(lrs_ip, FOO_SERVER, "www.foo.com".parse().unwrap());
        let lrs = sim.add_node(lrs_ip, CpuConfig::unbounded(), LrsSimulator::new(config));
        sim.run_until(SimTime::from_millis(100));
        let stats = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats;
        assert!(stats.completed > 50, "completed {}", stats.completed);
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn referral_with_glue_counts_as_complete() {
        // Query the root for www.foo.com → referral with glue → complete.
        let (root, _, _) = paper_hierarchy();
        let mut sim = Simulator::new(2);
        let root_ip = crate::zone::ROOT_SERVER;
        sim.add_node(
            root_ip,
            CpuConfig::unbounded(),
            AuthNode::new(root_ip, Authority::new(vec![root])),
        );
        let lrs_ip = Ipv4Addr::new(10, 0, 0, 12);
        let config = LrsSimConfig::new(lrs_ip, root_ip, "www.foo.com".parse().unwrap());
        let lrs = sim.add_node(lrs_ip, CpuConfig::unbounded(), LrsSimulator::new(config));
        sim.run_until(SimTime::from_millis(50));
        let stats = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats;
        assert!(stats.completed > 20, "completed {}", stats.completed);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn dead_server_causes_timeouts_not_hangs() {
        let mut sim = Simulator::new(3);
        let lrs_ip = Ipv4Addr::new(10, 0, 0, 13);
        let mut config = LrsSimConfig::new(lrs_ip, Ipv4Addr::new(203, 0, 113, 77), "x.y".parse().unwrap());
        config.wait = SimTime::from_millis(5);
        let lrs = sim.add_node(lrs_ip, CpuConfig::unbounded(), LrsSimulator::new(config));
        sim.run_until(SimTime::from_millis(52));
        let stats = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats;
        assert_eq!(stats.completed, 0);
        assert!((9..=11).contains(&stats.timeouts), "timeouts {}", stats.timeouts);
    }

    #[test]
    fn pacing_caps_offered_rate() {
        let (_, _, foo) = paper_hierarchy();
        let mut sim = Simulator::new(9);
        sim.add_node(
            FOO_SERVER,
            CpuConfig::unbounded(),
            AuthNode::new(FOO_SERVER, Authority::new(vec![foo])),
        );
        let lrs_ip = Ipv4Addr::new(10, 0, 0, 15);
        let mut config = LrsSimConfig::new(lrs_ip, FOO_SERVER, "www.foo.com".parse().unwrap());
        config.concurrency = 10;
        config.pace = SimTime::from_millis(10); // ≈ 1K req/s with 10 slots
        let lrs = sim.add_node(lrs_ip, CpuConfig::unbounded(), LrsSimulator::new(config));
        sim.run_until(SimTime::from_secs(1));
        let completed = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats.completed;
        assert!(
            (850..=1_050).contains(&completed),
            "paced to ~1K req/s, got {completed}"
        );
    }

    #[test]
    fn concurrency_multiplies_throughput() {
        let (_, _, foo) = paper_hierarchy();
        let run = |concurrency: u32| {
            let mut sim = Simulator::new(4);
            sim.add_node(
                FOO_SERVER,
                CpuConfig::unbounded(),
                AuthNode::new(FOO_SERVER, Authority::new(vec![foo.clone()])),
            );
            let lrs_ip = Ipv4Addr::new(10, 0, 0, 14);
            let mut config = LrsSimConfig::new(lrs_ip, FOO_SERVER, "www.foo.com".parse().unwrap());
            config.concurrency = concurrency;
            config.per_packet_cost = SimTime::ZERO;
            let lrs = sim.add_node(lrs_ip, CpuConfig::unbounded(), LrsSimulator::new(config));
            sim.run_until(SimTime::from_millis(100));
            sim.node_ref::<LrsSimulator>(lrs).unwrap().stats.completed
        };
        let one = run(1);
        let eight = run(8);
        assert!(eight > one * 6, "1→{one}, 8→{eight}");
    }

    /// A server reduced to a script: each UDP query it is sent, decoded, and
    /// the packet it came in, go to `answer`, and what it returns is sent.
    /// It keeps every query.
    struct Scripted<F> {
        answer: F,
        received: Vec<Message>,
    }

    impl<F: FnMut(&Message, &Packet) -> Vec<Packet> + 'static> Node for Scripted<F> {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            let query = Message::decode(&pkt.payload).unwrap();
            for reply in (self.answer)(&query, &pkt) {
                ctx.send(reply);
            }
            self.received.push(query);
        }
    }

    const SERVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
    const LRS: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 16);

    /// `query`'s reply as `SERVER` sends it, with `rcode`.
    fn reply(query: &Message, to: Endpoint, rcode: Rcode) -> Packet {
        let mut reply = query.response();
        reply.header.rcode = rcode;
        if rcode == Rcode::NoError {
            reply.answers.push(Record::a(query.questions[0].name.clone(), Ipv4Addr::new(2, 2, 2, 2), 60));
        }
        Packet::udp(Endpoint::new(SERVER, DNS_PORT), to, reply.encode())
    }

    /// An LRS at `LRS` with `slots` slots asking `SERVER`, which runs
    /// `answer`, for 25 ms; the LRS's stats and what the server was sent.
    fn scripted<F: FnMut(&Message, &Packet) -> Vec<Packet> + 'static>(
        slots: u32,
        mode: CookieMode,
        pace: SimTime,
        answer: F,
    ) -> (LrsSimStats, Vec<Message>) {
        let mut sim = Simulator::new(5);
        let server = sim.add_node(SERVER, CpuConfig::unbounded(), Scripted { answer, received: Vec::new() });
        let mut config = LrsSimConfig::new(LRS, SERVER, "www.foo.com".parse().unwrap());
        (config.concurrency, config.mode, config.pace) = (slots, mode, pace);
        let lrs = sim.add_node(LRS, CpuConfig::unbounded(), LrsSimulator::new(config));
        sim.run_until(SimTime::from_millis(25));
        let stats = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats;
        let server = sim.node_mut::<Scripted<F>>(server).unwrap();
        (stats, std::mem::take(&mut server.received))
    }

    /// A reply under an id one slot awaits, sent to the other slot's port,
    /// is taken by neither: both slots wait out every request.
    #[test]
    fn a_reply_on_another_slots_port_is_ignored() {
        let crossed = |query: &Message, pkt: &Packet| {
            let other = 2 * LrsSimulator::PORT + 1 - pkt.src.port;
            vec![reply(query, Endpoint::new(pkt.src.ip, other), Rcode::NoError)]
        };
        let (stats, received) = scripted(2, CookieMode::Plain, SimTime::ZERO, crossed);
        assert_eq!((stats.completed, stats.errors, stats.timeouts), (0, 0, 4));
        assert_eq!(received.len(), 6, "two slots, three requests each");
    }

    /// Each query is answered, then answered again with an error: the slot
    /// takes the first reply, and the second, under the id it already
    /// answered, counts no error and starts nothing.
    #[test]
    fn a_second_reply_to_an_answered_id_is_ignored() {
        let twice = |query: &Message, pkt: &Packet| {
            [Rcode::NoError, Rcode::ServFail].map(|rcode| reply(query, pkt.src, rcode)).to_vec()
        };
        let (stats, received) = scripted(1, CookieMode::Plain, SimTime::from_millis(10), twice);
        assert_eq!((stats.completed, stats.errors, stats.timeouts), (3, 0, 0));
        assert_eq!(received.len(), 3, "one query per paced request");
    }

    /// A timed-out request whose probe was never granted does not count
    /// toward the two timeouts that wipe the cookie; a timed-out stamped
    /// query does. Two slots probe at once; the server grants the first
    /// probe only and answers no stamped query.
    #[test]
    fn a_timed_out_probe_does_not_count_toward_the_cookie_wipe() {
        let mut granted = false;
        let grant_first_probe = move |query: &Message, pkt: &Packet| {
            let probe = cookie_ext::find_cookie(query).is_some_and(|ext| ext.is_request());
            if !probe || std::mem::replace(&mut granted, true) {
                return Vec::new();
            }
            let mut grant = query.clone();
            cookie_ext::strip_cookie(&mut grant);
            let mut grant = grant.response();
            cookie_ext::attach_cookie(&mut grant, [7; 16], 3_600);
            vec![Packet::udp(pkt.dst, pkt.src, grant.encode())]
        };
        let (stats, received) = scripted(2, CookieMode::Extension, SimTime::ZERO, grant_first_probe);
        let probes: Vec<bool> =
            received.iter().map(|m| cookie_ext::find_cookie(m).is_some_and(|ext| ext.is_request())).collect();
        // At 10 ms slot 0's released query and slot 1's probe time out: one
        // count, so both slots go on stamped. At 20 ms those two time out:
        // the cookie is wiped, and both slots probe again.
        assert_eq!(probes, [true, true, false, false, false, true, true]);
        assert_eq!(stats.timeouts, 4);
    }

    /// A pure grant from another address, to the slot's port under the id
    /// it awaits, takes the slot's reply but not its held query: nothing is
    /// released to the forger and no cookie is cached, and the server's own
    /// grant, which comes next, finds the id answered. Each request times
    /// out with its probe's query still held, so the slot probes on.
    #[test]
    fn a_grant_from_another_address_releases_nothing() {
        type Script = fn(&Message, &Packet) -> Vec<Packet>;
        const FORGER: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);
        let forged_then_real: Script = |query, pkt| {
            let mut grant = query.clone();
            cookie_ext::strip_cookie(&mut grant);
            let mut grant = grant.response();
            cookie_ext::attach_cookie(&mut grant, [7; 16], 3_600);
            [FORGER, SERVER].map(|from| Packet::udp(Endpoint::new(from, DNS_PORT), pkt.src, grant.encode())).to_vec()
        };
        let mut sim = Simulator::new(5);
        let silent: Script = |_, _| Vec::new();
        let [server, forger] = [(SERVER, forged_then_real), (FORGER, silent)]
            .map(|(ip, answer)| sim.add_node(ip, CpuConfig::unbounded(), Scripted { answer, received: Vec::new() }));
        let mut config = LrsSimConfig::new(LRS, SERVER, "www.foo.com".parse().unwrap());
        config.mode = CookieMode::Extension;
        let lrs = sim.add_node(LRS, CpuConfig::unbounded(), LrsSimulator::new(config));
        sim.run_until(SimTime::from_millis(25));

        let probes: Vec<bool> = sim.node_ref::<Scripted<Script>>(server).unwrap().received.iter()
            .map(|m| cookie_ext::find_cookie(m).is_some_and(|ext| ext.is_request()))
            .collect();
        assert_eq!(probes, [true, true, true], "a probe per request, no release");
        assert!(sim.node_ref::<Scripted<Script>>(forger).unwrap().received.is_empty(), "nothing sent to the forger");
        let lrs = sim.node_ref::<LrsSimulator>(lrs).unwrap();
        assert_eq!((lrs.core.cached_cookies(), lrs.core.stats.cookies_cached, lrs.stats.timeouts), (0, 0, 2));
    }

    /// The slots' ports end below the TCP fallback's; refusing more slots
    /// than fit allocates nothing, as building the node starts none.
    #[test]
    #[should_panic(expected = "an LRS runs at most 22715 slots")]
    fn more_slots_than_ports_below_the_tcp_fallback_are_refused() {
        assert_eq!(u32::from(LrsSimulator::PORT) + LrsSimulator::MAX_SLOTS, 32_768);
        let mut config = LrsSimConfig::new(LRS, SERVER, "www.foo.com".parse().unwrap());
        config.concurrency = LrsSimulator::MAX_SLOTS;
        drop(LrsSimulator::new(config.clone()));
        config.concurrency += 1;
        LrsSimulator::new(config);
    }
}
