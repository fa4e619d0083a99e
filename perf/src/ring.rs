//! The pre-built ring of datagrams a guard workload replays.
//!
//! A ring holds 65 536 datagrams, so a datagram's ring index is its DNS
//! transaction id: whatever comes back carries the index of the datagram
//! that caused it, and the checker needs no lookup table. The ring is laid
//! out in runs of [`CLASS_RUN`] datagrams of one class, lanes taking turns,
//! so that the traced pass can put one span around a homogeneous batch; the
//! untraced pass replays the same order.
//!
//! Everything random comes from the workload seed through [`Rng`]. Valid
//! cookies are minted with the guard's own public `cookie_factory()`, as a
//! requester that had completed the handshake would hold them; forged ones
//! are random values that the factory confirms do *not* verify (the
//! `COOKIE2` encoding has only 253 values, so an unchecked guess would be
//! right once in 253 and a spoofed datagram would legitimately reach the
//! ANS).

use crate::rng::Rng;
use crate::world::{PRIV, PUB, SINK, SUBNET};
use dnswire::cookie_ext;
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::types::RrType;
use guardhash::cookie::{Cookie, CookieFactory};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use std::net::Ipv4Addr;

/// Datagrams in a ring: the transaction-id space.
pub const RING: usize = 1 << 16;

/// Consecutive datagrams of one class.
pub const CLASS_RUN: usize = 256;

/// Legitimate sources per lane.
pub const LEGIT_SOURCES: usize = 1024;

/// What a datagram is, from the sender's point of view. What the guard does
/// with it also depends on the guard's scheme and limiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Cookie-less `www.foo.com` query from a spoofed source.
    Plain,
    /// Extension cookie of random bytes, spoofed source.
    ExtForged,
    /// `PR<8 hex>com` cookie-name query with a guessed cookie, spoofed source.
    NsLabelForged,
    /// Plain query sprayed at a wrong `COOKIE2` address, spoofed source.
    Cookie2Forged,
    /// Valid extension cookie from a legitimate source.
    ExtValid,
    /// Valid cookie-name query from a legitimate source.
    NsLabelValid,
    /// Plain query to the source's own `COOKIE2` address.
    Cookie2Valid,
}

impl Class {
    /// Whether the guard must forward this datagram to the ANS and relay
    /// the answer.
    pub fn is_legit(self) -> bool {
        matches!(
            self,
            Class::ExtValid | Class::NsLabelValid | Class::Cookie2Valid
        )
    }
}

/// One ring entry.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// The packet as injected.
    pub pkt: Packet,
    /// Its class.
    pub class: Class,
    /// Its lane: the index of its class in the ring's lane list, and of the
    /// world it is replayed into.
    pub lane: usize,
}

/// The ring.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `RING` datagrams; entry `i` has transaction id `i`.
    pub items: Vec<Datagram>,
}

fn qname() -> Name {
    "www.foo.com".parse().expect("static name")
}

/// True for addresses a spoofed source must not use: the guard's own /24
/// (it would be taken for a `COOKIE2` destination or the guard itself),
/// the ANS, whose datagrams the guard treats as responses, and the sink.
fn reserved(ip: Ipv4Addr) -> bool {
    u32::from(ip) & 0xFFFF_FF00 == u32::from(SUBNET) || ip == PRIV || ip == SINK
}

/// The `COOKIE2` address the guard assigns to `src`: `generate_subnet_offset`
/// over the /24's 254 hosts less the guard's own address, which the
/// numbering skips (this mirrors the guard's address arithmetic; a mismatch
/// would show up as every `Cookie2Valid` datagram being dropped).
pub fn cookie2_addr(factory: &CookieFactory, src: Ipv4Addr) -> Ipv4Addr {
    let base = u32::from(SUBNET);
    let pub_off = u32::from(PUB) - base - 1;
    let y = factory.generate_subnet_offset(src, 253);
    Ipv4Addr::from(base + 1 + if y >= pub_off { y + 1 } else { y })
}

fn ext_query(txid: u16, cookie: [u8; 16]) -> Vec<u8> {
    let mut q = Message::iterative_query(txid, qname(), RrType::A);
    cookie_ext::attach_cookie(&mut q, cookie, 0);
    q.encode()
}

fn ns_label_query(txid: u16, hex: &str) -> Vec<u8> {
    // What an LRS asks after a root-zone guard answered its `www.foo.com`
    // query with the fabricated referral `com NS PR<cookie>com`.
    let name = Name::from_labels([format!("PR{hex}com")]).expect("short label");
    Message::iterative_query(txid, name, RrType::A).encode()
}

fn plain_query(txid: u16) -> Vec<u8> {
    Message::iterative_query(txid, qname(), RrType::A).encode()
}

/// Builds the payload and destination of one datagram of `class` from `src`.
fn build(
    class: Class,
    txid: u16,
    src: Ipv4Addr,
    factory: &CookieFactory,
    rng: &mut Rng,
) -> (Ipv4Addr, Vec<u8>) {
    match class {
        Class::Plain => (PUB, plain_query(txid)),
        Class::ExtForged => loop {
            let mut cookie = [0u8; 16];
            rng.fill(&mut cookie);
            // All-zero is the grant request, not a forgery.
            if cookie != cookie_ext::ZERO_COOKIE && !factory.verify(src, &Cookie(cookie)) {
                return (PUB, ext_query(txid, cookie));
            }
        },
        Class::NsLabelForged => loop {
            let hex = format!("{:08x}", rng.next_u32());
            if !factory.verify_ns_suffix(src, &hex) {
                return (PUB, ns_label_query(txid, &hex));
            }
        },
        Class::Cookie2Forged => {
            let right = cookie2_addr(factory, src);
            loop {
                let dst = Ipv4Addr::from(u32::from(SUBNET) + 1 + rng.below(254));
                if dst != PUB && dst != right {
                    return (dst, plain_query(txid));
                }
            }
        }
        Class::ExtValid => (PUB, ext_query(txid, factory.generate(src).0)),
        Class::NsLabelValid => (
            PUB,
            ns_label_query(txid, &factory.generate(src).ns_label_suffix()),
        ),
        Class::Cookie2Valid => (cookie2_addr(factory, src), plain_query(txid)),
    }
}

impl Ring {
    /// Builds the ring for `lanes` (one datagram class each), runs of
    /// [`CLASS_RUN`] datagrams taking the lanes in turn. `factories[i]` is
    /// the cookie factory of the guard lane `i` is replayed into.
    /// Spoofed lanes draw a fresh uniformly random source per datagram;
    /// legitimate lanes draw from their own pool of [`LEGIT_SOURCES`].
    pub fn build(lanes: &[Class], factories: &[CookieFactory], seed: u64) -> Ring {
        Ring::build_sized(lanes, factories, seed, RING)
    }

    /// A shorter ring of `len ≤ RING` datagrams, for the per-class benches.
    pub fn build_sized(
        lanes: &[Class],
        factories: &[CookieFactory],
        seed: u64,
        len: usize,
    ) -> Ring {
        assert!(len <= RING, "a ring index must fit a transaction id");
        let mut rng = Rng::new(seed, 0x51);
        let pools: Vec<Vec<Ipv4Addr>> = lanes
            .iter()
            .map(|class| {
                if class.is_legit() {
                    let mut pool: Vec<Ipv4Addr> = Vec::with_capacity(LEGIT_SOURCES);
                    while pool.len() < LEGIT_SOURCES {
                        let ip = rng.source(reserved);
                        if !pool.contains(&ip) {
                            pool.push(ip);
                        }
                    }
                    pool
                } else {
                    Vec::new()
                }
            })
            .collect();
        let items = (0..len)
            .map(|i| {
                let lane = (i / CLASS_RUN) % lanes.len();
                let class = lanes[lane];
                let src = match pools[lane].as_slice() {
                    [] => rng.source(reserved),
                    pool => pool[rng.below(pool.len() as u32) as usize],
                };
                let port = 1024 + rng.below(64_000) as u16;
                let (dst, payload) = build(class, i as u16, src, &factories[lane], &mut rng);
                Datagram {
                    pkt: Packet::udp(
                        Endpoint::new(src, port),
                        Endpoint::new(dst, DNS_PORT),
                        payload,
                    ),
                    class,
                    lane,
                }
            })
            .collect();
        Ring { items }
    }

    /// Test hook: turns forged entry `index` into the valid datagram of the
    /// same scheme for its (spoofed) source, as if the attacker had guessed
    /// right. The checker must notice the datagram that reaches the ANS.
    pub fn plant_valid_cookie(&mut self, index: usize, factory: &CookieFactory) {
        let d = &mut self.items[index];
        let valid = match d.class {
            Class::ExtForged => Class::ExtValid,
            Class::NsLabelForged => Class::NsLabelValid,
            Class::Cookie2Forged => Class::Cookie2Valid,
            other => panic!("entry {index} is {other:?}, not a forgery"),
        };
        let (dst, payload) = build(
            valid,
            index as u16,
            d.pkt.src.ip,
            factory,
            &mut Rng::new(0, 0),
        );
        d.pkt.dst.ip = dst;
        d.pkt.payload = payload;
    }

    /// Every payload byte and address, for the determinism test.
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for d in &self.items {
            out.extend_from_slice(&d.pkt.src.ip.octets());
            out.extend_from_slice(&d.pkt.src.port.to_be_bytes());
            out.extend_from_slice(&d.pkt.dst.ip.octets());
            out.extend_from_slice(&d.pkt.payload);
        }
        out
    }
}
