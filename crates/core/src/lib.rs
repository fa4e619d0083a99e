//! **DNS Guard** — cookie-based spoof detection for DNS servers.
//!
//! This crate is the primary contribution of *"Spoof Detection for
//! Preventing DoS Attacks against DNS Servers"* (Guo, Chen & Chiueh,
//! ICDCS 2006), reproduced in full:
//!
//! * [`guard`] — the **remote guard** firewall module (Figure 4): cookie
//!   checker, scheme dispatch, both rate limiters, ANS forwarding — one
//!   sans-IO [`guard::GuardCore`], with [`guard::RemoteGuard`] driving it
//!   as a simulated node (the `runtime` crate drives it from sockets);
//! * [`cookie_client`] — the client side of the modified-DNS scheme
//!   (Figure 3), re-exported from `server`, where the simulated LRS drives
//!   it: one sans-IO [`cookie_client::ClientCore`] that caches each server's
//!   cookie, stamps queries with it, and otherwise holds the query behind a
//!   zero-cookie probe until the grant;
//! * [`local_guard`] — the **local guard** that makes an unmodified LRS
//!   cookie-capable: another simulated driver of the core (the `runtime`
//!   crate's `CookieClient` drives it from a socket);
//! * [`tcp_proxy`] — the transparent TCP proxy with SYN cookies,
//!   connection-lifetime reaping and connection-rate limiting;
//! * [`ratelimit`] — Rate-Limiter1 (cookie responses; anti-reflection) and
//!   Rate-Limiter2 (verified requests; anti-non-spoofed-DoS);
//! * [`classify`] — referral/non-referral classification driving the two
//!   DNS-based cookie encodings;
//! * [`config`] — guard deployment configuration.
//!
//! The cookie itself — SipHash-2-4 of the source address by default, or the
//! paper's `MD5(source_ip ‖ 76-byte key)`, with NS-name, subnet-IP and full
//! encodings plus generation-bit rotation — lives in [`guardhash`].
//!
//! # Quick start
//!
//! ```
//! use dnsguard::classify::AuthorityClassifier;
//! use dnsguard::config::{GuardConfig, SchemeMode};
//! use dnsguard::guard::RemoteGuard;
//! use netsim::engine::{CpuConfig, Simulator};
//! use server::authoritative::Authority;
//! use server::nodes::AuthNode;
//! use server::zone::paper_hierarchy;
//! use std::net::Ipv4Addr;
//!
//! let (root, _, _) = paper_hierarchy();
//! let authority = Authority::new(vec![root]);
//! let public = Ipv4Addr::new(198, 41, 0, 4);   // advertised ANS address
//! let private = Ipv4Addr::new(10, 99, 0, 1);   // real ANS behind the guard
//!
//! let mut sim = Simulator::new(7);
//! let config = GuardConfig::new(public, private).with_mode(SchemeMode::DnsBased);
//! let guard = sim.add_node(
//!     public,
//!     CpuConfig::default(),
//!     RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
//! );
//! sim.add_subnet(Ipv4Addr::new(198, 41, 0, 0), 24, guard);
//! sim.add_node(private, CpuConfig::default(), AuthNode::new(private, authority));
//! sim.run_until(netsim::SimTime::from_millis(10));
//! ```

#![forbid(unsafe_code)]

pub mod analytics;
pub mod checkpoint;
pub mod classify;
pub mod config;
pub mod guard;
pub mod ha;
pub mod local_guard;
pub mod ratelimit;
pub mod tcp_proxy;

pub use checkpoint::GuardCheckpoint;
pub use classify::{AuthorityClassifier, Classification, Classifier};
pub use config::{GuardConfig, SchemeMode};
pub use server::cookie_client::{self, ClientCore};
pub use guard::{GuardCore, GuardStats, RemoteGuard};
pub use ha::{HaConfig, HaRole};
pub use local_guard::LocalGuard;
pub use ratelimit::SourceRateLimiter;
pub use tcp_proxy::TcpProxy;
