//! Real-socket deployment of DNS Guard over `std::net` (threads, no async
//! runtime): a userspace equivalent of the paper's firewall module for live
//! demonstrations on loopback.
//!
//! * [`ans`] — a toy authoritative server answering from a
//!   [`server::authoritative::Authority`], through the wire entry point the
//!   simulated ANS uses (the reply written over the query, in the receive
//!   buffer);
//! * [`guard_server`] — the remote guard on one UDP socket, configured for
//!   the modified-DNS cookie extension (the scheme RFC 7873 later
//!   standardised). It is a driver and nothing else: one thread owns a
//!   [`dnsguard::guard::GuardCore`] and hands it every datagram, from
//!   clients and from the ANS alike; the core grants and verifies cookies,
//!   rate-limits, forwards and matches the ANS's answers;
//! * [`client`] — a cookie-capable client, the socket driver of
//!   [`dnsguard::cookie_client::ClientCore`] (the core the simulated LRS and
//!   local guard drive too): it stamps the cached cookie on queries, or holds
//!   the query behind a zero-cookie probe and sends it on the grant;
//! * [`telemetry`] — a live telemetry endpoint (newline-JSON over TCP):
//!   metrics snapshots, recent trace events and active alerts on demand,
//!   with periodic alert-rule evaluation. `examples/live_proxy.rs` serves
//!   one over the live guard's metrics and trace.
//!
//! The packet-level performance evaluation lives in [`netsim`]-based
//! experiments (`bench` crate); this crate runs the same protocol logic
//! against real sockets, literally: `GuardCore` and `ClientCore` do no I/O
//! and read no clock, and the simulator's drivers and this crate's alike hand
//! them the time and each datagram (as bytes, or a `MessageView` of them) and
//! send what they return.

#![forbid(unsafe_code)]

pub mod ans;
pub mod client;
pub mod guard_server;
pub mod stopflag;
pub mod telemetry;

pub use ans::ToyAns;
pub use client::{ClientError, CookieClient};
pub use guard_server::{spawn_guarded, GuardServer};
pub use telemetry::TelemetryServer;
