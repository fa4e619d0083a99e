//! The DNS server substrate of the reproduction: zones, authoritative
//! answering, a caching recursive resolver, workload clients, and BIND-like
//! capacity models — everything the paper's testbed ran, rebuilt over
//! [`netsim`].
//!
//! * [`zone`] — zone data with delegations and glue, plus the paper's
//!   root → `com` → `foo.com` hierarchy;
//! * [`authoritative`] — pure answering logic (referral / answer / NODATA /
//!   NXDOMAIN classification): one zone walk over borrowed records, into an
//!   owned `Message` or straight into the query's own buffer;
//! * [`cookie_client`] — the modified-DNS client (Figure 3), one sans-IO
//!   core on datagrams under the LRS simulator, the local guard and `runtime`;
//! * [`cache`] — the resolver's TTL cache (TTL 0 disables caching, as the
//!   Figure 5 experiment requires);
//! * [`recursive`] — a stock local recursive server: iterative resolution,
//!   NS chasing, retransmission timers, TC→TCP fallback;
//! * [`nodes`] — authoritative server nodes with BIND 9.3.1 / ANS-simulator
//!   cost models, answering UDP and TCP queries through the wire entry point;
//! * [`simclient`] — the paper's closed-loop "LRS simulator" workload
//!   generator (scheme-aware through standard DNS behaviour only);
//! * [`tcpclient`] — the one DNS-over-TCP client, a query per connection,
//!   under the LRS simulator's TC fallback and the resolver's TCP re-queries.

#![forbid(unsafe_code)]

pub mod authoritative;
pub mod cache;
pub mod cookie_client;
pub mod hardening;
pub mod nodes;
pub mod recursive;
pub mod simclient;
pub mod tcpclient;
pub mod zone;

pub use authoritative::{AnswerKind, Authority};
pub use cache::Cache;
pub use hardening::{KeyedSeq, PortMode, ResolverHardening};
pub use nodes::{AuthNode, ServerCosts};
pub use recursive::{InFlight, RecursiveResolver, ResolverConfig};
pub use simclient::{CookieMode, LrsSimConfig, LrsSimulator};
pub use zone::{Zone, ZoneBuilder};
