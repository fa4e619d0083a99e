//! Guard configuration.
//!
//! A [`GuardConfig`] field is a value some deployment or experiment sets
//! differently from another. What every caller would set alike is a
//! constant instead: the weekly key rotation ([`KEY_ROTATION_INTERVAL`]),
//! the replication cadence ([`crate::ha::REPL_INTERVAL`]), and keeping
//! forwarding while the ANS is down (the health monitor only probes).

use crate::ha::HaConfig;
use guardhash::cookie::CookieAlg;
use netsim::time::SimTime;
use std::net::Ipv4Addr;

/// Scheduled key rotation period: weekly, as section III.E suggests. The
/// generation bit gives departing cookies one period of grace. Guards that
/// share a `key_seed` and a clock rotate in the same window and hold the
/// same keys, with no message between them.
pub const KEY_ROTATION_INTERVAL: SimTime = SimTime::from_secs(7 * 24 * 3600);

/// Which cookie-delivery scheme the guard uses for requesters that are not
/// cookie-extension capable (Figure 4: the modified-DNS extension is always
/// recognised when present; this selects the fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeMode {
    /// Embed cookies in DNS messages (NS names for referrals, fabricated
    /// NS name + IP for non-referral answers). Section III.B.
    DnsBased,
    /// Redirect the requester to TCP with the truncation flag and proxy the
    /// connection. Section III.C.
    TcpBased,
    /// Only serve requests carrying a valid cookie extension; cookie-less
    /// requests are answered with a cookie grant exchange. Section III.D.
    ModifiedOnly,
}

/// Configuration of a remote DNS guard deployed in front of one ANS.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// The public address the guard defends (the ANS's advertised address;
    /// the guard intercepts all traffic to it).
    pub public_addr: Ipv4Addr,
    /// The real (private) ANS address the guard forwards valid requests to.
    pub ans_addr: Ipv4Addr,
    /// Base of the subnet the guard can intercept (for `COOKIE2`
    /// addresses). The paper's example: `1.2.3.0/24`.
    pub subnet_base: Ipv4Addr,
    /// Number of usable `COOKIE2` host addresses: the cookie range `R_y`.
    pub subnet_range: u32,
    /// Seed for the guard's 76-byte secret key.
    pub key_seed: u64,
    /// Keyed hash deriving cookies from source addresses:
    /// `SipHash24(ip ‖ 0) ‖ SipHash24(ip ‖ 1)` by default
    /// ([`CookieAlg::default`]), or the paper's MD5 where a world reproduces
    /// it. Guard sites sharing the key accept either; neither is the RFC
    /// 9018 wire layout. The simulated CPU charge per cookie operation is
    /// the paper's `c` (Table III) whichever hash runs.
    pub cookie_alg: CookieAlg,
    /// Scheme used for cookie-less requesters.
    pub mode: SchemeMode,
    /// TTL (seconds) of fabricated NS records — long, so that LRS caches
    /// keep them and most requests take the cache-hit path.
    pub fabricated_ns_ttl: u32,
    /// TTL (seconds) granted with extension cookies.
    pub cookie_ttl: u32,
    /// Rate-Limiter1: global cookie-response budget (responses/second).
    /// Bounds the guard's use as a traffic reflector.
    pub rl1_global_rate: f64,
    /// Rate-Limiter1: per-source cookie-response rate.
    pub rl1_per_source_rate: f64,
    /// Rate-Limiter2: per-verified-host request rate. The paper calls this
    /// "a nominal rate"; Figure 6 runs with it effectively open.
    pub rl2_per_source_rate: f64,
    /// Spoof detection activates only when the inbound request rate exceeds
    /// this many requests/second (Figure 5 uses the ANS capacity, 14 K).
    /// `0.0` keeps detection always on.
    pub activation_threshold: f64,
    /// TCP proxy: connections open longer than this are reaped. An absolute
    /// time, 2 ms by default, not a multiple of an RTT estimate (the paper
    /// caps a connection at 5× the RTT; the proxy estimates none).
    /// `bench::worlds` sets 10 s for every world, for its experiments' deep
    /// TCP pipelines.
    pub tcp_conn_lifetime: SimTime,
    /// TCP proxy: per-source new-connection rate.
    pub tcp_conn_rate: f64,
    /// Sources that are always redirected to TCP regardless of `mode`
    /// (the Figure 5 experiment runs one LRS on UDP cookies and another on
    /// TCP redirection simultaneously).
    pub tcp_redirect_sources: Vec<Ipv4Addr>,
    /// A forwarded request unanswered for this long counts as an ANS
    /// timeout (and its forward-table entry is reclaimed).
    pub ans_timeout: SimTime,
    /// Consecutive timeouts without an intervening ANS response before the
    /// health monitor declares the ANS down.
    pub ans_failure_threshold: u32,
    /// Initial interval between liveness probes while the ANS is down;
    /// doubles after each unanswered probe (exponential backoff) up to
    /// 5 s.
    pub ans_probe_interval: SimTime,
    /// Byte bound on the forward (in-flight request) table; the oldest
    /// entries are evicted beyond it.
    pub fwd_bytes_max: usize,
    /// Byte bound on the one-shot answer stash; oldest entries evicted.
    pub stash_bytes_max: usize,
    /// Cadence of guard state checkpoints, each handed to the driver as
    /// [`crate::guard::Output::Checkpoint`]. `None` disables checkpointing,
    /// and the `checkpoint_age_nanos` gauge of a guard that is not an HA
    /// standby then stays 0.
    pub checkpoint_interval: Option<SimTime>,
    /// Primary–standby pairing. `None` runs the guard standalone.
    pub ha: Option<HaConfig>,
}

impl GuardConfig {
    /// A guard for `public_addr` forwarding to `ans_addr`, with the paper's
    /// defaults: DNS-based scheme, `/24` cookie subnet, week-long cookies,
    /// detection always on.
    pub fn new(public_addr: Ipv4Addr, ans_addr: Ipv4Addr) -> Self {
        GuardConfig {
            public_addr,
            ans_addr,
            subnet_base: Ipv4Addr::new(
                public_addr.octets()[0],
                public_addr.octets()[1],
                public_addr.octets()[2],
                0,
            ),
            subnet_range: 254,
            key_seed: 2006,
            cookie_alg: CookieAlg::default(),
            mode: SchemeMode::DnsBased,
            fabricated_ns_ttl: 604_800, // one week
            cookie_ttl: 604_800,
            rl1_global_rate: 10_000.0,
            rl1_per_source_rate: 100.0,
            rl2_per_source_rate: 200_000.0,
            activation_threshold: 0.0,
            tcp_conn_lifetime: SimTime::from_millis(2),
            tcp_conn_rate: 2_000.0,
            tcp_redirect_sources: Vec::new(),
            ans_timeout: SimTime::from_secs(1),
            ans_failure_threshold: 3,
            ans_probe_interval: SimTime::from_millis(200),
            fwd_bytes_max: 1 << 20,   // 1 MiB of in-flight request state
            stash_bytes_max: 1 << 20, // 1 MiB of stashed one-shot answers
            checkpoint_interval: None,
            ha: None,
        }
    }

    /// Selects the cookie-derivation algorithm.
    pub fn with_cookie_alg(mut self, alg: CookieAlg) -> Self {
        self.cookie_alg = alg;
        self
    }

    /// Selects the scheme mode.
    pub fn with_mode(mut self, mode: SchemeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the activation threshold (requests/second).
    pub fn with_activation_threshold(mut self, rate: f64) -> Self {
        self.activation_threshold = rate;
        self
    }

    /// Enables periodic state checkpoints at the given cadence.
    pub fn with_checkpoint_interval(mut self, interval: SimTime) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Pairs this guard with a peer for primary–standby failover.
    pub fn with_ha(mut self, ha: HaConfig) -> Self {
        self.ha = Some(ha);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = GuardConfig::new(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(c.subnet_base, Ipv4Addr::new(1, 2, 3, 0));
        assert_eq!(c.subnet_range, 254, "a /24 gives R_y ≤ 254");
        assert_eq!(c.fabricated_ns_ttl, 604_800, "one week");
        assert_eq!(c.mode, SchemeMode::DnsBased);
        assert_eq!(c.activation_threshold, 0.0);
    }

    #[test]
    fn the_config_and_a_bare_factory_default_to_one_hash() {
        let c = GuardConfig::new(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(c.cookie_alg, CookieAlg::default());
        // The hashes' cookies differ, so equal cookies mean one hash.
        let bare = guardhash::CookieFactory::from_seed(c.key_seed);
        let configured = bare.clone().with_alg(c.cookie_alg);
        assert_eq!(bare.generate(c.public_addr), configured.generate(c.public_addr));
        let md5 = bare.clone().with_alg(CookieAlg::Md5);
        assert_ne!(bare.generate(c.public_addr), md5.generate(c.public_addr));
    }

    #[test]
    fn builders_chain() {
        let c = GuardConfig::new(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(10, 0, 0, 1))
            .with_mode(SchemeMode::TcpBased)
            .with_activation_threshold(14_000.0);
        assert_eq!(c.mode, SchemeMode::TcpBased);
        assert_eq!(c.activation_threshold, 14_000.0);
    }
}
