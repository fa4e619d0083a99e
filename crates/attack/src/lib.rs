//! Attack workload generators for the DNS Guard evaluation — the
//! adversaries of section III.G, as simulator nodes:
//!
//! * [`flood`] — the one open-loop generator, with pluggable payloads
//!   (plain queries, NS-name cookie guesses, extension-cookie guesses, the
//!   `COOKIE2` subnet spray of the 1/R_y attack) and source strategies,
//!   each of which models an adversary or its legitimate look-alike:
//!   - [`SourceStrategy::Random`] — the classic spoofed flood;
//!   - [`SourceStrategy::Fixed`] — one address: a reflection victim, or a
//!     non-spoofed zombie at a high rate, which is exactly what
//!     Rate-Limiter2 throttles;
//!   - [`SourceStrategy::Pool`] — many real sources each at a trickle: a
//!     low-and-slow botnet, individually innocuous, collectively a flood,
//!     detectable only as a source-population anomaly;
//!   - [`SourceStrategy::Zipf`] — a bounded population of real clients
//!     with Zipf popularity: the flash crowd, the legitimate surge the
//!     spoof-vs-flash-crowd discriminator must *not* label as spoofing;
//! * [`amplification`] — the reflection attack and its measuring victim;
//! * [`spray`] — a reflection attack on one victim under a spray of
//!   distinct spoofed sources sized to flush the guard's per-source
//!   limiter table.

#![forbid(unsafe_code)]

pub mod amplification;
pub mod flood;
pub mod poison;
pub mod prober;
pub mod spray;

pub use amplification::Victim;
pub use flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
pub use poison::{
    DerandConfig, FragPoisonConfig, FragPoisoner, KaminskyAttack, KaminskyConfig,
    PortDerandomizer, PortKnowledge,
};
pub use prober::{FeedbackProber, ProberConfig};
pub use spray::FlushSpray;
