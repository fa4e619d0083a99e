//! The remote DNS guard: the composite pipeline of Figure 4.
//!
//! One guard owns the protected ANS's public address (and the surrounding
//! subnet for `COOKIE2` addresses) and dispatches every packet through the
//! cookie checker, the rate limiters and the scheme handlers:
//!
//! ```text
//!                  UDP req                     UDP req
//!  Internet ──► Cookie Checker ──► Rate-Limiter2 ──► ANS
//!                  │    ▲ UDP resp                  │ UDP resp
//!        TCP req   ▼    │                           ▼
//!           ──► TCP proxy ──► Rate-Limiter2     (relayed back)
//!                  │
//!                  └── cookie/TC/NS responses ──► Rate-Limiter1 ──► Internet
//! ```
//!
//! Everything the guard decides lives in [`GuardCore`], which performs no
//! I/O and reads no clock: a driver hands it the time and each datagram,
//! tagged with the [`Leg`] it arrived on, and executes the [`Outputs`] it
//! appends. [`RemoteGuard`] is the driver for [`netsim`]; the real-socket
//! `runtime::GuardServer` is the other. DESIGN.md, "One guard, two
//! drivers", states what each must guarantee. `core` is the pipeline above;
//! `schemes`, `keys` (the cookie factory and a memo of its positive
//! verdicts), `health`, `stash`, `fwd` (the forward table, and the keyed
//! ids forwards leave with), `repl` (the HA pair) and
//! `restore` (checkpoints) are what it is composed of: state that owns its
//! fields and returns what the guard must do.
//!
//! CPU is accounted with the calibrated constants of [`netsim::cost`]: one
//! `packet_cost` per packet in or out, one `cookie_cost` per cookie
//! computation (per verification too, whether or not `keys` answered it
//! from its memo, and whichever [`CookieAlg`](guardhash::cookie::CookieAlg)
//! the guard hashes with: the model is the paper's per-request MD5),
//! `tcp_conn_cost` per proxied connection — nothing else. The
//! throughput and utilisation figures of the paper emerge from these charges
//! plus the packet counts of each scheme.

mod core;
mod fwd;
mod health;
mod keys;
mod repl;
mod restore;
mod schemes;
mod sim;
mod stash;
mod stats;

pub use self::core::{GuardCore, Leg, Output, Outputs, WINDOW};
pub use self::sim::RemoteGuard;
pub use self::stats::{GuardStats, StatsHandle};
