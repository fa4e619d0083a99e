//! The guard's two rate limiters (Figure 4).
//!
//! **Rate-Limiter1** sits on the *cookie response* path: every packet the
//! guard emits toward an unverified address (cookie grants, fabricated NS
//! answers, truncation responses) passes it. It combines a global budget —
//! which bounds the guard's total usefulness as a traffic reflector even
//! against fully random spoofed sources — with per-source buckets that
//! throttle the top requesters the paper mentions.
//!
//! **Rate-Limiter2** sits on the *verified request* path: requests whose
//! cookie checked out are per-source limited to a nominal rate, which is
//! what blunts DoS from real (non-spoofed) addresses and from attackers who
//! somehow obtained one host's cookie.
//!
//! # The per-source table
//!
//! A bucket that has refilled to `burst` says exactly what no bucket says,
//! so the only buckets worth memory are the ones *not* full — and the global
//! budget bounds how many of those can exist: a source stays below `burst`
//! for `k / per_source_rate` seconds after `k` admissions, and admissions
//! arrive at `global_rate` at most, so about `global_rate / per_source_rate`
//! buckets (100 at the defaults) are non-full in steady state, plus at most
//! the global burst (1 000) right after an idle period. The table is
//! therefore fixed: `SETS` sets of `WAYS` buckets, one 64-byte cache
//! line per set, [`TABLE_BYTES`] per limiter, allocated once; `rate` and
//! `burst` are stored once per limiter, and one keyed SipHash of the source
//! address picks the set, so a sender who does not know the key cannot aim
//! sources at one set.
//!
//! A source that is not in its set takes, in this order: an unused bucket; a
//! bucket that has refilled to `burst` at `now` — forgetting it loses
//! nothing, the forgotten source's next admission starts from the same full
//! bucket either way; otherwise the bucket closest to full (ties: the lower
//! address). Only the last case is *lossy*: the evicted source gets back
//! the `burst − tokens` it had spent, at most one `burst`, once. It is
//! counted ([`SourceRateLimiter::lossy_evictions`]) and handed to the caller
//! ([`SourceRateLimiter::take_evicted`]). Nothing ever clears the table, and
//! a requester that is being throttled holds the emptiest bucket of its set,
//! the last this rule takes: no volume of sprayed sources makes the limiter
//! forget it. Whenever no lossy eviction happens, every verdict is the one
//! an unbounded map of [`netsim::tokenbucket::TokenBucket`]s would give (the
//! arithmetic is that type's, operation for operation).
//!
//! An unlimited or deny-all per-source rate (`∞`; `0`, negative or `NaN`)
//! has no table at all.

use crate::checkpoint::LimiterState;
use guardhash::cookie::SecretKey;
use guardhash::siphash::siphash13_u32;
use netsim::time::SimTime;
use netsim::tokenbucket::{TokenBucket, TokenBucketState};
use obs::metrics::{Counter, Registry};
use std::net::Ipv4Addr;

/// Buckets per set: three `(address, tokens, last refill)` triples and the
/// fill count are exactly one cache line.
const WAYS: usize = 3;

/// Sets per table (a power of two: the set is the hash's low bits). 3 072
/// buckets: thirty times the non-full buckets the global budget allows at
/// the defaults in steady state and three times what it allows right after
/// an idle period (see the module docs) — and no more, because a hot set of
/// sources is served faster from a table it fills densely: admitting 1 024
/// sources in turn from cold caches (`dnsguard.rl_admit_hot_ns`) cost 54 ns
/// each with 4 096 sets, 44 ns with 2 048 and 36 ns with 1 024, against the
/// 34 ns of the 1 024-entry map this replaced.
const SETS: usize = 1024;

/// Memory of one limiter's per-source table.
pub const TABLE_BYTES: usize = SETS * std::mem::size_of::<Set>();

const _: () = assert!(std::mem::size_of::<Set>() == 64 && SETS.is_power_of_two());
const _: () = assert!(TABLE_BYTES == 64 * 1024);

/// One set: the buckets of up to [`WAYS`] sources, in slots `0..used`.
/// Times are [`SimTime`]s as nanoseconds: the admission path does its own
/// arithmetic on them, `netsim`'s operators being calls from here.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Set {
    src: [u32; WAYS],
    used: u32,
    tokens: [f64; WAYS],
    last: [u64; WAYS],
}

const EMPTY: Set = Set {
    src: [0; WAYS],
    used: 0,
    tokens: [0.0; WAYS],
    last: [0; WAYS],
};

/// The rate and burst every bucket of a table shares.
#[derive(Debug, Clone, Copy)]
struct Fill {
    rate: f64,
    burst: f64,
}

impl Fill {
    /// What [`TokenBucket`]'s refill would leave in a bucket holding
    /// `tokens` since `last`, at `now` (the elapsed seconds are
    /// [`SimTime::as_secs_f64`]'s, to the bit).
    #[inline]
    fn level(self, tokens: f64, last: u64, now: u64) -> f64 {
        if now <= last {
            return tokens;
        }
        let refilled = tokens + (now - last) as f64 / 1e9 * self.rate;
        if refilled.is_finite() {
            refilled.min(self.burst)
        } else {
            self.burst
        }
    }
}

impl Set {
    /// Gives `src`, which has no bucket here, a full one stamped `now`.
    /// Returns its slot, and the source whose unrefilled bucket it took if
    /// the set had no other to give. Out of line: inlined, it costs the hit
    /// path a third of its speed.
    #[inline(never)]
    fn claim(&mut self, fill: Fill, now: u64, src: u32) -> (usize, Option<u32>) {
        let level = |slot: usize| fill.level(self.tokens[slot], self.last[slot], now);
        let (slot, forgotten) = if (self.used as usize) < WAYS {
            self.used += 1;
            (self.used as usize - 1, None)
        } else if let Some(refilled) = (0..WAYS).find(|&slot| level(slot) >= fill.burst) {
            (refilled, None)
        } else {
            let fullest = (0..WAYS)
                .max_by(|&a, &b| {
                    level(a)
                        .total_cmp(&level(b))
                        .then(self.src[b].cmp(&self.src[a]))
                })
                .expect("a set has slots");
            (fullest, Some(self.src[fullest]))
        };
        self.src[slot] = src;
        self.tokens[slot] = fill.burst;
        self.last[slot] = now;
        (slot, forgotten)
    }
}

/// The per-source buckets of a finite, positive rate.
#[derive(Debug)]
struct Table {
    fill: Fill,
    key: [u8; 16],
    sets: Vec<Set>,
    lossy_evictions: u64,
    evicted: Option<Ipv4Addr>,
}

/// The SipHash key of the table under `seed`. Salted, so it shares no bytes
/// with the cookie key derived from the same seed.
fn table_key(seed: u64) -> [u8; 16] {
    let material = SecretKey::from_seed(seed ^ 0x7AB1_E5E7_5EED);
    let mut key = [0u8; 16];
    key.copy_from_slice(&material.as_bytes()[..16]);
    key
}

/// The set `src` lives in under `key`.
#[inline]
fn set_of(key: &[u8; 16], src: u32) -> usize {
    siphash13_u32(key, src) as usize & (SETS - 1)
}

impl Table {
    /// The slot of `src`'s bucket in its set, claimed at `now` if it had
    /// none.
    #[inline(always)]
    fn bucket(&mut self, now: u64, src: u32) -> (&mut Set, usize) {
        let set = &mut self.sets[set_of(&self.key, src)];
        let used = set.used as usize;
        if let Some(slot) = (0..WAYS).find(|&slot| slot < used && set.src[slot] == src) {
            return (set, slot);
        }
        let (slot, forgotten) = set.claim(self.fill, now, src);
        if let Some(forgotten) = forgotten {
            self.lossy_evictions += 1;
            self.evicted = Some(Ipv4Addr::from(forgotten));
        }
        (set, slot)
    }

    #[inline]
    fn try_take(&mut self, now: SimTime, src: Ipv4Addr) -> bool {
        let (fill, now) = (self.fill, now.as_nanos());
        let (set, slot) = self.bucket(now, u32::from(src));
        let tokens = fill.level(set.tokens[slot], set.last[slot], now);
        set.last[slot] = set.last[slot].max(now);
        let admitted = tokens >= 1.0;
        set.tokens[slot] = if admitted { tokens - 1.0 } else { tokens };
        admitted
    }

    /// Every bucket in use, ascending by address.
    fn checkpoint(&self) -> Vec<(Ipv4Addr, TokenBucketState)> {
        let mut buckets: Vec<_> = self
            .sets
            .iter()
            .flat_map(|set| {
                (0..set.used as usize).map(|slot| {
                    let state = TokenBucketState {
                        rate_per_sec: self.fill.rate,
                        burst: self.fill.burst,
                        tokens: set.tokens[slot],
                        last_nanos: set.last[slot],
                    };
                    (Ipv4Addr::from(set.src[slot]), state)
                })
            })
            .collect();
        buckets.sort_by_key(|(ip, _)| u32::from(*ip));
        buckets
    }

    /// Replaces the buckets with `buckets`, fill levels clamped as
    /// [`TokenBucket::restore`] clamps them. A set offered more sources than
    /// it has slots sheds them by the admission path's rule, judged at the
    /// snapshot's latest refill.
    fn restore(&mut self, buckets: &[(Ipv4Addr, TokenBucketState)]) {
        self.sets.fill(EMPTY);
        let taken_at = buckets.iter().map(|(_, b)| b.last_nanos).max().unwrap_or(0);
        let burst = self.fill.burst;
        for (ip, b) in buckets {
            let (set, slot) = self.bucket(taken_at, u32::from(*ip));
            set.tokens[slot] = if b.tokens.is_finite() {
                b.tokens.clamp(0.0, burst)
            } else {
                burst
            };
            set.last[slot] = b.last_nanos;
        }
    }
}

/// What the per-source rate makes of a source.
#[derive(Debug)]
enum PerSource {
    Unlimited,
    DenyAll,
    Limited(Table),
}

impl PerSource {
    /// Buckets of `rate` per second with the limiters' burst: a tenth of a
    /// second's worth, eight at least. Degenerate rates mean what they mean
    /// to a [`TokenBucket`].
    fn new(rate: f64) -> PerSource {
        let burst = (rate / 10.0).max(8.0);
        let reference = TokenBucket::new(rate, burst);
        if reference.is_unlimited() {
            PerSource::Unlimited
        } else if reference.is_deny_all() {
            PerSource::DenyAll
        } else {
            PerSource::Limited(Table {
                fill: Fill { rate, burst },
                key: table_key(0),
                sets: vec![EMPTY; SETS],
                lossy_evictions: 0,
                evicted: None,
            })
        }
    }
}

/// A per-source rate limiter with an optional global budget.
#[derive(Debug)]
pub struct SourceRateLimiter {
    global: Option<TokenBucket>,
    per_source: PerSource,
    /// Admitted events (detached registry counter; see
    /// [`SourceRateLimiter::adopt_into`]).
    admitted: Counter,
    /// Rejected events.
    rejected: Counter,
}

impl SourceRateLimiter {
    /// Creates a limiter with both a global and a per-source rate.
    pub fn new(global_rate: f64, per_source_rate: f64) -> Self {
        SourceRateLimiter {
            global: Some(TokenBucket::new(global_rate, (global_rate / 10.0).max(1.0))),
            ..Self::per_source_only(per_source_rate)
        }
    }

    /// Creates a limiter with only per-source buckets (Rate-Limiter2).
    pub fn per_source_only(per_source_rate: f64) -> Self {
        SourceRateLimiter {
            global: None,
            per_source: PerSource::new(per_source_rate),
            admitted: Counter::new(),
            rejected: Counter::new(),
        }
    }

    /// Places sources in the table under a key derived from `seed` instead
    /// of the fixed default: a guard passes its `key_seed`, which an
    /// attacker does not know and a simulation repeats. For a limiter that
    /// has admitted nothing yet.
    pub fn keyed(mut self, seed: u64) -> Self {
        if let PerSource::Limited(table) = &mut self.per_source {
            debug_assert!(table.sets.iter().all(|set| set.used == 0), "re-keyed in use");
            table.key = table_key(seed);
        }
        self
    }

    /// Registers this limiter's counters in `registry` as
    /// `<component>.rl_admitted{limiter=<limiter>}` /
    /// `<component>.rl_rejected{limiter=<limiter>}`.
    pub fn adopt_into(&self, registry: &Registry, component: &'static str, limiter: &'static str) {
        registry.adopt_counter(component, "rl_admitted", &[("limiter", limiter)], &self.admitted);
        registry.adopt_counter(component, "rl_rejected", &[("limiter", limiter)], &self.rejected);
    }

    /// Sources whose bucket was given to another source before it had
    /// refilled (see the module docs); each got back at most one burst.
    pub fn lossy_evictions(&self) -> u64 {
        match &self.per_source {
            PerSource::Limited(table) => table.lossy_evictions,
            _ => 0,
        }
    }

    /// The source the last lossy eviction forgot, once.
    pub fn take_evicted(&mut self) -> Option<Ipv4Addr> {
        match &mut self.per_source {
            PerSource::Limited(table) => table.evicted.take(),
            _ => None,
        }
    }

    /// Admits or rejects one event from `src` at time `now`.
    ///
    /// The global bucket is consulted first (cheap, no per-source state
    /// touched on global rejection — this keeps the drop path inexpensive
    /// under full-rate floods).
    #[inline]
    pub fn admit(&mut self, now: SimTime, src: Ipv4Addr) -> bool {
        let admitted = self.global.as_mut().is_none_or(|global| global.try_take(now))
            && match &mut self.per_source {
                PerSource::Unlimited => true,
                PerSource::DenyAll => false,
                PerSource::Limited(table) => table.try_take(now, src),
            };
        // `&mut self` is these cells' only writer; the registry only reads.
        if admitted {
            self.admitted.inc_sole_writer();
        } else {
            self.rejected.inc_sole_writer();
        }
        admitted
    }

    /// Serializable bucket state for guard checkpointing. Per-source
    /// entries are sorted by address so the encoding is deterministic.
    /// The admitted/rejected *counters* are process-local metrics and are
    /// deliberately not part of the state.
    pub fn checkpoint(&self) -> LimiterState {
        LimiterState {
            global: self.global.as_ref().map(|b| b.checkpoint()),
            per_source: match &self.per_source {
                PerSource::Limited(table) => table.checkpoint(),
                _ => Vec::new(),
            },
        }
    }

    /// Replaces this limiter's bucket fill levels with a checkpointed
    /// snapshot. The per-source rate and burst stay as constructed (config
    /// is the authority on limits; the snapshot only carries fill levels),
    /// and a snapshot with more sources than the table holds is shed by the
    /// table's own eviction rule.
    pub fn restore_state(&mut self, state: &LimiterState) {
        if let (Some(global), Some(snap)) = (self.global.as_mut(), state.global.as_ref()) {
            *global = TokenBucket::restore(snap);
        }
        if let PerSource::Limited(table) = &mut self.per_source {
            table.restore(&state.per_source);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A housekeeping window, as the guard's.
    const WINDOW: SimTime = SimTime::from_millis(100);

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    /// The reference the table is held to: the limiter as it would be with
    /// memory for every source it ever saw.
    struct Unbounded {
        global: Option<TokenBucket>,
        per_source: HashMap<Ipv4Addr, TokenBucket>,
        rate: f64,
    }

    impl Unbounded {
        fn new(global_rate: Option<f64>, rate: f64) -> Unbounded {
            Unbounded {
                global: global_rate.map(|g| TokenBucket::new(g, (g / 10.0).max(1.0))),
                per_source: HashMap::new(),
                rate,
            }
        }

        fn burst(&self) -> f64 {
            (self.rate / 10.0).max(8.0)
        }

        fn admit(&mut self, now: SimTime, src: Ipv4Addr) -> bool {
            if self.global.as_mut().is_some_and(|global| !global.try_take(now)) {
                return false;
            }
            let (rate, burst) = (self.rate, self.burst());
            self.per_source
                .entry(src)
                .or_insert_with(|| TokenBucket::new(rate, burst))
                .try_take(now)
        }
    }

    fn limiter(global_rate: Option<f64>, rate: f64) -> SourceRateLimiter {
        match global_rate {
            Some(global) => SourceRateLimiter::new(global, rate),
            None => SourceRateLimiter::per_source_only(rate),
        }
    }

    /// `count` sources that the default key places in one set.
    fn colliding(count: usize, from: u32) -> Vec<Ipv4Addr> {
        let key = table_key(0);
        let set = set_of(&key, from);
        (from..)
            .filter(|&src| set_of(&key, src) == set)
            .take(count)
            .map(Ipv4Addr::from)
            .collect()
    }

    #[test]
    fn per_source_throttles_top_requester() {
        let mut rl = SourceRateLimiter::new(1_000_000.0, 100.0);
        let mut admitted = 0;
        for i in 0..10_000u64 {
            let now = SimTime::from_micros(i * 100); // 10K offers over 1 s
            if rl.admit(now, ip(1)) {
                admitted += 1;
            }
        }
        assert!((90..=130).contains(&admitted), "admitted {admitted}");
    }

    #[test]
    fn global_budget_bounds_total_reflection() {
        // 1000 distinct spoofed sources, each offering 100/s; global 500/s.
        let mut rl = SourceRateLimiter::new(500.0, 1_000.0);
        let mut admitted = 0u64;
        for i in 0..100_000u64 {
            let now = SimTime::from_micros(i * 10); // over 1 s
            let src = Ipv4Addr::from(0x0B00_0000 + (i % 1000) as u32);
            if rl.admit(now, src) {
                admitted += 1;
            }
        }
        assert!(admitted <= 650, "admitted {admitted} > global budget");
    }

    #[test]
    fn independent_sources_independent_buckets() {
        let mut rl = SourceRateLimiter::per_source_only(10.0);
        let t = SimTime::from_secs(1);
        // Burst is max(1, 8): both sources can emit 8 immediately.
        for s in 1..=2u8 {
            for _ in 0..8 {
                assert!(rl.admit(t, ip(s)));
            }
            assert!(!rl.admit(t, ip(s)));
        }
        assert_eq!(rl.checkpoint().per_source.len(), 2);
    }

    /// The adversary the table exists for: one address hammered at ten
    /// times its rate while far more distinct sources than any table holds
    /// are admitted around it. A limiter that bounds its memory by
    /// forgetting everything hands the hammered address a fresh burst at
    /// every reset; this one holds it to the token-bucket bound in every
    /// window: with no global budget in front, the spray does overflow sets
    /// (10 000 of its buckets are short of full at any time), but a sprayed
    /// bucket is always nearer full than the hammered one, so it is what
    /// goes.
    #[test]
    fn sprayed_sources_never_reset_a_throttled_requester() {
        let rate = 100.0;
        let mut rl = SourceRateLimiter::per_source_only(rate);
        let victim = ip(66);
        let bound = (rate * WINDOW.as_secs_f64() + 10.0) as u32; // burst is 10
        let (mut sprayed, mut in_window, mut worst) = (0u32, 0u32, 0u32);
        // Three windows, a step every microsecond: the victim offers every
        // millisecond (1 000/s), a fresh source takes every other step
        // (just under 100 000 a window: a 65 536-source table would have
        // been reset in each, the first time while the victim still had
        // its initial burst to be paid twice).
        for step in 0..300_000u64 {
            let now = SimTime::from_micros(step);
            if step % WINDOW.as_micros_f64() as u64 == 0 {
                in_window = 0;
            }
            if step % 1_000 == 0 {
                in_window += u32::from(rl.admit(now, victim));
                worst = worst.max(in_window);
            } else {
                sprayed += 1;
                assert!(rl.admit(now, Ipv4Addr::from(0x2000_0000 + sprayed)));
            }
        }
        assert!(sprayed > 4 * 65_536, "the spray outnumbers any table: {sprayed}");
        assert!(worst <= bound, "{worst} admitted in one window, bound {bound}");
        assert!(rl.checkpoint().per_source.len() <= SETS * WAYS);
    }

    /// More unrefilled sources than a set has buckets: the one closest to
    /// full goes, is reported, and gets back no more than it had spent.
    #[test]
    fn a_full_set_forgets_the_source_closest_to_full() {
        let mut rl = SourceRateLimiter::per_source_only(10.0);
        let sources = colliding(WAYS + 1, 0x0C00_0000);
        let t = SimTime::from_secs(1);
        // Source i spends i + 1 tokens: the first is the closest to full.
        for (i, &src) in sources[..WAYS].iter().enumerate() {
            for _ in 0..=i {
                assert!(rl.admit(t, src));
            }
        }
        assert_eq!((rl.lossy_evictions(), rl.take_evicted()), (0, None));
        assert!(rl.admit(t, sources[WAYS]));
        assert_eq!(rl.lossy_evictions(), 1);
        assert_eq!(rl.take_evicted(), Some(sources[0]));
        assert_eq!(rl.take_evicted(), None, "reported once");
        // The others kept what they had spent: source 2 has 8 − 3 left.
        let left = (0..8).filter(|_| rl.admit(t, sources[2])).count();
        assert_eq!(left, 5);
    }

    #[test]
    fn degenerate_rates_keep_no_table() {
        for rate in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            let mut rl = SourceRateLimiter::per_source_only(rate);
            assert!(!rl.admit(SimTime::from_secs(1), ip(1)), "rate {rate} denies");
            assert!(rl.checkpoint().per_source.is_empty());
        }
        let mut open = SourceRateLimiter::per_source_only(f64::INFINITY);
        assert!((0..10_000).all(|_| open.admit(SimTime::ZERO, ip(1))));
        assert!(open.checkpoint().per_source.is_empty());
        assert!(matches!(open.per_source, PerSource::Unlimited));
    }

    #[test]
    fn counters_track_decisions() {
        let mut rl = SourceRateLimiter::per_source_only(1.0);
        let t = SimTime::from_secs(10);
        for _ in 0..20 {
            let _ = rl.admit(t, ip(9));
        }
        let (admitted, rejected) = (rl.admitted.get(), rl.rejected.get());
        assert_eq!(admitted + rejected, 20);
        assert!(admitted >= 1);
        assert!(rejected >= 1);
    }

    #[test]
    fn checkpoint_restore_preserves_throttle_state() {
        let mut rl = SourceRateLimiter::new(1_000.0, 10.0);
        let t = SimTime::from_secs(1);
        // Drain source 1's bucket completely.
        while rl.admit(t, ip(1)) {}
        let snap = rl.checkpoint();
        let mut restored = SourceRateLimiter::new(1_000.0, 10.0);
        restored.restore_state(&snap);
        // The restored limiter remembers the drained bucket: source 1 is
        // still throttled while a fresh source gets its full burst.
        assert!(!restored.admit(t, ip(1)), "drained bucket resurrected");
        assert!(restored.admit(t, ip(2)));
        assert_eq!(restored.checkpoint().per_source.len(), 2);
    }

    /// A snapshot with more sources than the table holds (a hand-made or
    /// corrupted one: the table never writes such a thing) is shed by the
    /// eviction rule, so the drained buckets are the ones kept — not, as
    /// once, the lowest addresses.
    #[test]
    fn oversized_snapshot_keeps_the_drained_buckets() {
        let bucket = |tokens: f64| TokenBucketState {
            rate_per_sec: 10.0,
            burst: 8.0,
            tokens,
            last_nanos: 1_000_000_000,
        };
        let drained: Vec<Ipv4Addr> = (0..100).map(|i| Ipv4Addr::from(0xF000_0000 + i)).collect();
        let mut per_source: Vec<_> = (0..100_000u32)
            .map(|i| (Ipv4Addr::from(i), bucket(8.0)))
            .collect();
        per_source.extend(drained.iter().map(|&src| (src, bucket(0.0))));
        let mut rl = SourceRateLimiter::per_source_only(10.0);
        rl.restore_state(&LimiterState { global: None, per_source });
        assert!(rl.checkpoint().per_source.len() <= SETS * WAYS);
        assert_eq!(rl.lossy_evictions(), 0, "only full buckets were shed");
        let t = SimTime::from_secs(1);
        assert!(drained.iter().all(|&src| !rl.admit(t, src)), "a drained bucket was lost");
    }

    #[test]
    fn adoption_exports_decisions() {
        let reg = Registry::new();
        let mut rl = SourceRateLimiter::per_source_only(1.0);
        rl.adopt_into(&reg, "guard", "rl2");
        let t = SimTime::from_secs(10);
        for _ in 0..20 {
            let _ = rl.admit(t, ip(3));
        }
        let total: u64 = reg
            .snapshot()
            .iter()
            .map(|m| match m.value {
                obs::metrics::SampleValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 20, "registry sees every decision");
    }

    /// The sources the property tests draw from: two groups that collide in
    /// one set each (so a short sequence can overflow a set) and a spread.
    fn pool() -> Vec<Ipv4Addr> {
        let mut pool = colliding(6, 0x0A00_0000);
        pool.extend(colliding(6, 0x0B00_0000));
        pool.extend((0..12).map(|i| Ipv4Addr::from(0x0C00_0000 + i * 7919)));
        pool
    }

    fn arb_rate() -> impl Strategy<Value = f64> {
        prop_oneof![
            (1u32..4_000).prop_map(|r| r as f64 / 4.0),
            (1u32..40).prop_map(|r| r as f64 / 4.0),
            Just(0.0),
            Just(-3.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
        ]
    }

    /// `(gap to the previous event in µs, index into the pool)`: gaps from
    /// none to long enough for any bucket to refill, and two picks in three
    /// from the colliding groups (one in three from four sources that share
    /// a three-bucket set).
    fn arb_events(max: usize) -> impl Strategy<Value = Vec<(u64, usize)>> {
        let gap = prop_oneof![Just(0u64), 0u64..2_000, 0u64..200_000, 0u64..3_000_000];
        let pick = prop_oneof![0usize..4, 0usize..12, 0usize..24];
        proptest::collection::vec((gap, pick), 1..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Against the unbounded reference: the same verdicts until a lossy
        /// eviction, and afterwards no source ahead of the reference by
        /// more than a burst per eviction of that source.
        #[test]
        fn verdicts_are_the_unbounded_limiters(
            rate in arb_rate(),
            global in prop_oneof![Just(None), (1u32..2_000).prop_map(|g| Some(g as f64))],
            events in arb_events(600),
        ) {
            let pool = pool();
            let mut table = limiter(global, rate);
            let mut reference = Unbounded::new(global, rate);
            let mut ahead: HashMap<Ipv4Addr, i64> = HashMap::new();
            let mut forgiven: HashMap<Ipv4Addr, i64> = HashMap::new();
            let mut now = SimTime::ZERO;
            for (gap, pick) in events {
                now += SimTime::from_micros(gap);
                let src = pool[pick];
                let (got, want) = (table.admit(now, src), reference.admit(now, src));
                if let Some(forgotten) = table.take_evicted() {
                    *forgiven.entry(forgotten).or_default() += reference.burst().ceil() as i64;
                }
                if table.lossy_evictions() == 0 {
                    prop_assert_eq!(got, want, "at {:?} for {}", now, src);
                }
                let lead = ahead.entry(src).or_default();
                *lead += got as i64 - want as i64;
                prop_assert!(
                    *lead <= forgiven.get(&src).copied().unwrap_or(0),
                    "{} is {} ahead of the reference", src, lead
                );
            }
        }

        /// `restore_state(checkpoint())` into a fresh limiter: the same
        /// verdicts ever after, lossy evictions included.
        #[test]
        fn restored_limiter_continues_identically(
            rate in arb_rate(),
            global in prop_oneof![Just(None), (1u32..2_000).prop_map(|g| Some(g as f64))],
            before in arb_events(300),
            after in arb_events(300),
        ) {
            let pool = pool();
            let mut original = limiter(global, rate);
            let mut now = SimTime::ZERO;
            for (gap, pick) in before {
                now += SimTime::from_micros(gap);
                original.admit(now, pool[pick]);
            }
            let mut restored = limiter(global, rate);
            restored.restore_state(&original.checkpoint());
            prop_assert_eq!(restored.checkpoint(), original.checkpoint());
            for (gap, pick) in after {
                now += SimTime::from_micros(gap);
                prop_assert_eq!(restored.admit(now, pool[pick]), original.admit(now, pool[pick]));
            }
        }
    }

    /// More distinct sources than the table has buckets, two throttled ones
    /// among them, at a rate whose buckets refill between reuses: no verdict
    /// differs from the unbounded reference's.
    #[test]
    fn more_sources_than_buckets_agree_with_the_reference() {
        let mut table = SourceRateLimiter::new(70_000.0, 20_000.0);
        let mut reference = Unbounded::new(Some(70_000.0), 20_000.0);
        let mut throttled = 0;
        for step in 0..300_000u64 {
            let now = SimTime::from_micros(step * 10);
            let src = match step % 2 {
                0 => Ipv4Addr::from(0x0A00_0000 + (step / 2 % 2) as u32),
                _ => Ipv4Addr::from(0x3000_0000 + step as u32),
            };
            let verdict = table.admit(now, src);
            assert_eq!(verdict, reference.admit(now, src), "step {step}");
            throttled += u32::from(step % 2 == 0 && !verdict);
        }
        assert!(throttled > 1_000, "the hot sources were throttled: {throttled}");
        assert!(reference.per_source.len() > 5 * SETS * WAYS);
        assert_eq!(table.lossy_evictions(), 0);
    }
}
