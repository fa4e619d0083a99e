//! Mergeable streaming sketches for traffic analytics.
//!
//! The paper's whole premise is telling spoofed floods apart from
//! legitimate load, but exact per-source state is exactly what a spoofed
//! flood exhausts: 2³² candidate sources at line rate. This module gives
//! the guard constant-memory, constant-time answers to the three
//! population questions that discriminate the two —
//!
//! * **Who are the top talkers?** A count-min sketch ([`CM_DEPTH`] ×
//!   [`CM_WIDTH`] counters) plus a space-saving top-K table
//!   ([`TOPK_CAPACITY`] slots) track heavy hitters by source IP. Count-min
//!   never undercounts and overcounts by at most `e·T/CM_WIDTH` per row
//!   with probability `1 − e⁻ᵈᵉᵖᵗʰ`; each space-saving entry carries its
//!   own error bound (`count − err` is a guaranteed lower bound on the
//!   true frequency, and any source with true count above `T/TOPK_CAPACITY`
//!   is guaranteed a slot).
//! * **How many distinct sources?** A HyperLogLog-style estimator with
//!   [`HLL_REGISTERS`] 6-bit registers (stored as bytes): standard error
//!   `1.04/√256 ≈ 6.5 %`; we document and test a conservative ±20 % bound.
//! * **How even is the source distribution?** A Shannon-entropy estimate
//!   derived at snapshot time from the top-K head (guaranteed counts) plus
//!   the residual mass spread uniformly over the remaining estimated
//!   sources. Spoofed floods with random sources sit near the
//!   `log₂(distinct)` maximum (normalized entropy → 1); Zipf flash crowds
//!   sit well below it.
//!
//! All three structures are **mergeable**: count-min merges by element-wise
//! addition and HLL by element-wise register max — both exactly commutative
//! *and* associative — while the top-K table merges by union-sum with a
//! deterministic ordering, which is exactly commutative (associativity
//! holds until capacity truncation discards tail entries; the proptests
//! below pin each of these guarantees). That makes per-node sketches safe
//! to combine in any order at the fleet aggregator, the same contract the
//! PR 7 histogram merge established.
//!
//! Hashing is one [`guardhash::siphash::siphash24`] call per update under
//! the fixed [`SKETCH_KEY`], with Kirsch–Mitzenmacher double hashing
//! deriving the per-row count-min indexes from the two 32-bit halves — so
//! every node hashes identically and merged cells line up.
//!
//! Determinism: no clocks, no ambient randomness — the sketch state is a
//! pure function of the observed source sequence (guardlint L2 safe).

use crate::export::Json;
use guardhash::siphash::siphash24;
use std::net::Ipv4Addr;

/// Fixed sketch key: every node must hash identically or merged count-min
/// cells and HLL registers would not line up. (This key gates nothing
/// security-relevant — an attacker who degrades sketch accuracy by
/// engineering collisions still cannot forge cookies.)
pub const SKETCH_KEY: [u8; 16] = *b"dnsguard.sketch1";

/// Count-min rows (pairwise-independent via double hashing).
pub const CM_DEPTH: usize = 4;
/// Count-min counters per row (power of two; ~16 KiB total at u64).
pub const CM_WIDTH: usize = 512;
/// Space-saving table capacity.
pub const TOPK_CAPACITY: usize = 16;
/// How many of the table's entries snapshots report.
pub const TOPK_REPORT: usize = 8;
/// HyperLogLog registers (`b = 8` index bits).
pub const HLL_REGISTERS: usize = 256;

/// One space-saving table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopEntry {
    /// Source address (big-endian `u32` of the IPv4 octets).
    pub ip: u32,
    /// Estimated count — an upper bound on the true frequency.
    pub count: u64,
    /// Overestimation bound: the displaced entry's count at takeover.
    /// `count − err` is a guaranteed lower bound on the true frequency.
    pub err: u64,
}

impl TopEntry {
    /// Guaranteed (lower-bound) frequency of this source.
    pub fn guaranteed(&self) -> u64 {
        self.count.saturating_sub(self.err)
    }
}

/// The combined mergeable traffic sketch: count-min + space-saving top-K +
/// HLL cardinality, over source IPv4 addresses.
#[derive(Debug, Clone)]
pub struct TrafficSketch {
    /// Total observations.
    total: u64,
    /// Count-min counters, row-major (`CM_DEPTH × CM_WIDTH`).
    cm: Vec<u64>,
    /// Space-saving table, unordered; at most [`TOPK_CAPACITY`] entries.
    topk: Vec<TopEntry>,
    /// HLL registers (max leading-zero rank per bucket).
    hll: [u8; HLL_REGISTERS],
}

impl Default for TrafficSketch {
    fn default() -> Self {
        TrafficSketch::new()
    }
}

impl TrafficSketch {
    /// An empty sketch.
    pub fn new() -> TrafficSketch {
        TrafficSketch {
            total: 0,
            cm: vec![0; CM_DEPTH * CM_WIDTH],
            topk: Vec::with_capacity(TOPK_CAPACITY),
            hll: [0; HLL_REGISTERS],
        }
    }

    /// Total observations folded in.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records one datagram from `src`: one SipHash call, `CM_DEPTH`
    /// counter bumps, one HLL register max, one top-K table scan.
    pub fn observe(&mut self, src: Ipv4Addr) {
        self.observe_key(u32::from(src));
    }

    /// [`TrafficSketch::observe`] on the raw big-endian address word.
    pub fn observe_key(&mut self, ip: u32) {
        self.total += 1;
        let h = siphash24(&SKETCH_KEY, &ip.to_be_bytes());

        // Count-min: Kirsch–Mitzenmacher double hashing off the two 32-bit
        // halves of the single SipHash tag (h2 forced odd so the stride is
        // coprime with the power-of-two width).
        let h1 = h as u32;
        let h2 = ((h >> 32) as u32) | 1;
        for row in 0..CM_DEPTH {
            let idx = h1.wrapping_add((row as u32).wrapping_mul(h2)) as usize % CM_WIDTH;
            self.cm[row * CM_WIDTH + idx] += 1;
        }

        // HLL: top 8 bits pick the register, the rank is the position of
        // the first set bit in the remaining 56 (1-based, so an all-zero
        // remainder ranks 57).
        let reg = (h >> 56) as usize;
        let rest = h << 8;
        let rank = if rest == 0 { 57 } else { rest.leading_zeros() as u8 + 1 };
        if rank > self.hll[reg] {
            self.hll[reg] = rank;
        }

        // Space-saving: bump a present entry, fill a free slot, else evict
        // the minimum (deterministic: smallest count, then smallest ip) and
        // inherit its count as the new entry's error bound.
        if let Some(e) = self.topk.iter_mut().find(|e| e.ip == ip) {
            e.count += 1;
            return;
        }
        if self.topk.len() < TOPK_CAPACITY {
            self.topk.push(TopEntry { ip, count: 1, err: 0 });
            return;
        }
        let min = self
            .topk
            .iter_mut()
            .min_by_key(|e| (e.count, e.ip))
            .expect("top-K table is full, so non-empty");
        *min = TopEntry {
            ip,
            count: min.count + 1,
            err: min.count,
        };
    }

    /// Count-min frequency estimate for `ip` (never undercounts).
    pub fn estimate(&self, ip: u32) -> u64 {
        let h = siphash24(&SKETCH_KEY, &ip.to_be_bytes());
        let h1 = h as u32;
        let h2 = ((h >> 32) as u32) | 1;
        (0..CM_DEPTH)
            .map(|row| {
                let idx = h1.wrapping_add((row as u32).wrapping_mul(h2)) as usize % CM_WIDTH;
                self.cm[row * CM_WIDTH + idx]
            })
            .min()
            .unwrap_or(0)
    }

    /// HLL distinct-source estimate with the standard small-range
    /// (linear-counting) correction.
    pub fn distinct(&self) -> f64 {
        let m = HLL_REGISTERS as f64;
        let mut sum = 0.0;
        let mut zeros = 0u32;
        for &r in &self.hll {
            sum += 2f64.powi(-i32::from(r));
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / f64::from(zeros)).ln()
        } else {
            raw
        }
    }

    /// The top-K table sorted hottest-first (count desc, ip asc), truncated
    /// to [`TOPK_REPORT`] entries.
    pub fn top_sources(&self) -> Vec<TopEntry> {
        let mut entries = self.topk.clone();
        entries.sort_by_key(|e| (std::cmp::Reverse(e.count), e.ip));
        entries.truncate(TOPK_REPORT);
        entries
    }

    /// Shannon entropy (bits) of the source distribution, estimated from
    /// the guaranteed top-K head plus the residual mass spread uniformly
    /// over the remaining `distinct − K` estimated sources.
    pub fn entropy_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let t = self.total as f64;
        let d = self.distinct().max(1.0);
        let mut h = 0.0;
        let mut head_mass = 0u64;
        for e in &self.topk {
            let g = e.guaranteed();
            if g == 0 {
                continue;
            }
            let p = g as f64 / t;
            h += p * (t / g as f64).log2();
            head_mass += g;
        }
        let rest = self.total.saturating_sub(head_mass);
        if rest > 0 {
            let tail_sources = (d - self.topk.len() as f64).max(1.0);
            let per = (rest as f64 / tail_sources).max(1.0);
            h += (rest as f64 / t) * (t / per).log2();
        }
        h
    }

    /// Entropy normalized by `log₂(distinct)`: ≈ 1 for a uniform source
    /// population (random spoofing), well below 1 for Zipf-skewed crowds.
    pub fn entropy_norm(&self) -> f64 {
        let d = self.distinct();
        if d <= 1.5 {
            return 0.0;
        }
        (self.entropy_bits() / d.log2()).clamp(0.0, 1.0)
    }

    /// Guaranteed share of the hottest source (`0.0` when nothing has a
    /// guaranteed count — e.g. under uniform-random churn).
    pub fn top_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let top = self
            .topk
            .iter()
            .map(TopEntry::guaranteed)
            .max()
            .unwrap_or(0);
        top as f64 / self.total as f64
    }

    /// Folds `other` into `self`: count-min adds element-wise, HLL takes
    /// the register max, the top-K tables union-sum (shared keys add both
    /// `count` and `err`) and re-truncate hottest-first with a
    /// deterministic tie-break, totals add.
    pub fn merge(&mut self, other: &TrafficSketch) {
        self.total += other.total;
        for (a, b) in self.cm.iter_mut().zip(other.cm.iter()) {
            *a += b;
        }
        for (a, b) in self.hll.iter_mut().zip(other.hll.iter()) {
            *a = (*a).max(*b);
        }
        let mut union: std::collections::BTreeMap<u32, (u64, u64)> = std::collections::BTreeMap::new();
        for e in self.topk.iter().chain(other.topk.iter()) {
            let slot = union.entry(e.ip).or_insert((0, 0));
            slot.0 += e.count;
            slot.1 += e.err;
        }
        let mut merged: Vec<TopEntry> = union
            .into_iter()
            .map(|(ip, (count, err))| TopEntry { ip, count, err })
            .collect();
        merged.sort_by_key(|e| (std::cmp::Reverse(e.count), e.ip));
        merged.truncate(TOPK_CAPACITY);
        self.topk = merged;
    }

    /// The derived [`AnalyticsSnapshot`] (estimates are recomputed here, so
    /// call at refresh cadence, not per datagram).
    pub fn snapshot(&self) -> AnalyticsSnapshot {
        AnalyticsSnapshot {
            total: self.total,
            distinct: self.distinct(),
            entropy_bits: self.entropy_bits(),
            entropy_norm: self.entropy_norm(),
            top_share: self.top_share(),
            top: self.top_sources(),
        }
    }
}

/// Derived analytics at one instant: the numbers the alert rules and the
/// telemetry `top_sources` command consume.
#[derive(Debug, Clone, Default)]
pub struct AnalyticsSnapshot {
    /// Total datagrams folded into the sketch.
    pub total: u64,
    /// HLL distinct-source estimate.
    pub distinct: f64,
    /// Source-distribution Shannon entropy estimate (bits).
    pub entropy_bits: f64,
    /// Entropy normalized by `log₂(distinct)` ∈ [0, 1].
    pub entropy_norm: f64,
    /// Guaranteed traffic share of the hottest source ∈ [0, 1].
    pub top_share: f64,
    /// Hottest sources, hottest first (≤ [`TOPK_REPORT`]).
    pub top: Vec<TopEntry>,
}

impl AnalyticsSnapshot {
    /// The snapshot as one JSON object, the `top_sources` reply.
    pub fn to_json(&self) -> Json {
        let top = self.top.iter().map(|e| {
            Json::obj([
                ("ip", Ipv4Addr::from(e.ip).to_string().into()),
                ("count", e.count.into()),
                ("err", e.err.into()),
            ])
        });
        Json::obj([
            ("total", self.total.into()),
            ("distinct", Json::fixed(self.distinct, 1)),
            ("entropy_bits", Json::fixed(self.entropy_bits, 3)),
            ("entropy_norm", Json::fixed(self.entropy_norm, 3)),
            ("top_share", Json::fixed(self.top_share, 4)),
            ("top_sources", Json::Arr(top.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(n: u32) -> Ipv4Addr {
        Ipv4Addr::from(n)
    }

    #[test]
    fn empty_sketch_is_inert() {
        let s = TrafficSketch::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s.distinct(), 0.0);
        assert_eq!(s.entropy_bits(), 0.0);
        assert_eq!(s.entropy_norm(), 0.0);
        assert_eq!(s.top_share(), 0.0);
        assert!(s.top_sources().is_empty());
    }

    #[test]
    fn count_min_never_undercounts_and_topk_finds_heavy_hitter() {
        let mut s = TrafficSketch::new();
        // One heavy hitter at 60 % plus uniform noise.
        for i in 0..10_000u32 {
            s.observe(ip(0x0a00_0001));
            if i % 3 == 0 {
                s.observe(ip(0xc0a8_0000 + (i % 500)));
            }
        }
        assert!(s.estimate(0x0a00_0001) >= 10_000, "CM lower bound");
        let top = s.top_sources();
        assert_eq!(top[0].ip, 0x0a00_0001, "heavy hitter leads the table");
        let g = top[0].guaranteed();
        assert!(g <= 10_000 && g > 8_000, "guaranteed count sane: {g}");
        assert!(s.top_share() > 0.5, "top share {:.3}", s.top_share());
    }

    #[test]
    fn hll_tracks_cardinality_within_documented_bound() {
        for &n in &[50u32, 1_000, 20_000, 200_000] {
            let mut s = TrafficSketch::new();
            for i in 0..n {
                // Spread keys so low-order patterns don't correlate.
                s.observe(ip(i.wrapping_mul(2_654_435_761)));
            }
            let est = s.distinct();
            let err = (est - f64::from(n)).abs() / f64::from(n);
            assert!(err < 0.20, "n={n} est={est:.0} err={err:.3}");
        }
    }

    #[test]
    fn duplicates_do_not_inflate_cardinality() {
        let mut s = TrafficSketch::new();
        for _ in 0..5_000 {
            for i in 0..10u32 {
                s.observe(ip(i));
            }
        }
        let est = s.distinct();
        assert!((est - 10.0).abs() < 3.0, "est {est:.1}");
    }

    #[test]
    fn entropy_separates_uniform_from_skewed() {
        let mut uniform = TrafficSketch::new();
        for i in 0..50_000u32 {
            uniform.observe(ip(i.wrapping_mul(2_654_435_761)));
        }
        let mut skewed = TrafficSketch::new();
        // Zipf-ish: source k gets ~1/k of the traffic over 64 sources.
        for k in 1..=64u32 {
            for _ in 0..(50_000 / k) {
                skewed.observe(ip(k));
            }
        }
        assert!(
            uniform.entropy_norm() > 0.95,
            "uniform norm {:.3}",
            uniform.entropy_norm()
        );
        assert!(
            skewed.entropy_norm() < 0.85,
            "skewed norm {:.3}",
            skewed.entropy_norm()
        );
    }

    #[test]
    fn merge_equals_single_sketch_over_concatenated_stream() {
        let mut whole = TrafficSketch::new();
        let mut a = TrafficSketch::new();
        let mut b = TrafficSketch::new();
        for i in 0..4_000u32 {
            let addr = ip(i % 97);
            whole.observe(addr);
            if i % 2 == 0 {
                a.observe(addr);
            } else {
                b.observe(addr);
            }
        }
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        assert_eq!(a.distinct(), whole.distinct(), "HLL merge is exact");
        for i in 0..97u32 {
            assert!(a.estimate(i) >= whole.estimate(i).min(4_000 / 97));
        }
    }

    #[test]
    fn snapshot_json_is_valid() {
        let mut s = TrafficSketch::new();
        for i in 0..1_000u32 {
            s.observe(ip(i % 40));
        }
        let json = s.snapshot().to_json().to_string();
        assert!(json.contains("\"top_sources\":["));
        assert!(json.contains("\"distinct\":"));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_stream() -> impl Strategy<Value = Vec<u32>> {
            proptest::collection::vec(0u32..2_000, 0..600)
        }

        fn from_stream(stream: &[u32]) -> TrafficSketch {
            let mut s = TrafficSketch::new();
            for &k in stream {
                s.observe_key(k);
            }
            s
        }

        proptest! {
            /// Merge is commutative: A∪B and B∪A agree on every estimate
            /// surface (count-min, HLL, totals, the full top-K table).
            #[test]
            fn merge_commutes(a in arb_stream(), b in arb_stream()) {
                let (sa, sb) = (from_stream(&a), from_stream(&b));
                let mut ab = sa.clone();
                ab.merge(&sb);
                let mut ba = sb.clone();
                ba.merge(&sa);
                prop_assert_eq!(ab.total(), ba.total());
                prop_assert_eq!(ab.cm.clone(), ba.cm.clone());
                prop_assert_eq!(ab.hll, ba.hll);
                prop_assert_eq!(ab.top_sources(), ba.top_sources());
            }

            /// Count-min and HLL merge associatively bit-for-bit (they are
            /// element-wise `+` / `max`); totals too.
            #[test]
            fn cm_and_hll_merge_associate(
                a in arb_stream(),
                b in arb_stream(),
                c in arb_stream(),
            ) {
                let (sa, sb, sc) = (from_stream(&a), from_stream(&b), from_stream(&c));
                let mut left = sa.clone();
                left.merge(&sb);
                left.merge(&sc);
                let mut bc = sb.clone();
                bc.merge(&sc);
                let mut right = sa.clone();
                right.merge(&bc);
                prop_assert_eq!(left.total(), right.total());
                prop_assert_eq!(left.cm, right.cm);
                prop_assert_eq!(left.hll, right.hll);
            }

            /// Count-min never undercounts, and overcounts by at most the
            /// stream length (trivially) while the minimum row stays within
            /// the e·T/W expectation on these small streams.
            #[test]
            fn cm_estimate_bounds(stream in arb_stream()) {
                let s = from_stream(&stream);
                let mut exact = std::collections::HashMap::new();
                for &k in &stream {
                    *exact.entry(k).or_insert(0u64) += 1;
                }
                for (&k, &truth) in &exact {
                    let est = s.estimate(k);
                    prop_assert!(est >= truth, "undercount: {} < {}", est, truth);
                    prop_assert!(
                        est <= truth + stream.len() as u64,
                        "overcount beyond stream length"
                    );
                }
            }

            /// Space-saving guarantee: any source with true frequency above
            /// T/K owns a slot, and its estimate brackets the truth.
            #[test]
            fn topk_keeps_true_heavy_hitters(stream in arb_stream()) {
                let s = from_stream(&stream);
                let t = stream.len() as u64;
                let mut exact = std::collections::HashMap::new();
                for &k in &stream {
                    *exact.entry(k).or_insert(0u64) += 1;
                }
                for (&k, &truth) in &exact {
                    if truth > t / TOPK_CAPACITY as u64 {
                        let e = s.topk.iter().find(|e| e.ip == k);
                        prop_assert!(e.is_some(), "heavy hitter {} evicted", k);
                        let e = e.unwrap();
                        prop_assert!(e.count >= truth && e.guaranteed() <= truth);
                    }
                }
            }
        }
    }
}
