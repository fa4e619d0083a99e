//! The guard's cookie keys, and a memo of the verdicts they have given.
//!
//! A legitimate resolver presents the same cookie from the same address for
//! as long as the key lives, and the paper's guard recomputes
//! `MD5(source_ip ‖ key)` for it on every request (§III.E); this guard
//! recomputes its [`CookieAlg`](guardhash::cookie::CookieAlg), SipHash-2-4
//! unless configured otherwise. [`Keys`] owns
//! the [`CookieFactory`] and puts a memo of **positive** verdicts in front of
//! its three verifications — the extension cookie
//! ([`CookieFactory::verify`]), the NS-label suffix
//! ([`CookieFactory::verify_ns_suffix`]) and the `COOKIE2` offset
//! ([`CookieFactory::verify_subnet_offset`]) — so a source it has verified
//! costs one cache-line lookup, not a hash.
//!
//! * *Key.* Exactly the arguments of the factory call an entry stands in
//!   for: the scheme, the source address, and what was presented — the 16
//!   cookie bytes, the 8 hex digits folded to lower case (the factory reads
//!   them in either case), or the presented offset with the effective range
//!   for `COOKIE2`. The offset is keyed, not the destination address, so an
//!   entry depends on nothing but the factory call's own arguments.
//! * *Rules.* A hit is byte equality with an earlier verdict of `valid`, and
//!   means `valid`. A miss goes to the factory, so every `invalid` is still
//!   the factory's own and a forged cookie costs what it did plus one line
//!   lookup. Only a `valid` verdict is inserted: no volume of forgeries can
//!   fill the memo.
//! * *Proof.* A [`Verdict`] says whether a `valid` one is new evidence.
//!   [`Verdict::Fresh`] is a `valid` for a source none of whose entries the
//!   memo holds: a source proving, for the first time since the memo last
//!   held it, that it receives at the address it sends from; the guard
//!   counts those that Rate-Limiter2 admits as `proofs`. A source the memo
//!   holds gets [`Verdict::Proven`] whatever valid cookie it presents —
//!   its own again, its label in another case, the other generation's
//!   cookie, another scheme's — so one address proves itself once, however
//!   many valid cookies it holds. The count has two limits, both of
//!   sources proving again what they proved before: a rotation or restore
//!   clears the memo, so every active verified source proves itself once
//!   more; and a source evicted from its set proves itself again on its
//!   next request. Eviction takes more than [`WAYS`] active verified
//!   sources in one set, which the keyed index leaves to chance: a guard
//!   serving a few hundred verified sources has such sets, one serving more
//!   than the memo's 3 072 has many. Each re-proof is an admitted request,
//!   so Rate-Limiter2 bounds how fast one source re-proves.
//! * *Layout.* The limiter table's shape (`ratelimit.rs`): [`SETS`] sets of
//!   [`WAYS`] entries, one 64-byte line per set, [`MEMO_BYTES`] allocated
//!   once per guard. A full set replaces its ways round-robin.
//! * *Index.* One keyed SipHash-1-3 of the address picks the set, as in the
//!   limiter table, under a key salted apart from both the limiters' and
//!   the cookies'. Eviction costs a forgotten source the factory's hash
//!   once, which is what every source paid before the memo, and a second
//!   proof (above); a sender who does not know the key cannot aim sources
//!   at one set to force either.
//! * *Invalidation.* The factory is a private field and the only mutators
//!   are [`Keys::rotate`] and [`Keys::restore`], which install another
//!   generation of the guard's own seed; both clear the memo. Restoring the
//!   generation already held installs the same keys, so clearing then costs
//!   one hash per source and never a wrong verdict.
//!
//! The simulated CPU charge is not this module's: the guard still charges
//! one `cookie_cost` per verification, because the cost model is the
//! paper's per-request MD5 (Table III's `c`), whichever hash runs.

use super::schemes::Scheme;
use guardhash::cookie::{Cookie, CookieAlg, CookieFactory, SecretKey, COOKIE_LEN, NS_COOKIE_BYTES};
use guardhash::siphash::siphash13_u32;
use std::net::Ipv4Addr;
use std::ops::Deref;

/// Entries per set: three `(address, presented, scheme)` triples and the
/// victim pointer are exactly one cache line.
const WAYS: usize = 3;

/// Sets per memo (a power of two: the set is the hash's top bits). 3 072
/// entries: three times `perf`'s 1 024 verified sources per guard.
const SETS: usize = 1024;

/// Memory of one guard's memo.
const MEMO_BYTES: usize = SETS * std::mem::size_of::<Set>();

const _: () = assert!(std::mem::size_of::<Set>() == 64 && SETS.is_power_of_two());
const _: () = assert!(MEMO_BYTES == 64 * 1024);

/// One set: way `w` holds `presented[w]` from `src[w]` under `scheme[w]`
/// (0: empty); `victim` is the way the next insertion takes.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Set {
    src: [u32; WAYS],
    presented: [[u8; COOKIE_LEN]; WAYS],
    scheme: [u8; WAYS],
    victim: u8,
}

const EMPTY: Set = Set {
    src: [0; WAYS],
    presented: [[0; COOKIE_LEN]; WAYS],
    scheme: [0; WAYS],
    victim: 0,
};

/// The SipHash key of the memo's index under `seed`: salted, so it shares
/// no bytes with the cookie or limiter keys derived from the same seed.
fn index_key(seed: u64) -> [u8; 16] {
    let material = SecretKey::from_seed(seed ^ 0x3E30_5E75_1DE8);
    std::array::from_fn(|i| material.as_bytes().get(i).copied().unwrap_or(0))
}

/// The set `src` lives in under `key`.
#[inline]
fn set_of(key: &[u8; 16], src: u32) -> usize {
    siphash13_u32(key, src) as usize & (SETS - 1)
}

/// A scheme's tag in [`Set::scheme`]; 0 marks an empty way.
fn tag(scheme: Scheme) -> u8 {
    match scheme {
        Scheme::Ext => 1,
        Scheme::NsLabel => 2,
        Scheme::Cookie2 => 3,
    }
}

/// The positive verdicts, as the module docs lay them out.
struct Memo {
    sets: Vec<Set>,
    /// The index's SipHash key.
    key: [u8; 16],
}

/// What the memo holds of one verification.
#[derive(PartialEq)]
enum Held {
    /// The very entry: the factory said `valid` to it before.
    Entry,
    /// Another entry of the same source.
    Source,
    Nothing,
}

impl Memo {
    fn new(seed: u64) -> Memo {
        Memo { sets: vec![EMPTY; SETS], key: index_key(seed) }
    }

    #[inline]
    fn holds(&self, tag: u8, src: u32, presented: &[u8; COOKIE_LEN]) -> Held {
        let Some(set) = self.sets.get(set_of(&self.key, src)) else {
            return Held::Nothing;
        };
        let mut held = Held::Nothing;
        for ((&s, &a), p) in set.scheme.iter().zip(&set.src).zip(&set.presented) {
            if s != 0 && a == src {
                if s == tag && p == presented {
                    return Held::Entry;
                }
                held = Held::Source;
            }
        }
        held
    }

    fn insert(&mut self, tag: u8, src: u32, presented: [u8; COOKIE_LEN]) {
        let Some(set) = self.sets.get_mut(set_of(&self.key, src)) else {
            return;
        };
        let way = usize::from(set.victim);
        let slot = (set.scheme.get_mut(way), set.src.get_mut(way), set.presented.get_mut(way));
        if let (Some(s), Some(a), Some(p)) = slot {
            (*s, *a, *p) = (tag, src, presented);
        }
        set.victim = ((way + 1) % WAYS) as u8;
    }

    fn clear(&mut self) {
        self.sets.fill(EMPTY);
    }
}

/// What a verification found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Verdict {
    /// The factory's `invalid`.
    Invalid,
    /// `valid` for a source the memo holds: it proved its address before.
    Proven,
    /// `valid` for a source the memo does not hold: it proves its address
    /// now.
    Fresh,
}

impl Verdict {
    pub(super) fn valid(self) -> bool {
        self != Verdict::Invalid
    }
}

/// The guard's [`CookieFactory`] and the memo of its positive verdicts.
/// Reads go to the factory through `Deref`; the three verifications are
/// this type's own, and it is the only thing that can change the key.
pub(super) struct Keys {
    factory: CookieFactory,
    /// What every generation's keys derive from.
    seed: u64,
    alg: CookieAlg,
    memo: Memo,
}

impl Deref for Keys {
    type Target = CookieFactory;

    fn deref(&self) -> &CookieFactory {
        &self.factory
    }
}

impl Keys {
    /// Generation 0 of `seed`, hashing with `alg`.
    pub(super) fn new(seed: u64, alg: CookieAlg) -> Keys {
        Keys { factory: CookieFactory::at_generation(seed, 0, alg), seed, alg, memo: Memo::new(seed) }
    }

    /// The memo set `ip` lives in.
    pub(super) fn set_of(&self, ip: Ipv4Addr) -> usize {
        set_of(&self.memo.key, u32::from(ip))
    }

    /// [`CookieFactory::rotate`]; forgets every verdict.
    pub(super) fn rotate(&mut self) {
        self.factory.rotate();
        self.memo.clear();
    }

    /// Installs `generation`'s keys (a checkpoint's or a replicated
    /// snapshot's generation); forgets every verdict.
    pub(super) fn restore(&mut self, generation: u64) {
        self.factory = CookieFactory::at_generation(self.seed, generation, self.alg);
        self.memo.clear();
    }

    /// [`CookieFactory::verify`]'s verdict.
    pub(super) fn verify(&mut self, ip: Ipv4Addr, presented: &Cookie) -> Verdict {
        self.memoized(Scheme::Ext, ip, presented.0, |f| f.verify(ip, presented))
    }

    /// [`CookieFactory::verify_ns_suffix`]'s verdict.
    pub(super) fn verify_ns_suffix(&mut self, ip: Ipv4Addr, hex_suffix: &str) -> Verdict {
        let Ok(digits) = <[u8; 2 * NS_COOKIE_BYTES]>::try_from(hex_suffix.as_bytes()) else {
            // Not eight digits: the factory says `invalid` whatever the key.
            let valid = self.factory.verify_ns_suffix(ip, hex_suffix);
            debug_assert!(!valid);
            return Verdict::Invalid;
        };
        let presented = std::array::from_fn(|i| digits.get(i).map_or(0, u8::to_ascii_lowercase));
        self.memoized(Scheme::NsLabel, ip, presented, |f| f.verify_ns_suffix(ip, hex_suffix))
    }

    /// [`CookieFactory::verify_subnet_offset`]'s verdict.
    pub(super) fn verify_subnet_offset(&mut self, ip: Ipv4Addr, presented_offset: u32, range: u32) -> Verdict {
        let mut presented = [0; COOKIE_LEN];
        let bytes = presented_offset.to_le_bytes().into_iter().chain(range.to_le_bytes());
        for (slot, byte) in presented.iter_mut().zip(bytes) {
            *slot = byte;
        }
        self.memoized(Scheme::Cookie2, ip, presented, |f| {
            f.verify_subnet_offset(ip, presented_offset, range)
        })
    }

    #[inline]
    fn memoized(
        &mut self,
        scheme: Scheme,
        ip: Ipv4Addr,
        presented: [u8; COOKIE_LEN],
        check: impl FnOnce(&CookieFactory) -> bool,
    ) -> Verdict {
        let (tag, src) = (tag(scheme), u32::from(ip));
        let held = self.memo.holds(tag, src, &presented);
        if held == Held::Entry {
            return Verdict::Proven;
        }
        if !check(&self.factory) {
            return Verdict::Invalid;
        }
        self.memo.insert(tag, src, presented);
        if held == Held::Source {
            Verdict::Proven
        } else {
            Verdict::Fresh
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Entries in use.
    fn filled(keys: &Keys) -> usize {
        keys.memo.sets.iter().flat_map(|set| set.scheme).filter(|&s| s != 0).count()
    }

    #[test]
    fn forgeries_insert_nothing_and_a_memoized_source_still_rejects_one() {
        let mut keys = Keys::new(3, CookieAlg::default());
        // Each source's own cookie with one bit of the four bytes every
        // encoding reads flipped (never the generation bit), and a wrong
        // `COOKIE2` offset.
        for n in 0..4_096u32 {
            let src = Ipv4Addr::from(0x0B00_0000 + n);
            let mut forged = keys.generate(src);
            forged.0[(n % 4) as usize] ^= 1 << (n % 7);
            assert_eq!(keys.verify(src, &forged), Verdict::Invalid);
            assert_eq!(keys.verify_ns_suffix(src, &forged.ns_label_suffix()), Verdict::Invalid);
            let wrong = (keys.generate_subnet_offset(src, 253) + 1 + n % 252) % 253;
            assert_eq!(keys.verify_subnet_offset(src, wrong, 253), Verdict::Invalid);
        }
        assert_eq!(filled(&keys), 0, "a forgery was memoized");

        let src = Ipv4Addr::new(10, 0, 0, 1);
        let cookie = keys.generate(src);
        assert!(keys.verify(src, &cookie).valid() && keys.verify(src, &cookie).valid());
        assert_eq!(filled(&keys), 1);
        let mut forged = cookie;
        forged.0[15] ^= 1;
        assert!(!keys.verify(src, &forged).valid(), "a memoized source's forgery passed");
        assert!(!keys.verify(Ipv4Addr::new(10, 0, 0, 2), &cookie).valid(), "another source's cookie passed");
        assert_eq!(filled(&keys), 1);
    }

    /// A source proves its address once while the memo holds it, whatever
    /// valid cookie it presents: its own again, its label in another case,
    /// the other generation's, another scheme's — more entries than a set
    /// has ways. A forgery is no proof, and a restore (which forgets every
    /// verdict) makes the next `valid` fresh.
    #[test]
    fn a_source_proves_its_address_once_whatever_it_presents() {
        let mut keys = Keys::new(5, CookieAlg::default());
        let src = Ipv4Addr::new(10, 0, 0, 4);
        let minted = |keys: &Keys| (keys.generate(src), keys.generate_subnet_offset(src, 253));
        let old = minted(&keys);
        keys.rotate();
        let new = minted(&keys);
        let mut forged = new.0;
        forged.0[0] ^= 1;
        for _ in 0..2 {
            assert_eq!(keys.verify(src, &forged), Verdict::Invalid);
            assert_eq!(keys.verify_ns_suffix(src, &forged.ns_label_suffix()), Verdict::Invalid);
            assert_eq!(keys.verify_subnet_offset(src, (new.1 + 1) % 253, 253), Verdict::Invalid);
            let mut fresh = 0;
            for (cookie, offset) in [new, old, new, old] {
                let hex = cookie.ns_label_suffix();
                for verdict in [
                    keys.verify(src, &cookie),
                    keys.verify_ns_suffix(src, &hex),
                    keys.verify_ns_suffix(src, &hex.to_ascii_uppercase()),
                    keys.verify_subnet_offset(src, offset, 253),
                ] {
                    assert!(verdict.valid());
                    fresh += usize::from(verdict == Verdict::Fresh);
                }
            }
            assert_eq!(fresh, 1);
            keys.restore(1);
        }
    }

    /// The factory reads a label's digits in either case, so every case
    /// variant of a proven suffix is a hit on its one entry.
    #[test]
    fn a_case_variant_of_a_proven_label_is_a_memo_hit() {
        let mut keys = Keys::new(6, CookieAlg::default());
        let src = Ipv4Addr::new(10, 0, 0, 6);
        let hex = keys.generate(src).ns_label_suffix();
        assert_eq!(keys.verify_ns_suffix(src, &hex), Verdict::Fresh);
        for variant in 1..256u32 {
            let mut cased = hex.clone().into_bytes();
            for (i, digit) in cased.iter_mut().enumerate() {
                if variant >> i & 1 == 1 {
                    digit.make_ascii_uppercase();
                }
            }
            let cased = String::from_utf8(cased).expect("hex digits");
            assert_eq!(keys.verify_ns_suffix(src, &cased), Verdict::Proven, "{cased}");
        }
        assert_eq!(filled(&keys), 1, "a case variant took an entry of its own");
    }

    /// A source whose generation a restore left behind stops verifying at
    /// once; one restored to the generation it holds keeps verifying.
    #[test]
    fn restoring_another_generation_forgets_every_verdict() {
        let mut keys = Keys::new(1, CookieAlg::default());
        let src = Ipv4Addr::new(10, 0, 0, 3);
        let cookie = keys.generate(src);
        assert!(keys.verify(src, &cookie).valid());
        keys.restore(0);
        assert!(keys.verify(src, &cookie).valid());
        keys.restore(2);
        assert_eq!(keys.generation(), 2);
        assert!(!keys.verify(src, &cookie).valid());
    }

    /// One step of the differential test.
    #[derive(Debug)]
    enum Step {
        /// Present, from `pool[from]`, what the key state `minted` steps
        /// back issued to `pool[owner]` under `scheme` (0 ext, 1 NS label,
        /// 2 `COOKIE2`), one byte flipped when `forged`, the label's hex in
        /// upper case when `upper`.
        Check { scheme: u8, minted: usize, owner: usize, from: usize, forged: Option<u64>, upper: bool },
        Rotate,
        /// The keys of another generation, the current one included.
        Restore(u64),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let who = (0usize..10, 0usize..10, any::<bool>());
        let check = (0u8..3, 0usize..4, who, 0u8..4, any::<bool>());
        (0u8..18, check, any::<u64>()).prop_map(|(kind, check, seed)| {
            let (scheme, minted, (owner, other, own), forge, upper) = check;
            match kind {
                0 => Step::Rotate,
                // Mostly near generation 0, where the minted cookies are.
                1 => Step::Restore(if seed % 8 == 0 { seed } else { seed % 4 }),
                // Half from the owner itself: the hits worth testing.
                _ => Step::Check {
                    scheme,
                    minted,
                    owner,
                    from: if own { owner } else { other },
                    forged: (forge == 0).then_some(seed),
                    upper,
                },
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every step, [`Keys`] says what a bare factory holding the
        /// same key state says.
        #[test]
        fn the_memo_never_disagrees_with_the_factory(steps in proptest::collection::vec(arb_step(), 1..300)) {
            // Five sources that share a set (more than it has ways), five
            // spread out.
            let key = index_key(11);
            let shared = set_of(&key, 0x0A00_0000);
            let mut pool: Vec<Ipv4Addr> =
                (0x0A00_0000u32..).filter(|&a| set_of(&key, a) == shared).take(5).map(Ipv4Addr::from).collect();
            pool.extend((0..5).map(|i| Ipv4Addr::from(0xC000_0200 + i * 7919)));
            let range = 253;
            let mut keys = Keys::new(11, CookieAlg::default());
            let mut bare = CookieFactory::from_seed(11);
            let mut states = vec![bare.clone()];
            for step in steps {
                match step {
                    Step::Rotate => {
                        keys.rotate();
                        bare.rotate();
                        states.push(bare.clone());
                    }
                    Step::Restore(generation) => {
                        keys.restore(generation);
                        bare = CookieFactory::at_generation(11, generation, CookieAlg::default());
                        states.push(bare.clone());
                    }
                    Step::Check { scheme, minted, owner, from, forged, upper } => {
                        let issuer = &states[states.len() - 1 - minted.min(states.len() - 1)];
                        let (owner, from) = (pool[owner], pool[from]);
                        let mut cookie = issuer.generate(owner);
                        if let Some(seed) = forged {
                            cookie.0[(seed % 4) as usize] ^= (seed >> 8) as u8 | 1;
                        }
                        let (got, want) = match scheme {
                            0 => (keys.verify(from, &cookie).valid(), bare.verify(from, &cookie)),
                            1 => {
                                let hex = cookie.ns_label_suffix();
                                let hex = if upper { hex.to_ascii_uppercase() } else { hex };
                                (keys.verify_ns_suffix(from, &hex).valid(), bare.verify_ns_suffix(from, &hex))
                            }
                            _ => {
                                let y = issuer.generate_subnet_offset(owner, range);
                                let y = if forged.is_some() { (y + 1) % range } else { y };
                                (keys.verify_subnet_offset(from, y, range).valid(), bare.verify_subnet_offset(from, y, range))
                            }
                        };
                        prop_assert_eq!(got, want, "{:?} from {} for {}", scheme, from, owner);
                    }
                }
            }
        }
    }
}
