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
//!   cookie bytes, the 8 hex digits as received (case included), or the
//!   presented offset with the effective range for `COOKIE2`. The offset is
//!   keyed, not the destination address, so an entry depends on nothing
//!   but the factory call's own arguments.
//! * *Rules.* A hit is byte equality with an earlier verdict of `valid`, and
//!   means `valid`. A miss goes to the factory, so every `invalid` is still
//!   the factory's own and a forged cookie costs what it did plus one line
//!   lookup. Only a `valid` verdict is inserted: no volume of forgeries can
//!   fill the memo.
//! * *Layout.* The limiter table's shape (`ratelimit.rs`): [`SETS`] sets of
//!   [`WAYS`] entries, one 64-byte line per set, [`MEMO_BYTES`] allocated
//!   once per guard. A full set replaces its ways round-robin.
//! * *Index.* The set is a multiply-shift of the address, unkeyed. Eviction
//!   loses nothing — a forgotten source pays the factory's hash once, which
//!   is what every source paid before the memo — so aiming sources at one
//!   set (which takes cookies for addresses one really holds) buys an
//!   attacker nothing a keyed index would deny them.
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
use guardhash::cookie::{Cookie, CookieAlg, CookieFactory, COOKIE_LEN, NS_COOKIE_BYTES};
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

/// The set `src` lives in: Fibonacci multiply-shift, top bits.
#[inline]
fn set_of(src: u32) -> usize {
    (src.wrapping_mul(0x9E37_79B9) >> (u32::BITS - SETS.trailing_zeros())) as usize
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
}

impl Memo {
    fn new() -> Memo {
        Memo { sets: vec![EMPTY; SETS] }
    }

    #[inline]
    fn holds(&self, tag: u8, src: u32, presented: &[u8; COOKIE_LEN]) -> bool {
        self.sets.get(set_of(src)).is_some_and(|set| {
            let mut ways = set.scheme.iter().zip(&set.src).zip(&set.presented);
            ways.any(|((&s, &a), p)| s == tag && a == src && p == presented)
        })
    }

    fn insert(&mut self, tag: u8, src: u32, presented: [u8; COOKIE_LEN]) {
        let Some(set) = self.sets.get_mut(set_of(src)) else {
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
        Keys { factory: CookieFactory::at_generation(seed, 0, alg), seed, alg, memo: Memo::new() }
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
    pub(super) fn verify(&mut self, ip: Ipv4Addr, presented: &Cookie) -> bool {
        self.memoized(Scheme::Ext, ip, presented.0, |f| f.verify(ip, presented))
    }

    /// [`CookieFactory::verify_ns_suffix`]'s verdict.
    pub(super) fn verify_ns_suffix(&mut self, ip: Ipv4Addr, hex_suffix: &str) -> bool {
        let Ok(digits) = <[u8; 2 * NS_COOKIE_BYTES]>::try_from(hex_suffix.as_bytes()) else {
            // Not eight digits: the factory says `invalid` whatever the key.
            return self.factory.verify_ns_suffix(ip, hex_suffix);
        };
        let presented = std::array::from_fn(|i| digits.get(i).copied().unwrap_or(0));
        self.memoized(Scheme::NsLabel, ip, presented, |f| f.verify_ns_suffix(ip, hex_suffix))
    }

    /// [`CookieFactory::verify_subnet_offset`]'s verdict.
    pub(super) fn verify_subnet_offset(&mut self, ip: Ipv4Addr, presented_offset: u32, range: u32) -> bool {
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
    ) -> bool {
        let (tag, src) = (tag(scheme), u32::from(ip));
        if self.memo.holds(tag, src, &presented) {
            return true;
        }
        let valid = check(&self.factory);
        if valid {
            self.memo.insert(tag, src, presented);
        }
        valid
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
            assert!(!keys.verify(src, &forged));
            assert!(!keys.verify_ns_suffix(src, &forged.ns_label_suffix()));
            let wrong = (keys.generate_subnet_offset(src, 253) + 1 + n % 252) % 253;
            assert!(!keys.verify_subnet_offset(src, wrong, 253));
        }
        assert_eq!(filled(&keys), 0, "a forgery was memoized");

        let src = Ipv4Addr::new(10, 0, 0, 1);
        let cookie = keys.generate(src);
        assert!(keys.verify(src, &cookie) && keys.verify(src, &cookie));
        assert_eq!(filled(&keys), 1);
        let mut forged = cookie;
        forged.0[15] ^= 1;
        assert!(!keys.verify(src, &forged), "a memoized source's forgery passed");
        assert!(!keys.verify(Ipv4Addr::new(10, 0, 0, 2), &cookie), "another source's cookie passed");
        assert_eq!(filled(&keys), 1);
    }

    /// A source whose generation a restore left behind stops verifying at
    /// once; one restored to the generation it holds keeps verifying.
    #[test]
    fn restoring_another_generation_forgets_every_verdict() {
        let mut keys = Keys::new(1, CookieAlg::default());
        let src = Ipv4Addr::new(10, 0, 0, 3);
        let cookie = keys.generate(src);
        assert!(keys.verify(src, &cookie));
        keys.restore(0);
        assert!(keys.verify(src, &cookie));
        keys.restore(2);
        assert_eq!(keys.generation(), 2);
        assert!(!keys.verify(src, &cookie));
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
            let shared = set_of(0x0A00_0000);
            let mut pool: Vec<Ipv4Addr> =
                (0x0A00_0000u32..).filter(|&a| set_of(a) == shared).take(5).map(Ipv4Addr::from).collect();
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
                            0 => (keys.verify(from, &cookie), bare.verify(from, &cookie)),
                            1 => {
                                let hex = cookie.ns_label_suffix();
                                let hex = if upper { hex.to_ascii_uppercase() } else { hex };
                                (keys.verify_ns_suffix(from, &hex), bare.verify_ns_suffix(from, &hex))
                            }
                            _ => {
                                let y = issuer.generate_subnet_offset(owner, range);
                                let y = if forged.is_some() { (y + 1) % range } else { y };
                                (keys.verify_subnet_offset(from, y, range), bare.verify_subnet_offset(from, y, range))
                            }
                        };
                        prop_assert_eq!(got, want, "{:?} from {} for {}", scheme, from, owner);
                    }
                }
            }
        }
    }
}
