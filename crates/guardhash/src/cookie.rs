//! The DNS Guard cookie construction (paper section III.E).
//!
//! A guard holds a 76-byte secret key. For a request whose source address is
//! `source_ip`, the paper's cookie is `c = MD5(source_ip || key)` — 80 bytes
//! of input producing a 16-byte cookie. A guard derives `c` with the keyed
//! hash its [`CookieAlg`] names: SipHash-2-4 by default, MD5 where a world
//! reproduces the paper's construction. Three encodings of `c` are used by
//! the three spoof detection schemes, whichever hash produced it:
//!
//! * **NS-name encoding** — a 2-byte prefix (`PR`) plus the first 4 bytes of
//!   `c` in hex, yielding a 10-byte DNS label such as `PRa1b2c3d4`
//!   (cookie range 2^32);
//! * **subnet-IP encoding** — `y = first_4_bytes(c) mod R_y`, placed in the
//!   host part of the guarded subnet (cookie range `R_y`);
//! * **full encoding** — all 16 bytes, carried in the TXT RData of the
//!   modified-DNS scheme (cookie range 2^128).
//!
//! Weekly key rotation overwrites the first bit of `c` with a generation
//! indicator so verifying the full or the NS-name encoding needs exactly one
//! cookie hash (section III.E). The subnet-IP encoding cannot carry the bit,
//! so during the grace window an offset that does not match under the
//! current key is tried under the previous one as well: two hashes.

use crate::md5::{self, to_hex, Digest, BLOCK_LEN};
use crate::siphash::siphash24;
use std::fmt;
use std::net::Ipv4Addr;

/// Length in bytes of a guard secret key (fixed by the paper: 76 bytes, so
/// that key ‖ IPv4 address is exactly 80 bytes).
pub const KEY_LEN: usize = 76;

/// Length in bytes of a full cookie (one MD5 digest, or two SipHash-2-4
/// outputs).
pub const COOKIE_LEN: usize = 16;

/// The label prefix that marks a fabricated, cookie-carrying NS name.
pub const NS_PREFIX: &str = "PR";

/// Number of cookie bytes hex-encoded into a fabricated NS name.
pub const NS_COOKIE_BYTES: usize = 4;

/// The keyed hash a guard derives its cookies with.
///
/// [`CookieAlg::SipHash24`], the default, is `SipHash24(ip || 0) ||
/// SipHash24(ip || 1)` keyed by the leading 16 key bytes (a 128-bit key);
/// SipHash-2-4 is the PRF RFC 9018 names for DNS server cookies, and it is
/// cheaper per cookie than MD5. [`CookieAlg::Md5`] is the paper's
/// construction (`MD5(ip || 76-byte key)`), selected explicitly where a
/// world reproduces it. Either way, any guard site holding the same key
/// validates the same cookies; neither is the RFC 9018 server-cookie
/// layout, so no other DNS implementation can. Both feed the same three
/// encodings (NS-label, subnet-IP, full), which truncate the cookie the
/// same way, and the same generation-bit rotation protocol. The simulated
/// charge per cookie operation is the paper's `c` (Table III) whichever
/// hash runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CookieAlg {
    /// The paper's `MD5(source_ip || key)` cookie.
    Md5,
    /// SipHash-2-4 over `source_ip` keyed by the leading 16 key bytes.
    #[default]
    SipHash24,
}

/// A 16-byte spoof-detection cookie.
///
/// # Examples
///
/// ```
/// use guardhash::cookie::{Cookie, SecretKey};
/// use std::net::Ipv4Addr;
///
/// let key = SecretKey::from_seed(7);
/// let c = Cookie::compute(&key, Ipv4Addr::new(10, 0, 0, 1));
/// assert!(c.matches_prefix(&c.ns_label_suffix()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cookie(pub [u8; COOKIE_LEN]);

impl fmt::Debug for Cookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cookie({})", to_hex(&self.0))
    }
}

impl fmt::Display for Cookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_hex(&self.0))
    }
}

impl Cookie {
    /// Computes `MD5(source_ip || key)` — the raw cookie for `ip`: the
    /// address goes into word 0 of the key's first block, and the two blocks
    /// are compressed.
    pub fn compute(key: &SecretKey, ip: Ipv4Addr) -> Self {
        let mut first = key.schedule[0];
        first[0] = u32::from_le_bytes(ip.octets());
        let mut state = md5::INIT;
        md5::compress(&mut state, &first);
        md5::compress(&mut state, &key.schedule[1]);
        Cookie(md5::digest_of(&state))
    }

    /// Computes the raw cookie for `ip` under the selected algorithm.
    ///
    /// The SipHash variant keys SipHash-2-4 with the leading 16 bytes of
    /// the guard secret and expands two domain-separated tags
    /// (`ip || 0` and `ip || 1`) into the 16-byte cookie, so all three
    /// paper encodings keep their full width.
    pub fn compute_with(alg: CookieAlg, key: &SecretKey, ip: Ipv4Addr) -> Self {
        match alg {
            CookieAlg::Md5 => Cookie::compute(key, ip),
            CookieAlg::SipHash24 => {
                let k: [u8; 16] = key.as_bytes()[..16].try_into().expect("16-byte sip key");
                let mut msg = [0u8; 5];
                msg[..4].copy_from_slice(&ip.octets());
                let mut out = [0u8; COOKIE_LEN];
                msg[4] = 0;
                out[..8].copy_from_slice(&siphash24(&k, &msg).to_le_bytes());
                msg[4] = 1;
                out[8..].copy_from_slice(&siphash24(&k, &msg).to_le_bytes());
                Cookie(out)
            }
        }
    }

    /// The first 4 cookie bytes as a big-endian integer; the quantity the
    /// paper calls "the first 4 bytes of cookie c".
    pub fn head(&self) -> u32 {
        u32::from_be_bytes([self.0[0], self.0[1], self.0[2], self.0[3]])
    }

    /// The first [`NS_COOKIE_BYTES`] bytes as lowercase hex digits — the
    /// variable part of a fabricated NS label (`a1b2c3d4` in `PRa1b2c3d4`),
    /// without touching the heap.
    pub fn ns_label_hex(&self) -> [u8; 2 * NS_COOKIE_BYTES] {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        std::array::from_fn(|i| {
            let byte = self.0[i / 2];
            HEX[(if i % 2 == 0 { byte >> 4 } else { byte & 0x0f }) as usize]
        })
    }

    /// [`Cookie::ns_label_hex`] as a `String`.
    pub fn ns_label_suffix(&self) -> String {
        self.ns_label_hex().iter().map(|&b| b as char).collect()
    }

    /// Checks a hex suffix (as extracted from an incoming NS-name label)
    /// against this cookie, ignoring the case of the digits. Comparison is
    /// over the encoded prefix only, mirroring the truncated 2^32 cookie
    /// range of the NS-name scheme.
    pub fn matches_prefix(&self, hex_suffix: &str) -> bool {
        hex_suffix.as_bytes().eq_ignore_ascii_case(&self.ns_label_hex())
    }

    /// Subnet-IP encoding: `y = head mod range`, returned as the host offset
    /// used to build `COOKIE2` (e.g. `1.2.3.y` in a /24).
    ///
    /// # Panics
    ///
    /// Panics if `range` is zero.
    pub fn subnet_offset(&self, range: u32) -> u32 {
        assert!(range > 0, "subnet cookie range must be non-zero");
        self.head() % range
    }

    /// Returns a copy with the most significant bit of byte 0 forced to
    /// `generation & 1` — the rotation indicator of section III.E.
    pub fn with_generation_bit(mut self, generation: u64) -> Self {
        if generation & 1 == 1 {
            self.0[0] |= 0x80;
        } else {
            self.0[0] &= 0x7f;
        }
        self
    }

    /// Reads the generation indicator bit.
    pub fn generation_bit(&self) -> u8 {
        self.0[0] >> 7
    }
}

impl AsRef<[u8]> for Cookie {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Digest> for Cookie {
    fn from(d: Digest) -> Self {
        Cookie(d)
    }
}

/// A 76-byte guard secret key.
///
/// Only the guard itself ever needs the key; there is no distribution
/// problem. Construct one from explicit bytes or deterministically from a
/// seed (useful for reproducible simulations).
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    bytes: [u8; KEY_LEN],
    /// The two blocks of `address ‖ key` after RFC 1321 padding, as the
    /// message words MD5 reads. Only word 0 of the first block (the address)
    /// differs between cookies, so everything else is laid out once per key.
    /// Key material, like `bytes`.
    schedule: [[u32; 16]; 2],
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(redacted, {KEY_LEN} bytes)")
    }
}

impl SecretKey {
    /// Wraps explicit key bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        // address (4, left zero here) ‖ key (76) ‖ 0x80 ‖ zeros ‖ bit length.
        let mut padded = [0u8; 2 * BLOCK_LEN];
        padded[4..4 + KEY_LEN].copy_from_slice(&bytes);
        padded[4 + KEY_LEN] = 0x80;
        let bit_len = 8 * (4 + KEY_LEN) as u64;
        padded[2 * BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_le_bytes());
        let (first, last) = padded.split_at(BLOCK_LEN);
        let block = |half: &[u8]| md5::words(half.try_into().expect("half of two blocks"));
        SecretKey {
            bytes,
            schedule: [block(first), block(last)],
        }
    }

    /// Derives a key deterministically from `seed` using splitmix64. Suitable
    /// for simulations and tests; a production deployment would draw from the
    /// OS entropy pool instead.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut bytes = [0u8; KEY_LEN];
        for chunk in bytes.chunks_mut(8) {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let le = z.to_le_bytes();
            chunk.copy_from_slice(&le[..chunk.len()]);
        }
        SecretKey::from_bytes(bytes)
    }

    /// The key of rotation generation `generation` under `seed`, generation
    /// 0's being [`SecretKey::from_seed`]'s. A pure function of its two
    /// arguments: every holder of `seed` agrees on every generation's key
    /// without exchanging one.
    pub fn for_generation(seed: u64, generation: u64) -> Self {
        SecretKey::from_seed(seed ^ generation.wrapping_mul(0x2545_F491_4F6C_DD1D))
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.bytes
    }
}

/// Cookie generator/verifier with the paper's weekly key-rotation protocol,
/// hashing with its [`CookieAlg`] (the default, unless
/// [`CookieFactory::with_alg`] names another).
///
/// Cookies issued under generation *g* carry `g mod 2` in their first bit.
/// While generation *g+1* is current, cookies bearing the previous parity are
/// verified against the previous key, so verifying a full or NS-label cookie
/// costs exactly one cookie hash; a subnet offset has no bit to read, and one
/// that does not match under the current key costs a second
/// ([`CookieFactory::verify_subnet_offset`]). After a further rotation the
/// old generation expires naturally with the cookie TTL.
///
/// # Examples
///
/// ```
/// use guardhash::cookie::CookieFactory;
/// use std::net::Ipv4Addr;
///
/// let mut f = CookieFactory::from_seed(1);
/// let ip = Ipv4Addr::new(192, 0, 2, 7);
/// let c = f.generate(ip);
/// assert!(f.verify(ip, &c));
/// f.rotate();
/// assert!(f.verify(ip, &c), "previous-generation cookie still valid");
/// f.rotate();
/// assert!(!f.verify(ip, &c), "two rotations expire the cookie");
/// ```
#[derive(Debug, Clone)]
pub struct CookieFactory {
    current: SecretKey,
    previous: Option<SecretKey>,
    generation: u64,
    seed: u64,
    alg: CookieAlg,
}

impl CookieFactory {
    /// Creates a factory whose generation-0 key derives from `seed`, hashing
    /// with the default [`CookieAlg`].
    pub fn from_seed(seed: u64) -> Self {
        CookieFactory::at_generation(seed, 0, CookieAlg::default())
    }

    /// The factory of `seed` at rotation generation `generation`, hashing
    /// with `alg`: the current key is that generation's
    /// ([`SecretKey::for_generation`]) and, past generation 0, the previous
    /// one keeps the grace window. Equal to a factory from the same seed
    /// rotated `generation` times, in O(1), so a generation number is all a
    /// restore or another site needs.
    pub fn at_generation(seed: u64, generation: u64, alg: CookieAlg) -> Self {
        CookieFactory {
            current: SecretKey::for_generation(seed, generation),
            previous: generation.checked_sub(1).map(|g| SecretKey::for_generation(seed, g)),
            generation,
            seed,
            alg,
        }
    }

    /// Selects the cookie algorithm (builder style; default
    /// [`CookieAlg::default`]).
    pub fn with_alg(mut self, alg: CookieAlg) -> Self {
        self.alg = alg;
        self
    }

    /// Current key generation (increments on [`CookieFactory::rotate`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Issues the cookie for `ip` under the current key, generation bit set.
    pub fn generate(&self, ip: Ipv4Addr) -> Cookie {
        Cookie::compute_with(self.alg, &self.current, ip).with_generation_bit(self.generation)
    }

    /// Verifies a presented 16-byte cookie for `ip`.
    ///
    /// The generation bit selects which key to check against, so exactly one
    /// hash is computed per verification regardless of rotation state.
    pub fn verify(&self, ip: Ipv4Addr, presented: &Cookie) -> bool {
        match self.key_for_bit(presented.generation_bit()) {
            Some((key, generation)) => {
                Cookie::compute_with(self.alg, key, ip).with_generation_bit(generation)
                    == *presented
            }
            None => false,
        }
    }

    /// Verifies the truncated hex form used in fabricated NS names.
    pub fn verify_ns_suffix(&self, ip: Ipv4Addr, hex_suffix: &str) -> bool {
        // The generation bit lives in the first hex digit, which is part of
        // the suffix, so the same bit-dispatch applies.
        let Some(first) = hex_suffix.chars().next() else {
            return false;
        };
        let Some(digit) = first.to_digit(16) else {
            return false;
        };
        let bit = (digit >> 3) as u8;
        match self.key_for_bit(bit) {
            Some((key, generation)) => Cookie::compute_with(self.alg, key, ip)
                .with_generation_bit(generation)
                .matches_prefix(hex_suffix),
            None => false,
        }
    }

    /// Verifies the subnet-IP form (`COOKIE2`): does `presented_offset` equal
    /// `head(c) mod range` under either live key?
    ///
    /// The subnet form cannot carry a generation bit (it is folded by the
    /// modulo), so both live keys are tried — the paper accepts this because
    /// the fabricated-IP variant is already the weakest encoding.
    pub fn verify_subnet_offset(&self, ip: Ipv4Addr, presented_offset: u32, range: u32) -> bool {
        if Cookie::compute_with(self.alg, &self.current, ip).subnet_offset(range)
            == presented_offset
        {
            return true;
        }
        if let Some(prev) = &self.previous {
            return Cookie::compute_with(self.alg, prev, ip).subnet_offset(range)
                == presented_offset;
        }
        false
    }

    /// Issues the subnet-IP cookie offset for `ip` under the current key.
    ///
    /// The offset derives from the *raw* cookie (no generation bit — the
    /// modulo would fold it away anyway), matching what
    /// [`CookieFactory::verify_subnet_offset`] checks.
    pub fn generate_subnet_offset(&self, ip: Ipv4Addr, range: u32) -> u32 {
        Cookie::compute_with(self.alg, &self.current, ip).subnet_offset(range)
    }

    /// Rotates to the next generation's key, retaining the previous one for
    /// the grace window. Past `u64::MAX` the count wraps to generation 0.
    pub fn rotate(&mut self) {
        *self = CookieFactory::at_generation(self.seed, self.generation.wrapping_add(1), self.alg);
    }

    fn key_for_bit(&self, bit: u8) -> Option<(&SecretKey, u64)> {
        let current_bit = (self.generation & 1) as u8;
        if bit == current_bit {
            Some((&self.current, self.generation))
        } else {
            self.previous
                .as_ref()
                .map(|k| (k, self.generation.wrapping_sub(1)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5::md5;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn cookie_matches_direct_md5() {
        let key = SecretKey::from_seed(42);
        let addr = ip(1, 2, 3, 4);
        let mut input = Vec::new();
        input.extend_from_slice(&addr.octets());
        input.extend_from_slice(key.as_bytes());
        assert_eq!(Cookie::compute(&key, addr).0, md5(&input));
    }

    #[test]
    fn cookies_differ_per_ip_and_per_key() {
        let k1 = SecretKey::from_seed(1);
        let k2 = SecretKey::from_seed(2);
        let a = ip(10, 0, 0, 1);
        let b = ip(10, 0, 0, 2);
        assert_ne!(Cookie::compute(&k1, a), Cookie::compute(&k1, b));
        assert_ne!(Cookie::compute(&k1, a), Cookie::compute(&k2, a));
    }

    #[test]
    fn ns_label_hex_is_the_lowercase_hex_of_the_head_and_matches_any_case() {
        for seed in 0..64 {
            let c = Cookie::compute(&SecretKey::from_seed(seed), ip(8, 8, 4, 4));
            let hex = to_hex(&c.0[..NS_COOKIE_BYTES]);
            assert_eq!(c.ns_label_suffix(), hex);
            assert_eq!(c.ns_label_hex(), hex.as_bytes());
            assert!(c.matches_prefix(&hex) && c.matches_prefix(&hex.to_ascii_uppercase()));
            assert!(!c.matches_prefix(&hex[1..]) && !c.matches_prefix(&format!("{hex}0")));
        }
    }

    #[test]
    fn subnet_offset_in_range() {
        let key = SecretKey::from_seed(5);
        for host in 1..100u8 {
            let c = Cookie::compute(&key, ip(172, 16, 0, host));
            assert!(c.subnet_offset(254) < 254);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn subnet_offset_zero_range_panics() {
        let key = SecretKey::from_seed(7);
        Cookie::compute(&key, ip(1, 1, 1, 1)).subnet_offset(0);
    }

    #[test]
    fn generation_bit_round_trip() {
        let key = SecretKey::from_seed(8);
        let c = Cookie::compute(&key, ip(2, 2, 2, 2));
        assert_eq!(c.with_generation_bit(0).generation_bit(), 0);
        assert_eq!(c.with_generation_bit(1).generation_bit(), 1);
        assert_eq!(c.with_generation_bit(2).generation_bit(), 0);
        assert_eq!(c.with_generation_bit(3).generation_bit(), 1);
    }

    #[test]
    fn factory_generate_verify() {
        let f = CookieFactory::from_seed(9);
        let addr = ip(198, 51, 100, 23);
        let c = f.generate(addr);
        assert!(f.verify(addr, &c));
        assert!(!f.verify(ip(198, 51, 100, 24), &c), "cookie bound to source ip");
    }

    #[test]
    fn factory_rejects_flipped_bit() {
        let f = CookieFactory::from_seed(10);
        let addr = ip(203, 0, 113, 5);
        let mut c = f.generate(addr);
        c.0[5] ^= 0x01;
        assert!(!f.verify(addr, &c));
    }

    #[test]
    fn rotation_grace_window() {
        let mut f = CookieFactory::from_seed(11);
        let addr = ip(10, 1, 2, 3);
        let week0 = f.generate(addr);
        assert_eq!(week0.generation_bit(), 0);

        f.rotate();
        let week1 = f.generate(addr);
        assert_eq!(week1.generation_bit(), 1);
        assert!(f.verify(addr, &week0), "week-0 cookie valid during week 1");
        assert!(f.verify(addr, &week1));

        f.rotate();
        let week2 = f.generate(addr);
        assert_eq!(week2.generation_bit(), 0);
        assert!(!f.verify(addr, &week0), "week-0 cookie expired in week 2");
        assert!(f.verify(addr, &week1), "week-1 cookie still in grace window");
        assert!(f.verify(addr, &week2));
    }

    #[test]
    fn ns_suffix_verification_across_rotation() {
        let mut f = CookieFactory::from_seed(12);
        let addr = ip(10, 9, 8, 7);
        let suffix0 = f.generate(addr).ns_label_suffix();
        assert!(f.verify_ns_suffix(addr, &suffix0));
        f.rotate();
        assert!(f.verify_ns_suffix(addr, &suffix0));
        let suffix1 = f.generate(addr).ns_label_suffix();
        assert!(f.verify_ns_suffix(addr, &suffix1));
        f.rotate();
        assert!(!f.verify_ns_suffix(addr, &suffix0));
        assert!(f.verify_ns_suffix(addr, &suffix1));
    }

    #[test]
    fn ns_suffix_rejects_garbage() {
        let f = CookieFactory::from_seed(13);
        assert!(!f.verify_ns_suffix(ip(1, 1, 1, 1), ""));
        assert!(!f.verify_ns_suffix(ip(1, 1, 1, 1), "nothex!!"));
        assert!(!f.verify_ns_suffix(ip(1, 1, 1, 1), "00000000"));
    }

    #[test]
    fn subnet_verification_across_rotation() {
        let mut f = CookieFactory::from_seed(14);
        let addr = ip(10, 20, 30, 40);
        let range = 254;
        let y0 = f.generate_subnet_offset(addr, range);
        assert!(f.verify_subnet_offset(addr, y0, range));
        f.rotate();
        assert!(f.verify_subnet_offset(addr, y0, range), "grace window");
        let y1 = f.generate_subnet_offset(addr, range);
        assert!(f.verify_subnet_offset(addr, y1, range));
    }

    #[test]
    fn subnet_verification_rejects_wrong_offset() {
        let f = CookieFactory::from_seed(15);
        let addr = ip(10, 20, 30, 41);
        let range = 254;
        let y = f.generate_subnet_offset(addr, range);
        assert!(!f.verify_subnet_offset(addr, (y + 1) % range, range));
    }

    #[test]
    fn the_default_hash_is_siphash_and_the_factory_takes_it() {
        assert_eq!(CookieAlg::default(), CookieAlg::SipHash24);
        let f = CookieFactory::from_seed(45);
        let addr = ip(192, 0, 2, 98);
        let sip = Cookie::compute_with(CookieAlg::SipHash24, &SecretKey::from_seed(45), addr);
        assert_eq!(f.generate(addr), sip.with_generation_bit(0));
    }

    #[test]
    fn at_generation_equals_the_factory_rotated_as_often() {
        let mut f = CookieFactory::from_seed(44);
        let addr = ip(192, 0, 2, 99);
        let week0 = f.generate(addr);
        f.rotate();
        let week1 = f.generate(addr);

        let g = CookieFactory::at_generation(44, f.generation(), CookieAlg::default());
        assert_eq!(g.generation(), 1);
        assert!(g.verify(addr, &week0), "pre-rotation cookie survives restore");
        assert!(g.verify(addr, &week1));
        assert_eq!(g.generate(addr), f.generate(addr));
        assert_eq!(g.generate_subnet_offset(addr, 254), f.generate_subnet_offset(addr, 254));

        // Future rotations derive identically, and so does any generation.
        let (mut f2, mut g2) = (f.clone(), g.clone());
        f2.rotate();
        g2.rotate();
        assert_eq!(f2.generate(addr), g2.generate(addr));
        assert!(!g2.verify(addr, &week0), "two rotations expire the cookie");
        let g5 = CookieFactory::at_generation(44, 5, CookieAlg::default());
        (2..5).for_each(|_| f2.rotate());
        assert_eq!(g5.generate(addr), f2.generate(addr));
        assert!(g5.verify(addr, &f2.generate(addr)));
    }

    #[test]
    fn the_last_generation_keeps_its_grace_and_rotates_to_the_first() {
        let addr = ip(192, 0, 2, 100);
        let mut f = CookieFactory::at_generation(46, u64::MAX, CookieAlg::default());
        let before = CookieFactory::at_generation(46, u64::MAX - 1, CookieAlg::default());
        assert!(f.verify(addr, &f.generate(addr)));
        assert!(f.verify(addr, &before.generate(addr)), "generation MAX − 1 is in grace");
        assert!(!f.verify(addr, &CookieFactory::from_seed(46).generate(addr)));
        f.rotate();
        assert_eq!(f.generation(), 0);
        assert_eq!(f.generate(addr), CookieFactory::from_seed(46).generate(addr));
    }

    #[test]
    fn siphash_cookie_is_interoperable_across_factories() {
        // Two fleet sites holding the same key validate each other's
        // cookies; the MD5 construction with a different key does not.
        let site_a = CookieFactory::from_seed(2006).with_alg(CookieAlg::SipHash24);
        let site_b = CookieFactory::from_seed(2006).with_alg(CookieAlg::SipHash24);
        let foreign = CookieFactory::from_seed(4242).with_alg(CookieAlg::SipHash24);
        let addr = ip(10, 0, 3, 9);
        let c = site_a.generate(addr);
        assert!(site_b.verify(addr, &c), "same key, same alg → interoperable");
        assert!(site_b.verify_ns_suffix(addr, &c.ns_label_suffix()));
        assert!(!foreign.verify(addr, &c), "different key must reject");
    }

    #[test]
    fn siphash_and_md5_cookies_differ() {
        let md5 = CookieFactory::from_seed(16).with_alg(CookieAlg::Md5);
        let sip = CookieFactory::from_seed(16).with_alg(CookieAlg::SipHash24);
        let addr = ip(192, 0, 2, 8);
        assert_ne!(md5.generate(addr).0, sip.generate(addr).0);
        assert!(!md5.verify(addr, &sip.generate(addr)));
    }

    #[test]
    fn siphash_rotation_grace_window() {
        let mut f = CookieFactory::from_seed(17).with_alg(CookieAlg::SipHash24);
        let addr = ip(10, 1, 2, 4);
        let week0 = f.generate(addr);
        f.rotate();
        assert!(f.verify(addr, &week0), "grace window under SipHash");
        assert!(f.verify_ns_suffix(addr, &week0.ns_label_suffix()));
        f.rotate();
        assert!(!f.verify(addr, &week0), "two rotations expire the cookie");
    }

    #[test]
    fn siphash_subnet_offset_round_trip() {
        let f = CookieFactory::from_seed(18).with_alg(CookieAlg::SipHash24);
        let addr = ip(10, 7, 7, 7);
        let y = f.generate_subnet_offset(addr, 254);
        assert!(y < 254);
        assert!(f.verify_subnet_offset(addr, y, 254));
        assert!(!f.verify_subnet_offset(addr, (y + 1) % 254, 254));
    }

    #[test]
    fn secret_key_debug_redacts() {
        // The whole output is fixed text: no key byte, no schedule word.
        let key = SecretKey::from_seed(99);
        assert_eq!(format!("{key:?}"), "SecretKey(redacted, 76 bytes)");
    }

    #[test]
    fn from_seed_is_deterministic_and_seed_sensitive() {
        assert_eq!(SecretKey::from_seed(5).as_bytes(), SecretKey::from_seed(5).as_bytes());
        assert_ne!(SecretKey::from_seed(5).as_bytes(), SecretKey::from_seed(6).as_bytes());
    }
}
