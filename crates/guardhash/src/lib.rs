//! Hash primitives for the DNS Guard reproduction.
//!
//! Three modules:
//!
//! * [`md5`](mod@md5) — the MD5 message digest (RFC 1321), implemented from scratch so
//!   the reproduction carries no external crypto dependency;
//! * [`siphash`] — SipHash-2-4, the keyed PRF behind the guard's default
//!   cookie `SipHash24(ip ‖ 0) ‖ SipHash24(ip ‖ 1)`, which guard sites
//!   sharing the key accept (it is not the RFC 9018 wire layout);
//! * [`cookie`] — the DNS Guard cookie construction from the paper's section
//!   III.E: the NS-name (hex), subnet-IP (modulo) and full (16-byte)
//!   encodings plus generation-bit key rotation, over a cookie that
//!   [`cookie::CookieAlg`] derives with SipHash-2-4 by default or with the
//!   paper's `c = MD5(source_ip || 76-byte key)`. The simulated charge per
//!   cookie operation is the paper's `c` (Table III) either way.
//!
//! # Examples
//!
//! ```
//! use guardhash::cookie::CookieFactory;
//! use std::net::Ipv4Addr;
//!
//! let factory = CookieFactory::from_seed(2006);
//! let requester = Ipv4Addr::new(192, 0, 2, 53);
//! let cookie = factory.generate(requester);
//! assert!(factory.verify(requester, &cookie));
//! assert!(!factory.verify(Ipv4Addr::new(192, 0, 2, 54), &cookie));
//! ```

#![forbid(unsafe_code)]

pub mod cookie;
pub mod md5;
pub mod siphash;

pub use cookie::{Cookie, CookieAlg, CookieFactory, SecretKey};
pub use md5::{md5, Md5};
pub use siphash::siphash24;

#[cfg(test)]
mod proptests {
    use crate::cookie::{Cookie, CookieAlg, CookieFactory, SecretKey, KEY_LEN};
    use crate::md5::{from_hex, md5, to_hex, Md5};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// The paper's formula, spelled out: `MD5(ip ‖ key)` over 80 bytes.
    fn md5_of_ip_and_key(ip: Ipv4Addr, key: &[u8; KEY_LEN]) -> [u8; 16] {
        md5(&[&ip.octets()[..], key].concat())
    }

    fn arb_key() -> impl Strategy<Value = [u8; KEY_LEN]> {
        proptest::collection::vec(any::<u8>(), KEY_LEN)
            .prop_map(|bytes| bytes.try_into().expect("KEY_LEN bytes"))
    }

    proptest! {
        /// The per-key schedule is a layout of the same 80 bytes, not another
        /// hash: any key, any address.
        #[test]
        fn cookie_is_md5_of_ip_and_key(bytes in arb_key(), ip_bits in any::<u32>()) {
            let (key, ip) = (SecretKey::from_bytes(bytes), Ipv4Addr::from(ip_bits));
            prop_assert_eq!(Cookie::compute(&key, ip).0, md5_of_ip_and_key(ip, &bytes));
            prop_assert!(SecretKey::from_bytes(*key.as_bytes()) == key);
        }

        /// The same through an MD5 factory: the current generation's key's
        /// cookie under the generation bit, across two rotations and an
        /// `at_generation` rebuild.
        #[test]
        fn factory_cookies_are_md5_of_ip_and_key(seed in any::<u64>(), ip_bits in any::<u32>()) {
            let ip = Ipv4Addr::from(ip_bits);
            let mut f = CookieFactory::from_seed(seed).with_alg(CookieAlg::Md5);
            for _ in 0..3 {
                let key = SecretKey::for_generation(seed, f.generation());
                let raw = Cookie(md5_of_ip_and_key(ip, key.as_bytes()));
                prop_assert_eq!(f.generate(ip), raw.with_generation_bit(f.generation()));
                let restored = CookieFactory::at_generation(seed, f.generation(), CookieAlg::Md5);
                prop_assert_eq!(restored.generate(ip), f.generate(ip));
                prop_assert!(restored.verify(ip, &f.generate(ip)));
                f.rotate();
            }
        }

        /// Streaming and one-shot MD5 agree for arbitrary data and splits.
        #[test]
        fn md5_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                        split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), md5(&data));
        }

        /// Hex encode/decode round-trips arbitrary bytes.
        #[test]
        fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
        }

        /// Every issued cookie verifies, for any source address — the
        /// "no false positives" claim of the paper.
        #[test]
        fn every_issued_cookie_verifies(ip_bits in any::<u32>(), seed in any::<u64>()) {
            let f = CookieFactory::from_seed(seed);
            let ip = Ipv4Addr::from(ip_bits);
            let c = f.generate(ip);
            prop_assert!(f.verify(ip, &c));
            prop_assert!(f.verify_ns_suffix(ip, &c.ns_label_suffix()));
        }

        /// A cookie issued for one address never verifies for another.
        #[test]
        fn cookie_bound_to_address(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
            prop_assume!(a != b);
            let f = CookieFactory::from_seed(seed);
            let c = f.generate(Ipv4Addr::from(a));
            prop_assert!(!f.verify(Ipv4Addr::from(b), &c));
        }

        /// Rotation grace window: one rotation keeps a cookie valid, two
        /// expire it — for any address and seed.
        #[test]
        fn rotation_window(ip_bits in any::<u32>(), seed in any::<u64>()) {
            let mut f = CookieFactory::from_seed(seed);
            let ip = Ipv4Addr::from(ip_bits);
            let c = f.generate(ip);
            f.rotate();
            prop_assert!(f.verify(ip, &c));
            f.rotate();
            prop_assert!(!f.verify(ip, &c));
        }

        /// Subnet offsets always stay inside the configured range.
        #[test]
        fn subnet_offset_in_range(ip_bits in any::<u32>(), seed in any::<u64>(), range in 1u32..10_000) {
            let f = CookieFactory::from_seed(seed);
            let y = f.generate_subnet_offset(Ipv4Addr::from(ip_bits), range);
            prop_assert!(y < range);
        }

        /// The interoperability contract: under SipHash-2-4, any factory
        /// built from the same seed verifies cookies minted elsewhere,
        /// across every encoding and through one rotation.
        #[test]
        fn siphash_cookies_verify_at_any_same_key_site(ip_bits in any::<u32>(), seed in any::<u64>()) {
            let minter = CookieFactory::from_seed(seed).with_alg(CookieAlg::SipHash24);
            let mut peer = CookieFactory::from_seed(seed).with_alg(CookieAlg::SipHash24);
            let ip = Ipv4Addr::from(ip_bits);
            let c = minter.generate(ip);
            prop_assert!(peer.verify(ip, &c));
            prop_assert!(peer.verify_ns_suffix(ip, &c.ns_label_suffix()));
            peer.rotate();
            prop_assert!(peer.verify(ip, &c), "one rotation keeps the grace window");
            peer.rotate();
            prop_assert!(!peer.verify(ip, &c), "two rotations expire it");
        }
    }
}
