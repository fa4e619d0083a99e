//! SipHash-2-4 (Aumasson & Bernstein), implemented from scratch so the
//! reproduction carries no external crypto dependency.
//!
//! It keys the guard's default cookie, in place of the paper's
//! `MD5(ip || key)`: `SipHash24(ip || 0) || SipHash24(ip || 1)` under the
//! leading 16 bytes of the guard secret
//! ([`crate::cookie::CookieAlg::SipHash24`]). Guard sites holding that key
//! accept each other's cookies; the layout is not RFC 9018's, so no other
//! DNS implementation validates them.
//!
//! The implementation is the standard 2 compression / 4 finalization round
//! variant over 8-byte little-endian blocks, with the message length folded
//! into the top byte of the final block. The same rounds run 1 / 3 times are
//! [`siphash13_u32`], the hash-table variant, which the guard's per-source
//! limiter tables are keyed with.
//!
//! # Examples
//!
//! ```
//! use guardhash::siphash::siphash24;
//!
//! let key = [0u8; 16];
//! assert_ne!(siphash24(&key, b"a"), siphash24(&key, b"b"));
//! ```

/// One SipRound over the four lanes of internal state.
#[inline]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-`C`-`D`: `C` rounds per message block, `D` to finish.
#[inline(always)]
fn siphash<const C: usize, const D: usize>(key: &[u8; 16], data: &[u8]) -> u64 {
    let k0 = u64::from_le_bytes(key[0..8].try_into().unwrap());
    let k1 = u64::from_le_bytes(key[8..16].try_into().unwrap());
    let mut v = [
        0x736f_6d65_7073_6575 ^ k0,
        0x646f_7261_6e64_6f6d ^ k1,
        0x6c79_6765_6e65_7261 ^ k0,
        0x7465_6462_7974_6573 ^ k1,
    ];

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().unwrap());
        v[3] ^= m;
        for _ in 0..C {
            sip_round(&mut v);
        }
        v[0] ^= m;
    }

    // Final block: remaining bytes little-endian, length in the top byte.
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v[3] ^= m;
    for _ in 0..C {
        sip_round(&mut v);
    }
    v[0] ^= m;

    v[2] ^= 0xff;
    for _ in 0..D {
        sip_round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// SipHash-2-4 of `data` under the 128-bit `key`, as a 64-bit tag.
///
/// Cookie bytes take the tag little-endian: `siphash24(k, m).to_le_bytes()`
/// reproduces the reference test vectors.
pub fn siphash24(key: &[u8; 16], data: &[u8]) -> u64 {
    siphash::<2, 4>(key, data)
}

/// SipHash-1-3 of the four bytes of `word` under `key`: the reduced-round
/// variant hash tables use (it is what keys `std`'s `HashMap`), for placing
/// an address in a table where an attacker who cannot see the key must not
/// be able to choose collisions. Not for cookies.
#[inline]
pub fn siphash13_u32(key: &[u8; 16], word: u32) -> u64 {
    siphash::<1, 3>(key, &word.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference key `00 01 02 ... 0f` from the SipHash paper, Appendix A.
    fn reference_key() -> [u8; 16] {
        let mut k = [0u8; 16];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    /// The canonical test vectors: `vectors[i]` is SipHash-2-4 of the
    /// message `00 01 ... (i-1)` under the reference key, little-endian.
    /// These are the published values every SipHash-2-4 implementation
    /// must reproduce.
    #[test]
    fn reference_vectors() {
        let key = reference_key();
        let expected: [(usize, [u8; 8]); 10] = [
            (0, [0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72]),
            (1, [0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74]),
            (2, [0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d]),
            (3, [0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85]),
            (4, [0xb7, 0x87, 0x71, 0x27, 0xe0, 0x94, 0x27, 0xcf]),
            (5, [0x8d, 0xa6, 0x99, 0xcd, 0x64, 0x55, 0x76, 0x18]),
            (6, [0xce, 0xe3, 0xfe, 0x58, 0x6e, 0x46, 0xc9, 0xcb]),
            (7, [0x37, 0xd1, 0x01, 0x8b, 0xf5, 0x00, 0x02, 0xab]),
            (8, [0x62, 0x24, 0x93, 0x9a, 0x79, 0xf5, 0xf5, 0x93]),
            (15, [0xe5, 0x45, 0xbe, 0x49, 0x61, 0xca, 0x29, 0xa1]),
        ];
        for (len, want) in expected {
            let msg: Vec<u8> = (0..len as u8).collect();
            assert_eq!(
                siphash24(&key, &msg).to_le_bytes(),
                want,
                "vector mismatch for {len}-byte message"
            );
        }
    }

    #[test]
    fn paper_appendix_vector() {
        // The worked example from the SipHash paper: 15-byte message,
        // result 0xa129ca6149be45e5 (shown big-endian in the paper).
        let key = reference_key();
        let msg: Vec<u8> = (0..15).collect();
        assert_eq!(siphash24(&key, &msg), 0xa129_ca61_49be_45e5);
    }

    /// `std`'s `DefaultHasher` is SipHash-1-3 under the all-zero key (an
    /// implementation detail it does not promise, but the only independent
    /// 1-3 implementation at hand): the shared rounds are right for 2-4 by
    /// the vectors above, and the round counts are right for 1-3 by this.
    #[test]
    fn one_three_matches_the_standard_librarys_hasher() {
        use std::hash::Hasher;
        for word in [0, 1, 0x0a00_0001, 0xdead_beef, u32::MAX] {
            let mut std13 = std::collections::hash_map::DefaultHasher::new();
            std13.write(&word.to_le_bytes());
            assert_eq!(siphash13_u32(&[0; 16], word), std13.finish(), "word {word:#x}");
        }
        assert_ne!(siphash13_u32(&[0; 16], 7), siphash13_u32(&reference_key(), 7));
    }

    #[test]
    fn key_and_message_sensitivity() {
        let k1 = reference_key();
        let mut k2 = k1;
        k2[0] ^= 1;
        assert_ne!(siphash24(&k1, b"dns"), siphash24(&k2, b"dns"));
        assert_ne!(siphash24(&k1, b"dns"), siphash24(&k1, b"dn"));
        assert_ne!(siphash24(&k1, b""), siphash24(&k1, b"\0"));
    }

    #[test]
    fn block_boundaries() {
        // Exercise the exact-block and straddling-length paths; the tag
        // must depend on the length byte even when content bytes agree.
        let key = reference_key();
        for len in [7usize, 8, 9, 15, 16, 17, 64] {
            let msg = vec![0xabu8; len];
            let mut longer = msg.clone();
            longer.push(0);
            assert_ne!(siphash24(&key, &msg), siphash24(&key, &longer), "len {len}");
        }
    }
}
