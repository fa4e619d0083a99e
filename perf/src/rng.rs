//! The benchmark's own seeded generator (splitmix64). Inputs must be a
//! function of `--seed` and of nothing else, including the repository's
//! vendored `rand`: a later change there must not move the datagrams a
//! workload replays.

use std::net::Ipv4Addr;

/// splitmix64: small, fast, and good enough to pick addresses and bytes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (ring construction, world seeds, ...).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32 bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u32) -> u32 {
        self.next_u32() % n
    }

    /// Fills `out` with random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// A uniformly random unicast-looking source address for which
    /// `excluded` is false.
    pub fn source(&mut self, excluded: impl Fn(Ipv4Addr) -> bool) -> Ipv4Addr {
        loop {
            let ip = Ipv4Addr::from(self.next_u32());
            let first = ip.octets()[0];
            if first == 0 || first >= 224 || first == 127 || excluded(ip) {
                continue;
            }
            return ip;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
