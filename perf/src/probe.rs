//! The host-speed probe, and why every reported time is divided by it.
//!
//! The guests this benchmark runs on share physical cores with other
//! tenants. The same replay alternates between a quiet level and one about
//! 1.45× slower, in stretches that last from a second to longer than a whole
//! run, so no estimator over one run's rounds — not the median, not the
//! lower quartile, not the minimum — repeats between runs: measured over
//! eight runs of each workload, the lower-quartile round time spread
//! (interquartile range over median) by 7–10 % and ranged over 27–44 %.
//!
//! What does repeat is the *ratio* of a round's time to the time a fixed
//! piece of the benchmark's own code takes right before and after it: a
//! slow stretch slows both. The probe below is that fixed piece — a blend of
//! the two things the workloads spend their time on, small allocations with
//! hashing and hash-map updates, and loopback socket system calls — about
//! two milliseconds per sample. A round's *host-normalised* time is
//!
//! ```text
//! raw time × NOMINAL_NS / mean(probe before, probe after)
//! ```
//!
//! i.e. the time the round would have taken had the probe run at the speed
//! it runs at on a quiet reference guest. Over the same runs the lower
//! quartile of normalised round times spread by 1–5 %. The probe is frozen
//! benchmark code, untouched by any product change, so a ratio to it moves
//! only when the program under test does. Raw wall-clock figures are still
//! printed in the log beside the normalised ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::net::UdpSocket;
use std::time::Instant;

/// What one probe sample takes between rounds on a quiet run of the
/// reference guest (2-vCPU Xeon @ 2.1 GHz KVM guest): the median over the six
/// workloads' quiet runs, 1.93–2.14 ms. (Back to back, with warm caches,
/// `perf probe` reads about 1.35 ms; between rounds the probe starts cold,
/// as the round it brackets does.) On other hardware normalised numbers
/// shift by a constant factor, as any timing would.
pub const NOMINAL_NS: f64 = 2_050_000.0;

const ALLOC_ITERS: u32 = 8192;
const SOCKET_ITERS: u32 = 512;
const BUF: usize = 1 << 20;

/// The probe's state: a buffer to read from, a map to churn, and a UDP
/// socket connected to itself.
pub struct Probe {
    map: HashMap<u32, u64>,
    buf: Vec<u8>,
    state: u64,
    sock: UdpSocket,
}

impl Probe {
    /// Opens the probe's loopback socket and fills its buffer.
    ///
    /// # Errors
    ///
    /// When the socket cannot be bound.
    pub fn new() -> io::Result<Probe> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.connect(sock.local_addr()?)?;
        let mut probe = Probe {
            map: HashMap::new(),
            buf: (0..BUF).map(|i| (i * 31 % 251) as u8).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            sock,
        };
        for _ in 0..4 {
            probe.sample()?; // fill the map, fault the buffer in
        }
        Ok(probe)
    }

    /// Runs the fixed work once and returns the nanoseconds it took.
    ///
    /// # Errors
    ///
    /// When the loopback socket fails.
    pub fn sample(&mut self) -> io::Result<f64> {
        let t0 = Instant::now();
        for i in 0..ALLOC_ITERS {
            let off = (self.state as usize) & (BUF - 64);
            let mut v: Vec<u8> = Vec::with_capacity(64);
            v.extend_from_slice(&self.buf[off..off + 48]);
            let mut h = self.state;
            for &b in &v {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            h ^= h >> 29;
            self.map.insert(h as u32 & 0x3FFF, h);
            if i & 1 == 1 {
                self.map.remove(&((h >> 20) as u32 & 0x3FFF));
            }
            self.state = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
            black_box(&v);
        }
        let mut datagram = [0u8; 64];
        for _ in 0..SOCKET_ITERS {
            self.sock.send(&datagram[..32])?;
            self.sock.recv(&mut datagram)?;
        }
        Ok(t0.elapsed().as_nanos() as f64)
    }

    /// Runs `work` between two probe samples. Returns its result and the
    /// factor that turns its wall time into host-normalised time.
    ///
    /// # Errors
    ///
    /// When the loopback socket fails.
    pub fn around<R>(&mut self, work: impl FnOnce() -> R) -> io::Result<(R, f64)> {
        let before = self.sample()?;
        let out = work();
        let after = self.sample()?;
        Ok((out, NOMINAL_NS / ((before + after) / 2.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_the_probes_speed_relative_to_nominal() {
        let mut probe = Probe::new().unwrap();
        let ((), scale) = probe.around(|| ()).unwrap();
        // Whatever the host, the probe takes between a tenth and ten times
        // its nominal time: the factor is a finite, positive number near 1.
        assert!((0.1..10.0).contains(&scale), "scale {scale}");
    }
}
