//! A real-socket authoritative name server: answers UDP DNS queries from a
//! [`server::authoritative::Authority`] on a loopback port, through an
//! [`AnswerCache`] — the answer path of the simulated
//! `server::nodes::AuthNode`. The serving thread owns the authority, the
//! cache and one buffer, into which a query is received and over which its
//! answer is written.

use server::authoritative::{AnswerCache, Authority, Reply, Transport};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use crate::stopflag::StopFlag;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Counters shared with the server thread.
#[derive(Debug, Default)]
pub struct AnsCounters {
    /// Queries answered.
    pub served: AtomicU64,
    /// Packets that failed to parse.
    pub bad_packets: AtomicU64,
}

/// A toy authoritative server running on a background thread.
///
/// # Examples
///
/// ```no_run
/// use runtime::ans::ToyAns;
/// use server::authoritative::Authority;
/// use server::zone::paper_hierarchy;
///
/// let (_, _, foo) = paper_hierarchy();
/// let ans = ToyAns::spawn(Authority::new(vec![foo]))?;
/// println!("serving on {}", ans.addr());
/// ans.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct ToyAns {
    addr: SocketAddr,
    stop: StopFlag,
    counters: Arc<AnsCounters>,
    handle: Option<JoinHandle<()>>,
}

impl ToyAns {
    /// Binds an ephemeral loopback UDP port and serves `authority` until
    /// [`ToyAns::shutdown`].
    pub fn spawn(authority: Authority) -> io::Result<ToyAns> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_read_timeout(Some(Duration::from_millis(50)))?;
        let addr = sock.local_addr()?;
        let stop = StopFlag::new();
        let counters = Arc::new(AnsCounters::default());

        let t_stop = stop.clone();
        let t_counters = counters.clone();
        let handle = std::thread::spawn(move || {
            let mut cache = AnswerCache::default();
            let mut buf = Vec::new();
            while !t_stop.should_stop() {
                buf.resize(2048, 0);
                let (len, peer) = match sock.recv_from(&mut buf) {
                    Ok(x) => x,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => break,
                };
                buf.truncate(len);
                let query = std::mem::take(&mut buf);
                match cache.reply(&authority, query, Transport::Udp) {
                    Reply::Cached(wire) | Reply::Fresh(wire) => {
                        // Count before sending so observers who already saw
                        // the response also see the counter.
                        // lint: L3 — monotonic statistic; exactness only
                        // matters after shutdown(), which joins the thread.
                        t_counters.served.fetch_add(1, Ordering::Relaxed);
                        let _ = sock.send_to(&wire, peer);
                        buf = wire;
                    }
                    Reply::Unparseable => {
                        // lint: L3 — monotonic statistic; readers sync
                        // via the shutdown join, not via this counter.
                        t_counters.bad_packets.fetch_add(1, Ordering::Relaxed);
                    }
                    Reply::Response | Reply::Failed => {}
                }
            }
        });

        Ok(ToyAns {
            addr,
            stop,
            counters,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queries served so far.
    pub fn served(&self) -> u64 {
        // lint: L3 — statistic read; exact only after shutdown join.
        self.counters.served.load(Ordering::Relaxed)
    }

    /// Stops the server thread and waits for it.
    pub fn shutdown(mut self) {
        self.stop.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ToyAns {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::message::Message;
    use dnswire::rdata::RData;
    use dnswire::types::RrType;
    use server::zone::{paper_hierarchy, WWW_ADDR};

    #[test]
    fn answers_real_udp_queries() {
        let (_, _, foo) = paper_hierarchy();
        let ans = ToyAns::spawn(Authority::new(vec![foo])).unwrap();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        // The second answer is the held one, under its own id.
        for id in [0xABCD, 0x1234] {
            let q = Message::query(id, "www.foo.com".parse().unwrap(), RrType::A);
            client.send_to(&q.encode(), ans.addr()).unwrap();

            let mut buf = [0u8; 2048];
            let (len, _) = client.recv_from(&mut buf).unwrap();
            let resp = Message::decode(&buf[..len]).unwrap();
            assert_eq!(resp.header.id, id);
            assert_eq!(resp.answers[0].rdata, RData::A(WWW_ADDR));
        }
        assert_eq!(ans.served(), 2);
        ans.shutdown();
    }
}
