//! A cookie-capable DNS client for the live guard: the local guard + LRS
//! pair on a real socket, driving the core the simulated LRS and local
//! guard drive, [`dnsguard::cookie_client::ClientCore`]. It has one query in
//! flight at a time, so the query it holds behind a probe is a local of
//! that query's wait, and ends with it.

use dnsguard::cookie_client::{ClientCore, Held, Reply};
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::types::RrType;
use dnswire::view::MessageView;
use netsim::time::SimTime;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// How long the client waits for the answer to one query, a cookie
/// exchange included.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Errors from the live client.
#[derive(Debug)]
pub enum ClientError {
    /// Socket error.
    Io(io::Error),
    /// No answer within the timeout (including grant exchanges).
    Timeout,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Timeout => write!(f, "query timed out"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
            ClientError::Timeout
        } else {
            ClientError::Io(e)
        }
    }
}

/// A UDP DNS client that obtains and caches a guard cookie, stamping it on
/// every query (the modified-DNS scheme, client side).
///
/// # Examples
///
/// ```no_run
/// use runtime::client::CookieClient;
/// use dnswire::types::RrType;
///
/// let mut client = CookieClient::connect("127.0.0.1:5353".parse().unwrap())?;
/// let response = client.query("www.foo.com".parse().unwrap(), RrType::A)?;
/// println!("{response}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CookieClient {
    sock: UdpSocket,
    server: SocketAddr,
    /// The server's address, whose cookie the core caches.
    server_ip: Ipv4Addr,
    core: ClientCore,
    /// The core's clock starts here.
    started: Instant,
    next_id: u16,
    /// Grants received (how many cookie exchanges happened).
    pub grants_received: u64,
}

impl CookieClient {
    /// Binds an ephemeral port on 127.0.0.1 and targets `server`, an IPv4
    /// address.
    pub fn connect(server: SocketAddr) -> io::Result<CookieClient> {
        let SocketAddr::V4(v4) = server else {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "the client binds 127.0.0.1: an IPv4 server"));
        };
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(CookieClient {
            server_ip: *v4.ip(),
            sock,
            server,
            core: ClientCore::default(),
            started: Instant::now(),
            next_id: 1,
            grants_received: 0,
        })
    }

    /// Resolves `name`/`qtype` through the guard, performing the cookie
    /// exchange transparently on first use.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when the guard or ANS does not answer in
    /// time.
    pub fn query(&mut self, name: Name, qtype: RrType) -> Result<Message, ClientError> {
        let id = self.alloc_id();
        let (wire, held) = self.core.query(self.now(), self.server_ip, Message::query(id, name, qtype).encode());
        self.sock.send_to(&wire, self.server)?;
        self.recv(id, held)
    }

    /// Forgets the cached cookie (e.g. to test re-granting).
    pub fn forget_cookie(&mut self) {
        self.core.forget(self.server_ip);
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.started.elapsed().as_nanos() as u64)
    }

    /// Waits for `server`'s answer to query `want_id`, sending `held`, the
    /// query behind its probe, released on the grant: the first reply under
    /// the id takes it. Anything else that reaches the port — a datagram
    /// from another sender, one that does not decode, a stale reply — is
    /// skipped, and the wait ends at the deadline whatever arrives meanwhile.
    fn recv(&mut self, want_id: u16, mut held: Option<Held>) -> Result<Message, ClientError> {
        let deadline = Instant::now() + READ_TIMEOUT;
        let mut buf = [0u8; 2048];
        let mut shrunk = false;
        let result = loop {
            let (len, from) = match self.sock.recv_from(&mut buf) {
                Ok(received) => received,
                Err(e) => break Err(e.into()),
            };
            let reply = match buf.get(..len).filter(|_| from == self.server).map(MessageView::parse) {
                Some(Ok(view)) if view.header.id == want_id && view.header.response => {
                    self.core.reply(self.now(), self.server_ip, &view, &mut held)
                }
                _ => Reply::Drop,
            };
            match reply {
                // Bytes `parse` accepted, or those less their last record.
                Reply::Deliver(wire) => break Ok(Message::decode(&wire).unwrap_or_default()),
                Reply::Release(wire) => {
                    self.grants_received += 1;
                    self.sock.send_to(&wire, self.server)?;
                }
                Reply::Drop => {}
            }
            // The next read gets only what is left of the wait.
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break Err(ClientError::Timeout);
            }
            self.sock.set_read_timeout(Some(left))?;
            shrunk = true;
        };
        if shrunk {
            self.sock.set_read_timeout(Some(READ_TIMEOUT))?;
        }
        result
    }

    fn alloc_id(&mut self) -> u16 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::cookie_ext;
    use dnswire::rdata::RData;
    use dnswire::record::Record;

    const REAL: Ipv4Addr = Ipv4Addr::new(2, 2, 2, 2);

    #[test]
    fn timeout_on_dead_server() {
        let mut client = CookieClient::connect("127.0.0.1:1".parse().unwrap()).unwrap();
        client.sock.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let err = client.query("x.y".parse().unwrap(), RrType::A).unwrap_err();
        assert!(matches!(err, ClientError::Timeout | ClientError::Io(_)));
    }

    /// A stand-in server: `serve` runs on its own thread with a bound
    /// socket, whose address is returned with the thread.
    fn stand_in(serve: impl FnOnce(UdpSocket) + Send + 'static) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        server.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (server.local_addr().unwrap(), std::thread::spawn(move || serve(server)))
    }

    /// The next query the stand-in reads, and who sent it.
    fn next_query(server: &UdpSocket) -> (Message, SocketAddr) {
        let mut buf = [0u8; 512];
        let (n, client) = server.recv_from(&mut buf).unwrap();
        (Message::decode(&buf[..n]).unwrap(), client)
    }

    /// `query`'s answer: A `addr`, no extension.
    fn answer(query: &Message, addr: Ipv4Addr) -> Vec<u8> {
        let mut resp = query.response();
        resp.answers.push(Record::a(query.questions[0].name.clone(), addr, 60));
        resp.encode()
    }

    /// A server that does not know the extension answers the probe as it
    /// would the query, and that answer is the query's.
    #[test]
    fn a_cookie_incapable_server_answers_the_probe() {
        let (addr, serve) = stand_in(|server| {
            let (probe, client) = next_query(&server);
            server.send_to(&answer(&probe, REAL), client).unwrap();
        });
        let mut client = CookieClient::connect(addr).unwrap();
        let resp = client.query("www.foo.com".parse().unwrap(), RrType::A).unwrap();
        assert_eq!(resp.answers[0].rdata, RData::A(REAL));
        assert_eq!(client.grants_received, 0);
        serve.join().unwrap();
    }

    /// Ahead of the grant and of the answer the stand-in server sends bytes
    /// that are not DNS, and a stranger sends a well-formed reply under the
    /// right id. The grant, as `GuardCore`'s, carries no records.
    #[test]
    fn junk_and_foreign_datagrams_do_not_fail_a_query() {
        let forged = Ipv4Addr::new(6, 6, 6, 6);
        let (addr, serve) = stand_in(move |server| {
            let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
            let (probe, client) = next_query(&server);
            let mut grant = probe.response();
            cookie_ext::attach_cookie(&mut grant, [7; 16], 60);
            server.send_to(&[0xFF; 5], client).unwrap();
            stranger.send_to(&answer(&probe, forged), client).unwrap();
            server.send_to(&grant.encode(), client).unwrap();

            let (query, client) = next_query(&server);
            assert_eq!(cookie_ext::find_cookie(&query).map(|c| c.cookie), Some([7; 16]));
            server.send_to(&[0xFF; 5], client).unwrap();
            stranger.send_to(&answer(&query, forged), client).unwrap();
            server.send_to(&answer(&query, REAL), client).unwrap();
        });
        let mut client = CookieClient::connect(addr).unwrap();
        let resp = client.query("www.foo.com".parse().unwrap(), RrType::A).unwrap();
        assert_eq!(resp.answers[0].rdata, RData::A(REAL));
        assert_eq!(client.grants_received, 1);
        serve.join().unwrap();
    }
}
