//! A cookie-capable DNS client for the live guard: plays the role of the
//! local DNS guard + LRS pair on real sockets.

use dnswire::cookie_ext::{self, ZERO_COOKIE};
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::types::RrType;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// How long the client waits for the reply to one query.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Errors from the live client.
#[derive(Debug)]
pub enum ClientError {
    /// Socket error.
    Io(io::Error),
    /// The server's response could not be parsed.
    BadResponse,
    /// No response within the timeout (including grant exchanges).
    Timeout,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::BadResponse => write!(f, "unparseable response"),
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
    cookie: Option<[u8; 16]>,
    next_id: u16,
    /// Grants received (how many cookie exchanges happened).
    pub grants_received: u64,
}

impl CookieClient {
    /// Binds an ephemeral port and targets `server`.
    pub fn connect(server: SocketAddr) -> io::Result<CookieClient> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(CookieClient {
            sock,
            server,
            cookie: None,
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
    /// time, [`ClientError::BadResponse`] when the guard's answer to a cookie
    /// request carries no cookie.
    pub fn query(&mut self, name: Name, qtype: RrType) -> Result<Message, ClientError> {
        if self.cookie.is_none() {
            self.obtain_cookie(&name, qtype)?;
        }
        let cookie = self.cookie.expect("obtained above");
        let id = self.alloc_id();
        let mut q = Message::query(id, name, qtype);
        cookie_ext::attach_cookie(&mut q, cookie, 0);
        self.sock.send_to(&q.encode(), self.server)?;
        let resp = self.recv(id)?;
        Ok(resp)
    }

    /// Forgets the cached cookie (e.g. to test re-granting).
    pub fn forget_cookie(&mut self) {
        self.cookie = None;
    }

    fn obtain_cookie(&mut self, name: &Name, qtype: RrType) -> Result<(), ClientError> {
        let id = self.alloc_id();
        let mut probe = Message::query(id, name.clone(), qtype);
        cookie_ext::attach_cookie(&mut probe, ZERO_COOKIE, 0);
        self.sock.send_to(&probe.encode(), self.server)?;
        let resp = self.recv(id)?;
        let ext = cookie_ext::find_cookie(&resp).ok_or(ClientError::BadResponse)?;
        if ext.is_request() {
            return Err(ClientError::BadResponse);
        }
        self.cookie = Some(ext.cookie);
        self.grants_received += 1;
        Ok(())
    }

    /// Waits for `server`'s reply to query `want_id`. Anything else that
    /// reaches the port — a datagram from another sender, one that does not
    /// decode, a stale reply — is skipped, and the wait ends at the deadline
    /// whatever arrives meanwhile.
    fn recv(&mut self, want_id: u16) -> Result<Message, ClientError> {
        let deadline = Instant::now() + READ_TIMEOUT;
        let mut buf = [0u8; 2048];
        let mut skipped = false;
        let result = loop {
            let (len, from) = match self.sock.recv_from(&mut buf) {
                Ok(received) => received,
                Err(e) => break Err(e.into()),
            };
            let reply = buf.get(..len).filter(|_| from == self.server);
            match reply.map(Message::decode) {
                Some(Ok(msg)) if msg.header.id == want_id && msg.header.response => break Ok(msg),
                _ => skipped = true,
            }
            // The next read gets only what is left of the wait.
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break Err(ClientError::Timeout);
            }
            self.sock.set_read_timeout(Some(left))?;
        };
        if skipped {
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

    #[test]
    fn timeout_on_dead_server() {
        let mut client = CookieClient::connect("127.0.0.1:1".parse().unwrap()).unwrap();
        client.sock.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let err = client.query("x.y".parse().unwrap(), RrType::A).unwrap_err();
        assert!(matches!(err, ClientError::Timeout | ClientError::Io(_)));
    }

    /// Ahead of each real reply the stand-in server sends bytes that are not
    /// DNS, and a stranger sends a well-formed reply under the right id.
    #[test]
    fn junk_and_foreign_datagrams_do_not_fail_a_query() {
        use dnswire::rdata::RData;
        use dnswire::record::Record;
        use std::net::Ipv4Addr;

        let (forged, real) = (Ipv4Addr::new(6, 6, 6, 6), Ipv4Addr::new(2, 2, 2, 2));
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        server.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let addr = server.local_addr().unwrap();
        let serve = std::thread::spawn(move || {
            let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
            let mut buf = [0u8; 512];
            // The cookie request, then the query.
            for _ in 0..2 {
                let (n, client) = server.recv_from(&mut buf).unwrap();
                let query = Message::decode(&buf[..n]).unwrap();
                let reply = |addr| {
                    let mut resp = query.response();
                    resp.answers.push(Record::a(query.questions[0].name.clone(), addr, 60));
                    cookie_ext::attach_cookie(&mut resp, [7; 16], 60);
                    resp.encode()
                };
                server.send_to(&[0xFF; 5], client).unwrap();
                stranger.send_to(&reply(forged), client).unwrap();
                server.send_to(&reply(real), client).unwrap();
            }
        });
        let mut client = CookieClient::connect(addr).unwrap();
        let resp = client.query("www.foo.com".parse().unwrap(), RrType::A).unwrap();
        assert_eq!(resp.answers[0].rdata, RData::A(real));
        assert_eq!(client.grants_received, 1);
        serve.join().unwrap();
    }
}
