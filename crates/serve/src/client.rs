//! A blocking client for the psj-serve protocol.
//!
//! One [`Client`] wraps one TCP connection and issues one request at a
//! time (the protocol has no request ids, so responses are matched by
//! order). Use one client per thread for concurrency — the server
//! multiplexes connections internally.
//!
//! A dropped connection is a hard error by default. Opt into transparent
//! recovery with [`Client::set_reconnect`]: on a transport failure the
//! client redials the peer under a bounded exponential-backoff
//! [`BackoffPolicy`] and replays the request. Every request in the
//! protocol is an idempotent read (or an idempotent shutdown), so a
//! replay can at worst repeat work, never corrupt state.

use crate::protocol::{
    read_frame, write_frame, ProtoError, Request, Response, ServerStats, TreeInfo,
    MAX_RESPONSE_FRAME,
};
use psj_geom::Rect;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bounded exponential backoff with deterministic jitter.
///
/// `delay(attempt)` grows as `base * 2^attempt`, capped at `cap`, then
/// scaled by a jitter factor in `[0.5, 1.0)` derived by hashing
/// `(jitter_seed, attempt)` — deterministic for reproducible tests, yet
/// de-synchronized across instances with distinct seeds so a thundering
/// herd of reconnecting clients spreads out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Retry attempts after the initial failure (0 disables retrying).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay (pre-jitter).
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_retries: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            jitter_seed: 0,
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl BackoffPolicy {
    /// The jittered delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        let h =
            splitmix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F));
        // 53 mantissa bits of hash → uniform in [0, 1), mapped to [0.5, 1.0).
        let jitter = 0.5 + 0.5 * ((h >> 11) as f64 / (1u64 << 53) as f64);
        exp.mul_f64(jitter)
    }
}

/// A connection to a psj-serve server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Peer address remembered for redials (`None` when connected through
    /// an unresolvable `ToSocketAddrs` and the peer address is unknown).
    peer: Option<SocketAddr>,
    /// Read timeout re-applied to redialed sockets (and used to bound the
    /// redial's connect).
    timeout: Option<Duration>,
    reconnect: Option<BackoffPolicy>,
    reconnects: u64,
}

/// An unexpected (but well-formed) response, e.g. `Overloaded` where
/// entries were expected. Carries the actual response (boxed — `Response`
/// is large and errors are rare) so callers can distinguish shedding from
/// deadline misses.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered with something other than the expected payload.
    Unexpected(Box<Response>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Unexpected(r) => write!(f, "unexpected response: {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Io(e.into())
    }
}

impl Client {
    /// Connects to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr().ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            peer,
            timeout: None,
            reconnect: None,
            reconnects: 0,
        })
    }

    /// Connects with a connect/read timeout (for tests and load drivers
    /// that must not hang on a stuck server).
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            peer: Some(*addr),
            timeout: Some(timeout),
            reconnects: 0,
            reconnect: None,
        })
    }

    /// Enables (or with `None` disables) transparent reconnect.
    pub fn set_reconnect(&mut self, policy: Option<BackoffPolicy>) {
        self.reconnect = policy;
    }

    /// How many times this client successfully redialed the server.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sets the socket read timeout (also remembered for redials).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.timeout = timeout;
        self.writer.get_ref().set_read_timeout(timeout)
    }

    fn try_request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.writer, &req.encode())?;
        match read_frame(&mut self.reader, MAX_RESPONSE_FRAME)? {
            Some(payload) => Ok(Response::decode(&payload)?),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )),
        }
    }

    fn redial(&mut self, peer: &SocketAddr) -> io::Result<()> {
        let stream = match self.timeout {
            Some(t) => TcpStream::connect_timeout(peer, t)?,
            None => TcpStream::connect(peer)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.reader = reader;
        self.writer = BufWriter::new(stream);
        Ok(())
    }

    /// Sends a request and returns the raw response.
    ///
    /// With a reconnect policy set, a transport failure triggers up to
    /// `max_retries` redial-and-replay rounds under jittered exponential
    /// backoff; the last error is returned when the budget is exhausted.
    /// Protocol decode errors (`InvalidData`) are not retried — a peer
    /// speaking garbage will not stop doing so on a fresh connection.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        let first = match self.try_request(req) {
            Ok(r) => return Ok(r),
            Err(e) => e,
        };
        let (Some(policy), Some(peer)) = (self.reconnect, self.peer) else {
            return Err(first);
        };
        if first.kind() == io::ErrorKind::InvalidData {
            return Err(first);
        }
        let mut last = first;
        for attempt in 0..policy.max_retries {
            std::thread::sleep(policy.delay(attempt));
            match self.redial(&peer) {
                Ok(()) => {
                    self.reconnects += 1;
                    match self.try_request(req) {
                        Ok(r) => return Ok(r),
                        Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                        Err(e) => last = e,
                    }
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Window query: oids of tree entries intersecting `rect`.
    /// `deadline_ms = 0` means no deadline.
    pub fn window(
        &mut self,
        tree: u16,
        rect: Rect,
        deadline_ms: u32,
    ) -> Result<Vec<u64>, ClientError> {
        match self.request(&Request::Window {
            tree,
            rect,
            deadline_ms,
        })? {
            Response::Entries(oids) => Ok(oids),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// k-nearest-neighbor query: `(distance, oid)` ascending.
    pub fn nearest(
        &mut self,
        tree: u16,
        x: f64,
        y: f64,
        k: u32,
        deadline_ms: u32,
    ) -> Result<Vec<(f64, u64)>, ClientError> {
        match self.request(&Request::Nearest {
            tree,
            x,
            y,
            k,
            deadline_ms,
        })? {
            Response::Neighbors(nn) => Ok(nn),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Spatial join of two loaded trees.
    pub fn join(
        &mut self,
        tree_a: u16,
        tree_b: u16,
        refine: bool,
        deadline_ms: u32,
    ) -> Result<Vec<(u64, u64)>, ClientError> {
        match self.request(&Request::Join {
            tree_a,
            tree_b,
            refine,
            deadline_ms,
            owner: None,
        })? {
            Response::Pairs(pairs) => Ok(pairs),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Server statistics.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Prometheus-text metrics exposition (same counters as
    /// [`Client::stats`]).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Loaded-tree descriptions.
    pub fn info(&mut self) -> Result<Vec<TreeInfo>, ClientError> {
        Ok(self.info_tagged()?.1)
    }

    /// Loaded-tree descriptions plus the responder's shard id — routers
    /// use the id to verify a probed address really is the shard the
    /// topology says it is.
    pub fn info_tagged(&mut self) -> Result<(u16, Vec<TreeInfo>), ClientError> {
        match self.request(&Request::Info)? {
            Response::Info { shard, trees } => Ok((shard, trees)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Asks the server to drain and exit; returns once acked.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A protocol-speaking listener that serves exactly one request per
    /// accepted connection, then drops it — the shape of a server bounced
    /// mid-session.
    fn one_shot_server(conns: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for _ in 0..conns {
                let (mut s, _) = listener.accept().unwrap();
                if let Ok(Some(payload)) = read_frame(&mut s, 64 << 10) {
                    if Request::decode(&payload).is_ok() {
                        let resp = Response::Stats(ServerStats::default());
                        let _ = write_frame(&mut s, &resp.encode_or_error());
                    }
                }
                // Connection dropped here.
            }
        });
        addr
    }

    #[test]
    fn backoff_delays_are_bounded_and_deterministic() {
        let p = BackoffPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            jitter_seed: 42,
        };
        for attempt in 0..8 {
            let d = p.delay(attempt);
            assert_eq!(d, p.delay(attempt), "deterministic");
            assert!(d >= Duration::from_millis(5), "never below base/2: {d:?}");
            assert!(d < Duration::from_millis(100), "never at/above cap: {d:?}");
        }
        // Different seeds de-synchronize.
        let q = BackoffPolicy {
            jitter_seed: 43,
            ..p
        };
        assert!((0..8).any(|a| p.delay(a) != q.delay(a)));
    }

    #[test]
    fn reconnect_survives_a_dropped_connection() {
        let addr = one_shot_server(3);
        let mut c = Client::connect(addr).unwrap();
        c.set_reconnect(Some(BackoffPolicy {
            max_retries: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            jitter_seed: 7,
        }));
        c.stats().unwrap();
        // The server dropped the connection after the reply; the next
        // request hits EOF and must transparently redial.
        c.stats().unwrap();
        assert_eq!(c.reconnects(), 1);
        c.stats().unwrap();
        assert_eq!(c.reconnects(), 2);
    }

    #[test]
    fn without_policy_a_drop_stays_a_hard_error() {
        let addr = one_shot_server(1);
        let mut c = Client::connect(addr).unwrap();
        c.stats().unwrap();
        match c.stats() {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected hard transport error, got {other:?}"),
        }
        assert_eq!(c.reconnects(), 0);
    }

    #[test]
    fn reconnect_budget_is_bounded() {
        // Server accepts one connection total; after it drops, redials
        // reach a dead listener... bind-then-drop leaves the port closed.
        let addr = one_shot_server(1);
        let mut c = Client::connect(addr).unwrap();
        c.set_reconnect(Some(BackoffPolicy {
            max_retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            jitter_seed: 1,
        }));
        c.stats().unwrap();
        let start = std::time::Instant::now();
        assert!(c.stats().is_err(), "budget exhausted stays an error");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "bounded, not an infinite retry loop"
        );
    }
}
