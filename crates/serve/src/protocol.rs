//! The wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! +-----------------+---------------------------+
//! | length: u32 LE  | payload (length bytes)    |
//! +-----------------+---------------------------+
//! payload = opcode: u8, then opcode-specific fields (LE, packed)
//! ```
//!
//! Request frames are capped at [`MAX_REQUEST_FRAME`] (64 KiB — every
//! request is a few dozen bytes, so a larger prefix is garbage or an
//! attack and is rejected before any allocation). Response frames are
//! capped at [`MAX_RESPONSE_FRAME`] (64 MiB — a full-extent window query or
//! a large join result set legitimately runs to megabytes).
//!
//! Decoding is total: any byte sequence either decodes or returns a
//! [`ProtoError`]; malformed payloads can not panic the peer. Trailing
//! bytes after a well-formed payload are an error (they indicate framing
//! corruption).

use psj_geom::Rect;
use std::io::{self, Read, Write};

/// Maximum request frame payload (bytes).
pub const MAX_REQUEST_FRAME: usize = 64 << 10;
/// Maximum response frame payload (bytes).
pub const MAX_RESPONSE_FRAME: usize = 64 << 20;

/// A protocol decode error (malformed frame payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for io::Error {
    fn from(e: ProtoError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// All data entries of tree `tree` intersecting `rect`.
    Window {
        /// Index of the target tree (as listed by [`Request::Info`]).
        tree: u16,
        /// The query window.
        rect: Rect,
        /// Deadline in milliseconds from arrival; 0 = none.
        deadline_ms: u32,
    },
    /// The `k` nearest data entries of tree `tree` to `(x, y)`.
    Nearest {
        /// Index of the target tree.
        tree: u16,
        /// Query point x.
        x: f64,
        /// Query point y.
        y: f64,
        /// Number of neighbors.
        k: u32,
        /// Deadline in milliseconds from arrival; 0 = none.
        deadline_ms: u32,
    },
    /// Spatial join of two loaded trees.
    Join {
        /// Index of the left tree.
        tree_a: u16,
        /// Index of the right tree.
        tree_b: u16,
        /// Whether to run exact-geometry refinement.
        refine: bool,
        /// Deadline in milliseconds from arrival; 0 = none.
        deadline_ms: u32,
        /// Owned x-interval `[lo, hi)` for sharded joins: the server keeps
        /// only pairs whose reference point (`a.xl.max(b.xl)` — the lower-x
        /// edge of the MBR intersection) falls inside the interval, so a
        /// router fanning one join out across overlapping shards gets every
        /// cross-shard pair exactly once. Bounds may be infinite (the edge
        /// shards own half-lines); `None` keeps all pairs.
        owner: Option<(f64, f64)>,
    },
    /// Server statistics (histogram percentiles, queue depth, node reads).
    Stats,
    /// Prometheus-text metrics exposition (same counters as [`Request::Stats`]).
    Metrics,
    /// The loaded trees: MBRs, sizes, page counts.
    Info,
    /// Graceful shutdown: server acks, drains, prints its report and exits.
    Shutdown,
}

/// One tree's description in an [`Response::Info`] reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeInfo {
    /// MBR of the whole tree.
    pub mbr: Rect,
    /// Number of data entries.
    pub len: u64,
    /// Number of pages.
    pub pages: u32,
}

/// Server-side counters reported by [`Response::Stats`] and printed at
/// shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests shed with [`Response::Overloaded`] by admission control.
    pub shed: u64,
    /// Requests that missed their deadline.
    pub timeouts: u64,
    /// Malformed frames / payloads received.
    pub proto_errors: u64,
    /// Requests admitted but not yet answered, at report time.
    pub queue_depth: u32,
    /// Window / nearest queries executed. The server no longer batches;
    /// this and the equal `batched_queries` remain for `benchmark/`.
    pub batches: u64,
    /// Window / nearest queries executed (always equals `batches`).
    pub batched_queries: u64,
    /// Latency percentiles over completed requests, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Tree-node reads by window / nearest queries since start. There is no
    /// page cache; the name stays because `benchmark/` reads it.
    pub cache_requests: u64,
    /// Tree-node reads that returned a frame (all but those refused by an
    /// expired deadline or an unreadable page); named as above.
    pub cache_hits: u64,
    /// Requests answered with [`Response::Storage`] of kind
    /// [`StorageErrorKind::Corrupt`].
    pub storage_corrupt: u64,
    /// Requests answered with [`Response::Storage`] of kind
    /// [`StorageErrorKind::Unavailable`].
    pub storage_unavailable: u64,
    /// Distinct corrupt pages detected since start: pages poisoned at load
    /// time plus pages an injected permanent fault refused.
    pub corrupt_pages_detected: u64,
    /// Tree-node reads retried under the server's retry policy since start.
    pub page_retries: u64,
    /// Request-handler panics caught and recovered (the server kept
    /// serving).
    pub worker_panics: u64,
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests:   {} completed, {} shed, {} timed out, {} protocol errors, {} queued, {} worker panics",
            self.completed,
            self.shed,
            self.timeouts,
            self.proto_errors,
            self.queue_depth,
            self.worker_panics
        )?;
        writeln!(
            f,
            "latency:    p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
            self.p50_ms, self.p95_ms, self.p99_ms
        )?;
        writeln!(
            f,
            "queries:    {} window / nearest executed, {} node reads",
            self.batches, self.cache_requests
        )?;
        write!(
            f,
            "storage:    {} corrupt replies, {} unavailable replies, {} corrupt pages detected, {} retries",
            self.storage_corrupt,
            self.storage_unavailable,
            self.corrupt_pages_detected,
            self.page_retries
        )
    }
}

/// Classification of a storage failure carried by [`Response::Storage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageErrorKind {
    /// Data failed its checksum (or the page was poisoned at load):
    /// retrying will not help, the index needs repair.
    Corrupt,
    /// The page could not be read (transient or permanent I/O failure that
    /// survived retries); the data itself may be intact.
    Unavailable,
}

impl StorageErrorKind {
    fn to_wire(self) -> u8 {
        match self {
            StorageErrorKind::Corrupt => 0,
            StorageErrorKind::Unavailable => 1,
        }
    }

    fn from_wire(v: u8) -> Result<Self, ProtoError> {
        match v {
            0 => Ok(StorageErrorKind::Corrupt),
            1 => Ok(StorageErrorKind::Unavailable),
            _ => Err(ProtoError(format!("unknown storage error kind {v}"))),
        }
    }
}

impl std::fmt::Display for StorageErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageErrorKind::Corrupt => write!(f, "corrupt"),
            StorageErrorKind::Unavailable => write!(f, "unavailable"),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Window query result: object ids (unordered).
    Entries(Vec<u64>),
    /// Nearest query result: `(distance, oid)` ascending by distance.
    Neighbors(Vec<(f64, u64)>),
    /// Join result: `(oid_a, oid_b)` pairs (unordered).
    Pairs(Vec<(u64, u64)>),
    /// Server statistics.
    Stats(ServerStats),
    /// Loaded trees, tagged with the responding shard's id (0 for a
    /// standalone server, [`ROUTER_SHARD`] for a router's merged view).
    Info {
        /// Shard id of the responder.
        shard: u16,
        /// Per-tree descriptions.
        trees: Vec<TreeInfo>,
    },
    /// Admission control shed this request; retry later.
    Overloaded,
    /// The request's deadline expired before it finished.
    DeadlineExceeded,
    /// The request was malformed or referenced an unknown tree.
    Error(String),
    /// Acknowledges a [`Request::Shutdown`].
    ShutdownAck,
    /// The request touched storage that is corrupt or unreadable; other
    /// trees and requests are unaffected.
    Storage {
        /// Failure classification.
        kind: StorageErrorKind,
        /// Human-readable detail (page id, checksum context).
        msg: String,
    },
    /// Prometheus-text metrics exposition.
    Metrics(String),
    /// A scatter-gather answer with incomplete shard coverage: `inner`
    /// carries the data the reachable shards produced, `missing_shards`
    /// the ids that contributed nothing (down, timed out, or degraded).
    /// Routers return this instead of an error so one dead shard degrades
    /// answers rather than taking the cluster down.
    Partial {
        /// Shards whose data is absent from `inner`, ascending.
        missing_shards: Vec<u16>,
        /// The merged payload from the shards that did answer. On the wire
        /// this is restricted to the payload kinds ([`Response::Entries`],
        /// [`Response::Neighbors`], [`Response::Pairs`]) — nesting is one
        /// level deep by construction.
        inner: Box<Response>,
    },
}

/// Sentinel shard id used by a router when answering [`Request::Info`]
/// with its merged cluster view (real shards use their configured id).
pub const ROUTER_SHARD: u16 = 0xFFFF;

// Opcodes. Requests are < 0x80, responses >= 0x80.
const OP_WINDOW: u8 = 0x01;
const OP_NEAREST: u8 = 0x02;
const OP_JOIN: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_INFO: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_METRICS: u8 = 0x07;
const OP_ENTRIES: u8 = 0x81;
const OP_NEIGHBORS: u8 = 0x82;
const OP_PAIRS: u8 = 0x83;
const OP_STATS_REPORT: u8 = 0x84;
const OP_INFO_REPORT: u8 = 0x85;
const OP_OVERLOADED: u8 = 0x86;
const OP_DEADLINE: u8 = 0x87;
const OP_ERROR: u8 = 0x88;
const OP_SHUTDOWN_ACK: u8 = 0x89;
const OP_STORAGE: u8 = 0x8A;
const OP_METRICS_REPORT: u8 = 0x8B;
const OP_PARTIAL: u8 = 0x8C;

/// Bounds-checked little-endian reader over a frame payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn rect(&mut self) -> Result<Rect, ProtoError> {
        let (xl, yl, xu, yu) = (self.f64()?, self.f64()?, self.f64()?, self.f64()?);
        if !(xl.is_finite() && yl.is_finite() && xu.is_finite() && yu.is_finite()) {
            return Err(ProtoError("non-finite rectangle coordinate".into()));
        }
        if xl > xu || yl > yu {
            return Err(ProtoError(format!(
                "degenerate rectangle [{xl}, {yl}, {xu}, {yu}]"
            )));
        }
        Ok(Rect::new(xl, yl, xu, yu))
    }

    /// A collection length, sanity-bounded so a hostile count cannot force
    /// a huge allocation before the (bounds-checked) element reads fail.
    fn len(&mut self, elem_bytes: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(elem_bytes) > remaining {
            return Err(ProtoError(format!(
                "count {n} x {elem_bytes} bytes exceeds remaining payload {remaining}"
            )));
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(ProtoError(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_rect(out: &mut Vec<u8>, r: &Rect) {
    put_f64(out, r.xl);
    put_f64(out, r.yl);
    put_f64(out, r.xu);
    put_f64(out, r.yu);
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        match self {
            Request::Window {
                tree,
                rect,
                deadline_ms,
            } => {
                out.push(OP_WINDOW);
                put_u16(&mut out, *tree);
                put_rect(&mut out, rect);
                put_u32(&mut out, *deadline_ms);
            }
            Request::Nearest {
                tree,
                x,
                y,
                k,
                deadline_ms,
            } => {
                out.push(OP_NEAREST);
                put_u16(&mut out, *tree);
                put_f64(&mut out, *x);
                put_f64(&mut out, *y);
                put_u32(&mut out, *k);
                put_u32(&mut out, *deadline_ms);
            }
            Request::Join {
                tree_a,
                tree_b,
                refine,
                deadline_ms,
                owner,
            } => {
                out.push(OP_JOIN);
                put_u16(&mut out, *tree_a);
                put_u16(&mut out, *tree_b);
                out.push(u8::from(*refine));
                put_u32(&mut out, *deadline_ms);
                match owner {
                    Some((lo, hi)) => {
                        out.push(1);
                        put_f64(&mut out, *lo);
                        put_f64(&mut out, *hi);
                    }
                    None => out.push(0),
                }
            }
            Request::Stats => out.push(OP_STATS),
            Request::Metrics => out.push(OP_METRICS),
            Request::Info => out.push(OP_INFO),
            Request::Shutdown => out.push(OP_SHUTDOWN),
        }
        out
    }

    /// Decodes a frame payload into a request.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cur::new(payload);
        let req = match c.u8()? {
            OP_WINDOW => Request::Window {
                tree: c.u16()?,
                rect: c.rect()?,
                deadline_ms: c.u32()?,
            },
            OP_NEAREST => {
                let tree = c.u16()?;
                let (x, y) = (c.f64()?, c.f64()?);
                if !(x.is_finite() && y.is_finite()) {
                    return Err(ProtoError("non-finite query point".into()));
                }
                Request::Nearest {
                    tree,
                    x,
                    y,
                    k: c.u32()?,
                    deadline_ms: c.u32()?,
                }
            }
            OP_JOIN => {
                let (tree_a, tree_b) = (c.u16()?, c.u16()?);
                let refine = c.u8()? != 0;
                let deadline_ms = c.u32()?;
                // The owner interval is an x-slab boundary pair: infinities
                // are legitimate (edge shards own half-lines), NaN is not.
                let owner = match c.u8()? {
                    0 => None,
                    1 => {
                        let (lo, hi) = (c.f64()?, c.f64()?);
                        if lo.is_nan() || hi.is_nan() {
                            return Err(ProtoError("NaN join owner bound".into()));
                        }
                        if lo >= hi {
                            return Err(ProtoError(format!(
                                "empty join owner interval [{lo}, {hi})"
                            )));
                        }
                        Some((lo, hi))
                    }
                    v => return Err(ProtoError(format!("bad join owner flag {v}"))),
                };
                Request::Join {
                    tree_a,
                    tree_b,
                    refine,
                    deadline_ms,
                    owner,
                }
            }
            OP_STATS => Request::Stats,
            OP_METRICS => Request::Metrics,
            OP_INFO => Request::Info,
            OP_SHUTDOWN => Request::Shutdown,
            op => return Err(ProtoError(format!("unknown request opcode {op:#04x}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

/// A response collection too large for the wire format's u32 counts.
///
/// The frame layout prefixes every variable-length section with a `u32`
/// count; encoding a larger collection with `as u32` would silently wrap
/// the count and desync the stream (the receiver would read the remaining
/// elements as the next frame's header). Encoders surface this instead,
/// and servers map it to a [`Response::Error`] via
/// [`Response::encode_or_error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeError {
    /// Which section overflowed (e.g. `"pairs"`).
    pub what: &'static str,
    /// The collection's actual length.
    pub len: usize,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "response too large for wire format: {} {} exceed the u32 count limit ({})",
            self.len,
            self.what,
            u32::MAX
        )
    }
}

impl std::error::Error for EncodeError {}

/// Narrows a collection length to the wire's `u32` count, surfacing
/// overflow as a typed error instead of wrapping.
fn wire_count(len: usize, what: &'static str) -> Result<u32, EncodeError> {
    u32::try_from(len).map_err(|_| EncodeError { what, len })
}

impl Response {
    /// Encodes the response into a frame payload.
    ///
    /// Fails with [`EncodeError`] when a section exceeds the wire format's
    /// `u32` count limit — the caller decides whether to degrade to a
    /// [`Response::Error`] frame ([`Response::encode_or_error`]) or to
    /// propagate.
    pub fn try_encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut out = Vec::with_capacity(32);
        match self {
            Response::Entries(oids) => {
                out.push(OP_ENTRIES);
                put_u32(&mut out, wire_count(oids.len(), "entries")?);
                for oid in oids {
                    put_u64(&mut out, *oid);
                }
            }
            Response::Neighbors(nn) => {
                out.push(OP_NEIGHBORS);
                put_u32(&mut out, wire_count(nn.len(), "neighbors")?);
                for (d, oid) in nn {
                    put_f64(&mut out, *d);
                    put_u64(&mut out, *oid);
                }
            }
            Response::Pairs(pairs) => {
                out.push(OP_PAIRS);
                put_u32(&mut out, wire_count(pairs.len(), "pairs")?);
                for (a, b) in pairs {
                    put_u64(&mut out, *a);
                    put_u64(&mut out, *b);
                }
            }
            Response::Stats(s) => {
                out.push(OP_STATS_REPORT);
                put_u64(&mut out, s.completed);
                put_u64(&mut out, s.shed);
                put_u64(&mut out, s.timeouts);
                put_u64(&mut out, s.proto_errors);
                put_u32(&mut out, s.queue_depth);
                put_u64(&mut out, s.batches);
                put_u64(&mut out, s.batched_queries);
                put_f64(&mut out, s.p50_ms);
                put_f64(&mut out, s.p95_ms);
                put_f64(&mut out, s.p99_ms);
                put_u64(&mut out, s.cache_requests);
                put_u64(&mut out, s.cache_hits);
                put_u64(&mut out, s.storage_corrupt);
                put_u64(&mut out, s.storage_unavailable);
                put_u64(&mut out, s.corrupt_pages_detected);
                put_u64(&mut out, s.page_retries);
                put_u64(&mut out, s.worker_panics);
            }
            Response::Info { shard, trees } => {
                out.push(OP_INFO_REPORT);
                put_u16(&mut out, *shard);
                put_u32(&mut out, wire_count(trees.len(), "trees")?);
                for t in trees {
                    put_rect(&mut out, &t.mbr);
                    put_u64(&mut out, t.len);
                    put_u32(&mut out, t.pages);
                }
            }
            Response::Overloaded => out.push(OP_OVERLOADED),
            Response::DeadlineExceeded => out.push(OP_DEADLINE),
            Response::Error(msg) => {
                out.push(OP_ERROR);
                let bytes = msg.as_bytes();
                put_u32(&mut out, wire_count(bytes.len(), "error bytes")?);
                out.extend_from_slice(bytes);
            }
            Response::ShutdownAck => out.push(OP_SHUTDOWN_ACK),
            Response::Storage { kind, msg } => {
                out.push(OP_STORAGE);
                out.push(kind.to_wire());
                let bytes = msg.as_bytes();
                put_u32(&mut out, wire_count(bytes.len(), "storage msg bytes")?);
                out.extend_from_slice(bytes);
            }
            Response::Metrics(text) => {
                out.push(OP_METRICS_REPORT);
                let bytes = text.as_bytes();
                put_u32(&mut out, wire_count(bytes.len(), "metrics bytes")?);
                out.extend_from_slice(bytes);
            }
            Response::Partial {
                missing_shards,
                inner,
            } => {
                out.push(OP_PARTIAL);
                put_u32(
                    &mut out,
                    wire_count(missing_shards.len(), "missing shards")?,
                );
                for s in missing_shards {
                    put_u16(&mut out, *s);
                }
                let nested = inner.try_encode()?;
                put_u32(&mut out, wire_count(nested.len(), "nested payload bytes")?);
                out.extend_from_slice(&nested);
            }
        }
        Ok(out)
    }

    /// Encodes for a server's write path: an over-limit response degrades
    /// to a [`Response::Error`] frame carrying the [`EncodeError`] text, so
    /// the client sees a typed failure instead of a desynced stream.
    pub fn encode_or_error(&self) -> Vec<u8> {
        self.try_encode().unwrap_or_else(|e| {
            Response::Error(e.to_string())
                .try_encode()
                .expect("error frame is far below the wire limits")
        })
    }

    /// Decodes a frame payload into a response.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cur::new(payload);
        let resp = match c.u8()? {
            OP_ENTRIES => {
                let n = c.len(8)?;
                let mut oids = Vec::with_capacity(n);
                for _ in 0..n {
                    oids.push(c.u64()?);
                }
                Response::Entries(oids)
            }
            OP_NEIGHBORS => {
                let n = c.len(16)?;
                let mut nn = Vec::with_capacity(n);
                for _ in 0..n {
                    nn.push((c.f64()?, c.u64()?));
                }
                Response::Neighbors(nn)
            }
            OP_PAIRS => {
                let n = c.len(16)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((c.u64()?, c.u64()?));
                }
                Response::Pairs(pairs)
            }
            OP_STATS_REPORT => Response::Stats(ServerStats {
                completed: c.u64()?,
                shed: c.u64()?,
                timeouts: c.u64()?,
                proto_errors: c.u64()?,
                queue_depth: c.u32()?,
                batches: c.u64()?,
                batched_queries: c.u64()?,
                p50_ms: c.f64()?,
                p95_ms: c.f64()?,
                p99_ms: c.f64()?,
                cache_requests: c.u64()?,
                cache_hits: c.u64()?,
                storage_corrupt: c.u64()?,
                storage_unavailable: c.u64()?,
                corrupt_pages_detected: c.u64()?,
                page_retries: c.u64()?,
                worker_panics: c.u64()?,
            }),
            OP_INFO_REPORT => {
                let shard = c.u16()?;
                let n = c.len(44)?;
                let mut trees = Vec::with_capacity(n);
                for _ in 0..n {
                    trees.push(TreeInfo {
                        mbr: c.rect()?,
                        len: c.u64()?,
                        pages: c.u32()?,
                    });
                }
                Response::Info { shard, trees }
            }
            OP_OVERLOADED => Response::Overloaded,
            OP_DEADLINE => Response::DeadlineExceeded,
            OP_ERROR => {
                let n = c.len(1)?;
                let bytes = c.take(n)?;
                Response::Error(
                    std::str::from_utf8(bytes)
                        .map_err(|_| ProtoError("error message is not UTF-8".into()))?
                        .to_string(),
                )
            }
            OP_SHUTDOWN_ACK => Response::ShutdownAck,
            OP_STORAGE => {
                let kind = StorageErrorKind::from_wire(c.u8()?)?;
                let n = c.len(1)?;
                let bytes = c.take(n)?;
                Response::Storage {
                    kind,
                    msg: std::str::from_utf8(bytes)
                        .map_err(|_| ProtoError("storage message is not UTF-8".into()))?
                        .to_string(),
                }
            }
            OP_METRICS_REPORT => {
                let n = c.len(1)?;
                let bytes = c.take(n)?;
                Response::Metrics(
                    std::str::from_utf8(bytes)
                        .map_err(|_| ProtoError("metrics text is not UTF-8".into()))?
                        .to_string(),
                )
            }
            OP_PARTIAL => {
                let n = c.len(2)?;
                let mut missing_shards = Vec::with_capacity(n);
                for _ in 0..n {
                    missing_shards.push(c.u16()?);
                }
                let nested_len = c.len(1)?;
                let nested = c.take(nested_len)?;
                // Only data payloads may nest: decoding stays total (no
                // recursion a hostile frame could deepen) and a Partial
                // wrapping Partial/Error/etc. is framing corruption.
                match nested.first() {
                    Some(&op) if op == OP_ENTRIES || op == OP_NEIGHBORS || op == OP_PAIRS => {}
                    Some(&op) => {
                        return Err(ProtoError(format!(
                            "partial response wraps non-payload opcode {op:#04x}"
                        )))
                    }
                    None => return Err(ProtoError("empty nested payload in partial".into())),
                }
                Response::Partial {
                    missing_shards,
                    inner: Box::new(Response::decode(nested)?),
                }
            }
            op => return Err(ProtoError(format!("unknown response opcode {op:#04x}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Writes one frame (length prefix + payload).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. Returns `Ok(None)` on clean EOF at a frame
/// boundary (peer closed the connection), an `InvalidData` error when the
/// length prefix exceeds `max` (the stream cannot be resynchronized), and
/// any other I/O error as-is (including `UnexpectedEof` for a frame
/// truncated mid-payload).
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds maximum {max}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let enc = Request::encode(&req);
        assert_eq!(Request::decode(&enc).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let enc = resp.try_encode().unwrap();
        assert_eq!(Response::decode(&enc).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Window {
            tree: 3,
            rect: Rect::new(-1.5, 0.0, 2.5, 4.0),
            deadline_ms: 250,
        });
        roundtrip_req(Request::Nearest {
            tree: 0,
            x: 1.25,
            y: -9.0,
            k: 10,
            deadline_ms: 0,
        });
        roundtrip_req(Request::Join {
            tree_a: 0,
            tree_b: 1,
            refine: true,
            deadline_ms: 10_000,
            owner: None,
        });
        roundtrip_req(Request::Join {
            tree_a: 2,
            tree_b: 3,
            refine: false,
            deadline_ms: 0,
            owner: Some((f64::NEG_INFINITY, 4.5)),
        });
        roundtrip_req(Request::Join {
            tree_a: 0,
            tree_b: 0,
            refine: true,
            deadline_ms: 7,
            owner: Some((-1.0, f64::INFINITY)),
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Info);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Entries(vec![1, 2, 3, u64::MAX]));
        roundtrip_resp(Response::Neighbors(vec![(0.5, 7), (1.5, 9)]));
        roundtrip_resp(Response::Pairs(vec![(1, 2), (3, 4)]));
        roundtrip_resp(Response::Stats(ServerStats {
            completed: 10,
            shed: 2,
            p99_ms: 1.5,
            storage_corrupt: 3,
            cache_requests: 40,
            cache_hits: 38,
            corrupt_pages_detected: 5,
            page_retries: 17,
            worker_panics: 1,
            ..Default::default()
        }));
        roundtrip_resp(Response::Info {
            shard: 3,
            trees: vec![TreeInfo {
                mbr: Rect::new(0.0, 0.0, 1.0, 1.0),
                len: 42,
                pages: 7,
            }],
        });
        roundtrip_resp(Response::Partial {
            missing_shards: vec![1, 4],
            inner: Box::new(Response::Entries(vec![9, 10])),
        });
        roundtrip_resp(Response::Partial {
            missing_shards: vec![],
            inner: Box::new(Response::Neighbors(vec![(0.25, 3)])),
        });
        roundtrip_resp(Response::Partial {
            missing_shards: vec![0, 1, 2],
            inner: Box::new(Response::Pairs(vec![])),
        });
        roundtrip_resp(Response::Overloaded);
        roundtrip_resp(Response::DeadlineExceeded);
        roundtrip_resp(Response::Error("unknown tree 9".into()));
        roundtrip_resp(Response::ShutdownAck);
        roundtrip_resp(Response::Storage {
            kind: StorageErrorKind::Corrupt,
            msg: "page p7 checksum mismatch".into(),
        });
        roundtrip_resp(Response::Storage {
            kind: StorageErrorKind::Unavailable,
            msg: "page p3: i/o error".into(),
        });
        roundtrip_resp(Response::Metrics(
            "# TYPE psj_requests_completed_total counter\npsj_requests_completed_total 7\n".into(),
        ));
    }

    #[test]
    fn storage_response_rejects_bad_kind() {
        let mut enc = vec![OP_STORAGE, 7];
        enc.extend_from_slice(&0u32.to_le_bytes());
        assert!(Response::decode(&enc).is_err());
    }

    #[test]
    fn garbage_payloads_decode_to_errors_not_panics() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xff]).is_err());
        assert!(
            Request::decode(&[OP_WINDOW, 1]).is_err(),
            "truncated window"
        );
        // Trailing bytes are rejected.
        let mut enc = Request::Stats.encode();
        enc.push(0);
        assert!(Request::decode(&enc).is_err());
        // Hostile element count.
        let mut resp = vec![OP_ENTRIES];
        resp.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&resp).is_err());
    }

    #[test]
    fn join_owner_bounds_validated() {
        fn join_with_owner(lo: f64, hi: f64) -> Vec<u8> {
            let mut enc = Request::Join {
                tree_a: 0,
                tree_b: 1,
                refine: false,
                deadline_ms: 0,
                owner: Some((1.0, 2.0)),
            }
            .encode();
            let n = enc.len();
            enc[n - 16..n - 8].copy_from_slice(&lo.to_le_bytes());
            enc[n - 8..].copy_from_slice(&hi.to_le_bytes());
            enc
        }
        assert!(Request::decode(&join_with_owner(f64::NAN, 1.0)).is_err());
        assert!(Request::decode(&join_with_owner(0.0, f64::NAN)).is_err());
        assert!(
            Request::decode(&join_with_owner(2.0, 2.0)).is_err(),
            "empty"
        );
        assert!(
            Request::decode(&join_with_owner(3.0, 2.0)).is_err(),
            "inverted"
        );
        // Infinite bounds are the edge shards' half-lines: accepted.
        assert!(Request::decode(&join_with_owner(f64::NEG_INFINITY, f64::INFINITY)).is_ok());
        // A bad flag byte is rejected.
        let mut enc = Request::Join {
            tree_a: 0,
            tree_b: 1,
            refine: false,
            deadline_ms: 0,
            owner: None,
        }
        .encode();
        *enc.last_mut().unwrap() = 7;
        assert!(Request::decode(&enc).is_err());
    }

    #[test]
    fn wire_count_is_exact_at_the_u32_boundary() {
        // The count check, factored out so the boundary is testable without
        // materializing a 32 GiB pair vector.
        assert_eq!(wire_count(0, "pairs"), Ok(0));
        assert_eq!(wire_count(u32::MAX as usize, "pairs"), Ok(u32::MAX));
        let err = wire_count(u32::MAX as usize + 1, "pairs").unwrap_err();
        assert_eq!(err.what, "pairs");
        assert_eq!(err.len, u32::MAX as usize + 1);
        assert!(
            err.to_string().contains("pairs") && err.to_string().contains("u32"),
            "error names the section and the limit: {err}"
        );
    }

    #[test]
    fn encode_or_error_degrades_to_typed_error_frame() {
        // A real overflow needs a >u32::MAX-element vector, so exercise the
        // degradation path with the EncodeError text a server would embed.
        let e = EncodeError {
            what: "pairs",
            len: u32::MAX as usize + 1,
        };
        let frame = Response::Error(e.to_string()).encode_or_error();
        match Response::decode(&frame).unwrap() {
            Response::Error(msg) => assert!(msg.contains("pairs"), "{msg}"),
            other => panic!("expected Error frame, got {other:?}"),
        }
        // Ordinary responses are unaffected.
        let ok = Response::Pairs(vec![(1, 2)]).encode_or_error();
        assert_eq!(
            Response::decode(&ok).unwrap(),
            Response::Pairs(vec![(1, 2)])
        );
    }

    #[test]
    fn partial_rejects_non_payload_nesting() {
        fn partial_wrapping(inner: &Response) -> Vec<u8> {
            let nested = inner.try_encode().unwrap();
            let mut enc = vec![OP_PARTIAL];
            enc.extend_from_slice(&1u32.to_le_bytes());
            enc.extend_from_slice(&2u16.to_le_bytes());
            enc.extend_from_slice(&(nested.len() as u32).to_le_bytes());
            enc.extend_from_slice(&nested);
            enc
        }
        // Partial-in-Partial (unbounded nesting) is rejected.
        let nested_partial = Response::Partial {
            missing_shards: vec![1],
            inner: Box::new(Response::Entries(vec![])),
        };
        assert!(Response::decode(&partial_wrapping(&nested_partial)).is_err());
        // So are typed errors and control responses.
        assert!(Response::decode(&partial_wrapping(&Response::Overloaded)).is_err());
        assert!(Response::decode(&partial_wrapping(&Response::Error("x".into()))).is_err());
        // An empty nested payload is rejected.
        let mut enc = vec![OP_PARTIAL];
        enc.extend_from_slice(&0u32.to_le_bytes());
        enc.extend_from_slice(&0u32.to_le_bytes());
        assert!(Response::decode(&enc).is_err());
    }

    #[test]
    fn non_finite_and_degenerate_rects_rejected() {
        let mut enc = vec![OP_WINDOW];
        enc.extend_from_slice(&1u16.to_le_bytes());
        for v in [f64::NAN, 0.0, 1.0, 1.0] {
            enc.extend_from_slice(&v.to_le_bytes());
        }
        enc.extend_from_slice(&0u32.to_le_bytes());
        assert!(Request::decode(&enc).is_err());

        let mut enc = vec![OP_WINDOW];
        enc.extend_from_slice(&1u16.to_le_bytes());
        for v in [5.0f64, 0.0, 1.0, 1.0] {
            // xl > xu
            enc.extend_from_slice(&v.to_le_bytes());
        }
        enc.extend_from_slice(&0u32.to_le_bytes());
        assert!(Request::decode(&enc).is_err());
    }

    #[test]
    fn frames_roundtrip_and_enforce_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).unwrap();
        write_frame(&mut buf, &[]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 16).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(read_frame(&mut r, 16).unwrap(), Some(vec![]));
        assert_eq!(read_frame(&mut r, 16).unwrap(), None, "clean EOF");

        // Oversized length prefix.
        let huge = (MAX_REQUEST_FRAME as u32 + 1).to_le_bytes();
        let mut r = &huge[..];
        let err = read_frame(&mut r, MAX_REQUEST_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Truncated payload.
        let mut buf = 8u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = &buf[..];
        let err = read_frame(&mut r, 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Truncated prefix.
        let mut r = &[7u8, 0][..];
        let err = read_frame(&mut r, 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
