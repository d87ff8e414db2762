//! The scatter-gather router.
//!
//! A [`Router`] is itself a protocol server: a [`Service`] on psj-serve's
//! shell ([`Listener`]), so it accepts, frames and shuts down exactly as a
//! shard does, and forwards each request to the shards that can answer it:
//!
//! * window queries go to the shards whose slab overlaps the query
//!   rectangle (often just one);
//! * nearest queries go to every shard (the true neighbors of a point
//!   near a slab boundary may live on either side) and the merged
//!   distance order is truncated back to `k`;
//! * joins fan out to every shard, each carrying that shard's owned
//!   interval so the reference-point filter yields every cross-shard
//!   pair exactly once (see `plan`);
//! * `Stats`/`Metrics` answer from the router's own counters; `Info`
//!   merges the shard views.
//!
//! Robustness is the point of this module. Each shard has a health state
//! machine (`health`) and a small connection pool. Failed exchanges retry
//! under bounded jittered backoff while the request's deadline allows;
//! shards that keep failing are marked down and skipped (a background
//! prober readmits them). Every connect, write and read of a shard
//! exchange is bounded by the request deadline, so the gather simply
//! joins its scatter: the first target is queried on the connection
//! thread, each other one on a scoped thread. When shards are unreachable
//! past their budget, the router answers [`Response::Partial`] with the
//! data the live shards produced and the missing ids — degraded, never
//! wedged.

use crate::health::{Health, HealthPolicy, HealthState, RouteDecision, Transition};
use psj_obs::{Counter, Gauge, Histogram, Registry};
use psj_serve::protocol::{
    read_frame, write_frame, Request, Response, ServerStats, TreeInfo, MAX_RESPONSE_FRAME,
    ROUTER_SHARD,
};
use psj_serve::{BackoffPolicy, Listener, Service};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A shard's address and owned x-interval, as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardAddr {
    /// Shard id (must match the `--shard-id` the shard serves with).
    pub id: u16,
    /// The shard's listen address.
    pub addr: SocketAddr,
    /// Inclusive lower bound of the owned interval.
    pub x_lo: f64,
    /// Exclusive upper bound of the owned interval.
    pub x_hi: f64,
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` for tests).
    pub addr: SocketAddr,
    /// The shards, ascending by owned interval.
    pub shards: Vec<ShardAddr>,
    /// Health state machine thresholds.
    pub health: HealthPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            shards: Vec::new(),
            health: HealthPolicy::default(),
        }
    }
}

/// Per-attempt connect timeout to a shard.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Longest one shard exchange may take, however far off the request's
/// deadline is.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Gather budget for requests that carry no deadline of their own.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(2);
/// Retry budget and backoff shape for failed shard exchanges.
const RETRY: BackoffPolicy = BackoffPolicy {
    max_retries: 2,
    base: Duration::from_millis(5),
    cap: Duration::from_millis(100),
    jitter_seed: 0x9E37,
};
/// Concurrent in-flight client requests before the router sheds.
const QUEUE_BOUND: usize = 256;
/// Read timeout on the router's own client connections (bounds how long a
/// halt takes to propagate).
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Per-shard runtime state: spec, pooled connections, health, metrics.
struct ShardSlot {
    spec: ShardAddr,
    /// Idle connections, reused across requests (bounded).
    pool: Mutex<Vec<TcpStream>>,
    state: Mutex<HealthState>,
    retries: Arc<Counter>,
    failures: Arc<Counter>,
    down_total: Arc<Counter>,
    probes: Arc<Counter>,
    recovered: Arc<Counter>,
    health_gauge: Arc<Gauge>,
}

/// Connections kept idle per shard.
const POOL_CAP: usize = 4;

struct Shared {
    health: HealthPolicy,
    slots: Vec<ShardSlot>,
    registry: Registry,
    requests: Arc<Counter>,
    completed: Arc<Counter>,
    partials: Arc<Counter>,
    deadlines: Arc<Counter>,
    proto_errors: Arc<Counter>,
    shed: Arc<Counter>,
    latency: Arc<Histogram>,
    inflight: AtomicUsize,
}

fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    /// Applies a health transition to the per-shard metrics.
    fn record_transition(&self, idx: usize, t: Option<Transition>) {
        let slot = &self.slots[idx];
        if let Some(t) = t {
            if t.to == Health::Down && t.from != Health::Down {
                slot.down_total.inc();
            }
            if t.to == Health::Healthy && matches!(t.from, Health::Down | Health::Probing) {
                slot.recovered.inc();
            }
        }
        slot.health_gauge
            .set(lock_clean(&slot.state).health().as_gauge());
    }
}

/// The scatter-gather router process.
pub struct Router {
    shared: Arc<Shared>,
    listener: Listener,
    prober: JoinHandle<()>,
    /// Dropped to stop the prober.
    prober_stop: mpsc::Sender<()>,
}

impl Router {
    /// Binds `cfg.addr` and starts the acceptor and the prober.
    pub fn start(cfg: RouterConfig) -> io::Result<Router> {
        if cfg.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        let registry = Registry::new();
        let slots: Vec<ShardSlot> = cfg
            .shards
            .iter()
            .map(|&spec| {
                let sid = spec.id.to_string();
                let counter = |name, help| registry.counter_with_label(name, help, "shard", &sid);
                let slot = ShardSlot {
                    spec,
                    pool: Mutex::new(Vec::new()),
                    state: Mutex::new(HealthState::new()),
                    retries: counter(
                        "psj_router_shard_retries_total",
                        "Shard exchanges retried after a failure",
                    ),
                    failures: counter(
                        "psj_router_shard_failures_total",
                        "Failed shard exchanges (connect, transport, timeout)",
                    ),
                    down_total: counter(
                        "psj_router_shard_down_total",
                        "Transitions into the Down state",
                    ),
                    probes: counter(
                        "psj_router_shard_probes_total",
                        "Probe attempts against a Down shard",
                    ),
                    recovered: counter(
                        "psj_router_shard_recovered_total",
                        "Recoveries from Down/Probing back to Healthy",
                    ),
                    health_gauge: registry.gauge_with_label(
                        "psj_router_shard_health",
                        "Shard health: 0 healthy, 1 suspect, 2 down, 3 probing",
                        "shard",
                        &sid,
                    ),
                };
                slot.health_gauge.set(Health::Healthy.as_gauge());
                slot
            })
            .collect();
        let shared = Arc::new(Shared {
            requests: registry.counter("psj_router_requests_total", "Requests accepted"),
            completed: registry.counter(
                "psj_router_completed_total",
                "Requests answered with a payload (full or partial)",
            ),
            partials: registry.counter(
                "psj_router_partial_responses_total",
                "Degraded answers with missing shards",
            ),
            deadlines: registry.counter(
                "psj_router_deadline_total",
                "Gathers that ran out of deadline budget",
            ),
            proto_errors: registry
                .counter("psj_router_proto_errors_total", "Malformed client frames"),
            shed: registry.counter(
                "psj_router_shed_total",
                "Requests shed by router admission control",
            ),
            latency: registry.histogram(
                "psj_router_latency_seconds",
                "End-to-end router latency over answered requests",
            ),
            registry,
            slots,
            inflight: AtomicUsize::new(0),
            health: cfg.health,
        });

        let listener = Listener::start(
            cfg.addr,
            CONN_READ_TIMEOUT,
            "psj-router",
            Arc::clone(&shared),
        )?;
        let (prober_stop, stop) = mpsc::channel();
        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("psj-router-prober".into())
                .spawn(move || prober_loop(&shared, &stop))
                .expect("spawn router prober")
        };

        Ok(Router {
            shared,
            listener,
            prober,
            prober_stop,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The router's metrics in Prometheus text format (same content a
    /// `Metrics` request returns).
    pub fn metrics_text(&self) -> String {
        metrics_text(&self.shared)
    }

    /// Blocks until a client sends [`Request::Shutdown`], then stops.
    pub fn wait(self) {
        self.listener.wait();
        self.stop();
    }

    /// Stops the listener, its connection threads and the prober. Shards
    /// are not contacted — a router shutdown never takes data nodes with
    /// it.
    pub fn stop(self) {
        self.listener.stop();
        drop(self.prober_stop);
        let _ = self.prober.join();
    }
}

/// One gathered shard answer (or the lack of one).
enum ShardAnswer {
    /// A payload response (`Entries`/`Neighbors`/`Pairs`).
    Payload(Response),
    /// A well-formed non-payload response (`Overloaded`, `Error`, ...):
    /// the shard is healthy but contributed no data.
    Typed(Response),
    /// Nothing usable arrived before the deadline.
    Missing,
}

impl Service for Shared {
    /// Routes one decoded request and produces the reply.
    fn respond(&self, req: Request) -> Response {
        self.requests.inc();
        match req {
            Request::Stats => stats_response(self),
            Request::Metrics => Response::Metrics(metrics_text(self)),
            Request::Info => info_response(self),
            Request::Shutdown => unreachable!("the listener answers Shutdown"),
            Request::Window { .. } | Request::Nearest { .. } | Request::Join { .. } => {
                // Admission control: bound concurrent scatters.
                if self.inflight.fetch_add(1, Ordering::SeqCst) >= QUEUE_BOUND {
                    self.inflight.fetch_sub(1, Ordering::SeqCst);
                    self.shed.inc();
                    return Response::Overloaded;
                }
                let started = Instant::now();
                let resp = scatter_gather(self, &req, started);
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                match &resp {
                    Response::Entries(_) | Response::Neighbors(_) | Response::Pairs(_) => {
                        self.completed.inc();
                        self.latency.record(started.elapsed());
                    }
                    Response::Partial { .. } => {
                        self.completed.inc();
                        self.partials.inc();
                        self.latency.record(started.elapsed());
                    }
                    Response::DeadlineExceeded => {
                        self.deadlines.inc();
                    }
                    _ => {}
                }
                resp
            }
        }
    }

    fn proto_error(&self) {
        self.proto_errors.inc();
    }
}

/// The scatter targets for a data request: `(slot index, per-shard
/// request)` pairs.
fn targets_for(shared: &Shared, req: &Request) -> Vec<(usize, Request)> {
    match req {
        Request::Window { rect, .. } => shared
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.spec.x_lo <= rect.xu && s.spec.x_hi > rect.xl)
            .map(|(i, _)| (i, req.clone()))
            .collect(),
        Request::Nearest { .. } => (0..shared.slots.len()).map(|i| (i, req.clone())).collect(),
        Request::Join {
            tree_a,
            tree_b,
            refine,
            deadline_ms,
            ..
        } => shared
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                // Each shard keeps only the pairs whose reference point it
                // owns; any owner interval the client sent is superseded.
                (
                    i,
                    Request::Join {
                        tree_a: *tree_a,
                        tree_b: *tree_b,
                        refine: *refine,
                        deadline_ms: *deadline_ms,
                        owner: Some((s.spec.x_lo, s.spec.x_hi)),
                    },
                )
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn request_deadline(req: &Request, arrival: Instant) -> Instant {
    let ms = match req {
        Request::Window { deadline_ms, .. }
        | Request::Nearest { deadline_ms, .. }
        | Request::Join { deadline_ms, .. } => *deadline_ms,
        _ => 0,
    };
    let budget = if ms > 0 {
        Duration::from_millis(u64::from(ms))
    } else {
        DEFAULT_DEADLINE
    };
    arrival + budget
}

/// Fans the request out and gathers under the deadline. Returns the
/// merged payload, a `Partial` when shards are missing, or a typed
/// error/`DeadlineExceeded` for degenerate outcomes.
///
/// The first target is queried on the calling (connection) thread and
/// every other one on a scoped thread; the gather joins them all. That is
/// safe because every syscall of an exchange is bounded by `deadline`
/// (see [`Bounded`]), so a shard that never answers, or answers a byte at
/// a time, comes back `Missing` at the deadline rather than holding the
/// gather.
fn scatter_gather(shared: &Shared, req: &Request, arrival: Instant) -> Response {
    let targets = targets_for(shared, req);
    let Some(((first, first_req), rest)) = targets.split_first() else {
        return Response::Error("request resolves to no shard".into());
    };
    let deadline = request_deadline(req, arrival);
    let answers: Vec<(usize, ShardAnswer)> = std::thread::scope(|s| {
        let others: Vec<_> = rest
            .iter()
            .map(|(idx, shard_req)| {
                (
                    *idx,
                    s.spawn(move || query_shard(shared, *idx, shard_req, deadline)),
                )
            })
            .collect();
        let mut answers = Vec::with_capacity(targets.len());
        answers.push((*first, query_shard(shared, *first, first_req, deadline)));
        for (idx, h) in others {
            answers.push((idx, h.join().unwrap_or(ShardAnswer::Missing)));
        }
        answers
    });
    let missing = answers
        .iter()
        .any(|(_, a)| matches!(a, ShardAnswer::Missing));
    if missing && Instant::now() >= deadline {
        shared.deadlines.inc();
    }

    merge(shared, req, answers)
}

/// Merges the gathered answers, one per target, into the client-facing
/// response.
fn merge(shared: &Shared, req: &Request, answers: Vec<(usize, ShardAnswer)>) -> Response {
    let mut payloads: Vec<Response> = Vec::new();
    let mut typed: Vec<Response> = Vec::new();
    // Targets that produced no payload, typed or transport-missing, are
    // the partial set: a window over slab 2 is not "missing" slabs 0 and 1.
    let mut missing: Vec<u16> = Vec::new();
    for (idx, a) in answers {
        match a {
            ShardAnswer::Payload(r) => payloads.push(r),
            ShardAnswer::Typed(r) => {
                missing.push(shared.slots[idx].spec.id);
                typed.push(r);
            }
            ShardAnswer::Missing => missing.push(shared.slots[idx].spec.id),
        }
    }
    missing.sort_unstable();

    if payloads.is_empty() {
        // No data at all. If every targeted shard answered with a typed
        // refusal, pass the first through for single-node parity (e.g.
        // `Error("unknown tree")`); otherwise report the outage as a
        // partial answer.
        if typed.len() == missing.len() {
            return typed.into_iter().next().expect("at least one target");
        }
        return Response::Partial {
            missing_shards: missing,
            inner: Box::new(empty_payload(req)),
        };
    }

    let inner = merge_payloads(req, payloads);
    if missing.is_empty() {
        inner
    } else {
        Response::Partial {
            missing_shards: missing,
            inner: Box::new(inner),
        }
    }
}

/// The empty payload of the right kind for a degraded answer with no
/// surviving data.
fn empty_payload(req: &Request) -> Response {
    match req {
        Request::Window { .. } => Response::Entries(Vec::new()),
        Request::Nearest { .. } => Response::Neighbors(Vec::new()),
        _ => Response::Pairs(Vec::new()),
    }
}

/// Merges same-kind payloads. Replication makes duplicates *expected*
/// for entries (an item in two slabs answers from both); joins are
/// disjoint by the owner filter but are deduplicated anyway so a
/// misconfigured shard cannot double-report.
fn merge_payloads(req: &Request, payloads: Vec<Response>) -> Response {
    match req {
        Request::Window { .. } => {
            let mut oids: Vec<u64> = Vec::new();
            for p in payloads {
                if let Response::Entries(mut e) = p {
                    oids.append(&mut e);
                }
            }
            oids.sort_unstable();
            oids.dedup();
            Response::Entries(oids)
        }
        Request::Nearest { k, .. } => {
            let mut nn: Vec<(f64, u64)> = Vec::new();
            for p in payloads {
                if let Response::Neighbors(mut e) = p {
                    nn.append(&mut e);
                }
            }
            // Replicas of one object report identical (distance, oid)
            // tuples; sort by distance then oid and drop exact repeats.
            nn.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            nn.dedup_by(|a, b| a.0.to_bits() == b.0.to_bits() && a.1 == b.1);
            nn.truncate(*k as usize);
            Response::Neighbors(nn)
        }
        _ => {
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            for p in payloads {
                if let Response::Pairs(mut e) = p {
                    pairs.append(&mut e);
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
            Response::Pairs(pairs)
        }
    }
}

/// Sends one request to one shard under the health machine, retry
/// budget, and deadline. Returns the shard's answer classification.
fn query_shard(shared: &Shared, idx: usize, req: &Request, deadline: Instant) -> ShardAnswer {
    let slot = &shared.slots[idx];
    let decision = lock_clean(&slot.state).route(Instant::now());
    let attempts = match decision {
        RouteDecision::Skip => return ShardAnswer::Missing,
        RouteDecision::Probe => {
            slot.probes.inc();
            slot.health_gauge.set(Health::Probing.as_gauge());
            1
        }
        RouteDecision::Route => RETRY.max_retries + 1,
    };
    for attempt in 0..attempts {
        if attempt > 0 {
            let delay = RETRY.delay(attempt - 1);
            if Instant::now() + delay >= deadline {
                break;
            }
            std::thread::sleep(delay);
            slot.retries.inc();
        }
        match attempt_once(shared, idx, req, deadline) {
            Ok(resp) => {
                let t = lock_clean(&slot.state).on_success();
                shared.record_transition(idx, t);
                return match resp {
                    Response::Entries(_) | Response::Neighbors(_) | Response::Pairs(_) => {
                        ShardAnswer::Payload(resp)
                    }
                    // The shard answered but contributed no data
                    // (overloaded, deadline, storage, bad tree, ...).
                    other => ShardAnswer::Typed(other),
                };
            }
            Err(_) => {
                slot.failures.inc();
                let t = lock_clean(&slot.state).on_failure(&shared.health, Instant::now());
                shared.record_transition(idx, t);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    ShardAnswer::Missing
}

/// One exchange on a pooled (or fresh) connection, bounded by the
/// remaining deadline budget and by [`READ_TIMEOUT`].
fn attempt_once(
    shared: &Shared,
    idx: usize,
    req: &Request,
    deadline: Instant,
) -> io::Result<Response> {
    let slot = &shared.slots[idx];
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "deadline exhausted before the attempt",
        ));
    }
    let pooled = lock_clean(&slot.pool).pop();
    let stream = match pooled {
        Some(s) => s,
        None => connect(slot.spec.addr, CONNECT_TIMEOUT.min(remaining))?,
    };
    // A failed exchange drops the connection (its stream may hold a
    // half-read frame); only clean exchanges return to the pool.
    let resp = exchange(&stream, req, deadline.min(Instant::now() + READ_TIMEOUT))?;
    if matches!(resp, Response::Partial { .. }) {
        // Shards never answer Partial; a shard that does is broken.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "shard answered with a router-only Partial response",
        ));
    }
    let mut pool = lock_clean(&slot.pool);
    if pool.len() < POOL_CAP {
        pool.push(stream);
    }
    Ok(resp)
}

fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A shard socket seen through a deadline: every read and write first
/// re-arms the socket's timeout to what remains of the budget, so a shard
/// that stalls, or trickles its reply a byte at a time, cannot stretch an
/// exchange past `deadline`.
struct Bounded<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Bounded<'_> {
    fn remaining(&self) -> io::Result<Duration> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "shard exchange ran out of deadline",
            ));
        }
        Ok(left)
    }
}

impl Read for Bounded<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.remaining()?))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

impl Write for Bounded<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.remaining()?))?;
        let mut stream = self.stream;
        stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One request/reply exchange with a shard, every syscall bounded by
/// `deadline`.
fn exchange(stream: &TcpStream, req: &Request, deadline: Instant) -> io::Result<Response> {
    let mut io = Bounded { stream, deadline };
    // Framed in memory first so the request leaves in one write.
    let mut frame = Vec::new();
    write_frame(&mut frame, &req.encode())?;
    io.write_all(&frame)?;
    match read_frame(&mut io, MAX_RESPONSE_FRAME)? {
        Some(reply) => Ok(Response::decode(&reply)?),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shard closed the connection before replying",
        )),
    }
}

/// Verifies a Down shard has come back: fresh connection, `Info`, and
/// the responder must identify as the shard the topology expects.
fn probe_shard(shared: &Shared, idx: usize) -> bool {
    let slot = &shared.slots[idx];
    let Ok(stream) = connect(slot.spec.addr, CONNECT_TIMEOUT) else {
        return false;
    };
    match exchange(&stream, &Request::Info, Instant::now() + READ_TIMEOUT) {
        Ok(Response::Info { shard, trees }) => shard == slot.spec.id && !trees.is_empty(),
        _ => false,
    }
}

/// Background prober: readmits Down shards without waiting for client
/// traffic to trip over them. Ticks until `stop`'s sender is dropped.
fn prober_loop(shared: &Shared, stop: &mpsc::Receiver<()>) {
    let tick = shared.health.probe_interval.min(Duration::from_millis(50));
    let tick = tick.max(Duration::from_millis(5));
    while let Err(mpsc::RecvTimeoutError::Timeout) = stop.recv_timeout(tick) {
        for idx in 0..shared.slots.len() {
            let slot = &shared.slots[idx];
            let decision = {
                let mut st = lock_clean(&slot.state);
                if st.health() != Health::Down {
                    continue;
                }
                st.route(Instant::now())
            };
            if decision != RouteDecision::Probe {
                continue;
            }
            slot.probes.inc();
            slot.health_gauge.set(Health::Probing.as_gauge());
            let ok = probe_shard(shared, idx);
            let t = if ok {
                lock_clean(&slot.state).on_success()
            } else {
                lock_clean(&slot.state).on_failure(&shared.health, Instant::now())
            };
            shared.record_transition(idx, t);
        }
    }
}

/// Router stats in the server's stats shape, so `psj stats` and the
/// load generator work unchanged against a router.
fn stats_response(shared: &Shared) -> Response {
    Response::Stats(ServerStats {
        completed: shared.completed.get(),
        shed: shared.shed.get(),
        timeouts: shared.deadlines.get(),
        proto_errors: shared.proto_errors.get(),
        queue_depth: shared.inflight.load(Ordering::SeqCst) as u32,
        p50_ms: shared.latency.quantile_ms(0.50),
        p95_ms: shared.latency.quantile_ms(0.95),
        p99_ms: shared.latency.quantile_ms(0.99),
        ..ServerStats::default()
    })
}

fn metrics_text(shared: &Shared) -> String {
    // Health gauges are refreshed at scrape time so a state that changed
    // without a transition event still renders correctly.
    for slot in shared.slots.iter() {
        slot.health_gauge
            .set(lock_clean(&slot.state).health().as_gauge());
    }
    shared.registry.render_prometheus()
}

/// Merged cluster view: per tree index, the union MBR and summed sizes
/// across the shards that answered. Replicated items are counted once
/// per replica — the numbers describe the physical cluster, not the
/// logical dataset.
fn info_response(shared: &Shared) -> Response {
    let deadline = Instant::now() + DEFAULT_DEADLINE;
    let mut merged: Vec<TreeInfo> = Vec::new();
    let mut any = false;
    for idx in 0..shared.slots.len() {
        let Ok(resp) = attempt_once(shared, idx, &Request::Info, deadline) else {
            continue;
        };
        let Response::Info { trees, .. } = resp else {
            continue;
        };
        any = true;
        for (t, info) in trees.into_iter().enumerate() {
            match merged.get_mut(t) {
                Some(m) => {
                    m.mbr = m.mbr.union(&info.mbr);
                    m.len += info.len;
                    m.pages += info.pages;
                }
                None => merged.push(info),
            }
        }
    }
    if !any {
        return Response::Error("no shard reachable for info".into());
    }
    Response::Info {
        shard: ROUTER_SHARD,
        trees: merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psj_serve::Client;

    #[test]
    fn finished_connection_handles_are_dropped_at_accept() {
        // The router never dials its shard here (`Stats` answers from its
        // own counters), so the shard's address need not be live.
        let router = Router::start(RouterConfig {
            shards: vec![ShardAddr {
                id: 0,
                addr: SocketAddr::from(([127, 0, 0, 1], 1)),
                x_lo: f64::NEG_INFINITY,
                x_hi: f64::INFINITY,
            }],
            ..RouterConfig::default()
        })
        .unwrap();
        let addr = router.local_addr();
        for _ in 0..50 {
            Client::connect(addr).unwrap().stats().unwrap();
        }
        // Each accept drops the handles of threads that have exited; a
        // hung-up client's thread exits as soon as it reads EOF, so a few
        // more accepts see all 50 gone.
        let t0 = Instant::now();
        loop {
            drop(TcpStream::connect(addr));
            if router.listener.connections() <= 4 {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "{} connection handles still held",
                router.listener.connections()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        router.stop();
    }
}
