//! The server: an acceptor and one thread per connection, each of which
//! executes its own requests against the loaded trees, read in place.
//!
//! ```text
//! acceptor ──► connection thread: read ─► admit ─► slot ─► execute ─► reply
//! ```
//!
//! * **Admission control** — a request is *admitted* by incrementing the
//!   `queued` counter; if that pushes past `queue_bound` (or the server is
//!   draining) it is immediately un-admitted and answered
//!   [`Response::Overloaded`]. `queued` counts admitted-but-unanswered
//!   requests, so the bound covers requests waiting for a slot and
//!   requests executing alike.
//! * **Execution slots** — an admitted request takes one of `workers`
//!   slots and runs on its own connection thread; at most `workers`
//!   requests (joins included) execute at once. When every slot
//!   is busy the thread waits; a released slot is handed to the longest
//!   waiter, so a new arrival cannot barge past the queue.
//! * **Deadlines** — `deadline_ms` is converted to an absolute instant at
//!   arrival; a request whose deadline passes while it waits for a slot is
//!   answered [`Response::DeadlineExceeded`] without executing, executors
//!   check it cooperatively at every node, and expired requests discard
//!   their partial work.
//! * **Shutdown** — admission closes first, then the drain waits until
//!   `queued` reaches zero, then the acceptor is halted and joined.
//!   Connection threads notice the halt flag at their next read timeout.

use crate::exec::{self, Outcome, TreeSet};
use crate::protocol::{
    read_frame, write_frame, Request, Response, ServerStats, StorageErrorKind, TreeInfo,
    MAX_REQUEST_FRAME,
};
use crate::telemetry::Telemetry;
use psj_geom::Point;
use psj_obs::trace::TID_SERVE;
use psj_obs::TraceSink;
use psj_rtree::PagedTree;
use psj_store::{FaultPlan, PageError, RetryPolicy};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// A thread that panicked while holding one of the server's locks must not
// wedge every later request and the shutdown drain — the protected state
// (slot lists, join-handle lists) stays structurally valid across a panic,
// so `lock_clean` recovers the guard and the panic is surfaced through the
// `worker_panics` counter instead.
use psj_store::lock_clean;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Execution slots: how many requests, joins included, run at once.
    pub workers: usize,
    /// Admission bound: maximum admitted-but-unanswered requests.
    pub queue_bound: usize,
    /// Ignored: the server no longer batches, and nothing reads this. The
    /// field remains only because `benchmark/` still sets it.
    pub batch_window: Duration,
    /// Threads per join request.
    pub join_threads: usize,
    /// Join engine answering every join request: the R-tree traversal
    /// (the default) or the in-memory grid partition.
    pub join_engine: psj_core::JoinEngine,
    /// Socket read timeout; also the cadence at which idle connection
    /// threads re-check the halt flag.
    pub read_timeout: Duration,
    /// Injected fault plan run before every node read of a window or
    /// nearest query (chaos testing; joins are unaffected, see
    /// [`exec::join`]).
    pub fault: Option<Arc<FaultPlan>>,
    /// Retry policy for node reads the fault plan fails transiently.
    pub retry: RetryPolicy,
    /// Structured-trace sink: when set, admissions, sheds and retried node
    /// reads emit instants on the server's trace row. `None` (the default)
    /// costs one pointer check per admission.
    pub trace: Option<Arc<TraceSink>>,
    /// This server's shard id, echoed in [`Response::Info`] so cluster
    /// routers can verify a dialed address is the shard their topology
    /// says it is. Standalone servers keep the default 0.
    pub shard_id: u16,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_bound: 256,
            batch_window: Duration::ZERO,
            join_threads: 4,
            join_engine: psj_core::JoinEngine::RTree,
            read_timeout: Duration::from_millis(250),
            fault: None,
            retry: RetryPolicy::default(),
            trace: None,
            shard_id: 0,
        }
    }
}

#[derive(Default)]
struct SlotState {
    /// Slot numbers nobody holds. Non-empty only while `waiters` is empty.
    idle: Vec<usize>,
    /// Threads waiting for a slot, longest wait first: arrival ticket and
    /// the condvar that thread waits on (one each, so a release wakes
    /// exactly the thread it hands the slot to).
    waiters: VecDeque<(u64, Arc<Condvar>)>,
    /// Slots handed to a waiter that has not woken yet: (ticket, slot).
    handed: Vec<(u64, usize)>,
    next_ticket: u64,
}

/// The `workers` execution slots, handed out first come, first served.
struct Slots {
    state: Mutex<SlotState>,
}

impl Slots {
    fn new(n: usize) -> Self {
        Slots {
            state: Mutex::new(SlotState {
                idle: (0..n).rev().collect(),
                ..SlotState::default()
            }),
        }
    }

    /// Takes an idle slot, or waits in arrival order for a released one.
    /// `None` when `deadline` passes first.
    fn acquire(&self, deadline: Option<Instant>) -> Option<usize> {
        let mut st = lock_clean(&self.state);
        if let Some(slot) = st.idle.pop() {
            return Some(slot);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let ready = Arc::new(Condvar::new());
        st.waiters.push_back((ticket, Arc::clone(&ready)));
        loop {
            if let Some(i) = st.handed.iter().position(|&(t, _)| t == ticket) {
                return Some(st.handed.swap_remove(i).1);
            }
            st = match deadline {
                None => ready.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Not handed a slot, so still queued: leave.
                        st.waiters.retain(|&(t, _)| t != ticket);
                        return None;
                    }
                    let (st, _) = ready
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st
                }
            };
        }
    }

    /// Returns `slot`: to the longest waiter if there is one, else to the
    /// idle list.
    fn release(&self, slot: usize) {
        let mut st = lock_clean(&self.state);
        match st.waiters.pop_front() {
            Some((ticket, ready)) => {
                st.handed.push((ticket, slot));
                ready.notify_one();
            }
            None => st.idle.push(slot),
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    trees: TreeSet,
    telemetry: Telemetry,
    /// Admitted-but-unanswered requests.
    queued: AtomicUsize,
    /// Admission closed (drain in progress).
    shutting_down: AtomicBool,
    /// The acceptor and connection threads must exit.
    halt: AtomicBool,
    slots: Slots,
    /// Signalled by a client [`Request::Shutdown`]; `Server::wait` listens.
    shutdown_tx: Mutex<Option<mpsc::Sender<()>>>,
}

impl Shared {
    fn halted(&self) -> bool {
        self.halt.load(Ordering::Acquire)
    }

    /// A point-in-time stats report.
    fn stats(&self) -> ServerStats {
        let (t, trees) = (&self.telemetry, &self.trees);
        ServerStats {
            completed: t.completed.get(),
            shed: t.shed.get(),
            timeouts: t.timeouts.get(),
            proto_errors: t.proto_errors.get(),
            queue_depth: self.queued.load(Ordering::Relaxed) as u32,
            batches: t.batches.get(),
            batched_queries: t.batched_queries.get(),
            p50_ms: t.latency.quantile_ms(0.50),
            p95_ms: t.latency.quantile_ms(0.95),
            p99_ms: t.latency.quantile_ms(0.99),
            cache_requests: trees.reads.get(),
            cache_hits: trees.frames.get(),
            storage_corrupt: t.storage_corrupt.get(),
            storage_unavailable: t.storage_unavailable.get(),
            corrupt_pages_detected: trees.corrupt_pages(),
            page_retries: trees.retries.get(),
            worker_panics: t.worker_panics.get(),
        }
    }

    /// Emits a trace instant on the server's row, if tracing is on.
    fn trace_instant(&self, name: &'static str, args: &[(&'static str, u64)]) {
        if let Some(t) = &self.cfg.trace {
            t.instant(TID_SERVE, name, "serve", args);
        }
    }

    fn info(&self) -> Vec<TreeInfo> {
        self.trees
            .iter()
            .map(|t| TreeInfo {
                mbr: t.mbr(),
                len: t.len(),
                pages: t.num_pages() as u32,
            })
            .collect()
    }
}

/// A running server. Dropping the handle without calling [`Server::stop`]
/// or [`Server::wait`] leaks the listener threads; tests and the CLI
/// always stop explicitly.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    /// Connection threads still running as of the last accept.
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shutdown_rx: mpsc::Receiver<()>,
}

/// What [`Server::stop`] returns: the final stats report.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Counters and percentiles at shutdown.
    pub stats: ServerStats,
}

impl std::fmt::Display for ServerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.stats.fmt(f)
    }
}

/// Pause before retrying after `accept` fails, so a persistent error
/// (EMFILE, say) does not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

impl Server {
    /// Binds `cfg.addr`, serves `trees` and starts the acceptor.
    pub fn start(cfg: ServeConfig, trees: Vec<Arc<PagedTree>>) -> io::Result<Server> {
        let mut trees =
            TreeSet::new(trees).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if let Some(trace) = &cfg.trace {
            trace.set_thread_name(TID_SERVE, "psj-serve");
        }
        if let Some(plan) = cfg.fault.clone() {
            trees = trees.with_fault(plan, cfg.retry, cfg.trace.clone());
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            trees,
            telemetry: Telemetry::new(),
            queued: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            slots: Slots::new(workers),
            shutdown_tx: Mutex::new(Some(shutdown_tx)),
            cfg,
        });

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("psj-serve-acceptor".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.halted() {
                            break;
                        }
                        let Ok(stream) = stream else {
                            std::thread::sleep(ACCEPT_BACKOFF);
                            continue;
                        };
                        let shared = Arc::clone(&shared);
                        let h = std::thread::Builder::new()
                            .name("psj-serve-conn".into())
                            .spawn(move || handle_conn(&shared, stream))
                            .expect("spawn connection thread");
                        let mut conns = lock_clean(&conns);
                        conns.retain(|c| !c.is_finished());
                        conns.push(h);
                    }
                })
                .expect("spawn acceptor")
        };

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            conns,
            shutdown_rx,
        })
    }

    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client sends [`Request::Shutdown`], then drains and
    /// stops.
    pub fn wait(self) -> ServerReport {
        let _ = self.shutdown_rx.recv();
        self.stop()
    }

    /// Drains admitted requests, stops every thread, and returns the final
    /// report.
    pub fn stop(mut self) -> ServerReport {
        let shared = &self.shared;
        // 1. Close admission; new requests get Overloaded.
        shared.shutting_down.store(true, Ordering::SeqCst);
        // 2. Drain: every admitted request, executing or waiting for a
        //    slot, is answered by its own connection thread.
        while shared.queued.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // 3. Halt, unblock the acceptor with a dummy connection, join it.
        shared.halt.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // 4. Connection threads exit at their next read timeout (or when
        //    their client hangs up).
        let conns: Vec<JoinHandle<()>> = std::mem::take(&mut *lock_clean(&self.conns));
        for c in conns {
            let _ = c.join();
        }
        ServerReport {
            stats: shared.stats(),
        }
    }
}

/// Maps an execution outcome to the wire response, bumping the matching
/// telemetry counter. `ok` builds the success payload.
fn respond<T>(
    t: &Telemetry,
    latency: Duration,
    outcome: Outcome<T>,
    ok: impl FnOnce(T) -> Response,
) -> Response {
    match outcome {
        Outcome::Ok(v) => {
            t.complete(latency);
            ok(v)
        }
        Outcome::DeadlineExceeded => {
            t.timeout(latency);
            Response::DeadlineExceeded
        }
        Outcome::Storage(e) => {
            t.storage(latency, e.is_corrupt());
            storage_response(&e)
        }
    }
}

/// The wire reply for a storage-layer failure.
fn storage_response(e: &PageError) -> Response {
    Response::Storage {
        kind: if e.is_corrupt() {
            StorageErrorKind::Corrupt
        } else {
            StorageErrorKind::Unavailable
        },
        msg: e.to_string(),
    }
}

/// An admitted request: holds its admission count and, once it has one,
/// its execution slot. Dropping it releases both, on every path out of
/// [`execute`] including an unwinding one.
struct Admitted<'a> {
    shared: &'a Shared,
    slot: Option<usize>,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            self.shared.slots.release(slot);
        }
        self.shared.queued.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Admission control: the admitted request, or `None` when it is shed.
/// Increment-then-check closes the race against concurrent admitters — the
/// counter can transiently overshoot the bound but admitted requests never
/// exceed it.
fn admit(shared: &Shared) -> Option<Admitted<'_>> {
    let q = shared.queued.fetch_add(1, Ordering::SeqCst) + 1;
    if shared.shutting_down.load(Ordering::SeqCst) || q > shared.cfg.queue_bound {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        shared.telemetry.shed.inc();
        shared.trace_instant("shed", &[("queued", q as u64)]);
        return None;
    }
    shared.trace_instant("admit", &[("queued", q as u64)]);
    Some(Admitted { shared, slot: None })
}

/// One query or join request, start to reply, on the calling connection
/// thread: checks `trees` are loaded, admits, takes an execution slot
/// (waiting at most until the deadline), runs `work` with the absolute
/// deadline, and maps its outcome to the reply.
fn execute<T>(
    shared: &Shared,
    trees: &[u16],
    deadline_ms: u32,
    work: impl FnOnce(Option<Instant>) -> Outcome<T>,
    ok: impl FnOnce(T) -> Response,
) -> Response {
    let t = &shared.telemetry;
    if let Some(&tree) = trees.iter().find(|&&tree| shared.trees.get(tree).is_none()) {
        t.proto_errors.inc();
        return Response::Error(format!(
            "unknown tree {tree} ({} loaded)",
            shared.trees.len()
        ));
    }
    let Some(mut admitted) = admit(shared) else {
        return Response::Overloaded;
    };
    let arrival = Instant::now();
    let deadline =
        (deadline_ms > 0).then(|| arrival + Duration::from_millis(u64::from(deadline_ms)));
    admitted.slot = shared.slots.acquire(deadline);
    if admitted.slot.is_none() {
        t.timeout(arrival.elapsed());
        return Response::DeadlineExceeded;
    }
    // A panicking executor must not take the connection (or the slot)
    // down: contain it, count it, answer with a typed error, keep serving.
    match catch_unwind(AssertUnwindSafe(|| work(deadline))) {
        Ok(outcome) => respond(t, arrival.elapsed(), outcome, ok),
        Err(_) => {
            t.worker_panics.inc();
            Response::Error("server dropped the request".into())
        }
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    loop {
        let payload = match read_frame(&mut reader, MAX_REQUEST_FRAME) {
            Ok(Some(p)) => p,
            Ok(None) => return, // client closed cleanly
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.halted() {
                    return;
                }
                continue;
            }
            Err(e) => {
                // Oversized prefix or mid-frame EOF: the stream cannot be
                // resynchronized — report (best effort) and hang up.
                shared.telemetry.proto_errors.inc();
                if e.kind() == io::ErrorKind::InvalidData {
                    let _ = write_frame(
                        &mut writer,
                        &Response::Error(e.to_string()).encode_or_error(),
                    );
                }
                return;
            }
        };
        let req = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                // Framing was sound, the payload was not: the stream is
                // still in sync, so answer and keep serving.
                shared.telemetry.proto_errors.inc();
                if write_frame(
                    &mut writer,
                    &Response::Error(e.to_string()).encode_or_error(),
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
        };

        let t = &shared.telemetry;
        let resp = match req {
            Request::Stats => Response::Stats(shared.stats()),
            Request::Metrics => Response::Metrics(t.render_prometheus(&shared.stats())),
            Request::Info => Response::Info {
                shard: shared.cfg.shard_id,
                trees: shared.info(),
            },
            Request::Shutdown => {
                let _ = write_frame(&mut writer, &Response::ShutdownAck.encode_or_error());
                if let Some(tx) = lock_clean(&shared.shutdown_tx).take() {
                    let _ = tx.send(());
                }
                return;
            }
            Request::Window {
                tree,
                rect,
                deadline_ms,
            } => execute(
                shared,
                &[tree],
                deadline_ms,
                |deadline| {
                    count_query(t);
                    exec::window(&shared.trees, tree, &rect, deadline)
                },
                Response::Entries,
            ),
            Request::Nearest {
                tree,
                x,
                y,
                k,
                deadline_ms,
            } => execute(
                shared,
                &[tree],
                deadline_ms,
                |deadline| {
                    count_query(t);
                    exec::nearest(&shared.trees, tree, Point::new(x, y), k as usize, deadline)
                },
                Response::Neighbors,
            ),
            Request::Join {
                tree_a,
                tree_b,
                refine,
                deadline_ms,
                owner,
            } => execute(
                shared,
                &[tree_a, tree_b],
                deadline_ms,
                |deadline| {
                    let result = exec::join(
                        &shared.trees,
                        tree_a,
                        tree_b,
                        refine,
                        owner,
                        exec::JoinTuning {
                            threads: shared.cfg.join_threads,
                            engine: shared.cfg.join_engine,
                        },
                        deadline,
                    );
                    if let Outcome::Ok(run) = &result {
                        t.join_tasks.add(run.tasks);
                    }
                    result
                },
                |run| Response::Pairs(run.pairs),
            ),
        };
        if write_frame(&mut writer, &resp.encode_or_error()).is_err() {
            return;
        }
    }
}

/// Counts one executed window / nearest query. Both counters survive from
/// the batching server because `benchmark/` reads them; every query is now
/// a batch of one.
fn count_query(t: &Telemetry) {
    t.batches.inc();
    t.batched_queries.inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::ClientError;
    use psj_geom::Rect;
    use psj_rtree::RTree;

    fn tree(n: usize) -> Arc<PagedTree> {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 30) as f64;
            let y = (i / 30) as f64;
            t.insert(Rect::new(x, y, x + 0.9, y + 0.9), i as u64);
        }
        Arc::new(PagedTree::freeze(&t, |_| None))
    }

    fn start_with(cfg: ServeConfig) -> Server {
        let cfg = ServeConfig {
            read_timeout: Duration::from_millis(50),
            ..cfg
        };
        Server::start(cfg, vec![tree(900)]).expect("bind loopback")
    }

    fn start() -> Server {
        start_with(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
    }

    /// Spins until `cond` holds; the tests use it to observe that another
    /// thread has reached a blocking point before they act on it.
    fn until(what: &str, cond: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < give_up, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    fn waiting(shared: &Shared) -> usize {
        lock_clean(&shared.slots.state).waiters.len()
    }

    #[test]
    fn panicking_handler_leaves_the_server_serving() {
        // One slot, and a fault plan that panics inside the first fill of
        // the root page — on the connection thread, mid-execution.
        let root = tree(900).root().0;
        let server = start_with(ServeConfig {
            workers: 1,
            fault: Some(Arc::new(FaultPlan::new(0).with_panic_page(root))),
            ..ServeConfig::default()
        });
        let mut c = Client::connect(server.local_addr()).unwrap();
        let rect = Rect::new(0.0, 0.0, 10.0, 10.0);

        match c.window(0, rect, 0) {
            Err(ClientError::Unexpected(r)) => {
                assert!(matches!(*r, Response::Error(_)), "typed error, got {r:?}")
            }
            other => panic!("expected an Error reply, got {other:?}"),
        }
        let stats = c.stats().unwrap();
        assert_eq!(stats.worker_panics, 1, "the panic is counted");
        assert_eq!(stats.queue_depth, 0, "its admission count was released");

        // The same connection keeps serving, through the only slot — so
        // the unwinding request released it.
        for _ in 0..10 {
            assert!(!c.window(0, rect, 0).unwrap().is_empty());
        }
        let report = server.stop();
        assert_eq!(report.stats.worker_panics, 1);
        assert_eq!(report.stats.queue_depth, 0, "shutdown drain unaffected");
    }

    #[test]
    fn poisoned_slot_lock_does_not_wedge_requests_or_shutdown() {
        let server = start();
        let addr = server.local_addr();

        // Poison the slot mutex deliberately: a thread panics while
        // holding it. Every request takes and returns a slot through this
        // lock, so a propagated poison would wedge admission and the
        // shutdown drain.
        {
            let shared = Arc::clone(&server.shared);
            let _ = std::thread::spawn(move || {
                let _g = shared.slots.state.lock().unwrap();
                panic!("poison the slot lock (test)");
            })
            .join();
        }
        assert!(
            server.shared.slots.state.is_poisoned(),
            "lock really is poisoned"
        );

        let mut c = Client::connect(addr).unwrap();
        let rect = Rect::new(0.0, 0.0, 8.0, 8.0);
        for _ in 0..5 {
            assert!(!c.window(0, rect, 0).unwrap().is_empty());
        }
        let report = server.stop();
        assert!(report.stats.completed >= 5);
        assert_eq!(report.stats.queue_depth, 0, "drain completes");
    }

    #[test]
    fn deadline_passing_while_waiting_for_a_slot_is_answered_without_executing() {
        let server = start_with(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut c = Client::connect(server.local_addr()).unwrap();
        let rect = Rect::new(0.0, 0.0, 5.0, 5.0);

        // The test holds the only slot, so the requests below can only
        // wait — for exactly as long as their deadline allows.
        let held = server.shared.slots.acquire(None).expect("idle slot");
        match c.window(0, rect, 20) {
            Err(ClientError::Unexpected(r)) => assert_eq!(*r, Response::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        match c.nearest(0, 1.0, 1.0, 4, 20) {
            Err(ClientError::Unexpected(r)) => assert_eq!(*r, Response::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = c.stats().unwrap();
        assert_eq!(stats.timeouts, 2, "expiries while waiting are counted");
        assert_eq!(stats.batches, 0, "neither query executed");
        assert_eq!(stats.cache_requests, 0, "no page was touched for them");
        assert_eq!(stats.queue_depth, 0, "admission counts were released");
        assert_eq!(waiting(&server.shared), 0, "both left the slot queue");

        // With the slot back, a viable deadline is served normally.
        server.shared.slots.release(held);
        assert!(!c.window(0, rect, 5_000).unwrap().is_empty());
        server.stop();
    }

    #[test]
    fn waiters_get_the_slot_in_arrival_order() {
        let slots = Slots::new(1);
        let held = slots.acquire(None).expect("idle slot");
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for i in 0..8 {
                let (slots, order) = (&slots, &order);
                scope.spawn(move || {
                    let slot = slots.acquire(None).expect("no deadline");
                    order.lock().unwrap().push(i);
                    slots.release(slot);
                });
                // Thread i is queued before thread i + 1 starts.
                until("the waiter to queue", || {
                    lock_clean(&slots.state).waiters.len() == i + 1
                });
            }
            slots.release(held);
        });
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
        let st = lock_clean(&slots.state);
        assert_eq!(st.idle, vec![0], "the slot ends up idle again");
        assert!(st.waiters.is_empty() && st.handed.is_empty());
    }

    #[test]
    fn stop_drains_requests_waiting_for_a_slot() {
        let server = start_with(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let shared = Arc::clone(&server.shared);
        let held = shared.slots.acquire(None).expect("idle slot");
        let rect = Rect::new(0.0, 0.0, 8.0, 8.0);

        let report = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(move || {
                        let mut c = Client::connect(addr).unwrap();
                        c.window(0, rect, 0)
                    })
                })
                .collect();
            until("three requests to wait for the slot", || {
                waiting(&shared) == 3
            });
            let stopper = scope.spawn(move || server.stop());
            until("admission to close", || {
                shared.shutting_down.load(Ordering::SeqCst)
            });
            assert_eq!(shared.queued.load(Ordering::SeqCst), 3, "still admitted");
            shared.slots.release(held);
            for c in clients {
                let got = c.join().unwrap().expect("answered during the drain");
                assert!(!got.is_empty());
            }
            stopper.join().unwrap()
        });
        assert_eq!(report.stats.queue_depth, 0, "drained");
        assert_eq!(report.stats.completed, 3);
    }

    #[test]
    fn finished_connection_handles_are_dropped_at_accept() {
        let server = start();
        let addr = server.local_addr();
        for _ in 0..200 {
            Client::connect(addr).unwrap().stats().unwrap();
        }
        // Each accept drops the handles of threads that have exited; a
        // hung-up client's thread exits as soon as it reads EOF, so a few
        // more accepts see all 200 gone.
        until("finished handles to be dropped", || {
            drop(Client::connect(addr));
            lock_clean(&server.conns).len() <= 4
        });
        server.stop();
    }

    #[test]
    fn metrics_exposition_matches_stats_counters() {
        let server = start();
        let addr = server.local_addr();
        let mut c = Client::connect(addr).unwrap();
        for _ in 0..4 {
            c.window(0, Rect::new(0.0, 0.0, 6.0, 6.0), 0).unwrap();
        }
        let stats = c.stats().unwrap();
        let text = c.metrics().unwrap();
        for (name, value) in [
            ("psj_requests_completed_total", stats.completed),
            ("psj_requests_shed_total", stats.shed),
            ("psj_batches_total", stats.batches),
            ("psj_batched_queries_total", stats.batched_queries),
            ("psj_worker_panics_total", stats.worker_panics),
            ("psj_cache_requests", stats.cache_requests),
        ] {
            assert!(
                text.lines().any(|l| l == format!("{name} {value}")),
                "{name} {value} missing from exposition:\n{text}"
            );
        }
        assert!(
            text.contains("psj_request_latency_seconds_bucket"),
            "{text}"
        );
        server.stop();
    }
}
