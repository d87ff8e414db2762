//! The server: a [`Service`] on the shared protocol shell
//! ([`crate::listen`]), whose connection threads each execute their own
//! requests against the loaded trees, read in place.
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
//!   permits and runs on its own connection thread; a join also takes
//!   every free permit and runs a worker on each, its connection thread
//!   being worker 0. When no permit is free the thread waits; a released
//!   permit is handed to the longest waiter, so a new arrival cannot barge
//!   past the queue.
//! * **Deadlines** — `deadline_ms` is converted to an absolute instant at
//!   arrival; a request whose deadline passes while it waits for a slot is
//!   answered [`Response::DeadlineExceeded`] without executing, executors
//!   check it cooperatively at every node, and expired requests discard
//!   their partial work.
//! * **Shutdown** — admission closes first, then the drain waits until
//!   `queued` reaches zero, then the listener is stopped: the acceptor is
//!   halted and joined, and connection threads exit at their next read
//!   timeout.

use crate::exec::{self, Outcome, TreeSet};
use crate::listen::{Listener, Service};
use crate::protocol::{Request, Response, ServerStats, StorageErrorKind, TreeInfo};
use crate::telemetry::Telemetry;
use psj_geom::Point;
use psj_obs::trace::TID_SERVE;
use psj_obs::TraceSink;
use psj_rtree::PagedTree;
use psj_store::{FaultPlan, PageError, RetryPolicy};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// A thread that panicked while holding one of the server's locks must not
// wedge every later request and the shutdown drain — the protected state
// (the permit queue) stays structurally valid across a panic, so
// `lock_clean` recovers the guard and the panic is surfaced through the
// `worker_panics` counter instead.
use psj_store::lock_clean;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Execution slots, the server's one processor count: a query holds
    /// one, a join its own plus every slot then free, and runs a worker on
    /// each, so at most `workers` threads execute requests at once.
    pub workers: usize,
    /// Admission bound: maximum admitted-but-unanswered requests.
    pub queue_bound: usize,
    /// Ignored: the server no longer batches, and nothing reads this. The
    /// field remains only because `benchmark/` still sets it.
    pub batch_window: Duration,
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
    /// Permits nobody holds. Non-zero only while `waiters` is empty.
    free: usize,
    /// Threads waiting for a permit, longest wait first: arrival ticket and
    /// the condvar that thread waits on (one each, so a release wakes
    /// exactly the thread it hands the permit to).
    waiters: VecDeque<(u64, Arc<Condvar>)>,
    /// Tickets of waiters handed a permit that have not woken yet.
    handed: Vec<u64>,
    next_ticket: u64,
}

/// The `workers` execution permits, handed out first come, first served.
struct Slots {
    state: Mutex<SlotState>,
}

impl Slots {
    fn new(n: usize) -> Self {
        Slots {
            state: Mutex::new(SlotState {
                free: n,
                ..SlotState::default()
            }),
        }
    }

    /// Takes a free permit, or waits in arrival order for a released one.
    /// `false` when `deadline` passes first.
    fn acquire(&self, deadline: Option<Instant>) -> bool {
        let mut st = lock_clean(&self.state);
        if st.free > 0 {
            st.free -= 1;
            return true;
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let ready = Arc::new(Condvar::new());
        st.waiters.push_back((ticket, Arc::clone(&ready)));
        loop {
            if let Some(i) = st.handed.iter().position(|&t| t == ticket) {
                st.handed.swap_remove(i);
                return true;
            }
            st = match deadline {
                None => ready.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Not handed a permit, so still queued: leave.
                        st.waiters.retain(|&(t, _)| t != ticket);
                        return false;
                    }
                    let (st, _) = ready
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st
                }
            };
        }
    }

    /// Takes every free permit without waiting, and returns how many. As
    /// `free` is non-zero only while nobody waits, this never takes a
    /// permit a queued request is owed.
    fn take_free(&self) -> usize {
        std::mem::take(&mut lock_clean(&self.state).free)
    }

    /// Returns `n` permits: each to the longest waiter if there is one,
    /// else to the free count.
    fn release(&self, n: usize) {
        let mut st = lock_clean(&self.state);
        for _ in 0..n {
            match st.waiters.pop_front() {
                Some((ticket, ready)) => {
                    st.handed.push(ticket);
                    ready.notify_one();
                }
                None => st.free += 1,
            }
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
    slots: Slots,
}

impl Shared {
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
    listener: Listener,
}

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
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            trees,
            telemetry: Telemetry::new(),
            queued: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            slots: Slots::new(workers),
            cfg,
        });
        let cfg = &shared.cfg;
        let listener = Listener::start(
            cfg.addr.as_str(),
            cfg.read_timeout,
            "psj-serve",
            Arc::clone(&shared),
        )?;
        Ok(Server { shared, listener })
    }

    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Blocks until a client sends [`Request::Shutdown`], then drains and
    /// stops.
    pub fn wait(self) -> ServerStats {
        self.listener.wait();
        self.stop()
    }

    /// Drains admitted requests, stops every thread, and returns the final
    /// stats.
    pub fn stop(self) -> ServerStats {
        let shared = &self.shared;
        // 1. Close admission; new requests get Overloaded.
        shared.shutting_down.store(true, Ordering::SeqCst);
        // 2. Drain: every admitted request, executing or waiting for a
        //    slot, is answered by its own connection thread.
        while shared.queued.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // 3. Stop the listener and its connection threads.
        self.listener.stop();
        shared.stats()
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

/// An admitted request: holds its admission count and the execution
/// permits it has taken. Dropping it releases them all, on every path out
/// of [`execute`] including an unwinding one.
struct Admitted<'a> {
    shared: &'a Shared,
    held: usize,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.shared.slots.release(self.held);
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
    Some(Admitted { shared, held: 0 })
}

/// One query or join request, start to reply, on the calling connection
/// thread: checks `trees` are loaded, admits, takes an execution slot
/// (waiting at most until the deadline) and, if `parallel`, every free
/// one, runs `work` with the absolute deadline and the slots it holds, and
/// maps its outcome to the reply.
fn execute<T>(
    shared: &Shared,
    trees: &[u16],
    deadline_ms: u32,
    parallel: bool,
    work: impl FnOnce(Option<Instant>, usize) -> Outcome<T>,
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
    if !shared.slots.acquire(deadline) {
        t.timeout(arrival.elapsed());
        return Response::DeadlineExceeded;
    }
    admitted.held = 1;
    if parallel {
        admitted.held += shared.slots.take_free();
    }
    // A panicking executor must not take the connection (or the slots)
    // down: contain it, count it, answer with a typed error, keep serving.
    match catch_unwind(AssertUnwindSafe(|| work(deadline, admitted.held))) {
        Ok(outcome) => respond(t, arrival.elapsed(), outcome, ok),
        Err(_) => {
            t.worker_panics.inc();
            Response::Error("server dropped the request".into())
        }
    }
}

impl Service for Shared {
    fn respond(&self, req: Request) -> Response {
        let t = &self.telemetry;
        match req {
            Request::Stats => Response::Stats(self.stats()),
            Request::Metrics => Response::Metrics(t.render_prometheus(&self.stats())),
            Request::Info => Response::Info {
                shard: self.cfg.shard_id,
                trees: self.info(),
            },
            Request::Shutdown => unreachable!("the listener answers Shutdown"),
            Request::Window {
                tree,
                rect,
                deadline_ms,
            } => execute(
                self,
                &[tree],
                deadline_ms,
                false,
                |deadline, _| {
                    count_query(t);
                    exec::window(&self.trees, tree, &rect, deadline)
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
                self,
                &[tree],
                deadline_ms,
                false,
                |deadline, _| {
                    count_query(t);
                    exec::nearest(&self.trees, tree, Point::new(x, y), k as usize, deadline)
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
                self,
                &[tree_a, tree_b],
                deadline_ms,
                true,
                |deadline, slots| {
                    let result =
                        exec::join(&self.trees, tree_a, tree_b, refine, owner, slots, deadline);
                    if let Outcome::Ok(run) = &result {
                        t.join_tasks.add(run.tasks);
                    }
                    result
                },
                |run| Response::Pairs(run.pairs),
            ),
        }
    }

    fn proto_error(&self) {
        self.telemetry.proto_errors.inc();
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
        tree_at(n, 0.0)
    }

    fn tree_at(n: usize, offset: f64) -> Arc<PagedTree> {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 30) as f64 + offset;
            let y = (i / 30) as f64 + offset;
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
        let stats = server.stop();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.queue_depth, 0, "shutdown drain unaffected");
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
        let stats = server.stop();
        assert!(stats.completed >= 5);
        assert_eq!(stats.queue_depth, 0, "drain completes");
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
        assert!(server.shared.slots.acquire(None), "a free permit");
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
        server.shared.slots.release(1);
        assert!(!c.window(0, rect, 5_000).unwrap().is_empty());
        server.stop();
    }

    #[test]
    fn waiters_get_the_slot_in_arrival_order() {
        let slots = Slots::new(1);
        assert!(slots.acquire(None), "a free permit");
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for i in 0..8 {
                let (slots, order) = (&slots, &order);
                scope.spawn(move || {
                    assert!(slots.acquire(None), "no deadline");
                    order.lock().unwrap().push(i);
                    slots.release(1);
                });
                // Thread i is queued before thread i + 1 starts.
                until("the waiter to queue", || {
                    lock_clean(&slots.state).waiters.len() == i + 1
                });
            }
            slots.release(1);
        });
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
        let st = lock_clean(&slots.state);
        assert_eq!(st.free, 1, "one permit free again");
        assert!(st.waiters.is_empty() && st.handed.is_empty());
    }

    #[test]
    fn a_join_takes_exactly_the_free_permits() {
        let slots = Slots::new(4);
        assert!(slots.acquire(None), "a window's permit");
        assert!(slots.acquire(None), "the join's own permit");
        assert_eq!(slots.take_free(), 2, "the two permits nobody holds");
        assert_eq!(slots.take_free(), 0, "none left");
        slots.release(3);
        assert_eq!(
            lock_clean(&slots.state).free,
            3,
            "the join's three are free"
        );
    }

    /// While a request waits, a released permit goes to it and never to
    /// the free count, so a join takes nothing a waiter is owed.
    #[test]
    fn no_extra_permits_are_taken_while_a_waiter_is_queued() {
        let slots = Slots::new(2);
        assert!(slots.acquire(None) && slots.acquire(None), "both permits");
        std::thread::scope(|scope| {
            for i in 0..2 {
                let slots = &slots;
                scope.spawn(move || assert!(slots.acquire(None), "no deadline"));
                until("the waiter to queue", || {
                    lock_clean(&slots.state).waiters.len() == i + 1
                });
            }
            slots.release(1);
            assert_eq!(slots.take_free(), 0, "the second waiter is still owed");
            slots.release(1);
            assert_eq!(slots.take_free(), 0, "handed to the second waiter");
        });
        // The two waiters exited holding a permit each.
        assert_eq!(slots.take_free(), 0);
        slots.release(2);
        assert_eq!(lock_clean(&slots.state).free, 2);
    }

    /// Requests taking one permit and joins taking every free one besides
    /// never hold more than `workers` permits between them.
    #[test]
    fn permits_held_never_exceed_workers() {
        const WORKERS: usize = 3;
        let slots = Slots::new(WORKERS);
        let held = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for id in 0..6 {
                let (slots, held) = (&slots, &held);
                scope.spawn(move || {
                    for round in 0..300 {
                        assert!(slots.acquire(None), "no deadline");
                        let mut n = 1;
                        if (id + round) % 2 == 0 {
                            n += slots.take_free();
                        }
                        let now = held.fetch_add(n, Ordering::SeqCst) + n;
                        assert!(now <= WORKERS, "{now} permits held");
                        std::thread::yield_now();
                        held.fetch_sub(n, Ordering::SeqCst);
                        slots.release(n);
                    }
                });
            }
        });
        let st = lock_clean(&slots.state);
        assert_eq!(st.free, WORKERS, "every permit came back");
        assert!(st.waiters.is_empty() && st.handed.is_empty());
    }

    #[test]
    fn a_joins_permits_return_to_waiters_in_arrival_order() {
        let slots = Slots::new(3);
        assert!(slots.acquire(None), "the join's own permit");
        let held = 1 + slots.take_free();
        assert_eq!(held, 3);
        let woke = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for i in 0..4 {
                let (slots, woke) = (&slots, &woke);
                scope.spawn(move || {
                    assert!(slots.acquire(None), "no deadline");
                    woke.lock().unwrap().push(i);
                });
                until("the waiter to queue", || {
                    lock_clean(&slots.state).waiters.len() == i + 1
                });
            }
            slots.release(held);
            until("three waiters to wake", || woke.lock().unwrap().len() == 3);
            let mut first = woke.lock().unwrap().clone();
            first.sort_unstable();
            assert_eq!(first, [0, 1, 2], "the three longest waiters");
            assert_eq!(lock_clean(&slots.state).waiters.len(), 1, "the last waits");
            slots.release(1);
        });
        assert_eq!(woke.into_inner().unwrap().len(), 4);
        slots.release(3);
        assert_eq!(lock_clean(&slots.state).free, 3);
    }

    /// A join runs on the slots it holds: its own plus every one free when
    /// it got it; a window or nearest query runs on its own alone. All come
    /// back when the request ends.
    #[test]
    fn a_join_runs_on_its_own_slot_and_every_free_one() {
        let server = start_with(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        });
        let shared = &server.shared;
        let free = || lock_clean(&shared.slots.state).free;
        // The slots a request ran on, and the slots free meanwhile.
        let run = |parallel| {
            let mut seen = (0, 0);
            let reply = execute(
                shared,
                &[0],
                0,
                parallel,
                |_, slots| {
                    seen = (slots, free());
                    Outcome::Ok(())
                },
                |()| Response::ShutdownAck,
            );
            assert_eq!(reply, Response::ShutdownAck);
            seen
        };
        assert_eq!(run(true), (4, 0), "an idle server lends a join every slot");
        assert_eq!(run(false), (1, 3), "a query holds one slot");
        assert!(shared.slots.acquire(None), "a free permit");
        assert_eq!(run(true), (3, 0), "one slot is held elsewhere");
        shared.slots.release(1);
        assert_eq!(free(), 4, "every slot came back");
        server.stop();
    }

    /// A served join's pairs are the sequential oracle's, in the same
    /// order, whatever the number of slots it runs on.
    #[test]
    fn a_served_join_matches_the_oracle_at_every_worker_count() {
        let trees = vec![tree_at(1500, 0.0), tree_at(1200, 0.4)];
        let want = psj_core::join_refined(&trees[0], &trees[1]);
        for workers in [1, 2, 4] {
            let cfg = ServeConfig {
                workers,
                read_timeout: Duration::from_millis(50),
                ..ServeConfig::default()
            };
            let server = Server::start(cfg, trees.clone()).expect("bind loopback");
            let mut c = Client::connect(server.local_addr()).unwrap();
            assert_eq!(c.join(0, 1, true, 0).unwrap(), want, "workers={workers}");
            server.stop();
        }
    }

    #[test]
    fn stop_drains_requests_waiting_for_a_slot() {
        let server = start_with(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let shared = Arc::clone(&server.shared);
        assert!(shared.slots.acquire(None), "a free permit");
        let rect = Rect::new(0.0, 0.0, 8.0, 8.0);

        let stats = std::thread::scope(|scope| {
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
            shared.slots.release(1);
            for c in clients {
                let got = c.join().unwrap().expect("answered during the drain");
                assert!(!got.is_empty());
            }
            stopper.join().unwrap()
        });
        assert_eq!(stats.queue_depth, 0, "drained");
        assert_eq!(stats.completed, 3);
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
            server.listener.connections() <= 4
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
