//! Robustness acceptance for psj-serve: hostile bytes, truncated frames,
//! client disconnects, overload, and deadline expiry must never panic or
//! wedge the server — it keeps serving throughout.

use proptest::prelude::*;
use psj_geom::Rect;
use psj_rtree::{PagedTree, RTree};
use psj_serve::protocol::{read_frame, write_frame, Request, Response, MAX_REQUEST_FRAME};
use psj_serve::{Client, ClientError, ServeConfig, Server};
use psj_store::FaultPlan;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

fn grid_tree(n: usize) -> Arc<PagedTree> {
    let mut t = RTree::new();
    for i in 0..n {
        let x = (i % 64) as f64;
        let y = (i / 64) as f64;
        t.insert(Rect::new(x, y, x + 0.9, y + 0.9), i as u64);
    }
    Arc::new(PagedTree::freeze(&t, |_| None))
}

fn start(cfg: ServeConfig) -> (Server, SocketAddr) {
    let server = Server::start(cfg, vec![grid_tree(4000)]).expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

/// One execution slot whose every node read sleeps for `fill`: each node
/// a query reads costs that long, so a query holds the slot for a time
/// the test chooses.
fn slow_cfg(fill: Duration) -> ServeConfig {
    ServeConfig {
        workers: 1,
        fault: Some(Arc::new(FaultPlan::new(7).with_latency(1.0, fill))),
        ..quick_cfg()
    }
}

fn quick_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        read_timeout: Duration::from_millis(50),
        ..ServeConfig::default()
    }
}

/// The server answers a full window query — the liveness probe used after
/// every attack.
fn assert_alive(addr: SocketAddr) {
    let mut c = Client::connect(addr).expect("connect");
    let got = c
        .window(0, Rect::new(0.0, 0.0, 10.0, 10.0), 0)
        .expect("window");
    assert!(!got.is_empty());
}

#[test]
fn truncated_and_garbage_frames_never_panic_the_server() {
    let (server, addr) = start(quick_cfg());

    // Truncated length prefix.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[7u8, 0]).unwrap();
    drop(s);

    // Complete prefix, truncated payload.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&10u32.to_le_bytes()).unwrap();
    s.write_all(&[1, 2, 3]).unwrap();
    drop(s);

    // Well-framed garbage payload: an Error response, and the connection
    // stays usable.
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, &[0xff; 10]).unwrap();
    let resp = read_frame(&mut s, usize::MAX)
        .unwrap()
        .expect("error reply");
    assert!(matches!(
        Response::decode(&resp).unwrap(),
        Response::Error(_)
    ));
    write_frame(&mut s, &Request::Stats.encode()).unwrap();
    let resp = read_frame(&mut s, usize::MAX)
        .unwrap()
        .expect("stats reply");
    assert!(matches!(
        Response::decode(&resp).unwrap(),
        Response::Stats(_)
    ));
    drop(s);

    // Oversized length prefix: Error (best effort) and hang-up.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&((MAX_REQUEST_FRAME as u32) + 1).to_le_bytes())
        .unwrap();
    let resp = read_frame(&mut s, usize::MAX).unwrap();
    if let Some(payload) = resp {
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Error(_)
        ));
    }
    drop(s);

    assert_alive(addr);
    // The two abrupt-close attacks are registered asynchronously by their
    // connection threads; give them a moment before reading counters.
    std::thread::sleep(Duration::from_millis(200));
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.proto_errors >= 3, "attacks were counted: {stats:?}");
    let report = server.stop();
    assert_eq!(report.stats.queue_depth, 0);
}

#[test]
fn client_disconnect_mid_request_leaves_server_healthy() {
    let (server, addr) = start(quick_cfg());
    for _ in 0..5 {
        // A valid request whose reply has nowhere to go.
        let mut s = TcpStream::connect(addr).unwrap();
        let req = Request::Window {
            tree: 0,
            rect: Rect::new(0.0, 0.0, 64.0, 64.0),
            deadline_ms: 0,
        };
        write_frame(&mut s, &req.encode()).unwrap();
        drop(s); // gone before the response
    }
    assert_alive(addr);
    let report = server.stop();
    assert_eq!(report.stats.queue_depth, 0, "orphaned requests drained");
}

#[test]
fn overload_sheds_with_overloaded_not_a_panic() {
    // Tiny admission bound and one slow slot: the first admitted query
    // holds the slot for tens of milliseconds (each of the few hundred
    // nodes it reads is a 100 µs fill), so concurrent arrivals exceed the
    // bound deterministically.
    let (server, addr) = start(ServeConfig {
        queue_bound: 2,
        ..slow_cfg(Duration::from_micros(100))
    });

    let threads = 12;
    let per_thread = 4; // 48 offered >= 2x queue bound while the slot is held
    let barrier = Arc::new(Barrier::new(threads));
    let (mut shed, mut completed) = (0u64, 0u64);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    barrier.wait();
                    let (mut shed, mut completed) = (0u64, 0u64);
                    for _ in 0..per_thread {
                        match c.window(0, Rect::new(0.0, 0.0, 64.0, 64.0), 0) {
                            Ok(_) => completed += 1,
                            Err(ClientError::Unexpected(r)) if *r == Response::Overloaded => {
                                shed += 1
                            }
                            Err(e) => panic!("unexpected failure under load: {e}"),
                        }
                    }
                    (shed, completed)
                })
            })
            .collect();
        for h in handles {
            let (s, c) = h.join().unwrap();
            shed += s;
            completed += c;
        }
    });

    assert!(shed > 0, "no request was shed at 2x+ the queue bound");
    assert!(completed > 0, "admission starved everything");
    assert_eq!(shed + completed, (threads * per_thread) as u64);

    assert_alive(addr);
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.shed, shed, "server-side shed count matches clients");
    let report = server.stop();
    assert_eq!(report.stats.queue_depth, 0);
}

#[test]
fn expired_deadline_returns_timeout_and_server_keeps_serving() {
    // Reading the root alone (a 5 ms fill) outlasts the deadline (1 ms),
    // so the query expires mid-descent — deterministic.
    let (server, addr) = start(slow_cfg(Duration::from_millis(5)));
    let mut c = Client::connect(addr).unwrap();
    let err = c.window(0, Rect::new(0.0, 0.0, 64.0, 64.0), 1);
    assert!(
        matches!(
            &err,
            Err(ClientError::Unexpected(r)) if **r == Response::DeadlineExceeded
        ),
        "expected DeadlineExceeded, got {err:?}"
    );
    // The same connection immediately serves an unbounded query.
    let got = c.window(0, Rect::new(0.0, 0.0, 10.0, 10.0), 0).unwrap();
    assert!(!got.is_empty());
    let stats = c.stats().unwrap();
    assert!(stats.timeouts >= 1);
    assert!(stats.completed >= 1);
    let report = server.stop();
    assert_eq!(report.stats.queue_depth, 0);
}

/// A server shared by all fuzz cases (leaked on purpose: the process ends
/// with the test binary).
fn fuzz_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let (server, addr) = start(quick_cfg());
        std::mem::forget(server);
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary byte blobs thrown at the socket — closed abruptly — must
    /// leave the server able to answer a real query.
    #[test]
    fn random_bytes_never_panic_the_server(blob in prop::collection::vec(0u8..255, 0..64)) {
        let addr = fuzz_server();
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(&blob);
        drop(s);
        let mut c = Client::connect(addr).unwrap();
        prop_assert!(c.stats().is_ok(), "server died after blob {blob:?}");
    }
}
