//! psj-serve: a concurrent spatial query service over the paged R\*-trees.
//!
//! The paper's parallel join executes one large operation across
//! processors; this crate puts the same machinery behind a network
//! service where many small operations (window queries, k-NN, joins)
//! arrive concurrently and share the resident trees themselves: every
//! operation reads their arenas of page frames in place.
//!
//! The pieces:
//!
//! * [`protocol`] — length-prefixed binary frames; decoding is total
//!   (malformed bytes produce errors, never panics).
//! * [`exec`] — in-place execution: window and best-first k-NN through one
//!   deadline-checked node access, deadline-cancelled joins.
//! * [`server`] — acceptor and connection threads that execute their own
//!   requests under a bounded set of execution slots; admission control
//!   sheds load past a bound, deadlines cancel cooperatively.
//! * [`telemetry`] — lock-free counters and a log-bucket latency
//!   histogram (p50/p95/p99) on the [`psj_obs`] registry, rendered as
//!   Prometheus text by the `Metrics` request.
//! * [`client`] — a blocking client for the protocol.
//! * [`loadgen`] — a seeded closed-loop load generator.

#![warn(missing_docs)]

pub mod client;
pub mod exec;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use client::{BackoffPolicy, Client, ClientError};
pub use exec::{JoinRun, Outcome, TreeSet};
pub use loadgen::{LoadConfig, LoadReport};
pub use protocol::{
    EncodeError, Request, Response, ServerStats, StorageErrorKind, TreeInfo, ROUTER_SHARD,
};
pub use server::{ServeConfig, Server, ServerReport};
pub use telemetry::{Histogram, Telemetry};

#[cfg(test)]
mod e2e {
    use super::*;
    use psj_geom::Rect;
    use psj_rtree::{PagedTree, RTree};
    use std::sync::Arc;
    use std::time::Duration;

    fn tree(n: usize, offset: f64) -> Arc<PagedTree> {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 50) as f64 + offset;
            let y = (i / 50) as f64 + offset;
            t.insert(Rect::new(x, y, x + 0.9, y + 0.9), i as u64);
        }
        Arc::new(PagedTree::freeze(&t, |_| None))
    }

    fn start() -> (Server, std::net::SocketAddr, Vec<Arc<PagedTree>>) {
        let trees = vec![tree(2000, 0.0), tree(1500, 0.4)];
        let cfg = ServeConfig {
            workers: 2,
            join_threads: 2,
            read_timeout: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, trees.clone()).expect("bind loopback");
        let addr = server.local_addr();
        (server, addr, trees)
    }

    #[test]
    fn end_to_end_queries_match_direct_calls() {
        let (server, addr, trees) = start();
        let mut c = Client::connect(addr).unwrap();

        let info = c.info().unwrap();
        assert_eq!(info.len(), 2);
        assert_eq!(info[0].len, trees[0].len());

        let rect = Rect::new(3.0, 3.0, 17.0, 11.0);
        let mut got = c.window(0, rect, 0).unwrap();
        let mut want: Vec<u64> = trees[0].window_query(&rect).iter().map(|e| e.oid).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "window");

        let nn = c.nearest(1, 7.7, 9.1, 5, 0).unwrap();
        let direct = trees[1].nearest_neighbors(&psj_geom::Point::new(7.7, 9.1), 5);
        assert_eq!(nn.len(), direct.len());
        for ((gd, go), (wd, we)) in nn.iter().zip(&direct) {
            assert_eq!(gd, wd);
            assert_eq!(*go, we.oid);
        }

        let pairs = c.join(0, 1, true, 0).unwrap();
        let want = psj_core::join_refined(&trees[0], &trees[1]);
        assert_eq!(pairs.len(), want.len(), "join");

        let stats = c.stats().unwrap();
        assert!(stats.completed >= 3);
        let report = server.stop();
        assert_eq!(report.stats.queue_depth, 0, "drained at shutdown");
    }

    #[test]
    fn unknown_tree_is_an_error_not_a_panic() {
        let (server, addr, _) = start();
        let mut c = Client::connect(addr).unwrap();
        let err = c.window(99, Rect::new(0.0, 0.0, 1.0, 1.0), 0);
        assert!(matches!(
            &err,
            Err(ClientError::Unexpected(r)) if matches!(**r, Response::Error(_))
        ));
        // The connection survives the error.
        assert!(c.stats().is_ok());
        server.stop();
    }

    #[test]
    fn client_shutdown_request_stops_wait() {
        let (server, addr, _) = start();
        let h = std::thread::spawn(move || server.wait());
        let mut c = Client::connect(addr).unwrap();
        c.window(0, Rect::new(0.0, 0.0, 5.0, 5.0), 0).unwrap();
        c.shutdown().unwrap();
        let report = h.join().unwrap();
        assert!(report.stats.completed >= 1);
        assert_eq!(report.stats.queue_depth, 0);
    }
}
