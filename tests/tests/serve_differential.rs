//! Differential acceptance for psj-serve: every query answered by the
//! server must return exactly the same result set as a direct
//! psj_rtree / psj_core call on the same trees, from concurrent client
//! threads.

use psj_geom::{Point, Rect};
use psj_integration::harness::JoinScenario;
use psj_rtree::PagedTree;
use psj_serve::{Client, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

fn scenario_trees() -> Vec<Arc<PagedTree>> {
    let s = JoinScenario::paper_maps("serve-differential", 20_2306, 0.02);
    vec![Arc::new(s.a), Arc::new(s.b)]
}

fn random_window(rng: &mut StdRng, mbr: &Rect, extent: f64) -> Rect {
    let w = (mbr.xu - mbr.xl) * extent;
    let h = (mbr.yu - mbr.yl) * extent;
    let x = mbr.xl + rng.random::<f64>() * (mbr.xu - mbr.xl - w);
    let y = mbr.yl + rng.random::<f64>() * (mbr.yu - mbr.yl - h);
    Rect::new(x, y, x + w, y + h)
}

/// One client thread: seeded window + nearest queries, each checked
/// against the direct in-process call.
fn client_workload(
    addr: std::net::SocketAddr,
    trees: &[Arc<PagedTree>],
    seed: u64,
    requests: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Client::connect(addr).expect("connect");
    for i in 0..requests {
        let tree = rng.random_range(0..trees.len());
        let t = &trees[tree];
        if rng.random_bool(0.7) {
            let rect = random_window(&mut rng, &t.mbr(), 0.08);
            let mut got = client.window(tree as u16, rect, 0).expect("window");
            let mut want: Vec<u64> = t.window_query(&rect).iter().map(|e| e.oid).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(
                got, want,
                "seed {seed} request {i} tree {tree} window {rect:?}"
            );
        } else {
            let mbr = t.mbr();
            let p = Point::new(
                mbr.xl + rng.random::<f64>() * (mbr.xu - mbr.xl),
                mbr.yl + rng.random::<f64>() * (mbr.yu - mbr.yl),
            );
            let k = rng.random_range(1..20usize);
            let got = client
                .nearest(tree as u16, p.x, p.y, k as u32, 0)
                .expect("nearest");
            let want = t.nearest_neighbors(&p, k);
            assert_eq!(got.len(), want.len(), "seed {seed} request {i}");
            // Distances are uniquely ordered with overwhelming probability
            // on continuous data; compare the distance sequence and the
            // oid multiset (ties may legally permute oids).
            for ((gd, _), (wd, _)) in got.iter().zip(&want) {
                assert_eq!(gd, wd, "seed {seed} request {i} k {k}");
            }
            let got_oids: BTreeSet<u64> = got.iter().map(|(_, o)| *o).collect();
            let want_oids: BTreeSet<u64> = want.iter().map(|(_, e)| e.oid).collect();
            assert_eq!(got_oids, want_oids, "seed {seed} request {i}");
        }
    }
}

#[test]
fn unbatched_large_cache_matches_direct() {
    let trees = scenario_trees();
    let cfg = ServeConfig {
        workers: 4,
        read_timeout: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, trees.clone()).expect("bind");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for c in 0..4u64 {
            let trees = &trees;
            scope.spawn(move || client_workload(addr, trees, 1_000 + c, 40));
        }
    });

    // One join request on top of the query mix, checked as a pair set.
    let mut client = Client::connect(addr).expect("connect");
    let got: BTreeSet<(u64, u64)> = client
        .join(0, 1, true, 0)
        .expect("join")
        .into_iter()
        .collect();
    let want: BTreeSet<(u64, u64)> = psj_core::join_refined(&trees[0], &trees[1])
        .into_iter()
        .collect();
    assert_eq!(got, want, "join through the server");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.shed, 0, "differential sweep must not shed");
    assert_eq!(stats.timeouts, 0, "no deadlines were set");
    assert!(stats.completed > 4 * 40, "4 clients x 40 queries + 1 join");
    assert_eq!(stats.batches, 4 * 40, "every query executed exactly once");
    assert_eq!(stats.batched_queries, stats.batches);
    assert!(
        stats.cache_requests > 0 && stats.cache_hits > 0,
        "queries must read tree nodes: {stats:?}"
    );
    assert_eq!(
        stats.cache_hits, stats.cache_requests,
        "every node read of a healthy tree returns its frame: {stats:?}"
    );
    let stats = server.stop();
    assert_eq!(stats.queue_depth, 0, "clean drain");
}
