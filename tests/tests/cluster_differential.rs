//! Differential acceptance for the cluster: a router over N shards must
//! answer every query with exactly the set a single server over the whole
//! dataset produces — at every shard count, for windows, nearests, and
//! joins (pairs exactly once, never duplicated across shard overlap).

use psj_cluster::{plan_shards, Router, RouterConfig, ShardAddr};
use psj_datagen::Scenario;
use psj_geom::Rect;
use psj_rtree::{bulk::bulk_load_str, PagedTree, RTree};
use psj_serve::{Client, Request, Response, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

type Item = (Rect, u64);

fn items() -> (Vec<Item>, Vec<Item>) {
    let (m1, m2) = Scenario::scaled(20_2308, 0.01).generate();
    (
        m1.iter().map(|o| (o.mbr(), o.oid)).collect(),
        m2.iter().map(|o| (o.mbr(), o.oid)).collect(),
    )
}

fn freeze(items: &[Item]) -> Arc<PagedTree> {
    let tree = if items.is_empty() {
        RTree::new()
    } else {
        bulk_load_str(items)
    };
    Arc::new(PagedTree::freeze(&tree, |_| None))
}

fn serve_cfg(shard_id: u16) -> ServeConfig {
    ServeConfig {
        workers: 2,
        shard_id,
        read_timeout: Duration::from_millis(50),
        ..ServeConfig::default()
    }
}

fn start_single(items1: &[Item], items2: &[Item]) -> Server {
    Server::start(serve_cfg(0), vec![freeze(items1), freeze(items2)]).expect("bind single")
}

/// Starts one server per planned shard plus a router in front.
fn start_cluster(items1: &[Item], items2: &[Item], n: usize) -> (Vec<Server>, Router) {
    let plan = plan_shards(items1, items2, n);
    let buckets1 = plan.assign(items1);
    let buckets2 = plan.assign(items2);
    let mut servers = Vec::new();
    let mut shards = Vec::new();
    for (i, spec) in plan.shards.iter().enumerate() {
        let server = Server::start(
            serve_cfg(spec.id),
            vec![freeze(&buckets1[i]), freeze(&buckets2[i])],
        )
        .expect("bind shard");
        shards.push(ShardAddr {
            id: spec.id,
            addr: server.local_addr(),
            x_lo: spec.x_lo,
            x_hi: spec.x_hi,
        });
        servers.push(server);
    }
    let router = Router::start(RouterConfig {
        shards,
        ..RouterConfig::default()
    })
    .expect("bind router");
    (servers, router)
}

fn world_mbr(items: &[Item]) -> Rect {
    let mut m = items[0].0;
    for (r, _) in items {
        m = Rect::new(
            m.xl.min(r.xl),
            m.yl.min(r.yl),
            m.xu.max(r.xu),
            m.yu.max(r.yu),
        );
    }
    m
}

fn random_window(rng: &mut StdRng, mbr: &Rect, extent: f64) -> Rect {
    let w = (mbr.xu - mbr.xl) * extent;
    let h = (mbr.yu - mbr.yl) * extent;
    let x = mbr.xl + rng.random::<f64>() * (mbr.xu - mbr.xl - w);
    let y = mbr.yl + rng.random::<f64>() * (mbr.yu - mbr.yl - h);
    Rect::new(x, y, x + w, y + h)
}

#[test]
fn router_matches_single_node_at_every_shard_count() {
    let (items1, items2) = items();
    let oracle_srv = start_single(&items1, &items2);
    let mut oracle = Client::connect(oracle_srv.local_addr()).expect("connect oracle");
    let mbr = world_mbr(&items1);

    // The oracle join, used at every shard count below.
    let mut want_join = oracle.join(0, 1, false, 0).expect("oracle join");
    want_join.sort_unstable();
    assert!(!want_join.is_empty(), "scenario produced an empty join");

    for n in [1usize, 2, 3, 4] {
        let (servers, router) = start_cluster(&items1, &items2, n);
        let mut client = Client::connect(router.local_addr()).expect("connect router");

        // Windows: narrow ones (routed to a subset of shards) and wide
        // ones (scattered everywhere), each against the oracle.
        let mut rng = StdRng::seed_from_u64(n as u64);
        for i in 0..30 {
            let extent = if i % 3 == 0 { 0.5 } else { 0.04 };
            let rect = random_window(&mut rng, &mbr, extent);
            let tree = (i % 2) as u16;
            let mut got = client.window(tree, rect, 0).expect("router window");
            let mut want = oracle.window(tree, rect, 0).expect("oracle window");
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "shards={n} window {i} {rect:?}");
        }

        // Nearest: always scattered to every shard; merged list must be
        // bit-identical (same arithmetic on both paths).
        for i in 0..15 {
            let x = mbr.xl + rng.random::<f64>() * (mbr.xu - mbr.xl);
            let y = mbr.yl + rng.random::<f64>() * (mbr.yu - mbr.yl);
            let k = 1 + (i % 20) as u32;
            let got = client.nearest(0, x, y, k, 0).expect("router nearest");
            let want = oracle.nearest(0, x, y, k, 0).expect("oracle nearest");
            assert_eq!(got, want, "shards={n} nearest {i} ({x}, {y}) k={k}");
        }

        // Join: the router fans out with owner intervals; the gathered
        // pairs must equal the oracle's exactly — as a *list* after
        // sorting, so any cross-shard duplicate fails the comparison.
        let mut got_join = client.join(0, 1, false, 0).expect("router join");
        got_join.sort_unstable();
        assert_eq!(
            got_join.len(),
            want_join.len(),
            "shards={n}: pair count differs (duplicates or losses)"
        );
        assert_eq!(got_join, want_join, "shards={n}: join pairs differ");

        router.stop();
        for s in servers {
            s.stop();
        }
    }
    oracle_srv.stop();
}

/// The exactly-once guarantee lives on the shards: each keeps only pairs
/// whose reference point falls in its owned interval. Query every shard
/// directly with its owner interval and check the union reconstructs the
/// oracle with no pair claimed twice.
#[test]
fn shard_owner_intervals_partition_the_join() {
    let (items1, items2) = items();
    let oracle_srv = start_single(&items1, &items2);
    let mut oracle = Client::connect(oracle_srv.local_addr()).expect("connect oracle");
    let mut want = oracle.join(0, 1, false, 0).expect("oracle join");
    want.sort_unstable();
    oracle_srv.stop();

    let n = 3;
    let plan = plan_shards(&items1, &items2, n);
    let buckets1 = plan.assign(&items1);
    let buckets2 = plan.assign(&items2);
    let mut got: Vec<(u64, u64)> = Vec::new();
    let mut per_shard_total = 0usize;
    for (i, spec) in plan.shards.iter().enumerate() {
        let server = Server::start(
            serve_cfg(spec.id),
            vec![freeze(&buckets1[i]), freeze(&buckets2[i])],
        )
        .expect("bind shard");
        let mut c = Client::connect(server.local_addr()).expect("connect shard");
        let resp = c
            .request(&Request::Join {
                tree_a: 0,
                tree_b: 1,
                refine: false,
                deadline_ms: 0,
                owner: Some((spec.x_lo, spec.x_hi)),
            })
            .expect("shard join");
        let Response::Pairs(pairs) = resp else {
            panic!("shard {i} answered {resp:?}");
        };
        per_shard_total += pairs.len();
        got.extend(pairs);
        server.stop();
    }
    got.sort_unstable();
    assert_eq!(
        per_shard_total,
        want.len(),
        "owner intervals must partition the pair set (no pair twice)"
    );
    assert_eq!(got, want, "union of owned shard joins differs from oracle");
}
