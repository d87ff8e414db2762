//! Per-layer metrics of `serve_mix`, and the router measured as a layer.

use super::{common, median, Layers, TENTH};
use crate::estimator::{estimate, quantile};
use crate::fixtures::{items, scenario, Fixture};
use crate::schedule::{Query, Req};
use crate::serve::{open_loop, serve_config, timed_requests, warm_up, wire, Serving, K};
use crate::spans::{Recorder, ROOT};
use crate::{host, median_setup, Ctx};
use psj_cluster::{plan_shards, Router, RouterConfig, ShardAddr};
use psj_geom::{Point, Rect};
use psj_rtree::bulk::bulk_load_str;
use psj_rtree::{nearest_neighbors_via, window_query_via, Node, NodeAccess, PagedTree};
use psj_serve::{Client, Request, Response, ServeConfig, Server};
use psj_store::{PageError, PageId};
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `Info` round trips behind `serve.rtt_us`.
const RTT_CALLS: usize = 1000;

/// Length of the closed-loop phase behind `serve.closed_rps`.
const CLOSED_LOOP: Duration = Duration::from_millis(1500);

/// Shards behind the router.
const SHARDS: usize = 2;

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// In-memory node access that counts the nodes a query reads.
struct Counting<'t> {
    tree: &'t PagedTree,
    reads: u64,
}

impl NodeAccess for Counting<'_> {
    type Ref<'a>
        = &'a Node
    where
        Self: 'a;

    fn read(&mut self, page: PageId) -> Result<&Node, PageError> {
        self.reads += 1;
        Ok(self.tree.node(page))
    }
}

/// Runs the traced `serve_mix` and fills `layers`. Returns the traced
/// repeat's attempted and failed request counts.
pub fn run(ctx: &Ctx, layers: &mut Layers, rec: &Recorder) -> io::Result<(u64, u64)> {
    let fixture = Fixture::open(&ctx.root, ctx.seed)?;
    let (load_s, (a, b)) = median_setup(|| fixture.load())?;
    common(
        layers,
        ctx,
        &fixture,
        a.num_pages() + b.num_pages(),
        a.height().max(b.height()),
    )?;
    layers.set("store.load_s", load_s);
    let trees = vec![Arc::new(a), Arc::new(b)];
    let mut serving = Serving::start(serve_config(ctx), trees.clone())?;
    let _spinners = host::IdleSpinners::start();
    warm_up(&mut serving, ctx);

    // The workload at a tenth of its length, untraced then traced.
    let reqs = timed_requests(ctx, (ctx.seconds / TENTH).max(1), &serving.mbrs());
    let untraced = open_loop(&mut serving, &reqs, &|_| false, None);
    let plain = estimate(&untraced.blocks());
    let before = serving.stats()?;
    let jiffies = host::steal_jiffies();
    let traced = open_loop(&mut serving, &reqs, &|_| true, Some(rec));
    layers.set(
        "host.steal_share",
        host::steal_share(jiffies, host::steal_jiffies()),
    );
    let after = serving.stats()?;
    let with_spans = estimate(&traced.blocks());
    layers.set(
        "obs.trace_overhead",
        with_spans.op_ms_p50 / plain.op_ms_p50 - 1.0,
    );
    layers.set("host.quiet_block_share", with_spans.quiet_block_share);

    let wait_ms: Vec<f64> = traced
        .samples
        .iter()
        .map(|s| s.wait_ns as f64 / 1e6)
        .collect();
    let lag_ms: Vec<f64> = traced
        .samples
        .iter()
        .map(|s| s.gen_lag_ns as f64 / 1e6)
        .collect();
    layers.set("serve.conn_wait_ms_p90", quantile(&wait_ms, 0.90));
    layers.set("serve.gen_lag_ms_p99", quantile(&lag_ms, 0.99));
    let completed = (after.completed - before.completed) as f64;
    let cache_requests = (after.cache_requests - before.cache_requests) as f64;
    layers.set(
        "serve.batch_size_mean",
        (after.batched_queries - before.batched_queries) as f64
            / (after.batches - before.batches).max(1) as f64,
    );
    layers.set("serve.server_p50_ms", after.p50_ms);
    layers.set("serve.shed", (after.shed - before.shed) as f64);
    layers.set("serve.timeouts", (after.timeouts - before.timeouts) as f64);
    layers.set(
        "buffer.serve_hit_share",
        (after.cache_hits - before.cache_hits) as f64 / cache_requests.max(1.0),
    );
    layers.set(
        "buffer.serve_pages_per_req",
        cache_requests / completed.max(1.0),
    );

    // The socket and thread-hop floor: a request that does no tree work.
    let client = &mut serving.clients[0];
    let mut rtt = Vec::with_capacity(RTT_CALLS);
    for _ in 0..RTT_CALLS {
        let t0 = Instant::now();
        client.info().map_err(|e| io::Error::other(e.to_string()))?;
        rtt.push(us(t0));
    }
    layers.set("serve.rtt_us", median(&rtt));

    // The codec alone, over the traced requests and their replies.
    let t0 = Instant::now();
    let mut bytes = 0usize;
    for (index, reply) in &traced.kept {
        let frame = wire(&reqs[*index].query).encode();
        black_box(Request::decode(&frame).ok());
        let frame = reply
            .try_encode()
            .map_err(|e| io::Error::other(e.to_string()))?;
        bytes += frame.len();
        black_box(Response::decode(&frame).ok());
    }
    layers.set("serve.codec_us", us(t0) / traced.kept.len() as f64);
    layers.set(
        "serve.resp_bytes_mean",
        bytes as f64 / traced.kept.len() as f64,
    );

    // The same requests against a server that does not wait to batch.
    let unbatched_p50 = {
        let cfg = ServeConfig {
            batch_window: Duration::ZERO,
            ..serve_config(ctx)
        };
        let mut unbatched = Serving::start(cfg, trees.clone())?;
        open_loop(&mut unbatched, &reqs, &|_| false, None);
        estimate(&open_loop(&mut unbatched, &reqs, &|_| false, None).blocks()).op_ms_p50
    };
    let batch_wait_ms = (plain.op_ms_p50 - unbatched_p50).max(0.0);
    layers.set("serve.batch_wait_ms", batch_wait_ms);

    let (closed_rps, direct_p50_ms) = closed_loop(&mut serving, &reqs);
    layers.set("serve.closed_rps", closed_rps);

    let exec_us = direct_calls(&trees, &reqs, layers, rec);
    layers.set(
        "budget.explained_share",
        (layers.get("serve.rtt_us") / 1e3
            + layers.get("serve.codec_us") / 1e3
            + batch_wait_ms
            + exec_us / 1e3)
            / plain.op_ms_p50,
    );
    let failed = traced.failed(&trees, &reqs);
    drop(serving);

    cluster(ctx, &reqs, direct_p50_ms, layers)?;
    Ok((reqs.len() as u64, failed))
}

/// Every connection sends its requests back to back for [`CLOSED_LOOP`]:
/// what the connections carry when nothing paces them. Returns requests
/// per second and the median latency, ms.
fn closed_loop(serving: &mut Serving, reqs: &[Req]) -> (f64, f64) {
    let t0 = Instant::now();
    let per_conn: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = serving
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut lat = Vec::new();
                    for r in reqs.iter().filter(|r| r.conn == c).cycle() {
                        if t0.elapsed() >= CLOSED_LOOP {
                            break;
                        }
                        let sent = Instant::now();
                        black_box(client.request(&wire(&r.query)).ok());
                        lat.push(sent.elapsed().as_secs_f64() * 1e3);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let lat: Vec<f64> = per_conn.concat();
    (lat.len() as f64 / elapsed_s, median(&lat))
}

/// Direct `PagedTree` calls on the request list, and the window filter
/// kernel on its own. Returns the mean execution time of the mix, µs.
fn direct_calls(
    trees: &[Arc<PagedTree>],
    reqs: &[Req],
    layers: &mut Layers,
    rec: &Recorder,
) -> f64 {
    let (mut window_us, mut nn_us) = (Vec::new(), Vec::new());
    let (mut window_nodes, mut nn_nodes) = (0u64, 0u64);
    for r in reqs {
        match r.query {
            Query::Window { tree, rect } => {
                let tree = &*trees[tree as usize];
                let mut access = Counting { tree, reads: 0 };
                let t0 = Instant::now();
                rec.span("rtree.window_query_via", 0, ROOT, r.index as u64, |_| {
                    black_box(window_query_via(&mut access, tree.root(), &rect).ok());
                });
                window_us.push(us(t0));
                window_nodes += access.reads;
            }
            Query::Nearest { tree, x, y } => {
                let tree = &*trees[tree as usize];
                let mut access = Counting { tree, reads: 0 };
                let t0 = Instant::now();
                rec.span(
                    "rtree.nearest_neighbors_via",
                    0,
                    ROOT,
                    r.index as u64,
                    |_| {
                        black_box(
                            nearest_neighbors_via(&mut access, tree.root(), &Point::new(x, y), K)
                                .ok(),
                        );
                    },
                );
                nn_us.push(us(t0));
                nn_nodes += access.reads;
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    layers.set("rtree.window_us", mean(&window_us));
    layers.set("rtree.nn_us", mean(&nn_us));
    layers.set(
        "rtree.window_nodes_per_query",
        window_nodes as f64 / window_us.len().max(1) as f64,
    );
    layers.set(
        "rtree.nn_nodes_per_query",
        nn_nodes as f64 / nn_us.len().max(1) as f64,
    );

    // The window filter over every node of the first tree, one window.
    let tree = &*trees[0];
    let window = reqs
        .iter()
        .find_map(|r| match r.query {
            Query::Window { tree: 0, rect } => Some(rect),
            _ => None,
        })
        .unwrap_or_else(|| tree.mbr());
    let mut out = Vec::new();
    let mut entries = 0usize;
    let t0 = Instant::now();
    for page in 0..tree.num_pages() as u32 {
        let node = tree.node(PageId(page));
        out.clear();
        node.soa_mbrs().filter_window(&window, &mut out);
        black_box(&out);
        entries += node.len();
    }
    layers.set(
        "geom.filter_window_ns_per_entry",
        us(t0) * 1e3 / entries as f64,
    );

    (window_us.iter().sum::<f64>() + nn_us.iter().sum::<f64>()) / reqs.len() as f64
}

fn freeze(items: &[(Rect, u64)]) -> Arc<PagedTree> {
    Arc::new(PagedTree::freeze(&bulk_load_str(items), |_| None))
}

/// The router as a layer: the traced requests replayed, one at a time,
/// through a `Router` over two in-process x-slab shards.
fn cluster(ctx: &Ctx, reqs: &[Req], direct_p50_ms: f64, layers: &mut Layers) -> io::Result<()> {
    let (map1, map2) = scenario(ctx.seed).generate();
    let (items1, items2) = (items(&map1), items(&map2));
    let t0 = Instant::now();
    let plan = plan_shards(&items1, &items2, SHARDS);
    layers.set("cluster.plan_ms", us(t0) / 1e3);
    let (buckets1, buckets2) = (plan.assign(&items1), plan.assign(&items2));
    let placed: usize = buckets1.iter().chain(&buckets2).map(Vec::len).sum();
    layers.set(
        "cluster.replication_ratio",
        placed as f64 / (items1.len() + items2.len()) as f64,
    );

    let mut servers = Vec::new();
    let mut shards = Vec::new();
    for (i, spec) in plan.shards.iter().enumerate() {
        let cfg = ServeConfig {
            shard_id: spec.id,
            ..serve_config(ctx)
        };
        let server = Server::start(cfg, vec![freeze(&buckets1[i]), freeze(&buckets2[i])])?;
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
    })?;

    let mut client = Client::connect(router.local_addr())?;
    let mut lat = Vec::with_capacity(reqs.len());
    let mut fanout = 0usize;
    for r in reqs {
        fanout += match r.query {
            Query::Window { rect, .. } => plan.overlapping(rect.xl, rect.xu).len(),
            Query::Nearest { .. } => plan.shards.len(),
        };
        let t0 = Instant::now();
        black_box(client.request(&wire(&r.query))?);
        lat.push(us(t0) / 1e3);
    }
    let routed_p50_ms = median(&lat);
    layers.set("cluster.routed_p50_ms", routed_p50_ms);
    layers.set("cluster.router_overhead_ms", routed_p50_ms - direct_p50_ms);
    layers.set("cluster.fanout_mean", fanout as f64 / reqs.len() as f64);
    let metrics = router.metrics_text();
    let total = |family: &str| -> f64 {
        metrics
            .lines()
            .filter(|l| l.starts_with(family))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    layers.set("cluster.retries", total("psj_router_shard_retries_total"));
    layers.set("cluster.hedges", total("psj_router_shard_hedges_total"));

    drop(client);
    router.stop();
    for server in servers {
        server.stop();
    }
    Ok(())
}
