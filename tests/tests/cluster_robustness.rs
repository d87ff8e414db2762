//! Robustness acceptance for the cluster router: killed shards degrade
//! answers to `Partial` (never hangs, never malformed frames), faulty
//! shards are isolated, and a restarted shard rejoins without touching
//! the router.
//!
//! The shard processes are real OS processes (`shard_harness`, a bin in
//! this package) so the tests can SIGKILL them mid-run.

use psj_cluster::{plan_shards, HealthPolicy, Router, RouterConfig, ShardAddr, ShardPlan};
use psj_datagen::Scenario;
use psj_geom::Rect;
use psj_rtree::{bulk::bulk_load_str, PagedTree, RTree};
use psj_serve::protocol::{read_frame, write_frame, MAX_REQUEST_FRAME};
use psj_serve::{Client, ClientError, Request, Response, ServeConfig, Server, ROUTER_SHARD};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Item = (Rect, u64);

fn items() -> (Vec<Item>, Vec<Item>) {
    let (m1, m2) = Scenario::scaled(20_2309, 0.005).generate();
    (
        m1.iter().map(|o| (o.mbr(), o.oid)).collect(),
        m2.iter().map(|o| (o.mbr(), o.oid)).collect(),
    )
}

fn freeze(items: &[Item]) -> PagedTree {
    let tree = if items.is_empty() {
        RTree::new()
    } else {
        bulk_load_str(items)
    };
    PagedTree::freeze(&tree, |_| None)
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

/// Fresh scratch dir under the system temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psj_cluster_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes per-shard tree files for a plan; returns `trees` argument
/// strings, one per shard.
fn write_shard_trees(
    dir: &Path,
    plan: &ShardPlan,
    items1: &[Item],
    items2: &[Item],
) -> Vec<String> {
    let buckets1 = plan.assign(items1);
    let buckets2 = plan.assign(items2);
    (0..plan.len())
        .map(|i| {
            let pa = dir.join(format!("shard{i}_a.psjt"));
            let pb = dir.join(format!("shard{i}_b.psjt"));
            freeze(&buckets1[i]).save_to(&pa).expect("save shard tree");
            freeze(&buckets2[i]).save_to(&pb).expect("save shard tree");
            format!("{},{}", pa.display(), pb.display())
        })
        .collect()
}

/// Grabs a free loopback port by binding and immediately releasing it.
/// (The harness re-binds it; the window is tiny and the tests retry.)
fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind :0");
    l.local_addr().expect("local addr")
}

struct ShardProc {
    child: Child,
}

impl ShardProc {
    /// Spawns `shard_harness` and waits for its `serving on` banner.
    fn spawn(addr: SocketAddr, trees: &str, shard_id: u16, faults: Option<&str>) -> ShardProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_shard_harness"));
        cmd.arg("--addr")
            .arg(addr.to_string())
            .arg("--trees")
            .arg(trees)
            .arg("--shard-id")
            .arg(shard_id.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(spec) = faults {
            cmd.arg("--inject-faults").arg(spec);
        }
        let mut child = cmd.spawn().expect("spawn shard_harness");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read banner");
        assert!(
            line.starts_with("serving on "),
            "unexpected harness banner: {line:?}"
        );
        ShardProc { child }
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn router_over(plan: &ShardPlan, addrs: &[SocketAddr]) -> Router {
    let shards = plan
        .shards
        .iter()
        .zip(addrs)
        .map(|(spec, &addr)| ShardAddr {
            id: spec.id,
            addr,
            x_lo: spec.x_lo,
            x_hi: spec.x_hi,
        })
        .collect();
    Router::start(RouterConfig {
        shards,
        health: HealthPolicy {
            down_after: 2,
            probe_interval: Duration::from_millis(200),
        },
        ..RouterConfig::default()
    })
    .expect("bind router")
}

/// A full-extent window answered by the router: `Ok(oids)` when complete,
/// `Err(missing)` with the missing shard ids when partial. Anything else
/// panics.
fn full_window(client: &mut Client, rect: Rect, deadline_ms: u32) -> Result<Vec<u64>, Vec<u16>> {
    match client.window(0, rect, deadline_ms) {
        Ok(mut oids) => {
            oids.sort_unstable();
            Ok(oids)
        }
        Err(ClientError::Unexpected(r)) => match *r {
            Response::Partial {
                missing_shards,
                inner,
            } => {
                assert!(
                    matches!(*inner, Response::Entries(_)),
                    "partial wraps a non-window payload: {inner:?}"
                );
                Err(missing_shards)
            }
            other => panic!("unexpected response: {other:?}"),
        },
        Err(e) => panic!("transport error through router: {e}"),
    }
}

fn metric_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {series} not found in:\n{text}"))
}

#[test]
fn killed_shard_degrades_to_partial_and_rejoins_after_restart() {
    let (items1, items2) = items();
    let dir = scratch("kill");
    let plan = plan_shards(&items1, &items2, 3);
    let tree_args = write_shard_trees(&dir, &plan, &items1, &items2);
    let addrs: Vec<SocketAddr> = (0..3).map(|_| free_addr()).collect();
    let mut procs: Vec<Option<ShardProc>> = (0..3)
        .map(|i| {
            Some(ShardProc::spawn(
                addrs[i],
                &tree_args[i],
                plan.shards[i].id,
                None,
            ))
        })
        .collect();
    let router = router_over(&plan, &addrs);
    let mut client = Client::connect(router.local_addr()).expect("connect router");

    let mbr = world_mbr(&items1);
    let everything = Rect::new(mbr.xl - 1.0, mbr.yl - 1.0, mbr.xu + 1.0, mbr.yu + 1.0);
    let mut want_all: Vec<u64> = items1.iter().map(|&(_, oid)| oid).collect();
    want_all.sort_unstable();

    // Healthy cluster answers in full.
    assert_eq!(
        full_window(&mut client, everything, 0),
        Ok(want_all.clone())
    );

    // SIGKILL the middle shard: full-extent reads degrade to Partial
    // naming exactly that shard, within the deadline, promptly.
    procs[1].take().expect("shard 1 running").kill();
    let t0 = Instant::now();
    let missing = loop {
        match full_window(&mut client, everything, 1_000) {
            Err(missing) => break missing,
            Ok(_) => assert!(
                t0.elapsed() < Duration::from_secs(10),
                "router never noticed the killed shard"
            ),
        }
    };
    assert_eq!(missing, vec![plan.shards[1].id]);

    // Windows confined to a surviving shard's slab still answer in full:
    // the dead shard is not even consulted.
    let lo2 = plan.shards[2].x_lo;
    let margin = (mbr.xu - lo2).max(0.0) * 0.05;
    let safe = Rect::new(lo2 + margin, mbr.yl - 1.0, mbr.xu + 1.0, mbr.yu + 1.0);
    let mut want_safe: Vec<u64> = items1
        .iter()
        .filter(|(r, _)| r.intersects(&safe))
        .map(|&(_, oid)| oid)
        .collect();
    want_safe.sort_unstable();
    assert_eq!(
        full_window(&mut client, safe, 1_000),
        Ok(want_safe),
        "a window inside shard 2's slab must not degrade"
    );

    // Restart the shard on the same address: the router's prober must
    // bring it back without a restart on our side.
    procs[1] = Some(ShardProc::spawn(
        addrs[1],
        &tree_args[1],
        plan.shards[1].id,
        None,
    ));
    let t0 = Instant::now();
    loop {
        match full_window(&mut client, everything, 1_000) {
            Ok(oids) => {
                assert_eq!(oids, want_all);
                break;
            }
            Err(_) => {
                assert!(
                    t0.elapsed() < Duration::from_secs(20),
                    "restarted shard never rejoined"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }

    // The router's own metrics recorded the round trip.
    let metrics = client.metrics().expect("router metrics");
    let down = metric_value(&metrics, "psj_router_shard_down_total{shard=\"1\"} ");
    let probes = metric_value(&metrics, "psj_router_shard_probes_total{shard=\"1\"} ");
    let recovered = metric_value(&metrics, "psj_router_shard_recovered_total{shard=\"1\"} ");
    assert!(down >= 1.0, "down transitions: {down}");
    assert!(probes >= 1.0, "probes: {probes}");
    assert!(recovered >= 1.0, "recoveries: {recovered}");
    assert!(metric_value(&metrics, "psj_router_partial_responses_total ") >= 1.0);

    router.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulty_shard_is_isolated_not_contagious() {
    let (items1, items2) = items();
    let dir = scratch("fault");
    let plan = plan_shards(&items1, &items2, 3);
    let tree_args = write_shard_trees(&dir, &plan, &items1, &items2);
    let addrs: Vec<SocketAddr> = (0..3).map(|_| free_addr()).collect();
    // Shard 1 flips every page checksum on cache fill: every query it
    // touches becomes a typed storage error.
    let _procs: Vec<ShardProc> = (0..3)
        .map(|i| {
            ShardProc::spawn(
                addrs[i],
                &tree_args[i],
                plan.shards[i].id,
                (i == 1).then_some("seed=7,flip=1.0"),
            )
        })
        .collect();
    let router = router_over(&plan, &addrs);
    let mut client = Client::connect(router.local_addr()).expect("connect router");
    let mbr = world_mbr(&items1);

    // Full-extent reads: shard 1 contributes nothing, the rest answer.
    let everything = Rect::new(mbr.xl - 1.0, mbr.yl - 1.0, mbr.xu + 1.0, mbr.yu + 1.0);
    let missing = full_window(&mut client, everything, 0).expect_err("must be partial");
    assert_eq!(missing, vec![plan.shards[1].id]);

    // Reads inside a clean shard's slab are untouched.
    let lo2 = plan.shards[2].x_lo;
    let margin = (mbr.xu - lo2).max(0.0) * 0.05;
    let safe = Rect::new(lo2 + margin, mbr.yl - 1.0, mbr.xu + 1.0, mbr.yu + 1.0);
    assert!(full_window(&mut client, safe, 0).is_ok());

    // A shard answering *typed* errors is reachable, so health-wise it
    // stays Healthy (0) — isolation is per-answer, not a demotion.
    let metrics = client.metrics().expect("router metrics");
    assert_eq!(
        metric_value(&metrics, "psj_router_shard_health{shard=\"1\"} "),
        0.0
    );

    router.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn black_holed_shard_hits_the_deadline_not_a_hang() {
    let (items1, items2) = items();
    let mbr = world_mbr(&items1);
    let mid = (mbr.xl + mbr.xu) / 2.0;

    // Shard 0: a real server owning everything. Shard 1: a listener that
    // accepts and reads but never replies — the worst kind of peer.
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            read_timeout: Duration::from_millis(50),
            ..ServeConfig::default()
        },
        vec![Arc::new(freeze(&items1)), Arc::new(freeze(&items2))],
    )
    .expect("bind shard 0");
    let hole = TcpListener::bind("127.0.0.1:0").expect("bind black hole");
    let hole_addr = hole.local_addr().expect("hole addr");
    std::thread::spawn(move || {
        for conn in hole.incoming() {
            let Ok(mut conn) = conn else { continue };
            std::thread::spawn(move || {
                let mut sink = [0u8; 1024];
                while let Ok(n) = conn.read(&mut sink) {
                    if n == 0 {
                        break;
                    }
                }
            });
        }
    });

    let router = Router::start(RouterConfig {
        shards: vec![
            ShardAddr {
                id: 0,
                addr: server.local_addr(),
                x_lo: f64::NEG_INFINITY,
                x_hi: f64::INFINITY,
            },
            ShardAddr {
                id: 1,
                addr: hole_addr,
                x_lo: mid,
                x_hi: f64::INFINITY,
            },
        ],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let mut client = Client::connect(router.local_addr()).expect("connect router");

    let everything = Rect::new(mbr.xl - 1.0, mbr.yl - 1.0, mbr.xu + 1.0, mbr.yu + 1.0);
    let mut want: Vec<u64> = items1.iter().map(|&(_, oid)| oid).collect();
    want.sort_unstable();

    let t0 = Instant::now();
    match client.window(0, everything, 400) {
        Err(ClientError::Unexpected(r)) => match *r {
            Response::Partial {
                missing_shards,
                inner,
            } => {
                assert_eq!(missing_shards, vec![1]);
                let Response::Entries(mut oids) = *inner else {
                    panic!("partial wraps {inner:?}");
                };
                oids.sort_unstable();
                assert_eq!(oids, want, "shard 0's full answer must survive");
            }
            other => panic!("unexpected response: {other:?}"),
        },
        other => panic!("expected a partial answer, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "deadline-bounded scatter took {:?}",
        t0.elapsed()
    );

    router.stop();
    server.stop();
}

#[test]
fn trickling_shard_hits_the_deadline_not_a_hang() {
    let (items1, items2) = items();
    let mbr = world_mbr(&items1);
    let mid = (mbr.xl + mbr.xu) / 2.0;

    // Shard 0: a real server owning everything. Shard 1: reads the
    // request, then sends a valid length prefix and one payload byte
    // every 50 ms — every read succeeds, yet the reply never completes.
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            read_timeout: Duration::from_millis(50),
            ..ServeConfig::default()
        },
        vec![Arc::new(freeze(&items1)), Arc::new(freeze(&items2))],
    )
    .expect("bind shard 0");
    let trickle = TcpListener::bind("127.0.0.1:0").expect("bind trickling shard");
    let trickle_addr = trickle.local_addr().expect("trickle addr");
    std::thread::spawn(move || {
        for conn in trickle.incoming() {
            let Ok(mut conn) = conn else { continue };
            std::thread::spawn(move || {
                let mut prefix = [0u8; 4];
                if conn.read_exact(&mut prefix).is_err() {
                    return;
                }
                let mut request = vec![0u8; u32::from_le_bytes(prefix) as usize];
                if conn.read_exact(&mut request).is_err() {
                    return;
                }
                if conn.write_all(&4096u32.to_le_bytes()).is_err() {
                    return;
                }
                // Ends when the router drops the connection.
                loop {
                    std::thread::sleep(Duration::from_millis(50));
                    if conn.write_all(&[0]).is_err() {
                        return;
                    }
                }
            });
        }
    });

    let router = Router::start(RouterConfig {
        shards: vec![
            ShardAddr {
                id: 0,
                addr: server.local_addr(),
                x_lo: f64::NEG_INFINITY,
                x_hi: f64::INFINITY,
            },
            ShardAddr {
                id: 1,
                addr: trickle_addr,
                x_lo: mid,
                x_hi: f64::INFINITY,
            },
        ],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let mut client = Client::connect(router.local_addr()).expect("connect router");

    let everything = Rect::new(mbr.xl - 1.0, mbr.yl - 1.0, mbr.xu + 1.0, mbr.yu + 1.0);
    let mut want: Vec<u64> = items1.iter().map(|&(_, oid)| oid).collect();
    want.sort_unstable();

    let t0 = Instant::now();
    match client.window(0, everything, 300) {
        Err(ClientError::Unexpected(r)) => match *r {
            Response::Partial {
                missing_shards,
                inner,
            } => {
                assert_eq!(missing_shards, vec![1]);
                let Response::Entries(mut oids) = *inner else {
                    panic!("partial wraps {inner:?}");
                };
                oids.sort_unstable();
                assert_eq!(oids, want, "shard 0's full answer must survive");
            }
            other => panic!("unexpected response: {other:?}"),
        },
        other => panic!("expected a partial answer, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "deadline-bounded scatter took {:?}",
        t0.elapsed()
    );

    router.stop();
    server.stop();
}

/// The router frames its clients on psj-serve's shell, so a bad frame
/// gets what a shard gives it: a well-framed garbage payload is answered
/// with an error, counted, and the connection keeps serving; an oversized
/// length prefix gets an error frame and a hang-up.
#[test]
fn router_answers_bad_frames_like_a_shard() {
    let (items1, items2) = items();
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            read_timeout: Duration::from_millis(50),
            ..ServeConfig::default()
        },
        vec![Arc::new(freeze(&items1)), Arc::new(freeze(&items2))],
    )
    .expect("bind shard");
    let router = Router::start(RouterConfig {
        shards: vec![ShardAddr {
            id: 0,
            addr: server.local_addr(),
            x_lo: f64::NEG_INFINITY,
            x_hi: f64::INFINITY,
        }],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.local_addr();
    let exchange = |s: &mut TcpStream, payload: &[u8]| -> Option<Response> {
        write_frame(s, payload).expect("write frame");
        let reply = read_frame(s, usize::MAX).expect("read reply")?;
        Some(Response::decode(&reply).expect("reply decodes"))
    };

    let mut s = TcpStream::connect(addr).expect("connect router");
    let reply = exchange(&mut s, &[0xff; 10]);
    assert!(
        matches!(reply, Some(Response::Error(_))),
        "garbage payload: {reply:?}"
    );
    let proto_errors = metric_value(&router.metrics_text(), "psj_router_proto_errors_total");
    assert_eq!(proto_errors, 1.0, "the garbage payload is counted");
    match exchange(&mut s, &Request::Info.encode()) {
        Some(Response::Info { shard, trees }) => {
            assert_eq!(shard, ROUTER_SHARD);
            assert_eq!(trees.len(), 2, "the shard's two trees");
        }
        other => panic!("Info on the same connection: {other:?}"),
    }
    drop(s);

    let mut s = TcpStream::connect(addr).expect("connect router");
    s.write_all(&((MAX_REQUEST_FRAME as u32) + 1).to_le_bytes())
        .expect("write prefix");
    let reply = read_frame(&mut s, usize::MAX)
        .expect("read reply")
        .expect("an error frame before the hang-up");
    assert!(
        matches!(Response::decode(&reply), Ok(Response::Error(_))),
        "oversized prefix: {reply:?}"
    );
    let mut rest = Vec::new();
    assert_eq!(
        s.read_to_end(&mut rest).expect("read to EOF"),
        0,
        "the router hung up"
    );
    assert_eq!(
        metric_value(&router.metrics_text(), "psj_router_proto_errors_total"),
        2.0
    );

    router.stop();
    server.stop();
}
