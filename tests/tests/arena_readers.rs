//! A loaded tree is two arenas, its pages and its geometry, and every
//! product path reads those: no join, query, check, save, simulation or
//! served request builds the decoded node view behind `PagedTree::node`,
//! which would hold the tree's pages a second time. Each path runs on a
//! pair of loaded trees, and after each `heap_bytes().nodes` must still
//! read 0.

use psj_core::{
    join_candidates, join_refined, run_sim_join, try_run_join, try_run_partition_join,
    BufferConfig, NativeConfig, PartitionInput, RunControl, SimConfig,
};
use psj_geom::Point;
use psj_integration::harness::JoinScenario;
use psj_rtree::{fsck_file, PagedTree};
use psj_serve::{Client, ServeConfig, Server};
use std::sync::Arc;

fn tmpfile(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("psj-arena-readers-{}-{name}", std::process::id()))
}

/// `tree` saved and loaded back.
fn reloaded(tree: &PagedTree, name: &str) -> PagedTree {
    let path = tmpfile(name);
    tree.save_to(&path).expect("save");
    let loaded = PagedTree::load_from(&path).expect("load");
    std::fs::remove_file(&path).ok();
    loaded
}

/// Fails unless neither tree holds a decoded node after `path` ran.
fn no_nodes(path: &str, a: &PagedTree, b: &PagedTree) {
    assert_eq!(a.heap_bytes().nodes, 0, "{path} decoded tree A's nodes");
    assert_eq!(b.heap_bytes().nodes, 0, "{path} decoded tree B's nodes");
}

#[test]
fn no_product_path_builds_the_decoded_view() {
    let s = JoinScenario::paper_maps("arena-readers", 39, 0.01);
    let (a, b) = (reloaded(&s.a, "a"), reloaded(&s.b, "b"));
    no_nodes("loading", &a, &b);

    let candidates = join_candidates(&a, &b).candidates.len();
    assert!(candidates > 0);
    no_nodes("join_candidates", &a, &b);
    let exact = join_refined(&a, &b).len();
    assert!(exact > 0 && exact <= candidates);
    no_nodes("join_refined", &a, &b);

    let ctl = RunControl::default();
    let mem = try_run_join(&a, &b, &NativeConfig::new(2), &ctl).expect("in-memory join");
    assert_eq!(mem.pairs.len(), exact);
    no_nodes("try_run_join in memory", &a, &b);
    let buffer = BufferConfig {
        capacity_pages: 64,
        shards: 2,
    };
    let cached =
        try_run_join(&a, &b, &NativeConfig::buffered(2, buffer), &ctl).expect("cached join");
    assert_eq!(cached.pairs.len(), exact);
    no_nodes("try_run_join cached", &a, &b);
    let (ta, tb) = (PartitionInput::Tree(&a), PartitionInput::Tree(&b));
    let grid = try_run_partition_join(ta, tb, &NativeConfig::new(2), &ctl).expect("grid join");
    assert_eq!(grid.pairs.len(), exact);
    no_nodes("try_run_partition_join", &a, &b);

    let mbr = a.mbr();
    assert!(!a.window_query(&mbr).is_empty());
    let centre = Point::new((mbr.xl + mbr.xu) / 2.0, (mbr.yl + mbr.yu) / 2.0);
    assert_eq!(a.nearest_neighbors(&centre, 10).len(), 10);
    assert!(a.stats().num_data_pages > 0);
    a.verify().expect("verify");
    b.verify().expect("verify");
    no_nodes(
        "window_query, nearest_neighbors, stats, mbr and verify",
        &a,
        &b,
    );

    let path = tmpfile("save");
    a.save_to(&path).expect("save");
    let report = fsck_file(&path);
    std::fs::remove_file(&path).ok();
    assert!(report.ok(), "{}", report.to_json());
    no_nodes("save_to and fsck_file", &a, &b);

    let sim = run_sim_join(&a, &b, &SimConfig::best(2, 2, 64));
    assert_eq!(sim.metrics.candidates as usize, candidates);
    no_nodes("run_sim_join", &a, &b);

    let (a, b) = (Arc::new(a), Arc::new(b));
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, vec![a.clone(), b.clone()]).expect("serve");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let window = client.window(0, mbr, 0).expect("served window");
    assert_eq!(window.len() as u64, a.len());
    let nearest = client
        .nearest(0, centre.x, centre.y, 10, 0)
        .expect("served 10-NN");
    assert_eq!(nearest.len(), 10);
    let joined = client.join(0, 1, true, 0).expect("served join");
    assert_eq!(joined.len(), exact);
    drop(client);
    server.stop();
    no_nodes("serving", &a, &b);

    // The guard measures what it means to: the view, once built, counts.
    a.node(a.root());
    assert!(a.heap_bytes().nodes > 0);
}
