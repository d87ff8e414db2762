//! The cluster subcommands: shard planning and the router process.

use crate::args::Args;
use psj_cluster::{format_topology, parse_topology, plan_shards, Router, RouterConfig, ShardAddr};
use psj_datagen::io::load_map;
use psj_rtree::{bulk::bulk_load_str, PagedTree, RTree};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

type CmdResult = Result<(), String>;

fn io_err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Builds a shard's tree over its bucket of items, with geometry attached
/// from the source objects so refinement works through the cluster.
fn shard_tree(
    items: &[(psj_geom::Rect, u64)],
    geoms: &HashMap<u64, psj_geom::Polyline>,
) -> PagedTree {
    let tree = if items.is_empty() {
        RTree::new()
    } else {
        bulk_load_str(items)
    };
    PagedTree::freeze_with_attrs(&tree, |oid| geoms.get(&oid).cloned(), 1365)
}

/// `psj shard-plan` — partition two map files into N shards: per-shard
/// tree files plus a topology file the router consumes.
pub fn shard_plan(args: &Args) -> CmdResult {
    let map1 = args.require("map1")?;
    let map2 = args.require("map2")?;
    let shards: usize = args.parse_or("shards", 3usize)?;
    if shards == 0 || shards >= usize::from(u16::MAX) {
        return Err(format!("--shards {shards} out of range"));
    }
    let out_dir = PathBuf::from(args.require("out")?);
    let host = args.get("host").unwrap_or("127.0.0.1");
    let base_port: u16 = args.parse_or("base-port", 7001u16)?;
    std::fs::create_dir_all(&out_dir).map_err(io_err)?;

    let objs1 = load_map(Path::new(map1)).map_err(io_err)?;
    let objs2 = load_map(Path::new(map2)).map_err(io_err)?;
    let items1: Vec<(psj_geom::Rect, u64)> = objs1.iter().map(|o| (o.mbr(), o.oid)).collect();
    let items2: Vec<(psj_geom::Rect, u64)> = objs2.iter().map(|o| (o.mbr(), o.oid)).collect();
    let geoms1: HashMap<u64, psj_geom::Polyline> =
        objs1.iter().map(|o| (o.oid, o.geom.clone())).collect();
    let geoms2: HashMap<u64, psj_geom::Polyline> =
        objs2.iter().map(|o| (o.oid, o.geom.clone())).collect();

    let plan = plan_shards(&items1, &items2, shards);
    let buckets1 = plan.assign(&items1);
    let buckets2 = plan.assign(&items2);
    let mut topo = Vec::with_capacity(plan.len());
    for (i, spec) in plan.shards.iter().enumerate() {
        let path_a = out_dir.join(format!("shard{i}_a.psjt"));
        let path_b = out_dir.join(format!("shard{i}_b.psjt"));
        let ta = shard_tree(&buckets1[i], &geoms1);
        let tb = shard_tree(&buckets2[i], &geoms2);
        ta.save_to(&path_a).map_err(io_err)?;
        tb.save_to(&path_b).map_err(io_err)?;
        println!(
            "shard {i}: x in [{:?}, {:?}), {} + {} objects -> {} + {}",
            spec.x_lo,
            spec.x_hi,
            ta.len(),
            tb.len(),
            path_a.display(),
            path_b.display()
        );
        topo.push(psj_cluster::TopoShard {
            id: spec.id,
            addr: format!("{host}:{}", base_port + spec.id),
            x_lo: spec.x_lo,
            x_hi: spec.x_hi,
            trees: vec![path_a.display().to_string(), path_b.display().to_string()],
        });
    }
    let topo_path = out_dir.join("topology.txt");
    std::fs::write(&topo_path, format_topology(&topo)).map_err(io_err)?;
    let replicas1: usize = buckets1.iter().map(Vec::len).sum();
    let replicas2: usize = buckets2.iter().map(Vec::len).sum();
    println!(
        "planned {} shards ({} + {} placements from {} + {} objects) -> {}",
        plan.len(),
        replicas1,
        replicas2,
        items1.len(),
        items2.len(),
        topo_path.display()
    );
    Ok(())
}

/// Converts a topology file into router shard addresses.
fn router_shards(topo_path: &str) -> Result<Vec<ShardAddr>, String> {
    let text =
        std::fs::read_to_string(Path::new(topo_path)).map_err(|e| format!("{topo_path}: {e}"))?;
    let topo = parse_topology(&text)?;
    topo.iter()
        .map(|s| {
            let addr: std::net::SocketAddr = s
                .addr
                .parse()
                .map_err(|_| format!("shard {}: invalid address {}", s.id, s.addr))?;
            Ok(ShardAddr {
                id: s.id,
                addr,
                x_lo: s.x_lo,
                x_hi: s.x_hi,
            })
        })
        .collect()
}

/// `psj cluster-serve` — run the scatter-gather router over the shards a
/// topology file describes (the shards themselves run as `psj serve
/// --shard-id N` processes).
pub fn cluster_serve(args: &Args) -> CmdResult {
    let topo_path = args.require("topology")?;
    let addr_str = args.get("addr").unwrap_or("127.0.0.1:7900");
    let addr: std::net::SocketAddr = addr_str
        .parse()
        .map_err(|_| format!("invalid address: {addr_str}"))?;
    let shards = router_shards(topo_path)?;
    let cfg = RouterConfig {
        addr,
        shards,
        ..RouterConfig::default()
    };
    let n = cfg.shards.len();
    let router = Router::start(cfg).map_err(io_err)?;
    println!(
        "routing on {} for {n} shards (send a Shutdown request to stop)",
        router.local_addr()
    );
    router.wait();
    println!("router stopped");
    Ok(())
}
