//! The CLI subcommands.

use crate::args::Args;
use psj_core::{
    run_sim_join, try_run_join, BufferConfig, NativeConfig, NativeError, RunControl, SimConfig,
};
use psj_datagen::io::{load_map, save_map};
use psj_datagen::Scenario;
use psj_obs::TraceSink;
use psj_rtree::{bulk::bulk_load_str, fsck_file, PagedTree, RTree};
use psj_serve::{loadgen, Client, ClientError, LoadConfig, Response, ServeConfig, Server};
use psj_store::{FaultPlan, RetryPolicy};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-level usage text.
pub const USAGE: &str = "\
psj — parallel spatial joins on R*-trees

commands:
  generate --scale <f> --seed <n> --out1 <map> --out2 <map>
  build    --map <map> --out <tree> [--attrs <bytes>] [--str|--hilbert]
  stats    --tree <tree>
  join     --tree1 <tree> --tree2 <tree> [--threads <n>] [--no-refine]
           [--cache <pages>] [--cache-shards <n>]
           [--inject-faults <spec>] [--retry-attempts <n>]
           [--trace <file.jsonl>] [--tasks] — the paper's synchronized
           R-tree traversal; --cache reads nodes through one page cache of
           that many pages shared by all threads; --trace writes a
           Perfetto/chrome://tracing-loadable JSONL trace; --tasks prints
           per-morsel attribution (pages, hits, wall time)
  fsck     <tree>  (or --tree <tree>) — prints a JSON integrity report,
           exits nonzero if the index is damaged
  simulate --tree1 <tree> --tree2 <tree> [--procs <n>] [--disks <n>]
           [--buffer <pages>] [--variant lsr|gsrr|gd|best]
  serve    --trees <tree>[,<tree>...] [--addr 127.0.0.1:7878] [--workers <n>]
           [--queue-bound <n>] [--lenient] [--inject-faults <spec>]
           [--retry-attempts <n>] [--trace <file.jsonl>] [--shard-id <n>]
           — --workers execution slots (default: the CPU count) bound the
           threads running requests; a join runs one worker per slot it
           holds (its own plus every free one); --trace writes the trace
           at shutdown; --shard-id tags this server for cluster routing
  shard-plan --map1 <map> --map2 <map> --shards <n> --out <dir>
           [--host <ip>] [--base-port <n>] — partition both maps into x-slab
           shards balanced by estimated join work; writes per-shard tree
           pairs plus topology.txt for cluster-serve
  cluster-serve --topology <file> [--addr 127.0.0.1:7900] — scatter-gather
           router over `psj serve --shard-id <n>` shard processes; speaks
           the same wire protocol as a single server, degrades to partial
           answers when shards are down
  query    --addr <host:port> [--tree <n>] (--window xl,yl,xu,yu |
           --nearest x,y [--k <n>] | --join-with <n> | --stats | --shutdown)
           — partial answers from a degraded cluster print a
           `partial (missing shards: ...)` banner before the payload
  metrics  --addr <host:port> — scrape Prometheus-text metrics from a
           running server
  trace-check <file.jsonl>  (or --file <file.jsonl>) — validate a trace
           file: every line parses, spans nest or are disjoint per thread
  bench-serve --addr <host:port> [--clients <n>] [--requests <n>] [--seed <n>]
           [--window-frac <f>] [--nearest-frac <f>] [--deadline-ms <n>]
           [--k <n>] [--window-extent <f>] [--reconnect] [--out <file.json>]
           [--shutdown] — --reconnect retries dropped connections with
           bounded backoff (for load against a cluster router)
  help

options may be written --key value or --key=value; an option a command
does not list, or one given without its value, is an error

fault spec grammar (comma-separated key=value):
  seed=<u64> transient=<p> burst=<n> flip=<p> torn=<p> latency-us=<n> latency-p=<p>
  e.g. --inject-faults seed=42,transient=0.2,burst=2,flip=0.01";

type CmdResult = Result<(), String>;

fn io_err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// `psj generate` — write a synthetic TIGER-like scenario to two map files.
pub fn generate(args: &Args) -> CmdResult {
    let scale: f64 = args.parse_or("scale", 0.1)?;
    let seed: u64 = args.parse_or("seed", 1996)?;
    let out1 = args.require("out1")?;
    let out2 = args.require("out2")?;
    let scenario = if (scale - 1.0).abs() < 1e-12 {
        Scenario::paper(seed)
    } else {
        Scenario::scaled(seed, scale)
    };
    let t0 = Instant::now();
    let (m1, m2) = scenario.generate();
    save_map(&m1, Path::new(out1)).map_err(io_err)?;
    save_map(&m2, Path::new(out2)).map_err(io_err)?;
    println!(
        "wrote {} objects to {out1} and {} objects to {out2} ({:.2?})",
        m1.len(),
        m2.len(),
        t0.elapsed()
    );
    Ok(())
}

/// `psj build` — index a map file into a persisted R*-tree.
pub fn build(args: &Args) -> CmdResult {
    let map_path = args.require("map")?;
    let out = args.require("out")?;
    let attrs: u64 = args.parse_or("attrs", 1365)?;
    let objects = load_map(Path::new(map_path)).map_err(io_err)?;
    let t0 = Instant::now();
    let tree = if args.flag("str") {
        let items: Vec<(psj_geom::Rect, u64)> = objects.iter().map(|o| (o.mbr(), o.oid)).collect();
        bulk_load_str(&items)
    } else if args.flag("hilbert") {
        let items: Vec<(psj_geom::Rect, u64)> = objects.iter().map(|o| (o.mbr(), o.oid)).collect();
        psj_rtree::hilbert::bulk_load_hilbert(&items)
    } else {
        let mut t = RTree::new();
        for o in &objects {
            t.insert(o.mbr(), o.oid);
        }
        t
    };
    let geoms: HashMap<u64, psj_geom::Polyline> =
        objects.iter().map(|o| (o.oid, o.geom.clone())).collect();
    let paged = PagedTree::freeze_with_attrs(&tree, |oid| geoms.get(&oid).cloned(), attrs);
    paged.save_to(Path::new(out)).map_err(io_err)?;
    println!(
        "indexed {} objects into {} pages (height {}) in {:.2?} -> {out}",
        paged.len(),
        paged.num_pages(),
        paged.height(),
        t0.elapsed()
    );
    Ok(())
}

/// `psj stats` — print a tree's Table-1 statistics, then the heap bytes
/// the loaded tree holds.
pub fn stats(args: &Args) -> CmdResult {
    let tree = PagedTree::load_from(Path::new(args.require("tree")?)).map_err(io_err)?;
    println!("{}", tree.stats());
    println!("{}", tree.heap_bytes());
    Ok(())
}

/// `psj join` — native multithreaded join of two persisted trees.
pub fn join(args: &Args) -> CmdResult {
    let threads = args.count_or(
        "threads",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
    )?;
    let mut cfg = NativeConfig::new(threads);
    cfg.refine = !args.flag("no-refine");
    if let Some(pages) = args.get("cache") {
        let capacity_pages: usize = pages
            .parse()
            .map_err(|_| format!("invalid value for --cache: {pages}"))?;
        let mut buffer = BufferConfig::global(capacity_pages);
        buffer.shards = args.parse_or("cache-shards", buffer.shards)?;
        cfg.buffer = Some(buffer);
    }
    let fault = match args.get("inject-faults") {
        Some(spec) => Some(Arc::new(FaultPlan::parse(spec)?)),
        None => None,
    };
    let mut ctl = RunControl::default();
    if let Some(plan) = &fault {
        ctl = ctl.with_fault(Arc::clone(plan));
    }
    if let Some(n) = args.get("retry-attempts") {
        let attempts: u32 = n
            .parse()
            .map_err(|_| format!("invalid value for --retry-attempts: {n}"))?;
        ctl = ctl.with_retry(RetryPolicy::attempts(attempts));
    }
    let (a, b, load_time) = load_pair(args)?;
    let trace = args.get("trace").map(|_| TraceSink::new(1 << 22));
    if let Some(sink) = &trace {
        ctl = ctl.with_trace(Arc::clone(sink));
    }
    // The wall time is the entry point's: it covers what the join does
    // before its own clock (`res.elapsed`) starts, such as task creation.
    let t0 = Instant::now();
    let res = try_run_join(&a, &b, &cfg, &ctl);
    let wall = t0.elapsed();
    let res = match res {
        Ok(res) => res,
        Err(NativeError::Storage(je)) => {
            if let Some(plan) = &fault {
                eprintln!("injected faults:    {}", plan.summary());
            }
            return Err(format!(
                "join aborted by storage failure ({} tasks failed): {}",
                je.failed_tasks, je.error
            ));
        }
        Err(NativeError::Cancelled) => unreachable!("no cancel token installed"),
        Err(e @ NativeError::WorkerPanic { .. }) => return Err(e.to_string()),
    };
    println!("threads:            {threads}");
    println!("tasks:              {}", res.tasks);
    println!("morsels:            {}", res.morsels);
    println!("node pairs:         {}", res.node_pairs);
    println!("filter candidates:  {}", res.candidates);
    println!(
        "{} {}",
        if cfg.refine {
            "exact results:     "
        } else {
            "candidate results: "
        },
        res.pairs.len()
    );
    if let Some(stats) = &res.buffer {
        println!(
            "page cache (global):  {} requests, {:.1}% hit ({} local / {} remote / \
             {} in-flight), {} misses, {} evictions",
            stats.requests(),
            100.0 * stats.hit_ratio(),
            stats.hits_local,
            stats.hits_remote,
            stats.hits_in_flight,
            stats.misses,
            stats.evictions
        );
    }
    if let Some(plan) = &fault {
        println!("injected faults:    {}", plan.summary());
        let retries: u64 = res.task_traces.iter().map(|t| t.retries).sum();
        println!("page retries:       {retries}");
    }
    if !res.task_traces.is_empty() {
        println!("task segments:      {}", res.task_traces.len());
        if args.flag("tasks") {
            println!(
                "  {:<6} {:<6} {:<5} {:>10} {:>10} {:>7} {:>7} {:>7} {:>7} {:>7}  wall",
                "morsel",
                "worker",
                "tasks",
                "node-prs",
                "cands",
                "pages",
                "hit-l",
                "hit-r",
                "miss",
                "retry"
            );
            let mut by_morsel = res.task_traces.clone();
            by_morsel.sort_by_key(|t| t.morsel);
            for t in &by_morsel {
                println!(
                    "  {:<6} {:<6} {:<5} {:>10} {:>10} {:>7} {:>7} {:>7} {:>7} {:>7}  {:.3?}",
                    t.morsel,
                    t.worker,
                    t.tasks,
                    t.node_pairs,
                    t.candidates,
                    t.pages,
                    t.hits_local,
                    t.hits_remote,
                    t.misses,
                    t.retries,
                    t.wall
                );
            }
        }
    }
    if let Some(sink) = &trace {
        let path = args.get("trace").expect("sink exists only with --trace");
        let lines = sink.write_to_file(Path::new(path)).map_err(io_err)?;
        println!(
            "trace:              {lines} events -> {path} ({} dropped)",
            sink.dropped()
        );
    }
    println!("load time:          {load_time:.3?} (both trees)");
    println!("wall time:          {wall:.3?}");
    Ok(())
}

/// Loads `--tree1` and `--tree2` on two threads, since they share
/// nothing, and times the pair.
fn load_pair(args: &Args) -> Result<(PagedTree, PagedTree, Duration), String> {
    let (path_a, path_b) = (args.require("tree1")?, args.require("tree2")?);
    let t0 = Instant::now();
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| PagedTree::load_from(Path::new(path_a)));
        let b = s.spawn(|| PagedTree::load_from(Path::new(path_b)));
        let joined = |h: std::thread::ScopedJoinHandle<'_, _>| {
            h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
        };
        (joined(a), joined(b))
    });
    let load_time = t0.elapsed();
    Ok((a.map_err(io_err)?, b.map_err(io_err)?, load_time))
}

/// `psj fsck` — verify an index file and print a JSON integrity report.
pub fn fsck(args: &Args) -> CmdResult {
    let path = args.require("tree")?;
    let report = fsck_file(Path::new(path));
    println!("{}", report.to_json());
    if report.ok() {
        Ok(())
    } else {
        Err(format!("{path}: integrity check failed"))
    }
}

/// `psj serve` — run the query service until a client sends Shutdown.
pub fn serve(args: &Args) -> CmdResult {
    let tree_list = args.require("trees")?;
    let lenient = args.flag("lenient");
    let mut trees = Vec::new();
    for path in tree_list.split(',').filter(|s| !s.is_empty()) {
        let t = if lenient {
            let l = PagedTree::load_from_lenient(Path::new(path)).map_err(io_err)?;
            if !l.corrupt_pages.is_empty() {
                println!(
                    "loaded {path} LENIENT: {} corrupt pages poisoned \
                     (queries touching them return storage errors)",
                    l.corrupt_pages.len()
                );
            }
            l.tree
        } else {
            PagedTree::load_from(Path::new(path)).map_err(io_err)?
        };
        println!(
            "loaded {path}: {} objects, {} pages, height {}",
            t.len(),
            t.num_pages(),
            t.height()
        );
        trees.push(Arc::new(t));
    }
    let cfg = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: args.parse_or(
            "workers",
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
        )?,
        queue_bound: args.parse_or("queue-bound", 256)?,
        fault: match args.get("inject-faults") {
            Some(spec) => Some(Arc::new(FaultPlan::parse(spec)?)),
            None => None,
        },
        retry: RetryPolicy::attempts(args.parse_or("retry-attempts", 3)?),
        trace: args.get("trace").map(|_| TraceSink::new(1 << 22)),
        shard_id: args.parse_or("shard-id", 0u16)?,
        ..ServeConfig::default()
    };
    let trace = cfg.trace.clone();
    let server = Server::start(cfg, trees).map_err(io_err)?;
    println!(
        "serving on {} (send a Shutdown request to stop)",
        server.local_addr()
    );
    let stats = server.wait();
    println!("--- server report ---\n{stats}");
    if let Some(sink) = &trace {
        let path = args.get("trace").expect("sink exists only with --trace");
        let lines = sink.write_to_file(Path::new(path)).map_err(io_err)?;
        println!(
            "trace: {lines} events -> {path} ({} dropped)",
            sink.dropped()
        );
    }
    Ok(())
}

/// `psj metrics` — scrape the Prometheus text exposition from a running
/// server and print it. The counters are the same atomics the `--stats`
/// report reads, so the two views always agree.
pub fn metrics(args: &Args) -> CmdResult {
    let addr_str = args.require("addr")?;
    let addr: std::net::SocketAddr = addr_str
        .parse()
        .map_err(|_| format!("invalid address: {addr_str}"))?;
    let mut client =
        Client::connect_timeout(&addr, std::time::Duration::from_secs(30)).map_err(io_err)?;
    let text = client.metrics().map_err(client_err)?;
    print!("{text}");
    Ok(())
}

/// `psj trace-check` — validate a JSONL trace file written by
/// `join --trace` or `serve --trace`: every line must parse as a Chrome
/// trace event and span begin/end pairs must balance on every thread row.
/// Exits nonzero on a malformed trace.
pub fn trace_check(args: &Args) -> CmdResult {
    let path = args.require("file")?;
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let summary =
        psj_obs::validate_jsonl(&text).map_err(|e| format!("{path}: invalid trace: {e}"))?;
    println!(
        "{path}: ok — {} lines ({} spans, {} instants, {} metadata)",
        summary.lines, summary.spans, summary.instants, summary.meta
    );
    if summary.spans == 0 {
        return Err(format!("{path}: trace contains no spans"));
    }
    Ok(())
}

/// One comma-separated list of exactly `N` floats.
fn parse_floats<const N: usize>(key: &str, value: &str) -> Result<[f64; N], String> {
    let parts: Vec<f64> = value
        .split(',')
        .map(|s| s.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("invalid --{key}: {value} (expected {N} comma-separated numbers)"))?;
    parts
        .try_into()
        .map_err(|_| format!("invalid --{key}: {value} (expected {N} comma-separated numbers)"))
}

/// Maps a non-payload server response to the CLI error string.
fn describe_response(r: Response) -> String {
    match r {
        Response::Storage { kind, msg } => format!("storage error ({kind}): {msg}"),
        Response::Overloaded => "server overloaded".into(),
        Response::DeadlineExceeded => "deadline exceeded".into(),
        Response::Error(msg) => format!("server error: {msg}"),
        other => format!("unexpected response: {other:?}"),
    }
}

fn client_err(e: ClientError) -> String {
    match e {
        ClientError::Unexpected(r) => describe_response(*r),
        ClientError::Io(e) => format!("transport error: {e}"),
    }
}

/// Peels one `Partial` wrapper off a query reply error: a router degrades
/// to `Partial { missing_shards, inner }` when shards are down, and `psj
/// query` should print the surviving payload under a `partial` banner
/// rather than exit nonzero.
fn split_partial(e: ClientError) -> Result<(Vec<u16>, Response), String> {
    match e {
        ClientError::Unexpected(r) => match *r {
            Response::Partial {
                missing_shards,
                inner,
            } => Ok((missing_shards, *inner)),
            other => Err(describe_response(other)),
        },
        other => Err(client_err(other)),
    }
}

fn partial_banner(missing: &[u16]) {
    let ids: Vec<String> = missing.iter().map(u16::to_string).collect();
    println!("partial (missing shards: {})", ids.join(","));
}

/// `psj query` — one-shot client: issue a single query (or stats/shutdown)
/// against a running server. Exits nonzero on any non-payload reply, with
/// storage errors reported as `storage error (corrupt|unavailable): ...`.
pub fn query(args: &Args) -> CmdResult {
    let addr_str = args.require("addr")?;
    let addr: std::net::SocketAddr = addr_str
        .parse()
        .map_err(|_| format!("invalid address: {addr_str}"))?;
    let mut client =
        Client::connect_timeout(&addr, std::time::Duration::from_secs(30)).map_err(io_err)?;
    if args.flag("shutdown") {
        client.shutdown().map_err(client_err)?;
        println!("server acknowledged shutdown");
        return Ok(());
    }
    if args.flag("stats") {
        let stats = client.stats().map_err(client_err)?;
        println!("{stats}");
        return Ok(());
    }
    let tree: u16 = args.parse_or("tree", 0u16)?;
    let deadline_ms: u32 = args.parse_or("deadline-ms", 0u32)?;
    if let Some(w) = args.get("window") {
        let [xl, yl, xu, yu] = parse_floats::<4>("window", w)?;
        let oids = match client.window(tree, psj_geom::Rect::new(xl, yl, xu, yu), deadline_ms) {
            Ok(oids) => oids,
            Err(e) => match split_partial(e)? {
                (missing, Response::Entries(oids)) => {
                    partial_banner(&missing);
                    oids
                }
                (_, other) => return Err(describe_response(other)),
            },
        };
        println!("{} entries", oids.len());
        for oid in oids {
            println!("{oid}");
        }
    } else if let Some(p) = args.get("nearest") {
        let [x, y] = parse_floats::<2>("nearest", p)?;
        let k: u32 = args.parse_or("k", 10u32)?;
        let nn = match client.nearest(tree, x, y, k, deadline_ms) {
            Ok(nn) => nn,
            Err(e) => match split_partial(e)? {
                (missing, Response::Neighbors(nn)) => {
                    partial_banner(&missing);
                    nn
                }
                (_, other) => return Err(describe_response(other)),
            },
        };
        println!("{} neighbors", nn.len());
        for (dist, oid) in nn {
            println!("{oid}\t{dist}");
        }
    } else if let Some(other) = args.get("join-with") {
        let other: u16 = other
            .parse()
            .map_err(|_| format!("invalid --join-with: {other}"))?;
        let pairs = match client.join(tree, other, true, deadline_ms) {
            Ok(pairs) => pairs,
            Err(e) => match split_partial(e)? {
                (missing, Response::Pairs(pairs)) => {
                    partial_banner(&missing);
                    pairs
                }
                (_, other) => return Err(describe_response(other)),
            },
        };
        println!("{} pairs", pairs.len());
    } else {
        return Err(
            "query needs one of --window, --nearest, --join-with, --stats, --shutdown".into(),
        );
    }
    Ok(())
}

/// `psj bench-serve` — closed-loop load generator against a running server.
pub fn bench_serve(args: &Args) -> CmdResult {
    let addr_str = args.require("addr")?;
    let addr: std::net::SocketAddr = addr_str
        .parse()
        .map_err(|_| format!("invalid address: {addr_str}"))?;
    let cfg = LoadConfig {
        addr,
        clients: args.parse_or("clients", 4)?,
        requests_per_client: args.parse_or("requests", 250)?,
        seed: args.parse_or("seed", 42)?,
        window_frac: args.parse_or("window-frac", 0.7)?,
        nearest_frac: args.parse_or("nearest-frac", 0.3)?,
        deadline_ms: args.parse_or("deadline-ms", 0)?,
        k: args.parse_or("k", 10)?,
        window_extent: args.parse_or("window-extent", 0.05)?,
        reconnect: args.flag("reconnect"),
    };
    if cfg.window_frac < 0.0 || cfg.nearest_frac < 0.0 || cfg.window_frac + cfg.nearest_frac > 1.0 {
        return Err("window-frac and nearest-frac must be non-negative and sum to <= 1".into());
    }
    let report = loadgen::run(&cfg).map_err(io_err)?;
    println!(
        "{} offered, {} completed ({} partial), {} shed, {} timed out, {} storage errors, {} errors in {:.3} s",
        report.offered,
        report.completed,
        report.partials,
        report.shed,
        report.timeouts,
        report.storage,
        report.errors,
        report.elapsed_s
    );
    println!(
        "throughput: {:.1} req/s; client latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        report.throughput_rps, report.p50_ms, report.p95_ms, report.p99_ms
    );
    if let Some(s) = &report.server {
        println!("--- server stats ---\n{s}");
    }
    if let Some(out) = args.get("out") {
        if let Some(dir) = Path::new(out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(io_err)?;
            }
        }
        std::fs::write(out, report.to_json(&cfg)).map_err(io_err)?;
        println!("wrote {out}");
    }
    if args.flag("shutdown") {
        let mut c = psj_serve::Client::connect(addr).map_err(io_err)?;
        c.shutdown().map_err(|e| e.to_string())?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

/// `psj simulate` — run the KSR1-style simulated platform.
pub fn simulate(args: &Args) -> CmdResult {
    let (a, b, _) = load_pair(args)?;
    let procs = args.count_or("procs", 8)?;
    let disks = args.count_or("disks", procs)?;
    let buffer: usize = args.parse_or("buffer", 100 * procs)?;
    let variant = args.get("variant").unwrap_or("best");
    let cfg = match variant {
        "lsr" => SimConfig::lsr(procs, disks, buffer),
        "gsrr" => SimConfig::gsrr(procs, disks, buffer),
        "gd" => SimConfig::gd(procs, disks, buffer),
        "best" => SimConfig::best(procs, disks, buffer),
        other => return Err(format!("unknown variant: {other} (use lsr|gsrr|gd|best)")),
    };
    let m = run_sim_join(&a, &b, &cfg).metrics;
    println!("variant:            {variant}");
    println!("processors/disks:   {}/{}", m.num_procs, m.num_disks);
    println!("tasks:              {}", m.tasks);
    println!("response time:      {:.1} s", m.response_secs());
    println!(
        "proc finish:        min {:.1} / avg {:.1} / max {:.1} s",
        m.min_finish_secs(),
        m.avg_finish_secs(),
        m.max_finish_secs()
    );
    println!("disk accesses:      {}", m.disk_accesses);
    println!("  directory pages:  {}", m.dir_page_reads);
    println!("  data pages:       {}", m.data_page_reads);
    println!("buffer hit ratio:   {:.1} %", m.buffer.hit_ratio() * 100.0);
    println!("path buffer hits:   {}", m.buffer.hits_path);
    println!("candidates:         {}", m.candidates);
    println!("reassignments:      {}", m.reassignments);
    println!("total busy time:    {:.1} s", m.total_busy_secs());
    Ok(())
}
