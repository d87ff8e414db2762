//! A minimal shard server process for cluster robustness tests.
//!
//! The tests need real OS processes they can SIGKILL and restart without
//! taking a dependency on the CLI crate's binary (Cargo only exposes
//! `CARGO_BIN_EXE_*` paths for binaries in the same package). This wraps
//! `psj_serve::Server` with just enough argument parsing to serve tree
//! files at an address, optionally with injected storage faults.
//!
//! ```text
//! shard_harness --addr 127.0.0.1:7001 --trees a.psjt,b.psjt --shard-id 1
//!               [--inject-faults seed=42,flip=1.0] [--lenient]
//! ```
//!
//! Prints `serving on <addr>` once the listener is bound, then blocks
//! until a Shutdown request (or a signal) arrives.

use psj_rtree::PagedTree;
use psj_serve::{ServeConfig, Server};
use psj_store::FaultPlan;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn die(msg: &str) -> ! {
    eprintln!("shard_harness: {msg}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut trees_arg = None;
    let mut shard_id: u16 = 0;
    let mut fault = None;
    let mut lenient = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--trees" => trees_arg = Some(value("--trees")),
            "--shard-id" => {
                shard_id = value("--shard-id")
                    .parse()
                    .unwrap_or_else(|_| die("bad --shard-id"))
            }
            "--inject-faults" => {
                let spec = value("--inject-faults");
                let plan = FaultPlan::parse(&spec).unwrap_or_else(|e| die(&e));
                fault = Some(Arc::new(plan));
            }
            "--lenient" => lenient = true,
            other => die(&format!("unknown argument: {other}")),
        }
    }
    let addr = addr.unwrap_or_else(|| die("--addr is required"));
    let trees_arg = trees_arg.unwrap_or_else(|| die("--trees is required"));

    let mut trees = Vec::new();
    for path in trees_arg.split(',').filter(|s| !s.is_empty()) {
        let t = if lenient {
            PagedTree::load_from_lenient(Path::new(path))
                .unwrap_or_else(|e| die(&format!("{path}: {e}")))
                .tree
        } else {
            PagedTree::load_from(Path::new(path)).unwrap_or_else(|e| die(&format!("{path}: {e}")))
        };
        trees.push(Arc::new(t));
    }

    let cfg = ServeConfig {
        addr,
        workers: 2,
        shard_id,
        fault,
        read_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, trees).unwrap_or_else(|e| die(&format!("bind: {e}")));
    println!("serving on {}", server.local_addr());
    server.wait();
}
