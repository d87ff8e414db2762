//! `psj` — command-line driver for the parallel spatial join library.
//!
//! ```text
//! psj generate --scale 0.1 --seed 1996 --out1 map1.psjm --out2 map2.psjm
//! psj build    --map map1.psjm --out tree1.psjt [--attrs 1365] [--str]
//! psj stats    --tree tree1.psjt
//! psj fsck     tree1.psjt
//! psj join     --tree1 tree1.psjt --tree2 tree2.psjt [--threads 8] [--no-refine]
//!              [--inject-faults seed=42,flip=0.01] [--retry-attempts 4]
//!              [--trace join.jsonl] [--tasks]
//! psj simulate --tree1 tree1.psjt --tree2 tree2.psjt [--procs 8] [--disks 8]
//!              [--buffer 800] [--variant lsr|gsrr|gd|best]
//! psj serve    --trees tree1.psjt,tree2.psjt [--addr 127.0.0.1:7878]
//!              [--workers 4] [--queue-bound 256] [--shard-id 0]
//! psj shard-plan --map1 map1.psjm --map2 map2.psjm --shards 3 --out cluster/
//!              [--host 127.0.0.1] [--base-port 7001]
//! psj cluster-serve --topology cluster/topology.txt [--addr 127.0.0.1:7900]
//! psj bench-cluster [--scale 0.05] [--seed 1996] [--clients 2]
//!              [--requests 150] [--out results/cluster_baseline.json]
//! psj query    --addr 127.0.0.1:7878 --tree 0 --window 0,0,10,10
//! psj metrics  --addr 127.0.0.1:7878
//! psj trace-check join.jsonl
//! psj bench-serve --addr 127.0.0.1:7878 [--clients 4] [--requests 250]
//!              [--out results/serve_baseline.json] [--shutdown]
//! psj bench-join [--scale 0.25] [--seed 1996] [--reps 7] [--quick]
//!              [--out BENCH_join.json]
//! psj bench-check --baseline BENCH_join.json --candidate /tmp/bench.json
//!              [--tolerance 0.25]
//! ```
//!
//! Options are accepted as `--key value` or `--key=value`; stray
//! positional tokens are an error.

mod args;
mod cluster;
mod commands;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{}", commands::USAGE);
        std::process::exit(2);
    }
    let cmd = argv.remove(0);
    // `psj fsck <index>` / `psj trace-check <trace>` are the natural
    // spellings; rewrite the bare path to the option the parser expects
    // (it rejects stray positionals).
    if cmd == "fsck" && argv.len() == 1 && !argv[0].starts_with("--") {
        argv[0] = format!("--tree={}", argv[0]);
    }
    if cmd == "trace-check" && argv.len() == 1 && !argv[0].starts_with("--") {
        argv[0] = format!("--file={}", argv[0]);
    }
    let parsed = match args::Args::parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(&parsed),
        "build" => commands::build(&parsed),
        "stats" => commands::stats(&parsed),
        "join" => commands::join(&parsed),
        "fsck" => commands::fsck(&parsed),
        "simulate" => commands::simulate(&parsed),
        "serve" => commands::serve(&parsed),
        "shard-plan" => cluster::shard_plan(&parsed),
        "cluster-serve" => cluster::cluster_serve(&parsed),
        "bench-cluster" => cluster::bench_cluster(&parsed),
        "query" => commands::query(&parsed),
        "metrics" => commands::metrics(&parsed),
        "trace-check" => commands::trace_check(&parsed),
        "bench-serve" => commands::bench_serve(&parsed),
        "bench-join" => commands::bench_join(&parsed),
        "bench-check" => commands::bench_check(&parsed),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => {
            eprintln!("unknown command: {other}\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
