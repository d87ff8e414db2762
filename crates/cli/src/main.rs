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
//! psj query    --addr 127.0.0.1:7878 --tree 0 --window 0,0,10,10
//! psj metrics  --addr 127.0.0.1:7878
//! psj trace-check join.jsonl
//! psj bench-serve --addr 127.0.0.1:7878 [--clients 4] [--requests 250]
//!              [--out serve.json] [--shutdown]
//! ```
//!
//! Options are accepted as `--key value` or `--key=value`. Each subcommand
//! declares the options and flags it takes; any other key, an option with
//! no value, or a stray positional token is an error (exit 2).

mod args;
mod cluster;
mod commands;

use args::Args;

/// One subcommand: its handler and the options and flags it accepts.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<(), String>,
    opts: &'static [&'static str],
    flags: &'static [&'static str],
}

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        run: commands::generate,
        opts: &["scale", "seed", "out1", "out2"],
        flags: &[],
    },
    Command {
        name: "build",
        run: commands::build,
        opts: &["map", "out", "attrs"],
        flags: &["str", "hilbert"],
    },
    Command {
        name: "stats",
        run: commands::stats,
        opts: &["tree"],
        flags: &[],
    },
    Command {
        name: "join",
        run: commands::join,
        opts: &[
            "tree1",
            "tree2",
            "threads",
            "cache",
            "cache-shards",
            "inject-faults",
            "retry-attempts",
            "trace",
        ],
        flags: &["no-refine", "tasks"],
    },
    Command {
        name: "fsck",
        run: commands::fsck,
        opts: &["tree"],
        flags: &[],
    },
    Command {
        name: "simulate",
        run: commands::simulate,
        opts: &["tree1", "tree2", "procs", "disks", "buffer", "variant"],
        flags: &[],
    },
    Command {
        name: "serve",
        run: commands::serve,
        opts: &[
            "trees",
            "addr",
            "workers",
            "queue-bound",
            "inject-faults",
            "retry-attempts",
            "trace",
            "shard-id",
        ],
        flags: &["lenient"],
    },
    Command {
        name: "shard-plan",
        run: cluster::shard_plan,
        opts: &["map1", "map2", "shards", "out", "host", "base-port"],
        flags: &[],
    },
    Command {
        name: "cluster-serve",
        run: cluster::cluster_serve,
        opts: &["topology", "addr"],
        flags: &[],
    },
    Command {
        name: "query",
        run: commands::query,
        opts: &[
            "addr",
            "tree",
            "deadline-ms",
            "window",
            "nearest",
            "k",
            "join-with",
        ],
        flags: &["stats", "shutdown"],
    },
    Command {
        name: "metrics",
        run: commands::metrics,
        opts: &["addr"],
        flags: &[],
    },
    Command {
        name: "trace-check",
        run: commands::trace_check,
        opts: &["file"],
        flags: &[],
    },
    Command {
        name: "bench-serve",
        run: commands::bench_serve,
        opts: &[
            "addr",
            "clients",
            "requests",
            "seed",
            "window-frac",
            "nearest-frac",
            "deadline-ms",
            "k",
            "window-extent",
            "out",
        ],
        flags: &["reconnect", "shutdown"],
    },
];

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}\n{}", commands::USAGE);
    std::process::exit(2);
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{}", commands::USAGE);
        std::process::exit(2);
    }
    let cmd = argv.remove(0);
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", commands::USAGE);
        return;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
        usage_exit(&format!("unknown command: {cmd}"));
    };
    // `psj fsck <index>` / `psj trace-check <trace>` are the natural
    // spellings; rewrite the bare path to the option the parser expects
    // (it rejects stray positionals).
    if argv.len() == 1 && !argv[0].starts_with("--") {
        match cmd.as_str() {
            "fsck" => argv[0] = format!("--tree={}", argv[0]),
            "trace-check" => argv[0] = format!("--file={}", argv[0]),
            _ => {}
        }
    }
    let parsed = Args::parse(&argv, command.opts, command.flags)
        .unwrap_or_else(|e| usage_exit(&format!("error: {e}")));
    if let Err(e) = (command.run)(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
