//! The `psj` binary rejects bad command lines with a clean exit code: a
//! zero count is a usage error of its command (exit 1), and an unknown
//! command, an undeclared option or a value-less option is a parse error
//! (exit 2). None of them may reach a panic, and a tree file of an earlier
//! format is refused with its version named. The grid engine's success
//! path agrees with the R-tree engine's on the same trees, and a faulted
//! join reads no cache it was not asked for.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn psj(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_psj"))
        .args(args)
        .output()
        .expect("run psj")
}

fn run_ok(args: &[&str]) {
    let out = psj(args);
    assert!(
        out.status.success(),
        "psj {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A tiny generated pair of trees, built once per test binary.
fn trees() -> &'static (String, String) {
    static TREES: OnceLock<(String, String)> = OnceLock::new();
    TREES.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("cli_args_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let path = |name: &str| dir.join(name).display().to_string();
        let (m1, m2, t1, t2) = (
            path("m1.psjm"),
            path("m2.psjm"),
            path("t1.psjt"),
            path("t2.psjt"),
        );
        run_ok(&[
            "generate", "--scale", "0.01", "--seed", "7", "--out1", &m1, "--out2", &m2,
        ]);
        run_ok(&["build", "--map", &m1, "--out", &t1]);
        run_ok(&["build", "--map", &m2, "--out", &t2]);
        (t1, t2)
    })
}

/// Runs `psj <cmd> --tree1 <t1> --tree2 <t2> <extra...>`.
fn on_trees(cmd: &str, extra: &[&str]) -> Output {
    let (t1, t2) = trees();
    let mut args = vec![cmd, "--tree1", t1, "--tree2", t2];
    args.extend_from_slice(extra);
    psj(&args)
}

fn assert_exit(out: &Output, code: i32, stderr_has: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains(stderr_has), "stderr: {stderr}");
}

#[test]
fn zero_threads_is_an_error_not_a_panic() {
    let out = on_trees("join", &["--threads", "0"]);
    assert_exit(&out, 1, "error: invalid value for --threads: 0");
}

#[test]
fn zero_procs_is_an_error_not_a_panic() {
    let out = on_trees("simulate", &["--procs", "0"]);
    assert_exit(&out, 1, "error: invalid value for --procs: 0");
}

#[test]
fn zero_disks_is_an_error_not_a_panic() {
    let out = on_trees("simulate", &["--disks", "0"]);
    assert_exit(&out, 1, "error: invalid value for --disks: 0");
}

#[test]
fn misspelled_option_is_a_usage_error() {
    let out = on_trees("join", &["--thread", "1"]);
    assert_exit(&out, 2, "unknown option: --thread");
}

#[test]
fn option_without_value_is_a_usage_error() {
    let out = on_trees("join", &["--no-refine", "--threads"]);
    assert_exit(&out, 2, "option --threads needs a value");
}

#[test]
fn removed_bench_join_is_an_unknown_command() {
    let out = psj(&["bench-join", "--quick"]);
    assert_exit(&out, 2, "unknown command: bench-join");
}

/// There is no scheduler knob: morsels are handed out by one shared
/// cursor, so a steal policy or morsel budget would change nothing and is
/// refused rather than silently ignored.
#[test]
fn removed_scheduler_flags_are_usage_errors() {
    for (flag, value) in [
        ("--steal", "rr"),
        ("--steal-seed", "9"),
        ("--morsel-cands", "64"),
    ] {
        let out = on_trees("join", &["--threads=2", flag, value]);
        assert_exit(&out, 2, &format!("unknown option: {flag}"));
    }
    for flag in ["--join-steal", "--join-steal-seed", "--join-morsel-cands"] {
        let out = psj(&["serve", "--trees", "t.psjt", flag, "1"]);
        assert_exit(&out, 2, &format!("unknown option: {flag}"));
    }
}

#[test]
fn removed_engine_value_is_an_error() {
    let out = on_trees("join", &["--threads=2", "--engine", "auto"]);
    assert_exit(
        &out,
        1,
        "error: unknown --engine: auto (use rtree|partition)",
    );
}

/// A buffered join reads through one cache shared by all threads: the
/// private per-thread caches are gone, and so is the option that picked
/// them, whatever its value.
#[test]
fn removed_cache_org_is_an_unknown_option() {
    for value in ["local", "global"] {
        let out = on_trees(
            "join",
            &["--threads=2", "--cache", "8", "--cache-org", value],
        );
        assert_exit(&out, 2, "unknown option: --cache-org");
    }
}

/// A server reads its trees' arenas in place: there is no page cache to
/// size or shard, and its joins always run on the R-tree engine, so these
/// options are refused rather than ignored.
#[test]
fn removed_serve_cache_options_are_unknown_options() {
    for flag in ["--cache", "--cache-shards", "--join-engine"] {
        let out = psj(&["serve", "--trees", "t.psjt", flag, "1024"]);
        assert_exit(&out, 2, &format!("unknown option: {flag}"));
    }
}

#[test]
fn partition_engine_rejects_cache_and_fault_options() {
    for (flag, value) in [
        ("--cache", "8"),
        ("--cache-shards", "2"),
        ("--inject-faults", "flip=1.0,seed=3"),
        ("--retry-attempts", "2"),
    ] {
        let out = on_trees("join", &["--engine", "partition", flag, value]);
        assert_exit(
            &out,
            1,
            &format!("error: --engine partition runs in memory and takes no {flag}"),
        );
    }
    let out = on_trees(
        "join",
        &[
            "--engine",
            "partition",
            "--cache",
            "8",
            "--inject-faults",
            "flip=1.0,seed=3",
        ],
    );
    assert_exit(&out, 1, "takes no --cache, --inject-faults");
}

#[test]
fn declared_options_still_run() {
    let out = on_trees("join", &["--threads=2", "--no-refine", "--engine", "rtree"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("threads:            2"));
    // The join explains its own process time: loading both trees, then
    // the join itself, as the last two lines.
    let tail: Vec<&str> = stdout.lines().rev().take(2).collect();
    assert!(tail[0].starts_with("wall time:          "), "{stdout}");
    assert!(
        tail[1].starts_with("load time:          ") && tail[1].ends_with(" (both trees)"),
        "{stdout}"
    );
}

#[test]
fn partition_engine_joins_like_the_rtree_engine() {
    // The lines both engines must agree on: the filter's candidates and
    // the result count (exact, or the candidates without refinement).
    let agreed = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| {
                ["filter candidates:", "exact results:", "candidate results:"]
                    .iter()
                    .any(|p| l.starts_with(p))
            })
            .map(str::to_owned)
            .collect()
    };
    for refine in [&[][..], &["--no-refine"][..]] {
        let run = |engine: &str| {
            let mut extra = vec!["--threads", "2", "--engine", engine];
            extra.extend_from_slice(refine);
            let out = on_trees("join", &extra);
            assert!(
                out.status.success(),
                "{engine} {refine:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let (grid, rtree) = (run("partition"), run("rtree"));
        assert!(grid.contains("engine:             partition"), "{grid}");
        assert!(
            grid.lines().any(|l| l.starts_with("grid replication:")),
            "{grid}"
        );
        let lines = agreed(&grid);
        assert_eq!(lines.len(), 2, "{grid}");
        assert_eq!(lines, agreed(&rtree), "{refine:?}\n{grid}\n{rtree}");
    }
}

/// A fault plan runs on the join's node reads and builds no cache: a
/// transient-only plan leaves the result count alone, its retries are
/// printed, and no page-cache line appears without `--cache`.
#[test]
fn faulted_join_without_a_cache_prints_retries_and_no_cache_line() {
    let run = |extra: &[&str]| {
        let mut args = vec!["--threads", "2", "--no-refine"];
        args.extend_from_slice(extra);
        let out = on_trees("join", &args);
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let count = |stdout: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with("candidate results:"))
            .map(str::to_owned)
    };
    let clean = run(&[]);
    let faulted = run(&["--inject-faults", "seed=42,transient=0.05,burst=1"]);
    assert!(count(&clean).is_some(), "{clean}");
    assert_eq!(count(&faulted), count(&clean), "{faulted}");
    assert!(
        faulted.lines().any(|l| l.starts_with("page retries:")),
        "{faulted}"
    );
    assert!(!faulted.contains("page cache"), "{faulted}");
}

#[test]
fn tree_of_an_earlier_format_names_its_version() {
    let (t1, _) = trees();
    let old = format!("{t1}.psjt2");
    let mut bytes = std::fs::read(t1).expect("read tree");
    bytes[..6].copy_from_slice(b"PSJT2\n");
    std::fs::write(&old, &bytes).expect("write old-format tree");
    let out = psj(&["stats", "--tree", &old]);
    assert_exit(&out, 1, "PSJT2 tree file");
    assert_exit(&out, 1, "rebuild the index with `psj build`");
}

#[test]
fn stats_prints_the_heap_after_table_1() {
    let (t1, _) = trees();
    let out = psj(&["stats", "--tree", t1]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("height"), "{stdout}");
    assert!(lines[5].starts_with("avg cluster size"), "{stdout}");
    let heap = lines[6];
    assert!(
        heap.starts_with("heap ") && heap.contains("arena + spans"),
        "{stdout}"
    );
    assert!(
        heap.contains("nodes") && heap.contains("geometry clusters"),
        "{stdout}"
    );
    // A loaded tree is its two arenas: no decoded node, and the geometry
    // arena's figure is exact, so the line is the loaded tree's own.
    assert!(heap.contains(", nodes 0.0 MB,"), "{stdout}");
    let loaded = psj_rtree::PagedTree::load_from(std::path::Path::new(t1)).expect("load");
    assert_eq!(loaded.heap_bytes().nodes, 0);
    assert_eq!(heap, loaded.heap_bytes().to_string(), "{stdout}");
}
