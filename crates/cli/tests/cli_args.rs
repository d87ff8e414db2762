//! The `psj` binary rejects bad command lines with a clean exit code: a
//! zero count is a usage error of its command (exit 1), and an unknown
//! command, an undeclared option or a value-less option is a parse error
//! (exit 2). None of them may reach a panic.

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

#[test]
fn declared_options_still_run() {
    let out = on_trees("join", &["--threads=2", "--no-refine", "--steal", "rr"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("threads:            2"));
}
