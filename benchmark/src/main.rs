//! `psj-benchmark` — the repo benchmark. See `benchmark/README.md`.
//!
//! Four workloads through the crates' public functions, in one process,
//! with `T = min(nproc, 4)` worker threads. Every timing metric goes
//! through the block-quartile estimator of [`estimator`].

mod estimator;
mod fixtures;
mod host;
mod joins;
mod layers;
mod repeat;
mod report;
mod schedule;
mod serve;
mod spans;

use report::Outcome;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in the order `run.sh` prints them.
pub const WORKLOADS: [&str; 4] = ["join_mem", "join_ooc", "join_grid", "serve_mix"];

/// Untimed warm-up before every timed phase.
pub const WARM_UP: Duration = Duration::from_secs(3);

/// Repetitions of the set-up step; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What every workload needs to know about this run.
pub struct Ctx {
    /// The benchmark's directory (holds `fixtures/` and `out/`).
    pub root: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Nominal length of the timed phase, seconds.
    pub seconds: u64,
    /// Worker threads, `min(nproc, 4)`.
    pub threads: usize,
}

/// Runs the set-up step [`SETUP_REPS`] times, each product dropped before
/// the next is made, and returns the median time with the last product.
pub fn median_setup<S>(mut step: impl FnMut() -> io::Result<S>) -> io::Result<(f64, S)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(step()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        estimator::quantile(&times, 0.5),
        kept.expect("at least one repetition"),
    ))
}

const USAGE: &str = "usage: psj-benchmark --dir <benchmark dir> \
    (--workload <join_mem|join_ooc|join_grid|serve_mix> [--seed N] [--seconds N] [--trace 0|1] \
    | --make-fixtures [--seed N] | --repeat [--seconds N])";

struct Args {
    dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    make_fixtures: bool,
    repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: PathBuf::from("benchmark"),
        workload: None,
        seed: 1996,
        seconds: 20,
        trace: false,
        make_fixtures: false,
        repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--dir" => args.dir = PathBuf::from(value("a directory")?),
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => args.seed = parse(&value("a number")?)?,
            "--seconds" => args.seconds = parse(&value("a number")?)?,
            "--trace" => args.trace = parse(&value("0 or 1")?)? != 0,
            "--make-fixtures" => args.make_fixtures = true,
            "--repeat" => args.repeat = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn parse(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a whole number: {s}"))
}

fn run_workload(ctx: &Ctx, name: &str, trace: bool) -> io::Result<Outcome> {
    // `None` is `serve_mix`, the one workload that is not a join.
    let join = match name {
        "join_mem" => Some(joins::Kind::Mem),
        "join_ooc" => Some(joins::Kind::Ooc),
        "join_grid" => Some(joins::Kind::Grid),
        "serve_mix" => None,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload {other}\n{USAGE}"),
            ))
        }
    };
    match (trace, join) {
        (true, _) => layers::run(ctx, name, join),
        (false, Some(kind)) => joins::run(ctx, kind),
        (false, None) => serve::run(ctx),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        root: args.dir,
        seed: args.seed,
        seconds: args.seconds,
        threads: host::threads(),
    };
    let done = if args.make_fixtures {
        fixtures::make(&ctx.root, ctx.seed).map(|dir| {
            eprintln!("fixture: {}", dir.display());
            true
        })
    } else if args.repeat {
        repeat::run(&ctx)
    } else if let Some(name) = &args.workload {
        run_workload(&ctx, name, args.trace).map(|outcome| {
            println!("{}", outcome.to_json());
            outcome.correct()
        })
    } else {
        Err(io::Error::new(io::ErrorKind::InvalidInput, USAGE))
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("psj-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
