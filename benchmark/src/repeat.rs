//! `--repeat`: the A/A self-check. The benchmark's first duty is to give
//! the same number twice, so it measures whether it does.
//!
//! Two sets of fresh-process runs at one seed and one set at the next seed,
//! every workload, every end-to-end metric: median, quartiles, spread and
//! range per set, against the metric's bound. The check fails when the two
//! same-seed medians differ by more than the bound, or when the distance
//! between a set's quartiles exceeds it — the two rules a later change is
//! judged by. A range above [`WIDE_RANGE`] is marked, not failed: it tells
//! a whole run fell inside a busy episode of the host.

use crate::estimator::quantile;
use crate::report::END_TO_END;
use crate::{fixtures, Ctx, WORKLOADS};
use psj_obs::json;
use std::collections::HashMap;
use std::io;
use std::process::Command;

/// Fresh-process runs per set.
const RUNS: usize = 5;

/// (max − min) ÷ median above which a set is marked as disturbed.
const WIDE_RANGE: f64 = 0.10;

/// One fresh-process end-to-end run; returns its metrics in
/// [`END_TO_END`] order.
fn run_once(ctx: &Ctx, workload: &str, seed: u64) -> io::Result<Vec<f64>> {
    let out = Command::new(std::env::current_exe()?)
        .arg("--dir")
        .arg(&ctx.root)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let bad = |what: &str| io::Error::other(format!("{workload} seed {seed}: {what}: {stdout}"));
    if !out.status.success() {
        return Err(bad("run failed"));
    }
    let line = stdout.lines().last().ok_or_else(|| bad("no output"))?;
    let value = json::parse(line).map_err(|e| bad(&e))?;
    END_TO_END
        .iter()
        .map(|(name, ..)| value.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(|| bad("a metric is missing"))
}

struct SetStats {
    median: f64,
    q1: f64,
    q3: f64,
    range: f64,
}

impl SetStats {
    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Quartile `i` of 4 of sorted values by the exclusive method, the one
/// Python's `statistics.quantiles(values, n=4)` uses.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    let j = (i * (len + 1) / 4).clamp(1, len - 1);
    let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

fn stats(values: &[f64]) -> SetStats {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = quantile(&sorted, 0.5);
    SetStats {
        median,
        q1: quartile(&sorted, 1),
        q3: quartile(&sorted, 3),
        range: (sorted[sorted.len() - 1] - sorted[0]) / median,
    }
}

/// Runs the self-check and prints its report as markdown. Returns whether
/// the benchmark repeated within its own bounds.
pub fn run(ctx: &Ctx) -> io::Result<bool> {
    let sets = [("A", ctx.seed), ("B", ctx.seed), ("C", ctx.seed + 1)];
    fixtures::make(&ctx.root, ctx.seed)?;
    fixtures::make(&ctx.root, ctx.seed + 1)?;

    // (set, workload, metric) → one value per run.
    let mut results: HashMap<(usize, &str, &str), Vec<f64>> = HashMap::new();
    for (s, (set, seed)) in sets.iter().enumerate() {
        for workload in WORKLOADS {
            for run in 0..RUNS {
                eprintln!("set {set} (seed {seed}) {workload} run {}/{RUNS}", run + 1);
                let values = run_once(ctx, workload, *seed)?;
                for ((name, ..), v) in END_TO_END.iter().zip(values) {
                    results.entry((s, workload, name)).or_default().push(v);
                }
            }
        }
    }

    println!("# Repeatability of the benchmark (`psj-benchmark --repeat`)\n");
    println!(
        "Sets A and B: {RUNS} fresh-process runs each at seed {}; set C: {RUNS} runs at seed {}. \
         `--seconds {}`, {} worker threads on {} cores. Per set: median [lower quartile, upper \
         quartile], spread = (upper − lower quartile) ÷ median, range = (max − min) ÷ median. \
         `B vs A` is the difference of the two same-seed medians. A metric fails when a spread \
         or `B vs A` exceeds its bound; a range above {:.0} % is marked `!`: a whole run fell \
         inside a busy episode of the host.\n",
        ctx.seed,
        ctx.seed + 1,
        ctx.seconds,
        ctx.threads,
        crate::host::nproc(),
        100.0 * WIDE_RANGE
    );
    let mut pass = true;
    for workload in WORKLOADS {
        println!("## {workload}\n");
        println!("| metric | bound | set A | set B | set C | B vs A | verdict |");
        println!("|---|---|---|---|---|---|---|");
        for (name, unit, _, bound) in END_TO_END {
            let per_set: Vec<SetStats> = (0..sets.len())
                .map(|s| stats(&results[&(s, workload, name)]))
                .collect();
            let drift = (per_set[1].median - per_set[0].median).abs() / per_set[0].median;
            let ok = drift <= bound && per_set.iter().all(|s| s.spread() <= bound);
            pass &= ok;
            let cell = |s: &SetStats| {
                format!(
                    "{:.4} [{:.4}, {:.4}] spread {:.1} % range {:.1} %{}",
                    s.median,
                    s.q1,
                    s.q3,
                    100.0 * s.spread(),
                    100.0 * s.range,
                    if s.range > WIDE_RANGE { " !" } else { "" }
                )
            };
            println!(
                "| `{name}` ({unit}) | {:.0} % | {} | {} | {} | {:.1} % | {} |",
                100.0 * bound,
                cell(&per_set[0]),
                cell(&per_set[1]),
                cell(&per_set[2]),
                100.0 * drift,
                if ok { "ok" } else { "**FAIL**" }
            );
        }
        println!();
    }
    println!(
        "Result: {}",
        if pass {
            "every metric repeated within its bound on both rules."
        } else {
            "**the benchmark did not repeat within its bounds on this host.**"
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 6), n=4) == [1.5, 3.0, 4.5]
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!((quartile(&five, 1), quartile(&five, 3)), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!((quartile(&ten, 1), quartile(&ten, 3)), (2.75, 8.25));
        let s = stats(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.median, s.spread(), s.range), (3.0, 1.0, 4.0 / 3.0));
    }
}
