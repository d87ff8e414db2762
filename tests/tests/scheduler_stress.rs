//! Scheduler stress battery for the morsel-driven native join.
//!
//! Every test pins the executor against the sequential oracle *byte for
//! byte* (Vec equality, not set equality): the deterministic merge of
//! worker-local morsel outputs must make thread count, phase-1 granularity
//! and the schedule the shared morsel cursor happens to produce invisible
//! in the output. On top of that, each run's `TaskTrace` ledger must
//! account for every morsel exactly once.

use psj_core::{
    join_candidates, try_run_native_join, CancelToken, NativeConfig, NativeError, NativeResult,
    RunControl,
};
use psj_desim::splitmix64;
use psj_integration::harness::JoinScenario;
use std::time::{Duration, Instant};

/// Invariants every completed run must satisfy, regardless of schedule:
/// morsels executed exactly once (no losses, no duplicates), the morsel
/// task counts cover at least every phase-1 task, and no morsel was stolen.
fn assert_ledger(res: &NativeResult, ctx: &str) {
    let mut ids: Vec<u32> = res.task_traces.iter().map(|t| t.morsel).collect();
    ids.sort_unstable();
    let want: Vec<u32> = (0..res.morsels as u32).collect();
    assert_eq!(ids, want, "{ctx}: morsels lost or executed twice");

    let covered: u64 = res.task_traces.iter().map(|t| u64::from(t.tasks)).sum();
    assert!(
        covered as usize >= res.tasks,
        "{ctx}: morsel task counts ({covered}) do not cover phase 1 ({})",
        res.tasks
    );

    assert_eq!(res.steals, 0, "{ctx}: the shared cursor never steals");
}

fn run(scenario: &JoinScenario, cfg: &NativeConfig) -> NativeResult {
    try_run_native_join(&scenario.a, &scenario.b, cfg, &RunControl::default())
        .expect("uncancelled run completes")
}

/// Threads × workload: the full matrix must be byte-identical to the
/// oracle with a clean morsel ledger. Covers both a roughly uniform
/// workload and a clustered one whose skew forces uneven morsel costs, so
/// fast workers overtake slow ones at the cursor.
#[test]
fn stress_matrix_is_byte_identical_with_exact_morsel_accounting() {
    let workloads = [
        JoinScenario::paper_maps("stress-uniform", 29, 0.015),
        JoinScenario::clustered("stress-skewed", 31, 1200),
    ];
    for scenario in &workloads {
        let oracle = join_candidates(&scenario.a, &scenario.b).candidates;
        assert!(!oracle.is_empty(), "degenerate workload");
        for threads in [1, 2, 4, 8] {
            let mut cfg = NativeConfig::new(threads);
            cfg.refine = false;
            let res = run(scenario, &cfg);
            let ctx = format!("{} t={threads}", scenario.name);
            assert_eq!(res.pairs, oracle, "{ctx}: output diverged from oracle");
            assert_ledger(&res, &ctx);
        }
    }
}

/// Seeded randomized sweep over the configuration space: thread count and
/// phase-1 granularity (which sets how many morsels there are and how they
/// split) derived from a deterministic stream. Every draw must reproduce
/// the oracle byte for byte with a clean ledger.
#[test]
fn randomized_configurations_never_change_the_output() {
    let scenario = JoinScenario::paper_maps("stress-random", 37, 0.015);
    let oracle = join_candidates(&scenario.a, &scenario.b).candidates;
    for round in 0..24u64 {
        let draw = |salt: u64| splitmix64(round ^ (salt << 32));
        let threads = [1, 2, 4, 8][(draw(1) % 4) as usize];
        let mut cfg = NativeConfig::new(threads);
        cfg.min_tasks_factor = [1, 4, 16][(draw(2) % 3) as usize];
        cfg.refine = false;
        let res = run(&scenario, &cfg);
        let ctx = format!("round {round}: t={threads} mtf={}", cfg.min_tasks_factor);
        assert_eq!(res.pairs, oracle, "{ctx}: output diverged from oracle");
        assert_ledger(&res, &ctx);
    }
}

/// The refined join (exact geometry step) is byte-identical too — the
/// merge argument does not depend on refinement being off.
#[test]
fn refined_output_is_byte_identical_across_schedules() {
    let scenario = JoinScenario::paper_maps("stress-refined", 43, 0.012);
    let want = {
        let cfg = NativeConfig::new(1);
        run(&scenario, &cfg).pairs
    };
    assert!(!want.is_empty());
    for threads in [2, 4, 8] {
        let res = run(&scenario, &NativeConfig::new(threads));
        assert_eq!(res.pairs, want, "refined t={threads} diverged");
    }
}

/// Clean drain under cancellation: a deadline placed anywhere inside the
/// run must produce either a complete, oracle-identical result or a clean
/// `Cancelled` error — never a hang, panic, or partial output. After each
/// cancelled attempt the same inputs must still join to completion.
#[test]
fn cancellation_drains_cleanly_at_random_deadlines() {
    let scenario = JoinScenario::paper_maps("stress-cancel", 47, 0.02);
    let oracle = join_candidates(&scenario.a, &scenario.b).candidates;
    let mut cfg = NativeConfig::new(4);
    cfg.refine = false;

    // Calibrate: a full run's duration bounds the deadline draw range.
    let full = run(&scenario, &cfg);
    assert_eq!(full.pairs, oracle);
    let budget = full.elapsed.max(Duration::from_millis(1));

    let mut cancelled = 0u32;
    for round in 0..12u64 {
        // Deadlines spread over [0, ~budget): early draws cancel before
        // workers spawn, late draws land mid-drain.
        let frac = (splitmix64(round) % 1000) as f64 / 1000.0;
        let deadline = Instant::now() + budget.mul_f64(frac);
        let token = CancelToken::with_deadline(deadline);
        let ctl = RunControl::default().with_cancel(&token);
        match try_run_native_join(&scenario.a, &scenario.b, &cfg, &ctl) {
            Ok(res) => {
                assert_eq!(res.pairs, oracle, "round {round}: completed run diverged");
                assert_ledger(&res, &format!("round {round}"));
            }
            Err(NativeError::Cancelled) => cancelled += 1,
            Err(e) => panic!("round {round}: unexpected error {e}"),
        }
        // The executor must be reusable immediately after a cancellation.
        let again = run(&scenario, &cfg);
        assert_eq!(
            again.pairs, oracle,
            "round {round}: post-cancel run diverged"
        );
    }
    println!("cancelled {cancelled}/12 attempts");
}
