//! Differential acceptance tests: every executor configuration must produce
//! exactly the sequential oracle's result set on seeded scenarios — see
//! `src/harness.rs` for the sweep machinery.

use psj_integration::harness::{differential_run, JoinScenario, Sweep};

#[test]
fn paper_maps_scenario_locks_all_executors() {
    let scenario = JoinScenario::paper_maps("paper-maps", 1996, 0.02);
    let report = differential_run(&scenario, &Sweep::full());
    assert!(
        report.oracle_pairs > 100,
        "workload too trivial: {report:?}"
    );
    // Simulator 4 × 3 assignments × 2 organizations, native 4 unbuffered
    // plus 4 × 2 organizations × 4 cache budgets.
    assert_eq!(
        report.configs_checked,
        24 + 4 + 32,
        "sweep shrank: {report:?}"
    );
    assert!(
        report.total_misses > 0,
        "no out-of-core activity: {report:?}"
    );
}

#[test]
fn dense_grid_scenario_locks_all_executors() {
    let scenario = JoinScenario::dense_grid("dense-grid", 1200, 0.5);
    let report = differential_run(&scenario, &Sweep::full());
    assert!(
        report.oracle_pairs > 1000,
        "workload too trivial: {report:?}"
    );
    // The smallest swept cache must be well under the working set:
    // out-of-core correctness is only tested if we actually thrash.
    assert!(
        report.smallest_cache < scenario.total_pages() / 10,
        "cache never went near thrashing: smallest {} of {} pages",
        report.smallest_cache,
        scenario.total_pages()
    );
}

#[test]
fn clustered_scenario_locks_all_executors() {
    let scenario = JoinScenario::clustered("clustered", 42, 1500);
    let report = differential_run(&scenario, &Sweep::full());
    assert!(report.oracle_pairs > 50, "workload too trivial: {report:?}");
    assert!(report.total_misses > 0);
}

#[test]
fn disjoint_scenario_yields_empty_everywhere() {
    // Degenerate but important: zero results must also agree.
    let scenario = JoinScenario::dense_grid("disjoint", 400, 5_000.0);
    let report = differential_run(&scenario, &Sweep::quick());
    assert_eq!(report.oracle_pairs, 0);
}
