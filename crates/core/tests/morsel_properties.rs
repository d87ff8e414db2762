//! Property tests for the morsel planner and its candidate cost model:
//! structural invariants of `morselize` over arbitrary workloads, plus a
//! reconciliation check that the planner the executor runs is the planner
//! the tests reason about.

use proptest::prelude::*;
use psj_core::{
    create_tasks, join_candidates, morselize, run_native_join, CandidateEstimator, MorselOptions,
    NativeConfig, TaskPair,
};
use psj_geom::Rect;
use psj_rtree::{PagedTree, RTree};

/// Builds a tree over unit-ish boxes at the given integer-grid points.
fn tree_from_points(pts: &[(u16, u16)], offset: f64, w: f64) -> PagedTree {
    let mut t = RTree::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (x, y) = (f64::from(x) + offset, f64::from(y) + offset);
        t.insert(Rect::new(x, y, x + w, y + w), i as u64);
    }
    PagedTree::freeze(&t, |_| None)
}

fn points() -> impl Strategy<Value = Vec<(u16, u16)>> {
    prop::collection::vec((0u16..40, 0u16..40), 60..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With splitting disabled the planner is pure packing: the flattened
    /// morsel stream must be exactly the input task stream (order and
    /// coverage), ids must be sequential, and no morsel may be empty.
    #[test]
    fn packing_preserves_order_and_coverage(
        pts_a in points(),
        pts_b in points(),
        budget in 1u64..4096,
    ) {
        let a = tree_from_points(&pts_a, 0.0, 1.4);
        let b = tree_from_points(&pts_b, 0.5, 1.4);
        let tc = create_tasks(&a, &b, 8);
        let est = CandidateEstimator::new(&a, &b);
        let opts = MorselOptions { budget, workers: 4, max_split_levels: 0 };
        let plan = morselize(&a, &b, &tc.tasks, &est, &opts);

        let flat: Vec<_> = plan
            .morsels
            .iter()
            .flat_map(|m| m.tasks.iter().map(TaskPair::key))
            .collect();
        let want: Vec<_> = tc.tasks.iter().map(TaskPair::key).collect();
        prop_assert_eq!(flat, want, "packing lost, duplicated, or reordered tasks");
        for (i, m) in plan.morsels.iter().enumerate() {
            prop_assert_eq!(m.id as usize, i, "ids must be sequential");
            prop_assert!(!m.tasks.is_empty(), "no morsel may be empty");
            prop_assert!(m.est >= 1, "estimates clamp to at least 1");
        }
    }

    /// Pure packing is monotone in the budget: shrinking the budget can
    /// only produce more (finer) morsels, never fewer. (With splitting
    /// enabled this need not hold — splitting re-rates children, and the
    /// child estimates do not have to sum to the parent's.)
    #[test]
    fn morsel_count_is_monotone_in_budget(
        pts_a in points(),
        pts_b in points(),
        lo in 1u64..2048,
        delta in 1u64..2048,
    ) {
        let a = tree_from_points(&pts_a, 0.0, 1.4);
        let b = tree_from_points(&pts_b, 0.5, 1.4);
        let tc = create_tasks(&a, &b, 8);
        let est = CandidateEstimator::new(&a, &b);
        let mk = |budget| {
            let opts = MorselOptions { budget, workers: 4, max_split_levels: 0 };
            morselize(&a, &b, &tc.tasks, &est, &opts).morsels.len()
        };
        prop_assert!(
            mk(lo) >= mk(lo + delta),
            "tighter budget must not produce fewer morsels"
        );
    }

    /// A morsel may exceed the budget only when packing could not help:
    /// it holds exactly one (unsplittable or depth-limited) task. Holds at
    /// every split depth, including zero.
    #[test]
    fn over_budget_morsels_are_singletons(
        pts_a in points(),
        pts_b in points(),
        budget in 1u64..256,
        split in 0u8..3,
    ) {
        let a = tree_from_points(&pts_a, 0.0, 1.4);
        let b = tree_from_points(&pts_b, 0.5, 1.4);
        let tc = create_tasks(&a, &b, 4);
        let est = CandidateEstimator::new(&a, &b);
        let opts = MorselOptions { budget, workers: 4, max_split_levels: split };
        let plan = morselize(&a, &b, &tc.tasks, &est, &opts);
        for m in &plan.morsels {
            prop_assert!(
                m.est <= plan.budget || m.tasks.len() == 1,
                "over-budget morsel with {} tasks (est {} > budget {})",
                m.tasks.len(),
                m.est,
                plan.budget
            );
        }
    }

    /// The auto budget never leaves the documented clamp range, so morsel
    /// counts stay bounded on degenerate workloads.
    #[test]
    fn auto_budget_stays_in_clamp_range(
        pts_a in points(),
        pts_b in points(),
        workers in 1usize..16,
    ) {
        let a = tree_from_points(&pts_a, 0.0, 1.4);
        let b = tree_from_points(&pts_b, 0.5, 1.4);
        let tc = create_tasks(&a, &b, 8);
        let est = CandidateEstimator::new(&a, &b);
        let plan = morselize(&a, &b, &tc.tasks, &est, &MorselOptions::new(workers));
        prop_assert!(plan.budget >= psj_core::morsel::AUTO_BUDGET_MIN);
        prop_assert!(plan.budget <= psj_core::morsel::AUTO_BUDGET_MAX);
    }
}

/// The planner the executor runs is the planner `morselize` describes —
/// same inputs, same plan — and the cost model's aggregate estimate lands
/// within a sane multiplicative band of the measured candidate count, so
/// morsel budgets expressed in "estimated candidates" stay meaningful.
#[test]
fn executor_plan_and_aggregate_estimate_reconcile_with_measurement() {
    let mk = |n: usize, off: f64| {
        let pts: Vec<(u16, u16)> = (0..n).map(|i| ((i % 50) as u16, (i / 50) as u16)).collect();
        tree_from_points(&pts, off, 1.3)
    };
    let a = mk(2000, 0.0);
    let b = mk(1800, 0.45);

    let mut cfg = NativeConfig::new(4);
    cfg.refine = false;
    let res = run_native_join(&a, &b, &cfg);

    // Mirror the executor's phase 1/1½ inputs exactly.
    let tc = create_tasks(&a, &b, cfg.min_tasks_factor * cfg.num_threads);
    let est = CandidateEstimator::new(&a, &b);
    let opts = MorselOptions::new(cfg.num_threads);
    let plan = morselize(&a, &b, &tc.tasks, &est, &opts);
    assert_eq!(
        plan.morsels.len(),
        res.morsels,
        "executor must run the documented planner"
    );

    // Measured truth, twice over: the run's counter and the oracle agree.
    let measured = join_candidates(&a, &b).candidates.len() as u64;
    assert_eq!(res.candidates as u64, measured);
    assert!(measured > 0, "degenerate workload");

    // The estimator is a planning heuristic, not a promise — but if the
    // aggregate drifts beyond a factor of 16 the budget knob is lying.
    let est_total = plan.total_est.max(1);
    let ratio = est_total as f64 / measured as f64;
    assert!(
        (1.0 / 16.0..=16.0).contains(&ratio),
        "aggregate estimate {est_total} vs measured {measured} (ratio {ratio:.3})"
    );

    // Per-morsel estimates sum to within rounding of the plan total when
    // nothing was split (each unit keeps its phase-1 estimate).
    if plan.split_expansions == 0 {
        let sum: u64 = plan.morsels.iter().map(|m| m.est).sum();
        let drift = sum.abs_diff(plan.total_est);
        assert!(
            drift <= plan.morsels.len() as u64,
            "per-morsel rounding drifted: sum {sum} vs total {}",
            plan.total_est
        );
    }
}
