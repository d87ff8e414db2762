//! Determinism guards: the native join's result *set* is a pure function of
//! the inputs — independent of thread count, scheduling noise, and
//! repetition.

use psj_core::native::{run_native_join, NativeConfig};
use psj_integration::harness::JoinScenario;
use std::collections::BTreeSet;

fn pair_set(pairs: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
    pairs.iter().copied().collect()
}

#[test]
fn native_join_is_thread_count_invariant() {
    let scenario = JoinScenario::paper_maps("determinism", 7, 0.02);
    let mut reference: Option<BTreeSet<(u64, u64)>> = None;
    for threads in [1, 2, 4, 8] {
        let mut cfg = NativeConfig::new(threads);
        cfg.refine = false;
        let got = pair_set(&run_native_join(&scenario.a, &scenario.b, &cfg).pairs);
        match &reference {
            None => {
                assert!(!got.is_empty(), "degenerate workload");
                reference = Some(got);
            }
            Some(want) => assert_eq!(&got, want, "{threads} threads diverged"),
        }
    }
}

#[test]
fn repeated_runs_agree_exactly() {
    let scenario = JoinScenario::clustered("determinism-repeat", 11, 1000);
    let cfg = {
        let mut c = NativeConfig::new(4);
        c.refine = false;
        c
    };
    let first = pair_set(&run_native_join(&scenario.a, &scenario.b, &cfg).pairs);
    for round in 0..5 {
        let again = pair_set(&run_native_join(&scenario.a, &scenario.b, &cfg).pairs);
        assert_eq!(again, first, "round {round} diverged");
    }
}

#[test]
fn refined_join_is_thread_count_invariant() {
    let scenario = JoinScenario::paper_maps("determinism-refined", 23, 0.015);
    let want = {
        let cfg = NativeConfig::new(1);
        pair_set(&run_native_join(&scenario.a, &scenario.b, &cfg).pairs)
    };
    for threads in [2, 4, 8] {
        let cfg = NativeConfig::new(threads);
        let got = pair_set(&run_native_join(&scenario.a, &scenario.b, &cfg).pairs);
        assert_eq!(got, want, "{threads} threads");
    }
}
