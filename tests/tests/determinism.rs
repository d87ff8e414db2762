//! Determinism guards: the native join's result *set* is a pure function of
//! the inputs — independent of thread count, scheduling noise, and
//! repetition.

use psj_core::native::{BufferConfig, NativeConfig};
use psj_integration::harness::{join, JoinScenario};
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
        let got = pair_set(&join(&scenario.a, &scenario.b, &cfg).pairs);
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
    let first = pair_set(&join(&scenario.a, &scenario.b, &cfg).pairs);
    for round in 0..5 {
        let again = pair_set(&join(&scenario.a, &scenario.b, &cfg).pairs);
        assert_eq!(again, first, "round {round} diverged");
    }
}

#[test]
fn refined_join_is_thread_count_invariant() {
    let scenario = JoinScenario::paper_maps("determinism-refined", 23, 0.015);
    let want = {
        let cfg = NativeConfig::new(1);
        pair_set(&join(&scenario.a, &scenario.b, &cfg).pairs)
    };
    for threads in [2, 4, 8] {
        let cfg = NativeConfig::new(threads);
        let got = pair_set(&join(&scenario.a, &scenario.b, &cfg).pairs);
        assert_eq!(got, want, "{threads} threads");
    }
}

/// FNV-1a 64 over a pair sequence, each pair as two little-endian `u64`s:
/// order-sensitive, so it pins the raw (unsorted) output sequence.
fn fnv1a_pairs(pairs: &[(u64, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(a, b) in pairs {
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Golden output of the R-tree join: the unsorted pair sequence (as an
/// FNV-1a hash), `candidates` and `node_pairs` are pinned for a fixed
/// scenario — filter-only at T = 1, 2 and 4, refined at T = 2, and through
/// a global page cache an eighth of the pages at T = 2. A change to how
/// the join reads its nodes (in memory or cached) that moves the output
/// sequence or the work counters fails here, not just a change to the pair
/// set.
#[test]
fn rtree_join_output_sequence_is_golden() {
    let scenario = JoinScenario::paper_maps("determinism-golden", 1996, 0.1);
    let (a, b) = (&scenario.a, &scenario.b);
    let eighth = (a.num_pages() + b.num_pages()) / 8;
    let runs: [(&str, usize, bool, Option<BufferConfig>); 5] = [
        ("filter", 1, false, None),
        ("filter", 2, false, None),
        ("filter", 4, false, None),
        ("refined", 2, true, None),
        ("cached", 2, false, Some(BufferConfig::global(eighth))),
    ];
    let got: Vec<(&str, usize, u64, u64, u64)> = runs
        .into_iter()
        .map(|(name, threads, refine, buffer)| {
            let mut cfg = NativeConfig::new(threads);
            cfg.refine = refine;
            cfg.buffer = buffer;
            let res = join(a, b, &cfg);
            (
                name,
                threads,
                fnv1a_pairs(&res.pairs),
                res.candidates,
                res.node_pairs,
            )
        })
        .collect();
    // (run, threads, FNV-1a of the sequence, candidates, node pairs).
    // Task creation and the morsel split pass expand more pairs on the
    // driver for more threads, and `node_pairs` counts only the workers'
    // expansions, so it shrinks as T grows.
    let want = vec![
        ("filter", 1, 0xba01_5b5b_6ddc_e82cu64, 13_085u64, 2_700u64),
        ("filter", 2, 0xba01_5b5b_6ddc_e82c, 13_085, 2_697),
        ("filter", 4, 0xba01_5b5b_6ddc_e82c, 13_085, 2_689),
        ("refined", 2, 0x2bf5_6d27_90a8_a5cf, 13_085, 2_697),
        ("cached", 2, 0xba01_5b5b_6ddc_e82c, 13_085, 2_697),
    ];
    assert_eq!(got, want);
}
