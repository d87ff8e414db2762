//! Buffer-statistics regression tests for the out-of-core native join:
//! the stats in `NativeResult` must reflect real cache behavior, and a
//! starved cache must degrade performance — never correctness.

use psj_buffer::{Policy, SharedPageCache};
use psj_core::native::{run_native_join, run_native_join_with_cache, BufferConfig, NativeConfig};
use psj_core::{join_candidates, BufferOrg};
use psj_integration::harness::JoinScenario;
use psj_rtree::NodeFrame;
use std::collections::BTreeSet;

fn pair_set(pairs: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
    pairs.iter().copied().collect()
}

#[test]
fn second_join_on_warm_cache_has_zero_misses() {
    let s = JoinScenario::paper_maps("warm-cache", 3, 0.02);
    let cache: SharedPageCache<NodeFrame> =
        SharedPageCache::new(4, s.total_pages() * 2, 8, Policy::Lru);
    let mut cfg = NativeConfig::new(4);
    cfg.refine = false;

    let cold = run_native_join_with_cache(&s.a, &s.b, &cfg, &cache);
    let cold_stats = cold.buffer.expect("stats present");
    assert!(
        cold_stats.misses > 0,
        "cold run must fault pages: {cold_stats:?}"
    );
    assert!(
        cold_stats.misses as usize <= s.total_pages(),
        "a big cache never faults a page twice: {cold_stats:?}"
    );

    let warm = run_native_join_with_cache(&s.a, &s.b, &cfg, &cache);
    let warm_stats = warm.buffer.expect("stats present");
    assert_eq!(
        warm_stats.misses, 0,
        "warm run re-faulted pages: {warm_stats:?}"
    );
    assert_eq!(warm_stats.evictions, 0);
    assert!(warm_stats.requests() > 0, "warm run still counts accesses");
    assert_eq!(pair_set(&warm.pairs), pair_set(&cold.pairs));
}

#[test]
fn tiny_cache_thrashes_but_stays_correct() {
    let s = JoinScenario::paper_maps("tiny-cache", 3, 0.02);
    let oracle = pair_set(&join_candidates(&s.a, &s.b).candidates);
    for org in [BufferOrg::Local, BufferOrg::Global] {
        let buffer = BufferConfig {
            org,
            capacity_pages: 4,
            shards: 2,
            policy: Policy::Lru,
        };
        let mut cfg = NativeConfig::buffered(4, buffer);
        cfg.refine = false;
        let res = run_native_join(&s.a, &s.b, &cfg);
        assert_eq!(pair_set(&res.pairs), oracle, "{org:?}");
        let stats = res.buffer.unwrap();
        assert!(
            stats.misses as usize > s.total_pages(),
            "{org:?}: a 4-page cache must re-fault pages: {stats:?}"
        );
        assert!(
            stats.evictions > 0,
            "{org:?}: no evictions despite thrashing"
        );
    }
}

#[test]
fn stats_internally_consistent_across_configs() {
    let s = JoinScenario::dense_grid("stats-consistency", 900, 0.5);
    for org in [BufferOrg::Global, BufferOrg::Local] {
        for capacity in [s.total_pages() * 2, 8, 64] {
            for threads in [1, 2, 4] {
                let buffer = BufferConfig {
                    org,
                    capacity_pages: capacity,
                    shards: 4,
                    policy: Policy::Lru,
                };
                let mut cfg = NativeConfig::buffered(threads, buffer);
                cfg.refine = false;
                let res = run_native_join(&s.a, &s.b, &cfg);
                let at = format!("{org:?}/{capacity}/T={threads}");
                let total = res.buffer.unwrap();
                // The aggregate equals the sum of the per-worker counters.
                let summed = res
                    .buffer_per_worker
                    .iter()
                    .fold(psj_buffer::BufferStats::default(), |acc, w| acc.merged(w));
                assert_eq!(summed, total, "{at}");
                // requests() is definitionally hits + misses. A node pair
                // reads one page of each tree and its candidates resolve
                // from those two nodes, so a fault-free join makes exactly
                // two requests per node pair — a per-candidate re-fetch or
                // a read booked twice breaks the equality.
                assert_eq!(
                    total.requests(),
                    2 * res.node_pairs,
                    "{at}: {total:?} vs {} node pairs",
                    res.node_pairs
                );
                if org == BufferOrg::Local {
                    assert_eq!(total.hits_remote, 0, "local caches cannot hit remotely");
                }
            }
        }
    }
}

/// A join holds at most two pins per worker (the node pair in hand), and a
/// worker filling a page holds at most one pin plus the slot it fills. So
/// whenever every shard has more than `2 × threads` slots some slot is
/// always free or unpinned, and no page is ever served unbuffered. Runs
/// the global configurations of the test above through a caller-owned
/// cache, whose snapshot counts unbuffered fills.
#[test]
fn join_configs_with_roomy_shards_never_serve_unbuffered() {
    let s = JoinScenario::dense_grid("stats-consistency", 900, 0.5);
    let shards = 4;
    for capacity in [s.total_pages() * 2, 8, 64] {
        for threads in [1, 2, 4] {
            let cache: SharedPageCache<NodeFrame> =
                SharedPageCache::new(threads, capacity, shards, Policy::Lru);
            let mut cfg = NativeConfig::new(threads);
            cfg.refine = false;
            let res = run_native_join_with_cache(&s.a, &s.b, &cfg, &cache);
            let at = format!("{capacity}/T={threads}");
            let total = res.buffer.unwrap();
            assert_eq!(total.requests(), 2 * res.node_pairs, "{at}");
            let snap = cache.snapshot();
            assert!(
                snap.unbuffered <= total.misses,
                "{at}: unbuffered fills are misses"
            );
            if capacity / shards > 2 * threads {
                assert_eq!(snap.unbuffered, 0, "{at}: {snap:?}");
            }
        }
    }
}

#[test]
fn unbuffered_run_reports_no_stats() {
    let s = JoinScenario::dense_grid("no-stats", 300, 0.5);
    let mut cfg = NativeConfig::new(2);
    cfg.refine = false;
    let res = run_native_join(&s.a, &s.b, &cfg);
    assert!(res.buffer.is_none());
    assert!(res.buffer_per_worker.is_empty());
    // The unbuffered page model matches the buffered count: two reads per
    // node pair, none per candidate.
    assert!(res.candidates > 0);
    let pages: u64 = res.task_traces.iter().map(|t| t.pages).sum();
    assert_eq!(pages, 2 * res.node_pairs);
}
