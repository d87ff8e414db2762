//! Buffer-statistics regression tests for the out-of-core native join:
//! the stats in `NativeResult` must reflect real cache behavior, and a
//! starved cache must degrade performance — never correctness.

use psj_core::join_candidates;
use psj_core::native::{BufferConfig, NativeConfig};
use psj_integration::harness::{join, JoinScenario};
use std::collections::BTreeSet;

fn pair_set(pairs: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
    pairs.iter().copied().collect()
}

#[test]
fn tiny_cache_thrashes_but_stays_correct() {
    let s = JoinScenario::paper_maps("tiny-cache", 3, 0.02);
    let oracle = pair_set(&join_candidates(&s.a, &s.b).candidates);
    for shards in [2, 1] {
        let buffer = BufferConfig {
            capacity_pages: 4,
            shards,
        };
        let mut cfg = NativeConfig::buffered(4, buffer);
        cfg.refine = false;
        let res = join(&s.a, &s.b, &cfg);
        assert_eq!(pair_set(&res.pairs), oracle, "{shards} shards");
        let stats = res.buffer.unwrap();
        assert!(
            stats.misses as usize > s.total_pages(),
            "{shards} shards: a 4-page cache must re-fault pages: {stats:?}"
        );
        assert!(
            stats.evictions > 0,
            "{shards} shards: no evictions despite thrashing"
        );
    }
}

#[test]
fn stats_internally_consistent_across_configs() {
    let s = JoinScenario::dense_grid("stats-consistency", 900, 0.5);
    for shards in [4, 1] {
        for capacity in [s.total_pages() * 2, 8, 64] {
            for threads in [1, 2, 4] {
                let buffer = BufferConfig {
                    capacity_pages: capacity,
                    shards,
                };
                let mut cfg = NativeConfig::buffered(threads, buffer);
                cfg.refine = false;
                let res = join(&s.a, &s.b, &cfg);
                let at = format!("{shards} shards/{capacity}/T={threads}");
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
                // Per-morsel attribution reconciles with the aggregate.
                let pages: u64 = res.task_traces.iter().map(|t| t.pages).sum();
                assert_eq!(pages, total.requests(), "{at}");
            }
        }
    }
}

#[test]
fn unbuffered_run_reports_no_stats() {
    let s = JoinScenario::dense_grid("no-stats", 300, 0.5);
    let mut cfg = NativeConfig::new(2);
    cfg.refine = false;
    let res = join(&s.a, &s.b, &cfg);
    assert!(res.buffer.is_none());
    assert!(res.buffer_per_worker.is_empty());
    // The unbuffered page model matches the buffered count: two reads per
    // node pair, none per candidate.
    assert!(res.candidates > 0);
    let pages: u64 = res.task_traces.iter().map(|t| t.pages).sum();
    assert_eq!(pages, 2 * res.node_pairs);
}
