//! Differential acceptance for the partition join engine: on every seeded
//! scenario, at every thread count, the grid engine's output must be
//! byte-identical (after canonical sort) to the sequential R-tree oracle
//! AND to the R-tree executor — and its raw output sequence must be
//! identical across all schedules (deterministic merge). The suite
//! also locks the Tree-vs-raw-rectangle input equivalence.

use psj_core::native::{NativeConfig, NativeResult};
use psj_core::{
    join_candidates, try_run_partition_join, JoinEngine, PartitionInput, RectItem, RunControl,
};
use psj_integration::harness::{join, JoinScenario};

const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Runs per thread count: repeats give the shared cursor different
/// schedules to produce.
const ROUNDS: usize = 3;

/// The grid engine over any two inputs, in memory.
fn grid_join(a: PartitionInput<'_>, b: PartitionInput<'_>, cfg: &NativeConfig) -> NativeResult {
    try_run_partition_join(a, b, cfg, &RunControl::default()).expect("in-memory join")
}

/// The grid engine over the scenario's two trees.
fn tree_grid(scenario: &JoinScenario, cfg: &NativeConfig) -> NativeResult {
    grid_join(
        PartitionInput::Tree(&scenario.a),
        PartitionInput::Tree(&scenario.b),
        cfg,
    )
}

fn sorted(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pairs.sort_unstable();
    pairs
}

/// Sweeps the partition engine over threads × repeated rounds, asserting
/// (1) sorted-output equality with the sequential oracle, (2) raw output
/// sequence identical across every schedule, (3) exact reconciliation of
/// per-morsel traces with the run aggregates. Returns configs checked.
fn partition_sweep(scenario: &JoinScenario) -> usize {
    let name = scenario.name;
    let oracle = sorted(join_candidates(&scenario.a, &scenario.b).candidates);
    let mut first_sequence: Option<Vec<(u64, u64)>> = None;
    let mut checked = 0;
    for threads in THREADS {
        for round in 0..ROUNDS {
            let mut cfg = NativeConfig::new(threads);
            cfg.refine = false;
            let res = tree_grid(scenario, &cfg);
            assert_eq!(res.engine, JoinEngine::Partition, "{name}: engine tag");
            assert_eq!(
                sorted(res.pairs.clone()),
                oracle,
                "{name}: partition threads={threads} round {round} diverged from oracle"
            );
            match &first_sequence {
                None => first_sequence = Some(res.pairs.clone()),
                Some(want) => assert_eq!(
                    &res.pairs, want,
                    "{name}: output sequence not deterministic at \
                     threads={threads} round {round}"
                ),
            }
            // Per-morsel traces must reconcile exactly with the aggregates.
            assert_eq!(res.task_traces.len(), res.morsels, "{name}: trace count");
            let (mut cands, mut rep, mut ded) = (0u64, 0u64, 0u64);
            for t in &res.task_traces {
                assert_eq!(t.engine, JoinEngine::Partition, "{name}: trace engine tag");
                cands += t.candidates;
                rep += t.replicated;
                ded += t.deduped;
            }
            assert_eq!(cands, res.candidates, "{name}: candidate attribution");
            assert_eq!(rep, res.replicated, "{name}: replication attribution");
            assert_eq!(ded, res.deduped, "{name}: dedup attribution");
            assert_eq!(res.steals, 0, "{name}: the shared cursor never steals");
            checked += 1;
        }
    }
    checked
}

/// The R-tree executor and the partition engine must agree pair-for-pair
/// on the same inputs (both compared sorted; their native orders differ by
/// design — tree task order vs grid cell order).
fn engines_agree(scenario: &JoinScenario, threads: usize) {
    let mut cfg = NativeConfig::new(threads);
    cfg.refine = false;
    let rtree = join(&scenario.a, &scenario.b, &cfg);
    let part = tree_grid(scenario, &cfg);
    assert_eq!(
        sorted(rtree.pairs),
        sorted(part.pairs),
        "{}: engines disagree at {threads} threads",
        scenario.name
    );
    assert_eq!(rtree.candidates, part.candidates, "{}", scenario.name);
}

#[test]
fn paper_maps_partition_locks_to_oracle() {
    let scenario = JoinScenario::paper_maps("paper-maps", 1996, 0.02);
    let checked = partition_sweep(&scenario);
    assert_eq!(checked, THREADS.len() * ROUNDS);
    engines_agree(&scenario, 4);
}

#[test]
fn dense_grid_partition_locks_to_oracle() {
    let scenario = JoinScenario::dense_grid("dense-grid", 1200, 0.5);
    partition_sweep(&scenario);
    engines_agree(&scenario, 8);
}

#[test]
fn clustered_partition_locks_to_oracle() {
    let scenario = JoinScenario::clustered("clustered", 42, 1500);
    partition_sweep(&scenario);
    engines_agree(&scenario, 4);
}

#[test]
fn disjoint_partition_yields_empty() {
    let scenario = JoinScenario::dense_grid("disjoint", 400, 5_000.0);
    let oracle = join_candidates(&scenario.a, &scenario.b).candidates;
    assert!(oracle.is_empty());
    let mut cfg = NativeConfig::new(4);
    cfg.refine = false;
    let res = tree_grid(&scenario, &cfg);
    assert!(res.pairs.is_empty());
    assert_eq!(res.replicated, 0);
    assert_eq!(res.deduped, 0);
}

/// With refinement ON (exact geometry from the paper maps), both engines
/// must still agree: the partition engine carries leaf geometry refs
/// through replication, so the refinement step sees the same polylines.
#[test]
fn refined_paper_maps_engines_agree() {
    let scenario = JoinScenario::paper_maps("paper-maps-refined", 77, 0.02);
    let mut cfg = NativeConfig::new(4);
    cfg.refine = true;
    let rtree = join(&scenario.a, &scenario.b, &cfg);
    let part = tree_grid(&scenario, &cfg);
    assert_eq!(
        sorted(rtree.pairs),
        sorted(part.pairs),
        "refined outputs diverge"
    );
}

/// Joining a tree against the same relation streamed as raw rectangles
/// must produce the identical (filter-step) result: the unindexed side
/// loses only geometry, never MBRs or oids.
#[test]
fn raw_rect_stream_equals_indexed_side() {
    let scenario = JoinScenario::clustered("tree-vs-rects", 9, 1200);
    let items: Vec<RectItem> = scenario
        .b
        .window_query(&scenario.b.mbr())
        .into_iter()
        .map(|e| RectItem {
            mbr: e.mbr,
            oid: e.oid,
        })
        .collect();
    let mut cfg = NativeConfig::new(4);
    cfg.refine = false;
    let oracle = sorted(join_candidates(&scenario.a, &scenario.b).candidates);
    for threads in [1, 4] {
        cfg.num_threads = threads;
        let res = grid_join(
            PartitionInput::Tree(&scenario.a),
            PartitionInput::Rects(&items),
            &cfg,
        );
        assert_eq!(sorted(res.pairs), oracle, "threads={threads}");
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

/// Golden output of the grid engine on raw rectangle streams: the unsorted
/// pair sequence (as an FNV-1a hash), its length and the replication and
/// dedup counters are pinned for a fixed scenario at T = 1, 2 and 4. Any
/// change to how the plan is built — grid, cell runs, their order, morsel
/// packing — that moves the output sequence fails here, not just a
/// change to the pair set.
#[test]
fn rect_stream_output_sequence_is_golden() {
    let (m1, m2) = psj_datagen::Scenario::scaled(1996, 0.1).generate();
    let items = |objs: &[psj_datagen::MapObject]| -> Vec<RectItem> {
        objs.iter()
            .map(|o| RectItem {
                mbr: o.mbr(),
                oid: o.oid,
            })
            .collect()
    };
    let (a, b) = (items(&m1), items(&m2));
    // (FNV-1a of the sequence, pairs, replicated, deduped).
    let want = (0x3a2c_6e20_1fdf_41b8u64, 13_085usize, 2_357u64, 372u64);
    for threads in [1, 2, 4] {
        let mut cfg = NativeConfig::new(threads);
        cfg.refine = false;
        let res = grid_join(PartitionInput::Rects(&a), PartitionInput::Rects(&b), &cfg);
        let got = (
            fnv1a_pairs(&res.pairs),
            res.pairs.len(),
            res.replicated,
            res.deduped,
        );
        assert_eq!(got, want, "threads={threads}");
    }
}
