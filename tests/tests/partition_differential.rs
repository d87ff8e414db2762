//! Differential acceptance for the partition join engine: on every seeded
//! scenario, at every thread count, the grid engine's output must be
//! byte-identical (after canonical sort) to the sequential R-tree oracle
//! AND to the R-tree executor — and its raw output sequence must be
//! identical across all schedules (deterministic merge). The suite
//! also locks the engine-selection optimizer's decisions and the
//! Tree-vs-raw-rectangle input equivalence.

use psj_core::native::{run_native_join, BufferConfig, NativeConfig};
use psj_core::{
    join_candidates, run_join, run_partition_join, select_engine, JoinEngine, PartitionInput,
    RectItem, RunControl,
};
use psj_integration::harness::JoinScenario;

const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Runs per thread count: repeats give the shared cursor different
/// schedules to produce.
const ROUNDS: usize = 3;

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
            cfg.engine = JoinEngine::Partition;
            let res = run_join(&scenario.a, &scenario.b, &cfg);
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
    let rtree = run_native_join(&scenario.a, &scenario.b, &cfg);
    cfg.engine = JoinEngine::Partition;
    let part = run_join(&scenario.a, &scenario.b, &cfg);
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
    cfg.engine = JoinEngine::Partition;
    let res = run_join(&scenario.a, &scenario.b, &cfg);
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
    let rtree = run_native_join(&scenario.a, &scenario.b, &cfg);
    cfg.engine = JoinEngine::Partition;
    let part = run_join(&scenario.a, &scenario.b, &cfg);
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
        let res = run_partition_join(
            PartitionInput::Tree(&scenario.a),
            PartitionInput::Rects(&items),
            &cfg,
        );
        assert_eq!(sorted(res.pairs), oracle, "threads={threads}");
    }
}

/// The Auto policy's decisions: small inputs stay on the index, dense
/// in-memory joins go to the grid, and any genuinely out-of-core
/// configuration (cache smaller than the working set) is forced back to
/// the R-tree engine — the only one that honors the buffer.
#[test]
fn auto_selection_picks_sensible_engines() {
    let ctl = RunControl::default();

    // Dense in-memory workload: grid wins, Auto must pick it.
    let dense = JoinScenario::dense_grid("auto-dense", 4000, 0.5);
    let mut cfg = NativeConfig::new(4);
    cfg.refine = false;
    assert_eq!(
        select_engine(&dense.a, &dense.b, &cfg, &ctl),
        JoinEngine::Partition
    );
    cfg.engine = JoinEngine::Auto;
    let res = run_join(&dense.a, &dense.b, &cfg);
    assert_eq!(
        res.engine,
        JoinEngine::Partition,
        "result reports the resolved engine"
    );
    assert_eq!(
        sorted(res.pairs),
        sorted(join_candidates(&dense.a, &dense.b).candidates),
        "auto-dispatched run still matches the oracle"
    );

    // Tiny workload: planning a grid costs more than the whole tree join.
    let small = JoinScenario::dense_grid("auto-small", 300, 0.5);
    assert_eq!(
        select_engine(&small.a, &small.b, &cfg, &ctl),
        JoinEngine::RTree
    );

    // Disjoint universes: nothing to partition.
    let disjoint = JoinScenario::dense_grid("auto-disjoint", 5000, 9_000.0);
    assert_eq!(
        select_engine(&disjoint.a, &disjoint.b, &cfg, &ctl),
        JoinEngine::RTree
    );

    // Out-of-core: a buffer smaller than the working set pins the R-tree
    // engine, and the dispatched run must still honor it (stats present).
    let total = dense.total_pages();
    let mut buffered = NativeConfig::buffered(4, BufferConfig::global(total / 10));
    buffered.refine = false;
    buffered.engine = JoinEngine::Auto;
    assert_eq!(
        select_engine(&dense.a, &dense.b, &buffered, &ctl),
        JoinEngine::RTree
    );
    let res = run_join(&dense.a, &dense.b, &buffered);
    assert_eq!(res.engine, JoinEngine::RTree);
    assert!(res.buffer.is_some(), "buffered run reports cache stats");
    assert_eq!(
        sorted(res.pairs),
        sorted(join_candidates(&dense.a, &dense.b).candidates)
    );

    // A roomy buffer (everything fits) no longer forces the index.
    let mut roomy = NativeConfig::buffered(4, BufferConfig::global(total * 2));
    roomy.refine = false;
    assert_eq!(
        select_engine(&dense.a, &dense.b, &roomy, &ctl),
        JoinEngine::Partition
    );
}
