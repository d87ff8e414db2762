//! Differential test harness: locks every join executor to the sequential
//! oracle.
//!
//! A [`Scenario`](JoinScenario) is a seeded, reproducible pair of indexed
//! relations. [`differential_run`] computes the sequential [BKS 93] answer
//! once and then replays the same join through the simulated executor (all
//! processor counts × assignments × buffer organizations the caller lists)
//! and the native executor (thread counts × cache budgets down to
//! near-thrashing, each through a sharded and a one-shard shared cache),
//! asserting that
//! every configuration produces *exactly* the oracle's result set. Any
//! divergence panics with the configuration that broke.
//!
//! The harness compares *sets* of `(oid_a, oid_b)` pairs: parallel execution
//! legitimately permutes the output order, but never its contents.

use psj_core::{
    join_candidates, run_sim_join, try_run_join, Assignment, BufferConfig, BufferOrg, NativeConfig,
    NativeResult, RunControl, SimConfig,
};
use psj_datagen::{MapObject, Scenario};
use psj_rtree::{PagedTree, RTree};
use std::collections::{BTreeSet, HashMap};

/// Runs the R-tree join over two in-memory trees, which cannot fail
/// without a cancel token or a fault plan.
pub fn join(a: &PagedTree, b: &PagedTree, cfg: &NativeConfig) -> NativeResult {
    try_run_join(a, b, cfg, &RunControl::default()).expect("in-memory join")
}

/// A reproducible join workload: everything derives from `name` + `seed`.
pub struct JoinScenario {
    /// Human-readable label used in failure messages.
    pub name: &'static str,
    /// Tree A.
    pub a: PagedTree,
    /// Tree B.
    pub b: PagedTree,
}

/// Indexes a generated map into a frozen paged tree with exact geometry.
pub fn index_map(objects: &[MapObject]) -> PagedTree {
    let mut t = RTree::new();
    for o in objects {
        t.insert(o.mbr(), o.oid);
    }
    let geoms: HashMap<u64, psj_geom::Polyline> =
        objects.iter().map(|o| (o.oid, o.geom.clone())).collect();
    PagedTree::freeze(&t, move |oid| geoms.get(&oid).cloned())
}

impl JoinScenario {
    /// A scaled-down instance of the paper's map workload (seeded polyline
    /// maps with realistic clustering).
    pub fn paper_maps(name: &'static str, seed: u64, scale: f64) -> Self {
        let (m1, m2) = Scenario::scaled(seed, scale).generate();
        JoinScenario {
            name,
            a: index_map(&m1),
            b: index_map(&m2),
        }
    }

    /// A dense uniform grid of overlapping unit squares — high selectivity,
    /// every node pair qualifies near the diagonal.
    pub fn dense_grid(name: &'static str, n: usize, shift: f64) -> Self {
        let build = |offset: f64| {
            let mut t = RTree::new();
            for i in 0..n {
                let x = (i % 40) as f64 + offset;
                let y = (i / 40) as f64 + offset;
                t.insert(psj_geom::Rect::new(x, y, x + 1.2, y + 1.2), i as u64);
            }
            PagedTree::freeze(&t, |_| None)
        };
        JoinScenario {
            name,
            a: build(0.0),
            b: build(shift),
        }
    }

    /// Two sparse clustered point sets with partial overlap — exercises
    /// empty subtree pruning and unbalanced task sizes.
    pub fn clustered(name: &'static str, seed: u64, n: usize) -> Self {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut build = |centers: &[(f64, f64)]| {
            let mut t = RTree::new();
            for i in 0..n {
                let (cx, cy) = centers[i % centers.len()];
                let x = cx + rng.random_range(-8.0..8.0);
                let y = cy + rng.random_range(-8.0..8.0);
                let w = rng.random_range(0.1..1.5);
                t.insert(psj_geom::Rect::new(x, y, x + w, y + w), i as u64);
            }
            PagedTree::freeze(&t, |_| None)
        };
        let a = build(&[(0.0, 0.0), (60.0, 10.0), (25.0, 70.0)]);
        let b = build(&[(5.0, 3.0), (58.0, 14.0), (100.0, 100.0)]);
        JoinScenario { name, a, b }
    }

    /// Total serialized pages of both trees — the working set an out-of-core
    /// run has to stream through.
    pub fn total_pages(&self) -> usize {
        self.a.num_pages() + self.b.num_pages()
    }
}

/// The set of `(oid_a, oid_b)` pairs an executor produced.
pub type PairSet = BTreeSet<(u64, u64)>;

fn as_set(pairs: &[(u64, u64)]) -> PairSet {
    pairs.iter().copied().collect()
}

/// Which executor configurations [`differential_run`] sweeps.
pub struct Sweep {
    /// Worker/processor counts.
    pub threads: Vec<usize>,
    /// Task assignment strategies of the simulated executor (the native
    /// one has a single dispatcher, the shared morsel cursor).
    pub assignments: Vec<Assignment>,
    /// Native cache budgets as fractions of the scenario's working set
    /// (e.g. `0.1` = a cache holding 10% of all pages). A minimum of
    /// 4 pages is enforced so shards stay non-empty.
    pub cache_fractions: Vec<f64>,
    /// Whether to also run the simulated executor (slower).
    pub simulate: bool,
}

impl Sweep {
    /// The full grid used by the cross-executor tests.
    pub fn full() -> Self {
        Sweep {
            threads: vec![1, 2, 4, 8],
            assignments: vec![
                Assignment::Dynamic,
                Assignment::StaticRange,
                Assignment::StaticRoundRobin,
            ],
            // From "everything fits" down to near-thrashing.
            cache_fractions: vec![2.0, 0.5, 0.1, 0.02],
            simulate: true,
        }
    }

    /// A cheaper grid for scenarios that are expensive to join.
    pub fn quick() -> Self {
        Sweep {
            threads: vec![1, 4],
            assignments: vec![Assignment::Dynamic, Assignment::StaticRange],
            cache_fractions: vec![0.5, 0.05],
            simulate: false,
        }
    }
}

/// Statistics about one differential run, for reporting.
#[derive(Debug, Default)]
pub struct DifferentialReport {
    /// Number of result pairs in the oracle answer.
    pub oracle_pairs: usize,
    /// Executor configurations checked (each compared pair-for-pair).
    pub configs_checked: usize,
    /// Total cache misses observed across all buffered native runs.
    pub total_misses: u64,
    /// Smallest cache capacity (pages) any passing run used.
    pub smallest_cache: usize,
}

/// Runs `scenario` through the oracle, the simulator, and the native
/// executor under every configuration in `sweep`, panicking on the first
/// mismatch. Returns summary statistics.
pub fn differential_run(scenario: &JoinScenario, sweep: &Sweep) -> DifferentialReport {
    let name = scenario.name;
    let oracle = as_set(&join_candidates(&scenario.a, &scenario.b).candidates);
    let mut report = DifferentialReport {
        oracle_pairs: oracle.len(),
        smallest_cache: usize::MAX,
        ..Default::default()
    };

    // Simulated executor: processors × assignments × buffer organizations.
    if sweep.simulate {
        for &n in &sweep.threads {
            for &assignment in &sweep.assignments {
                for org in [BufferOrg::Local, BufferOrg::Global] {
                    let mut sim = SimConfig::best(n, n, 24.max(4 * n));
                    sim.assignment = assignment;
                    sim.buffer_org = org;
                    sim.collect_candidates = true;
                    let res = run_sim_join(&scenario.a, &scenario.b, &sim);
                    let got = as_set(res.candidates.as_deref().expect("candidates collected"));
                    assert_eq!(
                        got, oracle,
                        "{name}: sim n={n} {assignment:?} {org:?} diverged from oracle"
                    );
                    report.configs_checked += 1;
                }
            }
        }
    }

    // Native executor, unbuffered.
    for &threads in &sweep.threads {
        let mut cfg = NativeConfig::new(threads);
        cfg.refine = false;
        let res = join(&scenario.a, &scenario.b, &cfg);
        assert_eq!(
            as_set(&res.pairs),
            oracle,
            "{name}: native threads={threads} unbuffered diverged"
        );
        report.configs_checked += 1;
    }

    // Native executor, out-of-core: budgets down to near-thrashing, each
    // through a sharded cache and a one-shard cache whose single lock every
    // worker contends on.
    let total = scenario.total_pages();
    for &threads in &sweep.threads {
        for shards in [4, 1] {
            for &fraction in &sweep.cache_fractions {
                let capacity = ((total as f64 * fraction) as usize).max(4);
                let buffer = BufferConfig {
                    capacity_pages: capacity,
                    shards,
                };
                let mut cfg = NativeConfig::buffered(threads, buffer);
                cfg.refine = false;
                let res = join(&scenario.a, &scenario.b, &cfg);
                assert_eq!(
                    as_set(&res.pairs),
                    oracle,
                    "{name}: native threads={threads} shards={shards} cache={capacity}p diverged"
                );
                let stats = res.buffer.expect("buffered run must report stats");
                // A join that creates tasks must touch pages; disjoint
                // trees legitimately create none.
                assert!(
                    res.tasks == 0 || stats.requests() > 0,
                    "{name}: buffered run reported no page requests"
                );
                report.total_misses += stats.misses;
                report.smallest_cache = report.smallest_cache.min(capacity);
                report.configs_checked += 1;
            }
        }
    }

    report
}
