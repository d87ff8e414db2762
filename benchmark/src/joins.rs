//! The three join workloads: `join_mem`, `join_ooc` and `join_grid`.
//!
//! One operation is one whole filter-step join of the paper-scale trees at
//! `T` threads, through the call behind `psj join`. Every operation's
//! candidate count is checked against the sequential oracle, and one
//! operation's pairs are compared with the oracle's pair for pair.

use crate::estimator::{estimate, Block};
use crate::fixtures::{scenario, Fixture};
use crate::host;
use crate::report::{end_to_end, Outcome};
use crate::spans::{Recorder, ROOT};
use crate::{median_setup, Ctx, WARM_UP};
use psj_core::{
    join_candidates, try_run_join, try_run_partition_join, BufferConfig, NativeConfig, NativeError,
    NativeResult, PartitionInput, RectItem, RunControl,
};
use psj_datagen::MapObject;
use psj_rtree::PagedTree;
use std::io;
use std::time::{Duration, Instant};

/// Operations per block: the smallest block that has a p90 with ten
/// samples beyond it.
pub const BLOCK: usize = 100;

/// Which join a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// R-tree engine, both trees in memory.
    Mem,
    /// R-tree engine through a cold page cache an eighth of the trees.
    Ooc,
    /// Grid partition engine over the objects' MBRs as unindexed streams.
    Grid,
}

impl Kind {
    /// Operations per second of `--seconds`: the rate of the reference
    /// host (2 cores), so the timed phase lasts about `--seconds` there.
    /// The operation count is fixed by this constant, never by the clock,
    /// so both sides of a comparison do identical work.
    fn nominal_ops_per_s(self) -> u64 {
        match self {
            Kind::Mem => 100,
            Kind::Ooc => 30,
            Kind::Grid => 32,
        }
    }

    /// The public function one operation calls, as a span name.
    fn span_name(self) -> &'static str {
        match self {
            Kind::Mem | Kind::Ooc => "core.try_run_join",
            Kind::Grid => "core.try_run_partition_join",
        }
    }
}

/// A join workload with its inputs loaded and its reference computed.
pub struct JoinBench {
    /// Which join this is.
    pub kind: Kind,
    /// First fixture tree.
    pub a: PagedTree,
    /// Second fixture tree.
    pub b: PagedTree,
    /// The objects' MBRs as unindexed streams (grid workload only).
    pub rects: Option<(Vec<RectItem>, Vec<RectItem>)>,
    /// The configuration every timed operation runs with.
    pub cfg: NativeConfig,
    /// The sequential oracle's pairs (sorted for the grid engine, whose
    /// cell order differs from the tree traversal's by design).
    pub oracle: Vec<(u64, u64)>,
}

fn rect_items(objects: &[MapObject]) -> Vec<RectItem> {
    objects
        .iter()
        .map(|o| RectItem {
            mbr: o.mbr(),
            oid: o.oid,
        })
        .collect()
}

impl JoinBench {
    /// Prepares the workload over loaded fixture trees.
    pub fn new(kind: Kind, a: PagedTree, b: PagedTree, ctx: &Ctx) -> JoinBench {
        let mut cfg = NativeConfig::new(ctx.threads);
        cfg.refine = false;
        if kind == Kind::Ooc {
            cfg.buffer = Some(BufferConfig::global((a.num_pages() + b.num_pages()) / 8));
        }
        let mut oracle = join_candidates(&a, &b).candidates;
        let rects = if kind == Kind::Grid {
            oracle.sort_unstable();
            let (m1, m2) = scenario(ctx.seed).generate();
            Some((rect_items(&m1), rect_items(&m2)))
        } else {
            None
        };
        JoinBench {
            kind,
            a,
            b,
            rects,
            cfg,
            oracle,
        }
    }

    /// One operation under `cfg` and `ctl`.
    pub fn op(
        &self,
        cfg: &NativeConfig,
        ctl: &RunControl<'_>,
    ) -> Result<NativeResult, NativeError> {
        match &self.rects {
            Some((ra, rb)) => try_run_partition_join(
                PartitionInput::Rects(ra),
                PartitionInput::Rects(rb),
                cfg,
                ctl,
            ),
            None => try_run_join(&self.a, &self.b, cfg, ctl),
        }
    }

    /// Whether `pairs` are the oracle's, pair for pair.
    pub fn pairs_match(&self, mut pairs: Vec<(u64, u64)>) -> bool {
        if self.kind == Kind::Grid {
            pairs.sort_unstable();
        }
        pairs == self.oracle
    }

    /// Operations of a timed phase of `seconds`: whole blocks, at least one.
    pub fn ops(&self, seconds: u64) -> usize {
        let blocks = (seconds * self.kind.nominal_ops_per_s()) as usize / BLOCK;
        blocks.max(1) * BLOCK
    }

    /// Runs operations untimed for [`WARM_UP`].
    pub fn warm_up(&self) {
        let t0 = Instant::now();
        while t0.elapsed() < WARM_UP {
            std::hint::black_box(self.op(&self.cfg, &RunControl::default()).ok());
        }
    }

    /// The timed phase: `ops` operations under `cfg`, cut into blocks.
    /// `each` sees every successful operation's index, wall time and result.
    /// With a recorder, every operation is a span on row 0.
    pub fn timed(
        &self,
        cfg: &NativeConfig,
        ops: usize,
        rec: Option<&Recorder>,
        mut each: impl FnMut(usize, Duration, &NativeResult),
    ) -> Phase {
        let mut phase = Phase {
            blocks: Vec::with_capacity(ops / BLOCK),
            attempted: 0,
            failed: 0,
        };
        let ctl = RunControl::default();
        let mut lat = Vec::with_capacity(BLOCK);
        let mut first_pairs = None;
        for block in 0..ops / BLOCK {
            lat.clear();
            let cpu0 = host::process_cpu_ns();
            for i in 0..BLOCK {
                let index = block * BLOCK + i;
                let t0 = Instant::now();
                let res = match rec {
                    Some(rec) => rec.span(self.kind.span_name(), 0, ROOT, index as u64, |_| {
                        self.op(cfg, &ctl)
                    }),
                    None => self.op(cfg, &ctl),
                };
                let wall = t0.elapsed();
                lat.push(wall.as_secs_f64() * 1e3);
                phase.attempted += 1;
                match res {
                    Ok(res) if res.candidates == self.oracle.len() as u64 => {
                        each(index, wall, &res);
                        if index == 0 {
                            first_pairs = Some(res.pairs);
                        }
                    }
                    _ => phase.failed += 1,
                }
            }
            let cpu_ms = (host::process_cpu_ns() - cpu0) as f64 / 1e6;
            phase.blocks.push(Block::new(&mut lat, cpu_ms));
        }
        // One operation's pairs against the oracle's, outside the blocks.
        if first_pairs.is_some_and(|pairs| !self.pairs_match(pairs)) {
            phase.failed += 1;
        }
        phase
    }
}

/// What a timed phase measured.
pub struct Phase {
    /// One entry per block of [`BLOCK`] operations.
    pub blocks: Vec<Block>,
    /// Operations run.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
}

/// Loads the fixture [`crate::SETUP_REPS`] times, keeps the last copy, and
/// prepares the workload.
pub fn set_up(ctx: &Ctx, kind: Kind, fixture: &Fixture) -> io::Result<(f64, JoinBench)> {
    let (setup_s, (a, b)) = median_setup(|| fixture.load())?;
    Ok((setup_s, JoinBench::new(kind, a, b, ctx)))
}

/// The end-to-end run of a join workload.
pub fn run(ctx: &Ctx, kind: Kind) -> io::Result<Outcome> {
    let (setup_s, bench) = set_up(ctx, kind, &Fixture::open(&ctx.root, ctx.seed)?)?;
    bench.warm_up();
    let phase = bench.timed(&bench.cfg, bench.ops(ctx.seconds), None, |_, _, _| {});
    let est = estimate(&phase.blocks);
    // Work is the objects joined, which every seed has as many of; the
    // candidate pairs they make differ by a fifth from seed to seed while
    // the join's time does not follow them.
    let objects_per_s = (bench.a.len() + bench.b.len()) as f64 / (est.op_ms_p50 / 1e3);
    Ok(Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: end_to_end(objects_per_s, &est, host::peak_rss_mb(), setup_s),
    })
}
