//! The KSR1-derived cost model (paper §4.2, Tables 2 and the disk/refinement
//! parameters).
//!
//! Every constant the paper publishes appears here verbatim; the handful of
//! constants it leaves implicit (per-entry CPU work of the plane sweep,
//! lock overhead of the global buffer, task-queue access, reassignment
//! overhead) are set to microsecond-scale values that keep their aggregate
//! contribution within the bounds the paper states (e.g. reassignment
//! overhead "at most 100 msec" per join; initialization "< 0.1 % of the
//! response time"). All of them are fields, so ablation benches can vary
//! them.

use psj_geom::Rect;
use psj_rtree::JoinNode;
use psj_store::timing::millis_f;
use psj_store::{DiskModel, Nanos, MICROS, MILLIS};
use serde::{Deserialize, Serialize};

/// One row of the paper's Table 2 (KSR1 memory parameters).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MemoryLevel {
    /// Human-readable name of the memory level.
    pub name: &'static str,
    /// Size of the address space in bytes.
    pub size: u64,
    /// Transfer unit in bytes.
    pub transfer_unit: u32,
    /// Bandwidth in MB/s.
    pub bandwidth_mb_s: u32,
    /// Access latency per transfer unit in microseconds (the garbled last
    /// column of Table 2, reconstructed; see DESIGN.md §6).
    pub latency_us: f64,
}

/// The three memory levels of Table 2.
pub const KSR1_MEMORY: [MemoryLevel; 3] = [
    MemoryLevel {
        name: "cache",
        size: 256 * 1024,
        transfer_unit: 64,
        bandwidth_mb_s: 64,
        latency_us: 0.1,
    },
    MemoryLevel {
        name: "main memory",
        size: 32 * 1024 * 1024,
        transfer_unit: 128,
        bandwidth_mb_s: 40,
        latency_us: 1.2,
    },
    MemoryLevel {
        name: "main memory of other processors",
        size: 768 * 1024 * 1024,
        transfer_unit: 128,
        bandwidth_mb_s: 32,
        latency_us: 9.0,
    },
];

/// The complete cost model of the simulated platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// Reading one 4 KB page from the local buffer: 32 transfer units of
    /// 128 B at 1.2 µs latency + 4 KB at 40 MB/s ≈ 140 µs.
    pub mem_local_page: Nanos,
    /// Reading one 4 KB page from another processor's memory over the
    /// interconnect: 32 × 9 µs + 4 KB at 32 MB/s ≈ 416 µs.
    pub mem_remote_page: Nanos,
    /// Locking/synchronization overhead per global-buffer access.
    pub global_lock: Nanos,
    /// One access to the shared dynamic task queue.
    pub task_queue_access: Nanos,
    /// Fixed algorithmic overhead of one task reassignment, charged to the
    /// idle (helping) processor.
    pub reassign_overhead: Nanos,
    /// CPU time per entry scanned by the restricted plane sweep.
    pub cpu_per_entry: Nanos,
    /// CPU time per intersecting pair found (MBR test + bookkeeping).
    pub cpu_per_pair: Nanos,
    /// Base time of the exact-geometry test of one candidate pair (the
    /// paper's minimum: 2 ms).
    pub refine_base: Nanos,
    /// Span added on top of [`CostModel::refine_base`] proportional to the
    /// degree of MBR overlap (paper: up to 18 ms, i.e. a 16 ms span).
    pub refine_span: Nanos,
    /// Exponent shaping how the normalized overlap degree maps onto the
    /// refinement span. Line-segment MBR pairs cluster at low Jaccard
    /// degrees; `degree^(1/refine_shape)` with `refine_shape` ≈ 3 restores
    /// the paper's ~10 ms *average* while keeping the 2–18 ms range.
    pub refine_shape: f64,
}

impl CostModel {
    /// The paper's cost model.
    pub fn paper() -> Self {
        CostModel {
            mem_local_page: 140 * MICROS,
            mem_remote_page: 416 * MICROS,
            global_lock: 5 * MICROS,
            task_queue_access: 10 * MICROS,
            reassign_overhead: 500 * MICROS,
            cpu_per_entry: MICROS / 2,
            cpu_per_pair: 2 * MICROS,
            refine_base: 2 * MILLIS,
            refine_span: 16 * MILLIS,
            refine_shape: 3.0,
        }
    }

    /// Simulated duration of the exact-geometry intersection test for a
    /// candidate pair with the given MBRs (paper §4.2: "waiting periods
    /// whose lengths depend on the degree of overlap between the
    /// corresponding MBRs", 2–18 ms, average 10 ms).
    pub fn refinement_time(&self, a: &Rect, b: &Rect) -> Nanos {
        let degree = a.overlap_degree(b).powf(1.0 / self.refine_shape);
        self.refine_base + (self.refine_span as f64 * degree) as Nanos
    }

    /// CPU time of one node-pair plane sweep that scanned `entries` entries
    /// and produced `pairs` intersecting pairs.
    pub fn sweep_time(&self, entries: usize, pairs: usize) -> Nanos {
        self.cpu_per_entry * entries as Nanos + self.cpu_per_pair * pairs as Nanos
    }

    /// Renders Table 2 (the memory parameters actually used).
    pub fn table2() -> String {
        let mut s = String::from(
            "memory                              size  transfer_unit  bandwidth  latency_us\n",
        );
        for m in KSR1_MEMORY {
            s.push_str(&format!(
                "{:<34} {:>6} KB {:>8} B {:>6} MB/s {:>8.1}\n",
                m.name,
                m.size / 1024,
                m.transfer_unit,
                m.bandwidth_mb_s,
                m.latency_us
            ));
        }
        s
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper()
    }
}

/// Bundles the disk and CPU/memory models of one simulated platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Platform {
    /// The simulated disk array.
    pub disk: DiskModel,
    /// CPU/memory/synchronization costs.
    pub cost: CostModel,
}

impl Platform {
    /// The paper's platform with `d` disks.
    pub fn paper(num_disks: usize) -> Self {
        Platform {
            disk: DiskModel::paper(num_disks),
            cost: CostModel::paper(),
        }
    }
}

/// Re-export of [`millis_f`] for experiment configuration code.
pub fn ms(v: f64) -> Nanos {
    millis_f(v)
}

/// Shape statistics of one frozen tree, collected with a single cheap pass
/// over (a sample of) its leaf pages. These drive the analytic candidate
/// estimates behind morsel sizing: how many data entries a subtree at a
/// given level holds, and how wide a typical data MBR is.
#[derive(Debug, Clone, Copy)]
pub struct TreeProfile {
    /// Mean data entries per leaf page.
    pub avg_leaf_entries: f64,
    /// Mean directory fanout, derived from leaf count and height.
    pub dir_fanout: f64,
    /// Mean data-entry MBR width.
    pub avg_entry_w: f64,
    /// Mean data-entry MBR height.
    pub avg_entry_h: f64,
}

/// Leaf pages sampled by [`TreeProfile::scan`]; extents converge fast and
/// phase 1½ must stay a negligible fraction of the join.
const PROFILE_SAMPLE_LEAVES: usize = 64;

impl TreeProfile {
    /// Profiles `tree` by sampling its leaf pages.
    pub fn scan(tree: &psj_rtree::PagedTree) -> Self {
        let num_pages = tree.pages().len();
        let mut leaves = 0usize;
        let mut entries_sampled = 0usize;
        let mut sum_w = 0.0f64;
        let mut sum_h = 0.0f64;
        // Count every leaf (cheap level check) but read extents only from an
        // evenly spread sample.
        let mut next_sample = 0usize;
        let stride = num_pages.div_ceil(PROFILE_SAMPLE_LEAVES).max(1);
        for p in 0..num_pages {
            let frame = tree.frame(psj_store::PageId(p as u32));
            if frame.level() != 0 {
                continue;
            }
            leaves += 1;
            if leaves > next_sample {
                next_sample += stride;
                let lanes = frame.lanes();
                for i in 0..lanes.len() {
                    sum_w += lanes.xh[i] - lanes.xl[i];
                    sum_h += lanes.yh[i] - lanes.yl[i];
                }
                entries_sampled += lanes.len();
            }
        }
        let avg_leaf_entries = if leaves == 0 {
            1.0
        } else {
            (tree.len() as f64 / leaves as f64).max(1.0)
        };
        let (avg_entry_w, avg_entry_h) = if entries_sampled == 0 {
            (0.0, 0.0)
        } else {
            (
                sum_w / entries_sampled as f64,
                sum_h / entries_sampled as f64,
            )
        };
        // `leaves = fanout^(height-1)` under uniform fanout.
        let height = tree.height().max(1);
        let dir_fanout = if height <= 1 || leaves <= 1 {
            1.0
        } else {
            (leaves as f64).powf(1.0 / (height - 1) as f64).max(1.0)
        };
        TreeProfile {
            avg_leaf_entries,
            dir_fanout,
            avg_entry_w,
            avg_entry_h,
        }
    }

    /// Expected data entries below a node with `len` entries at `level`
    /// (0 = leaf, so the node's own entries are the data entries).
    pub fn subtree_entries(&self, len: usize, level: u8) -> f64 {
        if level == 0 {
            len as f64
        } else {
            len as f64 * self.avg_leaf_entries * self.dir_fanout.powi(level as i32 - 1)
        }
    }
}

/// Analytic estimator of the filter-step candidates one task (a pair of
/// subtrees plus a restriction window) will produce. The morsel planner
/// sizes work units by these estimates; the reassignment policy uses the
/// same numbers as its live `(remaining work, remaining morsels)` load
/// signal.
///
/// The model is the classic uniform-density one: each subtree contributes
/// `entries × clip` objects inside the window (`clip` = the window's share
/// of the subtree MBR), and two uniformly placed objects intersect with the
/// Minkowski probability `min(1, (w_a+w_b)/W) × min(1, (h_a+h_b)/H)`.
#[derive(Debug, Clone, Copy)]
pub struct CandidateEstimator {
    /// Profile of the first tree.
    pub a: TreeProfile,
    /// Profile of the second tree.
    pub b: TreeProfile,
}

impl CandidateEstimator {
    /// Profiles both trees.
    pub fn new(a: &psj_rtree::PagedTree, b: &psj_rtree::PagedTree) -> Self {
        CandidateEstimator {
            a: TreeProfile::scan(a),
            b: TreeProfile::scan(b),
        }
    }

    /// Estimated candidates of the task joining a subtree of `len_a`
    /// entries at `level_a` with MBR `mbr_a` against `len_b`/`level_b`/
    /// `mbr_b`, restricted to `window`. Always ≥ 1: a task exists because
    /// its parents' MBRs intersect, so zero-cost tasks don't.
    #[allow(clippy::too_many_arguments)]
    pub fn estimate(
        &self,
        len_a: usize,
        level_a: u8,
        mbr_a: &Rect,
        len_b: usize,
        level_b: u8,
        mbr_b: &Rect,
        window: &Rect,
    ) -> f64 {
        let clip = |mbr: &Rect| {
            let area = mbr.area();
            if area <= 0.0 {
                1.0
            } else {
                (mbr.overlap_area(window) / area).clamp(0.0, 1.0)
            }
        };
        let ea = self.a.subtree_entries(len_a, level_a) * clip(mbr_a);
        let eb = self.b.subtree_entries(len_b, level_b) * clip(mbr_b);
        let p_axis = |ext_a: f64, ext_b: f64, span: f64| {
            if span <= 0.0 {
                1.0
            } else {
                ((ext_a + ext_b) / span).min(1.0)
            }
        };
        let px = p_axis(self.a.avg_entry_w, self.b.avg_entry_w, window.width());
        let py = p_axis(self.a.avg_entry_h, self.b.avg_entry_h, window.height());
        (ea * eb * px * py).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_bounds() {
        let c = CostModel::paper();
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        // Identical MBRs: maximal degree → 18 ms.
        assert_eq!(c.refinement_time(&a, &a), 18 * MILLIS);
        // Barely touching: minimal degree → 2 ms.
        let b = Rect::new(2.0, 2.0, 4.0, 4.0);
        assert_eq!(c.refinement_time(&a, &b), 2 * MILLIS);
    }

    #[test]
    fn refinement_monotone_in_overlap() {
        let c = CostModel::paper();
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let small = Rect::new(9.0, 9.0, 19.0, 19.0);
        let big = Rect::new(2.0, 2.0, 12.0, 12.0);
        assert!(c.refinement_time(&a, &big) > c.refinement_time(&a, &small));
    }

    #[test]
    fn sweep_time_scales() {
        let c = CostModel::paper();
        assert_eq!(c.sweep_time(0, 0), 0);
        assert_eq!(c.sweep_time(10, 4), 10 * (MICROS / 2) + 4 * 2 * MICROS);
    }

    #[test]
    fn table2_mentions_all_levels() {
        let t = CostModel::table2();
        assert!(t.contains("cache"));
        assert!(t.contains("other processors"));
        assert!(t.contains("32 MB/s"));
    }

    #[test]
    fn remote_access_much_slower_than_local() {
        let c = CostModel::paper();
        assert!(c.mem_remote_page > 2 * c.mem_local_page);
        // ... but both far below a disk read.
        assert!(DiskModel::paper(1).page_read_time() > 10 * c.mem_remote_page);
    }
}
