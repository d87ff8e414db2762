//! Metrics collected by the executors — the quantities the paper's figures
//! plot.

use crate::partition::JoinEngine;
use psj_buffer::BufferStats;
use psj_store::timing::to_secs;
use psj_store::Nanos;
use serde::{Deserialize, Serialize};

/// Everything one parallel join run reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinMetrics {
    /// Number of processors used.
    pub num_procs: usize,
    /// Number of disks used.
    pub num_disks: usize,
    /// Number of tasks created in phase 1 (the paper's `m`).
    pub tasks: usize,
    /// Wall-clock (virtual) time from start to the last computed pair — the
    /// paper's *response time*, determined by the processor finishing last.
    pub response_time: Nanos,
    /// Per-processor completion times (Figure 7's vertical bars).
    pub proc_finish: Vec<Nanos>,
    /// Per-processor busy time: completion time minus time spent parked
    /// with no work. Their sum is the paper's "total run time of all tasks".
    pub proc_busy: Vec<Nanos>,
    /// Total number of disk accesses (the y axis of Figures 5, 8, 10).
    pub disk_accesses: u64,
    /// Disk accesses that read directory pages.
    pub dir_page_reads: u64,
    /// Disk accesses that read data pages (incl. their geometry clusters).
    pub data_page_reads: u64,
    /// Aggregated buffer statistics.
    pub buffer: BufferStats,
    /// Candidate pairs produced (and refined) by the filter step.
    pub candidates: u64,
    /// Number of successful task reassignments.
    pub reassignments: u64,
    /// Number of times an idle processor found nothing to steal.
    pub steals_failed: u64,
}

impl JoinMetrics {
    /// Response time in seconds.
    pub fn response_secs(&self) -> f64 {
        to_secs(self.response_time)
    }

    /// Sum of the per-processor busy times — the paper's "total run time of
    /// all tasks" — in seconds.
    pub fn total_busy_secs(&self) -> f64 {
        to_secs(self.proc_busy.iter().sum())
    }

    /// Earliest per-processor completion, in seconds (Figure 7 lower tick).
    pub fn min_finish_secs(&self) -> f64 {
        to_secs(self.proc_finish.iter().copied().min().unwrap_or(0))
    }

    /// Mean per-processor completion, in seconds (Figure 7 middle tick).
    pub fn avg_finish_secs(&self) -> f64 {
        if self.proc_finish.is_empty() {
            0.0
        } else {
            to_secs(self.proc_finish.iter().sum::<Nanos>()) / self.proc_finish.len() as f64
        }
    }

    /// Latest per-processor completion, in seconds (equals the response
    /// time; Figure 7 upper tick).
    pub fn max_finish_secs(&self) -> f64 {
        to_secs(self.proc_finish.iter().copied().max().unwrap_or(0))
    }
}

/// Per-morsel attribution recorded by both real-thread engines on every
/// run: what one morsel cost the worker that executed it. These are the
/// quantities behind the paper's Figures 7–9 — per-processor page accesses,
/// local vs. remote buffer hits, and the task-time skew that dynamic
/// assignment is meant to flatten — surfaced per morsel instead of per run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TaskTrace {
    /// Worker that executed the task.
    pub worker: usize,
    /// Morsel this segment executed: the executor records exactly one
    /// trace per morsel it takes, keyed by its plane-sweep id.
    pub morsel: u32,
    /// Phase-1 (post-split) tasks contained in the morsel.
    pub tasks: u32,
    /// Node pairs expanded while executing the task (descendants included).
    pub node_pairs: u64,
    /// Filter-step candidates produced (and, if enabled, refined).
    pub candidates: u64,
    /// Node/page requests issued: cache requests when buffered, node
    /// fetches otherwise.
    pub pages: u64,
    /// Cache hits on pages this worker itself faulted in.
    pub hits_local: u64,
    /// Cache hits on pages another worker faulted in (the accesses the
    /// paper charges with the interconnect penalty).
    pub hits_remote: u64,
    /// Cache misses (pages fetched from the source).
    pub misses: u64,
    /// Page-fetch retries absorbed inside the cache.
    pub retries: u64,
    /// Wall-clock time from acquiring the task to finishing it.
    pub wall: std::time::Duration,
    /// Engine that executed the morsel ([`JoinEngine::RTree`] for native
    /// tree-traversal morsels, [`JoinEngine::Partition`] for grid cells).
    pub engine: JoinEngine,
    /// Grid-replicated item placements touched by this morsel's cells
    /// (always 0 for the R-tree engine, which never replicates).
    pub replicated: u64,
    /// Cross-cell duplicate pairs this morsel suppressed via the
    /// reference-point test (always 0 for the R-tree engine).
    pub deduped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use psj_store::SECS;

    fn metrics(finish: Vec<Nanos>) -> JoinMetrics {
        JoinMetrics {
            num_procs: finish.len(),
            num_disks: finish.len(),
            tasks: 0,
            response_time: finish.iter().copied().max().unwrap_or(0),
            proc_busy: finish.clone(),
            proc_finish: finish,
            disk_accesses: 0,
            dir_page_reads: 0,
            data_page_reads: 0,
            buffer: BufferStats::default(),
            candidates: 0,
            reassignments: 0,
            steals_failed: 0,
        }
    }

    #[test]
    fn finish_statistics() {
        let m = metrics(vec![2 * SECS, 4 * SECS, 6 * SECS]);
        assert_eq!(m.min_finish_secs(), 2.0);
        assert_eq!(m.avg_finish_secs(), 4.0);
        assert_eq!(m.max_finish_secs(), 6.0);
        assert_eq!(m.response_secs(), 6.0);
        assert_eq!(m.total_busy_secs(), 12.0);
    }

    #[test]
    fn empty_metrics_do_not_panic() {
        let m = metrics(vec![]);
        assert_eq!(m.avg_finish_secs(), 0.0);
        assert_eq!(m.max_finish_secs(), 0.0);
    }
}
