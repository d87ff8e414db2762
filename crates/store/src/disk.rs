//! The simulated disk array (paper §4.2).
//!
//! Pages are assigned to disks by `page_number mod d` — deliberately
//! *spatially oblivious* placement, as in the paper ("spatial aspects have no
//! impact on the selection of the disk"). A page read costs
//!
//! > average seek 9 ms + average rotational latency 6 ms + 1 ms transfer per
//! > 4 KB page = **16 ms**,
//!
//! and a *data* page access additionally reads the geometry cluster of its
//! entries from the same disk (one seek + latency + transfer of ~26 KB),
//! bringing the paper's quoted average to **37.5 ms**.
//!
//! Contention is modelled by the simulation layer: each disk serves one
//! request at a time, FCFS in virtual-time order (see `psj-desim`); this
//! module only computes service times and placement.

use crate::timing::{millis_f, Nanos, MILLIS};
use serde::{Deserialize, Serialize};

/// Timing and placement model of the simulated disk array.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiskModel {
    /// Number of disks `d`.
    pub num_disks: usize,
    /// Average seek time.
    pub seek: Nanos,
    /// Average rotational latency.
    pub latency: Nanos,
    /// Transfer time for one 4 KB unit.
    pub transfer_per_4k: Nanos,
}

impl DiskModel {
    /// The paper's disk parameters with `d` disks: 9 ms seek, 6 ms latency,
    /// 1 ms per 4 KB.
    pub fn paper(num_disks: usize) -> Self {
        assert!(num_disks > 0, "need at least one disk");
        DiskModel {
            num_disks,
            seek: 9 * MILLIS,
            latency: 6 * MILLIS,
            transfer_per_4k: MILLIS,
        }
    }

    /// Service time for reading one 4 KB page: seek + latency + transfer.
    /// 16 ms with the paper's parameters.
    #[inline]
    pub fn page_read_time(&self) -> Nanos {
        self.seek + self.latency + self.transfer_per_4k
    }

    /// Service time for reading `bytes` of sequentially clustered data in a
    /// separate access (its own seek + latency), rounded up to whole 4 KB
    /// transfer units. For the paper's 26 KB average cluster this is
    /// 9 + 6 + 6.5 = 21.5 ms.
    #[inline]
    pub fn cluster_read_time(&self, bytes: u64) -> Nanos {
        let units_x2 = bytes.div_ceil(2048); // half-4K units for .5 precision
        self.seek + self.latency + units_x2 * self.transfer_per_4k / 2
    }

    /// Service time of a data-page access including its geometry cluster:
    /// page read plus cluster read. 37.5 ms for a 26 KB cluster.
    #[inline]
    pub fn data_page_read_time(&self, cluster_bytes: u64) -> Nanos {
        self.page_read_time() + self.cluster_read_time(cluster_bytes)
    }
}

/// Running statistics of disk activity, kept by the executors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DiskStats {
    /// Completed page reads per disk.
    pub reads_per_disk: Vec<u64>,
    /// Total busy time per disk.
    pub busy_per_disk: Vec<Nanos>,
}

impl DiskStats {
    /// Empty statistics for `d` disks.
    pub fn new(num_disks: usize) -> Self {
        DiskStats {
            reads_per_disk: vec![0; num_disks],
            busy_per_disk: vec![0; num_disks],
        }
    }

    /// Records one read of duration `service` on `disk`.
    pub fn record(&mut self, disk: usize, service: Nanos) {
        self.reads_per_disk[disk] += 1;
        self.busy_per_disk[disk] += service;
    }

    /// Total number of disk accesses across all disks.
    pub fn total_reads(&self) -> u64 {
        self.reads_per_disk.iter().sum()
    }

    /// Total busy time across all disks.
    pub fn total_busy(&self) -> Nanos {
        self.busy_per_disk.iter().sum()
    }
}

/// Converts fractional milliseconds into the model's time unit; re-exported
/// for configuration code.
pub fn ms(v: f64) -> Nanos {
    millis_f(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_page_read_is_16ms() {
        let d = DiskModel::paper(8);
        assert_eq!(d.page_read_time(), 16 * MILLIS);
    }

    #[test]
    fn paper_cluster_read_26kb_is_21_5ms() {
        let d = DiskModel::paper(8);
        assert_eq!(d.cluster_read_time(26 * 1024), millis_f(21.5));
    }

    #[test]
    fn paper_data_page_access_is_37_5ms() {
        let d = DiskModel::paper(8);
        assert_eq!(d.data_page_read_time(26 * 1024), millis_f(37.5));
    }

    #[test]
    fn cluster_rounding_to_half_units() {
        let d = DiskModel::paper(1);
        // 1 byte still pays seek + latency + half a unit.
        assert_eq!(d.cluster_read_time(1), 9 * MILLIS + 6 * MILLIS + MILLIS / 2);
        // Exactly 4 KB: one unit.
        assert_eq!(d.cluster_read_time(4096), 16 * MILLIS);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = DiskStats::new(2);
        s.record(0, 16 * MILLIS);
        s.record(1, 16 * MILLIS);
        s.record(1, millis_f(37.5));
        assert_eq!(s.total_reads(), 3);
        assert_eq!(s.reads_per_disk, vec![1, 2]);
        assert_eq!(s.total_busy(), 32 * MILLIS + millis_f(37.5));
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        let _ = DiskModel::paper(0);
    }
}
