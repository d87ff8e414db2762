//! Buffer access statistics.

use serde::{Deserialize, Serialize};

/// Counters kept per buffer manager (and per processor where that makes
/// sense). "Disk accesses" in the paper's figures equals [`misses`].
///
/// [`misses`]: BufferStats::misses
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferStats {
    /// Hits served from the requesting processor's own memory.
    pub hits_local: u64,
    /// Always 0: the per-worker L1 front that counted here is gone. The
    /// field stays only because `benchmark/` still reads it.
    pub hits_l1: u64,
    /// Hits served from another processor's partition over the interconnect
    /// (global buffer only).
    pub hits_remote: u64,
    /// Hits on an in-flight disk read issued by another processor: the
    /// requester waits for that read instead of issuing its own.
    pub hits_in_flight: u64,
    /// Misses, i.e. actual disk reads.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Hits on the R\*-tree path buffers (bypass the page buffer entirely).
    pub hits_path: u64,
    /// Fetch attempts retried under the cache's `RetryPolicy` after a
    /// transient source error (each retry of each fill counts once).
    pub retries: u64,
}

impl BufferStats {
    /// Total page requests that reached the buffer layer (excludes path
    /// buffer hits, which are absorbed before the buffer is consulted).
    pub fn requests(&self) -> u64 {
        self.hits_local + self.hits_l1 + self.hits_remote + self.hits_in_flight + self.misses
    }

    /// Hit ratio over buffer-layer requests, in `[0, 1]`; 0 when idle.
    pub fn hit_ratio(&self) -> f64 {
        let r = self.requests();
        if r == 0 {
            0.0
        } else {
            (r - self.misses) as f64 / r as f64
        }
    }

    /// Element-wise difference against an earlier snapshot of the same
    /// counters, isolating the activity between the two observations.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via underflow) if `earlier` is not actually
    /// an earlier snapshot — counters only grow.
    pub fn since(&self, earlier: &BufferStats) -> BufferStats {
        BufferStats {
            hits_local: self.hits_local - earlier.hits_local,
            hits_l1: self.hits_l1 - earlier.hits_l1,
            hits_remote: self.hits_remote - earlier.hits_remote,
            hits_in_flight: self.hits_in_flight - earlier.hits_in_flight,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            hits_path: self.hits_path - earlier.hits_path,
            retries: self.retries - earlier.retries,
        }
    }

    /// Element-wise sum, for aggregating per-processor counters.
    pub fn merged(&self, other: &BufferStats) -> BufferStats {
        BufferStats {
            hits_local: self.hits_local + other.hits_local,
            hits_l1: self.hits_l1 + other.hits_l1,
            hits_remote: self.hits_remote + other.hits_remote,
            hits_in_flight: self.hits_in_flight + other.hits_in_flight,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            hits_path: self.hits_path + other.hits_path,
            retries: self.retries + other.retries,
        }
    }
}

/// Counters for the guard read path of
/// [`SharedPageCache`](crate::SharedPageCache), kept separately from
/// [`BufferStats`] so the wire format and every existing reconciliation
/// (`BufferStats` vs `TaskTrace`) are unchanged: a guard hit is still
/// counted as a local/remote hit in [`BufferStats`]; these counters only
/// say *how* the read path got there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptStats {
    /// Hits served without taking the shard mutex (a validated guard).
    pub hits: u64,
    /// Reads that went to the mutex path after a failed validation: the
    /// page table named a slot whose own tag no longer held the page (it
    /// was being replaced). A request validates once, so this is at most
    /// one per request.
    pub fallbacks: u64,
}

impl OptStats {
    /// Element-wise sum, for aggregating per-worker counters.
    pub fn merged(&self, other: &OptStats) -> OptStats {
        OptStats {
            hits: self.hits + other.hits,
            fallbacks: self.fallbacks + other.fallbacks,
        }
    }

    /// Element-wise difference against an earlier snapshot (see
    /// [`BufferStats::since`]).
    pub fn since(&self, earlier: &OptStats) -> OptStats {
        OptStats {
            hits: self.hits - earlier.hits,
            fallbacks: self.fallbacks - earlier.fallbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_stats_merge_and_since() {
        let a = OptStats {
            hits: 5,
            fallbacks: 0,
        };
        let b = OptStats {
            hits: 2,
            fallbacks: 1,
        };
        let m = a.merged(&b);
        assert_eq!(
            m,
            OptStats {
                hits: 7,
                fallbacks: 1,
            }
        );
        assert_eq!(m.since(&b), a);
    }

    #[test]
    fn hit_ratio_zero_when_idle() {
        assert_eq!(BufferStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_counts_all_hit_kinds() {
        let s = BufferStats {
            hits_local: 2,
            hits_remote: 1,
            hits_in_flight: 1,
            misses: 4,
            ..Default::default()
        };
        assert_eq!(s.requests(), 8);
        assert_eq!(s.hit_ratio(), 0.5);
    }

    #[test]
    fn merged_adds_fields() {
        let a = BufferStats {
            hits_local: 1,
            misses: 2,
            retries: 3,
            ..Default::default()
        };
        let b = BufferStats {
            hits_local: 3,
            evictions: 1,
            retries: 1,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.hits_local, 4);
        assert_eq!(m.misses, 2);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.retries, 4);
    }

    #[test]
    fn since_subtracts_retries() {
        let earlier = BufferStats {
            retries: 2,
            misses: 5,
            ..Default::default()
        };
        let later = BufferStats {
            retries: 7,
            misses: 9,
            ..Default::default()
        };
        let d = later.since(&earlier);
        assert_eq!(d.retries, 5);
        assert_eq!(d.misses, 4);
    }
}
