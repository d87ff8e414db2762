//! The one estimator rule every timing metric goes through.
//!
//! The timed phase is cut into consecutive blocks of operations. Each block
//! yields its median, its p90 and its process-CPU time per operation; the
//! reported value is the **lower quartile across blocks**. Interference on
//! a shared host only ever makes a block slower, so the lower quartile
//! measures the program whenever at least a quarter of the run was
//! undisturbed — unlike a whole-run mean or a pooled tail percentile, which
//! move with every busy episode of a neighbour.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const BEYOND: usize = 10;

/// Blocks whose median lies within this share of the reported quartile
/// count as quiet (`host.quiet_block_share`).
const QUIET_BAND: f64 = 0.05;

/// Index of the `pct`-th percentile in a sorted slice of `n` samples, by
/// the nearest-rank rule: the smallest index with at least `pct` percent of
/// the samples at or below it.
pub fn rank_index(n: usize, pct: usize) -> usize {
    assert!(n > 0 && (1..=100).contains(&pct));
    (n * pct).div_ceil(100) - 1
}

/// Median of a sorted slice (nearest rank).
pub fn median(sorted: &[f64]) -> f64 {
    sorted[rank_index(sorted.len(), 50)]
}

/// p90 of a sorted slice, or `None` when fewer than [`BEYOND`] samples lie
/// beyond it (a block shorter than 100 samples has no p90).
pub fn p90(sorted: &[f64]) -> Option<f64> {
    let i = rank_index(sorted.len(), 90);
    (sorted.len() - 1 - i >= BEYOND).then(|| sorted[i])
}

/// Quantile `q` of unsorted values, linearly interpolated between ranks
/// (blocks are few, so nearest rank would jump).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = q * (v.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// What one block of operations measured.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Median latency of the block's operations, ms.
    pub median_ms: f64,
    /// p90 latency of the block's operations, ms.
    pub p90_ms: f64,
    /// Process CPU time spent during the block ÷ its operations, ms.
    pub cpu_ms_per_op: f64,
}

impl Block {
    /// Summarises one block from its latencies (any order) and the process
    /// CPU time that passed while it ran.
    ///
    /// # Panics
    ///
    /// Panics when the block is too short to have a p90: block sizes are
    /// constants of the benchmark, so that is a bug, not an input.
    pub fn new(latencies_ms: &mut [f64], cpu_ms: f64) -> Block {
        latencies_ms.sort_by(f64::total_cmp);
        Block {
            median_ms: median(latencies_ms),
            p90_ms: p90(latencies_ms).expect("a block holds at least 100 samples"),
            cpu_ms_per_op: cpu_ms / latencies_ms.len() as f64,
        }
    }
}

/// The three timing metrics of a run plus how much of it was undisturbed.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    /// Lower quartile over blocks of the block median, ms.
    pub op_ms_p50: f64,
    /// Lower quartile over blocks of the block p90, ms.
    pub op_ms_p90: f64,
    /// Lower quartile over blocks of CPU time per operation, ms.
    pub cpu_ms_per_op: f64,
    /// Share of blocks whose median is within 5 % of `op_ms_p50`.
    pub quiet_block_share: f64,
}

/// Applies the estimator rule to the blocks of a timed phase.
pub fn estimate(blocks: &[Block]) -> Estimate {
    let col = |f: fn(&Block) -> f64| blocks.iter().map(f).collect::<Vec<f64>>();
    let medians = col(|b| b.median_ms);
    let op_ms_p50 = quantile(&medians, 0.25);
    let quiet = medians
        .iter()
        .filter(|m| (**m - op_ms_p50).abs() <= QUIET_BAND * op_ms_p50)
        .count();
    Estimate {
        op_ms_p50,
        op_ms_p90: quantile(&col(|b| b.p90_ms), 0.25),
        cpu_ms_per_op: quantile(&col(|b| b.cpu_ms_per_op), 0.25),
        quiet_block_share: quiet as f64 / blocks.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_indices_are_exact() {
        assert_eq!(rank_index(100, 50), 49);
        assert_eq!(rank_index(100, 90), 89);
        assert_eq!(rank_index(500, 90), 449);
        assert_eq!(rank_index(101, 50), 50);
        assert_eq!(rank_index(1, 90), 0);
        assert_eq!(rank_index(10, 100), 9);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (0..100).map(f64::from).collect();
        // Index 89 leaves exactly 90..=99 beyond it.
        assert_eq!(p90(&sorted), Some(89.0));
        assert_eq!(p90(&sorted[..99]), None);
        assert_eq!(p90(&sorted[..50]), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    /// A deterministic series with a little jitter and a tail, cut into
    /// 100-op blocks; `slow` multiplies every sample of the chosen blocks.
    fn blocks(n_blocks: usize, slow: impl Fn(usize) -> f64) -> Vec<Block> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n_blocks)
            .map(|b| {
                let mut lat: Vec<f64> = (0..100)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let jitter = (state >> 40) as f64 / (1u64 << 24) as f64;
                        let tail = if i % 10 == 9 { 3.0 } else { 0.0 };
                        (10.0 + 0.2 * jitter + tail) * slow(b)
                    })
                    .collect();
                Block::new(&mut lat, 1000.0 * slow(b))
            })
            .collect()
    }

    #[test]
    fn slow_episode_over_half_the_run_does_not_move_the_estimate() {
        let quiet = estimate(&blocks(16, |_| 1.0));
        // A neighbour makes the second half of the run 1.4x slower.
        let noisy = estimate(&blocks(16, |b| if b >= 8 { 1.4 } else { 1.0 }));
        for (q, n) in [
            (quiet.op_ms_p50, noisy.op_ms_p50),
            (quiet.op_ms_p90, noisy.op_ms_p90),
            (quiet.cpu_ms_per_op, noisy.cpu_ms_per_op),
        ] {
            assert!((n - q).abs() <= 0.01 * q, "quiet {q} vs disturbed {n}");
        }
        assert_eq!(quiet.quiet_block_share, 1.0);
        assert_eq!(noisy.quiet_block_share, 0.5);
        // The whole-run mean, for contrast, moves by a fifth.
        let mean = |bs: &[Block]| bs.iter().map(|b| b.median_ms).sum::<f64>() / bs.len() as f64;
        let (mq, mn) = (
            mean(&blocks(16, |_| 1.0)),
            mean(&blocks(16, |b| if b >= 8 { 1.4 } else { 1.0 })),
        );
        assert!(mn > 1.15 * mq);
    }
}
