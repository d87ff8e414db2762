//! Seeded steal-victim order for adversarial interleaving tests.
//!
//! [`StealOrder`] is a fault-plan-style seeded shim that perturbs the order
//! in which an idle worker probes steal victims. The native executor's
//! `StealPolicy::Seeded` consults it, so a test sweeping seeds forces many
//! distinct steal interleavings and can assert that the deterministic merge
//! produces byte-identical output under every one of them.

/// SplitMix64: the 64-bit finalizer used to derive per-decision hashes from
/// a seed. Small, well-distributed, and dependency-free.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fault-plan-style seeded shim over steal victim order: the same seed
/// reproduces the same probe order for every `(thief, attempt)` pair, and
/// different seeds exercise different interleavings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealOrder {
    seed: u64,
}

impl StealOrder {
    /// A shim for the given seed.
    pub fn new(seed: u64) -> Self {
        StealOrder { seed }
    }

    /// The first victim (in `0..n`) worker `thief` probes on its
    /// `attempt`-th steal attempt; probing continues circularly from there.
    /// May return `thief` itself — callers skip their own queue.
    pub fn first_victim(&self, thief: usize, attempt: u64, n: usize) -> usize {
        assert!(n > 0, "need at least one victim candidate");
        let h = splitmix64(self.seed ^ ((thief as u64) << 32) ^ attempt);
        (h % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_order_shim_is_deterministic() {
        let s = StealOrder::new(7);
        for thief in 0..4 {
            for attempt in 0..10 {
                let v = s.first_victim(thief, attempt, 4);
                assert!(v < 4);
                assert_eq!(v, StealOrder::new(7).first_victim(thief, attempt, 4));
            }
        }
        // Distinct seeds must disagree somewhere.
        let differs = (0..32).any(|seed| {
            StealOrder::new(seed).first_victim(1, 1, 8) != StealOrder::new(7).first_victim(1, 1, 8)
        });
        assert!(differs);
    }
}
