//! Property and stress tests for the concurrent sharded page cache,
//! following the invariant style of `properties.rs` / `GlobalBuffer::
//! check_invariants`: after arbitrary access patterns — single- and
//! multi-threaded — capacity is never exceeded, pinned pages never lose
//! their contents, and the per-worker counters exactly account for every
//! access.

use proptest::prelude::*;
use psj_buffer::{PageSource, Policy, SharedAccess, SharedPageCache};
use psj_store::{PageError, PageId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// A source that returns the page number and counts fetches.
struct Numbers {
    fetches: AtomicU64,
    pages: usize,
}

impl Numbers {
    fn new(pages: usize) -> Self {
        Numbers {
            fetches: AtomicU64::new(0),
            pages,
        }
    }

    fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }
}

impl PageSource for Numbers {
    type Item = u64;

    fn fetch_page(&self, page: PageId) -> Result<u64, PageError> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        Ok(page.0 as u64)
    }

    fn page_count(&self) -> usize {
        self.pages
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary single-threaded access sequences: residency never exceeds
    /// capacity, every returned value is correct, and the counters add up.
    #[test]
    fn capacity_and_accounting_hold(
        capacity in 1usize..24,
        shards in 1usize..6,
        accesses in prop::collection::vec(0u32..64, 1..400),
    ) {
        let cache: SharedPageCache<u64> = SharedPageCache::new(1, capacity, shards, Policy::Lru);
        let src = Numbers::new(64);
        for &p in &accesses {
            let v = cache.get(0, PageId(p), &src);
            prop_assert_eq!(*v, p as u64);
            drop(v);
            prop_assert!(cache.len() <= cache.capacity());
        }
        cache.check_invariants().map_err(TestCaseError::fail)?;
        let stats = cache.stats(0);
        prop_assert_eq!(stats.requests(), accesses.len() as u64);
        prop_assert_eq!(stats.misses, src.fetches());
        prop_assert_eq!(stats.hits_remote, 0);
        prop_assert_eq!(stats.hits_in_flight, 0);
        // Evicted pages left residency but the cache never grew past bound.
        prop_assert!(cache.len() <= cache.capacity());
    }

    /// Pages held as guards survive any amount of eviction pressure with
    /// their contents intact (once every slot is pinned, fills are served
    /// unbuffered).
    #[test]
    fn pinned_pages_never_lost(
        pin_pages in prop::collection::vec(0u32..16, 1..8),
        churn in prop::collection::vec(16u32..256, 50..200),
    ) {
        // Tiny cache: the churn pages evict everything repeatedly.
        let cache: SharedPageCache<u64> = SharedPageCache::new(1, 2, 1, Policy::Lru);
        let src = Numbers::new(256);
        let pinned: Vec<_> =
            pin_pages.iter().map(|&p| (p, cache.get(0, PageId(p), &src))).collect();
        for &p in &churn {
            cache.get(0, PageId(p), &src);
        }
        cache.check_invariants().map_err(TestCaseError::fail)?;
        for (p, v) in &pinned {
            prop_assert_eq!(**v, *p as u64, "pinned page {} corrupted", p);
        }
    }

    /// All three replacement policies keep the same structural invariants.
    #[test]
    fn all_policies_stay_bounded(
        policy_idx in 0usize..3,
        accesses in prop::collection::vec(0u32..48, 1..300),
    ) {
        let policy = [Policy::Lru, Policy::Fifo, Policy::Clock][policy_idx];
        let cache: SharedPageCache<u64> = SharedPageCache::new(1, 6, 2, policy);
        let src = Numbers::new(48);
        for &p in &accesses {
            let v = cache.get(0, PageId(p), &src);
            prop_assert_eq!(*v, p as u64);
        }
        prop_assert!(cache.len() <= cache.capacity());
        cache.check_invariants().map_err(TestCaseError::fail)?;
    }
}

/// Multi-threaded stress: every worker hammers a skewed random page set;
/// afterwards the cache is structurally sound, no access was lost, and
/// `hits + misses == accesses` both per worker and in aggregate.
#[test]
fn multithreaded_stress_accounting() {
    const WORKERS: usize = 8;
    const ACCESSES_PER_WORKER: u64 = 20_000;
    const PAGES: u32 = 512;

    for capacity in [8usize, 64, 1024] {
        let cache: SharedPageCache<u64> = SharedPageCache::new(WORKERS, capacity, 4, Policy::Lru);
        let src = Numbers::new(PAGES as usize);
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let cache = &cache;
                let src = &src;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE + w as u64);
                    let mut pins = Vec::new();
                    for i in 0..ACCESSES_PER_WORKER {
                        // Zipf-ish skew: half the traffic on 1/8 of pages.
                        let p = if rng.random_bool(0.5) {
                            rng.random_range(0..PAGES / 8)
                        } else {
                            rng.random_range(0..PAGES)
                        };
                        let v = cache.get(w, PageId(p), src);
                        assert_eq!(*v, p as u64, "worker {w} read wrong page content");
                        if let SharedAccess::HitRemote { owner } = v.access() {
                            assert_ne!(owner, w, "remote hit owned by requester");
                        }
                        // Keep a rotating pin set alive under eviction.
                        if i % 97 == 0 {
                            pins.push((p, v));
                            if pins.len() > 16 {
                                pins.remove(0);
                            }
                        }
                    }
                    for (p, v) in pins {
                        assert_eq!(*v, p as u64, "pinned page {p} corrupted");
                    }
                });
            }
        });

        cache.check_invariants().unwrap();
        assert!(cache.len() <= cache.capacity(), "capacity exceeded");
        let total = cache.total_stats();
        assert_eq!(
            total.requests(),
            WORKERS as u64 * ACCESSES_PER_WORKER,
            "accesses lost or double-counted at capacity {capacity}: {total:?}"
        );
        for w in 0..WORKERS {
            assert_eq!(cache.stats(w).requests(), ACCESSES_PER_WORKER, "worker {w}");
        }
        // Every miss is exactly one source fetch (in-flight dedup).
        assert_eq!(total.misses, src.fetches(), "capacity {capacity}");
        assert!(total.misses >= PAGES as u64 / 8, "suspiciously few misses");
        // With a cache bigger than the page space nothing is ever evicted.
        if capacity >= PAGES as usize {
            assert_eq!(total.evictions, 0);
            assert_eq!(total.misses, PAGES as u64);
        }
    }
}

/// Concurrent requests for the same cold page: exactly one fetch happens,
/// everyone else waits and scores an in-flight or ordinary hit.
#[test]
fn in_flight_dedup_under_contention() {
    const WORKERS: usize = 8;
    let cache: SharedPageCache<u64> = SharedPageCache::new(WORKERS, 16, 1, Policy::Lru);
    let src = Numbers::new(4);
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let cache = &cache;
            let src = &src;
            scope.spawn(move || {
                for p in 0..4u32 {
                    let v = cache.get(w, PageId(p), src);
                    assert_eq!(*v, p as u64);
                }
            });
        }
    });
    assert_eq!(src.fetches(), 4, "a cold page was fetched more than once");
    let total = cache.total_stats();
    assert_eq!(total.misses, 4);
    assert_eq!(total.requests(), WORKERS as u64 * 4);
    cache.check_invariants().unwrap();
}
