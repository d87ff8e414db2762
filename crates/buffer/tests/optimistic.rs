//! Stress tests for the optimistic (guard) read path of
//! [`SharedPageCache`]: readers hammer hot resident pages without taking
//! any shard mutex while churn threads drive evictions, quarantines, and
//! fault retries through the mutex path. Every payload carries
//! a checksum, so a torn read (a reader observing a page mid-replacement)
//! cannot go unnoticed. The one race the churn cannot be counted on to hit
//! — a reader losing its slot to a replacement — is forced through the
//! cache's schedule point instead.

use psj_buffer::{FaultSource, OptStats, PageSource, Policy, SharedAccess, SharedPageCache};
use psj_store::{FaultPlan, PageError, PageId, RetryPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// A page payload whose consistency is checkable on every read.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Checked {
    vals: [u64; 4],
    sum: u64,
}

/// Deterministic per-(page, slot) filler (SplitMix64-style finalizer).
fn mix(page: u32, slot: u64) -> u64 {
    let mut x = (page as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(slot.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    x ^= x >> 31;
    x.wrapping_mul(0x94D0_49BB_1331_11EB)
}

fn expect_page(page: u32) -> Checked {
    let vals = [mix(page, 0), mix(page, 1), mix(page, 2), mix(page, 3)];
    let sum = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    Checked { vals, sum }
}

/// Panics if `got` is internally inconsistent (torn) or belongs to a
/// different page (stale slot reuse).
fn verify(page: u32, got: &Checked) {
    let recomputed = got.vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    assert_eq!(got.sum, recomputed, "torn payload on page {page}: {got:?}");
    assert_eq!(got, &expect_page(page), "wrong payload on page {page}");
}

struct CheckedSource {
    pages: usize,
}

impl PageSource for CheckedSource {
    type Item = Checked;

    fn fetch_page(&self, page: PageId) -> Result<Checked, PageError> {
        Ok(expect_page(page.0))
    }

    fn page_count(&self) -> usize {
        self.pages
    }
}

/// A [`CheckedSource`] that logs every page it is asked for.
struct LoggedSource {
    fetched: Mutex<Vec<u32>>,
}

impl PageSource for LoggedSource {
    type Item = Checked;

    fn fetch_page(&self, page: PageId) -> Result<Checked, PageError> {
        self.fetched.lock().unwrap().push(page.0);
        Ok(expect_page(page.0))
    }

    fn page_count(&self) -> usize {
        1024
    }
}

/// A guard read whose slot is replaced between the page-table probe and
/// its pin fails validation, books exactly one fallback, and still returns
/// its own page through the mutex path. The schedule point parks the
/// reader in that window while another worker's cold fills really evict
/// both resident pages and reuse their slots, so the collision happens on
/// every run rather than when the scheduler happens to allow it.
#[test]
fn a_replaced_slot_forces_exactly_one_fallback() {
    const FILLER: usize = 0;
    const READER: usize = 1;
    const CHURNER: usize = 2;
    const HOT: u32 = 7;
    const WARM: u32 = 8;
    let cache: SharedPageCache<Checked> = SharedPageCache::new(3, 2, 1, Policy::Lru);
    let src = LoggedSource {
        fetched: Mutex::new(Vec::new()),
    };
    for p in [HOT, WARM] {
        verify(p, &cache.get(FILLER, PageId(p), &src));
    }

    let (parked, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let fired = AtomicBool::new(false);
    {
        let (parked, release) = (Arc::clone(&parked), Arc::clone(&release));
        cache.set_schedule_point(move |worker, page| {
            if worker == READER && page == PageId(HOT) && !fired.swap(true, Ordering::SeqCst) {
                parked.wait();
                release.wait();
            }
        });
    }
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let got = cache
                .try_get(READER, PageId(HOT), &src)
                .expect("clean page");
            verify(HOT, &got);
            got.access()
        });
        // The reader has found HOT's slot and not pinned it yet.
        parked.wait();
        for p in [100, 101] {
            verify(p, &cache.get(CHURNER, PageId(p), &src));
        }
        assert_eq!(
            cache.stats(CHURNER).evictions,
            2,
            "the cold fills must evict both resident pages"
        );
        release.wait();
        assert_eq!(
            reader.join().expect("reader"),
            SharedAccess::Miss,
            "the reader refills its page"
        );
    });

    assert_eq!(
        cache.opt_stats_for(READER),
        OptStats {
            hits: 0,
            fallbacks: 1
        },
        "one failed validation, counted once"
    );
    assert_eq!(cache.opt_stats().fallbacks, 1);
    assert_eq!(
        *src.fetched.lock().unwrap(),
        vec![HOT, WARM, 100, 101, HOT],
        "HOT's slot was really reused, and HOT fetched again"
    );
    cache.check_invariants().expect("invariants");
}

/// The acceptance criterion, stated directly: once a page is resident,
/// every further hit is served by the optimistic path (no shard mutex),
/// with zero failed validations when nothing mutates concurrently.
#[test]
fn resident_hits_are_served_optimistically() {
    let cache: SharedPageCache<Checked> = SharedPageCache::new(1, 64, 4, Policy::Lru);
    let src = CheckedSource { pages: 32 };
    for p in 0..32 {
        let v = cache.get(0, PageId(p), &src);
        verify(p, &v);
    }
    let base = cache.opt_stats();
    assert_eq!(base.hits, 0, "cold fills go through the mutex path");
    for _ in 0..10 {
        for p in 0..32 {
            let v = cache.get(0, PageId(p), &src);
            verify(p, &v);
        }
    }
    let d = cache.opt_stats().since(&base);
    assert_eq!(
        d.hits, 320,
        "every resident-page hit avoids the shard mutex"
    );
    assert_eq!(d.fallbacks, 0, "uncontended reads never fall back");
    let stats = cache.stats(0);
    assert_eq!(stats.hits_local, 320, "optimistic hits still count as hits");
    assert_eq!(stats.misses, 32);
    cache.check_invariants().expect("invariants");
}

/// Per-worker striped counters aggregate exactly, and the snapshot carries
/// the same numbers.
#[test]
fn opt_counters_aggregate_across_workers() {
    let cache: SharedPageCache<Checked> = SharedPageCache::new(3, 64, 2, Policy::Lru);
    let src = CheckedSource { pages: 16 };
    for w in 0..3 {
        for p in 0..16 {
            let v = cache.get(w, PageId(p), &src);
            verify(p, &v);
        }
    }
    let summed = (0..3).fold(psj_buffer::OptStats::default(), |acc, w| {
        acc.merged(&cache.opt_stats_for(w))
    });
    assert_eq!(summed, cache.opt_stats(), "striped counters aggregate");
    // Worker 0 filled everything; workers 1 and 2 only ever hit.
    assert_eq!(cache.opt_stats_for(1).hits, 16);
    assert_eq!(cache.opt_stats_for(2).hits, 16);
}

/// Readers hammer clean hot pages while churn workers sweep a large cold
/// range through a small cache: evictions, quarantines (injected
/// corruption), and fault retries (injected transients) all mutate shards
/// under the optimistic readers. Checks:
///
/// * no torn or stale payload is ever observed (checksums verify),
/// * optimistic hits happen under churn,
/// * every injected transient is absorbed as exactly one counted retry,
/// * corrupt pages end up quarantined,
/// * the cache's structural invariants hold at rest,
///
/// in each of 24 rounds with fresh fault seeds. Whether a reader collides
/// with a replacement here is up to the scheduler;
/// `a_replaced_slot_forces_exactly_one_fallback` forces that collision.
#[test]
fn optimistic_reads_survive_concurrent_churn() {
    const READERS: usize = 4;
    const CHURNERS: usize = 2;
    const COLD_LO: u32 = 64;
    const COLD_HI: u32 = 512;
    const ROUNDS: u64 = 24;

    for round in 0..ROUNDS {
        let plan = Arc::new(
            FaultPlan::new(42 + round)
                .with_transient(0.05, 1)
                .with_flip(0.03),
        );
        // Hot pages must be permanently clean so readers always succeed
        // (transient faults on them are fine: retries absorb those).
        let hot: Vec<u32> = (0..16)
            .filter(|&p| plan.permanent_class(PageId(p)).is_none())
            .take(8)
            .collect();
        assert!(hot.len() >= 4, "seed left too few clean hot pages");

        let cache: SharedPageCache<Checked> =
            SharedPageCache::new(READERS + CHURNERS, 48, 4, Policy::Lru)
                .with_retry(RetryPolicy::attempts(4));
        let src = FaultSource::new(
            CheckedSource {
                pages: COLD_HI as usize,
            },
            Arc::clone(&plan),
        );

        std::thread::scope(|s| {
            for r in 0..READERS {
                let (cache, src, hot) = (&cache, &src, &hot);
                s.spawn(move || {
                    for i in 0..4000 {
                        let p = hot[(i + r) % hot.len()];
                        match cache.try_get(r, PageId(p), src) {
                            Ok(v) => verify(p, &v),
                            Err(e) => panic!("clean hot page {p} failed: {e}"),
                        }
                    }
                });
            }
            for c in 0..CHURNERS {
                let (cache, src) = (&cache, &src);
                s.spawn(move || {
                    let w = READERS + c;
                    let span = COLD_HI - COLD_LO;
                    for i in 0..3000u32 {
                        let p = COLD_LO + (i.wrapping_mul(17).wrapping_add(c as u32 * 131)) % span;
                        match cache.try_get(w, PageId(p), src) {
                            Ok(v) => verify(p, &v),
                            // Corrupt / quarantined pages are the point of
                            // the churn; transients were retried away.
                            Err(e) => assert!(
                                e.is_corrupt() || cache.is_quarantined(PageId(p)),
                                "unexpected error on page {p}: {e}"
                            ),
                        }
                    }
                });
            }
        });

        cache.check_invariants().expect("invariants after churn");
        let stats = cache.total_stats();
        let opt = cache.opt_stats();
        assert!(opt.hits > 0, "hot pages must serve optimistic hits");
        assert!(stats.evictions > 0, "cold sweep must evict");
        assert!(
            cache.quarantined_pages() > 0,
            "injected corruption must quarantine"
        );
        assert_eq!(
            stats.retries,
            plan.transient_injected(),
            "every injected transient is exactly one counted retry"
        );
    }
}
