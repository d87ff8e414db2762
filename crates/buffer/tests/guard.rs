//! Stress and property tests for the borrowing guard read path of
//! [`SharedPageCache`]: [`PageGuard`] hands out `&T` straight from the
//! page's slot with no shard mutex, and its pin keeps concurrent fills from
//! choosing that slot. Every payload carries a checksum, so a torn or stale
//! read — a guard observing a replaced page — cannot go unnoticed.

use proptest::prelude::*;
use psj_buffer::{PageRef, PageSource, Policy, SharedPageCache};
use psj_store::{PageError, PageId};

/// A page payload whose consistency is checkable on every read (same
/// construction as `tests/optimistic.rs`).
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
/// different page (stale slot reuse / use-after-free).
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

/// The tentpole's acceptance shape, stated directly: once a page is
/// resident, a guard read serves it with neither mutex nor Arc clone, and
/// the counters say so.
#[test]
fn resident_pages_serve_guard_reads() {
    let cache: SharedPageCache<Checked> = SharedPageCache::new(2, 64, 4, Policy::Lru);
    let src = CheckedSource { pages: 16 };
    for p in 0..16 {
        let v = cache.get(0, PageId(p), &src);
        verify(p, &v);
    }
    for round in 0..5 {
        for p in 0..16u32 {
            let g = cache
                .guard_get(1, PageId(p))
                .unwrap_or_else(|| panic!("resident page {p} must guard-hit (round {round})"));
            verify(p, &g);
        }
    }
    let opt = cache.opt_stats();
    assert_eq!(opt.hits, 80, "every resident read was a guard hit");
    assert_eq!(opt.fallbacks, 0, "uncontended reads never fall back");
    let stats = cache.stats(1);
    assert_eq!(
        stats.hits_remote, 80,
        "guard hits keep BufferStats exact (worker 0 owns the fills)"
    );
    cache.check_invariants().expect("invariants");
}

/// A guard held on a page keeps it resident and readable while the holder
/// itself fills its shard: the fills take the other slot (or, once that
/// is pinned too, are served unbuffered) and never block on or tear the
/// guarded page.
#[test]
fn holding_a_guard_while_filling_its_shard_neither_blocks_nor_evicts_it() {
    // Single shard, capacity 2: cold fills evict deterministically.
    let cache: SharedPageCache<Checked> = SharedPageCache::new(1, 2, 1, Policy::Lru);
    let src = CheckedSource { pages: 64 };
    drop(cache.get(0, PageId(7), &src));
    let guard = cache.guard_get(0, PageId(7)).expect("resident page pins");
    verify(7, &guard);
    // Fill cold pages; the guard is held throughout.
    for p in 20..28 {
        let v = cache.get(0, PageId(p), &src);
        verify(p, &v);
    }
    assert!(cache.contains(PageId(7)), "a guarded page is never evicted");
    assert_eq!(cache.total_stats().evictions, 7, "the other slot churned");
    verify(7, &guard);
    {
        // With both slots held, a fill cannot evict: it is unbuffered.
        let other = cache.get(0, PageId(27), &src);
        let spill = cache.get(0, PageId(30), &src);
        assert!(matches!(spill, PageRef::Unbuffered(_)));
        verify(27, &other);
        verify(30, &spill);
    }
    drop(guard);
    cache
        .check_invariants()
        .expect("every pin is released with its guard");
}

/// A guard read is validated on its own, with no chain to the page read
/// before it: once that page (a descent's parent) is evicted, a guard read
/// of a page that is still resident succeeds, booking one hit and no
/// fallback.
#[test]
fn guard_read_survives_eviction_of_the_previous_page() {
    // Single shard, capacity 3, LRU.
    let cache: SharedPageCache<Checked> = SharedPageCache::new(1, 3, 1, Policy::Lru);
    let src = CheckedSource { pages: 64 };
    // The parent is filled and read first and the child filled last, so
    // the parent is the least and the child the most recently used page.
    drop(cache.get(0, PageId(0), &src));
    let parent = cache.guard_get(0, PageId(0)).expect("resident parent");
    verify(0, &parent);
    drop(parent);
    drop(cache.get(0, PageId(1), &src));
    drop(cache.get(0, PageId(2), &src));
    // A cold fill evicts the parent; the child stays resident.
    drop(cache.get(0, PageId(40), &src));
    assert!(!cache.contains(PageId(0)), "the parent was evicted");
    assert!(cache.contains(PageId(2)), "the child is still resident");

    let (opt, stats) = (cache.opt_stats(), cache.stats(0));
    let child = cache
        .guard_get(0, PageId(2))
        .expect("a resident child guard-reads after its parent's eviction");
    verify(2, &child);
    drop(child);
    let opt = cache.opt_stats().since(&opt);
    let stats = cache.stats(0).since(&stats);
    assert_eq!(opt.hits, 1, "the child read is one guard hit");
    assert_eq!(opt.fallbacks, 0, "the parent's eviction forces no fallback");
    assert_eq!(stats.requests(), 1, "the child read is one request");
    assert_eq!(stats.hits_local, 1);
    cache.check_invariants().expect("invariants");
}

/// Satellite: optimistic hits skip LRU promotion, so without the sampled
/// touch a hammered page looks idle and cold fills evict it. Every
/// `TOUCH_SAMPLE`-th optimistic hit re-touches under the mutex; a page
/// hammered past one sample interval must survive a cold sweep that
/// evicts everything else.
#[test]
fn hammered_page_survives_cold_churn_via_sampled_touch() {
    // Single shard, capacity 4, LRU: fill order 0,1,2,3 leaves page 0 as
    // the LRU victim-elect.
    let cache: SharedPageCache<Checked> = SharedPageCache::new(1, 4, 1, Policy::Lru);
    let src = CheckedSource { pages: 64 };
    for p in 0..4 {
        drop(cache.get(0, PageId(p), &src));
    }
    // Hammer page 0 through the optimistic path. The first sampled hit
    // re-touches it, moving it to the MRU end without taking the mutex on
    // the other 64 hits.
    for _ in 0..65 {
        let v = cache.get(0, PageId(0), &src);
        verify(0, &v);
    }
    let before = cache.opt_stats();
    assert_eq!(before.hits, 65, "the hammer ran optimistically");
    // Three cold fills evict three pages — the untouched 1, 2, 3.
    for p in 10..13 {
        drop(cache.get(0, PageId(p), &src));
    }
    assert_eq!(cache.total_stats().evictions, 3);
    assert!(
        cache.contains(PageId(0)),
        "the hammered page must survive the cold sweep"
    );
    let access = cache.get(0, PageId(0), &src).access();
    assert_ne!(
        access,
        psj_buffer::SharedAccess::Miss,
        "surviving means no refill"
    );
    cache.check_invariants().expect("invariants");
}

/// Readers hold guards on hot pages — keeping them pinned across yields —
/// while churn threads sweep a cold range through a small cache, evicting
/// every unpinned hot page. Checks: a held guard never observes a torn or
/// stale payload (a pinned slot is never refilled), guard hits happen
/// under churn, no request books more than one fallback, and the
/// structural invariants hold at rest.
#[test]
fn guards_survive_concurrent_eviction_churn() {
    const READERS: usize = 4;
    const CHURNERS: usize = 2;
    const HOT: u32 = 8;
    const COLD_LO: u32 = 64;
    const COLD_HI: u32 = 512;

    let cache: SharedPageCache<Checked> =
        SharedPageCache::new(READERS + CHURNERS, 24, 2, Policy::Lru);
    let src = CheckedSource {
        pages: COLD_HI as usize,
    };

    std::thread::scope(|s| {
        for r in 0..READERS {
            let (cache, src) = (&cache, &src);
            s.spawn(move || {
                for i in 0..4000usize {
                    let p = ((i + r) % HOT as usize) as u32;
                    match cache.try_get(r, PageId(p), src).expect("clean source") {
                        PageRef::Guard(guard) => {
                            verify(p, &guard);
                            // Hold the pin across a reschedule so churners
                            // get a chance to evict the page under us,
                            // then read again through the same guard.
                            if i % 16 == 0 {
                                std::thread::yield_now();
                            }
                            verify(p, &guard);
                            // Occasionally perform a fill *while holding
                            // the guard* — the self-eviction shape that
                            // must never deadlock.
                            if i % 64 == 0 {
                                let cold = COLD_LO + (i as u32 * 31 + r as u32) % 64;
                                let v = cache.get(r, PageId(cold), src);
                                verify(cold, &v);
                                verify(p, &guard);
                            }
                        }
                        // Every slot of the shard pinned: served unbuffered.
                        PageRef::Unbuffered(v) => verify(p, &v),
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
                    let v = cache.get(w, PageId(p), src);
                    verify(p, &v);
                }
            });
        }
    });

    cache.check_invariants().expect("invariants after churn");
    assert!(
        cache.opt_stats().hits > 0,
        "hot pages must serve guard hits"
    );
    assert!(cache.total_stats().evictions > 0, "cold sweep must evict");
    // Each request probes the page table once: a request either is a guard
    // hit or books at most one fallback on its way to the mutex path.
    for w in 0..READERS + CHURNERS {
        let (opt, stats) = (cache.opt_stats_for(w), cache.stats(w));
        assert!(
            opt.fallbacks <= stats.requests() - opt.hits,
            "worker {w}: {opt:?} vs {} requests",
            stats.requests()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every access sequence, the guard path and the full read path
    /// observe the same bytes: each step reads one page both ways (guard
    /// first, then `try_get`, which may fill) and requires the results to
    /// be identical and checksum-clean, while up to four older guards are
    /// kept pinned to exercise the pin rule. Ends at rest with invariants.
    #[test]
    fn guard_reads_equal_arc_reads(
        ops in prop::collection::vec((0u32..48, 0u32..2), 1..120)
    ) {
        let cache: SharedPageCache<Checked> = SharedPageCache::new(1, 8, 2, Policy::Lru);
        let src = CheckedSource { pages: 48 };
        let mut held = Vec::new();
        for (page, hold) in ops {
            let hold = hold == 1;
            let p = PageId(page);
            let via_guard = match cache.guard_get(0, p) {
                Some(g) => PageRef::Guard(g),
                None => cache.try_get(0, p, &src).unwrap(),
            };
            verify(page, &via_guard);
            let via_read = cache.try_get(0, p, &src).unwrap();
            prop_assert_eq!(&*via_guard, &*via_read, "paths diverge on page {}", page);
            verify(page, &via_read);
            if hold {
                held.push((page, via_guard));
                if held.len() > 4 {
                    held.remove(0);
                }
            }
            for (hp, hg) in &held {
                verify(*hp, hg);
            }
        }
        drop(held);
        cache.check_invariants().map_err(TestCaseError::fail)?;
    }
}
