//! A concurrent, lock-sharded page cache for the native executor.
//!
//! The paper's buffer layer ([`crate::LocalBuffers`], [`crate::GlobalBuffer`])
//! is single-threaded: the discrete-event simulator interleaves processors
//! deterministically, so plain `&mut` access suffices. The native executor
//! runs real OS threads, which need a cache that is *correct under
//! concurrency* while preserving the paper's semantics:
//!
//! * bounded residency — at most `capacity` pages cached across all shards,
//! * single fetch per page — concurrent requesters of a non-resident page
//!   wait for the one in-flight load instead of fetching twice (the paper's
//!   §3.1 in-flight mechanism, here a per-shard condvar),
//! * per-worker [`BufferStats`] distinguishing local hits, *remote* hits
//!   (page cached by a different worker — the global organization's
//!   interconnect traffic), in-flight waits, misses, and evictions,
//! * pluggable replacement [`Policy`] via the existing [`PageBuffer`]
//!   machinery, LRU by default.
//!
//! The cache is generic over what a page decodes to (`T`): the native join
//! caches decoded R\*-tree nodes, the pager tests cache raw 4 KB pages.
//! Values are handed out as `Arc<T>`, so a page a worker is still using
//! ("pinned") stays valid even if the cache evicts it concurrently —
//! eviction only drops the cache's reference.
//!
//! Sharding: a page's shard is `hash(page) % shards`. Each shard has its own
//! mutex, residency buffer (`capacity / shards` pages, ≥ 1), and condvar, so
//! disjoint pages contend only 1/N of the time. With `shards == 1` the cache
//! degenerates to a single global lock — the configuration a per-worker
//! *local* buffer uses, since it is uncontended anyway.
//!
//! ## Failure handling
//!
//! Fills are fallible and typed ([`psj_store::PageError`]). The cache owns
//! the retry policy for the whole stack: a transient source error is
//! retried in place under the cache's [`RetryPolicy`] (counted in
//! [`BufferStats::retries`]), so neither the pager below nor the executor
//! above needs its own loop. A *corrupt* fill (checksum mismatch) is never
//! retried — the page is **quarantined** in its shard: the original error
//! is stored and replayed to every later requester without touching the
//! source again, so one poisoned page degrades exactly the requests that
//! need it while the device is spared a re-read storm.
//!
//! ## Optimistic reads (seqlock)
//!
//! Hits on resident pages take **no shard mutex**. Each shard carries a
//! version-stamped seqlock word (odd = a structural mutation is in
//! progress) plus a fixed open-addressed *mirror* of atomic slots — one
//! `(tag, owner, payload pointer, pin count)` quadruple per resident page.
//! A reader snapshots the version, probes the mirror, *pins* the matching
//! slot, re-validates the version, and only then clones the `Arc` out of
//! the slot; any mismatch unpins and retries, and after
//! [`OPT_ATTEMPTS`](SharedPageCache) failed validations the read falls
//! back to the pessimistic mutex path (a bounded `repeat`-style protocol).
//! Mutations — fills, evictions, quarantine — keep the mutex+condvar write
//! path but bump the version to odd around every *removal* and wait for
//! the victim slot's pin count to drain before freeing its payload, so a
//! validated pin is a guarantee the pointee outlives the clone. Inserts
//! into empty slots publish the tag last (release) and need no version
//! bump, which preserves the old `generation` semantics exactly: the word
//! advances precisely when a resident page leaves the shard, and the
//! per-worker [`L1Front`](crate::L1Front) keeps validating against it via
//! [`SharedPageCache::shard_generation`]. Optimistic hits skip replacement
//! promotion (`touch`) by design — a hot page served optimistically is,
//! by definition, recently used, and the pessimistic path still promotes.
//! Per-read statistics are striped per worker (relaxed atomics on
//! cacheline-padded counters), so a hot root page never touches a
//! contended line; the seqlock-path counters are surfaced separately as
//! [`OptStats`].
//!
//! ## Borrowing guards and coupled descent
//!
//! [`PageGuard`] is the zero-copy variant of the optimistic read: instead
//! of cloning the `Arc` under the pin and releasing it, the winning read
//! *keeps* its pin and hands out `&T` directly — no refcount traffic at
//! all on the hot descent path. To make that safe, removal no longer
//! waits for pins to drain: a reader may legitimately hold a guard on the
//! victim page *while* performing the pessimistic fill that evicts it, so
//! a pin-drain wait would deadlock against the waiter's own pin. Instead
//! [`Shard::mirror_remove`] clears the slot and, if pins remain, retires
//! the payload's strong reference to a per-shard *graveyard* that later
//! sweeps free once the pins drain. The Dekker pairing is unchanged:
//! either the reader's validation fails, or its pin is visible to the
//! remover — which now defers the free instead of spinning on it.
//!
//! [`OptCoupling`] chains guard reads across the levels of a descent
//! (umolc-style coupled validation): acquiring the child guard
//! revalidates the parent's seqlock version, so a root-to-leaf path forms
//! one validation chain. A version advance with the parent still resident
//! *renews* the chain; a vanished parent *breaks* it — the child guard is
//! dropped and the caller falls back per-page to the pessimistic path,
//! so correctness never depends on the chain.
//!
//! Because optimistic and guard hits skip replacement promotion, every
//! [`TOUCH_SAMPLE`]-th such hit per worker re-touches the page under a
//! `try_lock`, keeping hammered pages near the MRU end of their shard's
//! replacement order even when cold fills churn it.

use crate::policy::{PageBuffer, Policy};
use crate::stats::{BufferStats, OptStats};
use psj_store::{lock_clean, wait_clean, FaultPlan, Page, PageError, PageId, RetryPolicy};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Where a page's bytes come from on a cache miss.
///
/// Implemented by the disk-backed [`psj_store::FilePager`] (raw pages) and,
/// in `psj-core`, by an adapter over `PagedTree` (decoded nodes).
pub trait PageSource {
    /// What a fetched page decodes to.
    type Item;

    /// Fetches/decodes `page`. Called outside all cache locks; concurrent
    /// calls for *distinct* pages may overlap, the cache guarantees at most
    /// one in-flight fetch per page. Retryable failures are retried by the
    /// cache under its [`RetryPolicy`]; a corrupt result quarantines the
    /// page; other final failures are propagated to the requester by
    /// [`SharedPageCache::try_get`] and cached nowhere — the next request
    /// for the page retries the source.
    fn fetch_page(&self, page: PageId) -> Result<Self::Item, PageError>;

    /// Total number of pages this source can serve (page ids `0..n`).
    fn page_count(&self) -> usize;
}

/// How a request was satisfied; returned so callers can account costs
/// (e.g. charge an interconnect penalty for remote hits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedAccess {
    /// Cached, and this worker was the one who loaded it.
    HitLocal,
    /// Cached by a different worker (`owner`): the global organization
    /// serves this over the interconnect.
    HitRemote {
        /// Worker whose fetch brought the page in.
        owner: usize,
    },
    /// Another worker's fetch was in flight; this request waited for it.
    HitInFlight,
    /// Not cached: this worker fetched it from the source.
    Miss,
}

struct ShardState<T> {
    /// Residency + replacement order over this shard's pages.
    buf: PageBuffer,
    /// Cached values for resident pages.
    data: HashMap<PageId, Arc<T>>,
    /// Worker whose fetch loaded each resident page.
    owner: HashMap<PageId, usize>,
    /// Pages some worker is currently fetching.
    loading: HashSet<PageId>,
    /// Pages whose fill returned a corrupt (unrecoverable) error: the
    /// stored error is replayed to every later requester.
    quarantined: HashMap<PageId, PageError>,
    /// Requesters blocked on [`Shard::loaded`] for an in-flight fill.
    /// `std`'s condvar does not track waiters, so every `notify_all` is a
    /// futex syscall; a fill consults this (under the mutex the waiter
    /// registered under) and skips the wake when nobody is waiting.
    waiters: usize,
}

/// Validation attempts an optimistic read makes before falling back to the
/// pessimistic mutex path. Low on purpose: a failed validation means a
/// writer is churning this shard right now, and queueing on the mutex is
/// cheaper than spinning through its critical section.
const OPT_ATTEMPTS: usize = 3;

/// Linear-probe window in the mirror. With the mirror sized at 2× the
/// shard's capacity (load factor ≤ 0.5) a window of 8 makes an
/// unmirrorable page vanishingly rare; such a page is still served
/// correctly, just pessimistically.
const MIRROR_PROBE: usize = 8;

/// Tag value of an empty mirror slot ([`OptSlot::tag`]).
const TAG_EMPTY: u64 = 0;

/// Every `TOUCH_SAMPLE`-th optimistic or guard hit per worker re-touches
/// the page in its shard's replacement order (under `try_lock`, skipped
/// when the mutex is busy). Optimistic hits otherwise never promote, so a
/// permanently hot page would look idle to the LRU and could be evicted
/// by a stream of cold fills; sampling keeps the promotion cost off the
/// hot path while bounding how stale a hot page's recency can get.
const TOUCH_SAMPLE: u64 = 64;

/// One slot of a shard's lock-free mirror: the subset of shard state an
/// optimistic reader needs, republished as atomics. All *writes* happen
/// under the shard mutex (there is exactly one mutator at a time); readers
/// never write anything but `pins`.
struct OptSlot<T> {
    /// `page.0 + 1` for an occupied slot, [`TAG_EMPTY`] otherwise. Stored
    /// `Release` *after* `ptr`/`owner` on insert, so a reader that observes
    /// the tag observes the payload.
    tag: AtomicU64,
    /// Worker whose fetch loaded the page (mirrors `ShardState::owner`).
    owner: AtomicUsize,
    /// `Arc::into_raw` of the mirror's own strong reference to the value.
    /// Null iff the slot is empty.
    ptr: AtomicPtr<T>,
    /// Readers between "validated the version" and "cloned the Arc" hold a
    /// pin; a remover waits for pins to drain (after flipping the version
    /// odd) before releasing the slot's reference. SeqCst pairs the
    /// reader's `pin ; load version` against the writer's
    /// `store version ; load pins` (Dekker), so either the reader sees the
    /// odd/advanced version and aborts, or the writer sees the pin and
    /// waits.
    pins: AtomicUsize,
}

impl<T> OptSlot<T> {
    fn empty() -> Self {
        OptSlot {
            tag: AtomicU64::new(TAG_EMPTY),
            owner: AtomicUsize::new(0),
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            pins: AtomicUsize::new(0),
        }
    }
}

/// A mirror payload whose slot was unpublished while readers still held
/// pins on it. The remover transfers the mirror's strong reference here
/// instead of blocking on the drain; [`Shard::sweep_graveyard`] frees it
/// once the slot's pin count has been observed at zero.
struct Retired<T> {
    /// Index of the mirror slot the payload was published in.
    slot: usize,
    /// The `Arc::into_raw` strong reference the mirror gave up.
    ptr: *const T,
}

// SAFETY: a retired entry owns an `Arc` strong reference (as a raw
// pointer); moving it between threads moves that ownership, which is safe
// exactly when `Arc<T>` itself is sendable.
unsafe impl<T: Send + Sync> Send for Retired<T> {}

struct Shard<T> {
    state: Mutex<ShardState<T>>,
    loaded: Condvar,
    capacity: usize,
    /// The seqlock word (absorbs the old `generation` counter). Odd while
    /// a mutator is removing a resident page; advances (by 2) exactly when
    /// a page leaves the shard — eviction or quarantine. A reader holding
    /// `(page, version)` from an earlier access knows the page is still
    /// resident while the version is unchanged; both the optimistic read
    /// path and the per-worker [`L1Front`](crate::L1Front) validate
    /// against it.
    version: AtomicU64,
    /// Lock-free mirror of the resident-page table; power-of-two sized.
    mirror: Box<[OptSlot<T>]>,
    /// Payloads unpublished from the mirror while still pinned (a
    /// [`PageGuard`] was outstanding). Swept opportunistically on every
    /// mirror mutation and drained by [`SharedPageCache::check_invariants`]
    /// and `Drop`. Its own mutex (not `state`): sweeps must be safe from a
    /// thread that already holds — or is about to take — the state lock.
    graveyard: Mutex<Vec<Retired<T>>>,
}

impl<T> Shard<T> {
    /// Slot probe sequence for `page`: start index plus the next
    /// [`MIRROR_PROBE`]-1 slots, wrapping. Decorrelated from shard
    /// selection (which consumes the hash's top bits) by using the low
    /// bits.
    #[inline]
    fn slot_base(&self, page: PageId) -> usize {
        let h = (page.0 as u64).wrapping_mul(0x9E3779B97F4A7C15);
        h as usize & (self.mirror.len() - 1)
    }

    #[inline]
    fn tag_of(page: PageId) -> u64 {
        page.0 as u64 + 1
    }

    /// Releases the shard lock after a fill cleared its in-flight marker
    /// and wakes the requesters waiting on it, if any. A waiter registers
    /// under this same lock before `wait` atomically releases it, so a
    /// zero count here proves no one can miss the wake-up.
    fn release_fill(&self, state: MutexGuard<'_, ShardState<T>>) {
        let wake = state.waiters > 0;
        drop(state);
        if wake {
            self.loaded.notify_all();
        }
    }

    /// Begins a structural mutation: flips the version odd. Callers hold
    /// the shard mutex (one mutator at a time) and must pair with
    /// [`Shard::end_mutate`].
    fn begin_mutate(&self) {
        let v = self.version.fetch_add(1, Ordering::SeqCst);
        debug_assert!(v.is_multiple_of(2), "nested begin_mutate");
    }

    /// Ends a structural mutation: flips the version back to even.
    fn end_mutate(&self) {
        let v = self.version.fetch_add(1, Ordering::SeqCst);
        debug_assert!(!v.is_multiple_of(2), "end_mutate without begin");
    }

    /// Publishes `page` in the mirror (under the shard mutex). No version
    /// bump: concurrent readers either miss (slot still empty — they go
    /// pessimistic and find the page under the lock) or see the fully
    /// published entry, because the tag is stored last with `Release`.
    /// A full probe window leaves the page unmirrored — correct, merely
    /// pessimistic for that page.
    fn mirror_insert(&self, page: PageId, owner: usize, value: &Arc<T>) {
        let base = self.slot_base(page);
        let mask = self.mirror.len() - 1;
        // Scan the whole window for an existing entry before choosing an
        // empty slot: a page inserted deep in the window (earlier slots
        // were occupied then) must not gain a duplicate in a slot that has
        // since been freed — `mirror_remove` clears only the first match.
        let mut empty = None;
        for i in 0..MIRROR_PROBE {
            let slot = &self.mirror[(base + i) & mask];
            let tag = slot.tag.load(Ordering::Relaxed);
            if tag == Self::tag_of(page) {
                return; // already mirrored
            }
            if tag == TAG_EMPTY && empty.is_none() {
                empty = Some(slot);
            }
        }
        if let Some(slot) = empty {
            let raw = Arc::into_raw(Arc::clone(value)) as *mut T;
            slot.ptr.store(raw, Ordering::Relaxed);
            slot.owner.store(owner, Ordering::Relaxed);
            slot.tag.store(Self::tag_of(page), Ordering::Release);
        }
    }

    /// Unpublishes `page` (under the shard mutex, **between**
    /// [`Shard::begin_mutate`] and [`Shard::end_mutate`]): clears the tag
    /// and either releases the mirror's reference immediately (no pinned
    /// readers) or retires it to the graveyard for a later sweep. Never
    /// blocks on the pin count — a reader may hold a [`PageGuard`] pin on
    /// this very page *while* performing the pessimistic fill that evicts
    /// it, and a drain-wait here would deadlock on the reader's own pin.
    fn mirror_remove(&self, page: PageId) {
        self.sweep_graveyard();
        let base = self.slot_base(page);
        let mask = self.mirror.len() - 1;
        for i in 0..MIRROR_PROBE {
            let idx = (base + i) & mask;
            let slot = &self.mirror[idx];
            if slot.tag.load(Ordering::Relaxed) != Self::tag_of(page) {
                continue;
            }
            slot.tag.store(TAG_EMPTY, Ordering::SeqCst);
            let raw = slot.ptr.swap(std::ptr::null_mut(), Ordering::SeqCst);
            debug_assert!(!raw.is_null());
            // Dekker pairing (see `OptSlot::pins`): this load is ordered
            // after the version store in `begin_mutate`, so a reader whose
            // validation succeeded has its pin visible here, and a reader
            // pinning after this point fails its validation.
            if slot.pins.load(Ordering::SeqCst) == 0 {
                // SAFETY: `raw` came from `Arc::into_raw` in
                // `mirror_insert`; no validated reader holds a pin and the
                // slot no longer references the payload, so this is the
                // single release of the mirror's reference.
                unsafe { drop(Arc::from_raw(raw)) };
            } else {
                lock_clean(&self.graveyard).push(Retired {
                    slot: idx,
                    ptr: raw,
                });
            }
            return;
        }
    }

    /// Frees retired payloads whose slots have drained to zero pins. A pin
    /// observed here may belong to a *newer* incarnation of the slot, which
    /// only delays the free — never a double free (the graveyard mutex
    /// serializes sweeps and each entry is freed as it is removed) and
    /// never a use-after-free (a guard's pin is held continuously from
    /// before retirement until after its last deref, so zero pins proves
    /// no guard can still reach the retired payload).
    fn sweep_graveyard(&self) {
        let mut grave = lock_clean(&self.graveyard);
        grave.retain(|r| {
            if self.mirror[r.slot].pins.load(Ordering::SeqCst) == 0 {
                // SAFETY: the retired entry owns the strong reference the
                // mirror gave up; zero pins means no outstanding guard
                // derefs it.
                unsafe { drop(Arc::from_raw(r.ptr)) };
                false
            } else {
                true
            }
        });
    }
}

impl<T> Drop for Shard<T> {
    fn drop(&mut self) {
        for slot in self.mirror.iter_mut() {
            let raw = *slot.ptr.get_mut();
            if !raw.is_null() {
                // SAFETY: the slot holds the strong reference created by
                // `mirror_insert`; no readers exist during drop.
                unsafe { drop(Arc::from_raw(raw)) };
            }
        }
        let grave = self
            .graveyard
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for r in grave.drain(..) {
            // SAFETY: retired entries own their strong reference; guards
            // borrow the cache, so none can outlive this drop.
            unsafe { drop(Arc::from_raw(r.ptr)) };
        }
    }
}

/// Clears a shard's in-flight marker if a fill unwinds: a source that
/// panics mid-fetch (worker bug, injected fault) must not leave every
/// later requester of the page blocked on the condvar.
struct LoadingGuard<'a, T> {
    shard: &'a Shard<T>,
    page: PageId,
    armed: bool,
}

impl<T> Drop for LoadingGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = lock_clean(&self.shard.state);
            state.loading.remove(&self.page);
            self.shard.release_fill(state);
        }
    }
}

/// Per-worker counters, padded out so workers on different cores don't
/// false-share a cache line. Plain relaxed atomics: each field is written
/// by its own worker on the hot path and only read (racily, monotonically)
/// by stats observers, so no mutex is needed.
#[repr(align(64))]
#[derive(Default)]
struct WorkerStats {
    hits_local: AtomicU64,
    hits_l1: AtomicU64,
    hits_remote: AtomicU64,
    hits_in_flight: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    retries: AtomicU64,
    /// Seqlock-path counters (see [`OptStats`]); striped with the rest so
    /// the optimistic hit path touches only this worker's line.
    opt_hits: AtomicU64,
    opt_retries: AtomicU64,
    opt_fallbacks: AtomicU64,
    /// Guard-path counters: borrowing reads served with neither mutex nor
    /// Arc clone, and how their cross-level validation chains resolved.
    guard_hits: AtomicU64,
    coupled: AtomicU64,
    renewed: AtomicU64,
    /// Rolling tick driving the sampled LRU touch on optimistic hits (not
    /// a statistic; lives here for the per-worker cacheline).
    touch_tick: AtomicU64,
}

impl WorkerStats {
    fn snapshot(&self) -> BufferStats {
        BufferStats {
            hits_local: self.hits_local.load(Ordering::Relaxed),
            hits_l1: self.hits_l1.load(Ordering::Relaxed),
            hits_remote: self.hits_remote.load(Ordering::Relaxed),
            hits_in_flight: self.hits_in_flight.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            hits_path: 0,
            retries: self.retries.load(Ordering::Relaxed),
        }
    }

    fn opt_snapshot(&self) -> OptStats {
        OptStats {
            hits: self.opt_hits.load(Ordering::Relaxed),
            retries: self.opt_retries.load(Ordering::Relaxed),
            fallbacks: self.opt_fallbacks.load(Ordering::Relaxed),
            guard_hits: self.guard_hits.load(Ordering::Relaxed),
            coupled: self.coupled.load(Ordering::Relaxed),
            renewed: self.renewed.load(Ordering::Relaxed),
        }
    }
}

/// A borrowing, pin-backed view of a cached page: derefs to `&T` with
/// **no Arc clone and no shard mutex**. Produced by
/// [`SharedPageCache::guard_get`] and
/// [`SharedPageCache::guard_get_coupled`]. Holding one pins the page's
/// mirror slot, which *defers* (never blocks) a concurrent eviction's
/// payload free until the guard drops — see the module docs for the
/// graveyard protocol that makes this safe even when the guard's own
/// thread performs the eviction.
pub struct PageGuard<'c, T> {
    slot: &'c OptSlot<T>,
    raw: *const T,
    shard_idx: usize,
    version: u64,
    page: PageId,
    access: SharedAccess,
}

impl<T> PageGuard<'_, T> {
    /// How the read was satisfied (always a local or remote hit).
    pub fn access(&self) -> SharedAccess {
        self.access
    }

    /// The page this guard reads.
    pub fn page(&self) -> PageId {
        self.page
    }

    /// An owned handle to the page, for callers that must outlive the
    /// guard (e.g. an L1 slot refill). Costs one refcount increment —
    /// exactly what the Arc-path optimistic read pays.
    pub fn to_arc(&self) -> Arc<T> {
        // SAFETY: `raw` came from `Arc::into_raw`; the pin held by this
        // guard keeps the mirror's (or graveyard's) strong reference
        // alive until the guard drops, so the count is ≥ 1 throughout.
        unsafe {
            Arc::increment_strong_count(self.raw);
            Arc::from_raw(self.raw)
        }
    }

    /// The validation token linking this read into a parent→child chain;
    /// pass to [`SharedPageCache::guard_get_coupled`] for the next level
    /// of the descent.
    pub fn coupling(&self) -> OptCoupling {
        OptCoupling {
            link: Some(CoupleLink {
                shard: self.shard_idx,
                version: self.version,
                page: self.page,
            }),
        }
    }
}

impl<T> std::ops::Deref for PageGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: validated at acquisition; the pin defers any free of the
        // payload until this guard drops.
        unsafe { &*self.raw }
    }
}

impl<T> Drop for PageGuard<'_, T> {
    fn drop(&mut self) {
        // SeqCst: the release of the pin must rank against a remover's
        // (or sweeper's) pins load, exactly like the acquisition did.
        self.slot.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T> std::fmt::Debug for PageGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("page", &self.page)
            .field("access", &self.access)
            .finish()
    }
}

/// One validated `(shard, version, page)` link of a descent chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CoupleLink {
    shard: usize,
    version: u64,
    page: PageId,
}

/// Cross-level validation token for optimistic descents (umolc-style
/// coupled validation). Create one with [`OptCoupling::root`] at the top
/// of a root-to-leaf traversal and thread it through
/// [`SharedPageCache::guard_get_coupled`]: each successful child read
/// revalidates the parent link and advances the token, so the whole path
/// forms one validation chain; any broken link resets the token and sends
/// that page to the pessimistic path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptCoupling {
    link: Option<CoupleLink>,
}

impl OptCoupling {
    /// A chain with no parent yet (the start of a descent).
    pub fn root() -> Self {
        OptCoupling::default()
    }
}

/// The concurrent sharded page cache.
pub struct SharedPageCache<T> {
    shards: Vec<Shard<T>>,
    stats: Vec<WorkerStats>,
    retry: RetryPolicy,
    corrupt_detected: AtomicU64,
    trace: Option<Arc<psj_obs::TraceSink>>,
}

impl<T> SharedPageCache<T> {
    /// Creates a cache holding at most `capacity` pages, split over `shards`
    /// independently locked segments, tracking stats for `workers` workers.
    ///
    /// Every shard gets at least one page, so the effective capacity is
    /// `max(capacity, shards)` when `capacity < shards`.
    ///
    /// The cache starts with [`RetryPolicy::default`] (three attempts, no
    /// backoff) — use [`SharedPageCache::with_retry`] to change it.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `workers` is zero.
    pub fn new(workers: usize, capacity: usize, shards: usize, policy: Policy) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(workers > 0, "need at least one worker");
        let per_shard = capacity.div_ceil(shards).max(1);
        // Mirror at 2× capacity (min 16), power of two: load factor ≤ 0.5
        // keeps linear probes inside MIRROR_PROBE with high probability.
        let mirror_slots = (per_shard * 2).next_power_of_two().max(16);
        SharedPageCache {
            shards: (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        buf: PageBuffer::new(policy, per_shard),
                        data: HashMap::with_capacity(per_shard),
                        owner: HashMap::with_capacity(per_shard),
                        loading: HashSet::new(),
                        quarantined: HashMap::new(),
                        waiters: 0,
                    }),
                    loaded: Condvar::new(),
                    capacity: per_shard,
                    version: AtomicU64::new(0),
                    mirror: (0..mirror_slots).map(|_| OptSlot::empty()).collect(),
                    graveyard: Mutex::new(Vec::new()),
                })
                .collect(),
            stats: (0..workers).map(|_| WorkerStats::default()).collect(),
            retry: RetryPolicy::default(),
            corrupt_detected: AtomicU64::new(0),
            trace: None,
        }
    }

    /// Replace the retry policy applied to fills (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attach a trace sink (builder style): every fill that reaches the
    /// source emits a `page_read` span, every retried attempt a
    /// `page_retry` instant, and every quarantine a `page_quarantine`
    /// instant, all on the requesting worker's cache thread row. Hits stay
    /// untraced — the slow path is the only place the `Option` is checked,
    /// so a disabled trace costs nothing on the hit path.
    pub fn with_trace(mut self, trace: Arc<psj_obs::TraceSink>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The retry policy applied to fills.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of workers stats are tracked for.
    pub fn num_workers(&self) -> usize {
        self.stats.len()
    }

    /// Maximum number of resident pages (sum of shard capacities).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity).sum()
    }

    /// Current number of resident pages.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_clean(&s.state).buf.len())
            .sum()
    }

    /// Whether no page is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages currently quarantined as corrupt.
    pub fn quarantined_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_clean(&s.state).quarantined.len())
            .sum()
    }

    /// Whether `page` is quarantined.
    pub fn is_quarantined(&self, page: PageId) -> bool {
        lock_clean(&self.shard_of(page).state)
            .quarantined
            .contains_key(&page)
    }

    /// Total corrupt fills detected over the cache's lifetime (monotone;
    /// counts first detections, not replays to later requesters).
    pub fn corrupt_detected(&self) -> u64 {
        self.corrupt_detected.load(Ordering::Relaxed)
    }

    #[inline]
    fn shard_index(&self, page: PageId) -> usize {
        // Fibonacci hashing spreads the sequential page ids trees produce;
        // plain modulo would put all of a small tree in adjacent shards.
        let h = (page.0 as u64).wrapping_mul(0x9E3779B97F4A7C15);
        (h >> 32) as usize % self.shards.len()
    }

    #[inline]
    fn shard_of(&self, page: PageId) -> &Shard<T> {
        &self.shards[self.shard_index(page)]
    }

    /// Sampled replacement promotion for reads that bypass the mutex:
    /// every [`TOUCH_SAMPLE`]-th optimistic or guard hit per worker
    /// re-touches the page under the shard mutex — but only if the mutex
    /// is immediately available, so the hot path never queues on it.
    fn sampled_touch(&self, worker: usize, shard: &Shard<T>, page: PageId) {
        let tick = self.stats[worker]
            .touch_tick
            .fetch_add(1, Ordering::Relaxed);
        if !tick.is_multiple_of(TOUCH_SAMPLE) {
            return;
        }
        if let Ok(mut state) = shard.state.try_lock() {
            if state.buf.contains(page) {
                state.buf.touch(page);
            }
        }
    }

    /// Books a failed optimistic attempt: the validation retries, plus a
    /// fallback when the attempts were exhausted by contention (rather
    /// than the read being a clean mirror miss).
    fn note_opt_failure(&self, worker: usize, retries: u64) {
        let s = &self.stats[worker];
        if retries > 0 {
            s.opt_retries.fetch_add(retries, Ordering::Relaxed);
        }
        if retries >= OPT_ATTEMPTS as u64 {
            s.opt_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter updates run outside every shard lock (callers invoke this
    /// after dropping the shard state), so a hit holds the shard mutex only
    /// for the map probe + `Arc` clone and never serializes on stats.
    fn bump(&self, worker: usize, access: SharedAccess, evicted: bool, retries: u64) {
        let s = &self.stats[worker];
        match access {
            SharedAccess::HitLocal => s.hits_local.fetch_add(1, Ordering::Relaxed),
            SharedAccess::HitRemote { .. } => s.hits_remote.fetch_add(1, Ordering::Relaxed),
            SharedAccess::HitInFlight => s.hits_in_flight.fetch_add(1, Ordering::Relaxed),
            SharedAccess::Miss => s.misses.fetch_add(1, Ordering::Relaxed),
        };
        if evicted {
            s.evictions.fetch_add(1, Ordering::Relaxed);
        }
        if retries > 0 {
            s.retries.fetch_add(retries, Ordering::Relaxed);
        }
    }

    fn bump_retries(&self, worker: usize, retries: u64) {
        if retries > 0 {
            self.stats[worker]
                .retries
                .fetch_add(retries, Ordering::Relaxed);
        }
    }

    /// Credits `n` hits absorbed by `worker`'s private L1 front. The front
    /// accumulates locally and flushes through here before any stats read,
    /// keeping [`SharedPageCache::stats`] exact.
    pub fn add_l1_hits(&self, worker: usize, n: u64) {
        if n > 0 {
            self.stats[worker].hits_l1.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current generation of the shard holding `page` — since the seqlock
    /// rework this is the shard's version word. It advances whenever any
    /// page leaves that shard (eviction or quarantine) and is momentarily
    /// *odd* while such a removal is in progress; a value read *before* a
    /// successful [`SharedPageCache::try_get`] therefore certifies, for as
    /// long as it remains current, that the returned page is still
    /// resident. (An odd value can never falsely certify: the removal in
    /// progress advances the word before any reader could observe the odd
    /// value twice.)
    pub fn shard_generation(&self, page: PageId) -> u64 {
        self.shard_of(page).version.load(Ordering::Acquire)
    }

    /// The optimistic read: serve `page` from the shard's mirror without
    /// the mutex. Returns `Ok` on a validated hit; `Err(retries)` when the
    /// caller must go pessimistic, carrying the number of failed
    /// validations (0 = clean miss, `>= OPT_ATTEMPTS` = fallback after
    /// contention).
    fn opt_get(&self, worker: usize, page: PageId) -> Result<(Arc<T>, SharedAccess), u64> {
        let shard = self.shard_of(page);
        let tag = Shard::<T>::tag_of(page);
        let base = shard.slot_base(page);
        let mask = shard.mirror.len() - 1;
        let mut retries = 0u64;
        while retries < OPT_ATTEMPTS as u64 {
            let v1 = shard.version.load(Ordering::SeqCst);
            if !v1.is_multiple_of(2) {
                // A removal is in flight; its version bump would fail the
                // validation anyway.
                retries += 1;
                std::hint::spin_loop();
                continue;
            }
            let mut found = None;
            for i in 0..MIRROR_PROBE {
                let slot = &shard.mirror[(base + i) & mask];
                if slot.tag.load(Ordering::Acquire) == tag {
                    found = Some(slot);
                    break;
                }
            }
            let Some(slot) = found else {
                if shard.version.load(Ordering::SeqCst) == v1 {
                    // Stable version across the whole probe: the page
                    // really is absent from the mirror. Miss, not failure.
                    return Err(retries);
                }
                retries += 1;
                continue;
            };
            // Pin, then re-validate. SeqCst makes `pin ; load version`
            // rank against the remover's `store version ; load pins`: if
            // our validation sees the version unchanged and even, the
            // remover has not started, and it must observe our pin before
            // freeing the payload.
            slot.pins.fetch_add(1, Ordering::SeqCst);
            let raw = slot.ptr.load(Ordering::SeqCst);
            let owner = slot.owner.load(Ordering::Relaxed);
            let tag2 = slot.tag.load(Ordering::SeqCst);
            let valid = shard.version.load(Ordering::SeqCst) == v1 && tag2 == tag && !raw.is_null();
            let value = if valid {
                // SAFETY: `raw` came from `Arc::into_raw`; the validated
                // pin (above) keeps the remover from releasing the slot's
                // strong reference until we drop the pin below, so the
                // pointee is alive for the clone.
                Some(unsafe {
                    Arc::increment_strong_count(raw);
                    Arc::from_raw(raw)
                })
            } else {
                None
            };
            slot.pins.fetch_sub(1, Ordering::SeqCst);
            match value {
                Some(v) => {
                    let access = if owner == worker {
                        SharedAccess::HitLocal
                    } else {
                        SharedAccess::HitRemote { owner }
                    };
                    let s = &self.stats[worker];
                    s.opt_hits.fetch_add(1, Ordering::Relaxed);
                    if retries > 0 {
                        s.opt_retries.fetch_add(retries, Ordering::Relaxed);
                    }
                    self.bump(worker, access, false, 0);
                    self.sampled_touch(worker, shard, page);
                    return Ok((v, access));
                }
                None => {
                    retries += 1;
                    continue;
                }
            }
        }
        Err(retries)
    }

    /// Core of the guard acquisition: [`SharedPageCache::opt_get`]'s
    /// protocol, but the winning read *keeps* its pin instead of cloning
    /// the `Arc` under it — the pin is the guard's lease on the payload.
    /// Books nothing: the caller books the read with
    /// [`SharedPageCache::book_guard_hit`] only once it hands the guard
    /// out, so a guard dropped unused (broken chain) is not counted as a
    /// read ahead of the caller's pessimistic re-read of the same page.
    /// Returns `Ok((guard, retries))` on a validated pin, `Err(retries)`
    /// when the caller must go pessimistic.
    fn guard_acquire(&self, worker: usize, page: PageId) -> Result<(PageGuard<'_, T>, u64), u64> {
        let shard_idx = self.shard_index(page);
        let shard = &self.shards[shard_idx];
        let tag = Shard::<T>::tag_of(page);
        let base = shard.slot_base(page);
        let mask = shard.mirror.len() - 1;
        let mut retries = 0u64;
        while retries < OPT_ATTEMPTS as u64 {
            let v1 = shard.version.load(Ordering::SeqCst);
            if !v1.is_multiple_of(2) {
                retries += 1;
                std::hint::spin_loop();
                continue;
            }
            let mut found = None;
            for i in 0..MIRROR_PROBE {
                let slot = &shard.mirror[(base + i) & mask];
                if slot.tag.load(Ordering::Acquire) == tag {
                    found = Some(slot);
                    break;
                }
            }
            let Some(slot) = found else {
                if shard.version.load(Ordering::SeqCst) == v1 {
                    return Err(retries);
                }
                retries += 1;
                continue;
            };
            // Pin, then re-validate — the same Dekker pairing as
            // `opt_get`; see the comments there.
            slot.pins.fetch_add(1, Ordering::SeqCst);
            let raw = slot.ptr.load(Ordering::SeqCst);
            let owner = slot.owner.load(Ordering::Relaxed);
            let tag2 = slot.tag.load(Ordering::SeqCst);
            if shard.version.load(Ordering::SeqCst) == v1 && tag2 == tag && !raw.is_null() {
                let access = if owner == worker {
                    SharedAccess::HitLocal
                } else {
                    SharedAccess::HitRemote { owner }
                };
                let guard = PageGuard {
                    slot,
                    raw,
                    shard_idx,
                    version: v1,
                    page,
                    access,
                };
                return Ok((guard, retries));
            }
            slot.pins.fetch_sub(1, Ordering::SeqCst);
            retries += 1;
        }
        Err(retries)
    }

    /// Books a guard read that is being handed out: one local/remote hit
    /// in [`BufferStats`], one [`OptStats::guard_hits`], the validation
    /// retries it took, and the sampled replacement touch.
    fn book_guard_hit(&self, worker: usize, guard: &PageGuard<'_, T>, retries: u64) {
        let s = &self.stats[worker];
        s.guard_hits.fetch_add(1, Ordering::Relaxed);
        if retries > 0 {
            s.opt_retries.fetch_add(retries, Ordering::Relaxed);
        }
        self.bump(worker, guard.access, false, 0);
        self.sampled_touch(worker, &self.shards[guard.shard_idx], guard.page);
    }

    /// Borrowing optimistic read: a [`PageGuard`] handing out `&T` with
    /// no Arc clone and no shard mutex, when `page` is resident and the
    /// seqlock validates. `None` means the caller must take the
    /// pessimistic path ([`SharedPageCache::try_get`] re-runs the full
    /// ladder; the failure accounting matches the Arc fast path exactly).
    pub fn guard_get(&self, worker: usize, page: PageId) -> Option<PageGuard<'_, T>> {
        match self.guard_acquire(worker, page) {
            Ok((g, retries)) => {
                self.book_guard_hit(worker, &g, retries);
                Some(g)
            }
            Err(retries) => {
                self.note_opt_failure(worker, retries);
                None
            }
        }
    }

    /// As [`SharedPageCache::guard_get`], chained into a descent: after
    /// the child validates, the parent link recorded in `chain` is
    /// revalidated. An unchanged parent shard version extends the chain
    /// ([`OptStats::coupled`]); a version advance with the parent still
    /// mirrored repairs it in place ([`OptStats::renewed`]); a vanished
    /// parent breaks it — the child guard is dropped, the chain resets,
    /// and `None` sends the caller to the pessimistic path for this page.
    /// On success `chain` is advanced to the returned page, so a
    /// root-to-leaf descent forms one validation chain.
    pub fn guard_get_coupled(
        &self,
        worker: usize,
        page: PageId,
        chain: &mut OptCoupling,
    ) -> Option<PageGuard<'_, T>> {
        let (guard, retries) = match self.guard_acquire(worker, page) {
            Ok(v) => v,
            Err(retries) => {
                self.note_opt_failure(worker, retries);
                *chain = OptCoupling::root();
                return None;
            }
        };
        let s = &self.stats[worker];
        if let Some(link) = chain.link {
            if self.shards[link.shard].version.load(Ordering::SeqCst) == link.version {
                s.coupled.fetch_add(1, Ordering::Relaxed);
            } else if self.still_mirrored(link.shard, link.page) {
                s.renewed.fetch_add(1, Ordering::Relaxed);
            } else {
                // The parent left its shard mid-descent. The pages are
                // frozen, but the protocol treats a broken chain as a
                // failed validation: drop the child pin unbooked and let
                // the caller's pessimistic re-read count the one read,
                // restarting the chain.
                if retries > 0 {
                    s.opt_retries.fetch_add(retries, Ordering::Relaxed);
                }
                s.opt_fallbacks.fetch_add(1, Ordering::Relaxed);
                *chain = OptCoupling::root();
                drop(guard);
                return None;
            }
        }
        self.book_guard_hit(worker, &guard, retries);
        *chain = guard.coupling();
        Some(guard)
    }

    /// Whether `page` is still published in `shard`'s mirror with the
    /// shard at rest across the probe — i.e. a broken-version chain link
    /// can be *renewed* (the parent never left) rather than broken.
    fn still_mirrored(&self, shard_idx: usize, page: PageId) -> bool {
        let shard = &self.shards[shard_idx];
        let v = shard.version.load(Ordering::SeqCst);
        if !v.is_multiple_of(2) {
            return false;
        }
        let tag = Shard::<T>::tag_of(page);
        let base = shard.slot_base(page);
        let mask = shard.mirror.len() - 1;
        for i in 0..MIRROR_PROBE {
            let slot = &shard.mirror[(base + i) & mask];
            if slot.tag.load(Ordering::Acquire) == tag {
                return shard.version.load(Ordering::SeqCst) == v;
            }
        }
        false
    }

    /// Looks up `page`, fetching it from `source` on a miss. Returns the
    /// cached value and how the request was satisfied.
    ///
    /// `worker` indexes the per-worker statistics and is recorded as the
    /// page's owner when this call fetches it.
    ///
    /// # Panics
    ///
    /// Panics if the source's fetch fails; use [`SharedPageCache::try_get`]
    /// for fallible sources (e.g. a disk-backed pager).
    pub fn get<S>(&self, worker: usize, page: PageId, source: &S) -> (Arc<T>, SharedAccess)
    where
        S: PageSource<Item = T> + ?Sized,
    {
        self.try_get(worker, page, source)
            .unwrap_or_else(|e| panic!("fetching page {page}: {e}"))
    }

    /// As [`SharedPageCache::get`], propagating a failed fetch to the caller
    /// instead of panicking.
    ///
    /// Retryable source errors are retried in place under the cache's
    /// [`RetryPolicy`] before failing. A final *corrupt* error quarantines
    /// the page — the stored error is replayed to every later requester
    /// without re-fetching. Any other final error caches nothing and clears
    /// the in-flight marker, so concurrent waiters on the same page wake up
    /// and retry the fetch themselves; one degraded request does not poison
    /// the page for others.
    pub fn try_get<S>(
        &self,
        worker: usize,
        page: PageId,
        source: &S,
    ) -> Result<(Arc<T>, SharedAccess), PageError>
    where
        S: PageSource<Item = T> + ?Sized,
    {
        // Fast path: version-validated read against the shard's mirror, no
        // mutex. Falls through on a clean miss (page not mirrored) or
        // after OPT_ATTEMPTS failed validations.
        match self.opt_get(worker, page) {
            Ok(hit) => return Ok(hit),
            Err(retries) => self.note_opt_failure(worker, retries),
        }
        self.pessimistic_get(worker, page, source)
    }

    /// As [`SharedPageCache::try_get`] but skipping the optimistic fast
    /// path entirely: every read takes the shard mutex (and pays its LRU
    /// promotion). This is the contended-read benchmark's locked baseline;
    /// regular callers should prefer [`SharedPageCache::try_get`].
    pub fn try_get_locked<S>(
        &self,
        worker: usize,
        page: PageId,
        source: &S,
    ) -> Result<(Arc<T>, SharedAccess), PageError>
    where
        S: PageSource<Item = T> + ?Sized,
    {
        self.pessimistic_get(worker, page, source)
    }

    /// The pessimistic path: shard mutex, quarantine replay, single-flight
    /// fill, eviction. [`SharedPageCache::try_get`] lands here after the
    /// optimistic fast path declines; [`SharedPageCache::try_get_locked`]
    /// enters directly.
    fn pessimistic_get<S>(
        &self,
        worker: usize,
        page: PageId,
        source: &S,
    ) -> Result<(Arc<T>, SharedAccess), PageError>
    where
        S: PageSource<Item = T> + ?Sized,
    {
        let shard = self.shard_of(page);
        let mut state = lock_clean(&shard.state);
        let mut waited = false;
        loop {
            if let Some(err) = state.quarantined.get(&page) {
                let err = err.clone();
                drop(state);
                return Err(err);
            }
            if let Some(value) = state.data.get(&page) {
                let value = Arc::clone(value);
                state.buf.touch(page);
                let access = if waited {
                    SharedAccess::HitInFlight
                } else {
                    match state.owner.get(&page) {
                        Some(&o) if o == worker => SharedAccess::HitLocal,
                        Some(&o) => SharedAccess::HitRemote { owner: o },
                        // Unreachable in practice (resident ⇒ owned), but a
                        // local hit is the safe default.
                        None => SharedAccess::HitLocal,
                    }
                };
                // A resident page can be missing from the mirror (probe
                // window was full at fill time); repair while we hold the
                // lock so later reads go optimistic.
                let owner = state.owner.get(&page).copied().unwrap_or(worker);
                shard.mirror_insert(page, owner, &value);
                drop(state);
                self.bump(worker, access, false, 0);
                return Ok((value, access));
            }
            if state.loading.contains(&page) {
                // Someone else is fetching this page: wait for their load
                // rather than issuing a second fetch (paper §3.1). If that
                // load *fails*, the marker is cleared and the wakeup sends
                // us around the loop to retry the fetch ourselves (or to
                // pick up the quarantine entry if it was corrupt).
                waited = true;
                state.waiters += 1;
                state = wait_clean(&shard.loaded, state);
                state.waiters -= 1;
                continue;
            }
            // We fetch. Mark in flight and release the shard lock so other
            // pages of this shard stay accessible during the fetch. The
            // guard clears the marker if the source panics mid-fetch —
            // without it, every later requester of this page would block
            // on the condvar forever.
            state.loading.insert(page);
            drop(state);
            let mut guard = LoadingGuard {
                shard,
                page,
                armed: true,
            };
            let fill_start = self.trace.as_ref().map(|t| t.now_ns());
            let (fetched, retries) = match &self.trace {
                None => self.retry.run(page.0 as u64, |_| source.fetch_page(page)),
                Some(t) => self.retry.run_observed(
                    page.0 as u64,
                    |_| source.fetch_page(page),
                    |attempt, _| {
                        t.instant(
                            psj_obs::trace::cache_tid(worker),
                            "page_retry",
                            "storage",
                            &[("page", page.0 as u64), ("attempt", attempt as u64)],
                        );
                    },
                ),
            };
            if let (Some(t), Some(start)) = (&self.trace, fill_start) {
                t.span(
                    psj_obs::trace::cache_tid(worker),
                    "page_read",
                    "storage",
                    start,
                    &[
                        ("page", page.0 as u64),
                        ("worker", worker as u64),
                        ("retries", retries),
                        ("ok", fetched.is_ok() as u64),
                    ],
                );
            }
            guard.armed = false;
            let mut state = lock_clean(&shard.state);
            state.loading.remove(&page);
            let value = match fetched {
                Ok(v) => Arc::new(v),
                Err(e) => {
                    if e.is_corrupt() {
                        // Unrecoverable: quarantine so later requesters get
                        // the typed error without hitting the device again.
                        state.quarantined.insert(page, e.clone());
                        // Advance the version so generation-checked L1
                        // slots and optimistic readers conservatively
                        // re-validate: no front may keep serving a page
                        // the shard now refuses. (The page was loading,
                        // not resident, so there is no mirror entry to
                        // clear.)
                        shard.begin_mutate();
                        shard.end_mutate();
                        self.corrupt_detected.fetch_add(1, Ordering::Relaxed);
                        if let Some(t) = &self.trace {
                            t.instant(
                                psj_obs::trace::cache_tid(worker),
                                "page_quarantine",
                                "storage",
                                &[("page", page.0 as u64)],
                            );
                        }
                    }
                    shard.release_fill(state);
                    self.bump_retries(worker, retries);
                    return Err(e);
                }
            };
            let mut evicted = false;
            if let Some(victim) = state.buf.insert(page) {
                state.data.remove(&victim);
                state.owner.remove(&victim);
                // The victim leaves the shard: flip the version odd, drain
                // pinned optimistic readers of the victim's slot, release
                // its mirror reference, then flip back even. Generation-
                // checked L1 slots and in-flight optimistic reads both
                // observe the advance and re-validate.
                shard.begin_mutate();
                shard.mirror_remove(victim);
                shard.end_mutate();
                evicted = true;
            }
            state.data.insert(page, Arc::clone(&value));
            state.owner.insert(page, worker);
            shard.mirror_insert(page, worker, &value);
            shard.release_fill(state);
            self.bump(worker, SharedAccess::Miss, evicted, retries);
            return Ok((value, SharedAccess::Miss));
        }
    }

    /// Read-only residency test (no promotion, no stats).
    pub fn contains(&self, page: PageId) -> bool {
        lock_clean(&self.shard_of(page).state).buf.contains(page)
    }

    /// One worker's statistics.
    pub fn stats(&self, worker: usize) -> BufferStats {
        self.stats[worker].snapshot()
    }

    /// Per-worker statistics, indexed by worker.
    pub fn per_worker_stats(&self) -> Vec<BufferStats> {
        self.stats.iter().map(WorkerStats::snapshot).collect()
    }

    /// Aggregated statistics over all workers.
    pub fn total_stats(&self) -> BufferStats {
        self.per_worker_stats()
            .iter()
            .fold(BufferStats::default(), |acc, s| acc.merged(s))
    }

    /// One worker's optimistic-path counters.
    pub fn opt_stats_for(&self, worker: usize) -> OptStats {
        self.stats[worker].opt_snapshot()
    }

    /// Aggregated optimistic-path counters over all workers.
    pub fn opt_stats(&self) -> OptStats {
        self.stats
            .iter()
            .map(WorkerStats::opt_snapshot)
            .fold(OptStats::default(), |acc, s| acc.merged(&s))
    }

    /// A point-in-time view of the cache: aggregate counters plus residency.
    ///
    /// Counters are monotone, so the delta between two snapshots
    /// ([`CacheSnapshot::since`]) isolates the activity in between — the
    /// serving layer takes one snapshot at startup and reports deltas in its
    /// stats endpoint without ever resetting the live counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            stats: self.total_stats(),
            opt: self.opt_stats(),
            resident_pages: self.len(),
            capacity_pages: self.capacity(),
            quarantined_pages: self.quarantined_pages(),
            corrupt_detected: self.corrupt_detected(),
        }
    }

    /// Structural invariant check for tests; call only while no access is
    /// concurrently in flight.
    ///
    /// Verifies, per shard: residency within capacity, the value and owner
    /// maps exactly mirror the residency buffer, no load marked in flight,
    /// and no quarantined page resident. Globally: every worker's counters
    /// are internally consistent (`requests() == hits + misses` holds by
    /// construction of [`BufferStats::requests`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            let state = lock_clean(&shard.state);
            if state.buf.len() > shard.capacity {
                return Err(format!(
                    "shard {i}: {} resident pages exceed capacity {}",
                    state.buf.len(),
                    shard.capacity
                ));
            }
            if state.data.len() != state.buf.len() || state.owner.len() != state.buf.len() {
                return Err(format!(
                    "shard {i}: maps out of sync (buf {}, data {}, owner {})",
                    state.buf.len(),
                    state.data.len(),
                    state.owner.len()
                ));
            }
            for page in state.data.keys() {
                if !state.buf.contains(*page) {
                    return Err(format!("shard {i}: cached page {page} not resident"));
                }
                if !state.owner.contains_key(page) {
                    return Err(format!("shard {i}: cached page {page} has no owner"));
                }
            }
            if !state.loading.is_empty() {
                return Err(format!(
                    "shard {i}: {} loads still marked in flight at rest",
                    state.loading.len()
                ));
            }
            if state.waiters != 0 {
                return Err(format!(
                    "shard {i}: {} fill waiters still registered at rest",
                    state.waiters
                ));
            }
            for page in state.quarantined.keys() {
                if state.buf.contains(*page) {
                    return Err(format!("shard {i}: quarantined page {page} is resident"));
                }
            }
            for owner in state.owner.values() {
                if *owner >= self.stats.len() {
                    return Err(format!("shard {i}: owner {owner} out of range"));
                }
            }
            // Seqlock/mirror invariants at rest.
            let version = shard.version.load(Ordering::SeqCst);
            if !version.is_multiple_of(2) {
                return Err(format!("shard {i}: version {version} odd at rest"));
            }
            let mut mirrored = std::collections::HashSet::new();
            for (j, slot) in shard.mirror.iter().enumerate() {
                let pins = slot.pins.load(Ordering::SeqCst);
                if pins != 0 {
                    return Err(format!("shard {i} slot {j}: {pins} pins at rest"));
                }
                let tag = slot.tag.load(Ordering::SeqCst);
                let raw = slot.ptr.load(Ordering::SeqCst);
                if tag == TAG_EMPTY {
                    if !raw.is_null() {
                        return Err(format!("shard {i} slot {j}: empty slot holds a payload"));
                    }
                    continue;
                }
                let page = PageId((tag - 1) as u32);
                if !mirrored.insert(page) {
                    return Err(format!("shard {i}: page {page} mirrored twice"));
                }
                match state.data.get(&page) {
                    None => {
                        return Err(format!("shard {i}: mirrored page {page} not resident"));
                    }
                    Some(value) => {
                        if !std::ptr::eq(Arc::as_ptr(value), raw) {
                            return Err(format!(
                                "shard {i}: mirror payload for {page} diverges from the map"
                            ));
                        }
                    }
                }
                let owner = slot.owner.load(Ordering::SeqCst);
                if state.owner.get(&page) != Some(&owner) {
                    return Err(format!("shard {i}: mirror owner for {page} diverges"));
                }
            }
            // Every resident page should normally be mirrored; a full
            // probe window can leave gaps, but never extras.
            if mirrored.len() > state.data.len() {
                return Err(format!(
                    "shard {i}: {} mirrored pages exceed {} resident",
                    mirrored.len(),
                    state.data.len()
                ));
            }
            // At rest every pin has been dropped (checked above), so a
            // sweep must clear the graveyard completely.
            shard.sweep_graveyard();
            let retired = lock_clean(&shard.graveyard).len();
            if retired != 0 {
                return Err(format!(
                    "shard {i}: {retired} retired payloads still pinned at rest"
                ));
            }
        }
        Ok(())
    }
}

impl<T> std::fmt::Debug for SharedPageCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPageCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("quarantined", &self.quarantined_pages())
            .finish()
    }
}

/// A point-in-time view of a [`SharedPageCache`], from
/// [`SharedPageCache::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Aggregate counters over all workers at snapshot time.
    pub stats: BufferStats,
    /// Aggregate optimistic-read-path counters at snapshot time.
    pub opt: OptStats,
    /// Pages resident at snapshot time.
    pub resident_pages: usize,
    /// Maximum resident pages (constant over the cache's life).
    pub capacity_pages: usize,
    /// Pages quarantined as corrupt at snapshot time.
    pub quarantined_pages: usize,
    /// Corrupt fills detected so far (monotone).
    pub corrupt_detected: u64,
}

impl CacheSnapshot {
    /// Counter activity between `earlier` and this snapshot (both must be
    /// of the same cache, this one taken later).
    pub fn since(&self, earlier: &CacheSnapshot) -> BufferStats {
        self.stats.since(&earlier.stats)
    }
}

impl PageSource for psj_store::FilePager {
    type Item = Page;

    fn fetch_page(&self, page: PageId) -> Result<Page, PageError> {
        self.read_page(page)
    }

    fn page_count(&self) -> usize {
        self.num_pages()
    }
}

impl PageSource for psj_store::FaultPager {
    type Item = Page;

    fn fetch_page(&self, page: PageId) -> Result<Page, PageError> {
        self.read_page(page)
    }

    fn page_count(&self) -> usize {
        self.num_pages()
    }
}

/// A fault-injecting decorator over any [`PageSource`].
///
/// For *decoded* sources (nodes, not raw bytes) there are no record bytes
/// to flip, so permanent flip/torn faults from the [`FaultPlan`] are
/// synthesized directly as [`PageError::Corrupt`] (see
/// [`FaultPlan::before_fetch`]); transient faults and latency behave
/// exactly as in the byte-level [`psj_store::FaultPager`].
#[derive(Debug)]
pub struct FaultSource<S> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S: PageSource> FaultSource<S> {
    /// Wrap `inner` with the fault plan.
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> Self {
        FaultSource { inner, plan }
    }

    /// The fault plan driving this source.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: PageSource> PageSource for FaultSource<S> {
    type Item = S::Item;

    fn fetch_page(&self, page: PageId) -> Result<S::Item, PageError> {
        self.plan.before_fetch(page)?;
        self.inner.fetch_page(page)
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A source that counts fetches and returns the page number.
    struct Counting {
        fetches: AtomicU64,
        pages: usize,
    }

    impl Counting {
        fn new(pages: usize) -> Self {
            Counting {
                fetches: AtomicU64::new(0),
                pages,
            }
        }
    }

    impl PageSource for Counting {
        type Item = u32;

        fn fetch_page(&self, page: PageId) -> Result<u32, PageError> {
            self.fetches.fetch_add(1, Ordering::Relaxed);
            Ok(page.0)
        }

        fn page_count(&self) -> usize {
            self.pages
        }
    }

    /// A source that fails the first `failures` fetches with a transient
    /// (retryable) error.
    struct Flaky {
        failures: AtomicU64,
    }

    impl PageSource for Flaky {
        type Item = u32;

        fn fetch_page(&self, page: PageId) -> Result<u32, PageError> {
            if self
                .failures
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| f.checked_sub(1))
                .is_ok()
            {
                return Err(PageError::io(
                    page,
                    io::ErrorKind::Other,
                    "simulated bad read",
                ));
            }
            Ok(page.0)
        }

        fn page_count(&self) -> usize {
            100
        }
    }

    /// A source that always reports its pages corrupt.
    struct Rotten;

    impl PageSource for Rotten {
        type Item = u32;

        fn fetch_page(&self, page: PageId) -> Result<u32, PageError> {
            Err(PageError::Corrupt {
                page,
                context: "rotten source".into(),
            })
        }

        fn page_count(&self) -> usize {
            100
        }
    }

    fn p(n: u32) -> PageId {
        PageId(n)
    }

    #[test]
    fn miss_then_local_hit() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(2, 8, 2, Policy::Lru);
        let src = Counting::new(100);
        let (v, a) = cache.get(0, p(5), &src);
        assert_eq!((*v, a), (5, SharedAccess::Miss));
        let (v, a) = cache.get(0, p(5), &src);
        assert_eq!((*v, a), (5, SharedAccess::HitLocal));
        assert_eq!(src.fetches.load(Ordering::Relaxed), 1);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn traced_fills_emit_read_retry_and_quarantine_events() {
        let sink = psj_obs::TraceSink::new(1 << 12);
        let cache: SharedPageCache<u32> =
            SharedPageCache::new(2, 8, 2, Policy::Lru).with_trace(Arc::clone(&sink));

        // A clean miss: one page_read span, no retry instants.
        let src = Counting::new(100);
        cache.get(0, p(1), &src);
        // A hit: no new events (the fast path never sees the sink).
        cache.get(0, p(1), &src);
        assert_eq!(sink.event_count(), 1);

        // Two transient failures then success: two page_retry instants
        // plus the page_read span.
        let flaky = Flaky {
            failures: AtomicU64::new(2),
        };
        cache.try_get(1, p(2), &flaky).unwrap();
        assert_eq!(sink.event_count(), 4);

        // Corruption: page_read span + page_quarantine instant.
        assert!(cache.try_get(0, p(3), &Rotten).is_err());
        assert_eq!(sink.event_count(), 6);

        let mut out = Vec::new();
        sink.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let summary = psj_obs::validate_jsonl(&text).unwrap();
        assert_eq!(summary.spans, 3, "{text}");
        assert_eq!(summary.instants, 3, "{text}");
        assert!(text.contains("page_quarantine"));
        assert!(text.contains("page_retry"));
    }

    #[test]
    fn hit_by_other_worker_is_remote() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(3, 8, 2, Policy::Lru);
        let src = Counting::new(100);
        cache.get(2, p(7), &src);
        let (_, a) = cache.get(0, p(7), &src);
        assert_eq!(a, SharedAccess::HitRemote { owner: 2 });
        let total = cache.total_stats();
        assert_eq!(total.misses, 1);
        assert_eq!(total.hits_remote, 1);
        assert_eq!(cache.stats(0).hits_remote, 1);
        assert_eq!(cache.stats(2).misses, 1);
    }

    #[test]
    fn eviction_keeps_capacity_and_drops_value() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 4, 1, Policy::Lru);
        let src = Counting::new(100);
        for n in 0..10 {
            cache.get(0, p(n), &src);
            assert!(cache.len() <= cache.capacity());
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.total_stats().evictions, 6);
        // Re-reading an evicted page re-fetches.
        assert!(!cache.contains(p(0)));
        let (_, a) = cache.get(0, p(0), &src);
        assert_eq!(a, SharedAccess::Miss);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn pinned_value_survives_eviction() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 1, 1, Policy::Lru);
        let src = Counting::new(100);
        let (pinned, _) = cache.get(0, p(1), &src);
        for n in 2..6 {
            cache.get(0, p(n), &src); // evicts p1 and successors
        }
        assert!(!cache.contains(p(1)));
        assert_eq!(*pinned, 1, "Arc keeps the evicted value alive");
    }

    #[test]
    fn capacity_rounds_up_per_shard() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 10, 4, Policy::Lru);
        // 10 / 4 rounds to 3 per shard: effective capacity 12.
        assert_eq!(cache.capacity(), 12);
        let tiny: SharedPageCache<u32> = SharedPageCache::new(1, 0, 3, Policy::Lru);
        assert_eq!(tiny.capacity(), 3, "every shard holds at least one page");
    }

    #[test]
    fn fetch_count_equals_misses() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(4, 64, 4, Policy::Lru);
        let src = Counting::new(40);
        for round in 0..3 {
            for n in 0..40 {
                let (v, _) = cache.get((n as usize + round) % 4, p(n), &src);
                assert_eq!(*v, n);
            }
        }
        let total = cache.total_stats();
        assert_eq!(total.misses, 40, "big cache: one miss per distinct page");
        assert_eq!(src.fetches.load(Ordering::Relaxed), total.misses);
        assert_eq!(total.requests(), 120);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_single_fetch_per_page() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(8, 128, 4, Policy::Lru);
        let src = Counting::new(64);
        std::thread::scope(|scope| {
            for w in 0..8 {
                let cache = &cache;
                let src = &src;
                scope.spawn(move || {
                    for n in 0..64u32 {
                        let (v, _) = cache.get(w, p(n), src);
                        assert_eq!(*v, n);
                    }
                });
            }
        });
        // Big enough cache: despite 8 threads racing on every page, each
        // page was fetched exactly once.
        assert_eq!(src.fetches.load(Ordering::Relaxed), 64);
        let total = cache.total_stats();
        assert_eq!(total.misses, 64);
        assert_eq!(total.requests(), 8 * 64);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn policies_dispatch() {
        for policy in [Policy::Lru, Policy::Fifo, Policy::Clock] {
            let cache: SharedPageCache<u32> = SharedPageCache::new(1, 3, 1, policy);
            let src = Counting::new(10);
            for n in 0..5 {
                cache.get(0, p(n), &src);
            }
            assert_eq!(cache.len(), 3, "{policy:?}");
            assert!(cache.contains(p(4)), "{policy:?} keeps newest");
            cache.check_invariants().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _: SharedPageCache<u32> = SharedPageCache::new(1, 4, 0, Policy::Lru);
    }

    #[test]
    fn failed_fetch_degrades_one_request_only() {
        // RetryPolicy::none so the single injected failure is not absorbed.
        let cache: SharedPageCache<u32> =
            SharedPageCache::new(1, 8, 2, Policy::Lru).with_retry(RetryPolicy::none());
        let src = Flaky {
            failures: AtomicU64::new(1),
        };
        let err = cache.try_get(0, p(3), &src).unwrap_err();
        assert!(matches!(err, PageError::Io { .. }));
        cache.check_invariants().unwrap();
        assert!(!cache.contains(p(3)), "failed fetch caches nothing");
        // The very next request retries the source and succeeds.
        let (v, a) = cache.try_get(0, p(3), &src).unwrap();
        assert_eq!((*v, a), (3, SharedAccess::Miss));
        cache.check_invariants().unwrap();
    }

    #[test]
    fn transient_errors_absorbed_by_retry_policy() {
        // Default policy: 3 attempts. Two failures are retried in place and
        // the request still succeeds, with the retries counted.
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 8, 2, Policy::Lru);
        let src = Flaky {
            failures: AtomicU64::new(2),
        };
        let (v, a) = cache.try_get(0, p(3), &src).unwrap();
        assert_eq!((*v, a), (3, SharedAccess::Miss));
        assert_eq!(cache.total_stats().retries, 2);
        assert_eq!(cache.total_stats().misses, 1);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn retry_budget_exhaustion_fails_and_counts() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 8, 2, Policy::Lru);
        let src = Flaky {
            failures: AtomicU64::new(10),
        };
        let err = cache.try_get(0, p(3), &src).unwrap_err();
        assert!(matches!(err, PageError::Io { .. }));
        // 3 attempts = 2 retries, all counted even though the fill failed.
        assert_eq!(cache.total_stats().retries, 2);
        assert!(!cache.contains(p(3)));
        cache.check_invariants().unwrap();
    }

    #[test]
    fn corrupt_fill_quarantines_and_replays() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(2, 8, 2, Policy::Lru);
        let src = Rotten;
        let err = cache.try_get(0, p(9), &src).unwrap_err();
        assert!(err.is_corrupt());
        assert!(cache.is_quarantined(p(9)));
        assert_eq!(cache.quarantined_pages(), 1);
        assert_eq!(cache.corrupt_detected(), 1);
        // A later request (different worker) replays the stored error
        // without touching the source again.
        let counting_gate = Counting::new(100); // healthy source
        let replay = cache.try_get(1, p(9), &counting_gate).unwrap_err();
        assert!(replay.is_corrupt());
        assert_eq!(
            counting_gate.fetches.load(Ordering::Relaxed),
            0,
            "quarantined page never re-fetched"
        );
        assert_eq!(cache.corrupt_detected(), 1, "replays are not re-detections");
        // Healthy pages are unaffected.
        let (v, _) = cache.try_get(0, p(10), &counting_gate).unwrap();
        assert_eq!(*v, 10);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_waiters_survive_a_failed_fetch() {
        let cache: SharedPageCache<u32> =
            SharedPageCache::new(8, 64, 2, Policy::Lru).with_retry(RetryPolicy::none());
        let src = Flaky {
            failures: AtomicU64::new(3),
        };
        let ok = AtomicU64::new(0);
        let failed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..8 {
                let cache = &cache;
                let src = &src;
                let ok = &ok;
                let failed = &failed;
                scope.spawn(move || {
                    for n in 0..16u32 {
                        match cache.try_get(w, p(n), src) {
                            Ok((v, _)) => {
                                assert_eq!(*v, n);
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(
            failed.load(Ordering::Relaxed),
            3,
            "each failure hits one request"
        );
        assert_eq!(ok.load(Ordering::Relaxed), 8 * 16 - 3);
        cache.check_invariants().unwrap();
    }

    /// A source whose fetches block until [`Gated::open`], holding a fill
    /// in flight; the page in `fail_once` fails its first fetch.
    struct Gated {
        open: Mutex<bool>,
        opened: Condvar,
        fail_once: Mutex<Option<u32>>,
    }

    impl Gated {
        fn new(fail_once: Option<u32>) -> Self {
            Gated {
                open: Mutex::new(false),
                opened: Condvar::new(),
                fail_once: Mutex::new(fail_once),
            }
        }

        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    impl PageSource for Gated {
        type Item = u32;

        fn fetch_page(&self, page: PageId) -> Result<u32, PageError> {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
            drop(open);
            if self
                .fail_once
                .lock()
                .unwrap()
                .take_if(|f| *f == page.0)
                .is_some()
            {
                return Err(PageError::io(page, io::ErrorKind::Other, "gated failure"));
            }
            Ok(page.0)
        }

        fn page_count(&self) -> usize {
            100
        }
    }

    /// Satellite: fills skip the condvar wake-up when nobody waits, so a
    /// registered waiter must still be woken — by a successful fill (it
    /// takes the value as an in-flight hit) and by a failed one (it
    /// retries the fetch itself). A missed wake-up fails the test after a
    /// deadline instead of hanging it.
    #[test]
    fn waiter_on_an_in_flight_fill_is_woken_by_success_and_by_failure() {
        for fail in [false, true] {
            let cache: SharedPageCache<u32> =
                SharedPageCache::new(2, 8, 1, Policy::Lru).with_retry(RetryPolicy::none());
            let src = Gated::new(fail.then_some(3));
            let shard = &cache.shards[0];
            let poll = |done: &dyn Fn() -> bool| {
                while !done() {
                    std::thread::yield_now();
                }
            };
            std::thread::scope(|s| {
                let filler = s.spawn(|| cache.try_get(0, p(3), &src).map(|(v, _)| *v));
                poll(&|| lock_clean(&shard.state).loading.contains(&p(3)));
                let waiter = s.spawn(|| cache.try_get(1, p(3), &src));
                poll(&|| lock_clean(&shard.state).waiters == 1);
                src.open();
                let filled = filler.join().unwrap();
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while !waiter.is_finished() && std::time::Instant::now() < deadline {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                if !waiter.is_finished() {
                    shard.loaded.notify_all(); // unblock it so the scope can end
                    panic!(
                        "waiter not woken by a {} fill",
                        if fail { "failed" } else { "successful" }
                    );
                }
                let (v, access) = waiter.join().unwrap().expect("the waiter recovers");
                assert_eq!(*v, 3);
                if fail {
                    assert!(filled.is_err(), "the gated fill failed");
                    assert_eq!(access, SharedAccess::Miss, "the waiter refetched");
                } else {
                    assert_eq!(filled.unwrap(), 3);
                    assert_eq!(access, SharedAccess::HitInFlight);
                }
            });
            cache.check_invariants().unwrap();
        }
    }

    #[test]
    fn concurrent_waiters_on_a_corrupt_page_all_get_the_typed_error() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(8, 64, 2, Policy::Lru);
        let src = Rotten;
        let corrupt = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..8 {
                let cache = &cache;
                let src = &src;
                let corrupt = &corrupt;
                scope.spawn(move || match cache.try_get(w, p(5), src) {
                    Err(e) if e.is_corrupt() => {
                        corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("expected corrupt error, got {other:?}"),
                });
            }
        });
        assert_eq!(corrupt.load(Ordering::Relaxed), 8);
        assert_eq!(cache.corrupt_detected(), 1, "one detection, many replays");
        cache.check_invariants().unwrap();
    }

    #[test]
    fn fault_source_injects_per_plan() {
        let plan = Arc::new(FaultPlan::new(21).with_transient(1.0, 1));
        let src = FaultSource::new(Counting::new(100), plan.clone());
        // Default retry policy (3 attempts) absorbs the burst of 1.
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 32, 2, Policy::Lru);
        for n in 0..20 {
            let (v, _) = cache.try_get(0, p(n), &src).unwrap();
            assert_eq!(*v, n);
        }
        assert_eq!(plan.transient_injected(), 20);
        assert_eq!(cache.total_stats().retries, plan.transient_injected());
        cache.check_invariants().unwrap();
    }

    #[test]
    fn fault_source_corruption_quarantines() {
        let plan = Arc::new(FaultPlan::new(22).with_flip(0.5));
        let src = FaultSource::new(Counting::new(100), plan.clone());
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 64, 2, Policy::Lru);
        let mut corrupt = 0;
        for n in 0..40 {
            match cache.try_get(0, p(n), &src) {
                Ok((v, _)) => assert_eq!(*v, n),
                Err(e) => {
                    assert!(e.is_corrupt());
                    corrupt += 1;
                }
            }
        }
        assert!(corrupt > 0, "plan with flip=0.5 should poison some pages");
        assert_eq!(cache.quarantined_pages(), corrupt);
        assert_eq!(cache.corrupt_detected(), corrupt as u64);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_delta_isolates_activity() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(2, 16, 2, Policy::Lru);
        let src = Counting::new(100);
        for n in 0..8 {
            cache.get(0, p(n), &src);
        }
        let before = cache.snapshot();
        assert_eq!(before.stats.misses, 8);
        assert_eq!(before.resident_pages, 8);
        for n in 0..8 {
            cache.get(1, p(n), &src); // all remote hits
        }
        let after = cache.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.misses, 0);
        assert_eq!(delta.hits_remote, 8);
        assert_eq!(delta.requests(), 8);
        assert_eq!(after.capacity_pages, cache.capacity());
        assert_eq!(after.quarantined_pages, 0);
    }
}
