//! A concurrent, lock-sharded page cache for the native executor.
//!
//! The paper's buffer layer ([`crate::LocalBuffers`], [`crate::GlobalBuffer`])
//! is single-threaded: the discrete-event simulator interleaves processors
//! deterministically, so plain `&mut` access suffices. The native executor
//! runs real OS threads, which need a cache that is *correct under
//! concurrency* while preserving the paper's semantics:
//!
//! * bounded residency — a fixed set of `capacity` page frames (slots)
//!   across all shards, allocated once,
//! * single fetch per page — concurrent requesters of a non-resident page
//!   wait for the one in-flight load instead of fetching twice (the paper's
//!   §3.1 in-flight mechanism, here a per-shard condvar),
//! * a page in use stays resident — a slot some reader holds is never
//!   chosen for replacement,
//! * per-worker [`BufferStats`] distinguishing local hits, *remote* hits
//!   (page cached by a different worker — the global organization's
//!   interconnect traffic), in-flight waits, misses, and evictions,
//! * pluggable replacement [`Policy`] via the existing [`PageBuffer`]
//!   machinery, LRU by default.
//!
//! The cache is generic over what a page decodes to (`T`): the native join
//! caches fixed-size node frames, the tests plain integers. Values live
//! **in place** in their slot: a miss fills the slot through
//! [`PageSource::fill_page`] and a hit lends out `&T` from it, so the cache
//! allocates nothing after construction.
//!
//! Sharding: a page's shard is `hash(page) % shards`. Each shard has its own
//! mutex, slots (`capacity / shards`, the first `capacity % shards` shards
//! one more), and condvar, so disjoint pages contend only 1/N of the time.
//! With `shards == 1` the cache degenerates to a single global lock — the
//! configuration a per-worker *local* buffer uses, since it is uncontended
//! anyway.
//!
//! ## Failure handling
//!
//! Fills are fallible and typed ([`psj_store::PageError`]). The cache
//! neither retries a fill nor remembers its failure: a failed fill frees
//! its slot, clears the in-flight marker, wakes the requesters waiting on
//! it and returns the source's error to its own requester, and the next
//! request for the page fetches it again. Fault injection and retries
//! belong to the reader above the cache: the R-tree join runs its fault
//! plan on every node read, before it asks the cache.
//!
//! ## Slots, the page table and guards
//!
//! Each shard owns a slab of slots, one uninitialised allocation made at
//! construction; a slot is written by the fill that reserved it before
//! anyone reads it. Every slot carries three atomics: `tag` (`page + 1`
//! while the slot holds a published page, 0 otherwise), `pins` (live
//! [`PageGuard`]s) and `owner` (the worker whose fill loaded it). A
//! lock-free open-addressed *page table* maps page → slot; it is the only
//! index of resident pages.
//!
//! [`SharedPageCache::try_get`] is the read entry. A hit on a resident page
//! takes **no shard mutex**: it probes the table, pins the slot and checks
//! the slot's own tag, and the pin is then the [`PageGuard`]'s lease on the
//! value until it drops. A tag that no longer names the page means the slot
//! is being replaced right now, and the read goes straight to the mutex
//! path, booking one [`OptStats::fallbacks`]. The mutex path owns
//! single-flight fills and replacement promotion; it also returns a guard.
//!
//! ## Why a pinned slot needs no deferred free
//!
//! Mutations — fills and evictions — run under the shard mutex. A
//! fill reserves its slot before it fetches: a free slot, else the slot of
//! the replacement policy's first **unpinned** page. To test a candidate
//! the remover clears its tag and then reads its pins, both SeqCst; the
//! reader's `pin ; load tag` is SeqCst too (Dekker). Either the reader sees
//! the cleared tag and backs off without touching the value, or the
//! remover sees the pin, restores the tag and asks the policy for the next
//! page. A slot a guard holds is therefore never reused, its value never
//! moves or dies under the guard, and nothing has to be freed later. A
//! reader may hold a guard on a page *while* performing a fill in the same
//! shard: the fill simply takes another slot.
//!
//! If every slot of the shard is pinned or reserved, the fill serves the
//! page **unbuffered** ([`PageRef::Unbuffered`]): booked as a miss, nothing
//! evicted, the page not cached ([`SharedPageCache::unbuffered`] counts
//! them). A join holds at most two pins per worker, so a shard with more
//! than `2 × workers` slots never overflows.
//!
//! ## Why a guard is validated alone
//!
//! Every cached value is an immutable decode of a frozen page. Once a
//! guard has validated its pin, its value is the page's only value and
//! stays in place until the guard drops, whatever happens to other pages. A
//! B-tree that changes nodes in place chains validation from parent to
//! child (optimistic lock coupling), because a parent's change can move
//! the child's keys elsewhere. Here a parent's eviction changes nothing a
//! child guard holds, so such a chain would check nothing that each
//! guard's own pin-and-recheck does not already check.
//!
//! Guard hits skip replacement promotion, so every `TOUCH_SAMPLE`-th
//! guard hit per worker re-touches the page under a `try_lock`, keeping
//! hammered pages near the MRU end of their shard's replacement order
//! even when cold fills churn it. Per-read statistics are striped per
//! worker (relaxed atomics on cacheline-padded counters), so a hot root
//! page never touches a contended line; the guard-path counters are
//! surfaced separately as [`OptStats`].

use crate::policy::{PageBuffer, Policy};
use crate::stats::{BufferStats, OptStats};
use psj_store::{lock_clean, wait_clean, PageError, PageId};
use std::cell::UnsafeCell;
use std::collections::HashSet;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Where a page's value comes from on a cache miss.
///
/// Implemented in `psj-core` by the join's adapter over `PagedTree`, which
/// fills node frames in place from the tree's arena, and in tests by small
/// fakes.
pub trait PageSource {
    /// What a fetched page decodes to.
    type Item;

    /// Fetches/decodes `page`. Called outside all cache locks; concurrent
    /// calls for *distinct* pages may overlap, the cache guarantees at most
    /// one in-flight fetch per page. A failure is propagated to the
    /// requester by [`SharedPageCache::try_get`] and cached nowhere — the
    /// next request for the page fetches it again.
    fn fetch_page(&self, page: PageId) -> Result<Self::Item, PageError>;

    /// Total number of pages this source can serve (page ids `0..n`).
    fn page_count(&self) -> usize;

    /// Fetches `page` straight into `slot`, the cache slot its value will
    /// live in, and returns the value there, as the reference
    /// `MaybeUninit::write` gives (the cache checks it is `slot`); the
    /// cache calls only this method. The default forwards to
    /// [`PageSource::fetch_page`]; a source that can build its value in
    /// place overrides it to skip the intermediate value. On `Err`, `slot`
    /// holds no value: whatever was written is neither read nor dropped.
    fn fill_page<'s>(
        &self,
        page: PageId,
        slot: &'s mut MaybeUninit<Self::Item>,
    ) -> Result<&'s mut Self::Item, PageError> {
        Ok(slot.write(self.fetch_page(page)?))
    }
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

/// Tag of a slot that holds no published page ([`SlotMeta::tag`]).
const TAG_EMPTY: u64 = 0;

/// Page-table entry of an unused table position.
const ENTRY_EMPTY: u64 = 0;

/// Every `TOUCH_SAMPLE`-th guard hit per worker re-touches the page in
/// its shard's replacement order (under `try_lock`, skipped when the
/// mutex is busy). Guard hits otherwise never promote, so a
/// permanently hot page would look idle to the LRU and could be evicted
/// by a stream of cold fills; sampling keeps the promotion cost off the
/// hot path while bounding how stale a hot page's recency can get.
const TOUCH_SAMPLE: u64 = 64;

#[inline]
fn tag_of(page: PageId) -> u64 {
    page.0 as u64 + 1
}

/// Fibonacci hash of a page id: the high half picks the shard, the low
/// bits the page table's home position. Plain modulo would put all of a
/// small tree's sequential page ids in adjacent shards.
#[inline]
fn page_hash(page: PageId) -> u64 {
    (page.0 as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

/// The atomics of one slot. All writes but `pins` happen under the shard
/// mutex; readers only pin and unpin.
#[derive(Default)]
struct SlotMeta {
    /// `page + 1` while the slot holds a published page, [`TAG_EMPTY`]
    /// otherwise. Stored `Release` after the value and `owner`, so a reader
    /// that observes the tag observes both.
    tag: AtomicU64,
    /// Live [`PageGuard`]s on the slot. SeqCst pairs the reader's
    /// `pin ; load tag` against a remover's `clear tag ; load pins`
    /// (Dekker): either the reader sees the cleared tag and backs off, or
    /// the remover sees the pin and leaves the slot alone.
    pins: AtomicUsize,
    /// Worker whose fill loaded the page.
    owner: AtomicUsize,
}

struct ShardState {
    /// Residency + replacement order over this shard's published pages.
    buf: PageBuffer,
    /// Slots holding no value: never filled, or returned by a failed fill.
    free: Vec<u32>,
    /// Pages some worker is currently fetching.
    loading: HashSet<PageId>,
    /// Requesters blocked on [`Shard::loaded`] for an in-flight fill.
    /// `std`'s condvar does not track waiters, so every `notify_all` is a
    /// futex syscall; a fill consults this (under the mutex the waiter
    /// registered under) and skips the wake when nobody is waiting.
    waiters: usize,
}

struct Shard<T> {
    state: Mutex<ShardState>,
    loaded: Condvar,
    /// One entry per slot.
    meta: Box<[SlotMeta]>,
    /// The slot slab. A slot's value is initialised exactly while its tag
    /// is set, plus the span of a fill between writing it and publishing.
    values: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Page table: `page << 32 | (slot + 1)` per entry, [`ENTRY_EMPTY`]
    /// for none; power-of-two sized at ≥ 2× the slots, linear probing.
    /// Written only under `state`; read lock-free, where an entry is a
    /// hint the slot's own tag confirms.
    table: Box<[AtomicU64]>,
}

// SAFETY: a slot's value is written only by the one fill that reserved it
// (no tag, no table entry, so no reader) and read only through a pin
// validated against its tag, which keeps every remover away (see the
// module docs); the rest of the shard is atomics and mutex-guarded state.
unsafe impl<T: Send + Sync> Sync for Shard<T> {}

impl<T> Shard<T> {
    fn new(slots: usize, policy: Policy) -> Self {
        let values: Box<[MaybeUninit<T>]> = Box::new_uninit_slice(slots);
        // SAFETY: `UnsafeCell<X>` is `repr(transparent)` over `X`.
        let values =
            unsafe { Box::from_raw(Box::into_raw(values) as *mut [UnsafeCell<MaybeUninit<T>>]) };
        let table_len = (slots * 2).next_power_of_two().max(16);
        Shard {
            state: Mutex::new(ShardState {
                buf: PageBuffer::new(policy, slots),
                free: (0..slots as u32).rev().collect(),
                loading: HashSet::new(),
                waiters: 0,
            }),
            loaded: Condvar::new(),
            meta: (0..slots).map(|_| SlotMeta::default()).collect(),
            values,
            table: (0..table_len)
                .map(|_| AtomicU64::new(ENTRY_EMPTY))
                .collect(),
        }
    }

    #[inline]
    fn home(&self, page: PageId) -> usize {
        page_hash(page) as usize & (self.table.len() - 1)
    }

    /// `(table position, slot)` of `page`. Exact under the shard mutex;
    /// lock-free it may miss an entry a concurrent removal is shifting,
    /// which only sends that read to the mutex path.
    #[inline]
    fn probe(&self, page: PageId) -> Option<(usize, usize)> {
        let mask = self.table.len() - 1;
        let mut pos = self.home(page);
        for _ in 0..self.table.len() {
            let entry = self.table[pos].load(Ordering::Acquire);
            if entry == ENTRY_EMPTY {
                return None;
            }
            if (entry >> 32) as u32 == page.0 {
                return Some((pos, (entry as u32 - 1) as usize));
            }
            pos = (pos + 1) & mask;
        }
        None
    }

    /// Adds `page → slot` (under the shard mutex). Slots are at most half
    /// the table, so the probe always finds an empty position.
    fn table_insert(&self, page: PageId, slot: usize) {
        let mask = self.table.len() - 1;
        let mut pos = self.home(page);
        while self.table[pos].load(Ordering::Relaxed) != ENTRY_EMPTY {
            pos = (pos + 1) & mask;
        }
        let entry = (page.0 as u64) << 32 | (slot as u64 + 1);
        self.table[pos].store(entry, Ordering::Release);
    }

    /// Removes `page` (under the shard mutex) by backward-shift deletion,
    /// which keeps every probe sequence gap-free without tombstones.
    fn table_remove(&self, page: PageId) {
        let mask = self.table.len() - 1;
        let Some((mut hole, _)) = self.probe(page) else {
            return;
        };
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let entry = self.table[pos].load(Ordering::Relaxed);
            if entry == ENTRY_EMPTY {
                break;
            }
            // The entry may fill the hole unless its home lies cyclically
            // after the hole, i.e. unless the hole is not on its probe path.
            let home = self.home(PageId((entry >> 32) as u32));
            if (pos.wrapping_sub(home) & mask) >= (pos.wrapping_sub(hole) & mask) {
                self.table[hole].store(entry, Ordering::Release);
                hole = pos;
            }
        }
        self.table[hole].store(ENTRY_EMPTY, Ordering::Release);
    }

    #[inline]
    fn value(&self, slot: usize) -> *mut MaybeUninit<T> {
        self.values[slot].get()
    }

    /// A guard on a resident `slot`, pinned under the shard mutex: no
    /// remover runs while the mutex is held, so the pin needs no
    /// validation.
    fn pin_locked(&self, slot: usize, page: PageId, access: SharedAccess) -> PageGuard<'_, T> {
        let meta = &self.meta[slot];
        meta.pins.fetch_add(1, Ordering::SeqCst);
        PageGuard {
            pins: &meta.pins,
            value: self.value(slot).cast_const().cast(),
            page,
            access,
        }
    }

    /// Reserves the slot a fill of a new page writes (under the shard
    /// mutex): a free slot, else the slot of the replacement policy's first
    /// unpinned page, which is evicted here. `None` when every slot is
    /// pinned or reserved by other fills. The reserved slot holds no value,
    /// no tag and no table entry, so nobody else reads or writes it.
    fn reserve(&self, state: &mut ShardState) -> Option<(usize, bool)> {
        if let Some(slot) = state.free.pop() {
            return Some((slot as usize, false));
        }
        let mut claimed = None;
        let victim = state.buf.evict_where(|page| {
            let (_, slot) = self.probe(page).expect("a resident page is in the table");
            let meta = &self.meta[slot];
            // Dekker with the reader's `pin ; load tag` (see `SlotMeta`).
            meta.tag.store(TAG_EMPTY, Ordering::SeqCst);
            if meta.pins.load(Ordering::SeqCst) == 0 {
                claimed = Some(slot);
                true
            } else {
                meta.tag.store(tag_of(page), Ordering::Release);
                false
            }
        })?;
        self.table_remove(victim);
        let slot = claimed.expect("an evicted page's slot was claimed");
        // SAFETY: the slot held `victim`'s value (its tag was set), and no
        // pin is left or can validate on it any more.
        unsafe { (*self.value(slot)).assume_init_drop() };
        Some((slot, true))
    }

    /// Publishes a filled `slot` as `page` (under the shard mutex) and
    /// returns the filler's guard on it.
    fn publish(
        &self,
        state: &mut ShardState,
        page: PageId,
        slot: usize,
        worker: usize,
    ) -> PageGuard<'_, T> {
        self.meta[slot].owner.store(worker, Ordering::Relaxed);
        let guard = self.pin_locked(slot, page, SharedAccess::Miss);
        self.meta[slot].tag.store(tag_of(page), Ordering::Release);
        self.table_insert(page, slot);
        let evicted = state.buf.insert(page);
        debug_assert!(evicted.is_none(), "a reserved slot always has room");
        guard
    }

    /// Releases the shard lock after a fill cleared its in-flight marker
    /// and wakes the requesters waiting on it, if any. A waiter registers
    /// under this same lock before `wait` atomically releases it, so a
    /// zero count here proves no one can miss the wake-up.
    fn release_fill(&self, state: MutexGuard<'_, ShardState>) {
        let wake = state.waiters > 0;
        drop(state);
        if wake {
            self.loaded.notify_all();
        }
    }
}

impl<T> Drop for Shard<T> {
    fn drop(&mut self) {
        if !std::mem::needs_drop::<T>() {
            return;
        }
        for (meta, value) in self.meta.iter_mut().zip(self.values.iter_mut()) {
            if *meta.tag.get_mut() != TAG_EMPTY {
                // SAFETY: a tagged slot holds its page's value; no guard
                // outlives the cache it borrows.
                unsafe { value.get_mut().assume_init_drop() };
            }
        }
    }
}

/// Undoes a fill's reservation if the fill unwinds: a source that panics
/// mid-fetch must not leave every later
/// requester of the page blocked on the condvar, nor lose the slot.
struct LoadingGuard<'a, T> {
    shard: &'a Shard<T>,
    page: PageId,
    slot: Option<usize>,
    armed: bool,
}

impl<T> Drop for LoadingGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = lock_clean(&self.shard.state);
            state.loading.remove(&self.page);
            if let Some(slot) = self.slot {
                state.free.push(slot as u32);
            }
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
    hits_remote: AtomicU64,
    hits_in_flight: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Guard-path counters (see [`OptStats`]); striped with the rest so
    /// the guard hit path touches only this worker's line.
    opt_hits: AtomicU64,
    opt_fallbacks: AtomicU64,
    /// Rolling tick driving the sampled LRU touch on guard hits (not a
    /// statistic; lives here for the per-worker cacheline).
    touch_tick: AtomicU64,
}

impl WorkerStats {
    fn snapshot(&self) -> BufferStats {
        BufferStats {
            hits_local: self.hits_local.load(Ordering::Relaxed),
            hits_l1: 0,
            hits_remote: self.hits_remote.load(Ordering::Relaxed),
            hits_in_flight: self.hits_in_flight.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            hits_path: 0,
            retries: 0,
        }
    }

    fn opt_snapshot(&self) -> OptStats {
        OptStats {
            hits: self.opt_hits.load(Ordering::Relaxed),
            fallbacks: self.opt_fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// A pinned view of a cached page: derefs to `&T` straight out of its
/// slot. Produced by [`SharedPageCache::guard_get`] and
/// [`SharedPageCache::try_get`]. While it lives, the slot is never chosen
/// for replacement, so the value stays in place — see the module docs.
pub struct PageGuard<'c, T> {
    pins: &'c AtomicUsize,
    value: *const T,
    page: PageId,
    access: SharedAccess,
}

impl<T> PageGuard<'_, T> {
    /// How the read was satisfied.
    pub fn access(&self) -> SharedAccess {
        self.access
    }

    /// The page this guard reads.
    pub fn page(&self) -> PageId {
        self.page
    }
}

impl<T> std::ops::Deref for PageGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the pin was taken on a slot holding this page's value,
        // and a pinned slot is never cleared or refilled.
        unsafe { &*self.value }
    }
}

impl<T> Drop for PageGuard<'_, T> {
    fn drop(&mut self) {
        // Release: this guard's reads of the value happen before a remover
        // that sees the pin gone reuses the slot.
        self.pins.fetch_sub(1, Ordering::Release);
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

/// A page read by [`SharedPageCache::try_get`]: a guard on the page's slot,
/// or — when every slot of its shard was pinned — the value itself,
/// fetched for this request only. Boxed so the common guard case stays a
/// few words whatever the size of `T`.
pub enum PageRef<'c, T> {
    /// The page is cached; the guard pins its slot.
    Guard(PageGuard<'c, T>),
    /// Served unbuffered: a miss that cached nothing.
    Unbuffered(Box<T>),
}

impl<T> PageRef<'_, T> {
    /// How the read was satisfied.
    pub fn access(&self) -> SharedAccess {
        match self {
            PageRef::Guard(g) => g.access(),
            PageRef::Unbuffered(_) => SharedAccess::Miss,
        }
    }
}

impl<T> std::ops::Deref for PageRef<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        match self {
            PageRef::Guard(g) => g,
            PageRef::Unbuffered(v) => v,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PageRef<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageRef")
            .field("access", &self.access())
            .field("value", &**self)
            .finish()
    }
}

/// The concurrent sharded page cache.
pub struct SharedPageCache<T> {
    shards: Vec<Shard<T>>,
    stats: Vec<WorkerStats>,
    unbuffered: AtomicU64,
    trace: Option<Arc<psj_obs::TraceSink>>,
    /// The test hook [`SharedPageCache::set_schedule_point`] installs.
    #[cfg(feature = "schedule-points")]
    schedule_point: std::sync::OnceLock<SchedulePoint>,
}

/// A test hook a guard read calls with its worker and page.
#[cfg(feature = "schedule-points")]
type SchedulePoint = Box<dyn Fn(usize, PageId) + Send + Sync>;

#[cfg(feature = "schedule-points")]
impl<T> SharedPageCache<T> {
    /// Installs `point`, which every guard read
    /// ([`SharedPageCache::guard_get`]) then calls with its worker and page
    /// after the page table named a slot and before the read pins it. That
    /// is the window in which a replacement of the slot makes the read's
    /// validation fail (once pinned, the slot cannot be replaced), so a
    /// test parks a reader here to force that race. Test-only: exists with
    /// the `schedule-points` feature, which the crate enables for its own
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if the cache already has a schedule point.
    pub fn set_schedule_point(&self, point: impl Fn(usize, PageId) + Send + Sync + 'static) {
        if self.schedule_point.set(Box::new(point)).is_err() {
            panic!("the cache already has a schedule point");
        }
    }
}

impl<T> SharedPageCache<T> {
    /// Creates a cache of exactly `capacity` page slots (at least one),
    /// split over `shards` independently locked segments (at most one per
    /// slot), tracking stats for `workers` workers. Slots are split as
    /// evenly as possible: the first `capacity % shards` shards get one
    /// more.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `workers` is zero.
    pub fn new(workers: usize, capacity: usize, shards: usize, policy: Policy) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(workers > 0, "need at least one worker");
        let capacity = capacity.max(1);
        let shards = shards.min(capacity);
        SharedPageCache {
            shards: (0..shards)
                .map(|i| {
                    let slots = capacity / shards + usize::from(i < capacity % shards);
                    Shard::new(slots, policy)
                })
                .collect(),
            stats: (0..workers).map(|_| WorkerStats::default()).collect(),
            unbuffered: AtomicU64::new(0),
            trace: None,
            #[cfg(feature = "schedule-points")]
            schedule_point: std::sync::OnceLock::new(),
        }
    }

    /// Attach a trace sink (builder style): every fill that reaches the
    /// source emits a `page_read` span on the requesting worker's cache
    /// thread row. Hits stay
    /// untraced — the slow path is the only place the `Option` is checked,
    /// so a disabled trace costs nothing on the hit path.
    pub fn with_trace(mut self, trace: Arc<psj_obs::TraceSink>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Maximum number of resident pages: the slots of all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.meta.len()).sum()
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

    /// Fills served unbuffered because every slot of their shard was
    /// pinned or reserved (monotone; each is also one miss).
    pub fn unbuffered(&self) -> u64 {
        self.unbuffered.load(Ordering::Relaxed)
    }

    #[inline]
    fn shard_of(&self, page: PageId) -> &Shard<T> {
        &self.shards[(page_hash(page) >> 32) as usize % self.shards.len()]
    }

    /// Sampled replacement promotion for guard hits, which bypass the
    /// mutex: every [`TOUCH_SAMPLE`]-th guard hit per worker re-touches
    /// the page under the shard mutex — but only if the mutex is
    /// immediately available, so the hot path never queues on it.
    fn sampled_touch(&self, worker: usize, shard: &Shard<T>, page: PageId) {
        let tick = self.stats[worker]
            .touch_tick
            .fetch_add(1, Ordering::Relaxed);
        if !tick.is_multiple_of(TOUCH_SAMPLE) {
            return;
        }
        if let Ok(mut state) = shard.state.try_lock() {
            state.buf.touch(page);
        }
    }

    /// Books how a request was satisfied. Counter updates run outside
    /// every shard lock, so the mutex is never held for stats.
    fn bump(&self, worker: usize, access: SharedAccess) {
        let s = &self.stats[worker];
        match access {
            SharedAccess::HitLocal => s.hits_local.fetch_add(1, Ordering::Relaxed),
            SharedAccess::HitRemote { .. } => s.hits_remote.fetch_add(1, Ordering::Relaxed),
            SharedAccess::HitInFlight => s.hits_in_flight.fetch_add(1, Ordering::Relaxed),
            SharedAccess::Miss => s.misses.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Mutex-free read of a resident page: a [`PageGuard`] when the page
    /// table names a slot whose own tag still holds `page` after the pin.
    /// Books the hit (a local or remote hit in [`BufferStats`], one
    /// [`OptStats::hits`]). `None` means the caller must take the mutex
    /// path: the page is not resident, or its slot is being replaced,
    /// which books one [`OptStats::fallbacks`].
    pub fn guard_get(&self, worker: usize, page: PageId) -> Option<PageGuard<'_, T>> {
        let shard = self.shard_of(page);
        let (_, slot) = shard.probe(page)?;
        #[cfg(feature = "schedule-points")]
        if let Some(point) = self.schedule_point.get() {
            point(worker, page);
        }
        let meta = &shard.meta[slot];
        let s = &self.stats[worker];
        // Pin, then check the slot still holds the page. SeqCst ranks
        // `pin ; load tag` against a remover's `clear tag ; load pins`.
        meta.pins.fetch_add(1, Ordering::SeqCst);
        if meta.tag.load(Ordering::SeqCst) != tag_of(page) {
            meta.pins.fetch_sub(1, Ordering::Release);
            s.opt_fallbacks.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let owner = meta.owner.load(Ordering::Relaxed);
        let access = if owner == worker {
            SharedAccess::HitLocal
        } else {
            SharedAccess::HitRemote { owner }
        };
        s.opt_hits.fetch_add(1, Ordering::Relaxed);
        self.bump(worker, access);
        self.sampled_touch(worker, shard, page);
        Some(PageGuard {
            pins: &meta.pins,
            value: shard.value(slot).cast_const().cast(),
            page,
            access,
        })
    }

    /// As [`SharedPageCache::try_get`], panicking if the source's fetch
    /// fails.
    pub fn get<S>(&self, worker: usize, page: PageId, source: &S) -> PageRef<'_, T>
    where
        S: PageSource<Item = T> + ?Sized,
    {
        self.try_get(worker, page, source)
            .unwrap_or_else(|e| panic!("fetching page {page}: {e}"))
    }

    /// Looks up `page`, fetching it from `source` on a miss: a guard read
    /// when [`SharedPageCache::guard_get`] serves it, else the mutex path —
    /// a hit after all, a wait for another worker's in-flight fill, or this
    /// worker's own fill.
    ///
    /// `worker` indexes the per-worker statistics and is recorded as the
    /// page's owner when this call fetches it.
    ///
    /// A source error is returned as is: the fill caches nothing and clears
    /// the in-flight marker, so concurrent waiters on the same page wake up
    /// and fetch it themselves; one degraded request does not poison the
    /// page for others.
    pub fn try_get<S>(
        &self,
        worker: usize,
        page: PageId,
        source: &S,
    ) -> Result<PageRef<'_, T>, PageError>
    where
        S: PageSource<Item = T> + ?Sized,
    {
        match self.guard_get(worker, page) {
            Some(g) => Ok(PageRef::Guard(g)),
            None => self.locked_get(worker, page, source),
        }
    }

    /// The mutex path: a hit the guard read missed, or a single-flight
    /// fill into a reserved slot.
    fn locked_get<S>(
        &self,
        worker: usize,
        page: PageId,
        source: &S,
    ) -> Result<PageRef<'_, T>, PageError>
    where
        S: PageSource<Item = T> + ?Sized,
    {
        let shard = self.shard_of(page);
        let mut state = lock_clean(&shard.state);
        let mut waited = false;
        loop {
            if let Some((_, slot)) = shard.probe(page) {
                state.buf.touch(page);
                let access = if waited {
                    SharedAccess::HitInFlight
                } else {
                    match shard.meta[slot].owner.load(Ordering::Relaxed) {
                        o if o == worker => SharedAccess::HitLocal,
                        o => SharedAccess::HitRemote { owner: o },
                    }
                };
                let guard = shard.pin_locked(slot, page, access);
                drop(state);
                self.bump(worker, access);
                return Ok(PageRef::Guard(guard));
            }
            if state.loading.contains(&page) {
                // Someone else is fetching this page: wait for their load
                // rather than issuing a second fetch (paper §3.1). If that
                // load *fails* or is served unbuffered, the marker is
                // cleared and the wakeup sends us around the loop to fetch
                // ourselves.
                waited = true;
                state.waiters += 1;
                state = wait_clean(&shard.loaded, state);
                state.waiters -= 1;
                continue;
            }
            // We fetch. Mark in flight, reserve the destination slot and
            // release the shard lock so other pages of this shard stay
            // accessible during the fetch. The guard undoes both if the
            // source panics mid-fetch.
            state.loading.insert(page);
            let reserved = shard.reserve(&mut state);
            drop(state);
            let slot = reserved.map(|(slot, _)| slot);
            let evicted = reserved.is_some_and(|(_, evicted)| evicted);
            let mut guard = LoadingGuard {
                shard,
                page,
                slot,
                armed: true,
            };
            let mut spill: Option<Box<MaybeUninit<T>>> = None;
            let dst = match slot {
                // SAFETY: the slot is reserved for this fill (see
                // `Shard::reserve`): nobody else reads or writes it.
                Some(slot) => unsafe { &mut *shard.value(slot) },
                None => &mut **spill.insert(Box::new_uninit()),
            };
            let filled = self.fill(worker, page, source, dst);
            guard.armed = false;
            if evicted {
                self.stats[worker].evictions.fetch_add(1, Ordering::Relaxed);
            }
            let mut state = lock_clean(&shard.state);
            state.loading.remove(&page);
            if let Err(e) = filled {
                if let Some(slot) = slot {
                    state.free.push(slot as u32);
                }
                shard.release_fill(state);
                return Err(e);
            }
            let read = match (slot, spill) {
                (Some(slot), _) => PageRef::Guard(shard.publish(&mut state, page, slot, worker)),
                // SAFETY: the fill returned `Ok`, so it wrote a value.
                (None, Some(value)) => PageRef::Unbuffered(unsafe { value.assume_init() }),
                (None, None) => unreachable!("a fill without a slot has its spill box"),
            };
            shard.release_fill(state);
            if matches!(read, PageRef::Unbuffered(_)) {
                self.unbuffered.fetch_add(1, Ordering::Relaxed);
            }
            self.bump(worker, SharedAccess::Miss);
            return Ok(read);
        }
    }

    /// Runs `source`'s fill of `page` into `dst`, traced when a sink is
    /// attached. `Ok` only once `dst` holds the value.
    fn fill<S>(
        &self,
        worker: usize,
        page: PageId,
        source: &S,
        dst: &mut MaybeUninit<T>,
    ) -> Result<(), PageError>
    where
        S: PageSource<Item = T> + ?Sized,
    {
        let slot = dst.as_ptr();
        let start = self.trace.as_ref().map(|t| t.now_ns());
        let filled = source.fill_page(page, dst).map(|filled| {
            assert!(
                std::ptr::eq(filled, slot),
                "PageSource::fill_page must return the slot it filled"
            );
        });
        if let (Some(t), Some(start)) = (&self.trace, start) {
            t.span(
                psj_obs::trace::cache_tid(worker),
                "page_read",
                "storage",
                start,
                &[
                    ("page", page.0 as u64),
                    ("worker", worker as u64),
                    ("ok", filled.is_ok() as u64),
                ],
            );
        }
        filled
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

    /// One worker's guard-path counters.
    pub fn opt_stats_for(&self, worker: usize) -> OptStats {
        self.stats[worker].opt_snapshot()
    }

    /// Aggregated guard-path counters over all workers.
    pub fn opt_stats(&self) -> OptStats {
        self.stats
            .iter()
            .map(WorkerStats::opt_snapshot)
            .fold(OptStats::default(), |acc, s| acc.merged(&s))
    }

    /// Structural invariant check for tests; call only while no access is
    /// concurrently in flight (guards may be held).
    ///
    /// Verifies, per shard: every slot is either free (no tag, no value)
    /// or holds a resident page (tag set, one table entry naming it, in
    /// the replacement order, owner in range); pins sit only on resident
    /// slots; the table holds nothing else and every entry is reachable by
    /// its probe; no load is marked in flight and no waiter registered.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            let state = lock_clean(&shard.state);
            let slots = shard.meta.len();
            if state.buf.len() + state.free.len() != slots {
                return Err(format!(
                    "shard {i}: {} resident + {} free pages ≠ {slots} slots",
                    state.buf.len(),
                    state.free.len()
                ));
            }
            let mut used = vec![false; slots];
            for &slot in &state.free {
                if std::mem::replace(&mut used[slot as usize], true) {
                    return Err(format!("shard {i}: slot {slot} free twice"));
                }
                let meta = &shard.meta[slot as usize];
                if meta.tag.load(Ordering::SeqCst) != TAG_EMPTY {
                    return Err(format!("shard {i}: free slot {slot} is tagged"));
                }
                if meta.pins.load(Ordering::SeqCst) != 0 {
                    return Err(format!("shard {i}: free slot {slot} is pinned"));
                }
            }
            // `used` marks every slot accounted for: free, or named by
            // exactly one table entry.
            let mut entries = 0usize;
            for entry in shard.table.iter().map(|e| e.load(Ordering::SeqCst)) {
                if entry == ENTRY_EMPTY {
                    continue;
                }
                entries += 1;
                let page = PageId((entry >> 32) as u32);
                let slot = (entry as u32 - 1) as usize;
                if shard.probe(page).map(|(_, s)| s) != Some(slot) {
                    return Err(format!("shard {i}: table entry for {page} unreachable"));
                }
                if slot >= slots || std::mem::replace(&mut used[slot], true) {
                    return Err(format!(
                        "shard {i}: {page} maps to free or shared slot {slot}"
                    ));
                }
                if shard.meta[slot].tag.load(Ordering::SeqCst) != tag_of(page) {
                    return Err(format!("shard {i}: slot {slot} does not hold {page}"));
                }
                if !state.buf.contains(page) {
                    return Err(format!("shard {i}: cached page {page} not resident"));
                }
                let owner = shard.meta[slot].owner.load(Ordering::SeqCst);
                if owner >= self.stats.len() {
                    return Err(format!("shard {i}: owner {owner} out of range"));
                }
            }
            if entries != state.buf.len() {
                return Err(format!(
                    "shard {i}: {entries} table entries for {} resident pages",
                    state.buf.len()
                ));
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
            .finish()
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

    /// A source that always reports its pages corrupt, counting fetches.
    #[derive(Default)]
    struct Rotten {
        fetches: AtomicU64,
    }

    impl PageSource for Rotten {
        type Item = u32;

        fn fetch_page(&self, page: PageId) -> Result<u32, PageError> {
            self.fetches.fetch_add(1, Ordering::Relaxed);
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
        let v = cache.get(0, p(5), &src);
        assert_eq!((*v, v.access()), (5, SharedAccess::Miss));
        drop(v);
        let v = cache.get(0, p(5), &src);
        assert_eq!((*v, v.access()), (5, SharedAccess::HitLocal));
        drop(v);
        assert_eq!(src.fetches.load(Ordering::Relaxed), 1);
        cache.check_invariants().unwrap();
    }

    /// A guard read of a slot that is mid-replacement (tag cleared under
    /// the shard mutex) validates once and goes straight to the mutex path:
    /// one failed validation, one fallback, no spinning. The mutex path
    /// then serves the page once the replacement step is over.
    #[test]
    fn contended_read_books_one_fallback() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(2, 8, 1, Policy::Lru);
        let src = Counting::new(100);
        drop(cache.get(0, p(5), &src));
        let shard = &cache.shards[0];
        let (_, slot) = shard.probe(p(5)).expect("resident");
        let meta = &shard.meta[slot];
        std::thread::scope(|s| {
            // Hold the slot as a remover does while it tests a candidate.
            let state = lock_clean(&shard.state);
            meta.tag.store(TAG_EMPTY, Ordering::SeqCst);
            let reader = s.spawn(|| {
                let read = cache.try_get(1, p(5), &src).unwrap();
                (*read, read.access())
            });
            // Until the reader has failed its validation (or, if it wrongly
            // took the cleared slot, finished).
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while cache.opt_stats().fallbacks == 0
                && !reader.is_finished()
                && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            // The remover found the slot in use and gives it back.
            meta.tag.store(tag_of(p(5)), Ordering::Release);
            drop(state);
            let read = reader.join().unwrap();
            assert_eq!(read, (5, SharedAccess::HitRemote { owner: 0 }));
        });
        let opt = cache.opt_stats();
        assert_eq!((opt.hits, opt.fallbacks), (0, 1));
        assert_eq!(cache.stats(1).requests(), 1);
        assert_eq!(src.fetches.load(Ordering::Relaxed), 1);
        cache.check_invariants().unwrap();
    }

    /// A source that claims a fill without writing the slot.
    struct Liar;

    impl PageSource for Liar {
        type Item = u32;

        fn fetch_page(&self, page: PageId) -> Result<u32, PageError> {
            Ok(page.0)
        }

        fn page_count(&self) -> usize {
            1
        }

        fn fill_page<'s>(
            &self,
            _page: PageId,
            _slot: &'s mut MaybeUninit<u32>,
        ) -> Result<&'s mut u32, PageError> {
            Ok(Box::leak(Box::new(7)))
        }
    }

    /// An unwritten slot is never published: a fill must return the value
    /// it wrote into the slot it was given.
    #[test]
    #[should_panic(expected = "must return the slot it filled")]
    fn a_fill_that_returns_another_value_is_refused() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 4, 1, Policy::Lru);
        drop(cache.get(0, p(1), &Liar));
    }

    /// Every fill that reaches the source is one `page_read` span, failed
    /// or not; hits and failures add nothing else.
    #[test]
    fn traced_fills_emit_one_read_span_each() {
        let sink = psj_obs::TraceSink::new(1 << 12);
        let cache: SharedPageCache<u32> =
            SharedPageCache::new(2, 8, 2, Policy::Lru).with_trace(Arc::clone(&sink));

        // A clean miss: one page_read span.
        let src = Counting::new(100);
        cache.get(0, p(1), &src);
        // A hit: no new events (the fast path never sees the sink).
        cache.get(0, p(1), &src);
        assert_eq!(sink.event_count(), 1);

        // A transient failure, then the refetch: one span each.
        let flaky = Flaky {
            failures: AtomicU64::new(1),
        };
        assert!(cache.try_get(1, p(2), &flaky).is_err());
        cache.try_get(1, p(2), &flaky).unwrap();
        assert_eq!(sink.event_count(), 3);

        // Corruption: one span.
        assert!(cache.try_get(0, p(3), &Rotten::default()).is_err());
        assert_eq!(sink.event_count(), 4);

        let mut out = Vec::new();
        sink.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let summary = psj_obs::validate_jsonl(&text).unwrap();
        assert_eq!(summary.spans, 4, "{text}");
        assert_eq!(summary.instants, 0, "{text}");
        assert_eq!(text.matches("\"page_read\"").count(), 4, "{text}");
        assert_eq!(text.matches("\"ok\":0").count(), 2, "{text}");
    }

    #[test]
    fn hit_by_other_worker_is_remote() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(3, 8, 2, Policy::Lru);
        let src = Counting::new(100);
        cache.get(2, p(7), &src);
        let a = cache.get(0, p(7), &src).access();
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
        assert_eq!(cache.get(0, p(0), &src).access(), SharedAccess::Miss);
        cache.check_invariants().unwrap();
    }

    /// With every slot pinned, a fill cannot evict: it serves the page
    /// unbuffered — one miss, no eviction, nothing cached — and the pinned
    /// value stays resident and intact.
    #[test]
    fn pinned_value_survives_eviction() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 1, 1, Policy::Lru);
        let src = Counting::new(100);
        let pinned = cache.get(0, p(1), &src);
        let before = cache.total_stats();
        let read = cache.get(0, p(2), &src);
        assert!(matches!(read, PageRef::Unbuffered(_)));
        assert_eq!((*read, read.access()), (2, SharedAccess::Miss));
        drop(read);
        let delta = cache.total_stats().since(&before);
        assert_eq!((delta.misses, delta.evictions), (1, 0));
        assert_eq!(cache.unbuffered(), 1);
        assert_eq!(cache.len(), cache.capacity());
        assert!(cache.contains(p(1)) && !cache.contains(p(2)));
        // Nothing was cached, so the next read of page 2 misses again.
        assert_eq!(cache.get(0, p(2), &src).access(), SharedAccess::Miss);
        assert_eq!(*pinned, 1, "the pinned value is intact");
        cache.check_invariants().unwrap();
        drop(pinned);
        // Unpinned, the slot is evictable again.
        assert!(matches!(cache.get(0, p(2), &src), PageRef::Guard(_)));
        assert_eq!(cache.total_stats().evictions, 1);
        assert_eq!(cache.unbuffered(), 2);
        cache.check_invariants().unwrap();
    }

    /// A guarded page at the LRU end is never the victim: the fill evicts
    /// the next page in LRU order, and the guarded value stays resident
    /// and intact.
    #[test]
    fn guarded_lru_page_is_never_the_victim() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 2, 1, Policy::Lru);
        let src = Counting::new(100);
        let guard = cache.get(0, p(1), &src);
        drop(cache.get(0, p(2), &src));
        // Page 1 is least recently used, but pinned.
        let read = cache.get(0, p(3), &src);
        assert!(matches!(read, PageRef::Guard(_)), "a slot was free to take");
        drop(read);
        assert_eq!(cache.total_stats().evictions, 1);
        assert!(cache.contains(p(1)), "the guarded page stays resident");
        assert!(!cache.contains(p(2)), "the next LRU page was evicted");
        assert_eq!(*guard, 1);
        assert_eq!(cache.unbuffered(), 0);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn capacity_is_the_requested_page_count() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 10, 4, Policy::Lru);
        assert_eq!(cache.capacity(), 10, "10 over 4 shards: 3, 3, 2, 2");
        let slots: Vec<usize> = cache.shards.iter().map(|s| s.meta.len()).collect();
        assert_eq!(slots, vec![3, 3, 2, 2]);
        let tiny: SharedPageCache<u32> = SharedPageCache::new(1, 0, 3, Policy::Lru);
        assert_eq!(tiny.capacity(), 1, "at least one page");
        assert_eq!(tiny.shards.len(), 1, "no more shards than pages");
        let few: SharedPageCache<u32> = SharedPageCache::new(1, 3, 8, Policy::Lru);
        assert_eq!((few.capacity(), few.shards.len()), (3, 3));
    }

    #[test]
    fn fetch_count_equals_misses() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(4, 64, 4, Policy::Lru);
        let src = Counting::new(40);
        for round in 0..3 {
            for n in 0..40 {
                let v = cache.get((n as usize + round) % 4, p(n), &src);
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
                        let v = cache.get(w, p(n), src);
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
        let cache: SharedPageCache<u32> = SharedPageCache::new(1, 8, 2, Policy::Lru);
        let src = Flaky {
            failures: AtomicU64::new(1),
        };
        let err = cache.try_get(0, p(3), &src).unwrap_err();
        assert!(matches!(err, PageError::Io { .. }));
        cache.check_invariants().unwrap();
        assert!(!cache.contains(p(3)), "failed fetch caches nothing");
        // The very next request retries the source and succeeds.
        let v = cache.try_get(0, p(3), &src).unwrap();
        assert_eq!((*v, v.access()), (3, SharedAccess::Miss));
        drop(v);
        cache.check_invariants().unwrap();
    }

    /// The cache remembers no failure: a corrupt fill caches nothing, a
    /// second request for the page fetches again (here from a healthy
    /// source), and the retries counter stays 0.
    #[test]
    fn corrupt_fill_caches_nothing_and_refetches() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(2, 8, 2, Policy::Lru);
        let src = Rotten::default();
        let err = cache.try_get(0, p(9), &src).unwrap_err();
        assert!(err.is_corrupt());
        assert!(cache.try_get(1, p(9), &src).unwrap_err().is_corrupt());
        assert_eq!(
            src.fetches.load(Ordering::Relaxed),
            2,
            "each request fetches"
        );
        assert!(!cache.contains(p(9)), "a failed fill caches nothing");
        cache.check_invariants().unwrap();
        let healthy = Counting::new(100);
        let v = cache.try_get(1, p(9), &healthy).unwrap();
        assert_eq!((*v, v.access()), (9, SharedAccess::Miss));
        drop(v);
        assert_eq!(healthy.fetches.load(Ordering::Relaxed), 1);
        // Healthy pages are unaffected.
        assert_eq!(*cache.try_get(0, p(10), &healthy).unwrap(), 10);
        assert_eq!(cache.total_stats().retries, 0, "the cache never retries");
        cache.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_waiters_survive_a_failed_fetch() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(8, 64, 2, Policy::Lru);
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
                            Ok(v) => {
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
            let cache: SharedPageCache<u32> = SharedPageCache::new(2, 8, 1, Policy::Lru);
            let src = Gated::new(fail.then_some(3));
            let shard = &cache.shards[0];
            let poll = |done: &dyn Fn() -> bool| {
                while !done() {
                    std::thread::yield_now();
                }
            };
            std::thread::scope(|s| {
                let filler = s.spawn(|| cache.try_get(0, p(3), &src).map(|v| *v));
                poll(&|| lock_clean(&shard.state).loading.contains(&p(3)));
                let waiter = s.spawn(|| cache.try_get(1, p(3), &src).map(|v| (*v, v.access())));
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
                assert_eq!(v, 3);
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
        let src = Rotten::default();
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
        assert!(!cache.contains(p(5)), "a corrupt page is never cached");
        cache.check_invariants().unwrap();
    }

    /// Counters are monotone, so the delta between two snapshots of
    /// [`SharedPageCache::total_stats`] isolates the activity in between.
    #[test]
    fn snapshot_delta_isolates_activity() {
        let cache: SharedPageCache<u32> = SharedPageCache::new(2, 16, 2, Policy::Lru);
        let src = Counting::new(100);
        for n in 0..8 {
            cache.get(0, p(n), &src);
        }
        let before = cache.total_stats();
        assert_eq!(before.misses, 8);
        assert_eq!(cache.len(), 8);
        for n in 0..8 {
            cache.get(1, p(n), &src); // all remote hits
        }
        let delta = cache.total_stats().since(&before);
        assert_eq!(delta.misses, 0);
        assert_eq!(delta.hits_remote, 8);
        assert_eq!(delta.requests(), 8);
        cache.check_invariants().unwrap();
    }
}
