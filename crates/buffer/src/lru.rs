//! O(1) LRU page buffer (Gray & Reuter style).
//!
//! A hash table maps page ids to slots of a slab; the slots form an intrusive
//! doubly-linked list ordered from most- to least-recently used. All
//! operations are O(1) expected time and allocation-free after warm-up.

use psj_store::PageId;
use std::collections::HashMap;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    page: PageId,
    prev: u32,
    next: u32,
}

/// A least-recently-used buffer of page ids with fixed capacity.
///
/// The buffer tracks only *which* pages are resident; page contents stay in
/// the master [`psj_store::PageStore`]. This split keeps the cost model (what
/// the buffer decides) separate from the data model (real bytes, held once).
#[derive(Debug, Clone)]
pub struct Lru {
    map: HashMap<PageId, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: usize,
}

impl Lru {
    /// Creates a buffer holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        Lru {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `page` is resident (does not promote).
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// If `page` is resident, promote it to most-recently-used and return
    /// `true`; otherwise return `false`.
    pub fn touch(&mut self, page: PageId) -> bool {
        match self.map.get(&page) {
            Some(&slot) => {
                self.unlink(slot);
                self.push_front(slot);
                true
            }
            None => false,
        }
    }

    /// Inserts `page` as most-recently-used. If the buffer is full, the
    /// least-recently-used page is evicted and returned. Inserting a page
    /// that is already resident just promotes it.
    pub fn insert(&mut self, page: PageId) -> Option<PageId> {
        if self.touch(page) {
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            Some(self.evict_lru())
        } else {
            None
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].page = page;
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    page,
                    prev: NIL,
                    next: NIL,
                });
                s
            }
        };
        self.map.insert(page, slot);
        self.push_front(slot);
        debug_assert!(self.map.len() <= self.capacity);
        evicted
    }

    /// Removes `page` from the buffer if resident; returns whether it was.
    pub fn remove(&mut self, page: PageId) -> bool {
        match self.map.remove(&page) {
            Some(slot) => {
                self.unlink(slot);
                self.free.push(slot);
                true
            }
            None => false,
        }
    }

    /// Evicts and returns the least recently used page for which `ok`
    /// holds, asking from the LRU end towards the MRU end; `None`, with
    /// nothing evicted, when it holds for no resident page.
    pub fn evict_where(&mut self, mut ok: impl FnMut(PageId) -> bool) -> Option<PageId> {
        let mut cur = self.tail;
        while cur != NIL {
            let page = self.slots[cur as usize].page;
            if ok(page) {
                self.remove(page);
                return Some(page);
            }
            cur = self.slots[cur as usize].prev;
        }
        None
    }

    /// Pages from most- to least-recently used (test/debug helper; O(n)).
    pub fn pages_mru_order(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.slots[cur as usize].page);
            cur = self.slots[cur as usize].next;
        }
        out
    }

    fn evict_lru(&mut self) -> PageId {
        debug_assert!(self.tail != NIL);
        let slot = self.tail;
        let page = self.slots[slot as usize].page;
        self.unlink(slot);
        self.map.remove(&page);
        self.free.push(slot);
        page
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> PageId {
        PageId(n)
    }

    #[test]
    fn insert_until_capacity_no_eviction() {
        let mut l = Lru::new(3);
        assert_eq!(l.insert(p(1)), None);
        assert_eq!(l.insert(p(2)), None);
        assert_eq!(l.insert(p(3)), None);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut l = Lru::new(3);
        l.insert(p(1));
        l.insert(p(2));
        l.insert(p(3));
        assert_eq!(l.insert(p(4)), Some(p(1)));
        assert!(!l.contains(p(1)));
        assert!(l.contains(p(4)));
    }

    #[test]
    fn touch_promotes() {
        let mut l = Lru::new(3);
        l.insert(p(1));
        l.insert(p(2));
        l.insert(p(3));
        assert!(l.touch(p(1)));
        // 2 is now LRU.
        assert_eq!(l.insert(p(4)), Some(p(2)));
        assert!(l.contains(p(1)));
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut l = Lru::new(2);
        assert!(!l.touch(p(9)));
    }

    #[test]
    fn reinsert_resident_promotes_without_eviction() {
        let mut l = Lru::new(2);
        l.insert(p(1));
        l.insert(p(2));
        assert_eq!(l.insert(p(1)), None);
        assert_eq!(l.len(), 2);
        assert_eq!(l.insert(p(3)), Some(p(2)));
    }

    #[test]
    fn remove_frees_slot() {
        let mut l = Lru::new(2);
        l.insert(p(1));
        l.insert(p(2));
        assert!(l.remove(p(1)));
        assert!(!l.remove(p(1)));
        assert_eq!(l.len(), 1);
        assert_eq!(l.insert(p(3)), None);
        assert_eq!(l.insert(p(4)), Some(p(2)));
    }

    #[test]
    fn mru_order_reflects_accesses() {
        let mut l = Lru::new(4);
        for n in [1, 2, 3, 4] {
            l.insert(p(n));
        }
        l.touch(p(2));
        assert_eq!(l.pages_mru_order(), vec![p(2), p(4), p(3), p(1)]);
    }

    #[test]
    fn capacity_one() {
        let mut l = Lru::new(1);
        assert_eq!(l.insert(p(1)), None);
        assert_eq!(l.insert(p(2)), Some(p(1)));
        assert_eq!(l.insert(p(3)), Some(p(2)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn evict_where_skips_refused_pages_in_lru_order() {
        let mut l = Lru::new(4);
        for n in [1, 2, 3, 4] {
            l.insert(p(n));
        }
        let mut asked = Vec::new();
        let victim = l.evict_where(|page| {
            asked.push(page);
            page != p(1) && page != p(2)
        });
        assert_eq!(asked, vec![p(1), p(2), p(3)]);
        assert_eq!(victim, Some(p(3)));
        assert_eq!(l.pages_mru_order(), vec![p(4), p(2), p(1)]);
        assert_eq!(l.evict_where(|_| false), None);
        assert_eq!(l.len(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Lru::new(0);
    }

    /// Cross-check against a naive reference implementation.
    #[test]
    fn matches_reference_model() {
        use std::collections::VecDeque;
        let mut l = Lru::new(5);
        let mut reference: VecDeque<PageId> = VecDeque::new(); // front = MRU
        let accesses: Vec<u32> = (0..500).map(|i| (i * 7 + i / 3) % 13).collect();
        for a in accesses {
            let page = p(a);
            let hit = l.touch(page);
            let ref_hit = reference.contains(&page);
            assert_eq!(hit, ref_hit, "hit mismatch for {page}");
            if ref_hit {
                let pos = reference.iter().position(|&q| q == page).unwrap();
                reference.remove(pos);
                reference.push_front(page);
            } else {
                let evicted = l.insert(page);
                if reference.len() >= 5 {
                    let ref_evicted = reference.pop_back();
                    assert_eq!(evicted, ref_evicted);
                } else {
                    assert_eq!(evicted, None);
                }
                reference.push_front(page);
            }
            assert_eq!(l.pages_mru_order(), Vec::from(reference.clone()));
        }
    }
}
