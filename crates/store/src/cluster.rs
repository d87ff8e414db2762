//! Geometry cluster store ([BK 94] clustering, paper §4.2).
//!
//! The exact geometry of the objects in one data page is clustered into one
//! contiguous region on the same disk — "there is a one-to-one relationship
//! between a data page and the cluster where the exact geometry
//! representations of the entries in the data page are stored". A data page
//! access therefore always includes the access to its cluster, and the
//! cluster's size determines the extra transfer time.
//!
//! In memory the clusters of one relation are one arena, filled in page
//! order: every object's vertices back to back in one `Point` vector, one
//! vertex offset per object, and one object offset and one stored size per
//! page. A page's cluster is a run of objects and an object's geometry a
//! run of vertices, so the store holds no per-page or per-object heap
//! allocation and [`ClusterStore::heap_bytes`] is exact.

use crate::page::PageId;
use psj_geom::polyline::stored_size;
use psj_geom::Point;
use std::ops::Range;

/// Clusters of all data pages of one relation, indexed by data page id.
/// See the [module docs](self).
#[derive(Debug, Default)]
pub struct ClusterStore {
    /// Every object's vertices, objects in page order, back to back.
    pts: Vec<Point>,
    /// Per object: the offset of its first vertex in `pts`. An object
    /// ends where the next one starts.
    start: Vec<u32>,
    /// Per page up to the last one pushed: the index of its first object
    /// in `start`. A page's cluster ends where the next page's starts.
    first: Vec<u32>,
    /// Per page: the cluster's stored size in bytes.
    bytes: Vec<u64>,
}

/// `n` as an arena offset.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("geometry arena overflows a u32 offset")
}

impl ClusterStore {
    /// An empty store.
    pub fn new() -> Self {
        ClusterStore::default()
    }

    /// Appends one object's exact geometry to the cluster of `page`.
    /// Returns the slot index of the geometry within the cluster.
    ///
    /// # Panics
    ///
    /// As [`ClusterStore::push_with_extra`].
    pub fn push(&mut self, page: PageId, geometry: &[Point]) -> u32 {
        self.push_with_extra(page, geometry.iter().copied(), 0)
    }

    /// As [`ClusterStore::push`], taking the vertices from an iterator and
    /// accounting `extra_bytes` of additional stored payload (attribute
    /// data accompanying the exact representation, e.g. TIGER record
    /// fields). Only the cluster *size* grows; the extra bytes carry no
    /// structure. The geometry itself adds its
    /// [`psj_geom::polyline::stored_size`].
    ///
    /// # Panics
    ///
    /// Panics if `page` precedes a page already pushed (clusters are
    /// appended in page order), if fewer than two vertices are given, or
    /// if the arena outgrows `u32` offsets.
    pub fn push_with_extra<I>(&mut self, page: PageId, vertices: I, extra_bytes: u64) -> u32
    where
        I: IntoIterator<Item = Point>,
    {
        let p = page.index();
        assert!(
            p + 1 >= self.first.len(),
            "clusters are appended in page order: page {page} after page {}",
            self.first.len() - 1
        );
        // Pages skipped since the last push get empty clusters.
        self.first.resize(p + 1, offset(self.start.len()));
        self.bytes.resize(p + 1, 0);
        let s = self.pts.len();
        self.start.push(offset(s));
        self.pts.extend(vertices);
        let n = self.pts.len() - s;
        assert!(n >= 2, "a polyline needs at least two vertices");
        self.bytes[p] += stored_size(n) as u64 + extra_bytes;
        (self.start.len() - 1 - self.first[p] as usize) as u32
    }

    /// Drops spare capacity, so [`ClusterStore::heap_bytes`] is exactly the
    /// stored arrays.
    pub fn shrink_to_fit(&mut self) {
        self.pts.shrink_to_fit();
        self.start.shrink_to_fit();
        self.first.shrink_to_fit();
        self.bytes.shrink_to_fit();
    }

    /// The objects of `page`'s cluster, as indices into `start`.
    fn objects(&self, page: PageId) -> Range<usize> {
        let p = page.index();
        match self.first.get(p) {
            Some(&lo) => {
                let hi = self
                    .first
                    .get(p + 1)
                    .map_or(self.start.len(), |&f| f as usize);
                lo as usize..hi
            }
            None => 0..0,
        }
    }

    /// Number of objects in the cluster of `page` (0 if absent).
    pub fn cluster_len(&self, page: PageId) -> usize {
        self.objects(page).len()
    }

    /// Size in bytes of the cluster of `page` (0 if absent).
    pub fn bytes_of(&self, page: PageId) -> u64 {
        self.bytes.get(page.index()).copied().unwrap_or(0)
    }

    /// One geometry's vertices by `(page, slot)` reference, as stored in a
    /// data entry.
    #[inline]
    pub fn geometry(&self, page: PageId, slot: u32) -> Option<&[Point]> {
        let objects = self.objects(page);
        let o = objects.start + slot as usize;
        if o >= objects.end {
            return None;
        }
        let s = self.start[o] as usize;
        let e = self
            .start
            .get(o + 1)
            .map_or(self.pts.len(), |&x| x as usize);
        Some(&self.pts[s..e])
    }

    /// The pages whose cluster holds a geometry, ascending.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..self.first.len() as u32)
            .map(PageId)
            .filter(|&p| self.cluster_len(p) > 0)
    }

    /// Number of clusters (== number of data pages with geometry).
    pub fn len(&self) -> usize {
        self.pages().count()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// Heap bytes the store holds in memory (not the stored size
    /// [`ClusterStore::avg_bytes`] reports): its four arrays, exactly.
    pub fn heap_bytes(&self) -> usize {
        self.pts.capacity() * std::mem::size_of::<Point>()
            + (self.start.capacity() + self.first.capacity()) * std::mem::size_of::<u32>()
            + self.bytes.capacity() * std::mem::size_of::<u64>()
    }

    /// Average cluster size in bytes (the paper reports 26 KB). 0 if empty.
    pub fn avg_bytes(&self) -> u64 {
        match self.len() {
            0 => 0,
            n => self.bytes.iter().sum::<u64>() / n as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Vec<Point> {
        (0..n.max(2)).map(|i| Point::new(i as f64, 0.0)).collect()
    }

    #[test]
    fn push_and_lookup() {
        let mut cs = ClusterStore::new();
        let p = PageId(3);
        let s0 = cs.push(p, &line(2));
        let s1 = cs.push(p, &line(5));
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(cs.cluster_len(p), 2);
        assert_eq!(cs.geometry(p, 0).unwrap(), &line(2)[..]);
        assert_eq!(cs.geometry(p, 1).unwrap(), &line(5)[..]);
        assert!(cs.geometry(p, 2).is_none());
        assert!(cs.geometry(PageId(9), 0).is_none());
        // The pages skipped before page 3 hold empty clusters.
        assert!(cs.geometry(PageId(0), 0).is_none());
        assert_eq!(cs.cluster_len(PageId(2)), 0);
    }

    #[test]
    fn bytes_accumulate() {
        let mut cs = ClusterStore::new();
        let p = PageId(0);
        cs.push(p, &line(2)); // 4 + 32 = 36
        cs.push(p, &line(3)); // 4 + 48 = 52
        assert_eq!(cs.bytes_of(p), 36 + 52);
        assert_eq!(cs.bytes_of(PageId(1)), 0);
        cs.push_with_extra(PageId(2), line(2), 100);
        assert_eq!(cs.bytes_of(PageId(2)), 136);
        assert_eq!(cs.bytes_of(PageId(1)), 0);
    }

    #[test]
    fn avg_bytes_over_pages() {
        let mut cs = ClusterStore::new();
        cs.push(PageId(0), &line(2)); // 36 bytes
        cs.push(PageId(1), &line(2)); // 36 bytes
        cs.push(PageId(1), &line(2)); // 72 total
        assert_eq!(cs.avg_bytes(), (36 + 72) / 2);
        assert_eq!(cs.len(), 2);
        // A page without geometry is no cluster and does not dilute the
        // average.
        cs.push(PageId(4), &line(2));
        assert_eq!(cs.len(), 3);
        assert_eq!(cs.pages().collect::<Vec<_>>(), [0, 1, 4].map(PageId));
        assert_eq!(cs.avg_bytes(), (36 + 72 + 36) / 3);
    }

    #[test]
    fn empty_store() {
        let cs = ClusterStore::new();
        assert!(cs.is_empty());
        assert_eq!(cs.len(), 0);
        assert_eq!(cs.avg_bytes(), 0);
        assert_eq!(cs.heap_bytes(), 0);
    }

    /// The heap is the four arrays: 16 bytes a vertex, 4 an object, and
    /// 12 a page up to the last one pushed.
    #[test]
    fn heap_bytes_are_the_arrays() {
        let mut cs = ClusterStore::new();
        cs.push(PageId(1), &line(2));
        cs.push(PageId(1), &line(3));
        cs.push(PageId(2), &line(4));
        cs.shrink_to_fit();
        assert_eq!(cs.heap_bytes(), 9 * 16 + 3 * 4 + 3 * 12);
    }

    #[test]
    #[should_panic(expected = "page order")]
    fn an_earlier_page_panics() {
        let mut cs = ClusterStore::new();
        cs.push(PageId(2), &line(2));
        cs.push(PageId(1), &line(2));
    }
}
