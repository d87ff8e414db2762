//! Geometry cluster store ([BK 94] clustering, paper §4.2).
//!
//! The exact geometry of the objects in one data page is clustered into one
//! contiguous region on the same disk — "there is a one-to-one relationship
//! between a data page and the cluster where the exact geometry
//! representations of the entries in the data page are stored". A data page
//! access therefore always includes the access to its cluster, and the
//! cluster's size determines the extra transfer time.

use crate::page::PageId;
use psj_geom::Polyline;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Exact geometry of the objects of one data page, plus its stored size.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Cluster {
    geometries: Vec<Polyline>,
    bytes: u64,
}

impl Cluster {
    /// Number of objects in this cluster.
    pub fn len(&self) -> usize {
        self.geometries.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.geometries.is_empty()
    }

    /// Size of the cluster on disk in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The stored geometries, in data-page entry order.
    pub fn geometries(&self) -> &[Polyline] {
        &self.geometries
    }
}

/// Clusters of all data pages of one relation, keyed by data page id.
#[derive(Debug, Default)]
pub struct ClusterStore {
    clusters: HashMap<PageId, Cluster>,
}

impl ClusterStore {
    /// An empty store.
    pub fn new() -> Self {
        ClusterStore {
            clusters: HashMap::new(),
        }
    }

    /// Appends one object's exact geometry to the cluster of `page`.
    /// Returns the slot index of the geometry within the cluster.
    pub fn push(&mut self, page: PageId, geometry: Polyline) -> u32 {
        self.push_with_extra(page, geometry, 0)
    }

    /// As [`ClusterStore::push`], but accounts `extra_bytes` of additional
    /// stored payload (attribute data accompanying the exact representation,
    /// e.g. TIGER record fields). Only the cluster *size* grows; the extra
    /// bytes carry no structure.
    pub fn push_with_extra(&mut self, page: PageId, geometry: Polyline, extra_bytes: u64) -> u32 {
        let c = self.clusters.entry(page).or_default();
        c.bytes += geometry.stored_size() as u64 + extra_bytes;
        c.geometries.push(geometry);
        (c.geometries.len() - 1) as u32
    }

    /// The cluster of a data page, if any geometry was stored for it.
    pub fn get(&self, page: PageId) -> Option<&Cluster> {
        self.clusters.get(&page)
    }

    /// Size in bytes of the cluster of `page` (0 if absent).
    pub fn bytes_of(&self, page: PageId) -> u64 {
        self.clusters.get(&page).map_or(0, |c| c.bytes)
    }

    /// One geometry by `(page, slot)` reference, as stored in a data entry.
    pub fn geometry(&self, page: PageId, slot: u32) -> Option<&Polyline> {
        self.clusters
            .get(&page)
            .and_then(|c| c.geometries.get(slot as usize))
    }

    /// Number of clusters (== number of data pages with geometry).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Heap bytes the store holds in memory (not the stored size
    /// [`ClusterStore::avg_bytes`] reports): the map's slots, each
    /// cluster's geometry vector and each geometry's vertices. An estimate
    /// that leaves out the map's control bytes and allocator overhead.
    pub fn heap_bytes(&self) -> usize {
        let slot = std::mem::size_of::<(PageId, Cluster)>();
        let geometry = |g: &Polyline| std::mem::size_of_val(g.points());
        self.clusters.capacity() * slot
            + (self.clusters.values())
                .map(|c| {
                    c.geometries.capacity() * std::mem::size_of::<Polyline>()
                        + c.geometries.iter().map(geometry).sum::<usize>()
                })
                .sum::<usize>()
    }

    /// Average cluster size in bytes (the paper reports 26 KB). 0 if empty.
    pub fn avg_bytes(&self) -> u64 {
        if self.clusters.is_empty() {
            0
        } else {
            self.clusters.values().map(|c| c.bytes).sum::<u64>() / self.clusters.len() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psj_geom::Point;

    fn line(n: usize) -> Polyline {
        Polyline::new((0..n.max(2)).map(|i| Point::new(i as f64, 0.0)).collect())
    }

    #[test]
    fn push_and_lookup() {
        let mut cs = ClusterStore::new();
        let p = PageId(3);
        let s0 = cs.push(p, line(2));
        let s1 = cs.push(p, line(5));
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(cs.get(p).unwrap().len(), 2);
        assert_eq!(cs.geometry(p, 1).unwrap().points().len(), 5);
        assert!(cs.geometry(p, 2).is_none());
        assert!(cs.geometry(PageId(9), 0).is_none());
    }

    #[test]
    fn bytes_accumulate() {
        let mut cs = ClusterStore::new();
        let p = PageId(0);
        cs.push(p, line(2)); // 4 + 32 = 36
        cs.push(p, line(3)); // 4 + 48 = 52
        assert_eq!(cs.bytes_of(p), 36 + 52);
        assert_eq!(cs.bytes_of(PageId(1)), 0);
    }

    #[test]
    fn avg_bytes_over_pages() {
        let mut cs = ClusterStore::new();
        cs.push(PageId(0), line(2)); // 36 bytes
        cs.push(PageId(1), line(2)); // 36 bytes
        cs.push(PageId(1), line(2)); // 72 total
        assert_eq!(cs.avg_bytes(), (36 + 72) / 2);
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn empty_store() {
        let cs = ClusterStore::new();
        assert!(cs.is_empty());
        assert_eq!(cs.avg_bytes(), 0);
    }
}
