//! Hilbert-curve packed bulk loading (Kamel & Faloutsos style).
//!
//! The third tree-construction strategy next to dynamic R\*-tree insertion
//! and STR: entries are sorted by the Hilbert value of their MBR center and
//! packed into full pages. Hilbert packing preserves locality better than a
//! simple x/y tiling for some workloads; the `ablation` experiment can
//! compare all three under the same join and cost model.

use crate::entry::{DataEntry, DirEntry, GeomRef};
use crate::node::{Node, DATA_FANOUT, DIR_FANOUT};
use crate::tree::RTree;
use psj_geom::Rect;

/// Resolution of the Hilbert grid (bits per axis).
const HILBERT_ORDER: u32 = 16;

/// Maps grid cell `(x, y)` (each in `0 .. 2^order`) to its one-dimensional
/// Hilbert index. Standard bit-rotation formulation.
pub fn hilbert_index(order: u32, mut x: u32, mut y: u32) -> u64 {
    let n: u32 = 1 << order;
    debug_assert!(x < n && y < n);
    let mut rx: u32;
    let mut ry: u32;
    let mut d: u64 = 0;
    let mut s: u32 = n / 2;
    while s > 0 {
        rx = u32::from((x & s) > 0);
        ry = u32::from((y & s) > 0);
        d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
        // Rotate the quadrant.
        if ry == 0 {
            if rx == 1 {
                x = s.wrapping_sub(1).wrapping_sub(x) & (n - 1);
                y = s.wrapping_sub(1).wrapping_sub(y) & (n - 1);
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Hilbert value of a rectangle's center within `world`.
pub fn hilbert_of_rect(world: &Rect, r: &Rect) -> u64 {
    let n = (1u32 << HILBERT_ORDER) as f64;
    let c = r.center();
    let fx = if world.width() > 0.0 {
        (c.x - world.xl) / world.width()
    } else {
        0.0
    };
    let fy = if world.height() > 0.0 {
        (c.y - world.yl) / world.height()
    } else {
        0.0
    };
    let gx = ((fx * n) as u32).min((1 << HILBERT_ORDER) - 1);
    let gy = ((fy * n) as u32).min((1 << HILBERT_ORDER) - 1);
    hilbert_index(HILBERT_ORDER, gx, gy)
}

/// Bulk loads a tree by Hilbert-sorting the items and packing full pages,
/// with configurable capacities (pass [`DATA_FANOUT`]/[`DIR_FANOUT`] for the
/// paper layout).
pub fn bulk_load_hilbert_with_fanout(
    items: &[(Rect, u64)],
    leaf_capacity: usize,
    dir_capacity: usize,
) -> RTree {
    assert!(
        leaf_capacity >= 2 && dir_capacity >= 2,
        "capacities must be at least 2"
    );
    if items.is_empty() {
        return RTree::new();
    }
    let world = items.iter().fold(Rect::empty(), |w, (r, _)| w.union(r));

    let mut entries: Vec<DataEntry> = items
        .iter()
        .map(|&(mbr, oid)| DataEntry {
            mbr,
            oid,
            geom: GeomRef::UNSET,
        })
        .collect();
    entries.sort_by_key(|e| hilbert_of_rect(&world, &e.mbr));

    // Pack leaves.
    let mut nodes: Vec<Node> = Vec::new();
    let mut level_nodes: Vec<(u32, Rect)> = Vec::new();
    for chunk in entries.chunks(leaf_capacity) {
        let mut node = Node::new_leaf();
        *node.data_entries_mut() = chunk.to_vec();
        let mbr = node.mbr();
        level_nodes.push((nodes.len() as u32, mbr));
        nodes.push(node);
    }

    // Pack directory levels; node order already follows the curve.
    let mut level = 1u32;
    while level_nodes.len() > 1 {
        let mut next = Vec::with_capacity(level_nodes.len() / dir_capacity + 1);
        for chunk in level_nodes.chunks(dir_capacity) {
            let mut node = Node::new_dir(level);
            *node.dir_entries_mut() = chunk
                .iter()
                .map(|&(idx, mbr)| DirEntry { mbr, child: idx })
                .collect();
            let mbr = node.mbr();
            next.push((nodes.len() as u32, mbr));
            nodes.push(node);
        }
        level_nodes = next;
        level += 1;
    }
    let root = level_nodes[0].0;
    RTree::from_parts(nodes, root, items.len() as u64)
}

/// Hilbert bulk loading with the paper's page capacities.
pub fn bulk_load_hilbert(items: &[(Rect, u64)]) -> RTree {
    bulk_load_hilbert_with_fanout(items, DATA_FANOUT, DIR_FANOUT)
}

/// Average pairwise-leaf overlap, a rough quality metric for comparing
/// packing strategies (lower = better).
pub fn leaf_overlap_score(tree: &RTree) -> f64 {
    let leaves: Vec<Rect> = tree
        .nodes()
        .iter()
        .filter(|n| n.is_leaf() && !n.is_empty())
        .map(|n| n.mbr())
        .collect();
    if leaves.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..leaves.len() {
        for j in i + 1..leaves.len() {
            total += leaves[i].overlap_area(&leaves[j]);
        }
    }
    total / leaves.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::bulk_load_str;

    fn items(n: usize) -> Vec<(Rect, u64)> {
        (0..n)
            .map(|i| {
                let x = (i % 60) as f64;
                let y = (i / 60) as f64;
                (Rect::new(x, y, x + 0.7, y + 0.7), i as u64)
            })
            .collect()
    }

    #[test]
    fn hilbert_index_is_a_bijection_on_small_grid() {
        let order = 3;
        let n = 1u32 << order;
        let mut seen = vec![false; (n * n) as usize];
        for x in 0..n {
            for y in 0..n {
                let d = hilbert_index(order, x, y) as usize;
                assert!(d < seen.len(), "index {d} out of range");
                assert!(!seen[d], "duplicate index {d}");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hilbert_neighbors_are_adjacent_cells() {
        // Consecutive Hilbert indices map to 4-adjacent grid cells.
        let order = 4;
        let n = 1u32 << order;
        let mut by_d = vec![(0u32, 0u32); (n * n) as usize];
        for x in 0..n {
            for y in 0..n {
                by_d[hilbert_index(order, x, y) as usize] = (x, y);
            }
        }
        for w in by_d.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let dist = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(dist, 1, "curve jumps from ({x0},{y0}) to ({x1},{y1})");
        }
    }

    #[test]
    fn bulk_load_preserves_all_items_and_queries() {
        let data = items(1500);
        let t = bulk_load_hilbert(&data);
        assert_eq!(t.len(), 1500);
        t.check_invariants_bulk().unwrap();
        let w = Rect::new(5.0, 3.0, 22.0, 14.0);
        let mut got: Vec<u64> = t.window_query(&w).iter().map(|e| e.oid).collect();
        got.sort_unstable();
        let want: Vec<u64> = data
            .iter()
            .filter(|(r, _)| r.intersects(&w))
            .map(|&(_, o)| o)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_single() {
        assert!(bulk_load_hilbert(&[]).is_empty());
        let t = bulk_load_hilbert(&items(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn packing_is_full() {
        let data = items(2600); // 100 exactly-full leaves
        let t = bulk_load_hilbert(&data);
        let leaves = t.nodes().iter().filter(|n| n.is_leaf()).count();
        assert_eq!(leaves, 100);
    }

    #[test]
    fn hilbert_leaf_quality_is_reasonable() {
        // On a uniform grid, Hilbert packing should not be wildly worse than
        // STR in leaf overlap (both should be near zero here).
        let data = items(2000);
        let h = leaf_overlap_score(&bulk_load_hilbert(&data));
        let s = leaf_overlap_score(&bulk_load_str(&data));
        assert!(h.is_finite() && s.is_finite());
        assert!(h <= (s + 1.0) * 10.0, "hilbert {h} vs str {s}");
    }

    #[test]
    fn degenerate_world_single_column() {
        // All centers on a vertical line: world width 0 must not divide by 0.
        let data: Vec<(Rect, u64)> = (0..100)
            .map(|i| (Rect::new(5.0, i as f64, 5.0, i as f64 + 0.5), i as u64))
            .collect();
        let t = bulk_load_hilbert(&data);
        assert_eq!(t.len(), 100);
        t.check_invariants_bulk().unwrap();
    }
}
