//! Parallel window and nearest-neighbor query processing.
//!
//! The paper closes with: "we want to integrate the spatial join in a
//! larger framework for parallel spatial query processing where also other
//! operations such as neighbor and window queries are efficiently
//! supported." This module provides that for batches of queries: the query
//! set is the task set, distributed over worker threads through a shared
//! injector with work stealing — the dynamic assignment that won for joins.

use crate::deque::{Injector, Steal};
use psj_geom::{Point, Rect};
use psj_rtree::{DataEntry, PagedTree};

/// Runs a batch of window queries in parallel on `threads` workers.
/// `results[i]` holds the data entries intersecting `windows[i]`.
pub fn parallel_window_queries(
    tree: &PagedTree,
    windows: &[Rect],
    threads: usize,
) -> Vec<Vec<DataEntry>> {
    parallel_batch(windows.len(), threads, |i| tree.window_query(&windows[i]))
}

/// Runs a batch of k-nearest-neighbor queries in parallel.
/// `results[i]` holds up to `k` `(distance, entry)` pairs for `queries[i]`.
pub fn parallel_nn_queries(
    tree: &PagedTree,
    queries: &[Point],
    k: usize,
    threads: usize,
) -> Vec<Vec<(f64, DataEntry)>> {
    parallel_batch(queries.len(), threads, |i| {
        tree.nearest_neighbors(&queries[i], k)
    })
}

/// Generic fan-out: evaluates `run(i)` for `i in 0..count` on `threads`
/// workers, collecting results in input order.
fn parallel_batch<T, F>(count: usize, threads: usize, run: F) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Vec<T> + Sync,
{
    assert!(threads > 0, "need at least one thread");
    if count == 0 {
        return Vec::new();
    }
    let injector: Injector<usize> = Injector::new();
    for i in 0..count {
        injector.push(i);
    }

    // Workers drain the shared queue and collect (index, result) pairs
    // locally; results are merged back into input order afterwards.
    let mut per_worker: Vec<Vec<(usize, Vec<T>)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let injector = &injector;
            let run = &run;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    match injector.steal() {
                        Steal::Success(i) => local.push((i, run(i))),
                        Steal::Empty => break,
                        Steal::Retry => continue,
                    }
                }
                local
            }));
        }
        for h in handles {
            per_worker.push(h.join().expect("query worker panicked"));
        }
    });

    let mut slots: Vec<Option<Vec<T>>> = (0..count).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "query {i} evaluated twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every query slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psj_rtree::RTree;

    fn tree(n: usize) -> PagedTree {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 50) as f64;
            let y = (i / 50) as f64;
            t.insert(Rect::new(x, y, x + 0.8, y + 0.8), i as u64);
        }
        PagedTree::freeze(&t, |_| None)
    }

    #[test]
    fn parallel_windows_match_sequential() {
        let t = tree(2000);
        let windows: Vec<Rect> = (0..40)
            .map(|k| {
                let x = (k % 8) as f64 * 6.0;
                let y = (k / 8) as f64 * 7.0;
                Rect::new(x, y, x + 9.0, y + 5.0)
            })
            .collect();
        for threads in [1, 4] {
            let par = parallel_window_queries(&t, &windows, threads);
            assert_eq!(par.len(), windows.len());
            for (i, w) in windows.iter().enumerate() {
                let mut got: Vec<u64> = par[i].iter().map(|e| e.oid).collect();
                let mut want: Vec<u64> = t.window_query(w).iter().map(|e| e.oid).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "window {i}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_nn_match_sequential() {
        let t = tree(1500);
        let queries: Vec<Point> = (0..25)
            .map(|k| Point::new((k * 2) as f64, (k % 7) as f64 * 4.0))
            .collect();
        let par = parallel_nn_queries(&t, &queries, 5, 4);
        for (i, q) in queries.iter().enumerate() {
            let want: Vec<f64> = t.nearest_neighbors(q, 5).iter().map(|(d, _)| *d).collect();
            let got: Vec<f64> = par[i].iter().map(|(d, _)| *d).collect();
            assert_eq!(got, want, "query {i}");
        }
    }

    #[test]
    fn empty_batch() {
        let t = tree(100);
        assert!(parallel_window_queries(&t, &[], 4).is_empty());
        assert!(parallel_nn_queries(&t, &[], 3, 4).is_empty());
    }

    #[test]
    fn more_threads_than_queries() {
        let t = tree(200);
        let windows = vec![Rect::new(0.0, 0.0, 10.0, 10.0)];
        let res = parallel_window_queries(&t, &windows, 8);
        assert_eq!(res.len(), 1);
        assert!(!res[0].is_empty());
    }
}
