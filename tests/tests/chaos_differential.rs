//! Chaos differential suite: joins under injected storage faults.
//!
//! Three invariants, each checked across thread counts and cache budgets:
//!
//! * **Transient-only plans are invisible** — retries absorb every injected
//!   blip, the result set is oracle-identical, and the join's retry count
//!   (summed over its task traces) equals the number of injected faults
//!   exactly (fault injection is deterministic per `(seed, page)`), with a
//!   cache or without one.
//! * **Corruption is never silent** — a plan that permanently corrupts
//!   pages either leaves the join untouched (no corrupt page was fetched)
//!   with an oracle-identical result, or aborts with a typed
//!   `PageError::Corrupt`. Never a panic, never a wrong answer.
//! * **A poisoned tree degrades only itself** — a server with one
//!   disk-corrupted (lenient-loaded) tree answers the healthy tree
//!   normally, reports `StorageCorrupt` for queries needing poisoned
//!   pages, and surfaces nonzero corruption telemetry.

use psj_core::{join_refined, try_run_join, BufferConfig, NativeConfig, NativeError, RunControl};
use psj_geom::Rect;
use psj_rtree::{PagedTree, RTree};
use psj_serve::{Client, ClientError, Response, ServeConfig, Server, StorageErrorKind};
use psj_store::{FaultPlan, PageId, RetryPolicy, PAGE_RECORD_SIZE};
use std::collections::BTreeSet;
use std::sync::Arc;

fn tree(n: usize, offset: f64) -> PagedTree {
    let mut t = RTree::new();
    for i in 0..n {
        let x = (i % 50) as f64 + offset;
        let y = (i / 50) as f64 + offset;
        t.insert(Rect::new(x, y, x + 0.9, y + 0.9), i as u64);
    }
    PagedTree::freeze(&t, |_| None)
}

fn pair_set(v: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
    v.iter().copied().collect()
}

fn cfg(threads: usize, cache_pages: usize) -> NativeConfig {
    let mut cfg = NativeConfig::new(threads);
    cfg.refine = true;
    cfg.buffer = Some(BufferConfig::global(cache_pages));
    cfg
}

const THREADS: [usize; 2] = [1, 4];
const CACHES: [usize; 2] = [24, 4096];

#[test]
fn transient_only_plans_are_oracle_identical_with_exact_retry_counts() {
    let a = tree(1500, 0.0);
    let b = tree(1500, 0.45);
    let want = pair_set(&join_refined(&a, &b));
    assert!(want.len() > 500, "workload too trivial");
    for threads in THREADS {
        for cache in [None, Some(CACHES[0]), Some(CACHES[1])] {
            let plan = Arc::new(FaultPlan::new(7).with_transient(0.4, 2));
            let ctl = RunControl::default()
                .with_fault(Arc::clone(&plan))
                .with_retry(RetryPolicy::attempts(4));
            let mut cfg = cfg(threads, 1);
            cfg.buffer = cache.map(BufferConfig::global);
            let res = try_run_join(&a, &b, &cfg, &ctl)
                .unwrap_or_else(|e| panic!("threads={threads} cache={cache:?}: {e:?}"));
            assert_eq!(
                pair_set(&res.pairs),
                want,
                "threads={threads} cache={cache:?}: transient faults changed the result"
            );
            assert_eq!(
                res.buffer.is_some(),
                cache.is_some(),
                "threads={threads} cache={cache:?}: only a buffered run reports cache stats"
            );
            assert!(
                plan.transient_injected() > 0,
                "threads={threads} cache={cache:?}: plan injected nothing"
            );
            let retries: u64 = res.task_traces.iter().map(|t| t.retries).sum();
            assert_eq!(
                retries,
                plan.transient_injected(),
                "threads={threads} cache={cache:?}: every injected blip is one retry"
            );
        }
    }
}

#[test]
fn corruption_plans_give_typed_errors_never_wrong_answers() {
    let a = tree(1200, 0.0);
    let b = tree(1200, 0.45);
    let want = pair_set(&join_refined(&a, &b));
    let mut saw_error = false;
    for threads in THREADS {
        for cache in CACHES {
            for seed in 0..4u64 {
                let plan = Arc::new(FaultPlan::new(seed).with_flip(0.3));
                let ctl = RunControl::default().with_fault(plan);
                match try_run_join(&a, &b, &cfg(threads, cache), &ctl) {
                    Ok(res) => assert_eq!(
                        pair_set(&res.pairs),
                        want,
                        "threads={threads} cache={cache} seed={seed}: completed but wrong"
                    ),
                    Err(NativeError::Storage(je)) => {
                        saw_error = true;
                        assert!(je.error.is_corrupt(), "seed {seed}: {}", je.error);
                        assert!(je.failed_tasks >= 1);
                    }
                    Err(other) => panic!("seed {seed}: unexpected error {other}"),
                }
            }
        }
    }
    assert!(saw_error, "30% flips never hit any of 16 runs");
}

#[test]
fn total_corruption_always_aborts_with_corrupt_error() {
    let a = tree(600, 0.0);
    let b = tree(600, 0.45);
    let plan = Arc::new(FaultPlan::new(1).with_flip(1.0));
    let ctl = RunControl::default().with_fault(plan);
    match try_run_join(&a, &b, &cfg(2, 512), &ctl) {
        Err(NativeError::Storage(je)) => assert!(je.error.is_corrupt()),
        other => panic!("expected storage abort, got {other:?}"),
    }
}

#[test]
fn server_with_poisoned_tree_degrades_only_that_tree() {
    // Persist the victim, flip one byte inside a leaf page's payload on
    // disk, and lenient-load it back: the damaged page is poisoned, the
    // rest salvaged.
    let healthy = Arc::new(tree(2000, 0.0));
    let victim_src = tree(1600, 0.3);
    let mut path = std::env::temp_dir();
    path.push(format!("psj-chaos-victim-{}.idx", std::process::id()));
    victim_src.save_to(&path).unwrap();
    let leaf = (0..victim_src.num_pages())
        .rev()
        .find(|&n| victim_src.node(PageId(n as u32)).is_leaf())
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let off = 30 + leaf * PAGE_RECORD_SIZE + 64;
    bytes[off] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let loaded = PagedTree::load_from_lenient(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.corrupt_pages, vec![PageId(leaf as u32)]);
    let victim = Arc::new(loaded.tree);

    let server = Server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        vec![Arc::clone(&healthy), victim],
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();

    // The healthy tree answers exactly.
    let rect = Rect::new(0.0, 0.0, 12.0, 12.0);
    let mut got = c.window(0, rect, 0).expect("healthy tree serves");
    let mut want: Vec<u64> = healthy.window_query(&rect).iter().map(|e| e.oid).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);

    // A full-extent window on the victim needs the poisoned leaf: a typed
    // corrupt reply, not a partial answer.
    let full = Rect::new(-100.0, -100.0, 1000.0, 1000.0);
    match c.window(1, full, 0) {
        Err(ClientError::Unexpected(r)) => match *r {
            Response::Storage { kind, ref msg } => {
                assert_eq!(kind, StorageErrorKind::Corrupt, "{msg}");
            }
            other => panic!("expected storage reply, got {other:?}"),
        },
        other => panic!("expected storage reply, got {other:?}"),
    }

    // A join touching the poisoned tree is refused with the same typed
    // error; the healthy tree keeps serving afterwards.
    match c.join(0, 1, true, 0) {
        Err(ClientError::Unexpected(r)) => match *r {
            Response::Storage { kind, .. } => assert_eq!(kind, StorageErrorKind::Corrupt),
            other => panic!("expected storage reply, got {other:?}"),
        },
        other => panic!("expected storage reply, got {other:?}"),
    }
    assert!(!c.window(0, rect, 0).expect("still serving").is_empty());

    let stats = c.stats().expect("stats");
    assert!(stats.storage_corrupt >= 2, "{stats:?}");
    assert!(stats.corrupt_pages_detected >= 1, "{stats:?}");
    server.stop();
}
