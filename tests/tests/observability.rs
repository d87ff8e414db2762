//! Observability integration: multi-thread trace round-trips, histogram
//! quantile monotonicity under arbitrary samples, per-task attribution on
//! a traced native join, and the Prometheus exposition agreeing with the
//! binary stats report against a live server.

use proptest::prelude::*;
use psj_core::{try_run_join, BufferConfig, NativeConfig, RunControl};
use psj_geom::Rect;
use psj_obs::{validate_jsonl, Histogram, TraceSink};
use psj_rtree::{PagedTree, RTree};
use psj_serve::{Client, ServeConfig, Server};
use std::sync::Arc;

fn grid_tree(n: usize, offset: f64) -> PagedTree {
    let mut t = RTree::new();
    for i in 0..n {
        let x = (i % 64) as f64 + offset;
        let y = (i / 64) as f64 + offset;
        t.insert(Rect::new(x, y, x + 0.9, y + 0.9), i as u64);
    }
    PagedTree::freeze(&t, |_| None)
}

/// Eight threads record interleaved nested spans and instants; the drained
/// JSONL must parse line-by-line and pass span-nesting validation, with
/// nothing dropped and every event accounted for.
#[test]
fn trace_round_trips_across_threads() {
    const THREADS: usize = 8;
    const SPANS_PER_THREAD: usize = 200;
    let sink = TraceSink::new(1 << 16);
    sink.set_thread_name(0, "checker");
    let handles: Vec<_> = (0..THREADS)
        .map(|w| {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                let mut tr = sink.tracer(w as u32 + 1);
                for i in 0..SPANS_PER_THREAD {
                    let outer = tr.now_ns();
                    let inner = tr.now_ns();
                    tr.instant("tick", "test", &[("i", i as u64)]);
                    tr.span("inner", "test", inner, &[]);
                    tr.span("outer", "test", outer, &[("i", i as u64)]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(sink.dropped(), 0, "sink was sized for the whole workload");

    let mut out = Vec::new();
    let lines = sink.write_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(lines, text.lines().count());

    let summary = validate_jsonl(&text).expect("trace validates");
    assert_eq!(summary.lines, lines);
    assert_eq!(summary.spans, THREADS * SPANS_PER_THREAD * 2);
    assert_eq!(summary.instants, THREADS * SPANS_PER_THREAD);
    assert_eq!(summary.meta, 1, "one thread_name metadata record");
}

/// A traced buffered join yields one `task` span per attribution segment
/// and a trace that validates; the attribution totals reconcile with the
/// run's aggregate counters.
#[test]
fn traced_join_attribution_and_spans_agree() {
    let a = grid_tree(3000, 0.0);
    let b = grid_tree(2500, 0.4);
    let mut cfg = NativeConfig::new(4);
    cfg.buffer = Some(BufferConfig::global(256));
    let sink = TraceSink::new(1 << 20);
    let ctl = RunControl::default().with_trace(Arc::clone(&sink));
    let res = try_run_join(&a, &b, &cfg, &ctl).unwrap();

    assert!(!res.task_traces.is_empty());
    let candidates: u64 = res.task_traces.iter().map(|t| t.candidates).sum();
    assert_eq!(candidates, res.candidates as u64);
    let stats = res.buffer.as_ref().unwrap();
    let pages: u64 = res.task_traces.iter().map(|t| t.pages).sum();
    assert_eq!(pages, stats.requests());

    let mut out = Vec::new();
    sink.write_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    validate_jsonl(&text).expect("trace validates");
    let task_spans = text
        .lines()
        .filter(|l| l.contains("\"name\":\"task\""))
        .count();
    assert_eq!(task_spans, res.task_traces.len());
    assert_eq!(task_spans, res.morsels, "one span per acquired morsel");
    let covered: u64 = res.task_traces.iter().map(|t| u64::from(t.tasks)).sum();
    assert!(
        covered as usize >= res.tasks,
        "morsel spans cover every phase-1 task"
    );
}

/// The Prometheus text scrape and the binary stats report read the same
/// atomics — after a mixed workload they must agree exactly.
#[test]
fn metrics_scrape_matches_stats_report_end_to_end() {
    let cfg = ServeConfig {
        workers: 2,
        join_threads: 2,
        ..ServeConfig::default()
    };
    let trees = vec![
        Arc::new(grid_tree(2000, 0.0)),
        Arc::new(grid_tree(1500, 0.3)),
    ];
    let server = Server::start(cfg, trees).expect("bind loopback");
    let mut c = Client::connect(server.local_addr()).unwrap();

    c.window(0, Rect::new(0.0, 0.0, 8.0, 8.0), 0).unwrap();
    c.nearest(1, 5.0, 5.0, 3, 0).unwrap();
    c.join(0, 1, false, 0).unwrap();

    let stats = c.stats().unwrap();
    let text = c.metrics().unwrap();
    let value = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .parse()
            .unwrap()
    };
    assert_eq!(value("psj_requests_completed_total"), stats.completed);
    assert_eq!(value("psj_requests_shed_total"), stats.shed);
    assert_eq!(value("psj_worker_panics_total"), stats.worker_panics);
    assert_eq!(value("psj_request_latency_seconds_count"), stats.completed);
    assert!(value("psj_join_tasks_total") > 0, "join ran before scrape");
    server.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any recorded sample set (including 0 and huge outliers), the
    /// histogram's quantile estimate is monotone non-decreasing in q and
    /// brackets the recorded range up to bucket resolution.
    #[test]
    fn histogram_quantiles_monotone_in_q(
        micros in prop::collection::vec(0u64..10_000_000_000, 1..200),
        qs in prop::collection::vec(0.0f64..1.0, 2..16),
    ) {
        let h = Histogram::new();
        for &m in &micros {
            h.record_micros(m);
        }
        prop_assert_eq!(h.count(), micros.len() as u64);
        let mut qs = qs;
        qs.push(0.0);
        qs.push(1.0);
        qs.sort_by(f64::total_cmp);
        let estimates: Vec<f64> = qs.iter().map(|&q| h.quantile_ms(q)).collect();
        for w in estimates.windows(2) {
            prop_assert!(
                w[0] <= w[1],
                "quantiles must be monotone in q: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        for e in &estimates {
            prop_assert!(e.is_finite() && *e >= 0.0);
        }
    }
}
