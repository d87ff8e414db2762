//! Latency and load telemetry, built on the [`psj_obs`] metrics registry.
//!
//! Every counter is a relaxed atomic — recording a completed request is a
//! handful of uncontended increments, cheap enough to sit on the hot path
//! of every response. The latency histogram is the shared
//! [`psj_obs::Histogram`]: logarithmic (power-of-two) buckets over
//! microseconds, nine orders of magnitude in [`BUCKETS`] fixed buckets
//! with zero allocation, percentiles interpolated by rank inside a bucket.
//!
//! All counters and the histogram live in one [`Registry`], so the same
//! values that feed [`crate::protocol::ServerStats`] render as
//! Prometheus text for the `Metrics` request — the two reports cannot
//! drift apart. Values kept elsewhere (queue depth, node reads) are gauges
//! refreshed from the stats report at scrape time.

pub use psj_obs::{Histogram, BUCKETS};

use crate::protocol::ServerStats;
use psj_obs::{Counter, Gauge, Registry};
use std::sync::Arc;
use std::time::Duration;

/// The server's counters; one instance shared by all threads.
#[derive(Debug)]
pub struct Telemetry {
    registry: Registry,
    /// Latency of completed requests (admission to reply).
    pub latency: Arc<Histogram>,
    /// Requests answered successfully.
    pub completed: Arc<Counter>,
    /// Requests shed by admission control.
    pub shed: Arc<Counter>,
    /// Requests that missed their deadline.
    pub timeouts: Arc<Counter>,
    /// Malformed frames / payloads.
    pub proto_errors: Arc<Counter>,
    /// Window / nearest queries executed. Kept, with the equal
    /// `batched_queries`, only because `benchmark/` reads both.
    pub batches: Arc<Counter>,
    /// Window / nearest queries executed (always equals `batches`).
    pub batched_queries: Arc<Counter>,
    /// Requests answered with a corrupt-storage error.
    pub storage_corrupt: Arc<Counter>,
    /// Requests answered with an unavailable-storage error.
    pub storage_unavailable: Arc<Counter>,
    /// Request-handler panics caught and recovered (the server keeps
    /// serving).
    pub worker_panics: Arc<Counter>,
    /// Phase-1 tasks created by join requests.
    pub join_tasks: Arc<Counter>,
    // Point-in-time values, refreshed by `render_prometheus`.
    queue_depth: Arc<Gauge>,
    cache_requests: Arc<Gauge>,
    cache_hits: Arc<Gauge>,
    corrupt_pages: Arc<Gauge>,
    page_retries: Arc<Gauge>,
}

impl Default for Telemetry {
    fn default() -> Self {
        let r = Registry::new();
        Telemetry {
            latency: r.histogram(
                "psj_request_latency_seconds",
                "Request latency, admission to reply",
            ),
            completed: r.counter(
                "psj_requests_completed_total",
                "Requests answered successfully",
            ),
            shed: r.counter(
                "psj_requests_shed_total",
                "Requests shed by admission control",
            ),
            timeouts: r.counter(
                "psj_requests_timeout_total",
                "Requests that missed their deadline",
            ),
            proto_errors: r.counter("psj_proto_errors_total", "Malformed frames / payloads"),
            batches: r.counter("psj_batches_total", "Window / nearest queries executed"),
            batched_queries: r.counter(
                "psj_batched_queries_total",
                "Window / nearest queries executed",
            ),
            storage_corrupt: r.counter("psj_storage_corrupt_total", "Corrupt-storage replies"),
            storage_unavailable: r.counter(
                "psj_storage_unavailable_total",
                "Unavailable-storage replies",
            ),
            worker_panics: r.counter(
                "psj_worker_panics_total",
                "Request-handler panics caught and recovered",
            ),
            join_tasks: r.counter("psj_join_tasks_total", "Phase-1 join tasks created"),
            queue_depth: r.gauge("psj_queue_depth", "Admitted-but-unanswered requests"),
            cache_requests: r.gauge("psj_cache_requests", "Query node reads since start"),
            cache_hits: r.gauge(
                "psj_cache_hits",
                "Query node reads that returned a frame since start",
            ),
            corrupt_pages: r.gauge(
                "psj_corrupt_pages_detected",
                "Distinct corrupt pages detected",
            ),
            page_retries: r.gauge("psj_page_retries", "Query node reads retried"),
            registry: r,
        }
    }
}

impl Telemetry {
    /// A zeroed telemetry block.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Records a successful reply and its latency.
    pub fn complete(&self, latency: Duration) {
        self.completed.inc();
        self.latency.record(latency);
    }

    /// Records a deadline miss (also an observation: the client waited).
    pub fn timeout(&self, latency: Duration) {
        self.timeouts.inc();
        self.latency.record(latency);
    }

    /// Records a storage-error reply (`corrupt` selects which counter);
    /// the client waited for it, so it is also a latency observation.
    pub fn storage(&self, latency: Duration, corrupt: bool) {
        if corrupt {
            self.storage_corrupt.inc();
        } else {
            self.storage_unavailable.inc();
        }
        self.latency.record(latency);
    }

    /// Refreshes the gauges from `stats` — the server's report, whose
    /// counters are this registry's — and renders every metric as
    /// Prometheus text exposition.
    pub fn render_prometheus(&self, stats: &ServerStats) -> String {
        self.queue_depth.set(u64::from(stats.queue_depth));
        self.cache_requests.set(stats.cache_requests);
        self.cache_hits.set(stats.cache_hits);
        self.corrupt_pages.set(stats.corrupt_pages_detected);
        self.page_retries.set(stats.page_retries);
        self.registry.render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ms(0.5), 0.0);
    }

    #[test]
    fn quantiles_are_ordered_and_bucket_accurate() {
        let h = Histogram::new();
        // 90 fast requests (~100 µs), 10 slow (~50 ms).
        for _ in 0..90 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(50));
        }
        assert_eq!(h.count(), 100);
        let (p50, p95, p99) = (h.quantile_ms(0.5), h.quantile_ms(0.95), h.quantile_ms(0.99));
        assert!(p50 < 1.0, "p50 {p50} should sit in the fast band");
        assert!(p95 > 10.0, "p95 {p95} should sit in the slow band");
        assert!(p50 <= p95 && p95 <= p99, "{p50} <= {p95} <= {p99}");
        // Bucket resolution: p50 within a factor ~2 of the true 0.1 ms.
        assert!(p50 > 0.05 && p50 < 0.3, "p50 {p50}");
    }

    #[test]
    fn extreme_latencies_clamp_into_range() {
        let h = Histogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(1 << 30));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ms(1.0) > 0.0);
    }

    #[test]
    fn prometheus_text_carries_counters_and_gauges() {
        let t = Telemetry::new();
        t.complete(Duration::from_micros(150));
        t.complete(Duration::from_micros(150));
        t.timeout(Duration::from_millis(80));
        t.storage(Duration::from_millis(1), true);
        t.worker_panics.inc();
        let text = t.render_prometheus(&ServerStats {
            queue_depth: 3,
            cache_requests: 17,
            ..Default::default()
        });
        assert!(text.contains("psj_requests_completed_total 2"), "{text}");
        assert!(text.contains("psj_requests_timeout_total 1"), "{text}");
        assert!(text.contains("psj_storage_corrupt_total 1"), "{text}");
        assert!(text.contains("psj_worker_panics_total 1"), "{text}");
        assert!(text.contains("psj_queue_depth 3"), "{text}");
        assert!(text.contains("psj_cache_requests 17"), "{text}");
        assert!(
            text.contains("psj_request_latency_seconds_count 4"),
            "{text}"
        );
        // Scrape twice: gauges are refreshed, counters keep accumulating.
        let text2 = t.render_prometheus(&ServerStats::default());
        assert!(text2.contains("psj_queue_depth 0"), "{text2}");
        assert!(text2.contains("psj_requests_completed_total 2"), "{text2}");
    }
}
