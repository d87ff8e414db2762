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
//! drift apart. Point-in-time values (queue depth, cache residency) are
//! published as gauges refreshed at scrape time.

pub use psj_obs::{Histogram, BUCKETS};

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
    /// Successful steals inside join requests.
    pub join_steals: Arc<Counter>,
    // Point-in-time values, refreshed by `render_prometheus`.
    queue_depth: Arc<Gauge>,
    cache_requests: Arc<Gauge>,
    cache_hits: Arc<Gauge>,
    cache_misses: Arc<Gauge>,
    cache_evictions: Arc<Gauge>,
    resident_pages: Arc<Gauge>,
    capacity_pages: Arc<Gauge>,
    corrupt_pages: Arc<Gauge>,
    quarantined_pages: Arc<Gauge>,
    page_retries: Arc<Gauge>,
    // Monotonic cache counters mirrored from the shared cache's own
    // atomics at scrape time (delta-add in `render_prometheus`), exposed
    // as `counter` so rate()/increase() work on them — they only ever
    // grow. Names kept from the earlier gauge exposition.
    cache_opt_hits: Arc<Counter>,
    cache_opt_fallbacks: Arc<Counter>,
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
            join_steals: r.counter("psj_join_steals_total", "Successful steals inside joins"),
            queue_depth: r.gauge("psj_queue_depth", "Admitted-but-unanswered requests"),
            cache_requests: r.gauge("psj_cache_requests", "Page-cache requests since start"),
            cache_hits: r.gauge("psj_cache_hits", "Page-cache hits since start"),
            cache_misses: r.gauge("psj_cache_misses", "Page-cache misses since start"),
            cache_evictions: r.gauge("psj_cache_evictions", "Page-cache evictions since start"),
            resident_pages: r.gauge("psj_cache_resident_pages", "Pages resident right now"),
            capacity_pages: r.gauge("psj_cache_capacity_pages", "Page-cache capacity"),
            corrupt_pages: r.gauge(
                "psj_corrupt_pages_detected",
                "Distinct corrupt pages detected",
            ),
            quarantined_pages: r.gauge("psj_quarantined_pages", "Pages currently quarantined"),
            page_retries: r.gauge("psj_page_retries", "Page fetches retried by the cache"),
            cache_opt_hits: r.counter(
                "psj_cache_opt_hits",
                "Cache hits served without taking a shard mutex",
            ),
            cache_opt_fallbacks: r.counter(
                "psj_cache_opt_fallbacks",
                "Guard reads that went to the shard mutex after a failed validation",
            ),
            registry: r,
        }
    }
}

/// Point-in-time values the scrape publishes as gauges; the caller reads
/// them from the cache snapshot and admission counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaugeSnapshot {
    /// Admitted-but-unanswered requests.
    pub queue_depth: u64,
    /// Page-cache requests since start.
    pub cache_requests: u64,
    /// Page-cache hits since start.
    pub cache_hits: u64,
    /// Page-cache misses since start.
    pub cache_misses: u64,
    /// Page-cache evictions since start.
    pub cache_evictions: u64,
    /// Pages resident at scrape time.
    pub resident_pages: u64,
    /// Page-cache capacity.
    pub capacity_pages: u64,
    /// Distinct corrupt pages detected since start.
    pub corrupt_pages: u64,
    /// Pages currently quarantined.
    pub quarantined_pages: u64,
    /// Page fetches retried by the cache since start.
    pub page_retries: u64,
    /// Cache hits served by a borrowing guard, i.e. without taking any
    /// shard mutex.
    pub cache_opt_hits: u64,
    /// Guard reads that went to the mutex path after a failed validation
    /// (the slot was being replaced).
    pub cache_opt_fallbacks: u64,
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

    /// Refreshes the point-in-time gauges and renders every metric as
    /// Prometheus text exposition.
    pub fn render_prometheus(&self, snap: &GaugeSnapshot) -> String {
        self.queue_depth.set(snap.queue_depth);
        self.cache_requests.set(snap.cache_requests);
        self.cache_hits.set(snap.cache_hits);
        self.cache_misses.set(snap.cache_misses);
        self.cache_evictions.set(snap.cache_evictions);
        self.resident_pages.set(snap.resident_pages);
        self.capacity_pages.set(snap.capacity_pages);
        self.corrupt_pages.set(snap.corrupt_pages);
        self.quarantined_pages.set(snap.quarantined_pages);
        self.page_retries.set(snap.page_retries);
        // The cache's own atomics are the source of truth for these
        // monotonic counts; advance the exported counters by the delta so
        // the exposition stays a counter (never decreases, never resets
        // while the process lives).
        let sync = |c: &Counter, v: u64| c.add(v.saturating_sub(c.get()));
        sync(&self.cache_opt_hits, snap.cache_opt_hits);
        sync(&self.cache_opt_fallbacks, snap.cache_opt_fallbacks);
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
        let text = t.render_prometheus(&GaugeSnapshot {
            queue_depth: 3,
            resident_pages: 17,
            ..Default::default()
        });
        assert!(text.contains("psj_requests_completed_total 2"), "{text}");
        assert!(text.contains("psj_requests_timeout_total 1"), "{text}");
        assert!(text.contains("psj_storage_corrupt_total 1"), "{text}");
        assert!(text.contains("psj_worker_panics_total 1"), "{text}");
        assert!(text.contains("psj_queue_depth 3"), "{text}");
        assert!(text.contains("psj_cache_resident_pages 17"), "{text}");
        assert!(
            text.contains("psj_request_latency_seconds_count 4"),
            "{text}"
        );
        // Scrape twice: gauges are refreshed, counters keep accumulating.
        let text2 = t.render_prometheus(&GaugeSnapshot::default());
        assert!(text2.contains("psj_queue_depth 0"), "{text2}");
        assert!(text2.contains("psj_requests_completed_total 2"), "{text2}");
    }

    #[test]
    fn optimistic_cache_metrics_are_exposed_as_counters() {
        // Regression: these are monotonic counts (the cache's atomics only
        // grow) but were exported with `# TYPE gauge`, which breaks
        // rate()/increase() in Prometheus. Same names, counter type.
        let t = Telemetry::new();
        let text = t.render_prometheus(&GaugeSnapshot {
            cache_opt_hits: 41,
            cache_opt_fallbacks: 2,
            ..Default::default()
        });
        for name in ["psj_cache_opt_hits", "psj_cache_opt_fallbacks"] {
            assert!(
                text.contains(&format!("# TYPE {name} counter")),
                "{name} must be a counter:\n{text}"
            );
            assert!(
                !text.contains(&format!("# TYPE {name} gauge")),
                "{name} must not be a gauge:\n{text}"
            );
        }
        assert!(text.contains("psj_cache_opt_hits 41"), "{text}");
        // A later scrape with larger cache counts advances the counters by
        // the delta — values track the cache exactly, monotonically.
        let text2 = t.render_prometheus(&GaugeSnapshot {
            cache_opt_hits: 55,
            cache_opt_fallbacks: 4,
            ..Default::default()
        });
        assert!(text2.contains("psj_cache_opt_hits 55"), "{text2}");
        assert!(text2.contains("psj_cache_opt_fallbacks 4"), "{text2}");
    }
}
