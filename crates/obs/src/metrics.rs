//! Counters, gauges, histograms, and a registry that renders them in the
//! Prometheus text exposition format.
//!
//! Every metric is a relaxed atomic: recording is a handful of uncontended
//! `fetch_add`s, cheap enough for the hot path of every response. The
//! histogram uses logarithmic (power-of-two) buckets over microseconds:
//! nine orders of magnitude in 40 fixed buckets with zero allocation, and
//! percentiles interpolated by rank inside the bucket that holds them.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets: bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` microseconds, the last bucket everything above.
pub const BUCKETS: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (queue depths, resident pages).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket, power-of-two latency histogram over microseconds.
///
/// Bucket edges: bucket `i` covers `[2^i, 2^(i+1))` µs. Both edges of the
/// input domain are safe by construction: 0 µs lands in bucket 0 (the
/// `micros | 1` below makes `log2` well-defined at zero) and `u64::MAX` µs
/// clamps into the last bucket — see the edge tests at the bottom.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of all recorded values in microseconds (saturating), for the
    /// Prometheus `_sum` series.
    sum_micros: AtomicU64,
    /// Smallest and largest recorded values in microseconds; they bound
    /// the interpolation in the first and last occupied buckets.
    min_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
            min_micros: AtomicU64::new(u64::MAX),
            max_micros: AtomicU64::new(0),
        }
    }
}

/// Saturating add on a relaxed atomic: never wraps, even if two adders
/// race near the ceiling (the value sticks at `u64::MAX`).
fn saturating_add(cell: &AtomicU64, n: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(micros: u64) -> usize {
        // floor(log2(max(micros, 1))), clamped into range.
        (63 - (micros | 1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        self.record_micros(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one observation given directly in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        saturating_add(&self.sum_micros, micros);
        self.min_micros.fetch_min(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations in microseconds (saturating).
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, lowest bucket first.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Folds `other` into `self`. Saturating: merging two histograms whose
    /// bucket counts sum past `u64::MAX` pins the bucket at the ceiling
    /// instead of wrapping (a wrapped count would silently shift every
    /// quantile toward zero).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            saturating_add(mine, theirs.load(Ordering::Relaxed));
        }
        saturating_add(&self.sum_micros, other.sum_micros());
        self.min_micros
            .fetch_min(other.min_micros.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_micros
            .fetch_max(other.max_micros.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The `q`-quantile (`0 <= q <= 1`) in milliseconds; 0 when empty.
    ///
    /// Finds the bucket holding rank `q * count` and interpolates linearly
    /// by rank between its edges, as Prometheus `histogram_quantile` does;
    /// the edges are first narrowed to the smallest and largest values
    /// recorded, so a bucket the samples only partly cover (and the
    /// unbounded last bucket) is not read as if they filled it.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().fold(0, |acc, &c| acc.saturating_add(c));
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).clamp(0.0, total as f64);
        let (min, max) = (
            self.min_micros.load(Ordering::Relaxed) as f64,
            self.max_micros.load(Ordering::Relaxed) as f64,
        );
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let below = seen;
            seen = seen.saturating_add(c);
            if c > 0 && seen as f64 >= rank {
                // Bucket i covers [2^i, 2^(i+1)) µs; bucket 0 starts at
                // zero and the last bucket has no upper edge.
                let edge_lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let edge_hi = if i == BUCKETS - 1 {
                    f64::INFINITY
                } else {
                    (1u64 << (i + 1)) as f64
                };
                // Clamping keeps the estimate inside the bucket even when
                // min/max lag the counts under a racing `record`.
                let lo = min.clamp(edge_lo, edge_hi);
                let hi = max.clamp(lo, edge_hi);
                let within = (rank - below as f64) / c as f64;
                return (lo + (hi - lo) * within) / 1_000.0;
            }
        }
        unreachable!("rank <= total")
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    help: String,
    /// `Some((key, value))` renders the series as `name{key="value"}`;
    /// entries sharing a name form one family with a single HELP/TYPE
    /// header.
    label: Option<(String, String)>,
    metric: Metric,
}

impl Entry {
    /// The series identifier as rendered: bare name, or `name{k="v"}`.
    fn series(&self) -> String {
        match &self.label {
            Some((k, v)) => format!("{}{{{k}=\"{v}\"}}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A named collection of metrics, rendered on demand in the Prometheus
/// text exposition format.
///
/// Registration is get-or-create by name: asking twice for the same name
/// returns the same underlying atomic, so independent subsystems can share
/// a series without coordinating. The registry lock is held only during
/// registration and rendering — never while recording.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        write!(f, "Registry({n} metrics)")
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Inserts a new entry adjacent to its family (same `name`), so a
    /// family's series render contiguously under one HELP/TYPE header.
    fn insert_entry(entries: &mut Vec<Entry>, entry: Entry) {
        let pos = entries
            .iter()
            .rposition(|e| e.name == entry.name)
            .map(|i| i + 1)
            .unwrap_or(entries.len());
        entries.insert(pos, entry);
    }

    /// Returns the counter named `name`, creating it if absent.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_entry(name, help, None)
    }

    /// Returns the counter series `name{key="value"}`, creating it if
    /// absent. Series sharing `name` form one family (one HELP/TYPE
    /// header, one line per label value).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter_with_label(
        &self,
        name: &str,
        help: &str,
        key: &str,
        value: &str,
    ) -> Arc<Counter> {
        self.counter_entry(name, help, Some((key.to_string(), value.to_string())))
    }

    fn counter_entry(
        &self,
        name: &str,
        help: &str,
        label: Option<(String, String)>,
    ) -> Arc<Counter> {
        let mut entries = self.lock();
        for e in entries.iter().filter(|e| e.name == name) {
            match &e.metric {
                Metric::Counter(c) if e.label == label => return Arc::clone(c),
                Metric::Counter(_) => {}
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let c = Arc::new(Counter::new());
        Self::insert_entry(
            &mut entries,
            Entry {
                name: name.to_string(),
                help: help.to_string(),
                label,
                metric: Metric::Counter(Arc::clone(&c)),
            },
        );
        c
    }

    /// Returns the gauge named `name`, creating it if absent.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_entry(name, help, None)
    }

    /// Returns the gauge series `name{key="value"}`, creating it if
    /// absent.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge_with_label(&self, name: &str, help: &str, key: &str, value: &str) -> Arc<Gauge> {
        self.gauge_entry(name, help, Some((key.to_string(), value.to_string())))
    }

    fn gauge_entry(&self, name: &str, help: &str, label: Option<(String, String)>) -> Arc<Gauge> {
        let mut entries = self.lock();
        for e in entries.iter().filter(|e| e.name == name) {
            match &e.metric {
                Metric::Gauge(g) if e.label == label => return Arc::clone(g),
                Metric::Gauge(_) => {}
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let g = Arc::new(Gauge::new());
        Self::insert_entry(
            &mut entries,
            Entry {
                name: name.to_string(),
                help: help.to_string(),
                label,
                metric: Metric::Gauge(Arc::clone(&g)),
            },
        );
        g
    }

    /// Returns the histogram named `name`, creating it if absent.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut entries = self.lock();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.metric {
                Metric::Histogram(h) => return Arc::clone(h),
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let h = Arc::new(Histogram::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            label: None,
            metric: Metric::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Renders every registered metric in the Prometheus text format.
    ///
    /// Counters render as `TYPE counter`, gauges as `TYPE gauge`, and
    /// histograms as the conventional cumulative `_bucket{le=...}` series
    /// (upper bounds in seconds) plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let entries = self.lock();
        let mut out = String::new();
        let mut prev_name: Option<&str> = None;
        for e in entries.iter() {
            // Labeled series sharing a name are one family: emit the
            // HELP/TYPE header only for the first entry of a run.
            let new_family = prev_name != Some(e.name.as_str());
            prev_name = Some(e.name.as_str());
            match &e.metric {
                Metric::Counter(c) => {
                    if new_family {
                        let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
                        let _ = writeln!(out, "# TYPE {} counter", e.name);
                    }
                    let _ = writeln!(out, "{} {}", e.series(), c.get());
                }
                Metric::Gauge(g) => {
                    if new_family {
                        let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
                        let _ = writeln!(out, "# TYPE {} gauge", e.name);
                    }
                    let _ = writeln!(out, "{} {}", e.series(), g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
                    let _ = writeln!(out, "# TYPE {} histogram", e.name);
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    for (i, &c) in counts.iter().enumerate() {
                        cum = cum.saturating_add(c);
                        if i + 1 < BUCKETS {
                            // Upper bound of bucket i is 2^(i+1) µs.
                            let le = (1u128 << (i + 1)) as f64 / 1e6;
                            let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cum}", e.name);
                        } else {
                            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {cum}", e.name);
                        }
                    }
                    let _ = writeln!(out, "{}_sum {}", e.name, h.sum_micros() as f64 / 1e6);
                    let _ = writeln!(out, "{}_count {cum}", e.name);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("reqs_total", "requests");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Get-or-create returns the same atomic.
        assert_eq!(r.counter("reqs_total", "requests").get(), 5);
        let g = r.gauge("depth", "queue depth");
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "");
        r.gauge("x", "");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics_across_labels() {
        let r = Registry::new();
        r.counter_with_label("x", "", "shard", "0");
        r.gauge_with_label("x", "", "shard", "1");
    }

    #[test]
    fn labeled_series_share_one_family_header() {
        let r = Registry::new();
        let a = r.counter_with_label("psj_shard_retries_total", "Retries", "shard", "0");
        // An unrelated registration in between must not split the family.
        r.counter("psj_other_total", "Other").inc();
        let b = r.counter_with_label("psj_shard_retries_total", "Retries", "shard", "1");
        a.add(2);
        b.add(5);
        // Get-or-create is keyed on (name, label).
        assert_eq!(
            r.counter_with_label("psj_shard_retries_total", "Retries", "shard", "0")
                .get(),
            2
        );
        let g = r.gauge_with_label("psj_shard_health", "Health", "shard", "0");
        g.set(3);
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# TYPE psj_shard_retries_total counter")
                .count(),
            1,
            "one TYPE header per family:\n{text}"
        );
        assert!(text.contains("psj_shard_retries_total{shard=\"0\"} 2"));
        assert!(text.contains("psj_shard_retries_total{shard=\"1\"} 5"));
        assert!(text.contains("psj_shard_health{shard=\"0\"} 3"));
        // Family lines are contiguous despite interleaved registration.
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("psj_shard_retries_total"))
            .collect();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn bucket_edges_zero_and_max() {
        // 0 µs: `micros | 1` keeps leading_zeros well-defined → bucket 0,
        // no underflow, no panic.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        // u64::MAX µs: log2 = 63, clamped into the last bucket.
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_of(1u64 << 39), BUCKETS - 1);
        let h = Histogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::MAX);
        h.record_micros(u64::MAX);
        assert_eq!(h.count(), 3);
        let q = h.quantile_ms(1.0);
        assert!(q.is_finite() && q > 0.0);
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(Duration::from_micros(100));
        b.record(Duration::from_micros(100));
        b.record(Duration::from_millis(50));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_micros(), 100 + 100 + 50_000);
        assert!(b.count() == 2, "merge must not mutate the source");
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let a = Histogram::new();
        let b = Histogram::new();
        // Force both histograms' bucket 0 near the ceiling.
        a.buckets[0].store(u64::MAX - 1, Ordering::Relaxed);
        a.sum_micros.store(u64::MAX - 1, Ordering::Relaxed);
        b.buckets[0].store(u64::MAX - 1, Ordering::Relaxed);
        b.sum_micros.store(u64::MAX - 1, Ordering::Relaxed);
        a.merge(&b);
        assert_eq!(a.bucket_counts()[0], u64::MAX, "count must pin, not wrap");
        assert_eq!(a.sum_micros(), u64::MAX, "sum must pin, not wrap");
        // And the saturated histogram still answers quantiles sanely.
        assert!(a.quantile_ms(0.5) > 0.0);
        assert!(a.quantile_ms(1.0) >= a.quantile_ms(0.5));
    }

    #[test]
    fn record_micros_saturates_sum() {
        let h = Histogram::new();
        h.record_micros(u64::MAX);
        h.record_micros(u64::MAX);
        assert_eq!(h.sum_micros(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("psj_requests_total", "Requests answered").add(3);
        r.gauge("psj_queue_depth", "Admitted in flight").set(2);
        let h = r.histogram("psj_latency_seconds", "Request latency");
        h.record(Duration::from_micros(5));
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE psj_requests_total counter"));
        assert!(text.contains("psj_requests_total 3"));
        assert!(text.contains("# TYPE psj_queue_depth gauge"));
        assert!(text.contains("psj_queue_depth 2"));
        assert!(text.contains("# TYPE psj_latency_seconds histogram"));
        assert!(text.contains("psj_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("psj_latency_seconds_count 1"));
        assert!(text.contains("psj_latency_seconds_sum 0.000005"));
        // Buckets are cumulative: every line's count is the running total.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets must be nondecreasing");
            last = v;
        }
    }

    #[test]
    fn quantile_interpolates_inside_the_bucket() {
        // 100..=199 µs straddles the 128 µs bucket edge; the geometric
        // midpoint of the rank's bucket used to report 181 µs whatever
        // the samples were.
        let h = Histogram::new();
        for i in 0..1_000 {
            h.record_micros(100 + i / 10);
        }
        let p50_us = h.quantile_ms(0.5) * 1_000.0;
        assert!((p50_us - 150.0).abs() <= 7.5, "p50 {p50_us} µs");
        // The ends are the recorded extremes, not bucket edges.
        assert_eq!(h.quantile_ms(0.0) * 1_000.0, 100.0);
        assert_eq!(h.quantile_ms(1.0) * 1_000.0, 199.0);
    }

    #[test]
    fn quantiles_are_ordered_and_bucket_accurate() {
        let h = Histogram::new();
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
        assert!(p50 > 0.05 && p50 < 0.3, "p50 {p50}");
    }
}
