//! A closed-loop load generator for psj-serve.
//!
//! `clients` threads each hold one connection and issue
//! `requests_per_client` requests back-to-back (closed loop: the next
//! request leaves when the previous response arrives, so offered load
//! adapts to server latency). The workload mix, query placement, and
//! deadlines are driven by a seeded RNG — the same seed reproduces the
//! same request sequence.
//!
//! Latency is measured client-side (send to receive) and reported as
//! exact percentiles over the collected samples, alongside the server's
//! own histogram-derived stats.

use crate::client::{Client, ClientError};
use crate::protocol::{Response, ServerStats, TreeInfo};
use psj_geom::Rect;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent client connections (threads).
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// RNG seed; client `i` uses `seed + i`.
    pub seed: u64,
    /// Fraction of requests that are window queries.
    pub window_frac: f64,
    /// Fraction that are nearest-neighbor queries (the remainder after
    /// windows and nearests are joins).
    pub nearest_frac: f64,
    /// Per-request deadline in ms; 0 = none.
    pub deadline_ms: u32,
    /// `k` for nearest queries.
    pub k: u32,
    /// Window side length as a fraction of the tree extent per axis.
    pub window_extent: f64,
    /// Reconnect with bounded backoff on transport failure instead of
    /// ending the client's run (useful against a router whose shards
    /// may drop connections mid-load).
    pub reconnect: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 7878)),
            clients: 4,
            requests_per_client: 250,
            seed: 42,
            window_frac: 0.7,
            nearest_frac: 0.3,
            deadline_ms: 0,
            k: 10,
            window_extent: 0.05,
            reconnect: false,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Clients × requests-per-client.
    pub offered: u64,
    /// Requests answered with a result payload.
    pub completed: u64,
    /// Requests answered with a `Partial` payload (degraded cluster
    /// reads; counted in `completed` as well).
    pub partials: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Requests answered `DeadlineExceeded`.
    pub timeouts: u64,
    /// Requests answered with a typed storage error (corrupt or
    /// unavailable pages).
    pub storage: u64,
    /// Transport/protocol failures observed client-side.
    pub errors: u64,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Exact client-side latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// The server's own stats, fetched after the run.
    pub server: Option<ServerStats>,
}

impl LoadReport {
    /// Serializes the report (flat JSON object, server stats nested).
    pub fn to_json(&self, cfg: &LoadConfig) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"clients\": {},\n", cfg.clients));
        s.push_str(&format!(
            "  \"requests_per_client\": {},\n",
            cfg.requests_per_client
        ));
        s.push_str(&format!("  \"seed\": {},\n", cfg.seed));
        s.push_str(&format!("  \"window_frac\": {},\n", cfg.window_frac));
        s.push_str(&format!("  \"nearest_frac\": {},\n", cfg.nearest_frac));
        s.push_str(&format!("  \"deadline_ms\": {},\n", cfg.deadline_ms));
        s.push_str(&format!("  \"offered\": {},\n", self.offered));
        s.push_str(&format!("  \"completed\": {},\n", self.completed));
        s.push_str(&format!("  \"partials\": {},\n", self.partials));
        s.push_str(&format!("  \"shed\": {},\n", self.shed));
        s.push_str(&format!("  \"timeouts\": {},\n", self.timeouts));
        s.push_str(&format!("  \"storage\": {},\n", self.storage));
        s.push_str(&format!("  \"errors\": {},\n", self.errors));
        s.push_str(&format!("  \"elapsed_s\": {:.6},\n", self.elapsed_s));
        s.push_str(&format!(
            "  \"throughput_rps\": {:.3},\n",
            self.throughput_rps
        ));
        s.push_str(&format!("  \"p50_ms\": {:.6},\n", self.p50_ms));
        s.push_str(&format!("  \"p95_ms\": {:.6},\n", self.p95_ms));
        s.push_str(&format!("  \"p99_ms\": {:.6}", self.p99_ms));
        if let Some(sv) = &self.server {
            s.push_str(",\n  \"server\": {\n");
            s.push_str(&format!("    \"completed\": {},\n", sv.completed));
            s.push_str(&format!("    \"shed\": {},\n", sv.shed));
            s.push_str(&format!("    \"timeouts\": {},\n", sv.timeouts));
            s.push_str(&format!("    \"proto_errors\": {},\n", sv.proto_errors));
            s.push_str(&format!("    \"batches\": {},\n", sv.batches));
            s.push_str(&format!(
                "    \"batched_queries\": {},\n",
                sv.batched_queries
            ));
            s.push_str(&format!("    \"p50_ms\": {:.6},\n", sv.p50_ms));
            s.push_str(&format!("    \"p95_ms\": {:.6},\n", sv.p95_ms));
            s.push_str(&format!("    \"p99_ms\": {:.6},\n", sv.p99_ms));
            s.push_str(&format!("    \"cache_requests\": {},\n", sv.cache_requests));
            s.push_str(&format!("    \"cache_hits\": {},\n", sv.cache_hits));
            s.push_str(&format!(
                "    \"storage_corrupt\": {},\n",
                sv.storage_corrupt
            ));
            s.push_str(&format!(
                "    \"storage_unavailable\": {},\n",
                sv.storage_unavailable
            ));
            s.push_str(&format!(
                "    \"corrupt_pages_detected\": {},\n",
                sv.corrupt_pages_detected
            ));
            s.push_str(&format!("    \"page_retries\": {}\n", sv.page_retries));
            s.push_str("  }");
        }
        s.push_str("\n}\n");
        s
    }
}

#[derive(Default)]
struct ClientOutcome {
    completed: u64,
    partials: u64,
    shed: u64,
    timeouts: u64,
    storage: u64,
    errors: u64,
    latencies_ms: Vec<f64>,
}

/// Sorts latency samples with a total order. `partial_cmp(..).unwrap()`
/// here would panic the whole load run if any sample were NaN (e.g. a
/// future clock-math regression); `total_cmp` sorts NaN to the end
/// instead, leaving the finite percentiles intact.
fn sort_latencies(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn random_window(rng: &mut StdRng, mbr: &Rect, extent: f64) -> Rect {
    let w = (mbr.xu - mbr.xl).max(f64::MIN_POSITIVE) * extent;
    let h = (mbr.yu - mbr.yl).max(f64::MIN_POSITIVE) * extent;
    let x = mbr.xl + rng.random::<f64>() * (mbr.xu - mbr.xl - w).max(0.0);
    let y = mbr.yl + rng.random::<f64>() * (mbr.yu - mbr.yl - h).max(0.0);
    Rect::new(x, y, x + w, y + h)
}

fn client_loop(cfg: &LoadConfig, id: usize, trees: &[TreeInfo]) -> io::Result<ClientOutcome> {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(id as u64));
    let mut client = Client::connect_timeout(&cfg.addr, Duration::from_secs(30))?;
    if cfg.reconnect {
        client.set_reconnect(Some(crate::client::BackoffPolicy {
            jitter_seed: cfg.seed.wrapping_add(id as u64),
            ..Default::default()
        }));
    }
    let mut out = ClientOutcome {
        latencies_ms: Vec::with_capacity(cfg.requests_per_client),
        ..Default::default()
    };
    for _ in 0..cfg.requests_per_client {
        let tree = rng.random_range(0..trees.len()) as u16;
        let info = &trees[tree as usize];
        let roll: f64 = rng.random();
        let start = Instant::now();
        let result = if roll < cfg.window_frac {
            let rect = random_window(&mut rng, &info.mbr, cfg.window_extent);
            client.window(tree, rect, cfg.deadline_ms).map(|_| ())
        } else if roll < cfg.window_frac + cfg.nearest_frac {
            let x = info.mbr.xl + rng.random::<f64>() * (info.mbr.xu - info.mbr.xl);
            let y = info.mbr.yl + rng.random::<f64>() * (info.mbr.yu - info.mbr.yl);
            client
                .nearest(tree, x, y, cfg.k, cfg.deadline_ms)
                .map(|_| ())
        } else {
            let other = if trees.len() > 1 { 1 } else { 0 };
            client.join(0, other, true, cfg.deadline_ms).map(|_| ())
        };
        let ms = start.elapsed().as_secs_f64() * 1_000.0;
        match result {
            Ok(()) => {
                out.completed += 1;
                out.latencies_ms.push(ms);
            }
            Err(ClientError::Unexpected(r)) => match *r {
                // A degraded cluster read still carries a payload; it
                // counts as completed (and separately as partial).
                Response::Partial { .. } => {
                    out.completed += 1;
                    out.partials += 1;
                    out.latencies_ms.push(ms);
                }
                Response::Overloaded => out.shed += 1,
                Response::DeadlineExceeded => {
                    out.timeouts += 1;
                    out.latencies_ms.push(ms);
                }
                Response::Storage { .. } => {
                    out.storage += 1;
                    out.latencies_ms.push(ms);
                }
                _ => out.errors += 1,
            },
            Err(ClientError::Io(e)) => {
                // A broken transport ends this client's run.
                out.errors += 1;
                let _ = e;
                break;
            }
        }
    }
    Ok(out)
}

/// Runs the closed-loop workload and aggregates the outcome.
pub fn run(cfg: &LoadConfig) -> io::Result<LoadReport> {
    // One probe connection discovers the loaded trees (query placement
    // needs their MBRs) before any load is offered.
    let trees = {
        let mut probe = Client::connect_timeout(&cfg.addr, Duration::from_secs(10))?;
        probe
            .info()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
    };
    if trees.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "server reports no trees",
        ));
    }

    let started = Instant::now();
    let outcomes: Vec<io::Result<ClientOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|id| {
                let trees = &trees;
                scope.spawn(move || client_loop(cfg, id, trees))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut total = ClientOutcome::default();
    let mut io_failures = 0u64;
    for o in outcomes {
        match o {
            Ok(o) => {
                total.completed += o.completed;
                total.partials += o.partials;
                total.shed += o.shed;
                total.timeouts += o.timeouts;
                total.storage += o.storage;
                total.errors += o.errors;
                total.latencies_ms.extend(o.latencies_ms);
            }
            Err(_) => io_failures += 1,
        }
    }
    sort_latencies(&mut total.latencies_ms);

    let server = Client::connect_timeout(&cfg.addr, Duration::from_secs(10))
        .ok()
        .and_then(|mut c| c.stats().ok());

    Ok(LoadReport {
        offered: (cfg.clients * cfg.requests_per_client) as u64,
        completed: total.completed,
        partials: total.partials,
        shed: total.shed,
        timeouts: total.timeouts,
        storage: total.storage,
        errors: total.errors + io_failures,
        elapsed_s,
        throughput_rps: if elapsed_s > 0.0 {
            total.completed as f64 / elapsed_s
        } else {
            0.0
        },
        p50_ms: percentile(&total.latencies_ms, 0.50),
        p95_ms: percentile(&total.latencies_ms, 0.95),
        p99_ms: percentile(&total.latencies_ms, 0.99),
        server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sort_survives_nan_samples() {
        // Regression: this sort used partial_cmp(..).unwrap(), which
        // panics on any NaN sample and lost the entire load report.
        let mut samples = vec![3.5, f64::NAN, 0.25, f64::INFINITY, 1.0];
        sort_latencies(&mut samples);
        assert_eq!(&samples[..3], &[0.25, 1.0, 3.5]);
        assert_eq!(samples[3], f64::INFINITY);
        assert!(samples[4].is_nan(), "NaN sorts to the end under total_cmp");
        assert_eq!(percentile(&samples, 0.5), 3.5);
    }

    #[test]
    fn percentile_handles_empty_and_singleton() {
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }
}
