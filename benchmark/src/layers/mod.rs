//! The traced run: per-layer metrics of one workload.
//!
//! A traced run repeats the workload at a tenth of the operation count,
//! once without and once with spans recorded around every call the
//! benchmark makes into a layer's public functions, then times direct calls
//! into each layer on inputs captured from the workload. Counts come from
//! what the public API returns (`NativeResult`, `TaskTrace`, `BufferStats`,
//! `ServerStats`). Every run prints every metric of [`PER_LAYER`]; one that
//! the workload does not exercise reads 0.

mod join;
mod serve;

use crate::fixtures::Fixture;
use crate::report::{metric, Metric, Outcome};
use crate::spans::Recorder;
use crate::{host, Ctx};
use std::io;

/// Name, unit and better direction of every per-layer metric, as listed in
/// `BENCHMARK.json`. The layer is the crate the name starts with.
pub const PER_LAYER: [(&str, &str, &str); 74] = [
    ("geom.sweep_ns_per_pair", "ns", "lower"),
    ("geom.kernel_share", "ratio", "lower"),
    ("geom.sweep_runs_ns_per_pair", "ns", "lower"),
    ("geom.filter_window_ns_per_entry", "ns", "lower"),
    ("store.page_decode_us", "us", "lower"),
    ("store.load_s", "s", "lower"),
    ("buffer.requests_per_op", "count", "lower"),
    ("buffer.miss_share", "ratio", "lower"),
    ("buffer.evictions_per_op", "count", "lower"),
    ("buffer.l1_hit_share", "ratio", "higher"),
    ("buffer.remote_hit_share", "ratio", "lower"),
    ("buffer.retries_per_op", "count", "lower"),
    ("buffer.hit_ns", "ns", "lower"),
    ("buffer.miss_fill_us", "us", "lower"),
    ("buffer.time_share", "ratio", "lower"),
    ("buffer.serve_hit_share", "ratio", "higher"),
    ("buffer.serve_pages_per_req", "count", "lower"),
    ("rtree.window_us", "us", "lower"),
    ("rtree.window_nodes_per_query", "count", "lower"),
    ("rtree.nn_us", "us", "lower"),
    ("rtree.nn_nodes_per_query", "count", "lower"),
    ("rtree.build_insert_s", "s", "lower"),
    ("rtree.build_str_s", "s", "lower"),
    ("rtree.freeze_s", "s", "lower"),
    ("rtree.save_s", "s", "lower"),
    ("rtree.pages", "count", "lower"),
    ("rtree.height", "count", "lower"),
    ("core.create_tasks_ms", "ms", "lower"),
    ("core.serial_ms", "ms", "lower"),
    ("core.tasks", "count", "higher"),
    ("core.morsels", "count", "higher"),
    ("core.node_pairs", "count", "lower"),
    ("core.candidates", "count", "lower"),
    ("core.steals", "count", "lower"),
    ("core.busy_share", "ratio", "higher"),
    ("core.morsel_wall_cv", "ratio", "lower"),
    ("core.op_ms_p50_t1", "ms", "lower"),
    ("core.scaleup", "ratio", "higher"),
    ("core.cpu_inflation", "ratio", "lower"),
    ("core.oracle_ms", "ms", "lower"),
    ("core.refine_ms", "ms", "lower"),
    ("partition.plan_ms", "ms", "lower"),
    ("partition.exec_ms", "ms", "lower"),
    ("partition.serial_share", "ratio", "lower"),
    ("partition.cells", "count", "higher"),
    ("partition.replication_ratio", "ratio", "lower"),
    ("partition.dedup_share", "ratio", "lower"),
    ("partition.tree_input_ms", "ms", "lower"),
    ("partition.vs_rtree", "ratio", "lower"),
    ("serve.rtt_us", "us", "lower"),
    ("serve.codec_us", "us", "lower"),
    ("serve.resp_bytes_mean", "bytes", "lower"),
    ("serve.batch_wait_ms", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.server_p50_ms", "ms", "lower"),
    ("serve.conn_wait_ms_p90", "ms", "lower"),
    ("serve.gen_lag_ms_p99", "ms", "lower"),
    ("serve.closed_rps", "1/s", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.timeouts", "count", "lower"),
    ("cluster.plan_ms", "ms", "lower"),
    ("cluster.replication_ratio", "ratio", "lower"),
    ("cluster.routed_p50_ms", "ms", "lower"),
    ("cluster.router_overhead_ms", "ms", "lower"),
    ("cluster.fanout_mean", "count", "lower"),
    ("cluster.retries", "count", "lower"),
    ("cluster.hedges", "count", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("datagen.generate_s", "s", "lower"),
    ("budget.explained_share", "ratio", "higher"),
    ("host.nproc", "count", "higher"),
    ("host.threads", "count", "higher"),
    ("host.steal_share", "ratio", "lower"),
    ("host.quiet_block_share", "ratio", "higher"),
];

/// Operations of the traced repeat: a tenth of the timed phase's.
pub const TENTH: u64 = 10;

/// The per-layer metrics of a run, every one starting at 0.
pub struct Layers(Vec<Metric>);

impl Layers {
    fn new() -> Layers {
        Layers(
            PER_LAYER
                .iter()
                .map(|(name, unit, _)| metric(name, 0.0, unit))
                .collect(),
        )
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in [`PER_LAYER`]: a metric that is not
    /// declared cannot be reported.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        m.value = value;
    }

    /// The value of metric `name` (0 until set).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    crate::estimator::quantile(values, 0.5)
}

/// The metrics every workload's traced run reports the same way: what the
/// fixture cost to make, the host, and the tree shape.
fn common(
    layers: &mut Layers,
    ctx: &Ctx,
    fixture: &Fixture,
    pages: usize,
    height: u32,
) -> io::Result<()> {
    let meta = fixture.meta()?;
    for (key, name) in [
        ("generate_s", "datagen.generate_s"),
        ("build_insert_s", "rtree.build_insert_s"),
        ("build_str_s", "rtree.build_str_s"),
        ("freeze_s", "rtree.freeze_s"),
        ("save_s", "rtree.save_s"),
    ] {
        layers.set(name, meta.get(key).copied().unwrap_or(0.0));
    }
    layers.set("rtree.pages", pages as f64);
    layers.set("rtree.height", f64::from(height));
    layers.set("host.nproc", host::nproc() as f64);
    layers.set("host.threads", ctx.threads as f64);
    Ok(())
}

/// The traced run of workload `name` (a join of `kind`, or `serve_mix`):
/// per-layer metrics on standard output, spans in `out/trace-<name>.jsonl`.
pub fn run(ctx: &Ctx, name: &str, join: Option<crate::joins::Kind>) -> io::Result<Outcome> {
    let mut layers = Layers::new();
    let rec = Recorder::new();
    let (attempted, failed) = match join {
        Some(kind) => join::run(ctx, kind, &mut layers, &rec)?,
        None => serve::run(ctx, &mut layers, &rec)?,
    };
    rec.write(&ctx.root.join("out").join(format!("trace-{name}.jsonl")))?;
    Ok(Outcome {
        attempted,
        failed,
        metrics: layers.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed: Vec<String> = text
            .lines()
            .skip_while(|l| !l.contains("\"end_to_end\""))
            .filter(|l| l.contains("\"name\""))
            .map(|l| l.split_whitespace().collect::<String>())
            .map(|l| l.trim_end_matches(',').to_string())
            .collect();
        let end_to_end = END_TO_END.iter().map(|(n, u, b, bound)| {
            format!("{{\"name\":\"{n}\",\"unit\":\"{u}\",\"better\":\"{b}\",\"bound\":{bound}}}")
        });
        let per_layer = PER_LAYER
            .iter()
            .map(|(n, u, b)| format!("{{\"name\":\"{n}\",\"unit\":\"{u}\",\"better\":\"{b}\"}}"));
        assert_eq!(listed, end_to_end.chain(per_layer).collect::<Vec<String>>());
    }
}
