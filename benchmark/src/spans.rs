//! Spans of the traced run, recorded by the benchmark around its calls
//! into each layer's public functions.
//!
//! A span's name is `<layer>.<function>`; spans are kept in memory and
//! written when the run ends, in the Chrome-trace JSONL form
//! `psj_obs::validate_jsonl` accepts (one complete event per line, `args`
//! carrying the span's id, its parent's id and the operation's id).

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a span nothing caused.
pub const ROOT: u64 = 0;

struct Span {
    name: &'static str,
    tid: u32,
    start_ns: u64,
    end_ns: u64,
    id: u64,
    parent: u64,
    op: u64,
}

/// The spans of one traced run.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span of operation `op` on thread row `tid`, caused by
    /// span `parent`. `f` receives the new span's id, to parent its own
    /// calls with. Spans of one row must nest or follow one another.
    pub fn span<R>(
        &self,
        name: &'static str,
        tid: u32,
        parent: u64,
        op: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            tid,
            start_ns,
            end_ns,
            id,
            parent,
            op,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no span is recorded while another panics")
            .push(span);
    }

    /// Self time, ms: each span's duration minus the part its child spans
    /// cover, summed over the spans whose name starts with `prefix` (a
    /// layer as `"core."`, or one function) and divided by `ops`.
    pub fn self_ms_per_op(&self, prefix: &str, ops: usize) -> f64 {
        let spans = self.spans.lock().expect("recording is over");
        let total_ns: u64 = spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| {
                let children: u64 = spans
                    .iter()
                    .filter(|c| c.parent == s.id)
                    .map(|c| c.end_ns - c.start_ns)
                    .sum();
                (s.end_ns - s.start_ns).saturating_sub(children)
            })
            .sum();
        total_ns as f64 / 1e6 / ops as f64
    }

    /// Writes the spans to `path` and checks the file with
    /// `psj_obs::validate_jsonl`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut spans = self.spans.lock().expect("recording is over");
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut text = String::new();
        for s in spans.iter() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            text.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                s.op
            ));
        }
        psj_obs::validate_jsonl(&text).map_err(io::Error::other)?;
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut file = io::BufWriter::new(fs::File::create(path)?);
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_the_file_validates() {
        let rec = Recorder::new();
        let span = |name, start_ns, end_ns, id, parent| Span {
            name,
            tid: 0,
            start_ns,
            end_ns,
            id,
            parent,
            op: 7,
        };
        // An outer core span of 1 ms holding two geom children of 0.3 ms.
        rec.push(span("core.outer", 0, 1_000_000, 1, ROOT));
        rec.push(span("geom.inner", 100_000, 400_000, 2, 1));
        rec.push(span("geom.inner", 500_000, 800_000, 3, 1));
        assert_eq!(rec.self_ms_per_op("core.", 1), 0.4);
        assert_eq!(rec.self_ms_per_op("geom.", 2), 0.3);
        assert_eq!(rec.self_ms_per_op("store.", 1), 0.0);

        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-spans.jsonl");
        rec.write(&path).expect("a nested trace is valid");
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(psj_obs::validate_jsonl(&text).unwrap().spans, 3);
        assert!(text.contains("\"args\":{\"id\":2,\"parent\":1,\"op\":7}"));

        // Spans of one row that partly overlap are refused, not written.
        rec.push(span("core.overlap", 900_000, 1_100_000, 4, ROOT));
        assert!(rec.write(&path).is_err());
    }
}
