//! The `serve_mix` workload: an in-process `psj_serve::Server` answering a
//! 70 % window / 30 % 10-NN mix sent open-loop on two Poisson schedules,
//! one blocking `Client` connection each.

use crate::estimator::{estimate, Block};
use crate::fixtures::Fixture;
use crate::host;
use crate::report::{end_to_end, Outcome};
use crate::schedule::{drive, requests, Clock, Query, Req, Rng, Sample};
use crate::spans::{Recorder, ROOT};
use crate::{median_setup, Ctx, WARM_UP};
use psj_geom::{Point, Rect};
use psj_rtree::PagedTree;
use psj_serve::{Client, Request, Response, ServeConfig, Server, ServerStats};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per block.
pub const BLOCK: usize = 500;

/// Connections, one generator thread each (never more than `nproc` on the
/// 2-core reference host).
pub const CONNS: usize = 2;

/// Offered rate per connection, requests per second: 400 req/s in all,
/// about 45 % of what two blocking connections carry at the median reply
/// time, so queueing is visible and stable.
pub const RATE_PER_CONN: f64 = 200.0;

/// Neighbours per k-NN request.
pub const K: usize = 10;

/// One request in a hundred has its reply compared with a direct call.
const SAMPLE_ONE_IN: u64 = 100;

/// A started server with its connections; stops the server when dropped.
pub struct Serving {
    /// The trees the server answers from.
    pub trees: Vec<Arc<PagedTree>>,
    /// One blocking connection per schedule.
    pub clients: Vec<Client>,
    server: Option<Server>,
}

impl Serving {
    /// Starts a server over `trees` with `cfg` and connects [`CONNS`]
    /// clients.
    pub fn start(cfg: ServeConfig, trees: Vec<Arc<PagedTree>>) -> io::Result<Serving> {
        let server = Server::start(cfg, trees.clone())?;
        let clients = (0..CONNS)
            .map(|_| Client::connect(server.local_addr()))
            .collect::<io::Result<Vec<Client>>>()?;
        Ok(Serving {
            trees,
            clients,
            server: Some(server),
        })
    }

    /// The server's counters, over a connection of its own.
    pub fn stats(&self) -> io::Result<ServerStats> {
        let addr = self
            .server
            .as_ref()
            .expect("server runs until drop")
            .local_addr();
        Client::connect(addr)?
            .stats()
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// MBRs of the served trees, the space queries are drawn from.
    pub fn mbrs(&self) -> Vec<Rect> {
        self.trees.iter().map(|t| t.mbr()).collect()
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        // Hang up first, so the connection threads see EOF and `stop` does
        // not wait for their read timeout.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// The server configuration of the workload: the defaults `psj serve`
/// starts with, at `T` workers.
pub fn serve_config(ctx: &Ctx) -> ServeConfig {
    ServeConfig {
        workers: ctx.threads,
        ..ServeConfig::default()
    }
}

/// The set-up step: load and verify both trees, start the server, connect.
pub fn set_up(ctx: &Ctx) -> io::Result<(f64, Serving)> {
    let fixture = Fixture::open(&ctx.root, ctx.seed)?;
    median_setup(|| {
        let (a, b) = fixture.load()?;
        Serving::start(serve_config(ctx), vec![Arc::new(a), Arc::new(b)])
    })
}

/// The wire form of a query.
pub fn wire(q: &Query) -> Request {
    match *q {
        Query::Window { tree, rect } => Request::Window {
            tree,
            rect,
            deadline_ms: 0,
        },
        Query::Nearest { tree, x, y } => Request::Nearest {
            tree,
            x,
            y,
            k: K as u32,
            deadline_ms: 0,
        },
    }
}

/// Whether `reply` is what a direct call on the tree returns for `q`:
/// the same oids for a window, the same distances and oids for k-NN (ties
/// may order oids differently).
fn reply_matches(trees: &[Arc<PagedTree>], q: &Query, reply: &Response) -> bool {
    match (*q, reply) {
        (Query::Window { tree, rect }, Response::Entries(got)) => {
            let mut got = got.clone();
            let mut want: Vec<u64> = trees[tree as usize]
                .window_query(&rect)
                .iter()
                .map(|e| e.oid)
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            got == want
        }
        (Query::Nearest { tree, x, y }, Response::Neighbors(got)) => {
            let want = trees[tree as usize].nearest_neighbors(&Point::new(x, y), K);
            let mut got_oids: Vec<u64> = got.iter().map(|g| g.1).collect();
            let mut want_oids: Vec<u64> = want.iter().map(|w| w.1.oid).collect();
            got_oids.sort_unstable();
            want_oids.sort_unstable();
            got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.0.to_bits() == w.0.to_bits())
                && got_oids == want_oids
        }
        _ => false,
    }
}

/// Whether `reply` is of the kind `q` asks for.
fn kind_matches(q: &Query, reply: &Response) -> bool {
    matches!(
        (q, reply),
        (Query::Window { .. }, Response::Entries(_))
            | (Query::Nearest { .. }, Response::Neighbors(_))
    )
}

struct Wall(Instant);

impl Clock for Wall {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
    fn sleep_until(&self, ns: u64) {
        std::thread::sleep(Duration::from_nanos(ns.saturating_sub(self.now_ns())));
    }
}

/// Replies kept for checking, each with its request's index.
pub type Kept = Vec<(usize, Response)>;

/// What one open-loop phase measured.
pub struct Phase {
    /// One sample per request, in [`Req::index`] order.
    pub samples: Vec<Sample>,
    /// Process CPU time at the start of every block and at the end, ns.
    pub cpu_marks: Vec<u64>,
    /// Start of the phase to the last reply, seconds.
    pub elapsed_s: f64,
    /// The replies `keep` asked for.
    pub kept: Kept,
}

/// The seeded 1 % of `n` requests whose replies are checked.
pub fn sample(seed: u64, n: usize) -> Vec<bool> {
    let mut rng = Rng::new(seed ^ 0x5A17);
    (0..n)
        .map(|_| rng.next_u64().is_multiple_of(SAMPLE_ONE_IN))
        .collect()
}

/// Sends `reqs` open-loop over the server's connections, one thread per
/// connection, keeping the replies of the requests `keep` picks. With a
/// recorder, every request is a span on its connection's row.
pub fn open_loop(
    serving: &mut Serving,
    reqs: &[Req],
    keep: &(dyn Fn(usize) -> bool + Sync),
    rec: Option<&Recorder>,
) -> Phase {
    let blocks = reqs.len() / BLOCK;
    let cpu_marks: Vec<AtomicU64> = (0..=blocks).map(|_| AtomicU64::new(0)).collect();
    let per_conn: Vec<Vec<Req>> = (0..CONNS)
        .map(|c| reqs.iter().filter(|r| r.conn == c).copied().collect())
        .collect();
    let clock = Wall(Instant::now());
    let (clock, marks) = (&clock, &cpu_marks);
    let results: Vec<(Vec<Sample>, Kept)> = std::thread::scope(|s| {
        let handles: Vec<_> = serving
            .clients
            .iter_mut()
            .zip(&per_conn)
            .map(|(client, mine)| {
                s.spawn(move || {
                    let mut kept = Vec::new();
                    let samples = drive(clock, mine, |r| {
                        if r.index % BLOCK == 0 && r.index / BLOCK < blocks {
                            marks[r.index / BLOCK].store(host::process_cpu_ns(), Ordering::Relaxed);
                        }
                        let request = wire(&r.query);
                        let reply = match rec {
                            Some(rec) => rec.span(
                                "serve.request",
                                1 + r.conn as u32,
                                ROOT,
                                r.index as u64,
                                |_| client.request(&request),
                            ),
                            None => client.request(&request),
                        };
                        match reply {
                            Ok(reply) if kind_matches(&r.query, &reply) => {
                                if keep(r.index) {
                                    kept.push((r.index, reply));
                                }
                                true
                            }
                            _ => false,
                        }
                    });
                    (samples, kept)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let elapsed_s = clock.now_ns() as f64 / 1e9;
    cpu_marks[blocks].store(host::process_cpu_ns(), Ordering::Relaxed);

    let mut phase = Phase {
        samples: Vec::with_capacity(reqs.len()),
        cpu_marks: cpu_marks
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .collect(),
        elapsed_s,
        kept: Vec::new(),
    };
    for (samples, kept) in results {
        phase.samples.extend(samples);
        phase.kept.extend(kept);
    }
    phase.samples.sort_by_key(|s| s.index);
    phase
}

impl Phase {
    /// The blocks of the phase: latency from due, CPU between block marks.
    pub fn blocks(&self) -> Vec<Block> {
        self.samples
            .chunks_exact(BLOCK)
            .enumerate()
            .map(|(b, chunk)| {
                let mut lat: Vec<f64> = chunk.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
                let cpu_ms = (self.cpu_marks[b + 1] - self.cpu_marks[b]) as f64 / 1e6;
                Block::new(&mut lat, cpu_ms)
            })
            .collect()
    }

    /// Requests that errored, were shed or timed out, plus kept replies
    /// that differ from the direct call on the tree.
    pub fn failed(&self, trees: &[Arc<PagedTree>], reqs: &[Req]) -> u64 {
        let wrong = self
            .kept
            .iter()
            .filter(|(index, reply)| !reply_matches(trees, &reqs[*index].query, reply))
            .count();
        (self.samples.iter().filter(|s| !s.ok).count() + wrong) as u64
    }
}

/// The timed request list of a run: whole blocks, at least one.
pub fn timed_requests(ctx: &Ctx, seconds: u64, mbrs: &[Rect]) -> Vec<Req> {
    let total = (seconds as f64 * RATE_PER_CONN) as usize * CONNS;
    let per_conn = (total / BLOCK).max(1) * BLOCK / CONNS;
    requests(ctx.seed, CONNS, per_conn, RATE_PER_CONN, mbrs)
}

/// Runs the mix untimed for [`WARM_UP`], on a request list of its own.
pub fn warm_up(serving: &mut Serving, ctx: &Ctx) {
    let per_conn = (WARM_UP.as_secs_f64() * RATE_PER_CONN) as usize;
    let reqs = requests(!ctx.seed, CONNS, per_conn, RATE_PER_CONN, &serving.mbrs());
    open_loop(serving, &reqs, &|_| false, None);
}

/// The end-to-end run of `serve_mix`.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let (setup_s, mut serving) = set_up(ctx)?;
    let _spinners = host::IdleSpinners::start();
    warm_up(&mut serving, ctx);
    let reqs = timed_requests(ctx, ctx.seconds, &serving.mbrs());
    let picks = sample(ctx.seed, reqs.len());
    let phase = open_loop(&mut serving, &reqs, &|index| picks[index], None);
    let est = estimate(&phase.blocks());
    let failed = phase.failed(&serving.trees, &reqs);
    let completed = reqs.len() as u64 - failed;
    Ok(Outcome {
        attempted: reqs.len() as u64,
        failed,
        metrics: end_to_end(
            completed as f64 / phase.elapsed_s,
            &est,
            host::peak_rss_mb(),
            setup_s,
        ),
    })
}
