//! The `serve_mix` request list and the open-loop generator that sends it.
//!
//! Requests arrive on seeded Poisson schedules, one per connection. The
//! loop is open: a request is sent when it is due, or as soon as its
//! connection is free if the previous reply is late — and it is always
//! timed from the instant it was *due*, so a stall is charged to every
//! request it delays, not only to the one that stalled.

use psj_geom::Rect;

/// SplitMix64: the benchmark's own generator, so the request list is a
/// function of the seed alone and no change to the crates can move it.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Share of requests that are window queries; the rest are k-NN.
const WINDOW_SHARE: f64 = 0.7;

/// Window side as a share of the tree's extent, per axis.
const WINDOW_EXTENT: f64 = 0.02;

/// One query of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// All entries of `tree` intersecting `rect`.
    Window {
        /// Target tree.
        tree: u16,
        /// Query window.
        rect: Rect,
    },
    /// The ten entries of `tree` nearest to `(x, y)`.
    Nearest {
        /// Target tree.
        tree: u16,
        /// Query point x.
        x: f64,
        /// Query point y.
        y: f64,
    },
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    /// When the request is due, nanoseconds from the start of the phase.
    pub due_ns: u64,
    /// The connection that carries it.
    pub conn: usize,
    /// Position in due order over all connections; blocks are cut on it.
    pub index: usize,
    /// What it asks.
    pub query: Query,
}

fn query(rng: &mut Rng, mbrs: &[Rect]) -> Query {
    let tree = (rng.next_u64() % mbrs.len() as u64) as u16;
    let m = &mbrs[tree as usize];
    let (w, h) = (m.xu - m.xl, m.yu - m.yl);
    if rng.unit() < WINDOW_SHARE {
        let (qw, qh) = (w * WINDOW_EXTENT, h * WINDOW_EXTENT);
        let x = m.xl + rng.unit() * (w - qw);
        let y = m.yl + rng.unit() * (h - qh);
        Query::Window {
            tree,
            rect: Rect::new(x, y, x + qw, y + qh),
        }
    } else {
        Query::Nearest {
            tree,
            x: m.xl + rng.unit() * w,
            y: m.yl + rng.unit() * h,
        }
    }
}

/// `per_conn` requests on each of `conns` independent Poisson schedules of
/// `rate` requests per second, over trees with the given MBRs, in due
/// order. Each schedule is a Poisson process conditioned on its last
/// arrival falling at `per_conn / rate` seconds, so every seed offers the
/// same load over the same time and only the arrival pattern differs.
pub fn requests(seed: u64, conns: usize, per_conn: usize, rate: f64, mbrs: &[Rect]) -> Vec<Req> {
    let mut all = Vec::with_capacity(conns * per_conn);
    for conn in 0..conns {
        let mut rng = Rng::new(
            seed.wrapping_mul(0x1000_0000_01B3)
                .wrapping_add(conn as u64),
        );
        let mut sum = 0.0f64;
        let arrivals: Vec<f64> = (0..per_conn)
            .map(|_| {
                // Exponential gap; 1 − u is in (0, 1], so the log is finite.
                sum += -(1.0 - rng.unit()).ln();
                sum
            })
            .collect();
        let length_ns = per_conn as f64 / rate * 1e9;
        for arrival in arrivals {
            all.push(Req {
                due_ns: (arrival / sum * length_ns) as u64,
                conn,
                index: 0,
                query: query(&mut rng, mbrs),
            });
        }
    }
    all.sort_by_key(|r| (r.due_ns, r.conn));
    for (i, r) in all.iter_mut().enumerate() {
        r.index = i;
    }
    all
}

/// Time as the generator sees it; the tests drive it with a virtual clock.
pub trait Clock {
    /// Nanoseconds since the phase started.
    fn now_ns(&self) -> u64;
    /// Blocks until [`Clock::now_ns`] is at least `ns`.
    fn sleep_until(&self, ns: u64);
}

/// What the generator recorded for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The request's [`Req::index`].
    pub index: usize,
    /// Reply received − due: the latency a user waiting since the due
    /// instant saw.
    pub latency_ns: u64,
    /// Sent − due: how long the request waited for its connection (or for
    /// a late generator).
    pub wait_ns: u64,
    /// Sent − the later of due and connection free: the generator's own
    /// lateness.
    pub gen_lag_ns: u64,
    /// Whether the reply was the expected kind.
    pub ok: bool,
}

/// Sends one connection's requests in order, each when due or as soon as
/// the connection is free, and times each from its due instant.
pub fn drive<C: Clock>(clock: &C, reqs: &[Req], mut send: impl FnMut(&Req) -> bool) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(reqs.len());
    let mut free_at = 0u64;
    for r in reqs {
        if clock.now_ns() < r.due_ns {
            clock.sleep_until(r.due_ns);
        }
        let sent = clock.now_ns();
        let ok = send(r);
        let done = clock.now_ns();
        samples.push(Sample {
            index: r.index,
            latency_ns: done - r.due_ns,
            wait_ns: sent - r.due_ns,
            gen_lag_ns: sent - r.due_ns.max(free_at),
            ok,
        });
        free_at = done;
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn mbrs() -> Vec<Rect> {
        vec![
            Rect::new(0.0, 0.0, 100.0, 100.0),
            Rect::new(1.0, 2.0, 99.0, 98.0),
        ]
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let a = requests(7, 2, 300, 200.0, &mbrs());
        assert_eq!(a, requests(7, 2, 300, 200.0, &mbrs()));
        let b = requests(8, 2, 300, 200.0, &mbrs());
        assert_ne!(a, b);
        assert_eq!(a.len(), 600);
    }

    #[test]
    fn schedule_is_in_due_order_at_the_asked_rate_and_mix() {
        let reqs = requests(1996, 2, 4000, 200.0, &mbrs());
        assert!(reqs.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(reqs.iter().enumerate().all(|(i, r)| r.index == i));
        // 4000 requests per connection at 200/s: the last is due at 20 s,
        // and the gaps in between are far from even.
        assert_eq!(reqs.last().unwrap().due_ns, 20_000_000_000);
        let gaps: Vec<u64> = reqs.windows(2).map(|w| w[1].due_ns - w[0].due_ns).collect();
        assert!(*gaps.iter().max().unwrap() > 4 * 2_500_000);
        assert!(gaps.iter().filter(|g| **g < 1_250_000).count() > 2000);
        let windows = reqs
            .iter()
            .filter(|r| matches!(r.query, Query::Window { .. }))
            .count() as f64;
        assert!((0.67..0.73).contains(&(windows / 8000.0)));
        for r in &reqs {
            if let Query::Window { tree, rect } = r.query {
                let m = mbrs()[tree as usize];
                assert!(rect.xl >= m.xl && rect.xu <= m.xu && rect.yl >= m.yl && rect.yu <= m.yu);
            }
        }
    }

    /// A clock that only moves when someone sleeps or a send "takes time".
    struct Virtual(Cell<u64>);

    impl Clock for Virtual {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    #[test]
    fn a_busy_connection_is_charged_to_the_requests_it_delays() {
        let q = Query::Nearest {
            tree: 0,
            x: 1.0,
            y: 1.0,
        };
        let req = |index: usize, due_ns: u64| Req {
            due_ns,
            conn: 0,
            index,
            query: q,
        };
        // Due at 0, 10, 20 and 100; the first reply takes 35, the rest 5.
        let reqs = [req(0, 0), req(1, 10), req(2, 20), req(3, 100)];
        let clock = Virtual(Cell::new(0));
        let samples = drive(&clock, &reqs, |r| {
            let service = if r.index == 0 { 35 } else { 5 };
            clock.0.set(clock.0.get() + service);
            true
        });
        // Request 1 was due at 10 but its connection was busy until 35: it
        // is sent at 35, done at 40, and its latency counts from 10.
        assert_eq!(samples[0].latency_ns, 35);
        assert_eq!((samples[1].wait_ns, samples[1].latency_ns), (25, 30));
        // Request 2 queues behind it: sent at 40, done at 45, due at 20.
        assert_eq!((samples[2].wait_ns, samples[2].latency_ns), (20, 25));
        // Request 3 finds the connection free and is sent on time.
        assert_eq!((samples[3].wait_ns, samples[3].latency_ns), (0, 5));
        // Waiting for the connection is not the generator's lateness.
        assert!(samples.iter().all(|s| s.gen_lag_ns == 0 && s.ok));
    }
}
