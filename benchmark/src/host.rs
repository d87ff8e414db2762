//! What the benchmark reads from the host — process CPU time, peak memory,
//! core count, the hypervisor's steal counter — and the idle spinners that
//! keep a mostly idle workload's cores from halting.

use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPUTIME: i32 = 2;

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const THREAD_CPUTIME: i32 = 3;

/// Linux `SCHED_IDLE`: runs only when nothing else wants the core.
const SCHED_IDLE: i32 = 5;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is one of the two constants
    // above; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the [`IdleSpinners`] have burnt so far, nanoseconds.
static SPUN_NS: AtomicU64 = AtomicU64::new(0);

/// CPU time consumed by the threads of this process so far, the idle
/// spinners aside, in nanoseconds. Nanosecond resolution, unlike the 10 ms
/// tick of `/proc/self/stat`.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(PROCESS_CPUTIME).saturating_sub(SPUN_NS.load(Ordering::Relaxed))
}

/// One `SCHED_IDLE` thread per core that spins on `PAUSE` while it lives.
///
/// A workload that leaves the cores idle most of the time pays, for every
/// wake-up, what the hypervisor charges to start a halted virtual CPU — a
/// cost that is not the program's and that moved `serve_mix`'s CPU time per
/// request between 0.13 and 0.25 ms from run to run. The spinners keep the
/// virtual CPUs running, yield to every other thread at once (that is what
/// `SCHED_IDLE` means), and their own CPU time is taken out of
/// [`process_cpu_ns`]. Where the host refuses the scheduling class there are
/// no spinners and the workload runs as it would without them.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    /// Starts one spinner per core.
    pub fn start() -> IdleSpinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..nproc())
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: pid 0 names the calling thread, `param` is a
                    // valid `struct sched_param` that outlives the call, and
                    // the call changes nothing but this thread's class.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        return;
                    }
                    let mut published = cpu_clock_ns(THREAD_CPUTIME);
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..256 {
                            std::hint::spin_loop();
                        }
                        let now = cpu_clock_ns(THREAD_CPUTIME);
                        SPUN_NS.fetch_add(now - published, Ordering::Relaxed);
                        published = now;
                    }
                })
            })
            .collect();
        IdleSpinners { stop, threads }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner cannot panic; nothing to report.
            let _ = t.join();
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Worker threads every workload uses: `min(nproc, 4)`.
pub fn threads() -> usize {
    nproc().min(4)
}

/// Share of the host's CPU time between two [`steal_jiffies`] readings that
/// the hypervisor gave to someone else while this guest wanted a core.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}
