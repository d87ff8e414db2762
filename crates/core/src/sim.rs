//! The simulated parallel executor: the paper's evaluation platform.
//!
//! Replays the three-phase parallel spatial join (task creation → task
//! assignment → parallel task execution, §3.1) on a deterministic
//! discrete-event simulation of the KSR1-style platform: `n` processors
//! with private virtual clocks, `d` FCFS disks (`page mod d` placement),
//! local or global LRU buffers, per-processor path buffers, the shared
//! dynamic task queue, and task reassignment between processors.
//!
//! ## Time model
//!
//! Processors advance their private clocks through CPU work (plane sweeps,
//! simulated refinement waits) and memory accesses; they block on disk
//! reads, which are FCFS per disk in virtual-time order. The event loop
//! executes processors in global time order; a processor yields back to the
//! loop whenever an earlier event is pending, so accesses to shared state
//! (disks, global buffer, task queue, reassignment) happen in exact virtual
//! time order and the whole simulation is reproducible bit for bit.
//!
//! ## What is charged where
//!
//! | action | cost |
//! |---|---|
//! | path-buffer hit | free (processor-local memory) |
//! | local buffer hit | [`crate::cost::CostModel::mem_local_page`] |
//! | remote (global) buffer hit | [`crate::cost::CostModel::mem_remote_page`] |
//! | global buffer access | + [`crate::cost::CostModel::global_lock`] |
//! | directory page miss | 16 ms disk read (9 + 6 + 1) |
//! | data page miss | 16 ms + cluster read (≈ 37.5 ms total) |
//! | plane sweep | per entry / per pair CPU costs |
//! | candidate refinement | 2–18 ms simulated geometry test |
//! | dynamic queue access | [`crate::cost::CostModel::task_queue_access`] |
//! | successful reassignment | [`crate::cost::CostModel::reassign_overhead`] |

use crate::assign::{static_range, static_round_robin, Assignment};
use crate::cost::Platform;
use crate::metrics::JoinMetrics;
use crate::task::{create_tasks, expand_pair, Candidate, KernelScratch, TaskPair};
use psj_buffer::{BufferStats, GlobalAccess, GlobalBuffer, LocalBuffers, PathBuffer, Policy};
use psj_desim::{EventQueue, ResourcePool};
use psj_rtree::{JoinNode, PagedTree};
use psj_store::disk::DiskStats;
use psj_store::{Nanos, PageId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Buffer organization (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferOrg {
    /// One private LRU buffer per processor.
    Local,
    /// One global LRU buffer spanning all processors (shared virtual
    /// memory); a page resides at most once.
    Global,
}

/// Task reassignment policy (paper §3.4 / §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reassignment {
    /// No reassignment: idle processors stay idle.
    None,
    /// Reassignment of unstarted tasks only (pairs at the root level).
    RootLevel,
    /// Reassignment of pairs on all levels of the R\*-tree directories.
    AllLevels,
}

/// How the idle processor picks whom to help (paper §4.4, Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VictimSelection {
    /// The processor with the highest reported `(hl, ns)` load.
    MostLoaded,
    /// A uniformly random processor among those with stealable work
    /// (the Shatdal/Naughton proposal).
    Arbitrary,
}

/// Configuration of one simulated join run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of processors `n`.
    pub num_procs: usize,
    /// Number of disks `d`.
    pub num_disks: usize,
    /// Total LRU buffer capacity in pages (split evenly for local buffers;
    /// one shared pool for the global buffer).
    pub buffer_pages_total: usize,
    /// Buffer organization.
    pub buffer_org: BufferOrg,
    /// Task assignment strategy.
    pub assignment: Assignment,
    /// Task reassignment policy.
    pub reassignment: Reassignment,
    /// Victim selection for reassignment.
    pub victim: VictimSelection,
    /// Disk and CPU/memory cost model.
    pub platform: Platform,
    /// Phase 1 descends the trees until at least `min_tasks_factor × n`
    /// tasks exist (the paper's "m much larger than n" requirement).
    pub min_tasks_factor: usize,
    /// Minimum number of stealable pairs a victim must hold at the chosen
    /// level for a reassignment to be worth its overhead.
    pub min_steal: usize,
    /// Seed for the arbitrary victim selection.
    pub seed: u64,
    /// When set, the run returns the candidate `(oid, oid)` pairs for
    /// cross-checking against the sequential join.
    pub collect_candidates: bool,
    /// Page replacement policy of the LRU/FIFO/CLOCK buffers (ablation; the
    /// paper uses LRU).
    pub policy: Policy,
    /// Ablation switch: consult the per-processor path buffers (paper: on).
    pub use_path_buffer: bool,
    /// Ablation switch: apply the [BKS 93] search-space restriction
    /// (paper: on). When off, node pairs sweep their full entry lists.
    pub use_restriction: bool,
}

impl SimConfig {
    /// The paper's best variant: global buffer, dynamic assignment,
    /// reassignment on all levels, most-loaded victim.
    pub fn best(num_procs: usize, num_disks: usize, buffer_pages_total: usize) -> Self {
        SimConfig {
            num_procs,
            num_disks,
            buffer_pages_total,
            buffer_org: BufferOrg::Global,
            assignment: Assignment::Dynamic,
            reassignment: Reassignment::AllLevels,
            victim: VictimSelection::MostLoaded,
            platform: Platform::paper(num_disks),
            min_tasks_factor: 4,
            min_steal: 2,
            seed: 0,
            collect_candidates: false,
            policy: Policy::Lru,
            use_path_buffer: true,
            use_restriction: true,
        }
    }

    /// The `lsr` variant: local buffers + static range assignment.
    pub fn lsr(num_procs: usize, num_disks: usize, buffer_pages_total: usize) -> Self {
        SimConfig {
            buffer_org: BufferOrg::Local,
            assignment: Assignment::StaticRange,
            reassignment: Reassignment::RootLevel,
            ..Self::best(num_procs, num_disks, buffer_pages_total)
        }
    }

    /// The `gsrr` variant: global buffer + static round-robin assignment.
    pub fn gsrr(num_procs: usize, num_disks: usize, buffer_pages_total: usize) -> Self {
        SimConfig {
            buffer_org: BufferOrg::Global,
            assignment: Assignment::StaticRoundRobin,
            reassignment: Reassignment::RootLevel,
            ..Self::best(num_procs, num_disks, buffer_pages_total)
        }
    }

    /// The `gd` variant: global buffer + dynamic task assignment.
    pub fn gd(num_procs: usize, num_disks: usize, buffer_pages_total: usize) -> Self {
        SimConfig {
            buffer_org: BufferOrg::Global,
            assignment: Assignment::Dynamic,
            reassignment: Reassignment::RootLevel,
            ..Self::best(num_procs, num_disks, buffer_pages_total)
        }
    }
}

/// Result of a simulated run: the metrics plus (optionally) the candidates.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Collected metrics.
    pub metrics: JoinMetrics,
    /// Candidate pairs, present when `collect_candidates` was set.
    pub candidates: Option<Vec<(u64, u64)>>,
}

/// Runs one simulated parallel join.
pub fn run_sim_join(a: &PagedTree, b: &PagedTree, cfg: &SimConfig) -> SimResult {
    Executor::new(a, b, cfg).run()
}

// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// The page of tree A must still be acquired.
    NeedA,
    /// The A page was acquired (or will be, at the scheduled resume time);
    /// next acquire B.
    NeedB,
    /// Both pages acquired once the processor resumes; process the pair.
    Process,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Resume(usize),
}

struct Proc {
    /// Unstarted tasks assigned by a static strategy (plane-sweep order).
    workload: VecDeque<TaskPair>,
    /// Depth-first stack of pending pairs (top = next in sweep order).
    stack: Vec<TaskPair>,
    /// The pair currently being worked on, with its progress stage.
    pending: Option<(TaskPair, Stage)>,
    /// A page fetch this processor must install into the buffer on resume.
    fetch_done: Option<PageId>,
    paths: [PathBuffer; 2],
    parked_since: Option<Nanos>,
    idle_total: Nanos,
    idle_before_last_work: Nanos,
    last_work_end: Nanos,
    parked_version: u64,
    buddy: Option<usize>,
}

enum Buffers {
    Local(LocalBuffers),
    Global(GlobalBuffer),
}

enum PageOutcome {
    /// Page available; the clock was already advanced by the access cost.
    Acquired,
    /// Processor must block; resume at the given time, at which point the
    /// page counts as acquired.
    Blocked(Nanos),
}

struct Executor<'t> {
    a: &'t PagedTree,
    b: &'t PagedTree,
    cfg: SimConfig,
    b_offset: u32,
    disks: ResourcePool,
    disk_stats: DiskStats,
    buffers: Buffers,
    /// Completion time of in-flight reads (global buffer only), by unified
    /// page id.
    in_flight_done: HashMap<PageId, Nanos>,
    events: EventQueue<Ev>,
    procs: Vec<Proc>,
    shared_queue: VecDeque<TaskPair>,
    scratch: KernelScratch,
    child_buf: Vec<TaskPair>,
    cand_buf: Vec<Candidate>,
    rng: StdRng,
    /// Incremented whenever stealable work may have appeared.
    work_version: u64,
    tasks_created: usize,
    candidates: u64,
    dir_reads: u64,
    data_reads: u64,
    reassignments: u64,
    steals_failed: u64,
    collected: Vec<(u64, u64)>,
}

impl<'t> Executor<'t> {
    fn new(a: &'t PagedTree, b: &'t PagedTree, cfg: &SimConfig) -> Self {
        assert!(cfg.num_procs > 0, "need at least one processor");
        let n = cfg.num_procs;
        let buffers = match cfg.buffer_org {
            BufferOrg::Local => Buffers::Local(LocalBuffers::with_total_policy(
                n,
                cfg.buffer_pages_total,
                cfg.policy,
            )),
            BufferOrg::Global => Buffers::Global(GlobalBuffer::with_policy(
                n,
                cfg.buffer_pages_total,
                cfg.policy,
            )),
        };
        let procs = (0..n)
            .map(|_| Proc {
                workload: VecDeque::new(),
                stack: Vec::new(),
                pending: None,
                fetch_done: None,
                paths: [
                    PathBuffer::new(a.height() as usize),
                    PathBuffer::new(b.height() as usize),
                ],
                parked_since: None,
                idle_total: 0,
                idle_before_last_work: 0,
                last_work_end: 0,
                parked_version: 0,
                buddy: None,
            })
            .collect();
        Executor {
            a,
            b,
            cfg: cfg.clone(),
            b_offset: a.num_pages() as u32,
            disks: ResourcePool::new(cfg.num_disks),
            disk_stats: DiskStats::new(cfg.num_disks),
            buffers,
            in_flight_done: HashMap::new(),
            events: EventQueue::new(),
            procs,
            shared_queue: VecDeque::new(),
            scratch: KernelScratch::default(),
            child_buf: Vec::new(),
            cand_buf: Vec::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            work_version: 0,
            tasks_created: 0,
            candidates: 0,
            dir_reads: 0,
            data_reads: 0,
            reassignments: 0,
            steals_failed: 0,
            collected: Vec::new(),
        }
    }

    fn run(mut self) -> SimResult {
        // --- Phase 1: sequential task creation on processor 0. ------------
        let tc = create_tasks(
            self.a,
            self.b,
            self.cfg.min_tasks_factor * self.cfg.num_procs,
        );
        self.tasks_created = tc.tasks.len();
        let mut now: Nanos = 0;
        for &p in &tc.pages_a {
            now = self.charge_page_sync(0, 0, p, now);
        }
        for &p in &tc.pages_b {
            now = self.charge_page_sync(0, 1, p, now);
        }
        self.procs[0].last_work_end = now;
        let phase1_end = now;

        // --- Phase 2: task assignment. -------------------------------------
        match self.cfg.assignment {
            Assignment::StaticRange => {
                for (p, w) in static_range(&tc.tasks, self.cfg.num_procs)
                    .into_iter()
                    .enumerate()
                {
                    self.procs[p].workload = w.into();
                }
            }
            Assignment::StaticRoundRobin => {
                for (p, w) in static_round_robin(&tc.tasks, self.cfg.num_procs)
                    .into_iter()
                    .enumerate()
                {
                    self.procs[p].workload = w.into();
                }
            }
            Assignment::Dynamic => {
                self.shared_queue = tc.tasks.iter().copied().collect();
            }
        }

        // --- Phase 3: parallel task execution. ------------------------------
        for p in 0..self.cfg.num_procs {
            self.events.schedule(phase1_end, Ev::Resume(p));
        }
        while let Some((t, Ev::Resume(p))) = self.events.pop() {
            self.run_proc(p, t);
            self.wake_parked_if_work(t);
        }

        // --- Collect metrics. ------------------------------------------------
        let buffer: BufferStats = match &self.buffers {
            Buffers::Local(l) => l.total_stats(),
            Buffers::Global(g) => g.total_stats(),
        };
        let proc_finish: Vec<Nanos> = self.procs.iter().map(|p| p.last_work_end).collect();
        let proc_busy: Vec<Nanos> = self
            .procs
            .iter()
            .map(|p| p.last_work_end.saturating_sub(p.idle_before_last_work))
            .collect();
        let response_time = proc_finish.iter().copied().max().unwrap_or(0);
        let metrics = JoinMetrics {
            num_procs: self.cfg.num_procs,
            num_disks: self.cfg.num_disks,
            tasks: self.tasks_created,
            response_time,
            proc_finish,
            proc_busy,
            disk_accesses: self.disk_stats.total_reads(),
            dir_page_reads: self.dir_reads,
            data_page_reads: self.data_reads,
            buffer,
            candidates: self.candidates,
            reassignments: self.reassignments,
            steals_failed: self.steals_failed,
        };
        SimResult {
            metrics,
            candidates: if self.cfg.collect_candidates {
                Some(self.collected)
            } else {
                None
            },
        }
    }

    /// Runs processor `p` from time `t` until it blocks, parks or yields.
    fn run_proc(&mut self, p: usize, t: Nanos) {
        let mut now = t;
        // Waking from a parked state: account the idle interval.
        if let Some(since) = self.procs[p].parked_since.take() {
            self.procs[p].idle_total += now.saturating_sub(since);
        }
        // A pending fetch completes exactly at this resume.
        if let Some(upid) = self.procs[p].fetch_done.take() {
            if let Buffers::Global(g) = &mut self.buffers {
                g.complete_read(p, upid);
            } else if let Buffers::Local(l) = &mut self.buffers {
                l.load(p, upid);
            }
            self.in_flight_done.remove(&upid);
        }

        loop {
            // Yield while an earlier event is pending so shared-state
            // interactions happen in exact virtual-time order.
            if self.events.peek_time().is_some_and(|pt| pt < now) {
                self.events.schedule(now, Ev::Resume(p));
                return;
            }

            if let Some((pair, stage)) = self.procs[p].pending.take() {
                match stage {
                    Stage::NeedA => {
                        match self.access_page(p, 0, pair.a, pair.la as usize, &mut now) {
                            PageOutcome::Acquired => {
                                self.procs[p].pending = Some((pair, Stage::NeedB));
                            }
                            PageOutcome::Blocked(at) => {
                                self.procs[p].pending = Some((pair, Stage::NeedB));
                                self.events.schedule(at, Ev::Resume(p));
                                return;
                            }
                        }
                    }
                    Stage::NeedB => {
                        match self.access_page(p, 1, pair.b, pair.lb as usize, &mut now) {
                            PageOutcome::Acquired => {
                                self.procs[p].pending = Some((pair, Stage::Process));
                            }
                            PageOutcome::Blocked(at) => {
                                self.procs[p].pending = Some((pair, Stage::Process));
                                self.events.schedule(at, Ev::Resume(p));
                                return;
                            }
                        }
                    }
                    Stage::Process => {
                        self.process_pair(p, &pair, &mut now);
                        self.procs[p].idle_before_last_work = self.procs[p].idle_total;
                        self.procs[p].last_work_end = now;
                    }
                }
                continue;
            }

            // Acquire the next work item.
            if let Some(pair) = self.procs[p].stack.pop() {
                self.procs[p].pending = Some((pair, Stage::NeedA));
                continue;
            }
            if let Some(task) = self.procs[p].workload.pop_front() {
                self.procs[p].stack.push(task);
                continue;
            }
            if self.cfg.assignment == Assignment::Dynamic && !self.shared_queue.is_empty() {
                now += self.cfg.platform.cost.task_queue_access;
                if let Some(task) = self.shared_queue.pop_front() {
                    self.procs[p].stack.push(task);
                    continue;
                }
            }
            if self.cfg.reassignment != Reassignment::None && self.try_steal(p, &mut now) {
                continue;
            }
            // Nothing to do: park.
            self.procs[p].parked_since = Some(now);
            self.procs[p].parked_version = self.work_version;
            return;
        }
    }

    /// Wakes parked processors when stealable work (or queued tasks) exist
    /// and the work state changed since they parked.
    fn wake_parked_if_work(&mut self, t: Nanos) {
        if self.cfg.reassignment == Reassignment::None && self.shared_queue.is_empty() {
            return;
        }
        let version = self.work_version;
        let any_work = !self.shared_queue.is_empty()
            || (0..self.procs.len()).any(|v| self.stealable_load(v).is_some());
        if !any_work {
            return;
        }
        for p in 0..self.procs.len() {
            if self.procs[p].parked_since.is_some() && self.procs[p].parked_version < version {
                self.procs[p].parked_version = version;
                self.events.schedule(t, Ev::Resume(p));
            }
        }
    }

    /// Synchronous page charge used by phase 1 (no contention yet).
    fn charge_page_sync(&mut self, p: usize, tree: u8, page: PageId, mut now: Nanos) -> Nanos {
        match self.access_page(p, tree, page, self.level_of(tree, page), &mut now) {
            PageOutcome::Acquired => now,
            PageOutcome::Blocked(at) => {
                // Complete the fetch immediately (sequential phase).
                if let Some(upid) = self.procs[p].fetch_done.take() {
                    match &mut self.buffers {
                        Buffers::Global(g) => g.complete_read(p, upid),
                        Buffers::Local(l) => l.load(p, upid),
                    }
                    self.in_flight_done.remove(&upid);
                }
                at
            }
        }
    }

    fn level_of(&self, tree: u8, page: PageId) -> usize {
        let t = if tree == 0 { self.a } else { self.b };
        t.frame(page).level() as usize
    }

    /// Unified page id across both trees (for disk placement and buffers).
    fn upid(&self, tree: u8, page: PageId) -> PageId {
        if tree == 0 {
            page
        } else {
            PageId(page.0 + self.b_offset)
        }
    }

    /// Disk service time of reading this page (data pages drag their
    /// geometry cluster along).
    fn service_time(&self, tree: u8, page: PageId) -> Nanos {
        let disk = &self.cfg.platform.disk;
        if self.level_of(tree, page) == 0 {
            let bytes = if tree == 0 {
                self.a.clusters().bytes_of(page)
            } else {
                self.b.clusters().bytes_of(page)
            };
            disk.data_page_read_time(bytes)
        } else {
            disk.page_read_time()
        }
    }

    /// One page access through path buffer → LRU buffer → disk.
    fn access_page(
        &mut self,
        p: usize,
        tree: u8,
        page: PageId,
        level: usize,
        now: &mut Nanos,
    ) -> PageOutcome {
        // Path buffer first: free, local to the processor.
        if self.cfg.use_path_buffer && self.procs[p].paths[tree as usize].access(level, page) {
            match &mut self.buffers {
                Buffers::Local(l) => l.record_path_hit(p),
                Buffers::Global(g) => g.record_path_hit(p),
            }
            return PageOutcome::Acquired;
        }

        let upid = self.upid(tree, page);
        let mem_local = self.cfg.platform.cost.mem_local_page;
        let mem_remote = self.cfg.platform.cost.mem_remote_page;
        let lock = self.cfg.platform.cost.global_lock;
        enum Outcome {
            HitLocal,
            HitRemote,
            WaitInFlight,
            Miss,
        }
        let outcome = match &mut self.buffers {
            Buffers::Local(l) => {
                if l.access(p, upid) {
                    Outcome::HitLocal
                } else {
                    // Private buffers: always read from disk yourself.
                    Outcome::Miss
                }
            }
            Buffers::Global(g) => {
                *now += lock;
                match g.access(p, upid) {
                    GlobalAccess::HitLocal => Outcome::HitLocal,
                    GlobalAccess::HitRemote { .. } => Outcome::HitRemote,
                    GlobalAccess::InFlight { .. } => Outcome::WaitInFlight,
                    GlobalAccess::Miss => Outcome::Miss,
                }
            }
        };
        match outcome {
            Outcome::HitLocal => {
                *now += mem_local;
                PageOutcome::Acquired
            }
            Outcome::HitRemote => {
                *now += mem_remote;
                PageOutcome::Acquired
            }
            Outcome::WaitInFlight => {
                let done = *self
                    .in_flight_done
                    .get(&upid)
                    .expect("in-flight read must have a completion time");
                // Wait for the other processor's read, then pull the page
                // over the interconnect.
                PageOutcome::Blocked(done.max(*now) + mem_remote)
            }
            Outcome::Miss => {
                let service = self.service_time(tree, page);
                self.count_read(tree, page);
                let disk = upid.index() % self.cfg.num_disks;
                let done = self.disks.request(disk, *now, service);
                self.disk_stats.record(disk, service);
                if matches!(self.buffers, Buffers::Global(_)) {
                    self.in_flight_done.insert(upid, done);
                }
                self.procs[p].fetch_done = Some(upid);
                PageOutcome::Blocked(done)
            }
        }
    }

    fn count_read(&mut self, tree: u8, page: PageId) {
        if self.level_of(tree, page) == 0 {
            self.data_reads += 1;
        } else {
            self.dir_reads += 1;
        }
    }

    /// Executes the kernel on a pair whose pages are in memory.
    fn process_pair(&mut self, p: usize, pair: &TaskPair, now: &mut Nanos) {
        let (a, b) = (self.a, self.b);
        let (na, nb) = (a.frame(pair.a), b.frame(pair.b));
        self.child_buf.clear();
        self.cand_buf.clear();
        let pair = if self.cfg.use_restriction {
            *pair
        } else {
            // Ablation: drop the search-space restriction.
            TaskPair {
                window: psj_geom::Rect::new(
                    f64::NEG_INFINITY,
                    f64::NEG_INFINITY,
                    f64::INFINITY,
                    f64::INFINITY,
                ),
                ..*pair
            }
        };
        let pair = &pair;
        let work = expand_pair(
            &na,
            &nb,
            pair,
            &mut self.scratch,
            &mut self.child_buf,
            &mut self.cand_buf,
        );
        let cost = &self.cfg.platform.cost;
        *now += cost.sweep_time(work.entries, work.pairs);

        if !self.child_buf.is_empty() {
            // Depth-first in sweep order: push in reverse.
            let proc = &mut self.procs[p];
            proc.stack.extend(self.child_buf.drain(..).rev());
            self.work_version += 1;
        }
        for c in &self.cand_buf {
            let (fa, fb) = (a.frame(c.page_a), b.frame(c.page_b));
            let (ia, ib) = (c.idx_a as usize, c.idx_b as usize);
            *now += cost.refinement_time(&fa.lanes().rect(ia), &fb.lanes().rect(ib));
            self.candidates += 1;
            if self.cfg.collect_candidates {
                self.collected.push((fa.oid(ia), fb.oid(ib)));
            }
        }
    }

    /// Load report of processor `v`: highest level with unprocessed pairs
    /// and their count at that level (the paper's `(hl, ns)`), restricted to
    /// what the reassignment policy allows. `None` when nothing is stealable.
    fn stealable_load(&self, v: usize) -> Option<(u8, usize)> {
        let proc = &self.procs[v];
        if !proc.workload.is_empty() {
            let hl = proc.workload.iter().map(|t| t.level()).max().unwrap();
            let ns = proc.workload.iter().filter(|t| t.level() == hl).count();
            if ns >= self.cfg.min_steal.max(1) {
                return Some((hl, ns));
            }
        }
        if self.cfg.reassignment == Reassignment::AllLevels && !proc.stack.is_empty() {
            let hl = proc.stack.iter().map(|t| t.level()).max().unwrap();
            let ns = proc.stack.iter().filter(|t| t.level() == hl).count();
            if ns >= self.cfg.min_steal.max(1) {
                return Some((hl, ns));
            }
        }
        None
    }

    /// Attempts one task reassignment to idle processor `p`.
    fn try_steal(&mut self, p: usize, now: &mut Nanos) -> bool {
        // Prefer the buddy ("help is given again to its 'buddy'").
        let victim = match self.procs[p].buddy {
            Some(b) if b != p && self.stealable_load(b).is_some() => Some(b),
            _ => {
                self.procs[p].buddy = None;
                self.pick_victim(p)
            }
        };
        let Some(v) = victim else {
            self.steals_failed += 1;
            return false;
        };
        let Some((hl, ns)) = self.stealable_load(v) else {
            self.steals_failed += 1;
            return false;
        };

        *now += self.cfg.platform.cost.reassign_overhead;
        let take = ns.div_ceil(2);
        let victim_proc = &mut self.procs[v];
        let mut stolen: Vec<TaskPair> = Vec::with_capacity(take);
        if !victim_proc.workload.is_empty() {
            // Steal the back half of the unstarted workload (latest in
            // plane-sweep order).
            for _ in 0..take {
                if let Some(t) = victim_proc.workload.pop_back() {
                    stolen.push(t);
                }
            }
            stolen.reverse(); // keep plane-sweep order for the thief
        } else {
            // Steal pairs at the highest level from the *bottom* of the
            // victim's stack — the ones farthest in sweep order.
            let mut taken = 0usize;
            let mut kept = Vec::with_capacity(victim_proc.stack.len());
            for item in std::mem::take(&mut victim_proc.stack) {
                if taken < take && item.level() == hl {
                    stolen.push(item);
                    taken += 1;
                } else {
                    kept.push(item);
                }
            }
            victim_proc.stack = kept;
        }
        debug_assert!(!stolen.is_empty());
        // The thief executes the stolen pairs as a fresh workload.
        self.procs[p].workload.extend(stolen);
        self.procs[p].buddy = Some(v);
        self.procs[v].buddy = Some(p);
        self.reassignments += 1;
        self.work_version += 1;
        true
    }

    fn pick_victim(&mut self, p: usize) -> Option<usize> {
        let candidates: Vec<(usize, (u8, usize))> = (0..self.procs.len())
            .filter(|&v| v != p)
            .filter_map(|v| self.stealable_load(v).map(|l| (v, l)))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        match self.cfg.victim {
            VictimSelection::MostLoaded => candidates
                .into_iter()
                .max_by_key(|&(v, (hl, ns))| (hl, ns, usize::MAX - v))
                .map(|(v, _)| v),
            VictimSelection::Arbitrary => {
                let i = self.rng.random_range(0..candidates.len());
                Some(candidates[i].0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::join_candidates;
    use psj_geom::Rect;
    use psj_rtree::RTree;
    use std::collections::BTreeSet;

    fn tree(n: usize, offset: f64) -> PagedTree {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 30) as f64 + offset;
            let y = (i / 30) as f64 + offset;
            t.insert(Rect::new(x, y, x + 1.1, y + 1.1), i as u64);
        }
        PagedTree::freeze(&t, |_| None)
    }

    fn all_variants(n: usize) -> Vec<SimConfig> {
        let mut v = vec![
            SimConfig::lsr(n, n, 64),
            SimConfig::gsrr(n, n, 64),
            SimConfig::gd(n, n, 64),
            SimConfig::best(n, n, 64),
        ];
        for c in &mut v {
            c.collect_candidates = true;
        }
        // Extra coverage: no reassignment, arbitrary victim.
        let mut none = SimConfig::lsr(n, n, 64);
        none.reassignment = Reassignment::None;
        none.collect_candidates = true;
        v.push(none);
        let mut arb = SimConfig::best(n, n, 64);
        arb.victim = VictimSelection::Arbitrary;
        arb.collect_candidates = true;
        v.push(arb);
        v
    }

    fn as_set(v: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
        v.iter().copied().collect()
    }

    #[test]
    fn all_variants_match_sequential_join() {
        let a = tree(700, 0.0);
        let b = tree(700, 0.4);
        let want = as_set(&join_candidates(&a, &b).candidates);
        assert!(!want.is_empty());
        for cfg in all_variants(4) {
            let res = run_sim_join(&a, &b, &cfg);
            let got = as_set(res.candidates.as_ref().unwrap());
            assert_eq!(
                got, want,
                "variant {:?}/{:?}/{:?}",
                cfg.buffer_org, cfg.assignment, cfg.reassignment
            );
            assert_eq!(
                res.metrics.candidates as usize,
                res.candidates.unwrap().len()
            );
        }
    }

    #[test]
    fn single_processor_works() {
        let a = tree(400, 0.0);
        let b = tree(400, 0.4);
        let mut cfg = SimConfig::best(1, 1, 32);
        cfg.collect_candidates = true;
        let res = run_sim_join(&a, &b, &cfg);
        assert_eq!(
            as_set(res.candidates.as_ref().unwrap()),
            as_set(&join_candidates(&a, &b).candidates)
        );
        assert!(res.metrics.response_time > 0);
        assert_eq!(res.metrics.proc_finish.len(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = tree(500, 0.0);
        let b = tree(500, 0.3);
        let cfg = SimConfig::best(6, 6, 48);
        let r1 = run_sim_join(&a, &b, &cfg);
        let r2 = run_sim_join(&a, &b, &cfg);
        assert_eq!(r1.metrics.response_time, r2.metrics.response_time);
        assert_eq!(r1.metrics.disk_accesses, r2.metrics.disk_accesses);
        assert_eq!(r1.metrics.proc_finish, r2.metrics.proc_finish);
    }

    #[test]
    fn more_processors_do_not_increase_response_time_with_enough_disks() {
        let a = tree(900, 0.0);
        let b = tree(900, 0.4);
        let r1 = run_sim_join(&a, &b, &SimConfig::best(1, 1, 400)).metrics;
        let r8 = run_sim_join(&a, &b, &SimConfig::best(8, 8, 400)).metrics;
        assert!(
            r8.response_time < r1.response_time,
            "8 procs ({}) not faster than 1 ({})",
            r8.response_time,
            r1.response_time
        );
        // Speed-up must be substantial (> 2×) on this embarrassingly
        // parallel workload.
        assert!(r1.response_time as f64 / r8.response_time as f64 > 2.0);
    }

    #[test]
    fn single_disk_is_a_bottleneck() {
        let a = tree(900, 0.0);
        let b = tree(900, 0.4);
        let small_buf = 16; // force heavy disk traffic
        let d1 = run_sim_join(&a, &b, &SimConfig::best(8, 1, small_buf)).metrics;
        let d8 = run_sim_join(&a, &b, &SimConfig::best(8, 8, small_buf)).metrics;
        assert!(
            d8.response_time < d1.response_time,
            "8 disks ({}) not faster than 1 disk ({})",
            d8.response_time,
            d1.response_time
        );
    }

    #[test]
    fn global_buffer_reads_fewer_pages_than_local() {
        let a = tree(900, 0.0);
        let b = tree(900, 0.4);
        let lsr = run_sim_join(&a, &b, &SimConfig::lsr(8, 8, 128)).metrics;
        let gd = run_sim_join(&a, &b, &SimConfig::gd(8, 8, 128)).metrics;
        assert!(
            gd.disk_accesses <= lsr.disk_accesses,
            "gd {} > lsr {}",
            gd.disk_accesses,
            lsr.disk_accesses
        );
    }

    #[test]
    fn reassignment_reduces_finish_spread() {
        let a = tree(900, 0.0);
        let b = tree(900, 0.4);
        let mut without = SimConfig::lsr(8, 8, 128);
        without.reassignment = Reassignment::None;
        let with_all = SimConfig {
            reassignment: Reassignment::AllLevels,
            ..without.clone()
        };
        let m0 = run_sim_join(&a, &b, &without).metrics;
        let m2 = run_sim_join(&a, &b, &with_all).metrics;
        let spread0 = m0.max_finish_secs() - m0.min_finish_secs();
        let spread2 = m2.max_finish_secs() - m2.min_finish_secs();
        assert!(m2.reassignments > 0, "no reassignment happened");
        assert!(
            spread2 <= spread0 + 1e-9,
            "reassignment widened the spread: {spread2} vs {spread0}"
        );
        assert!(m2.response_time <= m0.response_time);
    }

    #[test]
    fn disk_accesses_equal_buffer_misses() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        for cfg in all_variants(4) {
            let m = run_sim_join(&a, &b, &cfg).metrics;
            assert_eq!(m.disk_accesses, m.buffer.misses, "{:?}", cfg.buffer_org);
            assert_eq!(m.disk_accesses, m.dir_page_reads + m.data_page_reads);
        }
    }

    #[test]
    fn empty_join() {
        let a = tree(50, 0.0);
        let b = tree(50, 10_000.0);
        let mut cfg = SimConfig::best(4, 4, 32);
        cfg.collect_candidates = true;
        let res = run_sim_join(&a, &b, &cfg);
        assert_eq!(res.metrics.candidates, 0);
        assert!(res.candidates.unwrap().is_empty());
    }

    #[test]
    fn more_processors_than_tasks_terminates() {
        // Tiny trees: few tasks, many processors — idle processors must park
        // cleanly and the join must still be complete and correct.
        let a = tree(60, 0.0);
        let b = tree(60, 0.4);
        let want = as_set(&join_candidates(&a, &b).candidates);
        for assignment in [
            Assignment::StaticRange,
            Assignment::StaticRoundRobin,
            Assignment::Dynamic,
        ] {
            let mut cfg = SimConfig::best(16, 4, 64);
            cfg.assignment = assignment;
            cfg.collect_candidates = true;
            let res = run_sim_join(&a, &b, &cfg);
            assert_eq!(
                as_set(res.candidates.as_ref().unwrap()),
                want,
                "{assignment:?}"
            );
        }
    }

    #[test]
    fn min_tasks_factor_descends_the_trees() {
        // Height-3 trees so there is a directory level to descend into.
        let a = tree(4000, 0.0);
        let b = tree(4000, 0.4);
        assert!(a.height() >= 3);
        let coarse = SimConfig {
            min_tasks_factor: 1,
            ..SimConfig::best(2, 2, 64)
        };
        let fine = SimConfig {
            min_tasks_factor: 64,
            ..SimConfig::best(2, 2, 64)
        };
        let mc = run_sim_join(&a, &b, &coarse).metrics;
        let mf = run_sim_join(&a, &b, &fine).metrics;
        assert!(mf.tasks > mc.tasks, "{} !> {}", mf.tasks, mc.tasks);
        assert_eq!(
            mc.candidates, mf.candidates,
            "task granularity must not change the result"
        );
    }

    #[test]
    fn arbitrary_victim_seed_changes_schedule_not_result() {
        let a = tree(700, 0.0);
        let b = tree(700, 0.4);
        let mk = |seed| SimConfig {
            victim: VictimSelection::Arbitrary,
            seed,
            collect_candidates: true,
            ..SimConfig::lsr(8, 8, 64)
        };
        let r1 = run_sim_join(&a, &b, &mk(1));
        let r2 = run_sim_join(&a, &b, &mk(2));
        assert_eq!(
            as_set(r1.candidates.as_ref().unwrap()),
            as_set(r2.candidates.as_ref().unwrap())
        );
    }

    #[test]
    fn path_buffer_absorbs_repeat_accesses() {
        let a = tree(900, 0.0);
        let b = tree(900, 0.4);
        let with = run_sim_join(&a, &b, &SimConfig::best(4, 4, 64)).metrics;
        let without = run_sim_join(
            &a,
            &b,
            &SimConfig {
                use_path_buffer: false,
                ..SimConfig::best(4, 4, 64)
            },
        )
        .metrics;
        assert!(with.buffer.hits_path > 0);
        assert_eq!(without.buffer.hits_path, 0);
        assert_eq!(with.candidates, without.candidates);
        // Everything the path buffer absorbed shows up as buffer requests.
        assert!(without.buffer.requests() > with.buffer.requests());
    }

    #[test]
    fn larger_buffer_never_reads_more() {
        let a = tree(900, 0.0);
        let b = tree(900, 0.4);
        let small = run_sim_join(&a, &b, &SimConfig::gd(8, 8, 32)).metrics;
        let large = run_sim_join(&a, &b, &SimConfig::gd(8, 8, 1024)).metrics;
        assert!(large.disk_accesses <= small.disk_accesses);
    }
}
