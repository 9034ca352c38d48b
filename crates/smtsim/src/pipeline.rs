//! The cycle-level 2-way SMT pipeline.
//!
//! Five stages are modeled each cycle — commit, issue/execute,
//! rename/dispatch, fetch — over **dynamically shared** structures (ROB,
//! IQ, LQ, SQ, IRF, FRF), as in the SecSMT configuration the paper builds
//! on. The rename stage's per-cycle classification (stalled by which full
//! structure / idle / running) feeds the paper's Fig. 15 analysis.
//!
//! Fetch is controlled by a [`PgController`]: every cycle the pipeline
//! applies the controller's fetch Priority & Gating policy, and at every
//! Hill-Climbing epoch boundary it reports the epoch's per-thread IPC back
//! to the controller.

use crate::config::SmtParams;
use crate::controllers::{EpochIpc, PgController};
use crate::policies::{FetchPriority, PgPolicy};
use mab_workloads::smt::{MemClass, SmtInstr, SmtOpKind, ThreadGen, ThreadSpec};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ring size for dependency completion lookup. A slot may only be reused
/// once no in-flight instruction can reference it, so the ring must exceed
/// the ROB depth (224) plus the maximum dependency distance (24).
const DEP_RING: usize = 512;
/// Words in the seq-indexed unissued bitset covering the ring.
const RING_WORDS: usize = DEP_RING / 64;
/// Sentinel: instruction dispatched but not yet completed.
const PENDING: u64 = u64::MAX;

/// One thread's issue scan: `(thread, cycle, budget, window, penalty)` in,
/// the unspent issue budget out. Runs use [`SmtPipeline::issue_thread`];
/// the differential tests drive a scalar reference through the same cycle
/// loop.
trait IssueScan: Fn(&mut ThreadState, u64, u32, usize, u64) -> u32 + Copy {}
impl<F: Fn(&mut ThreadState, u64, u32, usize, u64) -> u32 + Copy> IssueScan for F {}

/// Why the rename stage could not make progress in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RenameBlock {
    Rob,
    Iq,
    Lq,
    Sq,
    Rf,
}

/// Per-cycle classification of the rename stage (paper Fig. 15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RenameStats {
    /// Cycles stalled with the ROB full.
    pub stalled_rob: u64,
    /// Cycles stalled with the IQ full.
    pub stalled_iq: u64,
    /// Cycles stalled with the LQ full.
    pub stalled_lq: u64,
    /// Cycles stalled with the SQ full.
    pub stalled_sq: u64,
    /// Cycles stalled with a register file full.
    pub stalled_rf: u64,
    /// Cycles with nothing to rename (front end empty, e.g. fetch gated).
    pub idle: u64,
    /// Cycles in which at least one instruction renamed.
    pub running: u64,
}

impl RenameStats {
    /// Total cycles classified.
    pub fn total(&self) -> u64 {
        self.stalled() + self.idle + self.running
    }

    /// Cycles stalled for any reason.
    pub fn stalled(&self) -> u64 {
        self.stalled_rob + self.stalled_iq + self.stalled_lq + self.stalled_sq + self.stalled_rf
    }
}

/// Result of one SMT simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SmtStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed per thread.
    pub commits: [u64; 2],
    /// Rename-stage cycle classification.
    pub rename: RenameStats,
}

impl SmtStats {
    /// IPC of one thread.
    pub fn ipc(&self, thread: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.commits[thread] as f64 / self.cycles as f64
        }
    }

    /// Summed IPC of both threads (the paper's SMT metric, §6.4).
    pub fn sum_ipc(&self) -> f64 {
        self.ipc(0) + self.ipc(1)
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    latency: u32,
    complete_at: u64,
    issued: bool,
    is_load: bool,
    is_store: bool,
    is_branch: bool,
    mispredicted: bool,
    int_dest: bool,
    store_drain: u32,
}

/// Seed decorrelation salt for thread 1 of a 2-thread mix.
///
/// [`SmtPipeline::new`] streams thread 0 at `seed` and thread 1 at
/// `seed.wrapping_add(THREAD1_SEED_SALT)`. Trace recorders must apply the
/// same salt to reproduce the exact per-thread streams (see
/// `mab_traces::record_smt_to_file`).
pub const THREAD1_SEED_SALT: u64 = 0x5151;

/// Instruction source for one hardware thread.
///
/// The generator arm keeps the common case statically dispatched (the
/// per-fetch virtual call would show up in the pipeline's hot loop); the
/// boxed arm is how trace replay plugs in via
/// [`SmtPipeline::with_streams`].
pub enum SmtStream {
    /// The seeded workload-model generator.
    Generated(ThreadGen),
    /// Any other instruction stream, e.g. a trace-file reader.
    Boxed(Box<dyn Iterator<Item = SmtInstr>>),
}

impl SmtStream {
    #[inline]
    fn next_instr(&mut self) -> SmtInstr {
        match self {
            SmtStream::Generated(g) => g.next().expect("thread generators are infinite"),
            SmtStream::Boxed(it) => it
                .next()
                .expect("SMT instruction stream ended before the run finished"),
        }
    }
}

impl std::fmt::Debug for SmtStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmtStream::Generated(_) => f.write_str("SmtStream::Generated"),
            SmtStream::Boxed(_) => f.write_str("SmtStream::Boxed"),
        }
    }
}

struct ThreadState {
    gen: SmtStream,
    fetch_queue: VecDeque<SmtInstr>,
    fetch_blocked_until: u64,
    rob: VecDeque<Slot>,
    complete_time: Box<[u64; DEP_RING]>,
    /// Eligibility mask for the issue scan, indexed by
    /// `seq % DEP_RING`: a bit is set exactly while its slot is in the ROB
    /// and unissued (set at rename, cleared at issue; committed heads are
    /// always issued, so commit never touches it). The in-ROB seq range is
    /// at most `rob_size` (224) wide — well under [`DEP_RING`] — so ring
    /// order starting at the head's position is ROB order and every set
    /// bit belongs to a live slot.
    unissued: [u64; RING_WORDS],
    /// The producer's seq by `seq % DEP_RING`, written at rename: the issue
    /// scan gathers dependency readiness from two flat arrays (this one and
    /// `complete_time`) instead of walking ROB slots.
    dep_seqs: Box<[u64; DEP_RING]>,
    seq_next: u64,
    committed: u64,
    // Occupancy counters for this thread's entries in the shared structures.
    iq: u32,
    lq: u32,
    sq: u32,
    irf: u32,
    frf: u32,
    branches_in_rob: u32,
    sq_drain: BinaryHeap<Reverse<u64>>,
}

impl ThreadState {
    fn new(stream: SmtStream) -> Self {
        ThreadState {
            gen: stream,
            fetch_queue: VecDeque::new(),
            fetch_blocked_until: 0,
            rob: VecDeque::new(),
            complete_time: Box::new([0; DEP_RING]),
            unissued: [0; RING_WORDS],
            dep_seqs: Box::new([0; DEP_RING]),
            seq_next: DEP_RING as u64, // dependencies on "pre-history" are ready
            committed: 0,
            iq: 0,
            lq: 0,
            sq: 0,
            irf: 0,
            frf: 0,
            branches_in_rob: 0,
            sq_drain: BinaryHeap::new(),
        }
    }

    fn lsq(&self) -> u32 {
        self.lq + self.sq
    }
}

/// The 2-way SMT pipeline.
///
/// # Example
///
/// ```
/// use mab_smtsim::{config::SmtParams, controllers::StaticPgController, pipeline::SmtPipeline};
/// use mab_smtsim::policies::PgPolicy;
/// use mab_workloads::smt;
///
/// let a = smt::thread_by_name("gcc").unwrap();
/// let b = smt::thread_by_name("xz").unwrap();
/// let mut pipe = SmtPipeline::new(SmtParams::test_scale(), [a, b], 3);
/// let stats = pipe.run(Box::new(StaticPgController::new(PgPolicy::ICOUNT)), 5_000);
/// assert!(stats.commits.iter().all(|&c| c >= 5_000));
/// ```
pub struct SmtPipeline {
    params: SmtParams,
    threads: [ThreadState; 2],
    cycle: u64,
    rename: RenameStats,
    rr_last: usize,
    epoch_commits_latch: [u64; 2],
    /// Locally batched telemetry counts `[grants, gated]`, flushed to the
    /// recorder at epoch boundaries — per-cycle counter traffic would cost
    /// more than the fetch stage itself.
    probe_fetch: [u64; 2],
    /// Fetch-slot grants per thread within the current epoch, sampled into
    /// `fetch_share` occupancy tracks at each epoch boundary.
    epoch_grants: [u64; 2],
    /// Profiler enablement, latched at run start and epoch boundaries so
    /// the per-cycle stage loop never reads the global flag.
    profile_on: bool,
    /// Profiled cycles since the last flush — the per-stage call count
    /// (all four stages run every cycle, so one counter serves all).
    stage_cycles: u64,
    /// How many of those cycles were wall-clock timed (every
    /// [`STAGE_SAMPLE_PERIOD`]th).
    stage_timed: u64,
    /// Accumulated nanoseconds per stage, `[commit, issue, rename, fetch]`
    /// order, over the timed cycles only; flushed as `span::leaf` batches
    /// at epoch boundaries. Per-cycle span guards would cost more than the
    /// stages themselves.
    stage_ns: [u64; 4],
}

/// Cycles between wall-clock-timed stage samples while profiling.
const STAGE_SAMPLE_PERIOD: u64 = 256;

/// Stage categories in [`SmtPipeline::stage_ns`] order.
const STAGE_CATEGORIES: [mab_telemetry::span::Category; 4] = [
    mab_telemetry::span::Category::Commit,
    mab_telemetry::span::Category::Issue,
    mab_telemetry::span::Category::Rename,
    mab_telemetry::span::Category::Fetch,
];

impl std::fmt::Debug for SmtPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmtPipeline")
            .field("cycle", &self.cycle)
            .field(
                "commits",
                &[self.threads[0].committed, self.threads[1].committed],
            )
            .finish()
    }
}

impl SmtPipeline {
    /// Creates a pipeline running the two thread models.
    pub fn new(params: SmtParams, specs: [ThreadSpec; 2], seed: u64) -> Self {
        Self::with_streams(
            params,
            [
                SmtStream::Generated(specs[0].stream(seed)),
                SmtStream::Generated(specs[1].stream(seed.wrapping_add(THREAD1_SEED_SALT))),
            ],
        )
    }

    /// Creates a pipeline over two explicit instruction streams — how trace
    /// replay substitutes recorded files for the generators. The streams
    /// must not end before both threads reach the run's commit target (the
    /// pipeline keeps fetching down wrong paths and past a finished
    /// thread's target, so supply a margin; see
    /// `mab_experiments::traces`).
    pub fn with_streams(params: SmtParams, streams: [SmtStream; 2]) -> Self {
        let [s0, s1] = streams;
        SmtPipeline {
            params,
            threads: [ThreadState::new(s0), ThreadState::new(s1)],
            cycle: 0,
            rename: RenameStats::default(),
            rr_last: 0,
            epoch_commits_latch: [0; 2],
            probe_fetch: [0; 2],
            epoch_grants: [0; 2],
            profile_on: false,
            stage_cycles: 0,
            stage_timed: 0,
            stage_ns: [0; 4],
        }
    }

    /// Flushes the locally batched fetch-slot counts to the recorder.
    fn flush_probes(&mut self) {
        if mab_telemetry::STATIC_ENABLED {
            let [grants, gated] = std::mem::take(&mut self.probe_fetch);
            mab_telemetry::count!(SmtFetchGrant, grants);
            mab_telemetry::count!(SmtFetchGated, gated);
        }
    }

    /// Flushes the batched per-stage profiling totals as leaf spans.
    fn flush_stage_profile(&mut self) {
        if mab_telemetry::STATIC_ENABLED {
            let cycles = std::mem::take(&mut self.stage_cycles);
            let timed = std::mem::take(&mut self.stage_timed);
            for (i, cat) in STAGE_CATEGORIES.iter().enumerate() {
                let total_ns = std::mem::take(&mut self.stage_ns[i]);
                mab_telemetry::span::leaf(*cat, 0, cycles, timed, total_ns);
            }
        }
    }

    /// Runs until **both** threads have committed `commits_per_thread`
    /// instructions, driving fetch with `controller`. Returns the run's
    /// statistics; the controller can be inspected afterwards.
    pub fn run(
        &mut self,
        mut controller: Box<dyn PgController>,
        commits_per_thread: u64,
    ) -> SmtStats {
        self.run_with(controller.as_mut(), commits_per_thread)
    }

    /// Like [`SmtPipeline::run`] but borrows the controller, so the caller
    /// can read its state (e.g. the Bandit's selection history) afterwards.
    pub fn run_with(
        &mut self,
        controller: &mut dyn PgController,
        commits_per_thread: u64,
    ) -> SmtStats {
        self.run_with_scan(controller, commits_per_thread, Self::issue_thread)
    }

    /// [`SmtPipeline::run_with`] driving issue through `scan`, the
    /// per-thread issue scan.
    fn run_with_scan(
        &mut self,
        controller: &mut dyn PgController,
        commits_per_thread: u64,
        scan: impl IssueScan,
    ) -> SmtStats {
        let epoch_len = self.params.epoch_cycles.max(1);
        // Controllers only change their policy and shares inside
        // `on_epoch` (the trait reads them through `&self`), so the per-
        // cycle virtual calls are hoisted out of the loop and refreshed
        // only at epoch boundaries. A countdown replaces the per-cycle
        // divisibility check.
        let mut policy = controller.policy();
        let mut shares = [controller.share(0), controller.share(1)];
        let mut cycles_left = epoch_len;
        let start_cycle = self.cycle;
        self.profile_on = mab_telemetry::profile::enabled();
        while self.threads[0].committed < commits_per_thread
            || self.threads[1].committed < commits_per_thread
        {
            self.step(policy, shares, scan);
            cycles_left -= 1;
            if cycles_left == 0 {
                cycles_left = epoch_len;
                let mut per_thread = [0.0; 2];
                for (i, t) in self.threads.iter().enumerate() {
                    per_thread[i] =
                        (t.committed - self.epoch_commits_latch[i]) as f64 / epoch_len as f64;
                    self.epoch_commits_latch[i] = t.committed;
                }
                mab_telemetry::count!(SmtEpochs);
                mab_telemetry::record!(EpochIpc, per_thread[0] + per_thread[1]);
                // Black-box epoch summary (feature-independent): aggregate
                // IPC at each epoch boundary.
                mab_telemetry::blackbox::epoch(
                    "smt",
                    (self.cycle - start_cycle) / epoch_len,
                    self.cycle,
                    per_thread[0] + per_thread[1],
                );
                self.flush_probes();
                self.flush_stage_profile();
                self.profile_on = mab_telemetry::profile::enabled();
                // Publish the epoch-boundary cycle before the controller
                // runs, so any bandit decision it records lands at the right
                // timeline position; sample the per-thread fetch shares and
                // IPCs as occupancy tracks.
                mab_telemetry::clock!(self.cycle);
                if mab_telemetry::STATIC_ENABLED {
                    if mab_telemetry::enabled() {
                        let total = (self.epoch_grants[0] + self.epoch_grants[1]).max(1) as f64;
                        for (i, &grants) in self.epoch_grants.iter().enumerate() {
                            mab_telemetry::emit!(Occupancy {
                                track: "fetch_share",
                                id: i,
                                value: grants as f64 / total,
                                cycle: self.cycle,
                            });
                            mab_telemetry::emit!(Occupancy {
                                track: "thread_ipc",
                                id: i,
                                value: per_thread[i],
                                cycle: self.cycle,
                            });
                        }
                    }
                    self.epoch_grants = [0; 2];
                }
                {
                    mab_telemetry::span!(PolicyEval);
                    controller.on_epoch(EpochIpc { per_thread });
                }
                policy = controller.policy();
                shares = [controller.share(0), controller.share(1)];
            }
        }
        self.flush_probes();
        self.flush_stage_profile();
        mab_telemetry::count!(SimCycles, self.cycle - start_cycle);
        self.stats()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SmtStats {
        SmtStats {
            cycles: self.cycle,
            commits: [self.threads[0].committed, self.threads[1].committed],
            rename: self.rename,
        }
    }

    /// Advances one cycle under the given policy and gating shares.
    fn step(&mut self, policy: PgPolicy, shares: [f64; 2], scan: impl IssueScan) {
        self.cycle += 1;
        let cycle = self.cycle;

        // Stage 0: drain store-queue entries whose post-commit write finished.
        for t in &mut self.threads {
            while t.sq_drain.peek().is_some_and(|&Reverse(at)| at <= cycle) {
                t.sq_drain.pop();
                t.sq -= 1;
            }
        }

        if mab_telemetry::STATIC_ENABLED && self.profile_on {
            self.step_stages_profiled(cycle, policy, shares, scan);
        } else {
            self.commit_stage(cycle);
            self.issue_stage(cycle, scan);
            self.rename_stage(cycle, policy);
            self.fetch_stage(cycle, policy, shares);
        }
    }

    /// The four stages with batched profiling: exact counts every cycle,
    /// wall-clock timing only on every [`STAGE_SAMPLE_PERIOD`]th cycle —
    /// per-cycle span guards (two `Instant::now` calls each) would dwarf
    /// the stages themselves at ~360 ns/cycle.
    fn step_stages_profiled(
        &mut self,
        cycle: u64,
        policy: PgPolicy,
        shares: [f64; 2],
        scan: impl IssueScan,
    ) {
        self.stage_cycles += 1;
        if !cycle.is_multiple_of(STAGE_SAMPLE_PERIOD) {
            self.commit_stage(cycle);
            self.issue_stage(cycle, scan);
            self.rename_stage(cycle, policy);
            self.fetch_stage(cycle, policy, shares);
            return;
        }
        let t0 = std::time::Instant::now();
        self.commit_stage(cycle);
        let t1 = std::time::Instant::now();
        self.issue_stage(cycle, scan);
        let t2 = std::time::Instant::now();
        self.rename_stage(cycle, policy);
        let t3 = std::time::Instant::now();
        self.fetch_stage(cycle, policy, shares);
        let t4 = std::time::Instant::now();
        self.stage_timed += 1;
        for (ns, span) in self
            .stage_ns
            .iter_mut()
            .zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3])
        {
            *ns += span.as_nanos() as u64;
        }
    }

    fn commit_stage(&mut self, cycle: u64) {
        let mut budget = self.params.commit_width;
        let drain = self.params.store_drain_latency;
        // Alternate which thread gets first claim on commit bandwidth.
        let first = (cycle % 2) as usize;
        for off in 0..2 {
            let t = &mut self.threads[(first + off) % 2];
            while budget > 0 {
                let Some(head) = t.rob.front() else { break };
                if !head.issued || head.complete_at > cycle {
                    break;
                }
                let slot = t.rob.pop_front().expect("checked non-empty");
                budget -= 1;
                t.committed += 1;
                if slot.is_load {
                    t.lq -= 1;
                }
                if slot.is_store {
                    if slot.store_drain > 0 {
                        t.sq_drain.push(Reverse(cycle + drain as u64));
                    } else {
                        t.sq -= 1;
                    }
                }
                if slot.is_branch {
                    t.branches_in_rob -= 1;
                }
                if slot.int_dest {
                    t.irf -= 1;
                } else {
                    t.frf -= 1;
                }
            }
        }
    }

    fn issue_stage(&mut self, cycle: u64, scan: impl IssueScan) {
        let mut budget = self.params.issue_width;
        let window = self.params.scheduler_window;
        let penalty = self.params.mispredict_penalty as u64;
        let first = (cycle % 2) as usize;
        for off in 0..2 {
            if budget == 0 {
                break;
            }
            let t = &mut self.threads[(first + off) % 2];
            budget = scan(t, cycle, budget, window, penalty);
        }
    }

    /// Issue scan for one thread: candidates come straight off the
    /// seq-indexed `unissued` bitset — one `trailing_zeros` per candidate
    /// over at most [`RING_WORDS`] words — instead of walking ROB slots,
    /// and dependency readiness gathers from the flat `dep_seqs` /
    /// `complete_time` rings. Visits the unissued slots in ROB order: set
    /// bits exist only for in-ROB unissued slots, ring order from the
    /// head's position is seq order (the live range is narrower than the
    /// ring), and issuing cannot flip a later candidate's readiness within
    /// the cycle because every latency is ≥ 1 (`PENDING` before issue,
    /// `cycle + latency > cycle` after).
    fn issue_thread(
        t: &mut ThreadState,
        cycle: u64,
        mut budget: u32,
        window: usize,
        penalty: u64,
    ) -> u32 {
        let Some(front) = t.rob.front() else {
            return budget;
        };
        let front_seq = front.seq;
        let head_pos = front_seq as usize % DEP_RING;
        let mut word_idx = head_pos / 64;
        // Bits below the head's lane are ring positions the live seq range
        // has not wrapped around to (it is at most `rob_size` < DEP_RING/2
        // wide), so they are clear; masking them keeps the very first word
        // aligned with ROB order even if that ever changed.
        let mut word = t.unissued[word_idx] & !((1u64 << (head_pos % 64)) - 1);
        let mut scanned = 0usize;
        'scan: for words_left in (0..RING_WORDS).rev() {
            while word != 0 {
                if budget == 0 || scanned >= window {
                    break 'scan;
                }
                let lane = word.trailing_zeros() as usize;
                word &= word - 1;
                let ring_pos = word_idx * 64 + lane;
                // Ring position → ROB index (offset past the head).
                let offset = (ring_pos + DEP_RING - head_pos) % DEP_RING;
                scanned += 1;
                let dep_seq = t.dep_seqs[ring_pos];
                if t.complete_time[(dep_seq % DEP_RING as u64) as usize] > cycle {
                    continue;
                }
                let slot = &mut t.rob[offset];
                debug_assert_eq!(slot.seq as usize % DEP_RING, ring_pos);
                slot.issued = true;
                slot.complete_at = cycle + slot.latency as u64;
                let complete_at = slot.complete_at;
                let mispredicted = slot.mispredicted;
                t.complete_time[ring_pos] = complete_at;
                t.unissued[word_idx] &= !(1u64 << lane);
                t.iq -= 1;
                budget -= 1;
                if mispredicted {
                    // Redirect at execute: the front end refills afterwards.
                    t.fetch_blocked_until = t.fetch_blocked_until.max(complete_at + penalty);
                }
            }
            if words_left == 0 {
                break;
            }
            word_idx = (word_idx + 1) % RING_WORDS;
            word = t.unissued[word_idx];
        }
        budget
    }

    /// The thread the priority policy favors right now (lower metric wins;
    /// ties go to thread 0, round-robin alternates by cycle).
    fn favored_thread(&self, priority: FetchPriority, cycle: u64) -> usize {
        match priority {
            FetchPriority::ICount => (self.threads[1].iq < self.threads[0].iq) as usize,
            FetchPriority::BranchCount => {
                (self.threads[1].branches_in_rob < self.threads[0].branches_in_rob) as usize
            }
            FetchPriority::LsqCount => (self.threads[1].lsq() < self.threads[0].lsq()) as usize,
            FetchPriority::RoundRobin => (cycle % 2) as usize,
        }
    }

    fn rename_stage(&mut self, cycle: u64, policy: PgPolicy) {
        let p = self.params;
        let mut budget = p.decode_width;
        let mut renamed = 0u32;
        let mut block: Option<RenameBlock> = None;
        // Dispatch bandwidth follows the fetch priority policy: the favored
        // thread fills shared structures first, so a slow thread cannot clog
        // the IQ just by having a backlog in its front-end queue.
        let first = self.favored_thread(policy.priority, cycle);
        // Shared-structure occupancy across both threads, maintained
        // incrementally as instructions rename instead of re-summed per
        // instruction.
        let mut rob_total = self.threads[0].rob.len() + self.threads[1].rob.len();
        let mut iq_total = self.threads[0].iq + self.threads[1].iq;
        let mut lq_total = self.threads[0].lq + self.threads[1].lq;
        let mut sq_total = self.threads[0].sq + self.threads[1].sq;
        let mut irf_total = self.threads[0].irf + self.threads[1].irf;
        let mut frf_total = self.threads[0].frf + self.threads[1].frf;
        for off in 0..2 {
            let ti = (first + off) % 2;
            loop {
                if budget == 0 {
                    break;
                }
                let t = &mut self.threads[ti];
                let Some(&instr) = t.fetch_queue.front() else {
                    break;
                };

                let needed_block = if rob_total >= p.rob_size as usize {
                    Some(RenameBlock::Rob)
                } else if iq_total >= p.iq_size {
                    Some(RenameBlock::Iq)
                } else if matches!(instr.kind, SmtOpKind::Load(_)) && lq_total >= p.lq_size {
                    Some(RenameBlock::Lq)
                } else if matches!(instr.kind, SmtOpKind::Store(_)) && sq_total >= p.sq_size {
                    Some(RenameBlock::Sq)
                } else if (instr.int_dest && irf_total >= p.irf_size)
                    || (!instr.int_dest && frf_total >= p.frf_size)
                {
                    Some(RenameBlock::Rf)
                } else {
                    None
                };
                if let Some(cause) = needed_block {
                    block = block.or(Some(cause));
                    break;
                }

                t.fetch_queue.pop_front();
                budget -= 1;
                renamed += 1;
                let seq = t.seq_next;
                t.seq_next += 1;
                let ring_pos = (seq % DEP_RING as u64) as usize;
                t.complete_time[ring_pos] = PENDING;
                let dep_seq = seq.saturating_sub(instr.dep_distance as u64);
                // Keep the issue-scan gather arrays in lockstep: the slot
                // enters the ROB unissued.
                t.unissued[ring_pos / 64] |= 1u64 << (ring_pos % 64);
                t.dep_seqs[ring_pos] = dep_seq;
                let (latency, is_load, is_store, is_branch, mispredicted, drain) = match instr.kind
                {
                    SmtOpKind::Alu => (1, false, false, false, false, 0),
                    SmtOpKind::LongAlu => (p.long_alu_latency, false, false, false, false, 0),
                    SmtOpKind::Load(class) => (
                        p.load_latency[match class {
                            MemClass::L1 => 0,
                            MemClass::L2 => 1,
                            MemClass::Mem => 2,
                        }],
                        true,
                        false,
                        false,
                        false,
                        0,
                    ),
                    SmtOpKind::Store(class) => (
                        1,
                        false,
                        true,
                        false,
                        false,
                        if class == MemClass::Mem {
                            p.store_drain_latency
                        } else {
                            0
                        },
                    ),
                    SmtOpKind::Branch { mispredicted } => (1, false, false, true, mispredicted, 0),
                };
                t.iq += 1;
                iq_total += 1;
                rob_total += 1;
                if is_load {
                    t.lq += 1;
                    lq_total += 1;
                }
                if is_store {
                    t.sq += 1;
                    sq_total += 1;
                }
                if is_branch {
                    t.branches_in_rob += 1;
                }
                if instr.int_dest {
                    t.irf += 1;
                    irf_total += 1;
                } else {
                    t.frf += 1;
                    frf_total += 1;
                }
                t.rob.push_back(Slot {
                    seq,
                    latency,
                    complete_at: 0,
                    issued: false,
                    is_load,
                    is_store,
                    is_branch,
                    mispredicted,
                    int_dest: instr.int_dest,
                    store_drain: drain,
                });
            }
        }

        // Fig. 15 classification of this rename cycle.
        if renamed > 0 {
            self.rename.running += 1;
        } else if let Some(cause) = block {
            match cause {
                RenameBlock::Rob => self.rename.stalled_rob += 1,
                RenameBlock::Iq => self.rename.stalled_iq += 1,
                RenameBlock::Lq => self.rename.stalled_lq += 1,
                RenameBlock::Sq => self.rename.stalled_sq += 1,
                RenameBlock::Rf => self.rename.stalled_rf += 1,
            }
        } else {
            self.rename.idle += 1;
        }
    }

    /// True when `thread` exceeds its occupancy share in any structure
    /// monitored by the gating mask. The four occupancy checks are folded
    /// into one branchless over-limit mask — each comparison is computed
    /// with the exact float expression the short-circuit chain used
    /// (comparisons have no side effects, so evaluating all four is
    /// result-identical), and the masked OR replaces four branches the
    /// predictor has to guess per cycle.
    fn gated(&self, thread: usize, policy: PgPolicy, share: f64) -> bool {
        let p = &self.params;
        let t = &self.threads[thread];
        let g = policy.gating;
        let over = (u8::from(t.iq as f64 > share * p.iq_size as f64) & u8::from(g.iq))
            | (u8::from(t.lsq() as f64 > share * (p.lq_size + p.sq_size) as f64) & u8::from(g.lsq))
            | (u8::from(t.rob.len() as f64 > share * p.rob_size as f64) & u8::from(g.rob))
            | (u8::from(t.irf as f64 > share * p.irf_size as f64) & u8::from(g.irf));
        over != 0
    }

    fn fetch_stage(&mut self, cycle: u64, policy: PgPolicy, shares: [f64; 2]) {
        let p = self.params;
        // At most two threads: eligibility is a 2-bit mask, built in thread
        // order so the gating telemetry fires exactly as the list-based
        // scan did.
        let mut eligible_mask = 0u32;
        for (i, &share) in shares.iter().enumerate() {
            let t = &self.threads[i];
            if t.fetch_blocked_until > cycle
                || t.fetch_queue.len() + p.fetch_width as usize > p.fetch_buffer as usize
            {
                continue;
            }
            if self.gated(i, policy, share) {
                if mab_telemetry::STATIC_ENABLED {
                    self.probe_fetch[1] += 1;
                }
                continue;
            }
            eligible_mask |= 1 << i;
        }
        let chosen = match eligible_mask {
            0b00 => return,
            0b01 => 0,
            0b10 => 1,
            _ => match policy.priority {
                FetchPriority::ICount => {
                    if self.threads[0].iq <= self.threads[1].iq {
                        0
                    } else {
                        1
                    }
                }
                FetchPriority::BranchCount => {
                    if self.threads[0].branches_in_rob <= self.threads[1].branches_in_rob {
                        0
                    } else {
                        1
                    }
                }
                FetchPriority::LsqCount => {
                    if self.threads[0].lsq() <= self.threads[1].lsq() {
                        0
                    } else {
                        1
                    }
                }
                FetchPriority::RoundRobin => 1 - self.rr_last,
            },
        };
        self.rr_last = chosen;
        if mab_telemetry::STATIC_ENABLED {
            self.probe_fetch[0] += 1;
            self.epoch_grants[chosen] += 1;
        }
        let t = &mut self.threads[chosen];
        for _ in 0..p.fetch_width {
            let instr = t.gen.next_instr();
            t.fetch_queue.push_back(instr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controllers::{ChoiController, StaticPgController};
    use mab_workloads::smt;

    fn pipe(a: &str, b: &str) -> SmtPipeline {
        SmtPipeline::new(
            SmtParams::test_scale(),
            [
                smt::thread_by_name(a).unwrap(),
                smt::thread_by_name(b).unwrap(),
            ],
            7,
        )
    }

    #[test]
    fn both_threads_reach_the_commit_target() {
        let mut p = pipe("gcc", "xz");
        let stats = p.run(Box::new(StaticPgController::new(PgPolicy::ICOUNT)), 10_000);
        assert!(stats.commits[0] >= 10_000);
        assert!(stats.commits[1] >= 10_000);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn ipc_is_plausible() {
        let mut p = pipe("exchange2", "deepsjeng");
        let stats = p.run(Box::new(StaticPgController::new(PgPolicy::ICOUNT)), 20_000);
        let ipc = stats.sum_ipc();
        assert!(ipc > 0.5 && ipc < 8.0, "sum ipc {ipc}");
    }

    #[test]
    fn memory_bound_thread_is_slower_than_compute_thread() {
        let mut p = pipe("exchange2", "mcf");
        let stats = p.run(Box::new(StaticPgController::new(PgPolicy::ICOUNT)), 10_000);
        assert!(
            stats.ipc(0) > stats.ipc(1),
            "exchange2 {} vs mcf {}",
            stats.ipc(0),
            stats.ipc(1)
        );
    }

    #[test]
    fn rename_classification_covers_every_cycle() {
        let mut p = pipe("gcc", "lbm");
        let stats = p.run(Box::new(ChoiController::new()), 10_000);
        assert_eq!(stats.rename.total(), stats.cycles);
    }

    #[test]
    fn lbm_pressures_the_store_queue() {
        let mut p = pipe("lbm", "mcf");
        let stats = p.run(Box::new(StaticPgController::new(PgPolicy::ICOUNT)), 15_000);
        assert!(
            stats.rename.stalled_sq > 0,
            "expected SQ stalls: {:?}",
            stats.rename
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut p = pipe("gcc", "cactus");
            p.run(Box::new(ChoiController::new()), 5_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn gating_mask_changes_behaviour() {
        // With an LSQ-aware policy, an SQ-hog pair should see fewer SQ stalls
        // than with no gating at all.
        let run = |policy: &str| {
            let mut p = pipe("lbm", "gcc");
            let stats = p.run(
                Box::new(StaticPgController::new(policy.parse().unwrap())),
                15_000,
            );
            stats.rename.stalled_sq as f64 / stats.cycles as f64
        };
        let ungated = run("IC_0000");
        let gated = run("IC_0100");
        assert!(
            gated <= ungated + 1e-9,
            "LSQ gating should not increase SQ stalls: {ungated} -> {gated}"
        );
    }

    #[test]
    fn different_mixes_give_different_results() {
        let mut p1 = pipe("gcc", "lbm");
        let s1 = p1.run(Box::new(ChoiController::new()), 5_000);
        let mut p2 = pipe("mcf", "cactus");
        let s2 = p2.run(Box::new(ChoiController::new()), 5_000);
        assert_ne!(s1.cycles, s2.cycles);
    }

    mod differential {
        //! Chunked vs scalar issue scan differential: the eligible-mask
        //! issue scan must produce bit-identical pipeline behaviour — the
        //! full stats struct, not just IPC — to a scalar ROB walk, for
        //! arbitrary thread mixes, seeds and controllers.

        use super::*;
        use proptest::prelude::*;

        /// Scalar reference issue scan for one thread: walk the ROB in
        /// order, skip issued slots, and issue every ready candidate inside
        /// the scheduler window.
        fn issue_thread_scalar(
            t: &mut ThreadState,
            cycle: u64,
            mut budget: u32,
            window: usize,
            penalty: u64,
        ) -> u32 {
            let mut scanned = 0usize;
            for slot in t.rob.iter_mut() {
                if budget == 0 || scanned >= window {
                    break;
                }
                if slot.issued {
                    continue;
                }
                scanned += 1;
                let ring_pos = (slot.seq % DEP_RING as u64) as usize;
                let dep_seq = t.dep_seqs[ring_pos];
                if t.complete_time[(dep_seq % DEP_RING as u64) as usize] > cycle {
                    continue;
                }
                slot.issued = true;
                slot.complete_at = cycle + slot.latency as u64;
                t.complete_time[ring_pos] = slot.complete_at;
                t.iq -= 1;
                budget -= 1;
                if slot.mispredicted {
                    t.fetch_blocked_until = t.fetch_blocked_until.max(slot.complete_at + penalty);
                }
            }
            budget
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn chunked_issue_scan_matches_scalar_reference(
                a in 0usize..8,
                b in 0usize..8,
                seed in 0u64..1 << 32,
                choi in prop::bool::ANY,
            ) {
                let apps = smt::smt_apps();
                let specs = [apps[a % apps.len()].clone(), apps[b % apps.len()].clone()];
                let mut scalar = SmtPipeline::new(SmtParams::test_scale(), specs.clone(), seed);
                let mut chunked = SmtPipeline::new(SmtParams::test_scale(), specs, seed);
                let controller = || -> Box<dyn PgController> {
                    if choi {
                        Box::new(ChoiController::new())
                    } else {
                        Box::new(StaticPgController::new(PgPolicy::ICOUNT))
                    }
                };
                let s = scalar.run_with_scan(controller().as_mut(), 3_000, issue_thread_scalar);
                let c = chunked.run(controller(), 3_000);
                prop_assert_eq!(s, c);
            }
        }
    }
}
