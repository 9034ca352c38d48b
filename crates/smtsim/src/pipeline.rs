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
use mab_telemetry::span::{Category, StageClock};
use mab_workloads::smt::{MemClass, SmtInstr, SmtOpKind, ThreadGen, ThreadSpec};
use std::collections::VecDeque;

/// Size of the per-thread rings indexed by `seq % DEP_RING`, which hold
/// every in-ROB instruction's state. A slot may only be reused once no
/// in-flight instruction can reference it, so the ring must exceed the ROB
/// depth (224) plus the maximum dependency distance (24).
const DEP_RING: usize = 512;
/// Words in the seq-indexed unissued bitset covering the ring.
const RING_WORDS: usize = DEP_RING / 64;
/// Sentinel: instruction dispatched but not yet issued.
const PENDING: u64 = u64::MAX;

/// Flag bits of an in-ROB instruction, in [`ThreadState::flags`].
const LOAD: u8 = 1;
const STORE: u8 = 1 << 1;
const BRANCH: u8 = 1 << 2;
const MISPREDICTED: u8 = 1 << 3;
const INT_DEST: u8 = 1 << 4;
/// A store that misses to memory: its SQ entry drains
/// `store_drain_latency` cycles after commit.
const DRAINS: u8 = 1 << 5;

/// The ring position of `seq`.
#[inline]
fn ring(seq: u64) -> usize {
    (seq % DEP_RING as u64) as usize
}

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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

/// One hardware thread. Its ROB is the seq range `rob_head..seq_next`; each
/// in-ROB instruction's state lives in the rings indexed by
/// `seq % DEP_RING` ([`ring`]).
struct ThreadState {
    gen: SmtStream,
    fetch_queue: VecDeque<SmtInstr>,
    fetch_blocked_until: u64,
    /// Seq of the oldest in-ROB instruction.
    rob_head: u64,
    /// Seq the next renamed instruction gets.
    seq_next: u64,
    /// The completion cycle of an issued instruction, [`PENDING`] from
    /// rename until issue — so a slot has issued exactly when its entry
    /// is not `PENDING`. Kept after commit for younger consumers.
    complete_time: Box<[u64; DEP_RING]>,
    /// Eligibility mask for the issue scan: a bit is set exactly while its
    /// slot is in the ROB and unissued (set at rename, cleared at issue;
    /// committed heads are always issued, so commit never touches it). The
    /// in-ROB seq range is at most `rob_size` (224) wide — well under
    /// [`DEP_RING`] — so ring order starting at the head's position is ROB
    /// order and every set bit belongs to a live slot.
    unissued: [u64; RING_WORDS],
    /// The producer's seq, written at rename: the issue scan gathers
    /// dependency readiness from two flat arrays (this one and
    /// `complete_time`).
    dep_seqs: Box<[u64; DEP_RING]>,
    /// Execution latency, written at rename.
    latency: Box<[u32; DEP_RING]>,
    /// [`LOAD`], [`STORE`], [`BRANCH`], [`MISPREDICTED`], [`INT_DEST`] and
    /// [`DRAINS`] bits, written at rename.
    flags: Box<[u8; DEP_RING]>,
    /// Issue wakeup: after a scan that issued nothing, the earliest cycle
    /// at which one of its candidates' producers completes. Scans before
    /// it are skipped while `seq_next <= wake_seq_limit`; see
    /// [`SmtPipeline::issue_thread`].
    wake_at: u64,
    /// The last `seq_next` the wake covers: `u64::MAX` when the scan
    /// stopped at the scheduler window (younger arrivals lie beyond it),
    /// else the `seq_next` it saw.
    wake_seq_limit: u64,
    committed: u64,
    // Occupancy counters for this thread's entries in the shared structures.
    iq: u32,
    lq: u32,
    sq: u32,
    irf: u32,
    frf: u32,
    branches_in_rob: u32,
    /// Drain cycles of committed memory stores still holding an SQ entry.
    /// Commit pushes `cycle + store_drain_latency` with a run-constant
    /// latency and non-decreasing cycles, so the queue is sorted.
    sq_drain: VecDeque<u64>,
}

impl ThreadState {
    fn new(stream: SmtStream) -> Self {
        ThreadState {
            gen: stream,
            fetch_queue: VecDeque::new(),
            fetch_blocked_until: 0,
            // Dependencies on "pre-history" (seqs below the first) read a
            // zero completion time: ready.
            rob_head: DEP_RING as u64,
            seq_next: DEP_RING as u64,
            complete_time: Box::new([0; DEP_RING]),
            unissued: [0; RING_WORDS],
            dep_seqs: Box::new([0; DEP_RING]),
            latency: Box::new([0; DEP_RING]),
            flags: Box::new([0; DEP_RING]),
            wake_at: 0,
            wake_seq_limit: 0,
            committed: 0,
            iq: 0,
            lq: 0,
            sq: 0,
            irf: 0,
            frf: 0,
            branches_in_rob: 0,
            sq_drain: VecDeque::new(),
        }
    }

    fn lsq(&self) -> u32 {
        self.lq + self.sq
    }

    /// In-ROB instructions.
    fn rob_len(&self) -> u64 {
        self.seq_next - self.rob_head
    }

    /// Enters the next instruction into the ROB and the IQ, unissued.
    fn dispatch(&mut self, dep_distance: u8, latency: u32, flags: u8) {
        self.iq += 1;
        let seq = self.seq_next;
        self.seq_next += 1;
        let pos = ring(seq);
        self.complete_time[pos] = PENDING;
        self.unissued[pos / 64] |= 1u64 << (pos % 64);
        self.dep_seqs[pos] = seq.saturating_sub(dep_distance as u64);
        self.latency[pos] = latency;
        self.flags[pos] = flags;
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
    /// Fetch-slot grants per thread within the current epoch, sampled into
    /// `fetch_share` occupancy tracks and counted at each epoch boundary
    /// (per-cycle counter traffic would cost more than the fetch stage).
    epoch_grants: [u64; 2],
    /// Fetch slots refused by a gate within the current epoch, counted with
    /// the grants.
    epoch_gated: u64,
}

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
            epoch_grants: [0; 2],
            epoch_gated: 0,
        }
    }

    /// Counts the epoch's fetch-slot grants and gates and starts the next
    /// epoch's tallies.
    fn count_fetch_slots(&mut self) {
        if mab_telemetry::STATIC_ENABLED {
            let [g0, g1] = std::mem::take(&mut self.epoch_grants);
            mab_telemetry::count!(SmtFetchGrant, g0 + g1);
            mab_telemetry::count!(SmtFetchGated, std::mem::take(&mut self.epoch_gated));
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
        // The stages in `step`'s lap order.
        let mut clock = StageClock::start(&[
            (Category::Commit, 0),
            (Category::Issue, 0),
            (Category::Rename, 0),
            (Category::Fetch, 0),
        ]);
        while self.threads[0].committed < commits_per_thread
            || self.threads[1].committed < commits_per_thread
        {
            self.step(policy, shares, scan, &mut clock);
            cycles_left -= 1;
            if cycles_left == 0 {
                // The epoch's stage time ends here: the boundary's own work
                // and the controller (its `policy_eval` span) stay outside.
                clock.pause();
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
                // Publish the epoch-boundary cycle before the controller
                // runs, so any bandit decision it records lands at the right
                // timeline position; sample the per-thread fetch shares and
                // IPCs as occupancy tracks.
                mab_telemetry::clock!(self.cycle);
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
                self.count_fetch_slots();
                {
                    mab_telemetry::span!(PolicyEval);
                    controller.on_epoch(EpochIpc { per_thread });
                }
                policy = controller.policy();
                shares = [controller.share(0), controller.share(1)];
                clock.resume();
            }
        }
        clock.finish();
        self.count_fetch_slots();
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

    /// Advances one cycle under the given policy and gating shares: one
    /// stage-clock step.
    fn step(
        &mut self,
        policy: PgPolicy,
        shares: [f64; 2],
        scan: impl IssueScan,
        clock: &mut StageClock,
    ) {
        clock.step();
        self.cycle += 1;
        let cycle = self.cycle;

        // Stage 0: drain store-queue entries whose post-commit write finished.
        for t in &mut self.threads {
            while t.sq_drain.front().is_some_and(|&at| at <= cycle) {
                t.sq_drain.pop_front();
                t.sq -= 1;
            }
        }

        self.commit_stage(cycle);
        clock.lap(0);
        self.issue_stage(cycle, scan);
        clock.lap(1);
        self.rename_stage(cycle, policy);
        clock.lap(2);
        self.fetch_stage(cycle, policy, shares);
        clock.lap(3);
    }

    fn commit_stage(&mut self, cycle: u64) {
        let mut budget = self.params.commit_width;
        let drain = self.params.store_drain_latency;
        // Alternate which thread gets first claim on commit bandwidth.
        let first = (cycle % 2) as usize;
        for off in 0..2 {
            let t = &mut self.threads[(first + off) % 2];
            // An unissued head reads `PENDING`, later than any cycle.
            while budget > 0
                && t.rob_head < t.seq_next
                && t.complete_time[ring(t.rob_head)] <= cycle
            {
                let flags = t.flags[ring(t.rob_head)];
                t.rob_head += 1;
                budget -= 1;
                t.committed += 1;
                if flags & LOAD != 0 {
                    t.lq -= 1;
                }
                if flags & DRAINS != 0 {
                    t.sq_drain.push_back(cycle + drain as u64);
                } else if flags & STORE != 0 {
                    t.sq -= 1;
                }
                if flags & BRANCH != 0 {
                    t.branches_in_rob -= 1;
                }
                if flags & INT_DEST != 0 {
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
    /// over at most [`RING_WORDS`] words — and dependency readiness
    /// gathers from the flat `dep_seqs` / `complete_time` rings. Visits the
    /// unissued slots in ROB order: set bits exist only for in-ROB
    /// unissued slots, ring order from the head's position is seq order
    /// (the live range is narrower than the ring), and issuing cannot flip
    /// a later candidate's readiness within the cycle because every
    /// latency is ≥ 1 (`PENDING` before issue, `cycle + latency > cycle`
    /// after).
    ///
    /// **Wakeup.** A scan that issues nothing records the earliest
    /// completion among its candidates' producers (`wake_at`), and scans
    /// before that cycle are skipped — exactly, because a scan that issues
    /// nothing changes nothing, and until the wake it would issue nothing:
    /// while a thread issues nothing its unissued set only grows at the
    /// tail (commit removes issued heads only), so the scan meets the same
    /// candidates first; each one's producer either has issued, with a
    /// fixed completion no earlier than the wake, or is an older unissued
    /// candidate that cannot issue before the wake either. New arrivals
    /// only matter when the scan did not stop at the window, hence
    /// `wake_seq_limit`. A scan that issues anything clears the wake.
    fn issue_thread(
        t: &mut ThreadState,
        cycle: u64,
        mut budget: u32,
        window: usize,
        penalty: u64,
    ) -> u32 {
        if cycle < t.wake_at && t.seq_next <= t.wake_seq_limit {
            return budget;
        }
        let budget_in = budget;
        let head_pos = ring(t.rob_head);
        let mut word_idx = head_pos / 64;
        // Bits below the head's lane are ring positions the live seq range
        // has not wrapped around to (it is at most `rob_size` < DEP_RING/2
        // wide), so they are clear; masking them keeps the very first word
        // aligned with ROB order even if that ever changed.
        let mut word = t.unissued[word_idx] & !((1u64 << (head_pos % 64)) - 1);
        let mut scanned = 0usize;
        let mut wake = PENDING;
        'scan: for words_left in (0..RING_WORDS).rev() {
            while word != 0 {
                if budget == 0 || scanned >= window {
                    break 'scan;
                }
                let lane = word.trailing_zeros() as usize;
                word &= word - 1;
                let pos = word_idx * 64 + lane;
                scanned += 1;
                let ready_at = t.complete_time[ring(t.dep_seqs[pos])];
                if ready_at > cycle {
                    wake = wake.min(ready_at);
                    continue;
                }
                let complete_at = cycle + t.latency[pos] as u64;
                t.complete_time[pos] = complete_at;
                t.unissued[word_idx] &= !(1u64 << lane);
                t.iq -= 1;
                budget -= 1;
                if t.flags[pos] & MISPREDICTED != 0 {
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
        t.wake_at = if budget == budget_in { wake } else { 0 };
        t.wake_seq_limit = if scanned >= window {
            u64::MAX
        } else {
            t.seq_next
        };
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
        let mut rob_total = self.threads[0].rob_len() + self.threads[1].rob_len();
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

                let needed_block = if rob_total >= p.rob_size as u64 {
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
                let (latency, kind_flags) = match instr.kind {
                    SmtOpKind::Alu => (1, 0),
                    SmtOpKind::LongAlu => (p.long_alu_latency, 0),
                    SmtOpKind::Load(class) => (
                        p.load_latency[match class {
                            MemClass::L1 => 0,
                            MemClass::L2 => 1,
                            MemClass::Mem => 2,
                        }],
                        LOAD,
                    ),
                    SmtOpKind::Store(class) => (
                        1,
                        if class == MemClass::Mem && p.store_drain_latency > 0 {
                            STORE | DRAINS
                        } else {
                            STORE
                        },
                    ),
                    SmtOpKind::Branch { mispredicted } => (
                        1,
                        if mispredicted {
                            BRANCH | MISPREDICTED
                        } else {
                            BRANCH
                        },
                    ),
                };
                let dest = if instr.int_dest { INT_DEST } else { 0 };
                t.dispatch(instr.dep_distance, latency, kind_flags | dest);
                iq_total += 1;
                rob_total += 1;
                if kind_flags & LOAD != 0 {
                    t.lq += 1;
                    lq_total += 1;
                }
                if kind_flags & STORE != 0 {
                    t.sq += 1;
                    sq_total += 1;
                }
                if kind_flags & BRANCH != 0 {
                    t.branches_in_rob += 1;
                }
                if instr.int_dest {
                    t.irf += 1;
                    irf_total += 1;
                } else {
                    t.frf += 1;
                    frf_total += 1;
                }
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
            | (u8::from(t.rob_len() as f64 > share * p.rob_size as f64) & u8::from(g.rob))
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
                    self.epoch_gated += 1;
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
        //! issue scan with its wakeup must produce bit-identical pipeline
        //! behaviour — the full stats struct, not just IPC — to a scalar
        //! ROB walk that scans every cycle, for arbitrary thread mixes,
        //! seeds, epoch lengths and controllers.

        use super::*;
        use crate::controllers::BanditController;
        use crate::policies::GateMask;
        use mab_core::{AlgorithmKind, BanditConfig};
        use proptest::prelude::*;

        /// Scalar reference issue scan for one thread: walk the ROB in
        /// seq order, skip issued slots, and issue every ready candidate
        /// inside the scheduler window. No bitset, no wakeup.
        fn issue_thread_scalar(
            t: &mut ThreadState,
            cycle: u64,
            mut budget: u32,
            window: usize,
            penalty: u64,
        ) -> u32 {
            let mut scanned = 0usize;
            for seq in t.rob_head..t.seq_next {
                if budget == 0 || scanned >= window {
                    break;
                }
                let pos = ring(seq);
                if t.complete_time[pos] != PENDING {
                    continue;
                }
                scanned += 1;
                if t.complete_time[ring(t.dep_seqs[pos])] > cycle {
                    continue;
                }
                let complete_at = cycle + t.latency[pos] as u64;
                t.complete_time[pos] = complete_at;
                t.iq -= 1;
                budget -= 1;
                if t.flags[pos] & MISPREDICTED != 0 {
                    t.fetch_blocked_until = t.fetch_blocked_until.max(complete_at + penalty);
                }
            }
            budget
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn chunked_issue_scan_matches_scalar_reference(
                a in 0usize..22,
                b in 0usize..22,
                seed in 0u64..1 << 32,
                controller_kind in 0u8..3,
                priority in 0usize..4,
                gating in 0u8..16,
                scaled_epochs in prop::bool::ANY,
            ) {
                let apps = smt::smt_apps();
                let specs = [apps[a].clone(), apps[b].clone()];
                // `scaled_params()`'s 1,024-cycle epochs, or the unit-test
                // scale's 2,048.
                let params = SmtParams {
                    epoch_cycles: if scaled_epochs { 1024 } else { 2048 },
                    ..SmtParams::test_scale()
                };
                let policy = PgPolicy {
                    priority: FetchPriority::ALL[priority],
                    gating: GateMask::from_bits(gating),
                };
                let controller = || -> Box<dyn PgController> {
                    match controller_kind {
                        0 => Box::new(ChoiController::new()),
                        1 => Box::new(StaticPgController::new(policy)),
                        _ => {
                            // DUCB with short steps, so arms change within
                            // the run.
                            let config = BanditConfig::builder(PgPolicy::bandit_arms().len())
                                .algorithm(AlgorithmKind::Ducb { gamma: 0.975, c: 0.01 })
                                .seed(seed)
                                .build()
                                .unwrap();
                            Box::new(
                                BanditController::new(config, PgPolicy::bandit_arms().to_vec(), 2, 1)
                                    .unwrap(),
                            )
                        }
                    }
                };
                let mut scalar = SmtPipeline::new(params, specs.clone(), seed);
                let mut chunked = SmtPipeline::new(params, specs, seed);
                let s = scalar.run_with_scan(controller().as_mut(), 20_000, issue_thread_scalar);
                // Bounded by the reference's cycle count, so a scan that
                // stalls a thread for good fails here instead of hanging.
                let last = s.cycles;
                let bounded = move |t: &mut ThreadState, cycle, budget, window, penalty| {
                    assert!(cycle <= last, "still running past the reference's {last} cycles");
                    SmtPipeline::issue_thread(t, cycle, budget, window, penalty)
                };
                let c = chunked.run_with_scan(controller().as_mut(), 20_000, bounded);
                prop_assert_eq!(s, c);
            }
        }
    }

    mod wakeup {
        //! The issue wakeup on hand-built ROBs: a skipped scan must be one
        //! that would have issued nothing.

        use super::*;

        const WINDOW: usize = 24;
        const PENALTY: u64 = 12;
        /// Far enough back to reach "pre-history": ready at once.
        const READY: u8 = 24;

        fn thread() -> ThreadState {
            ThreadState::new(SmtStream::Boxed(Box::new(std::iter::empty())))
        }

        fn issue(t: &mut ThreadState, cycle: u64, budget: u32) -> u32 {
            budget - SmtPipeline::issue_thread(t, cycle, budget, WINDOW, PENALTY)
        }

        /// Two producers completing at cycles 4 and 11, then a consumer of
        /// each (the later one first), dispatched after the producers
        /// issued at cycle 1.
        fn two_waiting_consumers() -> ThreadState {
            let mut t = thread();
            t.dispatch(READY, 3, INT_DEST);
            t.dispatch(READY, 10, INT_DEST);
            assert_eq!(issue(&mut t, 1, 8), 2);
            t.dispatch(1, 1, INT_DEST);
            t.dispatch(3, 1, INT_DEST);
            t
        }

        #[test]
        fn wake_is_the_earliest_producer_completion() {
            let mut t = two_waiting_consumers();
            assert_eq!(issue(&mut t, 2, 8), 0);
            assert_eq!(t.wake_at, 4);
            assert_eq!(issue(&mut t, 3, 8), 0);
            assert_eq!(
                issue(&mut t, 4, 8),
                1,
                "the consumer of the 4-cycle producer"
            );
            assert_eq!(t.wake_at, 0);
            assert_eq!(issue(&mut t, 11, 8), 1);
        }

        #[test]
        fn an_arrival_ends_a_wake_the_window_did_not_cap() {
            let mut t = two_waiting_consumers();
            assert_eq!(issue(&mut t, 2, 8), 0);
            t.dispatch(READY, 1, INT_DEST);
            assert_eq!(issue(&mut t, 3, 8), 1, "the arrival is ready");
        }

        #[test]
        fn a_window_capped_wake_ignores_arrivals() {
            let mut t = thread();
            t.dispatch(READY, 50, INT_DEST);
            assert_eq!(issue(&mut t, 1, 8), 1);
            for _ in 0..WINDOW {
                t.dispatch(1, 1, INT_DEST);
            }
            assert_eq!(issue(&mut t, 2, 8), 0);
            assert_eq!((t.wake_at, t.wake_seq_limit), (51, u64::MAX));
            // Ready, but behind a full window of waiting candidates.
            t.dispatch(READY, 1, INT_DEST);
            assert_eq!(issue(&mut t, 3, 8), 0);
            assert_eq!(issue(&mut t, 51, 8), 1);
        }

        #[test]
        fn an_issuing_scan_clears_the_wake() {
            let mut t = thread();
            t.dispatch(READY, 1, INT_DEST);
            t.dispatch(READY, 1, INT_DEST);
            // The budget runs out after the first: the second is unseen.
            assert_eq!(issue(&mut t, 1, 1), 1);
            assert_eq!(issue(&mut t, 2, 8), 1);
        }

        #[test]
        fn an_empty_thread_waits_for_rename() {
            let mut t = thread();
            assert_eq!(issue(&mut t, 1, 8), 0);
            assert_eq!(t.wake_at, PENDING);
            t.dispatch(READY, 1, INT_DEST);
            assert_eq!(issue(&mut t, 2, 8), 1);
        }
    }
}
