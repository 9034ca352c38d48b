//! System wiring: cores, private L1/L2, shared LLC and DRAM.
//!
//! Matches the paper's setup (§6.1): the prefetcher is associated with the
//! L2, trained on L1 misses (i.e. L2 demand accesses) and fills prefetched
//! lines into L2 and LLC. Multi-core systems share the LLC and the DRAM
//! channel, so one core's prefetch aggression raises everyone's latency —
//! the effect behind §4.3's round-robin restart and Fig. 14.

use crate::cache::{Cache, CacheStats, LookupResult, Mshr};
use crate::config::SystemConfig;
use crate::core::CoreModel;
use crate::dram::{Dram, DramStats};
use crate::prefetcher::{L2Access, NoPrefetcher, PrefetchQueue, Prefetcher};
use mab_telemetry::span::{Category, StageClock};
use mab_telemetry::Stat;
use mab_workloads::{MemKind, TraceRecord};

/// Prefetch outcome counters for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Requests the L1 and L2 prefetchers queued, before any filtering.
    pub requested: u64,
    /// Prefetches issued to the memory system.
    pub issued: u64,
    /// Prefetched lines used by a demand access after filling (timely).
    pub timely: u64,
    /// Demand accesses that merged with a still-in-flight prefetch (late).
    pub late: u64,
    /// Prefetched lines evicted unused (wrong).
    pub wrong: u64,
    /// Requests dropped because the prefetch queue was full.
    pub dropped: u64,
}

/// Result of simulating one core's trace slice.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Instructions simulated.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Shared-LLC counters (whole system, duplicated per core in reports).
    pub llc: CacheStats,
    /// DRAM counters (whole system).
    pub dram: DramStats,
    /// Prefetch outcome counters.
    pub prefetch: PrefetchStats,
}

impl RunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L2 demand accesses (the paper's bandit-step clock for prefetching).
    pub fn l2_demand_accesses(&self) -> u64 {
        self.l2.demand_accesses()
    }
}

/// Adds what one run changed in each core's L1, L2 and prefetch statistics,
/// and in the shared LLC and DRAM statistics, to the recorder's counters:
/// the simulator counts each event once, and the recorder takes the counts
/// once per run.
fn count_run(before: &[RunStats], after: &[RunStats]) {
    if !mab_telemetry::STATIC_ENABLED {
        return;
    }
    let Some(rec) = mab_telemetry::recorder() else {
        return;
    };
    let add = |stat, now: u64, then: u64| rec.counters().add(stat, now - then);
    let add_cache = |[hit, miss, fill]: [Stat; 3], a: &CacheStats, b: &CacheStats| {
        add(hit, a.demand_hits, b.demand_hits);
        add(miss, a.demand_misses, b.demand_misses);
        add(fill, a.fills, b.fills);
    };
    let l1 = [Stat::L1DemandHit, Stat::L1DemandMiss, Stat::L1Fill];
    let l2 = [Stat::L2DemandHit, Stat::L2DemandMiss, Stat::L2Fill];
    let llc = [Stat::LlcDemandHit, Stat::LlcDemandMiss, Stat::LlcFill];
    for (a, b) in after.iter().zip(before) {
        add(Stat::SimCycles, a.cycles, b.cycles);
        add_cache(l1, &a.l1, &b.l1);
        add_cache(l2, &a.l2, &b.l2);
        let (pa, pb) = (a.prefetch, b.prefetch);
        add(Stat::PrefetchRequested, pa.requested, pb.requested);
        add(Stat::PrefetchIssued, pa.issued, pb.issued);
        add(Stat::PrefetchDropped, pa.dropped, pb.dropped);
        add(Stat::PrefetchTimely, pa.timely, pb.timely);
        add(Stat::PrefetchLate, pa.late, pb.late);
        add(Stat::PrefetchWrong, pa.wrong, pb.wrong);
    }
    // Every core's statistics carry the same shared LLC and DRAM.
    if let (Some(a), Some(b)) = (after.first(), before.first()) {
        add_cache(llc, &a.llc, &b.llc);
        add(Stat::DramAccess, a.dram.transfers, b.dram.transfers);
    }
}

/// L2 demand accesses between samples ([`System::sample`]): a few per
/// bandit step (1,000 accesses), cheap enough to leave always on.
const OCCUPANCY_SAMPLE_PERIOD: u64 = 512;

/// The stage-clock stages every run has, one step per instruction; the
/// prefetchers' train and issue stages follow them, added per run.
const STAGES: [(Category, u32); 7] = [
    (Category::Record, 0),
    (Category::Core, 0),
    (Category::CacheFill, 0),
    (Category::L1, 0),
    (Category::CacheAccess, 0),
    (Category::Mshr, 0),
    (Category::DramQueue, 0),
];

/// Indices into [`STAGES`].
mod stage {
    pub const RECORD: usize = 0;
    pub const CORE: usize = 1;
    pub const CACHE_FILL: usize = 2;
    pub const L1: usize = 3;
    pub const CACHE_ACCESS: usize = 4;
    pub const MSHR: usize = 5;
    pub const DRAM_QUEUE: usize = 6;
}

/// The `(train, issue)` stages of a prefetcher labelled `label` on the
/// run's stage clock. Without a label (0: the L2's no-op prefetcher, or
/// any prefetcher in a build without telemetry), the calls are charged to
/// `lookup`, the stage of the cache it serves.
fn prefetcher_stages(clock: &mut StageClock, label: u32, lookup: usize) -> (usize, usize) {
    if label == 0 {
        return (lookup, lookup);
    }
    (
        clock.stage(Category::PrefetchTrain, label),
        clock.stage(Category::PrefetchIssue, label),
    )
}

struct CoreCtx {
    core: CoreModel,
    l1: Cache,
    l2: Cache,
    mshr: Mshr,
    prefetcher: Box<dyn Prefetcher + Send>,
    /// `None` until [`System::set_l1_prefetcher`]: an L1 access without
    /// one skips the train and issue calls. The skip is keyed on this and
    /// not on `l1_pf_label`, which is 0 in builds without telemetry.
    l1_prefetcher: Option<Box<dyn Prefetcher + Send>>,
    /// Interned profiler labels of the installed prefetchers (0 while none
    /// is installed), so stages read `prefetch_train:bandit`. The L1
    /// prefetcher's label is its name prefixed `l1-`, which keeps it apart
    /// from the same prefetcher at L2.
    pf_label: u32,
    l1_pf_label: u32,
    /// The prefetchers' `(train, issue)` stages on the current run's stage
    /// clock.
    l2_stages: (usize, usize),
    l1_stages: (usize, usize),
    queue: PrefetchQueue,
    l1_queue: PrefetchQueue,
    pf: PrefetchStats,
    /// Completion times of outstanding demand misses (bounded by the
    /// demand-MSHR count); a full file delays the next miss.
    demand_inflight: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    done: bool,
    /// Recycled buffer for MSHR fills completing on this access.
    fill_scratch: Vec<(u64, bool)>,
    /// Recycled buffer for prefetch requests being issued.
    req_scratch: Vec<u64>,
}

/// A simulated system: `n` cores with private L1/L2, a shared LLC and a
/// shared DRAM channel.
///
/// # Example
///
/// ```
/// use mab_memsim::{config::SystemConfig, system::System};
/// use mab_workloads::suites;
///
/// let mut sys = System::single_core(SystemConfig::default());
/// let app = suites::app_by_name("cactus").unwrap();
/// let stats = sys.run(&mut app.trace(3), 50_000);
/// assert_eq!(stats.instructions, 50_000);
/// ```
pub struct System {
    config: SystemConfig,
    cores: Vec<CoreCtx>,
    llc: Cache,
    dram: Dram,
    /// L2 demand accesses since the system was built: the clock of the
    /// occupancy and black-box samples.
    l2_accesses: u64,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("config", &self.config)
            .finish()
    }
}

impl System {
    /// Builds a single-core system.
    pub fn single_core(config: SystemConfig) -> Self {
        System::multi_core(config, 1)
    }

    /// Builds an `n`-core system with an LLC scaled to `n × llc_per_core`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn multi_core(config: SystemConfig, n: usize) -> Self {
        assert!(n > 0, "systems need at least one core");
        let mut llc_params = config.llc_per_core;
        llc_params.capacity_bytes *= n as u64;
        let cores = (0..n)
            .map(|_| CoreCtx {
                core: CoreModel::new(config.core),
                l1: Cache::new(config.l1),
                l2: Cache::new(config.l2),
                mshr: Mshr::new(),
                prefetcher: Box::new(NoPrefetcher),
                l1_prefetcher: None,
                pf_label: 0,
                l1_pf_label: 0,
                l2_stages: (stage::CACHE_ACCESS, stage::CACHE_ACCESS),
                l1_stages: (stage::L1, stage::L1),
                queue: PrefetchQueue::new(),
                l1_queue: PrefetchQueue::new(),
                pf: PrefetchStats::default(),
                demand_inflight: std::collections::BinaryHeap::new(),
                done: false,
                fill_scratch: Vec::new(),
                req_scratch: Vec::new(),
            })
            .collect();
        System {
            cores,
            llc: Cache::new(llc_params),
            dram: Dram::new(config.dram_service_cycles(), config.dram_latency),
            config,
            l2_accesses: 0,
        }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Installs an L2 prefetcher on core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_prefetcher(&mut self, core: usize, prefetcher: Box<dyn Prefetcher + Send>) {
        self.cores[core].pf_label = mab_telemetry::span::intern(prefetcher.name());
        self.cores[core].prefetcher = prefetcher;
    }

    /// Installs an L1 prefetcher on core `core`: trained on every demand
    /// access, fills into L1 (Fig. 12's multi-level configurations).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_l1_prefetcher(&mut self, core: usize, prefetcher: Box<dyn Prefetcher + Send>) {
        self.cores[core].l1_pf_label =
            mab_telemetry::span::intern(&format!("l1-{}", prefetcher.name()));
        self.cores[core].l1_prefetcher = Some(prefetcher);
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs a single-core simulation for `instructions` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the system has more than one core (use
    /// [`System::run_multi`]) or the trace ends early.
    pub fn run(
        &mut self,
        trace: &mut dyn Iterator<Item = TraceRecord>,
        instructions: u64,
    ) -> RunStats {
        assert_eq!(self.cores.len(), 1, "use run_multi for multi-core systems");
        let mut traces: Vec<&mut dyn Iterator<Item = TraceRecord>> = vec![trace];
        self.run_multi(&mut traces, instructions).remove(0)
    }

    /// Runs all cores until each has executed `instructions_per_core`
    /// instructions, interleaving cores by simulated time. Returns per-core
    /// statistics.
    ///
    /// The cores are stepped in **pipelined batches**
    /// ([`System::drive_pipelined`]), which reproduce plain per-record
    /// sequential stepping record for record.
    ///
    /// # Panics
    ///
    /// Panics if the number of traces differs from the number of cores or a
    /// trace ends before its core finishes.
    pub fn run_multi(
        &mut self,
        traces: &mut [&mut dyn Iterator<Item = TraceRecord>],
        instructions_per_core: u64,
    ) -> Vec<RunStats> {
        self.run_multi_with(traces, instructions_per_core, Self::drive_pipelined)
    }

    /// [`System::run_multi`] on the sequential per-record stepping order:
    /// the reference the byte-identity tests of pipelined stepping compare
    /// against. Not part of the API proper; it is public only because
    /// integration tests cannot reach test-only items.
    ///
    /// # Panics
    ///
    /// As for [`System::run_multi`].
    #[doc(hidden)]
    pub fn run_multi_sequential(
        &mut self,
        traces: &mut [&mut dyn Iterator<Item = TraceRecord>],
        instructions_per_core: u64,
    ) -> Vec<RunStats> {
        self.run_multi_with(traces, instructions_per_core, Self::drive_sequential)
    }

    fn run_multi_with(
        &mut self,
        traces: &mut [&mut dyn Iterator<Item = TraceRecord>],
        instructions_per_core: u64,
        drive: fn(&mut Self, &mut [&mut dyn Iterator<Item = TraceRecord>], u64, &mut StageClock),
    ) -> Vec<RunStats> {
        assert_eq!(
            traces.len(),
            self.cores.len(),
            "one trace per core required"
        );
        for ctx in &mut self.cores {
            ctx.done = false;
        }
        let before: Vec<RunStats> = if mab_telemetry::STATIC_ENABLED {
            (0..self.cores.len()).map(|i| self.stats(i)).collect()
        } else {
            Vec::new()
        };
        let mut clock = StageClock::start(&STAGES);
        for ctx in &mut self.cores {
            ctx.l2_stages = prefetcher_stages(&mut clock, ctx.pf_label, stage::CACHE_ACCESS);
            ctx.l1_stages = prefetcher_stages(&mut clock, ctx.l1_pf_label, stage::L1);
        }
        drive(self, traces, instructions_per_core, &mut clock);
        clock.finish();
        let after: Vec<RunStats> = (0..self.cores.len()).map(|i| self.stats(i)).collect();
        count_run(&before, &after);
        after
    }

    /// Sequential reference scheduler: one full scan per record, stepping
    /// the earliest core (ties to the lowest index). This order *defines*
    /// the simulation's output; the pipelined driver reproduces it exactly.
    fn drive_sequential(
        &mut self,
        traces: &mut [&mut dyn Iterator<Item = TraceRecord>],
        instructions_per_core: u64,
        clock: &mut StageClock,
    ) {
        loop {
            // Advance the core that is earliest in simulated time.
            let mut next: Option<(usize, u64)> = None;
            for (i, ctx) in self.cores.iter().enumerate() {
                if ctx.done {
                    continue;
                }
                let t = ctx.core.issue_cycle();
                if next.is_none_or(|(_, best)| t < best) {
                    next = Some((i, t));
                }
            }
            let Some((i, t)) = next else { break };
            // The scan is the scheduler's work for the previous step.
            clock.lap(stage::CORE);
            self.step_core(i, &mut *traces[i], t, clock);
            if self.cores[i].core.instructions() >= instructions_per_core {
                self.cores[i].done = true;
            }
            clock.lap(stage::CORE);
        }
    }

    /// Pipelined batch scheduler: pick the winning core once, then keep
    /// stepping it while it would win the sequential scan again, re-scanning
    /// only when the lead changes hands.
    ///
    /// The sequential scan picks the **first** core with the minimum issue
    /// cycle, so core `i` wins exactly when `tᵢ < min(t_j, j < i)` and
    /// `tᵢ ≤ min(t_j, j > i)` over the still-active cores. Stepping core
    /// `i` changes no other core's time, so those two bounds stay valid for
    /// the whole batch and the batch condition reproduces the sequential
    /// pick sequence record for record — shared LLC/DRAM/bandit state is
    /// touched in the identical order and the output is byte-identical
    /// (asserted by the fig. 14 interleave tests). A single-core system
    /// degenerates to one batch for the entire run, which is where the
    /// single-run scheduling overhead goes away.
    fn drive_pipelined(
        &mut self,
        traces: &mut [&mut dyn Iterator<Item = TraceRecord>],
        instructions_per_core: u64,
        clock: &mut StageClock,
    ) {
        let mut times: Vec<u64> = self.cores.iter().map(|c| c.core.issue_cycle()).collect();
        loop {
            let mut next: Option<(usize, u64)> = None;
            for (i, t) in times.iter().copied().enumerate() {
                if self.cores[i].done {
                    continue;
                }
                if next.is_none_or(|(_, best)| t < best) {
                    next = Some((i, t));
                }
            }
            let Some((i, mut t)) = next else { break };
            // The batch bounds: earliest active rival below `i` (must stay
            // strictly above tᵢ) and at-or-above `i` (may tie, since the
            // scan prefers the lower index).
            let mut rival_lo = u64::MAX;
            let mut rival_hi = u64::MAX;
            for (j, tj) in times.iter().copied().enumerate() {
                if j == i || self.cores[j].done {
                    continue;
                }
                if j < i {
                    rival_lo = rival_lo.min(tj);
                } else {
                    rival_hi = rival_hi.min(tj);
                }
            }
            // The pick is the scheduler's work for the step that ended the
            // previous batch.
            clock.lap(stage::CORE);
            loop {
                self.step_core(i, &mut *traces[i], t, clock);
                let done = self.cores[i].core.instructions() >= instructions_per_core;
                t = self.cores[i].core.issue_cycle();
                clock.lap(stage::CORE);
                if done {
                    self.cores[i].done = true;
                    break;
                }
                if t >= rival_lo || t > rival_hi {
                    break;
                }
            }
            times[i] = self.cores[i].core.issue_cycle();
        }
    }

    /// Statistics snapshot for core `core`.
    pub fn stats(&self, core: usize) -> RunStats {
        let ctx = &self.cores[core];
        RunStats {
            instructions: ctx.core.instructions(),
            cycles: ctx.core.cycles(),
            l1: ctx.l1.stats(),
            l2: ctx.l2.stats(),
            llc: self.llc.stats(),
            dram: self.dram.stats(),
            prefetch: ctx.pf,
        }
    }

    /// Steps core `i` over the next record of `trace`: one stage-clock
    /// step, which the caller ends with the `core` lap. `t` is the core's
    /// current issue cycle, already computed by the scheduler's scan.
    fn step_core(
        &mut self,
        i: usize,
        trace: &mut dyn Iterator<Item = TraceRecord>,
        t: u64,
        clock: &mut StageClock,
    ) {
        debug_assert_eq!(t, self.cores[i].core.issue_cycle());
        clock.step();
        let record = trace.next().expect("trace ended early");
        clock.lap(stage::RECORD);
        let latency = match record.mem {
            Some((kind, addr)) => {
                // Cores run independent processes: disjoint physical
                // address spaces (bit 40 per core).
                let line = addr / 64 + ((i as u64) << 40);
                let mem_latency = self.access(i, record.pc, line, kind, t, clock);
                match kind {
                    // Stores retire without waiting for the memory system.
                    MemKind::Store => 1,
                    MemKind::Load => mem_latency,
                }
            }
            None => 1,
        };
        self.cores[i].core.advance(latency);
    }

    /// Performs a demand access for core `i`, lapping `clock` after each
    /// stage; returns the load-to-use latency in cycles.
    fn access(
        &mut self,
        i: usize,
        pc: u64,
        line: u64,
        kind: MemKind,
        t: u64,
        clock: &mut StageClock,
    ) -> u32 {
        let cfg = &self.config;
        let l1_lat = cfg.l1.latency;
        let l2_lat = l1_lat + cfg.l2.latency;
        let llc_lat = l2_lat + cfg.llc_per_core.latency;

        // Complete any prefetch fills that have landed by now.
        let ctx = &mut self.cores[i];
        let mut fills = std::mem::take(&mut ctx.fill_scratch);
        ctx.mshr.drain_ready_into(t, &mut fills);
        for &(filled, fill_l1) in &fills {
            if let Some(ev) = ctx.l2.fill(filled, true) {
                if ev.unused_prefetch {
                    ctx.pf.wrong += 1;
                    ctx.prefetcher.on_prefetch_evicted_unused(ev.line);
                }
            }
            if fill_l1 {
                ctx.l1.fill(filled, true);
            }
            ctx.prefetcher.on_prefetch_fill(filled, t);
        }
        ctx.fill_scratch = fills;
        clock.lap(stage::CACHE_FILL);

        let l1_hit = matches!(ctx.l1.demand_lookup(line), LookupResult::Hit { .. });
        clock.lap(stage::L1);
        // An L1 prefetcher trains on every demand access.
        if let Some(l1_prefetcher) = &mut ctx.l1_prefetcher {
            let l1_access = L2Access {
                pc,
                line,
                hit: l1_hit,
                cycle: t,
                instructions: ctx.core.instructions(),
                kind,
            };
            let (l1_train, l1_issue) = ctx.l1_stages;
            l1_prefetcher.train(&l1_access, &mut ctx.l1_queue);
            clock.lap(l1_train);
            self.issue_prefetches(i, t, true);
            clock.lap(l1_issue);
        }
        if l1_hit {
            return l1_lat;
        }

        // The rest of the access — L2 lookup and everything below it — is
        // the `cache_access` stage, less its `mshr` and `dram_queue` laps.
        self.l2_accesses += 1;
        if self.l2_accesses.is_multiple_of(OCCUPANCY_SAMPLE_PERIOD) {
            self.sample(i, t);
        }

        // L2 demand access: this is where the prefetcher trains.
        let ctx = &mut self.cores[i];
        let l2_result = ctx.l2.demand_lookup(line);
        let hit = matches!(l2_result, LookupResult::Hit { .. });
        let latency = match l2_result {
            LookupResult::Hit { first_prefetch_use } => {
                if first_prefetch_use {
                    ctx.pf.timely += 1;
                    ctx.prefetcher.on_prefetch_used(line, t);
                }
                l2_lat
            }
            LookupResult::Miss => {
                if let Some(inflight) = ctx.mshr.get(line) {
                    // Covered by a late prefetch: wait for it to land. The
                    // line is still brought in by the prefetcher, so the
                    // fill (consumed immediately by this access) is credited
                    // to prefetching at every level the request targeted.
                    ctx.pf.late += 1;
                    ctx.prefetcher.on_prefetch_late(line, t);
                    ctx.mshr.remove(line);
                    if let Some(ev) = ctx.l2.fill_late_prefetch(line) {
                        if ev.unused_prefetch {
                            ctx.pf.wrong += 1;
                            ctx.prefetcher.on_prefetch_evicted_unused(ev.line);
                        }
                    }
                    if inflight.fill_l1 {
                        ctx.l1.fill_late_prefetch(line);
                    } else {
                        ctx.l1.fill(line, false);
                    }
                    let wait = inflight.ready.saturating_sub(t) as u32;
                    l2_lat + wait
                } else {
                    // A true demand miss needs a demand MSHR; when the file
                    // is full the miss waits for the oldest one to retire.
                    clock.lap(stage::CACHE_ACCESS);
                    let mshr_wait = {
                        let ctx = &mut self.cores[i];
                        while ctx
                            .demand_inflight
                            .peek()
                            .is_some_and(|&std::cmp::Reverse(done)| done <= t)
                        {
                            ctx.demand_inflight.pop();
                        }
                        if ctx.demand_inflight.len() >= self.config.demand_mshrs {
                            let std::cmp::Reverse(earliest) = ctx
                                .demand_inflight
                                .pop()
                                .expect("non-empty: len >= cap > 0");
                            earliest.saturating_sub(t) as u32
                        } else {
                            0
                        }
                    };
                    clock.lap(stage::MSHR);
                    let start = t + mshr_wait as u64;
                    let path = match self.llc.demand_lookup(line) {
                        LookupResult::Hit { .. } => llc_lat,
                        LookupResult::Miss => {
                            clock.lap(stage::CACHE_ACCESS);
                            let dram_lat = self.dram.access(start + llc_lat as u64);
                            clock.lap(stage::DRAM_QUEUE);
                            self.llc.fill(line, false);
                            llc_lat + dram_lat as u32
                        }
                    };
                    let beyond_l2 = mshr_wait + path;
                    mab_telemetry::record_raw!(MissLatency, beyond_l2 as u64);
                    let ctx = &mut self.cores[i];
                    ctx.demand_inflight
                        .push(std::cmp::Reverse(start + path as u64));
                    if let Some(ev) = ctx.l2.fill(line, false) {
                        if ev.unused_prefetch {
                            ctx.pf.wrong += 1;
                            ctx.prefetcher.on_prefetch_evicted_unused(ev.line);
                        }
                    }
                    ctx.l1.fill(line, false);
                    beyond_l2
                }
            }
        };
        clock.lap(stage::CACHE_ACCESS);

        // Train the prefetcher and issue its requests.
        let ctx = &mut self.cores[i];
        let access = L2Access {
            pc,
            line,
            hit,
            cycle: t,
            instructions: ctx.core.instructions(),
            kind,
        };
        let (train, issue) = ctx.l2_stages;
        ctx.prefetcher.train(&access, &mut ctx.queue);
        clock.lap(train);
        self.issue_prefetches(i, t, false);
        clock.lap(issue);
        latency
    }

    /// Takes the sampled readings at an L2 demand access of core `i` at
    /// cycle `t`: the DRAM channel backlog and core `i`'s MSHR fill as
    /// occupancy tracks for the Perfetto timeline, and the backlog as the
    /// black box's memory epoch summary, each when its sink is live.
    #[cold]
    fn sample(&self, i: usize, t: u64) {
        mab_telemetry::emit!(Occupancy {
            track: "dram_backlog",
            id: 0,
            value: self.dram.backlog(t),
            cycle: t,
        });
        mab_telemetry::emit!(Occupancy {
            track: "mshr",
            id: i,
            value: self.cores[i].mshr.len() as f64,
            cycle: t,
        });
        if mab_telemetry::blackbox::is_on() {
            mab_telemetry::blackbox::epoch(
                "mem",
                self.l2_accesses / OCCUPANCY_SAMPLE_PERIOD,
                t,
                self.dram.backlog(t),
            );
        }
    }

    /// Issues the requests queued by core `i`'s L2 prefetcher or, with
    /// `l1`, by its L1 prefetcher, whose lines already in L2 fill the L1
    /// directly and whose memory fills go to L1 and L2.
    fn issue_prefetches(&mut self, i: usize, t: u64, l1: bool) {
        let ctx = &mut self.cores[i];
        let queue = if l1 {
            &mut ctx.l1_queue
        } else {
            &mut ctx.queue
        };
        if queue.is_empty() {
            return;
        }
        let mut requests = std::mem::take(&mut ctx.req_scratch);
        queue.drain_into(&mut requests);
        let llc_lat =
            self.config.l1.latency + self.config.l2.latency + self.config.llc_per_core.latency;
        let cap = self.config.prefetch_queue;
        ctx.pf.requested += requests.len() as u64;
        for &line in &requests {
            if l1 && ctx.l1.contains(line) {
                continue;
            }
            if ctx.l2.contains(line) {
                if l1 {
                    ctx.l1.fill(line, true);
                }
                continue;
            }
            if ctx.mshr.get(line).is_some() {
                continue; // already in flight
            }
            if ctx.mshr.len() >= cap {
                ctx.pf.dropped += 1;
                continue;
            }
            let fill_latency = if self.llc.contains(line) {
                llc_lat as u64
            } else {
                // Prefetch also fills the LLC and consumes DRAM bandwidth.
                let dram_lat = self.dram.access(t + llc_lat as u64);
                self.llc.fill(line, false);
                llc_lat as u64 + dram_lat
            };
            ctx.mshr.insert(line, t + fill_latency, l1);
            ctx.pf.issued += 1;
        }
        ctx.req_scratch = requests;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::suites;

    /// A degree-4 next-line prefetcher for testing the hook plumbing.
    struct TestNextLine;

    impl Prefetcher for TestNextLine {
        fn name(&self) -> &str {
            "test-nl"
        }
        fn train(&mut self, access: &L2Access, queue: &mut PrefetchQueue) {
            for d in 1..=4 {
                queue.push(access.line + d);
            }
        }
    }

    /// A word-granular streaming trace: one load every 3rd instruction,
    /// eight consecutive words per cache line.
    fn stream_trace() -> impl Iterator<Item = TraceRecord> {
        (0u64..).map(|i| {
            if i % 3 == 0 {
                let access = i / 3;
                TraceRecord::load(0x400, (access / 8) * 64 + (access % 8) * 8)
            } else {
                TraceRecord::alu(0x500 + (i % 8) * 4)
            }
        })
    }

    #[test]
    fn runs_the_requested_instruction_count() {
        let mut sys = System::single_core(SystemConfig::default());
        let stats = sys.run(&mut stream_trace(), 10_000);
        assert_eq!(stats.instructions, 10_000);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn next_line_prefetcher_improves_streaming_ipc() {
        let base = {
            let mut sys = System::single_core(SystemConfig::default());
            sys.run(&mut stream_trace(), 60_000).ipc()
        };
        let with_pf = {
            let mut sys = System::single_core(SystemConfig::default());
            sys.set_prefetcher(0, Box::new(TestNextLine));
            sys.run(&mut stream_trace(), 60_000).ipc()
        };
        assert!(
            with_pf > base * 1.05,
            "prefetching should help streaming: {base} -> {with_pf}"
        );
    }

    #[test]
    fn prefetches_are_classified() {
        let mut sys = System::single_core(SystemConfig::default());
        sys.set_prefetcher(0, Box::new(TestNextLine));
        let stats = sys.run(&mut stream_trace(), 60_000);
        assert!(stats.prefetch.issued > 100);
        assert!(
            stats.prefetch.timely + stats.prefetch.late > 0,
            "stream prefetches are useful: {:?}",
            stats.prefetch
        );
    }

    #[test]
    fn small_footprint_stays_cache_resident() {
        // 16 lines fit in L1: after warmup, everything hits.
        let mut trace = (0u64..).map(|i| TraceRecord::load(0x400, (i % 16) * 64));
        let mut sys = System::single_core(SystemConfig::default());
        let stats = sys.run(&mut trace, 20_000);
        assert!(stats.l1.demand_hits > 19_000, "{:?}", stats.l1);
        assert!(stats.ipc() > 2.0, "ipc {}", stats.ipc());
    }

    #[test]
    fn huge_random_footprint_misses_llc() {
        let app = suites::app_by_name("canneal").unwrap();
        let mut sys = System::single_core(SystemConfig::default());
        let stats = sys.run(&mut app.trace(1), 100_000);
        assert!(stats.llc.demand_misses > 1_000, "{:?}", stats.llc);
    }

    #[test]
    fn lower_bandwidth_lowers_ipc() {
        let run = |mtps: u64| {
            let app = suites::app_by_name("lbm").unwrap();
            let mut sys = System::single_core(SystemConfig::default().with_dram_mtps(mtps));
            sys.run(&mut app.trace(1), 100_000).ipc()
        };
        let slow = run(150);
        let fast = run(9600);
        assert!(fast > slow * 1.2, "slow {slow} fast {fast}");
    }

    #[test]
    fn four_core_run_returns_per_core_stats() {
        let cfg = SystemConfig::default();
        let mut sys = System::multi_core(cfg, 4);
        let app = suites::app_by_name("milc").unwrap();
        let mut t0 = app.trace(1);
        let mut t1 = app.trace(2);
        let mut t2 = app.trace(3);
        let mut t3 = app.trace(4);
        let mut traces: Vec<&mut dyn Iterator<Item = TraceRecord>> =
            vec![&mut t0, &mut t1, &mut t2, &mut t3];
        let stats = sys.run_multi(&mut traces, 20_000);
        assert_eq!(stats.len(), 4);
        for s in &stats {
            assert_eq!(s.instructions, 20_000);
            assert!(s.ipc() > 0.0);
        }
    }

    #[test]
    fn shared_dram_creates_contention() {
        let app = suites::app_by_name("lbm").unwrap();
        let single_ipc = {
            let mut sys = System::single_core(SystemConfig::default());
            sys.run(&mut app.trace(1), 50_000).ipc()
        };
        let four_ipc = {
            let mut sys = System::multi_core(SystemConfig::default(), 4);
            let mut ts: Vec<_> = (0..4).map(|i| app.trace(i as u64 + 1)).collect();
            let mut traces: Vec<&mut dyn Iterator<Item = TraceRecord>> = ts
                .iter_mut()
                .map(|t| t as &mut dyn Iterator<Item = TraceRecord>)
                .collect();
            let stats = sys.run_multi(&mut traces, 50_000);
            stats[0].ipc()
        };
        assert!(
            four_ipc < single_ipc,
            "sharing bandwidth hurts: {single_ipc} vs {four_ipc}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = System::multi_core(SystemConfig::default(), 0);
    }
}
