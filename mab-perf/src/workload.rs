//! The four workloads: their inputs, and one pass of each, untraced or
//! traced.
//!
//! An untraced pass calls the experiment runners exactly as the experiment
//! binaries do. A traced pass repeats the few-line bodies of those runners
//! with the probes of [`crate::probe`] inserted at the layer boundaries, so
//! it must produce the same simulated statistics; the digest check in
//! `main` holds it to that.

use crate::calibrate::Part;
use crate::probe::{stamp, ArmTally, Sink, Site, TimedController, TimedIter, TimedPrefetcher};
use mab_core::{AlgorithmKind, BanditConfig};
use mab_experiments::traces::{MemSource, TraceStore};
use mab_experiments::{prefetch_runs, smt_runs};
use mab_memsim::{RunStats, System, SystemConfig};
use mab_prefetch::bandit_l2::PAPER_STEP_ACCESSES;
use mab_prefetch::{catalog, BanditL2};
use mab_runner::observe::ArmEvent;
use mab_smtsim::pipeline::{SmtStream, THREAD1_SEED_SALT};
use mab_smtsim::{ChoiController, PgPolicy, SmtParams, SmtPipeline, SmtStats, StaticPgController};
use mab_traces::{MemCodec, TraceMeta, Writer};
use mab_workloads::apps::AppSpec;
use mab_workloads::smt::ThreadSpec;
use mab_workloads::TraceRecord;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A benchmark workload. Each one does most of the work of some layer and
/// little of another; README.md gives the reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PrefetchLineup,
    SmtMixes,
    FourcoreShared,
    TraceReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PrefetchLineup,
        Workload::SmtMixes,
        Workload::FourcoreShared,
        Workload::TraceReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PrefetchLineup => "prefetch_lineup",
            Workload::SmtMixes => "smt_mixes",
            Workload::FourcoreShared => "fourcore_shared",
            Workload::TraceReplay => "trace_replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sweep workers. One: with two on a 2-vCPU shared host every arm also
/// measures what the neighbours do with the second core, and with one a
/// pass's wall time is the sum of its parts, each with a host-speed
/// reading taken on the core that runs it, which `main` relies on.
pub const JOBS: usize = 1;

/// How much one pass simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub label: &'static str,
    /// Applications used (all 34 at full size).
    apps: usize,
    /// Instructions per single-core run.
    instructions: u64,
    /// Instructions per core of a four-core run.
    four_core_instructions: u64,
    /// Two-thread mixes used.
    mixes: usize,
    /// Commits per thread of an SMT run.
    commits: u64,
}

pub const FULL: Size = Size {
    label: "full",
    apps: usize::MAX,
    instructions: 400_000,
    four_core_instructions: 100_000,
    mixes: 34,
    commits: 60_000,
};

/// Tiny passes for the smoke test: same code paths, milliseconds each.
pub const SMOKE: Size = Size {
    label: "smoke",
    apps: 2,
    instructions: 20_000,
    four_core_instructions: 2_000,
    mixes: 1,
    commits: 2_000,
};

impl Size {
    /// The warm-up of a run's set-up: the first application or mix only,
    /// at this size's arm lengths, so every code path and lazy table is
    /// touched once.
    pub fn warmup(self) -> Size {
        Size {
            apps: 1,
            mixes: 1,
            ..self
        }
    }
}

/// The SMT Bandit of Fig. 13 and Table 9.
const SMT_BANDIT: AlgorithmKind = AlgorithmKind::Ducb {
    gamma: 0.975,
    c: 0.01,
};

/// What one sweep arm runs.
#[derive(Debug, Clone, Copy)]
enum Arm {
    Single {
        app: usize,
        prefetcher: &'static str,
    },
    FourCore {
        app: usize,
        prefetcher: &'static str,
    },
    Mix {
        mix: usize,
        controller: Controller,
    },
}

#[derive(Debug, Clone, Copy)]
enum Controller {
    Choi,
    /// `IC_0000` with Hill Climbing.
    Icount,
    Bandit,
}

/// The simulated statistics of one arm.
#[derive(Debug, Clone, PartialEq)]
pub enum Stats {
    /// One entry per core.
    Mem(Vec<RunStats>),
    Smt(SmtStats),
}

impl Stats {
    /// Simulated instructions: all cores, or both threads' commits.
    pub fn instructions(&self) -> u64 {
        match self {
            Stats::Mem(cores) => cores.iter().map(|s| s.instructions).sum(),
            Stats::Smt(s) => s.commits.iter().sum(),
        }
    }
}

/// One completed arm as the runner's observer saw it.
#[derive(Debug, Clone, Copy)]
pub struct ArmSample {
    pub worker: usize,
    pub wall_ns: u64,
    pub finished: Instant,
}

/// One `mab_runner::sweep` call.
#[derive(Debug, Clone)]
pub struct SweepRecord {
    pub start: Instant,
    pub end: Instant,
    pub arms: Vec<ArmSample>,
}

static ARM_LOG: Mutex<Vec<ArmSample>> = Mutex::new(Vec::new());

/// Registers the process's arm observer (once): per-arm host latency comes
/// from the runner's own `ArmFinish` events.
pub fn observe_arms() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        mab_runner::add_observer(Arc::new(|event: &ArmEvent| {
            if let ArmEvent::ArmFinish(obs) = event {
                let sample = ArmSample {
                    worker: obs.worker,
                    wall_ns: obs.wall_ns,
                    finished: Instant::now(),
                };
                ARM_LOG.lock().expect("arm log lock").push(sample);
            }
        }));
    });
}

/// One arm of a traced pass.
#[derive(Debug)]
pub struct TracedArm {
    pub label: String,
    pub stats: Stats,
    pub start: Instant,
    pub end: Instant,
    pub tally: ArmTally,
    pub prefetcher: Option<&'static str>,
    /// The bandit agent's configuration and completed steps, if the arm
    /// ran one.
    pub bandit: Option<(BanditConfig, u64)>,
}

/// The traced recording of a `trace_replay` cold round.
#[derive(Debug, Default)]
pub struct Recording {
    pub wall_ns: u64,
    pub records: u64,
    pub bytes: u64,
    /// Generator probes inside the recording loop.
    pub tally: ArmTally,
}

/// The result of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Start, in ns since the process's span epoch.
    pub start_ns: u64,
    pub wall_s: f64,
    /// Process CPU seconds spent in the pass.
    pub cpu_s: f64,
    /// Digest of the arms' statistics in spec order (for `trace_replay`,
    /// of one round; the rounds must agree).
    pub digest: u64,
    /// Statistics of one round, in spec order.
    pub stats: Vec<Stats>,
    pub arms_attempted: usize,
    pub arms_failed: usize,
    pub failures: Vec<String>,
    pub sweeps: Vec<SweepRecord>,
    /// The timed parts of an untraced pass in execution order, which is the
    /// same in every complete pass: for `trace_replay` each application's
    /// recording, then the cold round's arms and the warm round's.
    pub parts: Vec<Part>,
    /// Simulated instructions over all rounds.
    pub instructions: u64,
    /// Present for traced passes.
    pub traced: Vec<TracedArm>,
    pub recording: Option<Recording>,
}

impl Pass {
    /// Wall seconds less the host-speed readings: the pass's own work.
    pub fn work_s(&self) -> f64 {
        self.wall_s - self.parts.iter().map(|p| p.reading_s).sum::<f64>()
    }
}

/// A workload's inputs, built from the seed.
pub struct Plan {
    workload: Workload,
    seed: u64,
    size: Size,
    apps: Vec<AppSpec>,
    mixes: Vec<[ThreadSpec; 2]>,
    arms: Vec<Arm>,
    config: SystemConfig,
    params: SmtParams,
    /// Parent of the per-pass trace directories.
    scratch: PathBuf,
    passes: u32,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, size: Size, scratch: PathBuf) -> Plan {
        let apps: Vec<AppSpec> = mab_workloads::suites::all_apps()
            .into_iter()
            .take(size.apps)
            .collect();
        let mixes: Vec<[ThreadSpec; 2]> =
            mab_workloads::smt::two_thread_mixes(&mab_workloads::smt::smt_apps())
                .into_iter()
                .take(size.mixes)
                .map(|(a, b)| [a, b])
                .collect();
        let per_app = |prefetchers: &[&'static str], four: bool| -> Vec<Arm> {
            (0..apps.len())
                .flat_map(|app| {
                    prefetchers.iter().map(move |&prefetcher| {
                        if four {
                            Arm::FourCore { app, prefetcher }
                        } else {
                            Arm::Single { app, prefetcher }
                        }
                    })
                })
                .collect()
        };
        let arms = match workload {
            Workload::PrefetchLineup => per_app(&catalog::L2_LINEUP, false),
            Workload::FourcoreShared => per_app(&["none", "stride", "bandit-multicore"], true),
            Workload::TraceReplay => per_app(&["none", "stride"], false),
            Workload::SmtMixes => (0..mixes.len())
                .flat_map(|mix| {
                    [Controller::Choi, Controller::Icount, Controller::Bandit]
                        .map(|controller| Arm::Mix { mix, controller })
                })
                .collect(),
        };
        Plan {
            workload,
            seed,
            size,
            apps,
            mixes,
            arms,
            config: SystemConfig::default(),
            params: smt_runs::scaled_params(),
            scratch,
            passes: 0,
        }
    }

    /// For `trace_replay`, an untimed round of the same arms straight from
    /// the generators, so that replay is checked against generator mode;
    /// `None` for the other workloads, which never replay.
    pub fn generator_pass(&mut self) -> Option<Pass> {
        if self.workload != Workload::TraceReplay {
            return None;
        }
        let mut pass = Pass::default();
        pass.digest = self.round(&mut pass, &TraceStore::disabled(), false);
        Some(pass)
    }

    /// One pass, with the layer probes when `traced`.
    pub fn pass(&mut self, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let cpu0 = crate::report::process_cpu_s();
        let start = Instant::now();
        pass.start_ns = stamp(start);
        let dir = if self.workload == Workload::TraceReplay {
            self.passes += 1;
            let dir = self.scratch.join(format!("pass-{}", self.passes));
            std::fs::remove_dir_all(&dir).ok();
            // Cold round: record every app's trace serially (as
            // `normalized_ipcs` does before fanning out), then run the arms
            // on the store. Warm round: a new store over the same files
            // replays them (read + decode only).
            let store = TraceStore::new(Some(dir.clone()));
            if traced {
                match self.traced_recording(&dir, &store) {
                    Ok(recording) => pass.recording = Some(recording),
                    Err(e) => pass.failures.push(e),
                }
            } else {
                for app in &self.apps {
                    let ((), part) = self.timed(false, || {
                        store.ensure_mem(app, self.seed, self.size.instructions)
                    });
                    pass.parts.push(part);
                }
            }
            let cold_digest = self.round(&mut pass, &store, traced);
            let cold = std::mem::take(&mut pass.stats);
            let warm_digest = self.round(&mut pass, &TraceStore::new(Some(dir.clone())), traced);
            if cold_digest != warm_digest {
                pass.arms_failed += cold.iter().zip(&pass.stats).filter(|(c, w)| c != w).count();
                pass.failures.push(format!(
                    "warm replay digest {warm_digest:#018x} differs from the cold round's {cold_digest:#018x}"
                ));
            }
            pass.stats = cold;
            pass.digest = cold_digest;
            Some(dir)
        } else {
            pass.digest = self.round(&mut pass, &TraceStore::disabled(), traced);
            None
        };
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.cpu_s = crate::report::process_cpu_s() - cpu0;
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir).ok();
        }
        pass
    }

    /// Runs every arm once through `mab_runner::sweep` and adds the
    /// outcome to `pass`; returns the round's digest.
    fn round(&self, pass: &mut Pass, store: &TraceStore, traced: bool) -> u64 {
        let opts = mab_runner::SweepOptions::new(JOBS, self.seed);
        ARM_LOG.lock().expect("arm log lock").clear();
        let start = Instant::now();
        let result = if traced {
            mab_runner::sweep(&self.arms, opts, |_, arm| self.traced_arm(arm, store)).map(|arms| {
                let stats = arms.iter().map(|a| a.stats.clone()).collect::<Vec<_>>();
                pass.traced.extend(arms);
                stats
            })
        } else {
            mab_runner::sweep(&self.arms, opts, |_, arm| {
                self.timed(true, || self.run_arm(arm, store))
            })
            .map(|arms| {
                let (stats, parts): (Vec<_>, Vec<_>) = arms.into_iter().unzip();
                pass.parts.extend(parts);
                stats
            })
        };
        let end = Instant::now();
        let arms = std::mem::take(&mut *ARM_LOG.lock().expect("arm log lock"));
        pass.sweeps.push(SweepRecord { start, end, arms });
        pass.arms_attempted += self.arms.len();
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                // The sweep abandoned its remaining arms: count them all.
                pass.arms_failed += self.arms.len();
                pass.failures.push(e.to_string());
                return 0;
            }
        };
        let mut digest = crate::report::Fnv::new();
        for (arm, s) in self.arms.iter().zip(&stats) {
            if let Err(e) = self.sanity(s) {
                pass.arms_failed += 1;
                pass.failures.push(format!("{}: {e}", self.label(arm)));
            }
            crate::report::fold_stats(&mut digest, s);
            pass.instructions += s.instructions();
        }
        pass.stats = stats;
        digest.finish()
    }

    /// Reads the host speed, then runs and times `work`.
    fn timed<T>(&self, arm: bool, work: impl FnOnce() -> T) -> (T, Part) {
        let reading_s = crate::calibrate::read();
        let start = Instant::now();
        let out = work();
        let host_s = start.elapsed().as_secs_f64();
        (
            out,
            Part {
                host_s,
                reading_s,
                arm,
            },
        )
    }

    /// Checks what every correct run must satisfy.
    fn sanity(&self, stats: &Stats) -> Result<(), String> {
        match stats {
            Stats::Mem(cores) => {
                let budget = if cores.len() == 1 {
                    self.size.instructions
                } else {
                    self.size.four_core_instructions
                };
                for s in cores {
                    if s.instructions != budget {
                        return Err(format!("{} instructions, budget {budget}", s.instructions));
                    }
                    if !(s.ipc().is_finite() && s.ipc() > 0.0) {
                        return Err(format!("IPC {}", s.ipc()));
                    }
                }
            }
            Stats::Smt(s) => {
                if s.commits.iter().any(|&c| c < self.size.commits) {
                    return Err(format!(
                        "commits {:?}, target {}",
                        s.commits, self.size.commits
                    ));
                }
                if !(s.sum_ipc().is_finite() && s.sum_ipc() > 0.0) {
                    return Err(format!("summed IPC {}", s.sum_ipc()));
                }
            }
        }
        Ok(())
    }

    fn label(&self, arm: &Arm) -> String {
        match *arm {
            Arm::Single { app, prefetcher } => format!("{}/{prefetcher}", self.apps[app].name),
            Arm::FourCore { app, prefetcher } => {
                format!("4x{}/{prefetcher}", self.apps[app].name)
            }
            Arm::Mix { mix, controller } => {
                let [a, b] = &self.mixes[mix];
                format!("{}+{}/{controller:?}", a.name, b.name)
            }
        }
    }

    /// One arm through the experiment runners, as the binaries call them.
    fn run_arm(&self, arm: &Arm, store: &TraceStore) -> Stats {
        let seed = self.seed;
        match *arm {
            Arm::Single { app, prefetcher } => Stats::Mem(vec![prefetch_runs::run_single(
                prefetcher,
                &self.apps[app],
                self.config,
                self.size.instructions,
                seed,
                store,
            )]),
            Arm::FourCore { app, prefetcher } => {
                Stats::Mem(prefetch_runs::run_four_core_homogeneous(
                    prefetcher,
                    &self.apps[app],
                    self.config,
                    self.size.four_core_instructions,
                    seed,
                    store,
                ))
            }
            Arm::Mix { mix, controller } => {
                let specs = self.mixes[mix].clone();
                let (params, commits) = (self.params, self.size.commits);
                Stats::Smt(match controller {
                    Controller::Choi => smt_runs::run_choi(specs, params, commits, seed, store),
                    Controller::Icount => {
                        smt_runs::run_static(PgPolicy::ICOUNT, specs, params, commits, seed, store)
                    }
                    Controller::Bandit => smt_runs::run_bandit_algorithm(
                        SMT_BANDIT, specs, params, commits, seed, store,
                    ),
                })
            }
        }
    }

    /// One arm with probes: the bodies of `prefetch_runs::run_single`,
    /// `prefetch_runs::run_four_core_homogeneous` and `smt_runs::run_mix`,
    /// with the prefetchers, record sources and controllers wrapped.
    fn traced_arm(&self, arm: &Arm, store: &TraceStore) -> TracedArm {
        let sink = Sink::default();
        let seed = self.seed;
        let start = Instant::now();
        let (stats, prefetcher, bandit) = match *arm {
            Arm::Single { app, prefetcher } => {
                let n = self.size.instructions;
                let mut system = System::single_core(self.config);
                system.set_prefetcher(
                    0,
                    Box::new(TimedPrefetcher::new(
                        catalog::build_l2(prefetcher, seed),
                        &sink,
                    )),
                );
                let mut source = timed_mem_source(store, &self.apps[app], seed, n, &sink);
                let stats = vec![system.run(&mut source, n)];
                let bandit = memsim_bandit(prefetcher, seed, &stats);
                (Stats::Mem(stats), Some(prefetcher), bandit)
            }
            Arm::FourCore { app, prefetcher } => {
                let n = self.size.four_core_instructions;
                let mut system = System::multi_core(self.config, 4);
                for core in 0..4 {
                    let inner = catalog::build_l2(prefetcher, seed + core as u64);
                    system.set_prefetcher(core, Box::new(TimedPrefetcher::new(inner, &sink)));
                }
                let mut traces: Vec<_> = (0..4)
                    .map(|i| timed_mem_source(store, &self.apps[app], seed + i as u64, n, &sink))
                    .collect();
                let mut dyn_traces: Vec<&mut dyn Iterator<Item = TraceRecord>> = traces
                    .iter_mut()
                    .map(|t| t as &mut dyn Iterator<Item = TraceRecord>)
                    .collect();
                let stats = system.run_multi(&mut dyn_traces, n);
                let bandit = memsim_bandit(prefetcher, seed, &stats);
                (Stats::Mem(stats), Some(prefetcher), bandit)
            }
            Arm::Mix { mix, controller } => {
                let specs = &self.mixes[mix];
                let commits = self.size.commits;
                let streams = [
                    timed_smt_stream(store.smt_stream(&specs[0], seed, commits), &sink),
                    timed_smt_stream(
                        store.smt_stream(&specs[1], seed.wrapping_add(THREAD1_SEED_SALT), commits),
                        &sink,
                    ),
                ];
                let mut pipe = SmtPipeline::with_streams(self.params, streams);
                let (stats, bandit) = match controller {
                    Controller::Choi => {
                        let mut c = TimedController::new(ChoiController::new(), &sink);
                        (pipe.run_with(&mut c, commits), None)
                    }
                    Controller::Icount => {
                        let policy = StaticPgController::new(PgPolicy::ICOUNT);
                        let mut c = TimedController::new(policy, &sink);
                        (pipe.run_with(&mut c, commits), None)
                    }
                    Controller::Bandit => {
                        let bandit = smt_runs::scaled_bandit(SMT_BANDIT, seed);
                        let mut c = TimedController::new(bandit, &sink);
                        let stats = pipe.run_with(&mut c, commits);
                        let agent = c.inner.agent();
                        (stats, Some((agent.config().clone(), agent.steps())))
                    }
                };
                (Stats::Smt(stats), None, bandit)
            }
        };
        // Every probe has been dropped with its system or pipeline, so the
        // sink holds the arm's complete tally.
        let end = Instant::now();
        let tally = std::mem::take(&mut *sink.lock().expect("arm sink lock"));
        TracedArm {
            label: self.label(arm),
            stats,
            start,
            end,
            tally,
            prefetcher,
            bandit,
        }
    }

    /// The cold round's recording with the generator probed: the body of
    /// `mab_traces::record_app_to_file`, writing to the path
    /// `TraceStore::ensure_mem` uses.
    fn traced_recording(&self, dir: &Path, store: &TraceStore) -> Result<Recording, String> {
        let sink = Sink::default();
        let n = self.size.instructions;
        let start = Instant::now();
        let mut recording = Recording::default();
        for app in &self.apps {
            let path = dir.join(format!("mem-{}-s{}.mabt", app.name, self.seed));
            let meta = TraceMeta::new(self.seed, format!("app:{}", app.name));
            let fail = |e: mab_traces::TraceError| format!("recording {}: {e}", path.display());
            let mut writer = Writer::<MemCodec>::create(&path, meta).map_err(fail)?;
            for record in TimedIter::new(app.trace(self.seed), Site::Gen, &sink).take(n as usize) {
                writer.push(&record).map_err(fail)?;
            }
            writer.finish().map_err(fail)?;
            recording.bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            recording.records += n;
            // Finds the file just written, or records a second copy if the
            // store names its files differently (caught below).
            store.ensure_mem(app, self.seed, n);
        }
        recording.wall_ns = start.elapsed().as_nanos() as u64;
        let files = std::fs::read_dir(dir).map_err(|e| e.to_string())?.count();
        if files != self.apps.len() {
            return Err(format!(
                "traced recording wrote {} files but the store holds {files}: \
                 TraceStore's file naming changed",
                self.apps.len()
            ));
        }
        recording.tally = std::mem::take(&mut *sink.lock().expect("recording sink lock"));
        Ok(recording)
    }
}

/// `store.mem_source` with its construction (a generator's set-up or a
/// trace's bulk decode) timed whole and its records probed.
fn timed_mem_source(
    store: &TraceStore,
    app: &AppSpec,
    seed: u64,
    n: u64,
    sink: &Sink,
) -> TimedIter<MemSource> {
    let t0 = Instant::now();
    let source = store.mem_source(app, seed, n);
    let ns = t0.elapsed().as_nanos() as u64;
    let site = match source {
        MemSource::Generated(_) => Site::Gen,
        MemSource::Replay { .. } => Site::Replay,
    };
    sink.lock()
        .expect("arm sink lock")
        .site_mut(site)
        .add_direct(ns);
    TimedIter::new(source, site, sink)
}

/// An SMT thread's stream behind a probe (always the boxed variant).
fn timed_smt_stream(stream: SmtStream, sink: &Sink) -> SmtStream {
    match stream {
        SmtStream::Generated(g) => SmtStream::Boxed(Box::new(TimedIter::new(g, Site::Gen, sink))),
        SmtStream::Boxed(b) => SmtStream::Boxed(Box::new(TimedIter::new(b, Site::Replay, sink))),
    }
}

/// The agent configuration and step count of a memsim Bandit arm. The
/// agent observes one reward every `PAPER_STEP_ACCESSES` L2 demand
/// accesses, so the steps follow from the statistics.
fn memsim_bandit(prefetcher: &str, seed: u64, stats: &[RunStats]) -> Option<(BanditConfig, u64)> {
    let config = match prefetcher {
        "bandit" => BanditL2::paper_default(seed).agent().config().clone(),
        "bandit-multicore" => BanditL2::paper_multicore(seed).agent().config().clone(),
        _ => return None,
    };
    let steps = stats
        .iter()
        .map(|s| s.l2_demand_accesses() / u64::from(PAPER_STEP_ACCESSES))
        .sum();
    Some((config, steps))
}

/// Host ns per bandit step (`select_arm` + `observe_reward`), measured by
/// replaying each arm's step count on a fresh agent with its configuration.
pub fn replay_bandit_steps(arms: &[TracedArm]) -> f64 {
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let (mut steps, mut ns) = (0u64, 0u64);
    for (config, n) in arms.iter().filter_map(|a| a.bandit.as_ref()) {
        let mut agent = mab_core::BanditAgent::new(config.clone());
        let start = Instant::now();
        for _ in 0..*n {
            std::hint::black_box(agent.select_arm());
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            agent.observe_reward(0.5 + (rng % 1000) as f64 / 1000.0);
        }
        ns += start.elapsed().as_nanos() as u64;
        steps += n;
    }
    if steps == 0 {
        0.0
    } else {
        ns as f64 / steps as f64
    }
}
