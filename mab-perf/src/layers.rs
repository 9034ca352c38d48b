//! Per-layer metrics from the traced passes, and the span file.
//!
//! Host time is split into each layer's *self* time:
//!
//! - `workloads`, `traces` and `prefetch` are the sampled probe estimates
//!   at their boundaries (plus whole-call timings of trace decode and
//!   recording);
//! - `core` is the bandit agent: its steps times the per-step cost of a
//!   replay on a fresh agent, carved out of `prefetch` (memsim arms) or
//!   `smtsim` (SMT arms), whose calls it runs inside;
//! - `memsim` and `smtsim` are each arm's wall time minus its children and
//!   minus the clock reads of the timed calls;
//! - `runner` is worker time inside a sweep that no arm accounts for,
//!   idle tail excluded.
//!
//! The shares divide by process CPU time over the traced passes, so
//! `trace.cpu_unattributed_frac` is what no layer accounts for.

use crate::probe::{instant_ns, stamp, Site, Tally};
use crate::report::{median, ratio, Metrics};
use crate::workload::{Pass, Stats, SweepRecord, JOBS};
use mab_ledger::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// L2 prefetchers whose train cost is reported by name.
const PREFETCHERS: [&str; 7] = [
    "none",
    "stride",
    "bingo",
    "mlop",
    "pythia",
    "bandit",
    "bandit-multicore",
];

/// Self time per layer, summed over the traced passes.
#[derive(Debug, Default)]
struct SelfTime {
    workloads: f64,
    traces: f64,
    memsim: f64,
    prefetch: f64,
    core: f64,
    smtsim: f64,
    runner: f64,
}

impl SelfTime {
    fn total(&self) -> f64 {
        self.workloads
            + self.traces
            + self.memsim
            + self.prefetch
            + self.core
            + self.smtsim
            + self.runner
    }
}

/// Runner accounting over a set of sweeps: (busy worker-ns, idle-tail
/// worker-ns, unaccounted worker-ns, arms).
fn runner_time(sweeps: &[SweepRecord]) -> (f64, f64, f64, usize) {
    let (mut busy, mut idle, mut other, mut arms) = (0.0, 0.0, 0.0, 0);
    for sweep in sweeps {
        let wall = (sweep.end - sweep.start).as_nanos() as f64;
        let arm_ns: f64 = sweep.arms.iter().map(|a| a.wall_ns as f64).sum();
        // A worker idles from its last finish to the sweep's end.
        let tail: f64 = (0..JOBS)
            .map(|w| {
                let last = sweep
                    .arms
                    .iter()
                    .filter(|a| a.worker == w)
                    .map(|a| a.finished)
                    .max()
                    .unwrap_or(sweep.start);
                sweep.end.saturating_duration_since(last).as_nanos() as f64
            })
            .sum();
        busy += arm_ns;
        idle += tail;
        other += (JOBS as f64 * wall - arm_ns - tail).max(0.0);
        arms += sweep.arms.len();
    }
    (busy, idle, other, arms)
}

/// The per-layer metrics of `traced` passes, with `untraced` passes of the
/// same process as the overhead baseline and `step_ns` the replayed cost
/// of one bandit step.
pub fn layer_metrics(traced: &[Pass], untraced: &[Pass], step_ns: f64) -> Metrics {
    let passes = traced.len().max(1) as f64;
    let clock = instant_ns() as f64;
    let mut sites: Vec<Tally> = vec![Tally::default(); Site::COUNT];
    let mut train_by_pf: BTreeMap<&str, Tally> = BTreeMap::new();
    let mut time = SelfTime::default();
    let (mut mem_instr, mut smt_cycles, mut steps, mut timed_calls) = (0.0, 0.0, 0.0, 0.0);
    let (mut records_written, mut record_bytes, mut record_self) = (0.0, 0.0, 0.0);
    let mut cpu = 0.0;
    let mut sweeps = Vec::new();
    for pass in traced {
        cpu += pass.cpu_s * 1e9;
        sweeps.extend(pass.sweeps.iter().cloned());
        for arm in &pass.traced {
            let t = &arm.tally;
            for (all, one) in sites.iter_mut().zip(&t.sites) {
                all.merge(one);
            }
            if let Some(pf) = arm.prefetcher {
                train_by_pf
                    .entry(pf)
                    .or_default()
                    .merge(t.site(Site::Train));
            }
            let wall = (arm.end - arm.start).as_nanos() as f64;
            let est = |s: Site| t.site(s).est_ns();
            let probes = 2.0 * clock * t.timed_calls() as f64;
            let arm_steps = arm.bandit.as_ref().map_or(0, |b| b.1) as f64;
            let core = arm_steps * step_ns;
            steps += arm_steps;
            time.core += core;
            time.workloads += est(Site::Gen);
            time.traces += est(Site::Replay);
            timed_calls += t.timed_calls() as f64;
            match &arm.stats {
                Stats::Mem(cores) => {
                    let pf = est(Site::Train) + est(Site::Callback);
                    time.prefetch += pf - core;
                    time.memsim += wall - est(Site::Gen) - est(Site::Replay) - pf - probes;
                    mem_instr += cores.iter().map(|s| s.instructions as f64).sum::<f64>();
                }
                Stats::Smt(s) => {
                    time.smtsim += wall - est(Site::Gen) - est(Site::Replay) - core - probes;
                    smt_cycles += s.cycles as f64;
                }
            }
        }
        if let Some(rec) = &pass.recording {
            let gen = rec.tally.site(Site::Gen);
            sites[Site::Gen as usize].merge(gen);
            time.workloads += gen.est_ns();
            let probes = 2.0 * clock * gen.timed as f64;
            record_self += rec.wall_ns as f64 - gen.est_ns() - probes;
            records_written += rec.records as f64;
            record_bytes += rec.bytes as f64;
            timed_calls += gen.timed as f64;
        }
    }
    time.traces += record_self;
    let (busy, idle, runner_other, arms) = runner_time(&sweeps);
    time.runner = runner_other;
    let site = |s: Site| &sites[s as usize];

    let mut m = Metrics::default();
    let share = |ns: f64| ratio(ns, cpu);
    let gen = site(Site::Gen);
    m.set(
        "workloads.gen_ns_per_record",
        ratio(time.workloads, gen.calls as f64),
        "ns",
    );
    m.set("workloads.records", gen.calls as f64 / passes, "count");
    m.set("workloads.share", share(time.workloads), "frac");

    let replay = site(Site::Replay);
    m.set(
        "traces.record_ns_per_record",
        ratio(record_self, records_written),
        "ns",
    );
    m.set(
        "traces.replay_ns_per_record",
        ratio(replay.est_ns(), replay.calls as f64),
        "ns",
    );
    m.set(
        "traces.bytes_per_record",
        ratio(record_bytes, records_written),
        "B",
    );
    m.set(
        "traces.records_replayed",
        replay.calls as f64 / passes,
        "count",
    );
    m.set("traces.share", share(time.traces), "frac");

    // Simulated statistics repeat exactly on every pass: take the first.
    let sim = SimCounts::of(
        traced
            .iter()
            .take(1)
            .flat_map(|p| &p.traced)
            .map(|a| &a.stats),
    );
    m.set(
        "memsim.self_ns_per_instr",
        ratio(time.memsim, mem_instr),
        "ns",
    );
    m.set("memsim.share", share(time.memsim), "frac");
    m.set("memsim.instructions", mem_instr / passes, "count");
    m.set("memsim.sim_cycles", sim.mem_cycles, "cycles");
    m.set(
        "memsim.l2_mpki",
        ratio(1000.0 * sim.l2_misses, sim.mem_instr),
        "1/kinstr",
    );
    m.set(
        "memsim.llc_mpki",
        ratio(1000.0 * sim.llc_misses, sim.mem_instr),
        "1/kinstr",
    );
    m.set(
        "memsim.dram_queue_delay_cycles",
        ratio(sim.dram_delay, sim.dram_transfers),
        "cycles",
    );

    let train = site(Site::Train);
    m.set("prefetch.train_calls", train.calls as f64 / passes, "count");
    m.set(
        "prefetch.train_ns_per_call",
        ratio(train.est_ns(), train.calls as f64),
        "ns",
    );
    for name in PREFETCHERS {
        let t = train_by_pf.get(name).cloned().unwrap_or_default();
        m.set(
            &format!("prefetch.train_ns_per_call.{name}"),
            ratio(t.est_ns(), t.calls as f64),
            "ns",
        );
    }
    m.set(
        "prefetch.callbacks",
        site(Site::Callback).calls as f64 / passes,
        "count",
    );
    m.set("prefetch.share", share(time.prefetch), "frac");
    m.set(
        "prefetch.useful_frac",
        ratio(sim.pf_useful, sim.pf_issued),
        "frac",
    );
    m.set(
        "prefetch.dropped_frac",
        ratio(sim.pf_dropped, sim.pf_issued + sim.pf_dropped),
        "frac",
    );

    m.set("core.steps", steps / passes, "count");
    m.set("core.step_ns", step_ns, "ns");
    m.set("core.share", share(time.core), "frac");

    let controller = site(Site::Controller);
    m.set(
        "smtsim.self_ns_per_cycle",
        ratio(time.smtsim, smt_cycles),
        "ns",
    );
    m.set("smtsim.share", share(time.smtsim), "frac");
    m.set(
        "smtsim.controller_ns_per_epoch",
        ratio(controller.est_ns(), controller.calls as f64),
        "ns",
    );
    m.set("smtsim.epochs", controller.calls as f64 / passes, "count");
    m.set("smtsim.cycles", sim.smt_cycles, "cycles");
    m.set("smtsim.commits", sim.smt_commits, "count");
    m.set(
        "smtsim.rename_stalled_frac",
        ratio(sim.rename_stalled, sim.rename_total),
        "frac",
    );
    m.set(
        "smtsim.rename_idle_frac",
        ratio(sim.rename_idle, sim.rename_total),
        "frac",
    );

    let sweep_ns: f64 = sweeps
        .iter()
        .map(|s| JOBS as f64 * (s.end - s.start).as_nanos() as f64)
        .sum();
    m.set("runner.jobs", JOBS as f64, "count");
    m.set("runner.arms", arms as f64 / passes, "count");
    m.set("runner.busy_frac", ratio(busy, sweep_ns), "frac");
    m.set("runner.tail_idle_ms", idle / 1e6 / passes, "ms");
    m.set(
        "runner.overhead_us_per_arm",
        ratio(runner_other / 1e3, arms as f64),
        "us",
    );
    m.set("runner.share", share(time.runner), "frac");

    let traced_wall = median(&traced.iter().map(|p| p.work_s()).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|p| p.work_s()).collect::<Vec<_>>());
    m.set(
        "trace.overhead_frac",
        ratio(traced_wall, untraced_wall) - 1.0,
        "frac",
    );
    m.set(
        "trace.cpu_unattributed_frac",
        1.0 - ratio(time.total(), cpu),
        "frac",
    );
    m.set("trace.instant_ns", clock, "ns");
    m.set("trace.timed_calls", timed_calls / passes, "count");
    m.set("process.cpu_s", cpu / 1e9 / passes, "s");
    m
}

/// Simulated totals of one pass: identical under any speed-only change.
#[derive(Debug, Default)]
struct SimCounts {
    mem_instr: f64,
    mem_cycles: f64,
    l2_misses: f64,
    llc_misses: f64,
    dram_delay: f64,
    dram_transfers: f64,
    pf_issued: f64,
    pf_useful: f64,
    pf_dropped: f64,
    smt_cycles: f64,
    smt_commits: f64,
    rename_stalled: f64,
    rename_idle: f64,
    rename_total: f64,
}

impl SimCounts {
    fn of<'a>(stats: impl Iterator<Item = &'a Stats>) -> SimCounts {
        let mut c = SimCounts::default();
        for s in stats {
            match s {
                Stats::Mem(cores) => {
                    for r in cores {
                        c.mem_instr += r.instructions as f64;
                        c.mem_cycles += r.cycles as f64;
                        c.l2_misses += r.l2.demand_misses as f64;
                        c.pf_issued += r.prefetch.issued as f64;
                        c.pf_useful += (r.prefetch.timely + r.prefetch.late) as f64;
                        c.pf_dropped += r.prefetch.dropped as f64;
                    }
                    // LLC and DRAM are shared: every core reports the same
                    // system-wide counters.
                    c.llc_misses += cores[0].llc.demand_misses as f64;
                    c.dram_delay += cores[0].dram.total_queue_delay;
                    c.dram_transfers += cores[0].dram.transfers as f64;
                }
                Stats::Smt(r) => {
                    c.smt_cycles += r.cycles as f64;
                    c.smt_commits += (r.commits[0] + r.commits[1]) as f64;
                    c.rename_stalled += r.rename.stalled() as f64;
                    c.rename_idle += r.rename.idle as f64;
                    c.rename_total += r.rename.total() as f64;
                }
            }
        }
        c
    }
}

/// Writes the spans of one traced pass to `path` as JSON: the pass, each
/// arm under it, each probed site's estimated time under its arm (named
/// `<layer>.<site>`; the simulator's self time is the arm minus these), and
/// the first few sampled calls under each site. Site spans are aggregates:
/// they start with their arm and last as long as the estimate.
pub fn write_spans(path: &Path, workload: &str, seed: u64, pass: &Pass) -> std::io::Result<()> {
    let mut out = String::new();
    let mut next_id = 1u64;
    let mut span = |out: &mut String, parent: u64, name: &str, start: u64, dur: f64, calls: u64| {
        let id = next_id;
        next_id += 1;
        if !out.is_empty() {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {start}, \
             \"dur_ns\": {}, \"calls\": {calls}}}",
            json::escape(name),
            dur.max(0.0).round()
        );
        id
    };
    let pass_start = pass.start_ns;
    let pass_id = span(&mut out, 0, "pass", pass_start, pass.wall_s * 1e9, 0);
    if let Some(rec) = &pass.recording {
        let rec_id = span(
            &mut out,
            pass_id,
            "traces.record",
            pass_start,
            rec.wall_ns as f64,
            0,
        );
        layer_spans(&mut out, &mut span, rec_id, pass_start, &rec.tally.sites);
    }
    for arm in &pass.traced {
        let start = stamp(arm.start);
        let wall = (arm.end - arm.start).as_nanos() as f64;
        let arm_id = span(
            &mut out,
            pass_id,
            &format!("arm {}", arm.label),
            start,
            wall,
            1,
        );
        layer_spans(&mut out, &mut span, arm_id, start, &arm.tally.sites);
    }
    std::fs::write(
        path,
        format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n{out}\n]}}\n"),
    )
}

fn layer_spans(
    out: &mut String,
    span: &mut impl FnMut(&mut String, u64, &str, u64, f64, u64) -> u64,
    parent: u64,
    start: u64,
    sites: &[Tally],
) {
    for (site, tally) in Site::ALL.into_iter().zip(sites) {
        if tally.calls == 0 && tally.direct_ns == 0 {
            continue;
        }
        let name = format!("{}.{}", site.layer(), site.name());
        let id = span(out, parent, &name, start, tally.est_ns(), tally.calls);
        for &(s, d) in &tally.spans {
            span(out, id, "call", s, d as f64, 1);
        }
    }
}
