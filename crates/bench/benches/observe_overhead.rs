//! Observation-layer overhead benchmark: one paired off/on harness for
//! every switch that turns an observation layer on.
//!
//! - `recorder` flips `mab_telemetry::set_recording`, on memsim and smtsim;
//! - `profiler` flips `profile::set_enabled`, on memsim and smtsim run
//!   inside `profile::collect_run` as `mab_runner::sweep` drives them;
//! - `monitor` starts a `mab-monitor` server with its runner observer, an
//!   SSE subscriber and a `/metrics` + `/status` scraper, on a 16-arm,
//!   2-job sweep;
//! - `blackbox` flips `blackbox::set_enabled`, on memsim and smtsim.
//!
//! `memsim` is a short single-core run with the bandit L2 prefetcher (the
//! densest instrumentation: cache, MSHR, DRAM, prefetch train/issue, one
//! decision per bandit step); `smtsim` is a short two-thread run under the
//! bandit PG controller (fetch/epoch probes, per-stage leaves). Simulator
//! throughput is what the layers must protect, so every switch is gated at
//! a 5% overhead budget on its workloads.
//!
//! Every (switch, workload) cell runs as *adjacent pairs*: an off-sample
//! immediately followed by an on-sample, each long enough to integrate
//! noise ([`Switch::sample_ms`], iteration count calibrated on the slower
//! on side). A pair's overhead is its ratio, and the reported overhead is
//! the median over all pairs, so frequency and load drift on a timescale
//! longer than one pair cancels out of every ratio — a ~2% effect stays
//! measurable on a small or busy host.
//!
//! The bare agent decision loop is also measured under the recorder switch
//! and reported as an absolute per-step probe cost. It is deliberately not
//! gated: one agent step costs tens of nanoseconds and, in every real run,
//! happens once per thousand simulated L2 accesses — a relative bound on
//! the bare loop would say nothing about simulator throughput.
//!
//! Build modes. With `--features telemetry` all four switches are measured.
//! Without it the recorder and profiler probes compile away (nothing to
//! measure), and only the black box — compiled into every build — is
//! measured and gated; the monitor is gated in the feature build, where the
//! recorder it reports from is live.
//!
//! Either run rewrites the flat `BENCH_observe_overhead.json` at the repo
//! root (`telemetry_feature` records the mode; ingest it with `mab-inspect
//! ingest`, gate it with `mab-inspect regress`) and echoes it to stdout;
//! the process exits 1 when any switch exceeds its budget.
//!
//! Run with: `cargo bench -p mab-bench --bench observe_overhead
//! [--features telemetry]`

use mab_bench::{median, ns_per_call, BenchReport};
use mab_core::{AlgorithmKind, BanditAgent, BanditConfig};
use mab_memsim::{config::SystemConfig, System};
use mab_monitor::{client, Monitor, RunInfo};
use mab_prefetch::BanditL2;
use mab_runner::{sweep, SweepOptions};
use mab_smtsim::pipeline::SmtPipeline;
use mab_telemetry::{blackbox, profile};
use mab_workloads::{smt, suites};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Overhead budget per switch, in percent.
const BUDGET_PCT: f64 = 5.0;

/// Off/on sample pairs per workload; the median pair ratio is reported.
/// On a busy 2-vCPU host the monitor switch's medians spread from −12% to
/// +10% across runs at 15 pairs and from −2% to +9% at 31.
const PAIRS: usize = 31;

const SIM_INSTRUCTIONS: u64 = 20_000;
const SMT_COMMITS: u64 = 10_000;
const ARMS: usize = 8;
const AGENT_STEPS: u64 = 1_000;

/// A named, timed unit of work.
type Workload = (&'static str, fn() -> f64);

/// One observation layer: its switch and the workloads it is gated on.
struct Switch {
    name: &'static str,
    /// Turns the layer on or off. Runs outside the timed region.
    set: fn(bool),
    workloads: &'static [Workload],
    /// Whether a recorder records on *both* sides of every pair (the
    /// layer's fixed context, not what the switch flips).
    recording: bool,
    /// Minimum wall time per sample; iteration counts are calibrated to it.
    sample_ms: f64,
}

const RECORDER: Switch = Switch {
    name: "recorder",
    set: mab_telemetry::set_recording,
    workloads: &[("memsim", memsim_batch), ("smtsim", smtsim_batch)],
    recording: false,
    sample_ms: 30.0,
};

const PROFILER: Switch = Switch {
    name: "profiler",
    set: set_profiling,
    workloads: &[("memsim", memsim_profiled), ("smtsim", smtsim_profiled)],
    recording: false,
    sample_ms: 30.0,
};

/// Measured on whole sweeps with a recording recorder, matching a
/// telemetry-enabled `--monitor` run. Longer samples: see
/// [`SCRAPE_INTERVAL`].
const MONITOR: Switch = Switch {
    name: "monitor",
    set: set_monitor,
    workloads: &[("sweep", sweep_once)],
    recording: true,
    sample_ms: 250.0,
};

const BLACKBOX: Switch = Switch {
    name: "blackbox",
    set: blackbox::set_enabled,
    workloads: &[("memsim", memsim_batch), ("smtsim", smtsim_batch)],
    recording: false,
    sample_ms: 30.0,
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One batch of bare bandit decisions: select, synthesize an arm-dependent
/// reward, observe. Reported as ns/step of probe cost, not gated.
fn agent_batch() -> f64 {
    let config = BanditConfig::builder(ARMS)
        .algorithm(AlgorithmKind::Ducb {
            gamma: 0.999,
            c: 0.04,
        })
        .seed(7)
        .build()
        .expect("valid config");
    let mut agent = BanditAgent::new(config);
    let mut acc = 0.0;
    for step in 0..AGENT_STEPS {
        let arm = agent.select_arm();
        let reward = 0.5 + 0.1 * arm.index() as f64 + 0.01 * (step % 3) as f64;
        agent.observe_reward(reward);
        acc += reward;
    }
    acc
}

/// A short single-core simulation with the bandit prefetcher.
fn memsim_batch() -> f64 {
    let app = suites::app_by_name("cactus").expect("catalog app");
    let mut system = System::single_core(SystemConfig::default());
    system.set_prefetcher(0, Box::new(BanditL2::paper_default(7)));
    system.run(&mut app.trace(7), SIM_INSTRUCTIONS).ipc()
}

/// A short two-thread SMT run under the bandit PG controller.
fn smtsim_batch() -> f64 {
    let specs = [
        smt::thread_by_name("gcc").expect("catalog thread"),
        smt::thread_by_name("lbm").expect("catalog thread"),
    ];
    let params = mab_experiments::smt_runs::scaled_params();
    let mut controller = mab_experiments::smt_runs::scaled_bandit(
        AlgorithmKind::Ducb {
            gamma: 0.975,
            c: 0.01,
        },
        7,
    );
    let mut pipe = SmtPipeline::new(params, specs, 7);
    pipe.run_with(&mut controller, SMT_COMMITS).sum_ipc()
}

fn memsim_profiled() -> f64 {
    profile::collect_run(memsim_batch)
}

fn smtsim_profiled() -> f64 {
    profile::collect_run(smtsim_batch)
}

/// Arms per monitored sweep: enough that per-arm observer costs dominate
/// any per-sweep setup in the delta.
const SWEEP_ARMS: usize = 16;

/// Workers per monitored sweep — the parallel path is the one the monitor
/// observes in production sweeps.
const SWEEP_JOBS: usize = 2;

/// One monitored unit: a parallel sweep of short bandit-prefetcher
/// simulations, exactly as the experiment binaries drive them. Each arm
/// fires two observer events; at [`SIM_INSTRUCTIONS`] per arm the event
/// rate still over-represents per-arm costs against every recorded
/// experiment config (the smallest, fig05 at 50k instructions, fires 25x
/// slower), yet stays in the regime real sweeps produce. Much shorter arms
/// (2k instructions ≈ 170 µs) turn a host with no spare core into a
/// thread-scheduling ping-pong between the sweep workers and the SSE
/// streamer at ~10k wakes/s (+10–14%), which no real sweep ever sees.
fn sweep_once() -> f64 {
    let app = suites::app_by_name("cactus").expect("catalog app");
    let specs: Vec<u64> = (0..SWEEP_ARMS as u64).collect();
    let results = sweep(&specs, SweepOptions::new(SWEEP_JOBS, 7), |ctx, _spec| {
        let mut system = System::single_core(SystemConfig::default());
        system.set_prefetcher(0, Box::new(BanditL2::paper_default(ctx.seed)));
        system.run(&mut app.trace(ctx.seed), SIM_INSTRUCTIONS).ipc()
    })
    .expect("sweep");
    results.iter().sum()
}

// ---------------------------------------------------------------------------
// Switches that need more than a flag
// ---------------------------------------------------------------------------

/// Profiling on or off, with the merge registry cleared so it cannot grow
/// (and slow down) across samples.
fn set_profiling(on: bool) {
    profile::set_enabled(on);
    profile::reset();
}

/// Pause between scrape rounds (one `/metrics` + one `/status` fetch).
/// 100 ms is 10x a 1 s dev-dashboard cadence and 150x Prometheus's default
/// 15 s, but bounded: each round costs a fresh TCP connect plus a
/// handler-thread spawn per request, and an interval-free busy-poll on a
/// small host measures the CPU a spinning client steals (~40% on a
/// single-core runner), not the monitoring plane. Samples last
/// [`MONITOR`]'s 250 ms so each integrates several rounds; shorter ones
/// make whether a round lands inside the timed region a coin flip.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(100);

/// The running monitoring plane, while the monitor switch is on.
static PLANE: Mutex<Option<Plane>> = Mutex::new(None);

/// Scrapes served across every plane the monitor switch started.
static SCRAPES: AtomicU64 = AtomicU64::new(0);

/// One on-sample worth of monitoring plane: server + observer, SSE drain
/// and scraper. Everything starts before and stops after the timed region.
struct Plane {
    monitor: Monitor,
    stop: Arc<AtomicBool>,
    scraper: std::thread::JoinHandle<u64>,
    drain: std::thread::JoinHandle<()>,
}

impl Plane {
    fn start() -> Plane {
        let monitor = Monitor::start(
            mab_monitor::DEFAULT_ADDR,
            RunInfo {
                experiment: "observe_overhead".to_string(),
                jobs: SWEEP_JOBS as u64,
                ..RunInfo::default()
            },
        )
        .expect("monitor bind");
        let url = monitor.url();
        let stop = Arc::new(AtomicBool::new(false));
        let mut subscriber =
            client::SseClient::connect(&format!("{url}/events"), Duration::from_secs(2))
                .expect("sse subscribe");
        // Drain the subscriber concurrently so the server never sees a
        // slow client; EOF arrives when the monitor shuts down.
        let drain = std::thread::spawn(move || while let Ok(Some(_)) = subscriber.next_frame() {});
        let scraper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let timeout = Duration::from_secs(2);
                let mut scrapes = 0;
                while !stop.load(Ordering::SeqCst) {
                    let m = client::get(&format!("{url}/metrics"), timeout);
                    let s = client::get(&format!("{url}/status"), timeout);
                    if m.is_ok() && s.is_ok() {
                        scrapes += 2;
                    }
                    std::thread::sleep(SCRAPE_INTERVAL);
                }
                scrapes
            })
        };
        Plane {
            monitor,
            stop,
            scraper,
            drain,
        }
    }

    /// Tears the plane down, returning the scrapes it served. The server's
    /// own count includes a final scrape that may have been in flight at
    /// stop time; it is preferred when larger.
    fn shutdown(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        let scraped = self.scraper.join().expect("scraper join");
        let served = self.monitor.shutdown();
        self.drain.join().expect("sse drain join");
        served.max(scraped)
    }
}

/// Monitor on: a freshly started plane (exactly the `--monitor` switch);
/// off: none at all, so no observer is registered.
fn set_monitor(on: bool) {
    let mut plane = PLANE.lock().unwrap();
    if let Some(old) = plane.take() {
        SCRAPES.fetch_add(old.shutdown(), Ordering::Relaxed);
    }
    if on {
        *plane = Some(Plane::start());
    }
}

// ---------------------------------------------------------------------------
// Paired measurement
// ---------------------------------------------------------------------------

struct Measurement {
    off_ns: f64,
    on_ns: f64,
    overhead_pct: f64,
}

/// Times `iters` runs of `f` with `switch` set to `on`, returning ns/iter.
fn sample(switch: &Switch, on: bool, f: fn() -> f64, iters: u64) -> f64 {
    (switch.set)(on);
    ns_per_call(iters, f)
}

fn measure(switch: &Switch, workload: &str, f: fn() -> f64) -> Measurement {
    // Calibrate the per-sample iteration count on the on side (the slower
    // one), then warm the off side up.
    let mut iters = 1u64;
    while sample(switch, true, f, iters) * (iters as f64) < switch.sample_ms * 1e6 {
        iters *= 2;
    }
    sample(switch, false, f, iters);

    let mut offs = Vec::with_capacity(PAIRS);
    let mut ons = Vec::with_capacity(PAIRS);
    let mut overheads = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let off = sample(switch, false, f, iters);
        let on = sample(switch, true, f, iters);
        overheads.push((on - off) / off * 100.0);
        offs.push(off);
        ons.push(on);
    }
    (switch.set)(false);

    let m = Measurement {
        off_ns: median(&offs),
        on_ns: median(&ons),
        overhead_pct: median(&overheads),
    };
    println!(
        "{:<8} {workload:<6} off {:>12.1} ns/iter, on {:>12.1} ns/iter -> {:+.2}% \
         (median of {PAIRS} pairs, {iters} iters each)",
        switch.name, m.off_ns, m.on_ns, m.overhead_pct
    );
    m
}

fn main() {
    let switches: &[&Switch] = if mab_telemetry::STATIC_ENABLED {
        &[&RECORDER, &PROFILER, &MONITOR, &BLACKBOX]
    } else {
        &[&BLACKBOX]
    };
    println!(
        "mode: telemetry feature {} — measuring {}",
        if mab_telemetry::STATIC_ENABLED {
            "ON"
        } else {
            "OFF"
        },
        switches
            .iter()
            .map(|s| s.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    mab_telemetry::install();

    let mut report = BenchReport::new("observe_overhead");
    report.field("telemetry_feature", mab_telemetry::STATIC_ENABLED);
    let mut failed = Vec::new();
    for switch in switches {
        mab_telemetry::set_recording(switch.recording);
        let mut worst = f64::NEG_INFINITY;
        for &(workload, f) in switch.workloads {
            let m = measure(switch, workload, f);
            let key = format!("{}_{workload}", switch.name);
            report.field(&format!("{key}_off_ns"), format!("{:.1}", m.off_ns));
            report.field(&format!("{key}_on_ns"), format!("{:.1}", m.on_ns));
            report.field(
                &format!("{key}_overhead_pct"),
                format!("{:.3}", m.overhead_pct),
            );
            worst = worst.max(m.overhead_pct);
        }
        if switch.name == RECORDER.name {
            let agent = measure(switch, "agent", agent_batch);
            let per_step = (agent.on_ns - agent.off_ns) / AGENT_STEPS as f64;
            println!(
                "recorder bare decision loop: {per_step:+.1} ns/step probe cost (informational)"
            );
            report.field("agent_probe_ns_per_step", format!("{per_step:.3}"));
        }
        if switch.name == MONITOR.name {
            report.field("monitor_scrapes_served", SCRAPES.load(Ordering::Relaxed));
        }
        if worst < BUDGET_PCT {
            println!(
                "PASS: {} overhead {worst:+.2}% is under the {BUDGET_PCT}% budget",
                switch.name
            );
        } else {
            println!(
                "FAIL: {} overhead {worst:+.2}% exceeds the {BUDGET_PCT}% budget",
                switch.name
            );
            failed.push(switch.name);
        }
    }
    mab_telemetry::set_recording(false);

    report.field("budget_pct", BUDGET_PCT);
    report.field("pass", failed.is_empty());
    report.write();
    if !failed.is_empty() {
        println!("FAIL: over budget: {}", failed.join(", "));
        std::process::exit(1);
    }
}
