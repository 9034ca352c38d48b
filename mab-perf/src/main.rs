//! `mab-perf`: the repository's benchmark of simulator wall time, with a
//! per-layer split of host time from a separate traced run.
//!
//! ```text
//! mab-perf run     --workload W [--seed S] [--seconds N] [--trace 0|1] [--json PATH]
//! mab-perf trace   --workload W [--seed S] [--seconds N] [--json PATH]
//! mab-perf compare A.json... -- B.json...
//! ```
//!
//! `run` sets up (building the inputs from the seed and warming up on the
//! first application or mix), then runs timed passes for `--seconds`, each
//! a closed loop in which one sweep worker starts the next arm when the
//! last one finishes. It prints every end-to-end metric of
//! `BENCHMARK.json` as `W.<metric> <value> <unit>` and, last, one JSON line
//! with the metrics. `trace` (or `run --trace 1`) instead alternates
//! untraced and traced passes and prints the per-layer metrics. Both check
//! every pass against the first, and the first against `golden.txt` at
//! seed 42. README.md documents workloads, metrics and bounds.

mod calibrate;
mod compare;
mod heap;
mod layers;
mod probe;
mod report;
mod workload;

use calibrate::Part;
use report::{median, percentile, Metrics};
use std::path::PathBuf;
use std::time::Instant;
use workload::{Pass, Plan, Size, Stats, Workload, FULL, SMOKE};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const USAGE: &str = "usage:
  mab-perf run     --workload W [--seed S] [--seconds N] [--trace 0|1] [--json PATH] [--smoke] [--golden PATH]
  mab-perf trace   --workload W [--seed S] [--seconds N] [--json PATH] [--smoke] [--golden PATH]
  mab-perf compare A.json... -- B.json...
workloads: prefetch_lineup smt_mixes fourcore_shared trace_replay";

/// Timed passes a `run` makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Extra set-ups `run` measures in child processes, so `setup_s` is the
/// median of five cold starts.
const CHILD_SETUPS: usize = 4;

fn main() {
    let started = Instant::now();
    probe::epoch();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => measure(&args[1..], started, false),
        Some("trace") => measure(&args[1..], started, true),
        Some("setup") => setup_only(&args[1..], started),
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[derive(Debug, Clone)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    size: Size,
    golden: Option<PathBuf>,
}

fn parse_options(args: &[String], trace: bool) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::PrefetchLineup,
        seed: report::GOLDEN_SEED,
        seconds: 22.0,
        trace,
        json: None,
        size: FULL,
        golden: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.size = SMOKE;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => trace,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--json" => opts.json = Some(PathBuf::from(value)),
            "--golden" => opts.golden = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// Arms attempted and failed, and why.
#[derive(Debug, Default)]
struct Check {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    /// Digest and statistics of the run's first measured pass, which every
    /// later one must reproduce.
    reference: Option<(u64, Vec<Stats>)>,
}

impl Check {
    /// Adds a pass. A `measured` pass is also checked arm by arm against
    /// the reference, or becomes it.
    fn pass(&mut self, what: &str, pass: &Pass, measured: bool) {
        self.attempted += pass.arms_attempted;
        self.failed += pass.arms_failed;
        self.errors
            .extend(pass.failures.iter().map(|e| format!("{what} pass: {e}")));
        if !measured {
            return;
        }
        let Some((digest, stats)) = &self.reference else {
            self.reference = Some((pass.digest, pass.stats.clone()));
            return;
        };
        if pass.stats.len() != stats.len() {
            return; // an abandoned sweep, already counted
        }
        let differ = pass.stats.iter().zip(stats).filter(|(a, b)| a != b).count();
        if differ > 0 {
            self.failed += differ;
            self.errors.push(format!(
                "{what} pass: digest {:#018x} differs from the first pass's {digest:#018x} in {differ} arm(s)",
                pass.digest
            ));
        }
    }

    /// Checks the reference digest against the golden file's (seed 42
    /// only); returns `pinned`, `unpinned` or `MISMATCH`.
    fn pin(&mut self, opts: &Options, golden: Option<&str>) -> &'static str {
        let Some(text) = golden else {
            return "unpinned";
        };
        let Some((digest, stats)) = &self.reference else {
            return "MISMATCH"; // no complete pass, already counted
        };
        let error = match report::golden_digest(text, opts.workload.name(), opts.size.label) {
            Some(golden) if golden == *digest => return "pinned",
            Some(golden) => format!("digest {digest:#018x} differs from the golden {golden:#018x}"),
            None => format!(
                "no golden digest for {} {} (digest {digest:#018x})",
                opts.workload.name(),
                opts.size.label
            ),
        };
        self.failed += stats.len();
        self.errors.push(error);
        "MISMATCH"
    }

    fn ok(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// Everything before the first timed pass.
struct Setup {
    plan: Plan,
    /// The warm-up pass's digest, which every set-up must reproduce.
    warmup_digest: u64,
    /// The warm-up pass's timed parts.
    warmup_parts: Vec<Part>,
    check: Check,
    /// The golden file's text at seed 42; `None` at other seeds.
    golden: Option<String>,
    scratch: PathBuf,
}

/// Builds the inputs from the seed and warms up on the first application
/// or mix, through the same code path as a pass. The timed passes then
/// find code, lazy tables and the allocator warm, and a later change that
/// moves work into one-time initialisation shows in `setup_s`.
fn setup(opts: &Options) -> Result<Setup, String> {
    if mab_telemetry::STATIC_ENABLED {
        return Err(
            "built with the telemetry feature; end-to-end numbers are measured with \
                    tracing compiled out"
                .into(),
        );
    }
    // As in the experiment binaries: the black box records unless
    // MAB_BLACKBOX=0 turns it off.
    mab_telemetry::blackbox::set_enabled(!mab_telemetry::blackbox::disabled_by_env());
    workload::observe_arms();
    let golden = match (&opts.golden, opts.seed == report::GOLDEN_SEED) {
        (_, false) => None,
        (Some(path), true) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        ),
        (None, true) => Some(report::GOLDEN.to_string()),
    };
    let scratch = PathBuf::from("target/perf").join(format!(
        "{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    let mut warmup = Plan::new(
        opts.workload,
        opts.seed,
        opts.size.warmup(),
        scratch.clone(),
    );
    let mut pass = warmup.pass(false);
    let mut check = Check::default();
    check.pass("warm-up", &pass, false);
    Ok(Setup {
        plan: Plan::new(opts.workload, opts.seed, opts.size, scratch.clone()),
        warmup_digest: pass.digest,
        warmup_parts: std::mem::take(&mut pass.parts),
        check,
        golden,
        scratch,
    })
}

/// A set-up's time at reference host speed, given its raw time: the
/// warm-up's parts scaled one by one, and the rest (process start, building
/// the inputs) by their median reading. The readings themselves are left
/// out.
fn scaled_setup_s(raw_s: f64, parts: &[Part]) -> f64 {
    let readings: Vec<f64> = parts.iter().map(|p| p.reading_s).collect();
    let rest = raw_s - parts.iter().map(|p| p.host_s + p.reading_s).sum::<f64>();
    let parts_s: f64 = parts.iter().map(Part::scaled_s).sum();
    parts_s + calibrate::scale(rest.max(0.0), median(&readings))
}

/// `mab-perf setup`: one cold set-up in its own process, for `run`'s
/// `setup_s` median. Prints the set-up time scaled and raw, and the
/// warm-up digest.
fn setup_only(args: &[String], started: Instant) -> i32 {
    let opts = match parse_options(args, false) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let s = match setup(&opts) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let raw_s = started.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&s.scratch).ok();
    println!("setup_s {}", scaled_setup_s(raw_s, &s.warmup_parts));
    println!("setup_raw_s {raw_s}");
    println!("digest {:#018x}", s.warmup_digest);
    for e in &s.check.errors {
        eprintln!("mab-perf: {e}");
    }
    i32::from(!s.check.ok())
}

/// Runs one more cold set-up in a child process: (scaled seconds, raw
/// seconds, digest).
fn child_setup(opts: &Options) -> Result<(f64, f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["setup", "--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()]);
    if opts.size == SMOKE {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ').map(str::to_string))
    };
    let seconds = |key| field(key).and_then(|v| v.parse::<f64>().ok());
    let digest =
        field("digest").and_then(|v| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok());
    match (
        out.status.success(),
        seconds("setup_s"),
        seconds("setup_raw_s"),
        digest,
    ) {
        (true, Some(s), Some(raw), Some(d)) => Ok((s, raw, d)),
        _ => Err(format!("set-up process failed ({})", out.status)),
    }
}

fn measure(args: &[String], started: Instant, trace: bool) -> i32 {
    let opts = match parse_options(args, trace) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let mut s = match setup(&opts) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let own_setup_s = started.elapsed().as_secs_f64();
    let name = opts.workload.name();
    println!(
        "# mab-perf {} workload={name} seed={} size={} seconds={}",
        if opts.trace { "trace" } else { "run" },
        opts.seed,
        opts.size.label,
        opts.seconds
    );
    let host = report::host_fields();
    let host_line: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# host {}", host_line.join(" "));

    let spec = report::bench_spec();
    let (metrics, listed) = if opts.trace {
        (traced_run(&opts, &mut s), &spec.per_layer)
    } else {
        (timed_run(&opts, &mut s, own_setup_s), &spec.end_to_end)
    };
    // For trace_replay, replay must match generator mode.
    if let Some(pass) = s.plan.generator_pass() {
        s.check.pass("generator-mode", &pass, true);
    }
    let status = s.check.pin(&opts, s.golden.as_deref());
    let digest = s.check.reference.as_ref().map_or(0, |r| r.0);
    println!("# digest {digest:#018x} {status}");
    std::fs::remove_dir_all(&s.scratch).ok();
    let selected = match metrics.select(listed) {
        Ok(v) => v,
        Err(e) => return fail(&format!("benchmark defect: {e}")),
    };
    for m in &selected {
        println!("{name}.{} {} {}", m.name, m.value, m.unit);
    }
    for m in &metrics.0 {
        if !listed.iter().any(|l| l.name == m.name) {
            println!("{name}.{} {} {}", m.name, m.value, m.unit);
        }
    }
    for e in &s.check.errors {
        eprintln!("mab-perf: error: {e}");
    }
    let all: Vec<&report::Metric> = metrics.0.iter().collect();
    if let Some(path) = &opts.json {
        let host_json: Vec<String> = host
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", mab_ledger::json::escape(v)))
            .collect();
        let doc = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"mode\": \"{}\", \"size\": \"{}\", \
             \"host\": {{{}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
            opts.seed,
            if opts.trace { "trace" } else { "run" },
            opts.size.label,
            host_json.join(", "),
            s.check.ok(),
            s.check.attempted,
            s.check.failed,
            report::metrics_json(&all)
        );
        if let Err(e) = std::fs::write(path, doc) {
            s.check
                .errors
                .push(format!("cannot write {}: {e}", path.display()));
            eprintln!(
                "mab-perf: error: {}",
                s.check.errors.last().expect("just pushed")
            );
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        s.check.ok(),
        s.check.attempted.max(1),
        s.check.failed,
        report::metrics_json(&selected)
    );
    i32::from(!s.check.ok())
}

/// Timed passes for `--seconds` (at least [`MIN_PASSES`]), then the
/// child set-ups; returns the end-to-end metrics.
fn timed_run(opts: &Options, s: &mut Setup, own_setup_s: f64) -> Metrics {
    let start = Instant::now();
    // Only these few numbers outlive a pass, so the heap peak does not
    // grow with the number of passes.
    let (mut walls, mut parts) = (Vec::new(), Vec::new());
    let mut instructions;
    loop {
        let mut pass = s.plan.pass(false);
        s.check.pass("timed", &pass, true);
        walls.push(pass.wall_s);
        parts.push(std::mem::take(&mut pass.parts));
        instructions = pass.instructions;
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_PASSES && elapsed + pass.wall_s > opts.seconds {
            break;
        }
    }
    let (peak_heap_mb, peak_rss_mb) = (heap::peak_mb(), report::peak_rss_mb());
    let mut setups = vec![scaled_setup_s(own_setup_s, &s.warmup_parts)];
    let mut raw_setups = vec![own_setup_s];
    for _ in 0..CHILD_SETUPS {
        match child_setup(opts) {
            Ok((scaled, raw, digest)) => {
                setups.push(scaled);
                raw_setups.push(raw);
                if digest != s.warmup_digest {
                    s.check.failed += 1;
                    s.check.errors.push(format!(
                        "set-up process warm-up digest {digest:#018x} differs from {:#018x}",
                        s.warmup_digest
                    ));
                }
            }
            Err(e) => s.check.errors.push(e),
        }
    }
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("# pass wall_s {}", shown.join(" "));
    let (ref_wall_s, ref_arm_s) = reference_pass(&walls, &parts);
    let ref_arm_ms: Vec<f64> = ref_arm_s.iter().map(|s| s * 1e3).collect();
    let readings: Vec<f64> = parts.iter().flatten().map(|p| p.reading_s).collect();
    let instructions = instructions as f64;
    let mut m = Metrics::default();
    m.set("ref_wall_s", ref_wall_s, "s");
    m.set(
        "ref_sim_mips",
        report::ratio(instructions, ref_wall_s * 1e6),
        "instr/us",
    );
    m.set("ref_arm_ms_p50", median(&ref_arm_ms), "ms");
    m.set("ref_arm_ms_p90", percentile(&ref_arm_ms, 0.9), "ms");
    m.set("setup_s", median(&setups), "s");
    m.set("peak_heap_mb", peak_heap_mb, "MB");
    m.set("wall_s", median(&walls), "s");
    m.set("setup_raw_s", median(&raw_setups), "s");
    m.set(
        "host_speed",
        report::ratio(calibrate::REFERENCE_S, median(&readings)),
        "x",
    );
    m.set("peak_rss_mb", peak_rss_mb, "MB");
    m.set("passes", walls.len() as f64, "count");
    m.set("arms", ref_arm_ms.len() as f64, "count");
    m.set("instructions_per_pass", instructions, "count");
    m.set(
        "failed_frac",
        report::ratio(s.check.failed as f64, s.check.attempted as f64),
        "frac",
    );
    m
}

/// One pass's time at reference host speed: each part's median over the
/// timed passes, each pass's part scaled by the reading taken right before
/// it ([`calibrate`]), plus the median remainder of a pass outside its
/// parts and readings (sweep upkeep, trace directories), scaled by the
/// pass's median reading. With one worker the parts add up to the pass.
/// Returns the total and each arm's time, in seconds.
fn reference_pass(walls: &[f64], passes: &[Vec<Part>]) -> (f64, Vec<f64>) {
    // Complete passes all have the same parts; a pass an abandoned sweep
    // cut short has already failed the run.
    let n = passes.iter().map(Vec::len).min().unwrap_or(0);
    let parts: Vec<f64> = (0..n)
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|pass| pass[i].scaled_s())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let rest: Vec<f64> = walls
        .iter()
        .zip(passes)
        .map(|(wall, pass)| {
            let rest = wall - pass.iter().map(|p| p.host_s + p.reading_s).sum::<f64>();
            let readings: Vec<f64> = pass.iter().map(|p| p.reading_s).collect();
            calibrate::scale(rest.max(0.0), median(&readings))
        })
        .collect();
    let kinds = passes.first().map_or(&[][..], Vec::as_slice);
    let arms = parts
        .iter()
        .zip(kinds)
        .filter(|(_, part)| part.arm)
        .map(|(t, _)| *t)
        .collect();
    (parts.iter().sum::<f64>() + median(&rest), arms)
}

/// Alternating untraced and traced passes for `--seconds` (at least one
/// pair); returns the per-layer metrics and writes the span file.
fn traced_run(opts: &Options, s: &mut Setup) -> Metrics {
    probe::instant_ns();
    let start = Instant::now();
    let (mut untraced, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    loop {
        let pass = s.plan.pass(false);
        s.check.pass("untraced", &pass, true);
        untraced.push(pass);
        let pass = s.plan.pass(true);
        s.check.pass("traced", &pass, true);
        let pair = untraced.last().map_or(0.0, |p| p.wall_s) + pass.wall_s;
        traced.push(pass);
        if start.elapsed().as_secs_f64() + pair > opts.seconds {
            break;
        }
    }
    let step_ns = workload::replay_bandit_steps(&traced[0].traced);
    let metrics = layers::layer_metrics(&traced, &untraced, step_ns);
    let dir = PathBuf::from("target/perf");
    let path = dir.join(format!("{}.spans.json", opts.workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let last = traced.last().expect("at least one traced pass");
        layers::write_spans(&path, opts.workload.name(), opts.seed, last)
    });
    match written {
        Ok(()) => println!("# spans {}", path.display()),
        Err(e) => s
            .check
            .errors
            .push(format!("cannot write {}: {e}", path.display())),
    }
    metrics
}

fn usage_error(e: &str) -> i32 {
    eprintln!("mab-perf: {e}\n{USAGE}");
    2
}

fn fail(e: &str) -> i32 {
    eprintln!("mab-perf: error: {e}");
    1
}
