//! The one harness behind the `mab-bench` benches: a timing routine, a
//! median, and the writer of the flat `BENCH_<name>.json` files at the
//! repository root.
//!
//! - `bandit_latency` times the Bandit agent's own cost with [`time_ns`];
//! - `observe_overhead` gates every observation layer at a 5% budget and
//!   writes `BENCH_observe_overhead.json`;
//! - `serve_throughput` gates `mab-serve`'s cache speedup and fairness and
//!   writes `BENCH_serve_throughput.json`.
//!
//! Each is a `harness = false` main: `cargo bench -p mab-bench --bench
//! <name>`.

use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;

/// Target duration of one sample, in ns. Short: `bandit_latency` times
/// many cases, and CI time matters more than tight confidence intervals
/// here.
const SAMPLE_NS: f64 = 60e6;

/// Timed samples per measurement, after one warm-up sample.
const SAMPLES: usize = 7;

/// Times `routine` and returns its median cost in ns per call. The
/// iteration count grows until one sample takes about 60 ms; then one
/// warm-up sample runs, and the result is the median of 7 timed samples.
/// Whatever state the routine carries between calls carries across
/// samples too.
pub fn time_ns<O>(mut routine: impl FnMut() -> O) -> f64 {
    let mut iters = 1u64;
    loop {
        let sample_ns = ns_per_call(iters, &mut routine) * iters as f64;
        if sample_ns >= SAMPLE_NS || iters >= 1 << 40 {
            break;
        }
        let grow = if sample_ns == 0.0 {
            16.0
        } else {
            (SAMPLE_NS / sample_ns).clamp(1.2, 16.0)
        };
        iters = ((iters as f64 * grow).ceil() as u64).max(iters + 1);
    }
    ns_per_call(iters, &mut routine);
    let ns: Vec<f64> = (0..SAMPLES)
        .map(|_| ns_per_call(iters, &mut routine))
        .collect();
    median(&ns)
}

/// One sample: runs `routine` `iters` times, each result through
/// `black_box`, and returns the mean wall time per call in ns.
pub fn ns_per_call<O>(iters: u64, mut routine: impl FnMut() -> O) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(routine());
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// The median of `values`: the upper middle one of an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// A flat result object, written as `BENCH_<name>.json` at the repository
/// root (ingest it with `mab-inspect ingest`, gate it with `mab-inspect
/// regress`).
pub struct BenchReport {
    name: &'static str,
    fields: Vec<String>,
}

impl BenchReport {
    /// An object holding only `"bench": "<name>"`.
    pub fn new(name: &'static str) -> BenchReport {
        BenchReport {
            name,
            fields: vec![format!("\"bench\": \"{name}\"")],
        }
    }

    /// Appends `"key": value`, with the value written as it displays: a
    /// number or a boolean.
    pub fn field(&mut self, key: &str, value: impl Display) {
        self.fields.push(format!("\"{key}\": {value}"));
    }

    /// Writes the object to `BENCH_<name>.json` at the repository root and
    /// echoes it to stdout, so a CI log always shows the numbers the file
    /// pinned. A failed write is reported on stderr, not fatal.
    pub fn write(&self) {
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            self.name
        );
        let json = format!("{{\n  {}\n}}\n", self.fields.join(",\n  "));
        print!("{json}");
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}
