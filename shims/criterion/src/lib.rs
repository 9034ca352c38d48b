//! Offline shim for the subset of the [`criterion`](https://docs.rs/criterion)
//! API used by `crates/bench`.
//!
//! The build environment cannot reach crates.io, so this crate provides a
//! small wall-clock benchmarking harness with the same surface: `Criterion`,
//! `BenchmarkGroup`, `Bencher::iter`, `BenchmarkId`, `Throughput`,
//! `black_box`, and the `criterion_group!` / `criterion_main!` macros.
//!
//! Methodology: each benchmark runs a short calibration pass to pick an
//! iteration count targeting ~[`MEASUREMENT`] of work, performs a warm-up,
//! then takes [`SAMPLES`] timed samples and prints the median ns/iter. This is
//! far simpler than real criterion (no outlier rejection, no statistical
//! regression) but is stable enough for the relative comparisons the
//! workspace's benches make.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque value barrier re-exported for convenience (benches may import it
/// from either `std::hint` or `criterion`).
pub use std::hint::black_box;

/// Identifies one benchmark within a group, e.g. `ducb/16`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combines a function name and an input parameter into an id.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// An id without a parameter component.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.id.fmt(f)
    }
}

/// Units processed per iteration; used to report throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Passed to the closure under test; drives the timed loop.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over the harness-chosen iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Target duration of one sample. Short: the workspace's benches iterate
/// many configurations, and CI time matters more than tight confidence
/// intervals here.
const MEASUREMENT: Duration = Duration::from_millis(60);

/// Timed samples per benchmark, after one warm-up sample.
const SAMPLES: usize = 7;

/// The harness entry point, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.run_one(id.to_string(), None, f);
        self
    }

    /// Grows the iteration count until one sample takes at least
    /// ~[`MEASUREMENT`].
    fn calibrate<F: FnMut(&mut Bencher)>(&self, f: &mut F) -> u64 {
        let mut iters = 1u64;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed >= MEASUREMENT || iters >= 1 << 40 {
                return iters;
            }
            let grow = if b.elapsed.is_zero() {
                16.0
            } else {
                (MEASUREMENT.as_secs_f64() / b.elapsed.as_secs_f64()).clamp(1.2, 16.0)
            };
            iters = ((iters as f64 * grow).ceil() as u64).max(iters + 1);
        }
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        id: String,
        throughput: Option<Throughput>,
        mut f: F,
    ) {
        let iters = self.calibrate(&mut f);

        // Warm-up sample, then timed samples.
        let mut samples = Vec::with_capacity(SAMPLES);
        for i in 0..=SAMPLES {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if i > 0 {
                samples.push(b.elapsed.as_secs_f64() * 1e9 / iters as f64);
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let ns = samples[samples.len() / 2];

        let thr = match throughput {
            Some(Throughput::Elements(n)) if ns > 0.0 => {
                format!("  ({:.1} Melem/s)", n as f64 / ns * 1e3)
            }
            Some(Throughput::Bytes(n)) if ns > 0.0 => {
                format!("  ({:.1} MiB/s)", n as f64 / ns * 1e9 / (1024.0 * 1024.0))
            }
            _ => String::new(),
        };
        println!("{id:<50} {ns:>14.1} ns/iter{thr}");
    }
}

/// A named set of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the units-per-iteration used in throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs a benchmark identified by name only.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        self.criterion.run_one(full, self.throughput, f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        self.criterion
            .run_one(full, self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group (consumes it, matching the real API).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            let _ = $config;
            $( $target(c); )+
        }
    };
}

/// Declares the benchmark `main`, mirroring `criterion_main!`.
///
/// Cargo passes `--bench` (and possibly filter args) to the binary; the shim
/// ignores them and runs every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_the_routine() {
        let mut calls = 0u64;
        Criterion::default().bench_function("count", |b| b.iter(|| calls += 1));
        assert!(calls > 0);
    }

    #[test]
    fn ids_join_function_and_parameter() {
        assert_eq!(BenchmarkId::new("f", 4).to_string(), "f/4");
        assert_eq!(BenchmarkId::from_parameter(4).to_string(), "4");
    }
}
