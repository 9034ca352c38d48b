//! Offline shim for the subset of the [`criterion`](https://docs.rs/criterion)
//! API used by `crates/bench`.
//!
//! The build environment cannot reach crates.io, so this crate provides a
//! small wall-clock benchmarking harness with the same surface: `Criterion`,
//! `BenchmarkGroup`, `Bencher::iter`, `BenchmarkId`, `Throughput`,
//! `black_box`, and the `criterion_group!` / `criterion_main!` macros.
//!
//! Methodology: each benchmark runs a short calibration pass to pick an
//! iteration count targeting ~`measurement_ms` of work, performs a warm-up,
//! then takes several timed samples and reports the median ns/iter. This is
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

/// One recorded benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark id (`group/function/param`).
    pub id: String,
    /// Median nanoseconds per iteration across samples.
    pub ns_per_iter: f64,
}

/// The harness entry point, mirroring `criterion::Criterion`.
pub struct Criterion {
    results: Vec<BenchResult>,
    /// Target duration for one sample, in milliseconds.
    measurement_ms: u64,
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            results: Vec::new(),
            // Keep the harness quick: the workspace's benches iterate many
            // configurations and CI time matters more than tight confidence
            // intervals here.
            measurement_ms: 60,
            samples: 7,
        }
    }
}

impl Criterion {
    /// Overrides the per-sample measurement time.
    pub fn measurement_time(mut self, time: Duration) -> Self {
        self.measurement_ms = time.as_millis().max(1) as u64;
        self
    }

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

    /// All results recorded so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Median ns/iter for the benchmark whose id matches `id` exactly.
    pub fn result_ns(&self, id: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.ns_per_iter)
    }

    /// Grows the iteration count until one sample takes at least
    /// ~`measurement_ms`.
    fn calibrate<F: FnMut(&mut Bencher)>(&self, f: &mut F) -> u64 {
        let target = Duration::from_millis(self.measurement_ms);
        let mut iters = 1u64;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed >= target || iters >= 1 << 40 {
                return iters;
            }
            let grow = if b.elapsed.is_zero() {
                16.0
            } else {
                (target.as_secs_f64() / b.elapsed.as_secs_f64()).clamp(1.2, 16.0)
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
        let mut samples = Vec::with_capacity(self.samples);
        for i in 0..=self.samples {
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
        self.results.push(BenchResult {
            id,
            ns_per_iter: ns,
        });
    }
}

/// A named set of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim picks its own sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _time: Duration) -> &mut Self {
        self
    }

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
    fn bench_function_records_a_result() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        assert_eq!(c.results().len(), 1);
        assert!(c.result_ns("noop").unwrap() >= 0.0);
    }

    #[test]
    fn group_ids_are_namespaced() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        {
            let mut g = c.benchmark_group("g");
            g.throughput(Throughput::Elements(10));
            g.bench_with_input(BenchmarkId::new("f", 4), &4u64, |b, &x| {
                b.iter(|| black_box(x * 2))
            });
            g.finish();
        }
        assert!(c.result_ns("g/f/4").is_some());
    }
}
