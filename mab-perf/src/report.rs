//! Digests, host facts, statistics and the metric list of `BENCHMARK.json`.

use crate::workload::Stats;
use mab_ledger::json::{self, JsonValue};
use mab_memsim::RunStats;

/// FNV-1a over 64-bit words, little-endian.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Folds every field of one arm's statistics into `digest`, in
/// declaration order.
pub fn fold_stats(digest: &mut Fnv, stats: &Stats) {
    match stats {
        Stats::Mem(cores) => cores.iter().for_each(|s| fold_run(digest, s)),
        Stats::Smt(s) => {
            let r = &s.rename;
            for w in [s.cycles, s.commits[0], s.commits[1]] {
                digest.word(w);
            }
            for w in [
                r.stalled_rob,
                r.stalled_iq,
                r.stalled_lq,
                r.stalled_sq,
                r.stalled_rf,
                r.idle,
                r.running,
            ] {
                digest.word(w);
            }
        }
    }
}

fn fold_run(digest: &mut Fnv, s: &RunStats) {
    digest.word(s.instructions);
    digest.word(s.cycles);
    for c in [&s.l1, &s.l2, &s.llc] {
        for w in [
            c.demand_hits,
            c.demand_misses,
            c.prefetch_fills,
            c.prefetch_used,
            c.prefetch_evicted_unused,
        ] {
            digest.word(w);
        }
    }
    digest.word(s.dram.transfers);
    digest.word(s.dram.total_queue_delay.to_bits());
    let p = &s.prefetch;
    for w in [p.issued, p.timely, p.late, p.wrong, p.dropped] {
        digest.word(w);
    }
}

/// The golden digests shipped with the benchmark (seed 42).
pub const GOLDEN: &str = include_str!("../golden.txt");

/// The seed the golden digests are pinned at.
pub const GOLDEN_SEED: u64 = 42;

/// Looks up the golden digest of `workload` at `size` in a golden file:
/// lines of `workload size 0xdigest`, `#` comments.
pub fn golden_digest(text: &str, workload: &str, size: &str) -> Option<u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            if fields.next()? != workload || fields.next()? != size {
                return None;
            }
            u64::from_str_radix(fields.next()?.trim_start_matches("0x"), 16).ok()
        })
}

/// Process CPU time (user + system, all threads, live and exited), in s.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line; `rest` starts
    // at field 3. Linux reports them in USER_HZ = 100 ticks per second.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The circumstances every number is measured under.
pub fn host_fields() -> Vec<(&'static str, String)> {
    // The code version of the working directory's own checkout only: git
    // must not find a repository above it.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_string());
    let on_off = |on: bool| if on { "on" } else { "off" }.to_string();
    vec![
        (
            "available_parallelism",
            mab_telemetry::blackbox::cpus().to_string(),
        ),
        (
            "kernel_mode",
            mab_telemetry::blackbox::kernel_mode().to_string(),
        ),
        ("blackbox", on_off(mab_telemetry::blackbox::is_on())),
        ("telemetry", on_off(mab_telemetry::STATIC_ENABLED)),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("git", git),
    ]
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them. Needs two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp raised j (n < 3).
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The `p`-quantile of `v` by nearest rank (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `a / b`, or 0 when there is nothing to divide by: a layer a workload
/// does not use reports 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// `BENCHMARK.json`, the one place metric names, units and bounds live.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub fn bench_spec() -> BenchSpec {
    parse_bench_spec(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
}

fn parse_bench_spec(text: &str) -> Result<BenchSpec, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
        let items = doc
            .get(key)
            .and_then(JsonValue::as_arr)
            .ok_or(format!("no {key} list"))?;
        items
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or(format!("{key} entry without {k}"))
                };
                Ok(MetricSpec {
                    name: field("name")?,
                    unit: field("unit")?,
                    lower_is_better: field("better")? == "lower",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
            })
            .collect()
    };
    Ok(BenchSpec {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// A measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics by name.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// The metrics `specs` declares, in its order, checked against the
    /// declared units.
    pub fn select(&self, specs: &[MetricSpec]) -> Result<Vec<&Metric>, String> {
        specs
            .iter()
            .map(|spec| {
                let m = self
                    .get(&spec.name)
                    .ok_or(format!("metric {} was not measured", spec.name))?;
                if m.unit != spec.unit {
                    return Err(format!(
                        "metric {} measured in {} but declared in {}",
                        spec.name, m.unit, spec.unit
                    ));
                }
                if !m.value.is_finite() {
                    return Err(format!("metric {} is {}", spec.name, m.value));
                }
                Ok(m)
            })
            .collect()
    }
}

/// The JSON object of `"metrics"`: `{"name": {"value": v, "unit": "u"}, …}`.
pub fn metrics_json(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(&m.name),
                json::fmt_f64(m.value),
                json::escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
    }

    #[test]
    fn golden_lookup_skips_comments_and_other_sizes() {
        let text = "# c\nsmt_mixes smoke 0x10\nsmt_mixes full 0xff\n";
        assert_eq!(golden_digest(text, "smt_mixes", "full"), Some(255));
        assert_eq!(golden_digest(text, "smt_mixes", "smoke"), Some(16));
        assert_eq!(golden_digest(text, "trace_replay", "full"), None);
    }

    #[test]
    fn benchmark_json_declares_the_required_metrics() {
        let spec = bench_spec();
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
    }
}
