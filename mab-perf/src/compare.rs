//! `mab-perf compare A.json… -- B.json…`: two sets of `run --json`
//! results, one row per workload × end-to-end metric.
//!
//! Each row gives both sides' median and quartiles and a verdict against
//! the metric's bound in `BENCHMARK.json`: `regressed` when B's median is
//! worse than A's by more than the bound, `unresolved` when either side's
//! run-to-run spread (interquartile range over median) is wider than the
//! bound — unless every B run reads better than every A run — and `ok`
//! otherwise.

use crate::report::{bench_spec, median, quartiles, MetricSpec};
use mab_ledger::json::{self, JsonValue};
use std::collections::BTreeMap;

/// workload → metric → values, one per run file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn main(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("mab-perf compare: separate the two sides with --");
        return 2;
    };
    let (a, b) = (&args[..split], &args[split + 1..]);
    if a.is_empty() || b.is_empty() {
        eprintln!("mab-perf compare: both sides need at least one result file");
        return 2;
    }
    let (runs_a, runs_b) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("mab-perf compare: {e}");
            return 2;
        }
    };
    let spec = bench_spec();
    println!(
        "{:<16} {:<12} {:>27} {:>27} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let mut clean = true;
    for (workload, metrics_a) in &runs_a {
        let Some(metrics_b) = runs_b.get(workload) else {
            println!("{workload:<16} (no B runs)");
            clean = false;
            continue;
        };
        for metric in &spec.end_to_end {
            let (Some(va), Some(vb)) = (metrics_a.get(&metric.name), metrics_b.get(&metric.name))
            else {
                continue;
            };
            let row = Row::new(metric, va, vb);
            clean &= row.verdict == "ok";
            println!(
                "{workload:<16} {:<12} {:>27} {:>27} {:>+7.2}%  {}",
                metric.name,
                summary(va),
                summary(vb),
                row.change * 100.0,
                row.verdict
            );
        }
    }
    i32::from(!clean)
}

struct Row {
    /// B's median relative to A's (signed; positive is larger).
    change: f64,
    verdict: &'static str,
}

impl Row {
    fn new(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Row {
        let (ma, mb) = (median(a), median(b));
        let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
        let worse = if metric.lower_is_better {
            change
        } else {
            -change
        };
        let bound = metric.bound.unwrap_or(0.0);
        let better = |x: f64, y: f64| {
            if metric.lower_is_better {
                x < y
            } else {
                x > y
            }
        };
        let b_wins_all = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
        let verdict = if spread(a) > bound || spread(b) > bound {
            if b_wins_all {
                "ok"
            } else {
                "unresolved"
            }
        } else if worse > bound {
            "regressed"
        } else {
            "ok"
        };
        Row { change, verdict }
    }
}

/// Interquartile range over median; a single run has no spread to show,
/// so it counts as unbounded.
fn spread(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some((q1, q3)) if median(v) != 0.0 => (q3 - q1) / median(v).abs(),
        Some(_) => 0.0,
        None => f64::INFINITY,
    }
}

fn summary(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("{:.4} [{q1:.4}, {q3:.4}]", median(v)),
        None => format!("{:.4} [n=1]", median(v)),
    }
}

fn load(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or(format!("{path}: no workload"))?;
        let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{path}: no metrics"));
        };
        let entry = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                entry.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(Row::new(&metric(true, 0.1), &a, &a).verdict, "ok");
        assert_eq!(
            Row::new(&metric(true, 0.1), &a, &slower).verdict,
            "regressed"
        );
        // Higher is better: the same numbers are an improvement.
        assert_eq!(Row::new(&metric(false, 0.1), &a, &slower).verdict, "ok");
        let noisy = [0.5, 1.5, 1.0, 0.7, 1.3];
        assert_eq!(
            Row::new(&metric(true, 0.1), &noisy, &a).verdict,
            "unresolved"
        );
    }
}
