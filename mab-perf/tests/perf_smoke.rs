//! Runs every workload at smoke size through the same code paths as a real
//! run, and checks the output contract: every metric `BENCHMARK.json`
//! declares is printed once with its unit, the result lines parse, and a
//! wrong golden digest fails the run.

use mab_ledger::json::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "prefetch_lineup",
    "smt_mixes",
    "fourcore_shared",
    "trace_replay",
];

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// A scratch working directory: the benchmark writes under `target/perf`
/// of its working directory.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perf_smoke-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mab_perf(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mab-perf"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("mab-perf starts")
}

/// Checks one run's stdout against the declared metrics; returns the
/// parsed result line.
fn check_output(workload: &str, out: &Output, metrics: &[(String, String)]) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    for (name, unit) in metrics {
        let prefix = format!("{workload}.{name} ");
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(
            lines.len(),
            1,
            "{workload}.{name} printed {} times",
            lines.len()
        );
        let fields: Vec<&str> = lines[0].split_whitespace().collect();
        assert_eq!(fields.len(), 3, "{}", lines[0]);
        assert!(
            fields[1].parse::<f64>().is_ok_and(f64::is_finite),
            "{}",
            lines[0]
        );
        assert_eq!(fields[2], unit, "{}", lines[0]);
    }
    let last = stdout.lines().last().expect("output");
    let result = json::parse(last).expect("the last line is JSON");
    let JsonValue::Obj(fields) = &result else {
        panic!("the last line is not an object: {last}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
    let reported = result.get("metrics").expect("metrics");
    for (name, unit) in metrics {
        let m = reported
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str())
        );
        assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
    }
    result
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let dir = workdir(workload);
        let json_path = dir.join("run.json");
        let json_arg = json_path.to_str().unwrap();
        let run = mab_perf(
            &dir,
            &[
                "run",
                "--workload",
                workload,
                "--smoke",
                "--seconds",
                "0",
                "--json",
                json_arg,
            ],
        );
        check_output(workload, &run, &end_to_end);
        let file = std::fs::read_to_string(&json_path).expect("--json file written");
        let doc = json::parse(file.trim()).expect("--json file parses");
        assert_eq!(
            doc.get("workload").and_then(JsonValue::as_str),
            Some(workload)
        );
        assert!(doc.get("host").and_then(|h| h.get("kernel_mode")).is_some());

        let trace = mab_perf(
            &dir,
            &["trace", "--workload", workload, "--smoke", "--seconds", "0"],
        );
        check_output(workload, &trace, &per_layer);
        let spans = dir.join(format!("target/perf/{workload}.spans.json"));
        let spans = std::fs::read_to_string(spans).expect("span file written");
        json::parse(&spans).expect("span file parses");
    }
}

#[test]
fn a_tampered_golden_digest_fails_the_run() {
    let dir = workdir("tampered");
    let golden = dir.join("golden.txt");
    std::fs::write(&golden, "smt_mixes smoke 0x0123456789abcdef\n").unwrap();
    let args = [
        "run",
        "--workload",
        "smt_mixes",
        "--smoke",
        "--seconds",
        "0",
        "--golden",
    ];
    let out = mab_perf(&dir, &[&args[..], &[golden.to_str().unwrap()]].concat());
    assert!(!out.status.success(), "a wrong golden digest must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("golden"));
}
