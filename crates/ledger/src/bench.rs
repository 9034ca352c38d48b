//! Ingestion of `BENCH_*.json` snapshots into the ledger.
//!
//! The benches under `crates/bench` write flat JSON objects (numbers,
//! booleans, strings, string arrays) pinning the perf trajectory. Ingesting
//! one turns it into a [`RunRecord`] — experiment `bench:<name>`, numeric
//! and boolean fields as metrics, string fields as config — so
//! `mab-inspect trend`/`regress` can query benchmark history through the
//! same store as experiment runs. Re-ingesting an unchanged file under the
//! same code version deduplicates to a no-op append.

use crate::record::RunRecord;
use mab_telemetry::json::{self, JsonValue};
use std::path::Path;

/// Builds a [`RunRecord`] from a flat benchmark JSON file.
///
/// Field mapping: the `bench` field (or the file stem) names the
/// experiment as `bench:<name>`; numbers become metrics; booleans become
/// metrics valued 1/0; strings and string arrays become config pairs. The
/// record is stamped with the *current* [`crate::code_version`] (ingestion
/// records "this code's bench results", exactly like a live run would) and
/// the file's mtime as the start timestamp, so a trajectory of ingested
/// snapshots orders naturally.
///
/// # Errors
///
/// Returns a message when the file cannot be read or is not a flat JSON
/// object.
pub fn ingest_bench_file(path: &Path) -> Result<RunRecord, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let JsonValue::Obj(pairs) = &value else {
        return Err(format!("{}: expected a JSON object", path.display()));
    };
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench")
        .to_string();
    let name = value
        .get("bench")
        .and_then(JsonValue::as_str)
        .unwrap_or(&stem);
    let mut record = RunRecord::new(&format!("bench:{name}"), &crate::code_version());
    record.config_pair(
        "source",
        path.file_name().unwrap_or_default().to_string_lossy(),
    );
    for (key, val) in pairs {
        if key == "bench" {
            continue;
        }
        match val {
            JsonValue::Int(i) => record.metrics.push((key.clone(), *i as f64)),
            JsonValue::Num(n) => record.metrics.push((key.clone(), *n)),
            JsonValue::Bool(b) => record.metrics.push((key.clone(), f64::from(u8::from(*b)))),
            JsonValue::Str(s) => record.config_pair(key, s),
            JsonValue::Arr(items) => {
                let joined: Vec<&str> = items.iter().filter_map(JsonValue::as_str).collect();
                record.config_pair(key, joined.join(","));
            }
            JsonValue::Null | JsonValue::Obj(_) => {}
        }
    }
    record.started_unix = std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_secs());
    Ok(record)
}

/// Flattens any flat JSON object file into `(name, value)` metric pairs —
/// numbers as-is, booleans as 1/0 — the comparison form `mab-inspect
/// regress` uses for `--baseline-file`/file candidates.
///
/// # Errors
///
/// Returns a message when the file cannot be read or is not a flat JSON
/// object.
pub fn file_metrics(path: &Path) -> Result<Vec<(String, f64)>, String> {
    Ok(ingest_bench_file(path)?.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, body: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("{name}-{}.json", std::process::id()));
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn bench_json_maps_to_metrics_and_config() {
        let path = write_temp(
            "mab-bench-ingest",
            "{\"bench\":\"trace_io\",\"records\":200000,\"bytes_per_record\":4.634,\
             \"replay_pass\":true,\"sweep_app\":\"mcf\",\
             \"sweep_configs\":[\"stride\",\"bingo\"]}",
        );
        let rec = ingest_bench_file(&path).unwrap();
        assert_eq!(rec.experiment, "bench:trace_io");
        assert_eq!(rec.metric("records"), Some(200_000.0));
        assert_eq!(rec.metric("bytes_per_record"), Some(4.634));
        assert_eq!(rec.metric("replay_pass"), Some(1.0));
        assert_eq!(rec.config_value("sweep_app"), Some("mcf"));
        assert_eq!(rec.config_value("sweep_configs"), Some("stride,bingo"));
        assert!(rec
            .config_value("source")
            .unwrap()
            .contains("mab-bench-ingest"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reingesting_the_same_file_matches_outcome() {
        let path = write_temp(
            "mab-bench-dedup",
            "{\"bench\":\"x\",\"v\":1.0,\"pass\":true}",
        );
        let a = ingest_bench_file(&path).unwrap();
        let b = ingest_bench_file(&path).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert!(a.same_outcome(&b));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn non_object_files_error() {
        let path = write_temp("mab-bench-bad", "[1,2,3]");
        assert!(ingest_bench_file(&path).is_err());
        std::fs::remove_file(path).ok();
        assert!(ingest_bench_file(Path::new("/nonexistent.json")).is_err());
    }
}
