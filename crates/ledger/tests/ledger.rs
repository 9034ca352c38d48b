//! End-to-end exercise of the public `mab-ledger` API: bench ingestion
//! through the store, digest lookup, and idempotent re-records.

use mab_ledger::{ingest_bench_file, Append, Ledger, RunRecord};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mab-ledger-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn ingest_record_lookup_pipeline() {
    let dir = temp_dir("pipeline");
    let bench = dir.join("BENCH_fake.json");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        &bench,
        "{\"bench\":\"fake\",\"speedup\":1.25,\"pass\":true,\"host\":\"ci\"}",
    )
    .unwrap();

    let ledger = Ledger::open(dir.join("ledger")).unwrap();
    let record = ingest_bench_file(&bench).unwrap();
    let first = ledger.record(&record).unwrap();
    assert!(matches!(first, Append::Recorded(_)));

    // Ingesting the identical file again under the same code version is a
    // no-op append — the CI smoke job's "digest-stable re-record" check.
    let again = ingest_bench_file(&bench).unwrap();
    assert!(matches!(
        ledger.record(&again).unwrap(),
        Append::Deduplicated(_)
    ));

    // O(1) digest lookup returns the stored record.
    let found = ledger.find(first.digest()).unwrap();
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].experiment, "bench:fake");
    assert_eq!(found[0].metric("speedup"), Some(1.25));

    // A changed result under the same identity appends (history preserved).
    let mut changed = record.clone();
    changed
        .metrics
        .iter_mut()
        .find(|(k, _)| k == "speedup")
        .unwrap()
        .1 = 1.10;
    assert!(matches!(
        ledger.record(&changed).unwrap(),
        Append::Recorded(_)
    ));
    assert_eq!(ledger.find(first.digest()).unwrap().len(), 2);
    assert_eq!(ledger.read_all().unwrap().records.len(), 2);
}

/// A damaged shared ledger must stay readable: every corrupt line is
/// skipped with a warning naming the segment and line, intact records
/// before *and after* the damage survive, and nothing panics — the
/// guarantee `mab-inspect history` (which prints the warnings to stderr)
/// and the regression gates rely on.
#[test]
fn corrupt_lines_are_skipped_with_warnings_not_panics() {
    let dir = temp_dir("corrupt");
    let record = |seed: u64| {
        let mut rec = RunRecord::new("fig_corrupt", &mab_ledger::code_version());
        rec.config_pair("seed", seed);
        rec.metrics.push(("ipc".to_string(), 1.0 + seed as f64));
        rec
    };
    {
        let ledger = Ledger::open(&dir).unwrap();
        ledger.record(&record(1)).unwrap();
        ledger.record(&record(2)).unwrap();
        ledger.record(&record(3)).unwrap();
    }

    // Vandalize the write segment: flip bytes inside the middle record's
    // JSON (CRC mismatch) and append a line that is not framed at all.
    let segment = dir.join("ledger.jsonl");
    let text = std::fs::read_to_string(&segment).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 3);
    lines[1] = lines[1].replace("fig_corrupt", "fig_mangled");
    let mut vandalized = lines.join("\n");
    vandalized.push_str("\nthis-line-was-never-framed\n");
    std::fs::write(&segment, vandalized).unwrap();

    let ledger = Ledger::open(&dir).unwrap();
    let out = ledger.read_all().unwrap();
    assert_eq!(out.records.len(), 2, "{:?}", out.warnings);
    let seeds: Vec<_> = out
        .records
        .iter()
        .map(|r| {
            r.config
                .iter()
                .find(|(k, _)| k == "seed")
                .unwrap()
                .1
                .clone()
        })
        .collect();
    assert_eq!(seeds, ["1", "3"], "records around the damage must survive");
    assert_eq!(out.warnings.len(), 2, "{:?}", out.warnings);
    assert!(out.warnings[0].contains("CRC mismatch") && out.warnings[0].contains(":2"));
    assert!(out.warnings[1].contains("line skipped"));

    // The damaged ledger still accepts appends, and the new record is
    // readable alongside the survivors.
    assert!(matches!(
        ledger.record(&record(4)).unwrap(),
        Append::Recorded(_)
    ));

    // A torn final line with no newline (a writer killed mid-append) is
    // reported as truncated, costs exactly itself, and nothing else.
    let mut torn = std::fs::read_to_string(&segment).unwrap();
    torn.push_str("00000000 {\"torn\":");
    std::fs::write(&segment, torn).unwrap();
    let again = ledger.read_all().unwrap();
    assert_eq!(again.records.len(), 3, "{:?}", again.warnings);
    assert_eq!(again.warnings.len(), 3, "{:?}", again.warnings);
    assert!(again.warnings[2].contains("truncated trailing line"));
}

#[test]
fn records_survive_reopen_across_handles() {
    let dir = temp_dir("reopen");
    let mut rec = RunRecord::new("fig_test", &mab_ledger::code_version());
    rec.config_pair("seed", 3);
    rec.metrics.push(("ipc".to_string(), 2.0));
    {
        let ledger = Ledger::open(&dir).unwrap();
        ledger.record(&rec).unwrap();
    }
    let ledger = Ledger::open(&dir).unwrap();
    let out = ledger.read_all().unwrap();
    assert!(out.warnings.is_empty());
    assert_eq!(out.records.len(), 1);
    assert!(out.records[0].same_outcome(&rec));
    assert!(matches!(
        ledger.record(&rec).unwrap(),
        Append::Deduplicated(_)
    ));
}
