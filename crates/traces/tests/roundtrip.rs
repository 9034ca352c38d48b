//! Round-trip property tests: any record sequence written through the
//! container comes back identical, and a recorded file is a byte-exact
//! prefix of the seeded generator stream it was recorded from.

use mab_traces::format::TraceMeta;
use mab_traces::{
    record_app_to_file, record_smt_to_file, SmtTraceReader, SmtTraceWriter, TraceReader,
    TraceWriter,
};
use mab_workloads::smt::{self, MemClass, SmtInstr, SmtOpKind};
use mab_workloads::{suites, MemKind, TraceRecord};
use proptest::prelude::*;
use std::path::PathBuf;

/// A unique temp path per test (parallel test binaries must not collide).
fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mab-traces-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.mabt"))
}

fn write_mem(path: &PathBuf, records: &[TraceRecord], block_len: u32) {
    let mut meta = TraceMeta::new(7, "test:roundtrip");
    meta.block_len = block_len;
    let mut writer = TraceWriter::create(path, meta).expect("create");
    for r in records {
        writer.push(r).expect("push");
    }
    writer.finish().expect("finish");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    /// Arbitrary record mixtures (including wild PC/address jumps that
    /// stress the zigzag deltas) survive write → read unchanged, across
    /// block boundaries.
    fn arbitrary_mem_records_round_trip(
        case in 0u64..u64::MAX,
        n in 0usize..600,
        block_len in 1u32..64,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(case);
        let records: Vec<TraceRecord> = (0..n)
            .map(|_| match rng.gen_range(0..4) {
                0 => TraceRecord::alu(rng.gen()),
                1 => TraceRecord::branch(rng.gen()),
                2 => TraceRecord::load(rng.gen(), rng.gen()),
                _ => TraceRecord {
                    pc: rng.gen(),
                    mem: Some((MemKind::Store, rng.gen())),
                    is_branch: rng.gen(),
                },
            })
            .collect();
        let path = temp_path(&format!("prop-{case}"));
        write_mem(&path, &records, block_len);
        let mut reader = TraceReader::open(&path).expect("open");
        prop_assert_eq!(reader.meta().record_count, records.len() as u64);
        let decoded = reader.read_all().expect("read_all");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(decoded, records);
    }
}

#[test]
fn recorded_app_trace_replays_the_generator_stream() {
    let app = suites::app_by_name("mcf").expect("catalog app");
    let n = 50_000u64;
    let path = temp_path("app-mcf");
    let meta = record_app_to_file(&app, 9, n, &path).expect("record");
    assert_eq!(meta.record_count, n);
    assert_eq!(meta.seed, 9);
    assert_eq!(meta.provenance, "app:mcf");
    let reader = TraceReader::open(&path).expect("open");
    let replayed: Vec<TraceRecord> = reader.records().collect();
    let generated: Vec<TraceRecord> = app.trace(9).take(n as usize).collect();
    std::fs::remove_file(&path).ok();
    assert_eq!(replayed, generated);
}

#[test]
fn recorded_smt_trace_replays_the_generator_stream() {
    let spec = smt::thread_by_name("lbm").expect("catalog thread");
    let n = 30_000u64;
    let path = temp_path("smt-lbm");
    let meta = record_smt_to_file(&spec, 11, n, &path).expect("record");
    assert_eq!(meta.record_count, n);
    let reader = SmtTraceReader::open(&path).expect("open");
    let replayed: Vec<SmtInstr> = reader.records().collect();
    let generated: Vec<SmtInstr> = spec.stream(11).take(n as usize).collect();
    std::fs::remove_file(&path).ok();
    assert_eq!(replayed, generated);
}

#[test]
fn smt_writer_round_trips_every_op_kind() {
    let records = vec![
        SmtInstr {
            kind: SmtOpKind::Alu,
            dep_distance: 1,
            int_dest: true,
        },
        SmtInstr {
            kind: SmtOpKind::LongAlu,
            dep_distance: 200,
            int_dest: false,
        },
        SmtInstr {
            kind: SmtOpKind::Load(MemClass::L1),
            dep_distance: 2,
            int_dest: true,
        },
        SmtInstr {
            kind: SmtOpKind::Load(MemClass::Mem),
            dep_distance: 9,
            int_dest: false,
        },
        SmtInstr {
            kind: SmtOpKind::Store(MemClass::L2),
            dep_distance: 3,
            int_dest: false,
        },
        SmtInstr {
            kind: SmtOpKind::Branch { mispredicted: true },
            dep_distance: 4,
            int_dest: true,
        },
    ];
    let path = temp_path("smt-kinds");
    let mut meta = TraceMeta::new(0, "test:smt-kinds");
    meta.block_len = 4; // force a block boundary mid-sequence
    let mut writer = SmtTraceWriter::create(&path, meta).expect("create");
    for r in &records {
        writer.push(r).expect("push");
    }
    writer.finish().expect("finish");
    let mut reader = SmtTraceReader::open(&path).expect("open");
    let decoded = reader.read_all().expect("read_all");
    std::fs::remove_file(&path).ok();
    assert_eq!(decoded, records);
}

#[test]
fn empty_trace_is_valid_and_yields_no_records() {
    let path = temp_path("empty");
    let writer = TraceWriter::create(&path, TraceMeta::new(1, "test:empty")).expect("create");
    writer.finish().expect("finish");
    let mut reader = TraceReader::open(&path).expect("open");
    assert_eq!(reader.meta().record_count, 0);
    assert!(reader.next_record().expect("next").is_none());
    std::fs::remove_file(&path).ok();
}
