//! Corruption contract: a damaged trace file must always surface a
//! descriptive [`TraceError`] through [`Reader::next_record`] — never a
//! panic, never silently wrong records. Each test damages a well-formed
//! file in one specific way and pins the error variant it maps to; two
//! properties then damage random files at random points.

use mab_traces::format::{self, TraceMeta, RECORD_COUNT_OFFSET};
use mab_traces::{SmtTraceReader, TraceError, TraceReader, TraceWriter};
use mab_workloads::{MemKind, TraceRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mab-traces-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.mabt"))
}

/// Writes a healthy 1000-record file and returns its bytes.
fn healthy_bytes(tag: &str) -> (PathBuf, Vec<u8>) {
    let path = temp_path(tag);
    let mut meta = TraceMeta::new(5, "test:corruption");
    meta.block_len = 128;
    let mut writer = TraceWriter::create(&path, meta).expect("create");
    for i in 0..1000u64 {
        writer
            .push(&TraceRecord::load(0x400 + i * 4, 0x8000 + i * 64))
            .expect("push");
    }
    writer.finish().expect("finish");
    let bytes = std::fs::read(&path).expect("read back");
    (path, bytes)
}

/// Reads the whole file through the non-panicking API, returning the
/// records handed out and the first error (None if the file is clean).
fn replay(path: &Path) -> (Vec<TraceRecord>, Option<TraceError>) {
    let mut records = Vec::new();
    let mut reader = match TraceReader::open(path) {
        Ok(r) => r,
        Err(e) => return (records, Some(e)),
    };
    loop {
        match reader.next_record() {
            Ok(Some(r)) => records.push(r),
            Ok(None) => return (records, None),
            Err(e) => return (records, Some(e)),
        }
    }
}

fn first_error(path: &Path) -> Option<TraceError> {
    replay(path).1
}

fn random_records(rng: &mut StdRng, n: usize) -> Vec<TraceRecord> {
    (0..n)
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
        .collect()
}

/// Writes `records` in blocks of `block_len` and returns the file bytes.
fn write_records(path: &Path, seed: u64, records: &[TraceRecord], block_len: u32) -> Vec<u8> {
    let mut meta = TraceMeta::new(seed, "test:corruption");
    meta.block_len = block_len;
    let mut writer = TraceWriter::create(path, meta).expect("create");
    for r in records {
        writer.push(r).expect("push");
    }
    writer.finish().expect("finish");
    std::fs::read(path).expect("read back")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random bit flip anywhere in the file never makes `open` or
    /// `next_record` panic, and every record handed out before the error
    /// (or the end) is the one written there. The CRC rejects most flips;
    /// the survivors land in headers the decoder must catch itself.
    #[test]
    fn bit_flips_never_panic_or_alter_the_replayed_prefix(
        case in 0u64..u64::MAX,
        n in 1usize..300,
        block_len in 1u32..48,
    ) {
        let mut rng = StdRng::seed_from_u64(case);
        let records = random_records(&mut rng, n);
        let path = temp_path(&format!("flip-{case}"));
        let mut bytes = write_records(&path, case, &records, block_len);
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1u8 << rng.gen_range(0..8);
        std::fs::write(&path, &bytes).expect("write corrupted");

        let (replayed, _) = replay(&path);
        prop_assert!(replayed.len() <= records.len());
        prop_assert_eq!(&replayed[..], &records[..replayed.len()]);
        std::fs::remove_file(&path).ok();
    }

    /// Cutting the file at a random point never panics either, and the
    /// records read before the truncation surfaces are the written prefix.
    #[test]
    fn truncations_never_panic_or_alter_the_replayed_prefix(
        case in 0u64..u64::MAX,
        n in 1usize..300,
        block_len in 1u32..48,
    ) {
        let mut rng = StdRng::seed_from_u64(case);
        let records = random_records(&mut rng, n);
        let path = temp_path(&format!("cut-{case}"));
        let bytes = write_records(&path, case, &records, block_len);
        let keep = rng.gen_range(0..bytes.len());
        std::fs::write(&path, &bytes[..keep]).expect("write truncated");

        let (replayed, _) = replay(&path);
        prop_assert!(replayed.len() <= records.len());
        prop_assert_eq!(&replayed[..], &records[..replayed.len()]);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn healthy_file_validates_clean() {
    let (path, _) = healthy_bytes("healthy");
    assert!(first_error(&path).is_none());
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_magic_is_a_descriptive_error() {
    let (path, mut bytes) = healthy_bytes("magic");
    bytes[..4].copy_from_slice(b"GZIP");
    std::fs::write(&path, &bytes).expect("write");
    let err = first_error(&path).expect("must fail");
    assert!(matches!(err, TraceError::BadMagic { found } if &found == b"GZIP"));
    assert!(err.to_string().contains("MABT"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn future_format_version_is_rejected_with_upgrade_advice() {
    let (path, mut bytes) = healthy_bytes("version");
    bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");
    let err = first_error(&path).expect("must fail");
    assert!(matches!(
        err,
        TraceError::UnsupportedVersion {
            found: 7,
            supported: format::FORMAT_VERSION
        }
    ));
    assert!(err.to_string().contains("upgrade"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_file_reports_decoded_vs_expected() {
    let (path, bytes) = healthy_bytes("truncated");
    // Cut the file mid-way through the data section: a block ends early.
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
    match first_error(&path).expect("must fail") {
        TraceError::Truncated { decoded, expected } => {
            assert_eq!(expected, 1000);
            assert!(decoded < expected, "decoded {decoded} of {expected}");
        }
        other => panic!("expected Truncated, got {other}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_truncation_point_errors_instead_of_panicking() {
    let (path, bytes) = healthy_bytes("truncation-sweep");
    // The file ends with its last block, so a cut anywhere before the end
    // loses part of a block or a header and must fail.
    let cuts = (0..bytes.len())
        .step_by(61)
        .chain(bytes.len() - 4..bytes.len());
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).expect("write");
        let err = first_error(&path).expect("a truncated file must fail");
        // Any structured error is acceptable; the contract is "no panic,
        // no silent success".
        let _ = err.to_string();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_block_payload_fails_its_crc() {
    let (path, mut bytes) = healthy_bytes("crc");
    // Flip one byte well inside the first block's payload (header is 34
    // bytes + provenance + 8-byte block header).
    let target = 34 + "test:corruption".len() + 8 + 40;
    bytes[target] ^= 0xA5;
    std::fs::write(&path, &bytes).expect("write");
    match first_error(&path).expect("must fail") {
        TraceError::CrcMismatch {
            block: 0,
            stored,
            computed,
        } => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected CrcMismatch on block 0, got {other}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn unfinalized_file_is_detected() {
    let (path, mut bytes) = healthy_bytes("unfinalized");
    let at = RECORD_COUNT_OFFSET as usize;
    bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");
    let err = first_error(&path).expect("must fail");
    assert!(matches!(err, TraceError::Unfinalized));
    assert!(err.to_string().contains("interrupted"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_payload_kind_is_rejected() {
    let (path, mut bytes) = healthy_bytes("kind");
    bytes[6] = 0x42;
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        first_error(&path),
        Some(TraceError::UnknownPayloadKind { found: 0x42 })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn opening_a_mem_trace_with_the_smt_reader_is_a_kind_mismatch() {
    let (path, _) = healthy_bytes("mismatch");
    match SmtTraceReader::open(&path) {
        Err(TraceError::PayloadKindMismatch { found, expected }) => {
            assert_eq!(found, "mem");
            assert_eq!(expected, "smt");
        }
        other => panic!("expected PayloadKindMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn peek_meta_reads_the_header_without_a_typed_reader() {
    let (path, _) = healthy_bytes("peek");
    let meta = format::peek_meta(&path).expect("peek");
    assert_eq!(meta.record_count, 1000);
    assert_eq!(meta.seed, 5);
    assert_eq!(meta.provenance, "test:corruption");
    std::fs::remove_file(&path).ok();
}
