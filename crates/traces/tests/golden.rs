//! Golden-fixture tests pinning the on-disk byte format.
//!
//! `tests/data/golden.mabt` is a committed native trace and
//! `tests/data/golden.champsim` a committed hand-built ChampSim trace. The
//! tests decode the committed bytes and also re-encode the reference records,
//! so any change to the container layout, the codecs or the ChampSim mapping
//! fails here first.
//!
//! `golden.mabt` was written by a build that appended an index footer after
//! the last block. It is kept byte for byte: it is the proof that such
//! files still decode, and the writer's output must equal it cut at the
//! footer's offset. Nothing regenerates it.

use mab_traces::format::TraceMeta;
use mab_traces::{convert, PayloadKind, TraceReader, TraceWriter, CHAMPSIM_RECORD_BYTES};
use mab_workloads::{MemKind, TraceRecord};
use std::path::{Path, PathBuf};

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// The reference record sequence: every tag, a shared-PC stride pattern
/// (the case delta encoding is built for), a wild address jump, and enough
/// records to cross the 4-record block boundary.
fn golden_records() -> Vec<TraceRecord> {
    vec![
        TraceRecord::alu(0x0040_0000),
        TraceRecord::load(0x0040_0004, 0x0010_0000),
        TraceRecord::load(0x0040_0004, 0x0010_0040),
        TraceRecord::store(0x0040_0008, 0x0020_0000),
        // -- block boundary (block_len = 4): deltas reset here --
        TraceRecord::branch(0x0040_000c),
        TraceRecord {
            pc: 0x0040_0010,
            mem: Some((MemKind::Load, 0x7fff_ffff_f000)),
            is_branch: true, // ChampSim-style branch with a memory operand
        },
        TraceRecord::load(0x0040_0004, 0x0010_0080),
    ]
}

fn golden_meta() -> TraceMeta {
    let mut meta = TraceMeta::new(42, "golden:v1");
    meta.block_len = 4;
    meta
}

/// The hand-built ChampSim instructions behind `golden.champsim`, as raw
/// 64-byte little-endian records.
fn champsim_fixture_bytes() -> Vec<u8> {
    fn raw(ip: u64, is_branch: bool, dest_mem: [u64; 2], src_mem: [u64; 4]) -> Vec<u8> {
        let mut b = vec![0u8; CHAMPSIM_RECORD_BYTES];
        b[0..8].copy_from_slice(&ip.to_le_bytes());
        b[8] = is_branch as u8;
        b[16..24].copy_from_slice(&dest_mem[0].to_le_bytes());
        b[24..32].copy_from_slice(&dest_mem[1].to_le_bytes());
        for (i, a) in src_mem.iter().enumerate() {
            b[32 + 8 * i..40 + 8 * i].copy_from_slice(&a.to_le_bytes());
        }
        b
    }
    let mut out = Vec::new();
    out.extend(raw(0x400, false, [0; 2], [0; 4])); // plain ALU op
    out.extend(raw(0x404, true, [0; 2], [0; 4])); // branch, no memory
    out.extend(raw(0x408, true, [0x9000, 0], [0x1000, 0x2000, 0, 0])); // 2 loads + 1 store
    out.extend(raw(0x410, false, [0x9040, 0x9080], [0; 4])); // 2 stores
    out
}

/// What the ChampSim fixture must expand to: one record per memory operand
/// (loads first), branch flag on the first record of its instruction.
fn champsim_expected_records() -> Vec<TraceRecord> {
    vec![
        TraceRecord::alu(0x400),
        TraceRecord::branch(0x404),
        TraceRecord {
            pc: 0x408,
            mem: Some((MemKind::Load, 0x1000)),
            is_branch: true,
        },
        TraceRecord::load(0x408, 0x2000),
        TraceRecord::store(0x408, 0x9000),
        TraceRecord::store(0x410, 0x9040),
        TraceRecord::store(0x410, 0x9080),
    ]
}

#[test]
fn golden_native_trace_decodes_to_the_reference_records() {
    let mut reader = TraceReader::open(data_dir().join("golden.mabt")).expect("open fixture");
    let meta = reader.meta().clone();
    assert_eq!(meta.kind, PayloadKind::Mem);
    assert_eq!(meta.line_size, 64);
    assert_eq!(meta.block_len, 4);
    assert_eq!(meta.seed, 42);
    assert_eq!(meta.provenance, "golden:v1");
    assert_eq!(meta.record_count, golden_records().len() as u64);
    assert_eq!(reader.read_all().expect("decode"), golden_records());
}

/// The committed fixture up to its index footer, whose offset is the u64
/// stored 12 bytes before the end (ahead of the `TBAM` magic).
fn golden_without_footer() -> Vec<u8> {
    let mut committed = std::fs::read(data_dir().join("golden.mabt")).expect("read fixture");
    let tail = committed.len() - 12;
    assert_eq!(
        &committed[tail + 8..],
        b"TBAM",
        "fixture ends in its footer"
    );
    let footer_offset = u64::from_le_bytes(committed[tail..tail + 8].try_into().expect("8 bytes"));
    committed.truncate(footer_offset as usize);
    committed
}

#[test]
fn current_writer_reproduces_the_golden_bytes_up_to_the_footer() {
    // Byte-for-byte: encoding is part of the format contract, not an
    // implementation detail — a changed encoder silently breaks every
    // already-recorded trace cache.
    let tmp = std::env::temp_dir().join(format!("mab-golden-reenc-{}.mabt", std::process::id()));
    let mut writer = TraceWriter::create(&tmp, golden_meta()).expect("create");
    for r in &golden_records() {
        writer.push(r).expect("push");
    }
    writer.finish().expect("finish");
    let reencoded = std::fs::read(&tmp).expect("read back");
    std::fs::remove_file(&tmp).ok();
    assert_eq!(
        reencoded,
        golden_without_footer(),
        "writer output diverged from the committed golden.mabt"
    );
}

#[test]
fn golden_champsim_fixture_matches_the_hand_built_bytes() {
    let committed = std::fs::read(data_dir().join("golden.champsim")).expect("read fixture");
    assert_eq!(committed, champsim_fixture_bytes());
}

#[test]
fn golden_champsim_trace_converts_losslessly() {
    let committed = std::fs::read(data_dir().join("golden.champsim")).expect("read fixture");
    let tmp = std::env::temp_dir().join(format!("mab-golden-conv-{}.mabt", std::process::id()));
    let (instrs, written) = convert(
        committed.as_slice(),
        &tmp,
        TraceMeta::new(0, "champsim:golden"),
    )
    .expect("convert");
    assert_eq!(instrs, 4);
    assert_eq!(written, champsim_expected_records().len() as u64);
    let mut reader = TraceReader::open(&tmp).expect("open");
    let decoded = reader.read_all().expect("decode");
    std::fs::remove_file(&tmp).ok();
    assert_eq!(decoded, champsim_expected_records());
}

/// Regenerates the ChampSim fixture (never `golden.mabt`, see the module
/// docs). Run after an intentional change to it:
/// `cargo test -p mab-traces --test golden -- --ignored regenerate`
#[test]
#[ignore = "writes tests/data/golden.champsim; run explicitly after changing it"]
fn regenerate_fixtures() {
    std::fs::create_dir_all(data_dir()).expect("data dir");
    std::fs::write(data_dir().join("golden.champsim"), champsim_fixture_bytes())
        .expect("write champsim fixture");
}
