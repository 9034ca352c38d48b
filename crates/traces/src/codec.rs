//! Record codecs: how one [`TraceRecord`] / [`SmtInstr`] maps to bytes.
//!
//! Memory records are delta-encoded: the PC and the memory address are each
//! stored as a zigzag LEB128 varint relative to the previous record's value.
//! Synthetic and real traces alike loop over a handful of PCs with regular
//! strides, so most records compress to 2–4 bytes (vs 17 raw, vs 64 in
//! ChampSim's format). SMT records carry no addresses and pack into a fixed
//! 2 bytes. Codec state resets at every block boundary so blocks stay
//! independently decodable.

use crate::error::{Result, TraceError};
use crate::format::{get_ivarint, put_ivarint, PayloadKind};
use mab_workloads::smt::{MemClass, SmtInstr, SmtOpKind};
use mab_workloads::{MemKind, TraceRecord};

/// A reversible record ↔ bytes mapping with per-block delta state.
pub trait Codec {
    /// Payload kind stamped in the header.
    const KIND: PayloadKind;
    /// The record type this codec carries.
    type Record: Copy + PartialEq + std::fmt::Debug;
    /// Delta state; `Default` is the block-boundary reset value.
    type State: Default + std::fmt::Debug;

    /// Appends the encoding of `record` to `out`.
    fn encode(state: &mut Self::State, record: &Self::Record, out: &mut Vec<u8>);

    /// Decodes one record from `buf` at `*pos`, advancing `*pos`.
    fn decode(state: &mut Self::State, buf: &[u8], pos: &mut usize) -> Result<Self::Record>;
}

// ---------------------------------------------------------------------------
// Memory traces
// ---------------------------------------------------------------------------

/// Codec for [`TraceRecord`] streams (the memory-hierarchy simulator input).
#[derive(Debug)]
pub struct MemCodec;

/// Previous-record values the deltas are taken against.
#[derive(Debug, Default)]
pub struct MemState {
    prev_pc: u64,
    prev_addr: u64,
}

const TAG_ALU: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_BRANCH: u8 = 3;
/// Tag bit set when the record is also a branch (ChampSim allows a branch
/// with memory operands; the synthetic generators never emit one).
const TAG_BRANCH_MEM: u8 = 4;
const TAG_BRANCH_LOAD: u8 = TAG_LOAD | TAG_BRANCH_MEM;
const TAG_BRANCH_STORE: u8 = TAG_STORE | TAG_BRANCH_MEM;

impl Codec for MemCodec {
    const KIND: PayloadKind = PayloadKind::Mem;
    type Record = TraceRecord;
    type State = MemState;

    #[inline]
    fn encode(state: &mut MemState, record: &TraceRecord, out: &mut Vec<u8>) {
        let tag = match record.mem {
            None if !record.is_branch => TAG_ALU,
            None => TAG_BRANCH,
            Some((MemKind::Load, _)) => TAG_LOAD | branch_bit(record.is_branch),
            Some((MemKind::Store, _)) => TAG_STORE | branch_bit(record.is_branch),
        };
        out.push(tag);
        put_ivarint(out, record.pc.wrapping_sub(state.prev_pc) as i64);
        state.prev_pc = record.pc;
        if let Some((_, addr)) = record.mem {
            put_ivarint(out, addr.wrapping_sub(state.prev_addr) as i64);
            state.prev_addr = addr;
        }
    }

    #[inline]
    fn decode(state: &mut MemState, buf: &[u8], pos: &mut usize) -> Result<TraceRecord> {
        // Fast path: unaligned 8-byte loads + a branchless stop-bit varint
        // decode cover every realistic record (varints up to 8 bytes, i.e.
        // deltas to ±2^55). Only 9–10-byte varints, corrupt tags and the
        // last few bytes of a block fall through to the byte-wise path
        // below, which re-reads from the untouched `*pos`.
        if let Some(record) = decode_fast(state, buf, pos) {
            return Ok(record);
        }
        let &tag = buf.get(*pos).ok_or(TraceError::Corrupt {
            context: "record tag (ran off the end of the block)",
            offset: *pos as u64,
        })?;
        *pos += 1;
        let pc = state.prev_pc.wrapping_add(get_ivarint(buf, pos)? as u64);
        state.prev_pc = pc;
        let (kind, is_branch) = match (tag & !TAG_BRANCH_MEM, tag & TAG_BRANCH_MEM != 0) {
            (TAG_ALU, false) => return Ok(TraceRecord::alu(pc)),
            (TAG_BRANCH, false) => return Ok(TraceRecord::branch(pc)),
            (TAG_LOAD, b) => (MemKind::Load, b),
            (TAG_STORE, b) => (MemKind::Store, b),
            _ => {
                return Err(TraceError::Corrupt {
                    context: "record tag (unknown value)",
                    offset: *pos as u64,
                })
            }
        };
        let addr = state.prev_addr.wrapping_add(get_ivarint(buf, pos)? as u64);
        state.prev_addr = addr;
        Ok(TraceRecord {
            pc,
            mem: Some((kind, addr)),
            is_branch,
        })
    }
}

#[inline]
fn branch_bit(is_branch: bool) -> u8 {
    if is_branch {
        TAG_BRANCH_MEM
    } else {
        0
    }
}

/// Gathers the 7 payload bits of each byte in `w` into a contiguous value.
/// `w` must already be masked to the varint's bytes; the per-byte
/// continuation bits are dropped here. Three halving steps (7-bit lanes →
/// 14 → 28 → 56) instead of the naive eight per-byte extract/shift/or
/// rounds — two of these run per record, so the ~2× shorter dependency
/// tree is measurable on the replay path.
#[inline(always)]
fn compact7(w: u64) -> u64 {
    let w = w & 0x7F7F_7F7F_7F7F_7F7F;
    let w = (w & 0x007F_007F_007F_007F) | ((w >> 1) & 0x3F80_3F80_3F80_3F80);
    let w = (w & 0x0000_3FFF_0000_3FFF) | ((w >> 2) & 0x0FFF_C000_0FFF_C000);
    (w & 0x0000_0000_0FFF_FFFF) | ((w >> 4) & 0x00FF_FFFF_F000_0000)
}

/// Branchless decode of a 1–8-byte zigzag varint from the first 8 bytes of
/// `bytes`: the terminator byte is found via the stop-bit mask, so the
/// length costs one `trailing_zeros` instead of a loop. Returns the value
/// and encoded length; `None` sends 9–10-byte varints (deltas beyond
/// ±2^55) to the byte-wise loop.
#[inline(always)]
fn fast_ivarint(bytes: &[u8]) -> Option<(i64, usize)> {
    let chunk: &[u8; 8] = bytes.first_chunk()?;
    let word = u64::from_le_bytes(*chunk);
    let stop = !word & 0x8080_8080_8080_8080;
    if stop == 0 {
        return None;
    }
    let len = (stop.trailing_zeros() >> 3) as usize + 1;
    let raw = compact7(word & (u64::MAX >> (64 - 8 * len as u32)));
    Some((((raw >> 1) as i64) ^ -((raw & 1) as i64), len))
}

/// Window the fast path needs beyond the record start: 1 tag byte plus two
/// 8-byte varint loads.
const FAST_WINDOW: usize = 17;

/// Decodes one record from `buf` when at least [`FAST_WINDOW`] bytes
/// remain, advancing `*pos` and `state` only on success. `None` means
/// "take the byte-wise path" — nothing was consumed.
#[inline(always)]
fn decode_fast(state: &mut MemState, buf: &[u8], pos: &mut usize) -> Option<TraceRecord> {
    let p = *pos;
    // 1 tag + 8 pc-varint + 8 addr-varint: both `fast_ivarint` slices below
    // are in bounds by construction.
    let bytes = buf.get(p..p + FAST_WINDOW)?;
    let tag = bytes[0];
    if !matches!(
        tag,
        TAG_ALU | TAG_LOAD | TAG_STORE | TAG_BRANCH | TAG_BRANCH_LOAD | TAG_BRANCH_STORE
    ) {
        return None; // corrupt tag: let the byte-wise path report it
    }
    let (dpc, pc_len) = fast_ivarint(&bytes[1..9])?;
    let pc = state.prev_pc.wrapping_add(dpc as u64);
    // The address varint is decoded unconditionally and discarded for
    // ALU/branch records (where it reads into the next record's bytes) —
    // record kinds are data-dependent, so a branch here would mispredict
    // constantly. A spurious `None` (8 continuation bits in a row) only
    // means the slow path re-decodes this record, never a wrong result.
    let (daddr, addr_len) = fast_ivarint(&bytes[1 + pc_len..9 + pc_len])?;
    let base = tag & !TAG_BRANCH_MEM;
    let has_mem = base == TAG_LOAD || base == TAG_STORE;
    let addr = state.prev_addr.wrapping_add(daddr as u64);
    state.prev_pc = pc;
    state.prev_addr = if has_mem { addr } else { state.prev_addr };
    *pos = p + 1 + pc_len + if has_mem { addr_len } else { 0 };
    let kind = if base == TAG_LOAD {
        MemKind::Load
    } else {
        MemKind::Store
    };
    Some(TraceRecord {
        pc,
        mem: if has_mem { Some((kind, addr)) } else { None },
        is_branch: tag >= TAG_BRANCH,
    })
}

// ---------------------------------------------------------------------------
// SMT traces
// ---------------------------------------------------------------------------

/// Codec for [`SmtInstr`] streams (the SMT pipeline input): two fixed bytes
/// per record — op kind + destination-register class, then the dependency
/// distance.
#[derive(Debug)]
pub struct SmtCodec;

const SMT_INT_DEST: u8 = 0x10;

impl Codec for SmtCodec {
    const KIND: PayloadKind = PayloadKind::Smt;
    type Record = SmtInstr;
    type State = ();

    #[inline]
    fn encode(_: &mut (), record: &SmtInstr, out: &mut Vec<u8>) {
        let kind = match record.kind {
            SmtOpKind::Alu => 0,
            SmtOpKind::LongAlu => 1,
            SmtOpKind::Load(c) => 2 + class_code(c),
            SmtOpKind::Store(c) => 5 + class_code(c),
            SmtOpKind::Branch { mispredicted } => 8 + mispredicted as u8,
        };
        out.push(kind | if record.int_dest { SMT_INT_DEST } else { 0 });
        out.push(record.dep_distance);
    }

    #[inline]
    fn decode(_: &mut (), buf: &[u8], pos: &mut usize) -> Result<SmtInstr> {
        let (&b0, &b1) = match (buf.get(*pos), buf.get(*pos + 1)) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(TraceError::Corrupt {
                    context: "smt record (ran off the end of the block)",
                    offset: *pos as u64,
                })
            }
        };
        *pos += 2;
        let kind = match b0 & 0x0F {
            0 => SmtOpKind::Alu,
            1 => SmtOpKind::LongAlu,
            k @ 2..=4 => SmtOpKind::Load(class_from(k - 2)),
            k @ 5..=7 => SmtOpKind::Store(class_from(k - 5)),
            8 => SmtOpKind::Branch {
                mispredicted: false,
            },
            9 => SmtOpKind::Branch { mispredicted: true },
            _ => {
                return Err(TraceError::Corrupt {
                    context: "smt record (unknown op kind)",
                    offset: *pos as u64,
                })
            }
        };
        if b0 & !(0x0F | SMT_INT_DEST) != 0 || b1 == 0 {
            return Err(TraceError::Corrupt {
                context: "smt record (reserved bits set or zero dependency distance)",
                offset: *pos as u64,
            });
        }
        Ok(SmtInstr {
            kind,
            dep_distance: b1,
            int_dest: b0 & SMT_INT_DEST != 0,
        })
    }
}

#[inline]
fn class_code(c: MemClass) -> u8 {
    match c {
        MemClass::L1 => 0,
        MemClass::L2 => 1,
        MemClass::Mem => 2,
    }
}

#[inline]
fn class_from(code: u8) -> MemClass {
    match code {
        0 => MemClass::L1,
        1 => MemClass::L2,
        _ => MemClass::Mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `fast_ivarint` (branchless stop-bit decode) agrees with the
        /// byte-wise `get_ivarint` reference on every varint it accepts.
        #[test]
        fn fast_ivarint_agrees_with_reference(value in i64::MIN..i64::MAX) {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, value);
            buf.resize(buf.len().max(8), 0);
            if let Some((got, len)) = fast_ivarint(&buf[..8]) {
                let mut pos = 0;
                let want = get_ivarint(&buf, &mut pos).expect("reference decode");
                prop_assert_eq!(got, want);
                prop_assert_eq!(len, pos);
            }
        }
    }

    fn roundtrip_mem(records: &[TraceRecord]) {
        let mut enc = MemState::default();
        let mut buf = Vec::new();
        for r in records {
            MemCodec::encode(&mut enc, r, &mut buf);
        }
        let mut dec = MemState::default();
        let mut pos = 0;
        for r in records {
            assert_eq!(&MemCodec::decode(&mut dec, &buf, &mut pos).unwrap(), r);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn mem_records_round_trip() {
        roundtrip_mem(&[
            TraceRecord::alu(0x400),
            TraceRecord::load(0x404, 0x10_0000),
            TraceRecord::load(0x404, 0x10_0040),
            TraceRecord::store(0x408, 0x20_0000),
            TraceRecord::branch(0x40c),
            TraceRecord::load(0, u64::MAX), // extreme values still round-trip
            TraceRecord {
                pc: 0x500,
                mem: Some((MemKind::Load, 0x1000)),
                is_branch: true, // ChampSim-style branch-with-memory
            },
        ]);
    }

    #[test]
    fn sequential_loads_compress_to_two_bytes() {
        let mut enc = MemState::default();
        let mut buf = Vec::new();
        MemCodec::encode(&mut enc, &TraceRecord::load(0x400, 0x10_0000), &mut buf);
        let first = buf.len();
        MemCodec::encode(&mut enc, &TraceRecord::load(0x400, 0x10_0008), &mut buf);
        // Same PC (delta 0) and an 8-byte stride: tag + 1 + 1 bytes.
        assert_eq!(buf.len() - first, 3);
    }

    #[test]
    fn smt_records_round_trip() {
        let records = [
            SmtInstr {
                kind: SmtOpKind::Alu,
                dep_distance: 1,
                int_dest: true,
            },
            SmtInstr {
                kind: SmtOpKind::LongAlu,
                dep_distance: 24,
                int_dest: false,
            },
            SmtInstr {
                kind: SmtOpKind::Load(MemClass::Mem),
                dep_distance: 3,
                int_dest: true,
            },
            SmtInstr {
                kind: SmtOpKind::Store(MemClass::L1),
                dep_distance: 7,
                int_dest: false,
            },
            SmtInstr {
                kind: SmtOpKind::Branch { mispredicted: true },
                dep_distance: 2,
                int_dest: true,
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            SmtCodec::encode(&mut (), r, &mut buf);
        }
        assert_eq!(buf.len(), records.len() * 2);
        let mut pos = 0;
        for r in &records {
            assert_eq!(&SmtCodec::decode(&mut (), &buf, &mut pos).unwrap(), r);
        }
    }

    #[test]
    fn bad_bytes_decode_to_errors_not_panics() {
        let mut pos = 0;
        assert!(MemCodec::decode(&mut MemState::default(), &[0xFF, 0x00], &mut pos).is_err());
        let mut pos = 0;
        assert!(SmtCodec::decode(&mut (), &[0x0F, 1], &mut pos).is_err());
        let mut pos = 0;
        assert!(
            SmtCodec::decode(&mut (), &[0x00, 0], &mut pos).is_err(),
            "zero dep distance"
        );
        let mut pos = 0;
        assert!(
            SmtCodec::decode(&mut (), &[0x00], &mut pos).is_err(),
            "short buffer"
        );
    }
}
