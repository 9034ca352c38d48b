//! Streaming trace reader with CRC verification, front to back.
//!
//! [`Reader::open`] validates the header eagerly (magic, version, payload
//! kind, finalization). Payloads are read and CRC-verified a block at a
//! time, and records decode on demand straight out of the verified block
//! through [`Codec::decode`]. The reader stops at the header's record
//! count and never reads past the last block, so the index footer that
//! earlier builds appended is never read.
//!
//! A read costs about as much as regenerating the records from the seeded
//! generators; replay pays off because one decode is shared by every arm
//! that replays it (`mab-perf`'s `trace_replay` workload measures both).
//!
//! Every allocation is bounded by the file's length, not by a count the
//! file claims: a block that would run past the end of the file is refused
//! before its payload buffer is sized, and [`Reader::read_all`] reserves no
//! more records than the bytes left can hold.
//!
//! Two record access styles:
//!
//! - [`Reader::next_record`] returns `Result`s and never panics — this is
//!   what `mab-trace validate` and the corruption tests use.
//! - [`Reader::records`] adapts the reader into the
//!   `Iterator<Item = Record>` contract the simulators consume; it panics
//!   with the underlying descriptive error if the file is corrupt, exactly
//!   like the simulators' own "trace ended early" contract.

use crate::codec::Codec;
use crate::error::{Result, TraceError};
use crate::format::{decode_header, TraceMeta, HEADER_FIXED_LEN};
use mab_telemetry::crc32;
use std::fs::File;
use std::io::{BufReader, Read, Seek};
use std::marker::PhantomData;
use std::path::Path;

/// Streaming trace reader for one codec.
#[derive(Debug)]
pub struct Reader<C: Codec> {
    input: BufReader<File>,
    /// Length of the file, which bounds every allocation the reader makes.
    file_len: u64,
    meta: TraceMeta,
    /// Codec delta state, reset at every block boundary.
    state: C::State,
    /// Raw payload of the current block (already CRC-verified).
    raw: Vec<u8>,
    /// Decode cursor into `raw`.
    pos: usize,
    /// Records of the current block not yet decoded.
    block_remaining: u32,
    /// Records handed out so far (across all blocks).
    records_read: u64,
    /// Blocks loaded so far (for error messages).
    blocks_read: u64,
    _codec: PhantomData<C>,
}

impl<C: Codec> Reader<C> {
    /// Opens `path` and validates the header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut input = BufReader::new(file);
        let mut fixed = [0u8; HEADER_FIXED_LEN];
        input.read_exact(&mut fixed).map_err(short_header)?;
        let prov_len =
            u16::from_le_bytes([fixed[HEADER_FIXED_LEN - 2], fixed[HEADER_FIXED_LEN - 1]]);
        let mut provenance = vec![0u8; prov_len as usize];
        input.read_exact(&mut provenance).map_err(short_header)?;
        let meta = decode_header(&fixed, provenance)?;
        if meta.kind != C::KIND {
            return Err(TraceError::PayloadKindMismatch {
                found: meta.kind.name(),
                expected: C::KIND.name(),
            });
        }
        Ok(Reader {
            input,
            file_len,
            meta,
            state: C::State::default(),
            raw: Vec::new(),
            pos: 0,
            block_remaining: 0,
            records_read: 0,
            blocks_read: 0,
            _codec: PhantomData,
        })
    }

    /// Header metadata (with the final record count).
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Bytes between the read position and the end of the file.
    fn bytes_left(&mut self) -> Result<u64> {
        Ok(self.file_len.saturating_sub(self.input.stream_position()?))
    }

    /// Returns the next record, `Ok(None)` at a clean end of trace, or a
    /// descriptive error for truncated/corrupt data. Never panics.
    #[inline]
    pub fn next_record(&mut self) -> Result<Option<C::Record>> {
        loop {
            if self.block_remaining > 0 {
                let record = C::decode(&mut self.state, &self.raw, &mut self.pos)?;
                self.block_remaining -= 1;
                self.records_read += 1;
                if self.block_remaining == 0 && self.pos != self.raw.len() {
                    return Err(TraceError::Corrupt {
                        context: "block payload (trailing bytes after the last record)",
                        offset: self.pos as u64,
                    });
                }
                return Ok(Some(record));
            }
            if self.records_read == self.meta.record_count {
                return Ok(None);
            }
            self.load_block()?;
        }
    }

    /// Loads and CRC-checks the next block; records decode on demand from
    /// the verified payload.
    fn load_block(&mut self) -> Result<()> {
        // One span per block, not per record: the block is the unit of I/O
        // and CRC work, and records decode out of it with a few arithmetic
        // ops each.
        mab_telemetry::span!(TraceDecode);
        let (decoded, expected) = (self.records_read, self.meta.record_count);
        let truncated = move |_| TraceError::Truncated { decoded, expected };
        let mut head = [0u8; 8];
        self.input.read_exact(&mut head).map_err(truncated)?;
        let payload_len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        let n_records = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        // A block can never be larger than the most verbose legal encoding
        // of its records; an oversized length means a corrupt or foreign
        // field, not a huge block.
        if n_records == 0 || payload_len > n_records as usize * MAX_RECORD_BYTES {
            return Err(TraceError::Corrupt {
                context: "block header",
                offset: self.records_read,
            });
        }
        if u64::from(n_records) > self.meta.record_count - self.records_read {
            return Err(TraceError::Corrupt {
                context: "block record count (exceeds header total)",
                offset: self.records_read,
            });
        }
        // The payload and its CRC must fit in what is left of the file;
        // refuse a longer block before allocating for it.
        if payload_len as u64 + 4 > self.bytes_left()? {
            return Err(TraceError::Truncated { decoded, expected });
        }
        self.raw.resize(payload_len, 0);
        self.input.read_exact(&mut self.raw).map_err(truncated)?;
        let mut stored = [0u8; 4];
        self.input.read_exact(&mut stored).map_err(truncated)?;
        let stored = u32::from_le_bytes(stored);
        let computed = crc32(&self.raw);
        if stored != computed {
            return Err(TraceError::CrcMismatch {
                block: self.blocks_read,
                stored,
                computed,
            });
        }
        self.state = C::State::default();
        self.pos = 0;
        self.block_remaining = n_records;
        self.blocks_read += 1;
        Ok(())
    }

    /// Decodes the whole remaining trace, verifying every block CRC.
    pub fn read_all(&mut self) -> Result<Vec<C::Record>> {
        // Reserve for the records the header claims, but no more than the
        // bytes left in the file can hold.
        let claimed = self.meta.record_count - self.records_read;
        let fit = self.bytes_left()? / MIN_RECORD_BYTES;
        let mut out = Vec::with_capacity(usize::try_from(claimed.min(fit)).unwrap_or(0));
        while let Some(r) = self.next_record()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Adapts the reader into the `Iterator` contract the simulators
    /// consume.
    ///
    /// # Panics
    ///
    /// The iterator panics with the underlying [`TraceError`] display if the
    /// file turns out to be truncated or corrupt mid-stream; use
    /// [`Reader::next_record`] where errors must be handled.
    pub fn records(self) -> Records<C> {
        Records { reader: self }
    }
}

/// Most bytes one record can legally occupy (tag + two maximal varints for
/// mem records; two bytes for SMT records — the larger bound is used for
/// both kinds' sanity check).
const MAX_RECORD_BYTES: usize = 1 + 10 + 10;

/// Fewest bytes one record can occupy: a memory record's tag and a
/// one-byte pc delta, or an SMT record's two fixed bytes.
const MIN_RECORD_BYTES: u64 = 2;

fn short_header(_: std::io::Error) -> TraceError {
    TraceError::Corrupt {
        context: "file header (file shorter than a trace header)",
        offset: 0,
    }
}

/// Panicking iterator adapter over a [`Reader`] — see [`Reader::records`].
#[derive(Debug)]
pub struct Records<C: Codec> {
    reader: Reader<C>,
}

impl<C: Codec> Records<C> {
    /// Header metadata of the underlying file.
    pub fn meta(&self) -> &TraceMeta {
        self.reader.meta()
    }
}

impl<C: Codec> Iterator for Records<C> {
    type Item = C::Record;

    #[inline]
    fn next(&mut self) -> Option<C::Record> {
        self.reader
            .next_record()
            .unwrap_or_else(|e| panic!("trace replay failed: {e}"))
    }
}
