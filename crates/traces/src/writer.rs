//! Streaming, allocation-free trace writer.
//!
//! [`Writer`] buffers one block at a time (a `Vec` reused across blocks — no
//! per-record allocation), CRCs each block as it is flushed, and on
//! [`Writer::finish`] patches the header's record count. The file ends with
//! its last block. A file whose writer never finished is detected by the
//! reader ([`crate::error::TraceError::Unfinalized`]).

use crate::codec::Codec;
use crate::error::Result;
use crate::format::{TraceMeta, RECORD_COUNT_OFFSET};
use mab_telemetry::crc32;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write as _};
use std::marker::PhantomData;
use std::path::Path;

/// Streaming trace writer for one codec.
///
/// # Example
///
/// ```no_run
/// use mab_traces::{format::TraceMeta, TraceWriter};
/// use mab_workloads::TraceRecord;
///
/// let mut w = TraceWriter::create("mcf.mabt", TraceMeta::new(7, "app:mcf")).unwrap();
/// w.push(&TraceRecord::load(0x400, 0x1000)).unwrap();
/// w.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct Writer<C: Codec> {
    out: BufWriter<File>,
    meta: TraceMeta,
    /// Encoded payload of the block under construction.
    block: Vec<u8>,
    block_records: u32,
    state: C::State,
    records: u64,
    _codec: PhantomData<C>,
}

impl<C: Codec> Writer<C> {
    /// Creates `path` (truncating any existing file) and writes the header.
    ///
    /// `meta.kind` is overridden by the codec's kind; `meta.record_count`
    /// is ignored (it is counted while writing).
    pub fn create(path: impl AsRef<Path>, meta: TraceMeta) -> Result<Self> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        let header = meta.encode_header(C::KIND);
        out.write_all(&header)?;
        Ok(Writer {
            out,
            block: Vec::with_capacity(meta.block_len as usize * 4),
            block_records: 0,
            state: C::State::default(),
            records: 0,
            meta,
            _codec: PhantomData,
        })
    }

    /// Appends one record, flushing a block when it fills.
    #[inline]
    pub fn push(&mut self, record: &C::Record) -> Result<()> {
        C::encode(&mut self.state, record, &mut self.block);
        self.block_records += 1;
        self.records += 1;
        if self.block_records == self.meta.block_len {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn flush_block(&mut self) -> Result<()> {
        self.out
            .write_all(&(self.block.len() as u32).to_le_bytes())?;
        self.out.write_all(&self.block_records.to_le_bytes())?;
        self.out.write_all(&self.block)?;
        self.out.write_all(&crc32(&self.block).to_le_bytes())?;
        self.block.clear();
        self.block_records = 0;
        self.state = C::State::default();
        Ok(())
    }

    /// Flushes the final partial block, patches the header's record count
    /// and flushes the file.
    pub fn finish(mut self) -> Result<TraceMeta> {
        if self.block_records > 0 {
            self.flush_block()?;
        }
        // Finalize: the record count replaces the in-progress sentinel.
        self.out.seek(SeekFrom::Start(RECORD_COUNT_OFFSET))?;
        self.out.write_all(&self.records.to_le_bytes())?;
        self.out.flush()?;
        self.meta.record_count = self.records;
        Ok(self.meta)
    }
}
