//! The on-disk ledger: append-only CRC-framed JSONL segments plus a
//! digest index.
//!
//! # Layout
//!
//! ```text
//! results/ledger/
//!   ledger.jsonl   the write segment: one "<crc32 hex8> <record json>\n"
//!                  line per RunRecord, append-only
//!   *.jsonl        further read-only segments (e.g. copied from another
//!                  machine) — scanned by every read, never written
//!   ledger.idx     digest → byte-offset index over ledger.jsonl with a
//!                  trailing "=<segment length>" freshness marker; a pure
//!                  cache, rebuilt from the segment whenever stale
//! ```
//!
//! # Concurrency & corruption
//!
//! Appends serialize through an in-process mutex and hit the file as one
//! `O_APPEND` write of a fully framed line, so concurrent writers (sweep
//! arms in one process, or several experiment processes sharing a ledger)
//! interleave only at line granularity. If a write *is* torn — power loss,
//! a filled disk, two processes racing on an exotic filesystem — the CRC
//! frame catches it: readers verify every line's checksum and **skip** bad
//! lines with a warning, never a panic, so one damaged entry cannot take
//! down the history. An append that finds the segment ending mid-line
//! ends that line first, so a torn tail costs only itself, never the next
//! record. The index carries a freshness marker (the segment length it
//! covers) and falls back to a full scan plus rewrite whenever the marker
//! disagrees with the file.

use crate::record::RunRecord;
use mab_telemetry::crc32;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File name of the write segment.
pub const SEGMENT: &str = "ledger.jsonl";
/// File name of the digest index.
pub const INDEX: &str = "ledger.idx";

/// Outcome of [`Ledger::record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Append {
    /// The record was appended; carries its digest.
    Recorded(String),
    /// An identical-outcome record with the same digest already exists;
    /// nothing was written.
    Deduplicated(String),
}

impl Append {
    /// The digest of the (possibly pre-existing) record.
    pub fn digest(&self) -> &str {
        match self {
            Append::Recorded(d) | Append::Deduplicated(d) => d,
        }
    }
}

/// Result of reading a ledger: the surviving records plus one warning per
/// skipped (truncated / corrupt / unparseable) line.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// All readable records, in segment order (write segment first by
    /// name-sorted file order, records in append order within a segment).
    pub records: Vec<RunRecord>,
    /// One human-readable warning per skipped line.
    pub warnings: Vec<String>,
}

/// Handle to a ledger directory.
#[derive(Debug)]
pub struct Ledger {
    dir: PathBuf,
    write_lock: Mutex<()>,
}

impl Ledger {
    /// Opens (creating if needed) the ledger under `dir`.
    ///
    /// # Errors
    ///
    /// Fails only when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Ledger> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Ledger {
            dir,
            write_lock: Mutex::new(()),
        })
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records `record`, unless an entry with the same digest and the same
    /// outcome already exists — then the append is a no-op
    /// ([`Append::Deduplicated`]), which is what makes re-recording a
    /// deterministic run idempotent and result-memoization sound.
    ///
    /// A digest collision with a *different* outcome (code change the
    /// version string missed, or genuine nondeterminism) is appended anyway:
    /// an append-only history must surface disagreement, not hide it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the segment or index files.
    pub fn record(&self, record: &RunRecord) -> std::io::Result<Append> {
        let digest = record.digest();
        let _guard = self.write_lock.lock().unwrap();
        if self
            .find(&digest)?
            .iter()
            .any(|existing| existing.same_outcome(record))
        {
            return Ok(Append::Deduplicated(digest));
        }
        let segment = self.dir.join(SEGMENT);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&segment)?;
        let offset = file.seek(SeekFrom::End(0))?;
        // A writer that died mid-line left a tail without its newline:
        // end that line first, or this record would join it and fail its
        // CRC along with it.
        let mut last = [b'\n'];
        if offset > 0 {
            file.seek(SeekFrom::Start(offset - 1))?;
            file.read_exact(&mut last)?;
        }
        let torn = last[0] != b'\n';
        let mut line = frame(&record.to_json());
        if torn {
            line.insert(0, '\n');
        }
        // One write_all of the fully framed line: concurrent O_APPEND
        // writers interleave at line granularity, and anything torn is
        // caught by the CRC on read.
        file.write_all(line.as_bytes())?;
        // The newline may have completed the torn tail into a record the
        // index never saw: leave the index stale, so the next lookup
        // rescans the segment and indexes both.
        if !torn {
            self.extend_index(&digest, offset, offset + line.len() as u64)?;
        }
        Ok(Append::Recorded(digest))
    }

    /// All records with the given digest (usually zero or one; several when
    /// reruns disagreed). When the index is fresh, a lookup reads and
    /// parses all of `ledger.idx` (a linear pass over short `digest offset`
    /// lines) and then seeks to each matching record, so it never parses
    /// the other records; a stale index falls back to a scan (rebuilding
    /// the index). Extra read-only segments are always scanned.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corrupt lines are skipped, not errors.
    pub fn find(&self, digest: &str) -> std::io::Result<Vec<RunRecord>> {
        let mut found = Vec::new();
        let segment = self.dir.join(SEGMENT);
        if segment.is_file() {
            match self.fresh_index()? {
                Some(entries) => {
                    let mut file = File::open(&segment)?;
                    for (d, offset) in &entries {
                        if d == digest {
                            if let Some(rec) = read_record_at(&mut file, *offset) {
                                found.push(rec);
                            }
                        }
                    }
                }
                None => {
                    let (entries, _) = scan_segment(&segment)?;
                    self.write_index(&entries, std::fs::metadata(&segment)?.len())?;
                    for (rec, _) in entries {
                        if rec.digest() == digest {
                            found.push(rec);
                        }
                    }
                }
            }
        }
        for path in self.extra_segments()? {
            let (entries, _) = scan_segment(&path)?;
            for (rec, _) in entries {
                if rec.digest() == digest {
                    found.push(rec);
                }
            }
        }
        Ok(found)
    }

    /// Reads every record in every segment, collecting warnings for skipped
    /// lines instead of failing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening or reading segment files; damaged
    /// *contents* only produce warnings.
    pub fn read_all(&self) -> std::io::Result<ReadOutcome> {
        let mut out = ReadOutcome::default();
        let mut paths = Vec::new();
        let segment = self.dir.join(SEGMENT);
        if segment.is_file() {
            paths.push(segment);
        }
        paths.extend(self.extra_segments()?);
        for path in paths {
            let (entries, warnings) = scan_segment(&path)?;
            out.records.extend(entries.into_iter().map(|(rec, _)| rec));
            out.warnings.extend(warnings);
        }
        Ok(out)
    }

    /// Read-only segments: every `*.jsonl` except the write segment, sorted
    /// by file name for deterministic read order.
    fn extra_segments(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut extras = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".jsonl") && name != SEGMENT && path.is_file() {
                extras.push(path);
            }
        }
        extras.sort();
        Ok(extras)
    }

    /// Loads the index if its freshness marker matches the current segment
    /// length; `None` means "stale or absent — rescan".
    fn fresh_index(&self) -> std::io::Result<Option<Vec<(String, u64)>>> {
        let path = self.dir.join(INDEX);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(None);
        };
        let mut entries = Vec::new();
        let mut covered: Option<u64> = None;
        for line in text.lines() {
            if let Some(len) = line.strip_prefix('=') {
                covered = len.parse().ok();
            } else if let Some((digest, offset)) = line.split_once(' ') {
                match offset.parse() {
                    Ok(offset) => entries.push((digest.to_string(), offset)),
                    Err(_) => return Ok(None),
                }
            } else if !line.is_empty() {
                return Ok(None);
            }
        }
        let segment_len = std::fs::metadata(self.dir.join(SEGMENT))?.len();
        Ok((covered == Some(segment_len)).then_some(entries))
    }

    /// Appends one index entry plus the new freshness marker. The caller
    /// (`record`) has just run `find`, which rebuilds a stale index before
    /// this append extends it; a writer dying between the segment and index
    /// writes leaves a mismatched marker, which the next reader repairs by
    /// rescanning.
    fn extend_index(&self, digest: &str, offset: u64, new_len: u64) -> std::io::Result<()> {
        let path = self.dir.join(INDEX);
        let addition = format!("{digest} {offset}\n={new_len}\n");
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(addition.as_bytes())
    }

    /// Rewrites the index from scanned entries.
    fn write_index(&self, entries: &[(RunRecord, u64)], segment_len: u64) -> std::io::Result<()> {
        let mut text = String::new();
        for (rec, offset) in entries {
            text.push_str(&format!("{} {offset}\n", rec.digest()));
        }
        text.push_str(&format!("={segment_len}\n"));
        std::fs::write(self.dir.join(INDEX), text)
    }
}

/// Frames a record line: `crc32(json) as 8 hex digits`, a space, the JSON,
/// a newline.
fn frame(json: &str) -> String {
    format!("{:08x} {json}\n", crc32(json.as_bytes()))
}

/// Verifies and parses one framed line (without its newline).
fn unframe(line: &str) -> Result<RunRecord, String> {
    let (crc_text, json) = line
        .split_once(' ')
        .ok_or_else(|| "missing CRC frame".to_string())?;
    let stated = u32::from_str_radix(crc_text, 16).map_err(|_| "bad CRC field".to_string())?;
    let actual = crc32(json.as_bytes());
    if stated != actual {
        return Err(format!(
            "CRC mismatch (stated {stated:08x}, actual {actual:08x})"
        ));
    }
    RunRecord::from_json(json)
}

/// Reads the framed line starting at `offset`; `None` when the line fails
/// verification (the caller falls back to scanning).
fn read_record_at(file: &mut File, offset: u64) -> Option<RunRecord> {
    file.seek(SeekFrom::Start(offset)).ok()?;
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    reader.read_until(b'\n', &mut line).ok()?;
    let text = std::str::from_utf8(&line).ok()?;
    unframe(text.trim_end_matches('\n')).ok()
}

/// Result of scanning one segment: `(record, byte offset)` pairs for every
/// valid line, plus one warning per skipped line.
type ScanOutcome = (Vec<(RunRecord, u64)>, Vec<String>);

/// Scans a whole segment. A final line without a newline is treated as torn
/// (a writer may still be mid-append) and skipped with a warning.
fn scan_segment(path: &Path) -> std::io::Result<ScanOutcome> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let name = path.display();
    let mut records = Vec::new();
    let mut warnings = Vec::new();
    let mut offset = 0usize;
    let mut line_no = 0usize;
    while offset < bytes.len() {
        line_no += 1;
        let rest = &bytes[offset..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            warnings.push(format!(
                "{name}:{line_no}: truncated trailing line ({} bytes) skipped",
                rest.len()
            ));
            break;
        };
        let line = &rest[..nl];
        // Bit flips can produce invalid UTF-8; lossy decoding keeps the
        // line comparable and lets the CRC check reject it cleanly. An
        // empty line is the newline that ends a torn tail, written by
        // every appender that found the tail (see `Ledger::record`).
        if !line.is_empty() {
            match unframe(&String::from_utf8_lossy(line)) {
                Ok(rec) => records.push((rec, offset as u64)),
                Err(why) => warnings.push(format!("{name}:{line_no}: {why}; line skipped")),
            }
        }
        offset += nl + 1;
    }
    Ok((records, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ArmRun;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mab-ledger-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn record(seed: u64) -> RunRecord {
        let mut r = RunRecord::new("fig_test", "0.1.0+abc1234");
        r.config_pair("seed", seed);
        r.config_pair("instructions", 1000);
        r.metrics = vec![("ipc".to_string(), 1.5 + seed as f64)];
        r.arms = vec![ArmRun {
            sweep: 0,
            index: 0,
            seed,
            wall_ns: 10,
        }];
        r.wall_ms = 1.0;
        r
    }

    #[test]
    fn record_then_read_round_trips() {
        let ledger = Ledger::open(temp_dir("roundtrip")).unwrap();
        let r = record(1);
        assert!(matches!(ledger.record(&r).unwrap(), Append::Recorded(_)));
        let out = ledger.read_all().unwrap();
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        assert_eq!(out.records, vec![r]);
    }

    #[test]
    fn identical_rerecord_is_a_noop() {
        let ledger = Ledger::open(temp_dir("dedup")).unwrap();
        let r = record(1);
        let first = ledger.record(&r).unwrap();
        // Timing/circumstance fields differ between reruns; dedup ignores
        // them.
        let mut rerun = r.clone();
        rerun.wall_ms = 99.0;
        rerun.started_unix = 7;
        rerun.jobs = 8;
        rerun.arms[0].wall_ns = 12345;
        let second = ledger.record(&rerun).unwrap();
        assert!(matches!(first, Append::Recorded(_)));
        assert!(matches!(second, Append::Deduplicated(_)));
        assert_eq!(first.digest(), second.digest());
        assert_eq!(ledger.read_all().unwrap().records.len(), 1);
    }

    #[test]
    fn old_line_with_the_retired_kernel_mode_field_loads_and_dedups() {
        // Lines written before the kernel-mode switch was deleted carry a
        // `kernel_mode` circumstance. It was never digested, so such a line
        // still reads back and still dedups a fresh record of the same run.
        let dir = temp_dir("old-kernel-mode");
        let ledger = Ledger::open(&dir).unwrap();
        let fresh = record(1);
        let old = format!(
            concat!(
                "{{\"v\":1,\"digest\":\"{}\",\"experiment\":\"fig_test\",",
                "\"code\":\"0.1.0+abc1234\",\"config\":{{\"instructions\":\"1000\",",
                "\"seed\":\"1\"}},\"jobs\":2,\"started_unix\":5,\"wall_ms\":3.5,",
                "\"metrics\":{{\"ipc\":2.5}},\"arms\":[{{\"sweep\":0,\"index\":0,",
                "\"seed\":1,\"wall_ns\":99}}],\"cpus\":8,\"kernel_mode\":\"scalar\",",
                "\"host\":\"old-host\",\"artifacts\":{{}}}}"
            ),
            fresh.digest()
        );
        std::fs::write(dir.join(SEGMENT), frame(&old)).unwrap();
        let out = ledger.read_all().unwrap();
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].host.as_deref(), Some("old-host"));
        assert!(matches!(
            ledger.record(&fresh).unwrap(),
            Append::Deduplicated(_)
        ));
        assert_eq!(ledger.read_all().unwrap().records.len(), 1);
    }

    #[test]
    fn rerecord_with_full_64_bit_seeds_still_dedups() {
        // Dedup compares the fresh in-memory record against the *parsed*
        // stored one, so any serialization lossiness (e.g. seeds above
        // f64's 2^53 mantissa) shows up here as a spurious append.
        let ledger = Ledger::open(temp_dir("dedup-seed")).unwrap();
        let mut r = record(1);
        r.arms[0].seed = 13_679_457_532_755_275_413;
        assert!(matches!(ledger.record(&r).unwrap(), Append::Recorded(_)));
        assert!(matches!(
            ledger.record(&r).unwrap(),
            Append::Deduplicated(_)
        ));
        assert_eq!(ledger.read_all().unwrap().records.len(), 1);
    }

    #[test]
    fn conflicting_outcome_same_digest_is_appended() {
        let ledger = Ledger::open(temp_dir("conflict")).unwrap();
        let r = record(1);
        ledger.record(&r).unwrap();
        let mut conflicting = r.clone();
        conflicting.metrics[0].1 += 1.0;
        assert_eq!(conflicting.digest(), r.digest());
        assert!(matches!(
            ledger.record(&conflicting).unwrap(),
            Append::Recorded(_)
        ));
        assert_eq!(ledger.find(&r.digest()).unwrap().len(), 2);
    }

    #[test]
    fn find_uses_the_index_and_survives_staleness() {
        let dir = temp_dir("index");
        let ledger = Ledger::open(&dir).unwrap();
        for seed in 0..10 {
            ledger.record(&record(seed)).unwrap();
        }
        let digest = record(7).digest();
        assert_eq!(ledger.find(&digest).unwrap().len(), 1);
        // Clobber the index: lookups must still succeed (scan fallback)
        // and the index must be rebuilt fresh.
        std::fs::write(dir.join(INDEX), "garbage\n").unwrap();
        assert_eq!(ledger.find(&digest).unwrap().len(), 1);
        let reopened = Ledger::open(&dir).unwrap();
        assert!(reopened.fresh_index().unwrap().is_some());
        // Delete it entirely: same story.
        std::fs::remove_file(dir.join(INDEX)).unwrap();
        assert_eq!(ledger.find(&digest).unwrap().len(), 1);
    }

    #[test]
    fn extra_segments_are_read() {
        let dir = temp_dir("extra");
        let ledger = Ledger::open(&dir).unwrap();
        ledger.record(&record(1)).unwrap();
        let other = record(99);
        std::fs::write(dir.join("imported.jsonl"), frame(&other.to_json())).unwrap();
        let out = ledger.read_all().unwrap();
        assert_eq!(out.records.len(), 2);
        assert_eq!(ledger.find(&other.digest()).unwrap().len(), 1);
    }

    #[test]
    fn corrupt_and_truncated_lines_warn_but_never_panic() {
        let dir = temp_dir("corrupt");
        let ledger = Ledger::open(&dir).unwrap();
        for seed in 0..3 {
            ledger.record(&record(seed)).unwrap();
        }
        let seg = dir.join(SEGMENT);
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip a byte inside the middle record's JSON.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        // Append garbage, an unframed line, and a torn (no-newline) tail.
        bytes.extend_from_slice(b"deadbeef {\"not\":\"a record\"}\n");
        bytes.extend_from_slice(b"no-frame-here\n");
        bytes.extend_from_slice(b"00000000 {\"torn\":");
        std::fs::write(&seg, &bytes).unwrap();

        let out = ledger.read_all().unwrap();
        assert_eq!(out.records.len(), 2, "{:?}", out.warnings);
        assert_eq!(out.warnings.len(), 4, "{:?}", out.warnings);
        assert!(out.warnings.iter().any(|w| w.contains("CRC mismatch")));
        assert!(out.warnings.iter().any(|w| w.contains("truncated")));
    }

    #[test]
    fn a_record_after_a_torn_tail_lands_intact_at_every_cut() {
        let dir = temp_dir("torn-tail");
        let (r1, torn, r2) = (record(1), record(99), record(2));
        let line = frame(&torn.to_json());
        let only_r2 = std::slice::from_ref(&r2);
        for cut in 1..line.len() {
            std::fs::remove_dir_all(&dir).ok();
            let ledger = Ledger::open(&dir).unwrap();
            ledger.record(&r1).unwrap();
            let mut segment = OpenOptions::new()
                .append(true)
                .open(dir.join(SEGMENT))
                .unwrap();
            segment.write_all(&line.as_bytes()[..cut]).unwrap();
            assert!(
                matches!(ledger.record(&r2).unwrap(), Append::Recorded(_)),
                "cut {cut}"
            );
            // A cut that lost only the newline leaves the torn record whole.
            let whole = cut == line.len() - 1;
            let out = ledger.read_all().unwrap();
            let expected = if whole {
                vec![r1.clone(), torn.clone(), r2.clone()]
            } else {
                vec![r1.clone(), r2.clone()]
            };
            assert_eq!(out.records, expected, "cut {cut}");
            assert_eq!(
                out.warnings.len(),
                usize::from(!whole),
                "cut {cut}: {:?}",
                out.warnings
            );
            assert_eq!(ledger.find(&r2.digest()).unwrap(), only_r2, "cut {cut}");
            let found_torn = ledger.find(&torn.digest()).unwrap().len();
            assert_eq!(found_torn, usize::from(whole), "cut {cut}");
            std::fs::remove_file(dir.join(INDEX)).unwrap();
            assert_eq!(ledger.find(&r2.digest()).unwrap(), only_r2, "cut {cut}");
            assert!(
                matches!(ledger.record(&r2).unwrap(), Append::Deduplicated(_)),
                "cut {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_appends_from_many_threads_all_land() {
        let dir = temp_dir("threads");
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let dir = dir.clone();
                scope.spawn(move || {
                    // Separate handles per thread: the cross-process case.
                    let ledger = Ledger::open(dir).unwrap();
                    for i in 0..16u64 {
                        ledger.record(&record(t * 100 + i)).unwrap();
                    }
                });
            }
        });
        let ledger = Ledger::open(&dir).unwrap();
        let out = ledger.read_all().unwrap();
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        assert_eq!(out.records.len(), 128);
        let mut digests: Vec<String> = out.records.iter().map(RunRecord::digest).collect();
        digests.sort();
        digests.dedup();
        assert_eq!(digests.len(), 128);
    }
}
