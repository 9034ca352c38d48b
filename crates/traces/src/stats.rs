//! Workload summaries for `mab-trace stats`.
//!
//! One streaming pass over a memory trace answers the questions that matter
//! when deciding whether an imported or recorded workload exercises a
//! prefetcher: how memory-heavy it is, how large its footprint is, and
//! whether its hot PCs stride regularly (IP-stride fodder) or wander
//! (pointer-chase).

use crate::error::Result;
use crate::TraceReader;
use mab_telemetry::json;
use mab_workloads::trace::LINE_BYTES;
use mab_workloads::{MemKind, TraceRecord};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Per-PC access profile.
#[derive(Debug, Clone)]
pub struct PcProfile {
    /// Program counter.
    pub pc: u64,
    /// Memory accesses from this PC.
    pub accesses: u64,
    /// Most common line stride between consecutive accesses of this PC.
    pub top_stride: i64,
    /// Fraction of this PC's strides equal to `top_stride`.
    pub top_stride_frac: f64,
}

/// Whole-trace summary.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Total records.
    pub records: u64,
    /// Load records.
    pub loads: u64,
    /// Store records.
    pub stores: u64,
    /// Branch records.
    pub branches: u64,
    /// Unique cache lines touched.
    pub footprint_lines: u64,
    /// Distinct memory-accessing PCs.
    pub mem_pcs: u64,
    /// The busiest memory PCs, most accesses first.
    pub top_pcs: Vec<PcProfile>,
}

impl TraceStats {
    /// Fraction of records that access memory.
    pub fn mem_ratio(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / self.records as f64
        }
    }

    /// Fraction of records that are branches.
    pub fn branch_ratio(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.branches as f64 / self.records as f64
        }
    }

    /// Footprint in bytes (lines × the line size).
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_lines * LINE_BYTES
    }

    /// The summary as one JSON object (the `mab-trace stats --json`
    /// payload). All fields are numbers, so no string escaping is needed;
    /// ratios go through the workspace's float writer, [`json::fmt_f64`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"records\":{},\"loads\":{},\"stores\":{},\"branches\":{},\
             \"mem_ratio\":{},\"branch_ratio\":{},\"footprint_lines\":{},\
             \"footprint_bytes\":{},\"mem_pcs\":{},\"top_pcs\":[",
            self.records,
            self.loads,
            self.stores,
            self.branches,
            json::fmt_f64(self.mem_ratio()),
            json::fmt_f64(self.branch_ratio()),
            self.footprint_lines,
            self.footprint_bytes(),
            self.mem_pcs,
        );
        for (i, p) in self.top_pcs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"pc\":{},\"accesses\":{},\"top_stride\":{},\"top_stride_frac\":{}}}",
                p.pc,
                p.accesses,
                p.top_stride,
                json::fmt_f64(p.top_stride_frac)
            ));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "records          {}", self.records)?;
        writeln!(
            f,
            "loads / stores   {} / {}  (mem ratio {:.3})",
            self.loads,
            self.stores,
            self.mem_ratio()
        )?;
        writeln!(
            f,
            "branches         {}  (branch ratio {:.3})",
            self.branches,
            self.branch_ratio()
        )?;
        writeln!(
            f,
            "footprint        {} lines ({:.1} KiB)",
            self.footprint_lines,
            self.footprint_bytes() as f64 / 1024.0
        )?;
        writeln!(f, "memory PCs       {}", self.mem_pcs)?;
        if !self.top_pcs.is_empty() {
            writeln!(f, "hottest PCs (stride in {LINE_BYTES}-byte lines):")?;
            for p in &self.top_pcs {
                writeln!(
                    f,
                    "  pc {:#x}  accesses {}  top stride {:+}  ({:.0}% of strides)",
                    p.pc,
                    p.accesses,
                    p.top_stride,
                    p.top_stride_frac * 100.0
                )?;
            }
        }
        Ok(())
    }
}

#[derive(Default)]
struct PcAccum {
    accesses: u64,
    prev_line: Option<u64>,
    strides: HashMap<i64, u64>,
}

/// Computes [`TraceStats`] over any record stream, keeping the `top` busiest
/// PCs.
pub fn analyze(records: impl Iterator<Item = TraceRecord>, top: usize) -> TraceStats {
    let mut stats = TraceStats {
        records: 0,
        loads: 0,
        stores: 0,
        branches: 0,
        footprint_lines: 0,
        mem_pcs: 0,
        top_pcs: Vec::new(),
    };
    let mut lines: HashSet<u64> = HashSet::new();
    let mut pcs: HashMap<u64, PcAccum> = HashMap::new();
    for r in records {
        stats.records += 1;
        if r.is_branch {
            stats.branches += 1;
        }
        if let Some((kind, addr)) = r.mem {
            match kind {
                MemKind::Load => stats.loads += 1,
                MemKind::Store => stats.stores += 1,
            }
            let line = addr / LINE_BYTES;
            lines.insert(line);
            let acc = pcs.entry(r.pc).or_default();
            acc.accesses += 1;
            if let Some(prev) = acc.prev_line {
                *acc.strides.entry(line as i64 - prev as i64).or_insert(0) += 1;
            }
            acc.prev_line = Some(line);
        }
    }
    stats.footprint_lines = lines.len() as u64;
    stats.mem_pcs = pcs.len() as u64;
    let mut profiles: Vec<PcProfile> = pcs
        .into_iter()
        .map(|(pc, acc)| {
            let (top_stride, hits) = acc
                .strides
                .iter()
                // Deterministic winner under ties: smallest stride.
                .max_by_key(|&(&stride, &n)| (n, std::cmp::Reverse(stride)))
                .map(|(&s, &n)| (s, n))
                .unwrap_or((0, 0));
            let total_strides: u64 = acc.strides.values().sum();
            PcProfile {
                pc,
                accesses: acc.accesses,
                top_stride,
                top_stride_frac: if total_strides == 0 {
                    0.0
                } else {
                    hits as f64 / total_strides as f64
                },
            }
        })
        .collect();
    profiles.sort_by_key(|p| (std::cmp::Reverse(p.accesses), p.pc));
    profiles.truncate(top);
    stats.top_pcs = profiles;
    stats
}

/// [`analyze`] over the rest of a memory trace file, streamed through
/// [`crate::Reader::next_record`]: no record is held, and a truncated or
/// corrupt file is an error rather than a panic.
pub fn analyze_file(reader: &mut TraceReader, top: usize) -> Result<TraceStats> {
    let mut error = None;
    let records = std::iter::from_fn(|| {
        reader.next_record().unwrap_or_else(|e| {
            error = Some(e);
            None
        })
    });
    let stats = analyze(records, top);
    error.map_or(Ok(stats), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_stream_has_a_dominant_stride() {
        let records = (0..1000u64).map(|i| TraceRecord::load(0x400, i * 2 * LINE_BYTES));
        let stats = analyze(records, 4);
        assert_eq!(stats.records, 1000);
        assert_eq!(stats.loads, 1000);
        assert_eq!(stats.footprint_lines, 1000);
        assert_eq!(stats.mem_pcs, 1);
        let p = &stats.top_pcs[0];
        assert_eq!(p.top_stride, 2);
        assert!(p.top_stride_frac > 0.99);
    }

    #[test]
    fn mix_ratios_are_counted() {
        let records = vec![
            TraceRecord::alu(0x100),
            TraceRecord::branch(0x104),
            TraceRecord::load(0x108, 64),
            TraceRecord::store(0x10c, 128),
        ];
        let stats = analyze(records.into_iter(), 8);
        assert_eq!(stats.mem_ratio(), 0.5);
        assert_eq!(stats.branch_ratio(), 0.25);
        assert_eq!(stats.footprint_lines, 2);
        assert_eq!(stats.mem_pcs, 2);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let stats = analyze(std::iter::empty(), 4);
        assert_eq!(stats.records, 0);
        assert_eq!(stats.mem_ratio(), 0.0);
        assert!(stats.top_pcs.is_empty());
    }

    #[test]
    fn json_summary_carries_the_same_numbers() {
        let records = vec![
            TraceRecord::branch(0x104),
            TraceRecord::load(0x108, 64),
            TraceRecord::load(0x108, 128),
        ];
        let json = analyze(records.into_iter(), 8).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"records\":3"), "{json}");
        assert!(json.contains("\"loads\":2"), "{json}");
        assert!(json.contains("\"branches\":1"), "{json}");
        assert!(json.contains("\"top_pcs\":[{\"pc\":264,"), "{json}");
    }
}
