//! Instruction-trace record format consumed by the memory simulator.

/// Cache-line size used throughout the reproduction (bytes).
pub const LINE_BYTES: u64 = 64;

/// Whether a memory operand is a load or a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Demand load.
    Load,
    /// Demand store.
    Store,
}

/// One dynamic instruction in a trace.
///
/// This is deliberately close to ChampSim's trace format: a program counter,
/// an optional memory operand and a branch flag. Branch direction only
/// matters to the SMT simulator; the memory simulator treats branches as
/// plain instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Memory operand, if the instruction accesses memory.
    pub mem: Option<(MemKind, u64)>,
    /// True for branch instructions.
    pub is_branch: bool,
}

impl TraceRecord {
    /// A non-memory, non-branch instruction.
    pub const fn alu(pc: u64) -> Self {
        TraceRecord {
            pc,
            mem: None,
            is_branch: false,
        }
    }

    /// A load from `addr`.
    pub const fn load(pc: u64, addr: u64) -> Self {
        TraceRecord {
            pc,
            mem: Some((MemKind::Load, addr)),
            is_branch: false,
        }
    }

    /// A store to `addr`.
    pub const fn store(pc: u64, addr: u64) -> Self {
        TraceRecord {
            pc,
            mem: Some((MemKind::Store, addr)),
            is_branch: false,
        }
    }

    /// A branch instruction.
    pub const fn branch(pc: u64) -> Self {
        TraceRecord {
            pc,
            mem: None,
            is_branch: true,
        }
    }

    /// The cache line (address / 64) touched by this instruction, if any.
    pub fn line(&self) -> Option<u64> {
        self.mem.map(|(_, addr)| addr / LINE_BYTES)
    }
}

/// A lazy instruction-trace generator.
///
/// `TraceGen` is an infinite iterator: callers take as many instructions as
/// their experiment simulates (the paper runs 1 B instructions single-core;
/// this reproduction defaults to scaled-down counts, see `EXPERIMENTS.md`).
/// The blanket implementation makes any infinite `Iterator<Item=TraceRecord>`
/// a `TraceGen`.
pub trait TraceGen: Iterator<Item = TraceRecord> {}

impl<T: Iterator<Item = TraceRecord> + ?Sized> TraceGen for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let l = TraceRecord::load(0x400, 0x1000);
        assert_eq!(l.mem, Some((MemKind::Load, 0x1000)));
        assert!(!l.is_branch);
        let s = TraceRecord::store(0x404, 0x2000);
        assert_eq!(s.mem, Some((MemKind::Store, 0x2000)));
        let b = TraceRecord::branch(0x408);
        assert!(b.is_branch);
        assert!(b.mem.is_none());
        assert!(TraceRecord::alu(0x40c).mem.is_none());
    }

    #[test]
    fn line_is_address_over_64() {
        assert_eq!(TraceRecord::load(0, 128).line(), Some(2));
        assert_eq!(TraceRecord::load(0, 129).line(), Some(2));
        assert_eq!(TraceRecord::alu(0).line(), None);
    }
}
