//! The Bandit-controlled prefetcher ensemble (paper §5.2, Table 7).

use crate::ip_stride::IpStride;
use crate::nextline::NextLine;
use crate::stream::StreamPrefetcher;
use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};

/// One ensemble configuration: whether the next-line prefetcher is on and
/// the degrees of the stride and stream prefetchers (0 = off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arm {
    /// Next-line prefetcher enabled.
    pub nl_on: bool,
    /// PC-stride prefetcher degree.
    pub stride_degree: u32,
    /// Stream prefetcher degree.
    pub stream_degree: u32,
}

/// The 11 arms of Table 7.
pub const PAPER_ARMS: [Arm; 11] = [
    Arm {
        nl_on: false,
        stride_degree: 0,
        stream_degree: 4,
    }, // 0
    Arm {
        nl_on: false,
        stride_degree: 0,
        stream_degree: 0,
    }, // 1 (all off)
    Arm {
        nl_on: true,
        stride_degree: 0,
        stream_degree: 0,
    }, // 2
    Arm {
        nl_on: false,
        stride_degree: 0,
        stream_degree: 2,
    }, // 3
    Arm {
        nl_on: false,
        stride_degree: 2,
        stream_degree: 2,
    }, // 4
    Arm {
        nl_on: false,
        stride_degree: 4,
        stream_degree: 4,
    }, // 5
    Arm {
        nl_on: false,
        stride_degree: 0,
        stream_degree: 6,
    }, // 6
    Arm {
        nl_on: false,
        stride_degree: 8,
        stream_degree: 6,
    }, // 7
    Arm {
        nl_on: true,
        stride_degree: 0,
        stream_degree: 8,
    }, // 8
    Arm {
        nl_on: false,
        stride_degree: 0,
        stream_degree: 15,
    }, // 9
    Arm {
        nl_on: false,
        stride_degree: 15,
        stream_degree: 15,
    }, // 10
];

/// Number of stream trackers (Table 6).
pub const STREAM_TRACKERS: usize = 64;
/// Number of stride-table entries (Table 6).
pub const STRIDE_ENTRIES: usize = 64;

/// The ensemble of lightweight prefetchers that Bandit coordinates: a
/// next-line prefetcher, a 64-tracker stream prefetcher and a 64-entry
/// PC-stride prefetcher, all behind programmable degree registers (as on
/// the POWER7, §5.2).
///
/// All members train on every access regardless of their degree; a degree of
/// zero only gates issuing. Reconfiguration is therefore instantaneous —
/// exactly what writing a degree register models.
///
/// # Example
///
/// ```
/// use mab_prefetch::{Composite, PAPER_ARMS};
///
/// let mut ensemble = Composite::new();
/// ensemble.apply(PAPER_ARMS[5]);
/// assert_eq!(ensemble.arm(), PAPER_ARMS[5]);
/// ```
#[derive(Debug, Clone)]
pub struct Composite {
    nl: NextLine,
    stride: IpStride,
    stream: StreamPrefetcher,
    arm: Arm,
}

impl Default for Composite {
    fn default() -> Self {
        Composite::new()
    }
}

impl Composite {
    /// Creates the ensemble with everything off (arm 1 of Table 7).
    pub fn new() -> Self {
        Composite {
            nl: NextLine::new(0),
            stride: IpStride::new(STRIDE_ENTRIES, 0),
            stream: StreamPrefetcher::new(STREAM_TRACKERS, 0),
            arm: PAPER_ARMS[1],
        }
    }

    /// Programs the ensemble registers to `arm`.
    pub fn apply(&mut self, arm: Arm) {
        self.nl.set_degree(arm.nl_on as u32);
        self.stride.set_degree(arm.stride_degree);
        self.stream.set_degree(arm.stream_degree);
        self.arm = arm;
    }

    /// The currently programmed arm.
    pub fn arm(&self) -> Arm {
        self.arm
    }

    /// Total storage of the ensemble members (the "< 2 KB including the
    /// prefetchers" figure of §7.2.1).
    pub fn storage_bytes() -> usize {
        NextLine::storage_bytes()
            + IpStride::storage_bytes(STRIDE_ENTRIES)
            + StreamPrefetcher::storage_bytes(STREAM_TRACKERS)
    }
}

impl Prefetcher for Composite {
    fn name(&self) -> &str {
        "bandit-composite"
    }

    fn train(&mut self, access: &L2Access, queue: &mut PrefetchQueue) {
        self.nl.train(access, queue);
        self.stride.train(access, queue);
        self.stream.train(access, queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::MemKind;

    fn access(pc: u64, line: u64) -> L2Access {
        L2Access {
            pc,
            line,
            hit: false,
            cycle: 0,
            instructions: 0,
            kind: MemKind::Load,
        }
    }

    #[test]
    fn paper_arm_table_matches_table7() {
        assert_eq!(PAPER_ARMS.len(), 11);
        // Spot-check Table 7: arm 2 is NL-only, arm 10 is 15/15.
        assert!(PAPER_ARMS[2].nl_on);
        assert_eq!(PAPER_ARMS[2].stream_degree, 0);
        assert_eq!(PAPER_ARMS[10].stride_degree, 15);
        assert_eq!(PAPER_ARMS[10].stream_degree, 15);
        // Exactly two arms enable NL.
        assert_eq!(PAPER_ARMS.iter().filter(|a| a.nl_on).count(), 2);
    }

    #[test]
    fn all_off_arm_issues_nothing() {
        let mut c = Composite::new();
        c.apply(PAPER_ARMS[1]);
        let mut q = PrefetchQueue::new();
        for i in 0..20 {
            c.train(&access(1, 100 + i), &mut q);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn switching_arms_changes_behaviour_immediately() {
        let mut c = Composite::new();
        let mut q = PrefetchQueue::new();
        // Train while off: members still learn the stream.
        for i in 0..10 {
            c.train(&access(1, 100 + i), &mut q);
        }
        assert!(q.is_empty());
        c.apply(PAPER_ARMS[0]); // stream degree 4
        c.train(&access(1, 110), &mut q);
        assert!(q.len() >= 4, "stream resumes instantly: {}", q.len());
    }

    #[test]
    fn nl_arm_prefetches_next_line_only() {
        let mut c = Composite::new();
        c.apply(PAPER_ARMS[2]);
        let mut q = PrefetchQueue::new();
        c.train(&access(9, 42), &mut q);
        let lines: Vec<u64> = q.drain().collect();
        assert_eq!(lines, vec![43]);
    }

    #[test]
    fn ensemble_storage_is_under_2kb() {
        assert!(Composite::storage_bytes() < 2048);
    }
}
