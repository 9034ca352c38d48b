//! Fetch Priority & Gating (PG) policies (paper §3.2–3.3).
//!
//! A PG policy `X_b3b2b1b0` combines a fetch *priority* policy `X`
//! (which non-gated thread to fetch from) with a fetch *gating* mask
//! `b3b2b1b0` (which structures' occupancies can gate a thread):
//! bit 3 = IQ, bit 2 = LSQ, bit 1 = ROB, bit 0 = IRF, exactly as in
//! Table 1. `IC_1011` is the Choi policy; `IC_0000` is plain ICount.

use std::fmt;
use std::str::FromStr;

/// Fetch priority policies of Tullsen et al. (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchPriority {
    /// Fewest branches in the ROB.
    BranchCount,
    /// Fewest instruction-queue entries (ICount).
    ICount,
    /// Fewest load/store-queue entries.
    LsqCount,
    /// Round robin.
    RoundRobin,
}

impl FetchPriority {
    /// All four priority policies.
    pub const ALL: [FetchPriority; 4] = [
        FetchPriority::BranchCount,
        FetchPriority::ICount,
        FetchPriority::LsqCount,
        FetchPriority::RoundRobin,
    ];

    /// Short mnemonic (`BrC`, `IC`, `LSQC`, `RR`).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            FetchPriority::BranchCount => "BrC",
            FetchPriority::ICount => "IC",
            FetchPriority::LsqCount => "LSQC",
            FetchPriority::RoundRobin => "RR",
        }
    }
}

/// Which structures the fetch-gating policy monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GateMask {
    /// Gate on instruction-queue occupancy.
    pub iq: bool,
    /// Gate on load/store-queue occupancy.
    pub lsq: bool,
    /// Gate on reorder-buffer occupancy.
    pub rob: bool,
    /// Gate on integer-register-file occupancy.
    pub irf: bool,
}

impl GateMask {
    /// No gating at all (`0000`).
    pub const NONE: GateMask = GateMask {
        iq: false,
        lsq: false,
        rob: false,
        irf: false,
    };

    /// The Choi mask (`1011`): IQ, ROB, IRF.
    pub const CHOI: GateMask = GateMask {
        iq: true,
        lsq: false,
        rob: true,
        irf: true,
    };

    /// Everything (`1111`).
    pub const ALL: GateMask = GateMask {
        iq: true,
        lsq: true,
        rob: true,
        irf: true,
    };

    /// Builds a mask from the `b3b2b1b0` bits (IQ, LSQ, ROB, IRF).
    pub fn from_bits(bits: u8) -> Self {
        GateMask {
            iq: bits & 0b1000 != 0,
            lsq: bits & 0b0100 != 0,
            rob: bits & 0b0010 != 0,
            irf: bits & 0b0001 != 0,
        }
    }

    /// The `b3b2b1b0` bit pattern.
    pub fn bits(&self) -> u8 {
        (self.iq as u8) << 3 | (self.lsq as u8) << 2 | (self.rob as u8) << 1 | self.irf as u8
    }

    /// True when no structure is monitored (fetch gating disabled).
    pub fn is_none(&self) -> bool {
        self.bits() == 0
    }
}

/// A fetch Priority & Gating policy.
///
/// # Example
///
/// ```
/// use mab_smtsim::policies::PgPolicy;
///
/// let choi = PgPolicy::CHOI;
/// assert_eq!(choi.to_string(), "IC_1011");
/// assert_eq!("LSQC_1111".parse::<PgPolicy>().unwrap().to_string(), "LSQC_1111");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PgPolicy {
    /// The fetch priority policy.
    pub priority: FetchPriority,
    /// The fetch gating mask.
    pub gating: GateMask,
}

impl PgPolicy {
    /// Plain ICount (`IC_0000`, Tullsen et al.).
    pub const ICOUNT: PgPolicy = PgPolicy {
        priority: FetchPriority::ICount,
        gating: GateMask::NONE,
    };

    /// The Choi policy (`IC_1011`).
    pub const CHOI: PgPolicy = PgPolicy {
        priority: FetchPriority::ICount,
        gating: GateMask::CHOI,
    };

    /// The 6 Bandit arms of Table 1.
    pub fn bandit_arms() -> [PgPolicy; 6] {
        [
            "IC_0000".parse().expect("static policy strings are valid"),
            "BrC_1000".parse().expect("static policy strings are valid"),
            "IC_1110".parse().expect("static policy strings are valid"),
            "IC_1111".parse().expect("static policy strings are valid"),
            "LSQC_1111"
                .parse()
                .expect("static policy strings are valid"),
            "RR_1111".parse().expect("static policy strings are valid"),
        ]
    }

    /// The full 64-policy design space (4 priorities × 16 masks, §3.3).
    pub fn all() -> Vec<PgPolicy> {
        let mut v = Vec::with_capacity(64);
        for priority in FetchPriority::ALL {
            for bits in 0..16u8 {
                v.push(PgPolicy {
                    priority,
                    gating: GateMask::from_bits(bits),
                });
            }
        }
        v
    }
}

impl fmt::Display for PgPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{:04b}", self.priority.mnemonic(), self.gating.bits())
    }
}

/// Error parsing a PG-policy mnemonic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid PG policy {:?}", self.0)
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for PgPolicy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (prio, bits) = s
            .split_once('_')
            .ok_or_else(|| ParsePolicyError(s.into()))?;
        let priority = match prio {
            "BrC" => FetchPriority::BranchCount,
            "IC" => FetchPriority::ICount,
            "LSQC" => FetchPriority::LsqCount,
            "RR" => FetchPriority::RoundRobin,
            _ => return Err(ParsePolicyError(s.into())),
        };
        if bits.len() != 4 || !bits.bytes().all(|b| b == b'0' || b == b'1') {
            return Err(ParsePolicyError(s.into()));
        }
        let value = u8::from_str_radix(bits, 2).map_err(|_| ParsePolicyError(s.into()))?;
        Ok(PgPolicy {
            priority,
            gating: GateMask::from_bits(value),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn choi_is_ic_1011() {
        assert_eq!(PgPolicy::CHOI.to_string(), "IC_1011");
        assert!(PgPolicy::CHOI.gating.iq);
        assert!(!PgPolicy::CHOI.gating.lsq);
        assert!(PgPolicy::CHOI.gating.rob);
        assert!(PgPolicy::CHOI.gating.irf);
    }

    #[test]
    fn icount_has_no_gating() {
        assert_eq!(PgPolicy::ICOUNT.to_string(), "IC_0000");
        assert!(PgPolicy::ICOUNT.gating.is_none());
    }

    #[test]
    fn design_space_has_64_policies() {
        let all = PgPolicy::all();
        assert_eq!(all.len(), 64);
        let unique: std::collections::HashSet<String> = all.iter().map(|p| p.to_string()).collect();
        assert_eq!(unique.len(), 64);
    }

    #[test]
    fn bandit_arms_match_table1() {
        let arms = PgPolicy::bandit_arms();
        let names: Vec<String> = arms.iter().map(|p| p.to_string()).collect();
        assert_eq!(
            names,
            [
                "IC_0000",
                "BrC_1000",
                "IC_1110",
                "IC_1111",
                "LSQC_1111",
                "RR_1111"
            ]
        );
    }

    #[test]
    fn parse_round_trips() {
        for p in PgPolicy::all() {
            let s = p.to_string();
            assert_eq!(s.parse::<PgPolicy>().unwrap(), p);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("IC".parse::<PgPolicy>().is_err());
        assert!("XX_1010".parse::<PgPolicy>().is_err());
        assert!("IC_10".parse::<PgPolicy>().is_err());
        assert!("IC_10a1".parse::<PgPolicy>().is_err());
    }

    #[test]
    fn mask_bits_round_trip() {
        for bits in 0..16u8 {
            assert_eq!(GateMask::from_bits(bits).bits(), bits);
        }
    }
}
