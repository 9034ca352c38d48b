//! Arm identifiers.

use std::fmt;

/// Identifier of a bandit *arm* (an action available to the agent).
///
/// In the paper's prefetching use case an arm encodes a prefetcher ensemble
/// configuration (Table 7); in the SMT use case an arm encodes a fetch
/// Priority & Gating policy (Table 1). `ArmId` is a cheap copyable index
/// newtype so the two domains cannot be confused with raw `usize`s.
///
/// # Example
///
/// ```
/// use mab_core::ArmId;
///
/// let arm = ArmId::new(3);
/// assert_eq!(arm.index(), 3);
/// assert_eq!(arm.to_string(), "arm#3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArmId(usize);

impl ArmId {
    /// Creates an arm identifier from a raw index.
    pub const fn new(index: usize) -> Self {
        ArmId(index)
    }

    /// Returns the raw index of this arm.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ArmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arm#{}", self.0)
    }
}

impl From<usize> for ArmId {
    fn from(index: usize) -> Self {
        ArmId(index)
    }
}

impl From<ArmId> for usize {
    fn from(arm: ArmId) -> Self {
        arm.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_usize() {
        let arm = ArmId::from(5usize);
        assert_eq!(usize::from(arm), 5);
    }

    #[test]
    fn orders_by_index() {
        assert!(ArmId::new(1) < ArmId::new(2));
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", ArmId::new(0)).is_empty());
    }
}
