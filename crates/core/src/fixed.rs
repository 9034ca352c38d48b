//! Q16.16 fixed-point arithmetic mirroring the Bandit arithmetic unit.
//!
//! The reference agent computes potentials in `f64` for convenience, but real
//! hardware would use a small fixed-point (or `f32`) unit. This module
//! provides a Q16.16 implementation of every operation the `nextArm`
//! computation needs — multiply, divide, square root and natural logarithm —
//! so tests can demonstrate that the arm ranking is unchanged under
//! hardware-faithful arithmetic.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// Number of fractional bits.
pub const FRAC_BITS: u32 = 16;
const ONE_RAW: i64 = 1 << FRAC_BITS;

/// A Q16.16 signed fixed-point number.
///
/// # Example
///
/// ```
/// use mab_core::fixed::Fixed;
///
/// let a = Fixed::from_f64(1.5);
/// let b = Fixed::from_f64(2.0);
/// assert_eq!((a * b).to_f64(), 3.0);
/// assert!((b.sqrt().to_f64() - 2f64.sqrt()).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fixed(i64);

impl Fixed {
    /// Zero.
    pub const ZERO: Fixed = Fixed(0);
    /// One.
    pub const ONE: Fixed = Fixed(ONE_RAW);

    /// ln(2) in Q16.16, used by [`Fixed::ln`].
    const LN_2: Fixed = Fixed(45_426); // round(0.693147 * 65536)

    /// Creates a fixed-point value from a raw Q16.16 bit pattern.
    pub const fn from_raw(raw: i64) -> Self {
        Fixed(raw)
    }

    /// The raw Q16.16 bit pattern.
    pub const fn raw(self) -> i64 {
        self.0
    }

    /// Converts from an integer.
    pub const fn from_int(v: i32) -> Self {
        Fixed((v as i64) << FRAC_BITS)
    }

    /// Converts from `f64`, rounding to the nearest representable value.
    pub fn from_f64(v: f64) -> Self {
        Fixed((v * ONE_RAW as f64).round() as i64)
    }

    /// Converts to `f64`.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / ONE_RAW as f64
    }

    /// Integer square root in the fixed-point domain.
    ///
    /// Returns zero for negative inputs (hardware would flag them; they never
    /// occur in potential computation because counts are non-negative).
    pub fn sqrt(self) -> Fixed {
        if self.0 <= 0 {
            return Fixed::ZERO;
        }
        // sqrt(x) in Q16.16 = isqrt(raw << 16).
        let target = (self.0 as u128) << FRAC_BITS;
        let mut lo: u128 = 0;
        let mut hi: u128 = 1 << (((128 - target.leading_zeros()) / 2) + 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if mid * mid <= target {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Fixed(lo as i64)
    }

    /// Base-2 logarithm via the classic shift-and-square algorithm
    /// (16 fractional iterations).
    ///
    /// Returns `None` for non-positive inputs.
    pub fn log2(self) -> Option<Fixed> {
        if self.0 <= 0 {
            return None;
        }
        let raw = self.0 as u64;
        // Integer part: position of the MSB relative to the binary point.
        let msb = 63 - raw.leading_zeros() as i64;
        let int_part = msb - FRAC_BITS as i64;
        // Normalize mantissa into [1, 2) as Q16.16.
        let mut x = if int_part >= 0 {
            raw >> int_part
        } else {
            raw << (-int_part)
        } as u128;
        let mut frac: i64 = 0;
        for i in (0..FRAC_BITS).rev() {
            // Square the mantissa (Q16.16 * Q16.16 -> Q16.16).
            x = (x * x) >> FRAC_BITS;
            if x >= (2 * ONE_RAW) as u128 {
                x >>= 1;
                frac |= 1 << i;
            }
        }
        Some(Fixed((int_part << FRAC_BITS) + frac))
    }

    /// Natural logarithm: `ln(x) = log2(x) · ln(2)`.
    ///
    /// Returns `None` for non-positive inputs.
    pub fn ln(self) -> Option<Fixed> {
        self.log2().map(|l| l * Fixed::LN_2)
    }

    /// Saturating check for (near-)zero, used to floor division operands.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Fixed {
    type Output = Fixed;
    fn add(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 + rhs.0)
    }
}

impl Sub for Fixed {
    type Output = Fixed;
    fn sub(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 - rhs.0)
    }
}

impl Mul for Fixed {
    type Output = Fixed;
    fn mul(self, rhs: Fixed) -> Fixed {
        Fixed(((self.0 as i128 * rhs.0 as i128) >> FRAC_BITS) as i64)
    }
}

impl Div for Fixed {
    type Output = Fixed;
    /// # Panics
    ///
    /// Panics on division by zero, like integer division.
    fn div(self, rhs: Fixed) -> Fixed {
        Fixed((((self.0 as i128) << FRAC_BITS) / rhs.0 as i128) as i64)
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.5}", self.to_f64())
    }
}

impl From<i32> for Fixed {
    fn from(v: i32) -> Self {
        Fixed::from_int(v)
    }
}

/// UCB/DUCB arm potential computed entirely in Q16.16:
/// `r + c · √(ln(n_total) / n)`.
///
/// Mirrors [`crate::algorithms`]' `f64` potential; arms with a zero
/// (fully decayed) count get the maximum representable potential.
///
/// # Example
///
/// ```
/// use mab_core::fixed::{potential_fixed, Fixed};
///
/// let p = potential_fixed(
///     Fixed::from_f64(0.5),
///     Fixed::from_f64(4.0),
///     Fixed::from_f64(16.0),
///     Fixed::from_f64(1.0),
/// );
/// let expected = 0.5 + (16.0f64.ln() / 4.0).sqrt();
/// assert!((p.to_f64() - expected).abs() < 1e-2);
/// ```
pub fn potential_fixed(r: Fixed, n: Fixed, n_total: Fixed, c: Fixed) -> Fixed {
    if n.raw() <= 0 {
        return Fixed::from_raw(i64::MAX / 2);
    }
    let ln_total = if n_total <= Fixed::ONE {
        Fixed::ZERO
    } else {
        n_total.ln().unwrap_or(Fixed::ZERO)
    };
    r + c * (ln_total / n).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_small_values() {
        for v in [-3.25, -0.5, 0.0, 0.125, 1.0, 42.75] {
            assert_eq!(Fixed::from_f64(v).to_f64(), v);
        }
    }

    #[test]
    fn multiplication_matches_f64() {
        let cases = [(1.5, 2.0), (0.1, 0.1), (100.0, 0.25), (-3.0, 1.5)];
        for (a, b) in cases {
            let got = (Fixed::from_f64(a) * Fixed::from_f64(b)).to_f64();
            assert!((got - a * b).abs() < 1e-3, "{a} * {b} = {got}");
        }
    }

    #[test]
    fn division_matches_f64() {
        let cases = [(3.0, 2.0), (1.0, 3.0), (100.0, 7.0)];
        for (a, b) in cases {
            let got = (Fixed::from_f64(a) / Fixed::from_f64(b)).to_f64();
            assert!((got - a / b).abs() < 1e-3, "{a} / {b} = {got}");
        }
    }

    #[test]
    fn sqrt_matches_f64() {
        for v in [0.25, 1.0, 2.0, 10.0, 1000.0] {
            let got = Fixed::from_f64(v).sqrt().to_f64();
            assert!((got - v.sqrt()).abs() < 1e-2, "sqrt({v}) = {got}");
        }
    }

    #[test]
    fn sqrt_of_negative_is_zero() {
        assert_eq!(Fixed::from_f64(-1.0).sqrt(), Fixed::ZERO);
    }

    #[test]
    fn ln_matches_f64() {
        for v in [0.5, 1.0, 2.0, std::f64::consts::E, 100.0, 5000.0] {
            let got = Fixed::from_f64(v).ln().unwrap().to_f64();
            assert!((got - v.ln()).abs() < 1e-2, "ln({v}) = {got}");
        }
    }

    #[test]
    fn ln_of_nonpositive_is_none() {
        assert!(Fixed::ZERO.ln().is_none());
        assert!(Fixed::from_f64(-2.0).ln().is_none());
    }

    #[test]
    fn potential_matches_f64_ranking() {
        // The fixed-point potentials must rank arms identically to f64.
        let arms = [(0.50, 10.0), (0.48, 3.0), (0.60, 50.0), (0.10, 1.0)];
        let n_total: f64 = arms.iter().map(|&(_, n)| n).sum();
        let c = 0.3;

        let f64_rank = {
            let mut idx: Vec<usize> = (0..arms.len()).collect();
            idx.sort_by(|&a, &b| {
                let pa = arms[a].0 + c * (n_total.ln() / arms[a].1).sqrt();
                let pb = arms[b].0 + c * (n_total.ln() / arms[b].1).sqrt();
                pb.partial_cmp(&pa).unwrap()
            });
            idx
        };
        let fx_rank = {
            let mut idx: Vec<usize> = (0..arms.len()).collect();
            idx.sort_by_key(|&a| {
                std::cmp::Reverse(potential_fixed(
                    Fixed::from_f64(arms[a].0),
                    Fixed::from_f64(arms[a].1),
                    Fixed::from_f64(n_total),
                    Fixed::from_f64(c),
                ))
            });
            idx
        };
        assert_eq!(f64_rank, fx_rank);
    }

    #[test]
    fn decayed_arm_gets_max_potential() {
        let p = potential_fixed(
            Fixed::from_f64(0.1),
            Fixed::ZERO,
            Fixed::from_f64(100.0),
            Fixed::from_f64(0.5),
        );
        assert!(p.raw() > i64::MAX / 4);
    }

    #[test]
    fn display_shows_decimal() {
        assert_eq!(Fixed::from_f64(1.5).to_string(), "1.50000");
    }
}
