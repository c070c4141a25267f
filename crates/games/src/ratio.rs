//! Exact rational arithmetic for link costs and stability thresholds.
//!
//! Every quantity the equilibrium analysis compares against the link cost
//! α is either an integer distance difference (BCG thresholds) or a ratio
//! of two small integers (UCG best-response thresholds), so an `i64/i64`
//! rational with `i128` cross-multiplication is exact for every graph this
//! workspace can enumerate. No equilibrium decision goes through floating
//! point.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number with normalized sign and lowest terms.
///
/// # Examples
///
/// ```
/// use bnf_games::Ratio;
///
/// let a = Ratio::new(3, 2);
/// let b = Ratio::from(2);
/// assert!(a < b);
/// assert_eq!((a + b).to_string(), "7/2");
/// assert_eq!(Ratio::new(4, 8), Ratio::new(1, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i64,
    den: i64, // invariant: den > 0, gcd(|num|, den) == 1
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// One.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Ratio {
        assert_ne!(den, 0, "rational with zero denominator");
        let sign = if (num < 0) != (den < 0) && num != 0 {
            -1
        } else {
            1
        };
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd(n, d).max(1);
        Ratio {
            num: sign * (n / g) as i64,
            den: (d / g) as i64,
        }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> i64 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i64 {
        self.den
    }

    /// Conversion to `f64` (for reporting only; comparisons should stay
    /// exact).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Whether the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// The midpoint of two rationals — handy for sampling strictly inside
    /// an interval.
    pub fn midpoint(a: Ratio, b: Ratio) -> Ratio {
        (a + b) / Ratio::from(2i64)
    }

    /// The smaller of two rationals.
    pub fn min(a: Ratio, b: Ratio) -> Ratio {
        if a <= b {
            a
        } else {
            b
        }
    }

    /// The larger of two rationals.
    pub fn max(a: Ratio, b: Ratio) -> Ratio {
        if a >= b {
            a
        } else {
            b
        }
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Self {
        Ratio { num: v, den: 1 }
    }
}

impl From<u32> for Ratio {
    fn from(v: u32) -> Self {
        Ratio {
            num: i64::from(v),
            den: 1,
        }
    }
}

impl From<i32> for Ratio {
    fn from(v: i32) -> Self {
        Ratio {
            num: i64::from(v),
            den: 1,
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // den > 0 on both sides, so cross-multiplication preserves order.
        (i128::from(self.num) * i128::from(other.den))
            .cmp(&(i128::from(other.num) * i128::from(self.den)))
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        let num =
            i128::from(self.num) * i128::from(rhs.den) + i128::from(rhs.num) * i128::from(self.den);
        let den = i128::from(self.den) * i128::from(rhs.den);
        ratio_from_i128(num, den)
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self + (-rhs)
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        ratio_from_i128(
            i128::from(self.num) * i128::from(rhs.num),
            i128::from(self.den) * i128::from(rhs.den),
        )
    }
}

impl Div for Ratio {
    type Output = Ratio;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Ratio) -> Ratio {
        assert_ne!(rhs.num, 0, "division by zero rational");
        ratio_from_i128(
            i128::from(self.num) * i128::from(rhs.den),
            i128::from(self.den) * i128::from(rhs.num),
        )
    }
}

fn ratio_from_i128(num: i128, den: i128) -> Ratio {
    debug_assert_ne!(den, 0);
    Ratio::checked_from_i128(num, den).unwrap_or_else(|| panic!("rational overflow: {num}/{den}"))
}

impl Ratio {
    /// `num/den` in lowest terms, or `None` when `den` is zero or the
    /// reduced fraction does not fit `i64` components — the
    /// non-panicking form of the arithmetic operators' normalization.
    pub fn checked_from_i128(num: i128, den: i128) -> Option<Ratio> {
        if den == 0 {
            return None;
        }
        let negative = (num < 0) != (den < 0) && num != 0;
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd128(n, d).max(1);
        let num = i64::try_from(n / g).ok()?;
        let den = i64::try_from(d / g).ok()?;
        Some(Ratio {
            num: if negative { -num } else { num },
            den,
        })
    }
}

fn gcd128(a: u128, b: u128) -> u128 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Ratio::new(4, 8), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-4, 8), Ratio::new(1, -2));
        assert_eq!(Ratio::new(0, -5), Ratio::ZERO);
        assert_eq!(Ratio::new(7, 1), Ratio::from(7));
        assert_eq!(Ratio::new(-3, -9), Ratio::new(1, 3));
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
        assert!(Ratio::new(10, 3) > Ratio::from(3));
        assert_eq!(Ratio::new(2, 4).cmp(&Ratio::new(1, 2)), Ordering::Equal);
        // Values that would collide in f32: 1/3 vs 33333333/100000000.
        assert!(Ratio::new(33_333_333, 100_000_000) < Ratio::new(1, 3));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Ratio::new(1, 2) + Ratio::new(1, 3), Ratio::new(5, 6));
        assert_eq!(Ratio::new(1, 2) - Ratio::new(1, 3), Ratio::new(1, 6));
        assert_eq!(Ratio::new(2, 3) * Ratio::new(3, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, 3) / Ratio::new(4, 3), Ratio::new(1, 2));
        assert_eq!(-Ratio::new(1, 2), Ratio::new(-1, 2));
    }

    #[test]
    fn midpoint_and_extrema() {
        assert_eq!(
            Ratio::midpoint(Ratio::from(1), Ratio::from(2)),
            Ratio::new(3, 2)
        );
        assert_eq!(
            Ratio::min(Ratio::new(1, 3), Ratio::new(1, 4)),
            Ratio::new(1, 4)
        );
        assert_eq!(
            Ratio::max(Ratio::new(1, 3), Ratio::new(1, 4)),
            Ratio::new(1, 3)
        );
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(3, 2).to_string(), "3/2");
        assert_eq!(Ratio::from(5).to_string(), "5");
        assert_eq!(Ratio::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn f64_roundtrip_for_small_values() {
        assert_eq!(Ratio::new(3, 4).to_f64(), 0.75);
        assert_eq!(Ratio::from(17).to_f64(), 17.0);
    }

    #[test]
    fn checked_construction_reduces_or_refuses() {
        assert_eq!(Ratio::checked_from_i128(6, -4), Some(Ratio::new(-3, 2)));
        assert_eq!(
            Ratio::checked_from_i128(1 << 70, 1 << 69),
            Some(Ratio::from(2))
        );
        assert_eq!(Ratio::checked_from_i128(1 << 70, 3), None);
        assert_eq!(Ratio::checked_from_i128(1, 0), None);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        Ratio::new(1, 0);
    }
}
