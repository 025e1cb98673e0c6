//! Exact rational arithmetic for cycle means and ratios.
//!
//! Cycle means of integer-weighted graphs are rationals with
//! denominator at most `n`, so the whole study can be carried out
//! exactly in 64-bit rationals with 128-bit intermediate products.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num/den` with `den > 0`, always kept in
/// lowest terms.
///
/// Comparisons and arithmetic use `i128` intermediates, so values
/// arising from cycle means of `i64`-weighted graphs never overflow.
/// Arithmetic panics if a *result* no longer fits in `i64/i64` after
/// reduction, which cannot happen for cycle means of sane inputs.
///
/// ```
/// use mcr_core::Ratio64;
/// let third = Ratio64::new(2, 6);
/// assert_eq!(third, Ratio64::new(1, 3));
/// assert!(third < Ratio64::from(1));
/// assert_eq!((third + third).to_string(), "2/3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio64 {
    num: i64,
    den: i64,
}

fn gcd128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio64 {
    /// The rational zero.
    pub const ZERO: Ratio64 = Ratio64 { num: 0, den: 1 };

    /// Creates `num/den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den != 0, "rational with zero denominator");
        Self::from_i128(num as i128, den as i128)
    }

    /// Creates `num/den` from 128-bit parts, reducing first.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or the reduced value does not fit `i64/i64`.
    pub fn from_i128(num: i128, den: i128) -> Self {
        match Self::try_from_i128(num, den) {
            Some(r) => r,
            None => {
                assert!(den != 0, "rational with zero denominator");
                panic!("rational overflow: {num}/{den}")
            }
        }
    }

    /// Fallible [`Ratio64::new`]: `None` if `den == 0`.
    pub fn try_new(num: i64, den: i64) -> Option<Self> {
        Self::try_from_i128(num as i128, den as i128)
    }

    /// Fallible [`Ratio64::from_i128`]: `None` if `den == 0` or the
    /// reduced value does not fit `i64/i64`.
    pub fn try_from_i128(num: i128, den: i128) -> Option<Self> {
        if den == 0 {
            return None;
        }
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        let g = gcd128(num, den);
        let (num, den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if num < i64::MIN as i128 || num > i64::MAX as i128 || den > i64::MAX as i128 {
            return None;
        }
        Some(Ratio64 {
            num: num as i64,
            den: den as i64,
        })
    }

    /// Numerator of the reduced form (sign-carrying).
    #[inline]
    pub fn numer(self) -> i64 {
        self.num
    }

    /// Denominator of the reduced form (always positive).
    #[inline]
    pub fn denom(self) -> i64 {
        self.den
    }

    /// Nearest `f64` value.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Whether the value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Largest integer not exceeding the value.
    pub fn floor(self) -> i64 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer not below the value.
    pub fn ceil(self) -> i64 {
        -(-self).floor()
    }

    /// The absolute value.
    pub fn abs(self) -> Self {
        Ratio64 {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The exact midpoint of `self` and `other`.
    pub fn midpoint(self, other: Self) -> Self {
        let num =
            self.num as i128 * other.den as i128 + other.num as i128 * self.den as i128;
        let den = 2i128 * self.den as i128 * other.den as i128;
        Self::from_i128(num, den)
    }

    /// Fallible [`Ratio64::midpoint`]: `None` if the reduced midpoint
    /// does not fit `i64/i64`. Every product and sum fits `i128`.
    pub(crate) fn checked_midpoint(self, other: Self) -> Option<Self> {
        let num = self.num as i128 * other.den as i128 + other.num as i128 * self.den as i128;
        Self::try_from_i128(num, 2 * self.den as i128 * other.den as i128)
    }

    /// Fallible subtraction: `None` if the reduced difference does not
    /// fit `i64/i64`. Every product and difference fits `i128`.
    pub(crate) fn checked_sub(self, rhs: Self) -> Option<Self> {
        let num = self.num as i128 * rhs.den as i128 - rhs.num as i128 * self.den as i128;
        Self::try_from_i128(num, self.den as i128 * rhs.den as i128)
    }

    /// The simplest rational (smallest denominator, then smallest
    /// absolute numerator) in the closed interval `[lo, hi]`, via
    /// Stern–Brocot / continued-fraction descent.
    ///
    /// Used by exact binary search (Lawler): once the search interval is
    /// shorter than `1/(n(n-1))`, the unique cycle mean with denominator
    /// at most `n` inside it is exactly this simplest rational.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    ///
    /// ```
    /// use mcr_core::Ratio64;
    /// let lo = Ratio64::new(28, 90);
    /// let hi = Ratio64::new(32, 90);
    /// assert_eq!(Ratio64::simplest_in(lo, hi), Ratio64::new(1, 3));
    /// ```
    pub fn simplest_in(lo: Ratio64, hi: Ratio64) -> Ratio64 {
        assert!(lo <= hi, "empty interval");
        fn simplest(ln: i128, ld: i128, hn: i128, hd: i128) -> (i128, i128) {
            // Invariant: 0 <= ln/ld <= hn/hd, all parts nonnegative.
            let fl = ln.div_euclid(ld);
            if ln % ld == 0 {
                // lo itself is an integer.
                return (ln / ld, 1);
            }
            if (fl + 1) * hd <= hn {
                // ceil(lo) lies inside the interval.
                return (fl + 1, 1);
            }
            // Both in (fl, fl+1): recurse on reciprocal of fractional parts.
            let (n, d) = simplest(hd, hn - fl * hd, ld, ln - fl * ld);
            (fl * n + d, n)
        }
        if lo <= Ratio64::ZERO && Ratio64::ZERO <= hi {
            return Ratio64::ZERO;
        }
        if hi < Ratio64::ZERO {
            let r = Self::simplest_in(-hi, -lo);
            return -r;
        }
        let (n, d) = simplest(
            lo.num as i128,
            lo.den as i128,
            hi.num as i128,
            hi.den as i128,
        );
        Self::from_i128(n, d)
    }
}

impl From<i64> for Ratio64 {
    fn from(v: i64) -> Self {
        Ratio64 { num: v, den: 1 }
    }
}

impl PartialOrd for Ratio64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio64 {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

impl Add for Ratio64 {
    type Output = Ratio64;
    fn add(self, rhs: Ratio64) -> Ratio64 {
        Ratio64::from_i128(
            self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128,
            self.den as i128 * rhs.den as i128,
        )
    }
}

impl Sub for Ratio64 {
    type Output = Ratio64;
    fn sub(self, rhs: Ratio64) -> Ratio64 {
        self + (-rhs)
    }
}

impl Mul for Ratio64 {
    type Output = Ratio64;
    fn mul(self, rhs: Ratio64) -> Ratio64 {
        Ratio64::from_i128(
            self.num as i128 * rhs.num as i128,
            self.den as i128 * rhs.den as i128,
        )
    }
}

impl Div for Ratio64 {
    type Output = Ratio64;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: Ratio64) -> Ratio64 {
        assert!(rhs.num != 0, "rational division by zero");
        Ratio64::from_i128(
            self.num as i128 * rhs.den as i128,
            self.den as i128 * rhs.num as i128,
        )
    }
}

impl Neg for Ratio64 {
    type Output = Ratio64;
    fn neg(self) -> Ratio64 {
        Ratio64 {
            num: -self.num,
            den: self.den,
        }
    }
}

impl fmt::Display for Ratio64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Ratio64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ratio64({}/{})", self.num, self.den)
    }
}

impl Default for Ratio64 {
    fn default() -> Self {
        Ratio64::ZERO
    }
}

/// With the `serde` feature, a [`Ratio64`] serializes as the pair
/// `[num, den]` of its reduced form; deserialization re-reduces and
/// rejects a zero denominator, so every deserialized value upholds the
/// type's invariants.
#[cfg(feature = "serde")]
impl serde::Serialize for Ratio64 {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (self.num, self.den).serialize(serializer)
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for Ratio64 {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let (num, den) = <(i64, i64)>::deserialize(deserializer)?;
        if den == 0 {
            return Err(D::Error::custom("rational with zero denominator"));
        }
        Ok(Ratio64::new(num, den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_sign_normalization() {
        assert_eq!(Ratio64::new(4, 8), Ratio64::new(1, 2));
        assert_eq!(Ratio64::new(-4, 8), Ratio64::new(1, -2));
        assert_eq!(Ratio64::new(-4, -8), Ratio64::new(1, 2));
        assert_eq!(Ratio64::new(0, -7), Ratio64::ZERO);
        assert!(Ratio64::new(3, -4).denom() > 0);
    }

    #[test]
    fn ordering_crosses_denominators() {
        assert!(Ratio64::new(1, 3) < Ratio64::new(1, 2));
        assert!(Ratio64::new(-1, 2) < Ratio64::new(-1, 3));
        assert!(Ratio64::new(7, 1) > Ratio64::new(13, 2));
        // Large values that would overflow i64 cross-multiplication fit i128.
        let big = Ratio64::new(i64::MAX / 2, 3);
        let bigger = Ratio64::new(i64::MAX / 2, 2);
        assert!(big < bigger);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio64::new(1, 6);
        let b = Ratio64::new(1, 3);
        assert_eq!(a + b, Ratio64::new(1, 2));
        assert_eq!(b - a, a);
        assert_eq!(a * b, Ratio64::new(1, 18));
        assert_eq!(b / a, Ratio64::from(2));
        assert_eq!(-a, Ratio64::new(-1, 6));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Ratio64::new(7, 2).floor(), 3);
        assert_eq!(Ratio64::new(7, 2).ceil(), 4);
        assert_eq!(Ratio64::new(-7, 2).floor(), -4);
        assert_eq!(Ratio64::new(-7, 2).ceil(), -3);
        assert_eq!(Ratio64::from(5).floor(), 5);
        assert_eq!(Ratio64::from(5).ceil(), 5);
    }

    #[test]
    fn midpoint_is_exact() {
        let m = Ratio64::new(1, 3).midpoint(Ratio64::new(1, 2));
        assert_eq!(m, Ratio64::new(5, 12));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ratio64::new(3, 1).to_string(), "3");
        assert_eq!(Ratio64::new(-3, 2).to_string(), "-3/2");
    }

    #[test]
    fn simplest_in_basic() {
        // Integer in range.
        assert_eq!(
            Ratio64::simplest_in(Ratio64::new(5, 2), Ratio64::new(7, 2)),
            Ratio64::from(3)
        );
        // Endpoint integer.
        assert_eq!(
            Ratio64::simplest_in(Ratio64::from(2), Ratio64::new(5, 2)),
            Ratio64::from(2)
        );
        // Proper fraction.
        assert_eq!(
            Ratio64::simplest_in(Ratio64::new(4, 10), Ratio64::new(46, 100)),
            Ratio64::new(2, 5)
        );
        // Negative interval.
        assert_eq!(
            Ratio64::simplest_in(Ratio64::new(-46, 100), Ratio64::new(-4, 10)),
            Ratio64::new(-2, 5)
        );
        // Zero-straddling interval.
        assert_eq!(
            Ratio64::simplest_in(Ratio64::new(-1, 5), Ratio64::new(1, 7)),
            Ratio64::ZERO
        );
        // Degenerate point interval.
        assert_eq!(
            Ratio64::simplest_in(Ratio64::new(3, 7), Ratio64::new(3, 7)),
            Ratio64::new(3, 7)
        );
    }

    #[test]
    fn simplest_in_recovers_cycle_means() {
        // For every target p/q with q <= n, an interval of width
        // < 1/(n(n-1)) around it must recover exactly p/q.
        let n: i64 = 12;
        let eps = Ratio64::new(1, n * (n - 1) + 1);
        for q in 1..=n {
            for p in -(2 * q)..=(2 * q) {
                let target = Ratio64::new(p, q);
                let lo = target - eps * Ratio64::new(1, 3);
                let hi = target + eps * Ratio64::new(1, 3);
                assert_eq!(Ratio64::simplest_in(lo, hi), target, "p={p} q={q}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        Ratio64::new(1, 0);
    }

    #[test]
    fn try_constructors_reject_instead_of_panicking() {
        assert_eq!(Ratio64::try_new(1, 0), None);
        assert_eq!(Ratio64::try_new(4, 8), Some(Ratio64::new(1, 2)));
        assert_eq!(Ratio64::try_from_i128(i128::from(i64::MAX) + 1, 1), None);
        assert_eq!(
            Ratio64::try_from_i128(i128::from(i64::MAX) * 2, 2),
            Some(Ratio64::from(i64::MAX))
        );
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Ratio64::from(1) / Ratio64::ZERO;
    }
}
