use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Error returned by the checked [`Rat`] operations when a result does
/// not fit `i128`. The simplex routes its pivot arithmetic through the
/// checked ops so a pathological (huge-coefficient) instance degrades
/// into a reported error instead of panicking mid-scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatOverflow;

impl fmt::Display for RatOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rational arithmetic overflow (result exceeds i128)")
    }
}

impl std::error::Error for RatOverflow {}

/// An exact rational number over `i128`.
///
/// Always stored normalized: `gcd(num, den) == 1`, `den > 0`, and
/// neither part is `i128::MIN` (whose magnitude does not fit `i128`, so
/// negating it, or taking its `gcd`, would overflow). The simplex
/// tableau pivots on these; exactness is what keeps hull-boundary
/// constraints from mis-classifying points the way floats would.
///
/// Integers (`den == 1`) take fast paths in [`Rat::new`], `+`, `*`,
/// [`Rat::try_add`] and [`Rat::try_mul`] that skip the `gcd` and the
/// `i128` divisions; results and overflow conditions are those of the
/// general formulas.
///
/// # Panics
///
/// The operator impls (`+`, `-`, `*`, `/`) panic on `i128` overflow
/// (checked internally). The SHATTER encodings use small coefficients
/// (minutes, half-plane coefficients from minute-scale hulls), far inside
/// the safe range. Callers that must survive adversarial magnitudes use
/// the non-panicking [`Rat::try_add`] / [`Rat::try_sub`] /
/// [`Rat::try_mul`] / [`Rat::try_div`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `a·b` as a 256-bit `(high, low)` pair.
fn wide_mul(a: u128, b: u128) -> (u128, u128) {
    const LOW: u128 = u64::MAX as u128;
    let (a1, a0) = (a >> 64, a & LOW);
    let (b1, b0) = (b >> 64, b & LOW);
    let (p00, p01, p10, p11) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
    // Bits 64..192 of the product, before carries out of bit 128.
    let mid = (p00 >> 64) + (p01 & LOW) + (p10 & LOW);
    let low = (p00 & LOW) | (mid << 64);
    let high = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    (high, low)
}

#[cold]
fn overflow_panic() -> ! {
    panic!("rational arithmetic overflow");
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, or with "rational arithmetic overflow" if
    /// either part is `i128::MIN`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        Rat::reduce(num, den).unwrap_or_else(|_| overflow_panic())
    }

    /// `num / den` (`den != 0`) in normal form, or `RatOverflow` when
    /// either part is `i128::MIN`.
    fn reduce(num: i128, den: i128) -> Result<Rat, RatOverflow> {
        if num == i128::MIN || den == i128::MIN {
            return Err(RatOverflow);
        }
        if den == 1 {
            return Ok(Rat { num, den });
        }
        let g = gcd(num, den);
        let sign = den.signum();
        Ok(Rat {
            num: sign * num / g,
            den: sign * den / g,
        })
    }

    /// Integer constant.
    ///
    /// # Panics
    ///
    /// Panics if `n == i128::MIN`.
    pub const fn int(n: i128) -> Rat {
        assert!(n != i128::MIN, "rational arithmetic overflow");
        Rat { num: n, den: 1 }
    }

    /// Converts a finite `f64` with limited precision (6 decimal places) —
    /// used to import hull coordinates, which are minute-valued anyway.
    ///
    /// # Panics
    ///
    /// Panics on NaN/infinite input.
    pub fn from_f64_approx(x: f64) -> Rat {
        assert!(x.is_finite(), "cannot convert non-finite float");
        const SCALE: f64 = 1e6;
        Rat::new((x * SCALE).round() as i128, SCALE as i128)
    }

    /// Numerator (normalized).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Denominator (normalized, always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Conversion to `f64` (may round): `num as f64 / den as f64`.
    /// Parts that fit `i64` convert through it, which rounds the same
    /// integer to the same `f64` (both conversions are correctly
    /// rounded) in one instruction instead of a software `i128` routine.
    pub fn to_f64(self) -> f64 {
        match (i64::try_from(self.num), i64::try_from(self.den)) {
            (Ok(n), Ok(d)) => n as f64 / d as f64,
            _ => self.num as f64 / self.den as f64,
        }
    }

    /// True iff the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// True iff the value is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// True iff the value is strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    fn try_checked(num: Option<i128>, den: Option<i128>) -> Result<Rat, RatOverflow> {
        match (num, den) {
            (Some(n), Some(d)) => Rat::reduce(n, d),
            _ => Err(RatOverflow),
        }
    }

    /// Non-panicking addition: `Err(RatOverflow)` if the result cannot be
    /// represented over `i128`.
    pub fn try_add(self, rhs: Rat) -> Result<Rat, RatOverflow> {
        if self.den == 1 && rhs.den == 1 {
            return Rat::try_checked(self.num.checked_add(rhs.num), Some(1));
        }
        // a/b + c/d = (a*d + c*b) / (b*d), reduced via gcd(b, d) first.
        let g = gcd(self.den, rhs.den).max(1);
        let lb = self.den / g;
        let rb = rhs.den / g;
        Rat::try_checked(
            self.num
                .checked_mul(rb)
                .and_then(|x| rhs.num.checked_mul(lb).and_then(|y| x.checked_add(y))),
            self.den.checked_mul(rb),
        )
    }

    /// Non-panicking subtraction; see [`Rat::try_add`].
    pub fn try_sub(self, rhs: Rat) -> Result<Rat, RatOverflow> {
        self.try_add(-rhs)
    }

    /// Non-panicking multiplication; see [`Rat::try_add`].
    pub fn try_mul(self, rhs: Rat) -> Result<Rat, RatOverflow> {
        if self.den == 1 && rhs.den == 1 {
            return Rat::try_checked(self.num.checked_mul(rhs.num), Some(1));
        }
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Rat::try_checked(
            (self.num / g1).checked_mul(rhs.num / g2),
            (self.den / g2).checked_mul(rhs.den / g1),
        )
    }

    /// Non-panicking division. Returns `Err(RatOverflow)` on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero (a logic error, not a magnitude one).
    pub fn try_div(self, rhs: Rat) -> Result<Rat, RatOverflow> {
        self.try_mul(rhs.recip())
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        self.try_add(rhs).unwrap_or_else(|_| overflow_panic())
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        self.try_mul(rhs).unwrap_or_else(|_| overflow_panic())
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        #[allow(clippy::suspicious_arithmetic_impl)]
        {
            self * rhs.recip()
        }
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // Compare a/b vs c/d  <=>  a*d vs c*b (b, d > 0).
        let left = self.num.checked_mul(other.den);
        let right = other.num.checked_mul(self.den);
        if let (Some(l), Some(r)) = (left, right) {
            return l.cmp(&r);
        }
        // A cross product left i128, so both numerators are nonzero.
        // Signs first, then the 256-bit magnitudes of a*d and c*b.
        let signs = self.num.signum().cmp(&other.num.signum());
        if signs != Ordering::Equal {
            return signs;
        }
        let l = wide_mul(self.num.unsigned_abs(), other.den.unsigned_abs());
        let r = wide_mul(other.num.unsigned_abs(), self.den.unsigned_abs());
        if self.num > 0 {
            l.cmp(&r)
        } else {
            r.cmp(&l)
        }
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n as i128)
    }
}

impl fmt::Display for Rat {
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
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::int(2));
        assert_eq!(-a, Rat::new(-1, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert_eq!(Rat::new(3, 9), Rat::new(1, 3));
    }

    #[test]
    fn from_f64_roundtrip_on_minutes() {
        for v in [0.0, 1.0, 719.5, 1440.0, -3.25] {
            assert!((Rat::from_f64_approx(v).to_f64() - v).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn zero_reciprocal_panics() {
        let _ = Rat::ZERO.recip();
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rat::int(5).to_string(), "5");
        assert_eq!(Rat::new(1, 2).to_string(), "1/2");
        assert_eq!(Rat::new(-3, 6).to_string(), "-1/2");
    }

    #[test]
    fn checked_ops_agree_with_panicking_ops_in_range() {
        let vals = [Rat::new(1, 3), Rat::new(-7, 5), Rat::int(12), Rat::ZERO];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(a.try_add(b), Ok(a + b));
                assert_eq!(a.try_sub(b), Ok(a - b));
                assert_eq!(a.try_mul(b), Ok(a * b));
                if !b.is_zero() {
                    assert_eq!(a.try_div(b), Ok(a / b));
                }
            }
        }
    }

    #[test]
    fn checked_ops_report_overflow_on_near_overflow_coefficients() {
        // Coprime near-max numerator/denominator pairs: any cross product
        // blows past i128. The panicking path would abort the process;
        // the checked path must surface RatOverflow instead.
        let huge = Rat::new(i128::MAX - 1, 3);
        let tiny = Rat::new(2, i128::MAX - 24); // i128::MAX - 24 is coprime to 2
        assert_eq!(huge.try_mul(huge), Err(RatOverflow));
        assert_eq!(huge.try_add(tiny), Err(RatOverflow));
        assert_eq!(huge.try_sub(-tiny), Err(RatOverflow));
        assert_eq!(huge.try_div(tiny), Err(RatOverflow));
        // Same magnitudes stay fine when the gcd reduction rescues them.
        assert_eq!(huge.try_sub(huge), Ok(Rat::ZERO));
        assert_eq!(huge.try_div(huge), Ok(Rat::ONE));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn try_div_by_zero_panics() {
        let _ = Rat::ONE.try_div(Rat::ZERO);
    }

    #[test]
    fn ordering_is_exact_when_cross_products_overflow() {
        // 1 + 1/(big-1) < 1 + 1/(big-2): both cross products leave i128
        // and the two values agree to far more digits than an f64 holds.
        let big = i128::MAX / 4;
        let a = Rat::new(big, big - 1);
        let b = Rat::new(big - 1, big - 2);
        assert_ne!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(b.cmp(&a), Ordering::Greater);
        assert_eq!((-a).cmp(&-b), Ordering::Greater);
        assert_eq!(a.cmp(&-b), Ordering::Greater);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        // (2^128 - 1)² = 2^256 - 2^129 + 1.
        assert_eq!(wide_mul(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
        assert_eq!(wide_mul(1 << 64, 1 << 64), (1, 0));
    }

    #[test]
    fn results_equal_to_i128_min_overflow() {
        // -2^126 + -2^126 = i128::MIN, whose negation does not fit i128.
        let half = Rat::int(-(1 << 126));
        assert_eq!(half.try_add(half), Err(RatOverflow));
        assert_eq!(half.try_sub(-half), Err(RatOverflow));
        assert_eq!(half.try_mul(Rat::int(2)), Err(RatOverflow));
        assert_eq!(Rat::int(-2).try_mul(-half), Err(RatOverflow));
        // The general (fractional) paths too.
        let third = Rat::new(-(1 << 126), 3);
        assert_eq!(third.try_add(third), Err(RatOverflow));
        // One step inside the range still works.
        let near = Rat::int(-(1 << 126) + 1);
        assert_eq!(near.try_add(half), Ok(Rat::int(i128::MIN + 1)));
    }

    #[test]
    #[should_panic(expected = "rational arithmetic overflow")]
    fn operators_panic_on_i128_min_results() {
        let half = Rat::int(-(1 << 126));
        let _ = half + half;
    }

    #[test]
    fn field_axioms_spot_checks() {
        let vals = [
            Rat::new(1, 2),
            Rat::new(-3, 7),
            Rat::int(4),
            Rat::ZERO,
            Rat::new(22, 7),
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(a + b, b + a);
                assert_eq!(a * b, b * a);
                assert_eq!(a + Rat::ZERO, a);
                assert_eq!(a * Rat::ONE, a);
                assert_eq!(a - a, Rat::ZERO);
                for &c in &vals {
                    assert_eq!((a + b) + c, a + (b + c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }
}
