//! Double-precision complex numbers.
//!
//! Wireless channels are complex-valued (paper Eq. 1: `h = (A/d)·e^{-ι2πd/λ}`),
//! and every stage of the BLoc pipeline — channel synthesis, phase-offset
//! cancellation (Eq. 10), likelihood correlation (Eq. 17) — is complex
//! arithmetic. This module implements the small, fully-owned complex type
//! used across the workspace instead of pulling in `num-complex`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// The naming follows the convention of DSP codebases: `re + ι·im` with
/// `ι = √−1` (the paper uses `ι` for the imaginary unit).
#[derive(Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity.
pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
/// The multiplicative identity.
pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
/// The imaginary unit ι.
pub const I: C64 = C64 { re: 0.0, im: 1.0 };

impl C64 {
    /// Builds a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Builds a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Builds a complex number from polar form `r·e^{ιθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::new(r * c, r * s)
    }

    /// The unit phasor `e^{ιθ}`.
    ///
    /// This is the hot primitive of likelihood evaluation (Eq. 17): each grid
    /// cell contributes one phasor per (antenna, band) pair.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::new(c, s)
    }

    /// Complex conjugate (`(.)*` in the paper).
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (cheaper than [`Self::abs`]; no sqrt).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Principal argument `∠z ∈ (−π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Polar decomposition `(|z|, ∠z)`.
    #[inline]
    pub fn to_polar(self) -> (f64, f64) {
        (self.abs(), self.arg())
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns a non-finite value for `z = 0`, mirroring `f64` division.
    #[inline]
    pub fn inv(self) -> Self {
        let n = self.norm_sq();
        Self::new(self.re / n, -self.im / n)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// `z / |z|`; returns zero for the zero vector.
    #[inline]
    pub fn normalize(self) -> Self {
        let a = self.abs();
        if a == 0.0 {
            ZERO
        } else {
            self.scale(1.0 / a)
        }
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Fused multiply-accumulate: `self + a·b`.
    ///
    /// Used in the inner correlation loops to keep the arithmetic explicit.
    #[inline]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        self + a * b
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}i",
            self.re,
            if self.im < 0.0 { "-" } else { "+" },
            self.im.abs()
        )
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl Add for C64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for C64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for C64 {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal multiply
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Mul<f64> for C64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div<f64> for C64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        self.scale(1.0 / rhs)
    }
}

impl Neg for C64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(ZERO, |acc, z| acc + z)
    }
}

impl<'a> Sum<&'a C64> for C64 {
    fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
        iter.fold(ZERO, |acc, z| acc + *z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn cclose(a: C64, b: C64) -> bool {
        close(a.re, b.re) && close(a.im, b.im)
    }

    #[test]
    fn basic_arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a - b, C64::new(-2.0, 3.0));
        assert_eq!(a * b, C64::new(5.0, 5.0));
        assert!(cclose(a / a, ONE));
    }

    #[test]
    fn polar_roundtrip() {
        let z = C64::from_polar(2.5, 0.7);
        let (r, t) = z.to_polar();
        assert!(close(r, 2.5));
        assert!(close(t, 0.7));
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let th = k as f64 * PI / 8.0 - PI;
            let z = C64::cis(th);
            assert!(close(z.abs(), 1.0));
        }
    }

    #[test]
    fn conjugate_cancels_phase() {
        // The heart of BLoc's offset cancellation: z·z* is real.
        let z = C64::from_polar(3.0, 1.234);
        let p = z * z.conj();
        assert!(close(p.im, 0.0));
        assert!(close(p.re, 9.0));
    }

    #[test]
    fn exp_of_imaginary_is_cis() {
        let th = 0.456;
        assert!(cclose((I * th).exp(), C64::cis(th)));
    }

    #[test]
    fn inv_times_self_is_one() {
        let z = C64::new(-0.3, 1.7);
        assert!(cclose(z * z.inv(), ONE));
    }

    #[test]
    fn sum_over_iterator() {
        let v = [C64::new(1.0, 1.0); 10];
        let s: C64 = v.iter().sum();
        assert!(cclose(s, C64::new(10.0, 10.0)));
    }

    #[test]
    fn normalize_zero_is_zero() {
        assert_eq!(ZERO.normalize(), ZERO);
        assert!(close(C64::new(3.0, 4.0).normalize().abs(), 1.0));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", C64::new(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{}", C64::new(1.0, 2.0)), "1+2i");
    }

    proptest! {
        #[test]
        fn prop_mul_commutes(ar in -1e3..1e3f64, ai in -1e3..1e3f64,
                             br in -1e3..1e3f64, bi in -1e3..1e3f64) {
            let a = C64::new(ar, ai);
            let b = C64::new(br, bi);
            let ab = a * b;
            let ba = b * a;
            prop_assert!((ab.re - ba.re).abs() < 1e-6);
            prop_assert!((ab.im - ba.im).abs() < 1e-6);
        }

        #[test]
        fn prop_abs_is_multiplicative(ar in -1e2..1e2f64, ai in -1e2..1e2f64,
                                      br in -1e2..1e2f64, bi in -1e2..1e2f64) {
            let a = C64::new(ar, ai);
            let b = C64::new(br, bi);
            prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-6);
        }

        #[test]
        fn prop_conj_involution(re in -1e6..1e6f64, im in -1e6..1e6f64) {
            let z = C64::new(re, im);
            prop_assert_eq!(z.conj().conj(), z);
        }

        #[test]
        fn prop_phase_cancellation(r in 0.1..10.0f64,
                                   theta in -std::f64::consts::PI..std::f64::consts::PI,
                                   phi in -std::f64::consts::PI..std::f64::consts::PI) {
            // A phasor rotated by a random offset and multiplied by the
            // conjugate of the same offset recovers the original — the
            // algebraic core of paper Eq. 10.
            let h = C64::from_polar(r, theta);
            let offset = C64::cis(phi);
            let measured = h * offset;
            let corrected = measured * offset.conj();
            prop_assert!((corrected.re - h.re).abs() < 1e-9);
            prop_assert!((corrected.im - h.im).abs() < 1e-9);
        }
    }
}
