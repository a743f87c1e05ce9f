//! Concrete scalar types for every emulated format, all implementing
//! [`Real`](crate::Real).
//!
//! Each type is a thin newtype over its storage word.  Arithmetic is served
//! by one of two backends, chosen per width (see [`crate::lut`]):
//!
//! * **8-bit formats** route every operation through precomputed lookup
//!   tables ([`crate::lut::Lut8`]), generated once per format from the
//!   soft-float path — bit-identical to it by construction and several
//!   times faster.
//! * **16/32/64-bit formats** use the soft-float kernel directly: a full
//!   binary table is out of reach from 16 bits up, and the experiment
//!   pipeline solves these formats at [`crate::Decoded`], which keeps
//!   operands decoded between ops instead of tabulating the decode.
//!
//! Every type also exposes the raw reference path (`softfloat_add` & co.)
//! regardless of backend, which the exhaustive equivalence tests and the
//! backend micro-benchmarks compare against.  This keeps results bit-exact
//! and reproducible across platforms and backends.

use core::cmp::Ordering;
use core::fmt;

use crate::ieee::{self, pack_f64, unpack_f64};
use crate::posit;
use crate::real::Real;
use crate::softfloat;
use crate::takum;
use crate::unpacked::Unpacked;

/// The storage newtype plus everything that is backend-independent: bit
/// access, the unpack/pack codec bridge, the soft-float reference path,
/// formatting and the compound-assignment operators.
macro_rules! format_shell {
    (
        $(#[$meta:meta])*
        $name:ident, $storage:ty, $fmtname:expr, $codec:ident, $spec:expr
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy)]
        pub struct $name($storage);

        impl $name {
            /// Construct directly from the raw bit pattern.
            #[inline]
            pub fn from_bits(bits: $storage) -> Self {
                $name(bits)
            }

            /// The raw bit pattern.
            #[inline]
            pub fn to_bits(self) -> $storage {
                self.0
            }

            #[inline]
            fn unpack(self) -> Unpacked {
                $codec::decode(self.0 as u64, &$spec)
            }

            #[inline]
            fn pack(u: &Unpacked) -> Self {
                $name($codec::encode(u, &$spec) as $storage)
            }

            /// Reference addition through the decode → kernel → round path,
            /// independent of the active backend.
            #[inline]
            pub fn softfloat_add(self, o: Self) -> Self {
                Self::pack(&softfloat::add(&self.unpack(), &o.unpack()))
            }

            /// Reference subtraction (see [`Self::softfloat_add`]).
            #[inline]
            pub fn softfloat_sub(self, o: Self) -> Self {
                Self::pack(&softfloat::sub(&self.unpack(), &o.unpack()))
            }

            /// Reference multiplication (see [`Self::softfloat_add`]).
            #[inline]
            pub fn softfloat_mul(self, o: Self) -> Self {
                Self::pack(&softfloat::mul(&self.unpack(), &o.unpack()))
            }

            /// Reference division (see [`Self::softfloat_add`]).
            #[inline]
            pub fn softfloat_div(self, o: Self) -> Self {
                Self::pack(&softfloat::div(&self.unpack(), &o.unpack()))
            }

            /// Reference square root (see [`Self::softfloat_add`]).
            #[inline]
            pub fn softfloat_sqrt(self) -> Self {
                Self::pack(&softfloat::sqrt(&self.unpack()))
            }

            /// Reference decode to `f64` (see [`Self::softfloat_add`]).
            #[inline]
            pub fn softfloat_to_f64(self) -> f64 {
                pack_f64(&self.unpack())
            }

            /// Reference negation (see [`Self::softfloat_add`]).
            #[inline]
            pub fn softfloat_neg(self) -> Self {
                let mut u = self.unpack();
                if !u.is_nan() {
                    u.sign = !u.sign;
                }
                Self::pack(&u)
            }

            /// Reference absolute value (see [`Self::softfloat_add`]).
            #[inline]
            pub fn softfloat_abs(self) -> Self {
                let mut u = self.unpack();
                u.sign = false;
                Self::pack(&u)
            }

            /// Reference comparison through the unpacked representation
            /// (`Unpacked::partial_cmp_value`), independent of the active
            /// backend's comparison path.
            #[inline]
            pub fn softfloat_partial_cmp(self, o: Self) -> Option<Ordering> {
                self.unpack().partial_cmp_value(&o.unpack())
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, o: Self) {
                *self = *self + o;
            }
        }
        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, o: Self) {
                *self = *self - o;
            }
        }
        impl core::ops::MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, o: Self) {
                *self = *self * o;
            }
        }
        impl core::ops::DivAssign for $name {
            #[inline]
            fn div_assign(&mut self, o: Self) {
                *self = *self / o;
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.to_f64())
            }
        }
        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:#x} ≈ {})", $fmtname, self.0, self.to_f64())
            }
        }
    };
}

/// The five arithmetic operator impls of [`soft_backend!`], delegating to
/// the soft-float reference path.
macro_rules! softfloat_ops {
    ($name:ident) => {
        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, o: Self) -> Self {
                self.softfloat_add(o)
            }
        }
        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, o: Self) -> Self {
                self.softfloat_sub(o)
            }
        }
        impl core::ops::Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, o: Self) -> Self {
                self.softfloat_mul(o)
            }
        }
        impl core::ops::Div for $name {
            type Output = Self;
            #[inline]
            fn div(self, o: Self) -> Self {
                self.softfloat_div(o)
            }
        }
        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                self.softfloat_neg()
            }
        }
    };
}

/// `Real` items identical across both backends (expands inside an
/// `impl Real` block): constants, constructors and the storage-pattern
/// constants.
macro_rules! real_storage_core {
    ($name:ident, $storage:ty, $fmtname:expr, $bits:expr, $max_pat:expr, $min_pat:expr) => {
        const NAME: &'static str = $fmtname;
        const BITS: u32 = $bits;

        #[inline]
        fn zero() -> Self {
            $name(0)
        }
        #[inline]
        fn one() -> Self {
            Self::from_f64(1.0)
        }
        #[inline]
        fn from_f64(x: f64) -> Self {
            Self::pack(&unpack_f64(x))
        }
        fn epsilon() -> Self {
            let one = Self::one();
            let next = $name(one.0 + 1);
            next - one
        }
        fn max_finite() -> Self {
            $name($max_pat as $storage)
        }
        fn min_positive() -> Self {
            $name($min_pat as $storage)
        }
    };
}

/// Soft-float backend: operators and `Real` through the decode → kernel →
/// round path (the 16-, 32- and 64-bit formats), plus the
/// [`crate::UnpackedReal`] hooks [`crate::Decoded`] runs this format's ops
/// on: the codec bridge, the codec's value-level rounder
/// (`crate::round::$codec`) and its fused-round plan (verified in
/// `tests/batch_differential.rs` and `tests/decoded_conformance.rs`).
macro_rules! soft_backend {
    ($name:ident, $storage:ty, $fmtname:expr, $bits:expr, $max_pat:expr, $min_pat:expr,
     $codec:ident, $spec:expr) => {
        softfloat_ops!($name);

        impl crate::decoded::UnpackedReal for $name {
            const ROUND: crate::round::RoundPlan = crate::round::plan::$codec(&$spec);

            #[inline]
            fn decode(self) -> Unpacked {
                self.unpack()
            }
            #[inline]
            fn encode(u: Unpacked) -> Self {
                Self::pack(&u)
            }
            #[inline]
            fn round_value(u: &Unpacked) -> Unpacked {
                crate::round::$codec(u, &$spec)
            }
        }

        impl PartialEq for $name {
            #[inline]
            fn eq(&self, o: &Self) -> bool {
                self.unpack().partial_cmp_value(&o.unpack()) == Some(Ordering::Equal)
            }
        }
        impl PartialOrd for $name {
            #[inline]
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                self.unpack().partial_cmp_value(&o.unpack())
            }
        }

        impl Real for $name {
            real_storage_core!($name, $storage, $fmtname, $bits, $max_pat, $min_pat);

            #[inline]
            fn to_f64(self) -> f64 {
                self.softfloat_to_f64()
            }
            #[inline]
            fn abs(self) -> Self {
                self.softfloat_abs()
            }
            #[inline]
            fn sqrt(self) -> Self {
                self.softfloat_sqrt()
            }
            #[inline]
            fn is_nan(self) -> bool {
                self.unpack().is_nan()
            }
            #[inline]
            fn is_finite(self) -> bool {
                self.unpack().is_finite()
            }
            #[inline]
            fn is_zero(self) -> bool {
                self.unpack().is_zero()
            }
        }
    };
}

/// Lookup-table backend for the 8-bit formats: every operation is one or
/// two table loads.  The tables are built from the soft-float path on first
/// use, so results are bit-identical to [`soft_backend!`]'s.  Comparisons
/// and classification go through the decoded `f64` value: every 8-bit
/// value decodes exactly into `f64`, and `f64` comparison semantics
/// coincide with `Unpacked::partial_cmp_value` (NaN/NaR unordered, zeros
/// equal regardless of sign) — verified exhaustively in
/// `tests/lut_exhaustive.rs`.
macro_rules! lut8_backend {
    ($name:ident, $fmtname:expr, $max_pat:expr, $min_pat:expr, $codec:ident, $spec:expr) => {
        impl $name {
            /// This format's operation tables (built on first use).  The
            /// `static` lives in this macro expansion, so every format gets
            /// its own (a `static` in a generic function would be shared by
            /// all its instantiations).
            #[inline]
            fn lut() -> &'static crate::lut::Lut8 {
                static TABLE: std::sync::OnceLock<crate::lut::Lut8> = std::sync::OnceLock::new();
                TABLE.get_or_init(|| {
                    crate::lut::Lut8::build(
                        |bits| $codec::decode(bits as u64, &$spec),
                        |u| $codec::encode(u, &$spec) as u8,
                    )
                })
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, o: Self) -> Self {
                $name(Self::lut().add(self.0, o.0))
            }
        }
        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, o: Self) -> Self {
                $name(Self::lut().sub(self.0, o.0))
            }
        }
        impl core::ops::Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, o: Self) -> Self {
                $name(Self::lut().mul(self.0, o.0))
            }
        }
        impl core::ops::Div for $name {
            type Output = Self;
            #[inline]
            fn div(self, o: Self) -> Self {
                $name(Self::lut().div(self.0, o.0))
            }
        }
        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                $name(Self::lut().neg(self.0))
            }
        }

        impl PartialEq for $name {
            #[inline]
            fn eq(&self, o: &Self) -> bool {
                self.to_f64() == o.to_f64()
            }
        }
        impl PartialOrd for $name {
            #[inline]
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                self.to_f64().partial_cmp(&o.to_f64())
            }
        }

        impl Real for $name {
            real_storage_core!($name, u8, $fmtname, 8, $max_pat, $min_pat);

            #[inline]
            fn to_f64(self) -> f64 {
                Self::lut().decode(self.0)
            }
            #[inline]
            fn abs(self) -> Self {
                $name(Self::lut().abs(self.0))
            }
            #[inline]
            fn sqrt(self) -> Self {
                $name(Self::lut().sqrt(self.0))
            }
            #[inline]
            fn recip(self) -> Self {
                // Table built as `one / x` through the kernel, matching the
                // `Real::recip` default exactly.
                $name(Self::lut().recip(self.0))
            }
            #[inline]
            fn is_nan(self) -> bool {
                self.to_f64().is_nan()
            }
            #[inline]
            fn is_finite(self) -> bool {
                self.to_f64().is_finite()
            }
            #[inline]
            fn is_zero(self) -> bool {
                self.to_f64() == 0.0
            }
        }
    };
}

macro_rules! lut8_format {
    (
        $(#[$meta:meta])*
        $name:ident, $fmtname:expr, $codec:ident, $spec:expr, $max_pat:expr, $min_pat:expr
    ) => {
        format_shell!($(#[$meta])* $name, u8, $fmtname, $codec, $spec);
        lut8_backend!($name, $fmtname, $max_pat, $min_pat, $codec, $spec);
    };
}

macro_rules! soft_format {
    (
        $(#[$meta:meta])*
        $name:ident, $storage:ty, $fmtname:expr, $bits:expr,
        $codec:ident, $spec:expr, $max_pat:expr, $min_pat:expr
    ) => {
        format_shell!($(#[$meta])* $name, $storage, $fmtname, $codec, $spec);
        soft_backend!($name, $storage, $fmtname, $bits, $max_pat, $min_pat, $codec, $spec);
    };
}

soft_format!(
    /// IEEE 754 binary16 (`float16`).
    F16, u16, "float16", 16, ieee, ieee::BINARY16,
    ieee::BINARY16.max_finite_bits(), ieee::BINARY16.min_positive_bits()
);
soft_format!(
    /// Google Brain `bfloat16` (8 exponent bits, 7 fraction bits).
    Bf16, u16, "bfloat16", 16, ieee, ieee::BFLOAT16,
    ieee::BFLOAT16.max_finite_bits(), ieee::BFLOAT16.min_positive_bits()
);
lut8_format!(
    /// OCP OFP8 E4M3 (no infinities, single NaN mantissa, max finite 448).
    E4M3, "OFP8 E4M3", ieee, ieee::OFP8_E4M3,
    ieee::OFP8_E4M3.max_finite_bits(), ieee::OFP8_E4M3.min_positive_bits()
);
lut8_format!(
    /// OCP OFP8 E5M2 (IEEE-like specials, max finite 57344).
    E5M2, "OFP8 E5M2", ieee, ieee::OFP8_E5M2,
    ieee::OFP8_E5M2.max_finite_bits(), ieee::OFP8_E5M2.min_positive_bits()
);

lut8_format!(
    /// 8-bit posit, 2022 standard (es = 2).
    Posit8, "posit8", posit, posit::POSIT8,
    posit::POSIT8.maxpos_pattern(), posit::POSIT8.minpos_pattern()
);
soft_format!(
    /// 16-bit posit, 2022 standard (es = 2).
    Posit16, u16, "posit16", 16, posit, posit::POSIT16,
    posit::POSIT16.maxpos_pattern(), posit::POSIT16.minpos_pattern()
);
soft_format!(
    /// 32-bit posit, 2022 standard (es = 2).
    Posit32, u32, "posit32", 32, posit, posit::POSIT32,
    posit::POSIT32.maxpos_pattern(), posit::POSIT32.minpos_pattern()
);
soft_format!(
    /// 64-bit posit, 2022 standard (es = 2).
    Posit64, u64, "posit64", 64, posit, posit::POSIT64,
    posit::POSIT64.maxpos_pattern(), posit::POSIT64.minpos_pattern()
);
lut8_format!(
    /// Legacy 8-bit posit with es = 0 (pre-2022 draft), used by the ablation
    /// study only.
    Posit8Es0, "posit8(es=0)", posit, posit::POSIT8_ES0,
    posit::POSIT8_ES0.maxpos_pattern(), posit::POSIT8_ES0.minpos_pattern()
);
soft_format!(
    /// Legacy 16-bit posit with es = 1 (pre-2022 draft), used by the ablation
    /// study only.
    Posit16Es1, u16, "posit16(es=1)", 16, posit, posit::POSIT16_ES1,
    posit::POSIT16_ES1.maxpos_pattern(), posit::POSIT16_ES1.minpos_pattern()
);

lut8_format!(
    /// 8-bit linear takum.
    Takum8, "takum8", takum, takum::TAKUM8,
    takum::TAKUM8.max_pattern(), takum::TAKUM8.min_pattern()
);
soft_format!(
    /// 16-bit linear takum.
    Takum16, u16, "takum16", 16, takum, takum::TAKUM16,
    takum::TAKUM16.max_pattern(), takum::TAKUM16.min_pattern()
);
soft_format!(
    /// 32-bit linear takum.
    Takum32, u32, "takum32", 32, takum, takum::TAKUM32,
    takum::TAKUM32.max_pattern(), takum::TAKUM32.min_pattern()
);
soft_format!(
    /// 64-bit linear takum.
    Takum64, u64, "takum64", 64, takum, takum::TAKUM64,
    takum::TAKUM64.max_pattern(), takum::TAKUM64.min_pattern()
);

#[cfg(test)]
mod tests {
    use super::*;

    /// For formats whose precision p satisfies 2p + 2 <= 53, performing the
    /// operation in f64 and rounding to the format is exactly the correctly
    /// rounded format operation, so f64 serves as an oracle.
    fn check_against_f64_oracle<T: Real>(values: &[f64]) {
        for &a in values {
            for &b in values {
                // NaN results (e.g. overflow in E4M3) compare unequal in f64,
                // so compare through bit patterns of the canonicalized value.
                fn same(a: f64, b: f64) -> bool {
                    (a.is_nan() && b.is_nan()) || a == b
                }
                let ta = T::from_f64(a);
                let tb = T::from_f64(b);
                let (fa, fb) = (ta.to_f64(), tb.to_f64());
                assert!(
                    same((ta + tb).to_f64(), T::from_f64(fa + fb).to_f64()),
                    "{} + {} in {}",
                    fa,
                    fb,
                    T::NAME
                );
                assert!(
                    same((ta - tb).to_f64(), T::from_f64(fa - fb).to_f64()),
                    "{} - {} in {}",
                    fa,
                    fb,
                    T::NAME
                );
                assert!(
                    same((ta * tb).to_f64(), T::from_f64(fa * fb).to_f64()),
                    "{} * {} in {}",
                    fa,
                    fb,
                    T::NAME
                );
                if !tb.is_zero() {
                    assert!(
                        same((ta / tb).to_f64(), T::from_f64(fa / fb).to_f64()),
                        "{} / {} in {}",
                        fa,
                        fb,
                        T::NAME
                    );
                }
            }
            let ta = T::from_f64(a.abs());
            assert_eq!(ta.sqrt().to_f64(), T::from_f64(ta.to_f64().sqrt()).to_f64());
        }
    }

    #[test]
    fn narrow_formats_match_f64_oracle() {
        let vals = [
            0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -3.5, 7.0, 0.125, 100.0, -250.0, 0.013, 1.0e-3, 96.0,
            1.0 / 3.0, 0.0625, -17.25,
        ];
        check_against_f64_oracle::<F16>(&vals);
        check_against_f64_oracle::<Bf16>(&vals);
        check_against_f64_oracle::<E4M3>(&vals);
        check_against_f64_oracle::<E5M2>(&vals);
        check_against_f64_oracle::<Posit8>(&vals);
        check_against_f64_oracle::<Posit16>(&vals);
        check_against_f64_oracle::<Takum8>(&vals);
        check_against_f64_oracle::<Takum16>(&vals);
    }

    #[test]
    fn wide_formats_exact_on_integers() {
        // Keep the products below 2^18 so that they are exactly representable
        // in posit32/takum32 even with their tapered fraction fields.
        fn exact_int_ops<T: Real>() {
            for a in [-37i64, -4, -1, 0, 1, 2, 3, 12, 100, 511] {
                for b in [-11i64, -2, 1, 5, 64, 300] {
                    let ta = T::from_f64(a as f64);
                    let tb = T::from_f64(b as f64);
                    assert_eq!((ta + tb).to_f64(), (a + b) as f64, "{}", T::NAME);
                    assert_eq!((ta - tb).to_f64(), (a - b) as f64, "{}", T::NAME);
                    assert_eq!((ta * tb).to_f64(), (a * b) as f64, "{}", T::NAME);
                }
            }
        }
        exact_int_ops::<Posit32>();
        exact_int_ops::<Posit64>();
        exact_int_ops::<Takum32>();
        exact_int_ops::<Takum64>();
    }

    #[test]
    fn epsilon_ordering_matches_the_paper_narrative() {
        // Precision near 1: takums trade a little precision near one for
        // dynamic range; bfloat16 is the coarsest 16-bit format.
        let eps_f16 = F16::epsilon().to_f64();
        let eps_bf16 = Bf16::epsilon().to_f64();
        let eps_p16 = Posit16::epsilon().to_f64();
        let eps_t16 = Takum16::epsilon().to_f64();
        assert_eq!(eps_f16, 2f64.powi(-10));
        assert_eq!(eps_bf16, 2f64.powi(-7));
        // With es = 2 both tapered 16-bit formats carry 11 fraction bits at 1.
        assert_eq!(eps_p16, 2f64.powi(-11));
        assert_eq!(eps_t16, 2f64.powi(-11));
        assert!(eps_p16 < eps_f16 && eps_t16 < eps_f16 && eps_f16 < eps_bf16);
        // 64-bit: posit64 and takum64 both carry 59 fraction bits near one,
        // float64 has 52.
        assert_eq!(Posit64::epsilon().to_f64(), 2f64.powi(-59));
        assert_eq!(Takum64::epsilon().to_f64(), 2f64.powi(-59));
        assert_eq!(f64::EPSILON, 2f64.powi(-52));
    }

    #[test]
    fn max_and_min_values() {
        assert_eq!(E4M3::max_finite().to_f64(), 448.0);
        assert_eq!(E5M2::max_finite().to_f64(), 57344.0);
        assert_eq!(F16::max_finite().to_f64(), 65504.0);
        assert_eq!(Bf16::max_finite().to_f64(), 3.3895313892515355e38);
        assert_eq!(Posit16::max_finite().to_f64(), 2f64.powi(56));
        assert_eq!(Posit8::max_finite().to_f64(), 2f64.powi(24));
        assert!(Takum16::max_finite().to_f64() > 1e75);
        assert_eq!(E4M3::min_positive().to_f64(), 2f64.powi(-9));
        assert_eq!(E5M2::min_positive().to_f64(), 2f64.powi(-16));
        assert_eq!(Posit16::min_positive().to_f64(), 2f64.powi(-56));
    }

    #[test]
    fn nan_and_comparison_semantics() {
        // The negated comparisons are the point: NaN must be unordered.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        fn check<T: Real>() {
            let nan = T::from_f64(f64::NAN);
            assert!(nan.is_nan(), "{}", T::NAME);
            assert!(nan != nan, "{}", T::NAME);
            assert!(!(nan < T::one()) && !(nan > T::one()), "{}", T::NAME);
            assert!((T::one() / T::zero()).is_nan() || !(T::one() / T::zero()).is_finite());
            assert!(T::from_f64(-2.0) < T::from_f64(-1.0));
            assert!(T::from_f64(-1.0) < T::zero());
            assert!(T::zero() < T::min_positive());
            assert_eq!(T::from_f64(2.5).max(T::from_f64(-3.0)).to_f64(), 2.5);
        }
        check::<F16>();
        check::<Bf16>();
        check::<E4M3>();
        check::<E5M2>();
        check::<Posit8>();
        check::<Posit16>();
        check::<Posit32>();
        check::<Posit64>();
        check::<Takum8>();
        check::<Takum16>();
        check::<Takum32>();
        check::<Takum64>();
    }

    #[test]
    fn posit_and_takum_saturate_instead_of_overflowing() {
        let big = Posit8::from_f64(1e6);
        assert_eq!((big * big).to_f64(), Posit8::max_finite().to_f64());
        let tiny = Posit8::from_f64(1e-6);
        assert_eq!((tiny * tiny).to_f64(), Posit8::min_positive().to_f64());
        let big = Takum8::from_f64(1e40);
        assert_eq!((big * big).to_f64(), Takum8::max_finite().to_f64());
        // IEEE-style formats do overflow.
        let big = E5M2::from_f64(3e4);
        assert!(!(big * big).is_finite());
        let big = Bf16::from_f64(1e30);
        assert!(!(big * big).is_finite());
    }

    #[test]
    fn display_and_debug() {
        let x = Posit16::from_f64(1.5);
        assert_eq!(format!("{x}"), "1.5");
        assert!(format!("{x:?}").contains("posit16"));
        let y = Takum8::from_f64(-2.0);
        assert_eq!(format!("{y}"), "-2");
    }

    #[test]
    fn backends_match_reference_on_samples() {
        // Spot check that the table-served operators agree with the public
        // soft-float reference methods (the exhaustive sweep lives in
        // tests/lut_exhaustive.rs).
        for a in 0..=255u8 {
            let (x8, y8) = (Takum8::from_bits(a), Takum8::from_bits(a.wrapping_mul(37)));
            assert_eq!((x8 + y8).to_bits(), x8.softfloat_add(y8).to_bits());
            assert_eq!((x8 * y8).to_bits(), x8.softfloat_mul(y8).to_bits());
        }
    }
}
