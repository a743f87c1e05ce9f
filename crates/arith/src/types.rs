//! Concrete scalar types for every emulated format, all implementing
//! [`Real`](crate::Real).
//!
//! Each type is a thin newtype over its storage word.  Arithmetic is served
//! by one of three backends, chosen per format (see [`crate::lut`]):
//!
//! * **8-bit formats** route every operation through precomputed lookup
//!   tables ([`crate::lut::Lut8`]), generated once per format from the
//!   soft-float path — bit-identical to it by construction and several
//!   times faster.
//! * **float16 and bfloat16** run on the host's binary32 unit: each op
//!   widens both operands to `f32` (exact), runs the hardware op and
//!   rounds the result once to the 16-bit format (round to nearest even,
//!   gradual underflow, overflow to ±∞, the canonical NaN).  binary32 has
//!   p′ = 24 ≥ 2p + 2 significand bits for both (p = 11 and p = 8) and at
//!   least their exponent range, so that double rounding is innocuous: the
//!   result is the correctly rounded 16-bit result of `+ − × ÷ √`
//!   (S. A. Figueroa, "When is double rounding innocuous?", ACM SIGNUM
//!   Newsletter 30(3), 1995), bit-identical to the soft-float path, which
//!   `tests/dec16_exhaustive.rs` checks pattern by pattern.  `from_f64`
//!   stays the soft-float conversion: f64 → f32 → 16 bits would be a
//!   double rounding that is *not* innocuous.
//! * **16/32/64-bit posits and takums** use the soft-float kernel directly:
//!   a full binary table is out of reach from 16 bits up, and the experiment
//!   pipeline solves these formats at [`crate::Decoded`], which keeps
//!   operands decoded between ops instead of tabulating the decode.
//!
//! Every type also exposes the raw reference path (`softfloat_add` & co.)
//! regardless of backend, which the exhaustive equivalence tests and the
//! backend micro-benchmarks compare against, and every 16/32/64-bit type
//! implements [`crate::UnpackedReal`], so `Decoded<F16>` and
//! `Decoded<Bf16>` are the soft-float reference the binary32 carrier is
//! tested against.  This keeps results bit-exact and reproducible across
//! platforms and backends.

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

/// `Real` items identical across the backends (expands inside an
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

/// The [`crate::UnpackedReal`] hooks [`crate::Decoded`] runs a 16/32/64-bit
/// format's ops on: the codec bridge, the codec's value-level rounder
/// (`crate::round::$codec`) and its fused-round plan (verified in
/// `tests/batch_differential.rs` and `tests/decoded_conformance.rs`).
macro_rules! unpacked_real {
    ($name:ident, $codec:ident, $spec:expr) => {
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
    };
}

/// Soft-float backend: operators and `Real` through the decode → kernel →
/// round path (the 16-, 32- and 64-bit posits and takums).
macro_rules! soft_backend {
    ($name:ident, $storage:ty, $fmtname:expr, $bits:expr, $max_pat:expr, $min_pat:expr,
     $codec:ident, $spec:expr) => {
        softfloat_ops!($name);
        unpacked_real!($name, $codec, $spec);

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

/// The binary32 value of a float16 pattern (exact).
#[inline(always)]
fn f16_to_f32(h: u16) -> f32 {
    const MIN_NORMAL: u32 = 0x0400;
    const INF: u32 = 0x7c00;
    let sign = ((h & 0x8000) as u32) << 16;
    let mag = (h & 0x7fff) as u32;
    let bits = if mag.wrapping_sub(MIN_NORMAL) < INF - MIN_NORMAL {
        // Normal: move the fields up and rebias the exponent (15 → 127).
        (mag << 13) + ((127 - 15) << 23)
    } else if mag < MIN_NORMAL {
        // Zero or subnormal: fraction · 2^-24, exact in binary32.
        (mag as f32 * f32::from_bits((127 - 24) << 23)).to_bits()
    } else {
        // ±∞ or NaN: the all-ones exponent, the fraction moved up.
        0x7f80_0000 | ((mag & 0x03ff) << 13)
    };
    f32::from_bits(sign | bits)
}

/// Round a binary32 value once to float16: round to nearest even, gradual
/// underflow, overflow to ±∞, and the soft-float path's canonical NaN.
#[inline(always)]
fn f32_to_f16(x: f32) -> u16 {
    const NAN: u16 = ieee::BINARY16.nan_bits() as u16;
    const INF: u16 = ieee::BINARY16.inf_bits() as u16;
    // 2^-14, the smallest normal, and 65520, max finite plus half an ulp.
    const MIN_NORMAL: u32 = 0x3880_0000;
    const OVERFLOW: u32 = 0x477f_f000;
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let mag = bits & 0x7fff_ffff;
    if mag.wrapping_sub(MIN_NORMAL) < OVERFLOW - MIN_NORMAL {
        // Normal: drop 13 fraction bits, ties to even; a carry moves into
        // the exponent field.
        let rounded = mag + 0x0fff + ((mag >> 13) & 1);
        sign | ((rounded >> 13) - ((127 - 15) << 10)) as u16
    } else if mag < MIN_NORMAL {
        // Subnormal or zero: adding 0.5 rounds |x| to a multiple of 2^-24
        // (the binary32 ulp on [0.5, 1)), ties to even, so the sum's low
        // bits are the fraction; 1024 is the smallest normal's pattern.
        let sum = f32::from_bits(mag) + 0.5;
        sign | (sum.to_bits() - 0.5f32.to_bits()) as u16
    } else if mag > 0x7f80_0000 {
        NAN
    } else {
        sign | INF
    }
}

/// The binary32 value of a bfloat16 pattern (exact: the top half).
#[inline(always)]
fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// Round a binary32 value once to bfloat16: round to nearest even on the
/// dropped low half (subnormals and the carry to ±∞ fall out of the
/// encoding's monotone order), and the soft-float path's canonical NaN.
#[inline(always)]
fn f32_to_bf16(x: f32) -> u16 {
    const NAN: u16 = ieee::BFLOAT16.nan_bits() as u16;
    if x.is_nan() {
        return NAN;
    }
    let bits = x.to_bits();
    ((bits + 0x7fff + ((bits >> 16) & 1)) >> 16) as u16
}

/// binary32-carrier backend (float16, bfloat16): every operator widens
/// both operands to `f32` exactly, runs the hardware op and rounds once
/// with `$narrow`; comparisons and classes read the `f32` value.  `neg`
/// and `abs` are sign-bit operations that return the canonical NaN for a
/// NaN, as the soft-float path does.  See the module docs for why this is
/// bit-identical to the soft-float path.
macro_rules! f32_carrier_backend {
    ($name:ident, $fmtname:expr, $spec:expr, $widen:ident, $narrow:ident) => {
        unpacked_real!($name, ieee, $spec);

        impl $name {
            /// This value as a binary32 (exact).
            #[inline(always)]
            fn to_f32(self) -> f32 {
                $widen(self.0)
            }

            /// Round a binary32 result once to this format.
            #[inline(always)]
            fn round_f32(x: f32) -> Self {
                $name($narrow(x))
            }

            /// Replace the sign bit with `sign` (the canonical NaN for a
            /// NaN, as the soft-float path returns).
            #[inline(always)]
            fn with_sign_bit(self, sign: u16) -> Self {
                if self.is_nan() {
                    $name($spec.nan_bits() as u16)
                } else {
                    $name((self.0 & 0x7fff) | sign)
                }
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline(always)]
            fn add(self, o: Self) -> Self {
                Self::round_f32(self.to_f32() + o.to_f32())
            }
        }
        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline(always)]
            fn sub(self, o: Self) -> Self {
                Self::round_f32(self.to_f32() - o.to_f32())
            }
        }
        impl core::ops::Mul for $name {
            type Output = Self;
            #[inline(always)]
            fn mul(self, o: Self) -> Self {
                Self::round_f32(self.to_f32() * o.to_f32())
            }
        }
        impl core::ops::Div for $name {
            type Output = Self;
            #[inline(always)]
            fn div(self, o: Self) -> Self {
                Self::round_f32(self.to_f32() / o.to_f32())
            }
        }
        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                self.with_sign_bit(!self.0 & 0x8000)
            }
        }

        impl PartialEq for $name {
            #[inline(always)]
            fn eq(&self, o: &Self) -> bool {
                self.to_f32() == o.to_f32()
            }
        }
        impl PartialOrd for $name {
            #[inline(always)]
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                self.to_f32().partial_cmp(&o.to_f32())
            }
        }

        impl Real for $name {
            real_storage_core!(
                $name,
                u16,
                $fmtname,
                16,
                $spec.max_finite_bits(),
                $spec.min_positive_bits()
            );

            #[inline(always)]
            fn to_f64(self) -> f64 {
                self.to_f32() as f64
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.with_sign_bit(0)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                Self::round_f32(self.to_f32().sqrt())
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                self.to_f32().is_nan()
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                self.to_f32().is_finite()
            }
            #[inline(always)]
            fn is_zero(self) -> bool {
                self.to_f32() == 0.0
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

macro_rules! f32_carrier_format {
    (
        $(#[$meta:meta])*
        $name:ident, $fmtname:expr, $spec:expr, $widen:ident, $narrow:ident
    ) => {
        format_shell!($(#[$meta])* $name, u16, $fmtname, ieee, $spec);
        f32_carrier_backend!($name, $fmtname, $spec, $widen, $narrow);
    };
}

f32_carrier_format!(
    /// IEEE 754 binary16 (`float16`).
    F16, "float16", ieee::BINARY16, f16_to_f32, f32_to_f16
);
f32_carrier_format!(
    /// Google Brain `bfloat16` (8 exponent bits, 7 fraction bits).
    Bf16, "bfloat16", ieee::BFLOAT16, bf16_to_f32, f32_to_bf16
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
    fn binary32_carrier_conversions_match_the_codec() {
        // Widening is exact for every 16-bit pattern.
        for h in 0..=u16::MAX {
            for (spec, wide) in
                [(&ieee::BINARY16, f16_to_f32(h)), (&ieee::BFLOAT16, bf16_to_f32(h))]
            {
                let exact = f32::from_bits(ieee::encode(
                    &ieee::decode(h as u64, spec),
                    &ieee::BINARY32,
                ) as u32);
                assert!(
                    (wide.is_nan() && exact.is_nan()) || wide.to_bits() == exact.to_bits(),
                    "widen {h:#06x} from {}",
                    spec.name
                );
            }
        }
        // Narrowing is the codec's rounding of the binary32 value, on a
        // stride through all binary32 patterns plus the neighbourhoods of
        // the branch thresholds (65520, 2^-14, 2^-25, ±∞, NaN).
        let mut patterns: Vec<u32> = (0..=u32::MAX).step_by(4093).collect();
        for edge in
            [0x477f_f000u32, 0x3880_0000, 0x3300_0000, 0x7f80_0000, 0x7f7f_8000, 0x0000_8000]
        {
            for b in edge - 3..=edge + 3 {
                patterns.extend([b, b | 0x8000_0000]);
            }
        }
        for b in patterns {
            let u = ieee::decode(b as u64, &ieee::BINARY32);
            let x = f32::from_bits(b);
            assert_eq!(f32_to_f16(x), ieee::encode(&u, &ieee::BINARY16) as u16, "{b:#010x}");
            assert_eq!(f32_to_bf16(x), ieee::encode(&u, &ieee::BFLOAT16) as u16, "{b:#010x}");
        }
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
