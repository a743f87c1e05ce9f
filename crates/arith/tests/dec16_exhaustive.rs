//! Exhaustive conformance of the 16-bit formats' solve path.
//!
//! The pipeline solves float16, bfloat16, posit16 (es 2 and 1) and takum16
//! at [`Decoded<T>`].  Every unary operation it runs there — `neg`, `abs`,
//! `sqrt`, `recip` — plus `to_f64`, the classification and the operator
//! path of `x + 0` and `x * 1` (both operands through the decode, the
//! result through the format's value-level rounder) must agree with the
//! decode → soft-float kernel → round reference path for all 65 536 bit
//! patterns of every 16-bit format.  "Agree" means the decoded result is
//! field for field the decode of the reference result, so the next op in a
//! chain sees identical input.  The binary ops on the boundary corpus and
//! on random pairs are checked in `tests/decoded_conformance.rs`.
//!
//! The tests keep the names they had when these ops were served from
//! per-format result tables; the tables are gone, the sweep is the same.

use lpa_arith::types::{Bf16, F16, Posit16, Posit16Es1, Takum16};
use lpa_arith::{Decoded, Real, UnpackedReal};

fn same_f64(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (a == b && a.is_sign_positive() == b.is_sign_positive())
}

macro_rules! exhaustive_dec16_unary {
    ($test:ident, $t:ty) => {
        #[test]
        fn $test() {
            for bits in 0..=u16::MAX {
                let x = <$t>::from_bits(bits);
                let d = Decoded::decode(x);
                assert_eq!(
                    (-d).into_dec(),
                    x.softfloat_neg().decode(),
                    "neg {bits:#06x} in {}",
                    <$t>::NAME
                );
                assert_eq!(
                    d.abs().into_dec(),
                    x.softfloat_abs().decode(),
                    "abs {bits:#06x} in {}",
                    <$t>::NAME
                );
                assert_eq!(
                    d.sqrt().into_dec(),
                    x.softfloat_sqrt().decode(),
                    "sqrt {bits:#06x} in {}",
                    <$t>::NAME
                );
                assert_eq!(
                    d.recip().into_dec(),
                    <$t>::one().softfloat_div(x).decode(),
                    "recip {bits:#06x} in {}",
                    <$t>::NAME
                );
                let reference = x.softfloat_to_f64();
                assert!(
                    same_f64(d.to_f64(), reference),
                    "decode {bits:#06x} in {}: {} vs {}",
                    <$t>::NAME,
                    d.to_f64(),
                    reference
                );
                assert_eq!(d.is_nan(), reference.is_nan(), "is_nan {bits:#06x}");
                assert_eq!(d.is_finite(), reference.is_finite(), "is_finite {bits:#06x}");
                assert_eq!(d.is_zero(), reference == 0.0, "is_zero {bits:#06x}");
            }
        }
    };
}

exhaustive_dec16_unary!(f16_unary_tables_match_softfloat, F16);
exhaustive_dec16_unary!(bf16_unary_tables_match_softfloat, Bf16);
exhaustive_dec16_unary!(posit16_unary_tables_match_softfloat, Posit16);
exhaustive_dec16_unary!(posit16_es1_unary_tables_match_softfloat, Posit16Es1);
exhaustive_dec16_unary!(takum16_unary_tables_match_softfloat, Takum16);

/// `x + 0` and `x * 1` at `Decoded<T>` must reproduce the reference for
/// every pattern, and encoding the decoded operand must give its canonical
/// form back: together these pin the decode, the fused add/mul's handling
/// of an exact operand and the rounder on the whole 16-bit grid.
macro_rules! exhaustive_dec16_identity_ops {
    ($test:ident, $t:ty) => {
        #[test]
        fn $test() {
            let (zero, one) = (<$t>::zero(), <$t>::one());
            let (dzero, done) = (Decoded::decode(zero), Decoded::decode(one));
            for bits in 0..=u16::MAX {
                let x = <$t>::from_bits(bits);
                let d = Decoded::decode(x);
                assert_eq!(
                    (d + dzero).into_dec(),
                    x.softfloat_add(zero).decode(),
                    "{bits:#06x} + 0 in {}",
                    <$t>::NAME
                );
                assert_eq!(
                    (d * done).into_dec(),
                    x.softfloat_mul(one).decode(),
                    "{bits:#06x} * 1 in {}",
                    <$t>::NAME
                );
                assert_eq!(
                    d.encode().decode(),
                    x.decode(),
                    "encode round trip {bits:#06x} in {}",
                    <$t>::NAME
                );
            }
        }
    };
}

exhaustive_dec16_identity_ops!(f16_identity_ops_match_softfloat, F16);
exhaustive_dec16_identity_ops!(bf16_identity_ops_match_softfloat, Bf16);
exhaustive_dec16_identity_ops!(posit16_identity_ops_match_softfloat, Posit16);
exhaustive_dec16_identity_ops!(posit16_es1_identity_ops_match_softfloat, Posit16Es1);
exhaustive_dec16_identity_ops!(takum16_identity_ops_match_softfloat, Takum16);
