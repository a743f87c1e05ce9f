//! Exhaustive unary conformance of the unpack-once 16-bit backend.
//!
//! Every unary operation the 16-bit formats serve from the [`Lut16`]
//! result tables — `neg`, `abs`, `sqrt`, `recip` — plus the table-served
//! `to_f64` must be **bit-identical** to the decode → soft-float kernel →
//! round reference path for all 65 536 bit patterns of every 16-bit
//! format.  Together with the differential binary suites in
//! `tests/proptests.rs`, this is what lets the table path ship without a
//! numerics bump: the computed numerics provably do not change.
//!
//! Table-driven, so the whole file stays under a few seconds in release —
//! CI runs it under `--release` explicitly.

use lpa_arith::types::{Bf16, F16, Posit16, Posit16Es1, Takum16};
use lpa_arith::Real;

fn same_f64(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (a == b && a.is_sign_positive() == b.is_sign_positive())
}

macro_rules! exhaustive_dec16_unary {
    ($test:ident, $t:ty) => {
        #[test]
        fn $test() {
            for bits in 0..=u16::MAX {
                let x = <$t>::from_bits(bits);
                assert_eq!(
                    (-x).to_bits(),
                    x.softfloat_neg().to_bits(),
                    "neg {bits:#06x} in {}",
                    <$t>::NAME
                );
                assert_eq!(
                    x.abs().to_bits(),
                    x.softfloat_abs().to_bits(),
                    "abs {bits:#06x} in {}",
                    <$t>::NAME
                );
                assert_eq!(
                    x.sqrt().to_bits(),
                    x.softfloat_sqrt().to_bits(),
                    "sqrt {bits:#06x} in {}",
                    <$t>::NAME
                );
                assert_eq!(
                    x.recip().to_bits(),
                    <$t>::one().softfloat_div(x).to_bits(),
                    "recip {bits:#06x} in {}",
                    <$t>::NAME
                );
                assert!(
                    same_f64(x.to_f64(), x.softfloat_to_f64()),
                    "decode {bits:#06x} in {}: {} vs {}",
                    <$t>::NAME,
                    x.to_f64(),
                    x.softfloat_to_f64()
                );
            }
        }
    };
}

exhaustive_dec16_unary!(f16_unary_tables_match_softfloat, F16);
exhaustive_dec16_unary!(bf16_unary_tables_match_softfloat, Bf16);
exhaustive_dec16_unary!(posit16_unary_tables_match_softfloat, Posit16);
exhaustive_dec16_unary!(posit16_es1_unary_tables_match_softfloat, Posit16Es1);
exhaustive_dec16_unary!(takum16_unary_tables_match_softfloat, Takum16);

/// The unpack table must hold exactly what the codec's `decode` returns:
/// re-encoding the table entry must reproduce the canonical bit pattern of
/// every value (spot-checked here through the operator path: `x + 0` and
/// `x * 1` route both operands through the unpack table and must be
/// bit-identical to the reference for every pattern).
macro_rules! exhaustive_dec16_identity_ops {
    ($test:ident, $t:ty) => {
        #[test]
        fn $test() {
            let zero = <$t>::zero();
            let one = <$t>::one();
            for bits in 0..=u16::MAX {
                let x = <$t>::from_bits(bits);
                assert_eq!(
                    (x + zero).to_bits(),
                    x.softfloat_add(zero).to_bits(),
                    "{bits:#06x} + 0 in {}",
                    <$t>::NAME
                );
                assert_eq!(
                    (x * one).to_bits(),
                    x.softfloat_mul(one).to_bits(),
                    "{bits:#06x} * 1 in {}",
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
