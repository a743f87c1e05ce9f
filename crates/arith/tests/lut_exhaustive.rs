//! Exhaustive LUT-vs-softfloat equivalence tests.
//!
//! The 8-bit lookup-table backend must be **bit-identical** to the
//! decode → soft-float kernel → round reference path for every operand
//! pattern: all 65 536 (a, b) pairs per binary operation and all 256
//! patterns per unary operation, for every 8-bit format, and the
//! table-served comparison operators must agree with the unpack-based
//! semantics.  The 16-bit formats have no tables; their decode must be
//! exact on all 65 536 patterns and their unpack-based comparisons, plain
//! and at `Decoded<T>`, must agree with the order of the decoded values.

use lpa_arith::types::{
    Bf16, E4M3, E5M2, F16, Posit16, Posit16Es1, Posit8, Posit8Es0, Takum16, Takum8,
};
use lpa_arith::{Decoded, Real};

fn same_f64(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (a == b && a.is_sign_positive() == b.is_sign_positive())
}

macro_rules! exhaustive_8bit {
    ($test:ident, $t:ty) => {
        #[test]
        fn $test() {
            for a in 0..=255u8 {
                let x = <$t>::from_bits(a);
                // Unary tables.
                assert_eq!((-x).to_bits(), x.softfloat_neg().to_bits(), "neg {a:#04x}");
                assert_eq!(x.abs().to_bits(), x.softfloat_abs().to_bits(), "abs {a:#04x}");
                assert_eq!(x.sqrt().to_bits(), x.softfloat_sqrt().to_bits(), "sqrt {a:#04x}");
                assert_eq!(
                    x.recip().to_bits(),
                    (<$t>::one().softfloat_div(x)).to_bits(),
                    "recip {a:#04x}"
                );
                assert!(
                    same_f64(x.to_f64(), x.softfloat_to_f64()),
                    "decode {a:#04x}: {} vs {}",
                    x.to_f64(),
                    x.softfloat_to_f64()
                );
                // Classification through the decode table.
                let u = x.softfloat_to_f64();
                assert_eq!(x.is_nan(), u.is_nan(), "is_nan {a:#04x}");
                assert_eq!(x.is_finite(), u.is_finite(), "is_finite {a:#04x}");
                assert_eq!(x.is_zero(), u == 0.0, "is_zero {a:#04x}");
                // Binary tables: all 256 partners for this a.
                for b in 0..=255u8 {
                    let y = <$t>::from_bits(b);
                    assert_eq!(
                        (x + y).to_bits(),
                        x.softfloat_add(y).to_bits(),
                        "{:#04x} + {:#04x} in {}",
                        a,
                        b,
                        <$t>::NAME
                    );
                    assert_eq!(
                        (x - y).to_bits(),
                        x.softfloat_sub(y).to_bits(),
                        "{:#04x} - {:#04x} in {}",
                        a,
                        b,
                        <$t>::NAME
                    );
                    assert_eq!(
                        (x * y).to_bits(),
                        x.softfloat_mul(y).to_bits(),
                        "{:#04x} * {:#04x} in {}",
                        a,
                        b,
                        <$t>::NAME
                    );
                    assert_eq!(
                        (x / y).to_bits(),
                        x.softfloat_div(y).to_bits(),
                        "{:#04x} / {:#04x} in {}",
                        a,
                        b,
                        <$t>::NAME
                    );
                }
            }
        }
    };
}

exhaustive_8bit!(e4m3_lut_matches_softfloat, E4M3);
exhaustive_8bit!(e5m2_lut_matches_softfloat, E5M2);
exhaustive_8bit!(posit8_lut_matches_softfloat, Posit8);
exhaustive_8bit!(posit8_es0_lut_matches_softfloat, Posit8Es0);
exhaustive_8bit!(takum8_lut_matches_softfloat, Takum8);

/// The 16-bit decode (the codec's, at `T` and at `Decoded<T>`) must be
/// exact for every pattern: `from_f64` of the decoded value gives the
/// pattern back (NaN/NaR excepted, which must decode to NaN), and the
/// classification agrees with the decoded value.  The tests keep the names
/// they had when the decode was served from per-format tables.
macro_rules! exhaustive_decode16 {
    ($test:ident, $t:ty) => {
        #[test]
        fn $test() {
            for bits in 0..=u16::MAX {
                let x = <$t>::from_bits(bits);
                let d = Decoded::decode(x);
                let reference = x.softfloat_to_f64();
                assert!(
                    same_f64(x.to_f64(), reference) && same_f64(d.to_f64(), reference),
                    "decode {bits:#06x} in {}: {} / {} vs {}",
                    <$t>::NAME,
                    x.to_f64(),
                    d.to_f64(),
                    reference
                );
                if !reference.is_nan() {
                    assert_eq!(
                        <$t>::from_f64(reference).to_bits(),
                        bits,
                        "decode {bits:#06x} in {} is inexact: {reference}",
                        <$t>::NAME
                    );
                }
                for (is_nan, is_finite, is_zero) in [
                    (x.is_nan(), x.is_finite(), x.is_zero()),
                    (d.is_nan(), d.is_finite(), d.is_zero()),
                ] {
                    assert_eq!(is_nan, reference.is_nan(), "is_nan {bits:#06x}");
                    assert_eq!(is_finite, reference.is_finite(), "is_finite {bits:#06x}");
                    assert_eq!(is_zero, reference == 0.0, "is_zero {bits:#06x}");
                }
            }
        }
    };
}

exhaustive_decode16!(f16_decode_table_matches_softfloat, F16);
exhaustive_decode16!(bf16_decode_table_matches_softfloat, Bf16);
exhaustive_decode16!(posit16_decode_table_matches_softfloat, Posit16);
exhaustive_decode16!(posit16_es1_decode_table_matches_softfloat, Posit16Es1);
exhaustive_decode16!(takum16_decode_table_matches_softfloat, Takum16);

/// Table-served comparisons (`lut8_backend!`) must agree with the
/// **unpack-based** reference semantics (`Unpacked::partial_cmp_value`, the
/// path the 16/32/64-bit soft backend uses) for every 8-bit format,
/// exhaustively over all 65 536 pairs.
macro_rules! cmp_agrees_8bit {
    ($test:ident, $t:ty) => {
        #[test]
        fn $test() {
            for a in 0..=255u8 {
                for b in 0..=255u8 {
                    let (x, y) = (<$t>::from_bits(a), <$t>::from_bits(b));
                    let reference = x.softfloat_partial_cmp(y);
                    assert_eq!(
                        x.partial_cmp(&y),
                        reference,
                        "{} cmp {a:#04x} vs {b:#04x}",
                        <$t>::NAME
                    );
                    assert_eq!(
                        x == y,
                        reference == Some(std::cmp::Ordering::Equal),
                        "{} eq {a:#04x} vs {b:#04x}",
                        <$t>::NAME
                    );
                }
            }
        }
    };
}

cmp_agrees_8bit!(e4m3_cmp_agrees, E4M3);
cmp_agrees_8bit!(e5m2_cmp_agrees, E5M2);
cmp_agrees_8bit!(posit8_cmp_agrees, Posit8);
cmp_agrees_8bit!(posit8_es0_cmp_agrees, Posit8Es0);
cmp_agrees_8bit!(takum8_cmp_agrees, Takum8);

/// The 16-bit comparisons (`Unpacked::partial_cmp_value`, at `T` and at
/// `Decoded<T>`) must agree with `f64` comparison of the exactly decoded
/// values — NaN/NaR unordered, zeros equal regardless of sign — over a
/// deterministic 200 000-pair sample (the full cross product is 4 G pairs)
/// whose pattern stream covers specials, both signs and all regimes.
macro_rules! cmp_agrees_16bit {
    ($test:ident, $t:ty) => {
        #[test]
        fn $test() {
            let mut state = 0x9E3779B97F4A7C15u64;
            for _ in 0..200_000 {
                state =
                    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = (state >> 16) as u16;
                let b = (state >> 40) as u16;
                let (x, y) = (<$t>::from_bits(a), <$t>::from_bits(b));
                let (dx, dy) = (Decoded::decode(x), Decoded::decode(y));
                let reference = x.to_f64().partial_cmp(&y.to_f64());
                assert_eq!(
                    x.partial_cmp(&y),
                    reference,
                    "{} cmp {a:#06x} vs {b:#06x}",
                    <$t>::NAME
                );
                assert_eq!(
                    dx.partial_cmp(&dy),
                    reference,
                    "{} decoded cmp {a:#06x} vs {b:#06x}",
                    <$t>::NAME
                );
                assert_eq!(
                    x == y,
                    reference == Some(std::cmp::Ordering::Equal),
                    "{} eq {a:#06x} vs {b:#06x}",
                    <$t>::NAME
                );
            }
        }
    };
}

cmp_agrees_16bit!(f16_cmp_agrees, F16);
cmp_agrees_16bit!(bf16_cmp_agrees, Bf16);
cmp_agrees_16bit!(posit16_cmp_agrees, Posit16);
cmp_agrees_16bit!(posit16_es1_cmp_agrees, Posit16Es1);
cmp_agrees_16bit!(takum16_cmp_agrees, Takum16);
