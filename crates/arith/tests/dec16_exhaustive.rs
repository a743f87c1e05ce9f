//! Exhaustive conformance of the 16-bit formats' solve path.
//!
//! The pipeline solves posit16 (es 2 and 1) and takum16 at [`Decoded<T>`]
//! and float16 and bfloat16 at their own type, whose ops run on the host's
//! binary32 unit.  Every unary operation a solve runs — `neg`, `abs`,
//! `sqrt`, `recip` — plus `to_f64`, the classification and the operator
//! path of `x + 0` and `x * 1` (both operands through the decode, the
//! result through the format's value-level rounder) must agree with the
//! decode → soft-float kernel → round reference path for all 65 536 bit
//! patterns of every 16-bit format, at `Decoded<T>` and, for float16 and
//! bfloat16, at the plain type too.  "Agree" means the decoded result is
//! field for field the decode of the reference result (bit for bit at the
//! plain type), so the next op in a chain sees identical input.
//!
//! The binary32 carrier's binary ops are checked against the reference on
//! every pattern `b` paired with a boundary set of `a`; two `#[ignore]`d
//! sweeps widen that to every 61st `a` and to all 2³² pairs.  The other
//! formats' binary ops on the boundary corpus and on random pairs are
//! checked in `tests/decoded_conformance.rs`.
//!
//! The tests keep the names they had when these ops were served from
//! per-format result tables; the tables are gone, the sweep is the same.

mod common;

use lpa_arith::ieee::{IeeeSpec, BFLOAT16, BINARY16};
use lpa_arith::types::{Bf16, F16, Posit16, Posit16Es1, Takum16};
use lpa_arith::{Decoded, Real, UnpackedReal};

fn same_f64(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (a == b && a.is_sign_positive() == b.is_sign_positive())
}

/// The plain binary32-carrier type's own unary ops, bit for bit against
/// the soft-float reference.
macro_rules! check_carrier_unary {
    ($t:ty, $x:expr, $bits:expr) => {{
        let (x, bits): ($t, u16) = ($x, $bits);
        let n = <$t>::NAME;
        assert_eq!((-x).to_bits(), x.softfloat_neg().to_bits(), "neg {bits:#06x} in {n}");
        assert_eq!(x.abs().to_bits(), x.softfloat_abs().to_bits(), "abs {bits:#06x} in {n}");
        assert_eq!(x.sqrt().to_bits(), x.softfloat_sqrt().to_bits(), "sqrt {bits:#06x} in {n}");
        assert_eq!(
            x.recip().to_bits(),
            <$t>::one().softfloat_div(x).to_bits(),
            "recip {bits:#06x} in {n}"
        );
        let reference = x.softfloat_to_f64();
        assert!(same_f64(x.to_f64(), reference), "to_f64 {bits:#06x} in {n}");
        assert_eq!(x.is_nan(), reference.is_nan(), "is_nan {bits:#06x} in {n}");
        assert_eq!(x.is_finite(), reference.is_finite(), "is_finite {bits:#06x} in {n}");
        assert_eq!(x.is_zero(), reference == 0.0, "is_zero {bits:#06x} in {n}");
    }};
}

macro_rules! exhaustive_dec16_unary {
    ($test:ident, $t:ty $(, $carrier:ident)?) => {
        #[test]
        fn $test() {
            for bits in 0..=u16::MAX {
                let x = <$t>::from_bits(bits);
                $( $carrier!($t, x, bits); )?
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

exhaustive_dec16_unary!(f16_unary_tables_match_softfloat, F16, check_carrier_unary);
exhaustive_dec16_unary!(bf16_unary_tables_match_softfloat, Bf16, check_carrier_unary);
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

/// The binary32 carrier's binary ops and comparisons, bit for bit against
/// the soft-float reference: every `a` of `aa` with every pattern `b`.
macro_rules! carrier_binary_sweep {
    ($sweep:ident, $t:ty) => {
        fn $sweep(aa: impl IntoIterator<Item = u16>) {
            let n = <$t>::NAME;
            for a in aa {
                let x = <$t>::from_bits(a);
                for b in 0..=u16::MAX {
                    let y = <$t>::from_bits(b);
                    let pair = || format!("{a:#06x}, {b:#06x} in {n}");
                    assert_eq!((x + y).to_bits(), x.softfloat_add(y).to_bits(), "add {}", pair());
                    assert_eq!((x - y).to_bits(), x.softfloat_sub(y).to_bits(), "sub {}", pair());
                    assert_eq!((x * y).to_bits(), x.softfloat_mul(y).to_bits(), "mul {}", pair());
                    assert_eq!((x / y).to_bits(), x.softfloat_div(y).to_bits(), "div {}", pair());
                    let order = x.softfloat_partial_cmp(y);
                    assert_eq!(x.partial_cmp(&y), order, "cmp {}", pair());
                    assert_eq!(x == y, order == Some(core::cmp::Ordering::Equal), "eq {}", pair());
                }
            }
        }
    };
}

carrier_binary_sweep!(f16_pairs_match_softfloat, F16);
carrier_binary_sweep!(bf16_pairs_match_softfloat, Bf16);

/// The boundary operands of an IEEE 16-bit format: ±0, the smallest and
/// largest subnormal, the smallest normal, 1 and its neighbours, max
/// finite, ±∞ and the canonical NaN, plus the shared 16-bit corpus.
fn carrier_boundary(spec: &IeeeSpec, one: u16) -> Vec<u16> {
    let min_normal = 1u16 << spec.frac_bits;
    let inf = spec.inf_bits() as u16;
    let mut aa = vec![
        0x0000,
        0x8000,
        spec.min_positive_bits() as u16,
        min_normal - 1,
        min_normal,
        one - 1,
        one,
        one + 1,
        spec.max_finite_bits() as u16,
        inf,
        inf | 0x8000,
        spec.nan_bits() as u16,
    ];
    aa.extend(common::boundary_corpus_16());
    aa.sort_unstable();
    aa.dedup();
    aa
}

#[test]
fn f16_binary_ops_match_softfloat() {
    f16_pairs_match_softfloat(carrier_boundary(&BINARY16, F16::one().to_bits()));
}

#[test]
fn bf16_binary_ops_match_softfloat() {
    bf16_pairs_match_softfloat(carrier_boundary(&BFLOAT16, Bf16::one().to_bits()));
}

/// Every 61st `a` against every `b`: 70 M pairs per format (a few seconds
/// in a release build).
#[test]
#[ignore = "release-build sweep; CI runs it"]
fn f16_binary_ops_match_softfloat_strided() {
    f16_pairs_match_softfloat((0..=u16::MAX).step_by(61));
}

/// See [`f16_binary_ops_match_softfloat_strided`].
#[test]
#[ignore = "release-build sweep; CI runs it"]
fn bf16_binary_ops_match_softfloat_strided() {
    bf16_pairs_match_softfloat((0..=u16::MAX).step_by(61));
}

/// All 2³² pairs: several minutes per format in a release build, run by
/// hand.
#[test]
#[ignore = "all 2^32 pairs; minutes in a release build"]
fn f16_binary_ops_match_softfloat_all_pairs() {
    f16_pairs_match_softfloat(0..=u16::MAX);
}

/// See [`f16_binary_ops_match_softfloat_all_pairs`].
#[test]
#[ignore = "all 2^32 pairs; minutes in a release build"]
fn bf16_binary_ops_match_softfloat_all_pairs() {
    bf16_pairs_match_softfloat(0..=u16::MAX);
}
