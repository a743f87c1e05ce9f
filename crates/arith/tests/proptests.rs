//! Property-based tests for the number-format substrate.
//!
//! The key correctness arguments:
//!
//! * every finite bit pattern of every format must survive a
//!   decode → encode round trip (codec consistency),
//! * for formats with at most 14 significand bits, an operation carried out
//!   in `f64` and then rounded to the format is the correctly rounded result,
//!   so `f64` serves as an oracle for the soft-float kernel,
//! * tapered formats are monotone in their (two's complement) bit patterns
//!   and never round a finite non-zero value to zero or NaR,
//! * the double-double reference type has (much) smaller rounding error than
//!   `f64`.

use lpa_arith::{types::*, Dd, Real};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn same(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

/// f64 is an exact oracle for narrow formats (2p + 2 <= 53).
fn oracle_ops<T: Real>(a: f64, b: f64) {
    let ta = T::from_f64(a);
    let tb = T::from_f64(b);
    let (fa, fb) = (ta.to_f64(), tb.to_f64());
    if !fa.is_finite() || !fb.is_finite() {
        return;
    }
    assert!(same((ta + tb).to_f64(), T::from_f64(fa + fb).to_f64()), "{}: {fa}+{fb}", T::NAME);
    assert!(same((ta - tb).to_f64(), T::from_f64(fa - fb).to_f64()), "{}: {fa}-{fb}", T::NAME);
    assert!(same((ta * tb).to_f64(), T::from_f64(fa * fb).to_f64()), "{}: {fa}*{fb}", T::NAME);
    if fb != 0.0 {
        assert!(same((ta / tb).to_f64(), T::from_f64(fa / fb).to_f64()), "{}: {fa}/{fb}", T::NAME);
    }
    let abs = ta.abs();
    assert!(same(abs.sqrt().to_f64(), T::from_f64(abs.to_f64().sqrt()).to_f64()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn narrow_formats_agree_with_f64_oracle(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        oracle_ops::<F16>(a, b);
        oracle_ops::<Bf16>(a, b);
        oracle_ops::<E4M3>(a, b);
        oracle_ops::<E5M2>(a, b);
        oracle_ops::<Posit8>(a, b);
        oracle_ops::<Posit16>(a, b);
        oracle_ops::<Takum8>(a, b);
        oracle_ops::<Takum16>(a, b);
    }

    #[test]
    fn narrow_formats_agree_with_f64_oracle_wide_range(
        a in prop::num::f64::NORMAL | prop::num::f64::ZERO,
        b in prop::num::f64::NORMAL | prop::num::f64::ZERO,
    ) {
        oracle_ops::<F16>(a, b);
        oracle_ops::<Bf16>(a, b);
        oracle_ops::<E4M3>(a, b);
        oracle_ops::<E5M2>(a, b);
        oracle_ops::<Posit8>(a, b);
        oracle_ops::<Posit16>(a, b);
        oracle_ops::<Takum8>(a, b);
        oracle_ops::<Takum16>(a, b);
    }

    #[test]
    fn posit32_roundtrips(bits in any::<u32>()) {
        let x = Posit32::from_bits(bits);
        if !x.is_nan() {
            let back = Posit32::from_bits(x.to_bits());
            prop_assert!(back == x || (back.is_zero() && x.is_zero()));
            // decode -> f64 -> re-encode is the identity whenever the value
            // fits f64 exactly (posit32 values always do: <= 28 sig bits).
            let y = Posit32::from_f64(x.to_f64());
            prop_assert_eq!(y.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn takum32_roundtrip_through_f64_when_exact(bits in any::<u32>()) {
        let x = Takum32::from_bits(bits);
        if !x.is_nan() {
            // takum32 has at most 27 fraction bits and |c| <= 255, so every
            // value is exactly representable in f64.
            let y = Takum32::from_f64(x.to_f64());
            prop_assert_eq!(y.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn conversion_is_value_preserving_for_wide_tapered(x in -1e8f64..1e8) {
        // from_f64 followed by to_f64 must be the identity when the format
        // has at least 53 significand bits at the magnitude of x
        // (posit64/takum64 near the centre of their range).
        if x.abs() > 1e-8 {
            prop_assert_eq!(Posit64::from_f64(x).to_f64(), x);
            prop_assert_eq!(Takum64::from_f64(x).to_f64(), x);
        }
    }

    #[test]
    fn commutativity_and_identities(a in -1e8f64..1e8, b in -1e8f64..1e8) {
        fn check<T: Real>(a: f64, b: f64) -> Result<(), TestCaseError> {
            let ta = T::from_f64(a);
            let tb = T::from_f64(b);
            prop_assert!(same((ta + tb).to_f64(), (tb + ta).to_f64()));
            prop_assert!(same((ta * tb).to_f64(), (tb * ta).to_f64()));
            prop_assert!(same((ta + T::zero()).to_f64(), ta.to_f64()));
            prop_assert!(same((ta * T::one()).to_f64(), ta.to_f64()));
            if ta.is_finite() {
                prop_assert!(same((ta - ta).to_f64(), 0.0));
            }
            prop_assert!(same((-(-ta)).to_f64(), ta.to_f64()));
            Ok(())
        }
        check::<Posit32>(a, b)?;
        check::<Posit64>(a, b)?;
        check::<Takum32>(a, b)?;
        check::<Takum64>(a, b)?;
        check::<Bf16>(a, b)?;
        check::<E5M2>(a, b)?;
    }

    #[test]
    fn tapered_formats_never_round_to_zero_or_nar(a in -1e30f64..1e30, b in -1e30f64..1e30) {
        fn check<T: Real>(a: f64, b: f64) -> Result<(), TestCaseError> {
            let (ta, tb) = (T::from_f64(a), T::from_f64(b));
            if a != 0.0 {
                prop_assert!(!ta.is_zero());
                prop_assert!(!ta.is_nan());
            }
            if !ta.is_zero() && !tb.is_zero() {
                let p = ta * tb;
                prop_assert!(!p.is_zero(), "{} * {} rounded to zero in {}", a, b, T::NAME);
                prop_assert!(!p.is_nan(), "{} * {} rounded to NaR in {}", a, b, T::NAME);
                let q = ta / tb;
                prop_assert!(!q.is_zero());
                prop_assert!(!q.is_nan());
            }
            Ok(())
        }
        check::<Posit8>(a, b)?;
        check::<Posit16>(a, b)?;
        check::<Posit32>(a, b)?;
        check::<Takum8>(a, b)?;
        check::<Takum16>(a, b)?;
        check::<Takum32>(a, b)?;
    }

    #[test]
    fn posit16_monotone_in_signed_pattern(a in any::<u16>(), b in any::<u16>()) {
        let xa = Posit16::from_bits(a);
        let xb = Posit16::from_bits(b);
        if !xa.is_nan() && !xb.is_nan() {
            let ord_pattern = (a as i16).cmp(&(b as i16));
            let ord_value = xa.partial_cmp(&xb).unwrap();
            prop_assert_eq!(ord_pattern, ord_value);
        }
    }

    #[test]
    fn takum16_monotone_in_signed_pattern(a in any::<u16>(), b in any::<u16>()) {
        let xa = Takum16::from_bits(a);
        let xb = Takum16::from_bits(b);
        if !xa.is_nan() && !xb.is_nan() {
            let ord_pattern = (a as i16).cmp(&(b as i16));
            let ord_value = xa.partial_cmp(&xb).unwrap();
            prop_assert_eq!(ord_pattern, ord_value);
        }
    }

    #[test]
    fn double_double_is_much_more_accurate_than_f64(a in -1e10f64..1e10, b in 0.1f64..1e10) {
        // (a / b) * b recovered in double-double should be accurate to far
        // below f64 epsilon.
        let da = Dd::from_f64(a);
        let db = Dd::from_f64(b);
        let r = (da / db) * db - da;
        prop_assert!(r.abs().to_f64() <= a.abs() * 1e-30 + 1e-300);
        // Add/subtract chains stay far below f64 round-off.
        let s = da + db - db - da;
        prop_assert!(s.abs().to_f64() <= (a.abs() + b.abs()) * 1e-30);
    }

    #[test]
    fn dd_sqrt_squares_back(a in 1e-10f64..1e10) {
        let da = Dd::from_f64(a);
        let r = da.sqrt();
        let err = (r * r - da).abs();
        prop_assert!(err.to_f64() <= a * 1e-30);
    }
}
