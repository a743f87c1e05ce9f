//! Conformance suite for [`lpa_arith::Decoded`]: for every format whose
//! decoded form is `Unpacked` (float16, bfloat16, posit16, posit16(es=1),
//! takum16, posit32, takum32, posit64, takum64), every op, comparison and
//! classification of `Decoded<T>` must agree with `T`'s own scalar op.
//! The posit and takum add/sub/mul are the fused combine-and-round, so
//! their operand sets add the cases its branch-free operand swap and sign
//! mix must get right: random signs, exact cancellations, zero operands and
//! saturating magnitudes.
//!
//! "Agree" is checked at the strictest level that matters for chains: the
//! decoded result of each op must be *field for field* the decode of `T`'s
//! result (so the next op in a chain sees identical input), and encoding it
//! must give `T`'s result bits.  Operands come from the boundary corpora
//! (specials, saturation neighbourhoods, every regime / exponent window
//! edge, both sign halves) and from random bit patterns; every 16-bit
//! pattern goes through the unary ops, `x + 0` and `x * 1` in
//! `tests/dec16_exhaustive.rs`.

mod common;

use std::cmp::Ordering;
use std::fmt;

use common::{boundary_corpus_16, boundary_corpus_32, boundary_corpus_64};
use lpa_arith::{types::*, Decoded, Real, UnpackedReal};
use proptest::prelude::*;

/// `d` is exactly the canonical decode of `x`.  `what` is only rendered on
/// failure, so callers pass `format_args!` and pay no string formatting
/// per check.
#[track_caller]
fn assert_same<T: UnpackedReal>(d: Decoded<T>, x: T, what: impl fmt::Display) {
    assert_eq!(
        d.into_dec(),
        x.decode(),
        "{what} in {}: decoded form diverged",
        T::NAME
    );
}

#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn check_pair<T: UnpackedReal>(x: T, y: T) {
    let (dx, dy) = (Decoded::decode(x), Decoded::decode(y));
    assert_same(dx + dy, x + y, format_args!("{x:?} + {y:?}"));
    assert_same(dx - dy, x - y, format_args!("{x:?} - {y:?}"));
    assert_same(dx * dy, x * y, format_args!("{x:?} * {y:?}"));
    assert_same(dx / dy, x / y, format_args!("{x:?} / {y:?}"));
    let mut acc = dx;
    acc += dy;
    acc -= dx;
    acc *= dy;
    acc /= dx;
    assert_same(
        acc,
        (x + y - x) * y / x,
        format_args!("compound ops on {x:?}, {y:?}"),
    );
    assert_eq!(
        dx.partial_cmp(&dy),
        x.partial_cmp(&y),
        "{x:?} cmp {y:?} in {}",
        T::NAME
    );
    assert_eq!(dx == dy, x == y, "{x:?} == {y:?} in {}", T::NAME);
    assert_eq!(dx < dy, x < y, "{x:?} < {y:?} in {}", T::NAME);
    assert_eq!(!(dx >= dy), !(x >= y), "{x:?} >= {y:?} in {}", T::NAME);
    assert_same(dx.max(dy), x.max(y), format_args!("max({x:?}, {y:?})"));
    assert_same(dx.min(dy), x.min(y), format_args!("min({x:?}, {y:?})"));
    assert_same(
        dx.mul_add(dy, dx),
        x.mul_add(y, x),
        format_args!("mul_add({x:?}, {y:?})"),
    );
}

fn check_unary<T: UnpackedReal>(x: T) {
    let d = Decoded::decode(x);
    assert_same(-d, -x, format_args!("-{x:?}"));
    assert_same(d.abs(), x.abs(), format_args!("abs {x:?}"));
    assert_same(d.sqrt(), x.sqrt(), format_args!("sqrt {x:?}"));
    assert_same(d.recip(), x.recip(), format_args!("recip {x:?}"));
    assert_same(d.powi(3), x.powi(3), format_args!("powi {x:?}"));
    assert_eq!(d.is_nan(), x.is_nan(), "is_nan {x:?}");
    assert_eq!(d.is_finite(), x.is_finite(), "is_finite {x:?}");
    assert_eq!(d.is_zero(), x.is_zero(), "is_zero {x:?}");
    let (a, b) = (d.to_f64(), x.to_f64());
    assert!(
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
        "to_f64 {x:?}: {a} vs {b}"
    );
    // Encoding is exact.
    assert_eq!(d.encode().decode(), x.decode(), "encode round trip {x:?}");
}

fn check_constants<T: UnpackedReal>() {
    assert_same(Decoded::<T>::zero(), T::zero(), "zero");
    assert_same(Decoded::<T>::one(), T::one(), "one");
    assert_same(Decoded::<T>::two(), T::two(), "two");
    assert_same(Decoded::<T>::half(), T::half(), "half");
    assert_same(Decoded::<T>::epsilon(), T::epsilon(), "epsilon");
    assert_same(Decoded::<T>::max_finite(), T::max_finite(), "max_finite");
    assert_same(
        Decoded::<T>::min_positive(),
        T::min_positive(),
        "min_positive",
    );
    assert_same(
        Decoded::<T>::from_usize(37),
        T::from_usize(37),
        "from_usize",
    );
    for x in [
        0.0,
        -0.0,
        1.0,
        -1.5,
        0.1,
        1.0 / 3.0,
        65504.0,
        65520.0,
        1e-8,
        -3e38,
        1e300,
        -1e-300,
        f64::MIN_POSITIVE / 4.0,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ] {
        assert_same(
            Decoded::<T>::from_f64(x),
            T::from_f64(x),
            format_args!("from_f64({x})"),
        );
    }
    assert_eq!(<Decoded<T> as Real>::NAME, T::NAME);
    assert_eq!(<Decoded<T> as Real>::BITS, T::BITS);
}

/// Every pair and every single operand of a corpus, for one format.
fn check_corpus<T: UnpackedReal>(xs: &[T]) {
    for &x in xs {
        check_unary(x);
        for &y in xs {
            check_pair(x, y);
        }
    }
}

fn corpus16<T: UnpackedReal>(from_bits: fn(u16) -> T) -> Vec<T> {
    boundary_corpus_16().into_iter().map(from_bits).collect()
}

#[test]
fn constants_and_conversions_match_every_format() {
    check_constants::<F16>();
    check_constants::<Bf16>();
    check_constants::<Posit16>();
    check_constants::<Posit16Es1>();
    check_constants::<Takum16>();
    check_constants::<Posit32>();
    check_constants::<Takum32>();
    check_constants::<Posit64>();
    check_constants::<Takum64>();
}

#[test]
fn ops_match_on_boundary_corpus_16() {
    check_corpus(&corpus16(F16::from_bits));
    check_corpus(&corpus16(Bf16::from_bits));
    check_corpus(&corpus16(Posit16::from_bits));
    check_corpus(&corpus16(Posit16Es1::from_bits));
    check_corpus(&corpus16(Takum16::from_bits));
}

#[test]
fn ops_match_on_boundary_corpus_32() {
    let pats = boundary_corpus_32();
    check_corpus(
        &pats
            .iter()
            .map(|&b| Posit32::from_bits(b))
            .collect::<Vec<_>>(),
    );
    check_corpus(
        &pats
            .iter()
            .map(|&b| Takum32::from_bits(b))
            .collect::<Vec<_>>(),
    );
}

#[test]
fn ops_match_on_boundary_corpus_64() {
    let pats = boundary_corpus_64();
    check_corpus(
        &pats
            .iter()
            .map(|&b| Posit64::from_bits(b))
            .collect::<Vec<_>>(),
    );
    check_corpus(
        &pats
            .iter()
            .map(|&b| Takum64::from_bits(b))
            .collect::<Vec<_>>(),
    );
}

#[test]
fn zero_compares_equal_across_signs_and_nan_is_unordered() {
    fn check<T: UnpackedReal>() {
        let z = Decoded::<T>::zero();
        let nz = -z;
        assert_eq!(z.partial_cmp(&nz), Some(Ordering::Equal), "{}", T::NAME);
        let nan = Decoded::<T>::from_f64(f64::NAN);
        assert_eq!(nan.partial_cmp(&z), None, "{}", T::NAME);
        assert!(nan != nan, "{}", T::NAME);
    }
    check::<F16>();
    check::<Posit32>();
    check::<Takum64>();
}

/// The fused add/sub/mul on one pair, against `T`'s scalar operators.
fn check_fused<T: UnpackedReal>(x: T, y: T) {
    let (dx, dy) = (Decoded::decode(x), Decoded::decode(y));
    assert_same(dx + dy, x + y, format_args!("{x:?} + {y:?}"));
    assert_same(dx - dy, x - y, format_args!("{x:?} - {y:?}"));
    assert_same(dx * dy, x * y, format_args!("{x:?} * {y:?}"));
}

/// The pairs around `x` and `y` the fused ops' swap, sign-mix, zero and
/// saturation paths branch on: both sign combinations, `x ∓ x` (exact
/// cancellation, also through the sign-mixed add), a zero on either side,
/// a one-ulp neighbour (near-cancellation), and the extremes.
fn check_fused_family<T: UnpackedReal>(x: T, y: T, next_up: fn(T) -> T) {
    let (max, min, zero) = (T::max_finite(), T::min_positive(), T::zero());
    let near = next_up(x);
    for (a, b) in [
        (x, y),
        (x, -y),
        (-x, y),
        (-x, -y),
        (y, x),
        (x, x),
        (x, -x),
        (-x, x),
        (x, near),
        (x, -near),
        (x, zero),
        (zero, x),
        (zero, -x),
        (max, x),
        (x, -max),
        (max, max),
        (-max, -max),
        (min, x),
        (min, -min),
        (min, min),
        (max, min),
    ] {
        check_fused(a, b);
    }
}

/// [`check_fused_family`] on the patterns `a` and `b` of each format, with
/// the next pattern up as the one-ulp neighbour.
macro_rules! fused_families {
    ($a:expr, $b:expr; $($t:ty: $bits:ty),*) => {$(
        check_fused_family(<$t>::from_bits($a as $bits), <$t>::from_bits($b as $bits), |x| {
            <$t>::from_bits(x.to_bits().wrapping_add(1))
        });
    )*};
}

/// A random op chain kept decoded end to end, against `T`'s chain: the
/// Schur phase's usage pattern in miniature.
fn chain<T: UnpackedReal>(seed: u64) {
    let mut s = seed | 1;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
    };
    let mut x = T::from_f64(next());
    let mut d = Decoded::decode(x);
    for step in 0..32 {
        let c = T::from_f64(next());
        let dc = Decoded::decode(c);
        match step % 4 {
            0 => {
                x = x * c + T::one();
                d = d * dc + Decoded::one();
            }
            1 => {
                x = (x - c).abs().sqrt();
                d = (d - dc).abs().sqrt();
            }
            2 => {
                x = -(x / c);
                d = -(d / dc);
            }
            _ => {
                x = x.max(c) - x.min(c) * T::half();
                d = d.max(dc) - d.min(dc) * Decoded::half();
            }
        }
        assert_same(d, x, format_args!("chain step {step}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn ops_match_on_random_16(a in any::<u16>(), b in any::<u16>()) {
        check_pair(F16::from_bits(a), F16::from_bits(b));
        check_pair(Bf16::from_bits(a), Bf16::from_bits(b));
        check_pair(Posit16::from_bits(a), Posit16::from_bits(b));
        check_pair(Posit16Es1::from_bits(a), Posit16Es1::from_bits(b));
        check_pair(Takum16::from_bits(a), Takum16::from_bits(b));
        check_unary(Posit16::from_bits(a));
        check_unary(Takum16::from_bits(b));
    }

    #[test]
    fn ops_match_on_random_32(a in any::<u32>(), b in any::<u32>()) {
        check_pair(Posit32::from_bits(a), Posit32::from_bits(b));
        check_pair(Takum32::from_bits(a), Takum32::from_bits(b));
        check_unary(Posit32::from_bits(a));
        check_unary(Takum32::from_bits(b));
    }

    #[test]
    fn ops_match_on_random_64(a in any::<u64>(), b in any::<u64>()) {
        check_pair(Posit64::from_bits(a), Posit64::from_bits(b));
        check_pair(Takum64::from_bits(a), Takum64::from_bits(b));
        check_unary(Posit64::from_bits(a));
        check_unary(Takum64::from_bits(b));
    }

    #[test]
    fn fused_ops_match_on_signed_cancelling_zero_and_saturating_pairs(
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        fused_families!(a, b; Posit16: u16, Posit16Es1: u16, Takum16: u16, Posit32: u32,
            Takum32: u32, Posit64: u64, Takum64: u64, F16: u16, Bf16: u16);
    }

    #[test]
    fn decoded_chains_match(seed in any::<u64>()) {
        chain::<F16>(seed);
        chain::<Bf16>(seed);
        chain::<Posit16>(seed);
        chain::<Takum16>(seed);
        chain::<Posit32>(seed);
        chain::<Takum32>(seed);
        chain::<Posit64>(seed);
        chain::<Takum64>(seed);
    }
}
