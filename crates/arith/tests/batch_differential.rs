//! Conformance suite for the value-level rounders (`lpa_arith::round`,
//! the `batch_round` numerics feature).
//!
//! `Decoded<T>`'s correctness rests on one contract: the rounder
//! `round::{posit, takum, ieee}` must equal `decode(encode(u))` for *every*
//! unrounded kernel output, because then a chain of decoded ops (kernel +
//! round, no bit-pattern round trip) is inductively bit-identical to the
//! scalar operator chain.  This suite attacks the contract two ways:
//!
//! 1. **Direct rounder sweeps** — exhaustive over the exponent range
//!    (saturation margins included) × significand corpus × sticky × sign
//!    for every posit/takum width, comparing the rounder against the
//!    literal reference composition.
//! 2. **Kernel-output sweeps** — the soft-float kernel's add/mul/neg
//!    results on the boundary corpora (16-bit and a 32-bit analog),
//!    random operands and random mul-add chains, rounded by
//!    `UnpackedReal::round_value` (the path `Decoded`'s div, sqrt, the
//!    IEEE formats and NaN operands take), against the scalar operators.
//!
//! `tests/decoded_conformance.rs` checks `Decoded<T>`'s own ops, the fused
//! add/sub/mul included, against `T`.

mod common;

use common::{boundary_corpus_16, boundary_corpus_32, same_unpacked};
use lpa_arith::unpacked::{Class, Unpacked};
use lpa_arith::{posit, round, softfloat, takum, types::*, UnpackedReal};
use proptest::prelude::*;

/// Significand corpus: normalized patterns exercising exact values, every
/// rounding position (round bit set / clear, sticky-below set / clear) and
/// tie patterns at a spread of fraction lengths.
fn sig_corpus() -> Vec<u64> {
    let mut sigs = vec![
        1 << 63,
        u64::MAX,
        (1 << 63) | 1,
        (1 << 63) | (1 << 62),
        (1 << 63) | (1 << 62) | 1,
        0xAAAA_AAAA_AAAA_AAAA,
        0xD555_5555_5555_5555,
        0xFFFF_FFFF_0000_0000,
        0x8000_0001_0000_0000,
    ];
    for k in 0..63u32 {
        // A tie exactly at position k, the same tie plus a sticky ulp
        // below, and an all-ones run ending at k (carry propagation).
        sigs.push((1 << 63) | (1 << k));
        if k > 0 {
            sigs.push((1 << 63) | (1 << k) | (1 << (k - 1)));
            sigs.push((1 << 63) | ((1 << k) - 1));
            sigs.push(u64::MAX << k);
        }
    }
    // A deterministic LCG sprinkle with the top bit forced.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        sigs.push(x | (1 << 63));
    }
    sigs.sort_unstable();
    sigs.dedup();
    sigs
}

/// Sweep a posit rounder against the reference composition.
fn sweep_posit(spec: &posit::PositSpec) {
    let emax = spec.max_exp();
    let sigs = sig_corpus();
    for exp in (-emax - 6)..=(emax + 6) {
        for &sig in &sigs {
            for sticky in [false, true] {
                for sign in [false, true] {
                    let u = Unpacked { class: Class::Finite, sign, exp, sig, sticky };
                    let fast = round::posit(&u, spec);
                    let reference = posit::decode(posit::encode(&u, spec), spec);
                    assert!(
                        same_unpacked(&fast, &reference),
                        "{}: round({u:?}) = {fast:?}, reference {reference:?}",
                        spec.name
                    );
                }
            }
        }
    }
    // Specials.
    for u in [Unpacked::nan(), Unpacked::inf(false), Unpacked::inf(true), Unpacked::zero(false), Unpacked::zero(true)] {
        let fast = round::posit(&u, spec);
        let reference = posit::decode(posit::encode(&u, spec), spec);
        assert!(same_unpacked(&fast, &reference), "{}: special {u:?}", spec.name);
    }
}

/// Sweep a takum rounder against the reference composition.
fn sweep_takum(spec: &takum::TakumSpec) {
    let sigs = sig_corpus();
    for exp in -262..=262 {
        for &sig in &sigs {
            for sticky in [false, true] {
                for sign in [false, true] {
                    let u = Unpacked { class: Class::Finite, sign, exp, sig, sticky };
                    let fast = round::takum(&u, spec);
                    let reference = takum::decode(takum::encode(&u, spec), spec);
                    assert!(
                        same_unpacked(&fast, &reference),
                        "{}: round({u:?}) = {fast:?}, reference {reference:?}",
                        spec.name
                    );
                }
            }
        }
    }
    for u in [Unpacked::nan(), Unpacked::inf(false), Unpacked::inf(true), Unpacked::zero(false), Unpacked::zero(true)] {
        let fast = round::takum(&u, spec);
        let reference = takum::decode(takum::encode(&u, spec), spec);
        assert!(same_unpacked(&fast, &reference), "{}: special {u:?}", spec.name);
    }
}

#[test]
fn posit_rounder_matches_reference_composition() {
    sweep_posit(&posit::POSIT16);
    sweep_posit(&posit::POSIT32);
    sweep_posit(&posit::POSIT16_ES1);
}

#[test]
fn posit64_rounder_matches_reference_composition() {
    sweep_posit(&posit::POSIT64);
}

#[test]
fn takum_rounder_matches_reference_composition() {
    sweep_takum(&takum::TAKUM16);
    sweep_takum(&takum::TAKUM32);
    sweep_takum(&takum::TAKUM64);
}

/// Kernel + `round_value` on the decoded operands of `x` and `y`.
fn kernel_round<T: UnpackedReal>(
    kernel: fn(&Unpacked, &Unpacked) -> Unpacked,
    x: T,
    y: T,
) -> T {
    T::encode(T::round_value(&kernel(&x.decode(), &y.decode())))
}

/// Per-format kernel-output differential: the kernel results rounded at
/// value level, encoded back, must reproduce the scalar operators bit for
/// bit.
fn op_differential<T: UnpackedReal>(x: T, y: T) {
    let same = |a: T, b: T| (a.is_nan() && b.is_nan()) || a.decode() == b.decode();
    assert!(same(kernel_round(softfloat::add, x, y), x + y), "{x:?} + {y:?} in {}", T::NAME);
    assert!(same(kernel_round(softfloat::mul, x, y), x * y), "{x:?} * {y:?} in {}", T::NAME);
    let mut n = x.decode();
    if !n.is_nan() {
        n.sign = !n.sign;
    }
    assert!(same(T::encode(T::round_value(&n)), -x), "-{x:?} in {}", T::NAME);
    // Round-trip of the canonical decoded forms.
    if !x.is_nan() {
        assert!(same(T::encode(x.decode()), x), "{x:?} in {}", T::NAME);
    }
}

fn diff_posit32(a: u32, b: u32) {
    op_differential(Posit32::from_bits(a), Posit32::from_bits(b));
}

fn diff_takum32(a: u32, b: u32) {
    op_differential(Takum32::from_bits(a), Takum32::from_bits(b));
}

fn diff_all16(a: u16, b: u16) {
    op_differential(F16::from_bits(a), F16::from_bits(b));
    op_differential(Bf16::from_bits(a), Bf16::from_bits(b));
    op_differential(Posit16::from_bits(a), Posit16::from_bits(b));
    op_differential(Posit16Es1::from_bits(a), Posit16Es1::from_bits(b));
    op_differential(Takum16::from_bits(a), Takum16::from_bits(b));
}

#[test]
fn decoded_ops_match_scalar_on_boundary_corpus_16() {
    let pats = boundary_corpus_16();
    assert!(pats.len() >= 100);
    for &a in &pats {
        for &b in &pats {
            diff_all16(a, b);
        }
    }
}

#[test]
fn decoded_ops_match_scalar_on_boundary_corpus_32() {
    let pats = boundary_corpus_32();
    assert!(pats.len() >= 100);
    for &a in &pats {
        for &b in &pats {
            diff_posit32(a, b);
            diff_takum32(a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoded_ops_match_scalar_on_random_16(a in any::<u16>(), b in any::<u16>()) {
        diff_all16(a, b);
    }

    #[test]
    fn decoded_ops_match_scalar_on_random_32(a in any::<u32>(), b in any::<u32>()) {
        diff_posit32(a, b);
        diff_takum32(a, b);
    }

    #[test]
    fn posit32_rounder_matches_on_random_unpacked(
        exp in -140.0f64..140.0,
        sig in any::<u64>(),
        sticky in any::<bool>(),
        sign in any::<bool>(),
    ) {
        let u = Unpacked { class: Class::Finite, sign, exp: exp as i32, sig: sig | (1 << 63), sticky };
        let fast = round::posit(&u, &posit::POSIT32);
        let reference = posit::decode(posit::encode(&u, &posit::POSIT32), &posit::POSIT32);
        prop_assert!(same_unpacked(&fast, &reference), "{u:?}: {fast:?} vs {reference:?}");
    }

    #[test]
    fn takum32_rounder_matches_on_random_unpacked(
        exp in -262.0f64..262.0,
        sig in any::<u64>(),
        sticky in any::<bool>(),
        sign in any::<bool>(),
    ) {
        let u = Unpacked { class: Class::Finite, sign, exp: exp as i32, sig: sig | (1 << 63), sticky };
        let fast = round::takum(&u, &takum::TAKUM32);
        let reference = takum::decode(takum::encode(&u, &takum::TAKUM32), &takum::TAKUM32);
        prop_assert!(same_unpacked(&fast, &reference), "{u:?}: {fast:?} vs {reference:?}");
    }

    #[test]
    fn random_mul_add_chains_match(seed in any::<u64>()) {
        // A short random chain of kernel + `round_value` steps kept
        // decoded vs the scalar operators, encoded once at the end.
        fn chain<T: UnpackedReal>(seed: u64) {
            let mut s = seed | 1;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            };
            let mut acc_scalar = T::from_f64(next());
            let mut acc_dec = acc_scalar.decode();
            for _ in 0..24 {
                let x = T::from_f64(next());
                let y = T::from_f64(next());
                acc_scalar = acc_scalar * x + y;
                let prod = T::round_value(&softfloat::mul(&acc_dec, &x.decode()));
                acc_dec = T::round_value(&softfloat::add(&prod, &y.decode()));
            }
            let acc = T::encode(acc_dec);
            assert!(
                (acc_scalar.is_nan() && acc.is_nan()) || acc_scalar.to_f64() == acc.to_f64(),
                "chain diverged in {}",
                T::NAME
            );
        }
        chain::<Posit16>(seed);
        chain::<Takum16>(seed);
        chain::<Posit32>(seed);
        chain::<Takum32>(seed);
        chain::<F16>(seed);
        chain::<Bf16>(seed);
    }
}
