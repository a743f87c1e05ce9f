//! Differential conformance suite for the batch kernel engine
//! (`lpa_arith::batch`).
//!
//! The engine's correctness rests on one contract: the value-level rounder
//! `batch::round::{posit, takum, ieee}` must equal `decode(encode(u))` for
//! *every* unrounded kernel output, because then a chain of decoded ops
//! (kernel + round, no bit-pattern round trip) is inductively bit-identical
//! to the scalar operator chain.  This suite attacks the contract three
//! ways:
//!
//! 1. **Direct rounder sweeps** — exhaustive over the exponent range
//!    (saturation margins included) × significand corpus × sticky × sign
//!    for every posit/takum width, comparing the rounder against the
//!    literal reference composition.
//! 2. **Operator differentials** — `dec_add`/`dec_mul`/`dec_neg` against
//!    the scalar operators over the PR-3 style boundary corpora (16-bit
//!    and a 32-bit analog) and proptest-random operands, for all 16- and
//!    32-bit formats.
//! 3. **Bulk-kernel differentials** — `dot_decoded`/`axpy_decoded`/
//!    `scale_decoded` and the slice-dispatch entry points against the
//!    plain scalar loops.

mod common;

use common::{boundary_corpus_16, boundary_corpus_32, same_unpacked};
use lpa_arith::batch::{self, round, BatchReal, DecodedPlanes, DecodedSlice, KernelLanes};
use lpa_arith::unpacked::{Class, Unpacked};
use lpa_arith::{posit, takum, types::*, PlaneStore, Real};
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

/// Per-format operator differential: the decoded-domain ops, encoded back,
/// must reproduce the scalar operators bit for bit.
macro_rules! op_differential {
    ($check:ident, $t:ty, $bits:ty) => {
        fn $check(a: $bits, b: $bits) {
            let x = <$t>::from_bits(a);
            let y = <$t>::from_bits(b);
            let (dx, dy) = (x.dec(), y.dec());
            assert_eq!(
                <$t>::undec(<$t>::dec_add(dx, dy)).to_bits(),
                (x + y).to_bits(),
                "{a:#x} + {b:#x} in {}",
                <$t>::NAME
            );
            assert_eq!(
                <$t>::undec(<$t>::dec_mul(dx, dy)).to_bits(),
                (x * y).to_bits(),
                "{a:#x} * {b:#x} in {}",
                <$t>::NAME
            );
            assert_eq!(
                <$t>::undec(<$t>::dec_neg(dx)).to_bits(),
                (-x).to_bits(),
                "-{a:#x} in {}",
                <$t>::NAME
            );
            // Round-trip of the canonical decoded forms.
            if !x.is_nan() {
                assert_eq!(<$t>::undec(dx).to_bits(), x.to_bits(), "{}", <$t>::NAME);
            }
            assert_eq!(<$t>::dec_is_zero(dx), x.is_zero(), "{}", <$t>::NAME);
        }
    };
}

op_differential!(diff_f16, F16, u16);
op_differential!(diff_bf16, Bf16, u16);
op_differential!(diff_posit16, Posit16, u16);
op_differential!(diff_posit16_es1, Posit16Es1, u16);
op_differential!(diff_takum16, Takum16, u16);
op_differential!(diff_posit32, Posit32, u32);
op_differential!(diff_takum32, Takum32, u32);

fn diff_all16(a: u16, b: u16) {
    diff_f16(a, b);
    diff_bf16(a, b);
    diff_posit16(a, b);
    diff_posit16_es1(a, b);
    diff_takum16(a, b);
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

/// Bulk kernels against the scalar reference loops, for one format over a
/// mixed magnitude/sign value set.
fn bulk_differential<T: BatchReal>(values: &[f64]) {
    let x: Vec<T> = values.iter().map(|&v| T::from_f64(v)).collect();
    let y: Vec<T> = values.iter().rev().map(|&v| T::from_f64(v * 0.7 + 0.1)).collect();
    let xd = batch::decode_slice(&x);
    let yd = batch::decode_slice(&y);

    // dot
    let mut scalar = T::zero();
    for (a, b) in x.iter().zip(&y) {
        scalar += *a * *b;
    }
    let batch_dot = T::undec(batch::dot_decoded::<T>(&xd, &yd));
    assert!(
        same_bits(batch_dot, scalar),
        "dot diverged in {}: {batch_dot} vs {scalar}",
        T::NAME
    );

    // axpy (including the alpha == 0 early-out)
    for alpha in [T::from_f64(-0.875), T::zero()] {
        let mut yd2 = yd.clone();
        batch::axpy_decoded::<T>(alpha.dec(), &xd, &mut yd2);
        let mut y2 = y.clone();
        for (yi, xi) in y2.iter_mut().zip(&x) {
            if !alpha.is_zero() {
                *yi += alpha * *xi;
            }
        }
        for (d, s) in yd2.iter().zip(&y2) {
            assert!(same_bits(T::undec(*d), *s), "axpy diverged in {}", T::NAME);
        }
    }

    // scale
    let alpha = T::from_f64(0.3125);
    let mut xd2 = xd.clone();
    batch::scale_decoded::<T>(alpha.dec(), &mut xd2);
    let mut x2 = x.clone();
    for xi in x2.iter_mut() {
        *xi *= alpha;
    }
    for (d, s) in xd2.iter().zip(&x2) {
        assert!(same_bits(T::undec(*d), *s), "scale diverged in {}", T::NAME);
    }
}

fn same_bits<T: Real>(a: T, b: T) -> bool {
    (a.is_nan() && b.is_nan()) || (a.to_f64() == b.to_f64())
}

#[test]
fn bulk_kernels_match_scalar_loops() {
    let values: Vec<f64> = (0..97)
        .map(|i| (0.35 + (i % 17) as f64 * 0.21) * if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    bulk_differential::<F16>(&values);
    bulk_differential::<Bf16>(&values);
    bulk_differential::<Posit16>(&values);
    bulk_differential::<Takum16>(&values);
    bulk_differential::<Posit32>(&values);
    bulk_differential::<Takum32>(&values);
    bulk_differential::<Posit64>(&values);
    bulk_differential::<Takum64>(&values);
    bulk_differential::<E4M3>(&values);
    bulk_differential::<f32>(&values);
    bulk_differential::<f64>(&values);
}

/// Every encoded result of the full planes-kernel surface (dot, axpy,
/// scale, SpMV over a ragged CSR with empty rows, gemm with zero
/// coefficients), flattened to `f64` bit patterns for comparison across
/// lane widths.
fn planes_kernel_bits<T: BatchReal>(values: &[f64]) -> Vec<u64> {
    let n = values.len();
    let x: Vec<T> = values.iter().map(|&v| T::from_f64(v)).collect();
    let y: Vec<T> = values.iter().rev().map(|&v| T::from_f64(v * 0.7 + 0.1)).collect();
    let xp = T::Planes::decode(&x);
    let yp = T::Planes::decode(&y);
    let mut bits: Vec<u64> = Vec::new();

    bits.push(T::undec(batch::dot_planes::<T>(&xp, &yp)).to_f64().to_bits());

    let mut out = vec![T::zero(); n];
    let mut yp2 = yp.clone();
    batch::axpy_planes::<T>(T::from_f64(-0.875).dec(), &xp, &mut yp2);
    yp2.encode_into(&mut out);
    bits.extend(out.iter().map(|v| v.to_f64().to_bits()));

    let mut xp2 = xp.clone();
    batch::scale_planes::<T>(T::from_f64(0.3125).dec(), &mut xp2);
    xp2.encode_into(&mut out);
    bits.extend(out.iter().map(|v| v.to_f64().to_bits()));

    // SpMV with ragged row lengths (empty rows included) so both the
    // lane-blocked phase and the scalar tail run.
    let nrows = 11;
    let mut row_ptr = vec![0usize];
    let mut col_idx: Vec<usize> = Vec::new();
    for r in 0..nrows {
        for k in 0..[0, 1, 2, 3, 5, 7][r % 6] {
            col_idx.push((r * 5 + k * 3) % n);
        }
        row_ptr.push(col_idx.len());
    }
    let vals: Vec<T> =
        (0..col_idx.len()).map(|i| T::from_f64(values[i % n] * 0.9 - 0.05)).collect();
    let vp = T::Planes::decode(&vals);
    let mut yv = T::Planes::with_len(nrows);
    T::Planes::spmv(&vp, &row_ptr, &col_idx, &xp, &mut yv);
    let mut yout = vec![T::zero(); nrows];
    yv.encode_into(&mut yout);
    bits.extend(yout.iter().map(|v| v.to_f64().to_bits()));

    // gemm over four plane columns with mixed (zero included) coefficients.
    let a: Vec<T::Planes> = (0..4)
        .map(|c| {
            let col: Vec<T> = (0..n).map(|i| T::from_f64(values[(i + c * 7) % n])).collect();
            T::Planes::decode(&col)
        })
        .collect();
    let b0: Vec<T> = [0.5, 0.0, -1.25, 0.75].iter().map(|&v| T::from_f64(v)).collect();
    let b1: Vec<T> = [0.0, -0.375, 0.0, 1.5].iter().map(|&v| T::from_f64(v)).collect();
    for col in batch::gemm_planes::<T>(n, &a, &[&b0, &b1]) {
        col.encode_into(&mut out);
        bits.extend(out.iter().map(|v| v.to_f64().to_bits()));
    }
    bits
}

fn check_lane_widths_identical<T: BatchReal>(values: &[f64]) {
    batch::force_kernel_lanes(KernelLanes::W1);
    let w1 = planes_kernel_bits::<T>(values);
    batch::force_kernel_lanes(KernelLanes::W4);
    let w4 = planes_kernel_bits::<T>(values);
    batch::force_kernel_lanes(KernelLanes::WIDEST);
    let widest = planes_kernel_bits::<T>(values);
    assert_eq!(w1, w4, "W1 vs W4 diverged in {}", T::NAME);
    assert_eq!(w1, widest, "W1 vs {:?} diverged in {}", KernelLanes::WIDEST, T::NAME);
}

/// Satellite contract of the lanes knob: every lane width computes the
/// same bytes over the whole kernel surface, for every format.  (Flipping
/// the process-global width mid-test is safe for the same reason the test
/// passes: widths are bit-identical.)
#[test]
fn lane_widths_are_byte_identical() {
    let mut values: Vec<f64> = (0..97)
        .map(|i| {
            (0.35 + (i % 17) as f64 * 0.21)
                * if i % 2 == 0 { 1.0 } else { -1.0 }
                * 2f64.powi((i % 23) - 11)
        })
        .collect();
    // Zeros, saturation magnitudes and tiny values so the specials fast
    // paths and the defer/saturate slow paths all run under every width.
    values[7] = 0.0;
    values[31] = 0.0;
    values[43] = 1e300;
    values[61] = -1e300;
    values[83] = 1e-300;
    check_lane_widths_identical::<E4M3>(&values);
    check_lane_widths_identical::<E5M2>(&values);
    check_lane_widths_identical::<Posit8>(&values);
    check_lane_widths_identical::<Posit8Es0>(&values);
    check_lane_widths_identical::<Takum8>(&values);
    check_lane_widths_identical::<F16>(&values);
    check_lane_widths_identical::<Bf16>(&values);
    check_lane_widths_identical::<Posit16>(&values);
    check_lane_widths_identical::<Posit16Es1>(&values);
    check_lane_widths_identical::<Takum16>(&values);
    check_lane_widths_identical::<f32>(&values);
    check_lane_widths_identical::<Posit32>(&values);
    check_lane_widths_identical::<Takum32>(&values);
    check_lane_widths_identical::<f64>(&values);
    check_lane_widths_identical::<Posit64>(&values);
    check_lane_widths_identical::<Takum64>(&values);
}

fn check_planes_roundtrip<T: BatchReal>(seed: u64) {
    let mut s = seed | 1;
    let mut next = || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0
    };
    let mut x: Vec<T> = (0..33).map(|_| T::from_f64(next())).collect();
    x[0] = T::zero();
    x[11] = T::max_finite();
    x[22] = T::min_positive();
    let ds = DecodedSlice::decode(&x);
    let dp = DecodedPlanes::from(&ds);
    let back = DecodedSlice::from(&dp);
    for (i, xi) in x.iter().enumerate() {
        assert_eq!(
            dp.bits()[i].to_f64().to_bits(),
            xi.to_f64().to_bits(),
            "planes bits [{i}] in {}",
            T::NAME
        );
        assert!(dp.planes().get(i) == ds.dec()[i], "planes dec [{i}] in {}", T::NAME);
        assert_eq!(
            back.bits()[i].to_f64().to_bits(),
            xi.to_f64().to_bits(),
            "round-trip bits [{i}] in {}",
            T::NAME
        );
        assert!(back.dec()[i] == ds.dec()[i], "round-trip dec [{i}] in {}", T::NAME);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Satellite contract of the struct-of-arrays stores: converting an
    /// array-of-structs cache to planes and back preserves every element,
    /// for every format the engine serves.
    #[test]
    fn decoded_slice_planes_roundtrip(seed in any::<u64>()) {
        check_planes_roundtrip::<E4M3>(seed);
        check_planes_roundtrip::<E5M2>(seed);
        check_planes_roundtrip::<Posit8>(seed);
        check_planes_roundtrip::<Posit8Es0>(seed);
        check_planes_roundtrip::<Takum8>(seed);
        check_planes_roundtrip::<F16>(seed);
        check_planes_roundtrip::<Bf16>(seed);
        check_planes_roundtrip::<Posit16>(seed);
        check_planes_roundtrip::<Posit16Es1>(seed);
        check_planes_roundtrip::<Takum16>(seed);
        check_planes_roundtrip::<f32>(seed);
        check_planes_roundtrip::<Posit32>(seed);
        check_planes_roundtrip::<Takum32>(seed);
        check_planes_roundtrip::<f64>(seed);
        check_planes_roundtrip::<Posit64>(seed);
        check_planes_roundtrip::<Takum64>(seed);
        check_planes_roundtrip::<lpa_arith::Dd>(seed);
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
        // A short random chain through the decoded domain vs the scalar
        // operators, encoded once at the end.
        fn chain<T: BatchReal>(seed: u64) {
            let mut s = seed | 1;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            };
            let mut acc_scalar = T::from_f64(next());
            let mut acc_dec = acc_scalar.dec();
            for _ in 0..24 {
                let x = T::from_f64(next());
                let y = T::from_f64(next());
                acc_scalar = acc_scalar * x + y;
                acc_dec = T::dec_add(T::dec_mul(acc_dec, x.dec()), y.dec());
            }
            assert!(
                (acc_scalar.is_nan() && T::undec(acc_dec).is_nan())
                    || acc_scalar.to_f64() == T::undec(acc_dec).to_f64(),
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
