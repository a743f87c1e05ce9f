//! Differential guard for SpMV at [`lpa_arith::Decoded`]: the generic
//! [`lpa_sparse::CsrMatrix::spmv`] on a `CsrMatrix<Decoded<T>>` must be
//! bit-identical to the same SpMV on the `CsrMatrix<T>` it was decoded
//! from, for every format the experiment pipeline solves decoded,
//! including on boundary-magnitude values (saturation neighbourhoods, tiny
//! magnitudes) and repeated applications (the Arnoldi expansion pattern).

use lpa_arith::{Decoded, Real, UnpackedReal};
use lpa_sparse::CsrMatrix;

/// Deterministic pseudo-random CSR triplets with entries spanning many
/// magnitudes (including values near the 16-bit formats' range edges).
fn test_triplets<T: Real>(n: usize, seed: u64, spread: f64) -> Vec<(usize, usize, T)> {
    let mut s = seed | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut triplets = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if next() < 0.25 || i == j {
                let mag = 10f64.powf((next() * 2.0 - 1.0) * spread);
                let v = T::from_f64(mag * if next() < 0.5 { -1.0 } else { 1.0 });
                if !v.is_zero() {
                    triplets.push((i, j, v));
                }
            }
        }
    }
    triplets
}

fn differential<T: UnpackedReal>(spread: f64) {
    for seed in [3u64, 17, 91] {
        let triplets = test_triplets::<T>(17, seed, spread);
        // Decode entry by entry: a round trip through f64 would not be
        // exact for the 64-bit tapered formats.
        let decoded: Vec<_> = triplets
            .iter()
            .map(|&(i, j, v)| (i, j, Decoded::decode(v)))
            .collect();
        let a = CsrMatrix::from_triplets(17, 17, &triplets);
        let d = CsrMatrix::from_triplets(17, 17, &decoded);
        let mut x: Vec<T> = (0..17)
            .map(|i| T::from_f64(0.13 * i as f64 - 1.1))
            .collect();
        let mut xd: Vec<Decoded<T>> = x.iter().map(|&v| Decoded::decode(v)).collect();
        let mut y = vec![T::zero(); 17];
        let mut yd = vec![Decoded::<T>::zero(); 17];
        // Repeated application (x <- damped A x) like an Arnoldi
        // expansion; each side feeds back its own result, so divergence
        // anywhere compounds and is caught.
        let (damp, damp_d) = (T::from_f64(0.25), Decoded::<T>::from_f64(0.25));
        for step in 0..4 {
            a.spmv(&x, &mut y);
            d.spmv(&xd, &mut yd);
            for (s, b) in y.iter().zip(&yd) {
                assert_eq!(
                    s.decode(),
                    b.into_dec(),
                    "{}: spmv diverged at step {step} (seed {seed}): {} vs {}",
                    T::NAME,
                    s.to_f64(),
                    b.to_f64()
                );
            }
            // Feed back a damped copy to keep magnitudes in range.
            for (xi, yi) in x.iter_mut().zip(&y) {
                *xi = *yi * damp;
            }
            for (xi, yi) in xd.iter_mut().zip(&yd) {
                *xi = *yi * damp_d;
            }
        }
    }
}

#[test]
fn decoded_spmv_matches_scalar_all_formats() {
    use lpa_arith::types::*;
    differential::<F16>(1.5);
    differential::<Bf16>(3.0);
    differential::<Posit16>(3.0);
    differential::<Posit16Es1>(3.0);
    differential::<Takum16>(3.0);
    differential::<Posit32>(6.0);
    differential::<Takum32>(6.0);
    differential::<Posit64>(8.0);
    differential::<Takum64>(8.0);
}

#[test]
fn decoded_spmv_matches_scalar_on_saturating_magnitudes() {
    use lpa_arith::types::{Posit16, Takum16};
    // Entries pushed to the formats' saturation regions: the rounder's
    // boundary paths (maxpos/minpos clamps) must still match the encoded
    // product exactly.
    differential::<Posit16>(18.0);
    differential::<Takum16>(25.0);
}
