//! Dense differential suite: `hessenberg`, `schur` and `reorder_schur` run
//! at [`lpa_arith::Decoded<T>`] must reproduce the run at `T` bit for bit —
//! every entry of every factor, and the same error when one is returned.
//!
//! This is the dense half of the contract that lets the experiment
//! pipeline solve every emulated format at `Decoded<T>` without changing a
//! single result (`lpa_arnoldi`'s `tests/decoded_solve.rs` checks the
//! whole solve).  The
//! inputs cover the shapes that phase meets (dense nonsymmetric with
//! complex pairs, a Krylov–Schur restart matrix) and the edges: zero-heavy
//! matrices with deflated subdiagonals, and entries spanning many decades
//! so the narrow formats saturate or overflow mid-sweep.

use lpa_arith::{types::*, Decoded, UnpackedReal};
use lpa_dense::hessenberg::hessenberg;
use lpa_dense::ordschur::reorder_schur;
use lpa_dense::schur::{block_structure, schur};
use lpa_dense::DMatrix;

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

fn random(n: usize, seed: u64) -> DMatrix<f64> {
    let mut r = lcg(seed);
    DMatrix::from_fn(n, n, |_, _| r())
}

/// Upper triangle plus a spike row, like the projected matrix after a
/// restart.
fn restart_like(n: usize, seed: u64) -> DMatrix<f64> {
    let mut r = lcg(seed);
    let spike = n / 2;
    DMatrix::from_fn(n, n, |i, j| {
        let v = r();
        if i == spike && j < spike {
            0.05 * v
        } else if i <= j || i > spike {
            if i == j {
                3.0 - 0.2 * i as f64 + 0.1 * v
            } else {
                v
            }
        } else {
            0.0
        }
    })
}

fn zero_heavy(n: usize, seed: u64) -> DMatrix<f64> {
    let mut r = lcg(seed);
    DMatrix::from_fn(n, n, |i, j| {
        let v = r();
        if (i == j + 1 && i % 3 == 0) || v.abs() < 0.6 {
            0.0
        } else {
            v
        }
    })
}

fn saturating(n: usize, seed: u64, decades: i32) -> DMatrix<f64> {
    let mut r = lcg(seed);
    DMatrix::from_fn(n, n, |i, j| {
        r() * 10f64.powi(((i * 5 + j * 3) as i32 % (2 * decades + 1)) - decades)
    })
}

/// A block-diagonal matrix of rotations (exact complex pairs) with a dense
/// upper coupling.
fn rotations(n: usize, seed: u64) -> DMatrix<f64> {
    let mut r = lcg(seed);
    DMatrix::from_fn(n, n, |i, j| {
        let v = r();
        if i / 2 == j / 2 && n - i > 1 && n - j > 1 {
            let (c, s) = ((i as f64 * 0.7).cos(), (i as f64 * 0.7).sin());
            match (i % 2, j % 2) {
                (0, 0) | (1, 1) => c,
                (0, 1) => -s,
                _ => s,
            }
        } else if j > i {
            0.3 * v
        } else {
            0.0
        }
    })
}

fn inputs() -> Vec<(String, DMatrix<f64>)> {
    let mut out = Vec::new();
    for (k, n) in [5usize, 12, 21, 25].into_iter().enumerate() {
        let seed = 101 + k as u64;
        out.push((format!("random{n}"), random(n, seed)));
        out.push((format!("restart{n}"), restart_like(n, seed)));
        out.push((format!("zeroheavy{n}"), zero_heavy(n, seed)));
        out.push((format!("saturating{n}"), saturating(n, seed, 6)));
        out.push((format!("rotations{n}"), rotations(n, seed)));
    }
    out.push(("huge-range".into(), saturating(10, 7, 30)));
    out.push(("overflow16".into(), random(10, 9).map(|x| 300.0 * x)));
    out
}

/// Entry by entry, the decoded matrix is the decode of the format's.
#[track_caller]
fn assert_same<T: UnpackedReal>(d: &DMatrix<Decoded<T>>, x: &DMatrix<T>, what: &str) {
    assert_eq!(
        (d.nrows(), d.ncols()),
        (x.nrows(), x.ncols()),
        "{what}: shape"
    );
    for (k, (a, b)) in d.as_slice().iter().zip(x.as_slice()).enumerate() {
        assert_eq!(
            a.into_dec(),
            b.decode(),
            "{what} in {}: entry ({}, {}) diverged",
            T::NAME,
            k % x.nrows(),
            k / x.nrows()
        );
    }
}

fn differential<T: UnpackedReal>() {
    for (name, a64) in inputs() {
        let a: DMatrix<T> = a64.convert();
        let ad: DMatrix<Decoded<T>> = a.map(Decoded::decode);

        let (h, q) = hessenberg(&a);
        let (hd, qd) = hessenberg(&ad);
        assert_same(&hd, &h, &format!("{name}: hessenberg H"));
        assert_same(&qd, &q, &format!("{name}: hessenberg Q"));

        let (s, sd) = match (schur(&a), schur(&ad)) {
            (Ok(s), Ok(sd)) => (s, sd),
            (Err(e), Err(ed)) => {
                assert_eq!(e, ed, "{name}: schur error in {}", T::NAME);
                continue;
            }
            (s, sd) => panic!(
                "{name}: schur outcome diverged in {}: {:?} vs {:?}",
                T::NAME,
                s.err(),
                sd.err()
            ),
        };
        assert_same(&sd.t, &s.t, &format!("{name}: schur T"));
        assert_same(&sd.z, &s.z, &format!("{name}: schur Z"));

        // Reorder twice with different selections, as a restart does.
        let (mut t, mut z) = (s.t, s.z);
        let (mut td, mut zd) = (sd.t, sd.z);
        for pick in [2usize, 3] {
            let blocks = block_structure(&t);
            assert_eq!(blocks, block_structure(&td), "{name}: block structure");
            let select: Vec<bool> = (0..blocks.len()).map(|i| i % pick == pick - 1).collect();
            let r = reorder_schur(&mut t, &mut z, &select);
            let rd = reorder_schur(&mut td, &mut zd, &select);
            assert_eq!(r, rd, "{name}: reorder result in {}", T::NAME);
            if r.is_err() {
                break;
            }
            assert_same(&td, &t, &format!("{name}: reordered T (pick {pick})"));
            assert_same(&zd, &z, &format!("{name}: reordered Z (pick {pick})"));
        }
    }
}

#[test]
fn dense_phase_bit_identical_posit() {
    differential::<Posit16>();
    differential::<Posit16Es1>();
    differential::<Posit32>();
    differential::<Posit64>();
}

#[test]
fn dense_phase_bit_identical_takum() {
    differential::<Takum16>();
    differential::<Takum32>();
    differential::<Takum64>();
}

#[test]
fn dense_phase_bit_identical_ieee16() {
    differential::<F16>();
    differential::<Bf16>();
}
