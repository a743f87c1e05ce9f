//! Reordering of a real Schur decomposition.
//!
//! The Krylov–Schur restart needs the "wanted" Ritz values moved to the
//! leading diagonal blocks of `T` (with `Z` updated accordingly).  Adjacent
//! diagonal blocks are swapped with orthogonal transformations: 1×1/1×1 swaps
//! use a single Givens rotation; swaps involving 2×2 blocks use the direct
//! method (solve a small Sylvester equation, orthogonalize, apply), as in
//! LAPACK's `dlaexc`.

use lpa_arith::Real;

use crate::error::DenseError;
use crate::givens::Givens;
use crate::householder::qr;
use crate::matrix::DMatrix;
use crate::schur::block_structure;

/// Swap the adjacent diagonal blocks of sizes `p` and `q` starting at row
/// `j` of the quasi-triangular matrix `t`, updating `z` alongside.
fn swap_adjacent<T: Real>(
    t: &mut DMatrix<T>,
    z: &mut DMatrix<T>,
    j: usize,
    p: usize,
    q: usize,
) -> Result<(), DenseError> {
    if p == 1 && q == 1 {
        let t11 = t[(j, j)];
        let t12 = t[(j, j + 1)];
        let t22 = t[(j + 1, j + 1)];
        // Eigenvector of [[t11, t12], [0, t22]] for eigenvalue t22.
        let (g, _) = Givens::compute(t12, t22 - t11);
        g.apply_left(t, j, j + 1);
        g.apply_right(t, j, j + 1);
        g.apply_right(z, j, j + 1);
        t[(j + 1, j)] = T::zero();
        return Ok(());
    }

    // General case via the direct swap: T = [[A, B], [0, C]] with A p×p and
    // C q×q.  Solve A X - X C = s*B, then the columns of [[-X], [s*I]] span
    // the invariant subspace belonging to C; a QR factorization of that block
    // gives the orthogonal transformation performing the swap.
    let n = p + q;
    let a = t.submatrix(j, j, p, p);
    let b = t.submatrix(j, j + p, p, q);
    let c = t.submatrix(j + p, j + p, q, q);
    let x = solve_sylvester(&a, &c, &b)?;

    let mut m = DMatrix::<T>::zeros(n, q);
    for jj in 0..q {
        for ii in 0..p {
            m[(ii, jj)] = -x[(ii, jj)];
        }
        m[(p + jj, jj)] = T::one();
    }
    let (qfull, _r) = qr(&m);

    // Apply the orthogonal transform to rows/columns j..j+n of the full
    // matrices: T <- Q^T T Q (restricted), Z <- Z Q.
    apply_block_orthogonal(t, z, j, &qfull);

    // Clean the (now zero) lower-left block.
    for jj in 0..q {
        for ii in q..n {
            t[(j + ii, j + jj)] = T::zero();
        }
    }
    // Re-split any swapped 2x2 blocks that actually have real eigenvalues is
    // unnecessary for our use (selection treats blocks atomically).
    Ok(())
}

/// Solve the small Sylvester equation `A X - X C = B` (sizes at most 2×2) by
/// forming the Kronecker system and using Gaussian elimination with partial
/// pivoting.
fn solve_sylvester<T: Real>(
    a: &DMatrix<T>,
    c: &DMatrix<T>,
    b: &DMatrix<T>,
) -> Result<DMatrix<T>, DenseError> {
    let p = a.nrows();
    let q = c.nrows();
    let n = p * q;
    // Unknowns x_{ij} laid out column-major: k = j*p + i.
    let mut m = DMatrix::<T>::zeros(n, n);
    let mut rhs = vec![T::zero(); n];
    for j in 0..q {
        for i in 0..p {
            let row = j * p + i;
            rhs[row] = b[(i, j)];
            for k in 0..p {
                m[(row, j * p + k)] += a[(i, k)];
            }
            for k in 0..q {
                m[(row, k * p + i)] -= c[(k, j)];
            }
        }
    }
    let x = solve_linear(&mut m, &mut rhs)?;
    Ok(DMatrix::from_fn(p, q, |i, j| x[j * p + i]))
}

/// Gaussian elimination with partial pivoting for a small system (in place).
fn solve_linear<T: Real>(m: &mut DMatrix<T>, rhs: &mut [T]) -> Result<Vec<T>, DenseError> {
    let n = m.nrows();
    for k in 0..n {
        // Pivot.
        let mut piv = k;
        for i in k + 1..n {
            if m[(i, k)].abs() > m[(piv, k)].abs() {
                piv = i;
            }
        }
        if m[(piv, k)].is_zero() {
            return Err(DenseError::SwapRejected { position: k });
        }
        if piv != k {
            for j in 0..n {
                let tmp = m[(k, j)];
                m[(k, j)] = m[(piv, j)];
                m[(piv, j)] = tmp;
            }
            rhs.swap(k, piv);
        }
        for i in k + 1..n {
            let f = m[(i, k)] / m[(k, k)];
            if f.is_zero() {
                continue;
            }
            for j in k..n {
                m[(i, j)] = m[(i, j)] - f * m[(k, j)];
            }
            rhs[i] -= f * rhs[k];
        }
    }
    let mut x = vec![T::zero(); n];
    for k in (0..n).rev() {
        let mut s = rhs[k];
        for j in k + 1..n {
            s -= m[(k, j)] * x[j];
        }
        x[k] = s / m[(k, k)];
    }
    Ok(x)
}

/// Apply a small orthogonal matrix `q` (acting on rows/columns
/// `j..j+q.nrows()`) as a similarity transform of `t` and on the right of
/// `z`.
fn apply_block_orthogonal<T: Real>(
    t: &mut DMatrix<T>,
    z: &mut DMatrix<T>,
    j: usize,
    q: &DMatrix<T>,
) {
    let k = q.nrows();
    let nt = t.nrows();
    // Rows: T[j..j+k, :] <- Q^T * T[j..j+k, :]
    for col in 0..nt {
        let old: Vec<T> = (0..k).map(|i| t[(j + i, col)]).collect();
        for i in 0..k {
            let mut s = T::zero();
            for l in 0..k {
                s += q[(l, i)] * old[l];
            }
            t[(j + i, col)] = s;
        }
    }
    // Columns: T[:, j..j+k] <- T[:, j..j+k] * Q
    for row in 0..nt {
        let old: Vec<T> = (0..k).map(|i| t[(row, j + i)]).collect();
        for i in 0..k {
            let mut s = T::zero();
            for l in 0..k {
                s += old[l] * q[(l, i)];
            }
            t[(row, j + i)] = s;
        }
    }
    // Z[:, j..j+k] <- Z[:, j..j+k] * Q
    for row in 0..z.nrows() {
        let old: Vec<T> = (0..k).map(|i| z[(row, j + i)]).collect();
        for i in 0..k {
            let mut s = T::zero();
            for l in 0..k {
                s += old[l] * q[(l, i)];
            }
            z[(row, j + i)] = s;
        }
    }
}

/// Reorder the Schur form so that the diagonal blocks whose indices are
/// `selected` (by block position in the current block structure) appear
/// first, preserving the relative order of the selected blocks.  Returns the
/// number of leading rows/columns occupied by the selected blocks.
pub fn reorder_schur<T: Real>(
    t: &mut DMatrix<T>,
    z: &mut DMatrix<T>,
    selected: &[bool],
) -> Result<usize, DenseError> {
    let blocks = block_structure(t);
    assert_eq!(blocks.len(), selected.len(), "selection length must match block count");

    // Bubble the selected blocks upwards, preserving order.
    let mut order: Vec<(usize, bool)> = blocks.iter().map(|&(_, sz)| sz).zip(selected.iter().copied()).collect();
    let mut target = 0usize; // number of blocks already placed at the top
    let mut selected_rows = 0usize;

    for bi in 0..order.len() {
        if !order[bi].1 {
            continue;
        }
        selected_rows += order[bi].0;
        // Move block bi up to position `target` by adjacent swaps.
        let mut pos = bi;
        while pos > target {
            // Row index where the block above starts.
            let row_above: usize = order[..pos - 1].iter().map(|(sz, _)| sz).sum();
            let (psize, _) = order[pos - 1];
            let (qsize, _) = order[pos];
            swap_adjacent(t, z, row_above, psize, qsize)?;
            order.swap(pos - 1, pos);
            pos -= 1;
        }
        target += 1;
    }
    Ok(selected_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schur::{eigenvalues_of_quasi_triangular, schur};

    fn eig_residual(a: &DMatrix<f64>, t: &DMatrix<f64>, z: &DMatrix<f64>) -> f64 {
        let az = a.matmul(z);
        let zt = z.matmul(t);
        az.diff_norm(&zt)
    }

    #[test]
    fn swap_two_real_eigenvalues() {
        let a = DMatrix::<f64>::from_rows(&[&[1.0, 5.0], &[0.0, 3.0]]);
        let mut t = a.clone();
        let mut z = DMatrix::identity(2);
        swap_adjacent(&mut t, &mut z, 0, 1, 1).unwrap();
        assert!((t[(0, 0)] - 3.0).abs() < 1e-12);
        assert!((t[(1, 1)] - 1.0).abs() < 1e-12);
        assert!(t[(1, 0)].abs() < 1e-12);
        assert!(eig_residual(&a, &t, &z) < 1e-12);
    }

    #[test]
    fn reorder_moves_largest_to_front() {
        // Symmetric matrix: all blocks are 1x1.
        let n = 9;
        let mut a = DMatrix::<f64>::from_fn(n, n, |i, j| ((i * 5 + j * 11 + i * j) % 17) as f64);
        for i in 0..n {
            for j in 0..i {
                let v = (a[(i, j)] + a[(j, i)]) / 2.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let s = schur(&a).unwrap();
        let mut t = s.t.clone();
        let mut z = s.z.clone();
        let eigs: Vec<f64> = eigenvalues_of_quasi_triangular(&t).iter().map(|c| c.re).collect();
        // Select the 3 largest by magnitude.
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&i, &j| eigs[j].abs().partial_cmp(&eigs[i].abs()).unwrap());
        let mut selected = vec![false; n];
        for &i in idx.iter().take(3) {
            selected[i] = true;
        }
        let rows = reorder_schur(&mut t, &mut z, &selected).unwrap();
        assert_eq!(rows, 3);
        assert!(eig_residual(&a, &t, &z) < 1e-9);
        // The three leading diagonal entries are exactly the selected values
        // (in their original relative order).
        let expected: Vec<f64> = (0..n).filter(|&i| selected[i]).map(|i| eigs[i]).collect();
        for (k, e) in expected.iter().enumerate() {
            assert!((t[(k, k)] - e).abs() < 1e-8, "position {k}: {} vs {e}", t[(k, k)]);
        }
        // Z still orthogonal.
        let ztz = z.transpose_matmul(&z);
        assert!(ztz.diff_norm(&DMatrix::identity(n)) < 1e-10);
    }

    #[test]
    fn reorder_with_complex_blocks() {
        // Matrix with a complex pair (rotation block) and two real
        // eigenvalues; move the complex pair to the front as one block.
        let a = DMatrix::<f64>::from_rows(&[
            &[1.0, 0.2, 0.3, 0.1],
            &[0.0, 0.6, -0.8, 0.4],
            &[0.0, 0.8, 0.6, -0.2],
            &[0.0, 0.0, 0.0, 5.0],
        ]);
        let s = schur(&a).unwrap();
        let mut t = s.t.clone();
        let mut z = s.z.clone();
        let blocks = block_structure(&t);
        // Select the block(s) containing complex eigenvalues and the value 5.
        let mut selected = Vec::new();
        for &(start, size) in &blocks {
            if size == 2 {
                selected.push(true);
            } else {
                selected.push((t[(start, start)] - 5.0).abs() < 1e-8);
            }
        }
        let rows = reorder_schur(&mut t, &mut z, &selected).unwrap();
        assert_eq!(rows, 3);
        assert!(eig_residual(&a, &t, &z) < 1e-8);
        // Eigenvalues preserved overall.
        let mut before: Vec<f64> =
            eigenvalues_of_quasi_triangular(&s.t).iter().map(|c| c.re).collect();
        let mut after: Vec<f64> = eigenvalues_of_quasi_triangular(&t).iter().map(|c| c.re).collect();
        before.sort_by(|a, b| a.partial_cmp(b).unwrap());
        after.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (x, y) in before.iter().zip(&after) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn sylvester_solver_small() {
        let a = DMatrix::<f64>::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let c = DMatrix::<f64>::from_rows(&[&[1.0]]);
        let b = DMatrix::<f64>::from_rows(&[&[1.0], &[2.0]]);
        let x = solve_sylvester(&a, &c, &b).unwrap();
        // Check A X - X C = B.
        let ax = a.matmul(&x);
        let xc = x.matmul(&c);
        for i in 0..2 {
            assert!((ax[(i, 0)] - xc[(i, 0)] - b[(i, 0)]).abs() < 1e-12);
        }
    }
}
