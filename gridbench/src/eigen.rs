//! Eigenvalues of a symmetric matrix in plain `f64`, computed without the
//! program's dense or Arnoldi code: Householder reduction to tridiagonal
//! form (skipped when the matrix already is tridiagonal), then Sturm-count
//! bisection for the wanted eigenvalues only.

use lpa_sparse::CsrMatrix;

/// Frobenius norm of a matrix.
pub fn frobenius(m: &CsrMatrix<f64>) -> f64 {
    m.values().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// The `count` eigenvalues of largest magnitude of the symmetric `m`,
/// ordered by decreasing magnitude.
pub fn largest_magnitude(m: &CsrMatrix<f64>, count: usize) -> Vec<f64> {
    let (d, e) = tridiagonal(m);
    let n = d.len();
    let count = count.min(n);
    let e2: Vec<f64> = e.iter().map(|x| x * x).collect();
    // Gershgorin interval of the tridiagonal matrix.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        let r = e.get(i).map_or(0.0, |x| x.abs()) + if i > 0 { e[i - 1].abs() } else { 0.0 };
        lo = lo.min(d[i] - r);
        hi = hi.max(d[i] + r);
    }
    let pivmin = f64::MIN_POSITIVE * e2.iter().cloned().fold(1.0, f64::max);
    // The largest-magnitude eigenvalues are among the `count` smallest and
    // the `count` largest in algebraic order.
    let mut indices: Vec<usize> = (0..count).chain(n - count..n).collect();
    indices.dedup();
    let mut values: Vec<f64> = indices
        .into_iter()
        .map(|k| kth_smallest(&d, &e2, k, lo, hi, pivmin))
        .collect();
    values.sort_by(|a, b| b.abs().total_cmp(&a.abs()));
    values.truncate(count);
    values
}

/// Diagonal and sub-diagonal of a tridiagonal matrix similar to `m`.
fn tridiagonal(m: &CsrMatrix<f64>) -> (Vec<f64>, Vec<f64>) {
    let n = m.nrows();
    if m.iter().all(|(i, j, _)| i.abs_diff(j) <= 1) {
        let d = (0..n).map(|i| m.get(i, i)).collect();
        let e = (0..n.saturating_sub(1)).map(|i| m.get(i + 1, i)).collect();
        return (d, e);
    }
    let mut a = vec![vec![0.0f64; n]; n];
    for (i, j, v) in m.iter() {
        a[i][j] = v;
    }
    let mut e = vec![0.0f64; n.saturating_sub(1)];
    for k in 0..n.saturating_sub(2) {
        // Reflector H = I - beta v v^T mapping a[k+1.., k] onto alpha e1.
        let mut v: Vec<f64> = (k + 1..n).map(|i| a[i][k]).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            continue;
        }
        let alpha = if v[0] > 0.0 { -norm } else { norm };
        v[0] -= alpha;
        let vv: f64 = v.iter().map(|x| x * x).sum();
        e[k] = alpha;
        if vv == 0.0 {
            continue;
        }
        let beta = 2.0 / vv;
        // Trailing block A22 <- H A22 H = A22 - v w^T - w v^T with
        // p = beta A22 v and w = p - (beta p^T v / 2) v.
        let m2 = n - k - 1;
        let p: Vec<f64> = (0..m2)
            .map(|r| beta * (0..m2).map(|c| a[k + 1 + r][k + 1 + c] * v[c]).sum::<f64>())
            .collect();
        let pv: f64 = p.iter().zip(&v).map(|(x, y)| x * y).sum();
        let w: Vec<f64> = p
            .iter()
            .zip(&v)
            .map(|(x, y)| x - 0.5 * beta * pv * y)
            .collect();
        for r in 0..m2 {
            for c in 0..m2 {
                a[k + 1 + r][k + 1 + c] -= v[r] * w[c] + w[r] * v[c];
            }
        }
    }
    if n >= 2 {
        e[n - 2] = a[n - 1][n - 2];
    }
    ((0..n).map(|i| a[i][i]).collect(), e)
}

/// Number of eigenvalues of the tridiagonal (d, e) below `x` (the
/// negative pivots of the LDL^T factorization of T - xI).
fn count_below(d: &[f64], e2: &[f64], x: f64, pivmin: f64) -> usize {
    let mut count = 0;
    let mut q = 1.0;
    for i in 0..d.len() {
        q = d[i] - x - if i > 0 { e2[i - 1] / q } else { 0.0 };
        if q.abs() < pivmin {
            q = -pivmin;
        }
        if q < 0.0 {
            count += 1;
        }
    }
    count
}

/// The `k`-th smallest eigenvalue (0-based) by bisection on [lo, hi].
fn kth_smallest(d: &[f64], e2: &[f64], k: usize, mut lo: f64, mut hi: f64, pivmin: f64) -> f64 {
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if count_below(d, e2, mid, pivmin) > k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplacian_spectrum_matches_the_closed_form() {
        let n = 50;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let m = CsrMatrix::from_triplets(n, n, &t);
        let got = largest_magnitude(&m, 5);
        for (k, g) in got.iter().enumerate() {
            let exact = 2.0 - 2.0 * (std::f64::consts::PI * (n - k) as f64 / (n + 1) as f64).cos();
            assert!((g - exact).abs() < 1e-13, "{g} vs {exact}");
        }
    }

    #[test]
    fn dense_reduction_keeps_the_spectrum() {
        // Permuting a diagonal matrix's rows and columns with one
        // off-tridiagonal coupling block keeps a known spectrum.
        let n = 6;
        let mut t = vec![(0, 5, 1.0), (5, 0, 1.0)];
        let diag = [3.0, -7.0, 0.5, 2.0, -1.0, 3.0];
        for (i, &v) in diag.iter().enumerate() {
            t.push((i, i, v));
        }
        let m = CsrMatrix::from_triplets(n, n, &t);
        // Block {0, 5} is [[3, 1], [1, 3]] with eigenvalues 4 and 2.
        let got = largest_magnitude(&m, 4);
        let want = [-7.0, 4.0, 2.0, 2.0];
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-13, "{got:?}");
        }
    }
}
