//! The Krylov–Schur implicitly restarted Arnoldi iteration.
//!
//! This is the generic equivalent of `ArnoldiMethod.jl`'s `partialschur()`:
//! expand a Krylov decomposition `A V_k = V_k B_k + v_{k+1} s_k^T` with
//! (re-)orthogonalization, compute the real Schur form of the projected
//! matrix, test convergence of the leading (wanted) Ritz values through the
//! transformed spike, and restart by keeping the best part of the subspace.
//! Everything is generic over [`Real`], so the identical untailored code runs
//! in OFP8, bfloat16, float16, float32/64, posits, takums and the
//! double-double reference format.

use lpa_arith::Real;
use lpa_dense::blas::{axpy, dot, normalize, nrm2};
use lpa_dense::ordschur::reorder_schur;
use lpa_dense::schur::{block_structure, eigenvalues_of_quasi_triangular, schur};
use lpa_dense::{Complex, DMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ArnoldiError;
use crate::operator::LinearOperator;
use crate::options::{ArnoldiOptions, Which};
use crate::result::{History, PartialSchur};

/// Compute a partial Schur decomposition `A Q ≈ Q R` targeting the part of
/// the spectrum selected by `opts.which`.
///
/// For symmetric input matrices `R` is diagonal (up to the working
/// precision) and the columns of `Q` are the eigenvectors, which is exactly
/// how the paper extracts eigenpairs.
///
/// ## Element types
///
/// The solver is one generic body.  The experiment pipeline instantiates
/// it at [`lpa_arith::Decoded<T>`] for the 16/32/64-bit posits and takums,
/// so the matrix values, the Krylov basis and the projected Schur phase
/// all stay decoded for the whole solve, and at the format type itself
/// for the 8-bit, float16/bfloat16 (binary32 carrier), native and
/// double-double formats.  Both instantiations of an emulated format give
/// identical bits (`tests/decoded_solve.rs`).
pub fn partial_schur<T: Real, Op: LinearOperator<T> + ?Sized>(
    op: &Op,
    opts: &ArnoldiOptions,
) -> Result<(PartialSchur<T>, History), ArnoldiError> {
    let n = op.dim();
    if opts.nev == 0 {
        return Err(ArnoldiError::InvalidInput("nev must be positive".into()));
    }
    if opts.nev + 2 > n {
        return Err(ArnoldiError::InvalidInput(format!(
            "nev = {} is too large for an operator of dimension {}",
            opts.nev, n
        )));
    }
    let nev = opts.nev;
    let m = opts.resolved_max_dim(n);
    let tol = T::from_f64(opts.tol);

    // Krylov basis (m + 1 columns), projected matrix and spike.
    let mut v = DMatrix::<T>::zeros(n, m + 1);
    let mut b = DMatrix::<T>::zeros(m, m);
    let mut spike = vec![T::zero(); m];
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Random unit starting vector.
    {
        let col = v.col_mut(0);
        for x in col.iter_mut() {
            *x = T::from_f64(rng.gen_range(-1.0..1.0));
        }
        if normalize(col).is_zero() {
            return Err(ArnoldiError::NonFinite);
        }
    }

    let mut k = 0usize; // current size of the Krylov decomposition
    let mut matvecs = 0usize;
    let mut last_converged = 0usize;

    // Work buffers reused across every Arnoldi step: the candidate basis
    // vector `w` and the Gram-Schmidt coefficients `h`.  Allocating them
    // once (instead of per step) matters because a step's own arithmetic is
    // only O(n·j) scalar operations.
    let mut w = vec![T::zero(); n];
    let mut h_buf = vec![T::zero(); m];

    for restart in 0..opts.max_restarts {
        // Fault point: makes "a cell that hangs" injectable so the
        // harness's deadline machinery can be exercised deterministically.
        lpa_faults::stall(lpa_faults::SOLVER_STALL);
        // Tracing span per restart iteration (expansion + projected Schur);
        // disarmed cost is one relaxed atomic load.
        let _restart_span = lpa_obs::span(lpa_obs::ARNOLDI_RESTART);
        // --- Expansion from k to m ------------------------------------
        for j in k..m {
            // Cooperative deadline, checked at expansion-step granularity:
            // a step is O(n·j) scalar ops, so the check overhead is noise
            // while long cells still notice within one step.
            if let Some(deadline) = opts.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(ArnoldiError::DeadlineExceeded);
                }
            }
            // Classical Gram-Schmidt with one full re-orthogonalization
            // pass (DGKS-style), which is what keeps the basis usable in
            // the very low precision formats; both passes accumulate into
            // the same coefficient slice.  `apply` fully overwrites `w`
            // (it computes y = A x), so no clearing is needed between
            // steps.
            let h = &mut h_buf[..j + 1];
            op.apply(v.col(j), &mut w);
            h.fill(T::zero());
            for _pass in 0..2 {
                for (i, hi) in h.iter_mut().enumerate() {
                    let c = dot(v.col(i), &w);
                    axpy(-c, v.col(i), &mut w);
                    *hi += c;
                }
            }
            matvecs += 1;
            let beta = nrm2(&w);
            if !beta.is_finite() || h.iter().any(|x| !x.is_finite()) {
                return Err(ArnoldiError::NonFinite);
            }

            // Move the spike into row j and store the new column.
            for i in 0..j {
                b[(j, i)] = spike[i];
                spike[i] = T::zero();
            }
            for (i, &hi) in h.iter().enumerate() {
                b[(i, j)] = hi;
            }

            let breakdown = beta <= T::epsilon() * h[j.min(h.len() - 1)].abs().max(T::one());
            if breakdown {
                // Invariant subspace found: continue with a fresh random
                // direction orthogonal to the current basis (built in the
                // step buffer `w`, whose residual content is obsolete).
                spike[j] = T::zero();
                for x in w.iter_mut() {
                    *x = T::from_f64(rng.gen_range(-1.0..1.0));
                }
                for i in 0..=j {
                    let c = dot(v.col(i), &w);
                    axpy(-c, v.col(i), &mut w);
                }
                if normalize(&mut w).is_zero() {
                    return Err(ArnoldiError::NonFinite);
                }
                v.col_mut(j + 1).copy_from_slice(&w);
            } else {
                spike[j] = beta;
                let inv = beta.recip();
                for (dst, src) in v.col_mut(j + 1).iter_mut().zip(&w) {
                    *dst = *src * inv;
                }
            }
        }

        // --- Projected Schur form --------------------------------------
        let sch = schur(&b)?;
        let mut t = sch.t;
        let mut z = sch.z;

        // Transformed spike: residual norms of the Schur vectors.
        let w_spike = |z: &DMatrix<T>| -> Vec<T> {
            (0..m)
                .map(|i| {
                    let mut s = T::zero();
                    for j in 0..m {
                        s += spike[j] * z[(j, i)];
                    }
                    s
                })
                .collect()
        };
        let w = w_spike(&z);

        // Block structure, eigenvalues and residual estimates.
        let blocks = block_structure(&t);
        let eigs = eigenvalues_of_quasi_triangular(&t);
        let scale_floor = T::epsilon() * b.frobenius_norm().max(T::one());
        struct BlockInfo<T> {
            size: usize,
            modulus: T,
            real: T,
            converged: bool,
        }
        let mut infos: Vec<BlockInfo<T>> = Vec::with_capacity(blocks.len());
        for &(start, size) in blocks.iter() {
            let lambda: Complex<T> = eigs[start];
            let modulus = lambda.abs();
            let residual = if size == 1 {
                w[start].abs()
            } else {
                (w[start] * w[start] + w[start + 1] * w[start + 1]).sqrt()
            };
            let threshold = tol * modulus.max(scale_floor);
            infos.push(BlockInfo {
                size,
                modulus,
                real: lambda.re,
                converged: residual <= threshold,
            });
        }

        // Sort blocks by the requested part of the spectrum.
        let mut order: Vec<usize> = (0..infos.len()).collect();
        order.sort_by(|&a, &bq| {
            let (ia, ib) = (&infos[a], &infos[bq]);
            let key = |i: &BlockInfo<T>| match opts.which {
                Which::LargestMagnitude | Which::SmallestMagnitude => i.modulus,
                Which::LargestReal | Which::SmallestReal => i.real,
            };
            let ord = key(ia).partial_cmp(&key(ib)).unwrap_or(core::cmp::Ordering::Equal);
            match opts.which {
                Which::LargestMagnitude | Which::LargestReal => ord.reverse(),
                Which::SmallestMagnitude | Which::SmallestReal => ord,
            }
        });

        // The "wanted" blocks are those covering the first `nev` spectrum
        // slots (never splitting a conjugate pair).
        let mut wanted: Vec<usize> = Vec::new();
        let mut wanted_rows = 0usize;
        for &bi in &order {
            if wanted_rows >= nev {
                break;
            }
            wanted.push(bi);
            wanted_rows += infos[bi].size;
        }
        let converged_wanted = wanted.iter().filter(|&&bi| infos[bi].converged).count();
        last_converged = converged_wanted;

        let all_wanted_converged = wanted.iter().all(|&bi| infos[bi].converged);

        if all_wanted_converged || restart + 1 == opts.max_restarts {
            if !all_wanted_converged {
                return Err(ArnoldiError::NotConverged {
                    restarts: restart + 1,
                    converged: converged_wanted,
                    requested: wanted.len(),
                });
            }
            // Reorder the wanted blocks to the front and extract.
            let mut select = vec![false; blocks.len()];
            for &bi in &wanted {
                select[bi] = true;
            }
            let rows = reorder_schur(&mut t, &mut z, &select)?;
            // Q = V_m * Z[:, 0..rows].
            let q = v.truncate_columns(m).matmul(&z.truncate_columns(rows));
            let r = t.submatrix(0, 0, rows, rows);
            // Eigenvalues in the order of R's diagonal blocks, so that
            // eigenvalue i corresponds to Schur vector column i.
            let eigenvalues = eigenvalues_of_quasi_triangular(&r);
            let residuals = w_spike(&z)[..rows].iter().map(|x| x.to_f64()).collect();
            return Ok((
                PartialSchur { q, r, eigenvalues },
                History { restarts: restart + 1, matvecs, converged: true, residuals },
            ));
        }

        // --- Restart: keep the best `keep` rows -------------------------
        let target_keep = (nev + (m - nev) / 2).min(m - 1);
        let mut select = vec![false; blocks.len()];
        let mut keep_rows = 0usize;
        for &bi in &order {
            if keep_rows >= target_keep {
                break;
            }
            select[bi] = true;
            keep_rows += infos[bi].size;
        }
        let rows = reorder_schur(&mut t, &mut z, &select)?;
        debug_assert_eq!(rows, keep_rows);
        // New basis: V[:, 0..rows] = V_m Z[:, 0..rows], V[:, rows] = v_{m+1}.
        let new_basis = v.truncate_columns(m).matmul(&z.truncate_columns(rows));
        for c in 0..rows {
            v.col_mut(c).copy_from_slice(new_basis.col(c));
        }
        let last = v.col(m).to_vec();
        v.col_mut(rows).copy_from_slice(&last);

        // New projected matrix and spike.
        let wz = w_spike(&z);
        let mut new_b = DMatrix::<T>::zeros(m, m);
        for j in 0..rows {
            for i in 0..rows {
                new_b[(i, j)] = t[(i, j)];
            }
        }
        b = new_b;
        for i in 0..m {
            spike[i] = if i < rows { wz[i] } else { T::zero() };
        }
        k = rows;
    }

    Err(ArnoldiError::NotConverged {
        restarts: opts.max_restarts,
        converged: last_converged,
        requested: nev,
    })
}
