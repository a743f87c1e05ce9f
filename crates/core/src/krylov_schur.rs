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

use lpa_arith::{batch, BatchReal, PlaneStore, Real};
use lpa_dense::blas::{axpy, axpy_planes, dot, dot_planes, normalize, nrm2, scal_planes};
use lpa_dense::ordschur::reorder_schur;
use lpa_dense::schur::{block_structure, eigenvalues_of_quasi_triangular, schur};
use lpa_dense::{Complex, DMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ArnoldiError;
use crate::operator::BatchOperator;
use crate::options::{ArnoldiOptions, Which};
use crate::result::{History, PartialSchur};

/// The element type the projected dense phase runs at (see
/// [`BatchReal::Dense`]).
type Dense<T> = <T as BatchReal>::Dense;

/// Compute a partial Schur decomposition `A Q ≈ Q R` targeting the part of
/// the spectrum selected by `opts.which`.
///
/// For symmetric input matrices `R` is diagonal (up to the working
/// precision) and the columns of `Q` are the eigenvectors, which is exactly
/// how the paper extracts eigenpairs.
///
/// ## The batch kernel engine
///
/// When `lpa_arith::kernel_batch_enabled()` (the default; see the
/// `LPA_KERNEL_BATCH` knob) and the scalar format profits from
/// pre-decoding, the expansion hot loop runs through a decoded workspace:
/// the operator is applied via [`BatchOperator::apply_dec`] (so a
/// [`lpa_sparse::CsrDecoded`] operator's matrix values are decoded once
/// per run, not once per SpMV), the Krylov basis keeps decoded shadows of
/// its columns that are updated on write, and the Gram-Schmidt
/// dot/axpy/scale passes run the decoded-domain kernels.  Results are
/// bit-identical to the scalar engine by the batch engine's contract
/// (every operation still rounds to the format's grid), which the
/// `lpa_experiments` end-to-end grid test enforces.  The knob covers the
/// expansion only.
///
/// ## The projected dense phase
///
/// `schur` of the projected matrix and both `reorder_schur` calls run at
/// the format's dense element type, [`BatchReal::Dense`]:
/// [`lpa_arith::Decoded<T>`] for the posit and takum formats (`b` and the
/// spike are decoded once per restart and the Schur factors encoded once,
/// so the Householder and Givens chains in between never touch a bit
/// pattern), `T` itself for the IEEE, 8-bit and native formats.  The
/// choice is made by type, not by a runtime knob; both element types give
/// identical bits.
pub fn partial_schur<T: BatchReal, Op: BatchOperator<T> + ?Sized>(
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
    let tol = Dense::<T>::from_f64(opts.tol);

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

    // The batch-engine workspace: struct-of-arrays plane shadows of the
    // basis columns and the step buffers, owned for the whole run so the
    // basis is decoded once per write instead of once per read.  Scalar
    // formats whose decoded form is their bit pattern skip the bookkeeping
    // entirely.
    let use_batch = T::DECODED && batch::kernel_batch_enabled();
    let zero_dec = T::zero().dec();
    let cold = T::Planes::with_len(if use_batch { n } else { 0 });
    let mut v_dec: Vec<T::Planes> = vec![cold.clone(); if use_batch { m + 1 } else { 0 }];
    let mut w_dec: T::Planes = cold;
    let mut h_dec_buf: Vec<T::Dec> = if use_batch { vec![zero_dec; m] } else { Vec::new() };
    if use_batch {
        v_dec[0].decode_from(v.col(0));
    }

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
            // the same coefficient slice.  The two engines run the same
            // operation sequence — the batch engine merely reads the
            // pre-decoded shadows and defers the bit-pattern encode of `w`
            // and `h` to the end of the step.
            let h = &mut h_buf[..j + 1];
            if use_batch {
                // `apply_planes` fully overwrites `w_dec` (same contract as
                // `apply`).
                op.apply_planes(&v_dec[j], &mut w_dec);
                let hd = &mut h_dec_buf[..j + 1];
                hd.fill(zero_dec);
                for _pass in 0..2 {
                    for (i, hi) in hd.iter_mut().enumerate() {
                        let c = dot_planes::<T>(&v_dec[i], &w_dec);
                        axpy_planes::<T>(T::dec_neg(c), &v_dec[i], &mut w_dec);
                        *hi = T::dec_add(*hi, c);
                    }
                }
                for (hb, hd) in h.iter_mut().zip(hd.iter()) {
                    *hb = T::undec(*hd);
                }
                w_dec.encode_into(&mut w);
            } else {
                // `apply` fully overwrites `w` (it computes y = A x), so no
                // clearing is needed between steps.
                op.apply(v.col(j), &mut w);
                h.fill(T::zero());
                for _pass in 0..2 {
                    for (i, hi) in h.iter_mut().enumerate() {
                        let c = dot(v.col(i), &w);
                        axpy(-c, v.col(i), &mut w);
                        *hi += c;
                    }
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
                if use_batch {
                    // The fresh random direction was built on the encoded
                    // side; refresh its shadow.
                    v_dec[j + 1].decode_from(&w);
                }
            } else {
                spike[j] = beta;
                let inv = beta.recip();
                let wcol = v.col_mut(j + 1);
                if use_batch {
                    // Scale in the decoded domain (`w_dec` is dead after
                    // this step) and write both sides of the new basis
                    // column — the shadow update is free because the
                    // scaled values are already decoded.
                    scal_planes::<T>(inv.dec(), &mut w_dec);
                    v_dec[j + 1].clone_from(&w_dec);
                    w_dec.encode_into(wcol);
                } else {
                    for (dst, src) in wcol.iter_mut().zip(&w) {
                        *dst = *src * inv;
                    }
                }
            }
        }

        // --- Projected Schur form --------------------------------------
        // Everything from here to the basis update runs at the dense
        // element type: decode `b` and the spike once, encode what leaves
        // the phase (`Z`'s kept columns, `T`'s kept block, the new spike).
        let bd = b.map(T::to_dense);
        let spike_d: Vec<Dense<T>> = spike.iter().map(|&x| x.to_dense()).collect();
        let sch = schur(&bd)?;
        let mut t = sch.t;
        let mut z = sch.z;

        // Transformed spike: residual norms of the Schur vectors.
        let w_spike = |z: &DMatrix<Dense<T>>| -> Vec<Dense<T>> {
            (0..m)
                .map(|i| {
                    let mut s = Dense::<T>::zero();
                    for j in 0..m {
                        s += spike_d[j] * z[(j, i)];
                    }
                    s
                })
                .collect()
        };
        let w = w_spike(&z);

        // Block structure, eigenvalues and residual estimates.
        let blocks = block_structure(&t);
        let eigs = eigenvalues_of_quasi_triangular(&t);
        let scale_floor = Dense::<T>::epsilon() * bd.frobenius_norm().max(Dense::<T>::one());
        struct BlockInfo<T> {
            size: usize,
            modulus: T,
            real: T,
            converged: bool,
        }
        let mut infos: Vec<BlockInfo<Dense<T>>> = Vec::with_capacity(blocks.len());
        for &(start, size) in blocks.iter() {
            let lambda: Complex<Dense<T>> = eigs[start];
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
            let key = |i: &BlockInfo<Dense<T>>| match opts.which {
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
            // Q = V_m * Z[:, 0..rows]; under the batch engine the product
            // runs in the decoded domain over the basis shadows
            // (bit-identical to the encoded matmul by `gemm_planes`'
            // contract).
            let zk = z.truncate_columns(rows).map(T::from_dense);
            let q = if use_batch {
                let zk_cols: Vec<&[T]> = (0..rows).map(|c| zk.col(c)).collect();
                let cols = batch::gemm_planes::<T>(n, &v_dec[..m], &zk_cols);
                let mut q = DMatrix::<T>::zeros(n, rows);
                for (c, p) in cols.iter().enumerate() {
                    p.encode_into(q.col_mut(c));
                }
                q
            } else {
                v.truncate_columns(m).matmul(&zk)
            };
            let r = t.submatrix(0, 0, rows, rows);
            // Eigenvalues in the order of R's diagonal blocks, so that
            // eigenvalue i corresponds to Schur vector column i.
            let eigenvalues = eigenvalues_of_quasi_triangular(&r)
                .into_iter()
                .map(|c| Complex::new(T::from_dense(c.re), T::from_dense(c.im)))
                .collect();
            let r = r.map(T::from_dense);
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
        let zk = z.truncate_columns(rows).map(T::from_dense);

        // New basis: V[:, 0..rows] = V_m Z[:, 0..rows], V[:, rows] = v_{m+1}.
        if use_batch {
            // The product runs in the decoded domain over the basis
            // shadows, and the fresh columns it produces *are* the new
            // shadows — the old refresh pass (re-decoding every rewritten
            // column from its encoded side) is gone, the encode below is
            // the only crossing.  Bit-identical to the dense matmul by
            // `gemm_planes`' contract.
            let zk_cols: Vec<&[T]> = (0..rows).map(|c| zk.col(c)).collect();
            let new_planes = batch::gemm_planes::<T>(n, &v_dec[..m], &zk_cols);
            for (c, p) in new_planes.into_iter().enumerate() {
                p.encode_into(v.col_mut(c));
                v_dec[c] = p;
            }
            if rows < m {
                let (head, tail) = v_dec.split_at_mut(m);
                head[rows].clone_from(&tail[0]);
            }
        } else {
            let vm = v.truncate_columns(m);
            let new_basis = vm.matmul(&zk);
            for c in 0..rows {
                v.col_mut(c).copy_from_slice(new_basis.col(c));
            }
        }
        let last = v.col(m).to_vec();
        v.col_mut(rows).copy_from_slice(&last);
        #[cfg(debug_assertions)]
        if use_batch {
            // The shadow invariant the expansion loop relies on:
            // v_dec[c] == decode(v.col(c)) for every live column.
            for (c, vc) in v_dec.iter().enumerate().take(rows + 1) {
                for (i, xc) in v.col(c).iter().enumerate() {
                    debug_assert_eq!(
                        vc.get(i),
                        xc.dec(),
                        "basis shadow diverged at column {c}, row {i}"
                    );
                }
            }
        }

        // New projected matrix and spike.
        let wz = w_spike(&z);
        let mut new_b = DMatrix::<T>::zeros(m, m);
        for j in 0..rows {
            for i in 0..rows {
                new_b[(i, j)] = T::from_dense(t[(i, j)]);
            }
        }
        b = new_b;
        for i in 0..m {
            spike[i] = if i < rows { T::from_dense(wz[i]) } else { T::zero() };
        }
        k = rows;
    }

    Err(ArnoldiError::NotConverged {
        restarts: opts.max_restarts,
        converged: last_converged,
        requested: nev,
    })
}
