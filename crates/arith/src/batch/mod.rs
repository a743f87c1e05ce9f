//! Batch kernel engine: bulk operations over **pre-decoded** operands.
//!
//! The scalar operators of the emulated formats pay two bit-pattern decodes
//! and one round/encode per operation.  In the Krylov hot loops most of
//! those decodes re-decode *loop-invariant* data: a CSR matrix's values are
//! decoded on every SpMV of every Arnoldi step, the basis vectors on every
//! Gram-Schmidt pass, yet neither changes between reads.  This module is
//! the decode-once tier for that pattern — the [`crate::lut::Lut16`] trick
//! generalized to every width, including the 32/64-bit tapered formats
//! where a full unpack table is impossible:
//!
//! * [`BatchReal`] extends [`Real`] with a pre-decoded operand form
//!   ([`BatchReal::Dec`]) and decoded-domain `add`/`mul`/`neg` that are
//!   **bit-identical** to the scalar operators: each op still runs the
//!   shared soft-float kernel and still rounds to the format's grid after
//!   every operation, it merely keeps the value in decoded form instead of
//!   round-tripping through the bit pattern.
//! * [`DecodedSlice`] owns a vector of scalars alongside their decoded
//!   shadow forms; [`dot_decoded`], [`axpy_decoded`] and [`scale_decoded`]
//!   are the bulk kernels over shadow slices.
//! * [`dot_slice`]/[`axpy_slice`]/[`scal_slice`] are drop-in versions of the
//!   BLAS-1 loops over plain (encoded) slices that pre-decode internally
//!   when the engine is enabled — the routing point for `lpa_dense::blas`.
//!
//! The rounding step uses [`round`]: a value-level round-to-format that
//! produces the canonical decoded form directly (`decode(encode(u))`
//! without materializing the bit pattern), falling back to the literal
//! `decode(encode(u))` reference composition near the tapered formats'
//! saturation boundaries where the bit-level tie rule inspects regime /
//! exponent-field bits.  `tests/batch_differential.rs` verifies the
//! equality exhaustively over exponent sweeps and differentially over
//! random and boundary-corpus operands.
//!
//! On top of the shadow tier sit the struct-of-arrays kernels: [`planes`]
//! splits the decoded form into separate tag/exponent/significand planes
//! ([`PlaneStore`], [`UnpackedPlanes`]) and runs the combine **and** the
//! round fused over the 128-bit kernel frame, blocked [`lanes`] wide
//! ([`dot_planes`], [`axpy_planes`], [`scale_planes`], [`gemm_planes`]).
//! Same bits, fewer memory shuffles — the accumulation order is preserved
//! exactly at every lane width.
//!
//! The projected dense phase of the Krylov–Schur restart is not a bulk
//! kernel; it runs generic code at [`BatchReal::Dense`], which is
//! [`crate::Decoded<T>`] for the posit and takum formats — the same
//! kernel-plus-value-level-round ops, with the whole matrix kept decoded.
//!
//! ## The `LPA_KERNEL_BATCH` knob
//!
//! Like the 16-bit tier ([`crate::tier`]), the engine is selectable at
//! runtime for verification, not semantics — both paths compute identical
//! bits.  Selection, in precedence order: [`force_kernel_batch`] (process
//! global, used by differential tests), the `LPA_KERNEL_BATCH` environment
//! variable (`batch`/`on`/`1` or `scalar`/`off`/`0`; read only in this
//! module), then the default: `batch`.  The knob covers the bulk kernels
//! of the expansion only: the dense phase's element type is chosen by
//! type (`BatchReal::Dense`), not by this switch.

pub mod lanes;
pub mod planes;
pub mod round;

pub use lanes::{env_kernel_lanes, force_kernel_lanes, kernel_lanes, KernelLanes, Lanes};
pub use planes::{
    axpy_planes, dot_planes, gemm_planes, scale_planes, DecodedPlanes, PlaneStore, ScalarPlanes,
    UnpackedPlanes,
};

use std::sync::atomic::{AtomicU8, Ordering};

use crate::real::Real;

/// The kernel engine serving the bulk linear-algebra loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelBatch {
    /// Loop-invariant operands are decoded once and the bulk kernels run in
    /// the decoded domain (the default).
    Batch,
    /// Every operation is the plain scalar operator (decode → kernel →
    /// round/encode per op) — the reference path.
    Scalar,
}

impl std::str::FromStr for KernelBatch {
    type Err = String;

    /// Accepts the `LPA_KERNEL_BATCH` vocabulary: `batch` (aliases `on`,
    /// `1`) and `scalar` (aliases `off`, `0`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "batch" | "on" | "1" => Ok(KernelBatch::Batch),
            "scalar" | "off" | "0" => Ok(KernelBatch::Scalar),
            other => Err(format!(
                "{other:?} is not a known kernel engine (expected \"batch\" or \"scalar\")"
            )),
        }
    }
}

/// The engine requested by the `LPA_KERNEL_BATCH` environment variable, if
/// any (`None` when unset or empty).  Panics on an unknown value, exactly
/// like lazy initialization does — a typo must not silently select a
/// default.
///
/// All environment reads of `LPA_KERNEL_BATCH` live in this module; harness
/// layers (`lpa_experiments::harness`) call this instead of reading the
/// variable themselves.
pub fn env_kernel_batch() -> Option<KernelBatch> {
    match std::env::var("LPA_KERNEL_BATCH").as_deref() {
        Ok("") | Err(_) => None,
        Ok(v) => Some(v.parse().unwrap_or_else(|e: String| panic!("LPA_KERNEL_BATCH={e}"))),
    }
}

const UNSET: u8 = 0;
const BATCH: u8 = 1;
const SCALAR: u8 = 2;

static KERNEL_BATCH: AtomicU8 = AtomicU8::new(UNSET);

/// Whether the bulk loops should run the decoded batch kernels (see the
/// module docs for the selection rules).
#[inline]
pub fn kernel_batch_enabled() -> bool {
    match KERNEL_BATCH.load(Ordering::Relaxed) {
        BATCH => true,
        SCALAR => false,
        _ => init_from_env(),
    }
}

/// The currently active kernel engine.
pub fn kernel_batch() -> KernelBatch {
    if kernel_batch_enabled() {
        KernelBatch::Batch
    } else {
        KernelBatch::Scalar
    }
}

/// Force the kernel engine for the rest of the process (overriding the
/// environment), taking effect on the next bulk operation.
///
/// Both engines are bit-identical, so flipping this mid-run never changes
/// any computed value — it exists so differential tests can run the same
/// workload through both paths in one process.
pub fn force_kernel_batch(engine: KernelBatch) {
    let v = match engine {
        KernelBatch::Batch => BATCH,
        KernelBatch::Scalar => SCALAR,
    };
    KERNEL_BATCH.store(v, Ordering::Relaxed);
}

#[cold]
fn init_from_env() -> bool {
    let v = match env_kernel_batch() {
        Some(KernelBatch::Scalar) => SCALAR,
        Some(KernelBatch::Batch) | None => BATCH,
    };
    // A racing `force_kernel_batch` may have stored a value in the
    // meantime; that call wins.  Both engines compute identical bits, so
    // the race is benign either way.
    let _ = KERNEL_BATCH.compare_exchange(UNSET, v, Ordering::Relaxed, Ordering::Relaxed);
    KERNEL_BATCH.load(Ordering::Relaxed) == BATCH
}

/// A [`Real`] with a pre-decoded operand form and decoded-domain kernels.
///
/// The contract every implementation upholds (and
/// `tests/batch_differential.rs` verifies): for all values `a`, `b` of the
/// format,
///
/// ```text
/// undec(dec(a))            == a            (on non-NaN canonical patterns)
/// undec(dec_add(dec(a), dec(b))) == a + b  (bit for bit, same for mul/neg)
/// ```
///
/// i.e. a chain of decoded ops, encoded once at the end, produces exactly
/// the bits the scalar operator chain would have stored.  Formats whose
/// scalar ops are already a table load or a hardware instruction (8-bit,
/// `f32`/`f64`/[`crate::Dd`]) use `Dec = Self` and gain nothing — and lose
/// nothing — from pre-decoding (`DECODED = false`).
pub trait BatchReal: Real {
    /// The pre-decoded operand form (the per-element cache entry).
    type Dec: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static;

    /// The struct-of-arrays store holding a vector of decoded elements,
    /// with the lane-blocked kernels over it (see [`planes`]).
    type Planes: planes::PlaneStore<Self>;

    /// Whether `Dec` actually differs from the stored bits — i.e. whether
    /// pre-decoding loop-invariant operands pays.
    const DECODED: bool;

    /// Which fused frame rounder the planes kernels may use for this
    /// format; `Generic` routes through `dec_add`/`dec_mul` per element.
    const ROUND: round::RoundPlan = round::RoundPlan::Generic;

    /// The element type the projected dense phase of the Krylov–Schur
    /// restart (`lpa_dense`'s `schur` and `reorder_schur`) runs at:
    /// [`Decoded<Self>`](crate::Decoded) for the posit and takum formats
    /// with an [`Unpacked`](crate::unpacked::Unpacked) operand form, `Self`
    /// for everything else.
    /// Both are bit-identical; this is a speed choice made per type, so
    /// the generic dense code is instantiated once per format.
    type Dense: BatchReal;

    /// Convert to the dense-phase element type (a decode for
    /// `Dense = Decoded<Self>`, the identity otherwise).
    fn to_dense(self) -> Self::Dense;

    /// Convert back from the dense-phase element type (exact).
    fn from_dense(d: Self::Dense) -> Self;

    /// Decode once (the cache fill).
    fn dec(self) -> Self::Dec;

    /// Encode a decoded value back to its bit pattern.  Exact: decoded
    /// values are always on the format's grid.
    fn undec(d: Self::Dec) -> Self;

    /// Decoded-domain addition — bit-identical to the scalar `+`.
    fn dec_add(a: Self::Dec, b: Self::Dec) -> Self::Dec;

    /// Decoded-domain multiplication — bit-identical to the scalar `*`.
    fn dec_mul(a: Self::Dec, b: Self::Dec) -> Self::Dec;

    /// Decoded-domain negation — bit-identical to the scalar `-x`.
    fn dec_neg(a: Self::Dec) -> Self::Dec;

    /// Whether a decoded value is (any) zero, matching `Real::is_zero`.
    fn dec_is_zero(a: Self::Dec) -> bool;
}

/// The [`BatchReal`] items (expanded inside an `impl BatchReal` block) of
/// a type whose decoded form is itself: its scalar operators are already
/// a table load, a hardware instruction or (for [`crate::Decoded`]) a
/// decoded-domain op, so there is nothing to pre-decode.
macro_rules! self_batch_items {
    ($t:ty) => {
        type Dec = $t;
        type Planes = $crate::batch::planes::ScalarPlanes<$t>;
        type Dense = $t;
        const DECODED: bool = false;

        #[inline(always)]
        fn dec(self) -> $t {
            self
        }
        #[inline(always)]
        fn undec(d: $t) -> $t {
            d
        }
        #[inline(always)]
        fn dec_add(a: $t, b: $t) -> $t {
            a + b
        }
        #[inline(always)]
        fn dec_mul(a: $t, b: $t) -> $t {
            a * b
        }
        #[inline(always)]
        fn dec_neg(a: $t) -> $t {
            -a
        }
        #[inline(always)]
        fn dec_is_zero(a: $t) -> bool {
            a.is_zero()
        }
        #[inline(always)]
        fn to_dense(self) -> $t {
            self
        }
        #[inline(always)]
        fn from_dense(d: $t) -> $t {
            d
        }
    };
}
pub(crate) use self_batch_items;

/// Implements [`BatchReal`] with `Dec = Self` for formats whose scalar
/// operators are already a table load or a hardware instruction.
macro_rules! self_batch {
    ($($t:ty),* $(,)?) => {$(
        impl BatchReal for $t {
            self_batch_items!($t);
        }
    )*};
}

self_batch!(
    f32,
    f64,
    crate::dd::Dd,
    crate::types::E4M3,
    crate::types::E5M2,
    crate::types::Posit8,
    crate::types::Posit8Es0,
    crate::types::Takum8,
);

/// A vector of scalars alongside their pre-decoded shadow forms, kept in
/// sync — the ready-made owner for callers building their own operand
/// caches for the bulk kernels.  (The workspace's internal caches manage
/// the two sides separately for their specific access patterns:
/// `CsrDecoded` pairs the shadow array with the full CSR structure, and
/// the Krylov workspace defers its bit-side encodes to the end of each
/// step.)
#[derive(Clone, Debug)]
pub struct DecodedSlice<T: BatchReal> {
    bits: Vec<T>,
    dec: Vec<T::Dec>,
}

impl<T: BatchReal> DecodedSlice<T> {
    /// Decode every element of `xs` once.
    pub fn decode(xs: &[T]) -> DecodedSlice<T> {
        DecodedSlice { bits: xs.to_vec(), dec: decode_slice(xs) }
    }

    pub fn len(&self) -> usize {
        self.bits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The encoded (bit-pattern) side.
    pub fn bits(&self) -> &[T] {
        &self.bits
    }

    /// The decoded shadow side.
    pub fn dec(&self) -> &[T::Dec] {
        &self.dec
    }

    /// Overwrite element `i` on both sides.
    pub fn set(&mut self, i: usize, value: T) {
        self.bits[i] = value;
        self.dec[i] = value.dec();
    }
}

/// Decode a slice once (the cache-fill primitive).
pub fn decode_slice<T: BatchReal>(xs: &[T]) -> Vec<T::Dec> {
    xs.iter().map(|&x| x.dec()).collect()
}

/// Decode a slice into an existing shadow buffer of the same length.
pub fn decode_slice_into<T: BatchReal>(xs: &[T], out: &mut [T::Dec]) {
    debug_assert_eq!(xs.len(), out.len());
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = x.dec();
    }
}

/// Encode a shadow slice into an existing bit buffer of the same length.
pub fn encode_slice_into<T: BatchReal>(dec: &[T::Dec], out: &mut [T]) {
    debug_assert_eq!(dec.len(), out.len());
    for (o, &d) in out.iter_mut().zip(dec) {
        *o = T::undec(d);
    }
}

/// Dot product over pre-decoded operands; bit-identical to
/// `lpa_dense::blas::dot` on the encoded values.  Returns the decoded
/// accumulator so chained consumers skip the re-decode; [`BatchReal::undec`]
/// recovers the bits.
pub fn dot_decoded<T: BatchReal>(x: &[T::Dec], y: &[T::Dec]) -> T::Dec {
    debug_assert_eq!(x.len(), y.len());
    // Fault point on the hottest kernel, one per *call* (not per element):
    // disarmed this is a single relaxed atomic load, which the bench suite
    // guards as within-noise against a kernel without the point.
    lpa_faults::stall(lpa_faults::SOLVER_STALL);
    let mut acc = T::zero().dec();
    for (a, b) in x.iter().zip(y) {
        acc = T::dec_add(acc, T::dec_mul(*a, *b));
    }
    acc
}

/// `y += alpha * x` over pre-decoded operands; bit-identical to
/// `lpa_dense::blas::axpy` (including its `alpha == 0` early-out).
pub fn axpy_decoded<T: BatchReal>(alpha: T::Dec, x: &[T::Dec], y: &mut [T::Dec]) {
    debug_assert_eq!(x.len(), y.len());
    if T::dec_is_zero(alpha) {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = T::dec_add(*yi, T::dec_mul(alpha, *xi));
    }
}

/// `x *= alpha` over pre-decoded operands; bit-identical to
/// `lpa_dense::blas::scal`.
pub fn scale_decoded<T: BatchReal>(alpha: T::Dec, x: &mut [T::Dec]) {
    for xi in x.iter_mut() {
        *xi = T::dec_mul(*xi, alpha);
    }
}

/// Dot product over encoded slices: pre-decodes the operands and runs the
/// decoded kernel when the batch engine is enabled and the format profits;
/// the plain scalar loop otherwise.  Bit-identical either way — this is the
/// routing point `lpa_dense::blas::dot` goes through.
pub fn dot_slice<T: BatchReal>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    if T::DECODED && kernel_batch_enabled() {
        T::undec(T::Planes::dot_bits(x, y))
    } else {
        let mut acc = T::zero();
        for (a, b) in x.iter().zip(y) {
            acc += *a * *b;
        }
        acc
    }
}

/// `y += alpha * x` over encoded slices with internal pre-decoding (see
/// [`dot_slice`]); the routing point of `lpa_dense::blas::axpy`.
pub fn axpy_slice<T: BatchReal>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    if alpha.is_zero() {
        return;
    }
    if T::DECODED && kernel_batch_enabled() {
        T::Planes::axpy_bits(alpha, x, y);
    } else {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * *xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Posit16, Posit32, Takum32};

    /// Serializes the tests that mutate the process-global engine knob —
    /// the unit tests run on parallel threads, and two mutators racing on
    /// the atomic would make the assertions flaky.
    static KNOB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn force_overrides_and_flips() {
        let _guard = KNOB_LOCK.lock().unwrap();
        force_kernel_batch(KernelBatch::Scalar);
        assert_eq!(kernel_batch(), KernelBatch::Scalar);
        assert!(!kernel_batch_enabled());
        force_kernel_batch(KernelBatch::Batch);
        assert_eq!(kernel_batch(), KernelBatch::Batch);
        assert!(kernel_batch_enabled());
    }

    #[test]
    fn parse_vocabulary() {
        assert_eq!("batch".parse::<KernelBatch>().unwrap(), KernelBatch::Batch);
        assert_eq!("on".parse::<KernelBatch>().unwrap(), KernelBatch::Batch);
        assert_eq!("1".parse::<KernelBatch>().unwrap(), KernelBatch::Batch);
        assert_eq!("scalar".parse::<KernelBatch>().unwrap(), KernelBatch::Scalar);
        assert_eq!("off".parse::<KernelBatch>().unwrap(), KernelBatch::Scalar);
        assert!("fast".parse::<KernelBatch>().is_err());
    }

    #[test]
    fn decoded_chain_matches_scalar_chain() {
        // A mul-add chain through the decoded domain, encoded once at the
        // end, must reproduce the scalar operator chain bit for bit.
        fn check<T: BatchReal>(values: &[f64]) {
            let xs: Vec<T> = values.iter().map(|&v| T::from_f64(v)).collect();
            let mut acc_scalar = T::one();
            let mut acc_dec = T::one().dec();
            for &x in &xs {
                acc_scalar = acc_scalar * x + T::from_f64(0.5);
                acc_dec = T::dec_add(
                    T::dec_mul(acc_dec, x.dec()),
                    T::from_f64(0.5).dec(),
                );
            }
            assert_eq!(
                T::undec(acc_dec).to_f64(),
                acc_scalar.to_f64(),
                "decoded chain diverged in {}",
                T::NAME
            );
        }
        let vals: Vec<f64> =
            (0..64).map(|i| (0.55 + (i % 13) as f64 * 0.075) * if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        check::<Posit16>(&vals);
        check::<Posit32>(&vals);
        check::<Takum32>(&vals);
        check::<f64>(&vals);
    }

    #[test]
    fn decoded_slice_stays_in_sync() {
        let xs: Vec<Posit32> = (0..8).map(|i| Posit32::from_f64(i as f64 * 0.3 - 1.0)).collect();
        let mut d = DecodedSlice::decode(&xs);
        assert_eq!(d.len(), 8);
        d.set(3, Posit32::from_f64(7.5));
        assert_eq!(d.bits()[3].to_f64(), 7.5);
        assert_eq!(Posit32::undec(d.dec()[3]).to_f64(), 7.5);
    }

    #[test]
    fn slice_ops_match_scalar_loops_both_engines() {
        let _guard = KNOB_LOCK.lock().unwrap();
        let x: Vec<Takum32> = (0..33).map(|i| Takum32::from_f64(0.1 * i as f64 - 1.6)).collect();
        let y: Vec<Takum32> = (0..33).map(|i| Takum32::from_f64(0.07 * i as f64 + 0.2)).collect();
        let scalar_dot = {
            let mut acc = Takum32::zero();
            for (a, b) in x.iter().zip(&y) {
                acc += *a * *b;
            }
            acc
        };
        for engine in [KernelBatch::Scalar, KernelBatch::Batch] {
            force_kernel_batch(engine);
            assert_eq!(dot_slice(&x, &y).to_bits(), scalar_dot.to_bits(), "{engine:?}");
            let alpha = Takum32::from_f64(-0.75);
            let mut y1 = y.clone();
            let mut y2 = y.clone();
            axpy_slice(alpha, &x, &mut y1);
            for (yi, xi) in y2.iter_mut().zip(&x) {
                *yi += alpha * *xi;
            }
            for (a, b) in y1.iter().zip(&y2) {
                assert_eq!(a.to_bits(), b.to_bits(), "{engine:?}");
            }
        }
        force_kernel_batch(KernelBatch::Batch);
    }
}
