//! [`Decoded<T>`]: a scalar of format `T` held in its decoded
//! ([`Unpacked`]) form, implementing [`Real`] itself.
//!
//! Every op of an emulated format pays decode → kernel → round → encode.
//! Inside a long chain of ops on a working set that is re-read many times —
//! a whole Krylov–Schur solve: the SpMV over matrix values that never
//! change, Gram–Schmidt over the basis columns, thousands of Householder
//! and Givens updates in the projected Schur phase — the decode and encode
//! halves are pure overhead.  `Decoded<T>` drops them: add, sub and mul are
//! the fused combine-and-round of the `fused` module for the posit and takum
//! formats, and every other op is the shared soft-float kernel followed by
//! `T`'s value-level rounder ([`UnpackedReal::round_value`], i.e.
//! `decode(encode(u))` without the bit pattern), so a chain of ops never
//! touches the storage word.  Generic code (`lpa_arnoldi::partial_schur`,
//! `lpa_dense::schur` and friends) simply runs at `Decoded<T>` instead of
//! `T`; its bodies are not duplicated.
//!
//! **Bit-identical to `T`** op for op: `encode(op(decode(a), decode(b)))`
//! equals `op(a, b)` bit for bit, comparisons and classification agree,
//! and `to_f64` is the same value.  `tests/decoded_conformance.rs` checks
//! every op against `T`'s scalar op over the boundary corpora and random
//! pairs.
//!
//! The experiment pipeline runs the 16/32/64-bit posits and takums at
//! `Decoded<T>` end to end; formats whose ops are a table load or a few
//! instructions (the 8-bit formats, float16 and bfloat16 on the binary32
//! carrier, `f32`/`f64`, `Dd`) run at their own type.  For float16 and
//! bfloat16 the IEEE plan here — the soft-float kernel plus
//! [`crate::round::ieee`] — is the reference their carrier ops are tested
//! against (`decoded_conformance`, `batch_differential`, and the
//! `decoded_solve` and `decoded_spmv` suites of the solver crates).

use core::cmp::Ordering;
use core::fmt;
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::fused;
use crate::ieee::pack_f64;
use crate::real::Real;
use crate::round::RoundPlan;
use crate::softfloat;
use crate::unpacked::Unpacked;

/// A format whose decoded form is [`Unpacked`]: the codec bridge and the
/// rounding hooks [`Decoded`] runs on.
pub trait UnpackedReal: Real {
    /// Which fused combine-and-round [`Decoded`]'s add/sub/mul use
    /// (`Generic`: kernel + [`Self::round_value`]).
    const ROUND: RoundPlan;

    /// The canonical decoded form of this value.
    fn decode(self) -> Unpacked;

    /// Encode a canonical decoded value back to its bit pattern.  Exact:
    /// decoded values are always on the format's grid.
    fn encode(u: Unpacked) -> Self;

    /// Round an unrounded kernel result onto this format's grid, returning
    /// the canonical decoded form of the rounded value: exactly
    /// `decode(encode(u))` (see [`crate::round`]).
    fn round_value(u: &Unpacked) -> Unpacked;
}

/// A value of format `T` kept decoded; see the module docs.
#[derive(Clone, Copy)]
pub struct Decoded<T> {
    u: Unpacked,
    format: PhantomData<T>,
}

impl<T: UnpackedReal> Decoded<T> {
    /// Wrap an already-decoded value (it must be canonical, i.e. what
    /// `T::decode` or `T::round_value` returns).
    #[inline]
    pub fn from_dec(u: Unpacked) -> Self {
        Decoded {
            u,
            format: PhantomData,
        }
    }

    /// The decoded value.
    #[inline]
    pub fn into_dec(self) -> Unpacked {
        self.u
    }

    /// Decode a stored value.
    #[inline]
    pub fn decode(x: T) -> Self {
        Self::from_dec(x.decode())
    }

    /// Encode back to `T` (exact: decoded values are on `T`'s grid).
    #[inline]
    pub fn encode(self) -> T {
        T::encode(self.u)
    }

    #[inline]
    fn rounded(u: &Unpacked) -> Self {
        Self::from_dec(T::round_value(u))
    }
}

macro_rules! decoded_ops {
    ($(#[$inline:meta] $op_trait:ident $op_fn:ident $assign_trait:ident $assign_fn:ident =>
       |$a:ident, $b:ident| $body:expr;)*) => {$(
        impl<T: UnpackedReal> $op_trait for Decoded<T> {
            type Output = Self;
            #[$inline]
            fn $op_fn(self, o: Self) -> Self {
                let ($a, $b) = (self.u, o.u);
                Self::from_dec($body)
            }
        }
        impl<T: UnpackedReal> $assign_trait for Decoded<T> {
            #[$inline]
            fn $assign_fn(&mut self, o: Self) {
                *self = $op_trait::$op_fn(*self, o);
            }
        }
    )*};
}

// add/sub/mul are forced inline: a solve's inner loops (SpMV rows, dots,
// reflector updates) are chains of them, and an outlined call would pass
// every operand through memory.
decoded_ops! {
    #[inline(always)] Add add AddAssign add_assign => |a, b| fused::add::<T>(a, b);
    #[inline(always)] Sub sub SubAssign sub_assign => |a, b| fused::sub::<T>(a, b);
    #[inline(always)] Mul mul MulAssign mul_assign => |a, b| fused::mul::<T>(a, b);
    #[inline] Div div DivAssign div_assign => |a, b| T::round_value(&softfloat::div(&a, &b));
}

impl<T: UnpackedReal> Neg for Decoded<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        let mut n = self.u;
        if !n.is_nan() {
            n.sign = !n.sign;
        }
        // Exact for every canonical value; the round only canonicalizes
        // IEEE `-0` against the tapered formats' single zero.
        Self::rounded(&n)
    }
}

impl<T: UnpackedReal> PartialEq for Decoded<T> {
    #[inline]
    fn eq(&self, o: &Self) -> bool {
        self.u.partial_cmp_value(&o.u) == Some(Ordering::Equal)
    }
}

impl<T: UnpackedReal> PartialOrd for Decoded<T> {
    #[inline]
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        self.u.partial_cmp_value(&o.u)
    }
}

impl<T: UnpackedReal> fmt::Display for Decoded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl<T: UnpackedReal> fmt::Debug for Decoded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Decoded<{}>({:?})", T::NAME, self.encode())
    }
}

impl<T: UnpackedReal> Real for Decoded<T> {
    const NAME: &'static str = T::NAME;
    const BITS: u32 = T::BITS;

    #[inline]
    fn zero() -> Self {
        Self::decode(T::zero())
    }
    #[inline]
    fn one() -> Self {
        Self::decode(T::one())
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Self::decode(T::from_f64(x))
    }
    #[inline]
    fn to_f64(self) -> f64 {
        pack_f64(&self.u)
    }
    #[inline]
    fn abs(self) -> Self {
        let mut a = self.u;
        a.sign = false;
        Self::rounded(&a)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Self::rounded(&softfloat::sqrt(&self.u))
    }
    #[inline]
    fn is_nan(self) -> bool {
        self.u.is_nan()
    }
    #[inline]
    fn is_finite(self) -> bool {
        self.u.is_finite()
    }
    #[inline]
    fn is_zero(self) -> bool {
        self.u.is_zero()
    }
    fn epsilon() -> Self {
        Self::decode(T::epsilon())
    }
    fn max_finite() -> Self {
        Self::decode(T::max_finite())
    }
    fn min_positive() -> Self {
        Self::decode(T::min_positive())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Bf16, Posit16, Posit32, Takum32};

    #[test]
    fn decoded_chain_matches_scalar_chain() {
        // A mul-add chain kept decoded, encoded once at the end, must
        // reproduce the scalar operator chain bit for bit.
        fn check<T: UnpackedReal>(values: &[f64]) {
            let mut acc = T::one();
            let mut acc_dec = Decoded::<T>::one();
            for &v in values {
                let x = T::from_f64(v);
                acc = acc * x + T::from_f64(0.5);
                acc_dec = acc_dec * Decoded::decode(x) + Decoded::from_f64(0.5);
            }
            assert_eq!(acc_dec.encode().to_f64(), acc.to_f64(), "{}", T::NAME);
        }
        let vals: Vec<f64> = (0..64)
            .map(|i| (0.55 + (i % 13) as f64 * 0.075) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        check::<Posit16>(&vals);
        check::<Posit32>(&vals);
        check::<Takum32>(&vals);
        check::<Bf16>(&vals);
    }
}
