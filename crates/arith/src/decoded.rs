//! [`Decoded<T>`]: a scalar of format `T` held in its decoded
//! ([`Unpacked`]) form, implementing [`Real`] itself.
//!
//! Every op of an emulated format pays decode → kernel → round → encode.
//! Inside a long chain of ops on a small working set — the projected dense
//! Schur phase of the Krylov–Schur restart is thousands of Householder and
//! Givens updates on a 25×25 matrix — the decode and encode halves are pure
//! overhead.  `Decoded<T>` drops them: each op is the shared soft-float
//! kernel followed by `T`'s value-level rounder
//! ([`UnpackedReal::round_value`], i.e. `decode(encode(u))` without the bit
//! pattern), so a chain of ops never touches the storage word.  Generic
//! code (`lpa_dense::schur` and friends) simply runs at `Decoded<T>`
//! instead of `T`; its bodies are not duplicated.
//!
//! **Bit-identical to `T`** op for op: `T::undec(op(dec(a), dec(b)))` equals
//! `op(a, b)` bit for bit, comparisons and classification agree, and
//! `to_f64` is the same value.  `tests/decoded_conformance.rs` checks every
//! op against `T`'s scalar op over the boundary corpora and random pairs.
//!
//! Which formats actually run their dense phase decoded is a per-type
//! choice, [`BatchReal::Dense`]: the posit and takum formats do, the IEEE
//! 16-bit formats do not (their rounder is a full encode + decode, so the
//! decoded form measured slower), and formats whose ops are a table load or
//! an instruction have nothing to gain.

use core::cmp::Ordering;
use core::fmt;
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::batch::BatchReal;
use crate::ieee::pack_f64;
use crate::real::Real;
use crate::softfloat;
use crate::unpacked::Unpacked;

/// A format whose decoded operand form is [`Unpacked`], together with its
/// value-level rounder — the one hook [`Decoded`] and the format's own
/// decoded-domain kernels ([`BatchReal::dec_add`] & co.) need.
pub trait UnpackedReal: BatchReal<Dec = Unpacked> {
    /// Round an unrounded kernel result onto this format's grid, returning
    /// the canonical decoded form of the rounded value: exactly
    /// `decode(encode(u))` (see [`crate::batch::round`]).
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
    /// `T::dec` or `T::round_value` returns).
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
        Self::from_dec(x.dec())
    }

    /// Encode back to `T` (exact: decoded values are on `T`'s grid).
    #[inline]
    pub fn encode(self) -> T {
        T::undec(self.u)
    }

    #[inline]
    fn rounded(u: &Unpacked) -> Self {
        Self::from_dec(T::round_value(u))
    }
}

macro_rules! decoded_ops {
    ($($op_trait:ident $op_fn:ident $kernel:ident $assign_trait:ident $assign_fn:ident;)*) => {$(
        impl<T: UnpackedReal> $op_trait for Decoded<T> {
            type Output = Self;
            #[inline]
            fn $op_fn(self, o: Self) -> Self {
                Self::rounded(&softfloat::$kernel(&self.u, &o.u))
            }
        }
        impl<T: UnpackedReal> $assign_trait for Decoded<T> {
            #[inline]
            fn $assign_fn(&mut self, o: Self) {
                *self = $op_trait::$op_fn(*self, o);
            }
        }
    )*};
}

decoded_ops! {
    Add add add AddAssign add_assign;
    Sub sub sub SubAssign sub_assign;
    Mul mul mul MulAssign mul_assign;
    Div div div DivAssign div_assign;
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

/// `Decoded<T>` is already decoded: its operand form is itself, and its
/// dense phase runs at itself.
impl<T: UnpackedReal> BatchReal for Decoded<T> {
    crate::batch::self_batch_items!(Self);
}
