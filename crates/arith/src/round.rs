//! Value-level round-to-format: each function maps an unrounded kernel
//! output straight to the canonical decoded form of the rounded value —
//! exactly `decode(encode(u))`, without composing and re-reading the bit
//! pattern.  One function per codec family, named after the codec module so
//! the backend macros can route by codec ident.
//!
//! [`RoundPlan`] is the same routing made *data*: an associated constant on
//! [`crate::UnpackedReal`] that tells [`crate::Decoded`]'s add/sub/mul
//! which codec family rounds this format, so they can monomorphize a fused
//! combine-and-round over the kernel result (the `fused` module,
//! bit-identical to kernel-then-round) instead of materializing an
//! intermediate [`Unpacked`].

use crate::ieee::IeeeSpec;
use crate::posit::PositSpec;
use crate::takum::TakumSpec;
use crate::unpacked::{round_at, Class, Unpacked};

/// How a format's decoded-domain results are rounded, as data — consumed by
/// the `fused` module to pick a fused combine-and-round fast path.
#[derive(Clone, Copy, Debug)]
pub enum RoundPlan {
    /// No fused path: the kernel result goes through the format's
    /// value-level rounder (the IEEE-rounded formats, whose reference
    /// composition is already branch-and-shift).
    Generic,
    /// Posit tapered rounding against this spec.
    Posit(&'static PositSpec),
    /// Takum tapered rounding against this spec.
    Takum(&'static TakumSpec),
}

/// `RoundPlan` constructors named after the codec modules, so the backend
/// macros in `types.rs` can build the constant from their `$codec` ident.
pub mod plan {
    use super::*;

    pub const fn ieee(_spec: &'static IeeeSpec) -> RoundPlan {
        RoundPlan::Generic
    }

    pub const fn posit(spec: &'static PositSpec) -> RoundPlan {
        RoundPlan::Posit(spec)
    }

    pub const fn takum(spec: &'static TakumSpec) -> RoundPlan {
        RoundPlan::Takum(spec)
    }
}

/// Round a finite value to `frac_len >= 1` fraction bits (round to
/// nearest, ties to even on the fraction's least significant bit).
/// On a significand carry the value becomes exactly `2^(exp + 1)`;
/// range handling is the caller's.
#[inline]
pub(crate) fn round_finite_at(exp: i32, sig: u64, sticky: bool, frac_len: u32) -> (i32, u64) {
    debug_assert!((1..=62).contains(&frac_len));
    let (rsig, _inexact) = round_at(sig, sticky, 63 - frac_len);
    if rsig >> (frac_len + 1) != 0 {
        // Carry out of the fraction: the rounded value is the next
        // power of two (whose pattern the bit-level word increment
        // lands on, whatever field layout it has).
        (exp + 1, 1u64 << 63)
    } else {
        (exp, rsig << (63 - frac_len))
    }
}

/// Round to an IEEE-style format.  The encoder is branch-and-shift
/// (no per-bit loops), so the literal reference composition is already
/// the fast path.
#[inline]
pub fn ieee(u: &Unpacked, spec: &IeeeSpec) -> Unpacked {
    crate::ieee::decode(crate::ieee::encode(u, spec), spec)
}

/// Round to a posit format: saturation at `2^±max_exp`, otherwise
/// round at the fraction length the regime leaves for this exponent.
/// Near the boundaries (truncated exponent field, zero-length
/// fraction), where the bit-level tie rule inspects exponent/regime
/// bits, defer to the reference composition.
#[inline]
pub fn posit(u: &Unpacked, spec: &PositSpec) -> Unpacked {
    match u.class {
        Class::Nan | Class::Inf => return Unpacked::nan(),
        // Posits have a single unsigned zero.
        Class::Zero => return Unpacked::zero(false),
        Class::Finite => {}
    }
    let emax = spec.max_exp();
    if u.exp >= emax {
        // maxpos = 2^max_exp exactly.
        return Unpacked::finite(u.sign, emax, 1 << 63);
    }
    if u.exp < -emax {
        // minpos = 2^-max_exp exactly (non-zero values never round to
        // zero).
        return Unpacked::finite(u.sign, -emax, 1 << 63);
    }
    // Floor division by 2^es: an arithmetic shift, not an `idiv`.
    let regime = u.exp >> spec.es;
    // Branchless `if regime >= 0 { regime + 2 } else { -regime + 1 }`:
    // with m = regime >> 31, |regime| = (regime ^ m) - m and the +2/+1
    // asymmetry folds into the sign mask, leaving (regime ^ m) + 2.
    let regime_len = ((regime ^ (regime >> 31)) + 2) as u32;
    let avail = (spec.bits - 1).saturating_sub(regime_len);
    if avail <= spec.es {
        return crate::posit::decode(crate::posit::encode(u, spec), spec);
    }
    let frac_len = avail - spec.es;
    let (exp, sig) = round_finite_at(u.exp, u.sig, u.sticky, frac_len);
    // A carry lands on 2^(exp + 1) <= 2^max_exp = maxpos: always
    // representable.
    Unpacked::finite(u.sign, exp, sig)
}

/// Round to a takum format: saturation against the (fraction-bearing)
/// extreme patterns, otherwise round at the fraction length the
/// characteristic's prefix leaves.  Zero-length fractions (takum8 near
/// the range edges) defer to the reference composition.
#[inline]
pub fn takum(u: &Unpacked, spec: &TakumSpec) -> Unpacked {
    match u.class {
        Class::Nan | Class::Inf => return Unpacked::nan(),
        // Takums have a single unsigned zero.
        Class::Zero => return Unpacked::zero(false),
        Class::Finite => {}
    }
    if u.exp > TakumSpec::MAX_CHARACTERISTIC {
        return saturated(spec, spec.max_pattern(), u.sign);
    }
    if u.exp < TakumSpec::MIN_CHARACTERISTIC {
        return saturated(spec, spec.min_pattern(), u.sign);
    }
    let c = u.exp;
    let r = if c >= 0 {
        63 - ((c + 1) as u64).leading_zeros()
    } else {
        63 - ((-c) as u64).leading_zeros()
    };
    let avail = (spec.bits - 1).saturating_sub(4 + r);
    if avail == 0 {
        return crate::takum::decode(crate::takum::encode(u, spec), spec);
    }
    let (exp, sig) = round_finite_at(u.exp, u.sig, u.sticky, avail);
    if exp > TakumSpec::MAX_CHARACTERISTIC {
        // Carry out of the top characteristic: the bit-level word
        // increment overflows the body and clamps to the largest
        // pattern.
        return saturated(spec, spec.max_pattern(), u.sign);
    }
    if exp == TakumSpec::MIN_CHARACTERISTIC && sig == 1 << 63 {
        // c = -255 with a zero fraction composes to the all-zeros word,
        // which the encoder clamps to the smallest pattern: takums
        // never represent 2^-255 exactly.
        return saturated(spec, spec.min_pattern(), u.sign);
    }
    Unpacked::finite(u.sign, exp, sig)
}

/// The decoded form of a saturation pattern with the operand's sign
/// (the extreme takum patterns carry fraction bits, so they are decoded
/// rather than reconstructed).  Cold path: only reached outside
/// `[min, max]` characteristic range.
#[cold]
pub(crate) fn saturated(spec: &TakumSpec, pattern: u64, sign: bool) -> Unpacked {
    let mut u = crate::takum::decode(pattern, spec);
    u.sign = sign;
    u
}
