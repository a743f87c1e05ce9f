//! Fused combine-and-round for the tapered formats: the add/sub/mul of
//! [`crate::Decoded`] when the format's [`RoundPlan`] is `Posit` or `Takum`.
//!
//! The reference op computes a 128-bit kernel frame, truncates-and-jams it
//! into a canonical 64-bit significand plus a sticky flag
//! ([`Unpacked::from_frame`]), and rounds that to the format's fraction
//! length ([`crate::round`]).  The fused ops compute the combine stage
//! without the general frame and round its parts **directly** at the target
//! fraction position.  This is exactly equal, not approximately:
//! `from_frame` performs no rounding, so with `drop >= 1` bits falling
//! below the fraction, the two-step round bit is a frame bit above the
//! 64-bit truncation boundary, and the two-step sticky (low frame bits
//! OR-ed together) contributes to the fused comparison `rem > half` /
//! `rem == half` in precisely the same way: writing the dropped frame bits
//! as `rem = rem64 * 2^k + low`, `rem > half  <=>  rem64 > half64 ||
//! (rem64 == half64 && low != 0)`, which is the two-step's
//! `rem64 > half64 || (rem64 == half64 && sticky)` tie path.
//! `tests/decoded_conformance.rs` asserts the equality against `T`'s own
//! operators over the boundary corpora and random operands.
//!
//! Operands are canonical decoded values of a tapered format, so their
//! classes are Zero (unsigned), Finite or NaN — never Inf, since both
//! decoders map NaR to NaN and the rounders saturate.  Finite pairs take
//! the fused path, pairs with a zero take a short select, and NaN operands
//! (plus the IEEE plan as a whole) fall back to kernel + `round_value`.
//! Operands pass by value: behind references they were spilled to the
//! stack and reloaded around every op (an axpy measured ~1.7× slower).

use crate::decoded::UnpackedReal;
use crate::posit::PositSpec;
use crate::round::{round_finite_at, saturated, RoundPlan};
use crate::softfloat;
use crate::takum::TakumSpec;
use crate::unpacked::{Class, Unpacked};

/// The normalized result of a combine stage before rounding: `sig` with
/// its leading bit at 63 (or zero for an exact cancellation), plus the
/// sticky OR of every true result bit below it.  Equivalent to
/// [`Unpacked::from_frame`]'s output, computed without touching `u128`
/// outside the multiply itself: because canonical significands carry at
/// least four zero low bits and the round position always sits above the
/// 64-bit window when anything was shifted out (see the module docs), the
/// below-window bits only ever matter as the sticky flag.
struct Parts {
    sign: bool,
    exp: i32,
    sig: u64,
    sticky: bool,
}

/// Whether neither class is Inf or NaN (`Class` discriminants: Zero 0,
/// Finite 1, Inf 2, NaN 3).
#[inline(always)]
fn no_specials(a: Unpacked, b: Unpacked) -> bool {
    (a.class as u8 | b.class as u8) & 0b10 == 0
}

/// `a * b` of two finite values, unrounded.
#[inline(always)]
fn mul_parts(a: Unpacked, b: Unpacked) -> Parts {
    let prod = (a.sig as u128) * (b.sig as u128);
    let hi = (prod >> 64) as u64;
    let lo = prod as u64;
    // The product of two [1, 2) significands is in [1, 4): one
    // normalization case, selected branch-free.
    let c = (hi >> 63) as u32;
    let sig = if c == 1 { hi } else { (hi << 1) | (lo >> 63) };
    let sticky = (lo << (1 - c)) != 0;
    Parts {
        sign: a.sign ^ b.sign,
        exp: a.exp + b.exp + c as i32,
        sig,
        sticky,
    }
}

/// `a + b` of two finite values, unrounded (`sig == 0` ⇔ exact
/// cancellation).  Branch-free on the data-dependent decisions: the operand
/// swap and the sign mix flip ~randomly in real dot products, and a
/// mispredict costs more than the whole aligned add — both are computed as
/// selects instead.
#[inline(always)]
fn add_parts(a: Unpacked, b: Unpacked) -> Parts {
    // Order so `hi` has the larger magnitude.  The (exp, sig) lexicographic
    // compare (exactly `Unpacked::cmp_magnitude`) is one i128 key compare:
    // `exp * 2^64 + sig` is monotone in (exp, sig) for negative exponents
    // too.  Per-field selects keep the swap a cmov, not a branch.
    let ka = ((a.exp as i128) << 64) | a.sig as i128;
    let kb = ((b.exp as i128) << 64) | b.sig as i128;
    let swap = kb > ka;
    let hi_sign = if swap { b.sign } else { a.sign };
    let hi_exp = if swap { b.exp } else { a.exp };
    let hi_sig = if swap { b.sig } else { a.sig };
    let lo_exp = if swap { a.exp } else { b.exp };
    let lo_sig = if swap { a.sig } else { b.sig };

    let d = ((hi_exp - lo_exp) as u32).min(63);
    // One guard position: the pre-shift by 1 is exact (canonical sigs have
    // zero low bits) and leaves room for the same-sign carry.
    let h = hi_sig >> 1;
    let ls = (lo_sig >> 1) >> d;
    // The bits of `lo_sig` dropped by the total shift `d + 1`, jammed.
    let dropped = lo_sig << (63 - d);
    let sticky = dropped != 0;
    // Conditional two's-complement negate folds the same-sign /
    // opposite-sign split into one add (`(t ^ m) - m = -t` with `m`
    // all-ones); the dropped bits borrow out of the visible window on a
    // subtraction, never carry into it on an addition.  The difference
    // never wraps because `hi` has the larger magnitude.
    let differ = a.sign != b.sign;
    let m = (differ as u64).wrapping_neg();
    let t = ls + (sticky && differ) as u64;
    let sum = h.wrapping_add((t ^ m).wrapping_sub(m));
    if sum == 0 {
        // Exact cancellation (`sticky` is provably clear here: bits are
        // only ever dropped when the magnitudes differ by ≥ 2^4).
        return Parts {
            sign: false,
            exp: 0,
            sig: 0,
            sticky: false,
        };
    }
    let lz = sum.leading_zeros();
    Parts {
        sign: hi_sign,
        exp: hi_exp + 1 - lz as i32,
        sig: sum << lz,
        sticky,
    }
}

/// Fused posit round of an unrounded combine result — `round::posit`
/// applied to the parts directly, branch for branch.
#[inline(always)]
fn round_parts_posit(p: Parts, spec: &PositSpec) -> Unpacked {
    debug_assert!(p.sig != 0);
    let emax = spec.max_exp();
    if p.exp >= emax {
        return Unpacked::finite(p.sign, emax, 1 << 63);
    }
    if p.exp < -emax {
        return Unpacked::finite(p.sign, -emax, 1 << 63);
    }
    let regime = p.exp >> spec.es;
    let regime_len = ((regime ^ (regime >> 31)) + 2) as u32;
    let avail = (spec.bits - 1).saturating_sub(regime_len);
    if avail <= spec.es {
        return posit_round_defer(p, spec);
    }
    let frac_len = avail - spec.es;
    let (exp, sig) = round_finite_at(p.exp, p.sig, p.sticky, frac_len);
    Unpacked::finite(p.sign, exp, sig)
}

/// The parts as an unrounded kernel result.
#[inline(always)]
fn unrounded(p: Parts) -> Unpacked {
    Unpacked {
        class: Class::Finite,
        sign: p.sign,
        exp: p.exp,
        sig: p.sig,
        sticky: p.sticky,
    }
}

/// Truncated exponent field: defer to the reference composition, exactly
/// as `round::posit` does.  Outlined so the range extremes stay out of the
/// hot path.
#[cold]
#[inline(never)]
fn posit_round_defer(p: Parts, spec: &PositSpec) -> Unpacked {
    crate::posit::decode(crate::posit::encode(&unrounded(p), spec), spec)
}

/// `(spec.bits - 1).saturating_sub(4 + r(c))` — the fraction length a
/// takum's characteristic prefix leaves — for every in-range
/// characteristic, indexed by `c + 256`.  The exponent-to-shift-amount
/// arithmetic sits on the loop-carried dependency chain of every
/// accumulation (the rounded exponent feeds the next add's magnitude
/// compare), so one L1 load beats recomputing the `leading_zeros` tower
/// each round.
const fn takum_avail_table(bits: u32) -> [u8; 512] {
    let mut t = [0u8; 512];
    let mut i = 0usize;
    while i < 512 {
        let c = i as i32 - 256;
        if c >= TakumSpec::MIN_CHARACTERISTIC && c <= TakumSpec::MAX_CHARACTERISTIC {
            let a = (if c >= 0 { c + 1 } else { -c }) as u32;
            let r = 31 - a.leading_zeros();
            t[i] = (bits - 1).saturating_sub(4 + r) as u8;
        }
        i += 1;
    }
    t
}

/// One [`takum_avail_table`] per takum width, ordered by `bits.ilog2() - 3`.
static TAKUM_AVAIL: [[u8; 512]; 4] = [
    takum_avail_table(8),
    takum_avail_table(16),
    takum_avail_table(32),
    takum_avail_table(64),
];

/// Fused takum round of an unrounded combine result — `round::takum`
/// applied to the parts directly, branch for branch.
#[inline(always)]
fn round_parts_takum(p: Parts, spec: &TakumSpec) -> Unpacked {
    debug_assert!(p.sig != 0);
    if p.exp > TakumSpec::MAX_CHARACTERISTIC {
        return saturated(spec, spec.max_pattern(), p.sign);
    }
    if p.exp < TakumSpec::MIN_CHARACTERISTIC {
        return saturated(spec, spec.min_pattern(), p.sign);
    }
    let c = p.exp;
    // `spec` is always one of the four promoted spec consts here, so the
    // width match folds away after monomorphization; the arm recomputing
    // `r = floor(log2(c >= 0 ? c + 1 : -c))` inline keeps hypothetical
    // other widths correct.
    let avail = match spec.bits {
        8 => TAKUM_AVAIL[0][(c + 256) as usize] as u32,
        16 => TAKUM_AVAIL[1][(c + 256) as usize] as u32,
        32 => TAKUM_AVAIL[2][(c + 256) as usize] as u32,
        64 => TAKUM_AVAIL[3][(c + 256) as usize] as u32,
        bits => {
            let m = c >> 31;
            let a = ((c ^ m) - m) + (m + 1);
            let r = 31 - (a as u32).leading_zeros();
            (bits - 1).saturating_sub(4 + r)
        }
    };
    if avail == 0 {
        return takum_round_defer(p, spec);
    }
    let (exp, sig) = round_finite_at(p.exp, p.sig, p.sticky, avail);
    if exp > TakumSpec::MAX_CHARACTERISTIC {
        return saturated(spec, spec.max_pattern(), p.sign);
    }
    if exp == TakumSpec::MIN_CHARACTERISTIC && sig == 1 << 63 {
        // c = -255 with a zero fraction composes to the all-zeros word,
        // which the encoder clamps to the smallest pattern: takums never
        // represent 2^-255 exactly.
        return saturated(spec, spec.min_pattern(), p.sign);
    }
    Unpacked::finite(p.sign, exp, sig)
}

/// Zero-length fraction (range edge): defer to the reference composition,
/// exactly as `round::takum` does.  Outlined for the same reason as
/// [`posit_round_defer`].
#[cold]
#[inline(never)]
fn takum_round_defer(p: Parts, spec: &TakumSpec) -> Unpacked {
    crate::takum::decode(crate::takum::encode(&unrounded(p), spec), spec)
}

/// Outlined reference ops for the fused paths' rare branch (a NaN
/// operand), so the hot path stays compact.
#[cold]
#[inline(never)]
fn mul_slow<T: UnpackedReal>(a: Unpacked, b: Unpacked) -> Unpacked {
    T::round_value(&softfloat::mul(&a, &b))
}

#[cold]
#[inline(never)]
fn add_slow<T: UnpackedReal>(a: Unpacked, b: Unpacked) -> Unpacked {
    T::round_value(&softfloat::add(&a, &b))
}

/// `a + b` where at least one operand is zero and neither is Inf/NaN: the
/// finite operand unchanged (it is in-format, and rounding an in-format
/// value is the identity), or the tapered formats' single unsigned zero.
#[inline(always)]
fn add_zero(a: Unpacked, b: Unpacked) -> Unpacked {
    if a.class == Class::Finite {
        a
    } else if b.class == Class::Finite {
        b
    } else {
        Unpacked::zero(false)
    }
}

/// `round(a * b)` for `T`; bit-identical to `T::round_value(softfloat::mul(a, b))`.
#[inline(always)]
pub(crate) fn mul<T: UnpackedReal>(a: Unpacked, b: Unpacked) -> Unpacked {
    let finite = a.class == Class::Finite && b.class == Class::Finite;
    match T::ROUND {
        RoundPlan::Generic => T::round_value(&softfloat::mul(&a, &b)),
        RoundPlan::Posit(spec) if finite => round_parts_posit(mul_parts(a, b), spec),
        RoundPlan::Takum(spec) if finite => round_parts_takum(mul_parts(a, b), spec),
        // No Inf/NaN, so at least one operand is zero — and so is the
        // product (the tapered formats' zero is unsigned).
        RoundPlan::Posit(_) | RoundPlan::Takum(_) if no_specials(a, b) => Unpacked::zero(false),
        RoundPlan::Posit(_) | RoundPlan::Takum(_) => mul_slow::<T>(a, b),
    }
}

/// `round(a + b)` for `T`; bit-identical to `T::round_value(softfloat::add(a, b))`.
#[inline(always)]
pub(crate) fn add<T: UnpackedReal>(a: Unpacked, b: Unpacked) -> Unpacked {
    let finite = a.class == Class::Finite && b.class == Class::Finite;
    match T::ROUND {
        RoundPlan::Generic => T::round_value(&softfloat::add(&a, &b)),
        RoundPlan::Posit(spec) if finite => {
            let p = add_parts(a, b);
            // Exact cancellation rounds to the unsigned zero.
            if p.sig == 0 {
                Unpacked::zero(false)
            } else {
                round_parts_posit(p, spec)
            }
        }
        RoundPlan::Takum(spec) if finite => {
            let p = add_parts(a, b);
            if p.sig == 0 {
                Unpacked::zero(false)
            } else {
                round_parts_takum(p, spec)
            }
        }
        // Accumulators start at zero, so this is the hot first step of
        // every reduction chain.
        RoundPlan::Posit(_) | RoundPlan::Takum(_) if no_specials(a, b) => add_zero(a, b),
        RoundPlan::Posit(_) | RoundPlan::Takum(_) => add_slow::<T>(a, b),
    }
}

/// `round(a - b)` for `T`: [`add`] of `a` and the negated `b`, exactly as
/// `softfloat::sub` negates (NaN keeps its sign field).
#[inline(always)]
pub(crate) fn sub<T: UnpackedReal>(a: Unpacked, b: Unpacked) -> Unpacked {
    let mut nb = b;
    if nb.class != Class::Nan {
        nb.sign = !nb.sign;
    }
    add::<T>(a, nb)
}
