//! Operand corpora and comparison helpers shared by the arithmetic
//! conformance suites.

#![allow(dead_code)]

use lpa_arith::unpacked::{Class, Unpacked};
use lpa_arith::{types::*, Real};

/// Field-wise equality of two unpacked values (NaN compares equal to NaN).
pub fn same_unpacked(a: &Unpacked, b: &Unpacked) -> bool {
    if a.class != b.class {
        return false;
    }
    match a.class {
        Class::Nan => true,
        Class::Zero | Class::Inf => a.sign == b.sign,
        Class::Finite => {
            a.sign == b.sign && a.exp == b.exp && a.sig == b.sig && a.sticky == b.sticky
        }
    }
}

/// The 16-bit boundary corpus (the PR-3 shape: specials, ±0, max-finite /
/// min-positive neighbourhoods in both sign halves, subnormal edges, every
/// power-of-two regime/exponent-window boundary).
pub fn boundary_corpus_16() -> Vec<u16> {
    let mut pats: Vec<u16> = vec![
        0x0000, 0x0001, 0x0002, 0x8000, 0x8001, 0x8002, 0x00ff, 0x0100, 0x0380, 0x03ff, 0x0400,
        0x0401, 0x7bff, 0x7c00, 0x7c01, 0x7e00, 0x7f80, 0x7fc0, 0x7ffe, 0x7fff, 0xfbff, 0xfc00,
        0xfe00, 0xff80, 0xfffe, 0xffff,
    ];
    for k in 0..16u32 {
        let p = 1u16 << k;
        for q in [p, p.wrapping_sub(1), p.wrapping_add(1)] {
            pats.push(q);
            pats.push(q | 0x8000);
            pats.push(q.wrapping_neg());
        }
    }
    for bits in [
        F16::one().to_bits(),
        Bf16::one().to_bits(),
        Posit16::one().to_bits(),
        Takum16::one().to_bits(),
        F16::max_finite().to_bits(),
        Bf16::max_finite().to_bits(),
        Posit16::max_finite().to_bits(),
        Takum16::max_finite().to_bits(),
        F16::min_positive().to_bits(),
        Posit16::min_positive().to_bits(),
        Takum16::min_positive().to_bits(),
    ] {
        for p in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)] {
            pats.push(p);
            pats.push(p ^ 0x8000);
            pats.push(p.wrapping_neg());
        }
    }
    pats.sort_unstable();
    pats.dedup();
    pats
}

/// The 32-bit analog: the tapered formats' saturation patterns and every
/// regime/characteristic window boundary, in both sign halves.
pub fn boundary_corpus_32() -> Vec<u32> {
    let mut pats: Vec<u32> = vec![0x0000_0000, 0x0000_0001, 0x8000_0000, 0x8000_0001];
    for k in 0..32u32 {
        let p = 1u32 << k;
        for q in [p, p.wrapping_sub(1), p.wrapping_add(1)] {
            pats.push(q);
            pats.push(q | 0x8000_0000);
            pats.push(q.wrapping_neg());
        }
    }
    for bits in [
        Posit32::one().to_bits(),
        Takum32::one().to_bits(),
        Posit32::max_finite().to_bits(),
        Takum32::max_finite().to_bits(),
        Posit32::min_positive().to_bits(),
        Takum32::min_positive().to_bits(),
    ] {
        for p in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)] {
            pats.push(p);
            pats.push(p ^ 0x8000_0000);
            pats.push(p.wrapping_neg());
        }
    }
    pats.sort_unstable();
    pats.dedup();
    pats
}

/// The 64-bit analog for posit64/takum64: zero, NaR, the saturation
/// patterns and every regime/characteristic window boundary, in both sign
/// halves.
pub fn boundary_corpus_64() -> Vec<u64> {
    let mut pats: Vec<u64> = vec![0, 1, 1 << 63, (1 << 63) | 1];
    for k in 0..64u32 {
        let p = 1u64 << k;
        for q in [p, p.wrapping_sub(1), p.wrapping_add(1)] {
            pats.push(q);
            pats.push(q | (1 << 63));
            pats.push(q.wrapping_neg());
        }
    }
    for bits in [
        Posit64::one().to_bits(),
        Takum64::one().to_bits(),
        Posit64::max_finite().to_bits(),
        Takum64::max_finite().to_bits(),
        Posit64::min_positive().to_bits(),
        Takum64::min_positive().to_bits(),
    ] {
        for p in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)] {
            pats.push(p);
            pats.push(p ^ (1 << 63));
            pats.push(p.wrapping_neg());
        }
    }
    pats.sort_unstable();
    pats.dedup();
    pats
}
