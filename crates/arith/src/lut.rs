//! Lookup-table arithmetic backend for the 8-bit formats.
//!
//! An 8-bit format has only 256 bit patterns, so *every* binary operation is
//! a function `u8 × u8 → u8` with 65 536 entries — small enough to
//! precompute and keep resident (64 KiB per operation, ~260 KiB per format
//! including the unary/decode tables).  The tables are generated **from the
//! soft-float path itself** the first time a format is used
//! ([`std::sync::OnceLock`]), so the LUT backend is correct by construction:
//! it cannot disagree with the decode → kernel → round reference
//! implementation it replaces, and the exhaustive equivalence tests in
//! `tests/lut_exhaustive.rs` verify exactly that for all 65 536 operand
//! pairs per operation.  The reference path stays callable as the formats'
//! `softfloat_*` methods.
//!
//! From 16 bits up a full binary table is out of reach (8 GiB at 16 bits).
//! float16 and bfloat16 run on the host's binary32 unit, rounding each
//! result once (exact, since binary32 has at least 2p + 2 significand bits;
//! see [`crate::types`]).  The posits and takums run the soft-float kernel
//! directly, and the experiment pipeline solves them at [`crate::Decoded`],
//! which keeps every operand decoded across a whole solve.
//!
//! Backend tiers (see README):
//!
//! | tier              | formats                          | binary ops      | unary ops       | decode/compare |
//! |-------------------|----------------------------------|-----------------|-----------------|----------------|
//! | LUT               | all 8-bit                        | table           | table           | table          |
//! | binary32 carrier  | float16, bfloat16                | f32 + one round | f32 / sign bit  | widen to f32   |
//! | soft-float        | 16/32/64-bit posit and takum     | soft-float      | soft-float      | unpack         |
//! | native            | f32, f64 (+ Dd pairs)            | hardware        | hardware        | hardware       |

use crate::ieee::pack_f64;
use crate::softfloat;
use crate::unpacked::Unpacked;

/// Number of bit patterns of an 8-bit format.
const N8: usize = 1 << 8;
/// Number of operand pairs of an 8-bit format.
const N8X8: usize = 1 << 16;

/// A heap-allocated fixed-size table (the larger tables would overflow the
/// stack as plain arrays).
fn boxed<T: Copy, const N: usize>(fill: T) -> Box<[T; N]> {
    match vec![fill; N].into_boxed_slice().try_into() {
        Ok(table) => table,
        Err(_) => unreachable!("the vec was built with length N"),
    }
}

/// Complete operation tables for one 8-bit format.
pub struct Lut8 {
    add: Box<[u8; N8X8]>,
    sub: Box<[u8; N8X8]>,
    mul: Box<[u8; N8X8]>,
    div: Box<[u8; N8X8]>,
    neg: [u8; N8],
    abs: [u8; N8],
    sqrt: [u8; N8],
    recip: [u8; N8],
    decode: [f64; N8],
}

impl Lut8 {
    /// Generate the tables from a format codec by running the shared
    /// soft-float kernel over every operand pattern (pair).
    ///
    /// The per-entry procedures mirror `types.rs`'s soft-float operator
    /// implementations step for step, which is what makes the backend
    /// bit-identical by construction.
    pub fn build(decode: impl Fn(u8) -> Unpacked, encode: impl Fn(&Unpacked) -> u8) -> Lut8 {
        let unpacked: Vec<Unpacked> = (0..N8).map(|bits| decode(bits as u8)).collect();
        // `one` goes through a decode(encode(..)) round trip exactly like
        // `Real::one()` (= `from_f64(1.0)`) does.
        let one = decode(encode(&crate::ieee::unpack_f64(1.0)));

        let mut lut = Lut8 {
            add: boxed(0),
            sub: boxed(0),
            mul: boxed(0),
            div: boxed(0),
            neg: [0; N8],
            abs: [0; N8],
            sqrt: [0; N8],
            recip: [0; N8],
            decode: [0.0; N8],
        };
        for a in 0..N8 {
            let ua = &unpacked[a];
            let base = a << 8;
            for (b, ub) in unpacked.iter().enumerate() {
                lut.add[base | b] = encode(&softfloat::add(ua, ub));
                lut.sub[base | b] = encode(&softfloat::sub(ua, ub));
                lut.mul[base | b] = encode(&softfloat::mul(ua, ub));
                lut.div[base | b] = encode(&softfloat::div(ua, ub));
            }
            lut.neg[a] = {
                let mut u = *ua;
                if !u.is_nan() {
                    u.sign = !u.sign;
                }
                encode(&u)
            };
            lut.abs[a] = {
                let mut u = *ua;
                u.sign = false;
                encode(&u)
            };
            lut.sqrt[a] = encode(&softfloat::sqrt(ua));
            lut.recip[a] = encode(&softfloat::div(&one, ua));
            lut.decode[a] = pack_f64(ua);
        }
        lut
    }

    #[inline(always)]
    pub fn add(&self, a: u8, b: u8) -> u8 {
        self.add[((a as usize) << 8) | b as usize]
    }

    #[inline(always)]
    pub fn sub(&self, a: u8, b: u8) -> u8 {
        self.sub[((a as usize) << 8) | b as usize]
    }

    #[inline(always)]
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        self.mul[((a as usize) << 8) | b as usize]
    }

    #[inline(always)]
    pub fn div(&self, a: u8, b: u8) -> u8 {
        self.div[((a as usize) << 8) | b as usize]
    }

    #[inline(always)]
    pub fn neg(&self, a: u8) -> u8 {
        self.neg[a as usize]
    }

    #[inline(always)]
    pub fn abs(&self, a: u8) -> u8 {
        self.abs[a as usize]
    }

    #[inline(always)]
    pub fn sqrt(&self, a: u8) -> u8 {
        self.sqrt[a as usize]
    }

    #[inline(always)]
    pub fn recip(&self, a: u8) -> u8 {
        self.recip[a as usize]
    }

    #[inline(always)]
    pub fn decode(&self, a: u8) -> f64 {
        self.decode[a as usize]
    }
}
