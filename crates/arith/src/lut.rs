//! Lookup-table arithmetic backend for the narrow formats.
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
//! pairs per operation.
//!
//! For the 16-bit formats a full binary table would be 8 GiB, but 64 Ki ×
//! entry tables are still cheap: a `f64` *decode* table (512 KiB,
//! [`Decode16`]) removes the full unpack from `to_f64`, comparisons and
//! zero/NaN classification, and the *unpack-once* tables ([`Lut16`]) map
//! every bit pattern straight to its [`Unpacked`] form plus precomputed
//! results for the unary ops — so binary ops skip both operand decodes and
//! only pay the soft-float core for the combine/round/encode step, and
//! unary ops (`neg`/`abs`/`sqrt`/`recip`) become a single indexed load.
//! The reference path stays callable as the formats' `softfloat_*` methods.
//!
//! Backend tiers after this module (see README):
//!
//! | tier          | formats                | binary ops          | unary ops  | decode/compare |
//! |---------------|------------------------|---------------------|------------|----------------|
//! | LUT           | all 8-bit              | table               | table      | table          |
//! | unpack-once   | all 16-bit             | table + round/encode| table      | table          |
//! | soft-float    | 32/64-bit posit, takum | soft-float          | soft-float | unpack         |
//! | native        | f32, f64 (+ Dd pairs)  | hardware            | hardware   | hardware       |

use crate::ieee::pack_f64;
use crate::softfloat;
use crate::unpacked::Unpacked;

/// Number of bit patterns of an 8-bit format.
const N8: usize = 1 << 8;
/// Number of operand pairs of an 8-bit format.
const N8X8: usize = 1 << 16;
/// Number of bit patterns of a 16-bit format.
const N16: usize = 1 << 16;

/// One lazily-built static table per expansion site. Rust shares a `static`
/// inside a *generic* function across all instantiations, so per-format
/// tables must come from a macro expansion; this helper keeps the
/// `OnceLock` boilerplate in one place so adding a table tier to a backend
/// macro is a one-liner.
macro_rules! format_table {
    ($table:ty, $build:expr) => {{
        static TABLE: std::sync::OnceLock<$table> = std::sync::OnceLock::new();
        TABLE.get_or_init($build)
    }};
}
pub(crate) use format_table;

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

/// `bits → f64` decode table for one 16-bit format.
///
/// Every value of every 16-bit format in this crate (≤ 12 significand bits,
/// |exponent| ≤ 254) is exactly representable in `f64`, so decoding through
/// the table is lossless and `f64` comparison semantics coincide with the
/// format's own (`NaN`/NaR unordered, zeros equal).
pub struct Decode16 {
    to_f64: Box<[f64; N16]>,
}

impl Decode16 {
    pub fn build(decode: impl Fn(u16) -> Unpacked) -> Decode16 {
        let mut table = vec![0.0f64; N16].into_boxed_slice();
        for (bits, slot) in table.iter_mut().enumerate() {
            *slot = pack_f64(&decode(bits as u16));
        }
        Decode16 { to_f64: table.try_into().expect("length is N16") }
    }

    #[inline(always)]
    pub fn decode(&self, a: u16) -> f64 {
        self.to_f64[a as usize]
    }
}

/// Unpack-once tables for one 16-bit format: every bit pattern mapped to
/// its [`Unpacked`] form (so binary ops skip both operand decodes and only
/// run the soft-float combine/round/encode step) plus full result tables
/// for the unary operations (a single indexed load each).
///
/// ~1.5 MiB for the unpack table plus 4 × 128 KiB for the unary tables per
/// format, built once on first use.  Like [`Lut8`], the tables are
/// generated **from the soft-float path itself**, so they cannot disagree
/// with the reference implementation; `tests/dec16_exhaustive.rs` verifies
/// the unary tables exhaustively and `tests/proptests.rs` verifies the
/// binary fast path differentially.
pub struct Lut16 {
    unpack: Box<[Unpacked; N16]>,
    neg: Box<[u16; N16]>,
    abs: Box<[u16; N16]>,
    sqrt: Box<[u16; N16]>,
    recip: Box<[u16; N16]>,
}

impl Lut16 {
    /// Generate the tables from a format codec.
    ///
    /// The per-entry procedures mirror `types.rs`'s soft-float operator
    /// implementations step for step (and `recip` mirrors the
    /// `Real::recip` default `one / x`, `one` included its
    /// decode(encode(..)) round trip), which is what makes the backend
    /// bit-identical by construction.
    pub fn build(decode: impl Fn(u16) -> Unpacked, encode: impl Fn(&Unpacked) -> u16) -> Lut16 {
        let one = decode(encode(&crate::ieee::unpack_f64(1.0)));

        let mut lut = Lut16 {
            unpack: boxed(Unpacked::zero(false)),
            neg: boxed(0),
            abs: boxed(0),
            sqrt: boxed(0),
            recip: boxed(0),
        };
        for bits in 0..N16 {
            let u = decode(bits as u16);
            lut.unpack[bits] = u;
            lut.neg[bits] = {
                let mut n = u;
                if !n.is_nan() {
                    n.sign = !n.sign;
                }
                encode(&n)
            };
            lut.abs[bits] = {
                let mut a = u;
                a.sign = false;
                encode(&a)
            };
            lut.sqrt[bits] = encode(&softfloat::sqrt(&u));
            lut.recip[bits] = encode(&softfloat::div(&one, &u));
        }
        lut
    }

    /// The decoded form of a bit pattern — exactly what the codec's
    /// `decode` returns for it.
    #[inline(always)]
    pub fn unpack(&self, a: u16) -> &Unpacked {
        &self.unpack[a as usize]
    }

    #[inline(always)]
    pub fn neg(&self, a: u16) -> u16 {
        self.neg[a as usize]
    }

    #[inline(always)]
    pub fn abs(&self, a: u16) -> u16 {
        self.abs[a as usize]
    }

    #[inline(always)]
    pub fn sqrt(&self, a: u16) -> u16 {
        self.sqrt[a as usize]
    }

    #[inline(always)]
    pub fn recip(&self, a: u16) -> u16 {
        self.recip[a as usize]
    }
}
