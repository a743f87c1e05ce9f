//! # lpa-arith — machine number formats for the low-precision Arnoldi study
//!
//! This crate provides every scalar format evaluated by the paper
//! *"Numerical Performance of the Implicitly Restarted Arnoldi Method in
//! OFP8, Bfloat16, Posit, and Takum Arithmetics"* behind a single generic
//! [`Real`] trait:
//!
//! * OFP8 [`E4M3`](types::E4M3) and [`E5M2`](types::E5M2),
//! * IEEE 754 [`F16`](types::F16) (binary16) and Google [`Bf16`](types::Bf16),
//! * native `f32` / `f64`,
//! * posits ([`Posit8`](types::Posit8) … [`Posit64`](types::Posit64),
//!   2022 standard, es = 2),
//! * linear takums ([`Takum8`](types::Takum8) … [`Takum64`](types::Takum64)),
//! * the double-double reference type [`Dd`] standing in for the paper's
//!   `float128`.
//!
//! All emulated formats share one integer soft-float kernel
//! ([`softfloat`]) operating on a format-independent unpacked representation
//! ([`unpacked::Unpacked`]); the per-format codecs ([`ieee`], [`posit`],
//! [`takum`]) only decode bit patterns and perform the final rounding.  This
//! makes every operation correctly rounded and bit-reproducible, including
//! for the 64-bit tapered formats whose significands do not fit in `f64`.
//! The 8-bit formats serve that kernel's results from tables ([`lut`]), and
//! float16 and bfloat16 compute them on the host's binary32 unit with one
//! final rounding, which gives the same bits ([`types`]).
//!
//! ```
//! use lpa_arith::{Real, types::{Posit16, Takum16, Bf16}};
//!
//! fn hypot<T: Real>(a: T, b: T) -> T {
//!     (a * a + b * b).sqrt()
//! }
//!
//! assert_eq!(hypot(Posit16::from_f64(3.0), Posit16::from_f64(4.0)).to_f64(), 5.0);
//! assert_eq!(hypot(Takum16::from_f64(3.0), Takum16::from_f64(4.0)).to_f64(), 5.0);
//! assert_eq!(hypot(Bf16::from_f64(3.0), Bf16::from_f64(4.0)).to_f64(), 5.0);
//! ```

pub mod dd;
pub mod decoded;
mod fused;
pub mod ieee;
pub mod info;
pub mod lut;
pub mod numerics_versions;
pub mod posit;
pub mod real;
pub mod round;
pub mod softfloat;
pub mod takum;
pub mod tapered;
pub mod types;
pub mod unpacked;

pub use dd::Dd;
pub use decoded::{Decoded, UnpackedReal};
pub use info::FormatInfo;
pub use real::Real;
pub use types::{
    Bf16, E4M3, E5M2, F16, Posit16, Posit16Es1, Posit32, Posit64, Posit8, Posit8Es0, Takum16,
    Takum32, Takum64, Takum8,
};
