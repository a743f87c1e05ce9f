//! Feature versions this arithmetic crate implements.
//!
//! Each version names the numerics contract of one differential-suite-backed
//! subsystem. A PR that changes what a subsystem *computes* (not how fast)
//! must bump its constant here and mirror the bump in
//! `lpa_numerics::NumericsConfig::builtin`; the cross-check lives in
//! `lpa_experiments::numerics` so a one-sided bump fails loudly instead of
//! silently serving stale cached artifacts.
//!
//! The 16-bit formats have no subsystem of their own: like the 32/64-bit
//! formats they run on the soft-float kernel and the `Decoded<T>` rounders,
//! so `lpa_numerics`' retired `dec16_tables` feature has no constant here.

/// The shared integer soft-float kernel (`softfloat` module) every emulated
/// format rounds through.
pub const SOFTFLOAT_KERNEL: u32 = 1;

/// The value-level and fused rounders every `Decoded<T>` op rounds
/// through (`round` and `fused` modules).
pub const BATCH_ROUND: u32 = 1;

/// The 8-bit full-result lookup tables (`lut` module).
pub const LUT8_TABLES: u32 = 1;

/// The double-double reference arithmetic (`dd` module).
pub const DD_REFERENCE: u32 = 1;
