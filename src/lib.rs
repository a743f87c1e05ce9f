//! # lp-arnoldi — facade crate
//!
//! Re-exports the whole workspace behind one dependency, which is what the
//! examples and integration tests use:
//!
//! * [`arith`] — number formats (OFP8, float16, bfloat16, posits, takums,
//!   double-double) behind the [`arith::Real`] trait,
//! * [`dense`] — generic dense kernels (QR, Hessenberg, real Schur),
//! * [`sparse`] — CSR/COO matrices, Matrix Market / edge-list IO, normalized
//!   Laplacians, range-checked conversion,
//! * [`assign`] — Hungarian assignment,
//! * [`arnoldi`] — the Krylov–Schur implicitly restarted Arnoldi method,
//! * [`datagen`] — synthetic SuiteSparse / Network Repository substitute
//!   corpora,
//! * [`experiments`] — the paper's experiment pipeline and reporting,
//! * [`store`] — the persistent content-addressed experiment store that
//!   makes harness runs resumable and warm-startable,
//! * [`obs`] — the observability layer: metrics registry, tracing spans,
//!   and the `run_manifest/v2` JSON schema machinery,
//! * [`serve`] — the `lpa-serve` daemon/client: a long-running experiment
//!   service with admission control, backpressure and streaming progress.

pub use lpa_arith as arith;
pub use lpa_arnoldi as arnoldi;
pub use lpa_assign as assign;
pub use lpa_datagen as datagen;
pub use lpa_dense as dense;
pub use lpa_experiments as experiments;
pub use lpa_obs as obs;
pub use lpa_serve as serve;
pub use lpa_sparse as sparse;
pub use lpa_store as store;

pub use lpa_arith::{Dd, Real};
pub use lpa_arnoldi::{partial_schur, ArnoldiOptions, PartialSchur, Which};
pub use lpa_experiments::{ExperimentPlan, ProgressEvent, ProgressObserver, Session};
pub use lpa_sparse::CsrMatrix;
