//! # lpa-sparse — sparse matrices, graph IO and Laplacians
//!
//! The sparse-matrix substrate of the low-precision Arnoldi study:
//!
//! * [`coo::CooMatrix`] / [`csr::CsrMatrix`] — triplet and compressed sparse
//!   row storage, generic over [`lpa_arith::Real`], with SpMV,
//!   transposition, average symmetrization and conversion between formats,
//! * [`matrix_market`] — Matrix Market (`.mtx`) reader/writer (the
//!   SuiteSparse interchange format),
//! * [`edge_list`] — Network-Repository-style `.edges` reader with the
//!   paper's preprocessing fixes (comment skipping, label compaction,
//!   squareness padding),
//! * [`laplacian`] — symmetric normalized Laplacian construction (Eq. (1) of
//!   the paper),
//! * [`convert`] — range-checked conversion into a target format, producing
//!   the paper's `∞σ` classification when entries leave the representable
//!   range.

pub mod convert;
pub mod coo;
pub mod csr;
pub mod edge_list;
pub mod laplacian;
pub mod matrix_market;

pub use convert::{convert_checked, ConversionResult, RangeViolation};
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use edge_list::{read_edge_list, read_edge_list_str, EdgeList};
pub use laplacian::{combinatorial_laplacian, normalized_laplacian};
pub use matrix_market::{read_matrix_market, read_matrix_market_str, write_matrix_market};
