//! # nbwp-sparse — sparse matrix substrate
//!
//! CSR/COO storage, the Gustavson row-row SpGEMM kernels of the paper's
//! Algorithms 2 and 3 (sequential and masked/HH variants with exact work
//! accounting), load-vector work estimation, family-matched matrix
//! generators, and the samplers of the Sample step.
//!
//! ```
//! use nbwp_sparse::{gen, spgemm, ops};
//!
//! let a = gen::uniform_random(200, 8, 42);
//! let c = spgemm::spgemm(&a, &a);
//! // The load vector predicts each row's multiply-add work exactly:
//! let load = ops::load_vector(&a, &a);
//! let profile = spgemm::row_profile(&a, &a);
//! assert_eq!(load[0], profile[0].b_entries);
//! assert_eq!(c.rows(), 200);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod coo;
mod csr;
pub mod curve;
pub mod delta;
pub mod features;
pub mod gen;
pub mod io;
pub mod masked;
pub mod ops;
pub mod sample;
pub mod spgemm;
pub mod spmv;

pub use coo::Coo;
pub use csr::{Csr, CsrError};
pub use curve::SpmmCostCurve;
