//! # nbwp-dense — dense matrix substrate
//!
//! Dense GEMM kernels (naive and cache-blocked) and the row-split hybrid
//! GEMM of the paper's Fig. 1 motivating study: a *regular* workload where
//! FLOPS-proportional static partitioning is already near-optimal, in
//! contrast to the irregular case studies.
//!
//! ```
//! use nbwp_dense::{DenseMatrix, gemm::gemm, hybrid::hybrid_gemm_cost};
//! use nbwp_sim::Platform;
//!
//! let a = DenseMatrix::random(32, 32, 7);
//! let c = gemm(&a, &a);
//! assert_eq!(c.rows(), 32);
//! let report = hybrid_gemm_cost(1024, 1024, 1024, 12.0, &Platform::k40c_xeon_e5_2650());
//! assert!(report.total().as_secs() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod gemm;
pub mod hybrid;
mod matrix;

pub use matrix::DenseMatrix;
