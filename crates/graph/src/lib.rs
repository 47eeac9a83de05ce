//! # nbwp-graph — graph substrate
//!
//! Undirected CSR graphs, the connected-components kernels of the paper's
//! Algorithm 1 (sequential DFS for the CPU, synchronous Shiloach–Vishkin
//! for the GPU, union–find as oracle), the hybrid algorithm itself, vertex
//! samplers, and dataset-family generators.
//!
//! ```
//! use nbwp_graph::{gen, cc};
//! use nbwp_sim::Platform;
//!
//! let g = gen::web(2_000, 6, 42);
//! let platform = Platform::k40c_xeon_e5_2650();
//! // 15% of vertices to the CPU, rest to the (simulated) GPU:
//! let out = cc::hybrid_cc(&g, 15.0, &platform);
//! assert!(out.components >= 1);
//! assert!(out.report.total().as_secs() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cc;
mod csr_graph;
pub mod delta;
pub mod features;
pub mod gen;
pub mod list;
pub mod sample;

pub use csr_graph::{count_components, normalize_labels, Graph};
