//! # nbwp-sort — sorting substrate
//!
//! The paper's introduction motivates work partitioning with hand-crafted
//! heterogeneous algorithms "for several important problems from parallel
//! computing such as sorting \[3\]" (Banerjee, Sakurikar, Kothapalli: hybrid
//! comparison sort). This crate supplies that fourth workload: a counted
//! multiway **mergesort** (the CPU kernel), a counted LSD **radix sort**
//! (the GPU kernel — pass-skipping makes its cost input-dependent), and the
//! **hybrid sort** that splits the input at a threshold, sorts the two
//! pieces on their devices, and merges.
//!
//! ```
//! use nbwp_sort::{gen, hybrid::hybrid_sort};
//! use nbwp_sim::Platform;
//!
//! let data = gen::uniform(10_000, 42);
//! let out = hybrid_sort(&data, 30.0, &Platform::k40c_xeon_e5_2650());
//! assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cpu;
pub mod gen;
pub mod gpu;
pub mod hybrid;
