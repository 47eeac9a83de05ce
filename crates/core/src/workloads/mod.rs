//! Workload adapters, each implementing [`crate::framework`]'s traits: the
//! paper's three case studies (`cc`, `spmm`, and scale-free spmm in
//! `scalefree`), the dense-GEMM motivating workload (`dense`), and three
//! case studies beyond the paper (`spmv`, hybrid sorting in `sort`, and
//! list ranking in `list`). Multi-device splits need no workload of their
//! own: the cost curves of `cc`, `spmm` and `dense` price k-way device
//! bands.

pub mod cc;
pub mod dense;
pub mod list;
pub mod scalefree;
pub mod sort;
pub mod spmm;
pub mod spmv;

pub use cc::{CcSampler, CcWorkload};
pub use dense::DenseGemmWorkload;
pub use list::ListRankingWorkload;
pub use scalefree::{HhProfile, HhSampler, HhWorkload};
pub use sort::SortWorkload;
pub use spmm::{SpmmProfile, SpmmWorkload};
pub use spmv::SpmvWorkload;
