//! Connected-components kernels: the CPU algorithm (DFS), the GPU algorithm
//! (Shiloach–Vishkin), a BFS cross-check, the union-find oracle, and the
//! paper's hybrid Algorithm 1 combining them.

pub mod bfs;
pub mod dfs;
pub mod hybrid;
pub mod profile;
pub mod sv;
pub mod union_find;

pub use bfs::{cc_bfs, BfsOutcome};
pub use dfs::{cc_dfs, cc_dfs_chunked, dfs_band_cost, DfsOutcome, DfsPrefixCost};
pub use hybrid::{hybrid_cc, HybridCcOutcome};
pub use profile::{CcCostCurve, CcCostProfile};
pub use sv::{cc_sv, sv_band_counts, sv_stats_closed_form, SvOutcome};
pub use union_find::{cc_union_find, UnionFind};
