//! The paper's Algorithm 1: hybrid CPU+GPU connected components.
//!
//! Phase I partitions `G` at a threshold `t ∈ [0, 100]`: the first
//! `n·t/100` vertices (and their internal edges) form `G_CPU`, the rest
//! `G_GPU`; edges with one endpoint on each side are *cross edges*.
//! Phase II runs chunked sequential DFS on `G_CPU` (one chunk per CPU
//! thread) overlapped with Shiloach–Vishkin on `G_GPU`, then merges the
//! per-device components through the cross edges on the GPU (line 9).
//!
//! Every phase executes for real (labels are verified against union–find in
//! the tests) while its counters are priced by the [`Platform`] models into
//! a deterministic [`RunReport`].

use nbwp_sim::{percent_split, BandWork, KernelStats, Platform, RunReport};

use crate::cc::dfs::cc_dfs_chunked;
use crate::cc::sv::cc_sv;
use crate::cc::union_find::UnionFind;
use crate::Graph;

/// Outcome of one hybrid CC run at a fixed threshold.
#[derive(Clone, Debug)]
pub struct HybridCcOutcome {
    /// Global per-vertex component labels (component = smallest vertex id).
    pub labels: Vec<u32>,
    /// Number of connected components.
    pub components: usize,
    /// Timing + counters of the run.
    pub report: RunReport,
    /// Shiloach–Vishkin rounds the GPU side needed (0 if GPU side empty).
    pub sv_rounds: u32,
    /// Number of cross edges processed by the merge step.
    pub cross_edges: usize,
}

/// Runs Algorithm 1 on `g` with CPU share `t_pct` (percentage of vertices
/// given to the CPU, the paper's threshold `t`).
///
/// ```
/// use nbwp_graph::{gen, cc::hybrid_cc};
/// use nbwp_sim::Platform;
/// let g = gen::web(1_000, 5, 1);
/// let out = hybrid_cc(&g, 20.0, &Platform::k40c_xeon_e5_2650());
/// assert!(out.components >= 1);
/// ```
///
/// # Panics
/// Panics if `t_pct` is outside `[0, 100]`.
#[must_use]
pub fn hybrid_cc(g: &Graph, t_pct: f64, platform: &Platform) -> HybridCcOutcome {
    let n = g.n();
    let n_cpu = percent_split(n, t_pct);

    // --- Phase I: partition (host-side streaming pass over the edges).
    let (g_cpu, cross) = g.vertex_interval_subgraph(0, n_cpu);
    let (g_gpu, _) = g.vertex_interval_subgraph(n_cpu, n);
    let partition_stats = KernelStats {
        int_ops: g.arcs() as u64,
        mem_read_bytes: 4 * g.arcs() as u64 + 8 * (n as u64 + 1),
        mem_write_bytes: 4 * g.arcs() as u64,
        parallel_items: platform.cpu.cores as u64,
        working_set_bytes: 2 * g.size_bytes(),
        ..KernelStats::default()
    };
    let partition = platform.cpu_time(&partition_stats);

    // --- Phase II (overlapped): DFS chunks on CPU, SV on GPU. The CPU
    // side also merges its own inter-chunk deferred edges with union-find
    // (path compression keeps most finds one cached probe).
    let dfs = cc_dfs_chunked(&g_cpu, platform.cpu.cores);
    let (cpu_labels, cpu_deferred, mut cpu_side_stats) =
        (dfs.labels, dfs.deferred_edges, dfs.stats);
    let sv = cc_sv(&g_gpu);
    let deferred = cpu_deferred.len() as u64;
    cpu_side_stats.int_ops += 8 * deferred;
    cpu_side_stats.mem_read_bytes += 8 * deferred;
    cpu_side_stats.irregular_bytes += 8 * deferred;

    // --- Merge (GPU, line 9): union components along cross edges and the
    // CPU's deferred inter-chunk edges, then relabel.
    let mut uf = UnionFind::new(n);
    for (v, &l) in cpu_labels.iter().enumerate() {
        uf.union(v as u32, l);
    }
    for (v, &l) in sv.labels.iter().enumerate() {
        uf.union((n_cpu + v) as u32, n_cpu as u32 + l);
    }
    for &(u, v) in &cpu_deferred {
        uf.union(u, v);
    }
    let mut merge_edges = 0u64;
    for &(u, v) in &cross {
        uf.union(u, v);
        merge_edges += 1;
    }
    let raw = uf.labels();
    let labels = crate::csr_graph::normalize_labels(&raw);
    let components = crate::csr_graph::count_components(&labels);

    // Merge cost: CPU labels must reach the GPU, then one edge-parallel
    // union pass plus a relabel pass.
    let merge_stats = KernelStats {
        int_ops: 8 * merge_edges + 2 * n as u64,
        mem_read_bytes: 8 * merge_edges + 8 * n as u64,
        irregular_bytes: 8 * merge_edges + 4 * n as u64,
        mem_write_bytes: 4 * n as u64,
        atomic_ops: 2 * merge_edges,
        kernel_launches: u64::from(merge_edges > 0 || n > 0),
        // The relabel pass is n-parallel even when few edges need merging.
        parallel_items: merge_edges.max(n as u64).max(1),
        working_set_bytes: 8 * n as u64,
        ..KernelStats::default()
    };
    let merge = platform.transfer(4 * n_cpu as u64) + platform.gpu_time(&merge_stats);

    // The GPU ships its subgraph in and its labels out.
    let gpu = BandWork {
        stats: sv.stats,
        bytes_in: g_gpu.size_bytes(),
        bytes_out: 4 * g_gpu.n() as u64,
    };
    let report = RunReport::two_way(platform, partition, cpu_side_stats, gpu, merge);

    HybridCcOutcome {
        labels,
        components,
        report,
        sv_rounds: sv.rounds,
        cross_edges: cross.len() + cpu_deferred.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::union_find::cc_union_find;
    use crate::csr_graph::normalize_labels;

    fn platform() -> Platform {
        Platform::k40c_xeon_e5_2650()
    }

    fn multi_component() -> Graph {
        // Path 0..10, triangle 10-11-12, isolated 13, pair 14-15.
        let mut edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        edges.extend([(10, 11), (11, 12), (12, 10), (14, 15)]);
        Graph::from_edges(16, &edges)
    }

    #[test]
    fn correct_at_every_threshold() {
        let g = multi_component();
        let oracle = normalize_labels(&cc_union_find(&g));
        for t in (0..=100).step_by(10) {
            let out = hybrid_cc(&g, f64::from(t), &platform());
            assert_eq!(out.labels, oracle, "threshold {t}");
            assert_eq!(out.components, 4);
        }
    }

    #[test]
    fn extreme_thresholds_degenerate_cleanly() {
        let g = multi_component();
        let all_gpu = hybrid_cc(&g, 0.0, &platform());
        assert!(all_gpu.report.breakdown.cpu_compute.is_zero());
        assert_eq!(all_gpu.cross_edges, 0);
        let all_cpu = hybrid_cc(&g, 100.0, &platform());
        assert!(all_cpu.report.breakdown.gpu_compute.is_zero());
        assert_eq!(all_cpu.sv_rounds, 0);
    }

    #[test]
    fn cross_edges_counted() {
        // Path of 10 split in the middle: exactly one cross edge (plus any
        // DFS inter-chunk deferrals, which also cross vertex boundaries).
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(10, &edges);
        let out = hybrid_cc(&g, 50.0, &platform());
        assert!(out.cross_edges >= 1);
        assert_eq!(out.components, 1);
    }

    #[test]
    fn report_total_is_positive_and_composed() {
        let g = multi_component();
        let out = hybrid_cc(&g, 30.0, &platform());
        let b = out.report.breakdown;
        assert!(out.report.total() >= b.partition + b.merge);
        assert!(out.report.total().as_secs() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of [0, 100]")]
    fn threshold_validated() {
        let _ = hybrid_cc(&multi_component(), 101.0, &platform());
    }
}
