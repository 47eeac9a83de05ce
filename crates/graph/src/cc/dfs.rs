//! Sequential depth-first-search connected components — the CPU-side kernel
//! of the paper's Algorithm 1 (line 8), following CLRS as cited.
//!
//! The hybrid algorithm divides the CPU subgraph into `c` contiguous chunks
//! (Algorithm 1, line 6), runs DFS independently per chunk using only
//! intra-chunk edges, and defers inter-chunk edges to the merge step.

use nbwp_sim::KernelStats;

use crate::csr_graph::count_below;
use crate::Graph;

/// Irregular bytes charged per arc inspection: the adjacency entry (4 B)
/// plus the dependent random `visited`/label probe it triggers — one
/// latency-bound access per arc under the shared accounting convention.
const ARC_IRREGULAR_BYTES: u64 = 8;

/// Result of a (chunked) DFS labeling.
#[derive(Clone, Debug)]
pub struct DfsOutcome {
    /// Per-vertex labels; the label of a component is its smallest-id
    /// visited root within the owning chunk.
    pub labels: Vec<u32>,
    /// Edges crossing chunk boundaries (deferred to the merge step);
    /// empty when run with a single chunk.
    pub deferred_edges: Vec<(u32, u32)>,
    /// Execution counters under the shared accounting convention.
    pub stats: KernelStats,
}

/// Plain single-chunk DFS over the whole graph.
#[must_use]
pub fn cc_dfs(g: &Graph) -> DfsOutcome {
    cc_dfs_chunked(g, 1)
}

/// Chunked DFS: the vertex range is split into `chunks` contiguous pieces;
/// each piece is labeled independently using only edges internal to it, and
/// edges between pieces are returned as `deferred_edges` (each once).
///
/// With `chunks = c` this models the paper's `G_CPU1 … G_CPUc`; the labels
/// are correct for the *union* of the pieces only after the deferred edges
/// are merged (which the hybrid driver does together with the GPU cross
/// edges).
///
/// # Panics
/// Panics if `chunks == 0`.
#[must_use]
pub fn cc_dfs_chunked(g: &Graph, chunks: usize) -> DfsOutcome {
    assert!(chunks > 0, "need at least one chunk");
    let n = g.n();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut deferred = Vec::new();
    let mut stats = KernelStats::new();
    if n == 0 {
        return DfsOutcome {
            labels,
            deferred_edges: deferred,
            stats,
        };
    }
    let chunks = chunks.min(n);
    let chunk_len = n.div_ceil(chunks);
    let mut stack: Vec<u32> = Vec::new();
    let mut visited = vec![false; n];
    // Per-chunk work (arc inspections + vertex visits): the threads run
    // concurrently but the phase lasts as long as its heaviest chunk, so
    // effective parallelism is total work over max chunk work.
    let mut chunk_work = vec![0u64; chunks];

    for (c, work) in chunk_work.iter_mut().enumerate() {
        let lo = c * chunk_len;
        let hi = ((c + 1) * chunk_len).min(n);
        for root in lo..hi {
            if visited[root] {
                continue;
            }
            visited[root] = true;
            labels[root] = root as u32;
            stack.push(root as u32);
            while let Some(u) = stack.pop() {
                // Vertex visit: label write + adjacency pointer reads.
                stats.int_ops += 4;
                stats.mem_read_bytes += 16; // two row-pointer entries
                stats.mem_write_bytes += 4; // label store
                *work += 2;
                for &v in g.neighbors(u as usize) {
                    let vu = v as usize;
                    // Every arc inspection is a dependent, irregular read.
                    stats.int_ops += 2;
                    stats.mem_read_bytes += ARC_IRREGULAR_BYTES;
                    stats.irregular_bytes += ARC_IRREGULAR_BYTES;
                    *work += 1;
                    if vu < lo || vu >= hi {
                        // Inter-chunk edge: defer, reported once (from the
                        // lower-id endpoint's side).
                        if (u as usize) < vu {
                            deferred.push((u, v));
                        }
                        continue;
                    }
                    if !visited[vu] {
                        visited[vu] = true;
                        labels[vu] = root as u32;
                        stack.push(v);
                    }
                }
            }
        }
    }
    // Effective parallelism under load imbalance: Σ work / max chunk work
    // (equals `chunks` for perfectly balanced graphs, collapses toward 1
    // when one chunk holds the hubs).
    let total_work: u64 = chunk_work.iter().sum();
    let max_work = chunk_work.iter().copied().max().unwrap_or(0);
    stats.parallel_items = if max_work == 0 {
        chunks as u64
    } else {
        (total_work as f64 / max_work as f64).round().max(1.0) as u64
    };
    stats.kernel_launches = 0; // host-side code: no device launches
    stats.working_set_bytes = g.size_bytes() + 5 * n as u64; // labels + visited
    DfsOutcome {
        labels,
        deferred_edges: deferred,
        stats,
    }
}

/// Exact cost of [`cc_dfs_chunked`] on a vertex-band subgraph, computed
/// without materializing the subgraph or labeling anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DfsPrefixCost {
    /// Counters bitwise equal to `cc_dfs_chunked(prefix, chunks).stats`.
    pub stats: KernelStats,
    /// Number of inter-chunk deferred edges the run would report.
    pub deferred_edges: u64,
}

/// Prices `cc_dfs_chunked(&g.vertex_interval_subgraph(lo, hi).0, chunks)`
/// exactly from the parent graph, without building the band or labelling
/// anything.
///
/// Every band vertex is popped exactly once and inspects each of its
/// band-internal arcs exactly once, whatever order the DFS visits them in,
/// so the visit and arc charges are linear in the band's vertex and
/// internal-arc counts. The only traversal-shaped outputs are per-chunk
/// work (for the parallelism estimate) and the deferred inter-chunk edge
/// count, and both are per-vertex counts over the sorted adjacency: a
/// vertex `u` in chunk `c_lo..c_hi` contributes its neighbours in
/// `lo..hi` as work and those in `c_hi..hi` as deferred edges (a
/// neighbour below `c_lo` is deferred from its own, lower endpoint). The
/// counts come from the vertex's first and last neighbour whenever they
/// decide them, and from a binary search only for a list that straddles a
/// band or chunk edge. At `lo == 0` this is the prefix cost, all in exact
/// `u64` arithmetic.
///
/// # Panics
/// Panics if `chunks == 0`, `lo > hi`, or `hi > g.n()`.
#[must_use]
pub fn dfs_band_cost(g: &Graph, lo: usize, hi: usize, chunks: usize) -> DfsPrefixCost {
    assert!(chunks > 0, "need at least one chunk");
    assert!(lo <= hi && hi <= g.n(), "band out of bounds");
    let len = hi - lo;
    if len == 0 {
        return DfsPrefixCost {
            stats: KernelStats::new(),
            deferred_edges: 0,
        };
    }
    let chunks = chunks.min(len);
    let chunk_len = len.div_ceil(chunks);
    let mut arcs_internal = 0u64;
    let mut deferred = 0u64;
    let mut max_work = 0u64;
    for c in 0..chunks {
        let c_lo = (lo + c * chunk_len).min(hi);
        let c_hi = (c_lo + chunk_len).min(hi);
        let mut chunk_arcs = 0u64;
        for u in c_lo..c_hi {
            let adj = g.neighbors(u);
            // (internal, deferred): neighbours in `lo..hi`, and those in
            // `c_hi..hi`. The three searches of a straddling list are
            // independent of each other.
            let (internal, beyond) = match (adj.first(), adj.last()) {
                (Some(&first), Some(&last)) if first as usize >= lo && (last as usize) < hi => {
                    let beyond = if (last as usize) < c_hi {
                        0
                    } else {
                        adj.len() - count_below(adj, c_hi)
                    };
                    (adj.len(), beyond)
                }
                _ => {
                    let to = count_below(adj, hi);
                    (to - count_below(adj, lo), to - count_below(adj, c_hi))
                }
            };
            chunk_arcs += internal as u64;
            deferred += beyond as u64;
        }
        arcs_internal += chunk_arcs;
        max_work = max_work.max(2 * (c_hi - c_lo) as u64 + chunk_arcs);
    }
    // Chunk work is two units per vertex plus one per internal arc, so the
    // first chunk's work is at least 2.
    let total_work = 2 * len as u64 + arcs_internal;
    let parallel_items = (total_work as f64 / max_work as f64).round().max(1.0) as u64;
    DfsPrefixCost {
        stats: dfs_band_stats(len, arcs_internal, parallel_items),
        deferred_edges: deferred,
    }
}

/// The counters [`cc_dfs_chunked`] reports on a band of `len > 0`
/// vertices with `arcs_internal` internal arcs whose chunks balance to
/// `parallel_items`: every band vertex is popped once and inspects each
/// internal arc once, so all the other counters are linear in the two
/// counts. Cost bounds apply it to bracketing counts.
pub(crate) fn dfs_band_stats(len: usize, arcs_internal: u64, parallel_items: u64) -> KernelStats {
    let len = len as u64;
    // Band CSR footprint: (len + 1) row pointers + internal arcs.
    let band_size_bytes = 8 * (len + 1) + 4 * arcs_internal;
    KernelStats {
        int_ops: 4 * len + 2 * arcs_internal,
        mem_read_bytes: 16 * len + ARC_IRREGULAR_BYTES * arcs_internal,
        mem_write_bytes: 4 * len,
        irregular_bytes: ARC_IRREGULAR_BYTES * arcs_internal,
        parallel_items,
        working_set_bytes: band_size_bytes + 5 * len,
        ..KernelStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::union_find::{cc_union_find, UnionFind};
    use crate::csr_graph::{count_components, normalize_labels};

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn single_chunk_matches_oracle() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 3)]);
        let out = cc_dfs(&g);
        assert!(out.deferred_edges.is_empty());
        assert_eq!(
            normalize_labels(&out.labels),
            normalize_labels(&cc_union_find(&g))
        );
    }

    #[test]
    fn chunked_defers_cross_chunk_edges() {
        // Path of 8 in 2 chunks: edge (3,4) crosses the boundary.
        let g = path(8);
        let out = cc_dfs_chunked(&g, 2);
        assert_eq!(out.deferred_edges, vec![(3, 4)]);
        // Within chunks, both halves are single components.
        assert_eq!(count_components(&out.labels), 2);
    }

    #[test]
    fn chunked_plus_merge_recovers_full_components() {
        let g = path(20);
        for chunks in [1, 2, 3, 5, 20] {
            let out = cc_dfs_chunked(&g, chunks);
            // Merge deferred edges like the hybrid driver does.
            let mut uf = UnionFind::new(g.n());
            for (v, &l) in out.labels.iter().enumerate() {
                uf.union(v as u32, l);
            }
            for (u, v) in out.deferred_edges {
                uf.union(u, v);
            }
            assert_eq!(count_components(&uf.labels()), 1, "chunks = {chunks}");
        }
    }

    #[test]
    fn stats_scale_with_graph_size() {
        let small = cc_dfs(&path(10)).stats;
        let big = cc_dfs(&path(1000)).stats;
        assert!(big.int_ops > small.int_ops);
        assert!(big.irregular_bytes > small.irregular_bytes);
        assert_eq!(small.kernel_launches, 0);
    }

    #[test]
    fn parallel_items_equals_chunk_count() {
        let g = path(100);
        assert_eq!(cc_dfs_chunked(&g, 8).stats.parallel_items, 8);
        assert_eq!(cc_dfs(&g).stats.parallel_items, 1);
    }

    #[test]
    fn prefix_cost_matches_materialized_run() {
        let n = 700;
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        for i in (0..n as u32).step_by(11) {
            edges.push((i, (i * 17 + 5) % n as u32));
        }
        let g = Graph::from_edges(n, &edges);
        for split in [0, 1, 2, 99, 350, 699, 700] {
            for chunks in [1, 2, 4, 7] {
                let (prefix, _) = g.vertex_interval_subgraph(0, split);
                let direct = cc_dfs_chunked(&prefix, chunks);
                let priced = dfs_band_cost(&g, 0, split, chunks);
                assert_eq!(
                    priced.stats, direct.stats,
                    "split = {split}, chunks = {chunks}"
                );
                assert_eq!(
                    priced.deferred_edges,
                    direct.deferred_edges.len() as u64,
                    "split = {split}, chunks = {chunks}"
                );
            }
        }
    }

    #[test]
    fn band_cost_matches_materialized_run() {
        let n = 500;
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        for i in (0..n as u32).step_by(13) {
            edges.push((i, (i * 29 + 3) % n as u32));
        }
        let g = Graph::from_edges(n, &edges);
        for (lo, hi) in [
            (0, 0),
            (0, 500),
            (100, 400),
            (250, 250),
            (1, 499),
            (480, 500),
        ] {
            for chunks in [1, 3, 8] {
                let (band, _) = g.vertex_interval_subgraph(lo, hi);
                let direct = cc_dfs_chunked(&band, chunks);
                let priced = dfs_band_cost(&g, lo, hi, chunks);
                assert_eq!(
                    priced.stats, direct.stats,
                    "band {lo}..{hi}, chunks {chunks}"
                );
                assert_eq!(
                    priced.deferred_edges,
                    direct.deferred_edges.len() as u64,
                    "band {lo}..{hi}, chunks {chunks}"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        let out = cc_dfs(&g);
        assert!(out.labels.is_empty());
        assert!(out.stats.is_empty() || out.stats.total_ops() == 0);
    }

    #[test]
    fn chunks_capped_at_vertex_count() {
        let g = path(3);
        let out = cc_dfs_chunked(&g, 10);
        assert_eq!(out.stats.parallel_items, 3);
    }
}
