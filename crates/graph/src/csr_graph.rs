//! Undirected graphs in CSR adjacency form.
//!
//! Vertices are `0..n`; each undirected edge `{u, v}` is stored twice (once
//! per endpoint), self-loops are dropped, and adjacency lists are sorted
//! and duplicate-free — the invariants every CC kernel relies on.

use nbwp_sparse::Csr;

/// An undirected graph stored as CSR adjacency.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    adj_ptr: Vec<usize>,
    adj: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an edge list. Duplicate edges and self-loops are
    /// dropped; `(u, v)` and `(v, u)` are the same edge.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut pairs = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of bounds for n = {n}"
            );
            if u != v {
                pairs.push((u, v));
                pairs.push((v, u));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut adj_ptr = vec![0usize; n + 1];
        for &(u, _) in &pairs {
            adj_ptr[u as usize + 1] += 1;
        }
        for i in 0..n {
            adj_ptr[i + 1] += adj_ptr[i];
        }
        let adj = pairs.into_iter().map(|(_, v)| v).collect();
        Graph { n, adj_ptr, adj }
    }

    /// Interprets a sparse matrix pattern as a graph: an entry `(i, j)` or
    /// `(j, i)` becomes the undirected edge `{i, j}` (the usual
    /// "matrix as graph" reading used for the Table II matrices).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn from_matrix(m: &Csr) -> Self {
        assert_eq!(m.rows(), m.cols(), "graph adjacency must be square");
        let edges: Vec<(u32, u32)> = m
            .iter()
            .filter(|&(r, c, _)| r as u32 != c)
            .map(|(r, c, _)| (r as u32, c))
            .collect();
        Graph::from_edges(m.rows(), &edges)
    }

    /// Builds a graph directly from CSR adjacency arrays the caller has
    /// already put into invariant form (symmetric, per-vertex sorted,
    /// duplicate- and self-loop-free). Used by the delta applier, which
    /// produces merged adjacency without going back through an edge list.
    pub(crate) fn from_sorted_parts(n: usize, adj_ptr: Vec<usize>, adj: Vec<u32>) -> Self {
        debug_assert_eq!(adj_ptr.len(), n + 1);
        debug_assert_eq!(*adj_ptr.last().unwrap_or(&0), adj.len());
        debug_assert!((0..n).all(|v| {
            let nbrs = &adj[adj_ptr[v]..adj_ptr[v + 1]];
            nbrs.windows(2).all(|w| w[0] < w[1])
                && nbrs.iter().all(|&w| (w as usize) < n && w as usize != v)
        }));
        Graph { n, adj_ptr, adj }
    }

    /// Number of vertices.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Total directed arc count (`2·m`), the size of the adjacency array.
    #[must_use]
    pub fn arcs(&self) -> usize {
        self.adj.len()
    }

    /// Degree of vertex `v`.
    #[must_use]
    pub fn degree(&self, v: usize) -> usize {
        self.adj_ptr[v + 1] - self.adj_ptr[v]
    }

    /// Sorted neighbors of vertex `v`.
    #[must_use]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.adj_ptr[v]..self.adj_ptr[v + 1]]
    }

    /// The neighbours of `v` inside the vertex band `lo..hi`: a contiguous
    /// slice of the sorted adjacency. When the first and last neighbour
    /// both lie in the band, the whole list is the answer; only a list
    /// that leaves the band is binary-searched.
    #[inline]
    pub(crate) fn band_neighbors(&self, v: usize, lo: usize, hi: usize) -> &[u32] {
        let adj = self.neighbors(v);
        match (adj.first(), adj.last()) {
            (Some(&first), Some(&last)) if first as usize >= lo && (last as usize) < hi => adj,
            _ => &adj[count_below(adj, lo)..count_below(adj, hi)],
        }
    }

    /// CSR offsets: vertex `v`'s neighbours are
    /// `adj()[adj_ptr()[v]..adj_ptr()[v + 1]]`.
    #[must_use]
    pub fn adj_ptr(&self) -> &[usize] {
        &self.adj_ptr
    }

    /// Every adjacency list, concatenated in vertex order.
    #[must_use]
    pub fn adj(&self) -> &[u32] {
        &self.adj
    }

    /// Iterator over undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n as u32).flat_map(move |u| {
            self.neighbors(u as usize)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Estimated bytes of the CSR representation.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        (self.adj_ptr.len() * std::mem::size_of::<usize>()
            + self.adj.len() * std::mem::size_of::<u32>()) as u64
    }

    /// The subgraph induced on the vertex interval `lo..hi` (vertices are
    /// renumbered to `0..hi-lo`): the paper's Phase I partition
    /// (Algorithm 1, lines 3–5) applied to a prefix or suffix.
    ///
    /// Returns the subgraph and the list of *cross edges* — edges of `self`
    /// with exactly one endpoint inside the interval, in original ids.
    #[must_use]
    pub fn vertex_interval_subgraph(&self, lo: usize, hi: usize) -> (Graph, Vec<(u32, u32)>) {
        assert!(lo <= hi && hi <= self.n, "interval out of bounds");
        let mut edges = Vec::new();
        let mut cross = Vec::new();
        for u in lo..hi {
            for &v in self.neighbors(u) {
                let vu = v as usize;
                if (lo..hi).contains(&vu) {
                    if u < vu {
                        edges.push(((u - lo) as u32, (vu - lo) as u32));
                    }
                } else {
                    cross.push((u as u32, v));
                }
            }
        }
        (Graph::from_edges(hi - lo, &edges), cross)
    }

    /// The subgraph induced on an arbitrary sorted vertex set, renumbered to
    /// `0..set.len()` (used by the faithful induced sampler).
    ///
    /// # Panics
    /// Panics if `set` is not strictly increasing or out of bounds.
    #[must_use]
    pub fn induced_subgraph(&self, set: &[usize]) -> Graph {
        assert!(
            set.windows(2).all(|w| w[0] < w[1]),
            "vertex set must be strictly increasing"
        );
        if let Some(&last) = set.last() {
            assert!(last < self.n, "vertex set out of bounds");
        }
        let mut pos = vec![u32::MAX; self.n];
        for (i, &v) in set.iter().enumerate() {
            pos[v] = i as u32;
        }
        let mut edges = Vec::new();
        for (i, &u) in set.iter().enumerate() {
            for &v in self.neighbors(u) {
                let p = pos[v as usize];
                if p != u32::MAX && (i as u32) < p {
                    edges.push((i as u32, p));
                }
            }
        }
        Graph::from_edges(set.len(), &edges)
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n, self.m())
    }
}

/// Number of entries of the sorted list `adj` below `x`.
#[inline]
pub(crate) fn count_below(adj: &[u32], x: usize) -> usize {
    adj.partition_point(|&v| (v as usize) < x)
}

/// Normalizes component labels so two labelings can be compared: each
/// component is renamed to the smallest vertex id it contains.
#[must_use]
pub fn normalize_labels(labels: &[u32]) -> Vec<u32> {
    let mut representative = vec![u32::MAX; labels.len()];
    for (v, &l) in labels.iter().enumerate() {
        let slot = &mut representative[l as usize];
        if *slot == u32::MAX {
            *slot = v as u32;
        }
    }
    labels.iter().map(|&l| representative[l as usize]).collect()
}

/// Number of distinct labels (components) in a labeling.
#[must_use]
pub fn count_components(labels: &[u32]) -> usize {
    let mut seen = vec![false; labels.len()];
    let mut count = 0;
    for &l in labels {
        if !seen[l as usize] {
            seen[l as usize] = true;
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn from_edges_dedupes_and_drops_loops() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 1)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_bounds_checked() {
        let _ = Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn from_matrix_symmetrizes() {
        // Asymmetric pattern becomes an undirected edge either way.
        let m = Csr::from_dense(3, 3, &[0.0, 1.0, 0.0, 0.0, 5.0, 0.0, 0.0, 1.0, 0.0]);
        let g = Graph::from_matrix(&m);
        assert_eq!(g.m(), 2); // {0,1} and {1,2}; the diagonal 5.0 dropped
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn edges_iterator_reports_each_once() {
        let g = path(5);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(es.len(), g.m());
    }

    #[test]
    fn interval_subgraph_and_cross_edges() {
        // path 0-1-2-3-4, split at 2: prefix {0,1}, suffix {2,3,4}.
        let g = path(5);
        let (pre, cross_pre) = g.vertex_interval_subgraph(0, 2);
        assert_eq!(pre.n(), 2);
        assert_eq!(pre.m(), 1);
        assert_eq!(cross_pre, vec![(1, 2)]);
        let (suf, cross_suf) = g.vertex_interval_subgraph(2, 5);
        assert_eq!(suf.n(), 3);
        assert_eq!(suf.m(), 2);
        assert_eq!(cross_suf, vec![(2, 1)]);
    }

    #[test]
    fn interval_subgraph_full_and_empty() {
        let g = path(4);
        let (all, cross) = g.vertex_interval_subgraph(0, 4);
        assert_eq!(all, g);
        assert!(cross.is_empty());
        let (none, cross) = g.vertex_interval_subgraph(2, 2);
        assert_eq!(none.n(), 0);
        assert!(cross.is_empty());
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = path(6);
        // Take {1, 2, 4}: edge {1,2} survives as (0,1); 4 is isolated.
        let s = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(s.n(), 3);
        assert_eq!(s.m(), 1);
        assert_eq!(s.neighbors(0), &[1]);
        assert_eq!(s.degree(2), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn induced_subgraph_requires_sorted_set() {
        let _ = path(4).induced_subgraph(&[2, 1]);
    }

    #[test]
    fn normalize_labels_canonicalizes() {
        // Components {0,2} and {1}: labels could be [7,3,7] after some run.
        let raw = vec![2u32, 1, 2];
        assert_eq!(normalize_labels(&raw), vec![0, 1, 0]);
        assert_eq!(count_components(&raw), 2);
    }

    #[test]
    fn count_components_all_isolated() {
        let labels: Vec<u32> = (0..5).collect();
        assert_eq!(count_components(&labels), 5);
    }

    #[test]
    fn size_bytes_grows_with_graph() {
        assert!(path(100).size_bytes() > path(10).size_bytes());
    }
}
