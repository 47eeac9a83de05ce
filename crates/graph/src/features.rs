//! Graph feature extraction: degree statistics and an approximate diameter
//! (double-sweep BFS), the structural drivers of CC device performance.

use std::collections::VecDeque;

use crate::Graph;

/// Structural summary of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphFeatures {
    /// Mean degree.
    pub mean_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Coefficient of variation of the degree distribution.
    pub degree_cv: f64,
    /// Lower bound on the diameter from a double-sweep BFS of the largest
    /// encountered component.
    pub approx_diameter: usize,
    /// Number of connected components.
    pub components: usize,
}

impl GraphFeatures {
    /// Computes all features (O(n + m)).
    #[must_use]
    pub fn of(g: &Graph) -> GraphFeatures {
        let n = g.n().max(1);
        let degrees: Vec<usize> = (0..g.n()).map(|v| g.degree(v)).collect();
        let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
        let var = degrees
            .iter()
            .map(|&d| {
                let diff = d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / n as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let labels = crate::cc::cc_union_find(g);
        let components = crate::csr_graph::count_components(&labels);
        GraphFeatures {
            mean_degree: mean,
            max_degree: degrees.iter().copied().max().unwrap_or(0),
            degree_cv: cv,
            approx_diameter: approx_diameter(g),
            components,
        }
    }
}

/// BFS from `start`; returns (farthest vertex, its distance).
fn bfs_far(g: &Graph, start: usize) -> (usize, usize) {
    let mut dist = vec![usize::MAX; g.n()];
    let mut q = VecDeque::new();
    dist[start] = 0;
    q.push_back(start);
    let (mut far, mut far_d) = (start, 0);
    while let Some(u) = q.pop_front() {
        for &v in g.neighbors(u) {
            let v = v as usize;
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                if dist[v] > far_d {
                    far_d = dist[v];
                    far = v;
                }
                q.push_back(v);
            }
        }
    }
    (far, far_d)
}

/// Double-sweep diameter lower bound, started from the highest-degree
/// vertex (a standard heuristic; exact on trees).
#[must_use]
pub fn approx_diameter(g: &Graph) -> usize {
    if g.n() == 0 {
        return 0;
    }
    let start = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap_or(0);
    let (far, _) = bfs_far(g, start);
    let (_, d) = bfs_far(g, far);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use nbwp_sim::DegreeSketch;

    fn sketch_of(g: &Graph) -> DegreeSketch {
        DegreeSketch::of(&[], g.adj_ptr(), g.adj())
    }

    #[test]
    fn path_diameter_is_exact() {
        let edges: Vec<(u32, u32)> = (0..99u32).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(100, &edges);
        assert_eq!(approx_diameter(&g), 99);
    }

    #[test]
    fn star_diameter_is_two() {
        let edges: Vec<(u32, u32)> = (1..50u32).map(|v| (0, v)).collect();
        let g = Graph::from_edges(50, &edges);
        assert_eq!(approx_diameter(&g), 2);
    }

    #[test]
    fn road_has_much_larger_diameter_than_web() {
        let road = gen::road(4000, 3);
        let web = gen::web(4000, 8, 3);
        let dr = approx_diameter(&road);
        let dw = approx_diameter(&web);
        assert!(dr > 5 * dw, "road diameter {dr} vs web {dw}");
    }

    #[test]
    fn features_summary() {
        let g = gen::web(2000, 6, 5);
        let f = GraphFeatures::of(&g);
        assert!(f.mean_degree > 2.0);
        assert!(f.max_degree > 20);
        assert!(f.degree_cv > 0.5);
        assert!(f.components >= 1);
    }

    #[test]
    fn empty_graph_features() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(approx_diameter(&g), 0);
    }

    #[test]
    fn degree_sketch_matches_features() {
        let g = gen::web(2000, 6, 5);
        let f = GraphFeatures::of(&g);
        let s = sketch_of(&g);
        assert_eq!(s.n, g.n());
        assert_eq!(s.max, f.max_degree as u64);
        assert!((s.mean - f.mean_degree).abs() < 1e-9);
        assert!((s.cv - f.degree_cv).abs() < 1e-9);
        assert_eq!(s.log2_hist.iter().sum::<u64>(), g.n() as u64);
    }

    #[test]
    fn degree_sketch_digest_separates_structures() {
        let a = gen::web(1000, 6, 5);
        let b = gen::web(1000, 6, 6); // same family, different seed
        let c = gen::road(1000, 5);
        let sa = sketch_of(&a);
        assert_eq!(sa.digest, sketch_of(&a).digest);
        assert_ne!(sa.digest, sketch_of(&b).digest);
        assert_ne!(sa.digest, sketch_of(&c).digest);
    }

    #[test]
    fn degree_sketch_of_empty_graph() {
        let s = sketch_of(&Graph::from_edges(0, &[]));
        assert_eq!(s.n, 0);
        assert_eq!(s.m, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.cv, 0.0);
    }
}
