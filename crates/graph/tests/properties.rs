//! Property-based tests: every CC kernel agrees with union-find on random
//! graphs, the hybrid algorithm is threshold-invariant in its output, and
//! subgraph extraction conserves edges.

use nbwp_graph::cc::{cc_bfs, cc_dfs, cc_dfs_chunked, cc_sv, cc_union_find, hybrid_cc};
use nbwp_graph::{count_components, normalize_labels, Graph};
use nbwp_sim::Platform;
use proptest::prelude::*;

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sv_matches_union_find(g in arb_graph(60, 150)) {
        let sv = normalize_labels(&cc_sv(&g).labels);
        let uf = normalize_labels(&cc_union_find(&g));
        prop_assert_eq!(sv, uf);
    }

    #[test]
    fn dfs_matches_union_find(g in arb_graph(60, 150)) {
        let dfs = normalize_labels(&cc_dfs(&g).labels);
        let uf = normalize_labels(&cc_union_find(&g));
        prop_assert_eq!(dfs, uf);
    }

    #[test]
    fn bfs_matches_union_find(g in arb_graph(60, 150)) {
        let bfs = normalize_labels(&cc_bfs(&g).labels);
        let uf = normalize_labels(&cc_union_find(&g));
        prop_assert_eq!(bfs, uf);
    }

    #[test]
    fn hybrid_is_threshold_invariant(g in arb_graph(50, 120), t in 0u8..=100) {
        let platform = Platform::k40c_xeon_e5_2650();
        let out = hybrid_cc(&g, f64::from(t), &platform);
        let oracle = normalize_labels(&cc_union_find(&g));
        prop_assert_eq!(out.labels, oracle);
        prop_assert_eq!(out.components, count_components(&cc_union_find(&g)));
    }

    #[test]
    fn chunked_dfs_plus_deferred_edges_cover_the_graph(
        g in arb_graph(50, 120),
        chunks in 1usize..8,
    ) {
        let out = cc_dfs_chunked(&g, chunks);
        // Rebuild connectivity from per-chunk labels + deferred edges and
        // compare against the oracle.
        let mut uf = nbwp_graph::cc::UnionFind::new(g.n());
        for (v, &l) in out.labels.iter().enumerate() {
            uf.union(v as u32, l);
        }
        for (u, v) in out.deferred_edges {
            uf.union(u, v);
        }
        let rebuilt = normalize_labels(&uf.labels());
        let oracle = normalize_labels(&cc_union_find(&g));
        prop_assert_eq!(rebuilt, oracle);
    }

    #[test]
    fn interval_subgraphs_conserve_edges(g in arb_graph(50, 120), frac in 0.0f64..=1.0) {
        let split = (g.n() as f64 * frac) as usize;
        let (pre, cross) = g.vertex_interval_subgraph(0, split);
        let (suf, cross2) = g.vertex_interval_subgraph(split, g.n());
        // Every edge is internal to one side or a cross edge (seen from
        // both sides).
        prop_assert_eq!(cross.len(), cross2.len());
        prop_assert_eq!(pre.m() + suf.m() + cross.len(), g.m());
    }

    #[test]
    fn sv_round_count_is_at_most_log_bound(g in arb_graph(64, 200)) {
        let out = cc_sv(&g);
        // Full per-round compression: rounds are O(log n) + constant.
        let bound = (g.n() as f64).log2().ceil() as u32 + 3;
        prop_assert!(out.rounds <= bound, "rounds {} > bound {}", out.rounds, bound);
    }

    #[test]
    fn component_count_monotone_in_edges(n in 4usize..40, extra in 0usize..30) {
        // Adding edges never increases the component count.
        let base: Vec<(u32, u32)> = (0..n as u32 / 2).map(|i| (2 * i, 2 * i + 1)).collect();
        let g1 = Graph::from_edges(n, &base);
        let mut more = base.clone();
        for i in 0..extra {
            more.push((((i * 7) % n) as u32, ((i * 13 + 1) % n) as u32));
        }
        let g2 = Graph::from_edges(n, &more);
        let c1 = count_components(&cc_union_find(&g1));
        let c2 = count_components(&cc_union_find(&g2));
        prop_assert!(c2 <= c1);
    }
}
