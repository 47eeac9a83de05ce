//! Property tests for the band replays behind profiled CC pricing:
//! `sv_band_counts` and `dfs_band_cost` must report exactly what the direct
//! `cc_sv` and `cc_dfs_chunked` runs report on the materialized band.
//!
//! Inputs cover every generator family, random edge lists, and paths and
//! stars, each under random and adversarial vertex numberings, so that the
//! depth of the first round's hooked forest takes the values where the
//! doubling-pass count steps (0, 1, 2, 3, 2^k and 2^k + 1). Bands are
//! random, with empty and single-vertex bands drawn on purpose.
//!
//! The memoized replays must also survive span patches exactly when
//! their band shares at most one vertex with the span: after a chain of
//! deltas, every band of a patched profile prices like the band of a fresh
//! one.
//!
//! The band bounds a search prunes with must bracket every exact band
//! price, on every device of the presets and every platform preset,
//! before and after patches.

use std::collections::BTreeSet;

use nbwp_graph::cc::{
    cc_dfs_chunked, cc_sv, dfs_band_cost, sv_band_counts, sv_stats_closed_form, CcCostCurve,
    CcCostProfile,
};
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::{gen, Graph};
use nbwp_sim::{CurveEval, DeviceKind, DeviceSet, Platform};
use proptest::prelude::*;

/// A path `0 - 1 - … - (n-1)`.
fn path(n: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (i - 1, i)).collect();
    Graph::from_edges(n, &edges)
}

/// A star centred on vertex 0.
fn star(n: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
    Graph::from_edges(n, &edges)
}

/// `m` uniformly random vertex pairs (duplicates and self-loops dropped).
fn scattered(n: usize, m: usize, seed: u64) -> Graph {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as u32
    };
    let edges: Vec<(u32, u32)> = (0..m).map(|_| (next(), next())).collect();
    Graph::from_edges(n, &edges)
}

/// A vertex numbering of `0..n`: `order[i]` is the new id of vertex `i`.
fn numbering(kind: u8, n: usize, seed: u64) -> Vec<u32> {
    let n32 = n as u32;
    match kind {
        // Reversed.
        1 => (0..n32).rev().collect(),
        // Zig-zag: neighbouring pairs swapped.
        2 => (0..n32).map(|i| (i ^ 1).min(n32 - 1)).collect(),
        // Extremes interleaved: 0, n-1, 1, n-2, …
        3 => (0..n32)
            .map(|i| if i % 2 == 0 { i / 2 } else { n32 - 1 - i / 2 })
            .collect(),
        // Uniformly random (Fisher–Yates on a xorshift stream).
        4 => {
            let mut order: Vec<u32> = (0..n32).collect();
            let mut x = seed | 1;
            for i in (1..n).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                order.swap(i, (x % (i as u64 + 1)) as usize);
            }
            order
        }
        _ => (0..n32).collect(),
    }
}

fn renumber(g: &Graph, order: &[u32]) -> Graph {
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| (order[u as usize], order[v as usize]))
        .collect();
    Graph::from_edges(g.n(), &edges)
}

/// One graph of a family, at `n` vertices, under a numbering.
fn family_graph(family: u8, n: usize, renumbering: u8, seed: u64) -> Graph {
    let g = match family {
        0 => gen::web(n, 4, seed),
        1 => gen::road(n, seed),
        2 => gen::fem(n, 12, 6, seed),
        3 => gen::random(n, 3, seed),
        4 => gen::disjoint_pieces(n, 1 + (seed % 5) as usize, 3, seed),
        5 => path(n),
        6 => star(n),
        _ => scattered(n, 2 * n, seed),
    };
    renumber(&g, &numbering(renumbering, n, seed))
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (0u8..8, 16usize..320, 0u8..5, any::<u64>())
        .prop_map(|(family, n, order, seed)| family_graph(family, n, order, seed))
}

/// A band of `0..n`: random, empty, or a single vertex.
fn band(n: usize, kind: u8, a: u64, b: u64) -> (usize, usize) {
    let lo = (a % (n as u64 + 1)) as usize;
    match kind {
        0 => (lo, lo),
        1 => (lo.min(n.saturating_sub(1)), (lo + 1).min(n)),
        _ => {
            let hi = (b % (n as u64 + 1)) as usize;
            (lo.min(hi), lo.max(hi))
        }
    }
}

fn assert_sv_replay(g: &Graph, lo: usize, hi: usize) {
    let (sub, _) = g.vertex_interval_subgraph(lo, hi);
    let direct = cc_sv(&sub);
    let (rounds, passes, arcs) = sv_band_counts(g, lo, hi);
    assert_eq!(
        (rounds, passes, arcs),
        (direct.rounds, direct.doubling_passes, sub.arcs() as u64),
        "{g:?}, band {lo}..{hi}"
    );
    let closed = sv_stats_closed_form(sub.n(), arcs, sub.size_bytes(), rounds, passes);
    assert_eq!(closed, direct.stats, "{g:?}, band {lo}..{hi}");
}

fn assert_dfs_replay(g: &Graph, lo: usize, hi: usize) {
    let (sub, _) = g.vertex_interval_subgraph(lo, hi);
    for chunks in [1, 3, 20, hi - lo + 1] {
        let direct = cc_dfs_chunked(&sub, chunks);
        let priced = dfs_band_cost(g, lo, hi, chunks);
        assert_eq!(
            priced.stats, direct.stats,
            "{g:?}, band {lo}..{hi}, {chunks} chunks"
        );
        assert_eq!(
            priced.deferred_edges,
            direct.deferred_edges.len() as u64,
            "{g:?}, band {lo}..{hi}, {chunks} chunks"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn sv_band_counts_equal_the_direct_run(
        g in arb_graph(),
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (lo, hi) = band(g.n(), kind, a, b);
        assert_sv_replay(&g, lo, hi);
    }

    #[test]
    fn dfs_band_cost_equals_the_direct_run(
        g in arb_graph(),
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (lo, hi) = band(g.n(), kind, a, b);
        assert_dfs_replay(&g, lo, hi);
    }
}

/// One delta on an `n`-vertex graph `g`, drawn from `seed` in one of
/// four shapes: empty (an empty span), edits inside a window of 12
/// vertices, edits anywhere, or edits anywhere patched over the whole
/// graph. Deletes mix existing edges with absent ones. Returns the
/// mutated graph and the span to patch.
fn patch_step(g: &Graph, shape: u8, edits: usize, seed: u64) -> (Graph, usize, usize) {
    let n = g.n();
    let mut x = seed | 1;
    let mut next = move |m: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % m as u64) as usize
    };
    let start = next(n);
    let mut vertex = || match shape {
        1 => ((start + next(12)) % n) as u32,
        _ => next(n) as u32,
    };
    let mut delta = GraphDelta::default();
    if shape != 0 {
        for _ in 0..edits {
            delta.insert.push((vertex(), vertex()));
            delta.delete.push((vertex(), vertex()));
        }
        let arcs: Vec<(u32, u32)> = g.edges().collect();
        if !arcs.is_empty() {
            delta.delete.push(arcs[(seed as usize) % arcs.len()]);
        }
    }
    let (g2, info) = delta.apply(g);
    let (lo, hi) = match (shape, info.touched.first(), info.touched.last()) {
        (3, ..) => (0, n),
        (_, Some(&a), Some(&b)) => (a, b + 1),
        _ => (0, 0),
    };
    (g2, lo, hi)
}

/// Every band's CPU and GPU price on `profile` for graph `g`.
fn band_prices(
    profile: &CcCostProfile,
    g: &Graph,
    platform: &Platform,
    bands: &[(usize, usize)],
) -> Vec<(Option<nbwp_sim::BandWork>, Option<nbwp_sim::BandWork>)> {
    let curve = CcCostCurve::new(profile, g, platform);
    bands
        .iter()
        .map(|&(lo, hi)| {
            (
                curve.band_work(DeviceKind::Cpu, lo, hi),
                curve.band_work(DeviceKind::Gpu, lo, hi),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Prime a profile's memos with random bands, with the bands that
    /// end at, or up to two past, the span's start and start at, or up to
    /// two before, its end, and with bands sharing exactly two vertices
    /// with the span; patch; and every band prices, CPU and GPU, like a
    /// fresh profile's — through chains of empty, windowed, scattered and
    /// whole-span patches on web, road, FEM and random graphs. The patch
    /// keeps exactly the replays of the bands sharing at most one vertex
    /// with the span.
    #[test]
    fn patched_memos_price_every_band_like_a_fresh_profile(
        family in 0u8..4,
        n in 8usize..300,
        seed in any::<u64>(),
        random_bands in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..16),
        steps in prop::collection::vec((0u8..4, 1usize..6, any::<u64>()), 1..4),
    ) {
        let platform = Platform::k40c_xeon_e5_2650();
        let mut g = family_graph(family, n, 0, seed);
        let mut profile = CcCostProfile::new(&g);
        // The bands memoized on `profile`.
        let mut live: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (shape, edits, step_seed) in steps {
            let (g2, lo, hi) = patch_step(&g, shape, edits, step_seed);
            let mut bands: Vec<(usize, usize)> = random_bands
                .iter()
                .map(|&(kind, a, b)| band(n, kind, a, b))
                .collect();
            for (a, b) in [(0, lo), (lo, hi), (hi, n), (0, n)] {
                bands.extend([(a, b), (a, (b + 1).min(n)), (a.saturating_sub(1), b)]);
            }
            for a in [lo.saturating_sub(3), lo / 2] {
                bands.extend((lo..=lo + 2).map(|b| (a, b.min(n))));
            }
            for b in [(hi + 3).min(n), hi + (n - hi) / 2] {
                bands.extend((hi.saturating_sub(2)..=hi).map(|a| (a, b)));
            }
            let mid = lo + (hi - lo) / 2;
            bands.extend([
                (lo.saturating_sub(1), (lo + 2).min(n)),
                (hi.saturating_sub(2), (hi + 1).min(n)),
                (mid.saturating_sub(1), (mid + 1).min(n)),
            ]);
            bands.retain(|&(a, b)| a <= b);
            let _ = band_prices(&profile, &g, &platform, &bands);
            live.extend(&bands);
            profile.patch(&g2, lo, hi);
            live.retain(|&(a, b)| b.min(hi).saturating_sub(a.max(lo)) <= 1);
            prop_assert_eq!(
                profile.replays(),
                (live.len(), live.len()),
                "span {}..{} of {} vertices", lo, hi, n
            );
            let fresh = CcCostProfile::new(&g2);
            prop_assert_eq!(profile.raw_curves(), fresh.raw_curves());
            prop_assert_eq!(
                band_prices(&profile, &g2, &platform, &bands),
                band_prices(&fresh, &g2, &platform, &bands),
                "span {}..{} of {} vertices", lo, hi, n
            );
            live.extend(&bands);
            g = g2;
        }
    }
}

#[test]
fn whole_graph_bands_equal_the_direct_run() {
    for family in 0..8 {
        for order in 0..5 {
            let g = family_graph(family, 257, order, 11 + u64::from(family));
            assert_sv_replay(&g, 0, g.n());
            assert_dfs_replay(&g, 0, g.n());
        }
    }
}

/// On an identity-numbered path every vertex hooks onto its predecessor,
/// so the first round's forest is the path itself: a band of `len`
/// vertices has depth `len - 1`. Sweeping `len` over the step points of
/// `1 + ⌈log2 depth⌉` pins the closed form against the direct run.
#[test]
fn round_one_depth_hits_every_pass_step() {
    let mut depths = vec![0usize, 1, 2, 3];
    for k in 2..=7 {
        depths.extend([1 << k, (1 << k) + 1]);
    }
    let g = path(300);
    for &depth in &depths {
        let len = depth + 1;
        let (sub, _) = g.vertex_interval_subgraph(0, len);
        let direct = cc_sv(&sub);
        let round_one = if depth <= 1 {
            1
        } else {
            1 + (usize::BITS - (depth - 1).leading_zeros())
        };
        // One more round, with one pass, finds nothing left to hook.
        let expected = if depth == 0 {
            (1, 1)
        } else {
            (2, round_one + 1)
        };
        assert_eq!(
            (direct.rounds, direct.doubling_passes),
            expected,
            "depth {depth}"
        );
        for lo in [0, 1, 300 - len] {
            assert_sv_replay(&g, lo, lo + len);
            assert_dfs_replay(&g, lo, lo + len);
        }
        for order in 1..5 {
            let renumbered = renumber(&sub, &numbering(order, len, depth as u64 + 3));
            assert_sv_replay(&renumbered, 0, len);
        }
    }
}

/// Stars whose centre sits at either end of the numbering, inside bands
/// that keep or drop the centre.
#[test]
fn stars_under_every_numbering() {
    for n in [1, 2, 3, 5, 17, 64, 65] {
        for order in 0..5 {
            let g = renumber(&star(n), &numbering(order, n, n as u64));
            for (lo, hi) in [(0, n), (1, n), (0, n - 1), (n / 2, n)] {
                assert_sv_replay(&g, lo, hi);
                assert_dfs_replay(&g, lo, hi);
            }
        }
    }
}

/// A graph of one of the four profile families (web, road, FEM, random);
/// with `isolate`, every edge at a vertex divisible by 7 is dropped, so
/// those vertices are isolated.
fn bounds_graph(family: u8, n: usize, seed: u64, isolate: bool) -> Graph {
    let g = family_graph(family, n, 0, seed);
    if !isolate {
        return g;
    }
    let edges: Vec<(u32, u32)> = g
        .edges()
        .filter(|&(u, v)| u % 7 != 0 && v % 7 != 0)
        .collect();
    Graph::from_edges(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `device_band_bounds` brackets `device_band` for every device of
    /// `cpu-gpu`, `dual-cpu-dual-gpu` and `quad-cpu-quad-gpu` on every
    /// platform preset: empty, single-vertex, prefix, suffix, whole-graph
    /// and random bands, on a fresh profile and after each patch of a
    /// delta chain. An empty band's bounds are its exact price.
    #[test]
    fn band_bounds_bracket_every_device_price(
        family in 0u8..4,
        isolate in any::<bool>(),
        n in 8usize..300,
        seed in any::<u64>(),
        random_bands in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..10),
        steps in prop::collection::vec((0u8..4, 1usize..6, any::<u64>()), 0..3),
    ) {
        let platforms = [
            Platform::k40c_xeon_e5_2650(),
            Platform::balanced(),
            Platform::gpu_heavy(),
            Platform::cpu_heavy(),
        ];
        let sets = [
            DeviceSet::cpu_gpu(),
            DeviceSet::dual_cpu_dual_gpu(),
            DeviceSet::quad_cpu_quad_gpu(),
        ];
        let mut g = bounds_graph(family, n, seed, isolate);
        let mut profile = CcCostProfile::new(&g);
        let mut bands: Vec<(usize, usize)> = random_bands
            .iter()
            .map(|&(kind, a, b)| band(n, kind, a, b))
            .collect();
        bands.extend([(0, 0), (n, n), (0, 1), (n - 1, n), (0, n / 2), (n / 2, n), (0, n)]);
        for step in 0..=steps.len() {
            for platform in &platforms {
                let curve = CcCostCurve::new(&profile, &g, platform);
                for device in sets.iter().flat_map(DeviceSet::devices) {
                    for &(lo, hi) in &bands {
                        let exact = curve.device_band(device, lo, hi).expect("cc prices bands");
                        let (lower, upper) = curve.device_band_bounds(device, lo, hi);
                        let what = format!("{device:?}, band {lo}..{hi} of {n}, step {step}");
                        prop_assert!(lower <= exact, "{}: lower {} > {}", what, lower, exact);
                        if let Some(upper) = upper {
                            prop_assert!(exact <= upper, "{}: {} > upper {}", what, exact, upper);
                        }
                        if lo == hi {
                            prop_assert_eq!((lower, upper), (exact, Some(exact)), "{}", what);
                        }
                    }
                }
            }
            if let Some(&(shape, edits, step_seed)) = steps.get(step) {
                let (g2, lo, hi) = patch_step(&g, shape, edits, step_seed);
                profile.patch(&g2, lo, hi);
                g = g2;
            }
        }
    }
}
