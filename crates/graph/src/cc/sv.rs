//! Shiloach–Vishkin connected components — the GPU-side kernel of the
//! paper's Algorithm 1 (line 7), after Shiloach & Vishkin (1982) and the
//! GPU formulation of Soman et al. cited by the paper.
//!
//! The implementation is *synchronous*: every round performs
//!
//! 1. **root hooking** — for every edge `{u, v}` whose endpoints lie in
//!    different trees, the larger root is a candidate to hook onto the
//!    smaller label; candidates are min-reduced per root, so the outcome is
//!    deterministic and independent of traversal or thread order;
//! 2. **full pointer jumping** — `parent[v] ← parent[parent[v]]` repeated
//!    until idempotent (each pass is Jacobi-style, reading the previous
//!    array and writing a fresh one).
//!
//! Because hooking merges *trees* (not just labels), the number of live
//! roots at least halves every round on any pathological numbering, giving
//! the textbook O(log n) round bound — asserted by a property test. Round
//! and pass counts drive the simulated GPU kernel-launch cost, so their
//! determinism matters as much as the labels'.

use std::cell::RefCell;

use nbwp_sim::KernelStats;

use crate::Graph;

/// Result of a Shiloach–Vishkin run.
#[derive(Clone, Debug)]
pub struct SvOutcome {
    /// Per-vertex labels: the minimum vertex id of the component.
    pub labels: Vec<u32>,
    /// Outer hook+compress rounds executed (≥ 1 on non-empty graphs).
    pub rounds: u32,
    /// Pointer-doubling passes executed across all rounds.
    pub doubling_passes: u32,
    /// Execution counters under the shared accounting convention.
    pub stats: KernelStats,
}

/// Runs synchronous Shiloach–Vishkin on `g`.
#[must_use]
pub fn cc_sv(g: &Graph) -> SvOutcome {
    let n = g.n();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut stats = KernelStats::new();
    let mut rounds = 0u32;
    let mut doubling_passes = 0u32;
    if n == 0 {
        return SvOutcome {
            labels: parent,
            rounds,
            doubling_passes,
            stats,
        };
    }
    stats.mem_write_bytes += 4 * n as u64; // init parents
    stats.kernel_launches += 1;
    let mut cand: Vec<u32> = vec![0; n];

    loop {
        rounds += 1;
        // --- Hook: min-reduce, per root, of smaller neighbor-tree labels.
        // (A device would do this with atomicMin; min is commutative, so
        // the result does not depend on the order the vertices are visited.)
        cand.copy_from_slice(&parent);
        for u in 0..n {
            let ru = parent[u] as usize;
            for &v in g.neighbors(u) {
                let rv = parent[v as usize];
                if rv < cand[ru] {
                    cand[ru] = rv;
                }
            }
        }
        let mut hooked = false;
        for r in 0..n {
            if cand[r] < parent[r] {
                parent[r] = cand[r];
                hooked = true;
            }
        }
        stats.kernel_launches += 2; // hook kernel + apply kernel
        stats.sync_rounds += 1;
        stats.int_ops += 2 * g.arcs() as u64 + 2 * n as u64;
        stats.mem_read_bytes += (8 * g.arcs() + 8 * n) as u64;
        stats.irregular_bytes += 8 * g.arcs() as u64; // gather both labels
        stats.mem_write_bytes += 8 * n as u64;

        // --- Compress: pointer doubling until idempotent.
        let mut compressed_any = false;
        loop {
            let (compressed, changed) = double_pass(&parent);
            doubling_passes += 1;
            stats.kernel_launches += 1;
            stats.int_ops += 2 * n as u64;
            stats.mem_read_bytes += 8 * n as u64;
            stats.irregular_bytes += 4 * n as u64; // gather parent[parent[v]]
            stats.mem_write_bytes += 4 * n as u64;
            parent = compressed;
            compressed_any |= changed;
            if !changed {
                break;
            }
        }
        if !hooked && !compressed_any {
            break;
        }
    }
    stats.parallel_items = g.arcs().max(n) as u64;
    stats.working_set_bytes = g.size_bytes() + 8 * n as u64;
    SvOutcome {
        labels: parent,
        rounds,
        doubling_passes,
        stats,
    }
}

/// The exact `(rounds, doubling_passes, internal_arcs)` that [`cc_sv`]
/// reports on the band subgraph `g.vertex_interval_subgraph(lo, hi)`,
/// computed from the parent graph without building the band or simulating
/// a single pointer-doubling pass.
///
/// Renumbering the band to `0..hi-lo` is a uniform id shift, so every
/// label comparison of the run is order-isomorphic on the parent's ids,
/// and a band vertex's internal neighbours are a contiguous slice of its
/// sorted adjacency. Three facts about [`cc_sv`] then make the replay
/// closed-form:
///
/// * **Doubling passes.** After hooking, the parent pointers form a
///   forest. A Jacobi doubling pass moves a vertex of depth `d` from its
///   `2^(j-1)`-th to its `2^j`-th ancestor, capped at the root, so pass `j`
///   changes something iff the deepest vertex has depth `D > 2^(j-1)`, and
///   the round's compression runs `1 + ⌈log2 D⌉` passes (`1` when
///   `D ≤ 1`: the final pass that changes nothing).
/// * **Round 1.** Every vertex starts as its own root, and the minimum
///   label a vertex sees is its first in-band neighbour, so each vertex
///   hooks onto that neighbour when it is smaller. The hook target has a
///   smaller id, so depths and roots follow in one increasing-id sweep
///   over the band, with no arc pass.
/// * **Rounds ≥ 2.** Compression leaves every tree a star, so a root
///   hooks onto the smallest root across its *inter-tree* edges, and
///   intra-tree arcs never change a candidate. The inter-tree edges,
///   collected once in the round-1 sweep and relabelled by root each
///   round, are all later rounds read. The deepest vertex is the deepest
///   hooked root, one level deeper when its tree has members besides the
///   root; trees without inter-tree edges never reach depth 2. The run
///   stops after the first round without a hook, which has no inter-tree
///   edges and one doubling pass.
///
/// The internal arc count is the sum of the band slices, exactly
/// `g.vertex_interval_subgraph(lo, hi).0.arcs()`: band-internal arcs are
/// not derivable from a profile's suffix curves, so the replay reports them
/// for [`sv_stats_closed_form`]. Working buffers are reused per thread, so
/// a warm replay allocates nothing.
///
/// # Panics
/// Panics if `lo > hi` or `hi > g.n()`.
#[must_use]
pub fn sv_band_counts(g: &Graph, lo: usize, hi: usize) -> (u32, u32, u64) {
    assert!(lo <= hi && hi <= g.n(), "band out of bounds");
    if lo == hi {
        return (0, 0, 0);
    }
    SV_BUFFERS.with(|buffers| buffers.borrow_mut().band_counts(g, lo, hi))
}

thread_local! {
    /// Per-thread [`sv_band_counts`] buffers: a search's probes replay
    /// band after band on the calling thread.
    static SV_BUFFERS: RefCell<SvBuffers> = RefCell::default();
}

/// Working arrays of one [`sv_band_counts`] replay. Labels are band-local
/// vertex ids in round 1 and order-preserving compact ids afterwards.
#[derive(Default)]
struct SvBuffers {
    /// Round 1: each vertex's root. Later rounds: each node's root after
    /// the round's hooks.
    root: Vec<u32>,
    /// Round 1: each vertex's depth. Later rounds: each node's depth in
    /// the forest of hooked roots.
    depth: Vec<u32>,
    /// Whether a node's tree has members besides its root. Fixed after
    /// round 1: a vertex next to a round-1 singleton root `f` and above it
    /// would have hooked onto `f` or lower in round 1, so no root ever
    /// hooks onto a memberless tree.
    members: Vec<bool>,
    /// Compact relabelling, then each node's hook target.
    cand: Vec<u32>,
    /// Inter-tree edges as `(larger root, smaller root)`.
    edges: Vec<(u32, u32)>,
}

impl SvBuffers {
    fn band_counts(&mut self, g: &Graph, lo: usize, hi: usize) -> (u32, u32, u64) {
        let n = hi - lo;
        let SvBuffers {
            root,
            depth,
            members,
            cand,
            edges,
        } = self;
        root.clear();
        depth.clear();
        members.clear();
        members.resize(n, false);
        edges.clear();
        // Round 1: hook onto the first in-band neighbour when it is smaller;
        // collect each inter-tree edge once, from its higher endpoint.
        let mut arcs = 0u64;
        let mut deepest = 0u32;
        for u in 0..n {
            let internal = g.band_neighbors(lo + u, lo, hi);
            arcs += internal.len() as u64;
            let (r, d) = match internal.first() {
                Some(&f) if (f as usize) < lo + u => {
                    let f = f as usize - lo;
                    (root[f], depth[f] + 1)
                }
                _ => (u as u32, 0),
            };
            root.push(r);
            depth.push(d);
            if d > 0 {
                members[r as usize] = true;
                deepest = deepest.max(d);
            }
            for &v in internal {
                let v = v as usize - lo;
                if v >= u {
                    break;
                }
                let rv = root[v];
                if rv != r {
                    edges.push((r.max(rv), r.min(rv)));
                }
            }
        }
        let mut rounds = 1u32;
        let mut passes = doubling_passes(deepest);
        if arcs == 0 {
            return (rounds, passes, 0);
        }
        cand.resize(n, 0);
        let mut nodes = n;
        loop {
            rounds += 1;
            if edges.is_empty() {
                return (rounds, passes + 1, arcs);
            }
            // Relabel only when the labels far outnumber the edges: each
            // later round then costs O(edges) instead of O(labels).
            if nodes > 2 * edges.len() {
                nodes = compact(nodes, edges, members, cand);
            }
            // Hook every root onto its smallest neighbouring root.
            for (r, c) in cand[..nodes].iter_mut().enumerate() {
                *c = r as u32;
            }
            for &(a, b) in edges.iter() {
                let slot = &mut cand[a as usize];
                *slot = (*slot).min(b);
            }
            // Hook targets are smaller, so one increasing sweep settles
            // every node's depth and final root.
            let mut deepest = 0u32;
            for r in 0..nodes {
                let c = cand[r] as usize;
                (root[r], depth[r]) = if c < r {
                    (root[c], depth[c] + 1)
                } else {
                    (r as u32, 0)
                };
                deepest = deepest.max(depth[r] + u32::from(members[r]));
            }
            passes += doubling_passes(deepest);
            edges.retain_mut(|(a, b)| {
                let (x, y) = (root[*a as usize], root[*b as usize]);
                (*a, *b) = (x.max(y), x.min(y));
                x != y
            });
        }
    }
}

/// Doubling passes one compression runs on a forest whose deepest vertex
/// has depth `deepest`: `1 + ⌈log2 deepest⌉`, or `1` when `deepest ≤ 1`.
fn doubling_passes(deepest: u32) -> u32 {
    1 + (u32::BITS - deepest.saturating_sub(1).leading_zeros())
}

/// Relabels the endpoints of `edges`, labels in `0..nodes`, onto
/// `0..nodes'` in increasing order, dropping labels no edge names, and
/// moves each kept label's `members` flag with it. Returns `nodes'`.
fn compact(nodes: usize, edges: &mut [(u32, u32)], members: &mut [bool], ids: &mut [u32]) -> usize {
    const UNNAMED: u32 = u32::MAX;
    let ids = &mut ids[..nodes];
    ids.fill(UNNAMED);
    for &(a, b) in edges.iter() {
        ids[a as usize] = 0;
        ids[b as usize] = 0;
    }
    // Ids are handed out in increasing label order, and `kept <= x`, so
    // each slot is read before it is overwritten.
    let mut kept = 0usize;
    for x in 0..nodes {
        if ids[x] != UNNAMED {
            ids[x] = kept as u32;
            members[kept] = members[x];
            kept += 1;
        }
    }
    for (a, b) in edges.iter_mut() {
        (*a, *b) = (ids[*a as usize], ids[*b as usize]);
    }
    kept
}

/// Closed-form [`cc_sv`] counters for a graph with `n` vertices, `arcs`
/// directed arcs, and CSR footprint `size_bytes`, given the observed
/// `(rounds, doubling_passes)`. Bitwise equal to the stats [`cc_sv`]
/// accumulates (each round charges the hook + apply kernels; each doubling
/// pass one compression kernel), so a cost profile can price the GPU side
/// of any split from curve lookups plus the replayed counts.
#[must_use]
pub fn sv_stats_closed_form(
    n: usize,
    arcs: u64,
    size_bytes: u64,
    rounds: u32,
    doubling_passes: u32,
) -> KernelStats {
    if n == 0 {
        return KernelStats::new();
    }
    let n = n as u64;
    let (r, d) = (u64::from(rounds), u64::from(doubling_passes));
    let mut stats = KernelStats::new();
    stats.mem_write_bytes = 4 * n + r * 8 * n + d * 4 * n;
    stats.kernel_launches = 1 + 2 * r + d;
    stats.sync_rounds = r;
    stats.int_ops = r * (2 * arcs + 2 * n) + d * 2 * n;
    stats.mem_read_bytes = r * (8 * arcs + 8 * n) + d * 8 * n;
    stats.irregular_bytes = r * 8 * arcs + d * 4 * n;
    stats.parallel_items = arcs.max(n);
    stats.working_set_bytes = size_bytes + 8 * n;
    stats
}

/// One pointer-doubling pass: `out[v] = f[f[v]]`. Returns the new array and
/// whether anything changed. Jacobi-style: it reads the previous array and
/// writes a fresh one, as the vertex-parallel device kernel does.
fn double_pass(f: &[u32]) -> (Vec<u32>, bool) {
    let mut out = vec![0u32; f.len()];
    let mut changed = false;
    for (v, o) in out.iter_mut().enumerate() {
        let x = f[f[v] as usize];
        changed |= x != f[v];
        *o = x;
    }
    (out, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::union_find::cc_union_find;
    use crate::csr_graph::{count_components, normalize_labels};

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn labels_are_component_minima() {
        let g = Graph::from_edges(6, &[(5, 4), (4, 3), (0, 1)]);
        let out = cc_sv(&g);
        assert_eq!(out.labels, vec![0, 0, 2, 3, 3, 3]);
    }

    #[test]
    fn matches_oracle_on_structured_graphs() {
        for g in [
            path(50),
            Graph::from_edges(10, &[]),
            Graph::from_edges(8, &[(0, 7), (1, 6), (2, 5), (3, 4), (0, 3)]),
        ] {
            let sv = normalize_labels(&cc_sv(&g).labels);
            let oracle = normalize_labels(&cc_union_find(&g));
            assert_eq!(sv, oracle);
        }
    }

    #[test]
    fn rounds_stay_logarithmic_on_adversarial_numbering() {
        // Zig-zag numbered path: per-vertex min propagation would need
        // Θ(n) rounds here; root hooking must stay O(log n).
        let n = 20_000u32;
        let order: Vec<u32> = (0..n)
            .map(|i| if i % 2 == 0 { i + 1 } else { i - 1 })
            .map(|v| v.min(n - 1))
            .collect();
        let edges: Vec<(u32, u32)> = order.windows(2).map(|w| (w[0], w[1])).collect();
        let g = Graph::from_edges(n as usize, &edges);
        let out = cc_sv(&g);
        let bound = (n as f64).log2().ceil() as u32 + 3;
        assert!(
            out.rounds <= bound,
            "rounds {} exceed log bound {}",
            out.rounds,
            bound
        );
    }

    #[test]
    fn suffix_subgraphs_converge_fast() {
        // Regression: vertex-interval suffixes of strip graphs previously
        // took Θ(n) rounds under per-vertex min hooking.
        let g = path(10_000);
        let (suffix, _) = g.vertex_interval_subgraph(2_000, 10_000);
        let out = cc_sv(&suffix);
        assert!(out.rounds <= 17, "rounds = {}", out.rounds);
        assert_eq!(count_components(&out.labels), 1);
    }

    #[test]
    fn long_path_needs_more_doubling_than_star() {
        let p = path(4096);
        let star = Graph::from_edges(4096, &(1..4096u32).map(|v| (0, v)).collect::<Vec<_>>());
        let out_p = cc_sv(&p);
        let out_s = cc_sv(&star);
        assert_eq!(count_components(&out_p.labels), 1);
        assert_eq!(count_components(&out_s.labels), 1);
        assert!(
            out_p.doubling_passes > out_s.doubling_passes,
            "path {} vs star {}",
            out_p.doubling_passes,
            out_s.doubling_passes
        );
    }

    #[test]
    fn stats_count_launches_per_round() {
        let g = path(100);
        let out = cc_sv(&g);
        // 1 init + 2 per round (hook, apply) + 1 per doubling pass.
        assert_eq!(
            out.stats.kernel_launches,
            1 + 2 * u64::from(out.rounds) + u64::from(out.doubling_passes)
        );
        assert_eq!(out.stats.sync_rounds, u64::from(out.rounds));
    }

    #[test]
    fn suffix_counts_and_closed_form_match_materialized_run() {
        let n = 900;
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        for i in (0..n as u32).step_by(13) {
            edges.push((i, (i * 31 + 7) % n as u32));
        }
        let g = Graph::from_edges(n, &edges);
        for start in [0, 1, 137, 450, 899, 900] {
            let (sub, _) = g.vertex_interval_subgraph(start, n);
            let direct = cc_sv(&sub);
            let (rounds, passes, _) = sv_band_counts(&g, start, n);
            assert_eq!((rounds, passes), (direct.rounds, direct.doubling_passes));
            let closed =
                sv_stats_closed_form(sub.n(), sub.arcs() as u64, sub.size_bytes(), rounds, passes);
            assert_eq!(closed, direct.stats, "start = {start}");
        }
    }

    #[test]
    fn band_counts_and_closed_form_match_materialized_run() {
        let n = 600;
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        for i in (0..n as u32).step_by(17) {
            edges.push((i, (i * 23 + 11) % n as u32));
        }
        let g = Graph::from_edges(n, &edges);
        for (lo, hi) in [
            (0, 0),
            (0, 600),
            (150, 450),
            (300, 300),
            (1, 599),
            (580, 600),
        ] {
            let (sub, _) = g.vertex_interval_subgraph(lo, hi);
            let direct = cc_sv(&sub);
            let (rounds, passes, arcs) = sv_band_counts(&g, lo, hi);
            assert_eq!(
                (rounds, passes),
                (direct.rounds, direct.doubling_passes),
                "band {lo}..{hi}"
            );
            assert_eq!(arcs, sub.arcs() as u64, "band {lo}..{hi}");
            let closed = sv_stats_closed_form(sub.n(), arcs, sub.size_bytes(), rounds, passes);
            assert_eq!(closed, direct.stats, "band {lo}..{hi}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Graph::from_edges(0, &[]);
        let out = cc_sv(&empty);
        assert!(out.labels.is_empty());
        assert_eq!(out.rounds, 0);
        let single = Graph::from_edges(1, &[]);
        let out = cc_sv(&single);
        assert_eq!(out.labels, vec![0]);
    }
}
