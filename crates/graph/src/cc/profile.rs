//! Cost profile for hybrid CC: price [`hybrid_cc`](crate::cc::hybrid_cc)'s
//! [`RunReport`] at any threshold without partitioning the graph or running
//! the kernels.
//!
//! One construction pass over the arcs builds three split-indexed curves
//! (GPU-internal arcs, cross arcs, and — implicitly, via the DFS replay —
//! CPU-internal arcs). Pricing a threshold then needs only:
//!
//! * curve lookups for every arc/byte-linear counter (partition, transfer,
//!   merge, and both compute kernels' volume terms);
//! * a label-only Shiloach–Vishkin replay ([`sv_suffix_counts`](crate::cc::sv_suffix_counts)) for the
//!   GPU round/pass counts, and two binary searches per prefix vertex
//!   ([`dfs_prefix_cost`](crate::cc::dfs_prefix_cost)) for the CPU chunk balance and deferred edges —
//!   both memoized per split, so repeated evaluations at the same
//!   quantized threshold are O(1).
//!
//! The result is **bitwise equal** to the `report` field of a direct
//! `hybrid_cc` run (asserted per split in the tests): both paths feed
//! identical integer counters through the same [`Platform`] pricing
//! functions.

use std::collections::HashMap;
use std::sync::Mutex;

use nbwp_sim::{
    AlignedU64s, CurveEval, Device, DeviceKind, DeviceSet, KernelStats, Partition, Platform,
    ProfileScratch, RunBreakdown, RunReport, SimTime,
};

use crate::cc::dfs::{dfs_band_cost, DfsPrefixCost};
use crate::cc::sv::{sv_band_counts, sv_stats_closed_form};
use crate::Graph;

/// Split-indexed cost curves plus memoized control-flow residuals for
/// pricing hybrid CC thresholds. Build once per graph with
/// [`CcCostProfile::new`]; price with [`CcCostProfile::report_at`].
#[derive(Debug)]
pub struct CcCostProfile {
    n: usize,
    arcs: u64,
    size_bytes: u64,
    /// `arcs_gpu[s]` = directed arcs internal to the vertex suffix `s..n`.
    arcs_gpu: AlignedU64s,
    /// `cross[s]` = directed arcs from `0..s` into `s..n` (one per
    /// boundary-crossing undirected edge, from the lower endpoint's side).
    cross: AlignedU64s,
    /// DFS residual memo keyed by `(band_lo, band_hi, chunks)` — the
    /// scalar CPU prefix is the `(0, split, chunks)` entry.
    dfs_memo: Mutex<HashMap<(usize, usize, usize), DfsPrefixCost>>,
    /// SV `(rounds, doubling_passes, internal_arcs)` memo keyed by
    /// `(band_lo, band_hi)` — the scalar GPU suffix is `(split, n)`.
    sv_memo: Mutex<HashMap<(usize, usize), SvBandCounts>>,
}

/// SV replay residuals for one vertex band: `(rounds, doubling_passes,
/// internal_arcs)`.
type SvBandCounts = (u32, u32, u64);

impl CcCostProfile {
    /// Builds the curves in one `O(n + arcs)` pass over `g`.
    #[must_use]
    pub fn new(g: &Graph) -> Self {
        CcCostProfile::new_in(g, &mut ProfileScratch::new())
    }

    /// Builds the curves with both stored buffers drawn from `scratch`
    /// (allocation-free when the arena is warm). Bitwise identical to the
    /// per-arc histogram construction of [`CcCostProfile::new`]'s original
    /// formulation, exploiting the [`Graph`] invariants (symmetric, sorted,
    /// self-loop-free, duplicate-free adjacency):
    ///
    /// * arcs `u→v` and `v→u` of an edge `{u, v}` with `u < v` both have
    ///   min endpoint `u`, so `min_hist[u]` is exactly `2·|{v ∈ adj(u) :
    ///   v > u}|` — one batched store per vertex, no per-arc walk;
    /// * an edge crosses boundary `s` iff `u < s <= v`, so `cross[s]` is
    ///   the running sum over `w < s` of `greater(w) − lesser(w)` (edges
    ///   opened at their lower endpoint minus edges closed at their upper
    ///   endpoint) — a plain prefix sum in wrapping `u64`, two's-complement
    ///   identical to the signed difference-array accumulation it replaces.
    ///
    /// Both passes are linear scans with no data-dependent branches, so the
    /// whole build is `O(n log d)` sequential memory traffic.
    #[must_use]
    pub fn new_in(g: &Graph, scratch: &mut ProfileScratch) -> Self {
        let n = g.n();
        let mut arcs_gpu = scratch.take(n + 1);
        let mut cross = scratch.take(n + 1);
        {
            let ag = arcs_gpu.as_mut_slice();
            let cx = cross.as_mut_slice();
            let mut acc = 0u64;
            for u in 0..n {
                let adj = g.neighbors(u);
                let lesser = adj.partition_point(|&v| (v as usize) <= u);
                let greater = (adj.len() - lesser) as u64;
                ag[u] = 2 * greater;
                acc = acc.wrapping_add(greater).wrapping_sub(lesser as u64);
                cx[u + 1] = acc;
            }
            // In-place suffix sum turns the per-vertex min-histogram into
            // arcs internal to the suffix (ag[n] is the zeroed sentinel).
            let mut suffix = 0u64;
            for slot in ag[..n].iter_mut().rev() {
                suffix += *slot;
                *slot = suffix;
            }
        }
        CcCostProfile {
            n,
            arcs: g.arcs() as u64,
            size_bytes: g.size_bytes(),
            arcs_gpu,
            cross,
            dfs_memo: Mutex::new(HashMap::new()),
            sv_memo: Mutex::new(HashMap::new()),
        }
    }

    /// Rewrites the profile in place after vertices `lo..hi` changed
    /// adjacency (e.g. via `GraphDelta::apply` — an edge `{u, v}` only
    /// changes the adjacency lists of `u` and `v`, so the touched-vertex
    /// interval bounds the span). `g` is the **mutated** graph. Runs in
    /// O(Σ degree over the span + shift) entirely in place — no scratch
    /// arena needed:
    ///
    /// * `cross` recomputes its span from `cross[lo]` and shifts the tail
    ///   by the span delta (wrapping, two's-complement identical to the
    ///   rebuild);
    /// * `arcs_gpu` is a suffix sum: its span recomputes backwards from
    ///   the unchanged `arcs_gpu[hi]` and the prefix `0..lo` shifts;
    /// * the control-flow memos are cleared — they key on graph content.
    ///
    /// The patched curves are **bitwise identical** to
    /// `CcCostProfile::new_in(g, ..)` (the patch-equals-rebuild contract);
    /// `patch(g, 0, n)` is the crossover fallback — a full in-place
    /// rebuild.
    ///
    /// # Panics
    /// Panics if `g.n() != n`, `lo > hi`, or `hi > n`.
    pub fn patch(&mut self, g: &Graph, lo: usize, hi: usize) {
        assert_eq!(g.n(), self.n, "patch graph has a different vertex count");
        assert!(
            lo <= hi && hi <= self.n,
            "patch span {lo}..{hi} out of bounds"
        );
        self.arcs = g.arcs() as u64;
        self.size_bytes = g.size_bytes();
        self.dfs_memo.lock().expect("dfs memo poisoned").clear();
        self.sv_memo.lock().expect("sv memo poisoned").clear();
        if lo == hi {
            return;
        }
        let ag = self.arcs_gpu.as_mut_slice();
        let cx = self.cross.as_mut_slice();
        let old_cx_hi = cx[hi];
        let old_ag_lo = ag[lo];
        // Forward span pass: cross prefix values, with the per-vertex
        // min-histogram (2·greater) parked in ag for the reverse pass.
        let mut acc = cx[lo];
        for u in lo..hi {
            let adj = g.neighbors(u);
            let lesser = adj.partition_point(|&v| (v as usize) <= u);
            let greater = (adj.len() - lesser) as u64;
            ag[u] = 2 * greater;
            acc = acc.wrapping_add(greater).wrapping_sub(lesser as u64);
            cx[u + 1] = acc;
        }
        let delta_cx = cx[hi].wrapping_sub(old_cx_hi);
        if delta_cx != 0 {
            for slot in &mut cx[hi + 1..] {
                *slot = slot.wrapping_add(delta_cx);
            }
        }
        // Reverse span pass: fold the parked histogram into suffix sums
        // starting from the untouched ag[hi] (ag[n] is the 0 sentinel).
        let mut suffix = ag[hi];
        for u in (lo..hi).rev() {
            suffix += ag[u];
            ag[u] = suffix;
        }
        let delta_ag = ag[lo].wrapping_sub(old_ag_lo);
        if delta_ag != 0 {
            for slot in &mut ag[..lo] {
                *slot = slot.wrapping_add(delta_ag);
            }
        }
    }

    /// Returns the profile's curve buffers to `scratch` for reuse by the
    /// next build (the control-flow memos are dropped — they key on the
    /// graph and cannot be reused across inputs).
    pub fn recycle(self, scratch: &mut ProfileScratch) {
        scratch.give(self.arcs_gpu);
        scratch.give(self.cross);
    }

    /// Raw split-indexed curve arrays `(arcs_gpu, cross)`, for benchmark
    /// parity gates comparing against an independently built profile.
    #[doc(hidden)]
    #[must_use]
    pub fn raw_curves(&self) -> (&[u64], &[u64]) {
        (&self.arcs_gpu, &self.cross)
    }

    /// Number of vertices the CPU takes at threshold `t_pct` — the same
    /// rounding [`hybrid_cc`](crate::cc::hybrid_cc) applies.
    #[must_use]
    pub fn split_at(&self, t_pct: f64) -> usize {
        ((self.n as f64 * t_pct / 100.0).round() as usize).min(self.n)
    }

    /// Prices the full hybrid CC run at threshold `t_pct`, bitwise equal to
    /// `hybrid_cc(g, t_pct, platform, _).report`. `g` must be the graph the
    /// profile was built from.
    ///
    /// # Panics
    /// Panics if `t_pct` is outside `[0, 100]` or `g` has a different
    /// vertex count than the profiled graph.
    #[must_use]
    pub fn report_at(&self, g: &Graph, t_pct: f64, platform: &Platform) -> RunReport {
        assert!(
            (0.0..=100.0).contains(&t_pct),
            "threshold {t_pct} out of [0, 100]"
        );
        self.report_at_split(g, self.split_at(t_pct), platform)
    }

    /// Prices the full hybrid CC run with `n_cpu` vertices on the CPU —
    /// [`CcCostProfile::report_at`] after threshold-to-split rounding.
    /// Exposed so split-indexed consumers (the cost curve) can price every
    /// admissible split, not only those a `[0, 100]` threshold reaches.
    ///
    /// # Panics
    /// Panics if `n_cpu > n` or `g` has a different vertex count than the
    /// profiled graph.
    #[must_use]
    pub fn report_at_split(&self, g: &Graph, n_cpu: usize, platform: &Platform) -> RunReport {
        assert_eq!(g.n(), self.n, "profile built from a different graph");
        assert!(n_cpu <= self.n, "split {n_cpu} exceeds vertex count");
        let n = self.n;
        let n_gpu = n - n_cpu;

        let partition = self.partition_cost(platform);

        // Phase II, CPU side: chunked-DFS counters plus the deferred-edge
        // surcharge the hybrid driver adds before pricing. The CPU prefix
        // is the `0..n_cpu` band.
        let cpu_stats = self.cpu_band_stats(g, 0, n_cpu, platform.cpu.cores);
        let cpu_compute = platform.cpu_time(&cpu_stats);

        // Phase II, GPU side: replayed SV control flow + closed-form stats
        // on the `n_cpu..n` band.
        let (gpu_stats, gpu_size_bytes) = self.gpu_band_stats(g, n_cpu, n);
        let gpu_compute = platform.gpu_time(&gpu_stats);
        let transfer_in = platform.transfer(gpu_size_bytes);

        // Merge: cross-edge union + relabel on the GPU after the CPU labels
        // travel over.
        let merge = self.merge_cost_for(self.cross[n_cpu], n_cpu as u64, platform);

        RunReport {
            breakdown: RunBreakdown {
                partition,
                transfer_in,
                cpu_compute,
                gpu_compute,
                transfer_out: platform.transfer(4 * n_gpu as u64),
                merge,
            },
            cpu_stats,
            gpu_stats,
        }
    }

    /// Phase I price: the partition pass streams the whole graph
    /// regardless of the cut vector, so its counters come straight from
    /// the scalars. Shared by the scalar report and the k-way curve.
    #[must_use]
    pub fn partition_cost(&self, platform: &Platform) -> SimTime {
        let partition_stats = KernelStats {
            int_ops: self.arcs,
            mem_read_bytes: 4 * self.arcs + 8 * (self.n as u64 + 1),
            mem_write_bytes: 4 * self.arcs,
            parallel_items: platform.cpu.cores as u64,
            working_set_bytes: 2 * self.size_bytes,
            ..KernelStats::default()
        };
        platform.cpu_time(&partition_stats)
    }

    /// Chunked-DFS counters for the CPU band `lo..hi` (memoized), with the
    /// deferred-edge surcharge the hybrid driver adds before pricing. The
    /// scalar CPU side is the `0..split` call.
    #[must_use]
    pub fn cpu_band_stats(&self, g: &Graph, lo: usize, hi: usize, chunks: usize) -> KernelStats {
        let dfs = {
            let mut memo = self.dfs_memo.lock().expect("dfs memo poisoned");
            memo.entry((lo, hi, chunks))
                .or_insert_with(|| dfs_band_cost(g, lo, hi, chunks))
                .clone()
        };
        let mut stats = dfs.stats;
        stats.int_ops += 8 * dfs.deferred_edges;
        stats.mem_read_bytes += 8 * dfs.deferred_edges;
        stats.irregular_bytes += 8 * dfs.deferred_edges;
        stats
    }

    /// Closed-form SV counters for the GPU band `lo..hi` (control-flow
    /// replay memoized), returned with the band CSR footprint in bytes —
    /// the quantity shipped over the device link. The scalar GPU side is
    /// the `split..n` call, where the replayed internal-arc count equals
    /// the `arcs_gpu` curve entry exactly.
    #[must_use]
    pub fn gpu_band_stats(&self, g: &Graph, lo: usize, hi: usize) -> (KernelStats, u64) {
        let (rounds, passes, arcs) = {
            let mut memo = self.sv_memo.lock().expect("sv memo poisoned");
            *memo
                .entry((lo, hi))
                .or_insert_with(|| sv_band_counts(g, lo, hi))
        };
        let len = hi - lo;
        // Band CSR footprint: (len + 1) row pointers + internal arcs.
        let size_bytes = 8 * (len as u64 + 1) + 4 * arcs;
        (
            sv_stats_closed_form(len, arcs, size_bytes, rounds, passes),
            size_bytes,
        )
    }

    /// Merge price for `merge_edges` deferred cross edges with
    /// `cpu_label_units` CPU-resident labels to ship to the device:
    /// cross-edge union + relabel on the GPU after the CPU labels travel
    /// over. The scalar merge is the `(cross[split], split)` call; a k-way
    /// cut sums `cross` over its interior cuts (each band boundary defers
    /// its own crossing edges) and ships every CPU band's labels.
    #[must_use]
    pub fn merge_cost_for(
        &self,
        merge_edges: u64,
        cpu_label_units: u64,
        platform: &Platform,
    ) -> SimTime {
        let n = self.n;
        let merge_stats = KernelStats {
            int_ops: 8 * merge_edges + 2 * n as u64,
            mem_read_bytes: 8 * merge_edges + 8 * n as u64,
            irregular_bytes: 8 * merge_edges + 4 * n as u64,
            mem_write_bytes: 4 * n as u64,
            atomic_ops: 2 * merge_edges,
            kernel_launches: u64::from(merge_edges > 0 || n > 0),
            parallel_items: merge_edges.max(n as u64).max(1),
            working_set_bytes: 8 * n as u64,
            ..KernelStats::default()
        };
        platform.transfer(4 * cpu_label_units) + platform.gpu_time(&merge_stats)
    }

    /// The `cross` curve entry at `cut`: directed arcs from `0..cut` into
    /// `cut..n` (one per boundary-crossing undirected edge).
    #[must_use]
    pub fn cross_at(&self, cut: usize) -> u64 {
        self.cross[cut]
    }
}

/// The hybrid CC total-cost curve as a [`CurveEval`]: every vertex split
/// priced exactly through [`CcCostProfile::report_at_split`] (memoized
/// control-flow replays make repeat queries cheap). Thresholds are CPU
/// vertex percentages, mapped by the same rounding `hybrid_cc` applies.
pub struct CcCostCurve<'a> {
    profile: &'a CcCostProfile,
    graph: &'a Graph,
    platform: &'a Platform,
}

impl<'a> CcCostCurve<'a> {
    /// Bundles a built profile with its graph and the pricing platform.
    ///
    /// # Panics
    /// Panics if `graph` has a different vertex count than the profile.
    #[must_use]
    pub fn new(profile: &'a CcCostProfile, graph: &'a Graph, platform: &'a Platform) -> Self {
        assert_eq!(graph.n(), profile.n, "profile built from a different graph");
        CcCostCurve {
            profile,
            graph,
            platform,
        }
    }
}

impl CurveEval for CcCostCurve<'_> {
    fn splits(&self) -> usize {
        self.profile.n + 1
    }

    fn split_for(&self, t: f64) -> usize {
        self.profile.split_at(t)
    }

    fn total_at(&self, split: usize) -> SimTime {
        self.profile
            .report_at_split(self.graph, split, self.platform)
            .total()
    }

    /// Prices the vertex band `lo..hi` on `device`: CPU-class devices run
    /// the chunked DFS (host-resident, compute only, scaled by speed);
    /// GPU-class devices replay Shiloach–Vishkin on the band and pay
    /// their link's transfer of the band CSR in and the band labels out.
    /// Mirrors [`CcCostProfile::report_at_split`] term by term, so the
    /// canonical two-device split reproduces the scalar lanes bitwise —
    /// including the no-special-case empty GPU band, which still ships
    /// its 8-byte row-pointer sentinel like the scalar path does.
    fn device_band(&self, device: &Device, lo: usize, hi: usize) -> Option<SimTime> {
        match device.kind {
            DeviceKind::Cpu => {
                let stats =
                    self.profile
                        .cpu_band_stats(self.graph, lo, hi, self.platform.cpu.cores);
                Some(device.scale(self.platform.cpu_time(&stats)))
            }
            DeviceKind::Gpu => {
                let (stats, size_bytes) = self.profile.gpu_band_stats(self.graph, lo, hi);
                let transfer_in = device.transfer(self.platform, size_bytes);
                let transfer_out = device.transfer(self.platform, 4 * (hi - lo) as u64);
                Some(transfer_in + device.scale(self.platform.gpu_time(&stats)) + transfer_out)
            }
        }
    }

    /// Phase I streams the whole graph regardless of the cut vector.
    fn partition_overhead(&self) -> SimTime {
        self.profile.partition_cost(self.platform)
    }

    /// k-way merge: each interior cut defers its own crossing edges (the
    /// `cross` curve entry at that cut), and every CPU band's labels ship
    /// to the device before the union+relabel kernel. At k = 2 this is
    /// exactly the scalar merge — `cross[split]` edges and `split` labels.
    fn merge_cost(&self, set: &DeviceSet, p: &Partition) -> SimTime {
        let merge_edges: u64 = p.cuts().iter().map(|&c| self.profile.cross_at(c)).sum();
        let cpu_label_units: u64 = set
            .devices()
            .iter()
            .zip(p.bands())
            .filter(|(d, _)| d.kind == DeviceKind::Cpu)
            .map(|(_, (lo, hi))| (hi - lo) as u64)
            .sum();
        self.profile
            .merge_cost_for(merge_edges, cpu_label_units, self.platform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::hybrid::hybrid_cc;
    use crate::gen;

    fn platforms() -> Vec<Platform> {
        vec![Platform::k40c_xeon_e5_2650()]
    }

    fn graphs() -> Vec<Graph> {
        let path: Vec<(u32, u32)> = (0..499u32).map(|i| (i, i + 1)).collect();
        let mut multi: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        multi.extend([(10, 11), (11, 12), (12, 10), (14, 15)]);
        vec![
            Graph::from_edges(500, &path),
            Graph::from_edges(16, &multi),
            gen::web(800, 4, 7),
            Graph::from_edges(3, &[]),
            Graph::from_edges(0, &[]),
        ]
    }

    #[test]
    fn profiled_report_is_bitwise_equal_to_direct() {
        for g in graphs() {
            let profile = CcCostProfile::new(&g);
            for platform in platforms() {
                for t in [0.0, 0.4, 3.0, 12.5, 37.5, 50.0, 77.3, 99.6, 100.0] {
                    let direct = hybrid_cc(&g, t, &platform, 2).report;
                    let profiled = profile.report_at(&g, t, &platform);
                    assert_eq!(profiled, direct, "n = {}, t = {t}", g.n());
                }
            }
        }
    }

    #[test]
    fn scratch_build_matches_fresh_on_every_curve_entry() {
        let mut scratch = ProfileScratch::new();
        for g in graphs() {
            let fresh = CcCostProfile::new(&g);
            let built = CcCostProfile::new_in(&g, &mut scratch);
            assert_eq!(built.raw_curves(), fresh.raw_curves(), "n = {}", g.n());
            built.recycle(&mut scratch);
            let warm = CcCostProfile::new_in(&g, &mut scratch);
            assert_eq!(warm.raw_curves(), fresh.raw_curves(), "warm n = {}", g.n());
            let platform = Platform::k40c_xeon_e5_2650();
            for t in [0.0, 37.5, 100.0] {
                assert_eq!(
                    warm.report_at(&g, t, &platform),
                    fresh.report_at(&g, t, &platform),
                    "n = {}, t = {t}",
                    g.n()
                );
            }
            warm.recycle(&mut scratch);
        }
    }

    #[test]
    fn patch_equals_rebuild_after_graph_delta() {
        use crate::delta::GraphDelta;
        let platform = Platform::k40c_xeon_e5_2650();
        let base = gen::web(800, 4, 7);
        let deltas = vec![
            GraphDelta::default(),
            GraphDelta::inserts(vec![(0, 799), (13, 14)]),
            GraphDelta::deletes(vec![base.edges().next().unwrap()]),
            GraphDelta {
                insert: vec![(100, 200), (100, 201), (5, 6)],
                delete: vec![(100, 200), (700, 701)],
            },
        ];
        for delta in deltas {
            let mut profile = CcCostProfile::new(&base);
            let (g2, info) = delta.apply(&base);
            let (lo, hi) = match (info.touched.first(), info.touched.last()) {
                (Some(&a), Some(&b)) => (a, b + 1),
                _ => (0, 0),
            };
            profile.patch(&g2, lo, hi);
            let fresh = CcCostProfile::new(&g2);
            assert_eq!(profile.raw_curves(), fresh.raw_curves(), "span {lo}..{hi}");
            for t in [0.0, 12.5, 50.0, 99.6, 100.0] {
                assert_eq!(
                    profile.report_at(&g2, t, &platform),
                    fresh.report_at(&g2, t, &platform),
                    "span {lo}..{hi}, t = {t}"
                );
            }
        }
        // Full-span patch is the crossover fallback: an in-place rebuild.
        let mut profile = CcCostProfile::new(&base);
        let (g2, _) = GraphDelta::inserts(vec![(1, 790)]).apply(&base);
        profile.patch(&g2, 0, g2.n());
        let fresh = CcCostProfile::new(&g2);
        assert_eq!(profile.raw_curves(), fresh.raw_curves());
    }

    #[test]
    fn repeated_evaluations_hit_the_memo() {
        let g = gen::web(300, 3, 1);
        let profile = CcCostProfile::new(&g);
        let platform = Platform::k40c_xeon_e5_2650();
        let a = profile.report_at(&g, 42.0, &platform);
        let b = profile.report_at(&g, 42.0, &platform);
        assert_eq!(a, b);
        assert_eq!(profile.sv_memo.lock().unwrap().len(), 1);
        assert_eq!(profile.dfs_memo.lock().unwrap().len(), 1);
    }

    #[test]
    fn canonical_two_way_partition_is_bitwise_the_scalar_total() {
        let set = DeviceSet::cpu_gpu();
        for g in graphs() {
            let profile = CcCostProfile::new(&g);
            for platform in platforms() {
                let curve = CcCostCurve::new(&profile, &g, &platform);
                for split in 0..curve.splits() {
                    let p = Partition::two_way(g.n(), split);
                    assert_eq!(
                        curve.partition_total(&set, &p).expect("band-priceable"),
                        curve.total_at(split),
                        "n = {}, split = {split}",
                        g.n()
                    );
                }
            }
        }
    }

    #[test]
    fn kway_partition_total_matches_direct_banded_execution() {
        use crate::cc::dfs::cc_dfs_chunked;
        use crate::cc::sv::cc_sv;
        let g = gen::web(400, 4, 7);
        let profile = CcCostProfile::new(&g);
        let platform = Platform::k40c_xeon_e5_2650();
        let curve = CcCostCurve::new(&profile, &g, &platform);
        let set = DeviceSet::dual_cpu_dual_gpu();
        let n = g.n();
        for cuts in [
            vec![100, 200, 300],
            vec![0, 200, 200],   // empty first CPU band + empty first GPU band
            vec![150, 150, 150], // everything on the last GPU
            vec![400, 400, 400], // everything on the first CPU
            vec![32, 64, 224],   // warp-boundary cuts
        ] {
            let p = Partition::new(n, cuts);
            let total = curve.partition_total(&set, &p).expect("band-priceable");
            // Direct k-banded execution: materialize every band subgraph,
            // run its kernel for real, price the same way.
            let mut slowest = SimTime::ZERO;
            for (d, (lo, hi)) in set.devices().iter().zip(p.bands()) {
                let (sub, _) = g.vertex_interval_subgraph(lo, hi);
                let t = match d.kind {
                    DeviceKind::Cpu => {
                        let run = cc_dfs_chunked(&sub, platform.cpu.cores);
                        let deferred = run.deferred_edges.len() as u64;
                        let mut stats = run.stats;
                        stats.int_ops += 8 * deferred;
                        stats.mem_read_bytes += 8 * deferred;
                        stats.irregular_bytes += 8 * deferred;
                        d.scale(platform.cpu_time(&stats))
                    }
                    DeviceKind::Gpu => {
                        let run = cc_sv(&sub, 1);
                        d.transfer(&platform, sub.size_bytes())
                            + d.scale(platform.gpu_time(&run.stats))
                            + d.transfer(&platform, 4 * sub.n() as u64)
                    }
                };
                slowest = slowest.max(t);
            }
            // Direct cross-edge count per interior cut, straight off the
            // edge list (arcs from the lower side crossing the cut).
            let merge_edges: u64 = p
                .cuts()
                .iter()
                .map(|&c| {
                    g.edges()
                        .filter(|&(u, v)| (u as usize) < c && c <= (v as usize))
                        .count() as u64
                })
                .sum();
            let cpu_units: u64 = p.band(0).1 as u64 + (p.band(1).1 - p.band(1).0) as u64;
            let direct = profile.partition_cost(&platform)
                + slowest
                + profile.merge_cost_for(merge_edges, cpu_units, &platform);
            assert_eq!(total, direct, "cuts {:?}", p.cuts());
        }
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn rejects_mismatched_graph() {
        let g = gen::web(100, 3, 1);
        let other = gen::web(101, 3, 1);
        let profile = CcCostProfile::new(&g);
        let _ = profile.report_at(&other, 50.0, &Platform::k40c_xeon_e5_2650());
    }
}
