//! Cost profile for hybrid CC: price [`hybrid_cc`](crate::cc::hybrid_cc)'s
//! [`RunReport`] at any threshold without partitioning the graph or running
//! the kernels.
//!
//! One construction pass over the arcs builds two split-indexed curves
//! (suffix-internal arcs and cross arcs). Pricing a threshold then needs
//! only:
//!
//! * curve lookups for every arc/byte-linear counter (partition, transfer,
//!   merge, and both compute kernels' volume terms);
//! * the GPU band's Shiloach–Vishkin round and doubling-pass counts, in
//!   closed form ([`sv_band_counts`]). The `j`-th Jacobi doubling pass
//!   moves every pointer from its `2^(j-1)`-th to its `2^j`-th ancestor,
//!   capped at the root, so a round whose hooked forest is `D` deep runs
//!   `1 + ⌈log2 D⌉` passes (`1` when `D ≤ 1`). Round 1 hooks each vertex
//!   onto its first in-band neighbour when that is smaller, read straight
//!   off the sorted adjacency; compression leaves every tree a star, so
//!   later rounds read only the inter-tree edges. No pointer-doubling pass
//!   is simulated;
//! * the CPU band's chunk balance and deferred edges ([`dfs_band_cost`]):
//!   every band vertex is popped once and inspects each internal arc once
//!   in any DFS order, so both are per-vertex neighbour counts, which the
//!   vertex's first and last neighbour settle unless its list straddles a
//!   band or chunk edge.
//!
//! Both replays are memoized per band, and run outside the memo lock, so
//! repeated evaluations of a band are O(1) and concurrent probes of one
//! profile replay different bands in parallel. A span patch keeps every
//! replay whose band shares at most one vertex with the span. Bounds
//! bracket a band's price from row-pointer and `cross` lookups alone, so
//! a search can skip replays that cannot change a comparison. The direct
//! [`cc_sv`](crate::cc::cc_sv) and [`cc_dfs_chunked`](crate::cc::cc_dfs_chunked)
//! runs stay the oracle they are tested against.
//!
//! The result is **bitwise equal** to the `report` field of a direct
//! `hybrid_cc` run (asserted per split in the tests): both paths feed
//! identical integer counters through the same [`Platform`] pricing
//! functions.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, PoisonError};

use nbwp_sim::{
    percent_split, two_way_report, AlignedU64s, BandWork, CurveEval, Device, DeviceKind, DeviceSet,
    KernelStats, Partition, Platform, ProfileScratch, RunReport, SimTime,
};

use crate::cc::dfs::{dfs_band_cost, dfs_band_stats, DfsPrefixCost};
use crate::cc::sv::{sv_band_counts, sv_stats_closed_form};
use crate::Graph;

/// Split-indexed cost curves plus memoized control-flow residuals for
/// pricing hybrid CC thresholds. Build once per graph with
/// [`CcCostProfile::new`]; price through [`CcCostCurve`].
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
    /// (allocation-free when the arena is warm): zeroed curves are the
    /// profile of the edgeless graph on `n` vertices, and a whole-span
    /// [`CcCostProfile::patch`] turns them into `g`'s.
    #[must_use]
    pub fn new_in(g: &Graph, scratch: &mut ProfileScratch) -> Self {
        let n = g.n();
        let mut profile = CcCostProfile {
            n,
            arcs: 0,
            size_bytes: 0,
            arcs_gpu: scratch.take(n + 1),
            cross: scratch.take(n + 1),
            dfs_memo: Mutex::default(),
            sv_memo: Mutex::default(),
        };
        profile.patch(g, 0, n);
        profile
    }

    /// Rewrites the profile in place after vertices `lo..hi` changed
    /// adjacency (e.g. via `GraphDelta::apply` — an edge `{u, v}` only
    /// changes the adjacency lists of `u` and `v`, so the touched-vertex
    /// interval bounds the span). `g` is the **mutated** graph. Runs in
    /// O(Σ degree over the span + shift) entirely in place — no scratch
    /// arena needed. Both span passes are linear scans with no
    /// data-dependent branches, exploiting the [`Graph`] invariants
    /// (symmetric, sorted, self-loop-free, duplicate-free adjacency):
    ///
    /// * arcs `u→v` and `v→u` of an edge `{u, v}` with `u < v` both have
    ///   min endpoint `u`, so the per-vertex min-histogram is exactly
    ///   `2·|{v ∈ adj(u) : v > u}|` — one batched store per vertex, no
    ///   per-arc walk;
    /// * an edge crosses boundary `s` iff `u < s <= v`, so `cross[s]` is
    ///   the running sum over `w < s` of `greater(w) − lesser(w)` (edges
    ///   opened at their lower endpoint minus edges closed at their upper
    ///   endpoint): its span recomputes from `cross[lo]` and the tail
    ///   shifts by the span delta, in wrapping `u64`, two's-complement
    ///   identical to a signed difference-array accumulation;
    /// * `arcs_gpu` is a suffix sum of that histogram: its span recomputes
    ///   backwards from the unchanged `arcs_gpu[hi]` and the prefix `0..lo`
    ///   shifts;
    /// * a memoized control-flow replay survives when its band shares at
    ///   most one vertex with the span (`min(band_hi, hi) − max(band_lo,
    ///   lo) ≤ 1`): a band's SV and DFS replays read only edges with both
    ///   endpoints inside the band, and every edge that changed joins two
    ///   distinct vertices of the span (an edge `{u, v}` changes the lists
    ///   of `u` and `v`, and self-loops are ignored). A whole-span patch
    ///   keeps only bands of at most one vertex, whose replays no edge
    ///   reaches; an empty span keeps them all.
    ///
    /// The patched curves are **bitwise identical** to
    /// `CcCostProfile::new_in(g, ..)` (the patch-equals-rebuild contract),
    /// and so is every price the surviving replays give;
    /// `patch(g, 0, n)` is both the build and a whole-input drift step —
    /// a full in-place rebuild.
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
        if lo == hi {
            return;
        }
        // Memo entries are pure prices inserted only after their replay
        // returns, so a memo poisoned by a panicking probe is still sound.
        let unreached = |a: usize, b: usize| b.min(hi).saturating_sub(a.max(lo)) <= 1;
        self.dfs_memo
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|&(a, b, _), _| unreached(a, b));
        self.sv_memo
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|&(a, b), _| unreached(a, b));
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
        for slot in ag[lo..hi].iter_mut().rev() {
            suffix += *slot;
            *slot = suffix;
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

    /// Distinct `(SV, DFS)` band replays memoized on this profile: the
    /// band simulations the searches priced on it ran since its build,
    /// less those a [`CcCostProfile::patch`] dropped because their band
    /// shared two or more vertices with the patched span. On a fresh
    /// profile this is a deterministic work count beside the searches'
    /// probe counts.
    #[must_use]
    pub fn replays(&self) -> (usize, usize) {
        let sv = self.sv_memo.lock().unwrap_or_else(PoisonError::into_inner);
        let dfs = self.dfs_memo.lock().unwrap_or_else(PoisonError::into_inner);
        (sv.len(), dfs.len())
    }

    /// Raw split-indexed curve arrays `(arcs_gpu, cross)`, for benchmark
    /// parity gates comparing against an independently built profile.
    #[doc(hidden)]
    #[must_use]
    pub fn raw_curves(&self) -> (&[u64], &[u64]) {
        (&self.arcs_gpu, &self.cross)
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

/// The memoized replay under `key`, replaying with `replay` on a miss.
/// The replay runs outside the lock, so concurrent probes of one profile
/// replay different bands in parallel. Replays are pure, so when two
/// probes race on one key the first insert wins and both return equal
/// values. A memo poisoned by a panicking probe is still sound: entries
/// are inserted only after their replay returns.
fn memoized<K, V>(memo: &Mutex<HashMap<K, V>>, key: K, replay: impl FnOnce() -> V) -> V
where
    K: Eq + Hash,
    V: Clone,
{
    let lock = || memo.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(hit) = lock().get(&key) {
        return hit.clone();
    }
    let value = replay();
    lock().entry(key).or_insert(value).clone()
}

/// A CPU band's work: the chunked DFS counters plus the deferred-edge
/// surcharge the hybrid driver adds before pricing.
fn dfs_work(mut stats: KernelStats, deferred_edges: u64) -> BandWork {
    stats.int_ops += 8 * deferred_edges;
    stats.mem_read_bytes += 8 * deferred_edges;
    stats.irregular_bytes += 8 * deferred_edges;
    BandWork {
        stats,
        ..BandWork::default()
    }
}

/// A GPU band's work: the closed-form SV counters of a band of `len`
/// vertices and `arcs` internal arcs, shipping the band CSR in and the
/// band labels out. An empty band still ships its 8-byte row-pointer
/// sentinel, as the direct run does.
fn sv_work(len: usize, arcs: u64, rounds: u32, passes: u32) -> BandWork {
    // Band CSR footprint: (len + 1) row pointers + internal arcs.
    let size_bytes = 8 * (len as u64 + 1) + 4 * arcs;
    BandWork {
        stats: sv_stats_closed_form(len, arcs, size_bytes, rounds, passes),
        bytes_in: size_bytes,
        bytes_out: 4 * len as u64,
    }
}

/// The hybrid CC total-cost curve as a [`CurveEval`]: every vertex split
/// priced exactly from the profile's curves and its memoized control-flow
/// replays (which make repeat queries cheap). Thresholds are CPU vertex
/// percentages, mapped by the same rounding `hybrid_cc` applies.
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

    /// The number of vertices the CPU takes at `t`, with the rounding
    /// [`hybrid_cc`](crate::cc::hybrid_cc) applies.
    ///
    /// # Panics
    /// Panics if `t ∉ [0, 100]` (NaN included), as the direct run does.
    fn split_for(&self, t: f64) -> usize {
        percent_split(self.profile.n, t)
    }

    /// The two-way merge is [`CurveEval::merge_cost`] at the canonical
    /// pair: the `cross` entry at `split` and `split` CPU labels.
    fn report_at(&self, split: usize) -> RunReport {
        let merge =
            self.profile
                .merge_cost_for(self.profile.cross_at(split), split as u64, self.platform);
        two_way_report(self, split, merge)
    }

    fn platform(&self) -> &Platform {
        self.platform
    }

    /// What the vertex band `lo..hi` does on a `kind`-class device, with
    /// both control-flow replays memoized. CPU-class devices run the
    /// chunked DFS, with the deferred-edge surcharge the hybrid driver
    /// adds before pricing. GPU-class devices run the closed-form
    /// Shiloach–Vishkin kernel, shipping the band CSR in and the band
    /// labels out. An empty GPU band still ships its 8-byte row-pointer
    /// sentinel, as the direct run does. The scalar sides are the
    /// `0..split` CPU and `split..n` GPU calls, where the replayed
    /// internal-arc count equals the `arcs_gpu` curve entry exactly.
    fn band_work(&self, kind: DeviceKind, lo: usize, hi: usize) -> Option<BandWork> {
        let (profile, g) = (self.profile, self.graph);
        match kind {
            DeviceKind::Cpu => {
                let chunks = self.platform.cpu.cores;
                let dfs = memoized(&profile.dfs_memo, (lo, hi, chunks), || {
                    dfs_band_cost(g, lo, hi, chunks)
                });
                Some(dfs_work(dfs.stats, dfs.deferred_edges))
            }
            DeviceKind::Gpu => {
                let (rounds, passes, arcs) =
                    memoized(&profile.sv_memo, (lo, hi), || sv_band_counts(g, lo, hi));
                Some(sv_work(hi - lo, arcs, rounds, passes))
            }
        }
    }

    /// Brackets a band's price without replaying it, from O(1) lookups
    /// into the graph's row pointers and the profile's `cross` curve, plus
    /// one row-pointer difference per DFS chunk on CPU-class devices. Each
    /// bound prices bracketing counters through the same functions as the
    /// exact price, which are monotone in every counter varied here.
    ///
    /// * The band's internal arc count `A` lies in `[D − cross[lo] −
    ///   cross[hi], D]` (floored at 0), where `D` sums the band's degrees:
    ///   every arc that leaves the band crosses `lo` or `hi`.
    /// * CPU: every counter grows with `A` and with the deferred count,
    ///   which lies in `[0, A/2]`. The DFS parallelism lies in `[p_lo,
    ///   min(cores, len)]`, where `p_lo` is the chunk balance with `A`
    ///   at its floor and every chunk at its whole degree sum. CPU time
    ///   falls with the parallelism from 2 up and adds the parallel-region
    ///   overhead only above 1. The lower bound is `min(cores, len)` items
    ///   (the cheaper of that and 1 when `p_lo ≤ 1`) at the arc floor
    ///   without deferred edges; the upper bound is `p_lo` items (the
    ///   dearer of 1 and 2 when `p_lo ≤ 1`) at `A = D` with `D/2` deferred
    ///   edges.
    /// * GPU: a lower bound only. SV runs at least one round and one
    ///   doubling pass, and two of each once the band has an arc; its
    ///   occupancy is at most that of `max(D, len)` items, and at least the
    ///   floor's CSR ships in. Rounds have no cheap upper bound.
    /// * An empty band costs nothing to price, so both bounds are its
    ///   exact price.
    fn device_band_bounds(
        &self,
        device: &Device,
        lo: usize,
        hi: usize,
    ) -> (SimTime, Option<SimTime>) {
        let price = |work: BandWork| work.time_on(device, self.platform);
        let len = hi - lo;
        if len == 0 {
            let exact = price(match device.kind {
                DeviceKind::Cpu => dfs_work(KernelStats::new(), 0),
                DeviceKind::Gpu => sv_work(0, 0, 0, 0),
            });
            return (exact, Some(exact));
        }
        let ptr = self.graph.adj_ptr();
        let degrees = |a: usize, b: usize| (ptr[b] - ptr[a]) as u64;
        let arcs_hi = degrees(lo, hi);
        let arcs_lo = arcs_hi.saturating_sub(self.profile.cross_at(lo) + self.profile.cross_at(hi));
        match device.kind {
            DeviceKind::Cpu => {
                // The chunking of `dfs_band_cost`.
                let chunks = self.platform.cpu.cores.min(len);
                let chunk_len = len.div_ceil(chunks);
                let heaviest = (0..chunks)
                    .map(|c| {
                        let c_lo = (lo + c * chunk_len).min(hi);
                        let c_hi = (c_lo + chunk_len).min(hi);
                        2 * (c_hi - c_lo) as u64 + degrees(c_lo, c_hi)
                    })
                    .max()
                    .expect("a non-empty band has a chunk");
                let p_lo = ((2 * len as u64 + arcs_lo) as f64 / heaviest as f64).round() as u64;
                let at = |arcs: u64, deferred: u64, items: u64| {
                    price(dfs_work(dfs_band_stats(len, arcs, items), deferred))
                };
                let (lower, upper) = if p_lo >= 2 {
                    (
                        at(arcs_lo, 0, chunks as u64),
                        at(arcs_hi, arcs_hi / 2, p_lo),
                    )
                } else {
                    (
                        at(arcs_lo, 0, 1).min(at(arcs_lo, 0, chunks as u64)),
                        at(arcs_hi, arcs_hi / 2, 1).max(at(arcs_hi, arcs_hi / 2, 2)),
                    )
                };
                (lower, Some(upper))
            }
            DeviceKind::Gpu => {
                let least = if arcs_lo > 0 { 2 } else { 1 };
                let mut work = sv_work(len, arcs_lo, least, least);
                work.stats.parallel_items = arcs_hi.max(len as u64);
                (price(work), None)
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

    /// The curve's price at threshold `t`: `report_at(split_for(t))`.
    fn priced(profile: &CcCostProfile, g: &Graph, t: f64, platform: &Platform) -> RunReport {
        let curve = CcCostCurve::new(profile, g, platform);
        curve.report_at(curve.split_for(t))
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
                    let direct = hybrid_cc(&g, t, &platform).report;
                    let profiled = priced(&profile, &g, t, &platform);
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
                    priced(&warm, &g, t, &platform),
                    priced(&fresh, &g, t, &platform),
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
                    priced(&profile, &g2, t, &platform),
                    priced(&fresh, &g2, t, &platform),
                    "span {lo}..{hi}, t = {t}"
                );
            }
        }
        // A full-span patch is an in-place rebuild.
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
        let a = priced(&profile, &g, 42.0, &platform);
        let b = priced(&profile, &g, 42.0, &platform);
        assert_eq!(a, b);
        assert_eq!(profile.sv_memo.lock().unwrap().len(), 1);
        assert_eq!(profile.dfs_memo.lock().unwrap().len(), 1);
    }

    /// Panics on a scoped thread while it holds `memo`'s lock, the way a
    /// panicking probe on a shared profile would.
    fn poison<T: Send>(memo: &Mutex<T>) {
        std::thread::scope(|s| {
            let probe = s.spawn(|| {
                let _guard = memo.lock();
                panic!("probe panicked while holding the memo lock");
            });
            assert!(probe.join().is_err());
        });
        assert!(memo.is_poisoned());
    }

    #[test]
    fn poisoned_memos_still_price_bitwise() {
        use crate::delta::GraphDelta;
        let g = gen::web(400, 4, 3);
        let platform = Platform::k40c_xeon_e5_2650();
        let clean = CcCostProfile::new(&g);
        let mut profile = CcCostProfile::new(&g);
        let _ = priced(&profile, &g, 40.0, &platform);
        poison(&profile.dfs_memo);
        poison(&profile.sv_memo);
        let set = DeviceSet::dual_cpu_dual_gpu();
        let p = Partition::new(g.n(), vec![100, 200, 300]);
        let kway = |profile: &CcCostProfile| {
            CcCostCurve::new(profile, &g, &platform).partition_total(&set, &p)
        };
        // Memoized and fresh prices both read through the poisoned locks.
        for t in [0.0, 40.0, 62.5, 100.0] {
            assert_eq!(
                priced(&profile, &g, t, &platform),
                priced(&clean, &g, t, &platform),
                "t = {t}"
            );
        }
        assert_eq!(kway(&profile), kway(&clean));
        // A sub-span patch filters the poisoned memos: the bands that miss
        // the span survive and still price like a fresh profile's.
        let (g2, info) = GraphDelta::inserts(vec![(150, 180)]).apply(&g);
        let fresh = CcCostProfile::new(&g2);
        profile.patch(&g2, info.touched[0], info.touched[1] + 1);
        let (sv, dfs) = profile.replays();
        assert!(sv > 0 && dfs > 0, "bands 0..100 and 300..400 survive");
        let kway2 = |profile: &CcCostProfile| {
            CcCostCurve::new(profile, &g2, &platform).partition_total(&set, &p)
        };
        assert_eq!(kway2(&profile), kway2(&fresh));
        assert_eq!(profile.raw_curves(), fresh.raw_curves());
        // A whole-span patch drops every non-empty band: only the empty
        // GPU band 400..400 and CPU band 0..0 priced above survive.
        profile.patch(&g, 0, g.n());
        assert_eq!(profile.replays(), (1, 1));
        assert_eq!(profile.raw_curves(), clean.raw_curves());
        assert_eq!(
            priced(&profile, &g, 40.0, &platform),
            priced(&clean, &g, 40.0, &platform)
        );
        assert_eq!(kway(&profile), kway(&clean));
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
                        let run = cc_sv(&sub);
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
        let platform = Platform::k40c_xeon_e5_2650();
        let _ = priced(&profile, &other, 50.0, &platform);
    }
}
