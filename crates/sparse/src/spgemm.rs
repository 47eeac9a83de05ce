//! Row-row (Gustavson) sparse matrix–matrix multiplication.
//!
//! This is the kernel of the paper's Algorithms 2 and 3. Each output row
//! `C_i = Σ_{k ∈ A_i} a_ik · B_k` is computed independently with a sparse
//! accumulator, which is what makes row-wise work partitioning across
//! CPU and GPU possible.
//!
//! Every variant reports its work through the same *accounting convention*
//! ([`RowCost`] → [`stats_for_rows`]), so an analytic profile computed once
//! from the matrix structure agrees **exactly** with counters measured
//! during a physical run of any row range. `nbwp-core` exploits this to
//! sweep thresholds in O(rows) instead of re-running the multiply.

use nbwp_sim::{warp_padded_cost, KernelStats, PrefixCurve, ProfileScratch, WarpPadCurve};

use crate::Csr;

/// Bytes of one stored CSR entry (u32 column index + f64 value).
pub const ENTRY_BYTES: u64 = 12;

/// GPU warp width used for divergence accounting.
pub const WARP: usize = 32;

/// Exact per-row work of a row of `A` in the product `A × B`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RowCost {
    /// Nonzeros of `A` in this row.
    pub a_nnz: u64,
    /// Total entries of `B` touched: `Σ_{k ∈ row} nnz(B_k)` — the paper's
    /// load-vector value `L_AB[i]`.
    pub b_entries: u64,
    /// Distinct output columns (nnz of the result row).
    pub c_nnz: u64,
}

impl RowCost {
    /// Floating-point operations of this row (one multiply + one add per
    /// touched `B` entry).
    #[must_use]
    pub fn flops(&self) -> u64 {
        2 * self.b_entries
    }
}

/// A reusable sparse accumulator (SPA) sized to the output column count.
///
/// Uses a generation-stamped marker array so clearing between rows is O(1).
struct Spa {
    values: Vec<f64>,
    stamp: Vec<u32>,
    generation: u32,
    active: Vec<u32>,
}

impl Spa {
    fn new(cols: usize) -> Self {
        Spa {
            values: vec![0.0; cols],
            stamp: vec![0; cols],
            generation: 0,
            active: Vec::new(),
        }
    }

    /// Begins a new output row.
    fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrapped: lazily invalidate everything once per 2^32 rows.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.active.clear();
    }

    #[inline]
    fn accumulate(&mut self, col: u32, val: f64) {
        let c = col as usize;
        if self.stamp[c] == self.generation {
            self.values[c] += val;
        } else {
            self.stamp[c] = self.generation;
            self.values[c] = val;
            self.active.push(col);
        }
    }

    /// Drains the accumulated row, sorted by column.
    fn drain_sorted(&mut self, col_out: &mut Vec<u32>, val_out: &mut Vec<f64>) {
        self.active.sort_unstable();
        for &c in &self.active {
            col_out.push(c);
            val_out.push(self.values[c as usize]);
        }
    }

    fn nnz(&self) -> u64 {
        self.active.len() as u64
    }
}

/// Multiplies `A × B` (full product, no instrumentation).
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
///
/// ```
/// use nbwp_sparse::{gen, spgemm::spgemm};
/// let a = gen::uniform_random(64, 4, 1);
/// let c = spgemm(&a, &a);
/// assert_eq!(c.rows(), 64);
/// assert_eq!(c.cols(), 64);
/// ```
#[must_use]
pub fn spgemm(a: &Csr, b: &Csr) -> Csr {
    spgemm_range(a, b, 0, a.rows()).0
}

/// Multiplies rows `lo..hi` of `A` by `B`, returning the `(hi-lo) × b.cols()`
/// partial product and its exact per-row costs.
///
/// This is the "physically executed" kernel: the returned [`RowCost`]s come
/// from the actual accumulator, not from a structural prediction.
#[must_use]
pub fn spgemm_range(a: &Csr, b: &Csr, lo: usize, hi: usize) -> (Csr, Vec<RowCost>) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "incompatible shapes: {}x{} times {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert!(lo <= hi && hi <= a.rows(), "row range out of bounds");
    let mut spa = Spa::new(b.cols());
    let mut row_ptr = Vec::with_capacity(hi - lo + 1);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    let mut costs = Vec::with_capacity(hi - lo);
    row_ptr.push(0);
    for i in lo..hi {
        spa.reset();
        let (acols, avals) = a.row(i);
        let mut b_entries = 0u64;
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            b_entries += bcols.len() as u64;
            for (&j, &bv) in bcols.iter().zip(bvals) {
                spa.accumulate(j, av * bv);
            }
        }
        let c_nnz = spa.nnz();
        spa.drain_sorted(&mut col_idx, &mut vals);
        row_ptr.push(col_idx.len());
        costs.push(RowCost {
            a_nnz: acols.len() as u64,
            b_entries,
            c_nnz,
        });
    }
    (
        Csr::from_raw(hi - lo, b.cols(), row_ptr, col_idx, vals),
        costs,
    )
}

/// Computes the exact per-row cost profile of `A × B` *without* the numeric
/// multiply (symbolic pass: same traversal, marker-only accumulator).
///
/// Guaranteed to equal the costs returned by [`spgemm_range`] over the full
/// row range — this is the analytic/measured agreement the threshold sweeps
/// rely on, and it is tested in `tests/` and in `nbwp-core`.
#[must_use]
pub fn row_profile(a: &Csr, b: &Csr) -> Vec<RowCost> {
    row_profile_range(a, b, 0, a.rows())
}

/// Computes the per-row cost profile for rows `lo..hi` only.
///
/// Each row's cost depends only on that row of `A` (plus the referenced
/// rows of `B`), so this is bitwise-equal to `row_profile(a, b)[lo..hi]` —
/// the property the drift layer's span re-profiling relies on.
#[must_use]
pub fn row_profile_range(a: &Csr, b: &Csr, lo: usize, hi: usize) -> Vec<RowCost> {
    assert_eq!(a.cols(), b.rows(), "incompatible shapes for row profile");
    assert!(
        lo <= hi && hi <= a.rows(),
        "row range {lo}..{hi} out of bounds"
    );
    let mut stamp = vec![0u32; b.cols()];
    let mut generation = 0u32;
    let mut costs = Vec::with_capacity(hi - lo);
    for i in lo..hi {
        generation = generation.wrapping_add(1);
        if generation == 0 {
            stamp.fill(0);
            generation = 1;
        }
        let (acols, _) = a.row(i);
        let mut b_entries = 0u64;
        let mut c_nnz = 0u64;
        for &k in acols {
            let (bcols, _) = b.row(k as usize);
            b_entries += bcols.len() as u64;
            for &j in bcols {
                if stamp[j as usize] != generation {
                    stamp[j as usize] = generation;
                    c_nnz += 1;
                }
            }
        }
        costs.push(RowCost {
            a_nnz: acols.len() as u64,
            b_entries,
            c_nnz,
        });
    }
    costs
}

/// Converts the per-row costs of a contiguous row range into the shared
/// [`KernelStats`] accounting convention.
///
/// * `b_bytes` — resident size of `B` (it is read by every partition and
///   dominates the working set).
///
/// Accounting, per row `i` in the range:
/// * reads: `a_nnz · 12` streaming for the `A` row, `b_entries · 12` for
///   the gathered `B` rows — of which only the *row starts* are
///   latency-bound (`a_nnz · 12` irregular): Gustavson streams each `B`
///   row once located;
/// * writes: `c_nnz · 12` streaming (the accumulator scatter lands in the
///   small cache-resident SPA array, not DRAM);
/// * flops: `2 · b_entries`; integer ops: per-entry index handling;
/// * divergence: warp-padded per-row flops at width [`WARP`].
#[must_use]
pub fn stats_for_rows(costs: &[RowCost], b_bytes: u64) -> KernelStats {
    let s = stats_for_rows_where(costs, b_bytes, |_| true, &mut ProfileScratch::new());
    debug_assert_eq!(s.parallel_items, costs.len() as u64);
    s
}

/// [`stats_for_rows`] over the subsequence of `costs` selected by `keep`,
/// without materializing the filtered slice: bitwise identical to
/// collecting the kept rows into a `Vec` and calling [`stats_for_rows`] on
/// it (same rows, same order, same adds), but the only buffer used is the
/// per-row flops array drawn from `scratch`.
#[must_use]
pub fn stats_for_rows_where<F>(
    costs: &[RowCost],
    b_bytes: u64,
    keep: F,
    scratch: &mut ProfileScratch,
) -> KernelStats
where
    F: Fn(&RowCost) -> bool,
{
    let mut s = KernelStats::new();
    let mut per_row_flops = scratch.take(costs.len());
    let mut kept = 0usize;
    let mut partition_bytes = 0u64;
    for c in costs {
        if !keep(c) {
            continue;
        }
        s.flops += c.flops();
        s.int_ops += 2 * c.a_nnz + 2 * c.b_entries + c.c_nnz;
        s.mem_read_bytes += (c.a_nnz + c.b_entries) * ENTRY_BYTES;
        s.irregular_bytes += c.a_nnz * ENTRY_BYTES;
        s.mem_write_bytes += c.c_nnz * ENTRY_BYTES;
        partition_bytes += (c.a_nnz + c.c_nnz) * ENTRY_BYTES;
        per_row_flops[kept] = c.flops();
        kept += 1;
    }
    s.simd_padded_flops = warp_padded_cost(&per_row_flops[..kept], WARP);
    s.kernel_launches = u64::from(kept > 0);
    s.parallel_items = kept as u64;
    s.working_set_bytes = b_bytes + partition_bytes;
    scratch.give(per_row_flops);
    s
}

/// Prefix-sum cost curves over a per-row [`RowCost`] profile: both sides of
/// any contiguous row split are priced in O(1), and any interior row band
/// in O(1) plus its partial tail warp, **bitwise equal** to calling
/// [`stats_for_rows`] on the corresponding slice ([`RowCurves::stats_range`]).
///
/// Every field of [`stats_for_rows`] is a `u64`-linear combination of the
/// per-row counters (exact under prefix-sum differences), except
/// `simd_padded_flops`, which restarts warp grouping at the slice start —
/// that one is reproduced by a [`WarpPadCurve`] (boundary-warp correction
/// for prefixes, telescoped suffix recurrence for suffixes and bands). See
/// `nbwp-sim::profile` for the exactness argument.
///
/// ```
/// use nbwp_sparse::{gen, spgemm::{row_profile, stats_for_rows, RowCurves}};
/// let a = gen::power_law(200, 6, 2.2, 1);
/// let costs = row_profile(&a, &a);
/// let curves = RowCurves::new(&costs, a.size_bytes());
/// for split in [0, 31, 32, 100, 200] {
///     assert_eq!(curves.stats_range(0, split), stats_for_rows(&costs[..split], a.size_bytes()));
///     assert_eq!(curves.stats_range(split, 200), stats_for_rows(&costs[split..], a.size_bytes()));
/// }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowCurves {
    a_nnz: PrefixCurve,
    b_entries: PrefixCurve,
    c_nnz: PrefixCurve,
    pad: WarpPadCurve,
    b_bytes: u64,
    rows: usize,
}

impl RowCurves {
    /// Builds all curves in one O(rows) pass over the profile.
    #[must_use]
    pub fn new(costs: &[RowCost], b_bytes: u64) -> Self {
        RowCurves::new_in(costs, b_bytes, &mut ProfileScratch::new())
    }

    /// Builds all curves with every buffer drawn from `scratch`
    /// (allocation-free when the arena is warm): a whole-span
    /// [`RowCurves::patch_in`] of the zeroed curves, so the build is the
    /// patch's single fused pass over the borrowed cost slice.
    #[must_use]
    pub fn new_in(costs: &[RowCost], b_bytes: u64, scratch: &mut ProfileScratch) -> Self {
        let n = costs.len();
        let mut curves = RowCurves {
            a_nnz: PrefixCurve::from_inclusive_prefix(scratch.take(n + 1)),
            b_entries: PrefixCurve::from_inclusive_prefix(scratch.take(n + 1)),
            c_nnz: PrefixCurve::from_inclusive_prefix(scratch.take(n + 1)),
            pad: WarpPadCurve::zeros_in(n, WARP, scratch),
            b_bytes,
            rows: n,
        };
        curves.patch_in(costs, 0, n, b_bytes, scratch);
        curves
    }

    /// Rewrites the curves in place after rows `lo..hi` of the profile
    /// changed; `costs` is the **full mutated** profile (the warp-padding
    /// patch re-maxes windows straddling the span edges) and `b_bytes` the
    /// mutated operand's byte size. One fused pass over the span patches
    /// all three prefix curves ([`PrefixCurve::patch_fused`]) and fills the
    /// span's per-row flops; the pad curve then patches per
    /// [`WarpPadCurve::patch_in`]. The result is **bitwise identical** to
    /// `RowCurves::new_in(costs, b_bytes, ..)` — the patch-equals-rebuild
    /// contract — and `patch_in(costs, 0, rows, ..)` is both the build and
    /// a whole-input drift step: a full in-place rebuild with zero
    /// allocation.
    ///
    /// # Panics
    /// Panics if `costs.len() != rows`, `lo > hi`, or `hi > rows`.
    pub fn patch_in(
        &mut self,
        costs: &[RowCost],
        lo: usize,
        hi: usize,
        b_bytes: u64,
        scratch: &mut ProfileScratch,
    ) {
        assert_eq!(costs.len(), self.rows, "patch profile length mismatch");
        assert!(
            lo <= hi && hi <= self.rows,
            "patch span {lo}..{hi} out of bounds"
        );
        self.b_bytes = b_bytes;
        if lo == hi {
            return;
        }
        let mut per_row_flops = scratch.take(costs.len());
        let (head, rest) = per_row_flops.split_at_mut(lo);
        let (span, tail) = rest.split_at_mut(hi - lo);
        PrefixCurve::patch_fused(
            [&mut self.a_nnz, &mut self.b_entries, &mut self.c_nnz],
            lo,
            hi,
            costs[lo..hi].iter().zip(span).map(|(c, flops)| {
                *flops = c.flops();
                [c.a_nnz, c.b_entries, c.c_nnz]
            }),
        );
        // Rows outside the span only feed the pad patch's edge warps.
        for (slots, rows) in [(head, &costs[..lo]), (tail, &costs[hi..])] {
            for (slot, c) in slots.iter_mut().zip(rows) {
                *slot = c.flops();
            }
        }
        self.pad.patch_in(&per_row_flops, lo, hi, scratch);
        scratch.give(per_row_flops);
    }

    /// Returns every buffer of these curves to `scratch` for reuse by the
    /// next build.
    pub fn recycle(self, scratch: &mut ProfileScratch) {
        self.a_nnz.recycle(scratch);
        self.b_entries.recycle(scratch);
        self.c_nnz.recycle(scratch);
        self.pad.recycle(scratch);
    }

    /// Number of rows the curves cover.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Curve over per-row `a_nnz` (used for transfer sizing).
    #[must_use]
    pub fn a_nnz(&self) -> &PrefixCurve {
        &self.a_nnz
    }

    /// Curve over per-row `c_nnz` (used for transfer sizing).
    #[must_use]
    pub fn c_nnz(&self) -> &PrefixCurve {
        &self.c_nnz
    }

    /// Curve over per-row `b_entries` — the paper's load vector `L_AB`.
    #[must_use]
    pub fn b_entries(&self) -> &PrefixCurve {
        &self.b_entries
    }

    /// Bytes of `B` charged to every side's working set.
    #[must_use]
    pub fn b_bytes(&self) -> u64 {
        self.b_bytes
    }

    /// The warp-padding curve over per-row flops (exposed so external
    /// harnesses can compare rebuilt curves entry by entry).
    #[must_use]
    pub fn pad(&self) -> &WarpPadCurve {
        &self.pad
    }

    /// `stats_for_rows(&costs[lo..hi], b_bytes)`, bitwise, in O(1) plus
    /// fewer than [`WARP`] row reads. The additive counters are range sums;
    /// the warp padding comes from [`WarpPadCurve::band_cost`], whose full
    /// warps telescope out of the suffix recurrence and whose partial tail
    /// warp reads per-row flops recovered losslessly from the `b_entries`
    /// curve (`flops = 2 · b_entries`, see [`RowCost::flops`]) — so it
    /// reproduces [`warp_padded_cost`] on the slice exactly.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > rows`.
    #[must_use]
    pub fn stats_range(&self, lo: usize, hi: usize) -> KernelStats {
        assert!(lo <= hi && hi <= self.rows, "band out of range");
        let n_rows = (hi - lo) as u64;
        let a_nnz = self.a_nnz.range_sum(lo, hi);
        let b_entries = self.b_entries.range_sum(lo, hi);
        let c_nnz = self.c_nnz.range_sum(lo, hi);
        let mut s = KernelStats::new();
        s.flops = 2 * b_entries;
        s.int_ops = 2 * a_nnz + 2 * b_entries + c_nnz;
        s.mem_read_bytes = (a_nnz + b_entries) * ENTRY_BYTES;
        s.irregular_bytes = a_nnz * ENTRY_BYTES;
        s.mem_write_bytes = c_nnz * ENTRY_BYTES;
        s.simd_padded_flops = self
            .pad
            .band_cost(lo, hi, |row| 2 * self.b_entries.range_sum(row, row + 1));
        s.kernel_launches = u64::from(n_rows > 0);
        s.parallel_items = n_rows;
        s.working_set_bytes = self.b_bytes + (a_nnz + c_nnz) * ENTRY_BYTES;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference multiply for cross-checking.
    fn dense_mul(a: &Csr, b: &Csr) -> Vec<f64> {
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        let da = a.to_dense();
        let db = b.to_dense();
        let mut out = vec![0.0; n * m];
        for i in 0..n {
            for p in 0..k {
                let av = da[i * k + p];
                if av != 0.0 {
                    for j in 0..m {
                        out[i * m + j] += av * db[p * m + j];
                    }
                }
            }
        }
        out
    }

    fn small_a() -> Csr {
        Csr::from_dense(3, 3, &[1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0, 0.0])
    }

    fn small_b() -> Csr {
        Csr::from_dense(3, 2, &[1.0, 2.0, 0.0, 1.0, 3.0, 0.0])
    }

    #[test]
    fn matches_dense_reference() {
        let a = small_a();
        let b = small_b();
        let c = spgemm(&a, &b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.to_dense(), dense_mul(&a, &b));
    }

    #[test]
    fn identity_is_neutral() {
        let a = small_a();
        let i = Csr::identity(3);
        assert_eq!(spgemm(&a, &i), a);
        assert_eq!(spgemm(&i, &a), a);
    }

    #[test]
    fn zero_annihilates() {
        let a = small_a();
        let z = Csr::zero(3, 4);
        let c = spgemm(&a, &z);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.cols(), 4);
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn shape_mismatch_panics() {
        let _ = spgemm(&small_a(), &Csr::zero(2, 2));
    }

    #[test]
    fn range_product_stitches_to_full() {
        let a = small_a();
        let b = small_b();
        let full = spgemm(&a, &b);
        let (top, _) = spgemm_range(&a, &b, 0, 2);
        let (bot, _) = spgemm_range(&a, &b, 2, 3);
        assert_eq!(top.to_dense(), full.row_slice(0, 2).to_dense());
        assert_eq!(bot.to_dense(), full.row_slice(2, 3).to_dense());
    }

    #[test]
    fn measured_costs_match_symbolic_profile() {
        let a = small_a();
        let b = small_b();
        let (_, measured) = spgemm_range(&a, &b, 0, 3);
        let predicted = row_profile(&a, &b);
        assert_eq!(measured, predicted);
    }

    #[test]
    fn row_cost_values() {
        let a = small_a();
        let costs = row_profile(&a, &a);
        // Row 0 of A has cols {0,2}; B rows 0 and 2 have 2 entries each.
        assert_eq!(
            costs[0],
            RowCost {
                a_nnz: 2,
                b_entries: 4,
                c_nnz: 3 // cols {0,2} ∪ {0,1} = {0,1,2}
            }
        );
        assert_eq!(costs[1], RowCost::default());
        assert_eq!(costs[0].flops(), 8);
    }

    #[test]
    fn stats_accounting() {
        let a = small_a();
        let costs = row_profile(&a, &a);
        let s = stats_for_rows(&costs, a.size_bytes());
        let b_entries: u64 = costs.iter().map(|c| c.b_entries).sum();
        let c_nnz: u64 = costs.iter().map(|c| c.c_nnz).sum();
        let a_nnz: u64 = costs.iter().map(|c| c.a_nnz).sum();
        assert_eq!(s.flops, 2 * b_entries);
        assert_eq!(s.irregular_bytes, a_nnz * ENTRY_BYTES);
        assert_eq!(s.mem_write_bytes, c_nnz * ENTRY_BYTES);
        assert_eq!(s.parallel_items, 3);
        assert_eq!(s.kernel_launches, 1);
        assert!(s.simd_padded_flops >= s.flops);
        assert!(s.working_set_bytes > a.size_bytes());
    }

    #[test]
    fn stats_for_empty_range() {
        let s = stats_for_rows(&[], 100);
        assert_eq!(s.kernel_launches, 0);
        assert_eq!(s.flops, 0);
        assert_eq!(s.parallel_items, 0);
    }

    #[test]
    fn row_curves_match_sliced_stats_at_every_split() {
        let a = crate::gen::power_law(130, 7, 2.1, 5);
        let costs = row_profile(&a, &a);
        let b_bytes = a.size_bytes();
        let curves = RowCurves::new(&costs, b_bytes);
        for split in 0..=costs.len() {
            assert_eq!(
                curves.stats_range(0, split),
                stats_for_rows(&costs[..split], b_bytes),
                "prefix split {split}"
            );
            assert_eq!(
                curves.stats_range(split, costs.len()),
                stats_for_rows(&costs[split..], b_bytes),
                "suffix split {split}"
            );
        }
    }

    #[test]
    fn stats_range_matches_sliced_stats_on_arbitrary_bands() {
        let a = crate::gen::power_law(130, 7, 2.1, 5);
        let costs = row_profile(&a, &a);
        let b_bytes = a.size_bytes();
        // The drift path: rows 40..70 of A rewritten and the curves patched
        // over every row whose cost moved, not rebuilt.
        let delta = crate::delta::CsrDelta {
            ops: (40..70)
                .map(|r| crate::delta::RowOp::Replace {
                    row: r,
                    cols: vec![(r % 13) as u32, 90 + (r % 40) as u32],
                    vals: vec![1.0, 2.0],
                })
                .collect(),
        };
        let (a2, _) = delta.apply(&a);
        let drifted = row_profile(&a2, &a2);
        let moved: Vec<usize> = (0..130).filter(|&r| costs[r] != drifted[r]).collect();
        let (plo, phi) = (moved[0], moved[moved.len() - 1] + 1);
        let mut patched = RowCurves::new(&costs, b_bytes);
        let mut scratch = ProfileScratch::new();
        patched.patch_in(&drifted, plo, phi, a2.size_bytes(), &mut scratch);

        for (label, curves, costs, b_bytes) in [
            ("built", RowCurves::new(&costs, b_bytes), &costs, b_bytes),
            ("patched", patched, &drifted, a2.size_bytes()),
        ] {
            // Interior bands (warp grouping restarts at lo), bands one
            // short of, exactly, and one past a warp, bands landing on
            // warp boundaries, empty bands, and the prefix/suffix bands.
            for (lo, hi) in [
                (0, 0),
                (0, 130),
                (0, 57),
                (57, 130),
                (1, 129),
                (32, 96),
                (31, 33),
                (40, 40),
                (17, 111),
                (45, 76),
                (45, 77),
                (45, 78),
                (98, 129),
                (129, 130),
            ] {
                assert_eq!(
                    curves.stats_range(lo, hi),
                    stats_for_rows(&costs[lo..hi], b_bytes),
                    "{label} band {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn row_curves_scratch_build_is_bitwise_identical() {
        let a = crate::gen::power_law(130, 7, 2.1, 5);
        let costs = row_profile(&a, &a);
        let b_bytes = a.size_bytes();
        let fresh = RowCurves::new(&costs, b_bytes);
        let mut scratch = ProfileScratch::new();
        let first = RowCurves::new_in(&costs, b_bytes, &mut scratch);
        assert_eq!(first, fresh);
        first.recycle(&mut scratch);
        assert!(scratch.is_warm());
        let warm = RowCurves::new_in(&costs, b_bytes, &mut scratch);
        assert_eq!(warm, fresh, "warm rebuild must be bitwise identical");
    }

    #[test]
    fn row_curves_patch_equals_rebuild() {
        // Mutate a few rows of A, recompute those rows' costs symbolically,
        // patch the curves over the touched span, and demand bitwise
        // equality with a fresh build from the mutated profile.
        let a = crate::gen::power_law(130, 7, 2.1, 5);
        let base_costs = row_profile(&a, &a);
        let mut scratch = ProfileScratch::new();
        for (lo, hi) in [
            (0, 130),
            (0, 1),
            (30, 34),
            (31, 32),
            (64, 97),
            (129, 130),
            (50, 50),
        ] {
            let delta = crate::delta::CsrDelta {
                ops: (lo..hi)
                    .map(|r| crate::delta::RowOp::Replace {
                        row: r,
                        cols: vec![(r % 40) as u32, 60 + (r % 30) as u32],
                        vals: vec![1.0, 2.0],
                    })
                    .collect(),
            };
            let (a2, _) = delta.apply(&a);
            let new_costs = row_profile(&a2, &a2);
            // Rows outside the span whose costs changed (A×A coupling)
            // widen the patched span to cover them.
            let (mut plo, mut phi) = (lo.min(130), hi);
            for (r, (old, new)) in base_costs.iter().zip(&new_costs).enumerate() {
                if old != new {
                    plo = plo.min(r);
                    phi = phi.max(r + 1);
                }
            }
            let mut patched = RowCurves::new(&base_costs, a.size_bytes());
            patched.patch_in(&new_costs, plo, phi.min(130), a2.size_bytes(), &mut scratch);
            let fresh = RowCurves::new(&new_costs, a2.size_bytes());
            assert_eq!(patched, fresh, "span {lo}..{hi}");
        }
    }

    #[test]
    fn row_profile_range_matches_full_profile_slice() {
        let a = crate::gen::power_law(150, 6, 2.1, 11);
        let b = crate::gen::power_law(150, 5, 2.4, 3);
        let full = row_profile(&a, &b);
        for (lo, hi) in [(0, 150), (0, 1), (17, 83), (149, 150), (40, 40)] {
            assert_eq!(
                row_profile_range(&a, &b, lo, hi),
                full[lo..hi],
                "range {lo}..{hi}"
            );
        }
    }

    #[test]
    fn filtered_stats_match_collected_filter() {
        let a = crate::gen::power_law(200, 6, 2.2, 9);
        let costs = row_profile(&a, &a);
        let b_bytes = a.size_bytes();
        let mut scratch = ProfileScratch::new();
        let keep = |c: &RowCost| c.b_entries > 0;
        let collected: Vec<RowCost> = costs.iter().copied().filter(|c| keep(c)).collect();
        assert_eq!(
            stats_for_rows_where(&costs, b_bytes, keep, &mut scratch),
            stats_for_rows(&collected, b_bytes)
        );
        // Degenerate filters: everything and nothing.
        assert_eq!(
            stats_for_rows_where(&costs, b_bytes, |_| true, &mut scratch),
            stats_for_rows(&costs, b_bytes)
        );
        assert_eq!(
            stats_for_rows_where(&costs, b_bytes, |_| false, &mut scratch),
            stats_for_rows(&[], b_bytes)
        );
    }

    #[test]
    fn row_curves_empty_profile() {
        let curves = RowCurves::new(&[], 64);
        assert_eq!(curves.rows(), 0);
        assert_eq!(curves.stats_range(0, 0), stats_for_rows(&[], 64));
    }
}
