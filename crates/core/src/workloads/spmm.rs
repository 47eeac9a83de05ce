//! Case study II (§IV): unstructured sparse matrix–matrix multiplication
//! (`C = A × A`, row-row algorithm of Algorithm 2). The threshold `r` is
//! the percentage of *work volume* (not rows) assigned to the CPU; the
//! load vector `L_AB` maps it to a split row index.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use nbwp_par::Pool;
use nbwp_sim::{
    BandWork, CurveEval, DegreeSketch, KernelStats, Platform, ProfileScratch, RunReport, SimTime,
};
use nbwp_sparse::delta::CsrDelta;
use nbwp_sparse::ops::{load_vector, prefix_sums, split_row_for_load};
use nbwp_sparse::sample::sample_submatrix_frac;
use nbwp_sparse::spgemm::{
    row_profile, row_profile_range, spgemm_range, stats_for_rows, RowCost, RowCurves, ENTRY_BYTES,
};
use nbwp_sparse::{Csr, SpmmCostCurve};
use rand::rngs::SmallRng;

use crate::drift::DriftWorkload;
use crate::fingerprint::{Fingerprint, FingerprintDelta, Fingerprinted};
use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable, ThresholdSpace};
use crate::profile::Profilable;

/// The spmm workload over a fixed matrix (`B = A`, as in the paper) and
/// platform. The exact per-row cost profile is computed once (a symbolic
/// SpGEMM pass) so threshold sweeps price runs in O(rows) — the profile is
/// provably identical to the counters a physical run reports
/// ([`SpmmWorkload::run_numeric`] asserts this).
#[derive(Clone)]
pub struct SpmmWorkload {
    a: Arc<Csr>,
    profile: Arc<Vec<RowCost>>,
    load_prefix: Arc<Vec<u64>>,
    platform: Platform,
    /// Lazily computed fingerprint, shared across clones of the same input.
    fp: Arc<OnceLock<Fingerprint>>,
}

impl SpmmWorkload {
    /// Builds the workload for `C = A × A`.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    #[must_use]
    pub fn new(a: Csr, platform: Platform) -> Self {
        assert_eq!(a.rows(), a.cols(), "spmm case study multiplies A by itself");
        let profile = row_profile(&a, &a);
        let load: Vec<u64> = profile.iter().map(|c| c.b_entries).collect();
        SpmmWorkload {
            a: Arc::new(a),
            profile: Arc::new(profile),
            load_prefix: Arc::new(prefix_sums(&load)),
            platform,
            fp: Arc::new(OnceLock::new()),
        }
    }

    /// The input matrix.
    #[must_use]
    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    /// Split row index realizing CPU work share `r` (Algorithm 2, line 3).
    #[must_use]
    pub fn split_row(&self, r: f64) -> usize {
        split_row_for_load(&self.load_prefix, r)
    }

    /// Phase I cost: computing `L_AB = A × V_B` and locating the split row,
    /// on the GPU (Algorithm 2, lines 1–3).
    fn partition_cost(&self) -> SimTime {
        let (nnz, n) = (self.a.nnz() as u64, self.a.rows() as u64);
        let stats = KernelStats {
            flops: 2 * nnz,
            int_ops: 2 * nnz + 2 * n,
            mem_read_bytes: ENTRY_BYTES * nnz + 8 * n,
            irregular_bytes: 8 * nnz, // gathers V_B[k] through A's columns
            simd_padded_flops: 2 * nnz,
            mem_write_bytes: 8 * n,
            kernel_launches: 2, // load-vector kernel + scan/split kernel
            parallel_items: n,
            working_set_bytes: self.a.size_bytes(),
            ..KernelStats::default()
        };
        self.platform.gpu_time(&stats)
    }

    fn report_for_split(&self, split: usize) -> RunReport {
        let b_bytes = self.a.size_bytes();
        let gpu_rows = &self.profile[split..];
        // GPU needs its slice of A plus all of B (reachable rows are not
        // known in advance, so B ships whole — as real implementations do).
        let bytes_in = if gpu_rows.is_empty() {
            0
        } else {
            gpu_rows.iter().map(|c| c.a_nnz * ENTRY_BYTES).sum::<u64>()
                + 8 * gpu_rows.len() as u64
                + b_bytes
        };
        let gpu = BandWork {
            stats: stats_for_rows(gpu_rows, b_bytes),
            bytes_in,
            bytes_out: gpu_rows.iter().map(|c| c.c_nnz * ENTRY_BYTES).sum(),
        };
        RunReport::two_way(
            &self.platform,
            self.partition_cost(),
            stats_for_rows(&self.profile[..split], b_bytes),
            gpu,
            SimTime::ZERO, // line 7: results concatenate
        )
    }

    /// Physically executes the partitioned multiply at split percentage `r`,
    /// returning the product and the report.
    ///
    /// # Panics
    /// Panics if the measured per-row costs disagree with the stored
    /// profile — the analytic/measured agreement guarantee.
    #[must_use]
    pub fn run_numeric(&self, r: f64) -> (Csr, RunReport) {
        let split = self.split_row(r);
        let (c1, costs1) = spgemm_range(&self.a, &self.a, 0, split);
        let (c2, costs2) = spgemm_range(&self.a, &self.a, split, self.a.rows());
        assert_eq!(
            costs1.as_slice(),
            &self.profile[..split],
            "profile mismatch (CPU part)"
        );
        assert_eq!(
            costs2.as_slice(),
            &self.profile[split..],
            "profile mismatch (GPU part)"
        );
        // Stitch rows: C = [C1; C2].
        let mut row_ptr = Vec::with_capacity(self.a.rows() + 1);
        let mut col_idx = Vec::with_capacity(c1.nnz() + c2.nnz());
        let mut vals = Vec::with_capacity(c1.nnz() + c2.nnz());
        row_ptr.push(0);
        for part in [&c1, &c2] {
            let base = col_idx.len();
            for rp in &part.row_ptr()[1..] {
                row_ptr.push(base + rp);
            }
            col_idx.extend_from_slice(part.col_indices());
            vals.extend_from_slice(part.values());
        }
        let c = Csr::from_raw(self.a.rows(), self.a.cols(), row_ptr, col_idx, vals);
        (c, self.report_for_split(split))
    }
}

/// The span of rows of the mutated square `a` whose A×A cost may differ
/// after the rows `edited` (sorted, deduplicated) were rewritten: the
/// edited rows and every row *referencing* one, since row `i`'s cost reads
/// the B (= A) row of each column it names. Unedited rows kept their
/// column lists, so reading `a` is exact.
///
/// Only the rows outside the edited range are read, from each end inward
/// up to the first referencing row; rows between the first and last edited
/// row are in the span regardless. A row whose sorted column range misses
/// the edited range skips in O(1), so a banded input pays for its halo,
/// not for its nonzeros.
fn halo_span(a: &Csr, edited: &[usize]) -> Range<usize> {
    let (Some(&first), Some(&last)) = (edited.first(), edited.last()) else {
        return 0..0;
    };
    let mut marks = vec![false; last + 1 - first];
    for &r in edited {
        marks[r - first] = true;
    }
    let references = |i: usize| {
        let (cols, _) = a.row(i);
        match (cols.first(), cols.last()) {
            (Some(&lo), Some(&hi)) if hi as usize >= first && lo as usize <= last => {
                let from = cols.partition_point(|&k| (k as usize) < first);
                cols[from..]
                    .iter()
                    .take_while(|&&k| k as usize <= last)
                    .any(|&k| marks[k as usize - first])
            }
            _ => false,
        }
    };
    let lo = (0..first).find(|&i| references(i)).unwrap_or(first);
    let hi = (last + 1..a.rows())
        .rev()
        .find(|&i| references(i))
        .map_or(last + 1, |i| i + 1);
    lo..hi
}

/// Cost profile of an [`SpmmWorkload`]: prefix-sum curves over the per-row
/// costs (every slice sum in [`stats_for_rows`] and the transfer sizing
/// becomes an O(1) curve lookup; the warp-padded SIMD term has its own
/// exact prefix/suffix curves) plus the split-independent Phase I price.
pub struct SpmmProfile {
    curves: RowCurves,
    partition: SimTime,
}

impl SpmmProfile {
    /// The prefix-sum cost curves.
    #[must_use]
    pub fn curves(&self) -> &RowCurves {
        &self.curves
    }

    /// The split-independent Phase I price.
    #[must_use]
    pub fn partition(&self) -> SimTime {
        self.partition
    }
}

impl Profilable for SpmmWorkload {
    type Profile = SpmmProfile;

    fn build_profile_in(&self, _pool: &Pool, scratch: &mut ProfileScratch) -> SpmmProfile {
        // Serial on purpose: the build is one fused pass over the borrowed
        // cost slice, and the scratch arena is single-owner.
        SpmmProfile {
            curves: RowCurves::new_in(&self.profile, self.a.size_bytes(), scratch),
            partition: self.partition_cost(),
        }
    }

    fn recycle_profile(&self, profile: SpmmProfile, scratch: &mut ProfileScratch) {
        profile.curves.recycle(scratch);
    }

    fn curve<'p>(&'p self, profile: &'p SpmmProfile) -> Option<Box<dyn CurveEval + 'p>> {
        Some(Box::new(SpmmCostCurve::new(
            &profile.curves,
            &self.load_prefix,
            profile.partition,
            &self.platform,
        )))
    }
}

impl DriftWorkload for SpmmWorkload {
    type Delta = CsrDelta;

    fn apply_delta(&self, delta: &CsrDelta) -> (SpmmWorkload, Range<usize>) {
        // Force the base fingerprint *before* mutating so the chained
        // digest is well-defined over (base input, delta script).
        let mut fp = self.fingerprint();
        let (a2, info) = delta.apply(&self.a);
        let n = a2.rows();
        fp.apply_delta(&FingerprintDelta {
            degree_changes: &info.degree_changes,
            new_max_degree: info.new_max_degree,
            m_delta: info.nnz_delta,
            // Same fill-density denominator the fresh path uses above.
            density_denom: n.max(1) as f64 * a2.cols().max(1) as f64,
            commit: info.commit,
        });
        let span = halo_span(&a2, &info.touched_rows);
        // Re-profile only the affected span; rows outside it kept both
        // their own pattern and every referenced row's pattern.
        let mut profile = (*self.profile).clone();
        profile[span.clone()].copy_from_slice(&row_profile_range(&a2, &a2, span.start, span.end));
        // Patch the load prefix (inclusive layout, no leading zero):
        // recompute the span sequentially, then shift the untouched tail
        // by the net change.
        let mut load_prefix = (*self.load_prefix).clone();
        if !span.is_empty() {
            let old_tail = load_prefix[span.end - 1];
            let mut acc = if span.start > 0 {
                load_prefix[span.start - 1]
            } else {
                0
            };
            for i in span.clone() {
                acc += profile[i].b_entries;
                load_prefix[i] = acc;
            }
            let shift = acc.wrapping_sub(old_tail);
            if shift != 0 {
                for slot in &mut load_prefix[span.end..] {
                    *slot = slot.wrapping_add(shift);
                }
            }
        }
        let cell = OnceLock::new();
        cell.set(fp).expect("freshly created OnceLock");
        let next = SpmmWorkload {
            a: Arc::new(a2),
            profile: Arc::new(profile),
            load_prefix: Arc::new(load_prefix),
            platform: self.platform,
            fp: Arc::new(cell),
        };
        (next, span)
    }

    fn patch_profile(
        &self,
        profile: &mut SpmmProfile,
        span: Range<usize>,
        scratch: &mut ProfileScratch,
    ) {
        // A whole-input span (`0..rows`) recomputes every curve in place,
        // reusing the arenas.
        profile.curves.patch_in(
            &self.profile,
            span.start,
            span.end,
            self.a.size_bytes(),
            scratch,
        );
        profile.partition = self.partition_cost();
    }

    fn units(&self) -> usize {
        self.a.rows()
    }
}

impl Fingerprinted for SpmmWorkload {
    fn fingerprint(&self) -> Fingerprint {
        self.fp
            .get_or_init(|| {
                let a = &self.a;
                // Structure + platform; the row profile and load prefix
                // are derived deterministically from `a`, so the pattern
                // digest already covers them.
                Fingerprint::new(
                    "spmm",
                    &DegreeSketch::of(&[a.cols() as u64], a.row_ptr(), a.col_indices()),
                    a.rows().max(1) as f64 * a.cols().max(1) as f64,
                    &[self.platform.digest()],
                )
            })
            .clone()
    }
}

impl PartitionedWorkload for SpmmWorkload {
    fn run(&self, r: f64) -> RunReport {
        self.report_for_split(self.split_row(r))
    }

    fn space(&self) -> ThresholdSpace {
        ThresholdSpace::percentage()
    }

    fn size(&self) -> usize {
        self.a.rows()
    }

    fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl Sampleable for SpmmWorkload {
    type Sample = SpmmWorkload;

    fn sample(&self, spec: SampleSpec, rng: &mut SmallRng) -> SpmmWorkload {
        // Paper default: an n/4 × n/4 submatrix (K = 4), i.e. fraction 1/4.
        let frac = (0.25 * spec.factor).clamp(1e-3, 1.0);
        let sampled = sample_submatrix_frac(&self.a, frac, rng);
        // Fixed costs are scaled by the *measured* work ratio of the
        // miniature (see `Platform::sample_scaled`).
        let sample_work: u64 = load_vector(&sampled, &sampled).iter().sum();
        let full_work = self.load_prefix.last().copied().unwrap_or(1).max(1);
        let ratio = (sample_work as f64 / full_work as f64).clamp(1e-6, 1.0);
        SpmmWorkload::new(sampled, self.platform.sample_scaled(ratio))
    }

    fn extrapolate(&self, r_sample: f64, _sample: &SpmmWorkload) -> f64 {
        // §IV.A(c): "we expect that r should be identical to r'".
        r_sample
    }

    fn sampling_cost(&self) -> SimTime {
        let stats = KernelStats {
            int_ops: self.a.nnz() as u64,
            mem_read_bytes: ENTRY_BYTES * self.a.nnz() as u64,
            mem_write_bytes: ENTRY_BYTES * (self.a.nnz() as u64) / 16,
            parallel_items: self.platform.cpu.cores as u64,
            working_set_bytes: self.a.size_bytes(),
            ..KernelStats::default()
        };
        self.platform.cpu_time(&stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Estimator;
    use crate::profile::priced;
    use crate::search::Strategy;
    use nbwp_sparse::delta::RowOp;
    use nbwp_sparse::gen;
    use nbwp_sparse::spgemm::spgemm;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn workload(a: Csr) -> SpmmWorkload {
        SpmmWorkload::new(a, Platform::k40c_xeon_e5_2650())
    }

    /// The halo oracle: every row of `a` tested against the edited rows,
    /// column by column — the O(nnz) scan [`halo_span`] replaced.
    fn halo_span_full_scan(a: &Csr, edited: &[usize]) -> Range<usize> {
        let mut marks = vec![false; a.rows()];
        for &r in edited {
            marks[r] = true;
        }
        let (mut lo, mut hi) = (0, 0);
        for i in 0..a.rows() {
            let (cols, _) = a.row(i);
            if marks[i] || cols.iter().any(|&k| marks[k as usize]) {
                if hi == 0 {
                    lo = i;
                }
                hi = i + 1;
            }
        }
        lo..hi
    }

    /// A script of `ops` row ops on an `n`-row matrix drawn from `seed`,
    /// in one of three shapes: scales only; replacements in a window with
    /// columns near the diagonal (the banded drift scripts); or
    /// replacements and scales anywhere, rows 0 and `n − 1` favoured,
    /// empty replacements included.
    fn halo_script(n: usize, ops: usize, shape: usize, seed: u64) -> CsrDelta {
        let mut x = seed | 1;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        let start = next(n);
        let ops = (0..ops)
            .map(|i| {
                let row = match (shape, next(4)) {
                    (1, _) => (start + i).min(n - 1),
                    (_, 0) => 0,
                    (_, 1) => n - 1,
                    _ => next(n),
                };
                if shape == 0 || next(4) == 0 {
                    return RowOp::Scale { row, factor: 2.0 };
                }
                let mut cols: Vec<u32> = (0..next(6))
                    .map(|_| match shape {
                        1 => (row + next(9)).saturating_sub(4).min(n - 1) as u32,
                        _ => next(n) as u32,
                    })
                    .collect();
                cols.sort_unstable();
                cols.dedup();
                let vals = vec![1.0; cols.len()];
                RowOp::Replace { row, cols, vals }
            })
            .collect();
        CsrDelta { ops }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `apply_delta`'s span is exactly the rows the full nonzero scan
        /// marks, on banded, power-law and random matrices with emptied
        /// rows, for empty, scale-only, windowed and scattered scripts.
        #[test]
        fn halo_span_equals_the_full_scan(
            family in 0usize..3,
            n in 1usize..240,
            deg in 1usize..8,
            blank in 0usize..24,
            ops in 0usize..10,
            shape in 0usize..3,
            seed in any::<u64>(),
        ) {
            let base = match family {
                0 => gen::banded_fem(n, 6, deg, seed),
                1 => gen::power_law(n, deg, 2.1, seed),
                _ => gen::uniform_random(n, deg, seed),
            };
            // Rows without columns on both sides of any edit.
            let blanks = (0..blank)
                .map(|i| RowOp::Replace {
                    row: (seed as usize).wrapping_add(7 * i) % n,
                    cols: vec![],
                    vals: vec![],
                })
                .collect();
            let w = workload(CsrDelta { ops: blanks }.apply(&base).0);
            let delta = halo_script(n, ops, shape, seed);
            let (_, info) = delta.apply(w.matrix());
            let (w2, span) = w.apply_delta(&delta);
            prop_assert_eq!(span, halo_span_full_scan(w2.matrix(), &info.touched_rows));
        }
    }

    #[test]
    fn split_row_tracks_work_share() {
        let w = workload(gen::uniform_random(1000, 8, 1));
        assert_eq!(w.split_row(0.0), 0);
        assert_eq!(w.split_row(100.0), 1000);
        let half = w.split_row(50.0);
        assert!((400..600).contains(&half), "50% work split at row {half}");
    }

    #[test]
    fn numeric_run_equals_unpartitioned_product() {
        let a = gen::uniform_random(200, 6, 2);
        let reference = spgemm(&a, &a);
        let w = workload(a);
        for r in [0.0, 30.0, 70.0, 100.0] {
            let (c, _) = w.run_numeric(r);
            assert_eq!(c, reference, "split {r}");
        }
    }

    #[test]
    fn numeric_and_analytic_reports_agree() {
        let w = workload(gen::power_law(300, 10, 2.2, 3));
        for r in [0.0, 25.0, 60.0, 100.0] {
            let (_, numeric_report) = w.run_numeric(r);
            assert_eq!(numeric_report, w.run(r), "split {r}");
        }
    }

    #[test]
    fn extreme_splits_have_empty_sides() {
        let w = workload(gen::uniform_random(500, 8, 4));
        let all_gpu = w.run(0.0);
        assert!(all_gpu.cpu_stats.is_empty());
        let all_cpu = w.run(100.0);
        assert!(all_cpu.gpu_stats.is_empty());
        assert!(all_cpu.breakdown.transfer_in.is_zero());
    }

    #[test]
    fn profiled_run_is_bitwise_equal_to_direct() {
        let w = workload(gen::power_law(400, 9, 2.1, 7));
        let p = w.build_profile(Pool::global());
        for r in [0.0, 0.5, 12.5, 33.0, 50.0, 66.6, 99.0, 100.0] {
            assert_eq!(priced(&w, &p, r), w.run(r), "split {r}");
        }
    }

    #[test]
    fn scratch_profile_is_bitwise_equal_to_pooled_build() {
        let w = workload(gen::power_law(400, 9, 2.1, 7));
        // A fresh-arena build against cold and warm scratch builds.
        let pooled = w.build_profile(Pool::global());
        let mut scratch = ProfileScratch::new();
        let built = w.build_profile_in(Pool::global(), &mut scratch);
        assert_eq!(built.curves(), pooled.curves());
        assert_eq!(built.partition(), pooled.partition());
        w.recycle_profile(built, &mut scratch);
        let warm = w.build_profile_in(Pool::global(), &mut scratch);
        assert_eq!(warm.curves(), pooled.curves());
        for r in [0.0, 12.5, 50.0, 100.0] {
            assert_eq!(priced(&w, &warm, r), w.run(r), "split {r}");
        }
    }

    #[test]
    fn sample_shrinks_quadratically() {
        let w = workload(gen::uniform_random(2000, 12, 5));
        let mut rng = SmallRng::seed_from_u64(9);
        let s = w.sample(SampleSpec::default(), &mut rng);
        assert_eq!(s.size(), 500);
        assert!(s.matrix().nnz() < w.matrix().nnz() / 8);
    }

    #[test]
    fn estimation_is_cheap_and_in_range() {
        let w = workload(gen::uniform_random(3000, 10, 6));
        let est = Estimator::new(Strategy::RaceThenFine).seed(2).run(&w);
        assert!((0.0..=100.0).contains(&est.threshold));
        // Sampling overhead must be far below one full GPU-only run.
        assert!(est.overhead < w.time_at(0.0) * 10.0);
    }

    #[test]
    #[should_panic(expected = "multiplies A by itself")]
    fn rejects_non_square() {
        let _ = workload(Csr::zero(3, 4));
    }
}
