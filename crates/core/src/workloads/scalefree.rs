//! Case study III (§V): spmm on scale-free matrices via Algorithm HH-CPU.
//! The threshold `t` is a *row density* (nonzeros per row): rows with more
//! than `t` nonzeros are "high" and processed on the CPU, the rest on the
//! GPU, with the four masked partial products of Phases II/III.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError};

use nbwp_par::Pool;
use nbwp_sim::{
    AlignedU64s, BandWork, CurveEval, DegreeSketch, KernelStats, Platform, ProfileScratch,
    RunReport, SimTime,
};
use nbwp_sparse::masked::{hh_row_profiles_in, DensitySplit, HhProducts, HhRowProfiles};
use nbwp_sparse::sample::{sample_rows_contract, sample_rows_importance};
use nbwp_sparse::spgemm::{spgemm, stats_for_rows_where, RowCost, ENTRY_BYTES};
use nbwp_sparse::Csr;
use rand::rngs::SmallRng;

use crate::extrapolate::Extrapolator;
use crate::fingerprint::{Fingerprint, Fingerprinted};
use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable, ThresholdSpace};
use crate::profile::Profilable;

/// The offline best-fit extrapolation (§V.A.3): finds the fraction of
/// sample rows classified low-density by `t_sample` and returns the degree
/// realizing the same fraction on the full input. On an ideal Pareto tail
/// with a √n-row sample this reduces to the paper's `t = t'²` square law.
fn degree_quantile_map(t_sample: f64, sample: &Csr, full: &Csr) -> f64 {
    // Work-weighted quantile (row weight ≈ d², its SpGEMM work on A×A):
    // thresholds matter through the *work balance* they induce, so we match
    // the fraction of work classified low-density, not the row count.
    let work_below = |m: &Csr, t: f64| -> (f64, f64) {
        let mut below = 0.0;
        let mut total = 0.0;
        for r in 0..m.rows() {
            let d = m.row_nnz(r) as f64;
            let w = d * d;
            total += w;
            if d <= t {
                below += w;
            }
        }
        (below, total.max(1.0))
    };
    let (below, total) = work_below(sample, t_sample);
    let q = below / total;
    // Invert on the full input: smallest degree threshold whose low-density
    // side carries at least fraction q of the work.
    let mut degrees: Vec<u64> = (0..full.rows()).map(|r| full.row_nnz(r) as u64).collect();
    degrees.sort_unstable();
    if degrees.is_empty() {
        return t_sample;
    }
    let total_full: f64 = degrees.iter().map(|&d| (d as f64) * (d as f64)).sum();
    let target = q * total_full.max(1.0);
    let mut acc = 0.0;
    for &d in &degrees {
        acc += (d as f64) * (d as f64);
        if acc >= target {
            return (d as f64).max(1.0);
        }
    }
    (*degrees.last().unwrap() as f64).max(1.0)
}

/// Pattern equality plus element-wise closeness (the four partial products
/// accumulate in a different order than the reference, so values can differ
/// by floating-point rounding).
fn csr_approx_eq(a: &Csr, b: &Csr, tol: f64) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.row_ptr() == b.row_ptr()
        && a.col_indices() == b.col_indices()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0))
}

/// Step-1 strategy for the HH case study.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum HhSampler {
    /// Uniform row sampling (§V.A.1 — the paper's choice).
    #[default]
    Uniform,
    /// Degree-weighted (importance) row sampling — the paper's stated
    /// future work. Hubs enter the miniature with high probability, which
    /// repairs the threshold estimate on genuinely scale-free inputs.
    Importance,
}

/// The HH-CPU workload over a fixed scale-free matrix (`B = A`) and
/// platform.
#[derive(Clone)]
pub struct HhWorkload {
    a: Arc<Csr>,
    max_degree: u64,
    platform: Platform,
    extrapolator: Extrapolator,
    sampler: HhSampler,
    /// Lazily computed fingerprint, shared across clones of the same input.
    fp: Arc<OnceLock<Fingerprint>>,
}

impl HhWorkload {
    /// Builds the workload for HH-CPU on `A × A` with the paper's square-law
    /// extrapolator.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    #[must_use]
    pub fn new(a: Csr, platform: Platform) -> Self {
        assert_eq!(
            a.rows(),
            a.cols(),
            "HH-CPU case study multiplies A by itself"
        );
        let max_degree = (0..a.rows())
            .map(|r| a.row_nnz(r) as u64)
            .max()
            .unwrap_or(1);
        HhWorkload {
            a: Arc::new(a),
            max_degree: max_degree.max(1),
            platform,
            extrapolator: Extrapolator::DegreeQuantile,
            sampler: HhSampler::default(),
            fp: Arc::new(OnceLock::new()),
        }
    }

    /// Overrides the extrapolator (for extrapolator comparisons).
    #[must_use]
    pub fn with_extrapolator(mut self, e: Extrapolator) -> Self {
        self.extrapolator = e;
        self.fp = Arc::new(OnceLock::new()); // the extrapolator is part of the key
        self
    }

    /// Selects the Step-1 sampler (builder style).
    #[must_use]
    pub fn with_sampler(mut self, sampler: HhSampler) -> Self {
        self.sampler = sampler;
        self.fp = Arc::new(OnceLock::new()); // the sampler is part of the key
        self
    }

    /// The input matrix.
    #[must_use]
    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    /// Maximum row degree (upper end of the threshold space).
    #[must_use]
    pub fn max_degree(&self) -> u64 {
        self.max_degree
    }

    /// Physically executes Algorithm HH-CPU at threshold `t` and checks the
    /// combined product against the plain SpGEMM reference.
    ///
    /// # Panics
    /// Panics if Phase IV's combination differs from `A × A`.
    #[must_use]
    pub fn run_numeric(&self, t: f64) -> (Csr, RunReport) {
        let products = HhProducts::compute(&self.a, &self.a, t as u64, t as u64);
        let combined = products.combine();
        let reference = spgemm(&self.a, &self.a);
        assert!(
            csr_approx_eq(&combined, &reference, 1e-9),
            "HH-CPU Phase IV must reconstruct the full product"
        );
        (combined, self.run(t))
    }

    /// Prices Algorithm HH-CPU at the integer degree threshold `t`. The
    /// report depends on `t` only through the high/low row mask, so it is
    /// constant on each interval between consecutive distinct row degrees —
    /// the fact [`HhProfile`] exploits to memoize per degree class.
    fn report_for_threshold(&self, t: u64) -> RunReport {
        self.report_for_threshold_in(t, &mut HhRowProfiles::default(), &mut ProfileScratch::new())
    }

    /// [`Self::report_for_threshold`] with the fused row profiles and the
    /// filtered-stats flops buffer drawn from caller-owned storage:
    /// allocation-light when the buffers are warm, bitwise identical to a
    /// fresh pricing pass either way.
    fn report_for_threshold_in(
        &self,
        t: u64,
        rows: &mut HhRowProfiles,
        scratch: &mut ProfileScratch,
    ) -> RunReport {
        let split = DensitySplit::at_threshold(&self.a, t);
        let b_bytes = self.a.size_bytes();

        // Phase II: A_H×B_H on CPU, A_L×B_L on GPU.
        // Phase III: A_H×B_L on CPU, A_L×B_H on GPU.
        // One fused traversal prices all four masked products.
        hh_row_profiles_in(&self.a, &self.a, &split.high, &split.high, rows, scratch);

        let live = |c: &RowCost| c.a_nnz > 0;
        let mut cpu_stats = stats_for_rows_where(&rows.hh, b_bytes, live, scratch)
            + stats_for_rows_where(&rows.hl, b_bytes, live, scratch);
        // The CPU side may hold only a handful of (very dense) rows, but a
        // CPU SpGEMM splits rows across cores by nonzero ranges — its
        // parallel slack is work-bound, not row-bound.
        cpu_stats.parallel_items = cpu_stats.parallel_items.max(cpu_stats.flops / 1024);
        let gpu_stats = stats_for_rows_where(&rows.ll, b_bytes, live, scratch)
            + stats_for_rows_where(&rows.lh, b_bytes, live, scratch);

        // Phase I: classify rows by degree, on the GPU (one pass over the
        // row-pointer array plus a compaction).
        let n = self.a.rows() as u64;
        let partition_stats = KernelStats {
            int_ops: 3 * n,
            mem_read_bytes: 8 * n,
            mem_write_bytes: n,
            kernel_launches: 1,
            parallel_items: n,
            working_set_bytes: 9 * n,
            ..KernelStats::default()
        };

        // Transfers: the GPU side needs the low rows of A plus all of B.
        let low_a_bytes: u64 = (0..self.a.rows())
            .filter(|&r| !split.high[r])
            .map(|r| self.a.row_nnz(r) as u64 * ENTRY_BYTES)
            .sum();
        let gpu = BandWork {
            stats: gpu_stats,
            bytes_in: if gpu_stats.is_empty() {
                0
            } else {
                low_a_bytes + b_bytes
            },
            bytes_out: (rows.ll.iter().chain(&rows.lh))
                .map(|c| c.c_nnz * ENTRY_BYTES)
                .sum(),
        };

        // Phase IV: four-way CSR addition on the CPU (streaming merge).
        let total_c: u64 = (rows
            .hh
            .iter()
            .chain(&rows.hl)
            .chain(&rows.lh)
            .chain(&rows.ll))
        .map(|c| c.c_nnz)
        .sum();
        let merge_stats = KernelStats {
            int_ops: 4 * total_c,
            mem_read_bytes: 2 * total_c * ENTRY_BYTES,
            mem_write_bytes: total_c * ENTRY_BYTES,
            parallel_items: n,
            working_set_bytes: 3 * total_c * ENTRY_BYTES,
            ..KernelStats::default()
        };

        RunReport::two_way(
            &self.platform,
            self.platform.gpu_time(&partition_stats),
            cpu_stats,
            gpu,
            self.platform.cpu_time(&merge_stats),
        )
    }
}

impl Fingerprinted for HhWorkload {
    fn fingerprint(&self) -> Fingerprint {
        self.fp
            .get_or_init(|| {
                // Extrapolator identity folds in its parameters: Power fits
                // with different exponents are different configurations.
                let (e_disc, e_a, e_b) = match self.extrapolator {
                    Extrapolator::Identity => (0u64, 0, 0),
                    Extrapolator::Square => (1, 0, 0),
                    Extrapolator::Power { a, b } => (2, a.to_bits(), b.to_bits()),
                    Extrapolator::DegreeQuantile => (3, 0, 0),
                };
                let a = &self.a;
                Fingerprint::new(
                    "hh",
                    &DegreeSketch::of(&[a.cols() as u64], a.row_ptr(), a.col_indices()),
                    a.rows().max(1) as f64 * a.cols().max(1) as f64,
                    &[
                        self.platform.digest(),
                        e_disc,
                        e_a,
                        e_b,
                        self.sampler as u64,
                    ],
                )
            })
            .clone()
    }
}

/// The integer degree a threshold names: negative thresholds make every
/// nonempty row high, and `+∞` makes every row low.
///
/// # Panics
/// Panics if `t` is NaN, which names no degree.
fn degree_threshold(t: f64) -> u64 {
    assert!(!t.is_nan(), "threshold {t} is not a degree");
    t.max(0.0) as u64
}

impl PartitionedWorkload for HhWorkload {
    fn run(&self, t: f64) -> RunReport {
        self.report_for_threshold(degree_threshold(t))
    }

    fn space(&self) -> ThresholdSpace {
        ThresholdSpace::degrees(1.0, self.max_degree as f64)
    }

    fn size(&self) -> usize {
        self.a.rows()
    }

    fn platform(&self) -> &Platform {
        &self.platform
    }
}

/// Cost profile for [`HhWorkload`]: the sorted distinct row degrees of `A`.
///
/// The HH-CPU report depends on the threshold only through the high-row mask
/// `{r : nnz(r) > t}`, which is constant between consecutive distinct
/// degrees. The cost curve ([`HhCostCurve`]) therefore maps each threshold
/// to its *degree class* and memoizes one fused pricing pass per class here
/// — every further threshold in the same class is answered from the memo,
/// bitwise equal to a direct run.
pub struct HhProfile {
    /// Sorted, deduplicated row degrees of `A`.
    classes: AlignedU64s,
    /// Reports memoized per degree class (key: the curve's split index).
    memo: Mutex<HashMap<usize, RunReport>>,
    /// Reusable fused-pricing buffers for memo-miss evaluations: every
    /// threshold class priced after the first reuses the same row-profile
    /// vectors and flops arena instead of reallocating them.
    workspace: Mutex<HhWorkspace>,
}

/// The buffers a memo-miss pricing pass churns through, kept warm between
/// evaluations.
#[derive(Default)]
struct HhWorkspace {
    rows: HhRowProfiles,
    scratch: ProfileScratch,
}

impl HhProfile {
    /// Number of distinct degree classes (distinct reports the workload can
    /// ever produce, plus the everything-low class above the max degree).
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes.len() + 1
    }

    /// The raw sorted, deduplicated row degrees, for benchmark parity
    /// gates comparing against an independently built class list.
    #[doc(hidden)]
    #[must_use]
    pub fn raw_classes(&self) -> &[u64] {
        &self.classes
    }
}

impl Profilable for HhWorkload {
    type Profile = HhProfile;

    fn build_profile_in(&self, _pool: &Pool, scratch: &mut ProfileScratch) -> HhProfile {
        // Serial fill + in-place sort + in-place dedup, so a warm arena
        // builds the class list without allocating.
        let mut classes = scratch.take(self.a.rows());
        for (r, slot) in classes.iter_mut().enumerate() {
            *slot = self.a.row_nnz(r) as u64;
        }
        classes.sort_unstable();
        let mut kept = 0usize;
        for i in 0..classes.len() {
            let v = classes[i];
            if kept == 0 || classes[kept - 1] != v {
                classes[kept] = v;
                kept += 1;
            }
        }
        classes.truncate(kept);
        HhProfile {
            classes,
            memo: Mutex::default(),
            workspace: Mutex::default(),
        }
    }

    fn recycle_profile(&self, profile: HhProfile, scratch: &mut ProfileScratch) {
        scratch.give(profile.classes);
    }

    fn curve<'p>(&'p self, profile: &'p HhProfile) -> Option<Box<dyn CurveEval + 'p>> {
        Some(Box::new(HhCostCurve {
            workload: self,
            profile,
        }))
    }
}

/// The HH-CPU total-cost curve as a [`CurveEval`] over *degree classes*:
/// split index `c` is the class whose high-row mask `{r : nnz(r) >
/// classes[c-1]}` a threshold in that class induces (class 0 = everything
/// high). The curve is a step function of the threshold — each class is
/// one flat segment — so subgradients are exact class-to-class report
/// differences, and pricing memoizes through the profile's per-class memo.
pub struct HhCostCurve<'a> {
    workload: &'a HhWorkload,
    profile: &'a HhProfile,
}

impl HhCostCurve<'_> {
    /// A threshold inside class `c` (the class's lowest integer degree).
    fn repr_t(&self, c: usize) -> u64 {
        if c == 0 {
            0
        } else {
            self.profile.classes[c - 1]
        }
    }
}

impl CurveEval for HhCostCurve<'_> {
    fn splits(&self) -> usize {
        self.profile.classes.len() + 1
    }

    /// # Panics
    /// Panics if `t` is NaN, as the direct run does.
    fn split_for(&self, t: f64) -> usize {
        let t = degree_threshold(t);
        self.profile.classes.partition_point(|&d| d <= t)
    }

    /// One fused pricing pass per class, memoized in the profile: every
    /// threshold in the class induces the same high-row mask, hence the
    /// same report.
    fn report_at(&self, split: usize) -> RunReport {
        // Both locks recover from poisoning: memo entries are pure prices
        // inserted only after their pricing pass returns, and every pass
        // clears and refills the workspace it borrows. No pass runs under
        // the memo lock, and a pass that finds the shared workspace busy
        // prices in a fresh one, so concurrent probes never queue. Prices
        // are pure, so when two passes race on one class the first insert
        // wins and both return equal reports.
        let profile = self.profile;
        let memo = || profile.memo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(report) = memo().get(&split) {
            return report.clone();
        }
        let t = self.repr_t(split);
        let price = |ws: &mut HhWorkspace| {
            let HhWorkspace { rows, scratch } = ws;
            self.workload.report_for_threshold_in(t, rows, scratch)
        };
        let report = match profile.workspace.try_lock() {
            Ok(mut ws) => price(&mut ws),
            Err(TryLockError::Poisoned(poisoned)) => price(&mut poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => price(&mut HhWorkspace::default()),
        };
        memo().entry(split).or_insert(report).clone()
    }

    fn platform(&self) -> &Platform {
        &self.workload.platform
    }
}

impl Sampleable for HhWorkload {
    type Sample = HhWorkload;

    fn sample(&self, spec: SampleSpec, rng: &mut SmallRng) -> HhWorkload {
        // §V.A.1: √n rows with column indices transformed into 1..√n. Row
        // degrees survive up to bucket saturation, and for a power-law tail
        // the largest degree among √n sampled rows is ≈ √(largest overall)
        // — the order-statistics fact behind the paper's offline best-fit
        // t_A = t_s × t_s (realized here by the Square extrapolator).
        let s =
            (((self.a.rows() as f64).sqrt() * spec.factor).ceil() as usize).clamp(4, self.a.rows());
        let sampled = match self.sampler {
            HhSampler::Uniform => sample_rows_contract(&self.a, s, rng),
            HhSampler::Importance => sample_rows_importance(&self.a, s, rng).0,
        };
        // Fixed costs are scaled by the measured work ratio (Σd² proxy for
        // SpGEMM work); see `Platform::sample_scaled` and DESIGN.md.
        let work = |m: &Csr| -> f64 {
            (0..m.rows())
                .map(|r| {
                    let d = m.row_nnz(r) as f64;
                    d * d
                })
                .sum::<f64>()
                .max(1.0)
        };
        let ratio = (work(&sampled) / work(&self.a)).clamp(1e-6, 1.0);
        HhWorkload::new(sampled, self.platform.sample_scaled(ratio))
            .with_extrapolator(self.extrapolator)
            .with_sampler(self.sampler)
    }

    fn extrapolate(&self, t_sample: f64, sample: &HhWorkload) -> f64 {
        match self.extrapolator {
            Extrapolator::DegreeQuantile => degree_quantile_map(t_sample, sample.matrix(), &self.a),
            other => other.apply(t_sample),
        }
    }

    fn sampling_cost(&self) -> SimTime {
        let stats = KernelStats {
            int_ops: self.a.nnz() as u64,
            mem_read_bytes: ENTRY_BYTES * self.a.nnz() as u64,
            mem_write_bytes: ENTRY_BYTES * (self.a.nnz() as f64).sqrt() as u64,
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
    use nbwp_sparse::gen;
    use rand::SeedableRng;

    fn workload(a: Csr) -> HhWorkload {
        HhWorkload::new(a, Platform::k40c_xeon_e5_2650())
    }

    #[test]
    fn numeric_run_reconstructs_product() {
        let w = workload(gen::power_law(150, 8, 2.1, 1));
        for t in [1.0, 4.0, 16.0] {
            let (_, report) = w.run_numeric(t);
            assert!(report.total().as_secs() > 0.0);
        }
    }

    #[test]
    fn threshold_extremes_shift_work_between_devices() {
        let w = workload(gen::power_law(500, 10, 2.1, 2));
        // t ≥ max degree: every row is low-density → all work on the GPU.
        let all_low = w.run(w.max_degree() as f64 + 1.0);
        assert!(all_low.cpu_stats.is_empty());
        assert!(!all_low.gpu_stats.is_empty());
        // t = 0: every nonempty row is high-density → all work on the CPU.
        let all_high = w.run(0.0);
        assert!(all_high.gpu_stats.is_empty());
        assert!(!all_high.cpu_stats.is_empty());
    }

    #[test]
    fn work_is_conserved_across_thresholds() {
        let w = workload(gen::power_law(400, 10, 2.2, 3));
        let total_at = |t: f64| {
            let r = w.run(t);
            r.cpu_stats.flops + r.gpu_stats.flops
        };
        let reference = total_at(0.0);
        for t in [1.0, 3.0, 9.0, 30.0] {
            assert_eq!(total_at(t), reference, "flops conserved at t = {t}");
        }
    }

    #[test]
    fn profiled_run_is_bitwise_equal_to_direct() {
        let w = workload(gen::power_law(600, 10, 2.1, 11));
        let p = w.build_profile(nbwp_par::Pool::global());
        let max = w.max_degree() as f64;
        for t in [0.0, 1.0, 2.0, 3.7, 9.0, max / 2.0, max, max + 5.0] {
            assert_eq!(priced(&w, &p, t), w.run(t), "t = {t}");
        }
    }

    #[test]
    fn scratch_profile_is_bitwise_equal_to_pooled_build() {
        let w = workload(gen::power_law(500, 9, 2.1, 13));
        let fresh = w.build_profile(nbwp_par::Pool::global());
        let mut scratch = ProfileScratch::new();
        let max = w.max_degree() as f64;
        // Cold and warm scratch builds must both reproduce a fresh-arena
        // profile's class list and every memoized report bit for bit.
        for _ in 0..2 {
            let p = w.build_profile_in(nbwp_par::Pool::global(), &mut scratch);
            assert_eq!(p.classes, fresh.classes);
            for t in [0.0, 1.0, 3.7, max / 2.0, max + 5.0] {
                assert_eq!(priced(&w, &p, t), priced(&w, &fresh, t), "t = {t}");
                assert_eq!(priced(&w, &p, t), w.run(t), "t = {t}");
            }
            w.recycle_profile(p, &mut scratch);
            assert!(scratch.is_warm());
        }
    }

    /// Panics on a scoped thread while it holds `lock`, the way a
    /// panicking probe on a shared profile would.
    fn poison<T: Send>(lock: &Mutex<T>) {
        std::thread::scope(|s| {
            let probe = s.spawn(|| {
                let _guard = lock.lock();
                panic!("probe panicked while holding the profile lock");
            });
            assert!(probe.join().is_err());
        });
        assert!(lock.is_poisoned());
    }

    #[test]
    fn poisoned_memo_and_workspace_still_price_bitwise() {
        let w = workload(gen::power_law(500, 9, 2.1, 17));
        let clean = w.build_profile(nbwp_par::Pool::global());
        let p = w.build_profile(nbwp_par::Pool::global());
        let max = w.max_degree() as f64;
        let _ = priced(&w, &p, 2.0);
        poison(&p.memo);
        poison(&p.workspace);
        // A memoized class, then classes priced through the poisoned
        // workspace for the first time.
        for t in [2.0, 0.0, 3.7, max / 2.0, max + 5.0] {
            assert_eq!(priced(&w, &p, t), priced(&w, &clean, t), "t = {t}");
            assert_eq!(priced(&w, &p, t), w.run(t), "t = {t}");
        }
    }

    #[test]
    fn busy_workspace_prices_in_a_fresh_one() {
        let w = workload(gen::power_law(500, 9, 2.1, 19));
        let p = w.build_profile(nbwp_par::Pool::global());
        // A probe holding the shared workspace: every memo miss priced
        // meanwhile must take a fresh workspace instead of waiting.
        let busy = p.workspace.lock().expect("fresh lock");
        for t in [0.0, 2.0, 3.7, w.max_degree() as f64 + 5.0] {
            assert_eq!(priced(&w, &p, t), w.run(t), "t = {t}");
        }
        drop(busy);
        assert!(!p.memo.lock().expect("fresh lock").is_empty());
    }

    #[test]
    fn degree_classes_bound_distinct_reports() {
        let w = workload(gen::power_law(300, 8, 2.2, 12));
        let p = w.build_profile(nbwp_par::Pool::global());
        // Price every integer threshold: the memo can never hold more
        // entries than there are degree classes.
        for t in 0..=(w.max_degree() + 3) {
            let _ = priced(&w, &p, t as f64);
        }
        assert!(p.memo.lock().unwrap().len() <= p.classes());
    }

    #[test]
    fn space_is_logarithmic_over_degrees() {
        let w = workload(gen::power_law(400, 10, 2.1, 4));
        let s = w.space();
        assert!(s.logarithmic);
        assert_eq!(s.lo, 1.0);
        assert_eq!(s.hi, w.max_degree() as f64);
    }

    #[test]
    fn sampled_max_degree_tracks_sqrt_of_full_max() {
        // Order statistics of a power-law tail: the densest of √n sampled
        // rows has ≈ √(densest overall) nonzeros — the basis of the
        // paper's t_A = t_s² extrapolation.
        let w = workload(gen::power_law(40_000, 12, 2.0, 5));
        let mut rng = SmallRng::seed_from_u64(1);
        let s = w.sample(SampleSpec::default(), &mut rng);
        assert_eq!(s.size(), 200);
        let expect = (w.max_degree() as f64).sqrt();
        let got = s.max_degree() as f64;
        assert!(
            got > expect / 4.0 && got < expect * 4.0,
            "sample max degree {got} vs √(full max) {expect}"
        );
    }

    #[test]
    fn quantile_extrapolation_is_default_and_square_is_selectable() {
        let w = workload(gen::power_law(4000, 10, 2.1, 6));
        let mut rng = SmallRng::seed_from_u64(2);
        let s = w.sample(SampleSpec::default(), &mut rng);
        // Quantile mapping: a sample threshold at the sample's max degree
        // (everything low) maps to the full input's max degree.
        let t = w.extrapolate(s.max_degree() as f64, &s);
        assert_eq!(t, w.max_degree() as f64);
        // Square stays available for the ablation.
        let sq = w.clone().with_extrapolator(Extrapolator::Square);
        assert_eq!(sq.extrapolate(7.0, &s), 49.0);
    }

    #[test]
    fn quantile_map_is_monotone() {
        let w = workload(gen::power_law(4000, 10, 2.1, 8));
        let mut rng = SmallRng::seed_from_u64(3);
        let s = w.sample(SampleSpec::default(), &mut rng);
        let mut last = 0.0f64;
        for t in [1.0, 2.0, 4.0, 8.0, s.max_degree() as f64] {
            let mapped = w.extrapolate(t, &s);
            assert!(mapped >= last, "quantile map must be monotone");
            last = mapped;
        }
    }

    #[test]
    fn gradient_descent_estimation_stays_in_space() {
        let w = workload(gen::power_law(2000, 12, 2.1, 7));
        let est = Estimator::new(Strategy::GradientDescent { max_evals: 24 })
            .seed(3)
            .run(&w);
        let space = w.space();
        assert!(est.threshold >= space.lo && est.threshold <= space.hi);
        assert!(est.evaluations <= 24);
    }
}
