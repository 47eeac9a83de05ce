//! The motivating workload (Fig. 1): dense square GEMM, split by rows.
//! Regular work — the case where even *NaiveStatic* is near-optimal.

use nbwp_dense::hybrid::{hybrid_gemm_cost, GemmCostCurve};
use nbwp_par::Pool;
use nbwp_sim::{
    log2_bucket, CurveEval, DegreeSketch, Digest, KernelStats, Platform, ProfileScratch, RunReport,
    SimTime,
};
use rand::rngs::SmallRng;

use crate::fingerprint::{Fingerprint, Fingerprinted};
use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable, ThresholdSpace};
use crate::profile::Profilable;

/// Hybrid dense GEMM (`C = A × B`, all square `n × n`) as a partitioned
/// workload. Being perfectly regular, its cost is a closed form and no
/// profile pass is needed.
#[derive(Copy, Clone, Debug)]
pub struct DenseGemmWorkload {
    n: usize,
    platform: Platform,
}

impl DenseGemmWorkload {
    /// Builds the workload for `n × n` square GEMM.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, platform: Platform) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        DenseGemmWorkload { n, platform }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }
}

impl Fingerprinted for DenseGemmWorkload {
    fn fingerprint(&self) -> Fingerprint {
        // Dense GEMM is fully described by `(n, platform)`: its sketch is
        // O(1) fresh arithmetic (every "row" has degree `n`), so the
        // workload stays `Copy` with no cached sketch.
        let n = self.n;
        let d = n as u64;
        let mut log2_hist = [0u64; 64];
        log2_hist[log2_bucket(d)] = d;
        let sketch = DegreeSketch {
            n,
            m: n * n,
            mean: n as f64,
            cv: 0.0,
            max: d,
            sum_sq: d * d * d,
            log2_hist,
            digest: Digest::default().word(d).finish(),
        };
        Fingerprint::new(
            "dense_gemm",
            &sketch,
            n as f64 * n as f64,
            &[self.platform.digest()],
        )
    }
}

impl PartitionedWorkload for DenseGemmWorkload {
    fn run(&self, t: f64) -> RunReport {
        hybrid_gemm_cost(self.n, self.n, self.n, t, &self.platform)
    }

    fn space(&self) -> ThresholdSpace {
        ThresholdSpace::percentage()
    }

    fn size(&self) -> usize {
        self.n
    }

    fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl Profilable for DenseGemmWorkload {
    /// Dense GEMM cost is already a closed form in `(n, k, m, t)` — the
    /// curve is the formula itself, so the profile carries no state.
    type Profile = ();

    fn build_profile_in(&self, _pool: &Pool, _scratch: &mut ProfileScratch) -> Self::Profile {}

    fn curve<'p>(&'p self, (): &'p Self::Profile) -> Option<Box<dyn CurveEval + 'p>> {
        Some(Box::new(GemmCostCurve::new(
            self.n,
            self.n,
            self.n,
            &self.platform,
        )))
    }
}

impl Sampleable for DenseGemmWorkload {
    type Sample = DenseGemmWorkload;

    fn sample(&self, spec: SampleSpec, _rng: &mut SmallRng) -> DenseGemmWorkload {
        // A quarter-size matrix preserves the (scale-free) compute/transfer
        // balance well enough for identification; no randomization is even
        // needed because every submatrix of a uniform dense matrix is alike.
        let s = ((self.n as f64 * 0.25 * spec.factor).ceil() as usize).clamp(8, self.n);
        // GEMM work scales with the cube of the dimension ratio; fixed
        // costs are scaled accordingly (see `Platform::sample_scaled`).
        let dim_ratio = (s as f64 / self.n as f64).min(1.0);
        let ratio = dim_ratio.powi(3);
        let mut platform = self.platform.sample_scaled(ratio);
        // Compute scales with dim³ but transfers with dim²: speed the
        // sample's link up by 1/dim so the miniature keeps the full
        // problem's transfer/compute balance (a quarter-size GEMM on the
        // real link would look spuriously transfer-bound).
        platform.pcie.bw_gbs /= dim_ratio;
        DenseGemmWorkload { n: s, platform }
    }

    fn extrapolate(&self, t_sample: f64, _sample: &DenseGemmWorkload) -> f64 {
        t_sample
    }

    fn sampling_cost(&self) -> SimTime {
        // Copy out a quarter-size submatrix: streaming read + write.
        let bytes = (8 * self.n * self.n / 16) as u64;
        let stats = KernelStats {
            mem_read_bytes: bytes,
            mem_write_bytes: bytes,
            int_ops: bytes / 8,
            parallel_items: self.platform.cpu.cores as u64,
            working_set_bytes: bytes * 2,
            ..KernelStats::default()
        };
        self.platform.cpu_time(&stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::naive_static;
    use crate::estimator::Estimator;
    use crate::search::{Searcher, Strategy};

    fn workload(n: usize) -> DenseGemmWorkload {
        DenseGemmWorkload::new(n, Platform::k40c_xeon_e5_2650())
    }

    #[test]
    fn naive_static_is_near_optimal_for_regular_work() {
        // The paper's Fig. 1 message: FLOPS-ratio partitioning works for
        // dense GEMM.
        let w = workload(2048);
        let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) })
            .run(&w)
            .best_t;
        let ns = naive_static(w.platform());
        assert!(
            (best - ns).abs() <= 6.0,
            "exhaustive {best} vs NaiveStatic {ns}"
        );
    }

    #[test]
    fn sampling_also_finds_it() {
        // Large enough that the quarter-size sample sits in the same
        // compute-dominated regime as the full problem.
        let w = workload(8192);
        let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) })
            .run(&w)
            .best_t;
        let est = Estimator::new(Strategy::CoarseToFine).seed(1).run(&w);
        assert!(
            (est.threshold - best).abs() <= 6.0,
            "estimated {} vs best {}",
            est.threshold,
            best
        );
    }

    #[test]
    fn sample_is_quarter_size() {
        let w = workload(4096);
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        let s = w.sample(SampleSpec::default(), &mut rng);
        assert_eq!(s.size(), 1024);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = workload(0);
    }

    #[test]
    fn fingerprint_tracks_dimension_and_platform() {
        use crate::fingerprint::Fingerprinted;
        let fp = workload(2048).fingerprint();
        assert_eq!(fp.kind, "dense_gemm");
        assert_eq!((fp.n, fp.m), (2048, 2048 * 2048));
        assert_eq!(fp, workload(2048).fingerprint());
        assert_ne!(fp.digest, workload(4096).fingerprint().digest);
        let other = DenseGemmWorkload::new(2048, Platform::balanced()).fingerprint();
        assert_ne!(fp.digest, other.digest);
    }
}
