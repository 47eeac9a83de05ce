//! The sixth case study: SpMV (`y = A·x`, the paper's related-work \[17\])
//! as a partitioned workload. The threshold `r` is the percentage of
//! multiply-add work (= nonzeros) handled by the CPU, realized as a
//! contiguous row split through the degree prefix sums — identical
//! machinery to Algorithm 2 with `V_B ≡ 1`.

use std::sync::Arc;

use nbwp_sim::{KernelStats, Platform, RunBreakdown, RunReport, SimTime};
use nbwp_sparse::ops::{prefix_sums, split_row_for_load};
use nbwp_sparse::sample::sample_submatrix_frac;
use nbwp_sparse::spmv::{spmv_range, stats_for_row_range};
use nbwp_sparse::Csr;
use rand::rngs::SmallRng;

use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable, ThresholdSpace};

/// SpMV over a fixed matrix and platform (`x` is an internal unit vector —
/// its values never affect cost, only the structure of `A` does).
#[derive(Clone)]
pub struct SpmvWorkload {
    a: Arc<Csr>,
    nnz_prefix: Arc<Vec<u64>>,
    platform: Platform,
}

impl SpmvWorkload {
    /// Builds the workload.
    ///
    /// # Panics
    /// Panics if `a` is not square (needed only so `A·x` and sampling share
    /// an index space, as in the other case studies).
    #[must_use]
    pub fn new(a: Csr, platform: Platform) -> Self {
        assert_eq!(a.rows(), a.cols(), "SpMV case study uses square matrices");
        let prefix = prefix_sums(&a.row_nnz_vector());
        SpmvWorkload {
            a: Arc::new(a),
            nnz_prefix: Arc::new(prefix),
            platform,
        }
    }

    /// The matrix.
    #[must_use]
    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    /// Split row realizing CPU work share `r`.
    #[must_use]
    pub fn split_row(&self, r: f64) -> usize {
        split_row_for_load(&self.nnz_prefix, r)
    }

    /// Physically executes the partitioned SpMV, checking the counters.
    ///
    /// # Panics
    /// Panics if measured counters deviate from the analytic profile.
    #[must_use]
    pub fn run_numeric(&self, r: f64) -> (Vec<f64>, RunReport) {
        let split = self.split_row(r);
        let x = vec![1.0; self.a.cols()];
        let (mut y, cpu_meas) = spmv_range(&self.a, &x, 0, split);
        let (y2, gpu_meas) = spmv_range(&self.a, &x, split, self.a.rows());
        assert_eq!(cpu_meas, stats_for_row_range(&self.a, 0, split));
        assert_eq!(gpu_meas, stats_for_row_range(&self.a, split, self.a.rows()));
        y.extend(y2);
        (y, self.run(r))
    }
}

impl PartitionedWorkload for SpmvWorkload {
    fn run(&self, r: f64) -> RunReport {
        let split = self.split_row(r);
        let n = self.a.rows();
        let cpu_stats = stats_for_row_range(&self.a, 0, split);
        let gpu_stats = stats_for_row_range(&self.a, split, n);
        let gpu_rows = n - split;
        let gpu_nnz: u64 = gpu_stats.flops / 2;
        let transfer_in = if gpu_rows == 0 {
            SimTime::ZERO
        } else {
            // A slice + the whole x vector.
            self.platform
                .transfer(12 * gpu_nnz + 8 * (n + gpu_rows) as u64)
        };
        // Partition: one scan of the row-pointer array (host).
        let partition_stats = KernelStats {
            int_ops: 2 * n as u64,
            mem_read_bytes: 8 * n as u64,
            parallel_items: self.platform.cpu.cores as u64,
            working_set_bytes: 8 * n as u64,
            ..KernelStats::default()
        };
        RunReport {
            breakdown: RunBreakdown {
                partition: self.platform.cpu_time(&partition_stats),
                transfer_in,
                cpu_compute: self.platform.cpu_time(&cpu_stats),
                gpu_compute: self.platform.gpu_time(&gpu_stats),
                transfer_out: self.platform.transfer(8 * gpu_rows as u64),
                merge: SimTime::ZERO, // y halves concatenate
            },
            cpu_stats,
            gpu_stats,
        }
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

impl Sampleable for SpmvWorkload {
    type Sample = SpmvWorkload;

    fn sample(&self, spec: SampleSpec, rng: &mut SmallRng) -> SpmvWorkload {
        // n/4 with per-row thinning, like the spmm study; SpMV work is
        // linear in nnz, so the measured ratio is the nnz ratio.
        let frac = (0.25 * spec.factor).clamp(1e-3, 1.0);
        let sampled = sample_submatrix_frac(&self.a, frac, rng);
        let ratio = (sampled.nnz() as f64 / self.a.nnz().max(1) as f64).clamp(1e-6, 1.0);
        SpmvWorkload::new(sampled, self.platform.sample_scaled(ratio))
    }

    fn extrapolate(&self, r_sample: f64, _sample: &SpmvWorkload) -> f64 {
        r_sample
    }

    fn sampling_cost(&self) -> SimTime {
        let nnz = self.a.nnz() as u64;
        let stats = KernelStats {
            int_ops: nnz,
            mem_read_bytes: 12 * nnz,
            mem_write_bytes: 12 * nnz / 16,
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
    use crate::search::{Searcher, Strategy};
    use nbwp_sparse::gen;
    use nbwp_sparse::spmv::spmv;

    fn platform() -> Platform {
        Platform::k40c_xeon_e5_2650().scaled_for(0.05)
    }

    #[test]
    fn numeric_run_matches_unpartitioned_spmv() {
        let a = gen::power_law(400, 10, 2.1, 1);
        let x = vec![1.0; 400];
        let want = spmv(&a, &x);
        let w = SpmvWorkload::new(a, platform());
        for r in [0.0, 35.0, 100.0] {
            let (y, _) = w.run_numeric(r);
            assert_eq!(y, want, "r = {r}");
        }
    }

    #[test]
    fn split_tracks_nnz_share() {
        let w = SpmvWorkload::new(gen::uniform_random(1000, 8, 2), platform());
        assert_eq!(w.split_row(0.0), 0);
        assert_eq!(w.split_row(100.0), 1000);
        let half = w.split_row(50.0);
        assert!((400..600).contains(&half));
    }

    #[test]
    fn estimate_lands_near_best_with_coarse_to_fine() {
        // SpMV's CPU curve has a cache cliff, which breaks the race
        // heuristic's linear-device assumption; the coarse-to-fine grid
        // sees the cliff on the miniature and lands within ~10%.
        let w = SpmvWorkload::new(gen::banded_fem(8000, 160, 40, 3), platform());
        let est = Estimator::new(Strategy::CoarseToFine).seed(7).run(&w);
        let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&w);
        let penalty = w.time_at(est.threshold).pct_diff_from(best.best_time);
        assert!(penalty < 30.0, "penalty {penalty:.1}%");
    }

    #[test]
    fn race_heuristic_is_weaker_under_the_cache_cliff() {
        // Documented limitation: the race's linear extrapolation
        // misestimates when the full landscape has a capacity cliff.
        let w = SpmvWorkload::new(gen::banded_fem(8000, 160, 40, 3), platform());
        let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&w);
        let race = Estimator::new(Strategy::RaceThenFine).seed(7).run(&w);
        let ctf = Estimator::new(Strategy::CoarseToFine).seed(7).run(&w);
        let pen = |t: f64| w.time_at(t).pct_diff_from(best.best_time);
        assert!(
            pen(ctf.threshold) <= pen(race.threshold) + 1.0,
            "coarse-to-fine {:.1}% should not lose to race {:.1}%",
            pen(ctf.threshold),
            pen(race.threshold)
        );
    }

    #[test]
    fn run_report_extremes() {
        let w = SpmvWorkload::new(gen::uniform_random(500, 8, 4), platform());
        assert!(w.run(0.0).cpu_stats.is_empty());
        let all_cpu = w.run(100.0);
        assert!(all_cpu.gpu_stats.is_empty());
        assert!(all_cpu.breakdown.transfer_in.is_zero());
    }
}
