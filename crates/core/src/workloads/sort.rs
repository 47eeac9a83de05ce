//! A fourth case study demonstrating the framework's generality (the paper
//! motivates its framework with hybrid sorting, citation \[3\]): hybrid sort
//! as a partitioned workload. The threshold is the percentage of elements
//! the CPU mergesorts; the GPU radix-sorts the rest.
//!
//! Sampling is textbook here — a uniform random subset of elements
//! preserves the key distribution, so the miniature's radix pass count and
//! comparison balance match the full input's.

use std::sync::Arc;

use nbwp_sim::{KernelStats, Platform, RunReport, SimTime};
use nbwp_sort::hybrid::hybrid_sort;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable, ThresholdSpace};

/// Hybrid sorting over a fixed key array and platform.
#[derive(Clone)]
pub struct SortWorkload {
    data: Arc<Vec<u64>>,
    platform: Platform,
}

impl SortWorkload {
    /// Wraps a key array.
    #[must_use]
    pub fn new(data: Vec<u64>, platform: Platform) -> Self {
        SortWorkload {
            data: Arc::new(data),
            platform,
        }
    }

    /// The keys.
    #[must_use]
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Default sample size: `⌈√n⌉ · 4` elements — a few thousand keys are
    /// enough to expose the radix pass count and the merge/radix balance,
    /// while keeping the identify step well under one full run.
    #[must_use]
    pub fn sample_size(&self, factor: f64) -> usize {
        let n = self.data.len();
        ((((n as f64).sqrt() * 4.0) * factor).ceil() as usize).clamp(16, n.max(16))
    }

    /// Executes the hybrid sort at `t` and returns the sorted keys too.
    #[must_use]
    pub fn run_full(&self, t: f64) -> nbwp_sort::hybrid::HybridSortOutcome {
        hybrid_sort(&self.data, t, &self.platform)
    }
}

impl PartitionedWorkload for SortWorkload {
    fn run(&self, t: f64) -> RunReport {
        self.run_full(t).report
    }

    fn space(&self) -> ThresholdSpace {
        ThresholdSpace::percentage()
    }

    fn size(&self) -> usize {
        self.data.len()
    }

    fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl Sampleable for SortWorkload {
    type Sample = SortWorkload;

    fn sample(&self, spec: SampleSpec, rng: &mut SmallRng) -> SortWorkload {
        let s = self.sample_size(spec.factor).min(self.data.len());
        let mut pool: Vec<u64> = self.data.as_ref().clone();
        let (chosen, _) = pool.partial_shuffle(rng, s);
        let subset = chosen.to_vec();
        let ratio = (s as f64 / self.data.len().max(1) as f64).min(1.0);
        SortWorkload {
            data: Arc::new(subset),
            platform: self.platform.sample_scaled(ratio),
        }
    }

    fn extrapolate(&self, t_sample: f64, _sample: &SortWorkload) -> f64 {
        // Element subsets preserve the key distribution: identity.
        t_sample
    }

    fn sampling_cost(&self) -> SimTime {
        let n = self.data.len() as u64;
        let stats = KernelStats {
            int_ops: n,
            mem_read_bytes: 8 * n,
            mem_write_bytes: 8 * (n as f64).sqrt() as u64 * 4,
            parallel_items: self.platform.cpu.cores as u64,
            working_set_bytes: 8 * n,
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
    use nbwp_sort::gen;
    use rand::SeedableRng;

    fn platform() -> Platform {
        Platform::k40c_xeon_e5_2650().scaled_for(0.05)
    }

    #[test]
    fn run_sorts_and_reports() {
        let w = SortWorkload::new(gen::uniform(5000, 1), platform());
        let out = w.run_full(40.0);
        assert!(out.sorted.windows(2).all(|p| p[0] <= p[1]));
        assert!(out.report.total().as_secs() > 0.0);
    }

    #[test]
    fn sample_preserves_key_distribution_class() {
        let w = SortWorkload::new(gen::narrow_range(50_000, 2), platform());
        let mut rng = SmallRng::seed_from_u64(1);
        let s = w.sample(SampleSpec::default(), &mut rng);
        // Narrow keys stay narrow: the sample's GPU side also skips passes.
        let passes = s.run_full(0.0).gpu_passes;
        assert!(passes <= 2, "sampled radix passes = {passes}");
    }

    #[test]
    fn estimate_tracks_the_distribution() {
        // Narrow keys → radix is nearly free → optimum is GPU-heavy;
        // full-range keys → optimum shifts CPU-ward. The estimates must
        // reproduce the *ordering*.
        let w_wide = SortWorkload::new(gen::uniform(60_000, 3), platform());
        let w_narrow = SortWorkload::new(gen::narrow_range(60_000, 3), platform());
        let est = |w: &SortWorkload| {
            Estimator::new(Strategy::CoarseToFine)
                .seed(7)
                .run(w)
                .threshold
        };
        let (t_wide, t_narrow) = (est(&w_wide), est(&w_narrow));
        let fine = Searcher::new(Strategy::Exhaustive { step: Some(1.0) });
        let best_wide = fine.run(&w_wide).best_t;
        let best_narrow = fine.run(&w_narrow).best_t;
        assert!(
            best_narrow < best_wide,
            "exhaustive: narrow {best_narrow} should be more GPU-heavy than wide {best_wide}"
        );
        assert!(
            t_narrow < t_wide + 5.0,
            "estimates must reproduce the ordering: narrow {t_narrow}, wide {t_wide}"
        );
    }

    #[test]
    fn estimate_is_near_best_in_time() {
        let w = SortWorkload::new(gen::uniform(60_000, 5), platform());
        let est = Estimator::new(Strategy::CoarseToFine).seed(9).run(&w);
        let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&w);
        let penalty = w.time_at(est.threshold).pct_diff_from(best.best_time);
        assert!(penalty < 30.0, "penalty {penalty:.1}%");
        assert!(est.overhead < best.search_cost / 5.0);
    }
}
