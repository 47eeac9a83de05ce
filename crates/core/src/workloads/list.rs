//! The fifth case study: hybrid list ranking (the second algorithm of the
//! paper's citation \[5\]) as a partitioned workload. The threshold is the
//! splitter fraction — the knob trading serial CPU pointer-chasing against
//! GPU pointer-jumping rounds.
//!
//! Sampling note: a uniformly random linked list is structureless, so the
//! miniature is a fresh random list with the same *number of independent
//! lists scaled proportionally* (the one structural parameter that shifts
//! the optimum); the threshold is a fraction, extrapolated identically.

use std::sync::Arc;

use nbwp_graph::list::{hybrid_rank, hybrid_rank_units, LinkedLists};
use nbwp_sim::{percent_split, KernelStats, Platform, RunReport, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

use super::SplitIndexed;
use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable, ThresholdSpace};

/// Hybrid list ranking over a fixed list structure and platform.
#[derive(Clone)]
pub struct ListRankingWorkload {
    lists: Arc<LinkedLists>,
    platform: Platform,
    run_seed: u64,
}

impl ListRankingWorkload {
    /// Wraps a list structure (splitter choice inside runs is seeded by
    /// `run_seed` for determinism).
    #[must_use]
    pub fn new(lists: LinkedLists, platform: Platform, run_seed: u64) -> Self {
        ListRankingWorkload {
            lists: Arc::new(lists),
            platform,
            run_seed,
        }
    }

    /// The underlying lists.
    #[must_use]
    pub fn lists(&self) -> &LinkedLists {
        &self.lists
    }

    /// Executes at `t` and returns the ranks too.
    #[must_use]
    pub fn run_full(&self, t: f64) -> nbwp_graph::list::HybridRankOutcome {
        hybrid_rank(&self.lists, t, &self.platform, self.run_seed)
    }

    /// Default sample size: `⌈√n⌉ · 2` nodes — the splitter-share landscape
    /// is flat near its optimum, so a small miniature suffices and keeps
    /// the identify step cheap.
    #[must_use]
    pub fn sample_size(&self, factor: f64) -> usize {
        let n = self.lists.n();
        ((((n as f64).sqrt() * 2.0) * factor).ceil() as usize).clamp(16, n.max(16))
    }
}

impl SplitIndexed for ListRankingWorkload {
    fn split_for(&self, t: f64) -> usize {
        percent_split(self.lists.n(), t)
    }

    fn report_at(&self, split: usize) -> RunReport {
        hybrid_rank_units(&self.lists, split, &self.platform, self.run_seed).report
    }
}

impl PartitionedWorkload for ListRankingWorkload {
    fn run(&self, t: f64) -> RunReport {
        self.report_at(self.split_for(t))
    }

    fn space(&self) -> ThresholdSpace {
        // Fine splitter fractions matter at the low end; keep the paper's
        // coarse/fine strides on the percentage axis.
        ThresholdSpace::percentage()
    }

    fn size(&self) -> usize {
        self.lists.n()
    }

    fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl Sampleable for ListRankingWorkload {
    type Sample = ListRankingWorkload;

    fn sample(&self, spec: SampleSpec, rng: &mut SmallRng) -> ListRankingWorkload {
        let s = self.sample_size(spec.factor);
        let n = self.lists.n().max(1);
        // Keep the lists-per-node density of the original.
        let lists =
            ((self.lists.lists() as f64 * s as f64 / n as f64).round() as usize).clamp(1, s);
        let mini = LinkedLists::random(s, lists, rng.gen());
        let ratio = (s as f64 / n as f64).min(1.0);
        ListRankingWorkload {
            lists: Arc::new(mini),
            platform: self.platform.sample_scaled(ratio),
            run_seed: self.run_seed,
        }
    }

    fn extrapolate(&self, t_sample: f64, _sample: &ListRankingWorkload) -> f64 {
        t_sample
    }

    fn sampling_cost(&self) -> SimTime {
        let n = self.lists.n() as u64;
        let stats = KernelStats {
            int_ops: n,
            mem_read_bytes: 4 * n,
            mem_write_bytes: 4 * (n as f64).sqrt() as u64 * 2,
            parallel_items: self.platform.cpu.cores as u64,
            working_set_bytes: 4 * n,
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
    use rand::SeedableRng;

    fn platform() -> Platform {
        Platform::k40c_xeon_e5_2650().scaled_for(0.05)
    }

    fn workload(n: usize, lists: usize) -> ListRankingWorkload {
        ListRankingWorkload::new(LinkedLists::random(n, lists, 7), platform(), 42)
    }

    #[test]
    fn run_ranks_correctly() {
        let w = workload(4000, 3);
        let out = w.run_full(10.0);
        assert_eq!(out.ranks, w.lists().rank_sequential());
    }

    #[test]
    fn optimum_is_interior() {
        // Too few splitters → serial chains dominate; too many → Wyllie
        // rounds and launches dominate. The optimum sits strictly inside.
        let w = workload(30_000, 2);
        let best = Searcher::new(Strategy::Exhaustive { step: Some(2.0) }).run(&w);
        assert!(
            best.best_t > 0.0 && best.best_t < 100.0,
            "best splitter share = {}",
            best.best_t
        );
        let t_best = best.best_time;
        assert!(w.time_at(0.0) > t_best, "0% splitters must be worse");
        assert!(w.time_at(100.0) > t_best, "100% splitters must be worse");
    }

    #[test]
    fn estimate_lands_near_the_optimum() {
        let w = workload(30_000, 2);
        let est = Estimator::new(Strategy::CoarseToFine).seed(3).run(&w);
        let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&w);
        let penalty = w.time_at(est.threshold).pct_diff_from(best.best_time);
        assert!(
            penalty < 40.0,
            "estimated {} vs best {} (penalty {penalty:.1}%)",
            est.threshold,
            best.best_t
        );
        assert!(est.overhead < best.search_cost / 5.0);
    }

    #[test]
    fn sample_keeps_list_density() {
        let w = workload(40_000, 40);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = w.sample(SampleSpec::default(), &mut rng);
        // 40 lists / 40k nodes = 1 per 1000; sample of ~1600 → ~2 lists.
        assert!(
            s.lists().lists() <= 8,
            "sampled lists = {}",
            s.lists().lists()
        );
        assert!(s.size() < w.size() / 10);
    }
}
