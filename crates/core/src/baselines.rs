//! Baseline partitioners the paper compares against (and two from its
//! related-work section, compared by the `ext_baselines` harness).

use nbwp_sim::{Platform, SimTime};

use crate::framework::PartitionedWorkload;

/// *NaiveStatic* (paper Figs. 1/3/5/8): split work in proportion to
/// spec-sheet FLOPS. Returns the CPU share in percent — ≈ 11.6% on the
/// K40c + Xeon platform ("the GPU … gets the bigger of the two partitions
/// which is 88% on average").
///
/// ```
/// use nbwp_core::baselines::naive_static;
/// use nbwp_sim::Platform;
/// let t = naive_static(&Platform::k40c_xeon_e5_2650());
/// assert!((10.0..13.0).contains(&t)); // the GPU gets ~88%
/// ```
#[must_use]
pub fn naive_static(platform: &Platform) -> f64 {
    (1.0 - platform.gpu_flops_share()) * 100.0
}

/// *NaiveAverage* (paper Figs. 3/5/8): the mean of the best thresholds
/// observed on a corpus of prior inputs, applied to every future input.
///
/// # Panics
/// Panics on an empty corpus.
#[must_use]
pub fn naive_average(exhaustive_thresholds: &[f64]) -> f64 {
    assert!(
        !exhaustive_thresholds.is_empty(),
        "NaiveAverage needs at least one prior threshold"
    );
    exhaustive_thresholds.iter().sum::<f64>() / exhaustive_thresholds.len() as f64
}

/// *Naive* (paper Fig. 3(b)): no partitioning — run everything on the GPU.
/// Returns the threshold meaning "0% to the CPU".
#[must_use]
pub fn gpu_only<W: PartitionedWorkload>(w: &W) -> f64 {
    w.space().lo
}

/// [`naive_static`] read off a workload's own platform, clamped into its
/// threshold space.
#[must_use]
pub fn naive_static_for<W: PartitionedWorkload>(w: &W) -> f64 {
    w.space().clamp(naive_static(w.platform()))
}

/// The homogeneous CPU-only threshold.
#[must_use]
pub fn cpu_only<W: PartitionedWorkload>(w: &W) -> f64 {
    w.space().hi
}

/// Qilin-style history-based partitioner (Luk et al., cited as \[20\]): the
/// first input is a *training run* whose exhaustively found threshold is
/// reused verbatim for all later inputs. Input-oblivious by design — the
/// weakness the paper's sampling method addresses.
#[derive(Debug, Default, Clone)]
pub struct HistoryBased {
    trained: Option<f64>,
}

impl HistoryBased {
    /// An untrained model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a training run has happened.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        self.trained.is_some()
    }

    /// Returns the threshold for `w`: the first call trains (exhaustive
    /// search on the reference grid Table I measures against,
    /// [`ThresholdSpace::reference_step`](crate::framework::ThresholdSpace::reference_step)
    /// — expensive, like Qilin's first run); later calls reuse the stored
    /// threshold regardless of input.
    pub fn threshold_for<W: PartitionedWorkload>(&mut self, w: &W) -> f64 {
        if let Some(t) = self.trained {
            return t;
        }
        let out = crate::search::Searcher::new(crate::search::Strategy::Exhaustive {
            step: Some(w.space().reference_step()),
        })
        .run(w);
        self.trained = Some(out.best_t);
        out.best_t
    }
}

/// Boyer-style chunked-dynamic scheduler (cited as \[6\]): the input is
/// processed in `chunks` equal work slices, each dispatched to whichever
/// device becomes free first, paying a per-chunk synchronization /
/// communication cost. Returns the achieved end-to-end simulated time.
///
/// Works on any `PartitionedWorkload` by reading per-slice device costs off
/// the threshold axis: slice `i` covers thresholds `[tᵢ, tᵢ₊₁)`, and its
/// cost on a device is the marginal cost of widening that device's share.
#[must_use]
pub fn chunked_dynamic<W: PartitionedWorkload>(
    w: &W,
    chunks: usize,
    per_chunk_overhead: SimTime,
) -> SimTime {
    assert!(chunks > 0, "need at least one chunk");
    let space = w.space();
    // Marginal device costs per slice, from cumulative curves:
    // cpu_cum(t) = cpu_compute at threshold t (CPU processes [0, t)),
    // gpu_cum(t) = gpu side at threshold hi-… (GPU processes [t, hi)).
    let grid: Vec<f64> = (0..=chunks)
        .map(|i| space.lo + (space.hi - space.lo) * i as f64 / chunks as f64)
        .collect();
    let mut cpu_slice = Vec::with_capacity(chunks);
    let mut gpu_slice = Vec::with_capacity(chunks);
    for i in 0..chunks {
        let lo_r = w.run(grid[i]);
        let hi_r = w.run(grid[i + 1]);
        // CPU cost of slice i: growth of the CPU side from tᵢ to tᵢ₊₁.
        cpu_slice.push(hi_r.breakdown.cpu_compute - lo_r.breakdown.cpu_compute);
        // GPU cost of slice i: shrink of the GPU side from tᵢ to tᵢ₊₁.
        let gpu_at = |r: &nbwp_sim::RunReport| {
            r.breakdown.transfer_in + r.breakdown.gpu_compute + r.breakdown.transfer_out
        };
        gpu_slice.push(gpu_at(&lo_r) - gpu_at(&hi_r));
    }
    // Greedy list scheduling: give the next slice to the earlier-free device.
    let mut cpu_free = SimTime::ZERO;
    let mut gpu_free = SimTime::ZERO;
    for i in 0..chunks {
        if cpu_free + cpu_slice[i] <= gpu_free + gpu_slice[i] {
            cpu_free += cpu_slice[i] + per_chunk_overhead;
        } else {
            gpu_free += gpu_slice[i] + per_chunk_overhead;
        }
    }
    // The workload's partition prologue applies to the dynamic scheduler
    // too (it still needs the load vector to slice by work).
    let prologue = w.run(space.lo).breakdown.partition;
    prologue + cpu_free.max(gpu_free)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::ThresholdSpace;
    use nbwp_sim::{RunBreakdown, RunReport};

    fn test_platform() -> &'static nbwp_sim::Platform {
        static P: std::sync::OnceLock<nbwp_sim::Platform> = std::sync::OnceLock::new();
        P.get_or_init(nbwp_sim::Platform::k40c_xeon_e5_2650)
    }
    #[test]
    fn naive_static_matches_paper_on_k40c() {
        let t = naive_static(&Platform::k40c_xeon_e5_2650());
        // GPU gets ~88%, so the CPU share is ~12%.
        assert!((10.0..13.0).contains(&t), "cpu share = {t}");
    }

    #[test]
    fn naive_average_is_the_mean() {
        assert_eq!(naive_average(&[10.0, 20.0, 30.0]), 20.0);
    }

    #[test]
    #[should_panic(expected = "at least one prior threshold")]
    fn naive_average_rejects_empty() {
        let _ = naive_average(&[]);
    }

    /// Linear workload: CPU cost grows with t, GPU cost shrinks.
    struct Linear {
        cpu_ms_per_pct: f64,
        gpu_ms_per_pct: f64,
    }

    impl PartitionedWorkload for Linear {
        fn platform(&self) -> &nbwp_sim::Platform {
            test_platform()
        }
        fn run(&self, t: f64) -> RunReport {
            RunReport {
                breakdown: RunBreakdown {
                    cpu_compute: SimTime::from_millis(self.cpu_ms_per_pct * t),
                    gpu_compute: SimTime::from_millis(self.gpu_ms_per_pct * (100.0 - t)),
                    ..RunBreakdown::default()
                },
                ..RunReport::default()
            }
        }
        fn space(&self) -> ThresholdSpace {
            ThresholdSpace::percentage()
        }
        fn size(&self) -> usize {
            100
        }
    }

    #[test]
    fn history_based_trains_once_then_reuses() {
        let fast_gpu = Linear {
            cpu_ms_per_pct: 8.0,
            gpu_ms_per_pct: 1.0,
        };
        let fast_cpu = Linear {
            cpu_ms_per_pct: 1.0,
            gpu_ms_per_pct: 8.0,
        };
        let mut h = HistoryBased::new();
        assert!(!h.is_trained());
        let t1 = h.threshold_for(&fast_gpu);
        assert!(h.is_trained());
        // Optimal for fast_gpu: t where 8t = (100-t) → ~11.
        assert!((t1 - 11.0).abs() <= 1.0, "trained t = {t1}");
        // Reused on a workload whose optimum is ~89 — the Qilin failure mode.
        let t2 = h.threshold_for(&fast_cpu);
        assert_eq!(t1, t2);
    }

    #[test]
    fn gpu_only_and_cpu_only_are_space_extremes() {
        let w = Linear {
            cpu_ms_per_pct: 1.0,
            gpu_ms_per_pct: 1.0,
        };
        assert_eq!(gpu_only(&w), 0.0);
        assert_eq!(cpu_only(&w), 100.0);
    }

    #[test]
    fn chunked_dynamic_balances_linear_work() {
        let w = Linear {
            cpu_ms_per_pct: 2.0,
            gpu_ms_per_pct: 1.0,
        };
        // Static optimum: 2t = 100 - t → t = 33.3 → ~66.7 ms per side.
        let achieved = chunked_dynamic(&w, 20, SimTime::ZERO);
        assert!(
            (achieved.as_millis() - 66.7).abs() < 8.0,
            "achieved {achieved}"
        );
        // Per-chunk overhead makes it strictly worse.
        let with_overhead = chunked_dynamic(&w, 20, SimTime::from_millis(1.0));
        assert!(with_overhead > achieved);
    }

    #[test]
    fn chunked_dynamic_single_chunk_is_one_device() {
        let w = Linear {
            cpu_ms_per_pct: 2.0,
            gpu_ms_per_pct: 1.0,
        };
        // One chunk goes entirely to the cheaper device (GPU: 100 ms).
        let achieved = chunked_dynamic(&w, 1, SimTime::ZERO);
        assert_eq!(achieved, SimTime::from_millis(100.0));
    }
}
