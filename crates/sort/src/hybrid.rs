//! The hybrid sort (after the paper's citation \[3\]): split the input at a
//! position threshold, mergesort the CPU piece while the GPU radix-sorts
//! its piece, then merge the two runs.

use nbwp_sim::{percent_split, BandWork, Platform, RunReport, SimTime};

use crate::cpu::{merge_runs, merge_sort};
use crate::gpu::radix_sort;

/// Outcome of one hybrid sort.
#[derive(Clone, Debug)]
pub struct HybridSortOutcome {
    /// The fully sorted keys.
    pub sorted: Vec<u64>,
    /// Timing + counters.
    pub report: RunReport,
    /// Radix passes the GPU side executed.
    pub gpu_passes: u64,
}

/// Sorts `data` with CPU share `t_pct` (percent of elements, by position):
/// [`hybrid_sort_units`] at [`percent_split`]`(data.len(), t_pct)`.
///
/// # Panics
/// Panics if `t_pct` is outside `[0, 100]` (NaN included).
#[must_use]
pub fn hybrid_sort(data: &[u64], t_pct: f64, platform: &Platform) -> HybridSortOutcome {
    hybrid_sort_units(data, percent_split(data.len(), t_pct), platform)
}

/// Sorts `data` with the CPU mergesorting its first `n_cpu` elements while
/// the GPU radix-sorts the rest.
///
/// # Panics
/// Panics if `n_cpu > data.len()`.
#[must_use]
pub fn hybrid_sort_units(data: &[u64], n_cpu: usize, platform: &Platform) -> HybridSortOutcome {
    let (cpu_part, gpu_part) = data.split_at(n_cpu);

    let cpu = merge_sort(cpu_part, platform.cpu.cores);
    let gpu = radix_sort(gpu_part);
    let gpu_passes = gpu.stats.sync_rounds;

    let merge = merge_runs(&cpu.sorted, &gpu.sorted);

    // The GPU piece ships in unsorted and back sorted.
    let gpu_bytes = 8 * gpu_part.len() as u64;
    let report = RunReport::two_way(
        platform,
        SimTime::ZERO, // a positional split is free
        cpu.stats,
        BandWork {
            stats: gpu.stats,
            bytes_in: gpu_bytes,
            bytes_out: gpu_bytes,
        },
        platform.cpu_time(&merge.stats),
    );
    HybridSortOutcome {
        sorted: merge.sorted,
        report,
        gpu_passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn platform() -> Platform {
        Platform::k40c_xeon_e5_2650()
    }

    #[test]
    fn sorted_at_every_threshold() {
        let data = gen::uniform(3000, 5);
        let mut expect = data.clone();
        expect.sort_unstable();
        for t in [0.0, 25.0, 50.0, 75.0, 100.0] {
            let out = hybrid_sort(&data, t, &platform());
            assert_eq!(out.sorted, expect, "t = {t}");
        }
    }

    #[test]
    fn extremes_have_empty_sides() {
        let data = gen::uniform(1000, 7);
        let all_gpu = hybrid_sort(&data, 0.0, &platform());
        assert!(all_gpu.report.breakdown.cpu_compute.is_zero());
        let all_cpu = hybrid_sort(&data, 100.0, &platform());
        assert!(all_cpu.report.breakdown.gpu_compute.is_zero());
        assert_eq!(all_cpu.gpu_passes, 0);
    }

    #[test]
    fn narrow_keys_make_the_gpu_side_cheaper() {
        let wide = gen::uniform(20_000, 9);
        let narrow = gen::narrow_range(20_000, 9);
        let t_wide = hybrid_sort(&wide, 0.0, &platform())
            .report
            .breakdown
            .gpu_compute;
        let t_narrow = hybrid_sort(&narrow, 0.0, &platform())
            .report
            .breakdown
            .gpu_compute;
        assert!(
            t_narrow < t_wide / 2.0,
            "narrow {t_narrow} should be far below wide {t_wide}"
        );
    }

    #[test]
    fn empty_input() {
        let out = hybrid_sort(&[], 50.0, &platform());
        assert!(out.sorted.is_empty());
    }
}
