//! Row-split hybrid dense GEMM — the paper's Fig. 1 motivating experiment
//! (MKL on the CPU + cuBLAS on the GPU, split by rows of `A`).
//!
//! `t ∈ [0, 100]` is the percentage of rows assigned to the CPU. Because
//! the workload is regular, the per-device stats are closed forms
//! ([`crate::gemm::stats_for_rows`]) and the FLOPS-ratio split is already
//! near-optimal — the contrast the paper draws with irregular workloads.

use nbwp_sim::{
    percent_split, two_way_report, BandWork, CurveEval, DeviceKind, Platform, RunReport, SimTime,
};

use crate::gemm::{gemm_range, stats_for_rows};
use crate::DenseMatrix;

/// Outcome of one hybrid GEMM run.
#[derive(Clone, Debug)]
pub struct HybridGemmOutcome {
    /// The product `A × B` (present only when executed numerically).
    pub product: Option<DenseMatrix>,
    /// Timing + counters.
    pub report: RunReport,
    /// Rows assigned to the CPU.
    pub cpu_rows: usize,
}

/// Prices a hybrid GEMM at threshold `t_pct` (CPU row share, in percent)
/// without executing it — exact for this regular workload. Prices through
/// [`GemmCostCurve`]: the workload's direct run and its cost curve are one
/// closed form.
///
/// # Panics
/// Panics if `t_pct ∉ [0, 100]` (NaN included).
#[must_use]
pub fn hybrid_gemm_cost(
    n: usize,
    k: usize,
    m: usize,
    t_pct: f64,
    platform: &Platform,
) -> RunReport {
    let curve = GemmCostCurve::new(n, k, m, platform);
    curve.report_at(curve.split_for(t_pct))
}

/// The hybrid GEMM total-cost curve as a [`CurveEval`]: the workload is
/// regular, so every row split is a closed form — no profile pass needed.
/// Thresholds are CPU row percentages, rounded to the nearest row.
pub struct GemmCostCurve<'a> {
    n: usize,
    k: usize,
    m: usize,
    platform: &'a Platform,
}

impl<'a> GemmCostCurve<'a> {
    /// Curve for the `n×k · k×m` product priced on `platform`.
    #[must_use]
    pub fn new(n: usize, k: usize, m: usize, platform: &'a Platform) -> Self {
        GemmCostCurve { n, k, m, platform }
    }
}

impl CurveEval for GemmCostCurve<'_> {
    fn splits(&self) -> usize {
        self.n + 1
    }

    /// # Panics
    /// Panics if `t ∉ [0, 100]` (NaN included).
    fn split_for(&self, t: f64) -> usize {
        percent_split(self.n, t)
    }

    /// A row offset partitions for free, and results land disjoint.
    fn report_at(&self, split: usize) -> RunReport {
        two_way_report(self, split, SimTime::ZERO)
    }

    fn platform(&self) -> &Platform {
        self.platform
    }

    /// What the row band `lo..hi` does on any device, in closed form: the
    /// workload is regular, so the counters depend only on the band's row
    /// count ([`stats_for_rows`] is position-independent). The band ships
    /// `B` plus its `A` rows in and its `C` rows out; an empty band ships
    /// nothing, not even `B`.
    fn band_work(&self, _kind: DeviceKind, lo: usize, hi: usize) -> Option<BandWork> {
        let (rows, k, m) = (hi - lo, self.k, self.m);
        let b_bytes = (8 * k * m) as u64;
        Some(BandWork {
            stats: stats_for_rows(rows, k, m, b_bytes),
            bytes_in: if rows == 0 {
                0
            } else {
                b_bytes + (8 * rows * k) as u64
            },
            bytes_out: (8 * rows * m) as u64,
        })
    }
}

/// Executes the hybrid GEMM numerically (both parts run on the host; the
/// simulated report is identical to [`hybrid_gemm_cost`]).
#[must_use]
pub fn hybrid_gemm(
    a: &DenseMatrix,
    b: &DenseMatrix,
    t_pct: f64,
    platform: &Platform,
) -> HybridGemmOutcome {
    let curve = GemmCostCurve::new(a.rows(), a.cols(), b.cols(), platform);
    let cpu_rows = curve.split_for(t_pct);
    let report = curve.report_at(cpu_rows);
    let top = gemm_range(a, b, 0, cpu_rows);
    let bot = gemm_range(a, b, cpu_rows, a.rows());
    let mut data = Vec::with_capacity(a.rows() * b.cols());
    data.extend_from_slice(top.data());
    data.extend_from_slice(bot.data());
    HybridGemmOutcome {
        product: Some(DenseMatrix::from_vec(a.rows(), b.cols(), data)),
        report,
        cpu_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;

    fn platform() -> Platform {
        Platform::k40c_xeon_e5_2650()
    }

    #[test]
    fn executed_product_is_correct_at_any_split() {
        let a = DenseMatrix::random(30, 30, 1);
        let reference = gemm(&a, &a);
        for t in [0.0, 25.0, 50.0, 75.0, 100.0] {
            let out = hybrid_gemm(&a, &a, t, &platform());
            assert!(
                out.product.unwrap().max_abs_diff(&reference) < 1e-10,
                "t = {t}"
            );
        }
    }

    #[test]
    fn cost_and_executed_reports_agree() {
        let a = DenseMatrix::random(40, 40, 2);
        let cost = hybrid_gemm_cost(40, 40, 40, 30.0, &platform());
        let run = hybrid_gemm(&a, &a, 30.0, &platform());
        assert_eq!(cost, run.report);
    }

    #[test]
    fn optimum_sits_near_the_flops_ratio() {
        // For a large regular GEMM the best CPU share tracks the CPU's
        // share of total FLOPS (~12% on the K40c+Xeon platform).
        let p = platform();
        let n = 4096;
        let best_t = (0..=100)
            .min_by_key(|&t| {
                let r = hybrid_gemm_cost(n, n, n, f64::from(t), &p);
                (r.total().as_secs() * 1e12) as u64
            })
            .unwrap();
        let flops_t = (1.0 - p.gpu_flops_share()) * 100.0;
        assert!(
            (f64::from(best_t) - flops_t).abs() < 8.0,
            "best {best_t} vs flops split {flops_t:.1}"
        );
    }

    #[test]
    fn all_gpu_and_all_cpu_extremes() {
        let p = platform();
        let all_gpu = hybrid_gemm_cost(512, 512, 512, 0.0, &p);
        assert!(all_gpu.breakdown.cpu_compute.is_zero());
        let all_cpu = hybrid_gemm_cost(512, 512, 512, 100.0, &p);
        assert!(all_cpu.breakdown.gpu_compute.is_zero());
        assert!(all_cpu.breakdown.transfer_in.is_zero());
    }

    #[test]
    fn more_rows_cost_more() {
        let p = platform();
        let small = hybrid_gemm_cost(256, 256, 256, 50.0, &p);
        let big = hybrid_gemm_cost(1024, 256, 256, 50.0, &p);
        assert!(big.total() > small.total());
    }

    #[test]
    fn canonical_two_way_partition_is_bitwise_the_scalar_total() {
        use nbwp_sim::{DeviceSet, Partition};
        let p = platform();
        let curve = GemmCostCurve::new(97, 64, 48, &p);
        let set = DeviceSet::cpu_gpu();
        for split in 0..curve.splits() {
            let part = Partition::two_way(97, split);
            assert_eq!(
                curve.partition_total(&set, &part).expect("band-priceable"),
                curve.total_at(split),
                "split {split}"
            );
        }
    }

    #[test]
    fn kway_partition_balances_across_speeds() {
        use nbwp_sim::{DeviceSet, Partition};
        let p = platform();
        let curve = GemmCostCurve::new(1000, 128, 128, &p);
        let set = DeviceSet::dual_cpu_dual_gpu();
        // A proportional seed beats shoving everything onto one slow,
        // slow-linked device. (It is only a *seed*: at transfer-bound
        // sizes coordinate descent still has real work to do.)
        let seed = Partition::proportional(1000, &set.weights(p.gpu_flops_share()));
        let all_slow_gpu = Partition::new(1000, vec![0, 0, 0]);
        let seeded = curve.partition_total(&set, &seed).expect("priceable");
        let dumped = curve
            .partition_total(&set, &all_slow_gpu)
            .expect("priceable");
        assert!(seeded < dumped);
        // Empty bands price to zero compute on CPU devices.
        assert_eq!(
            curve.device_band(&set.devices()[1], 40, 40).unwrap(),
            SimTime::ZERO
        );
    }
}
