//! [`SpmmCostCurve`]: the spmm total-cost curve as a [`CurveEval`].
//!
//! Packages the prefix-sum [`RowCurves`] with the split-independent
//! Phase I price and a platform, so the whole `RunReport` of any row split
//! — and therefore the total-cost curve and its exact subgradients — is an
//! O(1) range-sum query. `nbwp-core`'s profiled spmm path prices only
//! through this curve; `run()` is the independent oracle it matches
//! bitwise.

use nbwp_sim::{two_way_report, BandWork, CurveEval, DeviceKind, Platform, RunReport, SimTime};

use crate::ops::split_row_for_load;
use crate::spgemm::{RowCurves, ENTRY_BYTES};

/// Evaluates the exact cost of every row split of an spmm run from
/// prefix-sum curves. Thresholds are CPU *work-share* percentages; the
/// load-prefix vector maps them to split rows (Algorithm 2, line 3).
pub struct SpmmCostCurve<'a> {
    curves: &'a RowCurves,
    load_prefix: &'a [u64],
    partition: SimTime,
    platform: &'a Platform,
}

impl<'a> SpmmCostCurve<'a> {
    /// Bundles curves, the load-prefix vector (inclusive prefix sums of
    /// the load vector, one entry per row), the Phase I partition price,
    /// and the pricing platform.
    ///
    /// # Panics
    /// Panics if `load_prefix` does not have one entry per curve row.
    #[must_use]
    pub fn new(
        curves: &'a RowCurves,
        load_prefix: &'a [u64],
        partition: SimTime,
        platform: &'a Platform,
    ) -> Self {
        assert_eq!(
            load_prefix.len(),
            curves.rows(),
            "load prefix must have one entry per row"
        );
        SpmmCostCurve {
            curves,
            load_prefix,
            partition,
            platform,
        }
    }
}

impl CurveEval for SpmmCostCurve<'_> {
    fn splits(&self) -> usize {
        self.curves.rows() + 1
    }

    fn split_for(&self, t: f64) -> usize {
        split_row_for_load(self.load_prefix, t)
    }

    /// Results concatenate, so there is no merge.
    fn report_at(&self, split: usize) -> RunReport {
        two_way_report(self, split, SimTime::ZERO)
    }

    fn platform(&self) -> &Platform {
        self.platform
    }

    /// What the row band `lo..hi` does on any device, every counter an
    /// O(1) curve lookup: the band's SpGEMM counters, its `A` rows plus
    /// all of `B` shipped in, and its `C` rows shipped out. `B` ships
    /// whole because reachable rows are not known in advance, as in real
    /// implementations. An empty band ships nothing, not even `B`.
    fn band_work(&self, _kind: DeviceKind, lo: usize, hi: usize) -> Option<BandWork> {
        let rows = (hi - lo) as u64;
        let bytes_in = if rows == 0 {
            0
        } else {
            self.curves.a_nnz().range_sum(lo, hi) * ENTRY_BYTES + 8 * rows + self.curves.b_bytes()
        };
        Some(BandWork {
            stats: self.curves.stats_range(lo, hi),
            bytes_in,
            bytes_out: self.curves.c_nnz().range_sum(lo, hi) * ENTRY_BYTES,
        })
    }

    fn partition_overhead(&self) -> SimTime {
        self.partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::ops::load_vector;
    use crate::spgemm::row_profile;
    use nbwp_sim::{DeviceSet, Link, Partition, PcieModel};

    #[test]
    fn split_map_is_monotone_and_totals_are_finite() {
        let a = gen::power_law(300, 8, 2.2, 5);
        let costs = row_profile(&a, &a);
        let curves = RowCurves::new(&costs, a.size_bytes());
        // The b_entries curve *is* the inclusive load prefix (minus its
        // leading 0 sentinel) — no collected load vector needed.
        let prefix = &curves.b_entries().as_prefix_slice()[1..];
        let platform = Platform::k40c_xeon_e5_2650();
        let curve = SpmmCostCurve::new(&curves, prefix, SimTime::from_millis(1.0), &platform);
        let mut last = 0usize;
        for pct in 0..=100 {
            let s = curve.split_for(pct as f64);
            assert!(s >= last, "split map must be monotone");
            assert!(s < curve.splits());
            last = s;
        }
        assert!(curve.total_at(0) > SimTime::ZERO);
        // Sanity: the load vector really drives the split.
        let lv: u64 = load_vector(&a, &a).iter().sum();
        assert_eq!(prefix.last().copied().unwrap(), lv);
    }

    #[test]
    fn subgradient_signs_bracket_the_argmin() {
        let a = gen::uniform_random(200, 6, 9);
        let costs = row_profile(&a, &a);
        let curves = RowCurves::new(&costs, a.size_bytes());
        let prefix = &curves.b_entries().as_prefix_slice()[1..];
        let platform = Platform::k40c_xeon_e5_2650();
        let curve = SpmmCostCurve::new(&curves, prefix, SimTime::ZERO, &platform);
        // Interior argmin over all splits (skip the all-CPU transfer cliff).
        let best = (1..curves.rows())
            .min_by(|&x, &y| curve.total_at(x).cmp(&curve.total_at(y)))
            .expect("non-empty");
        // One-sided differences of adjacent totals are the subgradients.
        let total = |s: usize| curve.total_at(s).as_secs();
        if best > 1 {
            assert!(total(best) - total(best - 1) <= 0.0);
        }
        if best + 2 < curve.splits() {
            assert!(total(best + 1) - total(best) >= 0.0);
        }
    }

    #[test]
    fn canonical_two_way_partition_is_bitwise_the_scalar_total() {
        let a = gen::power_law(300, 8, 2.2, 11);
        let costs = row_profile(&a, &a);
        let curves = RowCurves::new(&costs, a.size_bytes());
        let prefix = &curves.b_entries().as_prefix_slice()[1..];
        let platform = Platform::k40c_xeon_e5_2650();
        let curve = SpmmCostCurve::new(&curves, prefix, SimTime::from_millis(1.0), &platform);
        let set = DeviceSet::cpu_gpu();
        // Every split, including both empty bands and warp boundaries.
        for split in 0..curve.splits() {
            let p = Partition::two_way(curves.rows(), split);
            assert_eq!(
                curve.partition_total(&set, &p).expect("band-priceable"),
                curve.total_at(split),
                "split {split}"
            );
        }
    }

    #[test]
    fn kway_bands_price_like_standalone_slices() {
        let a = gen::power_law(250, 7, 2.0, 3);
        let costs = row_profile(&a, &a);
        let curves = RowCurves::new(&costs, a.size_bytes());
        let prefix = &curves.b_entries().as_prefix_slice()[1..];
        let platform = Platform::k40c_xeon_e5_2650();
        let curve = SpmmCostCurve::new(&curves, prefix, SimTime::ZERO, &platform);
        let set = DeviceSet::dual_cpu_dual_gpu();
        // Cuts include an empty band and a warp-boundary (multiple of 32).
        let p = Partition::new(curves.rows(), vec![64, 64, 150]);
        let total = curve.partition_total(&set, &p).expect("band-priceable");
        // Recompute by hand from the device bands.
        let bands: Vec<SimTime> = set
            .devices()
            .iter()
            .zip(p.bands())
            .map(|(d, (lo, hi))| curve.device_band(d, lo, hi).expect("priceable"))
            .collect();
        let slowest = bands.iter().copied().fold(SimTime::ZERO, SimTime::max);
        assert_eq!(total, curve.partition_overhead() + slowest);
        // The empty CPU band costs nothing; the empty-GPU case keeps the
        // no-transfer special case.
        assert_eq!(bands[1], SimTime::ZERO);
        let empty_gpu = curve
            .device_band(&set.devices()[2], 10, 10)
            .expect("priceable");
        assert_eq!(empty_gpu, SimTime::ZERO);
    }

    #[test]
    fn slow_links_surcharge_gpu_bands() {
        let a = gen::uniform_random(200, 6, 9);
        let costs = row_profile(&a, &a);
        let curves = RowCurves::new(&costs, a.size_bytes());
        let prefix = &curves.b_entries().as_prefix_slice()[1..];
        let platform = Platform::k40c_xeon_e5_2650();
        let curve = SpmmCostCurve::new(&curves, prefix, SimTime::ZERO, &platform);
        let fast = nbwp_sim::Device::gpu();
        let slow = nbwp_sim::Device::gpu().with_link(Link::Pcie(PcieModel::nic_10g()));
        let f = curve.device_band(&fast, 50, 150).expect("priceable");
        let s = curve.device_band(&slow, 50, 150).expect("priceable");
        assert!(s > f, "NIC-attached GPU must pay more for the same band");
    }
}
