//! [`CurveEval`]: the total-cost curve of a partitioned run as a
//! first-class, subdifferentiable object.
//!
//! A cost profile (see [`crate::profile`]) prices any contiguous split of a
//! workload in O(1) from prefix-sum range queries. That makes the total
//! cost as a function of the split index an *evaluable curve* rather than
//! an oracle: exact values at every split, and therefore exact one-sided
//! finite differences — the discrete left/right subgradients. Because the
//! underlying counters are exact `u64` range sums ([`PrefixCurve`] /
//! [`WarpPadCurve`] reproduce every slice bitwise, including at warp-pad
//! breakpoints), the subgradients returned here are not approximations of
//! anything: they *are* the curve's slopes between adjacent admissible
//! splits.
//!
//! Search layers build on this to replace finite-difference probing of
//! `run()` with sign-change bisection on the true subgradient — see
//! `Strategy::Analytic` in `nbwp-core::search`.
//!
//! [`PrefixCurve`]: crate::profile::PrefixCurve
//! [`WarpPadCurve`]: crate::profile::WarpPadCurve

use crate::device::{Device, DeviceSet, Partition};
use crate::time::SimTime;

/// Evaluates the total-cost curve of a partitioned workload at any
/// admissible split index, with exact one-sided subgradients.
///
/// Splits index the boundary between the CPU prefix and the GPU suffix:
/// split `s` assigns units `0..s` to the CPU and `s..n` to the GPU, so a
/// workload with `n` units has `n + 1` admissible splits. Thresholds from
/// the search space map onto splits via [`CurveEval::split_for`]; the map
/// must be monotone non-decreasing in `t`.
///
/// The exactness contract mirrors the profile contract: `total_at(s)` must
/// be bitwise equal to the total of the report a direct run would produce
/// for any threshold mapping to split `s`.
pub trait CurveEval {
    /// Number of admissible split indices (`n + 1` for `n` work units).
    fn splits(&self) -> usize;

    /// Maps a threshold from the workload's search space to the split it
    /// induces. Monotone non-decreasing in `t`.
    fn split_for(&self, t: f64) -> usize;

    /// Exact total cost of the run at `split`.
    ///
    /// # Panics
    /// Panics if `split >= self.splits()`.
    fn total_at(&self, split: usize) -> SimTime;

    /// Left subgradient at `split` in seconds per split step:
    /// `total(split) - total(split - 1)`. `None` at the left boundary.
    fn grad_left(&self, split: usize) -> Option<f64> {
        if split == 0 {
            return None;
        }
        Some(self.total_at(split).as_secs() - self.total_at(split - 1).as_secs())
    }

    /// Right subgradient at `split` in seconds per split step:
    /// `total(split + 1) - total(split)`. `None` at the right boundary.
    fn grad_right(&self, split: usize) -> Option<f64> {
        if split + 1 >= self.splits() {
            return None;
        }
        Some(self.total_at(split + 1).as_secs() - self.total_at(split).as_secs())
    }

    // ------------------------------------------------------------------
    // k-way extension: per-device band pricing.
    //
    // A curve that also knows how to price an arbitrary contiguous band
    // `lo..hi` on a given device can price a whole k-way Partition. The
    // default implementations make the extension opt-in: curves that only
    // support the scalar two-device split (splits/total_at) keep working
    // unchanged, and `partition_total` simply returns `None` for them.
    // ------------------------------------------------------------------

    /// Exact cost of running the contiguous band `lo..hi` on `device`,
    /// *including* that device's host-link transfers. `None` when the
    /// curve does not support per-device band pricing (the default).
    ///
    /// Exactness contract: for the canonical two-device set, the CPU band
    /// `0..s` must price bitwise equal to the scalar report's CPU lane at
    /// split `s`, and the GPU band `s..n` bitwise equal to its
    /// transfer-in + compute + transfer-out side.
    fn device_band(&self, _device: &Device, _lo: usize, _hi: usize) -> Option<SimTime> {
        None
    }

    /// Partition-phase overhead charged once per run regardless of the
    /// cut vector (the scalar report's `partition` lane). Defaults to
    /// zero for workloads without a partitioning phase.
    fn partition_overhead(&self) -> SimTime {
        SimTime::ZERO
    }

    /// Cost of merging the per-band results (the scalar report's `merge`
    /// lane, generalized over the interior cuts). Defaults to zero for
    /// workloads whose bands concatenate for free.
    fn merge_cost(&self, _set: &DeviceSet, _p: &Partition) -> SimTime {
        SimTime::ZERO
    }

    /// Exact total cost of executing partition `p` on `set`: the bands
    /// run concurrently, so the run takes the slowest band, plus the
    /// partition overhead and the merge. `None` if any band is
    /// unpriceable on its device.
    ///
    /// The composition order replicates `RunBreakdown::total` exactly
    /// (`partition + overlap(...) + merge`, left-associated), so for the
    /// canonical two-device set this is bitwise equal to the scalar
    /// `total_at` at the same cut.
    ///
    /// # Panics
    /// Panics if the partition's unit count or arity disagrees with the
    /// curve or the device set.
    fn partition_total(&self, set: &DeviceSet, p: &Partition) -> Option<SimTime> {
        assert_eq!(
            p.units() + 1,
            self.splits(),
            "partition unit count must match the curve"
        );
        assert_eq!(
            p.arity(),
            set.len(),
            "partition arity must match the device set"
        );
        let mut slowest = SimTime::ZERO;
        for (device, (lo, hi)) in set.devices().iter().zip(p.bands()) {
            slowest = slowest.max(self.device_band(device, lo, hi)?);
        }
        Some(self.partition_overhead() + slowest + self.merge_cost(set, p))
    }

    /// Per-device left marginal: cost change from giving up the band's
    /// last unit, `band(lo, hi) - band(lo, hi - 1)` in seconds. `None`
    /// when the band is empty or unpriceable.
    fn band_grad_left(&self, device: &Device, lo: usize, hi: usize) -> Option<f64> {
        if hi <= lo {
            return None;
        }
        Some(
            self.device_band(device, lo, hi)?.as_secs()
                - self.device_band(device, lo, hi - 1)?.as_secs(),
        )
    }

    /// Per-device right marginal: cost of taking one more unit,
    /// `band(lo, hi + 1) - band(lo, hi)` in seconds. `None` when the band
    /// already reaches the domain end or is unpriceable.
    fn band_grad_right(&self, device: &Device, lo: usize, hi: usize) -> Option<f64> {
        if hi + 1 >= self.splits() {
            return None;
        }
        Some(
            self.device_band(device, lo, hi + 1)?.as_secs()
                - self.device_band(device, lo, hi)?.as_secs(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic valley with its minimum at split 5.
    struct Valley;

    impl CurveEval for Valley {
        fn splits(&self) -> usize {
            11
        }
        fn split_for(&self, t: f64) -> usize {
            (t.clamp(0.0, 10.0).round()) as usize
        }
        fn total_at(&self, split: usize) -> SimTime {
            assert!(split < self.splits());
            let d = split as f64 - 5.0;
            SimTime::from_secs(1.0 + d * d)
        }
    }

    #[test]
    fn subgradients_are_adjacent_differences() {
        let c = Valley;
        // total(3) = 5, total(4) = 2 -> grad_left(4) = -3.
        assert_eq!(c.grad_left(4), Some(-3.0));
        // total(5) = 1, total(6) = 2 -> grad_right(5) = 1.
        assert_eq!(c.grad_right(5), Some(1.0));
        // Sign change brackets the minimum.
        assert!(c.grad_left(5).expect("interior") < 0.0);
        assert!(c.grad_right(5).expect("interior") > 0.0);
    }

    #[test]
    fn boundaries_have_no_one_sided_gradient() {
        let c = Valley;
        assert_eq!(c.grad_left(0), None);
        assert_eq!(c.grad_right(10), None);
        assert!(c.grad_right(0).is_some());
        assert!(c.grad_left(10).is_some());
    }

    #[test]
    fn scalar_only_curves_decline_partition_pricing() {
        let c = Valley;
        let set = DeviceSet::cpu_gpu();
        let p = Partition::two_way(10, 5);
        assert_eq!(c.device_band(&set.devices()[0], 0, 5), None);
        assert_eq!(c.partition_total(&set, &p), None);
        assert_eq!(c.partition_overhead(), SimTime::ZERO);
        assert_eq!(c.merge_cost(&set, &p), SimTime::ZERO);
    }

    /// Band-priceable synthetic curve: each unit costs 1 s of work,
    /// scaled by device speed, with a fixed per-run overhead of 0.5 s.
    struct LinearBands;

    impl CurveEval for LinearBands {
        fn splits(&self) -> usize {
            11
        }
        fn split_for(&self, t: f64) -> usize {
            (t.clamp(0.0, 10.0).round()) as usize
        }
        fn total_at(&self, split: usize) -> SimTime {
            // Scalar view: CPU prefix vs GPU suffix at speed 1.
            let cpu = split as f64;
            let gpu = (10 - split) as f64;
            SimTime::from_secs(0.5) + SimTime::from_secs(cpu.max(gpu))
        }
        fn device_band(&self, device: &Device, lo: usize, hi: usize) -> Option<SimTime> {
            Some(device.scale(SimTime::from_secs((hi - lo) as f64)))
        }
        fn partition_overhead(&self) -> SimTime {
            SimTime::from_secs(0.5)
        }
    }

    #[test]
    fn partition_total_takes_the_slowest_band_plus_overhead() {
        let c = LinearBands;
        let set = DeviceSet::cpu_gpu();
        // Balanced cut: both bands take 5 s, total 5.5 s — and matches
        // the scalar view bitwise at the same cut.
        let p = Partition::two_way(10, 5);
        let total = c.partition_total(&set, &p).expect("priceable");
        assert_eq!(total, SimTime::from_secs(5.5));
        assert_eq!(total, c.total_at(5));
        // Skewed cut: slowest band dominates.
        let skew = Partition::two_way(10, 2);
        assert_eq!(
            c.partition_total(&set, &skew).expect("priceable"),
            SimTime::from_secs(8.5)
        );
    }

    #[test]
    fn faster_devices_shrink_their_band_cost() {
        let c = LinearBands;
        let fast = DeviceSet::new(
            "fast-gpu",
            vec![Device::cpu(), Device::gpu().with_speed(2.0)],
        );
        // GPU takes 8 units at speed 2 -> 4 s; CPU takes 2 units -> 2 s.
        let p = Partition::two_way(10, 2);
        assert_eq!(
            c.partition_total(&fast, &p).expect("priceable"),
            SimTime::from_secs(4.5)
        );
    }

    #[test]
    fn band_marginals_are_adjacent_band_differences() {
        let c = LinearBands;
        let cpu = Device::cpu();
        assert_eq!(c.band_grad_right(&cpu, 0, 4), Some(1.0));
        assert_eq!(c.band_grad_left(&cpu, 0, 4), Some(1.0));
        // Empty band has no left marginal; domain end has no right one.
        assert_eq!(c.band_grad_left(&cpu, 3, 3), None);
        assert_eq!(c.band_grad_right(&cpu, 0, 10), None);
        let half = Device::cpu().with_speed(0.5);
        assert_eq!(c.band_grad_right(&half, 0, 4), Some(2.0));
    }

    #[test]
    fn kway_partition_total_over_a_preset() {
        let c = LinearBands;
        let set = DeviceSet::dual_cpu_dual_gpu();
        let p = Partition::new(10, vec![3, 5, 8]);
        // Bands: 3 @1.0, 2 @0.5, 3 @1.0, 2 @0.75 -> 3, 4, 3, 2.666…;
        // slowest 4 s + 0.5 s overhead.
        let total = c.partition_total(&set, &p).expect("priceable");
        assert_eq!(total, SimTime::from_secs(4.5));
    }
}
