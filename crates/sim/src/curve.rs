//! [`CurveEval`]: the total-cost curve of a partitioned run as a
//! first-class object.
//!
//! A cost profile (see [`crate::profile`]) prices any contiguous split of a
//! workload from prefix-sum range queries. That makes the run's report as
//! a function of the split index an *evaluable curve* rather than an
//! oracle: exact values at every split. Because the underlying counters
//! are exact `u64` range sums ([`PrefixCurve`] / [`WarpPadCurve`] reproduce
//! every slice bitwise, including at warp-pad breakpoints), the difference
//! of two adjacent [`CurveEval::total_at`] values is the curve's true slope
//! between those splits, not an approximation of it.
//!
//! Search layers build on this to replace finite-difference probing of
//! `run()` with sign-change bisection on those differences — see
//! `Strategy::Analytic` in `nbwp-core::search`.
//!
//! [`PrefixCurve`]: crate::profile::PrefixCurve
//! [`WarpPadCurve`]: crate::profile::WarpPadCurve

use crate::device::{Device, DeviceKind, DeviceSet, Partition};
use crate::platform::{BandWork, Platform, RunReport};
use crate::time::SimTime;

/// Evaluates the cost of a partitioned workload at any admissible split
/// index.
///
/// Splits index the boundary between the CPU prefix and the GPU suffix:
/// split `s` assigns units `0..s` to the CPU and `s..n` to the GPU, so a
/// workload with `n` units has `n + 1` admissible splits. Thresholds from
/// the search space map onto splits via [`CurveEval::split_for`]; the map
/// must be monotone non-decreasing in `t`.
///
/// [`CurveEval::report_at`] is the curve's one required price, and the
/// exactness contract is stated on it alone: `report_at(split_for(t))` is
/// bitwise equal to the full report a direct run at `t` produces, every
/// counter and every lane. Totals, band prices and partition totals are
/// all derived from it or from the same [`BandWork`]s it is composed of.
pub trait CurveEval {
    /// Number of admissible split indices (`n + 1` for `n` work units).
    fn splits(&self) -> usize;

    /// Maps a threshold from the workload's search space to the split it
    /// induces. Monotone non-decreasing in `t`. Panics where a direct run
    /// at `t` panics (a threshold outside the space, or NaN).
    fn split_for(&self, t: f64) -> usize;

    /// The exact report of the run at `split`. A band-priced curve
    /// composes it with [`two_way_report`].
    ///
    /// # Panics
    /// Panics if `split >= self.splits()`.
    fn report_at(&self, split: usize) -> RunReport;

    /// The platform the curve prices on.
    fn platform(&self) -> &Platform;

    /// Exact total cost of the run at `split`: `report_at(split).total()`.
    ///
    /// # Panics
    /// Panics if `split >= self.splits()`.
    fn total_at(&self, split: usize) -> SimTime {
        self.report_at(split).total()
    }

    // ------------------------------------------------------------------
    // k-way extension: per-device band pricing.
    //
    // A curve that knows what an arbitrary contiguous band `lo..hi` does
    // on each device class can price a whole k-way Partition. The
    // defaults make the extension opt-in: curves that only price the
    // scalar two-device split keep working, and `partition_total` simply
    // returns `None` for them.
    // ------------------------------------------------------------------

    /// What the contiguous band `lo..hi` does on a `kind`-class device:
    /// its kernel counters and link bytes, before any pricing. `None`
    /// when the curve does not support per-device band pricing (the
    /// default).
    fn band_work(&self, _kind: DeviceKind, _lo: usize, _hi: usize) -> Option<BandWork> {
        None
    }

    /// Exact cost of running the contiguous band `lo..hi` on `device`,
    /// *including* that device's host-link transfers: the band's
    /// [`CurveEval::band_work`] priced by [`BandWork::time_on`]. For the
    /// canonical two-device set, the CPU band `0..s` prices bitwise equal
    /// to the scalar report's CPU lane at split `s`, and the GPU band
    /// `s..n` to its transfer-in + compute + transfer-out side, because
    /// [`two_way_report`] composes that report from the same works.
    fn device_band(&self, device: &Device, lo: usize, hi: usize) -> Option<SimTime> {
        Some(
            self.band_work(device.kind, lo, hi)?
                .time_on(device, self.platform()),
        )
    }

    /// Bounds `(lower, upper)` on [`CurveEval::device_band`] for the band
    /// `lo..hi` on `device`: whenever the band is priceable,
    /// `lower ≤ device_band(device, lo, hi)`, and `≤ upper` when `upper`
    /// is `Some`. A bound is meant to cost far less than the price it
    /// brackets; a search prices a band only when its exact price can
    /// change the comparison at hand, so a sound bound changes no answer,
    /// only the work. The default `(SimTime::ZERO, None)` is always sound
    /// and lets a search skip nothing.
    fn device_band_bounds(
        &self,
        _device: &Device,
        _lo: usize,
        _hi: usize,
    ) -> (SimTime, Option<SimTime>) {
        (SimTime::ZERO, None)
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
}

/// The split a CPU share of `t_pct` percent induces on `units` units (rows,
/// vertices, elements, splitters): `round(units · t_pct / 100)`.
///
/// # Panics
/// Panics if `t_pct ∉ [0, 100]` (NaN included).
#[inline]
#[must_use]
pub fn percent_split(units: usize, t_pct: f64) -> usize {
    assert!(
        (0.0..=100.0).contains(&t_pct),
        "threshold {t_pct} out of [0, 100]"
    );
    ((units as f64 * t_pct / 100.0).round() as usize).min(units)
}

/// The scalar report of a band-priced curve at `split`, composed once for
/// every such curve: [`RunReport::two_way`] over the `0..split` CPU band's
/// counters, the `split..n` GPU band, the curve's
/// [`CurveEval::partition_overhead`], and the caller's two-way `merge`
/// (the curve's [`CurveEval::merge_cost`] at the canonical pair, computed
/// without building a [`Partition`]).
///
/// # Panics
/// Panics if `split >= curve.splits()` or the curve does not price bands.
#[must_use]
pub fn two_way_report<C: CurveEval + ?Sized>(curve: &C, split: usize, merge: SimTime) -> RunReport {
    let units = curve.splits() - 1;
    assert!(split <= units, "split {split} exceeds {units} units");
    let band = |kind, lo, hi| {
        curve
            .band_work(kind, lo, hi)
            .expect("a two-way report needs a band-priced curve")
    };
    RunReport::two_way(
        curve.platform(),
        curve.partition_overhead(),
        band(DeviceKind::Cpu, 0, split).stats,
        band(DeviceKind::Gpu, split, units),
        merge,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::RunBreakdown;

    fn platform() -> &'static Platform {
        static P: std::sync::OnceLock<Platform> = std::sync::OnceLock::new();
        P.get_or_init(Platform::k40c_xeon_e5_2650)
    }

    /// A report whose total is `partition + max(cpu, gpu)`.
    fn report(partition: f64, cpu: f64, gpu: f64) -> RunReport {
        RunReport {
            breakdown: RunBreakdown {
                partition: SimTime::from_secs(partition),
                cpu_compute: SimTime::from_secs(cpu),
                gpu_compute: SimTime::from_secs(gpu),
                ..RunBreakdown::default()
            },
            ..RunReport::default()
        }
    }

    /// Quadratic valley with its minimum at split 5.
    struct Valley;

    impl CurveEval for Valley {
        fn splits(&self) -> usize {
            11
        }
        fn split_for(&self, t: f64) -> usize {
            (t.clamp(0.0, 10.0).round()) as usize
        }
        fn report_at(&self, split: usize) -> RunReport {
            assert!(split < self.splits());
            let d = split as f64 - 5.0;
            report(0.0, 1.0 + d * d, 0.0)
        }
        fn platform(&self) -> &Platform {
            platform()
        }
    }

    #[test]
    fn scalar_only_curves_decline_partition_pricing() {
        let c = Valley;
        let set = DeviceSet::cpu_gpu();
        let p = Partition::two_way(10, 5);
        assert_eq!(c.total_at(7), SimTime::from_secs(5.0));
        assert_eq!(c.band_work(DeviceKind::Cpu, 0, 5), None);
        assert_eq!(c.device_band(&set.devices()[0], 0, 5), None);
        assert_eq!(
            c.device_band_bounds(&set.devices()[0], 0, 5),
            (SimTime::ZERO, None)
        );
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
        fn report_at(&self, split: usize) -> RunReport {
            // Scalar view: CPU prefix vs GPU suffix at speed 1.
            report(0.5, split as f64, (10 - split) as f64)
        }
        fn platform(&self) -> &Platform {
            platform()
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
