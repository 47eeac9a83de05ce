//! The partitioning framework of §II: the traits a heterogeneous workload
//! implements so the Sample → Identify → Extrapolate pipeline (and every
//! baseline) can drive it.

use nbwp_sim::{Platform, RunReport, SimTime};
use rand::rngs::SmallRng;

use crate::profile::Profilable;

/// The threshold search domain of a workload.
///
/// For CC / spmm / dense GEMM the threshold is the CPU work share in
/// percent (`0..=100`, linear). For HH-CPU it is a row-density threshold
/// (`1..=max_degree`, searched on a logarithmic ladder).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ThresholdSpace {
    /// Smallest admissible threshold.
    pub lo: f64,
    /// Largest admissible threshold.
    pub hi: f64,
    /// Coarse search stride (the paper uses 8 percentage points for CC).
    pub coarse_step: f64,
    /// Fine search stride (the paper uses 1 percentage point).
    pub fine_step: f64,
    /// Search on a logarithmic ladder instead of a linear grid (used for
    /// the HH degree threshold, which spans orders of magnitude).
    pub logarithmic: bool,
}

impl ThresholdSpace {
    /// The percentage space `0..=100` with the paper's 8 → 1 strides.
    #[must_use]
    pub fn percentage() -> Self {
        ThresholdSpace {
            lo: 0.0,
            hi: 100.0,
            coarse_step: 8.0,
            fine_step: 1.0,
            logarithmic: false,
        }
    }

    /// A degree-threshold space `lo..=hi` searched logarithmically.
    #[must_use]
    pub fn degrees(lo: f64, hi: f64) -> Self {
        ThresholdSpace {
            lo,
            hi: hi.max(lo),
            coarse_step: 2.0_f64.sqrt(), // multiplicative stride
            fine_step: 1.05,
            logarithmic: true,
        }
    }

    /// Clamps a candidate threshold into the space.
    #[must_use]
    pub fn clamp(&self, t: f64) -> f64 {
        t.clamp(self.lo, self.hi)
    }

    /// Grid step of the exhaustive reference search Table I measures
    /// against: one point on a linear space, ×1.15 on a logarithmic one.
    #[must_use]
    pub fn reference_step(&self) -> f64 {
        if self.logarithmic {
            1.15
        } else {
            1.0
        }
    }

    /// Paper metric: how far `t` is from `reference` — absolute points on
    /// a linear space, the share of the log axis (in %, at most 100) on a
    /// logarithmic one.
    #[must_use]
    pub fn diff_pct(&self, t: f64, reference: f64) -> f64 {
        if self.logarithmic {
            let lo = self.lo.max(1e-9);
            let hi = self.hi.max(lo * (1.0 + 1e-9));
            let axis = (hi / lo).ln();
            let d = (t.max(lo) / reference.max(lo)).ln().abs();
            (d / axis * 100.0).min(100.0)
        } else {
            (t - reference).abs()
        }
    }

    /// The full candidate grid at `step` granularity: additive on a linear
    /// space, multiplicative on a logarithmic one (from `max(lo, 1e-9)`),
    /// always including the upper bound.
    ///
    /// # Panics
    /// Panics if `step` is not positive, or not above 1 on a logarithmic
    /// space.
    #[must_use]
    pub(crate) fn grid(&self, step: f64) -> Vec<f64> {
        let from = if self.logarithmic {
            self.lo.max(1e-9)
        } else {
            self.lo
        };
        self.ladder(from, self.hi, step)
    }

    /// The coarse candidate grid: linear strides of `coarse_step`, or a
    /// geometric ladder from `max(lo, 1e-9)` when `logarithmic`, always
    /// including the upper bound.
    #[must_use]
    pub fn coarse_grid(&self) -> Vec<f64> {
        self.grid(self.coarse_step)
    }

    /// The fine grid surrounding `center`: one coarse stride on each side
    /// (clamped into the space), stepped by `fine_step` (additively or
    /// multiplicatively).
    #[must_use]
    pub fn fine_grid(&self, center: f64) -> Vec<f64> {
        let (lo, hi) = if self.logarithmic {
            (center / self.coarse_step, center * self.coarse_step)
        } else {
            (center - self.coarse_step, center + self.coarse_step)
        };
        self.ladder(self.clamp(lo), self.clamp(hi), self.fine_step)
    }

    /// The one threshold ladder: `from`, then repeated steps (`× step` on
    /// a logarithmic space, `+ step` on a linear one) while below `to`,
    /// then `to` itself.
    fn ladder(&self, from: f64, to: f64, step: f64) -> Vec<f64> {
        assert!(step > 0.0, "step must be positive");
        assert!(
            !self.logarithmic || step > 1.0,
            "logarithmic spaces need a multiplicative step > 1"
        );
        let mut grid = Vec::new();
        let mut t = from;
        while t < to {
            grid.push(t);
            if self.logarithmic {
                t *= step;
            } else {
                t += step;
            }
        }
        grid.push(to);
        grid
    }
}

/// A heterogeneous algorithm whose work split is controlled by a scalar
/// threshold — the object of the paper's study.
///
/// `Sync` is a supertrait because candidate-threshold evaluations are
/// embarrassingly parallel: the search strategies dispatch [`Self::run`]
/// calls across the `nbwp-par` worker pool, sharing `&self` between
/// workers. Workloads are plain immutable data (matrices, graphs,
/// profiles), so this costs implementors nothing.
pub trait PartitionedWorkload: Sync {
    /// Executes (or exactly prices) one heterogeneous run at threshold `t`
    /// and reports its simulated timing.
    fn run(&self, t: f64) -> RunReport;

    /// The threshold search domain.
    fn space(&self) -> ThresholdSpace;

    /// Problem size indicator (rows / vertices), used for reporting.
    fn size(&self) -> usize;

    /// The platform this workload is priced on.
    fn platform(&self) -> &Platform;

    /// Convenience: total simulated time at `t`.
    fn time_at(&self, t: f64) -> SimTime {
        self.run(t).total()
    }
}

/// Sample-size specification: a multiplier on the workload's default sample
/// size (`1.0` = the paper's choice: √n vertices for CC, `n/4` rows for
/// spmm, √n rows for scale-free spmm). The sensitivity studies of
/// Figs. 4/6/9 sweep this factor.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SampleSpec {
    /// Multiplier on the default sample size.
    pub factor: f64,
}

impl Default for SampleSpec {
    fn default() -> Self {
        SampleSpec { factor: 1.0 }
    }
}

impl SampleSpec {
    /// A scaled spec.
    #[must_use]
    pub fn scaled(factor: f64) -> Self {
        assert!(factor > 0.0, "sample factor must be positive");
        SampleSpec { factor }
    }
}

/// A workload that supports Step 1 (Sample) and Step 3 (Extrapolate) of the
/// framework. It and its miniature are [`Profilable`], so every step of
/// the pipeline can price through a cost profile.
pub trait Sampleable: Profilable {
    /// The miniature workload type produced by sampling.
    type Sample: Profilable;

    /// Step 1: builds the miniature input (uniform randomization comes from
    /// `rng`; the construction cost is charged separately by the estimator).
    fn sample(&self, spec: SampleSpec, rng: &mut SmallRng) -> Self::Sample;

    /// Step 3: maps a threshold found on the sample back to the original
    /// input (identity for CC/spmm; degree-quantile matching — the paper's
    /// fitted `t ↦ t²` on Pareto tails — for scale-free spmm). The sample
    /// is provided so distribution-matching extrapolators can compare the
    /// two inputs.
    fn extrapolate(&self, t_sample: f64, sample: &Self::Sample) -> f64;

    /// Simulated cost of *constructing* the sample (typically one streaming
    /// pass over the input on the host).
    fn sampling_cost(&self) -> SimTime;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentage_space_grids() {
        let s = ThresholdSpace::percentage();
        let coarse = s.coarse_grid();
        assert_eq!(coarse.first(), Some(&0.0));
        assert_eq!(coarse.last(), Some(&100.0));
        // 0, 8, 16, …, 96, 100 → 14 candidates.
        assert_eq!(coarse.len(), 14);
        let fine = s.fine_grid(48.0);
        assert_eq!(fine.first(), Some(&40.0));
        assert_eq!(fine.last(), Some(&56.0));
        assert!(fine.len() >= 16);
    }

    #[test]
    fn fine_grid_clamps_at_boundaries() {
        let s = ThresholdSpace::percentage();
        let fine = s.fine_grid(2.0);
        assert_eq!(fine.first(), Some(&0.0));
        assert_eq!(fine.last(), Some(&10.0));
        let fine = s.fine_grid(100.0);
        assert_eq!(fine.last(), Some(&100.0));
    }

    #[test]
    fn degree_space_is_geometric() {
        let s = ThresholdSpace::degrees(1.0, 1000.0);
        let grid = s.coarse_grid();
        assert_eq!(grid.first(), Some(&1.0));
        assert_eq!(*grid.last().unwrap(), 1000.0);
        // Geometric with ratio √2: ~20 points to span 3 decades.
        assert!(grid.len() < 25, "grid len = {}", grid.len());
        for w in grid.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn clamp_behaviour() {
        let s = ThresholdSpace::percentage();
        assert_eq!(s.clamp(-5.0), 0.0);
        assert_eq!(s.clamp(105.0), 100.0);
        assert_eq!(s.clamp(42.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sample_spec_validated() {
        let _ = SampleSpec::scaled(0.0);
    }
}
