//! Step 3 ("Extrapolate") — mapping a sample threshold to the full input.
//!
//! The paper uses the identity map for CC and spmm (§III.A.3, §IV.A(c)) and
//! an offline best-fit relation `t_A = t_s × t_s` for scale-free spmm
//! (§V.A.3). [`fit_power`] implements that offline best-fit: given observed
//! `(t_sample, t_full)` pairs from a calibration corpus, it fits
//! `t_full = a · t_sample^b` by least squares in log space, from which the
//! paper's square law (`a ≈ 1`, `b ≈ 2`) emerges.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::framework::{SampleSpec, Sampleable};
use crate::search::{Searcher, Strategy};

/// A threshold extrapolation rule.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Extrapolator {
    /// `t ↦ t` — sample space equals input space (CC, spmm, dense).
    Identity,
    /// `t ↦ t²` — the paper's scale-free relation.
    Square,
    /// `t ↦ a·t^b` — fitted offline on a calibration corpus.
    Power {
        /// Multiplicative coefficient.
        a: f64,
        /// Exponent.
        b: f64,
    },
    /// Quantile matching on the row-degree distribution: the sample
    /// threshold is converted to the fraction of sampled rows it classifies
    /// as low-density, and the full-input threshold is the degree at the
    /// same fraction of the full distribution. This is the offline best-fit
    /// relation that holds across *all* degree distributions; on an ideal
    /// Pareto tail with a √n-row sample it reduces to the paper's
    /// `t_A = t_s × t_s` square law. Only meaningful for workloads that
    /// carry a degree distribution (scale-free spmm); applied by
    /// [`crate::workloads::HhWorkload`], not by [`Extrapolator::apply`].
    DegreeQuantile,
}

impl Extrapolator {
    /// Applies the rule.
    ///
    /// # Panics
    /// Panics for [`Extrapolator::DegreeQuantile`], which needs the degree
    /// distributions and is applied by the owning workload instead.
    #[must_use]
    pub fn apply(&self, t_sample: f64) -> f64 {
        match *self {
            Extrapolator::Identity => t_sample,
            Extrapolator::Square => t_sample * t_sample,
            Extrapolator::Power { a, b } => a * t_sample.powf(b),
            Extrapolator::DegreeQuantile => {
                panic!("DegreeQuantile needs distributions; use the workload's extrapolate")
            }
        }
    }
}

/// Fits `t_full = a · t_sample^b` by least squares in log space.
///
/// Returns `None` when fewer than two pairs with strictly positive values
/// are supplied, or when all sample thresholds are identical (the slope is
/// then undetermined).
#[must_use]
pub fn fit_power(pairs: &[(f64, f64)]) -> Option<Extrapolator> {
    let logs: Vec<(f64, f64)> = pairs
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let mx = logs.iter().map(|&(x, _)| x).sum::<f64>() / n;
    let my = logs.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    if sxx < 1e-12 {
        return None;
    }
    let sxy: f64 = logs.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let b = sxy / sxx;
    let a = (my - b * mx).exp();
    Some(Extrapolator::Power { a, b })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_square() {
        assert_eq!(Extrapolator::Identity.apply(17.0), 17.0);
        assert_eq!(Extrapolator::Square.apply(9.0), 81.0);
    }

    #[test]
    fn power_applies() {
        let p = Extrapolator::Power { a: 2.0, b: 1.5 };
        assert!((p.apply(4.0) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn fit_recovers_exact_square_law() {
        let pairs: Vec<(f64, f64)> = (2..20).map(|t| (f64::from(t), f64::from(t * t))).collect();
        let fit = fit_power(&pairs).unwrap();
        if let Extrapolator::Power { a, b } = fit {
            assert!((a - 1.0).abs() < 1e-9, "a = {a}");
            assert!((b - 2.0).abs() < 1e-9, "b = {b}");
        } else {
            panic!("expected Power");
        }
    }

    #[test]
    fn fit_recovers_noisy_power_law() {
        // y = 3 x^1.7 with ±5% multiplicative noise (deterministic).
        let pairs: Vec<(f64, f64)> = (1..40)
            .map(|i| {
                let x = f64::from(i);
                let noise = 1.0 + 0.05 * ((i * 7919 % 13) as f64 / 13.0 - 0.5);
                (x, 3.0 * x.powf(1.7) * noise)
            })
            .collect();
        if let Some(Extrapolator::Power { a, b }) = fit_power(&pairs) {
            assert!((b - 1.7).abs() < 0.05, "b = {b}");
            assert!((a - 3.0).abs() < 0.3, "a = {a}");
        } else {
            panic!("fit failed");
        }
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        assert!(fit_power(&[]).is_none());
        assert!(fit_power(&[(1.0, 2.0)]).is_none());
        assert!(
            fit_power(&[(5.0, 2.0), (5.0, 3.0)]).is_none(),
            "no x spread"
        );
        assert!(
            fit_power(&[(0.0, 2.0), (-1.0, 3.0)]).is_none(),
            "non-positive"
        );
    }
}

/// The paper's §V.A.3 offline calibration, literally: for each workload in
/// a (small, representative) corpus, find the best threshold on a default
/// sample and on the full input (exhaustively, on the reference grid of
/// [`ThresholdSpace::reference_step`](crate::framework::ThresholdSpace::reference_step)),
/// then fit `t_full = a · t_sample^b` over the collected pairs. Both
/// searches price through cost profiles.
///
/// Returns `None` when the corpus yields fewer than two usable pairs. On a
/// corpus of ideal scale-free inputs the fitted exponent approaches the
/// paper's `b = 2`.
#[must_use]
pub fn calibrate_extrapolator<W: Sampleable>(
    corpus: &[W],
    strategy: Strategy,
    seed: u64,
) -> Option<Extrapolator> {
    let mut pairs = Vec::with_capacity(corpus.len());
    for (k, w) in corpus.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(k as u64));
        let sample = w.sample(SampleSpec::default(), &mut rng);
        let sample_best = Searcher::new(strategy).profiled().run(&sample).best_t;
        let full_best = Searcher::new(Strategy::Exhaustive {
            step: Some(w.space().reference_step()),
        })
        .profiled()
        .run(w)
        .best_t;
        pairs.push((sample_best, full_best));
    }
    fit_power(&pairs)
}

#[cfg(test)]
mod calibration_tests {
    use super::*;
    use crate::framework::PartitionedWorkload;
    use crate::workloads::HhWorkload;
    use nbwp_sim::Platform;
    use nbwp_sparse::gen;

    #[test]
    fn offline_calibration_fits_a_sane_power_law_on_scale_free_corpus() {
        let platform = Platform::k40c_xeon_e5_2650().scaled_for(0.01);
        let corpus: Vec<HhWorkload> = [(4000usize, 1u64), (6000, 2), (8000, 3)]
            .iter()
            .map(|&(n, seed)| HhWorkload::new(gen::power_law(n, 10, 2.1, seed), platform))
            .collect();
        let fitted =
            calibrate_extrapolator(&corpus, Strategy::GradientDescent { max_evals: 18 }, 7);
        match fitted {
            Some(Extrapolator::Power { a, b }) => {
                assert!(a.is_finite() && a > 0.0, "a = {a}");
                assert!((-4.0..6.0).contains(&b), "exponent b = {b} implausible");
            }
            other => panic!("expected a power fit, got {other:?}"),
        }
        // The fitted rule must stay inside the threshold space when applied
        // to in-range sample thresholds.
        if let Some(rule) = fitted {
            let w = &corpus[0];
            for t in [1.0, 3.0, 9.0] {
                let mapped = w.space().clamp(rule.apply(t));
                assert!(mapped >= w.space().lo && mapped <= w.space().hi);
            }
        }
    }
}
