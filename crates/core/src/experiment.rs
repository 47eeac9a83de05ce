//! Experiment drivers: one row per dataset with every method's threshold
//! and time (Figs. 3/5/8), sample-size sensitivity sweeps (Figs. 4/6/9),
//! and Table I aggregation.

use nbwp_par::Pool;
use nbwp_sim::SimTime;
use nbwp_trace::Recorder;
use serde::{Deserialize, Serialize};

use crate::baselines;
use crate::estimator::{Estimator, IdentifyStrategy, SamplingEstimate};
use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable};
use crate::profile::{Profilable, ProfiledWorkload, Resampleable};
use crate::search::{Searcher, Strategy};

/// Configuration of one experiment run.
#[derive(Copy, Clone, Debug)]
pub struct ExperimentConfig {
    /// Identify strategy run on the sample.
    pub strategy: IdentifyStrategy,
    /// Sample-size multiplier (1.0 = the paper's default).
    pub spec: SampleSpec,
    /// RNG seed for Step 1.
    pub seed: u64,
    /// Grid step of the exhaustive reference search (percent for linear
    /// spaces, ratio for logarithmic ones).
    pub exhaustive_step: f64,
    /// Report the threshold difference relative to the exhaustive value
    /// (used for HH's degree thresholds) instead of in absolute points
    /// (used when thresholds are already percentages).
    pub relative_threshold_diff: bool,
}

impl ExperimentConfig {
    /// The paper's CC configuration: coarse-to-fine 8 → 1, √n sample.
    #[must_use]
    pub fn cc(seed: u64) -> Self {
        ExperimentConfig {
            strategy: IdentifyStrategy::CoarseToFine,
            spec: SampleSpec::default(),
            seed,
            exhaustive_step: 1.0,
            relative_threshold_diff: false,
        }
    }

    /// The paper's spmm configuration: race + fine search, n/4 sample.
    #[must_use]
    pub fn spmm(seed: u64) -> Self {
        ExperimentConfig {
            strategy: IdentifyStrategy::RaceThenFine,
            spec: SampleSpec::default(),
            seed,
            exhaustive_step: 1.0,
            relative_threshold_diff: false,
        }
    }

    /// The paper's scale-free configuration: gradient descent, √n rows,
    /// square-law extrapolation, log-space exhaustive reference.
    #[must_use]
    pub fn scalefree(seed: u64) -> Self {
        ExperimentConfig {
            strategy: IdentifyStrategy::GradientDescent { max_evals: 24 },
            spec: SampleSpec::default(),
            seed,
            exhaustive_step: 1.15,
            relative_threshold_diff: true,
        }
    }
}

/// One dataset's results across all methods — a row of Figs. 3/5/8.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentRow {
    /// Dataset name.
    pub dataset: String,
    /// Problem size (rows / vertices).
    pub n: usize,
    /// Best threshold from the exhaustive reference search.
    pub exhaustive_t: f64,
    /// Threshold estimated by the sampling method.
    pub estimated_t: f64,
    /// FLOPS-ratio threshold (`None` for degree-threshold workloads, where
    /// a FLOPS ratio has no direct reading).
    pub naive_static_t: Option<f64>,
    /// Corpus-average threshold (filled by [`fill_naive_average`]).
    pub naive_average_t: Option<f64>,
    /// Run time at the exhaustive threshold, ms.
    pub time_exhaustive_ms: f64,
    /// Run time at the estimated threshold, ms.
    pub time_estimated_ms: f64,
    /// Run time at the NaiveStatic threshold, ms.
    pub time_naive_static_ms: Option<f64>,
    /// Run time at the NaiveAverage threshold, ms.
    pub time_naive_average_ms: Option<f64>,
    /// Homogeneous GPU-only run time, ms (paper Fig. 3(b)'s "Naive").
    pub time_gpu_only_ms: f64,
    /// Estimation overhead (sample construction + identify runs), ms.
    pub overhead_ms: f64,
    /// Candidate evaluations the sampling method performed.
    pub evaluations: usize,
    /// Sample size used.
    pub sample_size: usize,
    /// Whether `threshold_diff_pct` is relative (see config).
    pub relative_threshold_diff: bool,
    /// Threshold-space bounds (used for the log-axis difference metric).
    pub space_lo: f64,
    /// See `space_lo`.
    pub space_hi: f64,
}

impl ExperimentRow {
    /// Paper metric: difference between estimated and exhaustive threshold —
    /// absolute points for percentage thresholds; for degree thresholds
    /// (searched on a log ladder) the distance along the log axis as a
    /// percentage of the axis length.
    #[must_use]
    pub fn threshold_diff_pct(&self) -> f64 {
        if self.relative_threshold_diff {
            let lo = self.space_lo.max(1e-9);
            let hi = self.space_hi.max(lo * (1.0 + 1e-9));
            let axis = (hi / lo).ln();
            let d = (self.estimated_t.max(lo) / self.exhaustive_t.max(lo))
                .ln()
                .abs();
            (d / axis * 100.0).min(100.0)
        } else {
            (self.estimated_t - self.exhaustive_t).abs()
        }
    }

    /// Paper metric: relative time penalty of using the estimated threshold.
    #[must_use]
    pub fn time_diff_pct(&self) -> f64 {
        if self.time_exhaustive_ms == 0.0 {
            return 0.0;
        }
        (self.time_estimated_ms - self.time_exhaustive_ms).abs() / self.time_exhaustive_ms * 100.0
    }

    /// Paper metric: estimation overhead as a share of the overall time
    /// (estimation + run at the estimated threshold).
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        let total = self.overhead_ms + self.time_estimated_ms;
        if total == 0.0 {
            0.0
        } else {
            self.overhead_ms / total * 100.0
        }
    }

    /// Speedup of the estimated-threshold hybrid over the GPU-only naive
    /// run.
    #[must_use]
    pub fn speedup_vs_gpu_only(&self) -> f64 {
        if self.time_estimated_ms == 0.0 {
            return 1.0;
        }
        self.time_gpu_only_ms / self.time_estimated_ms
    }
}

/// Runs the full method comparison for one dataset.
#[must_use]
pub fn run_one<W: Sampleable>(name: &str, w: &W, config: &ExperimentConfig) -> ExperimentRow {
    run_one_with(name, w, config, &Recorder::disabled())
}

/// [`run_one`], tracing the sampling estimate into `rec` and recording the
/// paper's quality metrics (`threshold.diff_pct`, `time.diff_pct`) as
/// gauges once the exhaustive reference is known.
#[must_use]
pub fn run_one_with<W: Sampleable>(
    name: &str,
    w: &W,
    config: &ExperimentConfig,
    rec: &Recorder,
) -> ExperimentRow {
    let exhaustive = Searcher::new(Strategy::Exhaustive {
        step: Some(config.exhaustive_step),
    })
    .run(w);
    let est: SamplingEstimate = Estimator::new(config.strategy.into())
        .spec(config.spec)
        .seed(config.seed)
        .recorder(rec)
        .run(w);
    let space = w.space();
    let naive_static_t = if space.logarithmic {
        None
    } else {
        Some(baselines::naive_static_for(w))
    };
    let row = ExperimentRow {
        dataset: name.to_string(),
        n: w.size(),
        exhaustive_t: exhaustive.best_t,
        estimated_t: est.threshold,
        naive_static_t,
        naive_average_t: None,
        time_exhaustive_ms: exhaustive.best_time.as_millis(),
        time_estimated_ms: w.time_at(est.threshold).as_millis(),
        time_naive_static_ms: naive_static_t.map(|t| w.time_at(t).as_millis()),
        time_naive_average_ms: None,
        time_gpu_only_ms: w.time_at(baselines::gpu_only(w)).as_millis(),
        overhead_ms: est.overhead.as_millis(),
        evaluations: est.evaluations,
        sample_size: est.sample_size,
        relative_threshold_diff: config.relative_threshold_diff,
        space_lo: space.lo,
        space_hi: space.hi,
    };
    rec.gauge_set("threshold.diff_pct", row.threshold_diff_pct());
    rec.gauge_set("time.diff_pct", row.time_diff_pct());
    row
}

/// Runs the full method comparison for every `(name, workload)` pair,
/// dispatching the independent datasets across the worker pool. Rows come
/// back in input order and are identical to serial [`run_one`] calls for
/// any `NBWP_THREADS` (simulated results never depend on the pool).
#[must_use]
pub fn run_corpus<S: AsRef<str> + Sync, W: Sampleable>(
    suite: &[(S, W)],
    config: &ExperimentConfig,
) -> Vec<ExperimentRow> {
    Pool::global().map(suite, |(name, w)| run_one(name.as_ref(), w, config))
}

/// Second pass for *NaiveAverage*: averages the exhaustive thresholds over
/// the corpus and re-prices every workload at that single threshold
/// (geometric mean on logarithmic spaces).
pub fn fill_naive_average<'w, W: PartitionedWorkload + 'w>(
    rows: &mut [ExperimentRow],
    workloads: impl IntoIterator<Item = &'w W>,
) {
    let workloads: Vec<&W> = workloads.into_iter().collect();
    assert_eq!(rows.len(), workloads.len(), "row/workload count mismatch");
    if rows.is_empty() {
        return;
    }
    let log_space = workloads[0].space().logarithmic;
    let avg = if log_space {
        let s: f64 = rows.iter().map(|r| r.exhaustive_t.max(1e-9).ln()).sum();
        (s / rows.len() as f64).exp()
    } else {
        baselines::naive_average(&rows.iter().map(|r| r.exhaustive_t).collect::<Vec<_>>())
    };
    for (row, w) in rows.iter_mut().zip(workloads) {
        let t = w.space().clamp(avg);
        row.naive_average_t = Some(t);
        row.time_naive_average_ms = Some(w.time_at(t).as_millis());
    }
}

/// One point of a sample-size sensitivity sweep (Figs. 4/6/9).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// Sample-size multiplier relative to the paper default.
    pub factor: f64,
    /// Actual sample size.
    pub sample_size: usize,
    /// Estimation time (Phase I with sampling), ms.
    pub estimation_ms: f64,
    /// Total time: estimation + run at the estimated threshold, ms.
    pub total_ms: f64,
    /// The threshold estimated at this sample size.
    pub estimated_t: f64,
}

/// Sweeps the sample-size factor and reports estimation / total times —
/// the concave trade-off curves of Figs. 4, 6 and 9. The factors are
/// independent configurations, so the sweep dispatches them across the
/// worker pool; points come back in factor order.
#[must_use]
pub fn sensitivity<W: Sampleable>(
    w: &W,
    factors: &[f64],
    strategy: IdentifyStrategy,
    seed: u64,
) -> Vec<SensitivityPoint> {
    Pool::global().map(factors, |&factor| {
        let est = Estimator::new(strategy.into())
            .spec(SampleSpec::scaled(factor))
            .seed(seed)
            .run(w);
        let run = w.time_at(est.threshold);
        SensitivityPoint {
            factor,
            sample_size: est.sample_size,
            estimation_ms: est.overhead.as_millis(),
            total_ms: (est.overhead + run).as_millis(),
            estimated_t: est.threshold,
        }
    })
}

/// [`sensitivity`] for [`Resampleable`] workloads: every factor's miniature
/// is *derived from one shared cost profile* of the full input instead of
/// re-sampling the raw input per factor, so the whole sweep performs
/// exactly one full profile build (`profile.builds == 1` in `rec`'s
/// metrics) plus one cheap subset pass per factor.
///
/// Each miniature's Identify search runs through its own (trivially cheap)
/// profile, so any [`Strategy`] — including [`Strategy::Analytic`] — is
/// admissible. Resampleable workloads extrapolate by identity (their
/// miniatures keep the full input's threshold semantics; see
/// [`Resampleable`]), so the estimated threshold is the miniature's best,
/// clamped to the space. The reported `estimation_ms` charges the same
/// sample-construction cost as [`sensitivity`], keeping the two sweeps'
/// points directly comparable.
#[must_use]
pub fn sensitivity_resampled<W>(
    w: &W,
    factors: &[f64],
    strategy: Strategy,
    seed: u64,
    rec: &Recorder,
) -> Vec<SensitivityPoint>
where
    W: Resampleable,
    W::Resampled: Profilable,
{
    let pool = Pool::global();
    let pw = ProfiledWorkload::with_pool(w, pool);
    let points = pool.map(factors, |&factor| {
        let mini = w.resample(pw.profile(), SampleSpec::scaled(factor), seed);
        let outcome = Searcher::new(strategy).pool(pool).profiled().run(&mini);
        let threshold = w.space().clamp(outcome.best_t);
        let overhead = w.sampling_cost() + outcome.search_cost;
        let run = pw.time_at(threshold);
        SensitivityPoint {
            factor,
            sample_size: mini.size(),
            estimation_ms: overhead.as_millis(),
            total_ms: (overhead + run).as_millis(),
            estimated_t: threshold,
        }
    });
    pw.flush_metrics(rec);
    points
}

/// Table I row: workload-level averages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Summary {
    /// Workload label ("CC", "spmm", "Scale-free spmm").
    pub workload: String,
    /// Mean threshold difference (%).
    pub threshold_diff_pct: f64,
    /// Mean time difference (%).
    pub time_diff_pct: f64,
    /// Mean estimation overhead (%).
    pub overhead_pct: f64,
}

/// Aggregates experiment rows into a Table I row.
///
/// # Panics
/// Panics on empty input.
#[must_use]
pub fn summarize(workload: &str, rows: &[ExperimentRow]) -> Summary {
    assert!(!rows.is_empty(), "cannot summarize zero rows");
    let n = rows.len() as f64;
    Summary {
        workload: workload.to_string(),
        threshold_diff_pct: rows
            .iter()
            .map(ExperimentRow::threshold_diff_pct)
            .sum::<f64>()
            / n,
        time_diff_pct: rows.iter().map(ExperimentRow::time_diff_pct).sum::<f64>() / n,
        overhead_pct: rows.iter().map(ExperimentRow::overhead_pct).sum::<f64>() / n,
    }
}

/// `SimTime` helper for external callers building rows by hand.
#[must_use]
pub fn ms(t: SimTime) -> f64 {
    t.as_millis()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::dense::DenseGemmWorkload;
    use nbwp_sim::Platform;

    fn dense(n: usize) -> DenseGemmWorkload {
        DenseGemmWorkload::new(n, Platform::k40c_xeon_e5_2650())
    }

    #[test]
    fn run_one_produces_consistent_row() {
        let w = dense(512);
        let row = run_one("mat.512", &w, &ExperimentConfig::cc(1));
        assert_eq!(row.dataset, "mat.512");
        assert_eq!(row.n, 512);
        assert!(row.time_exhaustive_ms > 0.0);
        // Exhaustive is by definition at least as good as any estimate.
        assert!(row.time_estimated_ms >= row.time_exhaustive_ms - 1e-12);
        assert!(row.threshold_diff_pct() <= 100.0);
        assert!(row.overhead_pct() < 100.0);
    }

    #[test]
    fn naive_average_fill() {
        let ws = [dense(256), dense(512)];
        let cfg = ExperimentConfig::cc(2);
        let mut rows: Vec<ExperimentRow> = ws.iter().map(|w| run_one("d", w, &cfg)).collect();
        fill_naive_average(&mut rows, &ws);
        let avg = (rows[0].exhaustive_t + rows[1].exhaustive_t) / 2.0;
        assert_eq!(rows[0].naive_average_t, Some(avg));
        assert!(rows[0].time_naive_average_ms.unwrap() >= rows[0].time_exhaustive_ms - 1e-12);
    }

    #[test]
    fn sensitivity_sweep_shapes() {
        let w = dense(1024);
        let points = sensitivity(
            &w,
            &[0.25, 1.0, 4.0],
            crate::estimator::IdentifyStrategy::CoarseToFine,
            3,
        );
        assert_eq!(points.len(), 3);
        // Larger samples cost more estimation time.
        assert!(points[2].estimation_ms > points[0].estimation_ms);
        assert!(points.iter().all(|p| p.total_ms >= p.estimation_ms));
    }

    #[test]
    fn summary_averages() {
        let w = dense(512);
        let cfg = ExperimentConfig::cc(4);
        let rows = vec![run_one("a", &w, &cfg), run_one("b", &w, &cfg)];
        let s = summarize("dense", &rows);
        assert_eq!(s.workload, "dense");
        assert!(s.threshold_diff_pct >= 0.0);
        assert!(s.overhead_pct >= 0.0);
    }

    #[test]
    fn relative_threshold_diff_mode() {
        let mut row = ExperimentRow {
            dataset: "x".into(),
            n: 1,
            exhaustive_t: 50.0,
            estimated_t: 55.0,
            naive_static_t: None,
            naive_average_t: None,
            time_exhaustive_ms: 10.0,
            time_estimated_ms: 11.0,
            time_naive_static_ms: None,
            time_naive_average_ms: None,
            time_gpu_only_ms: 20.0,
            overhead_ms: 1.0,
            evaluations: 10,
            sample_size: 100,
            relative_threshold_diff: false,
            space_lo: 1.0,
            space_hi: 100.0,
        };
        assert_eq!(row.threshold_diff_pct(), 5.0);
        row.relative_threshold_diff = true;
        // Log-axis distance: |ln(55/50)| / ln(100) × 100 ≈ 2.07.
        let expect = (55.0f64 / 50.0).ln().abs() / 100.0f64.ln() * 100.0;
        assert!((row.threshold_diff_pct() - expect).abs() < 1e-9);
        assert!((row.time_diff_pct() - 10.0).abs() < 1e-12);
        assert!((row.speedup_vs_gpu_only() - 20.0 / 11.0).abs() < 1e-12);
        assert!((row.overhead_pct() - 100.0 / 12.0).abs() < 1e-9);
    }
}
