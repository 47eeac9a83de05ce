//! Experiment drivers: one row per dataset with every method's threshold
//! and time (Figs. 3/5/8), sample-size sensitivity sweeps (Figs. 4/6/9),
//! and Table I aggregation. Every driver prices the reference, the estimate and each baseline on
//! one cost profile per full input (bitwise equal to direct runs).

use nbwp_par::Pool;
use nbwp_trace::Recorder;
use serde::{Deserialize, Serialize};

use crate::baselines;
use crate::estimator::Estimator;
use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable, ThresholdSpace};
use crate::profile::ProfiledWorkload;
use crate::search::{Searcher, Strategy};

/// Configuration of one experiment run. The exhaustive reference grid and
/// the threshold-difference metric follow from the workload's
/// [`ThresholdSpace`] ([`ThresholdSpace::reference_step`],
/// [`ThresholdSpace::diff_pct`]).
#[derive(Copy, Clone, Debug)]
pub struct ExperimentConfig {
    /// Identify strategy run on the sample.
    pub strategy: Strategy,
    /// Sample-size multiplier (1.0 = the paper's default).
    pub spec: SampleSpec,
    /// RNG seed for Step 1.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's CC configuration: coarse-to-fine 8 → 1, √n sample.
    #[must_use]
    pub fn cc(seed: u64) -> Self {
        Self::with(Strategy::CoarseToFine, seed)
    }

    /// The paper's spmm configuration: race + fine search, n/4 sample.
    #[must_use]
    pub fn spmm(seed: u64) -> Self {
        Self::with(Strategy::RaceThenFine, seed)
    }

    /// The paper's scale-free configuration: gradient descent, √n rows,
    /// square-law extrapolation.
    #[must_use]
    pub fn scalefree(seed: u64) -> Self {
        Self::with(Strategy::GradientDescent { max_evals: 24 }, seed)
    }

    fn with(strategy: Strategy, seed: u64) -> Self {
        ExperimentConfig {
            strategy,
            spec: SampleSpec::default(),
            seed,
        }
    }
}

/// One dataset's results across all methods — a row of Figs. 3/5/8.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
    /// Corpus-average threshold (filled by [`run_corpus`]).
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
    /// Whether the threshold space is logarithmic, so that
    /// `threshold_diff_pct` is a log-axis percentage.
    pub relative_threshold_diff: bool,
    /// Threshold-space bounds (used for the log-axis difference metric).
    pub space_lo: f64,
    /// See `space_lo`.
    pub space_hi: f64,
}

impl ExperimentRow {
    /// Paper metric: difference between estimated and exhaustive threshold
    /// on the row's space ([`ThresholdSpace::diff_pct`]).
    #[must_use]
    pub fn threshold_diff_pct(&self) -> f64 {
        // The row keeps what the metric reads of its space: bounds and axis.
        let space = ThresholdSpace {
            lo: self.space_lo,
            hi: self.space_hi,
            logarithmic: self.relative_threshold_diff,
            ..ThresholdSpace::percentage()
        };
        space.diff_pct(self.estimated_t, self.exhaustive_t)
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
/// gauges once the exhaustive reference is known. NaiveAverage needs the
/// whole corpus and is left empty.
#[must_use]
pub fn run_one_with<W: Sampleable>(
    name: &str,
    w: &W,
    config: &ExperimentConfig,
    rec: &Recorder,
) -> ExperimentRow {
    let pw = ProfiledWorkload::new(w);
    let space = pw.space();
    let exhaustive = Searcher::new(Strategy::Exhaustive {
        step: Some(space.reference_step()),
    })
    .run(&pw);
    let est = Estimator::new(config.strategy)
        .spec(config.spec)
        .seed(config.seed)
        .recorder(rec)
        .profiled()
        .run(w);
    let naive_static_t = (!space.logarithmic).then(|| baselines::naive_static_for(w));
    let ms = |t: f64| pw.time_at(t).as_millis();
    let row = ExperimentRow {
        dataset: name.to_string(),
        n: w.size(),
        exhaustive_t: exhaustive.best_t,
        estimated_t: est.threshold,
        naive_static_t,
        naive_average_t: None,
        time_exhaustive_ms: exhaustive.best_time.as_millis(),
        time_estimated_ms: ms(est.threshold),
        time_naive_static_ms: naive_static_t.map(ms),
        time_naive_average_ms: None,
        time_gpu_only_ms: ms(baselines::gpu_only(w)),
        overhead_ms: est.overhead.as_millis(),
        evaluations: est.evaluations,
        sample_size: est.sample_size,
        relative_threshold_diff: space.logarithmic,
        space_lo: space.lo,
        space_hi: space.hi,
    };
    rec.gauge_set("threshold.diff_pct", row.threshold_diff_pct());
    rec.gauge_set("time.diff_pct", row.time_diff_pct());
    row
}

/// Runs the full method comparison for every `(name, workload)` pair and
/// fills in *NaiveAverage*: the corpus average of the exhaustive
/// thresholds (geometric mean on logarithmic spaces), priced on a cost
/// profile of every workload, rebuilt for that one price. Datasets are
/// dispatched across the worker pool; rows come back in input order and
/// are identical for any `NBWP_THREADS` (simulated results never depend
/// on the pool).
#[must_use]
pub fn run_corpus<S, W>(suite: &[(S, W)], config: &ExperimentConfig) -> Vec<ExperimentRow>
where
    S: AsRef<str> + Sync,
    W: Sampleable,
{
    let pool = Pool::global();
    let mut rows = pool.map(suite, |(name, w)| run_one(name.as_ref(), w, config));
    let Some((_, first)) = suite.first() else {
        return rows;
    };
    let best: Vec<f64> = rows.iter().map(|row| row.exhaustive_t).collect();
    let avg = if first.space().logarithmic {
        let s: f64 = best.iter().map(|t| t.max(1e-9).ln()).sum();
        (s / best.len() as f64).exp()
    } else {
        baselines::naive_average(&best)
    };
    let averaged = pool.map(suite, |(_, w)| {
        let t = w.space().clamp(avg);
        (t, ProfiledWorkload::new(w).time_at(t).as_millis())
    });
    for (row, (t, ms)) in rows.iter_mut().zip(averaged) {
        row.naive_average_t = Some(t);
        row.time_naive_average_ms = Some(ms);
    }
    rows
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
/// worker pool; points come back in factor order. Each estimate runs
/// through [`Estimator::profiled`], and every run at an estimate is priced
/// on one cost profile of `w`.
#[must_use]
pub fn sensitivity<W: Sampleable>(
    w: &W,
    factors: &[f64],
    strategy: Strategy,
    seed: u64,
) -> Vec<SensitivityPoint> {
    let pool = Pool::global();
    let pw = ProfiledWorkload::with_pool(w, pool);
    pool.map(factors, |&factor| {
        let est = Estimator::new(strategy)
            .spec(SampleSpec::scaled(factor))
            .seed(seed)
            .profiled()
            .run(w);
        let run = pw.time_at(est.threshold);
        SensitivityPoint {
            factor,
            sample_size: est.sample_size,
            estimation_ms: est.overhead.as_millis(),
            total_ms: (est.overhead + run).as_millis(),
            estimated_t: est.threshold,
        }
    })
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
        let suite = [("a", dense(256)), ("b", dense(512))];
        let rows = run_corpus(&suite, &ExperimentConfig::cc(2));
        assert_eq!(rows[1], {
            let mut row = run_one("b", &suite[1].1, &ExperimentConfig::cc(2));
            row.naive_average_t = rows[1].naive_average_t;
            row.time_naive_average_ms = rows[1].time_naive_average_ms;
            row
        });
        let avg = (rows[0].exhaustive_t + rows[1].exhaustive_t) / 2.0;
        assert_eq!(rows[0].naive_average_t, Some(avg));
        assert!(rows[0].time_naive_average_ms.unwrap() >= rows[0].time_exhaustive_ms - 1e-12);
    }

    #[test]
    fn sensitivity_sweep_shapes() {
        let w = dense(1024);
        let points = sensitivity(&w, &[0.25, 1.0, 4.0], Strategy::CoarseToFine, 3);
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
