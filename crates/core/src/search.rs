//! Step 2 ("Identify") — threshold search strategies behind one builder.
//!
//! A search is configured by a [`Strategy`] and run through the
//! [`Searcher`] builder:
//!
//! * [`Strategy::Exhaustive`] — evaluate every grid point: the paper's
//!   reference "best possible threshold" (impractical on the full input,
//!   used to measure the quality of everything else).
//! * [`Strategy::CoarseToFine`] — the paper's CC identify step: stride 8,
//!   then stride 1 around the best coarse point (§III.A.2).
//! * [`Strategy::RaceThenFine`] — the paper's spmm identify step: estimate
//!   a rough split from the two devices' standalone rates (the "race"),
//!   then fine search around it (§IV.A(b)).
//! * [`Strategy::GradientDescent`] — the paper's scale-free identify step:
//!   discrete hill climbing with a shrinking step (§V.A.2), finite-
//!   differencing `run()`.
//! * [`Strategy::Analytic`] — subgradient descent on the *cost curve*
//!   itself ([`nbwp_sim::CurveEval`]): the profile prices every split in
//!   O(1), so the argmin is located by sign-change bisection on exact
//!   adjacent-split differences and only the surviving candidates are
//!   evaluated. Requires [`Searcher::profiled`].
//!
//! Every strategy records each candidate it evaluated and the *simulated
//! cost* of those evaluations; that cost is the estimation overhead the
//! paper's Table I reports.
//!
//! ```
//! use nbwp_core::prelude::*;
//! use nbwp_sparse::gen;
//! let w = SpmmWorkload::new(gen::uniform_random(200, 6, 1), Platform::k40c_xeon_e5_2650());
//! let out = Searcher::new(Strategy::CoarseToFine).run(&w);
//! assert!((0.0..=100.0).contains(&out.best_t));
//! assert!(out.evaluations() < 101); // far fewer than exhaustive
//! // Analytic descent over the cost profile: same argmin, fewer evals.
//! let analytic = Searcher::new(Strategy::Analytic { step: None }).profiled().run(&w);
//! assert_eq!(analytic.best_t, Searcher::new(Strategy::Exhaustive { step: None }).run(&w).best_t);
//! ```
//!
//! ## Parallel evaluation, deterministic results
//!
//! Candidate evaluations are independent, so every strategy dispatches its
//! batches through the [`nbwp_par::Pool`]: the expensive
//! [`PartitionedWorkload::run`] calls execute on worker threads, then the
//! resulting [`nbwp_sim::RunReport`]s are *replayed serially in submission
//! order* into the trace [`Recorder`]. Simulated times come from counters
//! alone, so `SearchOutcome` (eval order included), `search_cost`, and
//! trace captures are byte-identical for every `NBWP_THREADS` value —
//! parallelism buys wall-clock time only. [`Searcher::pool`] takes an
//! explicit pool for benchmarks sweeping thread counts in one process;
//! without it the builder uses [`nbwp_par::Pool::global`].

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::str::FromStr;

use nbwp_par::Pool;
use nbwp_sim::{CurveEval, Device, DeviceSet, Partition, RunReport, SimTime};
use nbwp_trace::{ArgValue, Recorder};

use crate::evalcache::quantize;
use crate::framework::{PartitionedWorkload, ThresholdSpace};
use crate::profile::{Profilable, ProfiledWorkload};

/// Outcome of a threshold search.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchOutcome {
    /// The best threshold found.
    pub best_t: f64,
    /// Simulated time of a run at `best_t`.
    pub best_time: SimTime,
    /// Every `(threshold, total time)` pair evaluated, in evaluation order.
    pub evals: Vec<(f64, SimTime)>,
    /// Total simulated cost of the evaluations (Σ run totals).
    pub search_cost: SimTime,
    /// O(1) curve-total probes the analytic strategy spent locating its
    /// candidates (0 for every other strategy). Probes price a split from
    /// the profile's range sums; they are not candidate evaluations and
    /// do not appear in `evals`.
    pub grad_probes: usize,
}

impl SearchOutcome {
    /// Builds the outcome from the evaluation log. Ties on `SimTime` break
    /// deterministically toward the **lowest threshold**, so the winner is
    /// a property of the evaluated set, not of evaluation order — required
    /// for results to be stable under parallel (or otherwise reordered)
    /// evaluation.
    fn from_evals(evals: Vec<(f64, SimTime)>) -> Self {
        assert!(!evals.is_empty(), "search evaluated no candidates");
        let (best_t, best_time) = evals
            .iter()
            .copied()
            .min_by(|a, b| a.1.cmp(&b.1).then(a.0.total_cmp(&b.0)))
            .expect("non-empty");
        let search_cost = evals.iter().map(|&(_, t)| t).sum();
        SearchOutcome {
            best_t,
            best_time,
            evals,
            search_cost,
            grad_probes: 0,
        }
    }

    /// Number of candidate evaluations performed.
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evals.len()
    }
}

/// Which search strategy a [`Searcher`] (or `Estimator`) runs.
///
/// `step: None` resolves to the space's `fine_step` at run time, matching
/// the paper's "best possible" grid granularity.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Strategy {
    /// Every grid point at `step` granularity.
    Exhaustive {
        /// Grid step; `None` = the space's fine step.
        step: Option<f64>,
    },
    /// Coarse grid, then fine refinement around the coarse winner.
    CoarseToFine,
    /// Device race for a balance estimate, then fine probes around it.
    RaceThenFine,
    /// Finite-difference hill climbing under an evaluation budget.
    GradientDescent {
        /// Total candidate-evaluation budget (≥ 3).
        max_evals: usize,
    },
    /// Subgradient bisection on the cost curve (profiled runs only).
    Analytic {
        /// Candidate-grid step; `None` = the space's fine step.
        step: Option<f64>,
    },
}

/// Default evaluation budget for [`Strategy::GradientDescent`] when parsed
/// from a name (the scale-free preset the CLI and experiments use).
pub const DEFAULT_GRADIENT_EVALS: usize = 24;

impl Strategy {
    /// Stable snake_case name (used for span args, reports, and parsing).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Exhaustive { .. } => "exhaustive",
            Strategy::CoarseToFine => "coarse_to_fine",
            Strategy::RaceThenFine => "race_then_fine",
            Strategy::GradientDescent { .. } => "gradient_descent",
            Strategy::Analytic { .. } => "analytic",
        }
    }
}

/// Error for [`Strategy::from_str`]: the name matched no strategy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownStrategy(String);

impl fmt::Display for UnknownStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown strategy '{}' (expected exhaustive, coarse_to_fine, \
             race_then_fine, gradient_descent, or analytic)",
            self.0
        )
    }
}

impl std::error::Error for UnknownStrategy {}

impl FromStr for Strategy {
    type Err = UnknownStrategy;

    /// Parses a strategy by its [`Strategy::name`] (hyphens are accepted
    /// in place of underscores). Parameterized strategies get their
    /// defaults: fine-step grids and a [`DEFAULT_GRADIENT_EVALS`] budget.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.replace('-', "_").as_str() {
            "exhaustive" => Ok(Strategy::Exhaustive { step: None }),
            "coarse_to_fine" => Ok(Strategy::CoarseToFine),
            "race_then_fine" => Ok(Strategy::RaceThenFine),
            "gradient_descent" => Ok(Strategy::GradientDescent {
                max_evals: DEFAULT_GRADIENT_EVALS,
            }),
            "analytic" => Ok(Strategy::Analytic { step: None }),
            _ => Err(UnknownStrategy(s.to_string())),
        }
    }
}

/// Builder running one search [`Strategy`] over a workload.
///
/// Defaults: disabled recorder, [`Pool::global`]. Both attachments borrow,
/// so the builder is configured and consumed within one scope:
///
/// ```
/// use nbwp_core::prelude::*;
/// use nbwp_sparse::gen;
/// let w = SpmmWorkload::new(gen::uniform_random(150, 5, 3), Platform::k40c_xeon_e5_2650());
/// let rec = Recorder::new();
/// let pool = Pool::new(2);
/// let out = Searcher::new(Strategy::Exhaustive { step: Some(4.0) })
///     .recorder(&rec)
///     .pool(&pool)
///     .run(&w);
/// assert_eq!(out.evaluations(), 26);
/// ```
#[derive(Copy, Clone)]
pub struct Searcher<'a> {
    strategy: Strategy,
    rec: Option<&'a Recorder>,
    pool: Option<&'a Pool>,
    warm_cuts: Option<&'a [f64]>,
}

impl<'a> Searcher<'a> {
    /// A searcher running `strategy` with the default recorder and pool.
    #[must_use]
    pub fn new(strategy: Strategy) -> Self {
        Searcher {
            strategy,
            rec: None,
            pool: None,
            warm_cuts: None,
        }
    }

    /// Warm-starts the search from a previously found cut vector.
    ///
    /// [`Strategy::Analytic`] on the canonical two-device pipeline consults
    /// only the first cut (every other scalar strategy ignores the hint):
    /// instead of scanning the whole subgradient domain for sign changes,
    /// the search hill-descends on the curve totals from the candidate
    /// nearest that cut, spending O(walk) probes instead of
    /// O(m / stride + log m). When the cut lies in the basin of the cold
    /// argmin — always true when it *is* a cold result for the same curve
    /// — the outcome is identical to the cold search; for merely similar
    /// inputs it may settle on a different local minimum of a multimodal
    /// curve (the near-hit serving trade-off, see DESIGN.md "Fingerprints
    /// & amortized serving"). [`ProfiledSearcher::run_partition`] at
    /// `k > 2` seeds its coordinate descent from the full vector instead
    /// of the speed-proportional split. A vector holding NaN names no
    /// split: it is dropped and the search runs cold.
    #[must_use]
    pub fn warm_cuts(mut self, cuts: &'a [f64]) -> Self {
        self.warm_cuts = Some(cuts);
        self
    }

    /// The scalar warm hint the analytic strategy descends from: the first
    /// warm cut, when one is set.
    fn effective_warm(&self) -> Option<f64> {
        usable_warm(self.warm_cuts).and_then(|cuts| cuts.first().copied())
    }

    /// Traces candidate evaluations (and flushed profile metrics) into
    /// `rec`.
    #[must_use]
    pub fn recorder(mut self, rec: &'a Recorder) -> Self {
        self.rec = Some(rec);
        self
    }

    /// Evaluates candidate batches on `pool` instead of the global pool.
    /// Results are byte-identical for any pool (see the module docs).
    #[must_use]
    pub fn pool(mut self, pool: &'a Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Switches to profiled evaluation: the run builds one cost profile,
    /// prices every candidate from it, and flushes cache/build metrics.
    /// Required for [`Strategy::Analytic`].
    #[must_use]
    pub fn profiled(self) -> ProfiledSearcher<'a> {
        ProfiledSearcher { inner: self }
    }

    /// Runs the strategy over direct `w.run()` evaluations.
    ///
    /// # Panics
    /// Panics for [`Strategy::Analytic`], which needs a cost profile —
    /// call [`Searcher::profiled`] first.
    #[must_use]
    pub fn run(&self, w: &impl PartitionedWorkload) -> SearchOutcome {
        let disabled = Recorder::disabled();
        let rec = self.rec.unwrap_or(&disabled);
        let pool = self.pool.unwrap_or(Pool::global());
        match self.strategy {
            Strategy::Exhaustive { step } => {
                exhaustive_impl(w, resolve_step(step, &w.space()), rec, pool)
            }
            Strategy::CoarseToFine => coarse_to_fine_impl(w, rec, pool),
            Strategy::RaceThenFine => race_then_fine_impl(w, rec, pool),
            Strategy::GradientDescent { max_evals } => {
                gradient_descent_impl(w, max_evals, rec, pool)
            }
            Strategy::Analytic { .. } => {
                panic!("analytic search prices splits from a cost profile; use .profiled().run()")
            }
        }
    }
}

/// A [`Searcher`] that evaluates through a one-time cost profile of the
/// workload: the profile is built once (through the pool), every candidate
/// is priced from it — bitwise equal to direct evaluation — and repeated
/// thresholds come from the bounded eval cache. Cache and build totals
/// land in the recorder's metrics as `profile.cache_hit` /
/// `profile.cache_miss` / `profile.builds`.
#[derive(Copy, Clone)]
pub struct ProfiledSearcher<'a> {
    inner: Searcher<'a>,
}

impl ProfiledSearcher<'_> {
    /// Runs the strategy over one cost profile of `w`.
    #[must_use]
    pub fn run(&self, w: &impl Profilable) -> SearchOutcome {
        let disabled = Recorder::disabled();
        let rec = self.inner.rec.unwrap_or(&disabled);
        let pool = self.inner.pool.unwrap_or(Pool::global());
        let pw = ProfiledWorkload::with_pool(w, pool);
        let out = self.run_on_profile(w, &pw, rec, pool);
        pw.flush_metrics(rec);
        out
    }

    /// Strategy dispatch over an already-built profile (shared by
    /// [`ProfiledSearcher::run`] and the canonical-pair arm of
    /// [`ProfiledSearcher::run_partition`], which must not profile twice).
    fn run_on_profile<W: Profilable>(
        &self,
        w: &W,
        pw: &ProfiledWorkload<'_, W>,
        rec: &Recorder,
        pool: &Pool,
    ) -> SearchOutcome {
        match self.inner.strategy {
            Strategy::Exhaustive { step } => {
                exhaustive_impl(pw, resolve_step(step, &pw.space()), rec, pool)
            }
            Strategy::CoarseToFine => coarse_to_fine_impl(pw, rec, pool),
            Strategy::RaceThenFine => race_then_fine_impl(pw, rec, pool),
            Strategy::GradientDescent { max_evals } => {
                gradient_descent_impl(pw, max_evals, rec, pool)
            }
            Strategy::Analytic { step } => analytic_impl(
                w,
                pw,
                resolve_step(step, &pw.space()),
                self.inner.effective_warm(),
                rec,
                pool,
            ),
        }
    }

    /// Searches for the best k-way [`Partition`] of `w` over `set`.
    ///
    /// The canonical CPU+GPU pair routes through the configured scalar
    /// strategy — the returned cut, total, and evaluation log (in
    /// `scalar`) are bitwise identical to [`ProfiledSearcher::run`], and
    /// the partition view is derived from the same cost curve. Any other
    /// set requires [`Strategy::Analytic`]: cut points are located by
    /// coordinate descent on the curve's band prices
    /// ([`minimize_partition`]), seeded from the speed-proportional split
    /// (or [`Searcher::warm_cuts`] when set).
    ///
    /// # Panics
    /// Panics for non-canonical sets when the strategy is not
    /// [`Strategy::Analytic`], when the workload exposes no cost curve, or
    /// when its curve does not price device bands (degree-cutoff curves
    /// like scale-free HH partition by a predicate, not by contiguous
    /// spans — see DESIGN.md).
    #[must_use]
    pub fn run_partition<W: Profilable>(&self, w: &W, set: &DeviceSet) -> PartitionOutcome {
        let disabled = Recorder::disabled();
        let rec = self.inner.rec.unwrap_or(&disabled);
        let pool = self.inner.pool.unwrap_or(Pool::global());
        let pw = ProfiledWorkload::with_pool(w, pool);
        let space = w.space();
        let out = if set.is_canonical_pair() {
            let scalar = self.run_on_profile(w, &pw, rec, pool);
            let partition = w.curve(pw.profile()).map(|curve| {
                let units = curve.splits() - 1;
                Partition::two_way(units, curve.split_for(space.clamp(scalar.best_t)))
            });
            PartitionOutcome {
                cuts: vec![scalar.best_t],
                fractions: partition
                    .as_ref()
                    .map(Partition::fractions)
                    .unwrap_or_default(),
                partition,
                total: scalar.best_time,
                probes: scalar.grad_probes,
                sweeps: 0,
                scalar: Some(scalar),
            }
        } else {
            let Strategy::Analytic { step } = self.inner.strategy else {
                panic!(
                    "k-way partition search prices bands from the cost curve; \
                     use Strategy::Analytic"
                )
            };
            let curve = w
                .curve(pw.profile())
                .expect("workload exposes no cost curve; k-way partitioning needs one");
            let minimum = minimize_partition(
                curve.as_ref(),
                set,
                &space,
                resolve_step(step, &space),
                self.inner.warm_cuts,
            )
            .expect(
                "curve does not price device bands; k-way partitioning needs \
                 a contiguous-span cost curve (spmm, gemm, cc)",
            );
            if rec.is_enabled() {
                rec.counter_add("search.grad_probes", minimum.probes as u64);
            }
            PartitionOutcome {
                cuts: minimum.thresholds,
                fractions: minimum.partition.fractions(),
                partition: Some(minimum.partition),
                total: minimum.total,
                probes: minimum.probes,
                sweeps: minimum.sweeps,
                scalar: None,
            }
        };
        pw.flush_metrics(rec);
        out
    }
}

/// Outcome of a k-way partition search ([`ProfiledSearcher::run_partition`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionOutcome {
    /// Cut thresholds in threshold space, ascending — one per device
    /// boundary (`k − 1` of them).
    pub cuts: Vec<f64>,
    /// Per-device work fractions of the chosen partition (sums to 1 on
    /// non-empty inputs; empty when no curve was available to derive the
    /// partition).
    pub fractions: Vec<f64>,
    /// The chosen partition over the curve's unit domain, when a cost
    /// curve was available.
    pub partition: Option<Partition>,
    /// Priced total of the chosen partition.
    pub total: SimTime,
    /// Curve probes spent locating the cuts (partition totals at `k > 2`,
    /// scalar curve totals on the canonical pair).
    pub probes: usize,
    /// Coordinate-descent sweeps spent (0 on the canonical scalar path).
    pub sweeps: usize,
    /// The full scalar search outcome when the canonical pair routed
    /// through the scalar strategy; `None` for true k-way searches.
    pub scalar: Option<SearchOutcome>,
}

/// `None` grid steps resolve to the space's fine step (linear or
/// multiplicative, depending on the space).
fn resolve_step(step: Option<f64>, space: &ThresholdSpace) -> f64 {
    step.unwrap_or(space.fine_step)
}

/// Replays one already-computed candidate run into the recorder (when
/// enabled): an `identify.eval` span wrapping the run's six lane spans,
/// plus the `search.evaluations` counter and the `identify.eval_ms`
/// histogram.
fn record_eval(t: f64, report: &RunReport, rec: &Recorder) -> (f64, SimTime) {
    let total = report.total();
    if rec.is_enabled() {
        let span = rec.open_with("identify.eval", vec![("t".to_string(), ArgValue::F64(t))]);
        rec.record_run(report);
        rec.annotate(
            span,
            vec![("total_ms".to_string(), ArgValue::F64(total.as_millis()))],
        );
        rec.close(span);
        rec.counter_add("search.evaluations", 1);
        rec.histogram_record("identify.eval_ms", total.as_millis());
    }
    (t, total)
}

/// Evaluates a batch of candidates: runs execute in parallel on `pool`,
/// then replay serially into `rec` in submission order — the trace and the
/// returned eval log are identical to a serial evaluation of `grid`.
fn eval_grid(
    w: &impl PartitionedWorkload,
    grid: &[f64],
    rec: &Recorder,
    pool: &Pool,
) -> Vec<(f64, SimTime)> {
    let reports = pool.map(grid, |&t| w.run(t));
    grid.iter()
        .zip(&reports)
        .map(|(&t, report)| record_eval(t, report, rec))
        .collect()
}

/// The full candidate grid of `space` at `step` granularity: additive for
/// linear spaces, multiplicative for logarithmic ones, always including
/// the upper bound.
fn grid_points(space: &ThresholdSpace, step: f64) -> Vec<f64> {
    assert!(step > 0.0, "step must be positive");
    let mut grid = Vec::new();
    if space.logarithmic {
        assert!(
            step > 1.0,
            "logarithmic spaces need a multiplicative step > 1"
        );
        let mut t = space.lo.max(1e-9);
        while t < space.hi {
            grid.push(t);
            t *= step;
        }
        grid.push(space.hi);
    } else {
        let mut t = space.lo;
        while t < space.hi {
            grid.push(t);
            t += step;
        }
        grid.push(space.hi);
    }
    grid
}

fn exhaustive_impl(
    w: &impl PartitionedWorkload,
    step: f64,
    rec: &Recorder,
    pool: &Pool,
) -> SearchOutcome {
    let grid = grid_points(&w.space(), step);
    SearchOutcome::from_evals(eval_grid(w, &grid, rec, pool))
}

fn coarse_to_fine_impl(w: &impl PartitionedWorkload, rec: &Recorder, pool: &Pool) -> SearchOutcome {
    let space = w.space();
    let mut evals = eval_grid(w, &space.coarse_grid(), rec, pool);
    // Same tie-breaking as `from_evals`: lowest time, then lowest threshold.
    let (center, _) = evals
        .iter()
        .copied()
        .min_by(|a, b| a.1.cmp(&b.1).then(a.0.total_cmp(&b.0)))
        .expect("coarse grid non-empty");
    let fine: Vec<f64> = space
        .fine_grid(center)
        .into_iter()
        .filter(|t| !evals.iter().any(|&(seen, _)| close(seen, *t, &space)))
        .collect();
    evals.extend(eval_grid(w, &fine, rec, pool));
    SearchOutcome::from_evals(evals)
}

fn race_then_fine_impl(w: &impl PartitionedWorkload, rec: &Recorder, pool: &Pool) -> SearchOutcome {
    let space = w.space();
    let race_span = rec.open("race");
    let (all_cpu, all_gpu) = pool.join(
        || w.run(space.hi).breakdown.phase2(),
        || w.run(space.lo).breakdown.phase2(),
    );
    // Both device runs overlap; the race ends at the first finisher.
    let race_cost = all_cpu.min(all_gpu);
    rec.annotate(
        race_span,
        vec![
            ("all_cpu_ms".to_string(), ArgValue::F64(all_cpu.as_millis())),
            ("all_gpu_ms".to_string(), ArgValue::F64(all_gpu.as_millis())),
        ],
    );
    rec.advance(race_cost);
    rec.close(race_span);
    let denom = all_cpu + all_gpu;
    let frac = if denom.is_zero() {
        0.5
    } else {
        all_gpu / denom
    };
    let r0 = space.clamp(space.lo + (space.hi - space.lo) * frac);
    // Five probes at ±2 fine strides around the race estimate.
    let step = space.fine_step * 2.0;
    let probes: Vec<f64> = if space.logarithmic {
        [-2.0f64, -1.0, 0.0, 1.0, 2.0]
            .iter()
            .map(|&k| space.clamp(r0 * step.powf(k)))
            .collect()
    } else {
        [-2.0f64, -1.0, 0.0, 1.0, 2.0]
            .iter()
            .map(|&k| space.clamp(r0 + k * step))
            .collect()
    };
    let mut dedup: Vec<f64> = Vec::new();
    for t in probes {
        if !dedup.iter().any(|&seen| close(seen, t, &space)) {
            dedup.push(t);
        }
    }
    let mut out = SearchOutcome::from_evals(eval_grid(w, &dedup, rec, pool));
    out.search_cost += race_cost;
    out
}

fn gradient_descent_impl(
    w: &impl PartitionedWorkload,
    max_evals: usize,
    rec: &Recorder,
    pool: &Pool,
) -> SearchOutcome {
    assert!(max_evals >= 3, "need at least 3 evaluations");
    let space = w.space();
    let mut evals: Vec<(f64, SimTime)> = Vec::new();
    let lookup = |t: f64, evals: &[(f64, SimTime)]| -> Option<SimTime> {
        evals
            .iter()
            .find(|&&(seen, _)| close(seen, t, &space))
            .map(|&(_, cost)| cost)
    };

    let mid = if space.logarithmic {
        (space.lo.max(1e-9) * space.hi.max(1e-9)).sqrt()
    } else {
        (space.lo + space.hi) / 2.0
    };
    let starts = [
        mid,
        space.hi,
        space.lo.max(if space.logarithmic { 1.0 } else { space.lo }),
    ];
    let budget_each = (max_evals / starts.len()).max(3);

    for &start in &starts {
        let mut current = start;
        let mut stride = if space.logarithmic {
            (space.hi / space.lo.max(1e-9)).powf(0.25).max(1.1)
        } else {
            (space.hi - space.lo) / 4.0
        };
        let mut best = match lookup(current, &evals) {
            Some(cost) => cost,
            None => {
                let fresh = eval_grid(w, &[current], rec, pool);
                let cost = fresh[0].1;
                evals.extend(fresh);
                cost
            }
        };
        let deadline = evals.len().saturating_add(budget_each).min(max_evals);
        while evals.len() < deadline {
            let (left, right) = if space.logarithmic {
                (space.clamp(current / stride), space.clamp(current * stride))
            } else {
                (space.clamp(current - stride), space.clamp(current + stride))
            };
            // Decide the fresh probe set up front (left first, then right
            // if the budget still admits it), dispatch it as one parallel
            // batch, and append results in probe order — exactly the
            // sequence the serial descent would have produced.
            let fresh_left = lookup(left, &evals).is_none();
            let len_after_left = evals.len() + usize::from(fresh_left);
            let fresh_right = len_after_left < deadline
                && lookup(right, &evals).is_none()
                && !(fresh_left && close(left, right, &space));
            let mut batch = Vec::with_capacity(2);
            if fresh_left {
                batch.push(left);
            }
            if fresh_right {
                batch.push(right);
            }
            evals.extend(eval_grid(w, &batch, rec, pool));
            if len_after_left >= deadline {
                break;
            }
            let tl = lookup(left, &evals).expect("left probe evaluated or cached");
            let tr = lookup(right, &evals).expect("right probe evaluated or cached");
            if tl < best && tl <= tr {
                current = left;
                best = tl;
            } else if tr < best {
                current = right;
                best = tr;
            } else {
                // No improvement: shrink the step; stop at fine resolution.
                if space.logarithmic {
                    stride = stride.sqrt();
                    if stride <= space.fine_step {
                        break;
                    }
                } else {
                    stride /= 2.0;
                    if stride < space.fine_step {
                        break;
                    }
                }
            }
        }
        if evals.len() >= max_evals {
            break;
        }
    }
    SearchOutcome::from_evals(evals)
}

/// A memoized 1-D objective the cold minimum finder can probe by candidate
/// index. Implemented by [`CurveMemo`] (scalar curve totals) and
/// [`CoordMemo`] (one coordinate of a k-way cut vector, every other cut
/// held fixed).
trait TotalFn {
    fn total(&mut self, i: usize) -> SimTime;
}

/// Memoized curve-total lookups over the candidate list, counting probes.
struct CurveMemo<'c> {
    curve: &'c dyn CurveEval,
    splits: Vec<usize>,
    totals: Vec<Option<SimTime>>,
    probes: usize,
}

impl<'c> CurveMemo<'c> {
    fn new(curve: &'c dyn CurveEval, cands: &[(f64, usize)]) -> Self {
        let splits: Vec<usize> = cands.iter().map(|&(_, s)| s).collect();
        CurveMemo {
            curve,
            totals: vec![None; splits.len()],
            splits,
            probes: 0,
        }
    }
}

impl TotalFn for CurveMemo<'_> {
    fn total(&mut self, i: usize) -> SimTime {
        if let Some(v) = self.totals[i] {
            return v;
        }
        let v = self.curve.total_at(self.splits[i]);
        self.totals[i] = Some(v);
        self.probes += 1;
        v
    }
}

/// True when the objective strictly descends from candidate `i` to
/// `i + 1`. Plateaus count as non-descending so bisection settles on the
/// *lowest* index of a flat minimum — the exhaustive tie-break.
fn descending<M: TotalFn + ?Sized>(memo: &mut M, i: usize) -> bool {
    memo.total(i + 1) < memo.total(i)
}

/// The cold subgradient search over candidate indices `lo..=hi`: a stride
/// scan of the adjacent-candidate subgradient sign locates every
/// descending→ascending bracket, each bracket bisects to a local minimum,
/// and the boundary indices join when the curve does not descend into (or
/// keeps descending out of) the range. Returns the local-minimum
/// candidates, sorted and deduplicated. Over the full range `[0, m − 1]`
/// this is exactly the scalar analytic cold search; [`minimize_partition`]
/// reuses it per coordinate over the bracket its neighbours allow.
fn cold_minima<M: TotalFn + ?Sized>(memo: &mut M, lo: usize, hi: usize) -> Vec<usize> {
    let mut chosen: Vec<usize> = Vec::new();
    if lo == hi {
        chosen.push(lo);
        return chosen;
    }
    // Subgradient domain: D(i) = total(i+1) - total(i), i in lo..=hi-1.
    let last_d = hi - 1;
    if !descending(memo, lo) {
        // Non-descending start: the left edge is a local minimum.
        chosen.push(lo);
    }
    if descending(memo, last_d) {
        // Still descending at the end: the right edge is one.
        chosen.push(hi);
    }
    // Scan at a stride comparable to the coarse-grid granularity, then
    // bisect every sign change. Basins narrower than the stride are
    // the same ones a coarse-to-fine sweep would miss.
    let stride = ((last_d - lo) / 12).max(1);
    let mut scan: Vec<usize> = (lo..=last_d).step_by(stride).collect();
    if *scan.last().expect("non-empty") != last_d {
        scan.push(last_d);
    }
    for pair in scan.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if descending(memo, a) && !descending(memo, b) {
            let (mut bis_lo, mut bis_hi) = (a, b);
            while bis_hi - bis_lo > 1 {
                let mid = bis_lo + (bis_hi - bis_lo) / 2;
                if descending(memo, mid) {
                    bis_lo = mid;
                } else {
                    bis_hi = mid;
                }
            }
            // total falls into `bis_hi` and does not fall out of it.
            chosen.push(bis_hi);
        }
    }
    chosen.sort_unstable();
    chosen.dedup();
    chosen
}

/// Collapses the threshold grid onto distinct splits, keeping the lowest
/// threshold of each run of equal splits (the exhaustive tie-break prefers
/// it on the flat stretch they share).
fn collapse_candidates(
    curve: &dyn CurveEval,
    space: &ThresholdSpace,
    step: f64,
) -> Vec<(f64, usize)> {
    let mut cands: Vec<(f64, usize)> = Vec::new();
    for t in grid_points(space, step) {
        let s = curve.split_for(t);
        debug_assert!(
            cands.last().is_none_or(|&(_, prev)| prev <= s),
            "split_for must be monotone in t"
        );
        if cands.last().is_none_or(|&(_, prev)| prev != s) {
            cands.push((t, s));
        }
    }
    cands
}

/// The collapsed `(threshold, split)` candidate grid shared by the scalar
/// minimizer and every [`minimize_partition`] coordinate: one candidate
/// per distinct split the step-grid reaches, keeping the lowest threshold
/// naming each split. Public so exhaustive baselines (`bench_eval`'s
/// k-way gate) can enumerate exactly the grid the searches optimize over.
#[must_use]
pub fn candidate_splits(
    curve: &dyn CurveEval,
    space: &ThresholdSpace,
    step: f64,
) -> Vec<(f64, usize)> {
    collapse_candidates(curve, space, step)
}

/// A warm cut vector is only a hint, and one holding NaN names no split
/// (`ThresholdSpace::clamp` passes NaN through): such a vector is dropped
/// whole, so the search runs cold exactly as with no hint.
fn usable_warm(cuts: Option<&[f64]>) -> Option<&[f64]> {
    cuts.filter(|cuts| !cuts.iter().any(|t| t.is_nan()))
}

/// Shared candidate-selection core of [`Strategy::Analytic`] and the
/// scalar curve minimizer: collapses the threshold grid onto distinct
/// splits and locates the local-minimum candidates on the curve — via warm
/// hill-descent when a hint is given, via the stride scan + sign-change
/// bisection ([`cold_minima`]) otherwise (also for a NaN hint, see
/// [`usable_warm`]). Returns the collapsed candidates, the chosen indices
/// (sorted, deduplicated), and the memo holding every curve total probed
/// along the way.
fn select_on_curve<'c>(
    curve: &'c dyn CurveEval,
    space: &ThresholdSpace,
    step: f64,
    warm: Option<f64>,
) -> (Vec<(f64, usize)>, Vec<usize>, CurveMemo<'c>) {
    let warm = warm.filter(|hint| !hint.is_nan());
    let cands = collapse_candidates(curve, space, step);
    let m = cands.len();
    let mut memo = CurveMemo::new(curve, &cands);
    let mut chosen: Vec<usize> = Vec::new();
    if m == 1 {
        chosen.push(0);
    } else if let Some(hint) = warm {
        // Warm start: hill-descend on the curve totals from the candidate
        // nearest the hint. Each right move strictly lowers the total and
        // each left move lowers the index without raising it, so the
        // lexicographic pair (total, index) strictly decreases — the walk
        // terminates on the lowest-index point of its local plateau,
        // matching the cold search's lowest-threshold tie-break. Starting
        // inside the cold argmin's basin therefore reproduces the cold
        // answer exactly; see `Searcher::warm_cuts` for the caveat when it
        // does not.
        let hs = curve.split_for(space.clamp(hint));
        let h = cands.partition_point(|&(_, s)| s < hs).min(m - 1);
        let mut j = h;
        loop {
            if j + 1 < m && memo.total(j + 1) < memo.total(j) {
                j += 1;
                continue;
            }
            if j > 0 && memo.total(j - 1) <= memo.total(j) {
                j -= 1;
                continue;
            }
            break;
        }
        chosen.push(j);
    } else {
        chosen = cold_minima(&mut memo, 0, m - 1);
    }
    (cands, chosen, memo)
}

/// A curve-level minimum located by [`minimize_curve`]: the argmin
/// threshold/split, the curve total there, and the probe count spent.
struct CurveMinimum {
    /// Argmin threshold (lowest threshold of its flat stretch — the same
    /// tie-break [`SearchOutcome::from_evals`] applies).
    threshold: f64,
    /// Split index the argmin threshold maps to.
    split: usize,
    /// Curve total at the argmin.
    total: SimTime,
    /// Curve-total probes spent (the analytic strategy's `grad_probes`
    /// currency).
    probes: usize,
}

/// Minimizes a cost curve directly — no workload evaluations, totals come
/// straight from [`CurveEval::total_at`]. The same candidate collapse and
/// warm/cold selection as [`Strategy::Analytic`]: with `warm`, hill-descend
/// from the hint (the drift-serving nudge path); without it, the stride
/// scan + bisection cold search. Among the surviving local minima the
/// lowest `(total, threshold)` wins, matching the exhaustive tie-break, so
/// a warm call started inside the cold argmin's basin returns the cold
/// answer exactly. This is the canonical-pair arm of
/// [`minimize_partition`].
fn minimize_curve(
    curve: &dyn CurveEval,
    space: &ThresholdSpace,
    step: f64,
    warm: Option<f64>,
) -> CurveMinimum {
    let (cands, chosen, mut memo) = select_on_curve(curve, space, step, warm);
    let mut best = chosen[0];
    let mut best_total = memo.total(best);
    for &i in &chosen[1..] {
        let t = memo.total(i);
        // Candidates are threshold-sorted, so strict `<` keeps the lowest
        // threshold on ties.
        if t < best_total {
            best = i;
            best_total = t;
        }
    }
    CurveMinimum {
        threshold: cands[best].0,
        split: cands[best].1,
        total: best_total,
        probes: memo.probes,
    }
}

/// A partition-level minimum located by [`minimize_partition`].
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionMinimum {
    /// Cut thresholds in threshold space, ascending (`k − 1` of them;
    /// each is the lowest threshold of its candidate's flat stretch).
    pub thresholds: Vec<f64>,
    /// The chosen partition over the curve's unit domain.
    pub partition: Partition,
    /// Priced total of the chosen partition.
    pub total: SimTime,
    /// Objective probes spent: scalar curve totals on the canonical pair,
    /// distinct cut vectors priced via [`CurveEval::partition_total`]
    /// otherwise.
    pub probes: usize,
    /// Coordinate-descent sweeps spent (0 on the canonical scalar path).
    pub sweeps: usize,
}

/// Coordinate descent gives up after this many full sweeps without
/// reaching a fixpoint. Accepted moves never increase the partition total
/// and strictly improve their coordinate's adjacent-band objective, so in
/// practice the search converges in a handful of sweeps; the cap bounds
/// the plateau walks where cuts rebalance under a flat makespan.
const MAX_CD_SWEEPS: usize = 32;

/// How many distinct cold-sweep winners the coordinate descent polishes.
/// Near-flat makespans can hide the global basin behind a neighbour that
/// prices marginally cheaper at the sweep's resolution, so the descent
/// runs from the best few basins and keeps the lowest `(total, cuts)`;
/// memoized pricing makes the overlap between their paths free.
const CD_SEEDS: usize = 3;

/// Memoized pricing for coordinate descent. `priced` keys are vectors of
/// candidate *indices* (not splits) valued by
/// [`CurveEval::partition_total`]; `pairs` memoizes the adjacent-band pair
/// objective by `(coordinate, band_lo, band_hi, split)` so re-visiting a
/// coordinate under the same neighbours — which every later sweep and
/// every overlapping seed does — costs nothing. `probes` counts distinct
/// pricings of either kind — the k-way analogue of the scalar search's
/// `grad_probes`.
struct CdMemo<'c> {
    curve: &'c dyn CurveEval,
    set: &'c DeviceSet,
    units: usize,
    splits_of: Vec<usize>,
    priced: IndexMap<Vec<usize>>,
    pairs: IndexMap<(usize, usize, usize, usize)>,
    probes: usize,
}

/// A memo of prices keyed by candidate indices and splits.
type IndexMap<K> = HashMap<K, SimTime, BuildHasherDefault<IndexHasher>>;

/// Multiply-rotate hasher for the descent memos. Their keys are indices
/// the search generates itself, so the default SipHash's resistance to
/// crafted collisions buys nothing, and on closed-form curves (gemm)
/// hashing was the largest cost of a memoized probe.
#[derive(Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl CdMemo<'_> {
    fn total(&mut self, cut_idx: &[usize]) -> Option<SimTime> {
        if let Some(&v) = self.priced.get(cut_idx) {
            return Some(v);
        }
        let cuts: Vec<usize> = cut_idx.iter().map(|&i| self.splits_of[i]).collect();
        let p = Partition::new(self.units, cuts);
        let v = self.curve.partition_total(self.set, &p)?;
        self.priced.insert(cut_idx.to_vec(), v);
        self.probes += 1;
        Some(v)
    }
}

/// One coordinate of the cut vector as a 1-D objective: the **max of the
/// two bands adjacent to the cut**, at candidate index `base + i`, the
/// neighbouring cuts held fixed. Moving a cut only changes those two
/// bands, so this is the exact coordinate subproblem of the makespan —
/// and unlike the full `max` over all bands it is not flat when the
/// slowest band lies elsewhere, which is what lets the descent walk out
/// of plateaus a whole-partition objective would strand it on. Lets
/// [`cold_minima`] — the exact scalar cold search — run over the bracket
/// the neighbouring cuts allow.
struct CoordMemo<'m, 'c> {
    cd: &'m mut CdMemo<'c>,
    /// Which cut this coordinate moves — fixes the device pair and keys
    /// the shared pair memo.
    coord: usize,
    left: Device,
    right: Device,
    /// Split where the left band starts (the previous cut, or 0).
    band_lo: usize,
    /// Split where the right band ends (the next cut, or `units`).
    band_hi: usize,
    base: usize,
}

impl TotalFn for CoordMemo<'_, '_> {
    fn total(&mut self, i: usize) -> SimTime {
        let s = self.cd.splits_of[self.base + i];
        let key = (self.coord, self.band_lo, self.band_hi, s);
        if let Some(&v) = self.cd.pairs.get(&key) {
            return v;
        }
        let msg = "curve priced the seed partition but declined a band";
        let l = self
            .cd
            .curve
            .device_band(&self.left, self.band_lo, s)
            .expect(msg);
        let r = self
            .cd
            .curve
            .device_band(&self.right, s, self.band_hi)
            .expect(msg);
        self.cd.probes += 1;
        let v = l.max(r);
        self.cd.pairs.insert(key, v);
        v
    }
}

/// Minimizes a cost curve over a k-way [`DeviceSet`] — the partition-vector
/// generalization of the scalar curve minimizer.
///
/// * The **canonical CPU+GPU pair** routes through the scalar cold/warm
///   search on [`CurveEval::total_at`] — the returned cut and total are
///   bitwise those of the scalar [`Strategy::Analytic`] search over the
///   same grid, for *every* curve (including ones that do not price
///   bands), and so is the probe count whenever the grid holds more than
///   one candidate.
/// * Any **other set** runs coordinate descent on the curve's band
///   prices: cut points live on the same collapsed candidate grid as the
///   scalar search, and each coordinate solves its *exact* subproblem —
///   the max of the two bands adjacent to the cut, the only bands the cut
///   touches — with the scalar cold search (`cold_minima`) over the
///   bracket its neighbours allow. A move commits only if the full
///   [`CurveEval::partition_total`] does not regress, so the makespan is
///   non-increasing sweep over sweep; ties break toward lower cuts,
///   matching the scalar lowest-threshold tie-break. Sweeps repeat to a
///   fixpoint (capped), and a final plateau walk lowers each cut while
///   the makespan holds bitwise, so equal-cost argmins resolve to the
///   lexicographically lowest cut vector — the same answer an exhaustive
///   enumeration's keep-first rule produces. The descent seeds from
///   `warm` when it supplies all `k − 1` cuts, none of them NaN (the
///   serving path); cold, it prices every non-decreasing
///   cut tuple on a *coarse* sub-grid — the k-way analogue of the scalar
///   coarse-to-fine pass, with the speed-proportional Lagrangian split
///   joining the pool — and descends from the best few basins
///   (`CD_SEEDS` of them), which keeps it out of the local minima a
///   single-seed descent can fall into. Returns `None` when the curve
///   does not price device bands.
#[must_use]
pub fn minimize_partition(
    curve: &dyn CurveEval,
    set: &DeviceSet,
    space: &ThresholdSpace,
    step: f64,
    warm: Option<&[f64]>,
) -> Option<PartitionMinimum> {
    let units = curve
        .splits()
        .checked_sub(1)
        .expect("a curve exposes at least one split");
    let warm = usable_warm(warm);
    if set.is_canonical_pair() {
        let m = minimize_curve(curve, space, step, warm.and_then(|c| c.first().copied()));
        return Some(PartitionMinimum {
            thresholds: vec![m.threshold],
            partition: Partition::two_way(units, m.split),
            total: m.total,
            probes: m.probes,
            sweeps: 0,
        });
    }

    let cands = collapse_candidates(curve, space, step);
    let m = cands.len();
    let k = set.len();
    let kc = k - 1;
    // Snap a target split to its candidate index — the same
    // partition-point rule the scalar warm start uses.
    let snap = |s: usize| cands.partition_point(|&(_, c)| c < s).min(m - 1);
    let nondecreasing = |mut v: Vec<usize>| {
        for j in 1..v.len() {
            v[j] = v[j].max(v[j - 1]);
        }
        v
    };
    // Speed-proportional split: the Lagrangian balance point under
    // uniform per-unit work. Transfer-bound inputs can sit far from it,
    // so it is only ever a seed, never the answer.
    let proportional = nondecreasing(
        Partition::proportional(units, &set.weights(0.5))
            .cuts()
            .iter()
            .map(|&c| snap(c))
            .collect(),
    );

    let mut cd = CdMemo {
        curve,
        set,
        units,
        splits_of: cands.iter().map(|&(_, s)| s).collect(),
        priced: IndexMap::default(),
        pairs: IndexMap::default(),
        probes: 0,
    };
    // Scalar-only curves decline the probe here and the search reports
    // "unsupported" instead of panicking mid-descent.
    cd.total(&proportional)?;

    let seeds: Vec<Vec<usize>> = match warm {
        Some(ts) if ts.len() == kc => vec![nondecreasing(
            ts.iter()
                .map(|&t| snap(curve.split_for(space.clamp(t))))
                .collect(),
        )],
        _ => {
            // Cold: sweep every non-decreasing cut tuple on a coarse
            // sub-grid of the candidates and keep the best few basins.
            // Tuple counts are combinatorial in k, so the sub-grid thins
            // as arity grows.
            let g = match kc {
                0..=3 => 8,
                4..=5 => 6,
                _ => 5,
            };
            let stride = m.div_ceil(g).max(1);
            let mut pts: Vec<usize> = (0..m).step_by(stride).collect();
            if *pts.last().expect("grid is non-empty") != m - 1 {
                pts.push(m - 1);
            }
            let mut pool = vec![(
                cd.total(&proportional).expect("already priced"),
                proportional.clone(),
            )];
            let mut odo = vec![0usize; kc];
            loop {
                let tuple: Vec<usize> = odo.iter().map(|&i| pts[i]).collect();
                let t = cd.total(&tuple).expect("already priced the seed");
                pool.push((t, tuple));
                let mut advanced = false;
                for j in (0..kc).rev() {
                    if odo[j] + 1 < pts.len() {
                        odo[j] += 1;
                        let v = odo[j];
                        for slot in odo.iter_mut().skip(j + 1) {
                            *slot = v;
                        }
                        advanced = true;
                        break;
                    }
                }
                if !advanced {
                    break;
                }
            }
            // `(total, cuts)` order keeps the lowest cuts first on ties,
            // matching the exhaustive tie-break.
            pool.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let mut seeds: Vec<Vec<usize>> = Vec::new();
            for (_, s) in pool {
                if seeds.len() == CD_SEEDS {
                    break;
                }
                if !seeds.contains(&s) {
                    seeds.push(s);
                }
            }
            seeds
        }
    };

    let mut best: Option<(SimTime, Vec<usize>)> = None;
    let mut sweeps_spent = 0;
    for seed in seeds {
        let mut cut_idx = seed;
        let mut sweeps = 0;
        while sweeps < MAX_CD_SWEEPS {
            sweeps += 1;
            let mut moved = false;
            for j in 0..kc {
                let lo = if j == 0 { 0 } else { cut_idx[j - 1] };
                let hi = if j == kc - 1 { m - 1 } else { cut_idx[j + 1] };
                let devices = set.devices();
                let mut coord = CoordMemo {
                    coord: j,
                    band_lo: if j == 0 {
                        0
                    } else {
                        cd.splits_of[cut_idx[j - 1]]
                    },
                    band_hi: if j == kc - 1 {
                        units
                    } else {
                        cd.splits_of[cut_idx[j + 1]]
                    },
                    left: devices[j],
                    right: devices[j + 1],
                    cd: &mut cd,
                    base: lo,
                };
                let cur_pair = coord.total(cut_idx[j] - lo);
                let chosen = cold_minima(&mut coord, 0, hi - lo);
                let mut best_rel = chosen[0];
                let mut best_pair = coord.total(best_rel);
                for &c in &chosen[1..] {
                    let t = coord.total(c);
                    // Chosen indices ascend, so strict `<` keeps the lowest
                    // cut on ties.
                    if t < best_pair {
                        best_rel = c;
                        best_pair = t;
                    }
                }
                let next = lo + best_rel;
                let improves = best_pair < cur_pair || (best_pair == cur_pair && next < cut_idx[j]);
                if improves && next != cut_idx[j] {
                    // A pair improvement can still lose globally when the
                    // merge cost depends on where the cuts sit — check the
                    // full total before committing.
                    let current = cd.total(&cut_idx).expect("already priced");
                    let mut candidate = cut_idx.clone();
                    candidate[j] = next;
                    let candidate_total = cd
                        .total(&candidate)
                        .expect("curve priced the seed partition but declined a band");
                    if candidate_total <= current {
                        cut_idx = candidate;
                        moved = true;
                    }
                }
            }
            if !moved {
                // Per-coordinate fixpoint. Single-cut moves cannot shift work
                // *through* a band (growing one neighbour to relieve the one
                // beyond it), so before giving up, try shifting every
                // contiguous block of cuts one candidate step left or right —
                // re-clamped to non-decreasing, which cancels the part of a
                // shift that would cross a neighbour — committing the first
                // strict global improvement, then let the descent re-polish.
                // This subsumes the prefix/suffix cascades around a bottleneck
                // band and also reaches joint moves like "both cuts left of
                // the fast device step down together". Leftward shifts go
                // first so an improving escape lands on the lower cuts,
                // matching the lexicographic tie-break everywhere else.
                let msg = "curve priced the seed partition but declined a band";
                let current = cd.total(&cut_idx).expect("already priced");
                let mut escaped = false;
                'blocks: for leftward in [true, false] {
                    for i in 0..kc {
                        for j in i..kc {
                            let mut candidate = cut_idx.clone();
                            if leftward {
                                for c in &mut candidate[i..=j] {
                                    *c = c.saturating_sub(1);
                                }
                                for l in 1..kc {
                                    candidate[l] = candidate[l].max(candidate[l - 1]);
                                }
                            } else {
                                for c in &mut candidate[i..=j] {
                                    *c = (*c + 1).min(m - 1);
                                }
                                for l in (0..kc.saturating_sub(1)).rev() {
                                    candidate[l] = candidate[l].min(candidate[l + 1]);
                                }
                            }
                            if candidate == cut_idx {
                                continue;
                            }
                            if cd.total(&candidate).expect(msg) < current {
                                cut_idx = candidate;
                                escaped = true;
                                break 'blocks;
                            }
                        }
                    }
                }
                if !escaped {
                    break;
                }
            }
        }

        sweeps_spent += sweeps;
        let total = cd.total(&cut_idx).expect("already priced");
        let better = match &best {
            None => true,
            Some((bt, bc)) => total < *bt || (total == *bt && cut_idx < *bc),
        };
        if better {
            best = Some((total, cut_idx));
        }
    }
    let (total, mut cut_idx) = best.expect("at least one seed descended");

    // The exhaustive oracle keeps the lexicographically lowest cuts among
    // equal-makespan argmins, but the descent only lowers a cut when its
    // *pair* objective allows it — which can strand the winner on a
    // plateau where a worse-balanced yet lex-lower vector prices the same
    // makespan (the only thing served). Walk each cut down, left to
    // right, while the full total holds bitwise; one pass suffices
    // because a cut's lower bound is its already-finalized left
    // neighbour.
    for j in 0..kc {
        while cut_idx[j] > if j == 0 { 0 } else { cut_idx[j - 1] } {
            let mut candidate = cut_idx.clone();
            candidate[j] -= 1;
            let t = cd
                .total(&candidate)
                .expect("curve priced the seed partition but declined a band");
            if t != total {
                break;
            }
            cut_idx = candidate;
        }
    }

    let cuts: Vec<usize> = cut_idx.iter().map(|&i| cands[i].1).collect();
    Some(PartitionMinimum {
        thresholds: cut_idx.iter().map(|&i| cands[i].0).collect(),
        partition: Partition::new(units, cuts),
        total,
        probes: cd.probes,
        sweeps: sweeps_spent,
    })
}

/// Subgradient descent on the cost curve: the candidate grid collapses
/// onto distinct splits, a stride scan of the adjacent-candidate
/// subgradient sign finds every descending→ascending bracket, and each
/// bracket bisects to a local minimum in O(log) probes. Only the surviving
/// candidates (plus descending/ascending boundary ends) are evaluated as
/// real candidates through the profiled workload.
fn analytic_impl<W: Profilable>(
    w: &W,
    pw: &ProfiledWorkload<'_, W>,
    step: f64,
    warm: Option<f64>,
    rec: &Recorder,
    pool: &Pool,
) -> SearchOutcome {
    let curve = w
        .curve(pw.profile())
        .expect("workload exposes no cost curve; use a profile-free strategy");
    let space = w.space();
    let (cands, chosen, memo) = select_on_curve(curve.as_ref(), &space, step, warm);

    let thresholds: Vec<f64> = chosen.iter().map(|&i| cands[i].0).collect();
    let mut out = SearchOutcome::from_evals(eval_grid(pw, &thresholds, rec, pool));
    out.grad_probes = memo.probes;
    if rec.is_enabled() {
        rec.counter_add("search.grad_probes", memo.probes as u64);
    }
    out
}

/// Tolerant equality for grid membership: two candidates are the same when
/// they share a quantized threshold bucket (absolute 1e-9 resolution for
/// linear spaces, relative 1e-6 for logarithmic ones — see
/// [`crate::evalcache::quantize`]). This is the *same* definition the
/// profiled evaluation cache keys on, so strategy-level dedup and cache
/// hits can never disagree about which candidates are distinct.
fn close(a: f64, b: f64, space: &ThresholdSpace) -> bool {
    quantize(a, space) == quantize(b, space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbwp_sim::{RunBreakdown, RunReport};

    fn test_platform() -> &'static nbwp_sim::Platform {
        static P: std::sync::OnceLock<nbwp_sim::Platform> = std::sync::OnceLock::new();
        P.get_or_init(nbwp_sim::Platform::k40c_xeon_e5_2650)
    }
    /// A synthetic workload with a V-shaped time curve minimized at `opt`.
    struct Valley {
        opt: f64,
        space: ThresholdSpace,
    }

    impl Valley {
        fn report(&self, t: f64) -> RunReport {
            let cost = 1.0 + (t - self.opt).abs() / 100.0;
            RunReport {
                breakdown: RunBreakdown {
                    cpu_compute: SimTime::from_millis(cost),
                    ..RunBreakdown::default()
                },
                ..RunReport::default()
            }
        }
    }

    impl PartitionedWorkload for Valley {
        fn platform(&self) -> &nbwp_sim::Platform {
            test_platform()
        }
        fn run(&self, t: f64) -> RunReport {
            self.report(t)
        }
        fn space(&self) -> ThresholdSpace {
            self.space
        }
        fn size(&self) -> usize {
            1000
        }
    }

    /// Curve view of the valley: splits are whole-percent thresholds.
    struct ValleyCurve<'a>(&'a Valley);

    impl CurveEval for ValleyCurve<'_> {
        fn splits(&self) -> usize {
            101
        }
        fn split_for(&self, t: f64) -> usize {
            (t.clamp(0.0, 100.0).round()) as usize
        }
        fn total_at(&self, split: usize) -> SimTime {
            self.0.report(split as f64).total()
        }
    }

    impl Profilable for Valley {
        type Profile = ();
        fn build_profile(&self, _pool: &Pool) {}
        fn run_profiled(&self, (): &(), t: f64) -> RunReport {
            // Quantize to the grid the curve view exposes.
            self.report(t.clamp(0.0, 100.0).round())
        }
        fn curve<'p>(&'p self, (): &'p ()) -> Option<Box<dyn CurveEval + 'p>> {
            Some(Box::new(ValleyCurve(self)))
        }
    }

    fn valley(opt: f64) -> Valley {
        Valley {
            opt,
            space: ThresholdSpace::percentage(),
        }
    }

    #[test]
    fn from_evals_breaks_simtime_ties_toward_the_lowest_threshold() {
        // Regression: the winner must be a property of the evaluated set,
        // not of evaluation order, or parallel evaluation could flip it.
        let tie = SimTime::from_millis(5.0);
        let lo = SimTime::from_millis(1.0);
        let evals = vec![(70.0, tie), (10.0, lo), (30.0, tie), (5.0, lo)];
        let mut reversed = evals.clone();
        reversed.reverse();
        for log in [evals, reversed] {
            let out = SearchOutcome::from_evals(log);
            assert_eq!(out.best_t, 5.0);
            assert_eq!(out.best_time, lo);
        }
    }

    #[test]
    fn exhaustive_finds_the_optimum() {
        let w = valley(37.0);
        let out = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&w);
        assert_eq!(out.best_t, 37.0);
        assert_eq!(out.evaluations(), 101);
    }

    #[test]
    fn default_step_is_the_fine_step() {
        let w = valley(37.0);
        let explicit = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&w);
        let default = Searcher::new(Strategy::Exhaustive { step: None }).run(&w);
        assert_eq!(explicit, default);
    }

    #[test]
    fn coarse_to_fine_finds_the_optimum_with_far_fewer_evals() {
        let w = valley(37.0);
        let out = Searcher::new(Strategy::CoarseToFine).run(&w);
        assert_eq!(out.best_t, 37.0);
        assert!(
            out.evaluations() < 35,
            "coarse-to-fine used {} evals",
            out.evaluations()
        );
    }

    #[test]
    fn race_then_fine_lands_near_optimum_for_balanced_valley() {
        // Valley at 50: the race estimate (equal device times) is 50 here
        // because the synthetic cost is symmetric.
        let w = valley(50.0);
        let out = Searcher::new(Strategy::RaceThenFine).run(&w);
        assert!((out.best_t - 50.0).abs() <= 8.0, "best = {}", out.best_t);
    }

    #[test]
    fn gradient_descent_converges_on_unimodal_curve() {
        let w = valley(62.0);
        let out = Searcher::new(Strategy::GradientDescent { max_evals: 40 }).run(&w);
        assert!(
            (out.best_t - 62.0).abs() <= 2.0,
            "gradient descent found {}",
            out.best_t
        );
        assert!(out.evaluations() <= 40);
    }

    #[test]
    fn gradient_descent_respects_eval_budget() {
        let w = valley(10.0);
        let out = Searcher::new(Strategy::GradientDescent { max_evals: 5 }).run(&w);
        assert!(out.evaluations() <= 5);
    }

    #[test]
    fn search_cost_is_sum_of_evals() {
        let w = valley(20.0);
        let out = Searcher::new(Strategy::CoarseToFine).run(&w);
        let sum: SimTime = out.evals.iter().map(|&(_, t)| t).sum();
        assert_eq!(out.search_cost, sum);
        assert!(out.search_cost > out.best_time);
    }

    #[test]
    fn analytic_matches_exhaustive_with_far_fewer_evals() {
        for opt in [0.0, 13.0, 37.0, 62.0, 99.0, 100.0] {
            let w = valley(opt);
            let exh = Searcher::new(Strategy::Exhaustive { step: None })
                .profiled()
                .run(&w);
            let ana = Searcher::new(Strategy::Analytic { step: None })
                .profiled()
                .run(&w);
            assert_eq!(ana.best_t, exh.best_t, "opt {opt}");
            assert_eq!(ana.best_time, exh.best_time, "opt {opt}");
            assert!(
                ana.evaluations() <= 4,
                "opt {opt}: {} evals",
                ana.evaluations()
            );
            assert!(ana.grad_probes > 0 && ana.grad_probes < 101);
        }
    }

    #[test]
    fn analytic_records_probe_counter() {
        let w = valley(42.0);
        let rec = Recorder::new();
        let out = Searcher::new(Strategy::Analytic { step: None })
            .recorder(&rec)
            .profiled()
            .run(&w);
        let trace = rec.finish();
        assert_eq!(
            trace.metrics.counter("search.grad_probes"),
            Some(out.grad_probes as u64)
        );
        assert_eq!(
            trace.metrics.counter("search.evaluations"),
            Some(out.evaluations() as u64)
        );
        assert_eq!(trace.metrics.counter("profile.builds"), Some(1));
    }

    #[test]
    #[should_panic(expected = "analytic search prices splits from a cost profile")]
    fn analytic_requires_profiled() {
        let w = valley(42.0);
        let _ = Searcher::new(Strategy::Analytic { step: None }).run(&w);
    }

    #[test]
    fn strategy_parses_by_name() {
        assert_eq!(
            "exhaustive".parse::<Strategy>(),
            Ok(Strategy::Exhaustive { step: None })
        );
        assert_eq!(
            "coarse-to-fine".parse::<Strategy>(),
            Ok(Strategy::CoarseToFine)
        );
        assert_eq!(
            "race_then_fine".parse::<Strategy>(),
            Ok(Strategy::RaceThenFine)
        );
        assert_eq!(
            "gradient_descent".parse::<Strategy>(),
            Ok(Strategy::GradientDescent {
                max_evals: DEFAULT_GRADIENT_EVALS
            })
        );
        assert_eq!(
            "analytic".parse::<Strategy>(),
            Ok(Strategy::Analytic { step: None })
        );
        let err = "simulated_annealing".parse::<Strategy>().unwrap_err();
        assert!(err.to_string().contains("simulated_annealing"));
    }

    #[test]
    fn logarithmic_space_searches() {
        struct LogValley;
        impl PartitionedWorkload for LogValley {
            fn platform(&self) -> &nbwp_sim::Platform {
                test_platform()
            }
            fn run(&self, t: f64) -> RunReport {
                // Minimum at t = 64 on a log scale.
                let cost = 1.0 + (t.ln() - 64.0f64.ln()).abs();
                RunReport {
                    breakdown: RunBreakdown {
                        cpu_compute: SimTime::from_millis(cost),
                        ..RunBreakdown::default()
                    },
                    ..RunReport::default()
                }
            }
            fn space(&self) -> ThresholdSpace {
                ThresholdSpace::degrees(1.0, 4096.0)
            }
            fn size(&self) -> usize {
                4096
            }
        }
        let out = Searcher::new(Strategy::CoarseToFine).run(&LogValley);
        assert!(
            (out.best_t / 64.0 - 1.0).abs() < 0.2,
            "log search found {}",
            out.best_t
        );
        let gd = Searcher::new(Strategy::GradientDescent { max_evals: 40 }).run(&LogValley);
        assert!(
            (gd.best_t / 64.0 - 1.0).abs() < 0.3,
            "gradient descent found {}",
            gd.best_t
        );
    }

    /// The canonical-pair arm against an independent oracle: the scalar
    /// analytic search through the profiled workload, cold and warm.
    #[test]
    fn minimize_partition_on_the_canonical_pair_is_minimize_curve_bitwise() {
        let w = valley(37.0);
        let curve = ValleyCurve(&w);
        let space = w.space();
        for warm in [None, Some(61.0)] {
            let warm_buf = warm.map(|h| [h]);
            let warm_cuts = warm_buf.as_ref().map(<[f64; 1]>::as_slice);
            let mut searcher = Searcher::new(Strategy::Analytic { step: Some(1.0) });
            if let Some(cuts) = warm_cuts {
                searcher = searcher.warm_cuts(cuts);
            }
            let scalar = searcher.profiled().run(&w);
            let part =
                minimize_partition(&curve, DeviceSet::cpu_gpu_static(), &space, 1.0, warm_cuts)
                    .expect("the canonical pair prices every curve");
            assert_eq!(part.thresholds.len(), 1);
            assert_eq!(part.thresholds[0].to_bits(), scalar.best_t.to_bits());
            assert_eq!(part.partition.cuts(), &[curve.split_for(scalar.best_t)]);
            assert_eq!(part.total, scalar.best_time);
            assert_eq!(part.probes, scalar.grad_probes);
            assert_eq!(part.sweeps, 0);
        }
    }

    #[test]
    fn minimize_partition_declines_scalar_only_curves() {
        // ValleyCurve never implements device_band, so a non-canonical set
        // has nothing to price bands with — the search reports that
        // instead of panicking.
        let w = valley(37.0);
        let curve = ValleyCurve(&w);
        let set = nbwp_sim::DeviceSet::dual_cpu_dual_gpu();
        assert!(minimize_partition(&curve, &set, &w.space(), 1.0, None).is_none());
    }

    /// A band-priceable synthetic curve over 40 units: unit `u` costs
    /// `1 + (u mod 7)` ms, a device runs a band at its relative speed, and
    /// GPU-class devices pay a flat per-unit link toll. `total_at` prices
    /// the canonical pair at the same cut, keeping the scalar and banded
    /// views of the curve consistent.
    struct BandCurve;

    const BAND_UNITS: usize = 40;

    impl BandCurve {
        fn band_ms(lo: usize, hi: usize) -> f64 {
            (lo..hi).map(|u| 1.0 + (u % 7) as f64).sum()
        }

        fn space() -> ThresholdSpace {
            ThresholdSpace {
                lo: 0.0,
                hi: BAND_UNITS as f64,
                coarse_step: 8.0,
                fine_step: 1.0,
                logarithmic: false,
            }
        }
    }

    impl CurveEval for BandCurve {
        fn splits(&self) -> usize {
            BAND_UNITS + 1
        }
        fn split_for(&self, t: f64) -> usize {
            t.clamp(0.0, BAND_UNITS as f64).round() as usize
        }
        fn total_at(&self, split: usize) -> SimTime {
            let cpu = self
                .device_band(&nbwp_sim::Device::cpu(), 0, split)
                .expect("band curve prices every band");
            let gpu = self
                .device_band(&nbwp_sim::Device::gpu(), split, BAND_UNITS)
                .expect("band curve prices every band");
            cpu.max(gpu)
        }
        fn device_band(&self, device: &nbwp_sim::Device, lo: usize, hi: usize) -> Option<SimTime> {
            let compute = device.scale(SimTime::from_millis(Self::band_ms(lo, hi)));
            let toll = match device.kind {
                nbwp_sim::DeviceKind::Cpu => SimTime::ZERO,
                nbwp_sim::DeviceKind::Gpu => SimTime::from_millis(0.05 * (hi - lo) as f64),
            };
            Some(compute + toll)
        }
    }

    #[test]
    fn coordinate_descent_matches_exhaustive_enumeration_on_a_band_curve() {
        let curve = BandCurve;
        let space = BandCurve::space();
        let set = nbwp_sim::DeviceSet::dual_cpu_dual_gpu();
        let k = set.len();

        let cd = minimize_partition(&curve, &set, &space, 1.0, None)
            .expect("band curve prices every band");
        assert_eq!(cd.thresholds.len(), k - 1);
        assert_eq!(cd.partition.arity(), k);
        assert!(cd.sweeps >= 1);

        // Exhaustive oracle: every non-decreasing cut triple on the unit
        // grid, lexicographic order with strict `<` so ties keep the
        // lowest cuts.
        let mut best: Option<(SimTime, Vec<usize>)> = None;
        let mut enumerated = 0usize;
        for a in 0..=BAND_UNITS {
            for b in a..=BAND_UNITS {
                for c in b..=BAND_UNITS {
                    let p = Partition::new(BAND_UNITS, vec![a, b, c]);
                    let total = curve
                        .partition_total(&set, &p)
                        .expect("band curve prices every band");
                    enumerated += 1;
                    if best.as_ref().is_none_or(|(t, _)| total < *t) {
                        best = Some((total, vec![a, b, c]));
                    }
                }
            }
        }
        let (best_total, best_cuts) = best.expect("grid is non-empty");
        assert_eq!(cd.total, best_total, "descent missed the global argmin");
        assert_eq!(cd.partition.cuts(), &best_cuts[..]);
        assert!(
            cd.probes * 5 <= enumerated,
            "coordinate descent spent {} probes vs {} exhaustive pricings",
            cd.probes,
            enumerated
        );
    }

    #[test]
    fn run_partition_lifts_the_scalar_outcome_on_the_canonical_pair() {
        let w = valley(37.0);
        let scalar = Searcher::new(Strategy::Analytic { step: None })
            .profiled()
            .run(&w);
        let out = Searcher::new(Strategy::Analytic { step: None })
            .profiled()
            .run_partition(&w, DeviceSet::cpu_gpu_static());
        assert_eq!(out.cuts, vec![scalar.best_t]);
        assert_eq!(out.total, scalar.best_time);
        assert_eq!(out.probes, scalar.grad_probes);
        assert_eq!(out.scalar.as_ref(), Some(&scalar));
        let p = out.partition.expect("valley exposes a curve");
        assert_eq!(p.arity(), 2);
        assert_eq!(out.fractions.len(), 2);
        let total_frac: f64 = out.fractions.iter().sum();
        assert!((total_frac - 1.0).abs() < 1e-12);
    }
}
