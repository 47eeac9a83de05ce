//! The sampling-based threshold estimator — the paper's contribution,
//! assembling Sample → Identify → Extrapolate into one call.
//!
//! [`Estimator`] is the configured entry point: pick a [`Strategy`],
//! optionally set the sample spec, seed, repeat count, recorder, and pool,
//! then [`Estimator::run`] (the direct reference: every candidate is a
//! real run of the sample) or [`Estimator::profiled`]`().run(…)` (the
//! Identify step priced through a cost profile of the sample, bitwise
//! equal). Serving — the threshold cache, batch dedup, audit, and k-way
//! partitions — lives on [`ProfiledEstimator`] only.
//!
//! ```
//! use nbwp_core::prelude::*;
//! use nbwp_graph::gen;
//!
//! let w = CcWorkload::new(gen::web(4_000, 6, 42), Platform::k40c_xeon_e5_2650());
//! let est = Estimator::new(Strategy::CoarseToFine).seed(7).run(&w);
//! assert!((0.0..=100.0).contains(&est.threshold));
//! ```

use std::collections::HashMap;
use std::time::Instant;

use nbwp_par::Pool;
use nbwp_sim::{DeviceSet, SimTime};
use nbwp_trace::{ArgValue, AuditEvent, CacheDecision, FlightRecorder, Recorder};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::fingerprint::Fingerprinted;
use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable};
use crate::profile::Profilable;
use crate::search::{PartitionOutcome, SearchOutcome, Searcher, Strategy};
use crate::threshold_cache::{CacheKey, ConfigKey, NearCacheKey, PartitionNearKey, ThresholdCache};

/// Default shadow-regret sampling rate: every 16th near-key warm hit also
/// runs the cold path and prices both decisions on the full input (see
/// [`Estimator::shadow_rate`]). Chosen so the steady-state serving cost
/// stays within the bounded-overhead contract (exact hits never shadow).
pub const DEFAULT_SHADOW_RATE: f64 = 1.0 / 16.0;

/// Which Identify strategy (§II Step 2) to run on the sampled input.
///
/// This is the *serializable config-file subset* of [`Strategy`] —
/// experiment configs deserialize it, and [`From`] lifts it into the full
/// strategy enum (which adds the analytic subgradient search and explicit
/// step overrides).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IdentifyStrategy {
    /// Coarse stride then fine stride (the paper's CC choice: 8 → 1).
    CoarseToFine,
    /// Device-race rough split then fine search (the paper's spmm choice).
    RaceThenFine,
    /// Discrete hill climbing (the paper's scale-free choice) with an
    /// evaluation budget.
    GradientDescent {
        /// Maximum candidate evaluations.
        max_evals: usize,
    },
    /// Exhaustive search on the sample (upper bound on identify quality).
    Exhaustive,
}

impl IdentifyStrategy {
    /// Stable snake_case name, used as a span argument in traces.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            IdentifyStrategy::CoarseToFine => "coarse_to_fine",
            IdentifyStrategy::RaceThenFine => "race_then_fine",
            IdentifyStrategy::GradientDescent { .. } => "gradient_descent",
            IdentifyStrategy::Exhaustive => "exhaustive",
        }
    }
}

impl From<IdentifyStrategy> for Strategy {
    fn from(s: IdentifyStrategy) -> Strategy {
        match s {
            IdentifyStrategy::CoarseToFine => Strategy::CoarseToFine,
            IdentifyStrategy::RaceThenFine => Strategy::RaceThenFine,
            IdentifyStrategy::GradientDescent { max_evals } => {
                Strategy::GradientDescent { max_evals }
            }
            IdentifyStrategy::Exhaustive => Strategy::Exhaustive { step: None },
        }
    }
}

/// Result of one sampling-based estimation.
#[derive(Clone, Debug, PartialEq)]
pub struct SamplingEstimate {
    /// The threshold recommended for the *full* input (after extrapolation).
    pub threshold: f64,
    /// The best threshold found on the sample (before extrapolation).
    pub sample_threshold: f64,
    /// Simulated cost of the whole estimation: sample construction plus
    /// every run on the sampled input — the paper's "Overhead" column.
    pub overhead: SimTime,
    /// Number of candidate runs performed on the sample.
    pub evaluations: usize,
    /// Sample problem size (rows / vertices).
    pub sample_size: usize,
    /// O(1) curve-total probes spent by [`Strategy::Analytic`] locating its
    /// candidates (0 for every other strategy; summed across repeats). Warm
    /// starts show up here as measurably fewer probes.
    pub grad_probes: usize,
}

/// Configured Sample → Identify → Extrapolate pipeline (builder style).
///
/// Defaults: the paper's sample spec ([`SampleSpec::default`]), seed `0`,
/// one repeat, no tracing, the global pool. With `repeats > 1` the
/// estimator runs that many independent estimations on independent samples
/// (seeds `seed..seed + repeats`) concurrently and returns the
/// median-threshold estimate with overheads and evaluation counts summed —
/// per-repeat tracing is disabled because the recorder is single-threaded.
#[derive(Copy, Clone)]
pub struct Estimator<'a> {
    strategy: Strategy,
    spec: SampleSpec,
    seed: u64,
    repeats: usize,
    rec: Option<&'a Recorder>,
    pool: Option<&'a Pool>,
    cache: Option<&'a ThresholdCache>,
    audit: Option<&'a FlightRecorder>,
    shadow_rate: f64,
    devices: Option<&'a DeviceSet>,
}

impl<'a> Estimator<'a> {
    /// An estimator running `strategy` on the sample, with defaults for
    /// everything else.
    #[must_use]
    pub fn new(strategy: Strategy) -> Self {
        Estimator {
            strategy,
            spec: SampleSpec::default(),
            seed: 0,
            repeats: 1,
            rec: None,
            pool: None,
            cache: None,
            audit: None,
            shadow_rate: DEFAULT_SHADOW_RATE,
            devices: None,
        }
    }

    /// Declares the device topology the estimate is destined for (default:
    /// the canonical CPU+GPU pair). This widens the cache key — estimates
    /// for different topologies never alias — but does **not** change the
    /// estimation itself, which stays the scalar canonical-pair pipeline;
    /// k-way cut search runs on the full input via
    /// [`ProfiledSearcher::run_partition`](crate::search::ProfiledSearcher::run_partition).
    #[must_use]
    pub fn devices(mut self, set: &'a DeviceSet) -> Self {
        self.devices = Some(set);
        self
    }

    /// The configuration component of this estimator's cache key.
    fn config_key(&self) -> ConfigKey {
        ConfigKey::with_devices(
            self.strategy,
            self.spec,
            self.seed,
            self.repeats,
            self.devices.unwrap_or(DeviceSet::cpu_gpu_static()),
        )
    }

    /// Attaches a [`FlightRecorder`]: the serving paths
    /// ([`ProfiledEstimator::run_cached`], [`ProfiledEstimator::run_batch`]
    /// and [`ProfiledEstimator::run_partition_cached`]) record one
    /// [`AuditEvent`] per request — fingerprint digest, cache decision,
    /// chosen threshold, work counts, simulated cost, and (stride-sampled)
    /// wall-clock latency. The recorder never changes what is returned:
    /// audited runs produce bitwise-identical estimates. The plain `run`
    /// methods are not serving paths and record nothing.
    #[must_use]
    pub fn audit(mut self, audit: &'a FlightRecorder) -> Self {
        self.audit = Some(audit);
        self
    }

    /// Sets the shadow-regret sampling rate (default
    /// [`DEFAULT_SHADOW_RATE`]). On that fraction of near-key warm hits the
    /// profiled serving path *also* runs the cold pipeline, prices both
    /// thresholds on the full input, and records the observed regret into
    /// the attached [`ThresholdCache`] (surfaced as the
    /// `threshold_cache.regret_pct` histogram). The caller still receives
    /// the warm-path estimate, bitwise; `0.0` disables shadowing.
    #[must_use]
    pub fn shadow_rate(mut self, rate: f64) -> Self {
        self.shadow_rate = rate;
        self
    }

    /// Attaches a [`ThresholdCache`]: the [`ProfiledEstimator`] serving
    /// paths consult it before sampling and insert every freshly computed
    /// decision. (The plain `run` methods never touch the cache.)
    #[must_use]
    pub fn cache(mut self, cache: &'a ThresholdCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the sample-size spec (Step 1).
    #[must_use]
    pub fn spec(mut self, spec: SampleSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the sampling seed. Everything downstream of Step 1 is
    /// deterministic.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Estimates on `repeats` independent samples and returns the
    /// median-threshold estimate (§II: miniature runs are cheap enough to
    /// repeat). Overheads and evaluation counts are summed.
    ///
    /// # Panics
    /// Panics if `repeats == 0`.
    #[must_use]
    pub fn repeats(mut self, repeats: usize) -> Self {
        assert!(repeats > 0, "need at least one repeat");
        self.repeats = repeats;
        self
    }

    /// Traces the pipeline into `rec`: an `estimate` span containing
    /// `sample` (duration = sample construction cost), `identify`
    /// (duration = search cost, one `identify.eval` child per candidate
    /// run), and `extrapolate` (instantaneous — pure arithmetic), plus the
    /// `sample.rate` and `search.cost_ms` gauges. Ignored when
    /// `repeats > 1` (repeats run concurrently).
    #[must_use]
    pub fn recorder(mut self, rec: &'a Recorder) -> Self {
        self.rec = Some(rec);
        self
    }

    /// Runs the Identify search on an explicit worker pool (see
    /// [`crate::search`] for the determinism contract: the pool changes
    /// wall-clock time only).
    #[must_use]
    pub fn pool(mut self, pool: &'a Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Prices the Identify step through a cost profile of the sample (see
    /// [`crate::profile::ProfiledWorkload`]). The estimate is **identical**
    /// — profiled pricing is bitwise-exact — but each candidate costs
    /// O(1)-ish instead of a pass over the sample. Required for
    /// [`Strategy::Analytic`], which descends on the profile's curves.
    #[must_use]
    pub fn profiled(self) -> ProfiledEstimator<'a> {
        ProfiledEstimator { inner: self }
    }

    /// Runs the configured pipeline on `workload`.
    #[must_use]
    pub fn run<W: Sampleable>(&self, workload: &W) -> SamplingEstimate {
        let pool = self.pool.unwrap_or(Pool::global());
        if self.repeats == 1 {
            let disabled = Recorder::disabled();
            let rec = self.rec.unwrap_or(&disabled);
            return run_single(workload, self.strategy, self.spec, self.seed, rec, pool);
        }
        let (strategy, spec, seed) = (self.strategy, self.spec, self.seed);
        let runs = pool.map_indices(self.repeats, |k| {
            let seed = seed.wrapping_add(k as u64);
            run_single(workload, strategy, spec, seed, &Recorder::disabled(), pool)
        });
        median_estimate(runs)
    }
}

/// Groups batch items by (exact fingerprint key, configuration): returns
/// the representative item index per distinct class and, per item, the
/// index *into the representative list* of its class.
fn batch_groups<W: Fingerprinted>(workloads: &[W], config: ConfigKey) -> (Vec<usize>, Vec<usize>) {
    let mut first: HashMap<CacheKey, usize> = HashMap::new();
    let mut reps: Vec<usize> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(workloads.len());
    for (i, w) in workloads.iter().enumerate() {
        let key = CacheKey {
            input: w.fingerprint().exact_key(),
            config,
        };
        let slot = *first.entry(key).or_insert_with(|| {
            reps.push(i);
            reps.len() - 1
        });
        group_of.push(slot);
    }
    (reps, group_of)
}

/// An attached flight recorder, but only when it actually records —
/// disabled recorders cost the serving path nothing, not even fingerprint
/// or timer plumbing.
fn active_audit(audit: Option<&FlightRecorder>) -> Option<&FlightRecorder> {
    audit.filter(|a| a.is_enabled())
}

/// Reads the wall clock only when the event will carry a latency.
fn start_if(due: bool) -> Option<Instant> {
    if due {
        Some(Instant::now())
    } else {
        None
    }
}

/// Arms the timer at the top of a slow (cold / near-hit) path: those
/// requests are µs–ms scale, so they are always timed even when the
/// exact-hit sampling stride skipped this request.
fn arm_slow_timer(timer: &mut Option<Instant>, auditing: bool) {
    if auditing && timer.is_none() {
        *timer = Some(Instant::now());
    }
}

fn finish_us(timer: Option<Instant>) -> Option<f64> {
    timer.map(|t| t.elapsed().as_secs_f64() * 1e6)
}

/// Builds the audit event for one served request. Work counters record
/// what *this request* spent: an exact hit returned a clone, so its
/// evaluations, probes, and simulated cost are zero regardless of what the
/// populating run paid. Takes the already-derived [`ExactKey`] rather than
/// the workload: re-fingerprinting would copy the full sketch (hundreds of
/// bytes) on the nanosecond-scale exact-hit path.
fn audit_event(
    exact: crate::fingerprint::ExactKey,
    decision: CacheDecision,
    est: &SamplingEstimate,
    latency_us: Option<f64>,
    shadow_regret_pct: Option<f64>,
) -> AuditEvent {
    let latency_us = latency_us.unwrap_or(f64::NAN);
    let shadow_regret_pct = shadow_regret_pct.unwrap_or(f64::NAN);
    let spent = decision != CacheDecision::ExactHit;
    AuditEvent {
        kind: exact.kind,
        digest: exact.digest,
        decision,
        threshold: est.threshold,
        evaluations: if spent { est.evaluations as u64 } else { 0 },
        grad_probes: if spent { est.grad_probes as u64 } else { 0 },
        sim_cost_ms: if spent { est.overhead.as_millis() } else { 0.0 },
        latency_us,
        shadow_regret_pct,
        // A scalar estimate is a two-way split regardless of the cache
        // key's configured topology.
        arity: 2,
        span_fraction: f64::NAN,
        crossover_estimate: f64::NAN,
    }
}

/// Builds the audit event for one served k-way partition request. Same
/// work-counter convention as [`audit_event`]: an exact hit returned a
/// clone, so it spent nothing.
fn partition_audit_event(
    exact: crate::fingerprint::ExactKey,
    decision: CacheDecision,
    out: &PartitionOutcome,
    arity: u64,
    latency_us: Option<f64>,
    shadow_regret_pct: Option<f64>,
) -> AuditEvent {
    let spent = decision != CacheDecision::ExactHit;
    let evaluations = out.scalar.as_ref().map_or(0, |s| s.evaluations() as u64);
    let sim_cost_ms = out
        .scalar
        .as_ref()
        .map_or(0.0, |s| s.search_cost.as_millis());
    AuditEvent {
        kind: exact.kind,
        digest: exact.digest,
        decision,
        threshold: out.cuts.first().copied().unwrap_or(f64::NAN),
        evaluations: if spent { evaluations } else { 0 },
        grad_probes: if spent { out.probes as u64 } else { 0 },
        sim_cost_ms: if spent { sim_cost_ms } else { 0.0 },
        latency_us: latency_us.unwrap_or(f64::NAN),
        shadow_regret_pct: shadow_regret_pct.unwrap_or(f64::NAN),
        arity,
        span_fraction: f64::NAN,
        crossover_estimate: f64::NAN,
    }
}

/// One unprofiled estimation (shared by the single and repeated paths; the
/// repeated path runs concurrently, so this must not capture the builder).
fn run_single<W: Sampleable>(
    workload: &W,
    strategy: Strategy,
    spec: SampleSpec,
    seed: u64,
    rec: &Recorder,
    pool: &Pool,
) -> SamplingEstimate {
    estimate_core(workload, spec, strategy.name(), seed, rec, |sample, rec| {
        Searcher::new(strategy).recorder(rec).pool(pool).run(sample)
    })
}

/// An [`Estimator`] whose Identify step prices candidates through a cost
/// profile of the sample, and the serving layer: cached, batched, audited
/// and k-way requests all go through it. Built by [`Estimator::profiled`].
#[derive(Copy, Clone)]
pub struct ProfiledEstimator<'a> {
    inner: Estimator<'a>,
}

impl ProfiledEstimator<'_> {
    /// Runs the configured pipeline on `workload`, profiling each sample
    /// once and searching on the profile.
    #[must_use]
    pub fn run<W>(&self, workload: &W) -> SamplingEstimate
    where
        W: Sampleable,
        W::Sample: Profilable,
    {
        self.run_with_hint(workload, None)
    }

    /// [`ProfiledEstimator::run`] behind the attached [`ThresholdCache`]:
    /// an exact-key hit skips sample + search entirely (bitwise-identical
    /// clone of the cached estimate); on a miss, a near-key hit under
    /// [`Strategy::Analytic`] warm-starts the search from the cached
    /// split's bracket — same pipeline, measurably fewer `grad_probes` —
    /// and the probe savings are credited to the cache's counters. Without
    /// an attached cache this *is* [`ProfiledEstimator::run`].
    #[must_use]
    pub fn run_cached<W>(&self, workload: &W) -> SamplingEstimate
    where
        W: Sampleable + Fingerprinted,
        W::Sample: Profilable,
    {
        let cfg = &self.inner;
        let audit = active_audit(cfg.audit);
        let timer = start_if(audit.is_some_and(FlightRecorder::timing_due));
        let Some(cache) = cfg.cache else {
            return self.serve_uncached(workload, timer, audit);
        };
        let key = CacheKey {
            input: workload.fingerprint().exact_key(),
            config: cfg.config_key(),
        };
        // Exact hit: record-and-return inside the arm — the hot path stays
        // a short straight line, with the µs-scale miss machinery outlined
        // behind `#[inline(never)]` so the exact-hit loop body stays small
        // (see the audit module's overhead contract).
        if let Some(est) = cache.get_exact(&key) {
            if let Some(a) = audit {
                a.record(audit_event(
                    key.input,
                    CacheDecision::ExactHit,
                    &est,
                    finish_us(timer),
                    None,
                ));
            }
            if let Some(rec) = cfg.rec {
                cache.flush_metrics(rec);
            }
            return est;
        }
        self.serve_miss(workload, cache, key, timer, audit)
    }

    /// Cold serve without a cache — [`ProfiledEstimator::run`] plus one
    /// audit event. Outlined: see [`ProfiledEstimator::run_cached`].
    #[inline(never)]
    fn serve_uncached<W>(
        &self,
        workload: &W,
        mut timer: Option<Instant>,
        audit: Option<&FlightRecorder>,
    ) -> SamplingEstimate
    where
        W: Sampleable + Fingerprinted,
        W::Sample: Profilable,
    {
        arm_slow_timer(&mut timer, audit.is_some());
        let est = self.run(workload);
        if let Some(a) = audit {
            a.record(audit_event(
                workload.fingerprint().exact_key(),
                CacheDecision::Cold,
                &est,
                finish_us(timer),
                None,
            ));
        }
        est
    }

    /// The exact-miss half of [`ProfiledEstimator::run_cached`]: near-hit
    /// warm start, shadow-regret sampling, insert, audit. Outlined so the
    /// exact-hit path stays small.
    #[inline(never)]
    fn serve_miss<W>(
        &self,
        workload: &W,
        cache: &ThresholdCache,
        key: CacheKey,
        mut timer: Option<Instant>,
        audit: Option<&FlightRecorder>,
    ) -> SamplingEstimate
    where
        W: Sampleable + Fingerprinted,
        W::Sample: Profilable,
    {
        let cfg = &self.inner;
        arm_slow_timer(&mut timer, audit.is_some());
        cache.record_miss();
        let near = NearCacheKey::of(workload.fingerprint().near_key(), cfg.strategy);
        let mut shadow_regret = None;
        let warm = if matches!(cfg.strategy, Strategy::Analytic { .. }) {
            cache.get_near(&near)
        } else {
            None
        };
        let (est, decision) = match warm {
            Some(hint) => {
                let est = self.run_with_hint(workload, Some(hint.sample_threshold));
                cache.record_probes_saved(hint.cold_probes.saturating_sub(est.grad_probes) as u64);
                // Shadow-regret sampling (stride-gated): also run the cold
                // path and price both thresholds on the full input. Pure
                // observation — the warm estimate below is returned
                // untouched.
                if cache.shadow_due(cfg.shadow_rate) {
                    let regret = self.shadow_price(workload, &est);
                    cache.record_shadow(regret);
                    shadow_regret = Some(regret);
                }
                (est, CacheDecision::NearHit)
            }
            None => (self.run(workload), CacheDecision::Cold),
        };
        cache.insert(key, near, &est);
        if let Some(a) = audit {
            a.record(audit_event(
                key.input,
                decision,
                &est,
                finish_us(timer),
                shadow_regret,
            ));
        }
        if let Some(rec) = cfg.rec {
            cache.flush_metrics(rec);
        }
        est
    }

    /// The shadow half of the regret sampler: reruns this request cold
    /// (same configuration, no cache, no recorders) and prices the warm and
    /// cold thresholds on the full input. Returns the warm decision's
    /// regret in percent — positive when the warm threshold is costlier,
    /// zero when they price identically.
    fn shadow_price<W>(&self, workload: &W, warm_est: &SamplingEstimate) -> f64
    where
        W: Sampleable,
        W::Sample: Profilable,
    {
        let mut cold_cfg = self.inner;
        cold_cfg.rec = None;
        cold_cfg.cache = None;
        cold_cfg.audit = None;
        let cold_est = ProfiledEstimator { inner: cold_cfg }.run(workload);
        let warm_cost = workload.run(warm_est.threshold).total().as_millis();
        let cold_cost = workload.run(cold_est.threshold).total().as_millis();
        if cold_cost > 0.0 {
            (warm_cost / cold_cost - 1.0) * 100.0
        } else {
            0.0
        }
    }

    /// Serves a batch of requests: items are deduplicated by fingerprint +
    /// configuration, each distinct class is estimated once (cached,
    /// possibly warm-started) on the worker pool, and every duplicate
    /// receives a clone of its class representative's estimate. Per item
    /// the result equals a sequential [`ProfiledEstimator::run_cached`] —
    /// the determinism contract makes identical inputs produce identical
    /// estimates, so sharing one computation per class is observationally
    /// pure. Per-item tracing is disabled (items run concurrently); cache
    /// metrics are flushed once at the end. With an enabled
    /// [`FlightRecorder`] attached the class representatives are served
    /// sequentially instead and each records one audit event.
    #[must_use]
    pub fn run_batch<W>(&self, workloads: &[W]) -> Vec<SamplingEstimate>
    where
        W: Sampleable + Fingerprinted,
        W::Sample: Profilable,
    {
        let cfg = &self.inner;
        let pool = cfg.pool.unwrap_or(Pool::global());
        let config = cfg.config_key();
        let (reps, group_of) = batch_groups(workloads, config);
        let results = if active_audit(cfg.audit).is_some() {
            // Audited batches serve representatives sequentially: the
            // flight recorder, like the span recorder, is single-threaded.
            let mut inner = *cfg;
            inner.rec = None;
            inner.pool = Some(pool);
            let e = ProfiledEstimator { inner };
            reps.iter().map(|&i| e.run_cached(&workloads[i])).collect()
        } else {
            // Rebuild a recorder-free estimator inside the closure: the
            // recorders are single-threaded, everything else is `Sync`.
            let (strategy, spec, seed, repeats, cache, shadow_rate, devices) = (
                cfg.strategy,
                cfg.spec,
                cfg.seed,
                cfg.repeats,
                cfg.cache,
                cfg.shadow_rate,
                cfg.devices,
            );
            pool.map(&reps, |&i| {
                let e = ProfiledEstimator {
                    inner: Estimator {
                        strategy,
                        spec,
                        seed,
                        repeats,
                        rec: None,
                        pool: Some(pool),
                        cache,
                        audit: None,
                        shadow_rate,
                        devices,
                    },
                };
                e.run_cached(&workloads[i])
            })
        };
        if let (Some(rec), Some(cache)) = (cfg.rec, cfg.cache) {
            cache.flush_metrics(rec);
        }
        group_of.into_iter().map(|g| results[g].clone()).collect()
    }

    /// Serves one full k-way partition request behind the attached
    /// [`ThresholdCache`] — the partition-vector counterpart of
    /// [`ProfiledEstimator::run_cached`]. The topology comes from
    /// [`Estimator::devices`] (default: the canonical CPU+GPU pair). An
    /// exact-key hit returns the cached [`PartitionOutcome`]
    /// bitwise-identically and skips descent entirely; on a miss, a
    /// near-key hit under [`Strategy::Analytic`] seeds
    /// `minimize_partition` with the cached cut vector — warm descent
    /// skips the coarse odometer multi-seed sweep and starts coordinate
    /// descent from the hint — with probe savings credited and shadow
    /// regret stride-sampled exactly like the scalar path. Without an
    /// attached cache this is one cold
    /// [`ProfiledSearcher::run_partition`](crate::search::ProfiledSearcher::run_partition)
    /// plus one audit event.
    ///
    /// # Panics
    /// Same contract as `run_partition`: non-canonical topologies require
    /// [`Strategy::Analytic`] and a workload whose curve prices device
    /// bands.
    #[must_use]
    pub fn run_partition_cached<W>(&self, workload: &W) -> PartitionOutcome
    where
        W: Profilable + Fingerprinted,
    {
        let cfg = &self.inner;
        let set = cfg.devices.unwrap_or(DeviceSet::cpu_gpu_static());
        let audit = active_audit(cfg.audit);
        let timer = start_if(audit.is_some_and(FlightRecorder::timing_due));
        let Some(cache) = cfg.cache else {
            return self.serve_partition_uncached(workload, set, timer, audit);
        };
        let key = CacheKey {
            input: workload.fingerprint().exact_key(),
            config: cfg.config_key(),
        };
        // Exact hit: record-and-return inside the arm, miss machinery
        // outlined — same shape as the scalar serving path (see the audit
        // module's overhead contract).
        if let Some(out) = cache.get_partition(&key) {
            if let Some(a) = audit {
                a.record(partition_audit_event(
                    key.input,
                    CacheDecision::ExactHit,
                    &out,
                    set.len() as u64,
                    finish_us(timer),
                    None,
                ));
            }
            if let Some(rec) = cfg.rec {
                cache.flush_metrics(rec);
            }
            return out;
        }
        self.serve_partition_miss(workload, set, cache, key, timer, audit)
    }

    /// Cold partition serve without a cache — one `run_partition` plus one
    /// audit event. Outlined: see [`ProfiledEstimator::run_partition_cached`].
    #[inline(never)]
    fn serve_partition_uncached<W>(
        &self,
        workload: &W,
        set: &DeviceSet,
        mut timer: Option<Instant>,
        audit: Option<&FlightRecorder>,
    ) -> PartitionOutcome
    where
        W: Profilable + Fingerprinted,
    {
        arm_slow_timer(&mut timer, audit.is_some());
        let out = self.run_partition_with(workload, set, None);
        if let Some(a) = audit {
            a.record(partition_audit_event(
                workload.fingerprint().exact_key(),
                CacheDecision::Cold,
                &out,
                set.len() as u64,
                finish_us(timer),
                None,
            ));
        }
        out
    }

    /// The exact-miss half of [`ProfiledEstimator::run_partition_cached`]:
    /// near-hit warm descent, shadow-regret sampling, insert, audit.
    /// Outlined so the exact-hit path stays small.
    #[inline(never)]
    fn serve_partition_miss<W>(
        &self,
        workload: &W,
        set: &DeviceSet,
        cache: &ThresholdCache,
        key: CacheKey,
        mut timer: Option<Instant>,
        audit: Option<&FlightRecorder>,
    ) -> PartitionOutcome
    where
        W: Profilable + Fingerprinted,
    {
        let cfg = &self.inner;
        arm_slow_timer(&mut timer, audit.is_some());
        cache.record_kway_miss();
        let near = PartitionNearKey::of(workload.fingerprint().near_key(), set);
        let mut shadow_regret = None;
        // Warm cut vectors only transfer under the analytic strategy —
        // it is the only one that descends from a seed (and the only one
        // `run_partition` accepts at k > 2).
        let warm = if matches!(cfg.strategy, Strategy::Analytic { .. }) {
            cache
                .get_partition_hint(&near)
                .filter(|hint| hint.cuts.len() + 1 == set.len())
        } else {
            None
        };
        let (out, decision) = match warm {
            Some(hint) => {
                let out = self.run_partition_with(workload, set, Some(&hint.cuts));
                cache.record_probes_saved(hint.cold_probes.saturating_sub(out.probes) as u64);
                // Shadow-regret sampling (stride-gated): also run the cold
                // multi-seed search and compare priced totals. Curve totals
                // are exact, so no re-pricing pass is needed. Pure
                // observation — the warm outcome below is returned
                // untouched.
                if cache.shadow_due(cfg.shadow_rate) {
                    let regret = self.shadow_price_partition(workload, set, &out);
                    cache.record_shadow(regret);
                    shadow_regret = Some(regret);
                }
                (out, CacheDecision::NearHit)
            }
            None => (
                self.run_partition_with(workload, set, None),
                CacheDecision::Cold,
            ),
        };
        cache.insert_partition(key, near, &out);
        if let Some(a) = audit {
            a.record(partition_audit_event(
                key.input,
                decision,
                &out,
                set.len() as u64,
                finish_us(timer),
                shadow_regret,
            ));
        }
        if let Some(rec) = cfg.rec {
            cache.flush_metrics(rec);
        }
        out
    }

    /// The shadow half of the k-way regret sampler: reruns the request
    /// cold (no warm seed, no recorders) and compares the warm and cold
    /// priced totals. Returns the warm decision's regret in percent.
    fn shadow_price_partition<W: Profilable>(
        &self,
        workload: &W,
        set: &DeviceSet,
        warm: &PartitionOutcome,
    ) -> f64 {
        let pool = self.inner.pool.unwrap_or(Pool::global());
        let cold = Searcher::new(self.inner.strategy)
            .pool(pool)
            .profiled()
            .run_partition(workload, set);
        let warm_cost = warm.total.as_millis();
        let cold_cost = cold.total.as_millis();
        if cold_cost > 0.0 {
            (warm_cost / cold_cost - 1.0) * 100.0
        } else {
            0.0
        }
    }

    /// Shared body of the cold (no seed) and warm-started k-way paths.
    fn run_partition_with<W: Profilable>(
        &self,
        workload: &W,
        set: &DeviceSet,
        warm: Option<&[f64]>,
    ) -> PartitionOutcome {
        let cfg = &self.inner;
        let disabled = Recorder::disabled();
        let rec = cfg.rec.unwrap_or(&disabled);
        let pool = cfg.pool.unwrap_or(Pool::global());
        let mut searcher = Searcher::new(cfg.strategy).recorder(rec).pool(pool);
        if let Some(cuts) = warm {
            searcher = searcher.warm_cuts(cuts);
        }
        searcher.profiled().run_partition(workload, set)
    }

    /// Shared body of [`ProfiledEstimator::run`] (no hint) and the
    /// warm-started path (hint from a near-key cache hit). With repeats,
    /// every repeat warm-starts from the same hint — the hint brackets the
    /// input class, not one particular sample.
    fn run_with_hint<W>(&self, workload: &W, warm: Option<f64>) -> SamplingEstimate
    where
        W: Sampleable,
        W::Sample: Profilable,
    {
        let cfg = &self.inner;
        let pool = cfg.pool.unwrap_or(Pool::global());
        if cfg.repeats == 1 {
            let disabled = Recorder::disabled();
            let rec = cfg.rec.unwrap_or(&disabled);
            return run_single_profiled(
                workload,
                cfg.strategy,
                cfg.spec,
                cfg.seed,
                warm,
                rec,
                pool,
            );
        }
        let (strategy, spec, seed) = (cfg.strategy, cfg.spec, cfg.seed);
        let runs = pool.map_indices(cfg.repeats, |k| {
            let seed = seed.wrapping_add(k as u64);
            run_single_profiled(
                workload,
                strategy,
                spec,
                seed,
                warm,
                &Recorder::disabled(),
                pool,
            )
        });
        median_estimate(runs)
    }
}

/// One profiled estimation (see [`run_single`]); `warm` threads a near-hit
/// hint into the analytic search.
fn run_single_profiled<W>(
    workload: &W,
    strategy: Strategy,
    spec: SampleSpec,
    seed: u64,
    warm: Option<f64>,
    rec: &Recorder,
    pool: &Pool,
) -> SamplingEstimate
where
    W: Sampleable,
    W::Sample: Profilable,
{
    let warm_cuts = warm.map(|hint| [hint]);
    estimate_core(workload, spec, strategy.name(), seed, rec, |sample, rec| {
        let mut searcher = Searcher::new(strategy).recorder(rec).pool(pool);
        if let Some(cuts) = warm_cuts.as_ref() {
            searcher = searcher.warm_cuts(cuts);
        }
        searcher.profiled().run(sample)
    })
}

/// The shared Sample → Identify → Extrapolate pipeline; `identify` runs the
/// chosen search strategy on the sampled input.
fn estimate_core<W, F>(
    workload: &W,
    spec: SampleSpec,
    strategy_name: &'static str,
    seed: u64,
    rec: &Recorder,
    identify: F,
) -> SamplingEstimate
where
    W: Sampleable,
    F: FnOnce(&W::Sample, &Recorder) -> SearchOutcome,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    let estimate_span = rec.open_with(
        "estimate",
        vec![
            ("strategy".to_string(), ArgValue::from(strategy_name)),
            ("seed".to_string(), ArgValue::U64(seed)),
        ],
    );
    // Step 1: Sample.
    let sample_span = rec.open("sample");
    let sample = workload.sample(spec, &mut rng);
    rec.advance(workload.sampling_cost());
    rec.annotate(
        sample_span,
        vec![("sample_size".to_string(), ArgValue::from(sample.size()))],
    );
    rec.close(sample_span);
    if workload.size() > 0 {
        rec.gauge_set("sample.rate", sample.size() as f64 / workload.size() as f64);
    }
    // Step 2: Identify on the sample.
    let identify_span = rec.open("identify");
    let outcome: SearchOutcome = identify(&sample, rec);
    rec.annotate(
        identify_span,
        vec![
            ("best_t".to_string(), ArgValue::F64(outcome.best_t)),
            (
                "evaluations".to_string(),
                ArgValue::from(outcome.evaluations()),
            ),
        ],
    );
    rec.close(identify_span);
    rec.gauge_set("search.cost_ms", outcome.search_cost.as_millis());
    // Step 3: Extrapolate.
    let extrapolate_span = rec.open("extrapolate");
    let threshold = workload
        .space()
        .clamp(workload.extrapolate(outcome.best_t, &sample));
    rec.annotate(
        extrapolate_span,
        vec![
            ("sample_t".to_string(), ArgValue::F64(outcome.best_t)),
            ("threshold".to_string(), ArgValue::F64(threshold)),
        ],
    );
    rec.close(extrapolate_span);
    rec.close(estimate_span);
    SamplingEstimate {
        threshold,
        sample_threshold: outcome.best_t,
        overhead: workload.sampling_cost() + outcome.search_cost,
        evaluations: outcome.evaluations(),
        sample_size: sample.size(),
        grad_probes: outcome.grad_probes,
    }
}

/// Median-threshold estimate of a batch of repeats, with overheads and
/// evaluation counts summed (every miniature run costs simulated time).
fn median_estimate(mut runs: Vec<SamplingEstimate>) -> SamplingEstimate {
    runs.sort_by(|a, b| a.threshold.total_cmp(&b.threshold));
    let total_overhead: SimTime = runs.iter().map(|r| r.overhead).sum();
    let total_evals: usize = runs.iter().map(|r| r.evaluations).sum();
    let total_probes: usize = runs.iter().map(|r| r.grad_probes).sum();
    let median = runs.swap_remove(runs.len() / 2);
    SamplingEstimate {
        overhead: total_overhead,
        evaluations: total_evals,
        grad_probes: total_probes,
        ..median
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::ThresholdSpace;
    use nbwp_sim::{RunBreakdown, RunReport};

    fn test_platform() -> &'static nbwp_sim::Platform {
        static P: std::sync::OnceLock<nbwp_sim::Platform> = std::sync::OnceLock::new();
        P.get_or_init(nbwp_sim::Platform::k40c_xeon_e5_2650)
    }
    /// Synthetic sampleable workload: V-shaped cost with optimum `opt`;
    /// its sample has the same optimum but runs 100× faster, and
    /// extrapolation is identity.
    struct SynthWorkload {
        opt: f64,
        cost_scale: f64,
        n: usize,
    }

    impl PartitionedWorkload for SynthWorkload {
        fn platform(&self) -> &nbwp_sim::Platform {
            test_platform()
        }
        fn run(&self, t: f64) -> RunReport {
            let ms = self.cost_scale * (1.0 + (t - self.opt).abs() / 50.0);
            RunReport {
                breakdown: RunBreakdown {
                    cpu_compute: SimTime::from_millis(ms),
                    ..RunBreakdown::default()
                },
                ..RunReport::default()
            }
        }
        fn space(&self) -> ThresholdSpace {
            ThresholdSpace::percentage()
        }
        fn size(&self) -> usize {
            self.n
        }
    }

    impl Sampleable for SynthWorkload {
        type Sample = SynthWorkload;
        fn sample(&self, spec: SampleSpec, _rng: &mut SmallRng) -> SynthWorkload {
            SynthWorkload {
                opt: self.opt,
                cost_scale: self.cost_scale / 100.0,
                n: ((self.n as f64).sqrt() * spec.factor) as usize,
            }
        }
        fn extrapolate(&self, t: f64, _sample: &SynthWorkload) -> f64 {
            t
        }
        fn sampling_cost(&self) -> SimTime {
            SimTime::from_micros(self.n as f64 / 1000.0)
        }
    }

    #[test]
    fn estimate_recovers_the_optimum() {
        let w = SynthWorkload {
            opt: 23.0,
            cost_scale: 10.0,
            n: 1 << 20,
        };
        let est = Estimator::new(Strategy::CoarseToFine).seed(1).run(&w);
        assert_eq!(est.threshold, 23.0);
        assert_eq!(est.sample_threshold, 23.0);
    }

    #[test]
    fn overhead_is_far_below_one_full_run() {
        let w = SynthWorkload {
            opt: 40.0,
            cost_scale: 10.0,
            n: 1 << 20,
        };
        let est = Estimator::new(Strategy::CoarseToFine).seed(1).run(&w);
        let full_run = w.time_at(est.threshold);
        // ~30 sample evals at 1/100 cost each ≈ 0.3 full runs; require < 1.
        assert!(
            est.overhead < full_run,
            "overhead {} vs full run {}",
            est.overhead,
            full_run
        );
        assert!(est.overhead > SimTime::ZERO);
    }

    #[test]
    fn all_strategies_find_a_reasonable_threshold() {
        let w = SynthWorkload {
            opt: 64.0,
            cost_scale: 5.0,
            n: 1 << 16,
        };
        for strategy in [
            Strategy::CoarseToFine,
            Strategy::RaceThenFine,
            Strategy::GradientDescent { max_evals: 30 },
            Strategy::Exhaustive { step: None },
        ] {
            let est = Estimator::new(strategy).seed(7).run(&w);
            assert!(
                (est.threshold - 64.0).abs() <= 8.0,
                "{strategy:?} found {}",
                est.threshold
            );
        }
    }

    #[test]
    fn exhaustive_on_sample_uses_more_evals_than_coarse_to_fine() {
        let w = SynthWorkload {
            opt: 10.0,
            cost_scale: 1.0,
            n: 4096,
        };
        let ctf = Estimator::new(Strategy::CoarseToFine).seed(3).run(&w);
        let exh = Estimator::new(Strategy::Exhaustive { step: None })
            .seed(3)
            .run(&w);
        assert!(exh.evaluations > ctf.evaluations);
        assert!(exh.overhead > ctf.overhead);
    }

    #[test]
    fn sample_size_scales_with_spec() {
        let w = SynthWorkload {
            opt: 10.0,
            cost_scale: 1.0,
            n: 1 << 16,
        };
        let small = Estimator::new(Strategy::CoarseToFine)
            .spec(SampleSpec::scaled(0.25))
            .seed(3)
            .run(&w);
        let big = Estimator::new(Strategy::CoarseToFine)
            .spec(SampleSpec::scaled(4.0))
            .seed(3)
            .run(&w);
        assert!(big.sample_size > small.sample_size);
    }

    #[test]
    fn identify_strategy_lifts_into_strategy() {
        assert_eq!(
            Strategy::from(IdentifyStrategy::Exhaustive),
            Strategy::Exhaustive { step: None }
        );
        assert_eq!(
            Strategy::from(IdentifyStrategy::GradientDescent { max_evals: 9 }),
            Strategy::GradientDescent { max_evals: 9 }
        );
        // Shared names keep trace span args identical across the two enums.
        for (i, s) in [
            (IdentifyStrategy::CoarseToFine, Strategy::CoarseToFine),
            (IdentifyStrategy::RaceThenFine, Strategy::RaceThenFine),
            (
                IdentifyStrategy::Exhaustive,
                Strategy::Exhaustive { step: None },
            ),
        ] {
            assert_eq!(i.name(), s.name());
        }
    }
}

#[cfg(test)]
mod repeat_tests {
    use super::*;
    use crate::framework::{PartitionedWorkload, ThresholdSpace};
    use nbwp_sim::{RunBreakdown, RunReport};

    fn test_platform() -> &'static nbwp_sim::Platform {
        static P: std::sync::OnceLock<nbwp_sim::Platform> = std::sync::OnceLock::new();
        P.get_or_init(nbwp_sim::Platform::k40c_xeon_e5_2650)
    }

    /// Workload whose sample optimum jitters with the seed: opt + noise.
    struct Jittery {
        opt: f64,
        noise: f64,
    }

    impl PartitionedWorkload for Jittery {
        fn run(&self, t: f64) -> RunReport {
            let ms = 1.0 + (t - (self.opt + self.noise)).abs() / 50.0;
            RunReport {
                breakdown: RunBreakdown {
                    cpu_compute: SimTime::from_millis(ms),
                    ..RunBreakdown::default()
                },
                ..RunReport::default()
            }
        }
        fn space(&self) -> ThresholdSpace {
            ThresholdSpace::percentage()
        }
        fn size(&self) -> usize {
            10_000
        }
        fn platform(&self) -> &nbwp_sim::Platform {
            test_platform()
        }
    }

    impl Sampleable for Jittery {
        type Sample = Jittery;
        fn sample(&self, _spec: SampleSpec, rng: &mut SmallRng) -> Jittery {
            use rand::Rng;
            Jittery {
                opt: self.opt,
                noise: rng.gen_range(-20.0..20.0),
            }
        }
        fn extrapolate(&self, t: f64, _sample: &Jittery) -> f64 {
            t
        }
        fn sampling_cost(&self) -> SimTime {
            SimTime::from_micros(1.0)
        }
    }

    #[test]
    fn median_of_repeats_beats_a_single_noisy_sample_on_average() {
        let w = Jittery {
            opt: 50.0,
            noise: 0.0,
        };
        let mut err1 = 0.0;
        let mut err5 = 0.0;
        for seed in 0..12 {
            let single = Estimator::new(Strategy::CoarseToFine).seed(seed).run(&w);
            let multi = Estimator::new(Strategy::CoarseToFine)
                .seed(seed)
                .repeats(5)
                .run(&w);
            err1 += (single.threshold - 50.0).abs();
            err5 += (multi.threshold - 50.0).abs();
        }
        assert!(
            err5 < err1,
            "median-of-5 error {err5:.1} should beat single-sample {err1:.1}"
        );
    }

    #[test]
    fn repeated_overhead_is_the_sum() {
        let w = Jittery {
            opt: 30.0,
            noise: 0.0,
        };
        let single = Estimator::new(Strategy::CoarseToFine).seed(3).run(&w);
        let multi = Estimator::new(Strategy::CoarseToFine)
            .seed(3)
            .repeats(4)
            .run(&w);
        assert!(multi.overhead > single.overhead * 3.0);
        assert!(multi.evaluations >= single.evaluations * 3);
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn zero_repeats_rejected() {
        let _ = Estimator::new(Strategy::CoarseToFine).repeats(0);
    }
}
