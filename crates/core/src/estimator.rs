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

use std::cell::OnceCell;
use std::collections::HashMap;
use std::time::Instant;

use nbwp_par::Pool;
use nbwp_sim::{DeviceSet, SimTime};
use nbwp_trace::{ArgValue, AuditEvent, CacheDecision, FlightRecorder, Recorder};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fingerprint::{ExactKey, Fingerprinted};
use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable};
use crate::profile::{Profilable, ProfiledWorkload};
use crate::search::{PartitionOutcome, SearchOutcome, Searcher, Strategy};
use crate::threshold_cache::{
    CacheKey, ConfigKey, Decision, PartitionHint, ThresholdCache, WarmHint,
};

/// Default shadow-regret sampling rate: every 16th near-key warm hit also
/// runs the cold path and prices both decisions on the full input (see
/// [`Estimator::shadow_rate`]). Chosen so the steady-state serving cost
/// stays within the bounded-overhead contract (exact hits never shadow).
pub const DEFAULT_SHADOW_RATE: f64 = 1.0 / 16.0;

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

    /// Runs `repeats > 1` on an explicit worker pool instead of the global
    /// one, one repeat per job; each repeat's search runs on its worker's
    /// thread (see [`crate::search`]). A profiled pipeline also hands the
    /// pool to [`crate::profile::Profilable::build_profile_in`]. The pool
    /// changes wall-clock time only.
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
        let strategy = self.strategy;
        self.repeated(workload, |sample, rec| {
            Searcher::new(strategy).recorder(rec).run(sample)
        })
    }

    /// Sample → Identify → Extrapolate once per repeat (seeds
    /// `seed..seed + repeats`), `identify` searching each sample. A single
    /// repeat runs on the attached recorder; more run concurrently,
    /// untraced, and yield the median-threshold estimate. `identify` must
    /// not capture the builder, whose recorders are single-threaded.
    fn repeated<W, F>(&self, workload: &W, identify: F) -> SamplingEstimate
    where
        W: Sampleable,
        F: Fn(&W::Sample, &Recorder) -> SearchOutcome + Sync,
    {
        let (spec, name, seed) = (self.spec, self.strategy.name(), self.seed);
        if self.repeats == 1 {
            let disabled = Recorder::disabled();
            let rec = self.rec.unwrap_or(&disabled);
            return estimate_core(workload, spec, name, seed, rec, identify);
        }
        let pool = self.pool.unwrap_or(Pool::global());
        let runs = pool.map_indices(self.repeats, |k| {
            let seed = seed.wrapping_add(k as u64);
            estimate_core(workload, spec, name, seed, &Recorder::disabled(), &identify)
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

/// The attached flight recorder of one served request, when it actually
/// records, and the request's latency timer. Disabled recorders cost the
/// serving path nothing, not even fingerprint or timer plumbing.
struct RequestAudit<'a> {
    recorder: &'a FlightRecorder,
    timer: Option<Instant>,
}

impl<'a> RequestAudit<'a> {
    /// Starts auditing a request, reading the wall clock only when the
    /// event will carry a latency.
    #[inline]
    fn start(recorder: Option<&'a FlightRecorder>) -> Option<Self> {
        let recorder = recorder.filter(|a| a.is_enabled())?;
        let timer = recorder.timing_due().then(Instant::now);
        Some(RequestAudit { recorder, timer })
    }

    /// Arms the timer at the top of a slow (cold / near-hit) path: those
    /// requests are µs–ms scale, so they are always timed even when the
    /// exact-hit sampling stride skipped this request.
    fn timed(mut self) -> Self {
        self.timer.get_or_insert_with(Instant::now);
        self
    }

    /// Records the request's audit event. Work counters record what *this
    /// request* spent: an exact hit returned a clone, so its evaluations,
    /// probes, and simulated cost are zero regardless of what the
    /// populating run paid. Takes the already-derived [`ExactKey`] rather
    /// than the workload: re-fingerprinting would copy the full sketch
    /// (hundreds of bytes) on the nanosecond-scale exact-hit path.
    #[inline(always)]
    fn record<D: Decision>(
        &self,
        exact: ExactKey,
        decision: CacheDecision,
        served: &D,
        shadow_regret_pct: Option<f64>,
    ) {
        let spent = decision != CacheDecision::ExactHit;
        let fields = served.audit_fields();
        self.recorder.record(AuditEvent {
            kind: exact.kind,
            digest: exact.digest,
            decision,
            threshold: fields.threshold,
            evaluations: if spent { fields.evaluations } else { 0 },
            grad_probes: if spent { served.probes() as u64 } else { 0 },
            sim_cost_ms: if spent { fields.sim_cost_ms } else { 0.0 },
            latency_us: self
                .timer
                .map_or(f64::NAN, |t| t.elapsed().as_secs_f64() * 1e6),
            shadow_regret_pct: shadow_regret_pct.unwrap_or(f64::NAN),
            arity: fields.arity,
            span_fraction: f64::NAN,
        });
    }
}

/// A warm decision's shadow regret in percent: positive when it prices
/// costlier than the cold decision, zero when they price identically.
fn regret_pct(warm: SimTime, cold: SimTime) -> f64 {
    let (warm, cold) = (warm.as_millis(), cold.as_millis());
    if cold > 0.0 {
        (warm / cold - 1.0) * 100.0
    } else {
        0.0
    }
}

/// An [`Estimator`] whose Identify step prices candidates through a cost
/// profile of the sample, and the serving layer: cached, batched, audited
/// and k-way requests all go through it. Built by [`Estimator::profiled`].
#[derive(Copy, Clone)]
pub struct ProfiledEstimator<'a> {
    inner: Estimator<'a>,
}

impl<'a> ProfiledEstimator<'a> {
    /// Runs the configured pipeline on `workload`, profiling each sample
    /// once and searching on the profile.
    #[must_use]
    pub fn run<W: Sampleable>(&self, workload: &W) -> SamplingEstimate {
        self.run_with_hint(workload, None)
    }

    /// [`ProfiledEstimator::run`] behind the attached [`ThresholdCache`]:
    /// an exact-key hit skips sample + search entirely (bitwise-identical
    /// clone of the cached estimate); on a miss, a near-key hit under
    /// [`Strategy::Analytic`] warm-starts the search from the cached
    /// split's bracket — same pipeline, measurably fewer `grad_probes` —
    /// and the probe savings are credited to the cache's counters. Shadow
    /// reruns price both thresholds on one cost profile of the full input.
    /// Without an attached cache this *is* [`ProfiledEstimator::run`].
    #[must_use]
    pub fn run_cached<W: Sampleable + Fingerprinted>(&self, workload: &W) -> SamplingEstimate {
        self.serve(
            workload,
            |hint: Option<&WarmHint>| {
                self.run_with_hint(workload, hint.map(|h| h.sample_threshold))
            },
            |warm| {
                let cold = self.silent().run(workload);
                let full = ProfiledWorkload::with_pool(workload, self.pool());
                regret_pct(
                    full.run(warm.threshold).total(),
                    full.run(cold.threshold).total(),
                )
            },
        )
    }

    /// Serves a batch of requests: items are deduplicated by fingerprint +
    /// configuration, each distinct class is estimated once (cached,
    /// possibly warm-started), and every duplicate receives a clone of its
    /// class representative's estimate. Per item the result equals a
    /// sequential [`ProfiledEstimator::run_cached`] — the determinism
    /// contract makes identical inputs produce identical estimates, so
    /// sharing one computation per class is observationally pure.
    /// Representatives are served in submission order, so whether a
    /// near-key sibling warm-starts never depends on the pool size; each
    /// request searches on the calling thread. Per-item tracing is
    /// disabled; cache metrics are flushed once at the end, and an enabled
    /// [`FlightRecorder`] records one audit event per representative.
    #[must_use]
    pub fn run_batch<W: Sampleable + Fingerprinted>(
        &self,
        workloads: &[W],
    ) -> Vec<SamplingEstimate> {
        let mut inner = self.inner;
        inner.rec = None;
        let (reps, group_of) = batch_groups(workloads, inner.config_key());
        let e = ProfiledEstimator { inner };
        let results: Vec<_> = reps.iter().map(|&i| e.run_cached(&workloads[i])).collect();
        if let (Some(rec), Some(cache)) = (self.inner.rec, self.inner.cache) {
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
    /// regret stride-sampled exactly like the scalar path; a shadow's cold
    /// descent reuses the warm descent's profile. Without an attached
    /// cache this is one cold
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
        let set = self.devices();
        // Built on a miss only. The shadow runs silent, so the warm descent
        // alone flushes the profile's metrics.
        let profiled = OnceCell::new();
        let pw = || profiled.get_or_init(|| ProfiledWorkload::with_pool(workload, self.pool()));
        self.serve(
            workload,
            |hint: Option<&PartitionHint>| {
                self.run_partition_with(pw(), set, hint.map(|h| &h.cuts[..]))
            },
            // Curve totals are exact, so the shadow compares them directly.
            |warm| {
                let cold = self.silent().run_partition_with(pw(), set, None);
                regret_pct(warm.total, cold.total)
            },
        )
    }

    /// The one serving body behind [`ProfiledEstimator::run_cached`] and
    /// [`ProfiledEstimator::run_partition_cached`]. `compute` runs the
    /// decision kind's search, warm from a near hint or cold; `shadow`
    /// reruns a warm request cold and returns the warm decision's regret.
    fn serve<W, D>(
        &self,
        workload: &W,
        compute: impl FnOnce(Option<&D::Hint>) -> D,
        shadow: impl FnOnce(&D) -> f64,
    ) -> D
    where
        W: Fingerprinted,
        D: Decision,
    {
        let cfg = &self.inner;
        let audit = RequestAudit::start(cfg.audit);
        let Some(cache) = cfg.cache else {
            return serve_uncached(workload, audit, compute);
        };
        let key = CacheKey {
            input: workload.fingerprint().exact_key(),
            config: cfg.config_key(),
        };
        // Exact hit: record-and-return inside the arm — the hot path stays
        // a short straight line, with the µs-scale miss machinery outlined
        // behind `#[inline(never)]` so the exact-hit loop body stays small
        // (see the audit module's overhead contract).
        if let Some(served) = cache.lookup::<D>(&key) {
            if let Some(a) = &audit {
                a.record(key.input, CacheDecision::ExactHit, &served, None);
            }
            if let Some(rec) = cfg.rec {
                cache.flush_metrics(rec);
            }
            return served;
        }
        self.serve_miss(workload, cache, key, audit, compute, shadow)
    }

    /// The exact-miss half of [`ProfiledEstimator::serve`]: near-hit warm
    /// start, shadow-regret sampling, insert, audit. Outlined so the
    /// exact-hit path stays small.
    #[inline(never)]
    fn serve_miss<W, D>(
        &self,
        workload: &W,
        cache: &ThresholdCache,
        key: CacheKey,
        audit: Option<RequestAudit<'_>>,
        compute: impl FnOnce(Option<&D::Hint>) -> D,
        shadow: impl FnOnce(&D) -> f64,
    ) -> D
    where
        W: Fingerprinted,
        D: Decision,
    {
        let cfg = &self.inner;
        let audit = audit.map(RequestAudit::timed);
        cache.miss::<D>();
        let near = D::near_key(
            workload.fingerprint().near_key(),
            cfg.strategy,
            self.devices(),
        );
        let mut shadow_regret = None;
        // Warm starts only transfer under the analytic strategy — it is
        // the only one that descends from a seed (and the only one
        // `run_partition` accepts at k > 2).
        let warm = if matches!(cfg.strategy, Strategy::Analytic { .. }) {
            cache.near::<D>(&near)
        } else {
            None
        };
        let (served, decision) = match warm {
            Some(hint) => {
                let served = compute(Some(&hint));
                cache.record_probes_saved(
                    D::cold_probes(&hint).saturating_sub(served.probes()) as u64
                );
                // Shadow-regret sampling (stride-gated): also run the cold
                // path and price both decisions on the full input. Pure
                // observation — the warm decision below is returned
                // untouched.
                if cache.shadow_due(cfg.shadow_rate) {
                    let regret = shadow(&served);
                    cache.record_shadow(regret);
                    shadow_regret = Some(regret);
                }
                (served, CacheDecision::NearHit)
            }
            None => (compute(None), CacheDecision::Cold),
        };
        cache.store(key, near, &served);
        if let Some(a) = &audit {
            a.record(key.input, decision, &served, shadow_regret);
        }
        if let Some(rec) = cfg.rec {
            cache.flush_metrics(rec);
        }
        served
    }

    /// The worker pool the configured pipeline runs on.
    fn pool(&self) -> &'a Pool {
        self.inner.pool.unwrap_or(Pool::global())
    }

    /// The configured topology (default: the canonical CPU+GPU pair).
    fn devices(&self) -> &'a DeviceSet {
        self.inner.devices.unwrap_or(DeviceSet::cpu_gpu_static())
    }

    /// This estimator without recorders or cache: the shadow sampler's
    /// cold rerun.
    fn silent(&self) -> Self {
        let mut inner = self.inner;
        inner.rec = None;
        inner.cache = None;
        inner.audit = None;
        ProfiledEstimator { inner }
    }

    /// Shared body of the cold (no seed) and warm-started k-way paths.
    fn run_partition_with<W: Profilable>(
        &self,
        pw: &ProfiledWorkload<'_, W>,
        set: &DeviceSet,
        warm: Option<&[f64]>,
    ) -> PartitionOutcome {
        let disabled = Recorder::disabled();
        let rec = self.inner.rec.unwrap_or(&disabled);
        let mut searcher = Searcher::new(self.inner.strategy).recorder(rec);
        if let Some(cuts) = warm {
            searcher = searcher.warm_cuts(cuts);
        }
        searcher.profiled().run_partition_on(pw, set)
    }

    /// Shared body of [`ProfiledEstimator::run`] (no hint) and the
    /// warm-started path (hint from a near-key cache hit). With repeats,
    /// every repeat warm-starts from the same hint — the hint brackets the
    /// input class, not one particular sample.
    fn run_with_hint<W: Sampleable>(&self, workload: &W, warm: Option<f64>) -> SamplingEstimate {
        let (strategy, pool) = (self.inner.strategy, self.pool());
        let warm_cuts = warm.map(|hint| [hint]);
        self.inner.repeated(workload, |sample, rec| {
            let mut searcher = Searcher::new(strategy).recorder(rec).pool(pool);
            if let Some(cuts) = warm_cuts.as_ref() {
                searcher = searcher.warm_cuts(cuts);
            }
            searcher.profiled().run(sample)
        })
    }
}

/// Cold serve without a cache — one cold computation plus one audit
/// event. Outlined: see [`ProfiledEstimator::serve`].
#[inline(never)]
fn serve_uncached<W: Fingerprinted, D: Decision>(
    workload: &W,
    audit: Option<RequestAudit<'_>>,
    compute: impl FnOnce(Option<&D::Hint>) -> D,
) -> D {
    let audit = audit.map(RequestAudit::timed);
    let served = compute(None);
    if let Some(a) = &audit {
        a.record(
            workload.fingerprint().exact_key(),
            CacheDecision::Cold,
            &served,
            None,
        );
    }
    served
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

    /// Priced by direct runs only: no cost curve.
    impl Profilable for SynthWorkload {
        type Profile = ();
        fn build_profile_in(&self, _pool: &Pool, _scratch: &mut nbwp_sim::ProfileScratch) {}
        fn curve<'p>(&'p self, (): &'p ()) -> Option<Box<dyn nbwp_sim::CurveEval + 'p>> {
            None
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

    /// Priced by direct runs only: no cost curve.
    impl Profilable for Jittery {
        type Profile = ();
        fn build_profile_in(&self, _pool: &Pool, _scratch: &mut nbwp_sim::ProfileScratch) {}
        fn curve<'p>(&'p self, (): &'p ()) -> Option<Box<dyn nbwp_sim::CurveEval + 'p>> {
            None
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
