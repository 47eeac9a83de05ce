//! The serving configuration every workload shares, the oracles served
//! results are checked against, and the layer-by-layer decompositions the
//! traced run serves through.

use std::time::Instant;

use nbwp_core::prelude::*;
use nbwp_core::profile::ProfiledWorkload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::inputs::Input;
use crate::ms_since;
use crate::trace::{Tracer, REQUEST};

/// Identify strategy of every request: `--analytic`, the one strategy that
/// warm-starts from the cache and prices k-way bands.
pub const STRATEGY: Strategy = Strategy::Analytic { step: None };

/// The estimator's sampling seed (`nbwp estimate --seed`). Fixed: the
/// benchmark seed only drives input generation.
pub const EST_SEED: u64 = 7;

/// Dispatches `$body` over the workload inside an [`crate::inputs::Input`].
#[macro_export]
macro_rules! with_input {
    ($input:expr, $w:ident => $body:expr) => {
        match $input {
            $crate::inputs::Input::Cc($w) => $body,
            $crate::inputs::Input::Spmm($w) => $body,
            $crate::inputs::Input::Hh($w) => $body,
        }
    };
}

/// The k-way topology of every k = 4 request.
pub fn kway_set() -> DeviceSet {
    DeviceSet::dual_cpu_dual_gpu()
}

/// The estimator every scalar request is served by.
pub fn estimator<'a>() -> Estimator<'a> {
    Estimator::new(STRATEGY).seed(EST_SEED)
}

/// The silent reference estimate: `ProfiledEstimator::run`, no cache, no
/// recorder.
pub fn oracle_scalar<W>(w: &W) -> SamplingEstimate
where
    W: Sampleable,
    W::Sample: Profilable,
{
    estimator().profiled().run(w)
}

/// The silent reference k-way partition: one cold `run_partition`.
pub fn oracle_kway<W: Profilable>(w: &W, set: &DeviceSet) -> PartitionOutcome {
    Searcher::new(STRATEGY).profiled().run_partition(w, set)
}

/// Serves one scalar estimate through the public layer calls, inside a
/// request span with a span around each: fingerprint → sample → search →
/// extrapolate. The profile build inside the searcher call is timed by a
/// second, separate build after the request. Returns what
/// `ProfiledEstimator::run` returns for the same input, and the request's
/// latency in ms.
pub fn traced_scalar<W>(w: &W, req: u64, tracer: &mut Tracer) -> (SamplingEstimate, f64)
where
    W: Sampleable + Fingerprinted,
    W::Sample: Profilable,
{
    let pool = Pool::global();
    let t = Instant::now();
    tracer.open(req, REQUEST);
    tracer.open(req, "fingerprint");
    std::hint::black_box(w.fingerprint());
    tracer.close();
    tracer.open(req, "sample");
    let mut rng = SmallRng::seed_from_u64(EST_SEED);
    let sample = w.sample(SampleSpec::default(), &mut rng);
    tracer.close();
    tracer.open(req, "search");
    let out = Searcher::new(STRATEGY).pool(pool).profiled().run(&sample);
    let search = tracer.close();
    tracer.open(req, "extrapolate");
    let threshold = w.space().clamp(w.extrapolate(out.best_t, &sample));
    tracer.close();
    tracer.close();
    let ms = ms_since(t);
    let t = Instant::now();
    drop(std::hint::black_box(ProfiledWorkload::with_pool(
        &sample, pool,
    )));
    let build_ns = t.elapsed().as_nanos() as u64;
    tracer.add_leading_child(search, "profile.sample_build", build_ns);
    let est = SamplingEstimate {
        threshold,
        sample_threshold: out.best_t,
        overhead: w.sampling_cost() + out.search_cost,
        evaluations: out.evaluations(),
        sample_size: sample.size(),
        grad_probes: out.grad_probes,
    };
    (est, ms)
}

/// Serves one cold k-way partition through the public layer calls, inside
/// a request span with a span around each: fingerprint → full profile
/// build → cut search. Returns what `ProfiledSearcher::run_partition`
/// returns, and the request's latency in ms.
pub fn traced_kway<W>(
    w: &W,
    set: &DeviceSet,
    req: u64,
    tracer: &mut Tracer,
) -> (PartitionOutcome, f64)
where
    W: Profilable + Fingerprinted,
{
    let t = Instant::now();
    tracer.open(req, REQUEST);
    tracer.open(req, "fingerprint");
    std::hint::black_box(w.fingerprint());
    tracer.close();
    tracer.open(req, "profile.full_build");
    let pw = ProfiledWorkload::with_pool(w, Pool::global());
    tracer.close();
    tracer.open(req, "search");
    let space = w.space();
    let m = {
        let curve = w
            .curve(pw.profile())
            .expect("k-way inputs expose a cost curve");
        minimize_partition(curve.as_ref(), set, &space, space.fine_step, None)
            .expect("k-way inputs price device bands")
    };
    drop(pw);
    tracer.close();
    tracer.close();
    let out = PartitionOutcome {
        cuts: m.thresholds,
        fractions: m.partition.fractions(),
        partition: Some(m.partition),
        total: m.total,
        probes: m.probes,
        sweeps: m.sweeps,
        scalar: None,
    };
    (out, ms_since(t))
}

/// Prices a served k-way partition on the full input's cost curve.
pub fn reprice_kway<W: Profilable>(
    w: &W,
    set: &DeviceSet,
    out: &PartitionOutcome,
) -> Option<SimTime> {
    let pw = ProfiledWorkload::new(w);
    let curve = w.curve(pw.profile())?;
    curve.partition_total(set, out.partition.as_ref()?)
}

/// A served decision.
#[derive(Clone, Debug, PartialEq)]
pub enum Served {
    /// A scalar estimate.
    Scalar(SamplingEstimate),
    /// A k-way partition.
    Kway(PartitionOutcome),
}

/// Prices each served decision on its input's full cost profile, over the
/// optimum of a cold full-input search: the exhaustive fine grid for a
/// scalar threshold, a cold `run_partition` for a k-way partition. Runs on
/// the global pool; the pricing is deterministic and outside the timed
/// phase.
pub fn cost_ratios(items: &[(&Input, &Served)], set: &DeviceSet) -> Vec<f64> {
    Pool::global().map(items, |(input, served)| match served {
        Served::Scalar(est) => with_input!(*input, w => scalar_ratio(w, est.threshold)),
        Served::Kway(out) => {
            let cold = with_input!(*input, w => oracle_kway(w, set));
            crate::ratio(out.total, cold.total)
        }
    })
}

/// Cost at threshold `t` over the exhaustive fine-grid minimum, both priced
/// on the full input's profile.
fn scalar_ratio<W: Profilable>(w: &W, t: f64) -> f64 {
    let pw = ProfiledWorkload::new(w);
    let optimum = Searcher::new(Strategy::Exhaustive { step: None })
        .run(&pw)
        .best_time;
    crate::ratio(pw.run(t).total(), optimum)
}
