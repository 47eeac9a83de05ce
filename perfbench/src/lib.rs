//! # nbwp-perfbench — the repository benchmark
//!
//! Drives three closed-loop workloads through the library's public API,
//! configured the way the CLI's serving modes configure it:
//!
//! - `oneshot` — `nbwp estimate --analytic --audit-out`: every request is a
//!   fresh workload object served cold through `run_cached` /
//!   `run_partition_cached` with a flight recorder and no cache;
//! - `registry` — `nbwp estimate --analytic --batch`: skewed repeats of
//!   known inputs, drifted siblings and never-seen inputs behind one shared
//!   `ThresholdCache` and `FlightRecorder`;
//! - `drift` — `nbwp estimate --drift`: `DriftServer`s replaying windowed
//!   delta scripts at k = 2 and k = 4.
//!
//! One client thread sends each request after the previous reply. A run
//! serves whole *rounds* of a fixed, seeded request stream until the timed
//! phase has lasted `--seconds` (and at least [`MIN_ROUNDS`] rounds); state
//! that requests mutate (cache, recorder, drift servers) is rebuilt untimed
//! at the start of each round, so every round does the same work and every
//! count metric repeats exactly. Each request's latency is its best over
//! the rounds.
//!
//! `--trace 0` reports the end-to-end metrics ([`END_TO_END`]); `--trace 1`
//! runs a third of the time untraced and the rest with spans around each
//! layer call, and reports the per-layer metrics ([`PER_LAYER`]).

#![warn(clippy::all)]

pub mod drift;
pub mod inputs;
pub mod oneshot;
pub mod registry;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use trace::{Tracer, REQUEST};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["oneshot", "registry", "drift"];

/// End-to-end metrics (name, unit), printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("scalar_ms_p50", "ms"),
    ("scalar_ms_p90", "ms"),
    ("kway_ms_p50", "ms"),
    ("kway_ms_p90", "ms"),
    ("requests_per_s", "1/s"),
    ("cost_ratio_mean", "ratio"),
    ("cost_ratio_max", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), printed with `--trace 1`. Times named
/// `*.ms` / `*_ms` without a class qualifier are self time per request;
/// counts are per round of the request stream.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("fingerprint.ms", "ms"),
    ("fingerprint.calls", "count"),
    ("sample.ms", "ms"),
    ("sample.units", "count"),
    ("profile.sample_build_ms", "ms"),
    ("profile.full_build_ms", "ms"),
    ("profile.builds", "count"),
    ("search.ms", "ms"),
    ("search.evaluations", "count"),
    ("search.grad_probes", "count"),
    ("search.kway_probes", "count"),
    ("search.kway_sweeps", "count"),
    ("extrapolate.ms", "ms"),
    ("threshold_cache.exact_hits", "count"),
    ("threshold_cache.near_hits", "count"),
    ("threshold_cache.misses", "count"),
    ("threshold_cache.kway_exact_hits", "count"),
    ("threshold_cache.kway_near_hits", "count"),
    ("threshold_cache.kway_misses", "count"),
    ("threshold_cache.probes_saved", "count"),
    ("threshold_cache.hit_ratio", "ratio"),
    ("threshold_cache.exact_hit_us", "us"),
    ("estimator.ms", "ms"),
    ("estimator.shadow_runs", "count"),
    ("estimator.shadow_request_ms", "ms"),
    ("estimator.near_hit_ms", "ms"),
    ("estimator.batch_classes", "count"),
    ("workloads.direct_run_ms", "ms"),
    ("audit.events", "count"),
    ("audit.dropped", "count"),
    ("drift.step_ms", "ms"),
    ("drift.apply_delta_ms", "ms"),
    ("drift.patch_ms", "ms"),
    ("drift.span_units", "count"),
    ("drift.probes", "count"),
    ("drift.patched", "count"),
    ("drift.nudged", "count"),
    ("drift.rebuilt", "count"),
    ("request.remainder_ms", "ms"),
    ("trace.overhead_rps", "1/s"),
    ("trace.spans", "count"),
    ("error_rate", "ratio"),
    ("regret_pct_mean", "%"),
    ("regret_pct_max", "%"),
];

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_RUNS: usize = 5;

/// Minimum requests of each kind in one round, so p90 has at least ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 110;

/// Minimum rounds per measured phase: every request's latency is its best
/// over at least this many repetitions.
pub const MIN_ROUNDS: usize = 5;

/// Span layers that are replicas of a served call rather than parts of
/// it: their self time is subtracted from the request, not nested in it.
pub const REPLICA: &str = "replica";

/// What one round of a workload's request stream produced.
#[derive(Default)]
pub struct Round {
    /// Requests attempted.
    pub requests: u64,
    /// Latency of each timed call (a request, or a batch of them), in
    /// serving order; the timed phase is their sum.
    pub call_ms: Vec<f64>,
    /// Latency of each scalar request, in ms, in serving order.
    pub scalar_ms: Vec<f64>,
    /// Latency of each k-way request, in ms, in serving order.
    pub kway_ms: Vec<f64>,
    /// One entry per failed request or check.
    pub failures: Vec<String>,
    /// Deterministic per-round counts (per-layer metric names).
    pub counts: BTreeMap<&'static str, f64>,
    /// Latency classes (per-layer metric name → samples).
    pub classes: BTreeMap<&'static str, Vec<f64>>,
}

impl Round {
    /// Adds `v` to count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Records one sample of latency class `name`.
    pub fn class(&mut self, name: &'static str, v: f64) {
        self.classes.entry(name).or_default().push(v);
    }
}

/// A workload: seeded set-up, then rounds of its request stream.
pub trait Bench {
    /// Serves one round; `tracer` records spans around each layer call
    /// when enabled.
    fn round(&mut self, tracer: &mut Tracer) -> Round;

    /// Prices every decision served in the first round against the cold
    /// full-input optimum (served cost over optimum), outside the timed
    /// phase. Pricing failures are reported as failed checks.
    fn cost_ratios(&mut self) -> (Vec<f64>, Vec<String>);

    /// Input sizes and stream shape, as `(key, JSON value)` pairs.
    fn context(&self) -> Vec<(&'static str, String)>;
}

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input generator seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

impl Opts {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let val = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
            match flag.as_str() {
                "--workload" => o.workload = val.to_string(),
                "--seed" => o.seed = val.parse().map_err(|e| bad(&e))?,
                "--seconds" => o.seconds = val.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    o.trace = match val {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&o.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                o.workload
            ));
        }
        if !(o.seconds > 0.0 && o.seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {}", o.seconds));
        }
        Ok(o)
    }
}

/// The outcome of one benchmark run.
pub struct Report {
    /// Requests attempted over the whole run.
    pub attempted: u64,
    /// Failed requests and checks, with reasons.
    pub failures: Vec<String>,
    /// Metric name, value, unit — in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run context as a JSON object.
    pub context: String,
    /// Recorded spans as JSON lines (traced runs only).
    pub spans: Option<String>,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len()
        )
    }
}

/// Runs one workload end to end.
pub fn run(opts: &Opts) -> Report {
    let seed = opts.seed;
    match opts.workload.as_str() {
        "oneshot" => drive(opts, || oneshot::Oneshot::setup(seed)),
        "registry" => drive(opts, || registry::Registry::setup(seed)),
        "drift" => drive(opts, || drift::Drift::setup(seed)),
        other => unreachable!("workload {other} passed Opts::parse"),
    }
}

/// Serves `f` as one request: a panic counts as a failure, not a crash.
pub fn guarded<R>(failures: &mut Vec<String>, what: &str, f: impl FnOnce() -> R) -> Option<R> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Some(r),
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            failures.push(format!("{what} panicked: {msg}"));
            None
        }
    }
}

/// Latencies of one round, in serving order.
#[derive(Clone)]
struct Timing {
    requests: u64,
    call_ms: Vec<f64>,
    scalar_ms: Vec<f64>,
    kway_ms: Vec<f64>,
}

impl Timing {
    fn timed_s(&self) -> f64 {
        self.call_ms.iter().sum::<f64>() / 1e3
    }

    fn rps(&self) -> f64 {
        self.requests as f64 / self.timed_s().max(1e-9)
    }
}

/// Rounds served back to back until the time budget is spent.
#[derive(Default)]
struct Phase {
    rounds: Vec<Timing>,
    /// Wall time of the rounds, untimed preparation and checks included.
    wall_s: f64,
    failures: Vec<String>,
    counts: BTreeMap<&'static str, f64>,
    classes: BTreeMap<&'static str, Vec<f64>>,
}

impl Phase {
    fn timed_s(&self) -> f64 {
        self.rounds.iter().map(Timing::timed_s).sum()
    }

    fn requests(&self) -> u64 {
        self.rounds.iter().map(|r| r.requests).sum()
    }

    /// One round in which every request took its best time over all the
    /// rounds. Rounds repeat identical work, so a request's spread across
    /// them is interference from outside the process (the host is shared,
    /// and slows whole stretches of a run by up to a sixth); its best time
    /// is its cost — the min-of-K timing of the repository's other
    /// benchmarks, taken per request.
    fn best(&self) -> Timing {
        self.best_of(self.rounds.len())
    }

    /// [`Phase::best`] over the first `k` rounds only.
    fn best_of(&self, k: usize) -> Timing {
        let min = |a: &mut Vec<f64>, b: &[f64]| {
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.min(*y);
            }
        };
        let mut best = self.rounds[0].clone();
        for r in &self.rounds[1..k] {
            min(&mut best.call_ms, &r.call_ms);
            min(&mut best.scalar_ms, &r.scalar_ms);
            min(&mut best.kway_ms, &r.kway_ms);
        }
        best
    }
}

/// Serves rounds until the phase has lasted `budget_s` (but at least
/// `min_rounds` rounds, and at most three budgets).
fn phase<B: Bench>(bench: &mut B, tracer: &mut Tracer, budget_s: f64, min_rounds: usize) -> Phase {
    let mut p = Phase::default();
    loop {
        let t = Instant::now();
        let mut r = bench.round(tracer);
        p.wall_s += t.elapsed().as_secs_f64();
        if p.rounds.is_empty() {
            p.counts = r.counts.clone();
        } else if r.counts != p.counts {
            r.failures.push(format!(
                "round {} counts differ from round 0: {:?} vs {:?}",
                p.rounds.len(),
                r.counts,
                p.counts
            ));
        }
        p.rounds.push(Timing {
            requests: r.requests,
            call_ms: r.call_ms,
            scalar_ms: r.scalar_ms,
            kway_ms: r.kway_ms,
        });
        p.failures.extend(r.failures);
        for (k, v) in r.classes {
            p.classes.entry(k).or_default().extend(v);
        }
        let timed = p.timed_s();
        if (timed >= budget_s && p.rounds.len() >= min_rounds) || timed >= 3.0 * budget_s {
            return p;
        }
    }
}

fn drive<B: Bench>(opts: &Opts, setup: impl Fn() -> B) -> Report {
    let mut failures = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUP_RUNS);
    let mut bench = None;
    for _ in 0..SETUP_RUNS {
        drop(bench.take());
        let t = Instant::now();
        bench = guarded(&mut failures, "setup", &setup);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Some(mut bench) = bench else {
        return Report {
            attempted: 1,
            failures,
            metrics: Vec::new(),
            context: "{}".to_string(),
            spans: None,
        };
    };
    let seconds = opts.seconds;
    let (untraced, traced, tracer) = if opts.trace {
        let untraced = phase(&mut bench, &mut Tracer::new(false), seconds / 3.0, 2);
        let mut tracer = Tracer::new(true);
        let traced = phase(&mut bench, &mut tracer, seconds * 2.0 / 3.0, MIN_ROUNDS);
        (untraced, Some(traced), Some(tracer))
    } else {
        let untraced = phase(&mut bench, &mut Tracer::new(false), seconds, MIN_ROUNDS);
        (untraced, None, None)
    };
    let t = Instant::now();
    let (ratios, pricing_failures) = bench.cost_ratios();
    let pricing_s = t.elapsed().as_secs_f64();
    failures.extend(pricing_failures);
    failures.extend(untraced.failures.iter().cloned());
    let mut attempted = untraced.requests();
    if let Some(t) = &traced {
        failures.extend(t.failures.iter().cloned());
        attempted += t.requests();
    }
    let ratio_mean = mean(&ratios);
    let ratio_max = ratios.iter().copied().fold(f64::NAN, f64::max);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let measured = traced.as_ref().unwrap_or(&untraced);
    let best = measured.best();
    if best.scalar_ms.len() < MIN_SAMPLES || best.kway_ms.len() < MIN_SAMPLES {
        failures.push(format!(
            "a round has {} scalar and {} k-way requests; p90 needs {MIN_SAMPLES} of each",
            best.scalar_ms.len(),
            best.kway_ms.len()
        ));
    }
    let mut samples = Vec::new();
    if let (Some(t), Some(tracer)) = (&traced, &tracer) {
        let n = t.requests().max(1) as f64;
        let self_ms = tracer.self_ms();
        let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / n;
        for (metric, span) in [
            ("fingerprint.ms", "fingerprint"),
            ("sample.ms", "sample"),
            ("profile.sample_build_ms", "profile.sample_build"),
            ("profile.full_build_ms", "profile.full_build"),
            ("search.ms", "search"),
            ("extrapolate.ms", "extrapolate"),
            ("estimator.ms", "estimator"),
            ("drift.apply_delta_ms", "drift.apply_delta"),
            ("drift.patch_ms", "drift.patch"),
        ] {
            values.insert(metric, layer(span));
        }
        let request_ms: f64 = tracer
            .spans()
            .iter()
            .filter(|s| s.layer == REQUEST)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .sum();
        let layers_ms: f64 = self_ms
            .iter()
            .filter(|(k, _)| **k != REQUEST && **k != REPLICA)
            .map(|(_, v)| v)
            .sum();
        values.insert("request.remainder_ms", (request_ms - layers_ms) / n);
        if opts.workload == "drift" {
            values.insert("drift.step_ms", request_ms / n);
        }
        // Best-of-K over as many rounds in each phase: a larger K alone
        // would favour the phase that served more rounds.
        let k = untraced.rounds.len().min(t.rounds.len());
        values.insert(
            "trace.overhead_rps",
            untraced.best_of(k).rps() - t.best_of(k).rps(),
        );
        values.insert(
            "trace.spans",
            tracer.spans().len() as f64 / t.rounds.len() as f64,
        );
        // Counts of the traced rounds; those only the served path records
        // (audit) come from the untraced rounds.
        for (k, v) in untraced.counts.iter().chain(&t.counts) {
            values.insert(k, *v);
        }
        for (k, v) in &t.classes {
            values.insert(k, mean(v));
        }
        // `misses` count every exact-key miss, warm-started ones included.
        let count = |k: &str| t.counts.get(k).copied().unwrap_or(0.0);
        let lookups = count("threshold_cache.exact_hits")
            + count("threshold_cache.misses")
            + count("threshold_cache.kway_exact_hits")
            + count("threshold_cache.kway_misses");
        let hits = count("threshold_cache.exact_hits")
            + count("threshold_cache.near_hits")
            + count("threshold_cache.kway_exact_hits")
            + count("threshold_cache.kway_near_hits");
        values.insert(
            "threshold_cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        values.insert(
            "error_rate",
            failures.len() as f64 / attempted.max(1) as f64,
        );
        values.insert("regret_pct_mean", (ratio_mean - 1.0) * 100.0);
        values.insert("regret_pct_max", (ratio_max - 1.0) * 100.0);
        for (k, v) in &t.classes {
            samples.push(format!("\"{k}\": {}", v.len()));
        }
    } else {
        values.insert("setup_s", median(&setup_s));
        values.insert("scalar_ms_p50", percentile(&best.scalar_ms, 0.5));
        values.insert("scalar_ms_p90", percentile(&best.scalar_ms, 0.9));
        values.insert("kway_ms_p50", percentile(&best.kway_ms, 0.5));
        values.insert("kway_ms_p90", percentile(&best.kway_ms, 0.9));
        values.insert("requests_per_s", best.rps());
        values.insert("cost_ratio_mean", ratio_mean);
        values.insert("cost_ratio_max", ratio_max);
        values.insert("peak_rss_mb", peak_rss_mb());
    }
    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                failures.push(format!("metric {name} is not finite"));
            }
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect();

    let mut ctx = vec![
        ("workload", format!("\"{}\"", opts.workload)),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .to_string(),
        ),
        (
            "pool_threads",
            nbwp_par::Pool::global().threads().to_string(),
        ),
        ("setup_runs_s", format!("{setup_s:?}")),
        ("rounds", measured.rounds.len().to_string()),
        (
            "round_requests_per_s",
            format!(
                "{:?}",
                measured
                    .rounds
                    .iter()
                    .map(|r| r.rps().round())
                    .collect::<Vec<_>>()
            ),
        ),
        ("timed_s", measured.timed_s().to_string()),
        ("rounds_wall_s", measured.wall_s.to_string()),
        ("pricing_s", pricing_s.to_string()),
        ("scalar_samples", best.scalar_ms.len().to_string()),
        ("kway_samples", best.kway_ms.len().to_string()),
        ("priced_decisions", ratios.len().to_string()),
        ("class_samples", format!("{{{}}}", samples.join(", "))),
    ];
    ctx.extend(bench.context());
    let context = format!(
        "{{{}}}",
        ctx.iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Report {
        attempted: attempted.max(1),
        failures,
        metrics,
        context,
        spans: tracer.map(|t| t.to_jsonl()),
    }
}

/// Arithmetic mean (NaN for no samples).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (NaN for no samples).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Relative cost of a served decision over the optimum.
pub fn ratio(served: nbwp_core::prelude::SimTime, optimum: nbwp_core::prelude::SimTime) -> f64 {
    served.as_secs() / optimum.as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 6.0);
        assert_eq!(percentile(&v, 0.9), 10.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn opts_reject_bad_input() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(Opts::parse(&args("--workload oneshot --seed 3 --seconds 2 --trace 1")).is_ok());
        assert!(Opts::parse(&args("--workload nope --seed 3")).is_err());
        assert!(Opts::parse(&args("--workload drift --trace 2")).is_err());
        assert!(Opts::parse(&args("--workload drift --seed")).is_err());
    }
}
