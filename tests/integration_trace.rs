//! Round-trip integration for the observability layer: traces recorded
//! during a real estimate export to Chrome-trace JSON, parse back, nest
//! correctly, and agree span-for-span with the search accounting.

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_trace::validate_chrome_trace;
use serde_json::Value;

const SCALE: f64 = 0.004;
const SEED: u64 = 42;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650().scaled_for(SCALE)
}

fn cc_workload() -> CcWorkload {
    let d = Dataset::by_name("cant").unwrap();
    CcWorkload::new(d.graph(SCALE, SEED), platform())
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::CoarseToFine,
    Strategy::RaceThenFine,
    Strategy::GradientDescent { max_evals: 20 },
    Strategy::Exhaustive { step: None },
];

/// One parsed `"ph": "X"` event: (name, tid, ts, dur).
fn complete_events(json: &str) -> Vec<(String, u64, f64, f64)> {
    let root: Value = serde_json::from_str(json).expect("trace must be valid JSON");
    root.as_array()
        .expect("Chrome trace is a JSON array")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| {
            (
                e.get("name").and_then(Value::as_str).unwrap().to_string(),
                e.get("tid").and_then(Value::as_u64).unwrap(),
                e.get("ts").and_then(Value::as_f64).unwrap(),
                e.get("dur").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect()
}

fn find<'a>(events: &'a [(String, u64, f64, f64)], name: &str) -> &'a (String, u64, f64, f64) {
    events
        .iter()
        .find(|(n, _, _, _)| n == name)
        .unwrap_or_else(|| panic!("no span named {name}"))
}

fn contains(outer: &(String, u64, f64, f64), inner: &(String, u64, f64, f64)) -> bool {
    const EPS: f64 = 1e-6; // microseconds
    inner.2 >= outer.2 - EPS && inner.2 + inner.3 <= outer.2 + outer.3 + EPS
}

#[test]
fn chrome_round_trip_nests_pipeline_spans_for_every_strategy() {
    let w = cc_workload();
    for strategy in STRATEGIES {
        let rec = Recorder::new();
        let est = Estimator::new(strategy).seed(SEED).recorder(&rec).run(&w);
        let trace = rec.finish();
        let json = trace.to_chrome_trace();

        // Structural validation (the same check `nbwp trace` runs).
        let check = validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{strategy:?}: invalid trace: {e}"));
        assert!(check.events > 0);

        let events = complete_events(&json);
        let estimate_span = find(&events, "estimate");
        assert_eq!(estimate_span.1, 0, "estimate lives on the pipeline track");
        for name in ["sample", "identify", "extrapolate"] {
            let inner = find(&events, name);
            assert_eq!(inner.1, 0, "{name} lives on the pipeline track");
            assert!(
                contains(estimate_span, inner),
                "{strategy:?}: {name} not nested in estimate"
            );
        }

        // One identify.eval per candidate evaluation, each inside identify.
        let identify = find(&events, "identify").clone();
        let evals: Vec<_> = events
            .iter()
            .filter(|(n, _, _, _)| n == "identify.eval")
            .collect();
        assert_eq!(
            evals.len(),
            est.evaluations,
            "{strategy:?}: identify.eval spans vs evaluations"
        );
        for e in &evals {
            assert!(
                contains(&identify, e),
                "{strategy:?}: eval outside identify"
            );
        }

        // Each eval emits all six lanes, CPU lanes on tid 1, GPU on tid 2.
        for (lane, tid) in [
            ("partition", 1),
            ("cpu_compute", 1),
            ("merge", 1),
            ("transfer_in", 2),
            ("gpu_compute", 2),
            ("transfer_out", 2),
        ] {
            let lanes: Vec<_> = events
                .iter()
                .filter(|(n, t, _, _)| n == lane && *t == tid)
                .collect();
            assert_eq!(
                lanes.len(),
                est.evaluations,
                "{strategy:?}: {lane} span count"
            );
        }
    }
}

#[test]
fn trace_durations_reconcile_with_estimate_overhead() {
    let w = cc_workload();
    for strategy in STRATEGIES {
        let rec = Recorder::new();
        let est = Estimator::new(strategy).seed(SEED).recorder(&rec).run(&w);
        let trace = rec.finish();
        let sample = trace.spans_named("sample").next().unwrap().dur;
        let identify = trace.spans_named("identify").next().unwrap().dur;
        // overhead = sampling cost + search cost, and the two spans time
        // exactly those phases (tolerance covers fp summation order).
        let drift = ((sample + identify).as_secs() - est.overhead.as_secs()).abs();
        assert!(
            drift <= 1e-9 * est.overhead.as_secs().max(1e-12),
            "{strategy:?}: sample {sample} + identify {identify} != overhead {}",
            est.overhead
        );
        // The whole pipeline span covers the overhead too.
        let whole = trace.spans_named("estimate").next().unwrap().dur;
        assert!(whole >= sample + identify);
    }
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let w = cc_workload();
    for strategy in STRATEGIES {
        let capture = || {
            let rec = Recorder::new();
            let _ = Estimator::new(strategy).seed(SEED).recorder(&rec).run(&w);
            let trace = rec.finish();
            (trace.to_chrome_trace(), trace.to_jsonl())
        };
        let (chrome_a, jsonl_a) = capture();
        let (chrome_b, jsonl_b) = capture();
        assert_eq!(
            chrome_a, chrome_b,
            "{strategy:?}: chrome trace not reproducible"
        );
        assert_eq!(
            jsonl_a, jsonl_b,
            "{strategy:?}: jsonl trace not reproducible"
        );
    }
}

#[test]
fn disabled_recorder_changes_nothing() {
    let w = cc_workload();
    for strategy in STRATEGIES {
        let plain = Estimator::new(strategy).seed(SEED).run(&w);
        let rec = Recorder::disabled();
        let silent = Estimator::new(strategy).seed(SEED).recorder(&rec).run(&w);
        assert_eq!(plain.threshold, silent.threshold, "{strategy:?}");
        assert_eq!(plain.overhead, silent.overhead, "{strategy:?}");
        assert_eq!(plain.evaluations, silent.evaluations, "{strategy:?}");
        assert_eq!(plain.sample_size, silent.sample_size, "{strategy:?}");
        let trace = rec.finish();
        assert!(trace.spans.is_empty(), "disabled recorder recorded spans");
        assert!(trace.metrics.counters.is_empty());
    }

    // And the enabled recorder is an observer, not a participant: results
    // match the plain path bit-for-bit.
    let rec = Recorder::new();
    let traced = Estimator::new(Strategy::CoarseToFine)
        .seed(SEED)
        .recorder(&rec)
        .run(&w);
    let plain = Estimator::new(Strategy::CoarseToFine).seed(SEED).run(&w);
    assert_eq!(plain.threshold, traced.threshold);
    assert_eq!(plain.overhead, traced.overhead);
}

#[test]
fn metrics_snapshot_reports_search_and_device_figures() {
    let w = cc_workload();
    let rec = Recorder::new();
    let est = Estimator::new(Strategy::CoarseToFine)
        .seed(SEED)
        .recorder(&rec)
        .run(&w);
    let trace = rec.finish();
    let m = &trace.metrics;
    assert_eq!(
        m.counter("search.evaluations"),
        Some(est.evaluations as u64)
    );
    assert!(m.gauge("search.cost_ms").unwrap() > 0.0);
    let rate = m.gauge("sample.rate").unwrap();
    assert!((0.0..=1.0).contains(&rate), "sample rate {rate}");
    for g in ["device.cpu.utilization", "device.gpu.utilization"] {
        let u = m.gauge(g).unwrap_or_else(|| panic!("missing {g}"));
        assert!((0.0..=1.0).contains(&u), "{g} = {u}");
    }
    let hist = m.histogram("identify.eval_ms").unwrap();
    assert_eq!(hist.count, est.evaluations as u64);
    assert!(hist.min <= hist.max);
}

#[test]
fn experiment_rows_record_quality_gauges() {
    let w = cc_workload();
    let rec = Recorder::new();
    let cfg = ExperimentConfig::cc(SEED);
    let row = run_one_with("cant", &w, &cfg, &rec);
    let trace = rec.finish();
    let gauge = trace.metrics.gauge("threshold.diff_pct").unwrap();
    assert!((gauge - row.threshold_diff_pct()).abs() < 1e-12);
    assert!(trace.metrics.gauge("time.diff_pct").is_some());
}
