//! The benchmark's own contract: seeded inputs, exactly repeating counts,
//! and metric names that match `BENCHMARK.json`.

use std::collections::BTreeMap;

use nbwp_perfbench::drift::Drift;
use nbwp_perfbench::oneshot::Oneshot;
use nbwp_perfbench::registry::Registry;
use nbwp_perfbench::{run, Opts, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_array)
        .expect("a list of named entries")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs `workload` briefly and returns whether it was correct and its
/// printed metrics, in printed order.
fn metrics(workload: &str, seed: u64, trace: bool) -> (bool, Vec<(String, f64)>) {
    let report = run(&Opts {
        workload: workload.to_string(),
        seed,
        seconds: 0.3,
        trace,
    });
    let line: Value = serde_json::from_str(&report.result_json()).expect("result line is JSON");
    let correct = line.get("correct") == Some(&Value::Bool(true));
    let Some(Value::Object(m)) = line.get("metrics") else {
        panic!("metrics object")
    };
    let m = m
        .iter()
        .map(|(k, v)| {
            let value = v
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            (k.clone(), value)
        })
        .collect();
    (correct, m)
}

#[test]
fn same_seed_yields_the_same_requests_and_digests() {
    let (a, b, c) = (Oneshot::setup(3), Oneshot::setup(3), Oneshot::setup(4));
    assert_eq!(a.stream(), b.stream());
    assert_eq!(a.digests(), b.digests());
    assert_ne!(a.digests(), c.digests());

    let (a, b, c) = (Registry::setup(3), Registry::setup(3), Registry::setup(4));
    assert_eq!(a.stream(), b.stream());
    assert_eq!(a.digests(), b.digests());
    assert_ne!(a.digests(), c.digests());

    let (a, b, c) = (Drift::setup(3), Drift::setup(3), Drift::setup(4));
    assert_eq!(a.digests(), b.digests());
    assert_ne!(a.digests(), c.digests());
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    let units: BTreeMap<&str, &str> = PER_LAYER.iter().copied().collect();
    let deterministic = |name: &str| {
        units[name] == "count" || name.starts_with("regret_pct") || name == "error_rate"
    };
    for workload in WORKLOADS {
        let (ok_a, a) = metrics(workload, 5, true);
        let (ok_b, b) = metrics(workload, 5, true);
        assert!(ok_a && ok_b, "{workload}: a check failed");
        let pick = |m: &[(String, f64)]| -> Vec<(String, u64)> {
            m.iter()
                .filter(|(k, _)| deterministic(k))
                .map(|(k, v)| (k.clone(), v.to_bits()))
                .collect()
        };
        assert_eq!(pick(&a), pick(&b), "{workload}: counts differ between runs");
        let get = |k: &str| a.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("error_rate"), Some(0.0), "{workload}");
        assert_eq!(get("audit.dropped"), Some(0.0), "{workload}");
        assert!(get("audit.events").is_some_and(|v| v > 0.0), "{workload}");
    }
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(names(&bench, "workloads"), WORKLOADS);
    let e2e = names(&bench, "end_to_end");
    let layers = names(&bench, "per_layer");
    assert_eq!(e2e, END_TO_END.map(|(n, _)| n));
    assert_eq!(layers, PER_LAYER.map(|(n, _)| n).to_vec());
    let (_, printed) = metrics("drift", 1, false);
    assert_eq!(
        printed.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        e2e
    );
    let (_, printed) = metrics("drift", 1, true);
    assert_eq!(
        printed.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        layers
    );
}
