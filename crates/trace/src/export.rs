//! Trace exporters: Chrome-trace JSON, JSONL, and a human text summary —
//! plus a structural validator for the Chrome format (used by tests and CI).

use std::collections::BTreeMap;

use serde::Value;

use crate::recorder::{ArgValue, Span, Track};
use crate::Trace;

/// A JSON object from `(key, value)` pairs, in order. Shared by every
/// JSON writer in the crate.
pub(crate) fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON string value.
pub(crate) fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn arg_value(a: &ArgValue) -> Value {
    match a {
        ArgValue::U64(v) => Value::U64(*v),
        ArgValue::F64(v) => Value::F64(*v),
        ArgValue::Str(v) => Value::Str(v.clone()),
    }
}

fn args_obj(args: &[(String, ArgValue)]) -> Value {
    Value::Object(
        args.iter()
            .map(|(k, v)| (k.clone(), arg_value(v)))
            .collect(),
    )
}

/// Serializes a trace in Chrome trace-event JSON (the JSON-array flavor):
/// metadata (`"ph": "M"`) events naming the process and the three tracks as
/// threads, followed by one complete (`"ph": "X"`) event per span with
/// microsecond `ts`/`dur`. Open the output in Perfetto or
/// `chrome://tracing`.
///
/// Output is deterministic: spans appear in recording order and all maps
/// are insertion-ordered.
#[must_use]
pub fn chrome_trace(trace: &Trace) -> String {
    let mut events = Vec::new();
    events.push(obj(vec![
        ("name", s("process_name")),
        ("ph", s("M")),
        ("pid", Value::U64(0)),
        ("tid", Value::U64(0)),
        ("args", obj(vec![("name", s("nbwp"))])),
    ]));
    for track in Track::ALL {
        events.push(obj(vec![
            ("name", s("thread_name")),
            ("ph", s("M")),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(track.tid())),
            ("args", obj(vec![("name", s(track.name()))])),
        ]));
        events.push(obj(vec![
            ("name", s("thread_sort_index")),
            ("ph", s("M")),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(track.tid())),
            ("args", obj(vec![("sort_index", Value::U64(track.tid()))])),
        ]));
    }
    for span in &trace.spans {
        let mut pairs = vec![
            ("name", Value::Str(span.name.clone())),
            ("ph", s("X")),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(span.track.tid())),
            ("ts", Value::F64(span.start.as_micros())),
            ("dur", Value::F64(span.dur.as_micros())),
        ];
        if !span.args.is_empty() {
            pairs.push(("args", args_obj(&span.args)));
        }
        events.push(obj(pairs));
    }
    serde_json::to_string(&Value::Array(events)).expect("trace serialization is infallible")
}

/// Serializes a trace as JSONL: one `{"type": "trace"}` header line, one
/// `{"type": "span"}` line per span, and one `{"type": "metrics"}` trailer.
/// Suited to streaming consumers (`grep`, `jq`, log shippers).
#[must_use]
pub fn jsonl(trace: &Trace) -> String {
    use serde::Serialize;

    let mut out = String::new();
    let header = obj(vec![
        ("type", s("trace")),
        ("clock_us", Value::F64(trace.clock.as_micros())),
        ("spans", Value::U64(trace.spans.len() as u64)),
    ]);
    out.push_str(&serde_json::to_string(&header).expect("infallible"));
    out.push('\n');
    for span in &trace.spans {
        let line = obj(vec![
            ("type", s("span")),
            ("name", Value::Str(span.name.clone())),
            ("track", s(span.track.name())),
            ("depth", Value::U64(span.depth as u64)),
            ("ts_us", Value::F64(span.start.as_micros())),
            ("dur_us", Value::F64(span.dur.as_micros())),
            ("args", args_obj(&span.args)),
        ]);
        out.push_str(&serde_json::to_string(&line).expect("infallible"));
        out.push('\n');
    }
    let mut trailer = vec![("type".to_string(), s("metrics"))];
    if let Value::Object(fields) = trace.metrics.to_value() {
        trailer.extend(fields);
    }
    out.push_str(&serde_json::to_string(&Value::Object(trailer)).expect("infallible"));
    out.push('\n');
    out
}

/// Renders a human-readable text summary: pipeline phases aggregated by
/// span name, per-lane occupancy bars (a two-device Gantt view over the
/// whole trace), and the metrics. `width` controls bar width (clamped to
/// `[20, 120]`).
#[must_use]
pub fn summary(trace: &Trace, width: usize) -> String {
    let width = width.clamp(20, 120);
    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} spans over {}\n",
        trace.spans.len(),
        trace.clock
    ));

    // Pipeline phases, aggregated by name in first-appearance order.
    let mut order: Vec<&str> = Vec::new();
    let mut agg: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for span in trace.spans.iter().filter(|s| s.track == Track::Pipeline) {
        let e = agg.entry(&span.name).or_insert_with(|| {
            order.push(&span.name);
            (0, 0.0)
        });
        e.0 += 1;
        e.1 += span.dur.as_millis();
    }
    if !order.is_empty() {
        out.push_str("\npipeline phases:\n");
        for name in &order {
            let (count, ms) = agg[name];
            out.push_str(&format!("  {name:<24} {count:>5}x  {ms:>12.3} ms\n"));
        }
    }

    // Device-lane occupancy with proportional bars.
    let mut lane_order: Vec<(&str, &str)> = Vec::new();
    let mut lanes: BTreeMap<&str, f64> = BTreeMap::new();
    for span in trace.spans.iter().filter(|s| s.track != Track::Pipeline) {
        if !lanes.contains_key(span.name.as_str()) {
            lane_order.push((&span.name, span.track.name()));
        }
        *lanes.entry(&span.name).or_insert(0.0) += span.dur.as_millis();
    }
    if !lane_order.is_empty() {
        let max_ms = lanes.values().fold(0.0_f64, |a, &b| a.max(b));
        out.push_str("\ndevice lanes:\n");
        for (name, track) in &lane_order {
            let ms = lanes[name];
            let cols = if max_ms > 0.0 {
                ((ms / max_ms) * width as f64).round() as usize
            } else {
                0
            };
            let bar = "#".repeat(cols.min(width));
            out.push_str(&format!(
                "  {track:<4} {name:<14} {ms:>12.3} ms |{bar:<width$}|\n"
            ));
        }
    }

    let m = &trace.metrics;
    if !m.counters.is_empty() {
        out.push_str("\ncounters:\n");
        for (k, v) in &m.counters {
            out.push_str(&format!("  {k} = {v}\n"));
        }
    }
    if !m.gauges.is_empty() {
        out.push_str("\ngauges:\n");
        for (k, v) in &m.gauges {
            out.push_str(&format!("  {k} = {v:.6}\n"));
        }
    }
    if !m.histograms.is_empty() {
        out.push_str("\nhistograms:\n");
        for (k, h) in &m.histograms {
            out.push_str(&format!(
                "  {k}: count={} min={:.6} mean={:.6} max={:.6}\n",
                h.count,
                h.min,
                h.mean(),
                h.max
            ));
        }
    }
    out
}

/// Structural check result from [`validate_chrome_trace`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChromeCheck {
    /// Total events in the array (metadata + spans).
    pub events: usize,
    /// Complete (`"ph": "X"`) span events.
    pub complete_spans: usize,
    /// Span name → occurrence count, sorted by name.
    pub name_counts: Vec<(String, usize)>,
}

impl ChromeCheck {
    /// Number of `"X"` spans with the given name.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.name_counts
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, n)| n)
    }
}

fn num(v: &Value) -> Option<f64> {
    v.as_f64()
}

/// Validates a Chrome trace-event JSON document structurally:
///
/// * top level is a JSON array of objects;
/// * every event has a string `name` and a `ph` in `{"M", "X", "B", "E"}`;
/// * every `"X"` event has numeric `pid`/`tid` and non-negative `ts`/`dur`;
/// * on each `tid`, spans are properly nested — any two either don't
///   overlap or one contains the other.
///
/// Returns per-name span counts on success; the first violation found on
/// failure. This is what the CI trace-schema step and the round-trip tests
/// run against `nbwp estimate --trace-out` output.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeCheck, String> {
    const EPS: f64 = 1e-6; // µs; well under one simulated nanosecond

    let doc: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let events = doc
        .as_array()
        .ok_or_else(|| "top level must be a JSON array".to_string())?;

    let mut check = ChromeCheck {
        events: events.len(),
        ..ChromeCheck::default()
    };
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut per_tid: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"name\""))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing string \"ph\""))?;
        match ph {
            "M" => {}
            "X" => {
                let field = |key: &str| -> Result<f64, String> {
                    ev.get(key)
                        .and_then(num)
                        .ok_or_else(|| format!("event {i} ({name}): missing numeric \"{key}\""))
                };
                field("pid")?;
                let tid = field("tid")? as u64;
                let ts = field("ts")?;
                let dur = field("dur")?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative ts/dur"));
                }
                check.complete_spans += 1;
                *counts.entry(name.to_string()).or_insert(0) += 1;
                per_tid.entry(tid).or_default().push((ts, ts + dur));
            }
            "B" | "E" => {
                for key in ["pid", "tid", "ts"] {
                    ev.get(key)
                        .and_then(num)
                        .ok_or_else(|| format!("event {i} ({name}): missing numeric \"{key}\""))?;
                }
                if ph == "B" {
                    check.complete_spans += 1;
                    *counts.entry(name.to_string()).or_insert(0) += 1;
                }
            }
            other => {
                return Err(format!("event {i} ({name}): unsupported ph {other:?}"));
            }
        }
    }

    for (tid, mut spans) in per_tid {
        // Parent-first order: by start ascending, then by end descending.
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("validated finite")
                .then(b.1.partial_cmp(&a.1).expect("validated finite"))
        });
        let mut open_ends: Vec<f64> = Vec::new();
        for (ts, end) in spans {
            while open_ends.last().is_some_and(|&top| top <= ts + EPS) {
                open_ends.pop();
            }
            if let Some(&top) = open_ends.last() {
                if end > top + EPS {
                    return Err(format!(
                        "tid {tid}: span [{ts}, {end}]µs partially overlaps an \
                         enclosing span ending at {top}µs"
                    ));
                }
            }
            open_ends.push(end);
        }
    }

    check.name_counts = counts.into_iter().collect();
    Ok(check)
}

/// Containment helper for round-trip tests: true when `inner` lies within
/// `outer` (with a sub-nanosecond tolerance), comparing simulated times.
#[must_use]
pub fn span_contains(outer: &Span, inner: &Span) -> bool {
    const EPS: f64 = 1e-12;
    outer.start.as_secs() <= inner.start.as_secs() + EPS
        && inner.end().as_secs() <= outer.end().as_secs() + EPS
}

#[cfg(test)]
mod tests {
    use nbwp_sim::{KernelStats, RunBreakdown, RunReport, SimTime};

    use crate::Recorder;

    use super::*;

    fn sample_trace() -> Trace {
        let rec = Recorder::new();
        let est = rec.open("estimate");
        let sam = rec.open("sample");
        rec.advance(SimTime::from_millis(1.0));
        rec.close(sam);
        let idf = rec.open("identify");
        for _ in 0..3 {
            let ev = rec.open("identify.eval");
            rec.record_run(&RunReport {
                breakdown: RunBreakdown {
                    partition: SimTime::from_millis(0.5),
                    transfer_in: SimTime::from_millis(1.0),
                    cpu_compute: SimTime::from_millis(4.0),
                    gpu_compute: SimTime::from_millis(2.0),
                    transfer_out: SimTime::from_millis(0.5),
                    merge: SimTime::from_millis(0.25),
                },
                cpu_stats: KernelStats {
                    flops: 10,
                    mem_read_bytes: 80,
                    ..KernelStats::default()
                },
                gpu_stats: KernelStats {
                    flops: 90,
                    mem_read_bytes: 20,
                    ..KernelStats::default()
                },
            });
            rec.close(ev);
        }
        rec.counter_add("search.evaluations", 3);
        rec.close(idf);
        rec.close(est);
        rec.finish()
    }

    #[test]
    fn chrome_trace_passes_validation() {
        let json = chrome_trace(&sample_trace());
        let check = validate_chrome_trace(&json).expect("valid trace");
        // 1 process_name + 3x(thread_name + thread_sort_index) = 7 metadata
        // events, plus 6 pipeline spans (estimate, sample, identify, 3
        // evals) and 18 lane spans.
        assert_eq!(check.events, 7 + 6 + 18);
        assert_eq!(check.complete_spans, 24);
        assert_eq!(check.count("identify.eval"), 3);
        assert_eq!(check.count("sample"), 1);
        assert_eq!(check.count("cpu_compute"), 3);
        assert_eq!(check.count("merge"), 3);
    }

    #[test]
    fn chrome_trace_is_byte_deterministic() {
        assert_eq!(chrome_trace(&sample_trace()), chrome_trace(&sample_trace()));
    }

    #[test]
    fn chrome_trace_names_threads() {
        let json = chrome_trace(&sample_trace());
        for track in ["pipeline", "cpu", "gpu"] {
            assert!(json.contains(&format!("\"name\":\"{track}\"")), "{track}");
        }
    }

    #[test]
    fn jsonl_emits_one_line_per_span_plus_header_and_metrics() {
        let trace = sample_trace();
        let text = jsonl(&trace);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), trace.spans.len() + 2);
        assert!(lines[0].contains("\"type\":\"trace\""));
        assert!(lines[1].contains("\"type\":\"span\""));
        assert!(lines.last().unwrap().contains("\"type\":\"metrics\""));
        // Every line parses on its own.
        for line in &lines {
            let _: Value = serde_json::from_str(line).expect("line is JSON");
        }
    }

    #[test]
    fn summary_lists_phases_lanes_and_metrics() {
        let text = summary(&sample_trace(), 40);
        assert!(text.contains("pipeline phases:"), "{text}");
        assert!(text.contains("identify.eval"), "{text}");
        assert!(text.contains("cpu_compute"), "{text}");
        assert!(text.contains("search.evaluations = 3"), "{text}");
        assert!(text.contains("device.cpu.utilization"), "{text}");
        assert!(text.contains('#'), "{text}");
    }

    #[test]
    fn summary_of_empty_trace_does_not_panic() {
        let text = summary(&Trace::default(), 40);
        assert!(text.contains("0 spans"));
    }

    #[test]
    fn validator_rejects_partial_overlap() {
        let json = r#"[
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":0.0,"dur":10.0},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":5.0,"dur":10.0}
        ]"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_fields_and_bad_ph() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"[{"ph":"X"}]"#).is_err());
        assert!(validate_chrome_trace(r#"[{"name":"a","ph":"X","pid":0,"tid":0}]"#).is_err());
        assert!(validate_chrome_trace(r#"[{"name":"a","ph":"Q"}]"#).is_err());
        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn validator_accepts_begin_end_pairs() {
        let json = r#"[
            {"name":"a","ph":"B","pid":0,"tid":0,"ts":0.0},
            {"name":"a","ph":"E","pid":0,"tid":0,"ts":5.0}
        ]"#;
        let check = validate_chrome_trace(json).expect("B/E are legal");
        assert_eq!(check.count("a"), 1);
    }

    #[test]
    fn span_containment_helper() {
        let trace = sample_trace();
        let estimate = &trace.spans[0];
        for inner in &trace.spans[1..] {
            assert!(span_contains(estimate, inner), "{}", inner.name);
        }
    }
}
