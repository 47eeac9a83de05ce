//! Named metrics: counters, gauges, and fixed-bucket histograms — plus the
//! machine-readable exporters (Prometheus text exposition and a versioned
//! JSON snapshot) that let metrics leave the process without parsing the
//! human text summary.
//!
//! A [`MetricsRegistry`] accumulates scalar observability signals alongside
//! the span timeline: monotonic counters (`search.evaluations`), last-write
//! gauges (`sample.rate`, `threshold.diff_pct`, per-device utilization), and
//! histograms (`identify.eval_ms`, `estimate.latency_us`). Histograms keep
//! count/sum/min/max plus per-bucket counts over the shared exponential
//! ladder [`BUCKET_BOUNDS`], so percentile questions ("p95 serving
//! latency?") are answerable from a snapshot. Registries live inside a
//! [`crate::Recorder`]; call sites never talk to them directly.
//!
//! Snapshots are deterministic: names are emitted in sorted (BTreeMap)
//! order, so two runs that record the same values serialize byte-for-byte
//! identically.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::export::obj;

/// Shared histogram bucket ladder: a 1–2.5–5 exponential grid spanning the
/// magnitudes the pipeline records — evaluation counts (units), simulated
/// costs (ms), serving latencies (µs), and regret percentages. One ladder
/// for every histogram keeps snapshots comparable and the Prometheus
/// exposition fixed-shape. Each bound is an inclusive upper edge (`le`);
/// observations above the last bound land in the implicit `+Inf` bucket.
pub const BUCKET_BOUNDS: [f64; 25] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
];

/// Number of buckets including the implicit `+Inf` bucket.
pub const BUCKET_COUNT: usize = BUCKET_BOUNDS.len() + 1;

/// Index of the bucket an observation falls into: the first bound with
/// `value <= bound` (so a value exactly on a boundary counts toward that
/// boundary's bucket, matching Prometheus `le` semantics), or the `+Inf`
/// bucket for anything larger. Non-finite and negative observations are
/// clamped into the outermost buckets (`-∞..=first` and `+Inf`).
#[must_use]
pub fn bucket_index(value: f64) -> usize {
    if value.is_nan() {
        return BUCKET_BOUNDS.len();
    }
    BUCKET_BOUNDS
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(BUCKET_BOUNDS.len())
}

/// Accumulator for named counters, gauges, and histograms.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistAcc>,
}

#[derive(Copy, Clone, Debug)]
struct HistAcc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Per-bucket (non-cumulative) counts over [`BUCKET_BOUNDS`] + `+Inf`.
    buckets: [u64; BUCKET_COUNT],
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named monotonic counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one observation into the named histogram.
    pub fn histogram_record(&mut self, name: &str, value: f64) {
        let h = self.histograms.entry(name.to_string()).or_insert(HistAcc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKET_COUNT],
        });
        h.count += 1;
        h.sum += value;
        h.min = h.min.min(value);
        h.max = h.max.max(value);
        h.buckets[bucket_index(value)] += 1;
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Freezes the current state into a serializable, name-sorted snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSummary {
                            count: h.count,
                            sum: h.sum,
                            min: h.min,
                            max: h.max,
                            buckets: h.buckets.to_vec(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Point-in-time, name-sorted view of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Last-write gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }
}

/// Count / sum / min / max / bucketed summary of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Per-bucket (non-cumulative) counts over [`BUCKET_BOUNDS`] plus the
    /// trailing `+Inf` bucket. Empty for summaries predating the bucketed
    /// format (all accessors tolerate that).
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// Mean observation (0.0 for an empty histogram).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate: the upper edge of the bucket
    /// holding the `q`-th observation, clamped to the observed `[min, max]`
    /// range (so `quantile(1.0) == max` and small histograms stay sane).
    /// Returns 0.0 for an empty histogram; `q` is clamped to `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.buckets.is_empty() {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let edge = if i < BUCKET_BOUNDS.len() {
                    BUCKET_BOUNDS[i]
                } else {
                    self.max
                };
                return edge.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Maps a dotted metric name to a legal Prometheus name: `nbwp_` prefix,
/// every character outside `[a-zA-Z0-9_]` replaced by `_`.
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("nbwp_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats an `f64` for the exposition format (`+Inf` / `-Inf` / `NaN`
/// spelled the Prometheus way; finite values via Rust's `Display`, which
/// never uses exponent notation).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): every metric gets a `# TYPE` line; counters are suffixed
/// `_total`; histograms emit cumulative `_bucket{le="…"}` samples over
/// [`BUCKET_BOUNDS`] plus `+Inf`, `_sum`, and `_count`, with the observed
/// extrema as auxiliary `_min` / `_max` gauges. Output is deterministic
/// (name-sorted, fixed bucket shape) and passes [`validate_prometheus`].
#[must_use]
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let p = prometheus_name(name);
        out.push_str(&format!("# TYPE {p}_total counter\n{p}_total {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let p = prometheus_name(name);
        out.push_str(&format!("# TYPE {p} gauge\n{p} {}\n", prom_f64(*v)));
    }
    for (name, h) in &snap.histograms {
        let p = prometheus_name(name);
        out.push_str(&format!("# TYPE {p} histogram\n"));
        let mut cum = 0u64;
        for (i, &bound) in BUCKET_BOUNDS.iter().enumerate() {
            cum += h.buckets.get(i).copied().unwrap_or(0);
            out.push_str(&format!("{p}_bucket{{le=\"{}\"}} {cum}\n", prom_f64(bound)));
        }
        out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{p}_sum {}\n", prom_f64(h.sum)));
        out.push_str(&format!("{p}_count {}\n", h.count));
        out.push_str(&format!(
            "# TYPE {p}_min gauge\n{p}_min {}\n",
            prom_f64(h.min)
        ));
        out.push_str(&format!(
            "# TYPE {p}_max gauge\n{p}_max {}\n",
            prom_f64(h.max)
        ));
    }
    out
}

/// Structural check result from [`validate_prometheus`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PromCheck {
    /// Declared metric families: (name, type), in declaration order.
    pub families: Vec<(String, String)>,
    /// Total sample lines.
    pub samples: usize,
}

impl PromCheck {
    /// Declared type of a family, if present.
    #[must_use]
    pub fn family_type(&self, name: &str) -> Option<&str> {
        self.families
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, t)| t.as_str())
    }
}

fn is_prom_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_prom_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

/// Splits a sample line into (base name, `le` label if any, value text).
fn split_sample(line: &str) -> Result<(&str, Option<&str>, &str), String> {
    let (head, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample line has no value: {line:?}"))?;
    if let Some(open) = head.find('{') {
        let name = &head[..open];
        let rest = &head[open + 1..];
        let close = rest
            .rfind('}')
            .ok_or_else(|| format!("unterminated label set: {line:?}"))?;
        let labels = &rest[..close];
        let mut le = None;
        for pair in labels.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed label {pair:?} in {line:?}"))?;
            if !is_prom_name(k) {
                return Err(format!("bad label name {k:?} in {line:?}"));
            }
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("unquoted label value {v:?} in {line:?}"))?;
            if k == "le" {
                le = Some(v);
            }
        }
        Ok((name, le, value))
    } else {
        Ok((head, None, value))
    }
}

/// Validates a Prometheus text exposition document line by line:
///
/// * every line is blank, a `# TYPE <name> <counter|gauge|histogram>` /
///   `# HELP` comment, or a sample `<name>[{labels}] <value>`;
/// * metric and label names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, label values
///   are double-quoted, values parse as floats (or `+Inf`/`-Inf`/`NaN`);
/// * every sample belongs to a previously declared family (histogram
///   samples may use the `_bucket`/`_sum`/`_count` suffixes, and the
///   exporter's auxiliary `_min`/`_max` gauges have their own declaration);
/// * each histogram's `_bucket` series is cumulative (non-decreasing),
///   ends with `le="+Inf"`, and agrees with its `_count`.
///
/// This is the CI line-shape check for `estimate --metrics-out *.prom`.
pub fn validate_prometheus(text: &str) -> Result<PromCheck, String> {
    let mut check = PromCheck::default();
    let mut declared: BTreeMap<String, String> = BTreeMap::new();
    // Per histogram family: (bucket cumulative counts, le seen, count value).
    let mut hist_buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut hist_count: BTreeMap<String, f64> = BTreeMap::new();
    let mut hist_sum_seen: BTreeMap<String, bool> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {n}: TYPE without a metric name"))?;
                    let ty = parts
                        .next()
                        .ok_or_else(|| format!("line {n}: TYPE {name} without a type"))?;
                    if !is_prom_name(name) {
                        return Err(format!("line {n}: illegal metric name {name:?}"));
                    }
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown metric type {ty:?}"));
                    }
                    declared.insert(name.to_string(), ty.to_string());
                    check.families.push((name.to_string(), ty.to_string()));
                }
                Some("HELP") => {}
                _ => {} // other comments are legal
            }
            continue;
        }
        let (name, le, value) = split_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        if !is_prom_name(name) {
            return Err(format!("line {n}: illegal metric name {name:?}"));
        }
        let value = parse_prom_value(value)
            .ok_or_else(|| format!("line {n}: unparseable value in {line:?}"))?;
        check.samples += 1;

        // Resolve the family this sample belongs to.
        let family = if declared.contains_key(name) {
            name.to_string()
        } else {
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| name.strip_suffix(suf))
                .filter(|base| declared.get(*base).map(String::as_str) == Some("histogram"));
            match base {
                Some(base) => base.to_string(),
                None => return Err(format!("line {n}: sample {name:?} has no TYPE declaration")),
            }
        };
        if declared.get(&family).map(String::as_str) == Some("histogram") {
            if let Some(base) = name.strip_suffix("_bucket") {
                let le =
                    le.ok_or_else(|| format!("line {n}: {name} sample without an le label"))?;
                let edge = parse_prom_value(le)
                    .ok_or_else(|| format!("line {n}: unparseable le {le:?}"))?;
                hist_buckets
                    .entry(base.to_string())
                    .or_default()
                    .push((edge, value));
            } else if name.ends_with("_count") {
                hist_count.insert(family.clone(), value);
            } else if name.ends_with("_sum") {
                hist_sum_seen.insert(family.clone(), true);
            }
        }
    }

    for (family, series) in &hist_buckets {
        let mut prev = f64::NEG_INFINITY;
        let mut prev_cum = -1.0;
        for &(edge, cum) in series {
            if edge <= prev {
                return Err(format!(
                    "{family}: bucket edges not increasing at le={edge}"
                ));
            }
            if cum < prev_cum {
                return Err(format!(
                    "{family}: bucket counts not cumulative at le={edge}"
                ));
            }
            prev = edge;
            prev_cum = cum;
        }
        let last = series.last().expect("non-empty series");
        if last.0 != f64::INFINITY {
            return Err(format!("{family}: bucket series does not end with +Inf"));
        }
        if let Some(&count) = hist_count.get(family) {
            if count != last.1 {
                return Err(format!(
                    "{family}: +Inf bucket {} disagrees with _count {count}",
                    last.1
                ));
            }
        } else {
            return Err(format!("{family}: histogram without a _count sample"));
        }
        if !hist_sum_seen.get(family).copied().unwrap_or(false) {
            return Err(format!("{family}: histogram without a _sum sample"));
        }
    }
    Ok(check)
}

// ---------------------------------------------------------------------------
// Versioned JSON snapshot
// ---------------------------------------------------------------------------

/// Schema tag of the JSON metrics snapshot (see [`metrics_json`]).
pub const METRICS_SCHEMA: &str = "nbwp-metrics/v1";

/// Renders a snapshot as a versioned JSON document (`schema:
/// "nbwp-metrics/v1"`): counters, gauges, and histograms as name-keyed
/// objects plus the shared bucket ladder, so consumers never hard-code the
/// edges. Round-trips through [`parse_metrics_json`].
#[must_use]
pub fn metrics_json(snap: &MetricsSnapshot) -> String {
    let counters = Value::Object(
        snap.counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::U64(*v)))
            .collect(),
    );
    let gauges = Value::Object(
        snap.gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::F64(*v)))
            .collect(),
    );
    let histograms = Value::Object(
        snap.histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    obj(vec![
                        ("count", Value::U64(h.count)),
                        ("sum", Value::F64(h.sum)),
                        ("min", Value::F64(h.min)),
                        ("max", Value::F64(h.max)),
                        (
                            "buckets",
                            Value::Array(h.buckets.iter().map(|&c| Value::U64(c)).collect()),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    let doc = obj(vec![
        ("schema", Value::Str(METRICS_SCHEMA.to_string())),
        (
            "bucket_bounds",
            Value::Array(BUCKET_BOUNDS.iter().map(|&b| Value::F64(b)).collect()),
        ),
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ]);
    serde_json::to_string_pretty(&doc).expect("metrics serialization is infallible")
}

/// Parses a [`metrics_json`] document back into a [`MetricsSnapshot`],
/// checking the schema tag and the bucket ladder. The exact-round-trip
/// property (`parse(metrics_json(s)) == s`) is what the snapshot tests and
/// the `nbwp report --metrics` path rely on.
pub fn parse_metrics_json(text: &str) -> Result<MetricsSnapshot, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing schema tag".to_string())?;
    if schema != METRICS_SCHEMA {
        return Err(format!("schema {schema:?}, expected {METRICS_SCHEMA:?}"));
    }
    let bounds = doc
        .get("bucket_bounds")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing bucket_bounds".to_string())?;
    if bounds.len() != BUCKET_BOUNDS.len()
        || bounds
            .iter()
            .zip(BUCKET_BOUNDS.iter())
            .any(|(v, &b)| v.as_f64() != Some(b))
    {
        return Err("bucket_bounds disagree with this build's ladder".to_string());
    }
    let pairs = |key: &str| -> Result<Vec<(String, Value)>, String> {
        match doc.get(key) {
            Some(Value::Object(pairs)) => Ok(pairs.clone()),
            _ => Err(format!("missing object field {key:?}")),
        }
    };
    let mut snap = MetricsSnapshot::default();
    for (k, v) in pairs("counters")? {
        let v = v
            .as_u64()
            .ok_or_else(|| format!("counter {k}: not a u64"))?;
        snap.counters.push((k, v));
    }
    for (k, v) in pairs("gauges")? {
        let v = v
            .as_f64()
            .ok_or_else(|| format!("gauge {k}: not a number"))?;
        snap.gauges.push((k, v));
    }
    for (k, v) in pairs("histograms")? {
        let num = |field: &str| -> Result<f64, String> {
            v.field(field)
                .ok()
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("histogram {k}: bad field {field:?}"))
        };
        let buckets = v
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("histogram {k}: missing buckets"))?
            .iter()
            .map(|b| {
                b.as_u64()
                    .ok_or_else(|| format!("histogram {k}: bad bucket count"))
            })
            .collect::<Result<Vec<u64>, String>>()?;
        snap.histograms.push((
            k.clone(),
            HistogramSummary {
                count: num("count")? as u64,
                sum: num("sum")?,
                min: num("min")?,
                max: num("max")?,
                buckets,
            },
        ));
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("search.evaluations", 3);
        m.counter_add("search.evaluations", 2);
        assert_eq!(m.snapshot().counter("search.evaluations"), Some(5));
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("sample.rate", 0.05);
        m.gauge_set("sample.rate", 0.01);
        assert_eq!(m.snapshot().gauge("sample.rate"), Some(0.01));
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        let mut m = MetricsRegistry::new();
        for v in [4.0, 1.0, 7.0] {
            m.histogram_record("eval_ms", v);
        }
        let snap = m.snapshot();
        let h = snap.histogram("eval_ms").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 12.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 7.0);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper_edges() {
        // A value exactly on a boundary lands in that boundary's bucket.
        assert_eq!(bucket_index(1.0), 9);
        assert_eq!(BUCKET_BOUNDS[9], 1.0);
        // Just above a boundary spills into the next bucket.
        assert_eq!(bucket_index(1.0 + 1e-9), 10);
        // Below the first edge → first bucket; negatives clamp there too.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        // Above the last edge (and non-finite) → the +Inf bucket.
        assert_eq!(bucket_index(BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]), 24);
        assert_eq!(bucket_index(1e9), BUCKET_BOUNDS.len());
        assert_eq!(bucket_index(f64::INFINITY), BUCKET_BOUNDS.len());
        assert_eq!(bucket_index(f64::NAN), BUCKET_BOUNDS.len());
    }

    #[test]
    fn bucket_ladder_is_sorted_and_positive() {
        for w in BUCKET_BOUNDS.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
        const { assert!(BUCKET_BOUNDS[0] > 0.0) };
    }

    #[test]
    fn quantiles_come_from_bucket_edges() {
        let mut m = MetricsRegistry::new();
        // 90 fast observations and 10 slow ones.
        for _ in 0..90 {
            m.histogram_record("lat", 0.3);
        }
        for _ in 0..10 {
            m.histogram_record("lat", 80.0);
        }
        let snap = m.snapshot();
        let h = snap.histogram("lat").unwrap();
        // p50 resolves to the bucket edge covering the fast mass.
        assert_eq!(h.quantile(0.5), 0.5);
        // p95 lands in the slow bucket (edge 100 clamped to max 80).
        assert_eq!(h.quantile(0.95), 80.0);
        assert_eq!(h.quantile(1.0), 80.0);
        // p0 clamps to the min.
        assert_eq!(h.quantile(0.0), 0.3);
        // Empty histogram yields 0.
        assert_eq!(HistogramSummary::default().quantile(0.5), 0.0);
    }

    #[test]
    fn snapshot_is_name_sorted_and_deterministic() {
        let mut m = MetricsRegistry::new();
        m.counter_add("zeta", 1);
        m.counter_add("alpha", 1);
        m.gauge_set("mid", 0.5);
        let a = m.snapshot();
        let b = m.snapshot();
        assert_eq!(a, b);
        let names: Vec<&str> = a.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn empty_registry() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        let empty = HistogramSummary::default();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.quantile(0.9), 0.0);
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut m = MetricsRegistry::new();
        m.counter_add("threshold_cache.hit", 15);
        m.counter_add("audit.requests", 21);
        m.gauge_set("sample.rate", 0.0125);
        m.gauge_set("device.cpu.utilization", 0.85);
        for v in [0.2, 0.2, 0.3, 9.5, 1500.0] {
            m.histogram_record("estimate.latency_us", v);
        }
        for v in [3.0, 3.0, 17.0] {
            m.histogram_record("estimate.evaluations", v);
        }
        m.snapshot()
    }

    #[test]
    fn prometheus_export_validates_and_names_are_sanitized() {
        let text = prometheus_text(&sample_snapshot());
        let check = validate_prometheus(&text).expect("exporter output is valid");
        assert_eq!(
            check.family_type("nbwp_threshold_cache_hit_total"),
            Some("counter")
        );
        assert_eq!(check.family_type("nbwp_sample_rate"), Some("gauge"));
        assert_eq!(
            check.family_type("nbwp_estimate_latency_us"),
            Some("histogram")
        );
        assert_eq!(
            check.family_type("nbwp_estimate_latency_us_min"),
            Some("gauge")
        );
        // 2 counters + 2 gauges + 2 histograms × (26 buckets + sum + count
        // + min + max).
        assert_eq!(check.samples, 2 + 2 + 2 * 30);
        assert!(text.contains("nbwp_estimate_latency_us_bucket{le=\"+Inf\"} 5"));
        // Deterministic output.
        assert_eq!(text, prometheus_text(&sample_snapshot()));
    }

    #[test]
    fn prometheus_validator_rejects_malformed_documents() {
        // Sample without a TYPE declaration.
        assert!(validate_prometheus("lone_metric 1\n").is_err());
        // Illegal metric name.
        assert!(validate_prometheus("# TYPE 9bad counter\n9bad 1\n").is_err());
        // Unparseable value.
        assert!(validate_prometheus("# TYPE x counter\nx one\n").is_err());
        // Unquoted label value.
        assert!(validate_prometheus(
            "# TYPE h histogram\nh_bucket{le=+Inf} 1\nh_sum 1\nh_count 1\n"
        )
        .is_err());
        // Bucket series that never reaches +Inf.
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        let e = validate_prometheus(text).unwrap_err();
        assert!(e.contains("+Inf"), "{e}");
        // Non-cumulative buckets.
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        let e = validate_prometheus(text).unwrap_err();
        assert!(e.contains("cumulative"), "{e}");
        // +Inf bucket disagreeing with _count.
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n";
        let e = validate_prometheus(text).unwrap_err();
        assert!(e.contains("disagrees"), "{e}");
        // Missing _sum.
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n";
        let e = validate_prometheus(text).unwrap_err();
        assert!(e.contains("_sum"), "{e}");
    }

    #[test]
    fn json_snapshot_round_trips_exactly() {
        let snap = sample_snapshot();
        let text = metrics_json(&snap);
        assert!(text.contains(METRICS_SCHEMA));
        let back = parse_metrics_json(&text).expect("round trip");
        assert_eq!(back, snap);
        // Deterministic.
        assert_eq!(text, metrics_json(&sample_snapshot()));
    }

    #[test]
    fn json_parser_rejects_drift() {
        assert!(parse_metrics_json("not json").is_err());
        assert!(parse_metrics_json("{}").is_err());
        let wrong = metrics_json(&sample_snapshot()).replace(METRICS_SCHEMA, "nbwp-metrics/v0");
        assert!(parse_metrics_json(&wrong).is_err());
        // A tampered bucket ladder is rejected.
        let snap = sample_snapshot();
        let text = metrics_json(&snap).replace("0.001", "0.002");
        assert!(parse_metrics_json(&text).is_err());
    }
}
