//! Per-request flight recorder for the serving layer.
//!
//! A [`FlightRecorder`] keeps the last *C* served requests as structured
//! [`AuditEvent`]s in a bounded ring: which input (fingerprint digest), how
//! the cache decided ([`CacheDecision`]: exact hit / near hit + warm hint /
//! cold), what threshold was chosen, how much work it took (evaluations,
//! curve probes, simulated cost), how long it took on the wall clock, and —
//! for shadow-sampled warm hits — the observed decision regret. The ring
//! snapshots to JSONL on demand ([`FlightRecorder::to_jsonl`], schema
//! [`AUDIT_SCHEMA`]) and replays through [`validate_audit_jsonl`], which
//! checks line shapes, sequence continuity, and that the retained events
//! reproduce the recorder's own running totals.
//!
//! ## The bounded-overhead contract
//!
//! Serving an exact hit costs one to two hundred nanoseconds, so the
//! recorder is built like [`crate::Recorder`]: single-threaded (interior
//! mutability, no lock on the hot path), allocation-free per event
//! (workload kinds are `&'static str`, the ring is preallocated), and
//! disabled by default (one `Option` check). Once the ring is full, each
//! record prefetches the slot the next event overwrites. Wall-clock
//! timing is the one cost that cannot be made free — a monotonic clock
//! read is ~20–40 ns — so exact-hit latencies are *sampled*:
//! [`FlightRecorder::timing_due`] is true every
//! [`DEFAULT_TIMING_STRIDE`]-th request (starting with the first), and
//! untimed events carry `latency_us: None`. Slow-path (cold / near-hit)
//! requests are µs–ms scale, where two clock reads are noise, so callers
//! always time them.

use std::cell::{Cell, UnsafeCell};

use serde::Value;

use crate::export::{obj, s};
use crate::Recorder;

/// Schema tag on the JSONL header line (see [`FlightRecorder::to_jsonl`]).
pub const AUDIT_SCHEMA: &str = "nbwp-audit/v4";

/// Default ring capacity: enough to hold a full benchmark stream while
/// bounding memory (~100 bytes per event).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Default exact-hit latency sampling stride: every 64th request is timed
/// with the wall clock; the rest record `latency_us: None` and skip the
/// clock reads entirely (see the module docs on bounded overhead). At ~25 ns
/// per clock read the amortized cost is well under a nanosecond per request
/// while steady streams still collect thousands of samples per second.
/// Strides are powers of two (see [`FlightRecorder::timed_every`]) so the
/// "due?" check is a mask against the running request count, not a
/// countdown the hot path would have to decrement.
pub const DEFAULT_TIMING_STRIDE: usize = 64;

/// How the threshold cache decided a request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheDecision {
    /// Exact-key hit: the cached estimate was returned bitwise.
    ExactHit,
    /// Drift-patched serving: the curves were patched in place after a
    /// workload delta and the cached threshold survived as the curve
    /// argmin — no search ran.
    Patched,
    /// Near-key hit: the pipeline ran, warm-started from a cached hint.
    NearHit,
    /// Full cold path (miss, or no cache attached).
    Cold,
}

impl CacheDecision {
    /// All decisions, in severity order (cheapest first).
    pub const ALL: [CacheDecision; 4] = [
        CacheDecision::ExactHit,
        CacheDecision::Patched,
        CacheDecision::NearHit,
        CacheDecision::Cold,
    ];

    /// Stable snake_case name used in the JSONL schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CacheDecision::ExactHit => "exact_hit",
            CacheDecision::Patched => "patched",
            CacheDecision::NearHit => "near_hit",
            CacheDecision::Cold => "cold",
        }
    }

    /// Inverse of [`CacheDecision::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<CacheDecision> {
        CacheDecision::ALL.into_iter().find(|d| d.name() == name)
    }
}

/// One served request, as recorded on the hot path. The sequence number is
/// assigned by the recorder (events are numbered 0.. in arrival order and
/// stay contiguous across ring evictions), so it does not appear here.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AuditEvent {
    /// Workload kind tag from the fingerprint (`"cc"`, `"spmm"`, …).
    pub kind: &'static str,
    /// Fingerprint content digest of the input.
    pub digest: u64,
    /// How the cache decided this request.
    pub decision: CacheDecision,
    /// Threshold returned to the caller (full-input space).
    pub threshold: f64,
    /// Candidate evaluations spent (0 for an exact hit).
    pub evaluations: u64,
    /// Analytic curve probes spent (0 for an exact hit).
    pub grad_probes: u64,
    /// Simulated estimation cost in milliseconds (the paper's "Overhead").
    pub sim_cost_ms: f64,
    /// Wall-clock serving latency in microseconds; `NaN` when this event
    /// fell between latency-sampling strides. (A plain `f64` with a NaN
    /// sentinel rather than `Option<f64>`: `f64` has no niche, so the
    /// `Option` would double the field's size on the per-request hot path.
    /// The JSONL schema and the parsed [`LoggedEvent`] both use
    /// null/`Option`.)
    pub latency_us: f64,
    /// Observed shadow regret in percent — warm cost over cold cost minus
    /// one — when the shadow sampler priced this request; `NaN` otherwise
    /// (same sentinel convention as `latency_us`).
    pub shadow_regret_pct: f64,
    /// Partition arity the request was served at (2 on the scalar
    /// canonical-pair path, the device count for k-way servings).
    pub arity: u64,
    /// Drift steps only: the delta span as a fraction of the input (touched
    /// units over total units). `NaN` for non-drift events (same sentinel
    /// convention as `latency_us`).
    pub span_fraction: f64,
}

// Three prefetched lines cover an event (see `FlightRecorder::record`).
const _: () = assert!(std::mem::size_of::<AuditEvent>() <= 128);

/// Running totals over *all* events ever recorded (not just the retained
/// ring window). Serialized into the JSONL header and flushed as deltas to
/// the metrics registry.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditTotals {
    /// Events recorded (one per served request).
    pub requests: u64,
    /// Exact-key hits.
    pub exact_hits: u64,
    /// Drift-patched servings (curve patched, cached threshold kept).
    pub patched: u64,
    /// Near-key (warm-started) hits.
    pub near_hits: u64,
    /// Cold-path requests.
    pub cold: u64,
    /// Events carrying a shadow-regret observation.
    pub shadow_runs: u64,
    /// Candidate evaluations, summed.
    pub evaluations: u64,
    /// Analytic curve probes, summed.
    pub grad_probes: u64,
    /// Events evicted from the ring (oldest-first).
    pub dropped: u64,
}

impl AuditTotals {
    fn minus(&self, earlier: &AuditTotals) -> AuditTotals {
        AuditTotals {
            requests: self.requests - earlier.requests,
            exact_hits: self.exact_hits - earlier.exact_hits,
            patched: self.patched - earlier.patched,
            near_hits: self.near_hits - earlier.near_hits,
            cold: self.cold - earlier.cold,
            shadow_runs: self.shadow_runs - earlier.shadow_runs,
            evaluations: self.evaluations - earlier.evaluations,
            grad_probes: self.grad_probes - earlier.grad_probes,
            dropped: self.dropped - earlier.dropped,
        }
    }
}

/// Hot-path totals accumulator: the per-decision counters live in an array
/// indexed by the `CacheDecision` discriminant, so absorbing an event is a
/// handful of independent adds — no compare-and-increment chain per
/// decision variant. Converted to the public [`AuditTotals`] on read.
#[derive(Copy, Clone, Default)]
struct TotalsAcc {
    requests: u64,
    by_decision: [u64; 4],
    shadow_runs: u64,
    evaluations: u64,
    grad_probes: u64,
    dropped: u64,
}

impl TotalsAcc {
    #[inline]
    fn absorb(&mut self, ev: &AuditEvent) {
        self.requests += 1;
        self.by_decision[ev.decision as usize] += 1;
        self.shadow_runs += u64::from(!ev.shadow_regret_pct.is_nan());
        self.evaluations += ev.evaluations;
        self.grad_probes += ev.grad_probes;
    }

    fn to_totals(self) -> AuditTotals {
        AuditTotals {
            requests: self.requests,
            exact_hits: self.by_decision[CacheDecision::ExactHit as usize],
            patched: self.by_decision[CacheDecision::Patched as usize],
            near_hits: self.by_decision[CacheDecision::NearHit as usize],
            cold: self.by_decision[CacheDecision::Cold as usize],
            shadow_runs: self.shadow_runs,
            evaluations: self.evaluations,
            grad_probes: self.grad_probes,
            dropped: self.dropped,
        }
    }
}

struct RingInner {
    capacity: usize,
    /// Preallocated storage; grows to `capacity` then wraps at `head`.
    ring: Vec<AuditEvent>,
    /// Once the ring is full, the slot the next event overwrites — i.e. the
    /// oldest retained event. Oldest-first order is `ring[head..]` then
    /// `ring[..head]`.
    head: usize,
    totals: TotalsAcc,
    /// Totals watermark at the last [`FlightRecorder::flush_metrics`], so a
    /// flush only reports activity since the previous one.
    flushed: AuditTotals,
}

impl RingInner {
    /// Retained events, oldest first.
    fn ordered(&self) -> impl Iterator<Item = &AuditEvent> {
        self.ring[self.head..].iter().chain(&self.ring[..self.head])
    }
}

/// Per-recorder state split so the exact-hit fast path never locks the
/// ring: [`FlightRecorder::timing_due`] is a `Cell` load + compare, and
/// [`FlightRecorder::record`] is a short straight-line mutation.
struct RecorderInner {
    /// `stride - 1` for the power-of-two latency-sampling stride: the next
    /// event is timed when `requests & mask == 0`, so neither
    /// [`FlightRecorder::timing_due`] nor [`FlightRecorder::record`] pays a
    /// division or a countdown write.
    mask: Cell<u64>,
    /// `UnsafeCell` rather than `RefCell`: the recorder is `!Sync` (the
    /// `Cell`s above), every accessor runs to completion without calling
    /// back into user code, and nothing here re-enters — so borrows can
    /// never overlap, and the per-request path skips the borrow-flag
    /// read-modify-write (measurable at exact-hit scale; see the module
    /// docs on bounded overhead).
    ring: UnsafeCell<RingInner>,
}

impl RecorderInner {
    /// SAFETY: see the `ring` field — single-threaded, non-reentrant, and
    /// every call site confines the borrow to one statement or scope.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    fn ring_mut(&self) -> &mut RingInner {
        unsafe { &mut *self.ring.get() }
    }

    #[inline]
    fn ring_ref(&self) -> &RingInner {
        unsafe { &*self.ring.get() }
    }
}

/// Bounded ring-buffer flight recorder of per-request [`AuditEvent`]s.
///
/// Like [`Recorder`], it is single-threaded and free when off: the default
/// is [`FlightRecorder::disabled`], whose every method is one `Option`
/// check. See the [module docs](self) for the overhead contract.
pub struct FlightRecorder {
    inner: Option<RecorderInner>,
}

impl Default for FlightRecorder {
    /// The default recorder is disabled — serving paths pay nothing unless
    /// a caller explicitly opts in with [`FlightRecorder::new`].
    fn default() -> Self {
        FlightRecorder::disabled()
    }
}

impl FlightRecorder {
    /// An enabled recorder with the default ring capacity and timing
    /// stride.
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled recorder retaining the last `capacity` events (clamped to
    /// ≥ 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Some(RecorderInner {
                mask: Cell::new(DEFAULT_TIMING_STRIDE as u64 - 1),
                ring: UnsafeCell::new(RingInner {
                    capacity,
                    ring: Vec::with_capacity(capacity),
                    head: 0,
                    totals: TotalsAcc::default(),
                    flushed: AuditTotals::default(),
                }),
            }),
        }
    }

    /// A recorder that ignores every call at near-zero cost.
    #[must_use]
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// Sets the exact-hit latency sampling stride: every `stride`-th
    /// request (starting with the first) gets wall-clock timing. A stride
    /// of 1 times every request; other values are clamped to ≥ 1 and
    /// rounded up to the next power of two, so the stride check stays a
    /// mask of the running request count. No-op when disabled.
    #[must_use]
    pub fn timed_every(self, stride: usize) -> Self {
        if let Some(inner) = &self.inner {
            inner.mask.set(stride.max(1).next_power_of_two() as u64 - 1);
        }
        self
    }

    /// Whether this recorder actually records.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when the *next* recorded event falls on the latency-sampling
    /// stride — callers read the wall clock only then (always false when
    /// disabled). Idempotent between [`FlightRecorder::record`] calls.
    #[inline]
    #[must_use]
    pub fn timing_due(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.ring_ref().totals.requests & inner.mask.get() == 0,
            None => false,
        }
    }

    /// Records one served request, assigning it the next sequence number.
    /// When the ring is full the oldest event is dropped (and counted in
    /// [`AuditTotals::dropped`]).
    #[inline]
    pub fn record(&self, ev: AuditEvent) {
        let Some(inner) = &self.inner else {
            return;
        };
        let g = inner.ring_mut();
        g.totals.absorb(&ev);
        if g.ring.len() < g.capacity {
            g.ring.push(ev);
        } else {
            let head = g.head;
            g.ring[head] = ev;
            g.head = if head + 1 == g.capacity { 0 } else { head + 1 };
            g.totals.dropped += 1;
            // At the default capacity the ring outgrows L1, and a store
            // that misses holds up every store behind it: fetch the lines
            // of the next event's slot now, a request ahead of its store.
            #[cfg(target_arch = "x86_64")]
            for offset in [0, 64, std::mem::size_of::<AuditEvent>() - 1] {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                let slot = g.ring.as_ptr().wrapping_add(g.head).cast::<i8>();
                // SAFETY: a prefetch never faults and has no architectural
                // effect, so any address is sound; SSE is x86-64 baseline.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(slot.wrapping_add(offset)) };
            }
        }
    }

    /// Number of events currently retained in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.ring_ref().ring.len(),
            None => 0,
        }
    }

    /// Whether the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Running totals over everything ever recorded.
    #[must_use]
    pub fn totals(&self) -> AuditTotals {
        match &self.inner {
            Some(inner) => inner.ring_ref().totals.to_totals(),
            None => AuditTotals::default(),
        }
    }

    /// Clones the retained events, oldest first. The first event's sequence
    /// number is [`AuditTotals::dropped`].
    #[must_use]
    pub fn events(&self) -> Vec<AuditEvent> {
        match &self.inner {
            Some(inner) => inner.ring_ref().ordered().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Serializes the retained window as JSONL: one header line
    /// (`{"type":"audit","schema":"nbwp-audit/v4",…}` with the running
    /// totals) followed by one `{"type":"event",…}` line per retained
    /// event, sequence numbers contiguous. Parses back through
    /// [`validate_audit_jsonl`]. A disabled recorder serializes as an empty
    /// log (header only).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let (totals, events) = (self.totals(), self.events());
        let mut out = String::new();
        let header = obj(vec![
            ("type", s("audit")),
            ("schema", s(AUDIT_SCHEMA)),
            ("events", Value::U64(events.len() as u64)),
            ("requests", Value::U64(totals.requests)),
            ("exact_hits", Value::U64(totals.exact_hits)),
            ("patched", Value::U64(totals.patched)),
            ("near_hits", Value::U64(totals.near_hits)),
            ("cold", Value::U64(totals.cold)),
            ("shadow_runs", Value::U64(totals.shadow_runs)),
            ("evaluations", Value::U64(totals.evaluations)),
            ("grad_probes", Value::U64(totals.grad_probes)),
            ("dropped", Value::U64(totals.dropped)),
        ]);
        out.push_str(&serde_json::to_string(&header).expect("infallible"));
        out.push('\n');
        for (i, ev) in events.iter().enumerate() {
            let line = obj(vec![
                ("type", s("event")),
                ("seq", Value::U64(totals.dropped + i as u64)),
                ("kind", s(ev.kind)),
                ("digest", Value::U64(ev.digest)),
                ("decision", s(ev.decision.name())),
                ("threshold", Value::F64(ev.threshold)),
                ("evaluations", Value::U64(ev.evaluations)),
                ("grad_probes", Value::U64(ev.grad_probes)),
                ("sim_cost_ms", Value::F64(ev.sim_cost_ms)),
                ("latency_us", nan_to_null(ev.latency_us)),
                ("shadow_regret_pct", nan_to_null(ev.shadow_regret_pct)),
                ("arity", Value::U64(ev.arity)),
                ("span_fraction", nan_to_null(ev.span_fraction)),
            ]);
            out.push_str(&serde_json::to_string(&line).expect("infallible"));
            out.push('\n');
        }
        out
    }

    /// Flushes activity since the last flush to the metrics registry —
    /// delta-on-flush, so repeated flushes never double-count; the ring and
    /// running totals are untouched.
    ///
    /// Counters: `audit.requests`, `audit.exact_hit`, `audit.near_hit`,
    /// `audit.cold`, `audit.shadow_runs`, `audit.evaluations`,
    /// `audit.grad_probes`, `audit.dropped` (always exact — they come from
    /// the running totals). Histograms: each still-retained event recorded
    /// since the last flush contributes to `audit.latency_us` (timed events
    /// only), `audit.evaluations` and `audit.sim_cost_ms`; events evicted
    /// before a flush lose their histogram contribution, so flush at least
    /// once per ring-capacity's worth of requests for exact histograms.
    pub fn flush_metrics(&self, rec: &Recorder) {
        let Some(inner) = &self.inner else {
            return;
        };
        let (delta, fresh) = {
            let g = inner.ring_mut();
            let totals = g.totals.to_totals();
            let delta = totals.minus(&g.flushed);
            // Ring index of the first event not yet flushed: event i
            // carries sequence number `dropped + i`, and everything below
            // the flush watermark's request count has been reported
            // already.
            let start = g.flushed.requests.saturating_sub(totals.dropped) as usize;
            let fresh: Vec<AuditEvent> = g.ordered().skip(start).copied().collect();
            g.flushed = totals;
            (delta, fresh)
        };
        rec.counter_add("audit.requests", delta.requests);
        rec.counter_add("audit.exact_hit", delta.exact_hits);
        rec.counter_add("audit.patched", delta.patched);
        rec.counter_add("audit.near_hit", delta.near_hits);
        rec.counter_add("audit.cold", delta.cold);
        rec.counter_add("audit.shadow_runs", delta.shadow_runs);
        rec.counter_add("audit.evaluations", delta.evaluations);
        rec.counter_add("audit.grad_probes", delta.grad_probes);
        rec.counter_add("audit.dropped", delta.dropped);
        for ev in fresh {
            if !ev.latency_us.is_nan() {
                rec.histogram_record("audit.latency_us", ev.latency_us);
            }
            rec.histogram_record("audit.evaluations", ev.evaluations as f64);
            rec.histogram_record("audit.sim_cost_ms", ev.sim_cost_ms);
        }
    }
}

fn nan_to_null(v: f64) -> Value {
    if v.is_nan() {
        Value::Null
    } else {
        Value::F64(v)
    }
}

/// One event parsed back from an audit JSONL line — the owned counterpart
/// of [`AuditEvent`] (`kind` becomes a `String` off the hot path), plus the
/// explicit sequence number carried by the line.
#[derive(Clone, Debug, PartialEq)]
pub struct LoggedEvent {
    /// Sequence number (contiguous across the log).
    pub seq: u64,
    /// Workload kind tag.
    pub kind: String,
    /// Fingerprint content digest.
    pub digest: u64,
    /// Cache decision.
    pub decision: CacheDecision,
    /// Returned threshold.
    pub threshold: f64,
    /// Candidate evaluations.
    pub evaluations: u64,
    /// Analytic curve probes.
    pub grad_probes: u64,
    /// Simulated estimation cost (ms).
    pub sim_cost_ms: f64,
    /// Sampled wall-clock latency (µs), when timed.
    pub latency_us: Option<f64>,
    /// Observed shadow regret (%), when shadow-priced.
    pub shadow_regret_pct: Option<f64>,
    /// Partition arity the request was served at.
    pub arity: u64,
    /// Delta span fraction, for drift steps.
    pub span_fraction: Option<f64>,
}

/// Validation result from [`validate_audit_jsonl`]: the header totals and
/// every retained event, parsed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditCheck {
    /// Running totals from the header line.
    pub totals: AuditTotals,
    /// Parsed events, oldest first.
    pub events: Vec<LoggedEvent>,
}

impl AuditCheck {
    /// Recomputes totals from the retained events alone (the replay side of
    /// the validator; `dropped` is taken from the header since evicted
    /// events are gone).
    #[must_use]
    pub fn replay_totals(&self) -> AuditTotals {
        let mut t = AuditTotals {
            dropped: self.totals.dropped,
            ..AuditTotals::default()
        };
        for ev in &self.events {
            t.requests += 1;
            match ev.decision {
                CacheDecision::ExactHit => t.exact_hits += 1,
                CacheDecision::Patched => t.patched += 1,
                CacheDecision::NearHit => t.near_hits += 1,
                CacheDecision::Cold => t.cold += 1,
            }
            if ev.shadow_regret_pct.is_some() {
                t.shadow_runs += 1;
            }
            t.evaluations += ev.evaluations;
            t.grad_probes += ev.grad_probes;
        }
        t
    }
}

fn get_u64(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{ctx}: missing unsigned field {key:?}"))
}

fn get_f64(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric field {key:?}"))
}

fn get_opt_f64(v: &Value, key: &str, ctx: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        Some(Value::Null) => Ok(None),
        Some(other) => other
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{ctx}: field {key:?} is neither null nor a number")),
        None => Err(format!("{ctx}: missing field {key:?}")),
    }
}

/// Validates an audit JSONL log structurally and by replay:
///
/// * line 0 is an `{"type":"audit"}` header with schema [`AUDIT_SCHEMA`]
///   and the running totals;
/// * every further line is an `{"type":"event"}` object with the full
///   [`LoggedEvent`] field set, a known decision name, a finite threshold,
///   and non-negative latencies/costs;
/// * sequence numbers are contiguous starting at `dropped` and agree with
///   the header's `events` count;
/// * replaying the retained events reproduces the header totals exactly
///   (when nothing was dropped) or bounds them from below (when the ring
///   wrapped).
///
/// This is what `nbwp trace <log.jsonl>` and the CI audit-schema step run.
pub fn validate_audit_jsonl(text: &str) -> Result<AuditCheck, String> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or_else(|| "empty audit log".to_string())?;
    let header: Value =
        serde_json::from_str(header_line).map_err(|e| format!("header: not JSON: {e:?}"))?;
    if header.get("type").and_then(Value::as_str) != Some("audit") {
        return Err("header: missing type:\"audit\"".to_string());
    }
    let schema = header
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| "header: missing schema tag".to_string())?;
    if schema != AUDIT_SCHEMA {
        return Err(format!(
            "header: schema {schema:?}, expected {AUDIT_SCHEMA:?}"
        ));
    }
    let declared_events = get_u64(&header, "events", "header")?;
    let totals = AuditTotals {
        requests: get_u64(&header, "requests", "header")?,
        exact_hits: get_u64(&header, "exact_hits", "header")?,
        patched: get_u64(&header, "patched", "header")?,
        near_hits: get_u64(&header, "near_hits", "header")?,
        cold: get_u64(&header, "cold", "header")?,
        shadow_runs: get_u64(&header, "shadow_runs", "header")?,
        evaluations: get_u64(&header, "evaluations", "header")?,
        grad_probes: get_u64(&header, "grad_probes", "header")?,
        dropped: get_u64(&header, "dropped", "header")?,
    };

    let mut check = AuditCheck {
        totals,
        events: Vec::new(),
    };
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = format!("event line {}", i + 1);
        let v: Value = serde_json::from_str(line).map_err(|e| format!("{ctx}: not JSON: {e:?}"))?;
        if v.get("type").and_then(Value::as_str) != Some("event") {
            return Err(format!("{ctx}: missing type:\"event\""));
        }
        let decision_name = v
            .get("decision")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: missing string \"decision\""))?;
        let decision = CacheDecision::parse(decision_name)
            .ok_or_else(|| format!("{ctx}: unknown decision {decision_name:?}"))?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: missing string \"kind\""))?
            .to_string();
        let ev = LoggedEvent {
            seq: get_u64(&v, "seq", &ctx)?,
            kind,
            digest: get_u64(&v, "digest", &ctx)?,
            decision,
            threshold: get_f64(&v, "threshold", &ctx)?,
            evaluations: get_u64(&v, "evaluations", &ctx)?,
            grad_probes: get_u64(&v, "grad_probes", &ctx)?,
            sim_cost_ms: get_f64(&v, "sim_cost_ms", &ctx)?,
            latency_us: get_opt_f64(&v, "latency_us", &ctx)?,
            shadow_regret_pct: get_opt_f64(&v, "shadow_regret_pct", &ctx)?,
            arity: get_u64(&v, "arity", &ctx)?,
            span_fraction: get_opt_f64(&v, "span_fraction", &ctx)?,
        };
        if !ev.threshold.is_finite() {
            return Err(format!("{ctx}: non-finite threshold"));
        }
        if ev.sim_cost_ms < 0.0 || ev.latency_us.is_some_and(|l| l < 0.0) {
            return Err(format!("{ctx}: negative cost or latency"));
        }
        if ev.arity < 2 {
            return Err(format!("{ctx}: arity below 2"));
        }
        if ev.span_fraction.is_some_and(|f| !(0.0..=1.0).contains(&f)) {
            return Err(format!("{ctx}: span_fraction outside [0, 1]"));
        }
        let expected_seq = totals.dropped + check.events.len() as u64;
        if ev.seq != expected_seq {
            return Err(format!(
                "{ctx}: sequence gap — seq {} where {expected_seq} was expected",
                ev.seq
            ));
        }
        check.events.push(ev);
    }

    if check.events.len() as u64 != declared_events {
        return Err(format!(
            "header declares {declared_events} events, log has {}",
            check.events.len()
        ));
    }
    let replay = check.replay_totals();
    if totals.dropped == 0 {
        if replay != totals {
            return Err(format!(
                "replay mismatch: header {totals:?} vs replayed {replay:?}"
            ));
        }
    } else {
        let within = replay.requests <= totals.requests
            && replay.exact_hits <= totals.exact_hits
            && replay.patched <= totals.patched
            && replay.near_hits <= totals.near_hits
            && replay.cold <= totals.cold
            && replay.shadow_runs <= totals.shadow_runs
            && replay.evaluations <= totals.evaluations
            && replay.grad_probes <= totals.grad_probes
            && replay.requests + totals.dropped == totals.requests;
        if !within {
            return Err(format!(
                "replay exceeds header totals: header {totals:?} vs replayed {replay:?}"
            ));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(decision: CacheDecision, evals: u64) -> AuditEvent {
        AuditEvent {
            kind: "cc",
            digest: 0xFEED_BEEF,
            decision,
            threshold: 42.5,
            evaluations: evals,
            grad_probes: evals / 2,
            sim_cost_ms: if decision == CacheDecision::ExactHit {
                0.0
            } else {
                1.25
            },
            latency_us: 0.8,
            shadow_regret_pct: f64::NAN,
            arity: 2,
            span_fraction: f64::NAN,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let fr = FlightRecorder::disabled();
        assert!(!fr.is_enabled());
        assert!(!fr.timing_due());
        fr.record(ev(CacheDecision::Cold, 9));
        assert!(fr.is_empty());
        assert_eq!(fr.totals(), AuditTotals::default());
        // An empty log is still a valid (header-only) document.
        let check = validate_audit_jsonl(&fr.to_jsonl()).expect("header-only log");
        assert!(check.events.is_empty());
        let rec = Recorder::new();
        fr.flush_metrics(&rec);
        assert!(rec.finish().metrics.counters.is_empty());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!FlightRecorder::default().is_enabled());
    }

    #[test]
    fn totals_accumulate_and_ring_bounds() {
        let fr = FlightRecorder::with_capacity(3);
        fr.record(ev(CacheDecision::Cold, 10));
        fr.record(ev(CacheDecision::NearHit, 4));
        for _ in 0..4 {
            fr.record(ev(CacheDecision::ExactHit, 0));
        }
        let t = fr.totals();
        assert_eq!(t.requests, 6);
        assert_eq!((t.cold, t.near_hits, t.exact_hits), (1, 1, 4));
        assert_eq!(t.evaluations, 14);
        assert_eq!(t.dropped, 3);
        assert_eq!(fr.len(), 3);
        // Ring keeps the newest events.
        assert!(fr
            .events()
            .iter()
            .all(|e| e.decision == CacheDecision::ExactHit));
    }

    #[test]
    fn timing_stride_samples_every_kth_request() {
        let fr = FlightRecorder::new().timed_every(4);
        let mut timed = Vec::new();
        for i in 0..10 {
            timed.push((i, fr.timing_due()));
            // timing_due is idempotent until the event is recorded.
            assert_eq!(fr.timing_due(), timed.last().unwrap().1);
            fr.record(ev(CacheDecision::ExactHit, 0));
        }
        let due: Vec<usize> = timed.iter().filter(|(_, d)| *d).map(|&(i, _)| i).collect();
        assert_eq!(due, [0, 4, 8]);
        // Stride 1 times everything.
        let every = FlightRecorder::new().timed_every(1);
        for _ in 0..3 {
            assert!(every.timing_due());
            every.record(ev(CacheDecision::ExactHit, 0));
        }
    }

    #[test]
    fn jsonl_round_trips_and_replays() {
        let fr = FlightRecorder::new();
        fr.record(ev(CacheDecision::Cold, 12));
        fr.record(AuditEvent {
            shadow_regret_pct: 3.5,
            ..ev(CacheDecision::NearHit, 5)
        });
        fr.record(AuditEvent {
            latency_us: f64::NAN,
            ..ev(CacheDecision::ExactHit, 0)
        });
        let text = fr.to_jsonl();
        assert_eq!(text.lines().count(), 4);
        let check = validate_audit_jsonl(&text).expect("valid log");
        assert_eq!(check.totals, fr.totals());
        assert_eq!(check.replay_totals(), check.totals);
        assert_eq!(check.events.len(), 3);
        assert_eq!(check.events[0].seq, 0);
        assert_eq!(check.events[1].shadow_regret_pct, Some(3.5));
        assert_eq!(check.events[2].latency_us, None);
        assert_eq!(check.events[2].kind, "cc");
        // Deterministic serialization.
        assert_eq!(text, fr.to_jsonl());
    }

    #[test]
    fn drift_fields_round_trip_and_validate() {
        let fr = FlightRecorder::new();
        // A k-way drift step that nudged the cuts.
        fr.record(AuditEvent {
            arity: 4,
            span_fraction: 0.4,
            ..ev(CacheDecision::NearHit, 3)
        });
        fr.record(ev(CacheDecision::ExactHit, 0)); // non-drift: null
        let text = fr.to_jsonl();
        let check = validate_audit_jsonl(&text).expect("valid log");
        assert_eq!(check.events[0].arity, 4);
        assert_eq!(check.events[0].span_fraction, Some(0.4));
        assert_eq!(check.events[1].arity, 2);
        assert_eq!(check.events[1].span_fraction, None);
        // Out-of-range fields are rejected.
        assert!(validate_audit_jsonl(&text.replace("\"arity\":4", "\"arity\":1")).is_err());
        assert!(validate_audit_jsonl(
            &text.replace("\"span_fraction\":0.4", "\"span_fraction\":1.5")
        )
        .is_err());
    }

    #[test]
    fn jsonl_sequences_stay_contiguous_across_eviction() {
        let fr = FlightRecorder::with_capacity(2);
        for i in 0..5 {
            fr.record(ev(CacheDecision::ExactHit, i));
        }
        let check = validate_audit_jsonl(&fr.to_jsonl()).expect("valid log");
        assert_eq!(check.totals.dropped, 3);
        let seqs: Vec<u64> = check.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [3, 4]);
        // Replay is a lower bound when the ring wrapped.
        let replay = check.replay_totals();
        assert_eq!(replay.requests + replay.dropped, check.totals.requests);
    }

    #[test]
    fn validator_rejects_corrupt_logs() {
        let fr = FlightRecorder::new();
        fr.record(ev(CacheDecision::Cold, 3));
        fr.record(ev(CacheDecision::ExactHit, 0));
        let good = fr.to_jsonl();

        assert!(validate_audit_jsonl("").is_err());
        assert!(validate_audit_jsonl("{}\n").is_err());
        assert!(validate_audit_jsonl("not json\n").is_err());
        // Wrong schema tag.
        assert!(validate_audit_jsonl(&good.replace(AUDIT_SCHEMA, "nbwp-audit/v0")).is_err());
        // Unknown decision name.
        assert!(validate_audit_jsonl(&good.replace("exact_hit", "lukewarm_hit")).is_err());
        // A dropped line breaks both the event count and the replay.
        let mut lines: Vec<&str> = good.lines().collect();
        lines.remove(2);
        let truncated = lines.join("\n");
        assert!(validate_audit_jsonl(&truncated).is_err());
        // Header/replay disagreement (counter tampering).
        assert!(validate_audit_jsonl(&good.replace("\"cold\":1", "\"cold\":2")).is_err());
        // Sequence gap.
        assert!(validate_audit_jsonl(&good.replace("\"seq\":1", "\"seq\":7")).is_err());
    }

    #[test]
    fn flush_metrics_reports_deltas_once() {
        let fr = FlightRecorder::new();
        fr.record(ev(CacheDecision::Cold, 7));
        fr.record(AuditEvent {
            shadow_regret_pct: 1.0,
            ..ev(CacheDecision::NearHit, 3)
        });
        let rec = Recorder::new();
        fr.flush_metrics(&rec);
        fr.record(ev(CacheDecision::ExactHit, 0));
        fr.flush_metrics(&rec);
        let m = rec.finish().metrics;
        assert_eq!(m.counter("audit.requests"), Some(3));
        assert_eq!(m.counter("audit.cold"), Some(1));
        assert_eq!(m.counter("audit.near_hit"), Some(1));
        assert_eq!(m.counter("audit.exact_hit"), Some(1));
        assert_eq!(m.counter("audit.shadow_runs"), Some(1));
        assert_eq!(m.counter("audit.evaluations"), Some(10));
        // Histograms cover every retained event exactly once across the
        // two flushes: 3 timed latencies, 3 evaluation counts.
        let lat = m.histogram("audit.latency_us").expect("latency histogram");
        assert_eq!(lat.count, 3);
        let evs = m.histogram("audit.evaluations").expect("evals histogram");
        assert_eq!((evs.count, evs.min, evs.max), (3, 0.0, 7.0));
        // A flush with no new activity adds nothing.
        let fresh = Recorder::new();
        fr.flush_metrics(&fresh);
        let m = fresh.finish().metrics;
        assert_eq!(m.counter("audit.requests"), Some(0));
    }
}
