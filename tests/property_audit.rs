//! Property tests for the serving audit layer (flight recorder, metrics
//! histograms, and the shadow-regret sampler):
//!
//! * replaying a recorder's JSONL log reconstructs its running counter
//!   totals exactly (or bounds them when the ring evicted events);
//! * serving with auditing and shadow-sampling enabled returns estimates
//!   bitwise identical to the unaudited path, under a strategy that never
//!   warm-starts and under the analytic one that does;
//! * histogram bucket boundaries follow Prometheus `le` semantics — an
//!   observation exactly on a bound lands in that bound's bucket — with
//!   negative, NaN and +Inf observations clamped into the outer buckets;
//! * the shadow sampler fires only on warm (near-key) hits, obeys the
//!   sampling rate at its extremes, and leaves the returned estimates
//!   untouched.

use nbwp_core::prelude::*;
use nbwp_core::search::Strategy as SearchStrategy;
use nbwp_graph::gen as ggen;
use nbwp_sparse::gen as sgen;
use nbwp_trace::{bucket_index, MetricsRegistry, BUCKET_BOUNDS, BUCKET_COUNT};
use proptest::prelude::*;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650()
}

/// Bitwise digest of an estimate: thresholds as raw bits plus every
/// counter, so any numeric or accounting drift is caught exactly.
fn bits(e: &SamplingEstimate) -> (u64, u64, SimTime, usize, usize, usize) {
    (
        e.threshold.to_bits(),
        e.sample_threshold.to_bits(),
        e.overhead,
        e.evaluations,
        e.sample_size,
        e.grad_probes,
    )
}

/// A synthetic audit event from a generated shape tuple.
fn event(decision: usize, evals: u64, probes: u64, shadow: bool, timed: bool) -> AuditEvent {
    let decision = CacheDecision::ALL[decision % CacheDecision::ALL.len()];
    AuditEvent {
        kind: "cc",
        digest: 0xA0D1_7000 + evals * 31 + probes,
        decision,
        threshold: 12.5 + evals as f64,
        evaluations: evals,
        grad_probes: probes,
        sim_cost_ms: 0.25 * probes as f64,
        latency_us: if timed { 0.5 + evals as f64 } else { f64::NAN },
        shadow_regret_pct: if shadow { 1.5 } else { f64::NAN },
        arity: 2 + (probes % 7),
        span_fraction: if shadow { 0.125 } else { f64::NAN },
        crossover_estimate: if shadow { 0.25 } else { f64::NAN },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) The recorder's running totals equal a straight fold over the
    /// recorded events, and the JSONL round trip replays them: exactly
    /// when nothing was evicted, as a lower bound (with request
    /// conservation) when the ring wrapped.
    #[test]
    fn replay_reconstructs_counter_totals(
        capacity in 1usize..12,
        shapes in prop::collection::vec(
            (0usize..4, 0u64..50, 0u64..20, any::<bool>(), any::<bool>()),
            0..40,
        ),
    ) {
        let fr = FlightRecorder::with_capacity(capacity);
        let mut want = AuditTotals::default();
        for &(d, e, p, sh, t) in &shapes {
            let ev = event(d, e, p, sh, t);
            match ev.decision {
                CacheDecision::ExactHit => want.exact_hits += 1,
                CacheDecision::Patched => want.patched += 1,
                CacheDecision::NearHit => want.near_hits += 1,
                CacheDecision::Cold => want.cold += 1,
            }
            want.requests += 1;
            want.shadow_runs += u64::from(sh);
            want.evaluations += e;
            want.grad_probes += p;
            fr.record(ev);
        }
        want.dropped = shapes.len().saturating_sub(capacity) as u64;
        prop_assert_eq!(fr.totals(), want);
        prop_assert_eq!(fr.len(), shapes.len().min(capacity));

        let check = validate_audit_jsonl(&fr.to_jsonl()).expect("log validates");
        prop_assert_eq!(check.totals, want);
        prop_assert_eq!(check.events.len(), fr.len());
        let replay = check.replay_totals();
        if want.dropped == 0 {
            prop_assert_eq!(replay, want);
        } else {
            prop_assert_eq!(replay.requests + want.dropped, want.requests);
            prop_assert!(replay.evaluations <= want.evaluations);
            prop_assert!(replay.exact_hits <= want.exact_hits);
        }

        // Flushing everything to a metrics registry reports the same
        // counter totals, and a second flush adds nothing.
        let rec = Recorder::new();
        fr.flush_metrics(&rec);
        fr.flush_metrics(&rec);
        let m = rec.finish().metrics;
        prop_assert_eq!(m.counter("audit.requests"), Some(want.requests));
        prop_assert_eq!(m.counter("audit.exact_hit"), Some(want.exact_hits));
        prop_assert_eq!(m.counter("audit.patched"), Some(want.patched));
        prop_assert_eq!(m.counter("audit.near_hit"), Some(want.near_hits));
        prop_assert_eq!(m.counter("audit.cold"), Some(want.cold));
        prop_assert_eq!(m.counter("audit.shadow_runs"), Some(want.shadow_runs));
        prop_assert_eq!(m.counter("audit.evaluations"), Some(want.evaluations));
        prop_assert_eq!(m.counter("audit.dropped"), Some(want.dropped));
    }

    /// (b) Auditing and shadow-sampling are pure observation: a stream
    /// served with a flight recorder attached and the shadow sampler at
    /// full rate returns estimates bitwise identical to the same stream
    /// served silently, with and without warm starts.
    #[test]
    fn audited_serving_is_bitwise_identical_to_silent(
        n in 96usize..280,
        deg in 2usize..6,
        seed in 0u64..1000,
    ) {
        let p = platform();
        let a = CcWorkload::new(ggen::web(n, deg, seed), p);
        let b = CcWorkload::new(ggen::web(n + 13, deg, seed + 1), p);
        let ws = [a.clone(), b.clone(), a.clone(), a, b];

        // CoarseToFine: exact hits and cold misses only.
        let est = Estimator::new(SearchStrategy::CoarseToFine).seed(seed);
        let silent_cache = ThresholdCache::new(8);
        let silent = est.cache(&silent_cache).profiled();
        let baseline: Vec<SamplingEstimate> = ws.iter().map(|w| silent.run_cached(w)).collect();

        let audit_cache = ThresholdCache::new(8);
        let flight = FlightRecorder::new().timed_every(2);
        let audited = est.cache(&audit_cache).audit(&flight).shadow_rate(1.0).profiled();
        for (w, want) in ws.iter().zip(&baseline) {
            prop_assert_eq!(bits(&audited.run_cached(w)), bits(want));
        }
        let t = flight.totals();
        prop_assert_eq!(t.requests, ws.len() as u64);
        prop_assert_eq!(t.exact_hits, 3); // two distinct inputs, three repeats
        prop_assert_eq!(t.exact_hits + t.near_hits + t.cold, t.requests);
        let check = validate_audit_jsonl(&flight.to_jsonl()).expect("log validates");
        prop_assert_eq!(check.replay_totals(), t);

        // Analytic — the shadow sampler actually fires here on near hits,
        // and must still not perturb the results.
        let s1 = SpmmWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed), p);
        let s2 = SpmmWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed + 1), p);
        let ss = [s1.clone(), s2.clone(), s1, s2];
        let est = Estimator::new(SearchStrategy::Analytic { step: None }).seed(seed);
        let silent_cache = ThresholdCache::new(8);
        let silent = est.cache(&silent_cache).shadow_rate(0.0).profiled();
        let baseline: Vec<SamplingEstimate> = ss.iter().map(|w| silent.run_cached(w)).collect();

        let audit_cache = ThresholdCache::new(8);
        let flight = FlightRecorder::new();
        let audited = est.cache(&audit_cache).audit(&flight).shadow_rate(1.0).profiled();
        for (w, want) in ss.iter().zip(&baseline) {
            prop_assert_eq!(bits(&audited.run_cached(w)), bits(want));
        }
        let t = flight.totals();
        prop_assert_eq!(t.requests, ss.len() as u64);
        prop_assert_eq!(t.shadow_runs, audit_cache.stats().shadow_runs);
        prop_assert_eq!(
            t.shadow_runs,
            audit_cache.shadow_regrets().len() as u64
        );
    }

    /// (c) Histogram bucket placement follows `le` semantics for arbitrary
    /// finite positive observations: the chosen bucket's upper edge is the
    /// first bound at or above the value.
    #[test]
    fn bucket_index_is_first_bound_at_or_above(v in 0.0f64..200_000.0) {
        let i = bucket_index(v);
        if i < BUCKET_BOUNDS.len() {
            prop_assert!(v <= BUCKET_BOUNDS[i]);
            if i > 0 {
                prop_assert!(v > BUCKET_BOUNDS[i - 1]);
            }
        } else {
            prop_assert!(v > BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]);
        }
    }

    /// (d) The shadow sampler fires only on near-key warm hits, respects
    /// the rate extremes, agrees with the cache's own counters, and the
    /// recorded regret matches the retained observation.
    #[test]
    fn shadow_sampler_fires_only_on_warm_hits(
        n in 128usize..360,
        deg in 3usize..7,
        seed in 0u64..500,
    ) {
        let p = platform();
        let a = CcWorkload::new(ggen::web(n, deg, seed), p);
        let b = CcWorkload::new(ggen::web(n, deg, seed + 1), p);
        // Perturbed same-family inputs usually quantize to the same near
        // key; skip the rare boundary-straddling draw.
        prop_assume!(a.fingerprint().near_key() == b.fingerprint().near_key());

        let est = Estimator::new(SearchStrategy::Analytic { step: None }).seed(seed);
        let quiet_cache = ThresholdCache::new(8);
        let quiet = est.cache(&quiet_cache).shadow_rate(0.0).profiled();
        let q_a = quiet.run_cached(&a);
        let q_b = quiet.run_cached(&b);
        prop_assert_eq!(quiet_cache.stats().shadow_runs, 0);
        prop_assert!(quiet_cache.shadow_regrets().is_empty());

        let cache = ThresholdCache::new(8);
        let flight = FlightRecorder::new();
        let sampled = est.cache(&cache).audit(&flight).shadow_rate(1.0).profiled();
        prop_assert_eq!(bits(&sampled.run_cached(&a)), bits(&q_a)); // cold miss
        prop_assert_eq!(bits(&sampled.run_cached(&b)), bits(&q_b)); // near hit
        let st = cache.stats();
        prop_assert_eq!(st.near_hits, 1);
        prop_assert_eq!(st.shadow_runs, 1);
        let regrets = cache.shadow_regrets();
        prop_assert_eq!(regrets.len(), 1);
        prop_assert!(regrets[0].is_finite());

        let evs = flight.events();
        prop_assert_eq!(evs.len(), 2);
        prop_assert_eq!(evs[0].decision, CacheDecision::Cold);
        prop_assert!(evs[0].shadow_regret_pct.is_nan());
        prop_assert_eq!(evs[1].decision, CacheDecision::NearHit);
        prop_assert!(!evs[1].shadow_regret_pct.is_nan());
        prop_assert!((evs[1].shadow_regret_pct - regrets[0]).abs() < 1e-12);

        // Exact hits never shadow-sample, even at full rate.
        let before = cache.stats().shadow_runs;
        prop_assert_eq!(bits(&sampled.run_cached(&b)), bits(&q_b));
        prop_assert_eq!(cache.stats().shadow_runs, before);
    }
}

#[test]
fn bucket_boundaries_follow_le_semantics_exactly() {
    // Exactly on a bound: that bound's bucket (Prometheus `le` is
    // inclusive). Just above: the next bucket.
    for (i, &bound) in BUCKET_BOUNDS.iter().enumerate() {
        assert_eq!(bucket_index(bound), i, "bound {bound}");
        let above = bound * (1.0 + 1e-12);
        assert_eq!(bucket_index(above), i + 1, "just above {bound}");
    }
    // Outer clamps: zero and negatives into the first bucket, oversized /
    // infinite / NaN observations into the +Inf bucket.
    assert_eq!(bucket_index(0.0), 0);
    assert_eq!(bucket_index(-3.5), 0);
    assert_eq!(bucket_index(f64::NEG_INFINITY), 0);
    assert_eq!(bucket_index(1e9), BUCKET_BOUNDS.len());
    assert_eq!(bucket_index(f64::INFINITY), BUCKET_BOUNDS.len());
    assert_eq!(bucket_index(f64::NAN), BUCKET_BOUNDS.len());

    // A registry fed one observation per bound puts exactly one count in
    // each finite bucket and keeps the +Inf bucket empty.
    let mut reg = MetricsRegistry::new();
    for &bound in &BUCKET_BOUNDS {
        reg.histogram_record("edges", bound);
    }
    let snap = reg.snapshot();
    let h = snap.histogram("edges").expect("histogram recorded");
    assert_eq!(h.count, BUCKET_BOUNDS.len() as u64);
    assert_eq!(h.buckets.len(), BUCKET_COUNT);
    assert!(h.buckets[..BUCKET_BOUNDS.len()].iter().all(|&c| c == 1));
    assert_eq!(h.buckets[BUCKET_BOUNDS.len()], 0);
    assert_eq!(h.min, BUCKET_BOUNDS[0]);
    assert_eq!(h.max, BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]);
    // Quantiles stay inside the observed range and are monotone.
    let (p50, p95, p100) = (h.quantile(0.5), h.quantile(0.95), h.quantile(1.0));
    assert!(h.min <= p50 && p50 <= p95 && p95 <= p100);
    assert_eq!(p100, h.max);
}
