//! Incremental re-estimation under input drift.
//!
//! Serving deployments rarely see a stream of unrelated inputs: they see
//! *one* input mutating in place — edges arriving on a graph, rows being
//! replaced in a matrix. Re-running the full estimation pipeline after
//! every mutation throws away almost everything it computed last time.
//! This module closes that gap end-to-end:
//!
//! 1. A [`DriftWorkload`] applies a typed delta ([`GraphDelta`] /
//!    [`CsrDelta`]) to its input, returning the successor workload and the
//!    contiguous span of work units the delta touched. The successor's
//!    [`Fingerprint`] is *chained* — patched in `O(|delta|)` via
//!    [`Fingerprint::apply_delta`], bitwise-equal in statistics to a fresh
//!    sketch and committing to `(base, delta script)` in its digest.
//! 2. [`DriftWorkload::patch_profile`] rebuilds only the touched
//!    prefix/suffix spans of the cost profile in the scratch arenas —
//!    the patch-equals-rebuild contract (`DESIGN.md`) guarantees the
//!    result is bitwise-identical to profiling the mutated input from
//!    scratch.
//! 3. [`DriftServer`] holds the live profile, applies deltas, and
//!    re-minimizes the patched curve with a *warm* descent from the
//!    previous cut vector ([`minimize_partition`] on the configured
//!    [`DeviceSet`] — the canonical pair by default, any band-priced
//!    topology via [`DriftServer::with_devices`]) instead of a cold
//!    multi-seed search. Every step patches its span and descends warm:
//!    a profile build is itself a whole-span patch, so a patch never
//!    costs more than the rebuild it would replace.
//!
//! Every step is scored: staleness regret (the patched curve's cost at the
//! previous threshold over the new minimum) flows into the
//! [`ThresholdCache`] shadow-regret ring, patched/nudged counters feed
//! the metrics registry, and an optional [`FlightRecorder`] audits
//! each decision under [`CacheDecision::Patched`]. The recording is
//! observation-only: an audited server returns bitwise-identical
//! thresholds to an unaudited one (property-tested).
//!
//! [`GraphDelta`]: nbwp_graph::delta::GraphDelta
//! [`CsrDelta`]: nbwp_sparse::delta::CsrDelta
//! [`Fingerprint`]: crate::fingerprint::Fingerprint
//! [`Fingerprint::apply_delta`]: crate::fingerprint::Fingerprint::apply_delta
//! [`CacheDecision::Patched`]: nbwp_trace::CacheDecision::Patched

use std::ops::Range;

use nbwp_par::Pool;
use nbwp_sim::{DeviceSet, Partition, ProfileScratch, SimTime};
use nbwp_trace::{AuditEvent, CacheDecision, FlightRecorder};

use crate::fingerprint::Fingerprinted;
use crate::framework::PartitionedWorkload;
use crate::profile::Profilable;
use crate::search::minimize_partition;
use crate::threshold_cache::ThresholdCache;

/// A workload that can evolve under typed input deltas while keeping its
/// fingerprint and cost profile incrementally up to date.
///
/// The contract binding the three methods: for any delta,
/// `apply_delta` → `patch_profile` over the returned span must leave the
/// profile bitwise-equal to `build_profile` on the successor workload.
/// `tests/property_drift.rs` enforces this on random inputs and deltas.
pub trait DriftWorkload: Profilable + PartitionedWorkload + Fingerprinted + Sized {
    /// The typed mutation batch this workload accepts.
    type Delta;

    /// Applies `delta`, returning the successor workload and the
    /// contiguous span of work units (vertices / rows) whose profile
    /// entries may have changed. The successor's fingerprint is chained
    /// from `self`'s in `O(|delta|)` — never recomputed from scratch.
    fn apply_delta(&self, delta: &Self::Delta) -> (Self, Range<usize>);

    /// Patches `profile` (built for the *predecessor*) over `span` so it
    /// equals a fresh build for `self` (the *successor*). A whole-input
    /// span (`0..units`) is a full in-place rebuild reusing the profile's
    /// allocations.
    fn patch_profile(
        &self,
        profile: &mut Self::Profile,
        span: Range<usize>,
        scratch: &mut ProfileScratch,
    );

    /// Number of patchable work units — the denominator of a step's span
    /// fraction and the length of a whole-input span.
    fn units(&self) -> usize;
}

/// How a [`DriftServer`] resolved one delta step.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DriftDecision {
    /// The curves were span-patched and the previous threshold survived as
    /// the curve argmin — no threshold movement.
    Patched,
    /// The curves were span-patched and the warm hill-descent nudged the
    /// threshold to a neighbouring basin.
    Nudged,
    /// Full in-place rebuild and cold search. [`DriftServer`] no longer
    /// produces it (every step patches its span); the variant stays for
    /// consumers that match on every decision.
    Rebuilt,
}

impl DriftDecision {
    /// Stable lowercase name (CLI tables, JSON rows).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DriftDecision::Patched => "patched",
            DriftDecision::Nudged => "nudged",
            DriftDecision::Rebuilt => "rebuilt",
        }
    }

    /// The audit-schema decision this maps to: patched keeps the cached
    /// threshold, a nudge is a warm start, a rebuild is a cold search.
    #[must_use]
    pub fn cache_decision(self) -> CacheDecision {
        match self {
            DriftDecision::Patched => CacheDecision::Patched,
            DriftDecision::Nudged => CacheDecision::NearHit,
            DriftDecision::Rebuilt => CacheDecision::Cold,
        }
    }
}

/// Outcome of one [`DriftServer::apply`] step.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftStep {
    /// How the step was resolved.
    pub decision: DriftDecision,
    /// First cut of the served partition (the scalar threshold on the
    /// canonical pair).
    pub threshold: f64,
    /// Full cut vector now being served (`k − 1` thresholds, ascending).
    pub cuts: Vec<f64>,
    /// Curve total at the served partition.
    pub total: SimTime,
    /// Curve probes this step spent.
    pub probes: usize,
    /// Probes saved against the server's initial cold search.
    pub probes_saved: u64,
    /// Staleness regret in percent: the patched curve's cost at the
    /// previous cut vector over the new minimum, minus one.
    pub regret_pct: f64,
    /// Span re-profiled: the unit range the delta touched.
    pub span: Range<usize>,
    /// The span's length over the unit count.
    pub span_fraction: f64,
}

/// Serves thresholds for a workload drifting under a stream of deltas.
///
/// Owns the live profile (built once in its own scratch arena) and the
/// previous decision; each [`apply`](DriftServer::apply) patches in place
/// and warm-restarts the curve minimization. Optional hooks: a
/// [`ThresholdCache`] (generation bumps + patched/shadow metrics) and a
/// [`FlightRecorder`] (per-step audit events). Both are observation-only.
pub struct DriftServer<'a, W: DriftWorkload> {
    workload: W,
    profile: W::Profile,
    scratch: ProfileScratch,
    set: DeviceSet,
    cache: Option<&'a ThresholdCache>,
    audit: Option<&'a FlightRecorder>,
    thresholds: Vec<f64>,
    total: SimTime,
    cold_probes: u64,
    steps: u64,
}

impl<'a, W: DriftWorkload> DriftServer<'a, W> {
    /// Builds the profile and runs the initial cold curve minimization
    /// for the canonical CPU+GPU pair ([`DriftServer::with_devices`]
    /// re-targets any band-priced topology).
    ///
    /// # Panics
    /// Panics if the workload exposes no cost curve.
    #[must_use]
    pub fn new(workload: W) -> Self {
        let mut scratch = ProfileScratch::new();
        let profile = workload.build_profile_in(Pool::global(), &mut scratch);
        let set = DeviceSet::cpu_gpu_static().clone();
        let (thresholds, total, probes) = Self::cold_minimize(&workload, &profile, &set);
        DriftServer {
            workload,
            profile,
            scratch,
            set,
            cache: None,
            audit: None,
            thresholds,
            total,
            cold_probes: probes as u64,
            steps: 0,
        }
    }

    /// One cold multi-seed minimization of the curve over `set`.
    fn cold_minimize(
        workload: &W,
        profile: &W::Profile,
        set: &DeviceSet,
    ) -> (Vec<f64>, SimTime, usize) {
        let space = workload.space();
        let curve = workload
            .curve(profile)
            .expect("drift serving needs an analytic cost curve");
        let m = minimize_partition(curve.as_ref(), set, &space, space.fine_step, None)
            .expect("drift serving at k > 2 needs a band-priced cost curve");
        (m.thresholds, m.total, m.probes)
    }

    /// Serves full k-way cut vectors for `set` instead of the canonical
    /// pair: re-runs the initial cold minimization (the profile is
    /// topology-independent and is reused).
    ///
    /// # Panics
    /// Panics at `k > 2` if the workload's curve does not price device
    /// bands (see [`minimize_partition`]).
    #[must_use]
    pub fn with_devices(mut self, set: DeviceSet) -> Self {
        self.set = set;
        let (thresholds, total, probes) =
            Self::cold_minimize(&self.workload, &self.profile, &self.set);
        self.thresholds = thresholds;
        self.total = total;
        self.cold_probes = probes as u64;
        self
    }

    /// Attaches a threshold cache: each step advances its delta
    /// generation (invalidating exact entries for the predecessor input)
    /// and records patched/nudged counters, probes saved, and shadow
    /// regret.
    #[must_use]
    pub fn with_cache(mut self, cache: &'a ThresholdCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a flight recorder: each step records an [`AuditEvent`]
    /// with the chained fingerprint digest and the mapped
    /// [`CacheDecision`].
    #[must_use]
    pub fn with_audit(mut self, audit: &'a FlightRecorder) -> Self {
        self.audit = Some(audit);
        self
    }

    /// First cut of the served partition (the scalar threshold on the
    /// canonical pair).
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.thresholds[0]
    }

    /// Full cut vector currently being served (`k − 1` thresholds).
    #[must_use]
    pub fn cuts(&self) -> &[f64] {
        &self.thresholds
    }

    /// The device topology being served.
    #[must_use]
    pub fn devices(&self) -> &DeviceSet {
        &self.set
    }

    /// Curve total at the served threshold.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.total
    }

    /// Deltas applied so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The current (post-drift) workload.
    #[must_use]
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// The live profile (patched in place across steps).
    #[must_use]
    pub fn profile(&self) -> &W::Profile {
        &self.profile
    }

    /// Applies one delta: patch its span, advance the cache generation,
    /// re-minimize warm from the previous cut vector, and record the
    /// decision.
    pub fn apply(&mut self, delta: &W::Delta) -> DriftStep {
        let (next, span) = self.workload.apply_delta(delta);
        let units = next.units();
        let span_fraction = if units == 0 {
            0.0
        } else {
            span.len() as f64 / units as f64
        };
        next.patch_profile(&mut self.profile, span.clone(), &mut self.scratch);
        if let Some(cache) = self.cache {
            // Exact entries keyed on the predecessor input are now stale;
            // near-key warm hints survive as advisory.
            cache.advance_generation();
        }

        let space = next.space();
        let prev_cuts = self.thresholds.clone();
        let (minimum, regret_pct) = {
            let curve = next
                .curve(&self.profile)
                .expect("drift serving needs an analytic cost curve");
            let m = minimize_partition(
                curve.as_ref(),
                &self.set,
                &space,
                space.fine_step,
                Some(&prev_cuts),
            )
            .expect("drift serving at k > 2 needs a band-priced cost curve");
            // Staleness regret: what serving the *old* cut vector on the
            // *new* curve would cost over the fresh minimum. On the
            // canonical pair this prices through the scalar lane (exact
            // for every curve); at k > 2 through the band prices.
            let stale = if self.set.is_canonical_pair() {
                curve.total_at(curve.split_for(space.clamp(prev_cuts[0])))
            } else {
                let curve_units = curve.splits() - 1;
                let mut splits: Vec<usize> = prev_cuts
                    .iter()
                    .map(|&t| curve.split_for(space.clamp(t)))
                    .collect();
                for j in 1..splits.len() {
                    splits[j] = splits[j].max(splits[j - 1]);
                }
                curve
                    .partition_total(&self.set, &Partition::new(curve_units, splits))
                    .expect("band-priced curve prices every partition")
            };
            let regret = if m.total.as_secs() > 0.0 {
                (stale.as_secs() / m.total.as_secs() - 1.0) * 100.0
            } else {
                0.0
            };
            (m, regret)
        };
        let new_cuts = minimum.thresholds.clone();

        let decision = if new_cuts == prev_cuts {
            DriftDecision::Patched
        } else {
            DriftDecision::Nudged
        };
        let probes = minimum.probes as u64;
        let probes_saved = self.cold_probes.saturating_sub(probes);

        if let Some(cache) = self.cache {
            if decision == DriftDecision::Patched {
                cache.record_patched_hit();
            } else {
                cache.record_patched_nudge();
            }
            if probes_saved > 0 {
                cache.record_probes_saved(probes_saved);
            }
            cache.record_shadow(regret_pct);
        }
        if let Some(audit) = self.audit {
            let fp = next.fingerprint();
            audit.record(AuditEvent {
                kind: fp.kind,
                digest: fp.digest,
                decision: decision.cache_decision(),
                threshold: new_cuts[0],
                evaluations: 0,
                grad_probes: probes,
                sim_cost_ms: 0.0,
                latency_us: f64::NAN,
                shadow_regret_pct: regret_pct,
                arity: self.set.len() as u64,
                span_fraction,
            });
        }

        self.workload = next;
        self.thresholds = new_cuts.clone();
        self.total = minimum.total;
        self.steps += 1;
        DriftStep {
            decision,
            threshold: new_cuts[0],
            cuts: new_cuts,
            total: minimum.total,
            probes: minimum.probes,
            probes_saved,
            regret_pct,
            span,
            span_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{CcWorkload, SpmmWorkload};
    use nbwp_graph::delta::GraphDelta;
    use nbwp_graph::gen as ggen;
    use nbwp_sim::Platform;
    use nbwp_sparse::delta::{CsrDelta, RowOp};
    use nbwp_sparse::gen as sgen;

    fn cc_workload() -> CcWorkload {
        CcWorkload::new(ggen::web(900, 5, 3), Platform::k40c_xeon_e5_2650())
    }

    fn spmm_workload() -> SpmmWorkload {
        SpmmWorkload::new(
            sgen::power_law(320, 8, 2.2, 5),
            Platform::k40c_xeon_e5_2650(),
        )
    }

    /// Cold serve of a workload from scratch — the parity oracle.
    fn cold<W: DriftWorkload>(w: &W) -> (f64, SimTime) {
        let profile = w.build_profile(Pool::global());
        let space = w.space();
        let curve = w.curve(&profile).expect("curve");
        let m = minimize_partition(
            curve.as_ref(),
            DeviceSet::cpu_gpu_static(),
            &space,
            space.fine_step,
            None,
        )
        .expect("the canonical pair prices every curve");
        (m.thresholds[0], m.total)
    }

    #[test]
    fn cc_drift_steps_match_cold_serving() {
        let mut server = DriftServer::new(cc_workload());
        // Edge spans widen to [min endpoint, max endpoint]: local edits
        // keep the span small (a (0, 899) edge patches the whole input).
        let deltas = [
            GraphDelta::inserts(vec![(10, 11), (10, 12), (40, 95)]),
            GraphDelta::deletes(vec![(10, 11)]),
            GraphDelta::default(), // empty delta: must be a Patched no-op
        ];
        for (i, d) in deltas.iter().enumerate() {
            let step = server.apply(d);
            let (t, total) = cold(server.workload());
            assert_eq!(step.threshold, t, "step {i}");
            assert_eq!(step.total, total, "step {i}");
            assert_ne!(step.decision, DriftDecision::Rebuilt, "step {i}");
        }
        assert_eq!(server.steps(), 3);
    }

    #[test]
    fn spmm_drift_steps_match_cold_serving() {
        let mut server = DriftServer::new(spmm_workload());
        let deltas = [
            CsrDelta::replace(7, vec![0, 3, 200], vec![1.0, 2.0, 3.0]),
            CsrDelta {
                ops: vec![
                    RowOp::Replace {
                        row: 100,
                        cols: vec![],
                        vals: vec![],
                    },
                    RowOp::Scale {
                        row: 5,
                        factor: 2.0,
                    },
                ],
            },
        ];
        for (i, d) in deltas.iter().enumerate() {
            let step = server.apply(d);
            let (t, total) = cold(server.workload());
            assert_eq!(step.threshold, t, "step {i}");
            assert_eq!(step.total, total, "step {i}");
        }
    }

    #[test]
    fn kway_drift_serves_warm_cut_vectors_matching_cold() {
        let set = DeviceSet::dual_cpu_dual_gpu();
        let mut server = DriftServer::new(cc_workload()).with_devices(set.clone());
        assert_eq!(server.cuts().len(), set.len() - 1);
        let deltas = [
            GraphDelta::inserts(vec![(10, 11), (10, 12), (40, 95)]),
            GraphDelta::deletes(vec![(10, 11)]),
        ];
        for (i, d) in deltas.iter().enumerate() {
            let step = server.apply(d);
            assert_eq!(step.cuts.len(), set.len() - 1, "step {i}");
            assert_ne!(step.decision, DriftDecision::Rebuilt, "step {i}");
            // Cold oracle: fresh profile, cold multi-seed search.
            let w = server.workload();
            let profile = w.build_profile(Pool::global());
            let space = w.space();
            let curve = w.curve(&profile).expect("curve");
            let m = minimize_partition(curve.as_ref(), &set, &space, space.fine_step, None)
                .expect("cc curves price bands");
            assert_eq!(step.cuts, m.thresholds, "step {i}");
            assert_eq!(step.total, m.total, "step {i}");
            assert!(
                step.probes < m.probes,
                "step {i}: warm descent must beat the cold multi-seed sweep \
                 ({} vs {} probes)",
                step.probes,
                m.probes
            );
        }
    }

    #[test]
    fn drift_steps_report_the_decision_reason() {
        let mut server = DriftServer::new(cc_workload());
        let step = server.apply(&GraphDelta::inserts(vec![(10, 11)]));
        assert!(step.span_fraction > 0.0 && step.span_fraction < 1.0);
        assert_eq!(step.span_fraction, step.span.len() as f64 / 900.0);
        // A whole-input span still patches and descends warm.
        let step = server.apply(&GraphDelta::inserts(vec![(0, 899)]));
        assert_eq!(step.span, 0..900);
        assert_eq!(step.span_fraction, 1.0);
        assert_ne!(step.decision, DriftDecision::Rebuilt);
    }

    #[test]
    fn cache_and_audit_hooks_observe_without_changing_results() {
        let cache = ThresholdCache::new(16);
        let audit = FlightRecorder::new();
        let deltas = [
            CsrDelta::replace(3, vec![1, 2], vec![1.0, 1.0]),
            CsrDelta::replace(150, vec![0], vec![4.0]),
        ];

        let mut plain = DriftServer::new(spmm_workload());
        let mut hooked = DriftServer::new(spmm_workload())
            .with_cache(&cache)
            .with_audit(&audit);
        let gen_before = cache.generation();
        for d in &deltas {
            let a = plain.apply(d);
            let b = hooked.apply(d);
            assert_eq!(a, b, "audited serving must be bitwise identical");
        }
        assert_eq!(cache.generation(), gen_before + 2);
        let stats = cache.stats();
        assert_eq!(
            stats.patched_hits + stats.patched_nudges + stats.patched_rebuilds,
            2
        );
        assert_eq!(cache.shadow_regrets().len(), 2);
        let (events, totals) = (audit.events(), audit.totals());
        assert_eq!(totals.requests, 2);
        assert_eq!(events.len(), 2);
        // The chained digest advances with every delta.
        assert_ne!(events[0].digest, events[1].digest);
        for ev in &events {
            assert_eq!(ev.kind, "spmm");
            assert_eq!(ev.evaluations, 0);
        }
    }

    #[test]
    fn chained_fingerprint_stats_match_fresh_sketch() {
        let w = spmm_workload();
        let delta = CsrDelta::replace(9, vec![4, 7, 9, 250], vec![1.0; 4]);
        let (w2, _) = w.apply_delta(&delta);
        let drifted = w2.fingerprint();
        let fresh =
            SpmmWorkload::new(w2.matrix().clone(), Platform::k40c_xeon_e5_2650()).fingerprint();
        assert_eq!(drifted.n, fresh.n);
        assert_eq!(drifted.m, fresh.m);
        assert_eq!(drifted.mean_degree, fresh.mean_degree);
        assert_eq!(drifted.degree_cv, fresh.degree_cv);
        assert_eq!(drifted.max_degree, fresh.max_degree);
        assert_eq!(drifted.degree_sq_sum, fresh.degree_sq_sum);
        assert_eq!(drifted.log2_hist, fresh.log2_hist);
        assert_eq!(drifted.density_class, fresh.density_class);
        // The digest is a chain commitment, intentionally different from
        // the from-scratch digest.
        assert_ne!(drifted.digest, fresh.digest);
    }
}
