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
//!    multi-seed search. Patch-vs-rebuild is decided online by an
//!    *adaptive crossover*: the server keeps deterministic work-unit
//!    EWMAs of what patched steps and whole-input rebuilds actually cost
//!    and rebuilds only when the predicted patch cost exceeds the
//!    measured rebuild cost. [`DriftServer::with_crossover`] pins the
//!    historical fixed-fraction policy instead
//!    ([`PATCH_CROSSOVER_FRACTION`] was the old default).
//!
//! Every step is scored: staleness regret (the patched curve's cost at the
//! previous threshold over the new minimum) flows into the
//! [`ThresholdCache`] shadow-regret ring, patched/nudged/rebuilt counters
//! feed the metrics registry, and an optional [`FlightRecorder`] audits
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

/// Span fraction (touched units over total units) above which the
/// *fixed-fraction* crossover policy abandons span patching for a full
/// in-place rebuild plus cold search.
///
/// This was the default policy before the adaptive crossover landed and
/// remains the fixed-policy baseline `bench_drift` compares against.
/// Measured with `bench_drift`: at the 0.1% and 1% delta fractions the
/// patched path wins by well over the gated 5×, while at 10% the widened
/// spans (SpGEMM's A×A coupling spreads edits across referencing rows)
/// already cover a large share of the input and the patch's tail-shift
/// passes stop paying for themselves well before half the input is
/// touched.
pub const PATCH_CROSSOVER_FRACTION: f64 = 0.25;

/// EWMA smoothing factor for the adaptive crossover's work observations.
/// Recent steps dominate (drifting inputs change regime), but one
/// outlier delta cannot flip the policy on its own.
const CROSSOVER_EWMA_ALPHA: f64 = 0.3;

fn ewma(old: f64, new: f64) -> f64 {
    old + CROSSOVER_EWMA_ALPHA * (new - old)
}

/// Patch-vs-rebuild decision policy.
///
/// Costs are measured in deterministic *work units* — profile entries
/// touched plus curve probes spent — never wall-clock, so an audited
/// server replays bitwise-identically to an unaudited one and the policy
/// is reproducible across machines and thread counts.
#[derive(Copy, Clone, Debug)]
enum CrossoverPolicy {
    /// Rebuild whenever the span exceeds a fixed fraction of the input.
    Fixed(f64),
    /// Rebuild whenever the predicted patched-step work (span length +
    /// EWMA of warm-descent probes) exceeds the EWMA of measured
    /// whole-input rebuild work (units + cold-search probes).
    Adaptive {
        /// EWMA of warm-descent probe counts on patched steps, seeded
        /// from the initial cold search (an upper bound on warm work).
        patch_probes: f64,
        /// EWMA of measured rebuild work, seeded from the initial
        /// profile build + cold search.
        rebuild_work: f64,
    },
}

impl CrossoverPolicy {
    /// Decides one step: returns whether to rebuild and the policy's
    /// current crossover estimate as a span fraction (the span fraction
    /// at which predicted patch and rebuild work break even; the fixed
    /// fraction itself for the fixed policy).
    fn decide(&self, span_len: usize, units: usize) -> (bool, f64) {
        match *self {
            CrossoverPolicy::Fixed(f) => (span_len as f64 > f * units as f64, f),
            CrossoverPolicy::Adaptive {
                patch_probes,
                rebuild_work,
            } => {
                let predicted_patch = span_len as f64 + patch_probes;
                let estimate = if units == 0 {
                    1.0
                } else {
                    ((rebuild_work - patch_probes) / units as f64).clamp(0.0, 1.0)
                };
                (predicted_patch > rebuild_work, estimate)
            }
        }
    }

    /// Feeds one measured step back into the EWMAs (no-op for the fixed
    /// policy).
    fn observe(&mut self, rebuilt: bool, units: usize, probes: usize) {
        let CrossoverPolicy::Adaptive {
            patch_probes,
            rebuild_work,
        } = self
        else {
            return;
        };
        if rebuilt {
            *rebuild_work = ewma(*rebuild_work, (units + probes) as f64);
        } else {
            *patch_probes = ewma(*patch_probes, probes as f64);
        }
    }
}

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
    /// span (`0..units`) is the crossover fallback: a full in-place
    /// rebuild reusing the profile's allocations.
    fn patch_profile(
        &self,
        profile: &mut Self::Profile,
        span: Range<usize>,
        scratch: &mut ProfileScratch,
    );

    /// Number of patchable work units — the denominator of the crossover
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
    /// The span exceeded the crossover fraction: full in-place rebuild and
    /// cold search.
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
    /// Probes saved against the most recent cold search on this input
    /// lineage (zero for a rebuild — it *is* the cold search).
    pub probes_saved: u64,
    /// Staleness regret in percent: the patched curve's cost at the
    /// previous cut vector over the new minimum, minus one.
    pub regret_pct: f64,
    /// Span actually re-profiled (whole input after a crossover rebuild).
    pub span: Range<usize>,
    /// The delta's span over the unit count — what the crossover policy
    /// compared against (the *pre-widening* fraction on a rebuild).
    pub span_fraction: f64,
    /// The policy's break-even span fraction at decision time: spans
    /// above it rebuild. Together with `span_fraction` this is the
    /// decision reason an audit consumer needs to explain a rebuild.
    pub crossover_estimate: f64,
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
    policy: CrossoverPolicy,
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
        let units = workload.units();
        DriftServer {
            workload,
            profile,
            scratch,
            set,
            // Seed the adaptive EWMAs from the one measurement `new`
            // already made: the cold search's probes (an upper bound on
            // warm-descent work) and the whole-input build it descended on.
            policy: CrossoverPolicy::Adaptive {
                patch_probes: probes as f64,
                rebuild_work: (units + probes) as f64,
            },
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
    /// topology-independent and is reused) and re-seeds the adaptive
    /// crossover's work priors from it.
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
        if let CrossoverPolicy::Adaptive {
            patch_probes,
            rebuild_work,
        } = &mut self.policy
        {
            *patch_probes = probes as f64;
            *rebuild_work = (self.workload.units() + probes) as f64;
        }
        self
    }

    /// Pins the fixed-fraction crossover policy: rebuild whenever the
    /// span exceeds `fraction` of the input (the pre-adaptive behavior;
    /// `0.0` rebuilds always, [`PATCH_CROSSOVER_FRACTION`] is the
    /// historical default). Without this override the server decides
    /// adaptively from measured step costs.
    #[must_use]
    pub fn with_crossover(mut self, fraction: f64) -> Self {
        self.policy = CrossoverPolicy::Fixed(fraction);
        self
    }

    /// Attaches a threshold cache: each step advances its delta
    /// generation (invalidating exact entries for the predecessor input)
    /// and records patched/nudged/rebuilt counters, probes saved, and
    /// shadow regret.
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

    /// Applies one delta: patch (or rebuild past the crossover), advance
    /// the cache generation, re-minimize warm from the previous cut
    /// vector (or cold after a rebuild), record the decision, and feed
    /// the measured step cost back into the adaptive crossover.
    pub fn apply(&mut self, delta: &W::Delta) -> DriftStep {
        let (next, span) = self.workload.apply_delta(delta);
        let units = next.units();
        let (rebuild, crossover_estimate) = self.policy.decide(span.len(), units);
        let span_fraction = if units == 0 {
            0.0
        } else {
            span.len() as f64 / units as f64
        };
        let span = if rebuild { 0..units } else { span };
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
            let warm = if rebuild {
                None
            } else {
                Some(prev_cuts.as_slice())
            };
            let m = minimize_partition(curve.as_ref(), &self.set, &space, space.fine_step, warm)
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

        let decision = if rebuild {
            DriftDecision::Rebuilt
        } else if new_cuts == prev_cuts {
            DriftDecision::Patched
        } else {
            DriftDecision::Nudged
        };
        let probes = minimum.probes as u64;
        let probes_saved = if rebuild {
            self.cold_probes = probes;
            0
        } else {
            self.cold_probes.saturating_sub(probes)
        };
        self.policy.observe(rebuild, units, minimum.probes);

        if let Some(cache) = self.cache {
            match decision {
                DriftDecision::Patched => cache.record_patched_hit(),
                DriftDecision::Nudged => cache.record_patched_nudge(),
                DriftDecision::Rebuilt => cache.record_patched_rebuild(),
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
                crossover_estimate,
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
            crossover_estimate,
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
        // Edge spans widen to [min endpoint, max endpoint], so keep the
        // edits local — a (0, 899) edge would correctly cross over into
        // a full rebuild.
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
    fn crossover_forces_rebuild_and_still_matches_cold() {
        let mut server = DriftServer::new(cc_workload()).with_crossover(0.0);
        let step = server.apply(&GraphDelta::inserts(vec![(1, 2)]));
        assert_eq!(step.decision, DriftDecision::Rebuilt);
        assert_eq!(step.span, 0..900);
        let (t, total) = cold(server.workload());
        assert_eq!(step.threshold, t);
        assert_eq!(step.total, total);
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
    fn adaptive_policy_learns_the_break_even_point() {
        let mut p = CrossoverPolicy::Adaptive {
            patch_probes: 10.0,
            rebuild_work: 110.0,
        };
        // Break-even at (110 − 10) / 200 = half of a 200-unit input.
        let (rebuild, est) = p.decide(90, 200);
        assert!(!rebuild);
        assert_eq!(est, 0.5);
        let (rebuild, _) = p.decide(101, 200);
        assert!(rebuild);
        // A measured rebuild costlier than the prior drags the EWMA up,
        // widening the patch region.
        p.observe(true, 200, 40);
        let (_, est) = p.decide(0, 200);
        assert!(est > 0.5);
        // Fixed policies never adapt.
        let mut f = CrossoverPolicy::Fixed(0.25);
        f.observe(true, 200, 40);
        assert_eq!(f.decide(51, 200), (true, 0.25));
        assert_eq!(f.decide(50, 200), (false, 0.25));
    }

    #[test]
    fn drift_steps_report_the_decision_reason() {
        let mut server = DriftServer::new(cc_workload());
        let step = server.apply(&GraphDelta::inserts(vec![(10, 11)]));
        assert!(step.span_fraction > 0.0 && step.span_fraction < 1.0);
        assert!((0.0..=1.0).contains(&step.crossover_estimate));
        assert!(
            step.span_fraction <= step.crossover_estimate,
            "patched step"
        );
        let mut forced = DriftServer::new(cc_workload()).with_crossover(0.0);
        let step = forced.apply(&GraphDelta::inserts(vec![(1, 2)]));
        assert_eq!(step.decision, DriftDecision::Rebuilt);
        assert_eq!(step.crossover_estimate, 0.0);
        assert!(
            step.span_fraction > step.crossover_estimate,
            "rebuild reason"
        );
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
