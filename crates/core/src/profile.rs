//! Cost-profile evaluation: price thresholds from a one-time profile
//! instead of re-running the workload per candidate.
//!
//! The search strategies evaluate dozens of candidate thresholds, and every
//! [`PartitionedWorkload::run`] re-walks the input (`O(sample)` per
//! candidate). A [`Profilable`] workload instead records its per-unit cost
//! contributions **once** into prefix-sum cost curves; any threshold is
//! then priced by curve lookups. The contract is *bitwise exactness*:
//! `run_profiled(&profile, t)` must return a [`RunReport`] equal — every
//! counter, every `SimTime` — to `run(t)`. Both paths feed identical
//! integer counters through the same platform pricing functions, so the
//! equality is structural, not approximate (the property tests assert it
//! per field on random inputs).
//!
//! [`ProfiledWorkload`] packages a profile with its workload and
//! implements [`PartitionedWorkload`] by pricing every evaluation from the
//! profile, so every existing search strategy, estimator, and baseline
//! runs unchanged on top of it — the `*_profiled` entry points in
//! [`crate::search`] and [`crate::estimator`] do exactly that. Search
//! pricing cost drops from `O(evals × sample)` to `O(sample + evals)`.
//! Repeated thresholds need no report cache: spmm and gemm price in O(1),
//! and the cc and hh profiles memoize their expensive replays internally.
//!
//! ```
//! use nbwp_core::prelude::*;
//! use nbwp_sparse::gen;
//!
//! let w = SpmmWorkload::new(gen::uniform_random(300, 6, 1), Platform::k40c_xeon_e5_2650());
//! let pw = ProfiledWorkload::new(&w);
//! // Profiled pricing is bitwise-exact:
//! assert_eq!(pw.run(37.0), w.run(37.0));
//! ```

use std::sync::OnceLock;

use nbwp_par::{Pool, SlotPool};
use nbwp_sim::{CurveEval, Platform, ProfileScratch, RunReport};
use nbwp_trace::Recorder;

use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable, ThresholdSpace};

/// A workload whose per-threshold cost can be computed from a reusable
/// profile built in one instrumented pass.
///
/// Implementations must uphold the **exactness contract**:
/// `run_profiled(&self.build_profile(pool), t)` is bitwise equal to
/// `run(t)` for every admissible `t` — same counters, same `SimTime`s.
/// The profiled path may only reorganize *where* integer counters come
/// from (prefix-sum curves, memoized control-flow replays), never change
/// their values or the pricing functions applied to them.
pub trait Profilable: PartitionedWorkload {
    /// The reusable profile. `Send + Sync` so one profile serves parallel
    /// candidate evaluations.
    type Profile: Send + Sync;

    /// Builds the profile in one pass over the input, drawing its buffers
    /// from `scratch`, so a warmed arena makes the steady-state rebuild
    /// allocation-free. Scratch reuse may only change *where* the curve
    /// arrays live, never a single value in them. `pool` is available for
    /// workloads whose profile pass has parallel structure; using it must
    /// not change the profile (the `nbwp-par` determinism contract).
    fn build_profile_in(&self, pool: &Pool, scratch: &mut ProfileScratch) -> Self::Profile;

    /// [`Profilable::build_profile_in`] through a fresh arena.
    fn build_profile(&self, pool: &Pool) -> Self::Profile {
        self.build_profile_in(pool, &mut ProfileScratch::new())
    }

    /// Returns a finished profile's reusable buffers to `scratch` so the
    /// next [`Profilable::build_profile_in`] can run allocation-free. The
    /// default just drops the profile.
    fn recycle_profile(&self, profile: Self::Profile, scratch: &mut ProfileScratch) {
        let _ = (profile, scratch);
    }

    /// Prices one run at threshold `t` from the profile. Must be bitwise
    /// equal to [`PartitionedWorkload::run`] at the same `t`.
    fn run_profiled(&self, profile: &Self::Profile, t: f64) -> RunReport;

    /// The total-cost curve over `profile` as a [`CurveEval`], when the
    /// workload supports split-indexed pricing. The curve must satisfy
    /// `total_at(split_for(t)) == run(t).total()` bitwise for every
    /// admissible `t`; the analytic search strategy relies on it. The
    /// default (`None`) keeps profile-only workloads working — they simply
    /// cannot run [`crate::search::Strategy::Analytic`].
    fn curve<'p>(&'p self, profile: &'p Self::Profile) -> Option<Box<dyn CurveEval + 'p>> {
        let _ = profile;
        None
    }
}

/// The process-wide arena pool profile builds draw their scratch from:
/// one slot per global-pool worker, so concurrent builds each check out
/// their own arena (per-worker ownership, no sharing) and recycled
/// buffers survive across [`ProfiledWorkload`] lifetimes. Exposed so
/// benchmarks and allocation tests can pre-warm or inspect reuse counts.
#[must_use]
pub fn profile_scratch_pool() -> &'static SlotPool<ProfileScratch> {
    static POOL: OnceLock<SlotPool<ProfileScratch>> = OnceLock::new();
    POOL.get_or_init(|| SlotPool::for_pool(Pool::global()))
}

/// A [`Sampleable`] workload whose miniature can be *derived from the
/// profile* instead of rebuilt from the raw input.
///
/// [`Sampleable::sample`] re-reads the input per miniature (`O(input)`
/// each), so a sensitivity sweep over `k` sample factors pays `k` full
/// passes. `resample` instead selects the miniature's per-unit costs out
/// of an already-built profile — one subset pass over curves that already
/// exist — so the sweep builds exactly **one** full profile
/// (`profile.builds == 1`) no matter how many factors it visits.
///
/// The resampled miniature prices runs the same way the profiled full
/// workload does (curve range sums), with fixed costs rescaled by the
/// miniature's measured work share exactly as `sample` rescales them.
pub trait Resampleable: Profilable + Sampleable {
    /// The derived miniature workload type.
    type Resampled: PartitionedWorkload;

    /// Derives a miniature at `spec.factor` from `profile`, drawing the
    /// subset with `seed`. Must not touch the raw input.
    fn resample(&self, profile: &Self::Profile, spec: SampleSpec, seed: u64) -> Self::Resampled;
}

/// A [`Profilable`] workload bundled with its built profile, exposed as a
/// [`PartitionedWorkload`] so the existing strategies run on it unchanged:
/// every evaluation is priced from the profile.
pub struct ProfiledWorkload<'w, W: Profilable> {
    inner: &'w W,
    /// `Some` for the whole life of the wrapper; taken by `Drop` so the
    /// profile's buffers can be recycled into the global scratch pool.
    profile: Option<W::Profile>,
    /// Whether the build checked out a warm arena (exported as the
    /// `profile.scratch_reuse` metric).
    scratch_reused: bool,
}

impl<'w, W: Profilable> ProfiledWorkload<'w, W> {
    /// Profiles `workload` on the global pool.
    #[must_use]
    pub fn new(workload: &'w W) -> Self {
        Self::with_pool(workload, Pool::global())
    }

    /// Profiles `workload`, building the profile through `pool` with an
    /// arena checked out of [`profile_scratch_pool`].
    #[must_use]
    pub fn with_pool(workload: &'w W, pool: &Pool) -> Self {
        let (mut scratch, _) = profile_scratch_pool().take();
        let scratch_reused = scratch.is_warm();
        let profile = workload.build_profile_in(pool, &mut scratch);
        profile_scratch_pool().put(scratch);
        ProfiledWorkload {
            inner: workload,
            profile: Some(profile),
            scratch_reused,
        }
    }

    /// The wrapped workload.
    #[must_use]
    pub fn inner(&self) -> &W {
        self.inner
    }

    /// The built profile.
    #[must_use]
    pub fn profile(&self) -> &W::Profile {
        self.profile.as_ref().expect("profile present until drop")
    }

    /// Whether this wrapper's profile build reused a warm scratch arena
    /// (true once the global pool has seen at least one recycled profile).
    #[must_use]
    pub fn scratch_reused(&self) -> bool {
        self.scratch_reused
    }

    /// Counts this wrapper's one-time profile build in `rec`'s
    /// `profile.builds` counter — the counter sensitivity sweeps use to
    /// prove they profile the full input exactly once — and whether it
    /// reused a warm arena in `profile.scratch_reuse`. Call once after a
    /// search completes.
    pub fn flush_metrics(&self, rec: &Recorder) {
        rec.counter_add("profile.builds", 1);
        rec.counter_add("profile.scratch_reuse", u64::from(self.scratch_reused));
    }
}

impl<W: Profilable> Drop for ProfiledWorkload<'_, W> {
    fn drop(&mut self) {
        // Recycle the profile's buffers into the global arena pool so the
        // next build (same workload or another of the same shape) runs on
        // retained capacity.
        if let Some(profile) = self.profile.take() {
            let (mut scratch, _) = profile_scratch_pool().take();
            self.inner.recycle_profile(profile, &mut scratch);
            profile_scratch_pool().put(scratch);
        }
    }
}

impl<W: Profilable> PartitionedWorkload for ProfiledWorkload<'_, W> {
    fn run(&self, t: f64) -> RunReport {
        self.inner.run_profiled(self.profile(), t)
    }

    fn space(&self) -> ThresholdSpace {
        self.inner.space()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn platform(&self) -> &Platform {
        self.inner.platform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbwp_sim::{RunBreakdown, SimTime};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_platform() -> &'static Platform {
        static P: std::sync::OnceLock<Platform> = std::sync::OnceLock::new();
        P.get_or_init(Platform::k40c_xeon_e5_2650)
    }

    /// Counts how often each pricing path executes.
    struct Counting {
        direct_runs: AtomicUsize,
        profiled_runs: AtomicUsize,
    }

    impl Counting {
        fn new() -> Self {
            Counting {
                direct_runs: AtomicUsize::new(0),
                profiled_runs: AtomicUsize::new(0),
            }
        }
        fn report(t: f64) -> RunReport {
            RunReport {
                breakdown: RunBreakdown {
                    cpu_compute: SimTime::from_millis(1.0 + (t - 40.0).abs()),
                    ..RunBreakdown::default()
                },
                ..RunReport::default()
            }
        }
    }

    impl PartitionedWorkload for Counting {
        fn run(&self, t: f64) -> RunReport {
            self.direct_runs.fetch_add(1, Ordering::Relaxed);
            Self::report(t)
        }
        fn space(&self) -> ThresholdSpace {
            ThresholdSpace::percentage()
        }
        fn size(&self) -> usize {
            100
        }
        fn platform(&self) -> &Platform {
            test_platform()
        }
    }

    impl Profilable for Counting {
        type Profile = ();
        fn build_profile_in(&self, _pool: &Pool, _scratch: &mut ProfileScratch) {}
        fn run_profiled(&self, (): &(), t: f64) -> RunReport {
            self.profiled_runs.fetch_add(1, Ordering::Relaxed);
            Self::report(t)
        }
    }

    #[test]
    fn metrics_flush_into_the_registry() {
        let w = Counting::new();
        let pw = ProfiledWorkload::new(&w);
        assert_eq!(pw.run(10.0), Counting::report(10.0));
        assert_eq!(w.profiled_runs.load(Ordering::Relaxed), 1);
        assert_eq!(w.direct_runs.load(Ordering::Relaxed), 0);
        let rec = Recorder::new();
        pw.flush_metrics(&rec);
        let trace = rec.finish();
        assert_eq!(trace.metrics.counter("profile.builds"), Some(1));
        assert_eq!(
            trace.metrics.counter("profile.scratch_reuse"),
            Some(u64::from(pw.scratch_reused()))
        );
    }
}
