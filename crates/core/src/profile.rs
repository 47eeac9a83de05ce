//! Cost-profile evaluation: price thresholds from a one-time profile
//! instead of re-running the workload per candidate.
//!
//! The search strategies evaluate dozens of candidate thresholds, and every
//! [`PartitionedWorkload::run`] re-walks the input (`O(sample)` per
//! candidate). A [`Profilable`] workload instead records its per-unit cost
//! contributions **once** into prefix-sum cost curves, and prices every
//! threshold through one object: its cost curve ([`Profilable::curve`]).
//! The contract is *bitwise exactness*: `report_at(split_for(t))` must
//! return a [`RunReport`] equal — every counter, every `SimTime` — to
//! `run(t)`, which stays the independent oracle. Both paths feed identical
//! integer counters through the same platform pricing functions, so the
//! equality is structural, not approximate (the property tests assert it
//! per field on random inputs).
//!
//! [`ProfiledWorkload`] packages a profile with its workload and
//! implements [`PartitionedWorkload`] by pricing every evaluation on the
//! curve, so every existing search strategy, estimator, and baseline
//! runs unchanged on top of it — the `*_profiled` entry points in
//! [`crate::search`] and [`crate::estimator`] do exactly that. Search
//! pricing cost drops from `O(evals × sample)` to `O(sample + evals)`.
//! Repeated thresholds need no report cache: spmm and gemm price in O(1),
//! and the cc and hh curves memoize their expensive replays in the
//! profile.
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

use crate::framework::{PartitionedWorkload, ThresholdSpace};

/// A workload whose per-threshold cost can be computed from a reusable
/// profile built in one instrumented pass.
///
/// A profile prices only through its cost curve, and implementations must
/// uphold the **exactness contract**: for the curve `c` over
/// `self.build_profile(pool)`, `c.report_at(c.split_for(t))` is bitwise
/// equal to `run(t)` for every admissible `t` — same counters, same
/// `SimTime`s — and panics where `run(t)` panics. The curve may only
/// reorganize *where* integer counters come from (prefix-sum curves,
/// memoized control-flow replays), never change their values or the
/// pricing functions applied to them.
pub trait Profilable: PartitionedWorkload {
    /// The reusable profile. `Send + Sync` so threads can share one
    /// profile and price from it concurrently.
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

    /// The cost curve over `profile`: the one way a profile prices a run
    /// (see the exactness contract above). Every shipped workload returns
    /// `Some`.
    fn curve<'p>(&'p self, profile: &'p Self::Profile) -> Option<Box<dyn CurveEval + 'p>>;
}

/// `w`'s price at threshold `t` on the curve over `profile`, for unit tests
/// that price a specific (e.g. scratch-built or poisoned) profile.
#[cfg(test)]
pub(crate) fn priced<W: Profilable>(w: &W, profile: &W::Profile, t: f64) -> RunReport {
    let curve = w.curve(profile).expect("every workload exposes a curve");
    curve.report_at(curve.split_for(t))
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

/// A [`Profilable`] workload bundled with its built profile, exposed as a
/// [`PartitionedWorkload`] so the existing strategies run on it unchanged:
/// every evaluation is priced on the profile's cost curve.
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
    /// `report_at(split_for(t))` on the profile's cost curve.
    fn run(&self, t: f64) -> RunReport {
        let curve = self
            .inner
            .curve(self.profile())
            .expect("a profiled workload exposes its cost curve");
        curve.report_at(curve.split_for(t))
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

    /// Whole-percent splits; counts every price it serves.
    struct CountingCurve<'a>(&'a Counting);

    impl CurveEval for CountingCurve<'_> {
        fn splits(&self) -> usize {
            101
        }
        fn split_for(&self, t: f64) -> usize {
            t.round() as usize
        }
        fn report_at(&self, split: usize) -> RunReport {
            self.0.profiled_runs.fetch_add(1, Ordering::Relaxed);
            Counting::report(split as f64)
        }
        fn platform(&self) -> &Platform {
            test_platform()
        }
    }

    impl Profilable for Counting {
        type Profile = ();
        fn build_profile_in(&self, _pool: &Pool, _scratch: &mut ProfileScratch) {}
        fn curve<'p>(&'p self, (): &'p ()) -> Option<Box<dyn CurveEval + 'p>> {
            Some(Box::new(CountingCurve(self)))
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
