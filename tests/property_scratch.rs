//! Property tests for the zero-allocation contracts: steady-state profile
//! rebuilds through a warmed [`ProfileScratch`] must perform **no heap
//! allocation**, and scratch-built profiles must price every threshold
//! **bitwise equal** to fresh-arena ones — including warp-boundary splits
//! and empty CPU/GPU bands, and arenas reused across input shapes. Warmed
//! exact cache hits allocate nothing beyond the value they return.
//!
//! Allocation counting is per-thread (a thread-local counter inside a
//! `#[global_allocator]` wrapper), so concurrently running tests in this
//! binary cannot leak their allocations into a measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nbwp_core::prelude::*;
use nbwp_core::workloads::{HhProfile, SpmmProfile};
use nbwp_graph::cc::CcCostProfile;
use nbwp_graph::gen as ggen;
use nbwp_sim::{ProfileScratch, RunReport};
use nbwp_sparse::gen as sgen;
use proptest::prelude::*;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus per-thread allocation counters. `try_with` keeps the
/// hooks safe during thread-local teardown (uncounted, not unsafe).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls and bytes charged to the current thread while running
/// `f`.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650()
}

/// Warms `scratch` with `cycles` build/recycle rounds, then asserts that
/// one more full round (build and recycle) allocates nothing.
fn assert_steady_state_allocation_free<W: Profilable>(name: &str, w: &W) {
    let pool = Pool::global();
    let mut scratch = ProfileScratch::new();
    // Two warm-up cycles: the first populates the freelist, the second lets
    // best-fit take() settle every buffer at its final capacity.
    for _ in 0..2 {
        let p = w.build_profile_in(pool, &mut scratch);
        w.recycle_profile(p, &mut scratch);
    }
    assert!(
        scratch.is_warm(),
        "{name}: scratch must be warm after warm-up"
    );
    let ((), allocs, bytes) = allocations_of(|| {
        let p = w.build_profile_in(pool, &mut scratch);
        w.recycle_profile(p, &mut scratch);
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "{name}: steady-state rebuild allocated {allocs} time(s) / {bytes} bytes"
    );
}

#[test]
fn steady_state_cc_rebuild_is_allocation_free() {
    let w = CcWorkload::new(ggen::web(3000, 6, 1), platform());
    assert_steady_state_allocation_free("cc", &w);
}

#[test]
fn steady_state_spmm_rebuild_is_allocation_free() {
    let w = SpmmWorkload::new(sgen::power_law(2000, 8, 2.1, 2), platform());
    assert_steady_state_allocation_free("spmm", &w);
}

#[test]
fn steady_state_hh_rebuild_is_allocation_free() {
    let w = HhWorkload::new(sgen::power_law(1500, 8, 2.1, 3), platform());
    assert_steady_state_allocation_free("hh", &w);
}

/// What one more call of `serve` allocates once two calls have warmed the
/// cache entry and every lazily built static.
fn warmed_allocations<T>(serve: impl Fn() -> T) -> (T, u64, u64) {
    serve();
    serve();
    allocations_of(serve)
}

#[test]
fn warmed_exact_hits_allocate_only_their_result() {
    use nbwp_core::search::Strategy::Analytic;
    let w = SpmmWorkload::new(sgen::banded_fem(2000, 16, 7, 1), platform());
    let cache = ThresholdCache::new(8);
    let audit = FlightRecorder::with_capacity(64);
    let est = Estimator::new(Analytic { step: None }).cache(&cache);
    for (name, e) in [("plain", est), ("audited", est.audit(&audit))] {
        let (_, allocs, bytes) = warmed_allocations(|| e.profiled().run_cached(&w));
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "{name} scalar exact hit allocated {allocs} time(s) / {bytes} bytes"
        );
    }
    // A k-way hit returns a fresh `PartitionOutcome`: its vectors are the
    // only allocations allowed.
    let set = DeviceSet::dual_cpu_dual_gpu();
    let kway = est.devices(&set).profiled();
    let (outcome, allocs, bytes) = warmed_allocations(|| kway.run_partition_cached(&w));
    let ((), clone_allocs, clone_bytes) = allocations_of(|| drop(outcome.clone()));
    assert_eq!(
        (allocs, bytes),
        (clone_allocs, clone_bytes),
        "k = 4 exact hit allocated beyond its outcome"
    );
}

/// Thresholds exercising the interesting corners of a percentage space on
/// `n` rows/vertices: both empty bands, near-boundary splits, and splits
/// landing exactly on warp (32-row) boundaries of the GPU suffix.
fn corner_thresholds(n: usize) -> Vec<f64> {
    let mut ts = vec![0.0, 100.0];
    if n > 0 {
        ts.push(100.0 / n as f64);
        ts.push(100.0 * (n as f64 - 1.0) / n as f64);
        for k in [1usize, 2, 4] {
            let rows_gpu = 32 * k;
            if rows_gpu < n {
                ts.push(100.0 * (n - rows_gpu) as f64 / n as f64);
            }
        }
    }
    ts
}

/// `w`'s price at `t` on the cost curve over `p`: `report_at(split_for(t))`.
fn priced<W: Profilable>(w: &W, p: &W::Profile, t: f64) -> RunReport {
    let curve = w.curve(p).expect("every workload exposes a cost curve");
    curve.report_at(curve.split_for(t))
}

/// Degree thresholds of an hh input: both empty bands plus points inside
/// (and slightly beyond) the degree range.
fn degree_thresholds(w: &HhWorkload) -> Vec<f64> {
    let max = w.max_degree() as f64;
    vec![0.0, 1.0, 2.5, max / 2.0, max, max + 1.0]
}

/// `p` against a fresh-arena build of `w`: raw curves and corner prices.
fn assert_cc_fresh(w: &CcWorkload, p: &CcCostProfile) {
    let fresh = w.build_profile(Pool::global());
    assert_eq!(p.raw_curves(), fresh.raw_curves(), "cc n = {}", w.size());
    for t in corner_thresholds(w.size()) {
        assert_eq!(priced(w, p, t), priced(w, &fresh, t), "cc t = {t}");
    }
}

/// `p` against a fresh-arena build of `w`: curves, Phase I price, and
/// corner prices.
fn assert_spmm_fresh(w: &SpmmWorkload, p: &SpmmProfile) {
    let fresh = w.build_profile(Pool::global());
    assert_eq!(p.curves(), fresh.curves(), "spmm n = {}", w.size());
    assert_eq!(p.partition(), fresh.partition());
    for t in corner_thresholds(w.size()) {
        assert_eq!(priced(w, p, t), priced(w, &fresh, t), "spmm t = {t}");
    }
}

/// `p` against a fresh-arena build of `w`: class list and degree prices.
fn assert_hh_fresh(w: &HhWorkload, p: &HhProfile) {
    let fresh = w.build_profile(Pool::global());
    assert_eq!(p.raw_classes(), fresh.raw_classes(), "hh n = {}", w.size());
    for t in degree_thresholds(w) {
        assert_eq!(priced(w, p, t), priced(w, &fresh, t), "hh t = {t}");
    }
}

/// Serves `ts` through a `ProfiledWorkload` built on the global arena
/// pool and checks every price against the direct run. Dropping the
/// wrapper recycles its buffers for the next input in the chain.
fn assert_pooled_matches_direct<W: Profilable>(w: &W, ts: &[f64]) {
    let pw = ProfiledWorkload::with_pool(w, Pool::global());
    for &t in ts {
        assert_eq!(pw.run(t), w.run(t), "n = {} t = {t}", w.size());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One arena serves a chain of input shapes: a larger cc, an spmm, an
    /// hh and a smaller cc, each built from the buffers the one before
    /// recycled. A whole-span patch reads its sentinels from zeroed takes,
    /// so a recycled buffer of another shape must never leak into a build.
    #[test]
    fn one_arena_serves_a_chain_of_input_shapes(
        big in 400usize..1200,
        small in 64usize..400,
        rows in 64usize..800,
        hh_rows in 64usize..500,
        seed in 0u64..1000,
    ) {
        let cc_big = CcWorkload::new(ggen::web(big, 6, seed), platform());
        let spmm = SpmmWorkload::new(sgen::power_law(rows, 6, 2.1, seed), platform());
        let hh = HhWorkload::new(sgen::power_law(hh_rows, 8, 2.1, seed), platform());
        let cc_small = CcWorkload::new(ggen::web(small, 3, seed + 1), platform());
        let pool = Pool::global();
        let mut scratch = ProfileScratch::new();

        let p = cc_big.build_profile_in(pool, &mut scratch);
        assert_cc_fresh(&cc_big, &p);
        cc_big.recycle_profile(p, &mut scratch);
        let p = spmm.build_profile_in(pool, &mut scratch);
        assert_spmm_fresh(&spmm, &p);
        spmm.recycle_profile(p, &mut scratch);
        let p = hh.build_profile_in(pool, &mut scratch);
        assert_hh_fresh(&hh, &p);
        hh.recycle_profile(p, &mut scratch);
        let p = cc_small.build_profile_in(pool, &mut scratch);
        assert_cc_fresh(&cc_small, &p);
        cc_small.recycle_profile(p, &mut scratch);

        // The same chain through the global arena pool serving uses.
        assert_pooled_matches_direct(&cc_big, &corner_thresholds(big));
        assert_pooled_matches_direct(&spmm, &corner_thresholds(rows));
        assert_pooled_matches_direct(&hh, &degree_thresholds(&hh));
        assert_pooled_matches_direct(&cc_small, &corner_thresholds(small));
    }

    #[test]
    fn scratch_cc_profile_is_bitwise_equal_to_pooled(
        n in 64usize..1000,
        deg in 1usize..8,
        seed in 0u64..1000,
        t_rand in 0.0f64..100.0,
    ) {
        let w = CcWorkload::new(ggen::web(n, deg, seed), platform());
        let fresh = w.build_profile(Pool::global());
        let mut scratch = ProfileScratch::new();
        // Cold take and warm reuse must both match a fresh-arena build.
        for round in 0..2 {
            let p = w.build_profile_in(Pool::global(), &mut scratch);
            let mut ts = corner_thresholds(n);
            ts.push(t_rand);
            for t in ts {
                prop_assert_eq!(
                    priced(&w, &p, t),
                    priced(&w, &fresh, t),
                    "cc round = {} t = {}", round, t
                );
            }
            w.recycle_profile(p, &mut scratch);
        }
    }

    #[test]
    fn scratch_spmm_profile_is_bitwise_equal_to_pooled(
        n in 64usize..800,
        avg in 2usize..10,
        seed in 0u64..1000,
        t_rand in 0.0f64..100.0,
    ) {
        let w = SpmmWorkload::new(sgen::power_law(n, avg, 2.1, seed), platform());
        let fresh = w.build_profile(Pool::global());
        let mut scratch = ProfileScratch::new();
        for round in 0..2 {
            let p = w.build_profile_in(Pool::global(), &mut scratch);
            let mut ts = corner_thresholds(n);
            ts.push(t_rand);
            for t in ts {
                prop_assert_eq!(
                    priced(&w, &p, t),
                    priced(&w, &fresh, t),
                    "spmm round = {} t = {}", round, t
                );
            }
            w.recycle_profile(p, &mut scratch);
        }
    }

    #[test]
    fn scratch_hh_profile_is_bitwise_equal_to_pooled(
        n in 64usize..500,
        avg in 2usize..10,
        seed in 0u64..1000,
        t_frac in 0.0f64..1.2,
    ) {
        let w = HhWorkload::new(sgen::power_law(n, avg, 2.1, seed), platform());
        let fresh = w.build_profile(Pool::global());
        let max = w.max_degree() as f64;
        let mut scratch = ProfileScratch::new();
        // Degree thresholds: empty-band extremes plus a point inside (and
        // slightly beyond) the degree range.
        for round in 0..2 {
            let p = w.build_profile_in(Pool::global(), &mut scratch);
            for t in [0.0, 1.0, max * t_frac, max, max + 1.0] {
                prop_assert_eq!(
                    priced(&w, &p, t),
                    priced(&w, &fresh, t),
                    "hh round = {} t = {}", round, t
                );
            }
            w.recycle_profile(p, &mut scratch);
        }
    }
}
