//! Property tests for the cost-profile exactness contract (the cost-curve
//! PR's satellite): for random inputs and thresholds, profiled pricing is
//! **bitwise equal** to a direct run — including warp-boundary splits and
//! empty CPU/GPU bands — profiled searches return the exact outcome of
//! their direct counterparts, and their profile-build and evaluation
//! counters land in the metrics registry deterministically.

use nbwp_core::prelude::*;
use nbwp_core::search::SearchOutcome;
use nbwp_core::search::Strategy as SearchStrategy;
use nbwp_graph::gen as ggen;
use nbwp_sim::RunReport;
use nbwp_sparse::gen as sgen;
use proptest::prelude::*;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650()
}

/// `w`'s price at `t` on the cost curve over `p`: `report_at(split_for(t))`.
fn priced<W: Profilable>(w: &W, p: &W::Profile, t: f64) -> RunReport {
    let curve = w.curve(p).expect("every workload exposes a cost curve");
    curve.report_at(curve.split_for(t))
}

/// Thresholds that exercise the interesting corners of a percentage space
/// on an input of `n` rows/vertices: both empty bands, near-boundary
/// splits, and (for GPU-side pricing) splits landing exactly on warp
/// (32-row) boundaries of the suffix.
fn corner_thresholds(n: usize) -> Vec<f64> {
    let mut ts = vec![0.0, 100.0];
    if n > 0 {
        // One row/vertex on either side.
        ts.push(100.0 / n as f64);
        ts.push(100.0 * (n as f64 - 1.0) / n as f64);
        // Splits putting an exact multiple of the 32-wide warp on the GPU.
        for k in [1usize, 2, 4] {
            let rows_gpu = 32 * k;
            if rows_gpu < n {
                ts.push(100.0 * (n - rows_gpu) as f64 / n as f64);
            }
        }
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn profiled_cc_is_bitwise_equal_to_direct(
        n in 64usize..1200,
        deg in 1usize..8,
        seed in 0u64..1000,
        t_rand in 0.0f64..100.0,
    ) {
        let w = CcWorkload::new(ggen::web(n, deg, seed), platform());
        let p = w.build_profile(Pool::global());
        let mut ts = corner_thresholds(n);
        ts.push(t_rand);
        for t in ts {
            prop_assert_eq!(priced(&w, &p, t), w.run(t), "cc t = {}", t);
        }
    }

    #[test]
    fn profiled_spmm_is_bitwise_equal_to_direct(
        n in 64usize..800,
        avg in 2usize..10,
        seed in 0u64..1000,
        t_rand in 0.0f64..100.0,
    ) {
        let w = SpmmWorkload::new(sgen::power_law(n, avg, 2.1, seed), platform());
        let p = w.build_profile(Pool::global());
        let mut ts = corner_thresholds(n);
        ts.push(t_rand);
        for t in ts {
            prop_assert_eq!(priced(&w, &p, t), w.run(t), "spmm t = {}", t);
        }
    }

    #[test]
    fn profiled_hh_is_bitwise_equal_to_direct(
        n in 64usize..500,
        avg in 2usize..10,
        seed in 0u64..1000,
        t_frac in 0.0f64..1.2,
    ) {
        let w = HhWorkload::new(sgen::power_law(n, avg, 2.1, seed), platform());
        let p = w.build_profile(Pool::global());
        let max = w.max_degree() as f64;
        // Degree thresholds: both all-CPU and all-GPU bands plus a point
        // inside (and slightly beyond) the degree range.
        for t in [0.0, 1.0, max * t_frac, max, max + 1.0] {
            prop_assert_eq!(priced(&w, &p, t), w.run(t), "hh t = {}", t);
        }
    }

    #[test]
    fn profiled_search_returns_the_direct_outcome_and_counts_into_metrics(
        n in 64usize..600,
        deg in 2usize..7,
        seed in 0u64..1000,
    ) {
        let w = CcWorkload::new(ggen::web(n, deg, seed), platform());
        let coarse = Searcher::new(SearchStrategy::Exhaustive { step: Some(4.0) });
        let direct = coarse.run(&w);

        let rec = Recorder::new();
        let profiled = coarse.recorder(&rec).pool(Pool::global()).profiled().run(&w);
        let trace = rec.finish();

        assert_same_outcome(&direct, &profiled);
        // One profile build prices every evaluation, and both counts are
        // flushed into the registry.
        prop_assert_eq!(trace.metrics.counter("profile.builds"), Some(1));
        prop_assert_eq!(
            trace.metrics.counter("search.evaluations"),
            Some(profiled.evaluations() as u64)
        );
    }

    #[test]
    fn profiled_search_and_metrics_are_pool_invariant(
        n in 64usize..600,
        avg in 2usize..7,
        seed in 0u64..1000,
    ) {
        let w = SpmmWorkload::new(sgen::power_law(n, avg, 2.1, seed), platform());
        let serial_pool = Pool::new(1);
        let wide_pool = Pool::new(4);

        let rec1 = Recorder::new();
        let serial = Searcher::new(SearchStrategy::CoarseToFine)
            .recorder(&rec1)
            .pool(&serial_pool)
            .profiled()
            .run(&w);
        let t1 = rec1.finish();
        let rec4 = Recorder::new();
        let wide = Searcher::new(SearchStrategy::CoarseToFine)
            .recorder(&rec4)
            .pool(&wide_pool)
            .profiled()
            .run(&w);
        let t4 = rec4.finish();

        assert_same_outcome(&serial, &wide);
        // The counters are part of the determinism contract: evaluations
        // replay into the recorder in submission order, so they cannot
        // depend on thread interleaving.
        for name in ["profile.builds", "search.evaluations"] {
            prop_assert_eq!(
                t1.metrics.counter(name),
                t4.metrics.counter(name),
                "{} must not depend on the pool width",
                name
            );
        }
    }
}

/// Whether pricing with `f` panics.
fn panics(f: impl FnOnce() -> RunReport) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
}

/// A NaN threshold names no split: the direct run and the profiled run
/// both panic on every workload instead of pricing some default split.
fn assert_nan_panics<W: Profilable>(w: &W, name: &str) {
    assert!(panics(|| w.run(f64::NAN)), "{name}: run(NaN)");
    let pw = ProfiledWorkload::new(w);
    assert!(panics(|| pw.run(f64::NAN)), "{name}: profiled run(NaN)");
}

#[test]
fn nan_thresholds_panic_on_the_direct_and_profiled_paths() {
    let g = ggen::web(300, 4, 1);
    let a = sgen::power_law(300, 6, 2.1, 1);
    assert_nan_panics(&CcWorkload::new(g, platform()), "cc");
    assert_nan_panics(&SpmmWorkload::new(a.clone(), platform()), "spmm");
    assert_nan_panics(&HhWorkload::new(a, platform()), "hh");
    assert_nan_panics(&DenseGemmWorkload::new(64, platform()), "gemm");
}

/// Prices every split of one shared profile from four scoped threads
/// released together by a barrier. Each thread starts at its own offset
/// and wraps around, so the threads race on the same splits (memo misses
/// and, for hh, the shared pricing workspace included); every price must
/// equal a sequential pass over a fresh profile.
fn assert_concurrent_prices_match<W: Profilable + Sync>(w: &W, name: &str) {
    let fresh = w.build_profile(Pool::global());
    let curve = w
        .curve(&fresh)
        .expect("every workload exposes a cost curve");
    let splits = curve.splits();
    let sequential: Vec<RunReport> = (0..splits).map(|s| curve.report_at(s)).collect();
    let shared = w.build_profile(Pool::global());
    let threads = 4;
    let start = std::sync::Barrier::new(threads);
    let concurrent: Vec<(usize, RunReport)> = std::thread::scope(|scope| {
        let probes: Vec<_> = (0..threads)
            .map(|i| {
                let (shared, start) = (&shared, &start);
                scope.spawn(move || {
                    let curve = w
                        .curve(shared)
                        .expect("every workload exposes a cost curve");
                    start.wait();
                    (0..splits)
                        .map(|j| (j + i * splits / threads) % splits)
                        .map(|s| (s, curve.report_at(s)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        probes
            .into_iter()
            .flat_map(|probe| probe.join().expect("no probe panics"))
            .collect()
    });
    assert_eq!(concurrent.len(), threads * splits, "{name}");
    for (s, report) in concurrent {
        assert_eq!(report, sequential[s], "{name}: split {s}");
    }
}

#[test]
fn concurrent_probes_price_like_sequential_ones() {
    let g = ggen::web(400, 4, 5);
    let a = sgen::power_law(400, 8, 2.1, 5);
    assert_concurrent_prices_match(&CcWorkload::new(g, platform()), "cc");
    assert_concurrent_prices_match(&HhWorkload::new(a, platform()), "hh");
}

/// Profiled searches must reproduce direct searches exactly: same best
/// threshold, same (bitwise) simulated times, same evaluation sequence.
fn assert_same_outcome(a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(a.best_t, b.best_t);
    assert_eq!(a.best_time, b.best_time);
    assert_eq!(a.search_cost, b.search_cost);
    assert_eq!(a.evals, b.evals);
}
