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
use nbwp_graph::list::{hybrid_rank, LinkedLists};
use nbwp_sim::RunReport;
use nbwp_sort::hybrid::hybrid_sort;
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
    fn split_indexed_curves_price_list_sort_and_spmv_like_direct_runs(
        n in 8usize..400,
        lists in 1usize..6,
        seed in 0u64..1000,
        t_rand in 0.0f64..100.0,
    ) {
        let list = ListRankingWorkload::new(
            LinkedLists::random(n, lists.min(n), seed),
            platform(),
            seed,
        );
        let keys = nbwp_sort::gen::uniform(n, seed);
        let sort = SortWorkload::new(keys.clone(), platform());
        let spmv = SpmvWorkload::new(sgen::power_law(n, 4, 2.1, seed), platform());
        // Both empty bands, every rounding tie `k + 0.5` units, and one
        // random share.
        let mut ts = vec![0.0, 100.0, t_rand];
        ts.extend((0..n.min(40)).map(|k| (k as f64 + 0.5) * 100.0 / n as f64));
        for t in ts {
            let direct = hybrid_rank(list.lists(), t, &platform(), seed).report;
            prop_assert_eq!(list.run(t), direct.clone(), "list t = {}", t);
            prop_assert_eq!(priced(&list, &(), t), direct, "list t = {}", t);
            let direct = hybrid_sort(&keys, t, &platform()).report;
            prop_assert_eq!(sort.run(t), direct.clone(), "sort t = {}", t);
            prop_assert_eq!(priced(&sort, &(), t), direct, "sort t = {}", t);
            prop_assert_eq!(priced(&spmv, &(), t), spmv.run(t), "spmv t = {}", t);
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

/// A threshold that names no split: the direct run and the profiled run
/// both panic at `t` instead of pricing some default split.
fn assert_panics_at<W: Profilable>(w: &W, name: &str, t: f64) {
    assert!(panics(|| w.run(t)), "{name}: run({t})");
    let pw = ProfiledWorkload::new(w);
    assert!(panics(|| pw.run(t)), "{name}: profiled run({t})");
}

#[test]
fn nan_thresholds_panic_on_the_direct_and_profiled_paths() {
    let g = ggen::web(300, 4, 1);
    let a = sgen::power_law(300, 6, 2.1, 1);
    let list = ListRankingWorkload::new(LinkedLists::random(300, 3, 1), platform(), 1);
    let sort = SortWorkload::new(nbwp_sort::gen::uniform(300, 1), platform());
    let spmv = SpmvWorkload::new(a.clone(), platform());
    assert_panics_at(&CcWorkload::new(g, platform()), "cc", f64::NAN);
    assert_panics_at(&SpmmWorkload::new(a.clone(), platform()), "spmm", f64::NAN);
    assert_panics_at(&HhWorkload::new(a, platform()), "hh", f64::NAN);
    assert_panics_at(&DenseGemmWorkload::new(64, platform()), "gemm", f64::NAN);
    // The split-indexed workloads also reject shares outside [0, 100].
    for t in [f64::NAN, -1.0, 100.5, f64::INFINITY] {
        assert_panics_at(&list, "list", t);
        assert_panics_at(&sort, "sort", t);
        assert_panics_at(&spmv, "spmv", t);
    }
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

/// Rows for `suite` the way the experiment drivers built them before they
/// priced through cost profiles: a direct exhaustive search (one point, or
/// ×1.15 on a logarithmic space), a direct estimate, direct runs at every
/// baseline, and NaiveAverage (geometric mean on a logarithmic space).
fn direct_rows<W: Sampleable>(
    suite: &[(&str, W)],
    config: &ExperimentConfig,
) -> Vec<ExperimentRow> {
    let ms = |w: &W, t: f64| w.time_at(t).as_millis();
    let mut rows: Vec<ExperimentRow> = suite
        .iter()
        .map(|(name, w)| {
            let space = w.space();
            let step = if space.logarithmic { 1.15 } else { 1.0 };
            let best = Searcher::new(SearchStrategy::Exhaustive { step: Some(step) }).run(w);
            let est = Estimator::new(config.strategy)
                .spec(config.spec)
                .seed(config.seed)
                .run(w);
            let naive_static_t = (!space.logarithmic).then(|| baselines::naive_static_for(w));
            ExperimentRow {
                dataset: name.to_string(),
                n: w.size(),
                exhaustive_t: best.best_t,
                estimated_t: est.threshold,
                naive_static_t,
                naive_average_t: None,
                time_exhaustive_ms: best.best_time.as_millis(),
                time_estimated_ms: ms(w, est.threshold),
                time_naive_static_ms: naive_static_t.map(|t| ms(w, t)),
                time_naive_average_ms: None,
                time_gpu_only_ms: ms(w, space.lo),
                overhead_ms: est.overhead.as_millis(),
                evaluations: est.evaluations,
                sample_size: est.sample_size,
                relative_threshold_diff: space.logarithmic,
                space_lo: space.lo,
                space_hi: space.hi,
            }
        })
        .collect();
    let best: Vec<f64> = rows.iter().map(|r| r.exhaustive_t).collect();
    let avg = if suite[0].1.space().logarithmic {
        (best.iter().map(|t| t.max(1e-9).ln()).sum::<f64>() / best.len() as f64).exp()
    } else {
        naive_average(&best)
    };
    for (row, (_, w)) in rows.iter_mut().zip(suite) {
        let t = w.space().clamp(avg);
        row.naive_average_t = Some(t);
        row.time_naive_average_ms = Some(ms(w, t));
    }
    rows
}

fn assert_corpus_matches_direct<W: Sampleable>(
    suite: &[(&str, W)],
    config: &ExperimentConfig,
) -> Vec<ExperimentRow> {
    let rows = run_corpus(suite, config);
    assert_eq!(rows, direct_rows(suite, config));
    rows
}

/// A scaled platform, on which the optima sit inside the spaces (on the
/// full-size one, hh's optimum is its lower bound on every grid).
fn scaled() -> Platform {
    platform().scaled_for(0.01)
}

#[test]
fn run_corpus_rows_equal_direct_rows_for_every_family() {
    let seed = 5;
    let (cc, spmm) = (ExperimentConfig::cc(seed), ExperimentConfig::spmm(seed));
    let sizes = [("a", 500usize), ("b", 900)];
    assert_corpus_matches_direct(
        &sizes.map(|(name, n)| (name, CcWorkload::new(ggen::web(n, 4, seed), scaled()))),
        &cc,
    );
    assert_corpus_matches_direct(
        &sizes.map(|(name, n)| {
            let a = sgen::power_law(n, 6, 2.1, seed);
            (name, SpmmWorkload::new(a, scaled()))
        }),
        &spmm,
    );
    assert_corpus_matches_direct(
        &sizes.map(|(name, n)| (name, DenseGemmWorkload::new(n / 2, scaled()))),
        &spmm,
    );
    assert_corpus_matches_direct(
        &sizes.map(|(name, n)| {
            let lists = LinkedLists::random(8 * n, 4, seed);
            (name, ListRankingWorkload::new(lists, scaled(), seed))
        }),
        &cc,
    );
    assert_corpus_matches_direct(
        &sizes.map(|(name, n)| {
            let keys = nbwp_sort::gen::duplicates(8 * n, 37, seed);
            (name, SortWorkload::new(keys, scaled()))
        }),
        &cc,
    );
    assert_corpus_matches_direct(
        &sizes.map(|(name, n)| {
            let a = sgen::banded_fem(n, 20, 6, seed);
            (name, SpmvWorkload::new(a, scaled()))
        }),
        &cc,
    );
    // HH: a logarithmic space, so the difference is a log-axis share and
    // NaiveAverage is a geometric mean (of optima near 3 and 11 here).
    let rows = assert_corpus_matches_direct(
        &sizes.map(|(name, n)| {
            let a = sgen::power_law(n, 12, 2.1, seed);
            (name, HhWorkload::new(a, scaled()))
        }),
        &ExperimentConfig::scalefree(seed),
    );
    for r in &rows {
        assert!(r.relative_threshold_diff);
        let axis = (r.space_hi / r.space_lo.max(1e-9)).ln();
        let d = (r.estimated_t / r.exhaustive_t).ln().abs();
        let want = (d / axis * 100.0).min(100.0);
        assert!((r.threshold_diff_pct() - want).abs() < 1e-9, "{r:?}");
    }
}
