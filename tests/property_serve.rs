//! Property tests for the amortized serving layer (fingerprints, the
//! threshold cache, warm-started analytic search, batch serving, and the
//! O(s) Floyd sampler):
//!
//! * an exact-key cache hit returns a `SamplingEstimate` bitwise identical
//!   to the cold path (and to the run that populated the entry);
//! * warm-starting the analytic search from the cold argmin lands on the
//!   same argmin bitwise, spending no more curve probes than cold;
//! * `run_batch` equals a sequential `run` per item — duplicates included —
//!   for any pool size, with or without an attached cache, and with
//!   near-key siblings it equals a sequential `run_cached` loop, cache
//!   counters included, audited or silent;
//! * the served estimate (`profiled().run` / `run_batch`) equals the direct
//!   reference `Estimator::run` bitwise for every non-analytic strategy on
//!   every servable workload, with one repeat or several;
//! * Floyd's O(s) sampler draws the same distribution class as a
//!   shuffle-based sampler (uniform moments, within statistical bounds).

use nbwp_core::prelude::*;
use nbwp_core::search::Strategy as SearchStrategy;
use nbwp_graph::gen as ggen;
use nbwp_graph::sample::uniform_vertex_sample;
use nbwp_sparse::gen as sgen;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// Serves `w` alone and `[w, w2, w]` as a batch under each non-analytic
/// strategy and compares every estimate with the direct reference.
fn check_served_is_direct<W>(w: &W, w2: &W, seed: u64)
where
    W: Sampleable + Fingerprinted + Clone,
{
    let strategies = [
        SearchStrategy::Exhaustive { step: None },
        SearchStrategy::CoarseToFine,
        SearchStrategy::RaceThenFine,
        SearchStrategy::GradientDescent {
            max_evals: DEFAULT_GRADIENT_EVALS,
        },
    ];
    for strategy in strategies {
        for repeats in [1, 3] {
            let est = Estimator::new(strategy).seed(seed).repeats(repeats);
            let direct = est.run(w);
            let direct2 = est.run(w2);
            let name = strategy.name();
            prop_assert_eq!(
                bits(&est.profiled().run(w)),
                bits(&direct),
                "{} x{}",
                name,
                repeats
            );
            let batch = est
                .profiled()
                .run_batch(&[w.clone(), w2.clone(), w.clone()]);
            prop_assert_eq!(bits(&batch[0]), bits(&direct), "{} x{}", name, repeats);
            prop_assert_eq!(bits(&batch[1]), bits(&direct2), "{} x{}", name, repeats);
            prop_assert_eq!(bits(&batch[2]), bits(&direct), "{} x{}", name, repeats);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) Exact-key hits are bitwise identical to the cold path, for a
    /// direct-reference cold run and an analytic one, on two workload
    /// families.
    #[test]
    fn exact_key_hit_is_bitwise_identical_to_cold(
        n in 96usize..320,
        deg in 2usize..7,
        seed in 0u64..1000,
    ) {
        let w = CcWorkload::new(ggen::web(n, deg, seed), platform());
        let s = SpmmWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed), platform());

        // CoarseToFine, served against the direct reference.
        let est = Estimator::new(SearchStrategy::CoarseToFine).seed(seed);
        let cold = est.run(&w);
        let cache = ThresholdCache::new(8);
        let cached = est.cache(&cache).profiled();
        let first = cached.run_cached(&w);
        let hit = cached.run_cached(&w);
        prop_assert_eq!(bits(&first), bits(&cold));
        prop_assert_eq!(bits(&hit), bits(&cold));
        let st = cache.stats();
        prop_assert_eq!((st.exact_hits, st.misses, st.insertions), (1, 1, 1));

        // Analytic, which only runs profiled.
        let est = Estimator::new(SearchStrategy::Analytic { step: None }).seed(seed);
        let cold = est.profiled().run(&s);
        let cache = ThresholdCache::new(8);
        let cached = est.cache(&cache).profiled();
        let first = cached.run_cached(&s);
        let hit = cached.run_cached(&s);
        prop_assert_eq!(bits(&first), bits(&cold));
        prop_assert_eq!(bits(&hit), bits(&cold));
        let st = cache.stats();
        prop_assert_eq!((st.exact_hits, st.misses, st.insertions), (1, 1, 1));
    }

    /// (b) Warm-starting the analytic search from the cold argmin finds
    /// the same argmin bitwise and never spends more curve probes: the
    /// warm walk starts on the cold candidate and terminates immediately.
    #[test]
    fn warm_started_analytic_matches_cold_argmin(
        n in 96usize..400,
        deg in 2usize..8,
        seed in 0u64..1000,
    ) {
        let p = platform();
        let cc = CcWorkload::new(ggen::web(n, deg, seed), p);
        let spmm = SpmmWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed), p);
        let hh = HhWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed), p);

        fn check(name: &str, w: &impl Profilable) {
            let cold = Searcher::new(SearchStrategy::Analytic { step: None })
                .profiled()
                .run(w);
            let warm_cuts = [cold.best_t];
            let warm = Searcher::new(SearchStrategy::Analytic { step: None })
                .warm_cuts(&warm_cuts)
                .profiled()
                .run(w);
            prop_assert_eq!(
                warm.best_t.to_bits(),
                cold.best_t.to_bits(),
                "{}: warm argmin {} != cold {}",
                name,
                warm.best_t,
                cold.best_t
            );
            prop_assert_eq!(warm.best_time, cold.best_time, "{}", name);
            prop_assert!(
                warm.grad_probes <= cold.grad_probes,
                "{}: warm spent {} probes vs cold {}",
                name,
                warm.grad_probes,
                cold.grad_probes
            );
        }
        check("cc", &cc);
        check("spmm", &spmm);
        check("hh", &hh);
    }

    /// (b') The near-key serving path end to end: a same-class input warm
    /// starts off the cached split, the probe savings are credited, and
    /// the warm estimate still matches that input's own cold estimate.
    #[test]
    fn near_key_hit_warm_starts_and_credits_probes(
        n in 128usize..400,
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
        let cold_b = est.profiled().run(&b);

        let cache = ThresholdCache::new(8);
        let cached = est.cache(&cache).profiled();
        let warmer = cached.run_cached(&a); // miss: populates exact + near
        let warm_b = cached.run_cached(&b); // near hit: warm start

        let st = cache.stats();
        prop_assert_eq!((st.near_hits, st.misses, st.insertions), (1, 2, 2));
        prop_assert_eq!(
            st.probes_saved,
            warmer.grad_probes.saturating_sub(warm_b.grad_probes) as u64
        );
        // The warm run reaches the same *decision* bitwise; the accounting
        // fields (overhead, evaluations, probes) are exactly what the warm
        // start is allowed to shrink.
        prop_assert_eq!(warm_b.threshold.to_bits(), cold_b.threshold.to_bits());
        prop_assert_eq!(
            warm_b.sample_threshold.to_bits(),
            cold_b.sample_threshold.to_bits()
        );
        prop_assert!(
            warm_b.grad_probes <= cold_b.grad_probes,
            "warm {} probes vs cold {}",
            warm_b.grad_probes,
            cold_b.grad_probes
        );
    }

    /// (b'') k-way partition serving end to end: an exact hit returns the
    /// cached `PartitionOutcome` bitwise and skips descent; a same-class
    /// sibling's request warm-starts the k-way descent from the cached cut
    /// vector, credits the probe savings, and still reaches that input's
    /// own cold argmin (cuts and total bitwise).
    #[test]
    fn kway_partition_serving_exact_and_near_hits(
        n in 128usize..320,
        deg in 2usize..6,
        seed in 0u64..500,
        wide in any::<bool>(),
    ) {
        let p = platform();
        let set = if wide {
            DeviceSet::quad_cpu_quad_gpu()
        } else {
            DeviceSet::dual_cpu_dual_gpu()
        };
        let a = CcWorkload::new(ggen::web(n, deg, seed), p);
        let b = CcWorkload::new(ggen::web(n, deg, seed + 1), p);
        prop_assume!(a.fingerprint().near_key() == b.fingerprint().near_key());

        let est = Estimator::new(SearchStrategy::Analytic { step: None })
            .seed(seed)
            .devices(&set);
        let cold_a = est.profiled().run_partition_cached(&a); // uncached = cold
        let cold_b = est.profiled().run_partition_cached(&b);

        let cache = ThresholdCache::new(8);
        let cached = est.cache(&cache).profiled();
        let first = cached.run_partition_cached(&a); // k-way miss: populates
        let hit = cached.run_partition_cached(&a); // exact hit: bitwise clone
        prop_assert_eq!(&first, &cold_a);
        prop_assert_eq!(&hit, &cold_a);

        let warm_b = cached.run_partition_cached(&b); // near hit: warm descent
        prop_assert_eq!(&warm_b.cuts, &cold_b.cuts);
        prop_assert_eq!(warm_b.total, cold_b.total);
        prop_assert!(
            warm_b.probes <= cold_b.probes,
            "warm spent {} probes vs cold {}",
            warm_b.probes,
            cold_b.probes
        );

        let st = cache.stats();
        prop_assert_eq!((st.kway_exact_hits, st.kway_near_hits, st.kway_misses), (1, 1, 2));
        prop_assert_eq!(
            st.probes_saved,
            first.probes.saturating_sub(warm_b.probes) as u64
        );
    }

    /// (c) `run_batch` equals a sequential `run` per item for any pool
    /// size, duplicates included, with and without a cache attached; with
    /// near-key siblings it equals a sequential `run_cached` loop.
    #[test]
    fn run_batch_matches_sequential_runs_for_any_pool(
        n in 96usize..260,
        deg in 2usize..6,
        seed in 0u64..500,
        threads in 1usize..5,
    ) {
        let p = platform();
        let a = CcWorkload::new(ggen::web(n, deg, seed), p);
        let b = CcWorkload::new(ggen::web(n + 13, deg, seed + 1), p);
        let c = CcWorkload::new(ggen::web(n, deg, seed + 2), p);
        let ws = vec![a.clone(), b.clone(), a.clone(), c, b, a.clone()];
        let pool = Pool::new(threads);

        // CoarseToFine against the direct reference, no cache.
        let est = Estimator::new(SearchStrategy::CoarseToFine).seed(seed).pool(&pool);
        let batch = est.profiled().run_batch(&ws);
        prop_assert_eq!(batch.len(), ws.len());
        for (w, got) in ws.iter().zip(&batch) {
            prop_assert_eq!(bits(got), bits(&est.run(w)));
        }

        // With a cache: same results, and a second batch is served
        // entirely from exact hits.
        let cache = ThresholdCache::new(16);
        let cached = est.cache(&cache).profiled();
        for (w, got) in ws.iter().zip(&cached.run_batch(&ws)) {
            prop_assert_eq!(bits(got), bits(&est.run(w)));
        }
        prop_assert_eq!(cache.stats().insertions, 3); // one per distinct class
        for (w, got) in ws.iter().zip(&cached.run_batch(&ws)) {
            prop_assert_eq!(bits(got), bits(&est.run(w)));
        }
        prop_assert_eq!(cache.stats().exact_hits, 3);

        // Analytic, no cache.
        let prof = Estimator::new(SearchStrategy::Analytic { step: None })
            .seed(seed)
            .pool(&pool)
            .profiled();
        for (w, got) in ws.iter().zip(&prof.run_batch(&ws)) {
            prop_assert_eq!(bits(got), bits(&prof.run(w)));
        }

        // Analytic behind a cache, with near-key siblings: whether a
        // sibling warm-starts depends on which representatives the cache
        // has already seen, so the batch must serve them in submission
        // order. Served estimates and cache counters then equal a
        // sequential `run_cached` loop over the representatives for every
        // pool size, audited or silent.
        let s1 = CcWorkload::new(ggen::web(n, deg, seed + 3), p);
        let s2 = CcWorkload::new(ggen::web(n, deg, seed + 4), p);
        let sibs = vec![a.clone(), s1.clone(), a.clone(), s2.clone(), s1.clone()];
        let analytic = Estimator::new(SearchStrategy::Analytic { step: None }).seed(seed);
        let seq_cache = ThresholdCache::new(16);
        let seq = analytic.cache(&seq_cache).profiled();
        let served: Vec<_> = [&a, &s1, &s2]
            .into_iter()
            .map(|w| bits(&seq.run_cached(w)))
            .collect();
        let expected: Vec<_> = [0, 1, 0, 2, 1].into_iter().map(|r| served[r]).collect();
        let a_near = a.fingerprint().near_key();
        if [&s1, &s2].iter().any(|w| w.fingerprint().near_key() == a_near) {
            prop_assert!(seq_cache.stats().near_hits >= 1);
        }
        for threads in 1..=4 {
            let pool = Pool::new(threads);
            for audited in [false, true] {
                let cache = ThresholdCache::new(16);
                let flight = FlightRecorder::new();
                let mut e = analytic.pool(&pool).cache(&cache);
                if audited {
                    e = e.audit(&flight);
                }
                let got: Vec<_> = e.profiled().run_batch(&sibs).iter().map(bits).collect();
                prop_assert_eq!(&got, &expected, "threads {}, audited {}", threads, audited);
                prop_assert_eq!(cache.stats(), seq_cache.stats());
            }
        }
    }

    /// (c') The served estimate is the direct reference, bitwise: for every
    /// strategy that can also run unprofiled, on every workload the
    /// serving layer accepts, `profiled().run` and `profiled().run_batch`
    /// return exactly what `Estimator::run` returns, with one repeat and
    /// with three.
    #[test]
    fn served_estimate_equals_the_direct_reference(
        n in 96usize..240,
        deg in 2usize..6,
        seed in 0u64..500,
    ) {
        let p = platform();
        check_served_is_direct(
            &CcWorkload::new(ggen::web(n, deg, seed), p),
            &CcWorkload::new(ggen::web(n + 11, deg, seed + 1), p),
            seed,
        );
        check_served_is_direct(
            &SpmmWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed), p),
            &SpmmWorkload::new(sgen::power_law(n + 11, deg + 2, 2.1, seed + 1), p),
            seed,
        );
        check_served_is_direct(
            &HhWorkload::new(sgen::power_law(n, deg + 2, 2.1, seed), p),
            &HhWorkload::new(sgen::power_law(n + 11, deg + 2, 2.1, seed + 1), p),
            seed,
        );
        check_served_is_direct(
            &DenseGemmWorkload::new(64 + n % 64, p),
            &DenseGemmWorkload::new(64 + (n + 11) % 64, p),
            seed,
        );
    }

    /// (d) Floyd's O(s) sampler draws the same distribution class as the
    /// shuffle sampler it replaced: pooled over many draws, the sampled
    /// ids match the uniform moments (mean (n-1)/2, variance (n²-1)/12)
    /// that a Fisher–Yates shuffle prefix produces, within bounds several
    /// standard errors wide.
    #[test]
    fn floyd_sampler_matches_shuffle_distribution_class(
        n in 2_000usize..20_000,
        seed in 0u64..1000,
    ) {
        let s = 200usize;
        let draws = 32usize;

        // Reference: the old sampler's shape — shuffle a full 0..n index
        // vector and take the first s entries (O(n) time and allocation,
        // which is exactly why production code no longer does this).
        let shuffle = |rng: &mut SmallRng| -> Vec<usize> {
            let mut ids: Vec<usize> = (0..n).collect();
            for i in 0..s {
                let j = rng.gen_range(i..n);
                ids.swap(i, j);
            }
            ids.truncate(s);
            ids
        };

        fn moments<F: FnMut(&mut SmallRng) -> Vec<usize>>(
            mut sample: F,
            draws: usize,
            seed: u64,
        ) -> (f64, f64) {
            let (mut sum, mut sum_sq, mut count) = (0.0f64, 0.0f64, 0usize);
            for k in 0..draws {
                let mut rng =
                    SmallRng::seed_from_u64(seed.wrapping_mul(1000).wrapping_add(k as u64));
                for id in sample(&mut rng) {
                    sum += id as f64;
                    sum_sq += (id as f64) * (id as f64);
                    count += 1;
                }
            }
            let mean = sum / count as f64;
            (mean, sum_sq / count as f64 - mean * mean)
        }

        let (floyd_mean, floyd_var) =
            moments(|rng| uniform_vertex_sample(n, s, rng), draws, seed);
        let (shuf_mean, shuf_var) = moments(shuffle, draws, seed);

        let mu = (n as f64 - 1.0) / 2.0;
        let sigma_sq = (n as f64 * n as f64 - 1.0) / 12.0;
        for (name, mean, var) in [
            ("floyd", floyd_mean, floyd_var),
            ("shuffle", shuf_mean, shuf_var),
        ] {
            prop_assert!(
                (mean - mu).abs() < 0.02 * n as f64,
                "{}: mean {} vs uniform {}",
                name,
                mean,
                mu
            );
            prop_assert!(
                (var - sigma_sq).abs() < 0.1 * sigma_sq,
                "{}: variance {} vs uniform {}",
                name,
                var,
                sigma_sq
            );
        }
    }
}
