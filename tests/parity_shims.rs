//! Parity suite for the deprecated-shim contract: every deprecated entry
//! point — the 0.2.0 free-function shims and the 0.3.0 scalar-threshold
//! shims superseded by the k-way `Partition` API — must return a
//! **bitwise identical** outcome to its builder/partition equivalent.
//! `SearchOutcome` and `SamplingEstimate` both derive `PartialEq`, so one
//! `assert_eq!` covers thresholds, simulated times, and the full
//! evaluation logs.
#![allow(deprecated)]

use nbwp_core::prelude::*;
use nbwp_core::threshold_cache::ConfigKey;

fn workload() -> SpmmWorkload {
    SpmmWorkload::new(
        nbwp_sparse::gen::power_law(600, 6, 2.1, 9),
        Platform::k40c_xeon_e5_2650(),
    )
}

const STEP: f64 = 2.0;
const MAX_EVALS: usize = 20;
const SEED: u64 = 7;

#[test]
fn search_shims_match_the_searcher_builder() {
    let w = workload();
    let rec = Recorder::disabled();
    let pool = Pool::new(2);

    let cases: Vec<(&str, SearchOutcome, SearchOutcome)> = vec![
        (
            "exhaustive",
            exhaustive(&w, STEP),
            Searcher::new(Strategy::Exhaustive { step: Some(STEP) }).run(&w),
        ),
        (
            "exhaustive_with",
            exhaustive_with(&w, STEP, &rec),
            Searcher::new(Strategy::Exhaustive { step: Some(STEP) })
                .recorder(&rec)
                .run(&w),
        ),
        (
            "exhaustive_pooled",
            exhaustive_pooled(&w, STEP, &rec, &pool),
            Searcher::new(Strategy::Exhaustive { step: Some(STEP) })
                .recorder(&rec)
                .pool(&pool)
                .run(&w),
        ),
        (
            "coarse_to_fine",
            coarse_to_fine(&w),
            Searcher::new(Strategy::CoarseToFine).run(&w),
        ),
        (
            "coarse_to_fine_with",
            coarse_to_fine_with(&w, &rec),
            Searcher::new(Strategy::CoarseToFine).recorder(&rec).run(&w),
        ),
        (
            "coarse_to_fine_pooled",
            coarse_to_fine_pooled(&w, &rec, &pool),
            Searcher::new(Strategy::CoarseToFine)
                .recorder(&rec)
                .pool(&pool)
                .run(&w),
        ),
        (
            "race_then_fine",
            race_then_fine(&w),
            Searcher::new(Strategy::RaceThenFine).run(&w),
        ),
        (
            "race_then_fine_with",
            race_then_fine_with(&w, &rec),
            Searcher::new(Strategy::RaceThenFine).recorder(&rec).run(&w),
        ),
        (
            "race_then_fine_pooled",
            race_then_fine_pooled(&w, &rec, &pool),
            Searcher::new(Strategy::RaceThenFine)
                .recorder(&rec)
                .pool(&pool)
                .run(&w),
        ),
        (
            "gradient_descent",
            gradient_descent(&w, MAX_EVALS),
            Searcher::new(Strategy::GradientDescent {
                max_evals: MAX_EVALS,
            })
            .run(&w),
        ),
        (
            "gradient_descent_with",
            gradient_descent_with(&w, MAX_EVALS, &rec),
            Searcher::new(Strategy::GradientDescent {
                max_evals: MAX_EVALS,
            })
            .recorder(&rec)
            .run(&w),
        ),
        (
            "gradient_descent_pooled",
            gradient_descent_pooled(&w, MAX_EVALS, &rec, &pool),
            Searcher::new(Strategy::GradientDescent {
                max_evals: MAX_EVALS,
            })
            .recorder(&rec)
            .pool(&pool)
            .run(&w),
        ),
    ];
    for (name, shim, builder) in cases {
        assert_eq!(shim, builder, "{name}");
    }
}

#[test]
fn profiled_search_shims_match_the_profiled_builder() {
    let w = workload();
    let rec = Recorder::disabled();
    let pool = Pool::new(2);

    let cases: Vec<(&str, SearchOutcome, SearchOutcome)> = vec![
        (
            "exhaustive_profiled",
            exhaustive_profiled(&w, STEP, &rec, &pool),
            Searcher::new(Strategy::Exhaustive { step: Some(STEP) })
                .recorder(&rec)
                .pool(&pool)
                .profiled()
                .run(&w),
        ),
        (
            "coarse_to_fine_profiled",
            coarse_to_fine_profiled(&w, &rec, &pool),
            Searcher::new(Strategy::CoarseToFine)
                .recorder(&rec)
                .pool(&pool)
                .profiled()
                .run(&w),
        ),
        (
            "race_then_fine_profiled",
            race_then_fine_profiled(&w, &rec, &pool),
            Searcher::new(Strategy::RaceThenFine)
                .recorder(&rec)
                .pool(&pool)
                .profiled()
                .run(&w),
        ),
        (
            "gradient_descent_profiled",
            gradient_descent_profiled(&w, MAX_EVALS, &rec, &pool),
            Searcher::new(Strategy::GradientDescent {
                max_evals: MAX_EVALS,
            })
            .recorder(&rec)
            .pool(&pool)
            .profiled()
            .run(&w),
        ),
        // Not deprecated, but the same contract: the free analytic entry
        // point is the Analytic strategy through the profiled builder.
        (
            "gradient_descent_analytic",
            gradient_descent_analytic(&w, STEP, &rec, &pool),
            Searcher::new(Strategy::Analytic { step: Some(STEP) })
                .recorder(&rec)
                .pool(&pool)
                .profiled()
                .run(&w),
        ),
    ];
    for (name, shim, builder) in cases {
        assert_eq!(shim, builder, "{name}");
    }
}

#[test]
fn estimate_shims_match_the_estimator_builder() {
    let w = workload();
    let rec = Recorder::disabled();
    let pool = Pool::new(2);
    let spec = SampleSpec::default();
    let strategy = IdentifyStrategy::CoarseToFine;

    let cases: Vec<(&str, SamplingEstimate, SamplingEstimate)> = vec![
        (
            "estimate",
            estimate(&w, spec, strategy, SEED),
            Estimator::new(strategy.into())
                .spec(spec)
                .seed(SEED)
                .run(&w),
        ),
        (
            "estimate_with",
            estimate_with(&w, spec, strategy, SEED, &rec),
            Estimator::new(strategy.into())
                .spec(spec)
                .seed(SEED)
                .recorder(&rec)
                .run(&w),
        ),
        (
            "estimate_pooled",
            estimate_pooled(&w, spec, strategy, SEED, &rec, &pool),
            Estimator::new(strategy.into())
                .spec(spec)
                .seed(SEED)
                .recorder(&rec)
                .pool(&pool)
                .run(&w),
        ),
        (
            "estimate_profiled",
            estimate_profiled(&w, spec, strategy, SEED, &rec, &pool),
            Estimator::new(strategy.into())
                .spec(spec)
                .seed(SEED)
                .recorder(&rec)
                .pool(&pool)
                .profiled()
                .run(&w),
        ),
        (
            "estimate_repeated",
            estimate_repeated(&w, spec, strategy, SEED, 3),
            Estimator::new(strategy.into())
                .spec(spec)
                .seed(SEED)
                .repeats(3)
                .run(&w),
        ),
        (
            "estimate_repeated_profiled",
            estimate_repeated_profiled(&w, spec, strategy, SEED, 3),
            Estimator::new(strategy.into())
                .spec(spec)
                .seed(SEED)
                .repeats(3)
                .profiled()
                .run(&w),
        ),
    ];
    for (name, shim, builder) in cases {
        assert_eq!(shim, builder, "{name}");
    }
}

/// The 0.3.0 scalar shims: `minimize_curve` is the canonical-pair arm of
/// `minimize_partition`, bitwise, warm or cold (a NaN hint runs cold).
#[test]
fn minimize_curve_shim_matches_minimize_partition_on_the_canonical_pair() {
    let w = workload();
    let pool = Pool::new(2);
    let profile = w.build_profile(&pool);
    let space = w.space();
    let curve = w.curve(&profile).expect("spmm exposes a cost curve");

    for warm in [None, Some(42.0), Some(f64::NAN)] {
        let scalar = minimize_curve(curve.as_ref(), &space, STEP, warm);
        let warm_buf = warm.map(|h| [h]);
        let part = minimize_partition(
            curve.as_ref(),
            DeviceSet::cpu_gpu_static(),
            &space,
            STEP,
            warm_buf.as_ref().map(<[f64; 1]>::as_slice),
        )
        .expect("the canonical pair prices every curve");
        assert_eq!(part.thresholds.len(), 1);
        assert_eq!(part.thresholds[0].to_bits(), scalar.threshold.to_bits());
        assert_eq!(part.partition.cuts(), &[scalar.split]);
        assert_eq!(part.total, scalar.total);
        assert_eq!(part.probes, scalar.probes);
        assert_eq!(part.sweeps, 0);
    }
}

/// `Searcher::warm_hint(h)` is `Searcher::warm_cuts(&[h])`, bitwise — a
/// NaN hint included, which both drop to serve the cold result.
#[test]
fn warm_hint_shim_matches_warm_cuts() {
    let w = workload();
    let cold = Searcher::new(Strategy::Analytic { step: None })
        .profiled()
        .run(&w);
    for hint in [cold.best_t, f64::NAN] {
        let via_hint = Searcher::new(Strategy::Analytic { step: None })
            .warm_hint(hint)
            .profiled()
            .run(&w);
        let cuts = [hint];
        let via_cuts = Searcher::new(Strategy::Analytic { step: None })
            .warm_cuts(&cuts)
            .profiled()
            .run(&w);
        assert_eq!(via_hint, via_cuts, "hint {hint}");
        if hint.is_nan() {
            assert_eq!(via_hint, cold);
        }
    }
}

/// `ConfigKey::of` is `ConfigKey::with_devices` on the canonical pair.
#[test]
fn config_key_shim_matches_with_devices_on_the_canonical_pair() {
    let spec = SampleSpec::default();
    for strategy in [
        Strategy::Exhaustive { step: Some(STEP) },
        Strategy::CoarseToFine,
        Strategy::RaceThenFine,
        Strategy::GradientDescent {
            max_evals: MAX_EVALS,
        },
        Strategy::Analytic { step: None },
    ] {
        assert_eq!(
            ConfigKey::of(strategy, spec, SEED, 2),
            ConfigKey::with_devices(strategy, spec, SEED, 2, DeviceSet::cpu_gpu_static()),
        );
    }
}

#[test]
fn every_identify_strategy_lifts_into_the_strategy_enum() {
    let w = workload();
    for (identify, lifted) in [
        (
            IdentifyStrategy::Exhaustive,
            Strategy::Exhaustive { step: None },
        ),
        (IdentifyStrategy::CoarseToFine, Strategy::CoarseToFine),
        (IdentifyStrategy::RaceThenFine, Strategy::RaceThenFine),
        (
            IdentifyStrategy::GradientDescent {
                max_evals: MAX_EVALS,
            },
            Strategy::GradientDescent {
                max_evals: MAX_EVALS,
            },
        ),
    ] {
        assert_eq!(Strategy::from(identify), lifted);
        assert_eq!(
            estimate(&w, SampleSpec::default(), identify, SEED),
            Estimator::new(lifted).seed(SEED).run(&w),
            "{}",
            lifted.name()
        );
    }
}
