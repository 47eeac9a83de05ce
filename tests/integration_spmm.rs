//! Cross-crate integration: the spmm case study end to end, including the
//! analytic-profile/physical-execution agreement guarantee.

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_sparse::spgemm::spgemm;

const SCALE: f64 = 0.004;
const SEED: u64 = 42;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650().scaled_for(SCALE)
}

#[test]
fn partitioned_product_is_exact_across_datasets_and_splits() {
    for name in ["cop20k_A", "webbase-1M", "qcd5_4"] {
        let d = Dataset::by_name(name).unwrap();
        let a = d.matrix(SCALE, SEED);
        let reference = spgemm(&a, &a);
        let w = SpmmWorkload::new(a, platform());
        for r in [0.0, 33.0, 66.0, 100.0] {
            let (c, _) = w.run_numeric(r);
            assert_eq!(c, reference, "{name} at r = {r}");
        }
    }
}

#[test]
fn analytic_and_numeric_reports_agree_exactly() {
    let d = Dataset::by_name("rma10").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    for r in [0.0, 20.0, 50.0, 80.0, 100.0] {
        let (_, numeric) = w.run_numeric(r);
        assert_eq!(numeric, w.run(r), "split {r}");
    }
}

#[test]
fn race_estimate_lands_inside_the_space_with_few_evals() {
    let d = Dataset::by_name("shipsec1").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    let est = Estimator::new(Strategy::RaceThenFine).seed(SEED).run(&w);
    assert!((0.0..=100.0).contains(&est.threshold));
    assert!(
        est.evaluations <= 6,
        "race + probes should stay cheap, used {}",
        est.evaluations
    );
}

#[test]
fn work_split_monotone_in_percentage() {
    let d = Dataset::by_name("consph").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    let mut last = 0;
    for r in (0..=100).step_by(5) {
        let split = w.split_row(f64::from(r));
        assert!(split >= last);
        last = split;
    }
    assert_eq!(w.split_row(100.0), w.size());
}

#[test]
fn sampling_estimate_is_no_worse_than_naive_static_on_irregular_input() {
    // The paper's core claim: on irregular inputs, the input-aware estimate
    // beats the FLOPS-ratio split.
    let d = Dataset::by_name("webbase-1M").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    let est = Estimator::new(Strategy::RaceThenFine).seed(SEED).run(&w);
    let t_est = w.time_at(est.threshold);
    let t_static = w.time_at(nbwp_core::baselines::naive_static_for(&w));
    assert!(
        t_est <= t_static * 1.05,
        "estimated {} should not lose to NaiveStatic {}",
        t_est,
        t_static
    );
}
