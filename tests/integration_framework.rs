//! Cross-crate integration: framework-level behaviour that spans workloads —
//! baselines, search strategies, experiment aggregation, and reporting.

use nbwp_core::prelude::*;
use nbwp_core::report;
use nbwp_datasets::Dataset;

const SCALE: f64 = 0.004;
const SEED: u64 = 42;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650().scaled_for(SCALE)
}

#[test]
fn naive_static_matches_the_papers_88_percent_gpu_share() {
    let t = naive_static(&platform());
    assert!(
        (10.0..13.0).contains(&t),
        "CPU share {t:.1}% — the GPU should get ~88%"
    );
    // Scaling the platform must not change the FLOPS ratio.
    let t_full = naive_static(&Platform::k40c_xeon_e5_2650());
    assert!((t - t_full).abs() < 1e-9);
}

#[test]
fn all_identify_strategies_work_on_all_percentage_workloads() {
    let d = Dataset::by_name("cop20k_A").unwrap();
    let cc = CcWorkload::new(d.graph(SCALE, SEED), platform());
    let spmm = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    for strategy in [
        Strategy::CoarseToFine,
        Strategy::RaceThenFine,
        Strategy::GradientDescent { max_evals: 20 },
        Strategy::Exhaustive { step: None },
    ] {
        let e1 = Estimator::new(strategy).seed(SEED).run(&cc);
        assert!((0.0..=100.0).contains(&e1.threshold), "{strategy:?} on CC");
        let e2 = Estimator::new(strategy).seed(SEED).run(&spmm);
        assert!(
            (0.0..=100.0).contains(&e2.threshold),
            "{strategy:?} on spmm"
        );
    }
}

#[test]
fn coarse_to_fine_matches_exhaustive_within_fine_resolution() {
    let d = Dataset::by_name("webbase-1M").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    let full = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&w);
    let ctf = Searcher::new(Strategy::CoarseToFine).run(&w);
    let penalty = ctf.best_time.pct_diff_from(full.best_time);
    assert!(
        penalty < 5.0,
        "coarse-to-fine best {} vs exhaustive {} ({penalty:.2}%)",
        ctf.best_t,
        full.best_t
    );
    assert!(ctf.evaluations() * 2 < full.evaluations());
}

#[test]
fn history_baseline_ports_badly_across_families() {
    // Qilin-style: train on a regular matrix, reuse on an irregular one.
    let qcd = SpmmWorkload::new(
        Dataset::by_name("qcd5_4").unwrap().matrix(SCALE, SEED),
        platform(),
    );
    let web = SpmmWorkload::new(
        Dataset::by_name("webbase-1M").unwrap().matrix(SCALE, SEED),
        platform(),
    );
    let mut history = nbwp_core::baselines::HistoryBased::new();
    let trained = history.threshold_for(&qcd);
    let reused = history.threshold_for(&web);
    assert_eq!(trained, reused, "history reuses its training threshold");
    // Input-aware sampling on the web matrix should do at least as well.
    // Median of three sampling repeats: robust to a single unlucky draw
    // (the Floyd sampler's per-seed stream differs from the old shuffle).
    let est = Estimator::new(Strategy::RaceThenFine)
        .seed(SEED)
        .repeats(3)
        .run(&web);
    assert!(web.time_at(est.threshold) <= web.time_at(reused) * 1.10);
}

#[test]
fn chunked_dynamic_baseline_pays_communication_overhead() {
    let d = Dataset::by_name("consph").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    let free = nbwp_core::baselines::chunked_dynamic(&w, 16, SimTime::ZERO);
    let taxed = nbwp_core::baselines::chunked_dynamic(&w, 16, SimTime::from_micros(200.0));
    assert!(taxed > free);
}

#[test]
fn summaries_and_tables_render_from_real_rows() {
    let suite: Vec<(&str, CcWorkload)> = ["cant", "qcd5_4"]
        .iter()
        .map(|&name| {
            let d = Dataset::by_name(name).unwrap();
            (name, CcWorkload::new(d.graph(SCALE, SEED), platform()))
        })
        .collect();
    let rows = run_corpus(&suite, &ExperimentConfig::cc(SEED));

    let tt = report::threshold_table(&rows);
    assert!(tt.contains("cant") && tt.contains("qcd5_4"));
    let t2 = report::time_table(&rows);
    assert!(t2.contains("ovhd%"));
    let s = summarize("CC", &rows);
    assert!(s.threshold_diff_pct.is_finite());
    let json = report::to_json(&rows).unwrap();
    let back: Vec<ExperimentRow> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), rows.len());
}

#[test]
fn sensitivity_estimation_cost_grows_with_sample_size() {
    let d = Dataset::by_name("pwtk").unwrap();
    let w = CcWorkload::new(d.graph(SCALE, SEED), platform());
    let pts = sensitivity(&w, &[0.25, 1.0, 4.0], Strategy::CoarseToFine, SEED);
    assert!(pts[2].estimation_ms > pts[0].estimation_ms);
    assert!(pts[2].sample_size > pts[0].sample_size);
}

#[test]
fn platform_scaling_preserves_device_balance() {
    // The scaled platform must not change which device a workload prefers.
    let full = Platform::k40c_xeon_e5_2650();
    let scaled = full.scaled_for(0.1);
    assert!((full.gpu_flops_share() - scaled.gpu_flops_share()).abs() < 1e-12);
}
