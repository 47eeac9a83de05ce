//! Cross-crate integration for the beyond-the-paper extensions: sorting,
//! list ranking, SpMV, multi-device vectors, energy sweeps, calibration.

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_graph::list::LinkedLists;
use nbwp_sim::GpuModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SCALE: f64 = 0.004;
const SEED: u64 = 42;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650().scaled_for(SCALE)
}

#[test]
fn sorting_case_study_end_to_end() {
    let data = nbwp_sort::gen::narrow_range(30_000, SEED);
    let w = SortWorkload::new(data, platform());
    let est = Estimator::new(Strategy::CoarseToFine).seed(SEED).run(&w);
    let out = w.run_full(est.threshold);
    assert!(out.sorted.windows(2).all(|p| p[0] <= p[1]));
    // Narrow keys: the GPU side skips at least 6 of 8 radix passes.
    let gpu_only = w.run_full(0.0);
    assert!(gpu_only.gpu_passes <= 2);
}

#[test]
fn list_ranking_case_study_end_to_end() {
    let lists = LinkedLists::random(20_000, 4, SEED);
    let w = ListRankingWorkload::new(lists, platform(), SEED);
    let est = Estimator::new(Strategy::CoarseToFine).seed(SEED).run(&w);
    let out = w.run_full(est.threshold);
    assert_eq!(out.ranks, w.lists().rank_sequential());
    let best = Searcher::new(Strategy::Exhaustive { step: Some(2.0) }).run(&w);
    assert!(best.best_t > 0.0 && best.best_t < 100.0, "interior optimum");
}

#[test]
fn spmv_case_study_end_to_end() {
    let d = Dataset::by_name("pwtk").unwrap();
    let w = SpmvWorkload::new(d.matrix(SCALE, SEED), platform());
    let est = Estimator::new(Strategy::CoarseToFine).seed(SEED).run(&w);
    let (y, report) = w.run_numeric(est.threshold);
    assert_eq!(y.len(), w.size());
    assert!(report.total().as_secs() > 0.0);
}

/// One CPU and `gpus` platform GPUs, the shape of a multi-accelerator node.
fn cpu_with_gpus(gpus: usize) -> DeviceSet {
    let mut devices = vec![Device::cpu()];
    devices.extend(std::iter::repeat_n(Device::gpu(), gpus));
    DeviceSet::new(format!("cpu+{gpus}gpu"), devices)
}

/// The full-input total of cut thresholds (work %) on `set`.
fn price(w: &SpmmWorkload, set: &DeviceSet, thresholds: &[f64]) -> SimTime {
    let profile = w.build_profile(Pool::global());
    let curve = w.curve(&profile).expect("spmm exposes a cost curve");
    let cuts = thresholds.iter().map(|&t| curve.split_for(t)).collect();
    curve
        .partition_total(set, &Partition::new(curve.splits() - 1, cuts))
        .expect("spmm prices every band")
}

/// Cut thresholds (work %) giving device `i` a share proportional to
/// `weights[i]`.
fn cuts_for(weights: &[f64]) -> Vec<f64> {
    let sum: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cuts = weights[..weights.len() - 1].iter().map(|w| {
        acc += w;
        100.0 * acc / sum
    });
    cuts.collect()
}

fn analytic() -> ProfiledSearcher<'static> {
    Searcher::new(Strategy::Analytic { step: None }).profiled()
}

/// The small random input the threshold-vector pins run on.
fn random_3000() -> SpmmWorkload {
    SpmmWorkload::new(
        nbwp_sparse::gen::uniform_random(3000, 10, 7),
        Platform::k40c_xeon_e5_2650().scaled_for(0.05),
    )
}

#[test]
fn kway_descent_beats_the_equal_work_split() {
    let (w, set) = (random_3000(), cpu_with_gpus(2));
    let equal = price(&w, &set, &cuts_for(&[1.0; 3]));
    let descent = analytic().run_partition(&w, &set).total;
    assert!(
        descent <= equal * 0.85,
        "descent {descent} vs equal {equal}"
    );
}

#[test]
fn two_gpus_beat_one() {
    let w = random_3000();
    let one = analytic().run_partition(&w, &cpu_with_gpus(1)).total;
    let two = analytic().run_partition(&w, &cpu_with_gpus(2)).total;
    assert!(
        two < one,
        "adding a K40c should help: 1 GPU {one}, 2 GPUs {two}"
    );
}

#[test]
fn asymmetric_platform_gets_asymmetric_shares() {
    // A banded matrix: device-memory-bound SpGEMM with small outputs, so
    // the gap between the K40c and the integrated GPU actually shows (an
    // ultra-sparse input would be PCIe-bound and the accelerators would
    // tie).
    let platform = Platform::k40c_xeon_e5_2650().scaled_for(0.05);
    let w = SpmmWorkload::new(nbwp_sparse::gen::banded_fem(3000, 30, 24, 9), platform);
    let igpu = GpuModel::integrated_small().peak_gflops() / GpuModel::tesla_k40c().peak_gflops();
    let set = DeviceSet::new(
        "xeon-k40c-igpu",
        vec![Device::cpu(), Device::gpu(), Device::gpu().with_speed(igpu)],
    );
    let descent = analytic().run_partition(&w, &set);
    // Device 1 (K40c) carries a larger work share than device 2 (iGPU),
    // and the descent beats the FLOPS-proportional vector.
    let (k40c, integrated) = (descent.cuts[1] - descent.cuts[0], 100.0 - descent.cuts[1]);
    assert!(
        k40c > integrated,
        "K40c {k40c:.1}% vs iGPU {integrated:.1}%"
    );
    let flops = price(
        &w,
        &set,
        &cuts_for(&set.weights(platform.gpu_flops_share())),
    );
    assert!(
        descent.total <= flops * 1.02,
        "{} vs {flops}",
        descent.total
    );
}

#[test]
fn multi_device_pipeline_on_registry_data() {
    let d = Dataset::by_name("cop20k_A").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    let set = cpu_with_gpus(2);
    // Sample → descend on the miniature → extrapolate → price in full.
    let mini = w.sample(SampleSpec::default(), &mut SmallRng::seed_from_u64(SEED));
    let on_mini = analytic().run_partition(&mini, &set);
    let sampled: Vec<f64> = on_mini
        .cuts
        .iter()
        .map(|&t| w.extrapolate(t, &mini))
        .collect();
    let (t_sampled, t_equal) = (
        price(&w, &set, &sampled),
        price(&w, &set, &cuts_for(&[1.0; 3])),
    );
    assert!(
        t_sampled <= t_equal * 1.05,
        "sampled {t_sampled} vs equal {t_equal}"
    );
    assert!(on_mini.probes > 0);
}

#[test]
fn energy_sweep_on_registry_data() {
    let d = Dataset::by_name("consph").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    let power = PowerModel::k40c_xeon_e5_2650();
    let sweep = exhaustive_energy(&w, &power, 2.0);
    assert!(sweep.best_joules > 0.0);
    assert!(sweep.best_joules <= sweep.joules_at_time_best);
}

#[test]
fn repeated_estimation_is_consistent_with_single() {
    let d = Dataset::by_name("rma10").unwrap();
    let w = SpmmWorkload::new(d.matrix(SCALE, SEED), platform());
    let single = Estimator::new(Strategy::RaceThenFine).seed(SEED).run(&w);
    let multi = Estimator::new(Strategy::RaceThenFine)
        .seed(SEED)
        .repeats(3)
        .run(&w);
    assert!((0.0..=100.0).contains(&multi.threshold));
    assert!(multi.overhead > single.overhead);
}

#[test]
fn calibration_runs_on_a_registry_corpus() {
    let corpus: Vec<HhWorkload> = ["web-BerkStan", "webbase-1M"]
        .iter()
        .map(|n| HhWorkload::new(Dataset::by_name(n).unwrap().matrix(SCALE, SEED), platform()))
        .collect();
    let fitted = calibrate_extrapolator(&corpus, Strategy::GradientDescent { max_evals: 12 }, SEED);
    if let Some(Extrapolator::Power { a, b }) = fitted {
        assert!(a.is_finite() && b.is_finite());
    }
    // None is acceptable for a 2-element corpus with identical sample
    // thresholds; the API must simply not panic.
}

#[test]
fn importance_sampler_runs_through_the_estimator() {
    let d = Dataset::by_name("webbase-1M").unwrap();
    let w = HhWorkload::new(d.matrix(SCALE, SEED), platform()).with_sampler(HhSampler::Importance);
    let est = Estimator::new(Strategy::GradientDescent { max_evals: 18 })
        .seed(SEED)
        .run(&w);
    let space = w.space();
    assert!(est.threshold >= space.lo && est.threshold <= space.hi);
}
