//! Threshold *vectors*: partitioning one spmm across a CPU and two
//! accelerators (the extension the paper sketches at the end of §II),
//! with the same k-way partition search `nbwp estimate --devices` serves.
//!
//! ```sh
//! cargo run --release --example multi_device
//! ```

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_sim::GpuModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Prices the cut thresholds (work %) on the full input's curve and prints
/// the total, then each device's work share and band time.
fn show(label: &str, curve: &dyn CurveEval, set: &DeviceSet, thresholds: &[f64]) {
    let cuts = thresholds.iter().map(|&t| curve.split_for(t)).collect();
    let p = Partition::new(curve.splits() - 1, cuts);
    let total = curve.partition_total(set, &p).expect("spmm prices bands");
    let mut line = format!("  {label:<20} {total} |");
    let mut prev = 0.0;
    let edges = thresholds.iter().chain(&[100.0]);
    for (&t, (d, (lo, hi))) in edges.zip(set.devices().iter().zip(p.bands())) {
        let band = curve.device_band(d, lo, hi).expect("spmm prices bands");
        line += &format!(" {:.0}% in {band} |", t - prev);
        prev = t;
    }
    println!("{line}");
}

fn main() {
    let scale = 0.02;
    let d = Dataset::by_name("cop20k_A").expect("Table II entry");
    let a = d.matrix(scale, 42);
    println!(
        "multi-device spmm on {} ({} rows): Xeon + K40c + integrated GPU\n",
        d.name,
        a.rows()
    );
    let platform = Platform::k40c_xeon_e5_2650().scaled_for(scale);
    // The integrated GPU is the K40c model slowed to their peak ratio.
    let igpu = GpuModel::integrated_small().peak_gflops() / GpuModel::tesla_k40c().peak_gflops();
    let set = DeviceSet::new(
        "xeon-k40c-igpu",
        vec![Device::cpu(), Device::gpu(), Device::gpu().with_speed(igpu)],
    );
    let w = SpmmWorkload::new(a, platform);
    let profile = w.build_profile(Pool::global());
    let curve = w.curve(&profile).expect("spmm exposes a cost curve");
    let curve = curve.as_ref();

    // Baselines: equal work shares, and shares proportional to peak FLOPS.
    show("equal shares", curve, &set, &[100.0 / 3.0, 200.0 / 3.0]);
    let f = set.weights(platform.gpu_flops_share());
    let sum: f64 = f.iter().sum();
    let flops = [100.0 * f[0] / sum, 100.0 * (f[0] + f[1]) / sum];
    show("FLOPS-proportional", curve, &set, &flops);

    // Descent on the full input (the reference).
    let search = Searcher::new(Strategy::Analytic { step: None }).profiled();
    show("descent", curve, &set, &search.run_partition(&w, &set).cuts);

    // The sampling pipeline: descend on an n/4 miniature, extrapolate the
    // cuts (the identity for spmm), price them on the full input.
    let mini = w.sample(SampleSpec::default(), &mut SmallRng::seed_from_u64(7));
    let on_mini = search.run_partition(&mini, &set);
    let sampled: Vec<f64> = on_mini
        .cuts
        .iter()
        .map(|&t| w.extrapolate(t, &mini))
        .collect();
    show("sampled estimate", curve, &set, &sampled);
    println!(
        "\nthe miniature's descent spent {} curve probes",
        on_mini.probes
    );
    println!(
        "note how the integrated GPU receives the smallest share and the \
         FLOPS split overloads the accelerators (it ignores transfers)."
    );
}
