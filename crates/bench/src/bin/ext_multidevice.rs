//! Extension harness (paper §II, final paragraph): threshold *vectors* on a
//! platform with one CPU and several accelerators, found by the k-way
//! analytic partition search that `nbwp estimate --devices` serves.
//! Compares equal work shares, FLOPS-proportional shares (vector
//! NaiveStatic), the descent on the full input, and the descent on an n/4
//! sample extrapolated to the full input. Every vector is priced on the
//! full input's cost curve.
//!
//! Gate: exits nonzero if, on any (topology, dataset) row, the descent
//! total exceeds the equal-share or the FLOPS-proportional total.

use nbwp_bench::{harness, Opts};
use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_sim::GpuModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

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

/// Per-device work shares (percent) between consecutive cut thresholds.
fn fmt_shares(cuts: &[f64]) -> String {
    let edges: Vec<f64> = [0.0].iter().chain(cuts).chain(&[100.0]).copied().collect();
    let parts: Vec<String> = edges
        .windows(2)
        .map(|e| format!("{:.0}", e[1] - e[0]))
        .collect();
    format!("[{}]", parts.join("/"))
}

fn main() {
    let opts = Opts::parse();
    let platform = opts.platform();
    // The integrated GPU is the K40c model slowed to their peak ratio.
    let igpu = GpuModel::integrated_small().peak_gflops() / GpuModel::tesla_k40c().peak_gflops();
    let topologies = [
        DeviceSet::new(
            "Xeon + 2×K40c",
            vec![Device::cpu(), Device::gpu(), Device::gpu()],
        ),
        DeviceSet::new(
            "Xeon + K40c + iGPU",
            vec![Device::cpu(), Device::gpu(), Device::gpu().with_speed(igpu)],
        ),
    ];
    let search = Searcher::new(Strategy::Analytic { step: None }).profiled();
    println!(
        "Multi-device spmm (threshold vector), scale = {}, seed = {}",
        opts.scale, opts.seed
    );
    let mut violations = Vec::new();
    for set in &topologies {
        let equal = cuts_for(&vec![1.0; set.len()]);
        let flops = cuts_for(&set.weights(platform.gpu_flops_share()));
        println!("\n== {} ==", set.name());
        println!(
            "{:<14} {:>14} {:>12} {:>12} {:>12} {:>12}",
            "dataset", "shares", "equal", "FLOPS", "descent", "sampled"
        );
        for name in ["cant", "cop20k_A", "webbase-1M"] {
            let d = Dataset::by_name(name).expect("Table II entry");
            let w = SpmmWorkload::new(d.matrix(opts.scale, opts.seed), platform);
            let profile = w.build_profile(Pool::global());
            let curve = w.curve(&profile).expect("spmm exposes a cost curve");
            let price = |thresholds: &[f64]| {
                let cuts = thresholds.iter().map(|&t| curve.split_for(t)).collect();
                curve
                    .partition_total(set, &Partition::new(curve.splits() - 1, cuts))
                    .expect("spmm prices every band")
            };
            let descent = search.run_partition(&w, set);
            let mini = w.sample(
                SampleSpec::default(),
                &mut SmallRng::seed_from_u64(opts.seed),
            );
            let on_mini = search.run_partition(&mini, set);
            let sampled: Vec<f64> = on_mini
                .cuts
                .iter()
                .map(|&t| w.extrapolate(t, &mini))
                .collect();
            let (t_equal, t_flops) = (price(&equal), price(&flops));
            println!(
                "{:<14} {:>14} {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>10.2}ms  sampled {} ({} probes)",
                name,
                fmt_shares(&descent.cuts),
                t_equal.as_millis(),
                t_flops.as_millis(),
                descent.total.as_millis(),
                price(&sampled).as_millis(),
                fmt_shares(&sampled),
                on_mini.probes,
            );
            for (baseline, t) in [("equal", t_equal), ("FLOPS", t_flops)] {
                if descent.total > t {
                    violations.push(format!(
                        "{} / {name}: descent {} exceeds {baseline} {t}",
                        set.name(),
                        descent.total
                    ));
                }
            }
        }
    }
    harness::finish(
        &violations,
        "THRESHOLD-VECTOR GATE VIOLATION",
        "descent is at or below equal and FLOPS-proportional shares on every row",
    );
}
