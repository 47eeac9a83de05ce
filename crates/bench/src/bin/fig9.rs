//! Regenerates Fig. 9: scale-free spmm sample-size sensitivity. Sweeps the
//! sampled row count over √n/4, √(n/2), √n, 2√n, 4√n for two matrices.

use nbwp_bench::Opts;
use nbwp_core::prelude::*;
use nbwp_core::report::sensitivity_table;
use nbwp_datasets::Dataset;

fn main() {
    let opts = Opts::parse();
    let platform = opts.platform();
    // √n/4, √(n/2) ≈ 0.707·√n, √n, 2√n, 4√n.
    let factors = [0.25, 0.707, 1.0, 2.0, 4.0];
    let mut all = Vec::new();
    for name in ["web-BerkStan", "webbase-1M"] {
        let d = Dataset::by_name(name).expect("registry entry");
        let w = HhWorkload::new(d.matrix(opts.scale, opts.seed), platform);
        eprintln!("  sweeping {name}...");
        let points = sensitivity(
            &w,
            &factors,
            Strategy::GradientDescent { max_evals: 24 },
            opts.seed,
        );
        println!(
            "{}",
            sensitivity_table(&format!("HH / {name} (factor 1.0 = √n rows)"), &points)
        );
        all.push((name, points));
    }
    println!("Expected shape: total time minimized near factor 1.0 (√n rows).");
    opts.maybe_dump(&all);
}
