//! Regenerates Fig. 6: spmm sample-size sensitivity. Sweeps the sampled
//! fraction from n/10 to 4n/10 (factors 0.4–1.6 of the default n/4) for two
//! matrices.

use nbwp_bench::Opts;
use nbwp_core::prelude::*;
use nbwp_core::report::sensitivity_table;
use nbwp_datasets::Dataset;

fn main() {
    let opts = Opts::parse();
    let platform = opts.platform();
    // n/10, 2n/10, n/4, 3n/10, 4n/10 relative to the default n/4.
    let factors = [0.4, 0.8, 1.0, 1.2, 1.6];
    let mut all = Vec::new();
    for name in ["cant", "cop20k_A"] {
        let d = Dataset::by_name(name).expect("registry entry");
        let w = SpmmWorkload::new(d.matrix(opts.scale, opts.seed), platform);
        eprintln!("  sweeping {name}...");
        let points = sensitivity(&w, &factors, Strategy::RaceThenFine, opts.seed);
        println!(
            "{}",
            sensitivity_table(&format!("spmm / {name} (factor 1.0 = n/4)"), &points)
        );
        all.push((name, points));
    }
    println!("Expected shape: near-concave total time, minimum around factor 1.0 (n/4).");
    opts.maybe_dump(&all);
}
