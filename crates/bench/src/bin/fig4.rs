//! Regenerates Fig. 4: CC sample-size sensitivity. For two graphs, sweeps
//! the sample size from √n/4 to 4√n and reports estimation time and total
//! time (Phase I + Phase II), whose sum is minimized near √n.

use nbwp_bench::Opts;
use nbwp_core::prelude::*;
use nbwp_core::report::sensitivity_table;
use nbwp_datasets::Dataset;

fn main() {
    let opts = Opts::parse();
    let platform = opts.platform();
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0];
    let mut all = Vec::new();
    for name in ["web-BerkStan", "delaunay_n22"] {
        let d = Dataset::by_name(name).expect("registry entry");
        let w = CcWorkload::new(d.graph(opts.scale, opts.seed), platform);
        eprintln!("  sweeping {name}...");
        let points = sensitivity(&w, &factors, Strategy::CoarseToFine, opts.seed);
        println!(
            "{}",
            sensitivity_table(&format!("CC / {name} (factor 1.0 = √n)"), &points)
        );
        all.push((name, points));
    }
    println!("Expected shape: concave total time with the minimum near factor 1.0 (√n).");
    opts.maybe_dump(&all);
}
