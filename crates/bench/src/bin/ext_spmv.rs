//! Extension harness: SpMV (the paper's related-work \[17\]) across the
//! Table II suite — the lightest-weight partitioned kernel, where fixed
//! costs and the CPU cache cliff dominate the threshold landscape.

use nbwp_bench::Opts;
use nbwp_core::prelude::*;
use nbwp_core::report::{threshold_table, time_table};
use nbwp_datasets::Dataset;

fn main() {
    let opts = Opts::parse();
    let platform = opts.platform();
    eprintln!("ext_spmv: scale = {}, seed = {}", opts.scale, opts.seed);
    let suite: Vec<(&str, SpmvWorkload)> = Dataset::all()
        .iter()
        .map(|d| {
            (
                d.name,
                SpmvWorkload::new(d.matrix(opts.scale, opts.seed), platform),
            )
        })
        .collect();
    // Coarse-to-fine: the race heuristic misreads SpMV's cache cliff (see
    // workloads::spmv tests).
    let rows = run_corpus(&suite, &ExperimentConfig::cc(opts.seed));

    println!("SpMV thresholds (CPU work share %)");
    println!("{}", threshold_table(&rows));
    println!("SpMV times (simulated ms)");
    println!("{}", time_table(&rows));
    let s = summarize("SpMV", &rows);
    println!(
        "averages: threshold diff {:.2}%, time diff {:.2}%, overhead {:.2}%",
        s.threshold_diff_pct, s.time_diff_pct, s.overhead_pct
    );
    // A single SpMV is too cheap to amortize estimation — but nobody runs
    // one SpMV: iterative solvers reuse the threshold across hundreds of
    // products with the same matrix.
    let iters = 100.0;
    let amortized: f64 = rows
        .iter()
        .map(|r| r.overhead_ms / (r.overhead_ms + iters * r.time_estimated_ms) * 100.0)
        .sum::<f64>()
        / rows.len() as f64;
    println!(
        "amortized over {iters} solver iterations the overhead is {amortized:.2}% —          the regime the threshold is actually reused in"
    );
    opts.maybe_dump(&rows);
}
