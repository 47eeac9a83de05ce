//! Extension harness: the fourth case study — hybrid sorting (after the
//! paper's citation \[3\]) across key distributions. Demonstrates the
//! framework's claimed generality: the same Sample → Identify →
//! Extrapolate pipeline, a different heterogeneous algorithm.

use nbwp_bench::Opts;
use nbwp_core::prelude::*;
use nbwp_core::report::{threshold_table, time_table};
use nbwp_sort::gen;

fn main() {
    let opts = Opts::parse();
    // Element count scales like the dataset registry does.
    let n = ((2_000_000.0 * opts.scale) as usize).max(10_000);
    let platform = opts.platform();
    println!(
        "hybrid sort, n = {n} keys, scale = {}, seed = {}\n",
        opts.scale, opts.seed
    );

    let suite: Vec<(String, SortWorkload)> = vec![
        ("uniform-u64".to_string(), gen::uniform(n, opts.seed)),
        ("narrow-16bit".to_string(), gen::narrow_range(n, opts.seed)),
        (
            "nearly-sorted".to_string(),
            gen::nearly_sorted(n, opts.seed),
        ),
        ("dup-heavy".to_string(), gen::duplicates(n, 37, opts.seed)),
    ]
    .into_iter()
    .map(|(name, data)| (name, SortWorkload::new(data, platform)))
    .collect();

    // Coarse-to-fine, identity extrapolation.
    let rows = run_corpus(&suite, &ExperimentConfig::cc(opts.seed));

    println!("thresholds (CPU element share %)");
    println!("{}", threshold_table(&rows));
    println!("times (simulated ms)");
    println!("{}", time_table(&rows));
    println!(
        "Expected shape: distribution-dependent optima (narrow/dup keys → GPU radix \
         skips passes → lower CPU share), tracked by the estimates."
    );
    opts.maybe_dump(&rows);
}
