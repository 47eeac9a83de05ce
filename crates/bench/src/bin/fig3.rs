//! Regenerates Fig. 3: CC thresholds (a) and times (b) across the Table II
//! graphs — Estimated vs Exhaustive vs NaiveStatic vs NaiveAverage, with the
//! GPU-only homogeneous baseline and estimation overheads.

use nbwp_bench::{cc_suite, Opts};
use nbwp_core::prelude::*;
use nbwp_core::report::{threshold_table, time_table};

fn main() {
    let opts = Opts::parse();
    eprintln!("fig3: scale = {}, seed = {}", opts.scale, opts.seed);
    let suite = cc_suite(&opts);
    let rows = run_corpus(&suite, &ExperimentConfig::cc(opts.seed));

    println!("Fig. 3(a) — CC thresholds (CPU vertex share %)");
    println!("{}", threshold_table(&rows));
    println!("Fig. 3(b) — CC times (simulated ms; GpuOnly = paper's 'Naive')");
    println!("{}", time_table(&rows));
    let s = summarize("CC", &rows);
    println!(
        "averages: threshold diff {:.2}% (paper 7.5), time diff {:.2}% (paper 4), overhead {:.2}% (paper 9)",
        s.threshold_diff_pct, s.time_diff_pct, s.overhead_pct
    );
    opts.maybe_dump(&rows);
}
