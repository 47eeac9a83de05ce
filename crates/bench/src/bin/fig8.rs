//! Regenerates Fig. 8: HH-CPU (scale-free spmm) thresholds (a) and times
//! (b) on the scale-free subset of Table II.

use nbwp_bench::{hh_suite, Opts};
use nbwp_core::prelude::*;
use nbwp_core::report::{threshold_table, time_table};

fn main() {
    let opts = Opts::parse();
    eprintln!("fig8: scale = {}, seed = {}", opts.scale, opts.seed);
    let suite = hh_suite(&opts);
    let rows = run_corpus(&suite, &ExperimentConfig::scalefree(opts.seed));

    println!("Fig. 8(a) — HH-CPU density thresholds (nonzeros/row; |diff| = % of log axis)");
    println!("{}", threshold_table(&rows));
    println!("Fig. 8(b) — HH-CPU times (simulated ms)");
    println!("{}", time_table(&rows));
    let s = summarize("Scale-free spmm", &rows);
    println!(
        "averages: threshold diff {:.2}% (paper 5.25), time diff {:.2}% (paper 6.01), overhead {:.2}% (paper 1)",
        s.threshold_diff_pct, s.time_diff_pct, s.overhead_pct
    );
    opts.maybe_dump(&rows);
}
