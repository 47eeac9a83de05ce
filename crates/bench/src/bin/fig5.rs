//! Regenerates Fig. 5: spmm split percentages (a) and times (b) across the
//! Table II matrices (`A × A`).

use nbwp_bench::{spmm_suite, Opts};
use nbwp_core::prelude::*;
use nbwp_core::report::{threshold_table, time_table};

fn main() {
    let opts = Opts::parse();
    eprintln!("fig5: scale = {}, seed = {}", opts.scale, opts.seed);
    let suite = spmm_suite(&opts);
    let rows = run_corpus(&suite, &ExperimentConfig::spmm(opts.seed));

    println!("Fig. 5(a) — spmm split percentages (CPU work share %)");
    println!("{}", threshold_table(&rows));
    println!("Fig. 5(b) — spmm times (simulated ms)");
    println!("{}", time_table(&rows));
    let s = summarize("spmm", &rows);
    println!(
        "averages: threshold diff {:.2}% (paper 10.6), time diff {:.2}% (paper 19.1), overhead {:.2}% (paper 13)",
        s.threshold_diff_pct, s.time_diff_pct, s.overhead_pct
    );
    opts.maybe_dump(&rows);
}
