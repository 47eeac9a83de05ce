//! Regenerates Table I: workload-level averages of threshold difference,
//! time difference, and estimation overhead for CC, spmm, and scale-free
//! spmm. Also prints the chunked-dynamic and history baselines discussed in
//! the related-work comparison.

use nbwp_bench::{cc_suite, hh_suite, spmm_suite, Opts};
use nbwp_core::prelude::*;
use nbwp_core::report::summary_table;

fn main() {
    let opts = Opts::parse();
    eprintln!("table1: scale = {}, seed = {}", opts.scale, opts.seed);

    eprintln!("CC suite...");
    let cc = cc_suite(&opts);
    let cc_rows = run_corpus(&cc, &ExperimentConfig::cc(opts.seed));

    eprintln!("spmm suite...");
    let spmm = spmm_suite(&opts);
    let spmm_rows = run_corpus(&spmm, &ExperimentConfig::spmm(opts.seed));

    eprintln!("scale-free spmm suite...");
    let hh = hh_suite(&opts);
    let hh_rows = run_corpus(&hh, &ExperimentConfig::scalefree(opts.seed));

    let summaries = vec![
        summarize("CC", &cc_rows),
        summarize("spmm", &spmm_rows),
        summarize("Scale-free spmm", &hh_rows),
    ];
    println!("\nTable I — sampling technique across three workloads");
    println!("{}", summary_table(&summaries));
    println!("(paper reports: CC 7.5/4/9, spmm 10.6/19.1/13, scale-free 5.25/6.01/1)");

    opts.maybe_dump(&(cc_rows, spmm_rows, hh_rows, summaries));
}
