//! Extension harness: full related-work comparison on the spmm suite —
//! the sampling method vs NaiveStatic (FLOPS), NaiveAverage, Qilin-style
//! history (trained on qcd5_4, the most regular input), and Boyer-style
//! chunked-dynamic scheduling with per-chunk communication overhead.

use nbwp_bench::{spmm_suite, Opts};
use nbwp_core::baselines::{chunked_dynamic, naive_static_for, HistoryBased};
use nbwp_core::prelude::*;

fn main() {
    let opts = Opts::parse();
    println!(
        "Related-work comparison, spmm suite (simulated ms), scale = {}, seed = {}\n",
        opts.scale, opts.seed
    );
    let suite = spmm_suite(&opts);

    // Train the history baseline once, on the most regular input (its
    // training run is an exhaustive search, like Qilin's first run).
    let mut history = HistoryBased::new();
    let qcd = suite
        .iter()
        .find(|(n, _)| *n == "qcd5_4")
        .map(|(_, w)| w)
        .expect("registry");
    let history_t = history.threshold_for(&ProfiledWorkload::new(qcd));
    println!("history baseline trained on qcd5_4 → t = {history_t:.0}\n");

    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "dataset", "Exhaust.", "Sampling", "Static", "History", "Dynamic", "Dyn+ovh"
    );
    println!("{}", "-".repeat(78));
    let (mut s_pen, mut st_pen, mut h_pen, mut d_pen) = (0.0, 0.0, 0.0, 0.0);
    for (name, w) in &suite {
        // Every baseline is priced on one cost profile of the input.
        let pw = ProfiledWorkload::new(w);
        let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&pw);
        let est = Estimator::new(Strategy::RaceThenFine)
            .seed(opts.seed)
            .profiled()
            .run(w);
        let t_sampling = pw.time_at(est.threshold);
        let t_static = pw.time_at(naive_static_for(&pw));
        let t_history = pw.time_at(history.threshold_for(&pw));
        let t_dyn_free = chunked_dynamic(&pw, 32, SimTime::ZERO);
        let t_dyn = chunked_dynamic(&pw, 32, SimTime::from_micros(100.0));
        println!(
            "{:<16} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            name,
            best.best_time.as_millis(),
            t_sampling.as_millis(),
            t_static.as_millis(),
            t_history.as_millis(),
            t_dyn_free.as_millis(),
            t_dyn.as_millis(),
        );
        s_pen += t_sampling.pct_diff_from(best.best_time);
        st_pen += t_static.pct_diff_from(best.best_time);
        h_pen += t_history.pct_diff_from(best.best_time);
        d_pen += t_dyn.pct_diff_from(best.best_time);
    }
    let k = suite.len() as f64;
    println!("{}", "-".repeat(78));
    println!(
        "avg penalty vs exhaustive: sampling {:.1}%, static {:.1}%, history {:.1}%, dynamic(+ovh) {:.1}%",
        s_pen / k,
        st_pen / k,
        h_pen / k,
        d_pen / k
    );
    println!(
        "\nExpected shape: sampling < history/static; dynamic competitive only without overhead."
    );
}
