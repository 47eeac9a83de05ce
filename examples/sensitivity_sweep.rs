//! Sample-size sensitivity (the trade-off behind Figs. 4/6/9): sweep the
//! miniature's size from a quarter of the paper's default to four times it
//! and watch estimation cost rise while estimate quality saturates.
//!
//! ```sh
//! cargo run --release --example sensitivity_sweep
//! ```

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;

fn main() {
    let scale = 0.02;
    let seed = 42;
    let platform = Platform::k40c_xeon_e5_2650().scaled_for(scale);
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0];

    let d = Dataset::by_name("webbase-1M").expect("Table II entry");
    let w = CcWorkload::new(d.graph(scale, seed), platform);
    let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) })
        .profiled()
        .run(&w);
    println!(
        "CC on {} (n = {}), exhaustive best t = {:.0} at {}\n",
        d.name,
        w.size(),
        best.best_t,
        best.best_time
    );
    println!(
        "{:>7} {:>12} {:>14} {:>12} {:>11} {:>10}",
        "factor", "sample size", "estimation", "threshold", "|t - t*|", "total"
    );
    let points = sensitivity(&w, &factors, Strategy::CoarseToFine, seed);
    for p in &points {
        println!(
            "{:>7.2} {:>12} {:>12.2}ms {:>12.1} {:>11.1} {:>8.2}ms",
            p.factor,
            p.sample_size,
            p.estimation_ms,
            p.estimated_t,
            (p.estimated_t - best.best_t).abs(),
            p.total_ms
        );
    }
    let best_point = points
        .iter()
        .min_by(|a, b| a.total_ms.total_cmp(&b.total_ms))
        .expect("non-empty sweep");
    println!(
        "\nminimum total time at factor {:.2} — the paper picks √n (factor 1.0) \
         and our curve agrees within its flat basin",
        best_point.factor
    );
}
