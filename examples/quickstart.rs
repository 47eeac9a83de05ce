//! Quickstart: estimate a near-balanced work partition for a heterogeneous
//! connected-components run in a dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nbwp_core::prelude::*;
use nbwp_graph::gen;

fn main() {
    // 1. A web-graph input and the paper's K40c + Xeon platform.
    let graph = gen::web(50_000, 8, 42);
    let platform = Platform::k40c_xeon_e5_2650();
    let workload = CcWorkload::new(graph, platform);

    // 2. Sample → Identify → Extrapolate: pick the CPU/GPU split threshold
    //    from a √n-sized miniature of the input.
    //    Every miniature run is priced on a cost profile of the sample.
    let est = Estimator::new(Strategy::CoarseToFine)
        .seed(7)
        .profiled()
        .run(&workload);
    println!(
        "sampling recommends giving the CPU {:.0}% of the vertices \
         (found in {} miniature runs, {} estimation overhead)",
        est.threshold, est.evaluations, est.overhead
    );

    // 3. Compare with what an exhaustive search would have found, priced
    //    on one cost profile of the full input.
    let priced = ProfiledWorkload::new(&workload);
    let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&priced);
    println!(
        "exhaustive search (101 full runs!) says {:.0}%",
        best.best_t
    );

    // 4. Run the hybrid algorithm at the estimated threshold.
    let outcome = workload.run_full(est.threshold);
    println!(
        "hybrid CC at the estimated threshold: {} components in {} \
         (vs {} at the exhaustive threshold, {} GPU-only)",
        outcome.components,
        outcome.report.total(),
        best.best_time,
        priced.time_at(0.0),
    );

    let penalty = priced.time_at(est.threshold).pct_diff_from(best.best_time);
    println!("time penalty vs the best possible threshold: {penalty:.1}%");
}
