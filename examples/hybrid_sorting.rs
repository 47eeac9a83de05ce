//! Hybrid sorting (the paper's motivating citation [3]): CPU mergesort +
//! GPU radix, with the radix cost depending on the key distribution — the
//! input dependence the sampling method detects from a small subset.
//!
//! ```sh
//! cargo run --release --example hybrid_sorting
//! ```

use nbwp_core::prelude::*;
use nbwp_sort::gen;

fn main() {
    let n = 100_000;
    let platform = Platform::k40c_xeon_e5_2650().scaled_for(0.05);
    println!("hybrid sort, {n} keys\n");
    for (label, data) in [
        ("uniform 64-bit keys", gen::uniform(n, 42)),
        ("narrow 16-bit keys", gen::narrow_range(n, 42)),
        ("duplicate-heavy keys", gen::duplicates(n, 37, 42)),
    ] {
        let w = SortWorkload::new(data, platform);
        let est = Estimator::new(Strategy::CoarseToFine)
            .seed(7)
            .profiled()
            .run(&w);
        let priced = ProfiledWorkload::new(&w);
        let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&priced);
        let out = w.run_full(est.threshold);
        assert!(
            out.sorted.windows(2).all(|p| p[0] <= p[1]),
            "must be sorted"
        );
        println!(
            "{label:<22} estimated t = {:>5.1} (best {:>3.0}), run {} vs best {}, \
             radix passes on GPU side: {}",
            est.threshold,
            best.best_t,
            out.report.total(),
            best.best_time,
            out.gpu_passes
        );
    }
    println!(
        "\nNarrow/duplicate keys let the radix sort skip constant bytes, which \
         moves the optimal split — a property of the *input*, invisible to any \
         static partitioner and visible to a random sample."
    );
}
