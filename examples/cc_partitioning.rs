//! Case study I walkthrough: hybrid connected components (paper §III) on
//! graphs from three Table II families, comparing the sampling method
//! against every baseline the paper plots.
//!
//! ```sh
//! cargo run --release --example cc_partitioning
//! ```

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;

fn main() {
    let scale = 0.02;
    let seed = 42;
    let platform = Platform::k40c_xeon_e5_2650().scaled_for(scale);

    println!("hybrid CC partitioning across dataset families (scale = {scale})\n");
    for name in ["web-BerkStan", "netherlands_osm", "cant"] {
        let d = Dataset::by_name(name).expect("Table II entry");
        let g = d.graph(scale, seed);
        println!(
            "== {name}: n = {}, m = {} ({:?} family)",
            g.n(),
            g.m(),
            d.family
        );
        let w = CcWorkload::new(g, platform);

        // The methods under comparison, priced on one cost profile.
        let priced = ProfiledWorkload::new(&w);
        let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) })
            .run(&priced)
            .best_t;
        let est = Estimator::new(Strategy::CoarseToFine)
            .seed(seed)
            .profiled()
            .run(&w);
        let stat = naive_static(w.platform());
        let gpu_only_t = w.space().lo;

        let t_of = |t: f64| priced.time_at(t);
        println!("  exhaustive best  t = {best:>5.1}  →  {}", t_of(best));
        println!(
            "  sampling         t = {:>5.1}  →  {}   (overhead {}, {} miniature runs)",
            est.threshold,
            t_of(est.threshold),
            est.overhead,
            est.evaluations
        );
        println!("  NaiveStatic      t = {stat:>5.1}  →  {}", t_of(stat));
        println!(
            "  GPU-only         t = {gpu_only_t:>5.1}  →  {}",
            t_of(gpu_only_t)
        );

        // Verify the algorithm is exact at the chosen threshold: labels
        // must match union-find regardless of the partition.
        let outcome = w.run_full(est.threshold);
        let oracle = nbwp_graph::cc::cc_union_find(w.graph());
        assert_eq!(
            nbwp_graph::normalize_labels(&outcome.labels),
            nbwp_graph::normalize_labels(&oracle),
            "hybrid CC must be exact at any threshold"
        );
        println!(
            "  correctness: {} components, verified against union-find ✓\n",
            outcome.components
        );
    }
    println!(
        "Note how the best threshold moves across families — the effect a \
         FLOPS-ratio split cannot capture and sampling can."
    );
}
