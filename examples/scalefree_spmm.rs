//! Case study III walkthrough: Algorithm HH-CPU on a scale-free matrix
//! (paper §V). Splits rows by density at a threshold `t`, multiplies the
//! four masked partial products on their preferred devices, and recombines
//! — verifying Phase IV reconstructs the exact product.
//!
//! ```sh
//! cargo run --release --example scalefree_spmm
//! ```

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_sparse::masked::DensitySplit;

fn main() {
    let scale = 0.01;
    let seed = 42;
    let platform = Platform::k40c_xeon_e5_2650().scaled_for(scale);

    let d = Dataset::by_name("web-BerkStan").expect("Table II entry");
    let a = d.matrix(scale, seed);
    let w = HhWorkload::new(a.clone(), platform);
    println!(
        "HH-CPU on {}: {} rows, {} nonzeros, max row density {}",
        d.name,
        a.rows(),
        a.nnz(),
        w.max_degree()
    );

    // How the density threshold carves the matrix.
    for t in [2, 8, 64] {
        let split = DensitySplit::at_threshold(&a, t);
        println!(
            "  t = {t:>3}: {:>6} high-density rows → CPU, {:>6} low-density rows → GPU",
            split.n_high,
            split.n_low()
        );
    }

    // Identify on a √n-row sample with gradient descent, extrapolate by
    // degree-quantile matching (≈ the paper's t' × t' law on Pareto tails).
    let est = Estimator::new(Strategy::GradientDescent { max_evals: 24 })
        .seed(seed)
        .profiled()
        .run(&w);
    let priced = ProfiledWorkload::new(&w);
    let best = Searcher::new(Strategy::Exhaustive { step: Some(1.15) }).run(&priced);
    println!(
        "\nsample of {} rows → t' = {:.1}, extrapolated t = {:.0} \
         (exhaustive best t = {:.0})",
        est.sample_size, est.sample_threshold, est.threshold, best.best_t
    );
    println!(
        "times: estimated {}, best {}, all-GPU {}",
        priced.time_at(est.threshold),
        best.best_time,
        priced.time_at(w.max_degree() as f64)
    );

    // Execute all four phases numerically; the call asserts Phase IV equals
    // the plain product.
    let (c, report) = w.run_numeric(est.threshold);
    println!(
        "\nnumeric HH-CPU verified: C = A×A with {} nonzeros; \
         simulated total {} (CPU {}, GPU {}, combine {})",
        c.nnz(),
        report.total(),
        report.breakdown.cpu_compute,
        report.breakdown.gpu_compute,
        report.breakdown.merge
    );
}
