//! Case study II walkthrough: row-row sparse matrix-matrix multiplication
//! (paper §IV, Algorithm 2). Shows the load-vector split, the race-based
//! identification on an n/4 sample, and the analytic/measured agreement
//! guarantee (the numeric run produces exactly the profiled counters).
//!
//! ```sh
//! cargo run --release --example spmm_partitioning
//! ```

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_sparse::spgemm::spgemm;

fn main() {
    let scale = 0.01;
    let seed = 42;
    let platform = Platform::k40c_xeon_e5_2650().scaled_for(scale);

    let d = Dataset::by_name("cop20k_A").expect("Table II entry");
    let a = d.matrix(scale, seed);
    println!(
        "spmm on {} (A × A): {} rows, {} nonzeros",
        d.name,
        a.rows(),
        a.nnz()
    );
    let w = SpmmWorkload::new(a.clone(), platform);

    // The work-volume split: r% of *work*, not rows (Algorithm 2).
    for r in [10.0, 25.0, 50.0] {
        let row = w.split_row(r);
        println!(
            "  {r:>4.0}% of the multiply-add work = rows 0..{row} \
             ({:.1}% of the rows)",
            100.0 * row as f64 / w.size() as f64
        );
    }

    // Identify via the device race on the n/4 miniature.
    let est = Estimator::new(Strategy::RaceThenFine)
        .seed(seed)
        .profiled()
        .run(&w);
    let priced = ProfiledWorkload::new(&w);
    let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&priced);
    println!(
        "\nrace + fine probes on the n/4 sample → r' = {:.1}% \
         (exhaustive best r = {:.1}%)",
        est.threshold, best.best_t
    );
    println!(
        "times: estimated {}, best {}, GPU-only {}",
        priced.time_at(est.threshold),
        best.best_time,
        priced.time_at(0.0)
    );

    // Execute the partitioned multiply for real and check it against the
    // unpartitioned product; the call also asserts that measured counters
    // equal the analytic profile.
    let (c, report) = w.run_numeric(est.threshold);
    assert_eq!(c, spgemm(&a, &a), "partitioned product must be exact");
    println!(
        "\nnumeric run verified: C = A×A with {} nonzeros; \
         simulated total {} (CPU {}, GPU {})",
        c.nnz(),
        report.total(),
        report.breakdown.cpu_compute,
        report.breakdown.gpu_compute
    );
}
