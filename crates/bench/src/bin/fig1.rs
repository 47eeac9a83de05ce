//! Regenerates Fig. 1: the dense-GEMM motivating study. For square sizes
//! mat.1k … mat.8k, compares the sampling-estimated threshold against the
//! exhaustive best and the FLOPS-ratio NaiveStatic split, with run times —
//! the regular workload where static partitioning already works.

use nbwp_core::prelude::*;
use nbwp_core::report::{threshold_table, time_table};

fn main() {
    let opts = nbwp_bench::Opts::parse();
    // Fig. 1 does not use Table II datasets; sizes mirror the paper's
    // "mat.n" labels (smaller default sizes keep wall time in seconds).
    let platform = Platform::k40c_xeon_e5_2650();
    let sizes = [1024usize, 2048, 4096, 6144, 8192];
    let suite: Vec<(String, DenseGemmWorkload)> = sizes
        .iter()
        .map(|&n| (format!("mat.{n}"), DenseGemmWorkload::new(n, platform)))
        .collect();
    // Race + fine probes, identity extrapolation.
    let rows = run_corpus(&suite, &ExperimentConfig::spmm(opts.seed));

    println!("Fig. 1(a) — thresholds (CPU share %, dense GEMM)");
    println!("{}", threshold_table(&rows));
    println!("Fig. 1(b) — times (simulated ms)");
    println!("{}", time_table(&rows));
    println!("Expected shape: Estimated ≈ Exhaustive ≈ NaiveStatic (regular workload).");
    opts.maybe_dump(&rows);
}
