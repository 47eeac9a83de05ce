//! Regenerates Fig. 7 ("Role of Randomness"): for cant and cop20k_A,
//! compares the split percentage estimated from each of four *predetermined*
//! (contiguous, non-random) n/4 × n/4 submatrices against random sampling
//! and the exhaustive best — predetermined samples scatter widely because
//! FEM matrices have regionally varying density.

use nbwp_bench::Opts;
use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_sparse::sample::predetermined_submatrix;

fn main() {
    let opts = Opts::parse();
    let platform = opts.platform();
    println!("Fig. 7 — predetermined vs random sampling (spmm split %, K = 4)");
    println!(
        "{:<12} {:>9} {:>8} | {:>7} {:>7} {:>7} {:>7} | {:>10}",
        "matrix", "Exhaust.", "Random", "blk 0", "blk 1", "blk 2", "blk 3", "max |err|"
    );
    println!("{}", "-".repeat(86));
    let mut dump = Vec::new();
    for name in ["cant", "cop20k_A"] {
        let d = Dataset::by_name(name).expect("registry entry");
        let a = d.matrix(opts.scale, opts.seed);
        let w = SpmmWorkload::new(a.clone(), platform);
        let best = Searcher::new(Strategy::Exhaustive { step: Some(1.0) })
            .profiled()
            .run(&w)
            .best_t;
        let random = Estimator::new(Strategy::RaceThenFine)
            .seed(opts.seed)
            .profiled()
            .run(&w)
            .threshold;
        // Identify on each predetermined diagonal block.
        let mut blocks = Vec::new();
        for b in 0..4 {
            let sub = predetermined_submatrix(&a, 4, b);
            let sw = SpmmWorkload::new(sub, platform);
            let search = Searcher::new(Strategy::RaceThenFine).profiled();
            blocks.push(search.run(&sw).best_t);
        }
        let max_err = blocks
            .iter()
            .map(|t| (t - best).abs())
            .fold(0.0f64, f64::max);
        println!(
            "{:<12} {:>9.1} {:>8.1} | {:>7.1} {:>7.1} {:>7.1} {:>7.1} | {:>10.1}",
            name, best, random, blocks[0], blocks[1], blocks[2], blocks[3], max_err
        );
        let rand_err = (random - best).abs();
        assert!(blocks.iter().all(|t| (t - best).abs() >= 0.0), "sanity");
        dump.push((name, best, random, blocks.clone(), max_err));
        println!(
            "{:<12} random |err| = {:.1}, predetermined spread = {:.1}–{:.1}",
            "",
            rand_err,
            blocks.iter().cloned().fold(f64::INFINITY, f64::min),
            blocks.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
    }
    println!("Expected shape: predetermined estimates scatter; random stays close to Exhaustive.");
    opts.maybe_dump(&dump);
}
