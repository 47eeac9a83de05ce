//! Extension harness: the fifth case study — hybrid list ranking (the
//! second algorithm of the paper's citation \[5\]). The threshold is the
//! splitter fraction; its optimum moves with the input's list structure.

use nbwp_bench::Opts;
use nbwp_core::prelude::*;
use nbwp_core::report::{threshold_table, time_table};
use nbwp_graph::list::LinkedLists;

fn main() {
    let opts = Opts::parse();
    let n = ((4_000_000.0 * opts.scale) as usize).max(10_000);
    let platform = opts.platform();
    println!(
        "hybrid list ranking, n = {n} nodes, scale = {}, seed = {}\n",
        opts.scale, opts.seed
    );

    let suite: Vec<(String, ListRankingWorkload)> = [1usize, 4, 64, 1024]
        .iter()
        .map(|&lists| {
            let name = format!("{lists}-list(s)");
            let w = ListRankingWorkload::new(
                LinkedLists::random(n, lists.min(n), opts.seed),
                platform,
                opts.seed,
            );
            (name, w)
        })
        .collect();

    let rows = run_corpus(&suite, &ExperimentConfig::cc(opts.seed));

    println!("thresholds (splitter share %)");
    println!("{}", threshold_table(&rows));
    println!("times (simulated ms)");
    println!("{}", time_table(&rows));
    println!(
        "Expected shape: interior optima that shrink as the input already \
         contains more independent lists (free parallelism needs fewer splitters)."
    );
    opts.maybe_dump(&rows);
}
