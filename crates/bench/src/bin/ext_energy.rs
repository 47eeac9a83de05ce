//! Extension harness (related work \[30\]): energy-aware partitioning. For
//! each spmm dataset, compares the time-optimal and energy-optimal
//! thresholds and the joules saved by optimizing for energy.

use nbwp_bench::{spmm_suite, Opts};
use nbwp_core::prelude::*;

fn main() {
    let opts = Opts::parse();
    let power = PowerModel::k40c_xeon_e5_2650();
    println!(
        "Energy-aware partitioning, spmm suite (scale = {}, seed = {})\n",
        opts.scale, opts.seed
    );
    println!(
        "{:<16} {:>9} {:>9} {:>11} {:>12} {:>9}",
        "dataset", "t(time)", "t(energy)", "J @ t(time)", "J @ t(energy)", "saved %"
    );
    println!("{}", "-".repeat(72));
    let mut total_saved = 0.0;
    let suite = spmm_suite(&opts);
    for (name, w) in &suite {
        let sweep = exhaustive_energy(w, &power, 1.0);
        let saved = (sweep.joules_at_time_best - sweep.best_joules)
            / sweep.joules_at_time_best.max(1e-12)
            * 100.0;
        total_saved += saved;
        println!(
            "{:<16} {:>9.1} {:>9.1} {:>11.4} {:>12.4} {:>9.2}",
            name,
            sweep.time_best_t,
            sweep.best_t,
            sweep.joules_at_time_best,
            sweep.best_joules,
            saved
        );
    }
    println!("{}", "-".repeat(72));
    println!(
        "average energy saved by energy-aware thresholds: {:.2}%",
        total_saved / suite.len() as f64
    );
    println!("\nExpected shape: energy optima shift CPU-ward (the K40c burns 235 W vs 190 W).");
}
