//! Trace capture: record the full Sample → Identify → Extrapolate pipeline
//! with `nbwp-trace` and export it for Perfetto / `chrome://tracing`.
//!
//! ```sh
//! cargo run --release --example trace_capture -- nbwp-trace.json
//! ```
//!
//! Then open <https://ui.perfetto.dev> and drag the JSON in. The same
//! capture is available from the CLI as
//! `nbwp estimate cc --input graph.mtx --trace-out nbwp-trace.json`.

use nbwp_core::prelude::*;
use nbwp_graph::gen;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "nbwp-trace.json".to_string());

    // 1. The quickstart workload: a web graph on the K40c + Xeon platform.
    let graph = gen::web(50_000, 8, 42);
    let workload = CcWorkload::new(graph, Platform::k40c_xeon_e5_2650());

    // 2. The same estimate, but observed by a Recorder:
    //    every pipeline phase, candidate evaluation, and device lane
    //    becomes a span on the simulated clock.
    let rec = Recorder::new();
    let est = Estimator::new(Strategy::CoarseToFine)
        .seed(7)
        .recorder(&rec)
        .profiled()
        .run(&workload);
    let trace = rec.finish();
    println!(
        "estimated threshold {:.0}% in {} evaluations ({} overhead)\n",
        est.threshold, est.evaluations, est.overhead
    );

    // 3. The human-readable summary: per-phase totals, device lanes with
    //    utilization bars, and the metrics snapshot.
    println!("{}", trace.summary(60));

    // 4. Chrome-trace JSON for Perfetto. `to_jsonl()` gives the same data
    //    as line-delimited JSON for programmatic consumers.
    std::fs::write(&out, trace.to_chrome_trace()).expect("write trace");
    println!(
        "wrote {} spans to {out} — open it at https://ui.perfetto.dev",
        trace.spans.len()
    );
}
