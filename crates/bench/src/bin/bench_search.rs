//! `bench_search` — wall-clock scaling harness for the parallel execution
//! layer, emitting machine-readable `BENCH_search.json`.
//!
//! Runs the exhaustive and coarse-to-fine threshold searches plus the three
//! hot kernels (Shiloach–Vishkin CC, Gustavson SpGEMM, blocked GEMM) at
//! 1/2/4/8 worker threads, recording best-of-N wall-clock per configuration.
//! At every thread count the *simulated* results (thresholds, eval logs,
//! labels, numeric outputs) are compared against the 1-thread run; any
//! mismatch is reported and the process exits nonzero, so a CI smoke run of
//! this binary doubles as a determinism gate.
//!
//! Wall-clock numbers are only meaningful relative to the recorded
//! `available_parallelism`: on a single-core container every thread count
//! collapses onto one CPU and speedups hover near (or below) 1.0.
//!
//! Usage: `bench_search [--quick] [--out <path>] [--seed <u64>]`

use nbwp_bench::harness::{available_parallelism, best_ms, finish, write_report, GateOpts};
use nbwp_core::prelude::*;
use nbwp_dense::gemm::gemm_parallel;
use nbwp_dense::DenseMatrix;
use nbwp_graph::cc::cc_sv;
use nbwp_graph::gen as graph_gen;
use nbwp_sparse::gen as sparse_gen;
use nbwp_sparse::spgemm::spgemm_parallel;
use serde::Serialize;

/// Worker counts swept by every benchmark.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct Entry {
    bench: String,
    threads: usize,
    wall_ms: f64,
    speedup_vs_1: f64,
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    available_parallelism: usize,
    quick: bool,
    seed: u64,
    thread_counts: Vec<usize>,
    repetitions: usize,
    /// `"enforced"` when the host has more than one hardware thread (some
    /// multi-threaded configuration must then beat 1 thread), or
    /// `"skipped (available_parallelism == 1)"` on single-core hosts, where
    /// every speedup is vacuously ≈1.0 and a gate would be meaningless.
    speedup_gate: String,
    deterministic: bool,
    mismatches: Vec<String>,
    entries: Vec<Entry>,
}

/// Times `run` at every thread count (best of `reps`), appending one entry
/// per count and recording a mismatch if any digest differs from 1 thread.
fn sweep<D: PartialEq>(
    name: &str,
    reps: usize,
    entries: &mut Vec<Entry>,
    mismatches: &mut Vec<String>,
    run: impl Fn(usize) -> D,
) {
    let mut baseline: Option<(D, f64)> = None;
    for &t in &THREAD_COUNTS {
        let mut digest = None;
        let best_ms = best_ms(reps, || digest = Some(run(t)));
        let digest = digest.expect("at least one repetition");
        match &baseline {
            None => baseline = Some((digest, best_ms)),
            Some((reference, _)) => {
                if *reference != digest {
                    mismatches.push(format!(
                        "{name}: simulated result at {t} threads differs from 1 thread"
                    ));
                }
            }
        }
        let speedup = baseline
            .as_ref()
            .map_or(1.0, |(_, base_ms)| base_ms / best_ms);
        eprintln!("  {name:<22} threads={t}: {best_ms:8.2} ms  (x{speedup:.2} vs 1)");
        entries.push(Entry {
            bench: name.to_string(),
            threads: t,
            wall_ms: best_ms,
            speedup_vs_1: speedup,
        });
    }
}

/// Simulated-result digest of a search outcome: bitwise thresholds plus the
/// full evaluation log, so any reordering or numeric drift is caught.
fn search_digest(outcome: &SearchOutcome) -> (u64, SimTime, SimTime, Vec<(u64, SimTime)>) {
    (
        outcome.best_t.to_bits(),
        outcome.best_time,
        outcome.search_cost,
        outcome
            .evals
            .iter()
            .map(|&(t, time)| (t.to_bits(), time))
            .collect(),
    )
}

fn main() {
    let args = GateOpts::parse("bench_search", "BENCH_search.json", &[]);
    let reps = if args.quick { 1 } else { 3 };
    let (search_rows, graph_n, spgemm_n, gemm_n) = if args.quick {
        (8_000, 280_000, 30_000, 160)
    } else {
        (150_000, 400_000, 120_000, 384)
    };
    let cores = available_parallelism();
    eprintln!(
        "bench_search: {} mode, seed {}, {} hardware thread(s), best of {} rep(s)",
        if args.quick { "quick" } else { "full" },
        args.seed,
        cores,
        reps
    );

    let mut entries = Vec::new();
    let mut mismatches = Vec::new();

    eprintln!("building inputs...");
    let platform = Platform::k40c_xeon_e5_2650();
    let spmm = SpmmWorkload::new(
        sparse_gen::uniform_random(search_rows, 12, args.seed),
        platform,
    );
    let web = graph_gen::web(graph_n, 8, args.seed);
    let spgemm_a = sparse_gen::power_law(spgemm_n, 10, 2.5, args.seed);
    let gemm_a = DenseMatrix::random(gemm_n, gemm_n, args.seed);
    let gemm_b = DenseMatrix::random(gemm_n, gemm_n, args.seed.wrapping_add(1));

    sweep(
        "search.exhaustive",
        reps,
        &mut entries,
        &mut mismatches,
        |t| {
            let pool = Pool::new(t);
            search_digest(
                &Searcher::new(Strategy::Exhaustive { step: Some(1.0) })
                    .pool(&pool)
                    .run(&spmm),
            )
        },
    );
    sweep(
        "search.coarse_to_fine",
        reps,
        &mut entries,
        &mut mismatches,
        |t| {
            let pool = Pool::new(t);
            search_digest(&Searcher::new(Strategy::CoarseToFine).pool(&pool).run(&spmm))
        },
    );
    sweep("kernel.cc_sv", reps, &mut entries, &mut mismatches, |t| {
        let out = cc_sv(&web, t);
        (out.labels, out.rounds, out.doubling_passes, out.stats)
    });
    sweep("kernel.spgemm", reps, &mut entries, &mut mismatches, |t| {
        spgemm_parallel(&spgemm_a, &spgemm_a, t)
    });
    sweep("kernel.gemm", reps, &mut entries, &mut mismatches, |t| {
        gemm_parallel(&gemm_a, &gemm_b, t).data().to_vec()
    });

    let deterministic = mismatches.is_empty();

    // Speedup gate: only meaningful with real parallel hardware. On a
    // single-core host every thread count collapses onto one CPU, so the
    // gate is noted as skipped rather than asserted vacuously.
    let speedup_gate = if cores == 1 {
        eprintln!("speedup gate: skipped (available_parallelism == 1; speedups are vacuous)");
        "skipped (available_parallelism == 1)".to_string()
    } else {
        let best = entries
            .iter()
            .filter(|e| e.threads > 1)
            .map(|e| e.speedup_vs_1)
            .fold(0.0f64, f64::max);
        if best < 1.1 {
            mismatches.push(format!(
                "speedup gate: no multi-threaded configuration beat 1 thread \
                 (best x{best:.2} < x1.1 with {cores} hardware threads)"
            ));
        } else {
            eprintln!("speedup gate: enforced (best multi-threaded speedup x{best:.2})");
        }
        "enforced".to_string()
    };

    let report = Report {
        schema: "nbwp-bench-search/v1",
        available_parallelism: cores,
        quick: args.quick,
        seed: args.seed,
        thread_counts: THREAD_COUNTS.to_vec(),
        repetitions: reps,
        speedup_gate,
        deterministic,
        mismatches: mismatches.clone(),
        entries,
    };
    write_report(&args.out, &report);
    finish(
        &mismatches,
        "BENCH VIOLATION",
        "all simulated results identical across thread counts",
    );
}
