//! `bench_profile` — profile-build throughput and allocation gate,
//! emitting machine-readable `BENCH_profile.json`.
//!
//! The scratch-arena profile builders (`ProfileScratch`; every curve build
//! is a whole-span patch of zeroed buffers: fused `RowCurves::new_in`,
//! batched `CcCostProfile::new_in`) promise three things, and this harness
//! checks all of them:
//!
//! 1. **Parity** — the rebuilt curves are bitwise identical to both the
//!    current fresh builders and a faithful reimplementation of the pre-arena
//!    builders (collect-per-counter prefix sums, `VecDeque` sliding-window
//!    pad, per-arc CC histogram loop, pooled HH class list). Enforced in
//!    every mode; any difference exits nonzero.
//! 2. **Zero allocation** — a steady-state rebuild through a warmed
//!    `ProfileScratch` performs no heap allocation, counted by the
//!    crate-wide `alloc_meter` global allocator. Enforced in every mode.
//! 3. **Throughput** — the steady-state build is at least 2x faster than
//!    the pre-arena builder on the cc and spmm workloads and 1.1x on hh
//!    (single-threaded, best-of-N). Enforced in full mode; reported in
//!    `--quick`.
//!
//! Usage: `bench_profile [--quick] [--out <path>] [--seed <u64>]`

use std::time::Instant;

use nbwp_bench::alloc_meter;
use nbwp_bench::harness::{
    available_parallelism, best_ms, finish, gate_min, write_report, GateOpts, GateResult,
};
use nbwp_core::prelude::*;
use nbwp_graph::cc::CcCostProfile;
use nbwp_graph::gen as graph_gen;
use nbwp_sim::ProfileScratch;
use nbwp_sparse::gen as sparse_gen;
use nbwp_sparse::spgemm::{row_profile, RowCurves};
use serde::Serialize;

/// Faithful reimplementations of the pre-arena profile builders, kept here
/// (not in the library crates) so the shipped builders stay singular. Each
/// returns the raw curve arrays so parity against the current builders is a
/// plain slice comparison.
mod baseline {
    use std::collections::VecDeque;

    use nbwp_core::prelude::Pool;
    use nbwp_graph::Graph;
    use nbwp_sim::AlignedU64s;
    use nbwp_sparse::spgemm::{RowCost, WARP};
    use nbwp_sparse::Csr;

    /// The three arrays of a `WarpPadCurve`, built the pre-arena way:
    /// push-based forward pass with a `%` per item, then a backward
    /// sliding-window max via a monotonic `VecDeque` of indices.
    pub struct PadArrays {
        pub full_warp_prefix: Vec<u64>,
        pub running_max: Vec<u64>,
        pub suffix_pad: Vec<u64>,
    }

    pub fn warp_pad(work: &[u64], warp: usize) -> PadArrays {
        let n = work.len();
        let mut full_warp_prefix = Vec::with_capacity(n / warp + 1);
        full_warp_prefix.push(0);
        let mut running_max = Vec::with_capacity(n);
        let mut chunk_max = 0u64;
        for (i, &w) in work.iter().enumerate() {
            if i % warp == 0 {
                chunk_max = 0;
            }
            chunk_max = chunk_max.max(w);
            running_max.push(chunk_max);
            if (i + 1) % warp == 0 {
                let prev = *full_warp_prefix.last().expect("seeded with 0");
                full_warp_prefix.push(prev + chunk_max * warp as u64);
            }
        }
        let mut suffix_pad = vec![0u64; n + 1];
        let mut deque: VecDeque<usize> = VecDeque::new();
        for i in (0..n).rev() {
            while let Some(&back) = deque.back() {
                if work[back] <= work[i] {
                    deque.pop_back();
                } else {
                    break;
                }
            }
            deque.push_back(i);
            while let Some(&front) = deque.front() {
                if front >= i + warp {
                    deque.pop_front();
                } else {
                    break;
                }
            }
            let window_max = work[*deque.front().expect("just pushed i")];
            let next = (i + warp).min(n);
            suffix_pad[i] = window_max * warp as u64 + suffix_pad[next];
        }
        PadArrays {
            full_warp_prefix,
            running_max,
            suffix_pad,
        }
    }

    /// The four arrays of `RowCurves`, built the pre-arena way: one
    /// collected `Vec` per counter, then a push-based prefix sum over each.
    pub struct SpmmArrays {
        pub a_nnz: Vec<u64>,
        pub b_entries: Vec<u64>,
        pub c_nnz: Vec<u64>,
        pub pad: PadArrays,
    }

    fn prefix(items: &[u64]) -> Vec<u64> {
        let mut prefix = Vec::with_capacity(items.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for &v in items {
            acc += v;
            prefix.push(acc);
        }
        prefix
    }

    pub fn row_curves(costs: &[RowCost]) -> SpmmArrays {
        let a_nnz: Vec<u64> = costs.iter().map(|c| c.a_nnz).collect();
        let b_entries: Vec<u64> = costs.iter().map(|c| c.b_entries).collect();
        let c_nnz: Vec<u64> = costs.iter().map(|c| c.c_nnz).collect();
        let per_row_flops: Vec<u64> = costs.iter().map(RowCost::flops).collect();
        SpmmArrays {
            a_nnz: prefix(&a_nnz),
            b_entries: prefix(&b_entries),
            c_nnz: prefix(&c_nnz),
            pad: warp_pad(&per_row_flops, WARP),
        }
    }

    /// The `(arcs_gpu, cross)` curves of `CcCostProfile`, built the
    /// pre-arena way: fresh `vec!`s and one branchy pass over every arc.
    pub fn cc_curves(g: &Graph) -> (Vec<u64>, Vec<u64>) {
        let n = g.n();
        let mut min_hist = vec![0u64; n + 1];
        let mut cross_diff = vec![0i64; n + 2];
        for u in 0..n {
            for &v in g.neighbors(u) {
                let v = v as usize;
                min_hist[u.min(v)] += 1;
                if u < v {
                    cross_diff[u + 1] += 1;
                    cross_diff[v + 1] -= 1;
                }
            }
        }
        let mut arcs_gpu = vec![0u64; n + 1];
        for s in (0..n).rev() {
            arcs_gpu[s] = arcs_gpu[s + 1] + min_hist[s];
        }
        let mut cross = vec![0u64; n + 1];
        let mut acc = 0i64;
        for (s, slot) in cross.iter_mut().enumerate() {
            acc += cross_diff[s];
            *slot = acc as u64;
        }
        (arcs_gpu, cross)
    }

    /// The HH degree-class list, built the pooled way: per-chunk row-degree
    /// collects on `pool`, flattened, sorted, deduplicated, and copied into
    /// an `AlignedU64s`.
    pub fn hh_classes(a: &Csr, pool: &Pool) -> AlignedU64s {
        let n = a.rows();
        let parts = pool.threads().max(1);
        let mut classes: Vec<u64> = pool
            .map_chunks(n, parts, |range| {
                range.map(|r| a.row_nnz(r) as u64).collect::<Vec<u64>>()
            })
            .into_iter()
            .flatten()
            .collect();
        classes.sort_unstable();
        classes.dedup();
        AlignedU64s::from(&classes[..])
    }
}

#[derive(Serialize)]
struct Entry {
    workload: String,
    size: usize,
    baseline_build_ms: f64,
    fresh_build_ms: f64,
    steady_build_ms: f64,
    speedup_steady_vs_baseline: f64,
    steady_allocs: u64,
    steady_alloc_bytes: u64,
    parity: bool,
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    quick: bool,
    seed: u64,
    repetitions: usize,
    available_parallelism: usize,
    exact: bool,
    mismatches: Vec<String>,
    gates: Vec<GateResult>,
    entries: Vec<Entry>,
}

/// Best-of-`reps` wall-clock of `f` plus the allocation traffic of its
/// *worst* repetition (so a single allocating rebuild cannot hide).
fn best_ms_counting(reps: usize, mut f: impl FnMut()) -> (f64, u64, u64) {
    let mut best = f64::INFINITY;
    let (mut max_allocs, mut max_bytes) = (0u64, 0u64);
    for _ in 0..reps {
        let started = Instant::now();
        let ((), allocs, bytes) = alloc_meter::measure(&mut f);
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
        max_allocs = max_allocs.max(allocs);
        max_bytes = max_bytes.max(bytes);
    }
    (best, max_allocs, max_bytes)
}

fn push_entry(
    entries: &mut Vec<Entry>,
    gates: &mut Vec<GateResult>,
    mismatches: &mut Vec<String>,
    entry: Entry,
    required_speedup: f64,
    enforce: bool,
) {
    if !entry.parity {
        mismatches.push(format!(
            "{}: scratch-built curves differ from baseline/fresh builds",
            entry.workload
        ));
    }
    if entry.steady_allocs > 0 {
        mismatches.push(format!(
            "{}: steady-state rebuild allocated {} time(s) / {} bytes (expected 0)",
            entry.workload, entry.steady_allocs, entry.steady_alloc_bytes
        ));
    }
    gates.push(gate_min(
        &format!("{}.steady_vs_baseline", entry.workload),
        entry.speedup_steady_vs_baseline,
        required_speedup,
        enforce,
        "wall-clock gates are skipped in --quick mode",
        mismatches,
    ));
    eprintln!(
        "  {:<6} n = {:>7} | baseline {:8.3} ms | fresh {:8.3} ms | steady {:8.3} ms | x{:.2} | steady allocs {}",
        entry.workload,
        entry.size,
        entry.baseline_build_ms,
        entry.fresh_build_ms,
        entry.steady_build_ms,
        entry.speedup_steady_vs_baseline,
        entry.steady_allocs,
    );
    entries.push(entry);
}

fn main() {
    let args = GateOpts::parse("bench_profile", "BENCH_profile.json", &[]);
    let reps = if args.quick { 3 } else { 5 };
    let (cc_n, spmm_n, hh_n) = if args.quick {
        (40_000, 60_000, 8_000)
    } else {
        (150_000, 250_000, 30_000)
    };
    // Throughput is a full-mode gate: quick mode runs on inputs small enough
    // that timer noise could flake CI, so it only reports the ratio.
    let gate_speedup = !args.quick;
    eprintln!(
        "bench_profile: {} mode, seed {}, best of {} rep(s), single-threaded builds",
        if args.quick { "quick" } else { "full" },
        args.seed,
        reps
    );

    let platform = Platform::k40c_xeon_e5_2650();
    let mut entries = Vec::new();
    let mut gates = Vec::new();
    let mut mismatches = Vec::new();

    eprintln!("building inputs...");
    let g = graph_gen::web(cc_n, 8, args.seed);
    let a = sparse_gen::uniform_random(spmm_n, 12, args.seed);
    let costs = row_profile(&a, &a);
    let b_bytes = a.size_bytes();
    let hh = HhWorkload::new(sparse_gen::power_law(hh_n, 10, 2.1, args.seed), platform);

    // --- cc: split-indexed arc curves --------------------------------------
    {
        let baseline_ms = best_ms(reps, || {
            std::hint::black_box(baseline::cc_curves(&g));
        });
        let fresh_ms = best_ms(reps, || {
            std::hint::black_box(CcCostProfile::new(&g));
        });
        let mut scratch = ProfileScratch::new();
        CcCostProfile::new_in(&g, &mut scratch).recycle(&mut scratch);
        let (steady_ms, allocs, bytes) = best_ms_counting(reps, || {
            let p = CcCostProfile::new_in(&g, &mut scratch);
            std::hint::black_box(&p);
            p.recycle(&mut scratch);
        });
        let (base_arcs, base_cross) = baseline::cc_curves(&g);
        let steady = CcCostProfile::new_in(&g, &mut scratch);
        let fresh = CcCostProfile::new(&g);
        let parity = steady.raw_curves() == (&base_arcs[..], &base_cross[..])
            && steady.raw_curves() == fresh.raw_curves();
        push_entry(
            &mut entries,
            &mut gates,
            &mut mismatches,
            Entry {
                workload: "cc".into(),
                size: cc_n,
                baseline_build_ms: baseline_ms,
                fresh_build_ms: fresh_ms,
                steady_build_ms: steady_ms,
                speedup_steady_vs_baseline: baseline_ms / steady_ms.max(1e-9),
                steady_allocs: allocs,
                steady_alloc_bytes: bytes,
                parity,
            },
            2.0,
            gate_speedup,
        );
    }

    // --- spmm: fused RowCurves over the per-row cost profile ----------------
    {
        let baseline_ms = best_ms(reps, || {
            std::hint::black_box(baseline::row_curves(&costs));
        });
        let fresh_ms = best_ms(reps, || {
            std::hint::black_box(RowCurves::new(&costs, b_bytes));
        });
        let mut scratch = ProfileScratch::new();
        RowCurves::new_in(&costs, b_bytes, &mut scratch).recycle(&mut scratch);
        let (steady_ms, allocs, bytes) = best_ms_counting(reps, || {
            let c = RowCurves::new_in(&costs, b_bytes, &mut scratch);
            std::hint::black_box(&c);
            c.recycle(&mut scratch);
        });
        let base = baseline::row_curves(&costs);
        let steady = RowCurves::new_in(&costs, b_bytes, &mut scratch);
        let (fwp, rm, sp) = steady.pad().raw_parts();
        let parity = steady.a_nnz().as_prefix_slice() == &base.a_nnz[..]
            && steady.b_entries().as_prefix_slice() == &base.b_entries[..]
            && steady.c_nnz().as_prefix_slice() == &base.c_nnz[..]
            && fwp == &base.pad.full_warp_prefix[..]
            && rm == &base.pad.running_max[..]
            && sp == &base.pad.suffix_pad[..]
            && steady == RowCurves::new(&costs, b_bytes);
        push_entry(
            &mut entries,
            &mut gates,
            &mut mismatches,
            Entry {
                workload: "spmm".into(),
                size: spmm_n,
                baseline_build_ms: baseline_ms,
                fresh_build_ms: fresh_ms,
                steady_build_ms: steady_ms,
                speedup_steady_vs_baseline: baseline_ms / steady_ms.max(1e-9),
                steady_allocs: allocs,
                steady_alloc_bytes: bytes,
                parity,
            },
            2.0,
            gate_speedup,
        );
    }

    // --- hh: degree-class profile (workload-level build) --------------------
    {
        let pool = Pool::global();
        let baseline_ms = best_ms(reps, || {
            std::hint::black_box(baseline::hh_classes(hh.matrix(), pool));
        });
        let fresh_ms = best_ms(reps, || {
            let mut cold = ProfileScratch::new();
            let p = hh.build_profile_in(pool, &mut cold);
            std::hint::black_box(&p);
        });
        let mut scratch = ProfileScratch::new();
        let warmup = hh.build_profile_in(pool, &mut scratch);
        hh.recycle_profile(warmup, &mut scratch);
        let (steady_ms, allocs, bytes) = best_ms_counting(reps, || {
            let p = hh.build_profile_in(pool, &mut scratch);
            std::hint::black_box(&p);
            hh.recycle_profile(p, &mut scratch);
        });
        // Parity: the baseline's class list, and memoized reports bitwise
        // equal to direct runs across the degree range.
        let base = baseline::hh_classes(hh.matrix(), pool);
        let steady = hh.build_profile_in(pool, &mut scratch);
        let max = hh.max_degree() as f64;
        let curve = hh.curve(&steady).expect("hh exposes a cost curve");
        let parity = steady.raw_classes() == &base[..]
            && [0.0, 1.0, max / 2.0, max, max + 5.0]
                .iter()
                .all(|&t| curve.report_at(curve.split_for(t)) == hh.run(t));
        push_entry(
            &mut entries,
            &mut gates,
            &mut mismatches,
            Entry {
                workload: "hh".into(),
                size: hh_n,
                baseline_build_ms: baseline_ms,
                fresh_build_ms: fresh_ms,
                steady_build_ms: steady_ms,
                speedup_steady_vs_baseline: baseline_ms / steady_ms.max(1e-9),
                steady_allocs: allocs,
                steady_alloc_bytes: bytes,
                parity,
            },
            // The hh baseline is the pooled class-list build, not a
            // pre-arena curve pass, so the win is allocation reuse only:
            // the per-mask traversal is memory-bound on the CSR stream
            // (DESIGN.md, "Scratch arenas"), and the steady build's
            // measured edge over it is x1.3–1.8. Gate the floor at 1.1x so
            // the reuse win cannot silently regress.
            1.1,
            gate_speedup,
        );
    }

    let report = Report {
        schema: "nbwp-bench-profile/v1",
        quick: args.quick,
        seed: args.seed,
        repetitions: reps,
        available_parallelism: available_parallelism(),
        exact: mismatches.is_empty(),
        mismatches: mismatches.clone(),
        gates,
        entries,
    };
    write_report(&args.out, &report);
    finish(
        &mismatches,
        "PROFILE GATE VIOLATION",
        "all scratch builds bitwise equal, allocation-free, and within throughput gates",
    );
}
