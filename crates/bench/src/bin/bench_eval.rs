//! `bench_eval` — candidate-pricing harness for the cost-profile layer,
//! emitting machine-readable `BENCH_eval.json`.
//!
//! For each workload (hybrid CC, row-row spmm, scale-free HH-CPU, dense
//! GEMM) and each search strategy, the harness times the search twice:
//! once pricing every candidate with a direct run (`O(input)` per
//! candidate) and once through the workload's cost profile (`O(1)`-ish per
//! candidate after one profile pass). Per-eval
//! wall-clock, eval counts, and speedups are recorded per configuration.
//!
//! The run doubles as an **exactness gate**: before timing, every profiled
//! report across the coarse grid plus a fine grid around each coarse
//! candidate is compared against the direct run. Any difference — a single
//! bit of any `SimTime` or kernel counter — is reported and the process
//! exits nonzero, so a CI smoke run enforces the exactness contract.
//!
//! Usage: `bench_eval [--quick] [--out <path>] [--seed <u64>]`

use std::time::Instant;

use nbwp_bench::harness::{available_parallelism, best_ms, finish, write_report, GateOpts};
use nbwp_core::prelude::*;
use nbwp_graph::cc::CcCostProfile;
use nbwp_graph::gen as graph_gen;
use nbwp_sparse::gen as sparse_gen;
use serde::Serialize;

#[derive(Serialize)]
struct Entry {
    workload: String,
    strategy: String,
    mode: String,
    wall_ms: f64,
    evaluations: usize,
    per_eval_us: f64,
    speedup_vs_direct: f64,
}

#[derive(Serialize)]
struct WorkloadInfo {
    workload: String,
    size: usize,
    profile_build_ms: f64,
    /// Heap allocation calls performed while building the profile (counted
    /// by the crate-wide `alloc_meter` global allocator).
    build_allocs: u64,
    /// Heap bytes requested while building the profile.
    build_alloc_bytes: u64,
    parity_points: usize,
}

/// Analytic-vs-numeric descent comparison for one workload: the analytic
/// row of the acceptance gate. `argmin_match` is bitwise equality with the
/// exhaustive-profiled argmin; `eval_ratio` is gradient-descent evals over
/// analytic evals (gated at >= 5).
#[derive(Serialize)]
struct AnalyticEntry {
    workload: String,
    analytic_evals: usize,
    analytic_grad_probes: usize,
    gradient_descent_evals: usize,
    exhaustive_evals: usize,
    argmin_match: bool,
    eval_ratio: f64,
    wall_ms: f64,
}

/// One k-way partition-search gate row: coordinate descent vs an
/// exhaustive enumeration of every non-decreasing cut tuple over the same
/// collapsed candidate grid. `argmin_match` is gated for every `k`;
/// `eval_ratio` (exhaustive tuples over descent probes) is gated at >= 5
/// for `k > 2`; `scalar_parity` (bitwise equality with the scalar
/// analytic search) is gated on the canonical pair. `wall_ms` is the
/// fastest of [`KWAY_DESCENTS`] descents, each on a freshly built profile,
/// and `per_probe_us` divides it by the probe count; the per-probe gate
/// holds `per_probe_us(k) <= k * per_probe_us(2)` per workload, so a band
/// price may grow with the arity but not with the band's length.
/// `sv_band_replays` and `dfs_band_replays` count the distinct bands the
/// descent simulated (the cc profile's memo sizes after it; `null` for
/// workloads that price bands in closed form): a deterministic work count
/// beside `cd_probes`. `bands_priced` and `bands_bounded` are the
/// search's own band counts ([`PartitionMinimum`]): distinct bands it
/// priced, and distinct bands an upper bound settled unpriced (0 for
/// curves with the trivial bounds). The k = 2 row is the scalar analytic
/// search and counts no bands.
#[derive(Serialize)]
struct KwayEntry {
    workload: String,
    devices: String,
    k: usize,
    step: f64,
    candidates: usize,
    cd_probes: usize,
    cd_sweeps: usize,
    exhaustive_tuples: usize,
    argmin_match: bool,
    scalar_parity: Option<bool>,
    eval_ratio: f64,
    wall_ms: f64,
    per_probe_us: f64,
    sv_band_replays: Option<usize>,
    dfs_band_replays: Option<usize>,
    bands_priced: usize,
    bands_bounded: usize,
}

/// Descents timed per k-way row; the row keeps the fastest.
const KWAY_DESCENTS: usize = 3;

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    quick: bool,
    seed: u64,
    repetitions: usize,
    available_parallelism: usize,
    exact: bool,
    mismatches: Vec<String>,
    workloads: Vec<WorkloadInfo>,
    entries: Vec<Entry>,
    analytic: Vec<AnalyticEntry>,
    kway: Vec<KwayEntry>,
}

/// The strategies swept per workload, dispatched by name so direct and
/// profiled runs share one code path.
const STRATEGIES: [&str; 4] = [
    "exhaustive",
    "coarse_to_fine",
    "race_then_fine",
    "gradient_descent",
];

fn run_direct<W: PartitionedWorkload>(w: &W, strategy: &str) -> SearchOutcome {
    let s = match strategy {
        "gradient_descent" => Strategy::GradientDescent { max_evals: 24 },
        other => other.parse::<Strategy>().expect("known strategy name"),
    };
    Searcher::new(s).run(w)
}

/// The analytic acceptance row: subgradient descent on the cost curve must
/// land on the exhaustive-profiled argmin bitwise, in at least 5x fewer
/// curve evaluations than finite-difference gradient descent.
fn analytic_gate<W: Profilable>(
    name: &str,
    w: &W,
    analytic: &mut Vec<AnalyticEntry>,
    mismatches: &mut Vec<String>,
) {
    let exhaustive = Searcher::new(Strategy::Exhaustive { step: None })
        .profiled()
        .run(w);
    let gd = Searcher::new(Strategy::GradientDescent { max_evals: 24 })
        .profiled()
        .run(w);
    let started = Instant::now();
    let ana = Searcher::new(Strategy::Analytic { step: None })
        .profiled()
        .run(w);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let argmin_match = ana.best_t.to_bits() == exhaustive.best_t.to_bits();
    let eval_ratio = gd.evaluations() as f64 / ana.evaluations().max(1) as f64;
    if !argmin_match {
        mismatches.push(format!(
            "{name}: analytic argmin {} != exhaustive argmin {}",
            ana.best_t, exhaustive.best_t
        ));
    }
    if eval_ratio < 5.0 {
        mismatches.push(format!(
            "{name}: analytic used {} evals vs gradient descent's {} (ratio {eval_ratio:.1} < 5)",
            ana.evaluations(),
            gd.evaluations()
        ));
    }
    eprintln!(
        "  {name:<10} analytic: {} evals (+{} grad probes) vs gd {} | argmin match: {argmin_match} | x{eval_ratio:.1}",
        ana.evaluations(),
        ana.grad_probes,
        gd.evaluations(),
    );
    analytic.push(AnalyticEntry {
        workload: name.to_string(),
        analytic_evals: ana.evaluations(),
        analytic_grad_probes: ana.grad_probes,
        gradient_descent_evals: gd.evaluations(),
        exhaustive_evals: exhaustive.evaluations(),
        argmin_match,
        eval_ratio,
        wall_ms,
    });
}

/// Steps per arity keep the exhaustive tuple count `C(m + k - 2, k - 1)`
/// tractable while still covering the full threshold range: the canonical
/// pair sweeps the fine grid, k = 4 a half-coarse grid, k = 8 the coarse
/// grid. Logarithmic strides are multiplicative, so "half" is a square
/// root there.
fn kway_step(space: &ThresholdSpace, k: usize) -> f64 {
    match k {
        2 => space.fine_step,
        4 if space.logarithmic => space.coarse_step.sqrt(),
        4 => space.coarse_step / 2.0,
        _ => space.coarse_step,
    }
}

/// The k-way acceptance row: coordinate descent over the collapsed
/// candidate grid must land on the exhaustive argmin (every non-decreasing
/// cut tuple priced via [`CurveEval::partition_total`], strict `<` keeping
/// the first — lexicographically lowest — winner, matching the descent's
/// tie-break) using at least 5x fewer objective probes for `k > 2`. On the
/// canonical pair the partition minimizer must reproduce the scalar
/// [`Strategy::Analytic`] search on the profiled workload bitwise:
/// threshold, split, total, and probe count. `replays` reads a profile's
/// `(SV, DFS)` band-replay counts, for workloads that simulate bands.
fn kway_gate<W: Profilable>(
    name: &str,
    w: &W,
    sets: &[DeviceSet],
    replays: impl Fn(&W::Profile) -> Option<(usize, usize)>,
    kway: &mut Vec<KwayEntry>,
    mismatches: &mut Vec<String>,
) {
    let profile = w.build_profile(Pool::global());
    let curve = w
        .curve(&profile)
        .expect("k-way gate workloads expose a cost curve");
    let space = w.space();
    let units = curve
        .splits()
        .checked_sub(1)
        .expect("a curve exposes at least one split");

    let first_row = kway.len();
    for set in sets {
        let k = set.len();
        let step = kway_step(&space, k);

        // Each timed descent prices from a freshly built profile, so
        // memoized band replays (cc) start cold every time.
        let mut wall_ms = f64::INFINITY;
        let mut descents = Vec::with_capacity(KWAY_DESCENTS);
        for _ in 0..KWAY_DESCENTS {
            let fresh = w.build_profile(Pool::global());
            let fresh_curve = w
                .curve(&fresh)
                .expect("k-way gate workloads expose a cost curve");
            let started = Instant::now();
            let cd = minimize_partition(fresh_curve.as_ref(), set, &space, step, None)
                .expect("the cost curve prices bands for this device set");
            wall_ms = wall_ms.min(started.elapsed().as_secs_f64() * 1e3);
            descents.push((cd, replays(&fresh)));
        }
        let (cd, band_replays) = descents.pop().expect("at least one descent");
        if descents.iter().any(|d| *d != (cd.clone(), band_replays)) {
            mismatches.push(format!(
                "{name}/{}: repeated descents on fresh profiles disagree",
                set.name()
            ));
        }
        let per_probe_us = wall_ms * 1e3 / cd.probes.max(1) as f64;

        // Exhaustive baseline: a non-decreasing odometer over candidate
        // indices enumerates every cut tuple the descent could reach.
        let cands = candidate_splits(curve.as_ref(), &space, step);
        let m = cands.len();
        let kc = k - 1;
        let mut idx = vec![0usize; kc];
        let mut tuples = 0usize;
        let mut best: Option<(SimTime, Vec<usize>)> = None;
        let mut done = m == 0;
        while !done {
            let cuts: Vec<usize> = idx.iter().map(|&i| cands[i].1).collect();
            let p = Partition::new(units, cuts);
            if let Some(total) = curve.partition_total(set, &p) {
                tuples += 1;
                if best.as_ref().is_none_or(|(t, _)| total < *t) {
                    best = Some((total, p.cuts().to_vec()));
                }
            }
            done = true;
            let mut j = kc;
            while j > 0 {
                j -= 1;
                if idx[j] + 1 < m {
                    let v = idx[j] + 1;
                    for x in &mut idx[j..] {
                        *x = v;
                    }
                    done = false;
                    break;
                }
            }
        }
        let (best_total, best_cuts) = best.expect("exhaustive baseline priced at least one tuple");

        let argmin_match = cd.total == best_total && cd.partition.cuts() == best_cuts.as_slice();
        if !argmin_match {
            mismatches.push(format!(
                "{name}/{}: descent argmin {:?} ({}) != exhaustive argmin {:?} ({})",
                set.name(),
                cd.partition.cuts(),
                cd.total,
                best_cuts,
                best_total
            ));
        }
        let eval_ratio = tuples as f64 / cd.probes.max(1) as f64;
        if k > 2 && eval_ratio < 5.0 {
            mismatches.push(format!(
                "{name}/{}: descent used {} probes vs {tuples} exhaustive tuples (ratio {eval_ratio:.1} < 5)",
                set.name(),
                cd.probes
            ));
        }
        let scalar_parity = set.is_canonical_pair().then(|| {
            let scalar = Searcher::new(Strategy::Analytic { step: Some(step) })
                .profiled()
                .run(w);
            let parity = cd.thresholds.len() == 1
                && cd.thresholds[0].to_bits() == scalar.best_t.to_bits()
                && cd.partition.cuts() == [curve.split_for(scalar.best_t)]
                && cd.total == scalar.best_time
                && cd.probes == scalar.grad_probes;
            if !parity {
                mismatches.push(format!(
                    "{name}/{}: partition minimum (t = {:?}, total {}, {} probes) is not bitwise the scalar analytic search (t = {}, total {}, {} probes)",
                    set.name(),
                    cd.thresholds,
                    cd.total,
                    cd.probes,
                    scalar.best_t,
                    scalar.best_time,
                    scalar.grad_probes
                ));
            }
            parity
        });

        let replayed = band_replays
            .map(|(sv, dfs)| format!(" | {sv} SV + {dfs} DFS band replays"))
            .unwrap_or_default();
        let banded = format!(
            " | {} bands priced, {} bounded",
            cd.bands_priced, cd.bands_bounded
        );
        eprintln!(
            "  {name:<10} {:<18} k={k}: {} probes, {} sweeps vs {tuples} tuples ({m} candidates) | argmin match: {argmin_match} | x{eval_ratio:.1} | {per_probe_us:.2} us/probe{replayed}{banded}",
            set.name(),
            cd.probes,
            cd.sweeps,
        );
        kway.push(KwayEntry {
            workload: name.to_string(),
            devices: set.name().to_string(),
            k,
            step,
            candidates: m,
            cd_probes: cd.probes,
            cd_sweeps: cd.sweeps,
            exhaustive_tuples: tuples,
            argmin_match,
            scalar_parity,
            eval_ratio,
            wall_ms,
            per_probe_us,
            sv_band_replays: band_replays.map(|(sv, _)| sv),
            dfs_band_replays: band_replays.map(|(_, dfs)| dfs),
            bands_priced: cd.bands_priced,
            bands_bounded: cd.bands_bounded,
        });
    }

    // Per-probe gate: a k-way probe prices k bands, so it may cost up to
    // k times a canonical-pair probe, but no more.
    let rows = &kway[first_row..];
    if let Some(pair) = rows.iter().find(|e| e.k == 2) {
        for e in rows.iter().filter(|e| e.k > 2) {
            let bound = e.k as f64 * pair.per_probe_us;
            if e.per_probe_us > bound {
                mismatches.push(format!(
                    "{name}/{}: {:.2} us per probe exceeds k x the k = 2 probe ({bound:.2} us)",
                    e.devices, e.per_probe_us
                ));
            }
        }
    }
}

/// Exactness gate: profiled reports must equal direct reports bitwise over
/// the coarse grid plus a fine grid around every coarse candidate.
fn parity_check<W: Profilable>(
    name: &str,
    w: &W,
    pw: &ProfiledWorkload<W>,
    mismatches: &mut Vec<String>,
) -> usize {
    let space = w.space();
    let mut grid = space.coarse_grid();
    for c in space.coarse_grid() {
        grid.extend(space.fine_grid(c));
    }
    let points = grid.len();
    for t in grid {
        let direct = w.run(t);
        let profiled = pw.run(t);
        if direct != profiled {
            mismatches.push(format!(
                "{name}: profiled report at t = {t} differs from direct run"
            ));
        }
        if direct.total() != profiled.total() {
            mismatches.push(format!(
                "{name}: profiled SimTime at t = {t} differs from direct run"
            ));
        }
    }
    points
}

/// Times direct-vs-profiled searches for one workload across all
/// strategies. Profiled runs are timed on a fresh profile (the
/// `ProfiledWorkload` is rebuilt outside the timed region each repetition),
/// so `per_eval_us` measures genuine curve pricing, not memo replay.
fn sweep_workload<W: Profilable>(
    name: &str,
    w: &W,
    reps: usize,
    entries: &mut Vec<Entry>,
    workloads: &mut Vec<WorkloadInfo>,
    mismatches: &mut Vec<String>,
) {
    // Keep the global pool's one-time setup out of the metered build.
    let pool = Pool::global();
    let started = Instant::now();
    let (pw, build_allocs, build_alloc_bytes) =
        nbwp_bench::alloc_meter::measure(|| ProfiledWorkload::with_pool(w, pool));
    let profile_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let parity_points = parity_check(name, w, &pw, mismatches);
    workloads.push(WorkloadInfo {
        workload: name.to_string(),
        size: w.size(),
        profile_build_ms,
        build_allocs,
        build_alloc_bytes,
        parity_points,
    });

    for strategy in STRATEGIES {
        let mut evals = 0;
        let direct_ms = best_ms(reps, || evals = run_direct(w, strategy).evaluations());
        let mut profiled_ms = f64::INFINITY;
        let mut profiled_evals = 0;
        for _ in 0..reps {
            let fresh = ProfiledWorkload::new(w);
            let started = Instant::now();
            let out = run_direct(&fresh, strategy);
            profiled_ms = profiled_ms.min(started.elapsed().as_secs_f64() * 1e3);
            profiled_evals = out.evaluations();
        }
        if evals != profiled_evals {
            mismatches.push(format!(
                "{name}/{strategy}: profiled search performed {profiled_evals} evals vs {evals} direct"
            ));
        }
        let per_eval = |ms: f64, n: usize| ms * 1e3 / n.max(1) as f64;
        let speedup = direct_ms / profiled_ms.max(1e-9);
        eprintln!(
            "  {name:<10} {strategy:<17} direct {:9.2} us/eval | profiled {:8.2} us/eval | x{speedup:.1} ({evals} evals)",
            per_eval(direct_ms, evals),
            per_eval(profiled_ms, profiled_evals),
        );
        entries.push(Entry {
            workload: name.to_string(),
            strategy: strategy.to_string(),
            mode: "direct".to_string(),
            wall_ms: direct_ms,
            evaluations: evals,
            per_eval_us: per_eval(direct_ms, evals),
            speedup_vs_direct: 1.0,
        });
        entries.push(Entry {
            workload: name.to_string(),
            strategy: strategy.to_string(),
            mode: "profiled".to_string(),
            wall_ms: profiled_ms,
            evaluations: profiled_evals,
            per_eval_us: per_eval(profiled_ms, profiled_evals),
            speedup_vs_direct: speedup,
        });
    }
}

fn main() {
    let args = GateOpts::parse("bench_eval", "BENCH_eval.json", &[]);
    let reps = if args.quick { 2 } else { 3 };
    let (cc_n, spmm_n, hh_n, gemm_n) = if args.quick {
        (40_000, 60_000, 8_000, 512)
    } else {
        (150_000, 250_000, 30_000, 1024)
    };
    let cores = available_parallelism();
    eprintln!(
        "bench_eval: {} mode, seed {}, {} hardware thread(s), best of {} rep(s)",
        if args.quick { "quick" } else { "full" },
        args.seed,
        cores,
        reps
    );

    let platform = Platform::k40c_xeon_e5_2650();
    let mut entries = Vec::new();
    let mut workloads = Vec::new();
    let mut mismatches = Vec::new();
    let mut analytic = Vec::new();

    eprintln!("building inputs...");
    let cc = CcWorkload::new(graph_gen::web(cc_n, 8, args.seed), platform);
    // spmm is deliberately the largest input: the acceptance criterion is
    // >= 5x cheaper per-candidate pricing for exhaustive search on it.
    let spmm = SpmmWorkload::new(sparse_gen::uniform_random(spmm_n, 12, args.seed), platform);
    let hh = HhWorkload::new(sparse_gen::power_law(hh_n, 10, 2.1, args.seed), platform);
    let gemm = DenseGemmWorkload::new(gemm_n, platform);

    sweep_workload(
        "cc",
        &cc,
        reps,
        &mut entries,
        &mut workloads,
        &mut mismatches,
    );
    sweep_workload(
        "spmm",
        &spmm,
        reps,
        &mut entries,
        &mut workloads,
        &mut mismatches,
    );
    sweep_workload(
        "scalefree",
        &hh,
        reps,
        &mut entries,
        &mut workloads,
        &mut mismatches,
    );
    sweep_workload(
        "gemm",
        &gemm,
        reps,
        &mut entries,
        &mut workloads,
        &mut mismatches,
    );

    eprintln!("analytic subgradient descent vs numeric descent...");
    analytic_gate("cc", &cc, &mut analytic, &mut mismatches);
    analytic_gate("spmm", &spmm, &mut analytic, &mut mismatches);
    analytic_gate("scalefree", &hh, &mut analytic, &mut mismatches);
    analytic_gate("gemm", &gemm, &mut analytic, &mut mismatches);

    eprintln!("k-way coordinate descent vs exhaustive cut enumeration...");
    let mut kway = Vec::new();
    let pair = DeviceSet::cpu_gpu();
    let dual = DeviceSet::dual_cpu_dual_gpu();
    let quad = DeviceSet::quad_cpu_quad_gpu();
    let all_sets = [pair.clone(), dual.clone(), quad];
    // spmm and gemm price bands in closed form: nothing is replayed.
    kway_gate(
        "spmm",
        &spmm,
        &all_sets,
        |_: &_| None,
        &mut kway,
        &mut mismatches,
    );
    kway_gate(
        "gemm",
        &gemm,
        &all_sets,
        |_: &_| None,
        &mut kway,
        &mut mismatches,
    );
    let cc_replays = |p: &CcCostProfile| Some(p.replays());
    kway_gate(
        "cc",
        &cc,
        &[pair, dual],
        cc_replays,
        &mut kway,
        &mut mismatches,
    );

    let report = Report {
        schema: "nbwp-bench-eval/v8",
        quick: args.quick,
        seed: args.seed,
        repetitions: reps,
        available_parallelism: cores,
        exact: mismatches.is_empty(),
        mismatches: mismatches.clone(),
        workloads,
        entries,
        analytic,
        kway,
    };
    write_report(&args.out, &report);
    finish(
        &mismatches,
        "EXACTNESS VIOLATION",
        "all profiled reports bitwise equal to direct runs",
    );
}
