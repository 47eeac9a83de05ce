//! `bench_drift` — incremental re-estimation harness for the drift layer,
//! emitting machine-readable `BENCH_drift.json`.
//!
//! The drift layer (`nbwp_core::drift`) promises that after a workload
//! delta, span-patched curves, chained fingerprints, and warm-restarted
//! threshold searches are *exactly* what a from-scratch re-estimation
//! would produce — only cheaper. This harness replays mutate-estimate
//! loops at three delta fractions (0.1%, 1%, 10% of the input's work
//! units) on the cc and spmm workloads and checks both halves:
//!
//! 1. **Parity** (always on, every mode): after every step, the patched
//!    profile is bitwise-compared against a profile built from the
//!    drifted raw input (so a wrong span shows), the chained
//!    fingerprint's statistics against a fresh sketch, and the served
//!    total against that fresh profile's price at the served cuts
//!    (bitwise). The served threshold is scored against a cold curve
//!    minimization: on a multi-modal curve the warm hill-descent may
//!    settle in a neighbouring basin, so the gate bounds the *cost* of
//!    the served threshold over the cold minimum (≤1%) rather than
//!    demanding bitwise-equal thresholds. Any violation exits nonzero.
//! 2. **Throughput** (full mode, per the enforce-or-skip convention): at
//!    the 1% fraction, the patched mutate-estimate step must be at least
//!    5x cheaper than a cold rebuild step (apply delta + full profile
//!    rebuild + cold search). Quick mode measures and reports the ratio
//!    without enforcing.
//!
//! Inputs are banded (FEM-style) so edits stay local: SpGEMM's A×A
//! coupling spreads an edited row to every row referencing it, which for
//! a banded matrix is a bandwidth-wide halo rather than the whole input.
//! The measured span fractions land in the JSON.
//!
//! Every script is also replayed on the
//! `dual-cpu-dual-gpu` topology (k = 4), where bands that miss a step's
//! span keep their memoized cc replays across the patch. Its steps get
//! the same parity and bitwise served-total checks; their regret against
//! a cold k = 4 descent on the fresh profile is reported, not gated.
//!
//! Schema v4 drops the patch-vs-rebuild policy comparison: every drift
//! step patches its span, so the `decisions_rebuilt` counts read 0.
//!
//! Usage: `bench_drift [--quick] [--out <path>] [--seed <u64>]`

use std::time::Instant;

use nbwp_bench::harness::{
    available_parallelism, finish, gate_max, gate_min, write_report, GateOpts, GateResult,
};
use nbwp_core::prelude::*;
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::gen as graph_gen;
use nbwp_sparse::delta::{CsrDelta, RowOp};
use nbwp_sparse::gen as sparse_gen;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Delta fractions exercised per workload (touched units / total units).
const FRACTIONS: [f64; 3] = [0.001, 0.01, 0.1];

/// The fraction the ≥5x patched-vs-cold gate is applied at.
const GATED_FRACTION: f64 = 0.01;

#[derive(Serialize)]
struct Entry {
    workload: String,
    fraction: f64,
    units: usize,
    steps: usize,
    /// Mean re-profiled span over the steps, as a fraction of the input
    /// (includes the A×A coupling halo for spmm).
    mean_span_fraction: f64,
    patched_step_ms: f64,
    cold_step_ms: f64,
    speedup_patched_vs_cold: f64,
    /// Worst step's cost of serving the warm threshold over the cold
    /// minimum, in percent (0 when every step lands on the cold argmin).
    max_serve_vs_cold_regret_pct: f64,
    decisions_patched: u64,
    decisions_nudged: u64,
    decisions_rebuilt: u64,
    /// The k = 4 topology the script is replayed on a second time.
    kway_devices: String,
    /// Worst k = 4 step's served total over a cold k = 4 descent on the
    /// fresh profile, in percent (reported, not gated).
    kway_max_serve_vs_cold_regret_pct: f64,
    kway_decisions_patched: u64,
    kway_decisions_nudged: u64,
    kway_decisions_rebuilt: u64,
    /// Every served total, at k = 2 and k = 4, equalled bitwise the fresh
    /// profile's price at the served cuts.
    served_totals_exact: bool,
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

/// Fingerprint statistics equality — every field except the digest, which
/// is a chain commitment and intentionally differs from a fresh sketch.
fn fingerprint_stats_eq(a: &Fingerprint, b: &Fingerprint) -> bool {
    a.kind == b.kind
        && a.n == b.n
        && a.m == b.m
        && a.mean_degree.to_bits() == b.mean_degree.to_bits()
        && a.degree_cv.to_bits() == b.degree_cv.to_bits()
        && a.max_degree == b.max_degree
        && a.degree_sq_sum == b.degree_sq_sum
        && a.log2_hist == b.log2_hist
        && a.density_class == b.density_class
}

/// A windowed edge-edit script for the cc workload: each step inserts and
/// deletes edges whose endpoints lie inside one `fraction·n`-wide window,
/// so the touched vertex span tracks the fraction. Inserts may duplicate
/// existing edges and deletes may name absent ones — both are legal
/// no-ops the delta applier must tolerate.
fn cc_script(n: usize, steps: usize, fraction: f64, seed: u64) -> Vec<GraphDelta> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let w = ((n as f64 * fraction) as usize).clamp(2, n);
    (0..steps)
        .map(|_| {
            let c = rng.gen_range(0..=n - w);
            let edge = |rng: &mut SmallRng| {
                let u = c + rng.gen_range(0..w);
                let v = c + rng.gen_range(0..w);
                (u.min(v) as u32, u.max(v) as u32)
            };
            let mut d = GraphDelta::default();
            for _ in 0..(w / 3).max(1) {
                let (u, v) = edge(&mut rng);
                if u != v {
                    d.insert.push((u, v));
                }
            }
            for _ in 0..(w / 6).max(1) {
                let (u, v) = edge(&mut rng);
                if u != v {
                    d.delete.push((u, v));
                }
            }
            d
        })
        .collect()
}

/// A windowed row-replacement script for the spmm workload: each step
/// replaces every row in one `fraction·n`-wide window with a fresh banded
/// pattern (columns within `bandwidth` of the diagonal, so the matrix
/// stays banded and the A×A coupling halo stays bandwidth-sized), plus
/// one value-only scale.
fn spmm_script(
    n: usize,
    bandwidth: usize,
    steps: usize,
    fraction: f64,
    seed: u64,
) -> Vec<CsrDelta> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let w = ((n as f64 * fraction) as usize).clamp(1, n);
    (0..steps)
        .map(|_| {
            let c = rng.gen_range(0..=n - w);
            let mut ops: Vec<RowOp> = (c..c + w)
                .map(|row| {
                    let lo = row.saturating_sub(bandwidth);
                    let hi = (row + bandwidth).min(n - 1);
                    let mut cols: Vec<u32> = (0..rng.gen_range(2..7))
                        .map(|_| rng.gen_range(lo..=hi) as u32)
                        .collect();
                    cols.sort_unstable();
                    cols.dedup();
                    let vals = vec![1.0; cols.len()];
                    RowOp::Replace { row, cols, vals }
                })
                .collect();
            ops.push(RowOp::Scale {
                row: c,
                factor: 1.5,
            });
            CsrDelta { ops }
        })
        .collect()
}

/// What one checked replay on one topology saw.
struct Checked {
    /// `(patched, nudged, rebuilt)` decision counts.
    decisions: (u64, u64, u64),
    span_sum: usize,
    max_regret_pct: f64,
    parity: bool,
    totals_exact: bool,
}

/// The curve's price of the served cut vector on `set`: the scalar lane
/// on the canonical pair, the band prices otherwise — how the drift
/// server prices what it serves.
fn price_at(
    curve: &dyn CurveEval,
    set: &DeviceSet,
    space: &ThresholdSpace,
    cuts: &[f64],
) -> SimTime {
    if set.is_canonical_pair() {
        return curve.total_at(curve.split_for(space.clamp(cuts[0])));
    }
    let splits = cuts
        .iter()
        .map(|&t| curve.split_for(space.clamp(t)))
        .collect();
    curve
        .partition_total(set, &Partition::new(curve.splits() - 1, splits))
        .expect("cc and spmm curves price bands")
}

/// Replays `deltas` through a [`DriftServer`] on `set`, checking every
/// step against the drifted raw input rebuilt from scratch (`refresh`):
/// the patched profile and chained fingerprint statistics must equal the
/// fresh ones, and the served total the fresh profile's price at the
/// served cuts, bitwise. Scores each served total against a cold descent
/// on the fresh profile.
#[allow(clippy::too_many_arguments)]
fn checked_replay<W>(
    name: &str,
    fraction: f64,
    base: &W,
    set: &DeviceSet,
    deltas: &[W::Delta],
    profile_eq: &impl Fn(&W::Profile, &W::Profile) -> bool,
    refresh: &impl Fn(&W) -> W,
    mismatches: &mut Vec<String>,
) -> Checked
where
    W: DriftWorkload + Clone,
{
    let pool = Pool::global();
    let k = set.len();
    let mut seen = Checked {
        decisions: (0, 0, 0),
        span_sum: 0,
        max_regret_pct: 0.0,
        parity: true,
        totals_exact: true,
    };
    let mut server = DriftServer::new(base.clone()).with_devices(set.clone());
    for (i, d) in deltas.iter().enumerate() {
        let step = server.apply(d);
        match step.decision {
            DriftDecision::Patched => seen.decisions.0 += 1,
            DriftDecision::Nudged => seen.decisions.1 += 1,
            DriftDecision::Rebuilt => seen.decisions.2 += 1,
        }
        seen.span_sum += step.span.len();
        let rebuilt = refresh(server.workload());
        let fresh = rebuilt.build_profile(pool);
        if !profile_eq(server.profile(), &fresh) {
            seen.parity = false;
            mismatches.push(format!(
                "{name}@{fraction} k={k}: step {i} patched profile differs from a fresh rebuild"
            ));
        }
        if !fingerprint_stats_eq(&server.workload().fingerprint(), &rebuilt.fingerprint()) {
            seen.parity = false;
            mismatches.push(format!(
                "{name}@{fraction} k={k}: step {i} chained fingerprint statistics differ from a fresh sketch"
            ));
        }
        let space = rebuilt.space();
        let curve = rebuilt.curve(&fresh).expect("curve");
        let served = price_at(curve.as_ref(), set, &space, &step.cuts);
        if served != step.total {
            seen.totals_exact = false;
            mismatches.push(format!(
                "{name}@{fraction} k={k}: step {i} served total {} differs from the fresh profile's {served}",
                step.total
            ));
        }
        // Warm descent may settle in a neighbouring basin of a
        // multi-modal curve; what must hold is that serving its cuts
        // costs (almost) nothing over the cold minimum.
        let cold = minimize_partition(curve.as_ref(), set, &space, space.fine_step, None)
            .expect("cc and spmm curves price bands");
        if cold.total.as_secs() > 0.0 {
            let regret = (served.as_secs() / cold.total.as_secs() - 1.0) * 100.0;
            seen.max_regret_pct = seen.max_regret_pct.max(regret);
        }
    }
    seen
}

/// Replays one delta script for one workload/fraction pair: checked
/// replays on the canonical pair and at k = 4 (per-step parity against
/// fresh builds), a timed patched replay through [`DriftServer`], and a
/// timed cold replay.
///
/// `refresh` reconstructs a workload from its raw (drifted) input — the
/// from-scratch re-estimation a deployment without the drift layer would
/// run. For spmm that re-runs the full SpGEMM row profile; reusing the
/// incrementally-patched per-row profile would make "cold" artificially
/// cheap.
#[allow(clippy::too_many_arguments)]
fn run_script<W>(
    name: &str,
    base: &W,
    deltas: &[W::Delta],
    fraction: f64,
    reps: usize,
    profile_eq: impl Fn(&W::Profile, &W::Profile) -> bool,
    refresh: impl Fn(&W) -> W,
    mismatches: &mut Vec<String>,
) -> Entry
where
    W: DriftWorkload + Clone,
{
    let pool = Pool::global();
    let units = base.units();

    let canonical = checked_replay(
        name,
        fraction,
        base,
        DeviceSet::cpu_gpu_static(),
        deltas,
        &profile_eq,
        &refresh,
        mismatches,
    );
    let kway = checked_replay(
        name,
        fraction,
        base,
        &DeviceSet::dual_cpu_dual_gpu(),
        deltas,
        &profile_eq,
        &refresh,
        mismatches,
    );

    // Timed patched replay: the steady mutate-estimate loop.
    let mut patched_best = f64::INFINITY;
    for _ in 0..reps {
        let mut server = DriftServer::new(base.clone());
        let started = Instant::now();
        for d in deltas {
            std::hint::black_box(server.apply(d));
        }
        patched_best = patched_best.min(started.elapsed().as_secs_f64() * 1e3);
    }

    // Timed cold replay: the same stream priced as full re-estimations
    // (re-profile the drifted input from scratch, then a cold search).
    let mut cold_best = f64::INFINITY;
    for _ in 0..reps {
        let mut w = base.clone();
        let started = Instant::now();
        for d in deltas {
            let (next, _span) = w.apply_delta(d);
            let fresh = refresh(&next);
            let profile = fresh.build_profile(pool);
            let space = fresh.space();
            let curve = fresh.curve(&profile).expect("curve");
            std::hint::black_box(minimize_partition(
                curve.as_ref(),
                DeviceSet::cpu_gpu_static(),
                &space,
                space.fine_step,
                None,
            ));
            drop(curve);
            w = next;
        }
        cold_best = cold_best.min(started.elapsed().as_secs_f64() * 1e3);
    }

    let steps = deltas.len();
    let patched_step_ms = patched_best / steps as f64;
    let cold_step_ms = cold_best / steps as f64;
    let speedup = cold_step_ms / patched_step_ms.max(1e-9);
    let mean_span_fraction = canonical.span_sum as f64 / steps as f64 / units.max(1) as f64;
    let (n_patched, n_nudged, n_rebuilt) = canonical.decisions;
    let max_regret = canonical.max_regret_pct;
    eprintln!(
        "  {name:<5} {:>5.1}% drift | span {:>5.2}% | patched {patched_step_ms:8.4} ms/step | cold {cold_step_ms:8.4} ms/step | x{speedup:<6.1} | regret {max_regret:.4}% (k=4 {:.4}%) | {n_patched} patched / {n_nudged} nudged / {n_rebuilt} rebuilt",
        fraction * 100.0,
        mean_span_fraction * 100.0,
        kway.max_regret_pct,
    );
    Entry {
        workload: name.to_string(),
        fraction,
        units,
        steps,
        mean_span_fraction,
        patched_step_ms,
        cold_step_ms,
        speedup_patched_vs_cold: speedup,
        max_serve_vs_cold_regret_pct: max_regret,
        decisions_patched: n_patched,
        decisions_nudged: n_nudged,
        decisions_rebuilt: n_rebuilt,
        kway_devices: DeviceSet::dual_cpu_dual_gpu().name().to_string(),
        kway_max_serve_vs_cold_regret_pct: kway.max_regret_pct,
        kway_decisions_patched: kway.decisions.0,
        kway_decisions_nudged: kway.decisions.1,
        kway_decisions_rebuilt: kway.decisions.2,
        served_totals_exact: canonical.totals_exact && kway.totals_exact,
        parity: canonical.parity && kway.parity,
    }
}

/// Gates for one entry: the served threshold must always stay within 1%
/// of the cold minimum (enforced in every mode), and at the gated fraction
/// the patched step must be ≥5x cheaper than a cold re-estimation (wall
/// clock, full mode only).
fn push_gates(
    name: &str,
    fraction: f64,
    entry: &Entry,
    quick: bool,
    gates: &mut Vec<GateResult>,
    mismatches: &mut Vec<String>,
) {
    gates.push(gate_max(
        &format!("{name}.serve_regret@{}%", fraction * 100.0),
        entry.max_serve_vs_cold_regret_pct,
        1.0,
        true,
        "",
        mismatches,
    ));
    if fraction == GATED_FRACTION {
        gates.push(gate_min(
            &format!("{name}.patched_vs_cold@1%"),
            entry.speedup_patched_vs_cold,
            5.0,
            !quick,
            "wall-clock gates are skipped in --quick mode",
            mismatches,
        ));
    }
}

fn main() {
    let args = GateOpts::parse("bench_drift", "BENCH_drift.json", &[]);
    let reps = if args.quick { 3 } else { 5 };
    let (cc_n, spmm_n, steps) = if args.quick {
        (30_000, 20_000, 6)
    } else {
        (150_000, 100_000, 8)
    };
    let bandwidth = 16;
    eprintln!(
        "bench_drift: {} mode, seed {}, best of {} rep(s), {} steps per script",
        if args.quick { "quick" } else { "full" },
        args.seed,
        reps,
        steps
    );

    let platform = Platform::k40c_xeon_e5_2650();
    eprintln!("building inputs...");
    let cc_base = CcWorkload::new(graph_gen::fem(cc_n, bandwidth, 8, args.seed), platform);
    let spmm_base = SpmmWorkload::new(
        sparse_gen::banded_fem(spmm_n, bandwidth, 7, args.seed),
        platform,
    );

    let mut entries = Vec::new();
    let mut gates = Vec::new();
    let mut mismatches = Vec::new();

    for (fi, &fraction) in FRACTIONS.iter().enumerate() {
        let script = cc_script(cc_n, steps, fraction, args.seed + fi as u64);
        let entry = run_script(
            "cc",
            &cc_base,
            &script,
            fraction,
            reps,
            |patched, fresh| patched.raw_curves() == fresh.raw_curves(),
            |w| CcWorkload::new(w.graph().clone(), platform),
            &mut mismatches,
        );
        push_gates(
            "cc",
            fraction,
            &entry,
            args.quick,
            &mut gates,
            &mut mismatches,
        );
        entries.push(entry);
    }
    for (fi, &fraction) in FRACTIONS.iter().enumerate() {
        let script = spmm_script(
            spmm_n,
            bandwidth,
            steps,
            fraction,
            args.seed + 100 + fi as u64,
        );
        let entry = run_script(
            "spmm",
            &spmm_base,
            &script,
            fraction,
            reps,
            |patched, fresh| {
                patched.curves() == fresh.curves() && patched.partition() == fresh.partition()
            },
            |w| SpmmWorkload::new(w.matrix().clone(), platform),
            &mut mismatches,
        );
        push_gates(
            "spmm",
            fraction,
            &entry,
            args.quick,
            &mut gates,
            &mut mismatches,
        );
        entries.push(entry);
    }

    let report = Report {
        schema: "nbwp-bench-drift/v4",
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
        "DRIFT GATE VIOLATION",
        "all patched profiles, chained fingerprints, served totals and thresholds match from-scratch re-estimation",
    );
}
