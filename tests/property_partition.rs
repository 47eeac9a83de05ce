//! Property tests for the k-way `Partition` API (the partition PR's
//! satellite): for random inputs,
//!
//! * the canonical-pair arm of [`minimize_partition`] is **bitwise equal**
//!   to the scalar analytic search run through the profiled workload —
//!   threshold, split, total, and probe count — cold and warm-started
//!   alike, and two-way partition pricing reproduces `total_at` bitwise
//!   (which the existing curve properties tie to a direct `run()`);
//! * the k-way priced cost of an arbitrary cut vector equals a direct
//!   k-banded execution recomputed from the raw per-row cost profile —
//!   per-band kernel stats, per-link transfers, speed scaling, and the
//!   `partition + slowest band + merge` composition — including empty
//!   bands (duplicate cuts) and cuts landing on warp (32-row) boundaries;
//! * a warm cut vector holding NaN is dropped, so the search serves the
//!   cold result bitwise (a fixed-input regression test).

use nbwp_core::prelude::*;
use nbwp_core::search::Strategy as SearchStrategy;
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::gen as ggen;
use nbwp_sparse::delta::CsrDelta;
use nbwp_sparse::gen as sgen;
use nbwp_sparse::spgemm::{row_profile, stats_for_rows, RowCurves, ENTRY_BYTES};
use nbwp_sparse::SpmmCostCurve;
use proptest::prelude::*;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// k=2 through the partition API is the scalar analytic bisection,
    /// bitwise, for random spmm inputs, with and without a warm start.
    #[test]
    fn canonical_pair_partition_minimum_is_bitwise_scalar(
        n in 96usize..400,
        deg in 2usize..8,
        seed in 0u64..1000,
        warm_t in 0f64..100.0,
    ) {
        let w = SpmmWorkload::new(sgen::power_law(n, deg, 2.1, seed), platform());
        let profile = w.build_profile(Pool::global());
        let space = w.space();
        let curve = w.curve(&profile).expect("spmm exposes a cost curve");
        let pair = DeviceSet::cpu_gpu_static();

        for warm in [None, Some(warm_t)] {
            let warm_buf = warm.map(|h| [h]);
            let warm_cuts = warm_buf.as_ref().map(<[f64; 1]>::as_slice);
            let mut searcher = Searcher::new(SearchStrategy::Analytic {
                step: Some(space.fine_step),
            });
            if let Some(cuts) = warm_cuts {
                searcher = searcher.warm_cuts(cuts);
            }
            let scalar = searcher.profiled().run(&w);
            let split = curve.split_for(scalar.best_t);
            let part = minimize_partition(curve.as_ref(), pair, &space, space.fine_step, warm_cuts)
                .expect("the canonical pair prices every curve");
            prop_assert_eq!(part.thresholds.len(), 1);
            prop_assert_eq!(part.thresholds[0].to_bits(), scalar.best_t.to_bits());
            prop_assert_eq!(part.partition.cuts(), &[split][..]);
            prop_assert_eq!(part.total, scalar.best_time);
            prop_assert_eq!(part.probes, scalar.grad_probes);
            prop_assert_eq!(part.sweeps, 0);

            // Two-way pricing at the argmin (and the scalar split it
            // names) is the scalar total, bitwise.
            let p = Partition::two_way(curve.splits() - 1, split);
            prop_assert_eq!(
                curve.partition_total(pair, &p).expect("pair prices bands"),
                curve.total_at(split)
            );
        }
    }

    /// k-way pricing is a direct k-banded execution: every band's cost is
    /// recomputed here from the raw per-row profile (kernel stats over
    /// the exact row slice, per-device speed scaling, per-link transfers
    /// with the `B` operand shipped to non-empty GPU bands only), and the
    /// composition is `partition + max(bands) + merge`. Cut vectors
    /// include duplicate cuts (empty bands) and warp-aligned cuts.
    #[test]
    fn kway_priced_cost_matches_direct_banded_execution(
        n in 64usize..320,
        deg in 2usize..8,
        seed in 0u64..1000,
        raw in proptest::collection::vec(0usize..320, 3),
        warp_align in 0usize..2,
        force_empty in 0usize..2,
    ) {
        let a = sgen::power_law(n, deg, 2.1, seed);
        let costs = row_profile(&a, &a);
        let b_bytes = a.size_bytes();
        let curves = RowCurves::new(&costs, b_bytes);
        let prefix = &curves.b_entries().as_prefix_slice()[1..];
        let platform = platform();
        let part_lane = SimTime::from_millis(0.37);
        let curve = SpmmCostCurve::new(&curves, prefix, part_lane, &platform);
        let set = DeviceSet::dual_cpu_dual_gpu();

        let mut cuts: Vec<usize> = raw
            .iter()
            .map(|&c| {
                let c = c % (n + 1);
                if warp_align == 1 { (c / 32) * 32 } else { c }
            })
            .collect();
        cuts.sort_unstable();
        if force_empty == 1 {
            cuts[1] = cuts[0]; // a guaranteed empty band
        }
        let p = Partition::new(n, cuts);

        let priced = curve
            .partition_total(&set, &p)
            .expect("spmm prices every band");

        let mut slowest = SimTime::ZERO;
        for (device, (lo, hi)) in set.devices().iter().zip(p.bands()) {
            let stats = stats_for_rows(&costs[lo..hi], b_bytes);
            let direct = match device.kind {
                DeviceKind::Cpu => device.scale(platform.cpu_time(&stats)),
                DeviceKind::Gpu => {
                    let rows = (hi - lo) as u64;
                    let transfer_in = if rows == 0 {
                        SimTime::ZERO
                    } else {
                        let a2_bytes: u64 = costs[lo..hi]
                            .iter()
                            .map(|c| c.a_nnz)
                            .sum::<u64>()
                            * ENTRY_BYTES
                            + 8 * rows;
                        device.transfer(&platform, a2_bytes + b_bytes)
                    };
                    let c2_bytes: u64 =
                        costs[lo..hi].iter().map(|c| c.c_nnz).sum::<u64>() * ENTRY_BYTES;
                    transfer_in
                        + device.scale(platform.gpu_time(&stats))
                        + device.transfer(&platform, c2_bytes)
                }
            };
            slowest = slowest.max(direct);
        }
        prop_assert_eq!(priced, part_lane + slowest);
    }

    /// Warm k-way descent reaches the cold argmin: seeding
    /// `minimize_partition` with the cut vector a serving cache would hold
    /// — the argmin of the same input (an exact-class warm start) or of a
    /// locally perturbed sibling (a near-hit warm start) — produces the
    /// cold search's cuts and total bitwise, spending no more probes, for
    /// random spmm inputs at k = 4 and k = 8.
    #[test]
    fn warm_kway_descent_matches_cold_argmin_spmm(
        n in 96usize..320,
        deg in 2usize..7,
        seed in 0u64..1000,
        wide in any::<bool>(),
        row in 0usize..96,
        cols in proptest::collection::vec(0u32..96, 1..5),
    ) {
        let set = if wide {
            DeviceSet::quad_cpu_quad_gpu()
        } else {
            DeviceSet::dual_cpu_dual_gpu()
        };
        let base = SpmmWorkload::new(sgen::power_law(n, deg, 2.1, seed), platform());
        let space = base.space();
        let minimize = |w: &SpmmWorkload, warm: Option<&[f64]>| {
            let profile = w.build_profile(Pool::global());
            let curve = w.curve(&profile).expect("spmm exposes a cost curve");
            minimize_partition(curve.as_ref(), &set, &space, space.fine_step, warm)
                .expect("spmm prices every band")
        };
        let base_cold = minimize(&base, None);

        // The drifted sibling whose request the cached cuts warm-start.
        let mut cols: Vec<u32> = cols.iter().map(|&c| c % n as u32).collect();
        cols.sort_unstable();
        cols.dedup();
        let vals = vec![1.5; cols.len()];
        let (sibling, _span) = base.apply_delta(&CsrDelta::replace(row % n, cols, vals));
        let cold = minimize(&sibling, None);

        // Exact-class seed (the input's own argmin) and near-hit seed
        // (the undrifted base's argmin).
        for warm_cuts in [&cold.thresholds, &base_cold.thresholds] {
            let warm = minimize(&sibling, Some(warm_cuts.as_slice()));
            prop_assert_eq!(&warm.thresholds, &cold.thresholds);
            prop_assert_eq!(warm.partition.cuts(), cold.partition.cuts());
            prop_assert_eq!(warm.total, cold.total);
            prop_assert!(
                warm.probes <= cold.probes,
                "warm spent {} probes, cold {}", warm.probes, cold.probes
            );
        }
    }

    /// The cc counterpart of the spmm warm-descent property, over graph
    /// deltas.
    #[test]
    fn warm_kway_descent_matches_cold_argmin_cc(
        n in 128usize..400,
        deg in 2usize..6,
        seed in 0u64..1000,
        wide in any::<bool>(),
        a in 0u32..96,
        b in 0u32..96,
    ) {
        let set = if wide {
            DeviceSet::quad_cpu_quad_gpu()
        } else {
            DeviceSet::dual_cpu_dual_gpu()
        };
        let base = CcWorkload::new(ggen::web(n, deg, seed), platform());
        let space = base.space();
        let minimize = |w: &CcWorkload, warm: Option<&[f64]>| {
            let profile = w.build_profile(Pool::global());
            let curve = w.curve(&profile).expect("cc exposes a cost curve");
            minimize_partition(curve.as_ref(), &set, &space, space.fine_step, warm)
                .expect("cc prices every band")
        };
        let base_cold = minimize(&base, None);

        let (a, b) = (a % n as u32, b % n as u32);
        let delta = if a == b {
            GraphDelta::inserts(vec![(a, a.wrapping_add(1) % n as u32)])
        } else {
            GraphDelta::inserts(vec![(a, b)])
        };
        let (sibling, _span) = base.apply_delta(&delta);
        let cold = minimize(&sibling, None);

        for warm_cuts in [&cold.thresholds, &base_cold.thresholds] {
            let warm = minimize(&sibling, Some(warm_cuts.as_slice()));
            prop_assert_eq!(&warm.thresholds, &cold.thresholds);
            prop_assert_eq!(warm.total, cold.total);
            prop_assert!(
                warm.probes <= cold.probes,
                "warm spent {} probes, cold {}", warm.probes, cold.probes
            );
        }
    }
}

/// A warm cut vector holding NaN carries no usable hint: the search drops
/// it and runs cold, serving exactly what no hint serves — the scalar
/// outcome, the canonical-pair partition, and the k = 4 partition alike.
fn assert_nan_hints_serve_cold<W: Profilable>(name: &str, w: &W) {
    let searcher = Searcher::new(SearchStrategy::Analytic { step: None });
    let cold_scalar = searcher.profiled().run(w);
    let pair = DeviceSet::cpu_gpu();
    let dual = DeviceSet::dual_cpu_dual_gpu();
    let cold_pair = searcher.profiled().run_partition(w, &pair);
    let cold_dual = searcher.profiled().run_partition(w, &dual);
    let nan = f64::NAN;
    let hints: [&[f64]; 4] = [
        &[nan],
        &[nan, nan, nan],
        &[nan, 40.0, 80.0],
        &[10.0, 40.0, nan],
    ];
    for hint in hints {
        let warm = searcher.warm_cuts(hint).profiled();
        assert_eq!(warm.run(w), cold_scalar, "{name} scalar, hint {hint:?}");
        assert_eq!(
            warm.run_partition(w, &pair),
            cold_pair,
            "{name} k=2, hint {hint:?}"
        );
        assert_eq!(
            warm.run_partition(w, &dual),
            cold_dual,
            "{name} k=4, hint {hint:?}"
        );
    }

    // The curve-level entry point drops the hint the same way.
    let profile = w.build_profile(Pool::global());
    let curve = w.curve(&profile).expect("exposes a cost curve");
    let space = w.space();
    for set in [&pair, &dual] {
        let cold = minimize_partition(curve.as_ref(), set, &space, space.fine_step, None);
        for hint in hints {
            let warm = minimize_partition(curve.as_ref(), set, &space, space.fine_step, Some(hint));
            assert_eq!(warm, cold, "{name} {}, hint {hint:?}", set.name());
        }
    }
}

#[test]
fn nan_warm_cuts_serve_the_cold_result() {
    assert_nan_hints_serve_cold(
        "spmm",
        &SpmmWorkload::new(sgen::power_law(300, 6, 2.1, 7), platform()),
    );
    assert_nan_hints_serve_cold("cc", &CcWorkload::new(ggen::web(300, 4, 7), platform()));
    assert_nan_hints_serve_cold("gemm", &DenseGemmWorkload::new(96, platform()));
}
