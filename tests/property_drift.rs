//! Property tests for the incremental drift layer (the drift PR's
//! satellite): for random inputs and random delta batches, span-patched
//! profiles must be **bitwise equal** to profiles rebuilt from scratch,
//! chained fingerprints must match fresh sketches statistic-for-statistic,
//! a [`DriftServer`] under small localized drift must serve the same
//! threshold as a cold re-estimation, cache/audit hooks must be
//! observation-only, and [`ThresholdCache`] generation invalidation must
//! be monotone.
//!
//! Delta batches deliberately include the legal no-ops: empty deltas,
//! duplicate-edge inserts, deletes of absent edges, and empty-row
//! replacements, plus rows landing exactly on warp (32-row) boundaries.
//!
//! Served steps are also held, bitwise and step for step, to a reference
//! that re-profiles every drifted input from scratch, at k = 2 and k = 4:
//! surviving cc band replays and the spmm halo search change what a step
//! costs, never what it serves.

use nbwp_core::prelude::*;
use nbwp_core::threshold_cache::{CacheKey, ConfigKey, NearCacheKey};
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::gen as ggen;
use nbwp_sim::ProfileScratch;
use nbwp_sparse::delta::{CsrDelta, RowOp};
use nbwp_sparse::gen as sgen;
use nbwp_trace::FlightRecorder;
use proptest::prelude::*;
use std::ops::Range;

// `Strategy` is both the estimator enum (nbwp prelude) and the proptest
// value-generation trait; pin the enum for the cache-key test below.
use nbwp_core::prelude::Strategy;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650()
}

/// Asserts every fingerprint statistic matches a fresh sketch of the same
/// input. The digest is excluded by design: a chained fingerprint commits
/// to `(base, delta script)`, so its digest intentionally differs from a
/// from-scratch digest.
fn assert_fingerprint_stats_match(drifted: &Fingerprint, fresh: &Fingerprint) {
    assert_eq!(drifted.kind, fresh.kind);
    assert_eq!(drifted.n, fresh.n);
    assert_eq!(drifted.m, fresh.m);
    assert_eq!(drifted.mean_degree.to_bits(), fresh.mean_degree.to_bits());
    assert_eq!(drifted.degree_cv.to_bits(), fresh.degree_cv.to_bits());
    assert_eq!(drifted.max_degree, fresh.max_degree);
    assert_eq!(drifted.degree_sq_sum, fresh.degree_sq_sum);
    assert_eq!(drifted.log2_hist, fresh.log2_hist);
    assert_eq!(drifted.density_class, fresh.density_class);
}

/// Asserts a span-patched profile prices k-way device bands exactly like
/// the fresh build it must equal: every band of a k=4 partition, plus the
/// composed partition total, bitwise — the contract the warm k-way drift
/// path descends on.
fn assert_kway_band_pricing_parity<W: DriftWorkload>(
    w: &W,
    patched: &W::Profile,
    fresh: &W::Profile,
) {
    let set = DeviceSet::dual_cpu_dual_gpu();
    let (Some(pc), Some(fc)) = (w.curve(patched), w.curve(fresh)) else {
        return;
    };
    let units = pc.splits() - 1;
    let part = Partition::new(units, vec![units / 4, units / 2, 3 * units / 4]);
    assert_eq!(
        pc.partition_total(&set, &part),
        fc.partition_total(&set, &part),
        "patched k-way total diverged from fresh"
    );
    for (device, (lo, hi)) in set.devices().iter().zip(part.bands()) {
        assert_eq!(
            pc.device_band(device, lo, hi),
            fc.device_band(device, lo, hi),
            "patched band {lo}..{hi} diverged from fresh"
        );
    }
}

/// Replays `deltas` through a [`DriftServer`] on `set` and checks every
/// step, bitwise, against a reference that rebuilds the drifted workload
/// and its profile from scratch (`advance`, which also gives the span the
/// step must report) and descends warm from the previous cut vector.
fn assert_steps_equal_fresh_reference<W: DriftWorkload + Clone>(
    base: W,
    set: &DeviceSet,
    deltas: &[W::Delta],
    advance: impl Fn(&W, &W::Delta) -> (W, Range<usize>),
) {
    let mut server = DriftServer::new(base.clone()).with_devices(set.clone());
    let mut reference = base;
    for (i, d) in deltas.iter().enumerate() {
        let prev = server.cuts().to_vec();
        let step = server.apply(d);
        let (next, span) = advance(&reference, d);
        let profile = next.build_profile(Pool::global());
        let space = next.space();
        let curve = next.curve(&profile).expect("curve");
        let m = minimize_partition(curve.as_ref(), set, &space, space.fine_step, Some(&prev))
            .expect("cc and spmm curves price bands");
        let decision = if m.thresholds == prev {
            DriftDecision::Patched
        } else {
            DriftDecision::Nudged
        };
        let k = set.len();
        assert_eq!(step.cuts, m.thresholds, "k = {k}, step {i}");
        assert_eq!(step.total, m.total, "k = {k}, step {i}");
        assert_eq!(step.probes, m.probes, "k = {k}, step {i}");
        assert_eq!(step.decision, decision, "k = {k}, step {i}");
        assert_eq!(step.span, span, "k = {k}, step {i}");
        drop(curve);
        reference = next;
    }
}

/// `steps` windowed edge-edit batches on `g`: inserts and deletes inside
/// one 16-vertex window each, one of the deletes an edge `g` has there.
fn cc_window_script(g: &nbwp_graph::Graph, steps: usize, seed: u64) -> Vec<GraphDelta> {
    let mut x = seed | 1;
    let mut next = move |m: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % m as u64) as usize
    };
    (0..steps)
        .map(|_| {
            let start = next(g.n() - 16);
            let window = start..start + 16;
            let mut d = GraphDelta::default();
            for _ in 0..1 + next(4) {
                let mut v = || (window.start + next(16)) as u32;
                d.insert.push((v(), v()));
                d.delete.push((v(), v()));
            }
            let u = window.start + next(16);
            if let Some(&v) = g
                .neighbors(u)
                .iter()
                .find(|&&v| window.contains(&(v as usize)))
            {
                d.delete.push((u as u32, v));
            }
            d
        })
        .collect()
}

/// The reference cc step: the drifted graph, re-profiled from scratch,
/// and the span from the lowest to the highest endpoint of a named
/// non-loop edge.
fn cc_advance(w: &CcWorkload, d: &GraphDelta) -> (CcWorkload, Range<usize>) {
    let ends = d
        .insert
        .iter()
        .chain(&d.delete)
        .filter(|(u, v)| u != v)
        .flat_map(|&(u, v)| [u as usize, v as usize]);
    let span = match (ends.clone().min(), ends.max()) {
        (Some(lo), Some(hi)) => lo..hi + 1,
        _ => 0..0,
    };
    (CcWorkload::new(d.apply(w.graph()).0, platform()), span)
}

/// The reference spmm step: the drifted matrix, re-profiled from scratch,
/// and the span over every row the script names or whose new columns
/// name one of those rows.
fn spmm_advance(w: &SpmmWorkload, d: &CsrDelta) -> (SpmmWorkload, Range<usize>) {
    let a = d.apply(w.matrix()).0;
    let edited: Vec<bool> = (0..a.rows())
        .map(|r| d.ops.iter().any(|op| op.row() == r))
        .collect();
    let hit: Vec<usize> = (0..a.rows())
        .filter(|&i| edited[i] || a.row(i).0.iter().any(|&k| edited[k as usize]))
        .collect();
    let span = match (hit.first(), hit.last()) {
        (Some(&lo), Some(&hi)) => lo..hi + 1,
        _ => 0..0,
    };
    (SpmmWorkload::new(a, platform()), span)
}

/// `steps` windowed row-replacement scripts on a banded `n`-row matrix:
/// every row of one window gets a fresh pattern near the diagonal (some
/// empty), plus a value-only scale.
fn spmm_window_script(n: usize, steps: usize, seed: u64) -> Vec<CsrDelta> {
    let mut x = seed | 1;
    let mut next = move |m: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % m as u64) as usize
    };
    (0..steps)
        .map(|_| {
            let (c, w) = (next(n - 8), 1 + next(8));
            let mut ops: Vec<RowOp> = (c..c + w)
                .map(|row| {
                    let mut cols: Vec<u32> = (0..next(5))
                        .map(|_| (row + next(13)).saturating_sub(6).min(n - 1) as u32)
                        .collect();
                    cols.sort_unstable();
                    cols.dedup();
                    let vals = vec![1.0; cols.len()];
                    RowOp::Replace { row, cols, vals }
                })
                .collect();
            ops.push(RowOp::Scale {
                row: next(n),
                factor: 1.5,
            });
            CsrDelta { ops }
        })
        .collect()
}

/// Over a 300-step cc replay at k = 4, the band-replay memos stay
/// bounded by the pairs of candidate splits: every band a drift server
/// prices has both ends on the collapsed candidate grid, and a patch
/// keeps only bands that miss its span.
#[test]
fn cc_kway_memos_stay_within_the_candidate_split_pairs() {
    let g = ggen::web(1500, 4, 9);
    let deltas = cc_window_script(&g, 300, 9);
    let mut server = DriftServer::new(CcWorkload::new(g, platform()))
        .with_devices(DeviceSet::dual_cpu_dual_gpu());
    let space = server.workload().space();
    let m = {
        let curve = server.workload().curve(server.profile()).expect("curve");
        candidate_splits(curve.as_ref(), &space, space.fine_step).len()
    };
    let pairs = m * (m + 1) / 2;
    for (i, d) in deltas.iter().enumerate() {
        let step = server.apply(d);
        assert_ne!(step.decision, DriftDecision::Rebuilt, "step {i}");
        let (sv, dfs) = server.profile().replays();
        assert!(
            sv <= pairs && dfs <= pairs,
            "step {i}: {sv} SV and {dfs} DFS replays over {pairs} candidate pairs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// cc drift servers at k = 2 and k = 4 serve, step for step, the
    /// cuts, total, probes, decision and span of a reference that
    /// rebuilds every drifted graph's profile from scratch.
    #[test]
    fn cc_drift_steps_equal_a_fresh_profile_reference(
        family in 0u8..2,
        n in 600usize..1600,
        seed in 0u64..1000,
    ) {
        let g = match family {
            0 => ggen::web(n, 4, seed),
            _ => ggen::fem(n, 16, 8, seed),
        };
        let mut deltas = cc_window_script(&g, 6, seed);
        deltas.insert(0, GraphDelta::default());
        deltas.push(GraphDelta::default());
        let base = CcWorkload::new(g, platform());
        for set in [DeviceSet::cpu_gpu_static().clone(), DeviceSet::dual_cpu_dual_gpu()] {
            assert_steps_equal_fresh_reference(base.clone(), &set, &deltas, cc_advance);
        }
    }

    /// The same for spmm drift servers on banded and power-law matrices.
    #[test]
    fn spmm_drift_steps_equal_a_fresh_profile_reference(
        family in 0u8..2,
        n in 200usize..700,
        seed in 0u64..1000,
    ) {
        let a = match family {
            0 => sgen::banded_fem(n, 8, 6, seed),
            _ => sgen::power_law(n, 5, 2.1, seed),
        };
        let mut deltas = spmm_window_script(n, 6, seed);
        deltas.insert(0, CsrDelta::default());
        deltas.push(CsrDelta::default());
        let base = SpmmWorkload::new(a, platform());
        for set in [DeviceSet::cpu_gpu_static().clone(), DeviceSet::dual_cpu_dual_gpu()] {
            assert_steps_equal_fresh_reference(base.clone(), &set, &deltas, spmm_advance);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// cc: patching the predecessor's profile over the delta span equals
    /// rebuilding from the successor, across a chain of deltas ending in
    /// a guaranteed-no-op batch (duplicate insert + absent delete) and an
    /// empty one.
    #[test]
    fn cc_patch_equals_rebuild_under_random_deltas(
        n in 64usize..500,
        deg in 1usize..6,
        seed in 0u64..1000,
        inserts in proptest::collection::vec((0u32..500, 0u32..500), 0..20),
        deletes in proptest::collection::vec((0u32..500, 0u32..500), 0..10),
    ) {
        let n32 = n as u32;
        let mut w = CcWorkload::new(ggen::web(n, deg, seed), platform());
        let mut scratch = ProfileScratch::new();
        let mut profile = w.build_profile_in(Pool::global(), &mut scratch);

        let mut d1 = GraphDelta::default();
        for &(u, v) in &inserts {
            let (u, v) = (u % n32, v % n32);
            if u != v {
                d1.insert.push((u, v));
            }
        }
        for &(u, v) in &deletes {
            let (u, v) = (u % n32, v % n32);
            if u != v {
                d1.delete.push((u, v));
            }
        }
        // d2: re-insert an edge d1 just inserted (duplicate, no-op) and
        // delete an edge d1 just deleted (absent, no-op).
        let mut d2 = GraphDelta::default();
        if let Some(&e) = d1.insert.first() {
            d2.insert.push(e);
        }
        if let Some(&e) = d1.delete.last() {
            d2.delete.push(e);
        }
        let deltas = [d1, d2, GraphDelta::default()];

        for (i, d) in deltas.iter().enumerate() {
            let (next, span) = w.apply_delta(d);
            next.patch_profile(&mut profile, span, &mut scratch);
            let fresh = next.build_profile(Pool::global());
            prop_assert_eq!(
                profile.raw_curves(),
                fresh.raw_curves(),
                "cc delta {} of seed {}", i, seed
            );
            let resketch = CcWorkload::new(next.graph().clone(), platform()).fingerprint();
            assert_fingerprint_stats_match(&next.fingerprint(), &resketch);
            assert_kway_band_pricing_parity(&next, &profile, &fresh);
            w = next;
        }
    }

    /// spmm: row replacements (including empty rows and rows on warp
    /// boundaries) and scales patch to the same curves a fresh SpGEMM
    /// profile build produces.
    #[test]
    fn spmm_patch_equals_rebuild_under_random_deltas(
        n in 64usize..400,
        avg in 2usize..8,
        seed in 0u64..1000,
        rows in proptest::collection::vec((0usize..400, proptest::collection::vec(0u32..400, 0..6)), 1..8),
        warp_k in 1usize..4,
        scale_row in 0usize..400,
    ) {
        let mut w = SpmmWorkload::new(sgen::power_law(n, avg, 2.1, seed), platform());
        let mut scratch = ProfileScratch::new();
        let mut profile = w.build_profile_in(Pool::global(), &mut scratch);

        let mut ops: Vec<RowOp> = rows
            .iter()
            .map(|(row, cols)| {
                let mut cols: Vec<u32> = cols.iter().map(|&c| c % n as u32).collect();
                cols.sort_unstable();
                cols.dedup();
                let vals = vec![1.0; cols.len()];
                RowOp::Replace { row: row % n, cols, vals }
            })
            .collect();
        // A row landing exactly on a warp (32-row) boundary of the GPU
        // suffix, and a value-only scale (profile must be unchanged by it).
        if 32 * warp_k < n {
            ops.push(RowOp::Replace {
                row: 32 * warp_k,
                cols: vec![0, (n as u32) - 1],
                vals: vec![1.0, 2.0],
            });
        }
        ops.push(RowOp::Scale { row: scale_row % n, factor: 3.0 });
        let deltas = [CsrDelta { ops }, CsrDelta::default()];

        for (i, d) in deltas.iter().enumerate() {
            let (next, span) = w.apply_delta(d);
            next.patch_profile(&mut profile, span, &mut scratch);
            let fresh = next.build_profile(Pool::global());
            prop_assert_eq!(
                profile.curves(),
                fresh.curves(),
                "spmm delta {} of seed {}", i, seed
            );
            prop_assert_eq!(profile.partition(), fresh.partition());
            let resketch = SpmmWorkload::new(next.matrix().clone(), platform()).fingerprint();
            assert_fingerprint_stats_match(&next.fingerprint(), &resketch);
            assert_kway_band_pricing_parity(&next, &profile, &fresh);
            w = next;
        }
    }

    /// Small localized drift: the warm-served threshold and total must be
    /// exactly what a cold re-estimation of the drifted input produces.
    #[test]
    fn drift_server_small_drift_matches_cold_serving(
        seed in 0u64..200,
        base in 0u32..600,
        width in 2u32..12,
    ) {
        let n = 700u32;
        let mut server = DriftServer::new(CcWorkload::new(ggen::web(n as usize, 4, seed), platform()));
        let a = base % (n - width);
        let deltas = [
            GraphDelta::inserts(vec![(a, a + 1), (a, a + width)]),
            GraphDelta::deletes(vec![(a, a + 1)]),
        ];
        for (i, d) in deltas.iter().enumerate() {
            let step = server.apply(d);
            prop_assert_ne!(step.decision, DriftDecision::Rebuilt, "step {}", i);
            let w = server.workload();
            let profile = w.build_profile(Pool::global());
            let space = w.space();
            let curve = w.curve(&profile).expect("curve");
            let cold = minimize_partition(
                curve.as_ref(),
                DeviceSet::cpu_gpu_static(),
                &space,
                space.fine_step,
                None,
            )
            .expect("the canonical pair prices every curve");
            prop_assert_eq!(step.threshold.to_bits(), cold.thresholds[0].to_bits(), "step {}", i);
            prop_assert_eq!(step.total, cold.total, "step {}", i);
        }
    }

    /// Cache and audit hooks are observation-only: a hooked server returns
    /// bitwise-identical steps to a plain one over the same delta stream.
    #[test]
    fn audited_drift_serving_is_bitwise_identical_to_unaudited(
        n in 64usize..300,
        avg in 2usize..8,
        seed in 0u64..500,
        rows in proptest::collection::vec((0usize..300, proptest::collection::vec(0u32..300, 0..5)), 1..6),
    ) {
        let deltas: Vec<CsrDelta> = rows
            .iter()
            .map(|(row, cols)| {
                let mut cols: Vec<u32> = cols.iter().map(|&c| c % n as u32).collect();
                cols.sort_unstable();
                cols.dedup();
                let vals = vec![1.0; cols.len()];
                CsrDelta { ops: vec![RowOp::Replace { row: row % n, cols, vals }] }
            })
            .collect();

        let make = || SpmmWorkload::new(sgen::power_law(n, avg, 2.1, seed), platform());
        let cache = ThresholdCache::new(16);
        let audit = FlightRecorder::new();
        let mut plain = DriftServer::new(make());
        let mut hooked = DriftServer::new(make()).with_cache(&cache).with_audit(&audit);
        for (i, d) in deltas.iter().enumerate() {
            let a = plain.apply(d);
            let b = hooked.apply(d);
            prop_assert_eq!(a, b, "step {} of seed {}", i, seed);
        }
        prop_assert_eq!(cache.generation(), deltas.len() as u64);
        prop_assert_eq!(audit.totals().requests, deltas.len() as u64);
    }

    /// Generation invalidation is monotone: once a delta generation passes
    /// an exact entry by, it can never be served again — no matter how many
    /// generations elapse — while near-key warm hints survive as advisory.
    #[test]
    fn threshold_cache_generation_invalidation_is_monotone(
        seed in 0u64..500,
        advances in 1u64..6,
    ) {
        let w = SpmmWorkload::new(sgen::power_law(128, 6, 2.1, seed), platform());
        let fp = w.fingerprint();
        let key = CacheKey {
            input: fp.exact_key(),
            config: ConfigKey::with_devices(
                Strategy::CoarseToFine,
                SampleSpec::default(),
                7,
                1,
                DeviceSet::cpu_gpu_static(),
            ),
        };
        let near = NearCacheKey::of(fp.near_key(), Strategy::CoarseToFine);
        let est = SamplingEstimate {
            threshold: 42.0,
            sample_threshold: 21.0,
            overhead: SimTime::from_millis(1.0),
            evaluations: 9,
            sample_size: 10,
            grad_probes: 5,
        };

        let cache = ThresholdCache::new(8);
        cache.insert(key, near, &est);
        prop_assert!(cache.get_exact(&key).is_some());

        let g0 = cache.generation();
        for i in 0..advances {
            prop_assert_eq!(cache.advance_generation(), g0 + i + 1);
        }
        // The stale entry is dropped on its first post-advance lookup and
        // stays gone.
        prop_assert!(cache.get_exact(&key).is_none());
        prop_assert!(cache.get_exact(&key).is_none());
        prop_assert_eq!(cache.stats().stale_evictions, 1);
        // Warm hints are advisory, not served results: they survive drift.
        prop_assert!(cache.get_near(&near).is_some());

        // Re-inserting at the current generation serves again, and the next
        // generation invalidates again: generations only move forward.
        cache.insert(key, near, &est);
        prop_assert!(cache.get_exact(&key).is_some());
        cache.advance_generation();
        prop_assert!(cache.get_exact(&key).is_none());
    }
}
