//! Property tests for bounded band pricing: `minimize_partition` prices
//! a band only when its exact price can change a comparison, using the
//! curve's `device_band_bounds`, and must decide exactly what the
//! every-band search decides.
//!
//! * On cc curves (random web, road, FEM and random graphs; k = 3, 4 and
//!   8; a set whose fast GPUs win; cold, warm and NaN hints; steps 1 and
//!   4) the bounded search equals, in thresholds, partition, total bits,
//!   probes and sweeps, the same search on an adapter that hides the
//!   bounds, and prices no more bands.
//! * A fixed corpus pins thresholds, total bits, probes and sweeps to the
//!   values the every-band search produced before bounds existed.
//! * spmm and gemm keep the trivial bounds: same decisions, no bounded
//!   band, and no more bands priced.

use nbwp_core::prelude::*;
use nbwp_graph::gen as ggen;
use nbwp_graph::Graph;
use nbwp_sim::{BandWork, Device, DeviceKind, RunReport};
use nbwp_sparse::gen as sgen;
use proptest::prelude::*;

/// A curve with every price of `inner` and the trivial band bounds: the
/// search on it prices every band a comparison meets, as the search did
/// before bounds existed.
struct BoundsHidden<'a>(&'a dyn CurveEval);

impl CurveEval for BoundsHidden<'_> {
    fn splits(&self) -> usize {
        self.0.splits()
    }
    fn split_for(&self, t: f64) -> usize {
        self.0.split_for(t)
    }
    fn report_at(&self, split: usize) -> RunReport {
        self.0.report_at(split)
    }
    fn platform(&self) -> &Platform {
        self.0.platform()
    }
    fn total_at(&self, split: usize) -> SimTime {
        self.0.total_at(split)
    }
    fn band_work(&self, kind: DeviceKind, lo: usize, hi: usize) -> Option<BandWork> {
        self.0.band_work(kind, lo, hi)
    }
    fn device_band(&self, device: &Device, lo: usize, hi: usize) -> Option<SimTime> {
        self.0.device_band(device, lo, hi)
    }
    fn partition_overhead(&self) -> SimTime {
        self.0.partition_overhead()
    }
    fn merge_cost(&self, set: &DeviceSet, p: &Partition) -> SimTime {
        self.0.merge_cost(set, p)
    }
    fn partition_total(&self, set: &DeviceSet, p: &Partition) -> Option<SimTime> {
        self.0.partition_total(set, p)
    }
}

/// A cc input of one family; family 3 is a random graph whose every
/// seventh vertex is isolated.
fn graph(family: u8, n: usize, seed: u64) -> Graph {
    match family {
        0 => ggen::web(n, 4, seed),
        1 => ggen::road(n, seed),
        2 => ggen::fem(n, 12, 6, seed),
        _ => {
            let edges: Vec<(u32, u32)> = ggen::random(n, 3, seed)
                .edges()
                .filter(|&(u, v)| u % 7 != 0 && v % 7 != 0)
                .collect();
            Graph::from_edges(n, &edges)
        }
    }
}

fn platform(i: u8) -> Platform {
    match i {
        0 => Platform::k40c_xeon_e5_2650(),
        1 => Platform::balanced(),
        2 => Platform::gpu_heavy(),
        _ => Platform::cpu_heavy(),
    }
}

/// The k = 4 and k = 8 presets, a k = 4 set whose fast GPUs win, and a
/// k = 3 set.
fn set(i: u8) -> DeviceSet {
    match i {
        0 => DeviceSet::dual_cpu_dual_gpu(),
        1 => DeviceSet::quad_cpu_quad_gpu(),
        2 => DeviceSet::new(
            "fast-gpus",
            vec![
                Device::cpu(),
                Device::cpu().with_speed(0.5),
                Device::gpu().with_speed(8.0),
                Device::gpu().with_speed(40.0),
            ],
        ),
        _ => DeviceSet::new(
            "three",
            vec![Device::cpu(), Device::gpu(), Device::gpu().with_speed(4.0)],
        ),
    }
}

/// Asserts that the bounded search on `curve` decides exactly what the
/// every-band search decides, and prices no more bands.
fn assert_same_decision(
    curve: &dyn CurveEval,
    set: &DeviceSet,
    space: &ThresholdSpace,
    step: f64,
    warm: Option<&[f64]>,
    what: &str,
) -> (PartitionMinimum, PartitionMinimum) {
    let bounded = minimize_partition(curve, set, space, step, warm).expect("prices bands");
    let every =
        minimize_partition(&BoundsHidden(curve), set, space, step, warm).expect("prices bands");
    let bits =
        |m: &PartitionMinimum| -> Vec<u64> { m.thresholds.iter().map(|t| t.to_bits()).collect() };
    assert_eq!(bits(&bounded), bits(&every), "{what}: thresholds");
    assert_eq!(bounded.partition, every.partition, "{what}: partition");
    assert_eq!(
        bounded.total.as_secs().to_bits(),
        every.total.as_secs().to_bits(),
        "{what}: total"
    );
    assert_eq!(bounded.probes, every.probes, "{what}: probes");
    assert_eq!(bounded.sweeps, every.sweeps, "{what}: sweeps");
    assert_eq!(
        every.bands_bounded, 0,
        "{what}: trivial bounds settle nothing"
    );
    assert!(
        bounded.bands_priced <= every.bands_priced,
        "{what}: {} bands priced against {}",
        bounded.bands_priced,
        every.bands_priced
    );
    (bounded, every)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// The bounded search on random cc inputs is the every-band search:
    /// same cuts, total bits, probes and sweeps, cold and warm.
    #[test]
    fn bounded_cc_search_decides_like_every_band_pricing(
        family in 0u8..4,
        n in 24usize..360,
        seed in any::<u64>(),
        plat in 0u8..4,
        which in 0u8..4,
        coarse in any::<bool>(),
        hint in 0u8..3,
        raw in prop::collection::vec(0f64..100.0, 7),
    ) {
        let w = CcWorkload::new(graph(family, n, seed), platform(plat));
        let profile = w.build_profile(Pool::global());
        let curve = w.curve(&profile).expect("cc exposes a cost curve");
        let space = w.space();
        let set = set(which);
        let step = if coarse { 4.0 } else { space.fine_step };
        let mut cuts: Vec<f64> = raw[..set.len() - 1].to_vec();
        cuts.sort_by(f64::total_cmp);
        if hint == 2 {
            cuts[0] = f64::NAN;
        }
        let warm = (hint > 0).then_some(cuts.as_slice());
        let what = format!("family {family}, n {n}, seed {seed}, {}, step {step}, warm {warm:?}", set.name());
        assert_same_decision(curve.as_ref(), &set, &space, step, warm, &what);
    }
}

/// `(family, n, seed, platform, set, step, warm, thresholds, total,
/// probes, sweeps)`: decisions of the every-band search before bounds
/// existed, as f64 bits.
type CorpusRow = (
    u8,
    usize,
    u64,
    u8,
    u8,
    f64,
    Option<&'static [f64]>,
    &'static [u64],
    u64,
    usize,
    usize,
);

#[rustfmt::skip]
const CORPUS: [CorpusRow; 80] = [
    (0, 700, 1, 0, 0, 1.0, None, &[0x4054c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f07a79ff2a5b26a, 230, 6),
    (0, 700, 1, 0, 0, 4.0, None, &[0x4056000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0752ba3913817d, 158, 6),
    (0, 700, 1, 0, 1, 1.0, None, &[0x0000000000000000, 0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1401f001352e96, 936, 3),
    (0, 700, 1, 0, 1, 4.0, None, &[0x0000000000000000, 0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1401f001352e96, 884, 3),
    (0, 700, 1, 0, 2, 1.0, None, &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x3f059ef610ce0aa2, 266, 5),
    (0, 700, 1, 0, 2, 4.0, None, &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x3f059ef610ce0aa2, 190, 5),
    (0, 700, 1, 0, 3, 1.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f08b06d332260aa, 256, 4),
    (0, 700, 1, 0, 3, 4.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f08b06d332260aa, 153, 4),
    (0, 700, 1, 0, 0, 1.0, Some(&[10.0, 45.0, 70.0]), &[0x4054c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f07a79ff2a5b26a, 250, 4),
    (0, 700, 1, 0, 2, 1.0, Some(&[5.0, 30.0, 60.0]), &[0x404d000000000000, 0x404d800000000000, 0x404d800000000000], 0x3f0b48fae19e026b, 219, 5),
    (0, 1400, 2, 1, 0, 1.0, None, &[0x4052c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f09cc218049cf0e, 242, 6),
    (0, 1400, 2, 1, 0, 4.0, None, &[0x4053000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f09eb67c4992977, 160, 6),
    (0, 1400, 2, 1, 1, 1.0, None, &[0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f133c60e18c7a13, 1806, 20),
    (0, 1400, 2, 1, 1, 4.0, None, &[0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f133c60e18c7a13, 915, 5),
    (0, 1400, 2, 1, 2, 1.0, None, &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x3f04fa5f0d8e5d9f, 246, 5),
    (0, 1400, 2, 1, 2, 4.0, None, &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x3f04fa5f0d8e5d9f, 166, 5),
    (0, 1400, 2, 1, 3, 1.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f0d0bffcaddef7a, 158, 3),
    (0, 1400, 2, 1, 3, 4.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f0d0bffcaddef7a, 122, 4),
    (0, 1400, 2, 1, 0, 1.0, Some(&[10.0, 45.0, 70.0]), &[0x4052c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f09cc218049cf0e, 333, 5),
    (0, 1400, 2, 1, 2, 1.0, Some(&[5.0, 30.0, 60.0]), &[0x4024000000000000, 0x4043000000000000, 0x4043000000000000], 0x3f0cd070fd05a226, 685, 32),
    (1, 900, 3, 0, 0, 1.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f05aafda2ae743a, 213, 5),
    (1, 900, 3, 0, 0, 4.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f05aafda2ae743a, 148, 5),
    (1, 900, 3, 0, 1, 1.0, None, &[0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1402b446f5cd4a, 928, 6),
    (1, 900, 3, 0, 1, 4.0, None, &[0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1402b446f5cd4a, 880, 6),
    (1, 900, 3, 0, 2, 1.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f03c63715398084, 245, 4),
    (1, 900, 3, 0, 2, 4.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f03c63715398084, 180, 4),
    (1, 900, 3, 0, 3, 1.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f03c63715398084, 453, 9),
    (1, 900, 3, 0, 3, 4.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f03c63715398084, 122, 4),
    (1, 900, 3, 0, 0, 1.0, Some(&[10.0, 45.0, 70.0]), &[0x0000000000000000, 0x4046000000000000, 0x4058400000000000], 0x3f27401f7bebb653, 689, 13),
    (1, 900, 3, 0, 2, 1.0, Some(&[5.0, 30.0, 60.0]), &[0x0000000000000000, 0x404e000000000000, 0x404e000000000000], 0x3f0a049379e6e9b0, 317, 7),
    (1, 1600, 4, 2, 0, 1.0, None, &[0x4052400000000000, 0x4059000000000000, 0x4059000000000000], 0x3f05f32dfd3637f0, 236, 6),
    (1, 1600, 4, 2, 0, 4.0, None, &[0x4052000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f06329ad39eacb8, 162, 6),
    (1, 1600, 4, 2, 1, 1.0, None, &[0x0000000000000000, 0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1329ed7d71752e, 920, 3),
    (1, 1600, 4, 2, 1, 4.0, None, &[0x0000000000000000, 0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1329ed7d71752e, 883, 3),
    (1, 1600, 4, 2, 2, 1.0, None, &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x3f0416697ebc13cf, 269, 5),
    (1, 1600, 4, 2, 2, 4.0, None, &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x3f0416697ebc13cf, 194, 5),
    (1, 1600, 4, 2, 3, 1.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f08b21238907f59, 225, 4),
    (1, 1600, 4, 2, 3, 4.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f08b21238907f59, 122, 4),
    (1, 1600, 4, 2, 0, 1.0, Some(&[10.0, 45.0, 70.0]), &[0x4052400000000000, 0x4059000000000000, 0x4059000000000000], 0x3f05f32dfd3637f0, 280, 5),
    (1, 1600, 4, 2, 2, 1.0, Some(&[5.0, 30.0, 60.0]), &[0x4049800000000000, 0x4050400000000000, 0x4050400000000000], 0x3f08e3912500e4aa, 654, 14),
    (2, 800, 5, 3, 0, 1.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0699c1cd37386c, 212, 5),
    (2, 800, 5, 3, 0, 4.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0699c1cd37386c, 148, 5),
    (2, 800, 5, 3, 1, 1.0, None, &[0x0000000000000000, 0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f147a165c3a2f63, 939, 3),
    (2, 800, 5, 3, 1, 4.0, None, &[0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f147a165c3a2f63, 853, 4),
    (2, 800, 5, 3, 2, 1.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0699c1cd37386c, 212, 5),
    (2, 800, 5, 3, 2, 4.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0699c1cd37386c, 149, 5),
    (2, 800, 5, 3, 3, 1.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f0699c1cd37386c, 150, 3),
    (2, 800, 5, 3, 3, 4.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f0699c1cd37386c, 210, 6),
    (2, 800, 5, 3, 0, 1.0, Some(&[10.0, 45.0, 70.0]), &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0699c1cd37386c, 607, 10),
    (2, 800, 5, 3, 2, 1.0, Some(&[5.0, 30.0, 60.0]), &[0x403e000000000000, 0x404e800000000000, 0x404f000000000000], 0x3f103b77e03af13e, 269, 3),
    (3, 1000, 6, 0, 0, 1.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f05febc8b808496, 205, 5),
    (3, 1000, 6, 0, 0, 4.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f05febc8b808496, 148, 5),
    (3, 1000, 6, 0, 1, 1.0, None, &[0x0000000000000000, 0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f14070555a83b17, 931, 3),
    (3, 1000, 6, 0, 1, 4.0, None, &[0x0000000000000000, 0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f14070555a83b17, 883, 3),
    (3, 1000, 6, 0, 2, 1.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f05febc8b808496, 245, 4),
    (3, 1000, 6, 0, 2, 4.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f05febc8b808496, 180, 4),
    (3, 1000, 6, 0, 3, 1.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f05febc8b808496, 528, 12),
    (3, 1000, 6, 0, 3, 4.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f05febc8b808496, 208, 9),
    (3, 1000, 6, 0, 0, 1.0, Some(&[10.0, 45.0, 70.0]), &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f05febc8b808496, 450, 8),
    (3, 1000, 6, 0, 2, 1.0, Some(&[5.0, 30.0, 60.0]), &[0x0000000000000000, 0x404d000000000000, 0x404e000000000000], 0x3f0c328e3cf44556, 464, 9),
    (0, 3000, 7, 0, 0, 1.0, None, &[0x4051000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f10ac2cb77a4731, 246, 6),
    (0, 3000, 7, 0, 0, 4.0, None, &[0x4051000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f10ac2cb77a4731, 160, 6),
    (0, 3000, 7, 0, 1, 1.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1452973186e84a, 1286, 20),
    (0, 3000, 7, 0, 1, 4.0, None, &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1452973186e84a, 861, 6),
    (0, 3000, 7, 0, 2, 1.0, None, &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x3f0a6da97967c075, 245, 5),
    (0, 3000, 7, 0, 2, 4.0, None, &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x3f0a6da97967c075, 166, 5),
    (0, 3000, 7, 0, 3, 1.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f144d69aadeab4e, 195, 3),
    (0, 3000, 7, 0, 3, 4.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f144d69aadeab4e, 122, 4),
    (0, 3000, 7, 0, 0, 1.0, Some(&[10.0, 45.0, 70.0]), &[0x4051000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f10ac2cb77a4731, 269, 4),
    (0, 3000, 7, 0, 2, 1.0, Some(&[5.0, 30.0, 60.0]), &[0x4024000000000000, 0x4040800000000000, 0x4040800000000000], 0x3f10534a462f862c, 462, 25),
    (1, 5000, 8, 1, 0, 1.0, None, &[0x4053c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0b6217b448a102, 228, 6),
    (1, 5000, 8, 1, 0, 4.0, None, &[0x4054000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0b7febcf39b22f, 157, 5),
    (1, 5000, 8, 1, 1, 1.0, None, &[0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1405e09d1e0754, 930, 3),
    (1, 5000, 8, 1, 1, 4.0, None, &[0x0000000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1405e09d1e0754, 915, 5),
    (1, 5000, 8, 1, 2, 1.0, None, &[0x0000000000000000, 0x0000000000000000, 0x4030000000000000], 0x3f0800f0049daceb, 268, 6),
    (1, 5000, 8, 1, 2, 4.0, None, &[0x0000000000000000, 0x0000000000000000, 0x4030000000000000], 0x3f0800f0049daceb, 169, 5),
    (1, 5000, 8, 1, 3, 1.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f0db9ec6771eb54, 696, 15),
    (1, 5000, 8, 1, 3, 4.0, None, &[0x4059000000000000, 0x4059000000000000], 0x3f0db9ec6771eb54, 153, 5),
    (1, 5000, 8, 1, 0, 1.0, Some(&[10.0, 45.0, 70.0]), &[0x4053c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0b6217b448a102, 284, 5),
    (1, 5000, 8, 1, 2, 1.0, Some(&[5.0, 30.0, 60.0]), &[0x4044000000000000, 0x4044000000000000, 0x4044000000000000], 0x3f0c74f39e532954, 274, 5),
];

#[test]
fn corpus_decisions_repeat_bitwise() {
    for &(family, n, seed, plat, which, step, warm, thresholds, total, probes, sweeps) in &CORPUS {
        let w = CcWorkload::new(graph(family, n, seed), platform(plat));
        let profile = w.build_profile(Pool::global());
        let curve = w.curve(&profile).expect("cc exposes a cost curve");
        let set = set(which);
        let m = minimize_partition(curve.as_ref(), &set, &w.space(), step, warm)
            .expect("cc prices bands");
        let what = format!(
            "family {family}, n {n}, seed {seed}, {}, step {step}, warm {warm:?}",
            set.name()
        );
        let bits: Vec<u64> = m.thresholds.iter().map(|t| t.to_bits()).collect();
        assert_eq!(bits, thresholds, "{what}: thresholds");
        assert_eq!(m.total.as_secs().to_bits(), total, "{what}: total");
        assert_eq!(
            (m.probes, m.sweeps),
            (probes, sweeps),
            "{what}: probes, sweeps"
        );
    }
}

/// cc bounds settle bands and save replays at k > 2; spmm and gemm keep
/// the trivial bounds, so nothing is settled by a bound and no more bands
/// are priced than before.
#[test]
fn bounds_save_cc_bands_and_leave_closed_form_curves_alone() {
    let cc = CcWorkload::new(ggen::web(2000, 4, 3), Platform::k40c_xeon_e5_2650());
    let spmm = SpmmWorkload::new(
        sgen::power_law(600, 6, 2.1, 5),
        Platform::k40c_xeon_e5_2650(),
    );
    let gemm = DenseGemmWorkload::new(96, Platform::k40c_xeon_e5_2650());
    let sets = [set(0), set(1), set(2)];
    for set in &sets {
        let profile = cc.build_profile(Pool::global());
        let curve = cc.curve(&profile).expect("cc exposes a cost curve");
        let space = cc.space();
        let (bounded, every) = assert_same_decision(
            curve.as_ref(),
            set,
            &space,
            space.fine_step,
            None,
            set.name(),
        );
        assert!(
            bounded.bands_bounded > 0,
            "cc {}: no band settled by its bound",
            set.name()
        );
        assert!(
            bounded.bands_priced < every.bands_priced,
            "cc {}: {} bands priced against {}",
            set.name(),
            bounded.bands_priced,
            every.bands_priced
        );
    }
    for set in &sets {
        let spmm_profile = spmm.build_profile(Pool::global());
        for (name, (bounded, every)) in [
            ("spmm", minimize_with(&spmm, &spmm_profile, set)),
            (
                "gemm",
                minimize_with(&gemm, &gemm.build_profile(Pool::global()), set),
            ),
        ] {
            let what = format!("{name} {}", set.name());
            assert_eq!(bounded.bands_bounded, 0, "{what}");
            assert!(bounded.bands_priced <= every.bands_priced, "{what}");
        }
    }
}

/// The bounded and the every-band search of `w` on `set`, cold, at the
/// fine step.
fn minimize_with<W: Profilable>(
    w: &W,
    profile: &W::Profile,
    set: &DeviceSet,
) -> (PartitionMinimum, PartitionMinimum) {
    let curve = w.curve(profile).expect("exposes a cost curve");
    let space = w.space();
    assert_same_decision(
        curve.as_ref(),
        set,
        &space,
        space.fine_step,
        None,
        set.name(),
    )
}
