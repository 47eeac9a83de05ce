//! A recorded drift corpus: 100 served steps on cc (web, road, FEM) and
//! spmm (banded, power-law) inputs of 400–2 000 units, at k = 2 and
//! k = 4, replayed through [`DriftServer`] and compared bit for bit with
//! what the server served when the corpus was recorded.
//!
//! Each script mixes `bench_drift`-shaped windowed edits at 0.1%, 1% and
//! 10% of the units with empty deltas and whole-input spans (a cc edge
//! `(0, n − 1)`; spmm rows 0 and n − 1 replaced in one delta). Every step
//! patches its span and descends warm from the previous cuts; no step of
//! the corpus was ever served by a rebuild.

use nbwp_core::prelude::*;
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::gen as ggen;
use nbwp_sparse::delta::{CsrDelta, RowOp};
use nbwp_sparse::gen as sgen;

/// A deterministic xorshift stream for the scripts.
struct Rng(u64);

impl Rng {
    fn below(&mut self, m: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % m.max(1) as u64) as usize
    }
}

/// What each step of a script does.
#[derive(Copy, Clone)]
enum Op {
    /// Edits inside one window covering this fraction of the units.
    Window(f64),
    /// No edits at all.
    Empty,
    /// Touches the first and the last unit in one delta.
    Whole,
}

const SCRIPT: [Op; 10] = [
    Op::Window(0.001),
    Op::Window(0.01),
    Op::Window(0.1),
    Op::Empty,
    Op::Whole,
    Op::Window(0.01),
    Op::Window(0.1),
    Op::Whole,
    Op::Window(0.001),
    Op::Empty,
];

/// `bench_drift`'s windowed cc script, plus empty deltas and the
/// whole-input edge `(0, n − 1)` (inserted, then deleted again).
fn cc_script(n: usize, seed: u64) -> Vec<GraphDelta> {
    let mut rng = Rng(seed | 1);
    let mut whole = 0;
    SCRIPT
        .iter()
        .map(|&op| match op {
            Op::Window(fraction) => {
                let w = ((n as f64 * fraction) as usize).clamp(2, n);
                let c = rng.below(n - w + 1);
                let edge = |rng: &mut Rng| {
                    let (u, v) = (c + rng.below(w), c + rng.below(w));
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
            }
            Op::Empty => GraphDelta::default(),
            Op::Whole => {
                whole += 1;
                let e = vec![(0, n as u32 - 1)];
                if whole == 1 {
                    GraphDelta::inserts(e)
                } else {
                    GraphDelta::deletes(e)
                }
            }
        })
        .collect()
}

/// A fresh banded pattern for `row` (columns within 16 of the diagonal).
fn banded_row(rng: &mut Rng, n: usize, row: usize) -> RowOp {
    let lo = row.saturating_sub(16);
    let hi = (row + 16).min(n - 1);
    let mut cols: Vec<u32> = (0..2 + rng.below(5))
        .map(|_| (lo + rng.below(hi - lo + 1)) as u32)
        .collect();
    cols.sort_unstable();
    cols.dedup();
    let vals = vec![1.0; cols.len()];
    RowOp::Replace { row, cols, vals }
}

/// `bench_drift`'s windowed spmm script, plus empty deltas and one delta
/// replacing rows 0 and n − 1.
fn spmm_script(n: usize, seed: u64) -> Vec<CsrDelta> {
    let mut rng = Rng(seed | 1);
    SCRIPT
        .iter()
        .map(|&op| match op {
            Op::Window(fraction) => {
                let w = ((n as f64 * fraction) as usize).clamp(1, n);
                let c = rng.below(n - w + 1);
                let mut ops: Vec<RowOp> = (c..c + w).map(|r| banded_row(&mut rng, n, r)).collect();
                ops.push(RowOp::Scale {
                    row: c,
                    factor: 1.5,
                });
                CsrDelta { ops }
            }
            Op::Empty => CsrDelta::default(),
            Op::Whole => CsrDelta {
                ops: vec![banded_row(&mut rng, n, 0), banded_row(&mut rng, n, n - 1)],
            },
        })
        .collect()
}

/// One served step, as pinned: decision, cut bits, total bits, probes,
/// probes saved, span, span-fraction bits and regret bits.
type Row = (
    &'static str,
    Vec<u64>,
    u64,
    usize,
    u64,
    (usize, usize),
    u64,
    u64,
);

fn row(step: &DriftStep) -> Row {
    (
        step.decision.name(),
        step.cuts.iter().map(|c| c.to_bits()).collect(),
        step.total.as_secs().to_bits(),
        step.probes,
        step.probes_saved,
        (step.span.start, step.span.end),
        step.span_fraction.to_bits(),
        step.regret_pct.to_bits(),
    )
}

fn replay<W: DriftWorkload + Clone>(
    base: &W,
    deltas: &[W::Delta],
    out: &mut Vec<(String, Row)>,
    name: &str,
) {
    for set in [
        DeviceSet::cpu_gpu_static().clone(),
        DeviceSet::dual_cpu_dual_gpu(),
    ] {
        let mut server = DriftServer::new(base.clone()).with_devices(set.clone());
        for (i, d) in deltas.iter().enumerate() {
            let step = server.apply(d);
            out.push((format!("{name} k = {}, step {i}", set.len()), row(&step)));
        }
    }
}

/// Every corpus step, in corpus order, with a label naming it.
fn served_steps() -> Vec<(String, Row)> {
    let mut out = Vec::new();
    let cc = [
        (
            "cc web 700",
            ggen::web(700, 4, 11),
            Platform::k40c_xeon_e5_2650(),
        ),
        ("cc road 1200", ggen::road(1200, 12), Platform::gpu_heavy()),
        (
            "cc fem 2000",
            ggen::fem(2000, 16, 8, 13),
            Platform::balanced(),
        ),
    ];
    for (i, (name, g, platform)) in cc.into_iter().enumerate() {
        let n = g.n();
        let w = CcWorkload::new(g, platform);
        replay(&w, &cc_script(n, 21 + i as u64), &mut out, name);
    }
    let spmm = [
        (
            "spmm banded 1500",
            sgen::banded_fem(1500, 16, 7, 14),
            Platform::gpu_heavy(),
        ),
        (
            "spmm power-law 400",
            sgen::power_law(400, 8, 2.2, 15),
            Platform::balanced(),
        ),
    ];
    for (i, (name, a, platform)) in spmm.into_iter().enumerate() {
        let n = a.rows();
        let w = SpmmWorkload::new(a, platform);
        replay(&w, &spmm_script(n, 31 + i as u64), &mut out, name);
    }
    out
}

/// The recorded steps, in [`served_steps`] order: decision, cut bits,
/// total bits, probes, probes saved, span, span-fraction bits and regret
/// bits.
type Pinned = (
    &'static str,
    &'static [u64],
    u64,
    usize,
    u64,
    (usize, usize),
    u64,
    u64,
);

#[rustfmt::skip]
const CORPUS: [Pinned; 100] = [
    ("patched", &[0x4059000000000000], 0x3f091e9283af977f, 2, 34, (104, 106), 0x3f6767dce434a9b1, 0x0),
    ("patched", &[0x4059000000000000], 0x3f091f23206f7070, 2, 34, (567, 572), 0x3f7d41d41d41d41d, 0x0),
    ("patched", &[0x4059000000000000], 0x3f092e11f2f15775, 2, 34, (324, 391), 0x3fb880bb3ee721a5, 0x0),
    ("patched", &[0x4059000000000000], 0x3f092e11f2f15775, 2, 34, (0, 0), 0x0, 0x0),
    ("patched", &[0x4059000000000000], 0x3f092eea24e2cd08, 2, 34, (0, 700), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4059000000000000], 0x3f092f7ac1a2a5f9, 2, 34, (465, 472), 0x3f847ae147ae147b, 0x0),
    ("patched", &[0x4059000000000000], 0x3f093e21fef2f05c, 2, 34, (531, 598), 0x3fb880bb3ee721a5, 0x0),
    ("patched", &[0x4059000000000000], 0x3f093d49cd017aca, 2, 34, (0, 700), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4059000000000000], 0x3f093cb93041a1d9, 2, 34, (393, 395), 0x3f6767dce434a9b1, 0x0),
    ("patched", &[0x4059000000000000], 0x3f093cb93041a1d9, 2, 34, (0, 0), 0x0, 0x0),
    ("patched", &[0x4054c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f07edfa7b289c36, 71, 167, (104, 106), 0x3f6767dce434a9b1, 0x0),
    ("patched", &[0x4054c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f07ee8b17e87527, 71, 167, (567, 572), 0x3f7d41d41d41d41d, 0x0),
    ("nudged", &[0x4054800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f07f900806be66e, 72, 166, (324, 391), 0x3fb880bb3ee721a5, 0x3fb054cc159f4700),
    ("patched", &[0x4054800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f07f900806be66e, 72, 166, (0, 0), 0x0, 0x0),
    ("patched", &[0x4054800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f07f95c43f12d4e, 72, 166, (0, 700), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4054800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f07f95db64dccfb, 72, 166, (465, 472), 0x3f847ae147ae147b, 0x0),
    ("patched", &[0x4054800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f08026578aae608, 73, 165, (531, 598), 0x3fb880bb3ee721a5, 0x0),
    ("patched", &[0x4054800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f080209b5259f28, 73, 165, (0, 700), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4054800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0801791865c637, 73, 165, (393, 395), 0x3f6767dce434a9b1, 0x0),
    ("patched", &[0x4054800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0801791865c637, 73, 165, (0, 0), 0x0, 0x0),
    ("patched", &[0x4059000000000000], 0x3f05de759707fb41, 2, 38, (944, 946), 0x3f5b4e81b4e81b4f, 0x0),
    ("patched", &[0x4059000000000000], 0x3f05de759707fb41, 2, 38, (66, 75), 0x3f7eb851eb851eb8, 0x0),
    ("patched", &[0x4059000000000000], 0x3f061e7d972118a6, 2, 38, (561, 679), 0x3fb92c5f92c5f92c, 0x0),
    ("patched", &[0x4059000000000000], 0x3f061e7d972118a6, 2, 38, (0, 0), 0x0, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0620681aafefbc, 2, 38, (0, 1200), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0621b18e8f2668, 2, 38, (211, 219), 0x3f7b4e81b4e81b4f, 0x0),
    ("patched", &[0x4059000000000000], 0x3f065de4878a959e, 2, 38, (538, 656), 0x3fb92c5f92c5f92c, 0x0),
    ("patched", &[0x4059000000000000], 0x3f065bfa03fbbe87, 2, 38, (0, 1200), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4059000000000000], 0x3f065ab0901c87db, 2, 38, (705, 707), 0x3f5b4e81b4e81b4f, 0x0),
    ("patched", &[0x4059000000000000], 0x3f065ab0901c87db, 2, 38, (0, 0), 0x0, 0x0),
    ("patched", &[0x4052c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f03feb69215714c, 67, 167, (944, 946), 0x3f5b4e81b4e81b4f, 0x0),
    ("patched", &[0x4052c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f03feb69215714c, 67, 167, (66, 75), 0x3f7eb851eb851eb8, 0x0),
    ("nudged", &[0x4052800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f041cd796629e74, 68, 166, (561, 679), 0x3fb92c5f92c5f92c, 0x3fd9b7c877d20b70),
    ("patched", &[0x4052800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f041cd796629e74, 68, 166, (0, 0), 0x0, 0x0),
    ("patched", &[0x4052800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f041d1f0e423b3e, 68, 166, (0, 1200), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4052800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f041e68822171e9, 68, 166, (211, 219), 0x3f7b4e81b4e81b4f, 0x0),
    ("nudged", &[0x4052400000000000, 0x4059000000000000, 0x4059000000000000], 0x3f04488a1663f5e0, 69, 165, (538, 656), 0x3fb92c5f92c5f92c, 0x3fbb0ac25db2f940),
    ("patched", &[0x4052400000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0448429e845916, 69, 165, (0, 1200), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4052400000000000, 0x4059000000000000, 0x4059000000000000], 0x3f04483b4a046342, 69, 165, (705, 707), 0x3f5b4e81b4e81b4f, 0x0),
    ("patched", &[0x4052400000000000, 0x4059000000000000, 0x4059000000000000], 0x3f04483b4a046342, 69, 165, (0, 0), 0x0, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0e4c7d301db254, 2, 34, (556, 558), 0x3f50624dd2f1a9fc, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0e4d02c99ad5a2, 2, 34, (1019, 1037), 0x3f826e978d4fdf3b, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0e777347f9484c, 2, 34, (644, 844), 0x3fb999999999999a, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0e777347f9484c, 2, 34, (0, 0), 0x0, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0e783af506ad6a, 2, 34, (0, 2000), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0e79cbc17e1754, 2, 34, (273, 293), 0x3f847ae147ae147b, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0ea26508beff3c, 2, 34, (142, 340), 0x3fb95810624dd2f2, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0ea19d5bb19a1e, 2, 34, (0, 2000), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0ea19d5bb19a1e, 2, 34, (0, 0), 0x0, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0ea19d5bb19a1e, 2, 34, (0, 0), 0x0, 0x0),
    ("patched", &[0x4054000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0bf3575a7c3d09, 62, 166, (556, 558), 0x3f50624dd2f1a9fc, 0x0),
    ("patched", &[0x4054000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0bf3e7f73c15fb, 66, 162, (1019, 1037), 0x3f826e978d4fdf3b, 0x0),
    ("patched", &[0x4054000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0bc148a3a9427c, 62, 166, (644, 844), 0x3fb999999999999a, 0x0),
    ("patched", &[0x4054000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0bc148a3a9427c, 62, 166, (0, 0), 0x0, 0x0),
    ("patched", &[0x4054000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0bc197f7d5760c, 62, 166, (0, 2000), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4054000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0bc19c4eeb5514, 62, 166, (273, 293), 0x3f847ae147ae147b, 0x0),
    ("nudged", &[0x4053c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0c31b34f535bc8, 63, 165, (142, 340), 0x3fb95810624dd2f2, 0x3fddac8a8ab72940),
    ("patched", &[0x4053c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0c3163fb272838, 63, 165, (0, 2000), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4053c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0c3163fb272838, 63, 165, (0, 0), 0x0, 0x0),
    ("patched", &[0x4053c00000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0c3163fb272838, 63, 165, (0, 0), 0x0, 0x0),
    ("patched", &[0x4058400000000000], 0x3f1d93aabe6e5e02, 3, 34, (932, 952), 0x3f8b4e81b4e81b4f, 0x0),
    ("patched", &[0x4058400000000000], 0x3f1d70b622f5a40b, 3, 34, (207, 252), 0x3f9eb851eb851eb8, 0x0),
    ("nudged", &[0x4058800000000000], 0x3f1bfe23908cad5e, 3, 34, (688, 866), 0x3fbe60f04c756b2e, 0x3ffcbb61525017e4),
    ("patched", &[0x4058800000000000], 0x3f1bfe23908cad5e, 3, 34, (0, 0), 0x0, 0x0),
    ("patched", &[0x4058800000000000], 0x3f1bf8fa9ac0d710, 3, 34, (0, 1500), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4058800000000000], 0x3f1bd2b586c276e9, 3, 34, (51, 94), 0x3f9d5acb6f46508e, 0x0),
    ("patched", &[0x4058800000000000], 0x3f1ae0d91cfc545c, 3, 34, (512, 686), 0x3fbdb22d0e560419, 0x0),
    ("patched", &[0x4058800000000000], 0x3f1ab6adba2c9e04, 3, 34, (0, 1500), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4058800000000000], 0x3f1ab61ef0e90438, 3, 34, (300, 316), 0x3f85d867c3ece2a5, 0x0),
    ("patched", &[0x4058800000000000], 0x3f1ab61ef0e90438, 3, 34, (0, 0), 0x0, 0x0),
    ("patched", &[0x4051000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f1708c7fe1a9d72, 74, 167, (932, 952), 0x3f8b4e81b4e81b4f, 0x0),
    ("patched", &[0x4051000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f16f953677ff1cb, 74, 167, (207, 252), 0x3f9eb851eb851eb8, 0x0),
    ("nudged", &[0x4050800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f15ce6e2d9f3b6c, 77, 164, (688, 866), 0x3fbe60f04c756b2e, 0x40042b97cb0f2696),
    ("patched", &[0x4050800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f15ce6e2d9f3b6c, 76, 165, (0, 0), 0x0, 0x0),
    ("patched", &[0x4050800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f15cd84aeac1f8b, 76, 165, (0, 1500), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4050800000000000, 0x4059000000000000, 0x4059000000000000], 0x3f15c1f4d93aac40, 76, 165, (51, 94), 0x3f9d5acb6f46508e, 0x0),
    ("nudged", &[0x4050000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f14d181501654c1, 80, 161, (512, 686), 0x3fbdb22d0e560419, 0x4001c47dc628a14e),
    ("patched", &[0x4050000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f14d1a24c5626f7, 78, 163, (0, 1500), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4050000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f14d11383128d2c, 78, 163, (300, 316), 0x3f85d867c3ece2a5, 0x0),
    ("patched", &[0x4050000000000000, 0x4059000000000000, 0x4059000000000000], 0x3f14d11383128d2c, 78, 163, (0, 0), 0x0, 0x0),
    ("patched", &[0x4059000000000000], 0x3f001b739e22223c, 2, 38, (17, 291), 0x3fe5eb851eb851ec, 0x0),
    ("patched", &[0x4059000000000000], 0x3f0017dc37da1466, 2, 38, (27, 396), 0x3fed851eb851eb85, 0x0),
    ("patched", &[0x4059000000000000], 0x3eff5c99584b8330, 2, 38, (1, 397), 0x3fefae147ae147ae, 0x0),
    ("patched", &[0x4059000000000000], 0x3eff5c99584b8330, 2, 38, (0, 0), 0x0, 0x0),
    ("patched", &[0x4059000000000000], 0x3eff5a16ffa69312, 2, 38, (0, 400), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4059000000000000], 0x3eff5997af456adf, 2, 38, (12, 394), 0x3fee8f5c28f5c28f, 0x0),
    ("patched", &[0x4059000000000000], 0x3eff1e2d71ae8401, 2, 38, (1, 399), 0x3fefd70a3d70a3d7, 0x0),
    ("patched", &[0x4059000000000000], 0x3eff1bb98f93473a, 2, 38, (0, 400), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4059000000000000], 0x3eff1a33aa86e9d9, 2, 38, (12, 394), 0x3fee8f5c28f5c28f, 0x0),
    ("patched", &[0x4059000000000000], 0x3eff1a33aa86e9d9, 2, 38, (0, 0), 0x0, 0x0),
    ("nudged", &[0x4058400000000000, 0x4059000000000000, 0x4059000000000000], 0x3f0009b7e49663d2, 45, 163, (17, 291), 0x3fe5eb851eb851ec, 0x0),
    ("patched", &[0x4058400000000000, 0x4059000000000000, 0x4059000000000000], 0x3f000873330d3406, 45, 163, (27, 396), 0x3fed851eb851eb85, 0x0),
    ("nudged", &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3eff5c99584b8330, 37, 171, (1, 397), 0x3fefae147ae147ae, 0x3ff5240137cb5914),
    ("patched", &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3eff5c99584b8330, 35, 173, (0, 0), 0x0, 0x0),
    ("patched", &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3eff5a16ffa69312, 35, 173, (0, 400), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3eff5997af456adf, 35, 173, (12, 394), 0x3fee8f5c28f5c28f, 0x0),
    ("patched", &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3eff1e2d71ae8401, 35, 173, (1, 399), 0x3fefd70a3d70a3d7, 0x0),
    ("patched", &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3eff1bb98f93473a, 35, 173, (0, 400), 0x3ff0000000000000, 0x0),
    ("patched", &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3eff1a33aa86e9d9, 35, 173, (12, 394), 0x3fee8f5c28f5c28f, 0x0),
    ("patched", &[0x4059000000000000, 0x4059000000000000, 0x4059000000000000], 0x3eff1a33aa86e9d9, 35, 173, (0, 0), 0x0, 0x0),
];

#[test]
fn recorded_drift_steps_repeat_bitwise() {
    let steps = served_steps();
    assert_eq!(steps.len(), CORPUS.len());
    for ((label, got), want) in steps.iter().zip(&CORPUS) {
        let (decision, cuts, total, probes, saved, span, fraction, regret) = *want;
        let want: Row = (
            decision,
            cuts.to_vec(),
            total,
            probes,
            saved,
            span,
            fraction,
            regret,
        );
        assert_eq!(got, &want, "{label}");
    }
}
