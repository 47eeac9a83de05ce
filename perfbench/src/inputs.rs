//! Seeded input generation: the four input families, drift scripts, and
//! the skewed repeat distribution. Everything here is a pure function of
//! its seed, so the same seed yields the same inputs and request streams.

use nbwp_core::prelude::*;
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::gen as graph_gen;
use nbwp_sparse::delta::{CsrDelta, RowOp};
use nbwp_sparse::gen as sparse_gen;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Band half-width of the banded-FEM inputs (as in `bench_drift`).
pub const FEM_BANDWIDTH: usize = 16;

/// The simulated platform every request targets.
pub fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650()
}

/// One input family: a generator plus the workload that serves it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Connected components on a power-law web graph.
    CcWeb,
    /// Connected components on a road-like graph.
    CcRoad,
    /// Row-row SpGEMM on a banded FEM matrix.
    SpmmFem,
    /// Scale-free HH spmm on a power-law matrix.
    HhPowerLaw,
}

impl Family {
    /// Every family, in a fixed order.
    pub const ALL: [Family; 4] = [
        Family::CcWeb,
        Family::CcRoad,
        Family::SpmmFem,
        Family::HhPowerLaw,
    ];

    /// Stable name used in context output.
    pub fn name(self) -> &'static str {
        match self {
            Family::CcWeb => "cc_web",
            Family::CcRoad => "cc_road",
            Family::SpmmFem => "spmm_fem",
            Family::HhPowerLaw => "hh_powerlaw",
        }
    }

    /// Generates an `n`-unit input of this family.
    pub fn generate(self, n: usize, seed: u64) -> Input {
        let p = platform();
        match self {
            Family::CcWeb => Input::Cc(CcWorkload::new(graph_gen::web(n, 6, seed), p)),
            Family::CcRoad => Input::Cc(CcWorkload::new(graph_gen::road(n, seed), p)),
            Family::SpmmFem => Input::Spmm(SpmmWorkload::new(
                sparse_gen::banded_fem(n, FEM_BANDWIDTH, 7, seed),
                p,
            )),
            Family::HhPowerLaw => {
                Input::Hh(HhWorkload::new(sparse_gen::power_law(n, 8, 2.2, seed), p))
            }
        }
    }
}

/// A generated input wrapped in the workload that serves it.
#[derive(Clone)]
pub enum Input {
    /// Graph connected components.
    Cc(CcWorkload),
    /// Row-row SpGEMM.
    Spmm(SpmmWorkload),
    /// Scale-free HH spmm.
    Hh(HhWorkload),
}

impl Input {
    /// A fresh workload object around the same input: shares the data but
    /// not the cached fingerprint, so the next request fingerprints again.
    pub fn fresh(&self) -> Input {
        let p = platform();
        match self {
            Input::Cc(w) => Input::Cc(CcWorkload::new(w.graph().clone(), p)),
            Input::Spmm(w) => Input::Spmm(SpmmWorkload::new(w.matrix().clone(), p)),
            Input::Hh(w) => Input::Hh(HhWorkload::new(w.matrix().clone(), p)),
        }
    }

    /// The input's fingerprint (computed once per workload object).
    pub fn fingerprint(&self) -> Fingerprint {
        match self {
            Input::Cc(w) => w.fingerprint(),
            Input::Spmm(w) => w.fingerprint(),
            Input::Hh(w) => w.fingerprint(),
        }
    }

    /// Work units (vertices / rows).
    pub fn size(&self) -> usize {
        match self {
            Input::Cc(w) => w.size(),
            Input::Spmm(w) => w.size(),
            Input::Hh(w) => w.size(),
        }
    }

    /// Nonzeros or arcs.
    pub fn work(&self) -> usize {
        match self {
            Input::Cc(w) => w.graph().arcs(),
            Input::Spmm(w) => w.matrix().nnz(),
            Input::Hh(w) => w.matrix().nnz(),
        }
    }

    /// A sibling that differs from `self` by a small local edit, so it has
    /// a different exact key but (usually) the same near key.
    pub fn sibling(&self, seed: u64) -> Input {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = self.size();
        let c = rng.gen_range(0..n.saturating_sub(8).max(1));
        let p = platform();
        match self {
            Input::Cc(w) => {
                let edges = (0..4)
                    .map(|k| (c as u32, (c + 1 + k) as u32))
                    .filter(|&(u, v)| (v as usize) < n && u != v)
                    .collect();
                let (g, _) = GraphDelta::inserts(edges).apply(w.graph());
                Input::Cc(CcWorkload::new(g, p))
            }
            Input::Spmm(w) => Input::Spmm(SpmmWorkload::new(row_edit(w.matrix(), c, n), p)),
            Input::Hh(w) => Input::Hh(HhWorkload::new(row_edit(w.matrix(), c, n), p)),
        }
    }
}

/// Replaces row `c` with a short pattern near the diagonal.
fn row_edit(a: &nbwp_sparse::Csr, c: usize, n: usize) -> nbwp_sparse::Csr {
    let mut cols: Vec<u32> = (0..3).map(|k| ((c + k) % n) as u32).collect();
    cols.sort_unstable();
    cols.dedup();
    let vals = vec![1.0; cols.len()];
    CsrDelta::replace(c, cols, vals).apply(a).0
}

/// Samples ranks `0..n` with probability proportional to `1 / (rank + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Window fractions of the drift scripts (touched units over total units),
/// the three `bench_drift` exercises.
pub const DRIFT_FRACTIONS: [f64; 3] = [0.001, 0.01, 0.1];

/// The window fraction of drift step `i`: the scripts cycle through
/// [`DRIFT_FRACTIONS`] so every window size recurs throughout a replay.
fn drift_fraction(i: usize) -> f64 {
    DRIFT_FRACTIONS[i % DRIFT_FRACTIONS.len()]
}

/// A windowed edge-edit script for cc (the `bench_drift` generator, with
/// the window fraction cycling per step): each step inserts and deletes
/// edges whose endpoints lie inside one window.
pub fn cc_script(n: usize, steps: usize, seed: u64) -> Vec<GraphDelta> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..steps)
        .map(|i| {
            let w = ((n as f64 * drift_fraction(i)) as usize).clamp(2, n);
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

/// A windowed row-replacement script for spmm (the `bench_drift`
/// generator, with the window fraction cycling per step): each step
/// replaces every row in one window with a fresh banded pattern, plus one
/// value-only scale.
pub fn spmm_script(n: usize, steps: usize, seed: u64) -> Vec<CsrDelta> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..steps)
        .map(|i| {
            let w = ((n as f64 * drift_fraction(i)) as usize).clamp(1, n);
            let c = rng.gen_range(0..=n - w);
            let mut ops: Vec<RowOp> = (c..c + w)
                .map(|row| {
                    let lo = row.saturating_sub(FEM_BANDWIDTH);
                    let hi = (row + FEM_BANDWIDTH).min(n - 1);
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

/// Banded-FEM cc drift base input.
pub fn fem_graph(n: usize, seed: u64) -> CcWorkload {
    CcWorkload::new(graph_gen::fem(n, FEM_BANDWIDTH, 8, seed), platform())
}

/// Banded-FEM spmm drift base input.
pub fn fem_matrix(n: usize, seed: u64) -> SpmmWorkload {
    SpmmWorkload::new(
        sparse_gen::banded_fem(n, FEM_BANDWIDTH, 7, seed),
        platform(),
    )
}
