//! Case study I (§III): graph connected components as a partitioned
//! workload. The threshold `t` is the percentage of vertices handed to the
//! CPU (Algorithm 1, line 2).

use std::sync::{Arc, OnceLock};

use std::ops::Range;

use nbwp_graph::cc::{hybrid_cc, CcCostCurve, CcCostProfile};
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::{sample as gsample, Graph};
use nbwp_par::Pool;
use nbwp_sim::{
    CurveEval, DegreeSketch, KernelStats, Platform, ProfileScratch, RunReport, SimTime,
};
use rand::rngs::SmallRng;

use crate::drift::DriftWorkload;
use crate::fingerprint::{Fingerprint, FingerprintDelta, Fingerprinted};
use crate::framework::{PartitionedWorkload, SampleSpec, Sampleable, ThresholdSpace};
use crate::profile::Profilable;

/// How Step 1 builds the miniature graph.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum CcSampler {
    /// Contraction sampling (default; see `DESIGN.md` "CC sampling").
    #[default]
    Contract,
    /// Faithful induced-subgraph sampling `G[S]` — degenerates on sparse
    /// graphs; kept to demonstrate why.
    Induced,
}

/// The hybrid CC workload over a fixed input graph and platform.
#[derive(Clone)]
pub struct CcWorkload {
    graph: Arc<Graph>,
    platform: Platform,
    sampler: CcSampler,
    /// Lazily computed fingerprint, shared across clones of the same input.
    fp: Arc<OnceLock<Fingerprint>>,
}

impl CcWorkload {
    /// Wraps a graph on a platform with the default (contraction) sampler.
    #[must_use]
    pub fn new(graph: Graph, platform: Platform) -> Self {
        CcWorkload {
            graph: Arc::new(graph),
            platform,
            sampler: CcSampler::default(),
            fp: Arc::new(OnceLock::new()),
        }
    }

    /// Selects the sampling mode (builder style).
    #[must_use]
    pub fn with_sampler(mut self, sampler: CcSampler) -> Self {
        self.sampler = sampler;
        self.fp = Arc::new(OnceLock::new()); // the sampler is part of the key
        self
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Default sample size: `⌈√n⌉` vertices (§III.A.1), scaled by `factor`.
    #[must_use]
    pub fn sample_size(&self, factor: f64) -> usize {
        (((self.graph.n() as f64).sqrt() * factor).ceil() as usize).clamp(4, self.graph.n())
    }

    /// Full run returning the complete hybrid outcome (labels included).
    #[must_use]
    pub fn run_full(&self, t: f64) -> nbwp_graph::cc::HybridCcOutcome {
        hybrid_cc(&self.graph, t, &self.platform)
    }
}

impl Profilable for CcWorkload {
    type Profile = CcCostProfile;

    fn build_profile_in(&self, _pool: &Pool, scratch: &mut ProfileScratch) -> CcCostProfile {
        // One O(n + arcs) serial pass builds the split-indexed arc curves;
        // the per-split control-flow residuals (SV rounds, DFS chunk
        // balance) are replayed lazily and memoized inside the profile.
        CcCostProfile::new_in(&self.graph, scratch)
    }

    fn recycle_profile(&self, profile: CcCostProfile, scratch: &mut ProfileScratch) {
        profile.recycle(scratch);
    }

    fn curve<'p>(&'p self, profile: &'p CcCostProfile) -> Option<Box<dyn CurveEval + 'p>> {
        Some(Box::new(CcCostCurve::new(
            profile,
            &self.graph,
            &self.platform,
        )))
    }
}

impl Fingerprinted for CcWorkload {
    fn fingerprint(&self) -> Fingerprint {
        self.fp
            .get_or_init(|| {
                let g = &self.graph;
                let n = g.n().max(1) as f64;
                // Structure + platform + sampler mode.
                Fingerprint::new(
                    "cc",
                    &DegreeSketch::of(&[], g.adj_ptr(), g.adj()),
                    n * n,
                    &[self.platform.digest(), self.sampler as u64],
                )
            })
            .clone()
    }
}

impl PartitionedWorkload for CcWorkload {
    fn run(&self, t: f64) -> RunReport {
        self.run_full(t).report
    }

    fn space(&self) -> ThresholdSpace {
        ThresholdSpace::percentage()
    }

    fn size(&self) -> usize {
        self.graph.n()
    }

    fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl DriftWorkload for CcWorkload {
    type Delta = GraphDelta;

    fn apply_delta(&self, delta: &GraphDelta) -> (CcWorkload, Range<usize>) {
        // Force the base fingerprint *before* mutating so the chained
        // digest is well-defined over (base input, delta script).
        let mut fp = self.fingerprint();
        let (g2, info) = delta.apply(&self.graph);
        let n = g2.n();
        fp.apply_delta(&FingerprintDelta {
            degree_changes: &info.degree_changes,
            new_max_degree: info.new_max_degree,
            m_delta: info.arcs_delta,
            // Same fill-density denominator the fresh path uses above.
            density_denom: n.max(1) as f64 * n.max(1) as f64,
            commit: info.commit,
        });
        let span = match (info.touched.first(), info.touched.last()) {
            (Some(&a), Some(&b)) => a..b + 1,
            _ => 0..0,
        };
        let cell = OnceLock::new();
        cell.set(fp).expect("freshly created OnceLock");
        let next = CcWorkload {
            graph: Arc::new(g2),
            platform: self.platform,
            sampler: self.sampler,
            fp: Arc::new(cell),
        };
        (next, span)
    }

    fn patch_profile(
        &self,
        profile: &mut CcCostProfile,
        span: Range<usize>,
        _scratch: &mut ProfileScratch,
    ) {
        // The span patch runs in place and needs no scratch; a whole-input
        // span is the full in-place rebuild.
        profile.patch(&self.graph, span.start, span.end);
    }

    fn units(&self) -> usize {
        self.graph.n()
    }
}

impl Sampleable for CcWorkload {
    type Sample = CcWorkload;

    fn sample(&self, spec: SampleSpec, rng: &mut SmallRng) -> CcWorkload {
        let s = self.sample_size(spec.factor);
        let g = match self.sampler {
            CcSampler::Contract => gsample::sample_contract(&self.graph, s, rng),
            CcSampler::Induced => gsample::sample_induced(&self.graph, s, rng),
        };
        // Sample runs see fixed costs scaled to the miniature's *measured*
        // work (see `Platform::sample_scaled` and DESIGN.md).
        let ratio = ((g.arcs() + g.n()) as f64
            / (self.graph.arcs() + self.graph.n()).max(1) as f64)
            .clamp(1e-6, 1.0);
        CcWorkload {
            graph: Arc::new(g),
            platform: self.platform.sample_scaled(ratio),
            sampler: self.sampler,
            fp: Arc::new(OnceLock::new()),
        }
    }

    fn extrapolate(&self, t_sample: f64, _sample: &CcWorkload) -> f64 {
        // §III.A.3: "we expect that t should be identical to t'".
        t_sample
    }

    fn sampling_cost(&self) -> SimTime {
        // One streaming pass over the adjacency to draw and relabel the
        // sampled vertices, on the host CPU.
        let stats = KernelStats {
            int_ops: self.graph.arcs() as u64 + self.graph.n() as u64,
            mem_read_bytes: 4 * self.graph.arcs() as u64 + 8 * self.graph.n() as u64,
            mem_write_bytes: 8 * self.sample_size(1.0) as u64,
            parallel_items: self.platform.cpu.cores as u64,
            working_set_bytes: self.graph.size_bytes(),
            ..KernelStats::default()
        };
        self.platform.cpu_time(&stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Estimator;
    use crate::profile::priced;
    use crate::search::{Searcher, Strategy};
    use nbwp_graph::gen;
    use rand::SeedableRng;

    fn workload(g: Graph) -> CcWorkload {
        CcWorkload::new(g, Platform::k40c_xeon_e5_2650())
    }

    #[test]
    fn run_reports_nonzero_time() {
        let w = workload(gen::web(3000, 6, 1));
        let r = w.run(20.0);
        assert!(r.total().as_secs() > 0.0);
        assert!(!r.gpu_stats.is_empty());
        assert!(!r.cpu_stats.is_empty());
    }

    #[test]
    fn profiled_run_is_bitwise_equal_to_direct() {
        let w = workload(gen::web(1500, 5, 9));
        let p = w.build_profile(nbwp_par::Pool::global());
        for t in [0.0, 1.0, 12.5, 40.0, 77.7, 100.0] {
            assert_eq!(priced(&w, &p, t), w.run(t), "t = {t}");
        }
    }

    #[test]
    fn scratch_profile_is_bitwise_equal_to_pooled_build() {
        let w = workload(gen::web(1200, 5, 11));
        let fresh = w.build_profile(nbwp_par::Pool::global());
        let mut scratch = ProfileScratch::new();
        // Cold and warm scratch builds must both match a fresh-arena build
        // on every curve entry and every replayed report.
        for _ in 0..2 {
            let p = w.build_profile_in(nbwp_par::Pool::global(), &mut scratch);
            assert_eq!(p.raw_curves(), fresh.raw_curves());
            for t in [0.0, 12.5, 40.0, 100.0] {
                assert_eq!(priced(&w, &p, t), priced(&w, &fresh, t), "t = {t}");
            }
            w.recycle_profile(p, &mut scratch);
            assert!(scratch.is_warm());
        }
    }

    #[test]
    fn sample_is_much_smaller() {
        let w = workload(gen::web(10_000, 6, 2));
        let mut rng = SmallRng::seed_from_u64(1);
        let s = w.sample(SampleSpec::default(), &mut rng);
        assert_eq!(s.size(), 100);
        assert!(s.graph().m() < w.graph().m() / 10);
    }

    #[test]
    fn induced_sampler_degenerates() {
        let w = workload(gen::web(10_000, 6, 3)).with_sampler(CcSampler::Induced);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = w.sample(SampleSpec::default(), &mut rng);
        // Degenerate means mean degree well under 1: the miniature carries
        // almost no structure to extrapolate from. The exact edge count is
        // RNG-stream dependent, so bound it relative to the sample size.
        assert!(
            s.graph().m() < s.graph().n() / 10,
            "induced √n sample should be nearly empty, m = {} of n = {}",
            s.graph().m(),
            s.graph().n()
        );
    }

    #[test]
    fn estimation_overhead_is_fraction_of_exhaustive_search() {
        let w = workload(gen::web(8000, 8, 4));
        let est = Estimator::new(Strategy::CoarseToFine).seed(1).run(&w);
        let exhaustive = Searcher::new(Strategy::Exhaustive { step: Some(1.0) }).run(&w);
        assert!(
            est.overhead < exhaustive.search_cost / 10.0,
            "sampling overhead {} vs exhaustive cost {}",
            est.overhead,
            exhaustive.search_cost
        );
        assert!((0.0..=100.0).contains(&est.threshold));
    }

    #[test]
    fn fingerprint_separates_inputs_platforms_and_samplers() {
        let w = workload(gen::web(3000, 6, 1));
        let fp = w.fingerprint();
        assert_eq!(fp.kind, "cc");
        assert_eq!(fp.n, 3000);
        // Clones share the lazily computed fingerprint.
        assert_eq!(w.clone().fingerprint(), fp);
        // Same graph rebuilt from scratch digests identically.
        assert_eq!(workload(gen::web(3000, 6, 1)).fingerprint(), fp);
        // Different graph, platform, or sampler → different exact key.
        assert_ne!(
            workload(gen::web(3000, 6, 2)).fingerprint().digest,
            fp.digest
        );
        let other_platform = CcWorkload::new(gen::web(3000, 6, 1), Platform::balanced());
        assert_ne!(other_platform.fingerprint().digest, fp.digest);
        let induced = w.clone().with_sampler(CcSampler::Induced);
        assert_ne!(induced.fingerprint().digest, fp.digest);
    }

    #[test]
    fn sampling_cost_scales_with_graph() {
        let small = workload(gen::web(2000, 6, 5));
        let big = workload(gen::web(20_000, 6, 5));
        assert!(big.sampling_cost() > small.sampling_cost());
    }
}
