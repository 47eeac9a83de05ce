//! Input fingerprints: one-pass structural sketches with quantized cache keys.
//!
//! A [`Fingerprint`] summarizes a workload input (size, degree moments, a
//! log2 quantile sketch, density class) together with a content digest that
//! also mixes in the platform and workload configuration. Two keys are
//! derived from it:
//!
//! * [`Fingerprint::exact_key`] — digest-grade identity. Two workloads with
//!   equal exact keys are interchangeable inputs (same structure, platform,
//!   and configuration), so a cached `SamplingEstimate` can be served
//!   **bitwise-identically** without re-sampling.
//! * [`Fingerprint::near_key`] — a coarse quantized class (log2 sizes,
//!   quantized degree CV, density class). Workloads sharing a near key are
//!   *structurally similar*: a previously found split is a good warm-start
//!   bracket for `Strategy::Analytic`, though not a guaranteed-identical
//!   answer.
//!
//! See DESIGN.md, "Fingerprints & amortized serving".

use nbwp_sim::{log2_bucket, DegreeSketch, Digest};

/// Coarse fill-density class of an input, part of the near key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DensityClass {
    /// Fill density below `1e-3` (typical graph / FEM inputs).
    Sparse,
    /// Fill density in `[1e-3, 5e-2)`.
    Moderate,
    /// Fill density of `5e-2` and above (dense-leaning kernels).
    Dense,
}

impl DensityClass {
    /// Classifies a fill density `m / (n · cols)`.
    #[must_use]
    pub fn of(density: f64) -> DensityClass {
        if density < 1e-3 {
            DensityClass::Sparse
        } else if density < 5e-2 {
            DensityClass::Moderate
        } else {
            DensityClass::Dense
        }
    }
}

/// Exact-identity cache key: workload kind plus sizes and the content
/// digest. Equal keys ⇒ interchangeable inputs (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExactKey {
    /// Workload kind tag (e.g. `"cc"`, `"spmm"`).
    pub kind: &'static str,
    /// Element count (vertices / rows).
    pub n: usize,
    /// Work count (arcs / nonzeros).
    pub m: usize,
    /// Content digest (structure + platform + configuration).
    pub digest: u64,
}

/// Similarity cache key: quantized structural class. Equal keys ⇒ the
/// inputs are close enough that one's split warm-starts the other's search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NearKey {
    /// Workload kind tag.
    pub kind: &'static str,
    /// `⌈log2 n⌉` size class.
    pub log2_n: u32,
    /// `⌈log2 m⌉` work class.
    pub log2_m: u32,
    /// Degree CV quantized to steps of 0.25.
    pub cv_q: i64,
    /// Fill-density class.
    pub density: DensityClass,
}

/// One-pass structural sketch of a workload input with quantized cache
/// keys, built by [`Fingerprint::new`] and patched by
/// [`Fingerprint::apply_delta`].
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// Workload kind tag (static so keys stay `Copy` + allocation-free).
    pub kind: &'static str,
    /// Element count (vertices / rows / matrix dimension).
    pub n: usize,
    /// Work count (arcs / nonzeros / FLOP proxy).
    pub m: usize,
    /// Mean degree (work per element).
    pub mean_degree: f64,
    /// Coefficient of variation of the degree distribution.
    pub degree_cv: f64,
    /// Maximum degree.
    pub max_degree: u64,
    /// Exact sum of squared degrees — the integer second moment behind
    /// `degree_cv`, carried so [`Fingerprint::apply_delta`] can adjust it
    /// in O(|delta|) and re-derive `mean_degree`/`degree_cv` bitwise (the
    /// first moment is `m`).
    pub degree_sq_sum: u64,
    /// Degree histogram, indexed by [`nbwp_sim::log2_bucket`]: bucket 0
    /// counts degree-0 elements, bucket `k ≥ 1` counts degrees in
    /// `[2^(k-1), 2^k)`. Doubles as a coarse quantile sketch via
    /// [`Fingerprint::quantile`].
    pub log2_hist: [u64; 64],
    /// Fill-density class.
    pub density_class: DensityClass,
    /// Content digest: the structure digest followed by the platform
    /// digest and workload-configuration words, or, after
    /// [`Fingerprint::apply_delta`], the previous digest followed by the
    /// delta's commit.
    pub digest: u64,
}

fn log2_class(x: usize) -> u32 {
    // ⌈log2 x⌉ with 0 and 1 both mapping to class 0.
    usize::BITS - x.saturating_sub(1).leading_zeros()
}

/// The O(|delta|) summary a workload mutation feeds into
/// [`Fingerprint::apply_delta`]: per-element degree transitions plus the
/// already-known aggregate effects of the delta.
#[derive(Clone, Debug, PartialEq)]
pub struct FingerprintDelta<'a> {
    /// `(old degree, new degree)` for every touched element. Entries with
    /// `old == new` are no-ops on the statistics (but the commit still
    /// advances the digest chain).
    pub degree_changes: &'a [(u64, u64)],
    /// Maximum degree of the mutated input (the applier tracks it during
    /// its compacting rebuild; a pure histogram can't recover a lowered
    /// max).
    pub new_max_degree: u64,
    /// Change in the work count `m` (arcs / nonzeros). Must equal
    /// `Σ (new − old)` over `degree_changes`.
    pub m_delta: i64,
    /// Denominator of the fill-density formula for this workload kind,
    /// evaluated exactly as the fresh fingerprint path evaluates it (e.g.
    /// `n.max(1) as f64 * cols.max(1) as f64` for spmm) so the patched
    /// [`DensityClass`] matches bitwise.
    pub density_denom: f64,
    /// Order-sensitive commitment to the mutation script (from the delta
    /// applier), mixed into the digest chain.
    pub commit: u64,
}

impl Fingerprint {
    /// The fingerprint of an input with structure sketch `sketch` and
    /// fill-density denominator `density_denom` (evaluated as the
    /// workload's [`FingerprintDelta::density_denom`] is). The digest covers
    /// the structure digest, then `config`: the platform digest and every
    /// configuration word that changes the estimate, in a fixed order.
    #[must_use]
    pub fn new(
        kind: &'static str,
        sketch: &DegreeSketch,
        density_denom: f64,
        config: &[u64],
    ) -> Fingerprint {
        Fingerprint {
            kind,
            n: sketch.n,
            m: sketch.m,
            mean_degree: sketch.mean,
            degree_cv: sketch.cv,
            max_degree: sketch.max,
            degree_sq_sum: sketch.sum_sq,
            log2_hist: sketch.log2_hist,
            density_class: DensityClass::of(sketch.m as f64 / density_denom),
            digest: Digest::default()
                .word(sketch.digest)
                .words(config.iter().copied())
                .finish(),
        }
    }

    /// Exact-identity key (see module docs).
    #[must_use]
    pub fn exact_key(&self) -> ExactKey {
        ExactKey {
            kind: self.kind,
            n: self.n,
            m: self.m,
            digest: self.digest,
        }
    }

    /// Quantized similarity key (see module docs).
    #[must_use]
    pub fn near_key(&self) -> NearKey {
        NearKey {
            kind: self.kind,
            log2_n: log2_class(self.n),
            log2_m: log2_class(self.m),
            cv_q: (self.degree_cv / 0.25).round() as i64,
            density: self.density_class,
        }
    }

    /// Updates every statistic in O(|delta|) after an input mutation,
    /// without rescanning the input: histogram buckets move per degree
    /// transition, the integer moments adjust exactly, `mean`/`cv` are
    /// re-derived through [`nbwp_sim::degree_moments`] (the same float
    /// sequence the sketch builders use), and the density class is
    /// re-classified from the updated `m`. Every statistic is therefore
    /// **bitwise equal** to a fresh fingerprint of the mutated input.
    ///
    /// The digest is the exception by design: it advances along a *delta
    /// chain* — `digest'` is the [`Digest`] of `(digest, commit)` — rather
    /// than re-hashing the input, so drifted-digest equality means "same
    /// base input and same mutation script", which is exactly the identity
    /// the serving cache needs (an O(m) re-hash would defeat the
    /// O(|delta|) budget).
    ///
    /// Precondition: `m` is the degree sum (true for every workload kind
    /// here: arcs for cc, nonzeros for spmm/hh, `n·d` for dense).
    pub fn apply_delta(&mut self, d: &FingerprintDelta<'_>) {
        let mut checked: i64 = 0;
        for &(old, new) in d.degree_changes {
            if old != new {
                self.log2_hist[log2_bucket(old)] -= 1;
                self.log2_hist[log2_bucket(new)] += 1;
            }
            // Wrapping keeps the subtract-after-add panic-free in debug
            // builds when a degree shrinks; the net result is exact.
            self.degree_sq_sum = self
                .degree_sq_sum
                .wrapping_add(new * new)
                .wrapping_sub(old * old);
            checked += new as i64 - old as i64;
        }
        debug_assert_eq!(
            checked, d.m_delta,
            "m_delta inconsistent with degree_changes"
        );
        self.m = usize::try_from(self.m as i64 + d.m_delta).expect("delta drove m negative");
        self.max_degree = d.new_max_degree;
        let (mean, cv) = nbwp_sim::degree_moments(self.n, self.m as u64, self.degree_sq_sum);
        self.mean_degree = mean;
        self.degree_cv = cv;
        self.density_class = DensityClass::of(self.m as f64 / d.density_denom);
        self.digest = Digest::default().words([self.digest, d.commit]).finish();
    }

    /// Approximate degree quantile from the log2 histogram: the lower bound
    /// of the bucket containing the `q`-th fraction of elements. Exact to
    /// within a factor of 2; `q` is clamped to `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.log2_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.log2_hist.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if k == 0 {
                    0.0
                } else {
                    (1u64 << (k - 1)) as f64
                };
            }
        }
        self.max_degree as f64
    }
}

/// Workloads that can describe their input with a [`Fingerprint`].
///
/// The fingerprint must be a pure function of everything that determines the
/// estimator's output for this workload — input structure, platform, and any
/// configuration that changes sampling or extrapolation — so that equal
/// exact keys really do imply interchangeable estimates.
pub trait Fingerprinted {
    /// Returns the fingerprint of this workload's input. Implementations
    /// should cache the underlying O(n + m) sketch so repeated calls are
    /// cheap (the serving path fingerprints every request).
    fn fingerprint(&self) -> Fingerprint;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: usize, m: usize, cv: f64, digest: u64) -> Fingerprint {
        let mut hist = [0u64; 64];
        hist[3] = n as u64; // all degrees in [4, 8)
        Fingerprint {
            kind: "test",
            n,
            m,
            mean_degree: m as f64 / n.max(1) as f64,
            degree_cv: cv,
            max_degree: 7,
            degree_sq_sum: 49 * n as u64,
            log2_hist: hist,
            density_class: DensityClass::of(m as f64 / (n.max(1) as f64 * n.max(1) as f64)),
            digest,
        }
    }

    #[test]
    fn density_classes() {
        assert_eq!(DensityClass::of(1e-6), DensityClass::Sparse);
        assert_eq!(DensityClass::of(0.01), DensityClass::Moderate);
        assert_eq!(DensityClass::of(0.5), DensityClass::Dense);
    }

    #[test]
    fn exact_key_tracks_digest() {
        let a = fp(1000, 5000, 1.0, 42);
        let b = fp(1000, 5000, 1.0, 42);
        let c = fp(1000, 5000, 1.0, 43);
        assert_eq!(a.exact_key(), b.exact_key());
        assert_ne!(a.exact_key(), c.exact_key());
    }

    #[test]
    fn near_key_quantizes() {
        // Same log2 class and CV bucket → same near key despite different
        // digests and slightly different sizes.
        let a = fp(1000, 5000, 1.02, 1);
        let b = fp(900, 4800, 0.98, 2);
        assert_eq!(a.near_key(), b.near_key());
        // Doubling n changes the size class.
        let c = fp(2100, 5000, 1.0, 3);
        assert_ne!(a.near_key(), c.near_key());
        // A very different CV changes the class.
        let d = fp(1000, 5000, 3.0, 4);
        assert_ne!(a.near_key(), d.near_key());
    }

    #[test]
    fn quantile_reads_histogram() {
        let f = fp(100, 500, 1.0, 0);
        // All mass in bucket 3 → every quantile reports its lower bound 4.
        assert_eq!(f.quantile(0.1), 4.0);
        assert_eq!(f.quantile(0.99), 4.0);
        let mut g = f.clone();
        g.log2_hist = [0; 64];
        assert_eq!(g.quantile(0.5), 0.0);
    }

    /// `digest` chained with each commit, as `apply_delta` chains it.
    fn chained(digest: u64, commits: &[u64]) -> u64 {
        commits
            .iter()
            .fold(digest, |h, &c| Digest::default().words([h, c]).finish())
    }

    #[test]
    fn digest_chain_is_order_sensitive() {
        let delta = |commit| FingerprintDelta {
            degree_changes: &[],
            new_max_degree: 7,
            m_delta: 0,
            density_denom: 1000.0 * 1000.0,
            commit,
        };
        let (mut ab, mut ba) = (fp(1000, 7000, 0.0, 5), fp(1000, 7000, 0.0, 5));
        ab.apply_delta(&delta(1));
        ab.apply_delta(&delta(2));
        ba.apply_delta(&delta(2));
        ba.apply_delta(&delta(1));
        assert_ne!(ab.digest, ba.digest);
        assert_eq!(ab.digest, chained(5, &[1, 2]));
    }

    #[test]
    fn apply_delta_moves_histogram_and_moments() {
        // 1000 elements of degree 7 (bucket 3); one grows to 20 (bucket 5),
        // one shrinks to 0 (bucket 0).
        let mut f = fp(1000, 7000, 0.0, 99);
        let delta = FingerprintDelta {
            degree_changes: &[(7, 20), (7, 0)],
            new_max_degree: 20,
            m_delta: 6,
            density_denom: 1000.0 * 1000.0,
            commit: 0xDEAD,
        };
        let before_digest = f.digest;
        f.apply_delta(&delta);
        assert_eq!(f.m, 7006);
        assert_eq!(f.max_degree, 20);
        assert_eq!(f.log2_hist[3], 998);
        assert_eq!(f.log2_hist[5], 1);
        assert_eq!(f.log2_hist[0], 1);
        assert_eq!(f.degree_sq_sum, 49 * 998 + 400);
        // Moments re-derived through the shared helper.
        let (mean, cv) = nbwp_sim::degree_moments(1000, 7006, f.degree_sq_sum);
        assert_eq!(f.mean_degree, mean);
        assert_eq!(f.degree_cv, cv);
        assert_eq!(f.digest, chained(before_digest, &[0xDEAD]));
        // A second delta chains the digest.
        let d2 = FingerprintDelta {
            degree_changes: &[],
            new_max_degree: 20,
            m_delta: 0,
            density_denom: 1000.0 * 1000.0,
            commit: 0xBEEF,
        };
        f.apply_delta(&d2);
        assert_eq!(f.digest, chained(before_digest, &[0xDEAD, 0xBEEF]));
    }
}
