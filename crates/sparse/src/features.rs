//! Structural feature extraction.
//!
//! The sampling method works when the miniature input preserves the
//! features that drive device performance. This module quantifies those
//! features so tests can assert preservation and analyses can explain
//! per-family behaviour.

use crate::Csr;

/// Summary of the structural features relevant to heterogeneous cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Features {
    /// Mean nonzeros per row.
    pub mean_degree: f64,
    /// Coefficient of variation of row degrees (std / mean) — the driver of
    /// GPU warp divergence.
    pub degree_cv: f64,
    /// Maximum row degree.
    pub max_degree: u64,
    /// Gini coefficient of the row-degree distribution in `[0, 1]`:
    /// 0 = perfectly regular, → 1 = all work in a few rows (scale-free).
    pub gini: f64,
    /// Fraction of entries within a band of ±5% · n of the diagonal —
    /// locality / coalescability proxy.
    pub band_fraction: f64,
    /// Fill density `nnz / (rows · cols)`.
    pub density: f64,
}

impl Features {
    /// Computes all features in one pass over the matrix (O(nnz + rows)).
    #[must_use]
    pub fn of(m: &Csr) -> Features {
        let n = m.rows().max(1);
        let degrees = m.row_nnz_vector();
        let nnz = m.nnz() as f64;
        let mean = nnz / n as f64;
        let var = degrees
            .iter()
            .map(|&d| {
                let diff = d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / n as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let max_degree = degrees.iter().copied().max().unwrap_or(0);

        let band = ((m.cols() as f64) * 0.05).max(1.0) as i64;
        let mut in_band = 0u64;
        for (r, c, _) in m.iter() {
            if (r as i64 - i64::from(c)).abs() <= band {
                in_band += 1;
            }
        }
        let band_fraction = if nnz > 0.0 { in_band as f64 / nnz } else { 0.0 };

        Features {
            mean_degree: mean,
            degree_cv: cv,
            max_degree,
            gini: gini(&degrees),
            band_fraction,
            density: nnz / (m.rows().max(1) as f64 * m.cols().max(1) as f64),
        }
    }
}

/// Gini coefficient of a non-negative distribution. Returns 0 for empty or
/// all-zero input.
#[must_use]
pub fn gini(values: &[u64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let total: u64 = values.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    // G = (2 Σ i·x_i) / (n Σ x_i) − (n + 1)/n, with 1-based ranks.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Log-log tail slope of the degree distribution (a crude power-law
/// exponent estimate). Returns `None` when the distribution has too little
/// tail mass to fit (fewer than 3 distinct degrees above the mean).
#[must_use]
pub fn power_law_exponent(degrees: &[u64]) -> Option<f64> {
    if degrees.is_empty() {
        return None;
    }
    let mean = degrees.iter().sum::<u64>() as f64 / degrees.len() as f64;
    // Complementary CDF points at distinct degrees above the mean.
    let mut tail: Vec<u64> = degrees
        .iter()
        .copied()
        .filter(|&d| d as f64 > mean)
        .collect();
    if tail.len() < 3 {
        return None;
    }
    tail.sort_unstable();
    let n = tail.len();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut last = 0u64;
    for (i, &d) in tail.iter().enumerate() {
        if d != last {
            // P(D >= d) within the tail.
            let ccdf = (n - i) as f64 / n as f64;
            xs.push((d as f64).ln());
            ys.push(ccdf.ln());
            last = d;
        }
    }
    if xs.len() < 3 {
        return None;
    }
    // Least-squares slope of ln ccdf vs ln degree; exponent α = 1 - slope.
    let mx = xs.iter().sum::<f64>() / xs.len() as f64;
    let my = ys.iter().sum::<f64>() / ys.len() as f64;
    let num: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if den == 0.0 {
        return None;
    }
    Some(1.0 - num / den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use nbwp_sim::DegreeSketch;

    fn sketch_of(m: &Csr) -> DegreeSketch {
        DegreeSketch::of(&[m.cols() as u64], m.row_ptr(), m.col_indices())
    }

    #[test]
    fn gini_of_uniform_is_zero() {
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12);
    }

    #[test]
    fn gini_of_concentrated_is_near_one() {
        let mut v = vec![0u64; 100];
        v[0] = 1000;
        assert!(gini(&v) > 0.95);
    }

    #[test]
    fn gini_edge_cases() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
        assert_eq!(gini(&[7]), 0.0);
    }

    #[test]
    fn regular_matrix_has_low_cv_and_gini() {
        let m = gen::block_regular(1000, 10, 3);
        let f = Features::of(&m);
        assert!(f.degree_cv < 0.05, "cv = {}", f.degree_cv);
        assert!(f.gini < 0.05, "gini = {}", f.gini);
    }

    #[test]
    fn scale_free_matrix_has_high_gini() {
        let m = gen::power_law(5000, 10, 2.0, 3);
        let f = Features::of(&m);
        assert!(f.gini > 0.4, "gini = {}", f.gini);
        assert!(f.degree_cv > 1.0, "cv = {}", f.degree_cv);
    }

    #[test]
    fn banded_matrix_has_high_band_fraction() {
        let m = gen::banded_fem(2000, 40, 12, 3); // band 40 ≤ 5% of 2000
        let f = Features::of(&m);
        assert!(f.band_fraction > 0.95, "band = {}", f.band_fraction);
        let u = gen::uniform_random(2000, 12, 3);
        let fu = Features::of(&u);
        assert!(
            fu.band_fraction < 0.3,
            "uniform band = {}",
            fu.band_fraction
        );
    }

    #[test]
    fn power_law_exponent_recovers_alpha() {
        let m = gen::power_law(20_000, 12, 2.2, 5);
        let alpha = power_law_exponent(&m.row_nnz_vector()).expect("tail exists");
        assert!(
            (1.5..3.5).contains(&alpha),
            "estimated exponent {alpha} out of plausible band"
        );
    }

    #[test]
    fn power_law_exponent_declines_on_regular_input() {
        let m = gen::block_regular(1000, 10, 3);
        assert_eq!(power_law_exponent(&m.row_nnz_vector()), None);
    }

    #[test]
    fn features_of_empty_matrix() {
        let f = Features::of(&crate::Csr::zero(10, 10));
        assert_eq!(f.mean_degree, 0.0);
        assert_eq!(f.max_degree, 0);
        assert_eq!(f.density, 0.0);
    }

    #[test]
    fn structure_sketch_matches_features() {
        let m = gen::power_law(5000, 10, 2.0, 3);
        let f = Features::of(&m);
        let s = sketch_of(&m);
        assert_eq!(s.n, m.rows());
        assert_eq!(s.m, m.nnz());
        assert_eq!(s.max, f.max_degree);
        assert!((s.mean - f.mean_degree).abs() < 1e-9);
        assert!((s.cv - f.degree_cv).abs() < 1e-9);
        assert_eq!(s.log2_hist.iter().sum::<u64>(), m.rows() as u64);
    }

    #[test]
    fn structure_sketch_digest_ignores_values_but_not_pattern() {
        let a = gen::banded_fem(1000, 20, 8, 3);
        let b = gen::banded_fem(1000, 20, 8, 4); // different seed
        let sa = sketch_of(&a);
        assert_eq!(sa.digest, sketch_of(&a).digest);
        assert_ne!(sa.digest, sketch_of(&b).digest);
    }

    #[test]
    fn sampling_preserves_gini_class() {
        use crate::sample::sample_rows_contract;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(1);
        let sf = gen::power_law(10_000, 12, 2.1, 7);
        let reg = gen::block_regular(10_000, 12, 7);
        let s_sf = Features::of(&sample_rows_contract(&sf, 100, &mut rng));
        let s_reg = Features::of(&sample_rows_contract(&reg, 100, &mut rng));
        assert!(
            s_sf.gini > s_reg.gini + 0.2,
            "sampled scale-free gini {} should exceed sampled regular {}",
            s_sf.gini,
            s_reg.gini
        );
    }
}
