//! Input sampling — Step 1 ("Sample") of the paper's framework.
//!
//! Five samplers, for the paper's case studies, its ablations, and the
//! importance-sampling extension:
//!
//! * [`sample_submatrix`] — §IV.A(a): an `n/k × n/k` miniature with each
//!   row's nonzero count scaled by `1/k` (`NNZ'_i = NNZ_i / K`); used for
//!   unstructured spmm ([`sample_submatrix_frac`] is its fractional form).
//! * [`sample_rows_contract`] — §V.A.1: `s` uniformly chosen rows with
//!   column indices contracted into `1..s`; preserves (bounded) row degrees
//!   and the power-law shape; used for scale-free spmm.
//! * [`sample_rows_importance`] — degree-weighted row sampling, the
//!   extension the paper defers to future work.
//! * [`predetermined_submatrix`] — the *non-random* contiguous block used
//!   by the paper's Fig. 7 ablation ("Role of Randomness").
//! * [`sample_induced`] — faithful induced sampling, kept to show why it
//!   degenerates on sparse inputs.
//!
//! All samplers take an explicit RNG so experiments are seed-reproducible.

use std::collections::HashSet;

use rand::Rng;

use crate::{Coo, Csr};

/// Contracts a column index from a `from`-column space into a `to`-column
/// space (order-preserving bucket map).
#[inline]
fn contract(j: u32, from: usize, to: usize) -> u32 {
    debug_assert!(to <= from, "contraction must shrink the space");
    ((j as u128 * to as u128) / from as u128) as u32
}

/// Chooses `count` distinct indices from `0..n`, sorted ascending.
///
/// Floyd's algorithm: O(count) time and allocation regardless of `n`, so
/// row selection never materializes a `0..n` index vector. Seed-deterministic.
fn choose_sorted<R: Rng>(n: usize, count: usize, rng: &mut R) -> Vec<usize> {
    let count = count.min(n);
    let mut picked: HashSet<usize> = HashSet::with_capacity(count);
    for j in (n - count)..n {
        let t = rng.gen_range(0..=j);
        if !picked.insert(t) {
            picked.insert(j);
        }
    }
    let mut out: Vec<usize> = picked.into_iter().collect();
    out.sort_unstable();
    out
}

/// Paper §IV.A(a): samples an `⌈n/k⌉ × ⌈n/k⌉` submatrix `A'` of `A`
/// uniformly at random, keeping each nonzero of a chosen row with
/// probability `1/k` so that `NNZ'_i ≈ NNZ_i / k`, and contracting column
/// indices into the sample space. `k` is the paper's constant `K` (they use
/// `K = 4`).
///
/// # Panics
/// Panics if `k == 0` or the matrix is not square.
#[must_use]
pub fn sample_submatrix<R: Rng>(a: &Csr, k: usize, rng: &mut R) -> Csr {
    assert!(k > 0, "sampling factor must be positive");
    sample_submatrix_frac(a, 1.0 / k as f64, rng)
}

/// Fractional variant of [`sample_submatrix`]: keeps `⌈n·frac⌉` rows and
/// each row entry with probability `frac` (the paper's sensitivity study,
/// Fig. 6, sweeps `frac` from `n/10` to `4n/10`).
///
/// # Panics
/// Panics if `frac ∉ (0, 1]` or the matrix is not square.
#[must_use]
pub fn sample_submatrix_frac<R: Rng>(a: &Csr, frac: f64, rng: &mut R) -> Csr {
    assert!(frac > 0.0 && frac <= 1.0, "fraction {frac} out of (0, 1]");
    assert_eq!(
        a.rows(),
        a.cols(),
        "submatrix sampling expects a square matrix"
    );
    let n = a.rows();
    let s = ((n as f64 * frac).ceil() as usize).clamp(1, n);
    let picked = choose_sorted(n, s, rng);
    let mut coo = Coo::with_capacity(s, s, (a.nnz() as f64 * frac * frac) as usize + s);
    for (new_i, &i) in picked.iter().enumerate() {
        let (cols, vals) = a.row(i);
        if cols.is_empty() {
            continue;
        }
        // Bernoulli-thin to NNZ'_i ≈ NNZ_i · frac, but keep at least one
        // entry so ultra-sparse rows don't vanish (a row that exists in A
        // still exists, and still costs work, in the miniature).
        let mut kept_any = false;
        for (&j, &v) in cols.iter().zip(vals) {
            if frac >= 1.0 || rng.gen_bool(frac) {
                coo.push(new_i, contract(j, n, s) as usize, v);
                kept_any = true;
            }
        }
        if !kept_any {
            let pick = rng.gen_range(0..cols.len());
            coo.push(new_i, contract(cols[pick], n, s) as usize, vals[pick]);
        }
    }
    coo.into_csr()
}

/// Paper §V.A.1: samples `s` rows of `A` uniformly at random and transforms
/// column indices so they lie within `0..s`. Row degrees are preserved up to
/// bucket collisions (a row of degree `d` keeps ≈ `d` entries while
/// `d ≪ s`, saturating at `s`).
#[must_use]
pub fn sample_rows_contract<R: Rng>(a: &Csr, s: usize, rng: &mut R) -> Csr {
    assert!(s > 0, "sample size must be positive");
    let n = a.rows();
    let s = s.min(n);
    let picked = choose_sorted(n, s, rng);
    let mut coo = Coo::with_capacity(s, s, picked.iter().map(|&i| a.row_nnz(i)).sum());
    for (new_i, &i) in picked.iter().enumerate() {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            coo.push(new_i, contract(j, a.cols(), s) as usize, v);
        }
    }
    coo.into_csr()
}

/// Paper Fig. 7 ("Role of Randomness"): the *predetermined* `⌈n/k⌉ × ⌈n/k⌉`
/// contiguous submatrix starting at block `block` (0-based). Block `b`
/// covers rows and columns `[b·⌈n/k⌉, (b+1)·⌈n/k⌉)`.
///
/// # Panics
/// Panics if the block index is out of range for the given `k`.
#[must_use]
pub fn predetermined_submatrix(a: &Csr, k: usize, block: usize) -> Csr {
    assert!(k > 0, "sampling factor must be positive");
    assert!(block < k, "block {block} out of range for k = {k}");
    let n = a.rows();
    let s = n.div_ceil(k).max(1);
    let r_lo = (block * s).min(n);
    let r_hi = ((block + 1) * s).min(n);
    let rows = r_hi - r_lo;
    let mut coo = Coo::new(rows.max(1), rows.max(1));
    for i in r_lo..r_hi {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            let j = j as usize;
            if (r_lo..r_hi).contains(&j) {
                coo.push(i - r_lo, j - r_lo, v);
            }
        }
    }
    coo.into_csr()
}

/// Faithful induced sampling (kept for the CC degeneracy demonstration):
/// keeps only entries whose row *and* column both fall in a uniformly
/// chosen index set of size `s`, without contraction. For sparse inputs and
/// `s = √n` this is empty in expectation — the reason `nbwp-core` defaults
/// CC to contraction sampling (see `DESIGN.md`).
#[must_use]
pub fn sample_induced<R: Rng>(a: &Csr, s: usize, rng: &mut R) -> Csr {
    assert!(s > 0, "sample size must be positive");
    assert_eq!(
        a.rows(),
        a.cols(),
        "induced sampling expects a square matrix"
    );
    let n = a.rows();
    let s = s.min(n);
    let picked = choose_sorted(n, s, rng);
    // Map original index -> sample index.
    let mut pos = vec![usize::MAX; n];
    for (new_i, &i) in picked.iter().enumerate() {
        pos[i] = new_i;
    }
    let mut coo = Coo::new(s, s);
    for (new_i, &i) in picked.iter().enumerate() {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            let p = pos[j as usize];
            if p != usize::MAX {
                coo.push(new_i, p, v);
            }
        }
    }
    coo.into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn contract_is_monotone_and_in_range() {
        for j in 0..1000u32 {
            let c = contract(j, 1000, 100);
            assert!(c < 100);
            if j > 0 {
                assert!(contract(j - 1, 1000, 100) <= c);
            }
        }
    }

    #[test]
    fn choose_sorted_is_o_s_not_o_n() {
        // Floyd's algorithm never materializes `0..n`: picking 100 rows out
        // of a billion-row id space completes instantly, where the previous
        // partial-shuffle version would have allocated an 8 GB index vector.
        let s = choose_sorted(1_000_000_000, 100, &mut rng(8));
        assert_eq!(s.len(), 100);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.last().unwrap() < 1_000_000_000);
    }

    #[test]
    fn submatrix_shape_and_density() {
        let a = gen::uniform_random(2000, 16, 3);
        let s = sample_submatrix(&a, 4, &mut rng(1));
        assert_eq!(s.rows(), 500);
        assert_eq!(s.cols(), 500);
        // NNZ'_i ≈ NNZ_i / 4: total nnz ≈ nnz · (1/4 rows) · (1/4 thinning).
        let expect = a.nnz() as f64 / 16.0;
        let got = s.nnz() as f64;
        assert!(
            (got - expect).abs() < expect * 0.3,
            "expected ≈{expect}, got {got}"
        );
    }

    #[test]
    fn submatrix_k1_is_a_permutation_free_copy() {
        let a = gen::uniform_random(100, 8, 5);
        let s = sample_submatrix(&a, 1, &mut rng(2));
        assert_eq!(s.rows(), 100);
        // Column contraction with to == from is identity, rows all kept:
        assert_eq!(s.nnz(), a.nnz());
    }

    #[test]
    fn rows_contract_preserves_low_degrees() {
        let a = gen::uniform_random(10_000, 8, 7);
        let s = sample_rows_contract(&a, 100, &mut rng(3));
        assert_eq!(s.rows(), 100);
        let mean_orig = a.nnz() as f64 / a.rows() as f64;
        let mean_samp = s.nnz() as f64 / s.rows() as f64;
        // Degrees ~8 against 100 buckets: few collisions, mean within 25%.
        assert!(
            (mean_samp - mean_orig).abs() < mean_orig * 0.25,
            "orig {mean_orig}, sample {mean_samp}"
        );
    }

    #[test]
    fn rows_contract_caps_hub_degrees_at_sample_size() {
        let a = gen::power_law(5000, 12, 2.0, 9);
        let s = sample_rows_contract(&a, 70, &mut rng(4));
        assert!(s.row_nnz_vector().iter().all(|&d| d <= 70));
    }

    #[test]
    fn predetermined_blocks_tile_the_diagonal() {
        let a = gen::banded_fem(1000, 10, 8, 13);
        let b0 = predetermined_submatrix(&a, 4, 0);
        let b3 = predetermined_submatrix(&a, 4, 3);
        assert_eq!(b0.rows(), 250);
        assert_eq!(b3.rows(), 250);
        // Banded matrix: diagonal blocks carry most entries.
        assert!(b0.nnz() > 0);
        // Deterministic: no RNG involved.
        assert_eq!(predetermined_submatrix(&a, 4, 0), b0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn predetermined_block_bounds_checked() {
        let a = gen::uniform_random(100, 4, 1);
        let _ = predetermined_submatrix(&a, 4, 4);
    }

    #[test]
    fn induced_sampling_degenerates_on_sparse_input() {
        // The degeneracy the paper glosses over: √n induced sample of a
        // sparse matrix is (nearly) empty.
        let n = 10_000;
        let a = gen::uniform_random(n, 8, 15);
        let s = sample_induced(&a, (n as f64).sqrt() as usize, &mut rng(6));
        assert!(
            s.nnz() < 20,
            "induced √n sample should be nearly empty, got {} nnz",
            s.nnz()
        );
    }

    #[test]
    fn induced_sampling_of_full_matrix_keeps_density() {
        let a = gen::banded_fem(200, 200, 60, 17); // effectively dense band
        let s = sample_induced(&a, 200, &mut rng(7));
        assert_eq!(s.nnz(), a.nnz(), "s = n keeps everything");
    }

    #[test]
    fn samplers_are_rng_deterministic() {
        let a = gen::power_law(3000, 10, 2.2, 19);
        let s1 = sample_rows_contract(&a, 55, &mut rng(42));
        let s2 = sample_rows_contract(&a, 55, &mut rng(42));
        assert_eq!(s1, s2);
        let s3 = sample_rows_contract(&a, 55, &mut rng(43));
        assert_ne!(s1, s3);
    }
}

/// Importance (degree-weighted) row sampler — the extension the paper
/// defers to future work ("e.g., importance sampling \[23\]").
///
/// Rows are drawn *without replacement* with probability proportional to
/// `weight(d) = 1 + d`, so the dense hub rows that uniform sampling almost
/// never sees — yet which decide the HH-CPU threshold — appear in the
/// miniature with high probability. Column indices are contracted into
/// `0..s` as in [`sample_rows_contract`].
///
/// Returns the sampled matrix plus, for each kept row, its original row
/// index (callers correcting for the sampling bias need the provenance).
#[must_use]
pub fn sample_rows_importance<R: Rng>(a: &Csr, s: usize, rng: &mut R) -> (Csr, Vec<usize>) {
    assert!(s > 0, "sample size must be positive");
    let n = a.rows();
    let s = s.min(n);
    // Weighted sampling without replacement via exponential keys
    // (Efraimidis–Spirakis): key_i = u^(1/w_i); keep the s largest.
    let mut keyed: Vec<(f64, usize)> = (0..n)
        .map(|i| {
            let w = 1.0 + a.row_nnz(i) as f64;
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            (u.powf(1.0 / w), i)
        })
        .collect();
    keyed.sort_unstable_by(|x, y| y.0.total_cmp(&x.0));
    let mut picked: Vec<usize> = keyed[..s].iter().map(|&(_, i)| i).collect();
    picked.sort_unstable();

    let mut coo = Coo::with_capacity(s, s, picked.iter().map(|&i| a.row_nnz(i)).sum());
    for (new_i, &i) in picked.iter().enumerate() {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            coo.push(new_i, contract(j, a.cols(), s) as usize, v);
        }
    }
    (coo.into_csr(), picked)
}

#[cfg(test)]
mod importance_tests {
    use super::*;
    use crate::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn importance_sampling_captures_hubs_uniform_does_not() {
        let a = gen::power_law(20_000, 8, 2.0, 11);
        let max_full = (0..a.rows()).map(|r| a.row_nnz(r)).max().unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let (imp, _) = sample_rows_importance(&a, 140, &mut rng);
        let mut rng = SmallRng::seed_from_u64(3);
        let uni = sample_rows_contract(&a, 140, &mut rng);
        let max_imp = (0..imp.rows()).map(|r| imp.row_nnz(r)).max().unwrap();
        // Contraction caps every row's degree at the sample size, so a lucky
        // uniform draw can tie the *max*; the robust signal is total sampled
        // structure. Importance keeps ~the s heaviest rows, each saturating
        // the contracted buckets, while uniform keeps mean-degree rows.
        assert!(
            imp.nnz() > 3 * uni.nnz(),
            "importance nnz {} vs uniform nnz {} (full max degree {max_full})",
            imp.nnz(),
            uni.nnz()
        );
        // And the global hub itself saturates the contracted sample.
        assert!(
            max_imp as f64 >= 0.8 * imp.rows() as f64,
            "hub row should saturate: max contracted degree {max_imp} of {}",
            imp.rows()
        );
    }

    #[test]
    fn importance_sampling_returns_provenance() {
        let a = gen::power_law(5000, 8, 2.1, 13);
        let mut rng = SmallRng::seed_from_u64(5);
        let (m, origin) = sample_rows_importance(&a, 60, &mut rng);
        assert_eq!(m.rows(), 60);
        assert_eq!(origin.len(), 60);
        assert!(origin.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
        assert!(origin.iter().all(|&i| i < a.rows()));
    }

    #[test]
    fn importance_sampling_is_seed_deterministic() {
        let a = gen::power_law(3000, 8, 2.1, 17);
        let mut r1 = SmallRng::seed_from_u64(9);
        let mut r2 = SmallRng::seed_from_u64(9);
        assert_eq!(
            sample_rows_importance(&a, 50, &mut r1).0,
            sample_rows_importance(&a, 50, &mut r2).0
        );
    }

    #[test]
    fn importance_sampling_clamps_to_matrix_size() {
        let a = gen::uniform_random(30, 4, 19);
        let mut rng = SmallRng::seed_from_u64(1);
        let (m, origin) = sample_rows_importance(&a, 100, &mut rng);
        assert_eq!(m.rows(), 30);
        assert_eq!(origin, (0..30).collect::<Vec<_>>());
    }
}
