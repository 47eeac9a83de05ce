//! Property-based tests for the sparse substrate: SpGEMM correctness against
//! a dense reference, exact four-way HH work partitioning, profile/measured
//! agreement, and sampler invariants.

use nbwp_sparse::masked::{masked_row_profile, spgemm_masked, DensitySplit, HhProducts};
use nbwp_sparse::ops::{add, load_vector, prefix_sums, split_row_for_load, transpose};
use nbwp_sparse::spgemm::{row_profile, spgemm, spgemm_range};
use nbwp_sparse::{Coo, Csr};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a small random CSR matrix (via COO with duplicates allowed).
fn arb_csr(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec(
            (0..n, 0..n, -4i32..=4).prop_map(|(r, c, v)| (r, c, f64::from(v) / 2.0)),
            0..=max_nnz,
        )
        .prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v);
            }
            coo.into_csr()
        })
    })
}

fn dense_mul(a: &Csr, b: &Csr) -> Vec<f64> {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let da = a.to_dense();
    let db = b.to_dense();
    let mut out = vec![0.0; n * m];
    for i in 0..n {
        for p in 0..k {
            let av = da[i * k + p];
            if av != 0.0 {
                for j in 0..m {
                    out[i * m + j] += av * db[p * m + j];
                }
            }
        }
    }
    out
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spgemm_matches_dense_reference(a in arb_csr(24, 80), seed in 0u64..1000) {
        let _ = seed;
        let c = spgemm(&a, &a);
        prop_assert!(close(&c.to_dense(), &dense_mul(&a, &a)));
    }

    #[test]
    fn row_ranges_partition_the_product(a in arb_csr(24, 80), split_frac in 0.0f64..=1.0) {
        let n = a.rows();
        let split = ((n as f64) * split_frac) as usize;
        let full = spgemm(&a, &a);
        let (top, _) = spgemm_range(&a, &a, 0, split);
        let (bot, _) = spgemm_range(&a, &a, split, n);
        prop_assert_eq!(top.to_dense(), full.row_slice(0, split).to_dense());
        prop_assert_eq!(bot.to_dense(), full.row_slice(split, n).to_dense());
    }

    #[test]
    fn symbolic_profile_equals_measured_costs(a in arb_csr(24, 80)) {
        let (_, measured) = spgemm_range(&a, &a, 0, a.rows());
        prop_assert_eq!(row_profile(&a, &a), measured);
    }

    #[test]
    fn load_vector_equals_profile_b_entries(a in arb_csr(24, 80)) {
        let lv = load_vector(&a, &a);
        let profile = row_profile(&a, &a);
        for (l, p) in lv.iter().zip(&profile) {
            prop_assert_eq!(*l, p.b_entries);
        }
    }

    #[test]
    fn hh_four_products_sum_to_full(a in arb_csr(20, 60), t_a in 0u64..8, t_b in 0u64..8) {
        let p = HhProducts::compute(&a, &a, t_a, t_b);
        let combined = p.combine();
        let reference = spgemm(&a, &a);
        prop_assert!(close(&combined.to_dense(), &reference.to_dense()));
    }

    #[test]
    fn hh_work_partitions_exactly(a in arb_csr(20, 60), t in 0u64..8) {
        let p = HhProducts::compute(&a, &a, t, t);
        let full = row_profile(&a, &a);
        for (i, row) in full.iter().enumerate() {
            let sum = p.hh.1[i].b_entries + p.hl.1[i].b_entries
                + p.lh.1[i].b_entries + p.ll.1[i].b_entries;
            prop_assert_eq!(sum, row.b_entries);
        }
    }

    #[test]
    fn masked_profile_equals_measured(a in arb_csr(20, 60), t in 0u64..8) {
        let s = DensitySplit::at_threshold(&a, t);
        let (hi, lo) = (s.high.clone(), s.low());
        let (_, measured) = spgemm_masked(&a, &a, &hi, &lo);
        prop_assert_eq!(masked_row_profile(&a, &a, &hi, &lo), measured);
    }

    #[test]
    fn transpose_involution(a in arb_csr(30, 120)) {
        prop_assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn transpose_preserves_nnz(a in arb_csr(30, 120)) {
        prop_assert_eq!(transpose(&a).nnz(), a.nnz());
    }

    #[test]
    fn add_is_commutative(a in arb_csr(16, 60), b in arb_csr(16, 60)) {
        // Force same shape by embedding in the max dimension.
        if a.rows() == b.rows() {
            let ab = add(&a, &b);
            let ba = add(&b, &a);
            prop_assert_eq!(ab.to_dense(), ba.to_dense());
        }
    }

    #[test]
    fn split_row_is_monotone_in_percentage(work in proptest::collection::vec(0u64..100, 1..50)) {
        let prefix = prefix_sums(&work);
        let mut last = 0usize;
        for pct in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let s = split_row_for_load(&prefix, pct);
            prop_assert!(s >= last, "split must grow with percentage");
            prop_assert!(s <= work.len());
            last = s;
        }
    }

    #[test]
    fn split_row_extremes(work in proptest::collection::vec(1u64..100, 1..50)) {
        let prefix = prefix_sums(&work);
        prop_assert_eq!(split_row_for_load(&prefix, 0.0), 0);
        prop_assert_eq!(split_row_for_load(&prefix, 100.0), work.len());
    }

    #[test]
    fn samplers_shrink_and_stay_in_bounds(
        a in arb_csr(64, 400),
        s in 1usize..32,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = nbwp_sparse::sample::sample_rows_contract(&a, s, &mut rng);
        prop_assert!(m.rows() <= s.min(a.rows()).max(1));
        prop_assert_eq!(m.rows(), m.cols());
        prop_assert!(m.nnz() <= a.nnz());
    }

    #[test]
    fn submatrix_sampler_shrinks_quadratically(
        seed in 0u64..1000,
    ) {
        let a = nbwp_sparse::gen::uniform_random(400, 12, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = nbwp_sparse::sample::sample_submatrix(&a, 4, &mut rng);
        prop_assert_eq!(m.rows(), 100);
        // 1/16 of the nnz on expectation; allow generous slack.
        prop_assert!(m.nnz() < a.nnz() / 6);
    }

    #[test]
    fn density_split_partitions_rows(a in arb_csr(40, 200), t in 0u64..10) {
        let s = DensitySplit::at_threshold(&a, t);
        prop_assert_eq!(s.n_high + s.n_low(), a.rows());
        for (i, &h) in s.high.iter().enumerate() {
            prop_assert_eq!(h, a.row_nnz(i) as u64 > t);
        }
    }
}
