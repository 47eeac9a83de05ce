//! Sparse matrix–vector multiplication (SpMV) — the workload of the
//! paper's related-work citation \[17\] (Indarapu, Maramreddy, Kothapalli:
//! "Architecture- and workload-aware algorithms for sparse matrix-vector
//! multiplication"), provided as a sixth partitioned workload.
//!
//! `y = A·x` decomposes by rows exactly like SpGEMM, with the work of row
//! `i` equal to its nonzero count — so the same load-vector split machinery
//! applies, and the per-row cost profile is trivially the row-degree
//! vector. The irregular part is the gather of `x[j]` through the column
//! indices.

use nbwp_sim::{warp_padded_cost, KernelStats};

use crate::spgemm::WARP;
use crate::Csr;

/// Computes `y = A·x` over rows `lo..hi`, returning the partial result and
/// the counters of the executed range.
///
/// # Panics
/// Panics if `x.len() != a.cols()` or the row range is out of bounds.
#[must_use]
pub fn spmv_range(a: &Csr, x: &[f64], lo: usize, hi: usize) -> (Vec<f64>, KernelStats) {
    assert_eq!(x.len(), a.cols(), "x has wrong length");
    assert!(lo <= hi && hi <= a.rows(), "row range out of bounds");
    let mut y = Vec::with_capacity(hi - lo);
    for i in lo..hi {
        let (cols, vals) = a.row(i);
        let mut acc = 0.0;
        for (&j, &v) in cols.iter().zip(vals) {
            acc += v * x[j as usize];
        }
        y.push(acc);
    }
    (y, stats_for_row_range(a, lo, hi))
}

/// Computes the full `y = A·x`.
///
/// ```
/// use nbwp_sparse::{gen, spmv::spmv};
/// let a = gen::banded_fem(50, 5, 4, 1);
/// let y = spmv(&a, &vec![1.0; 50]);
/// assert_eq!(y.len(), 50);
/// ```
#[must_use]
pub fn spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
    spmv_range(a, x, 0, a.rows()).0
}

/// Analytic counters for rows `lo..hi` of an SpMV — exact, because SpMV
/// work is pure structure. Agrees with [`spmv_range`]'s measured counters
/// by construction.
///
/// Accounting, per row: `2·nnz` flops; reads `12·nnz` (A entries,
/// streaming) + `8·nnz` (the `x` gather, irregular); one `8`-byte `y`
/// write; warp-padded flops over per-row nnz.
#[must_use]
pub fn stats_for_row_range(a: &Csr, lo: usize, hi: usize) -> KernelStats {
    assert!(lo <= hi && hi <= a.rows(), "row range out of bounds");
    let mut s = KernelStats::new();
    let mut per_row_flops = Vec::with_capacity(hi - lo);
    for i in lo..hi {
        let nnz = a.row_nnz(i) as u64;
        s.flops += 2 * nnz;
        s.int_ops += 2 * nnz + 2;
        s.mem_read_bytes += 20 * nnz;
        s.irregular_bytes += 8 * nnz;
        s.mem_write_bytes += 8;
        per_row_flops.push(2 * nnz);
    }
    s.simd_padded_flops = warp_padded_cost(&per_row_flops, WARP);
    s.kernel_launches = u64::from(hi > lo);
    s.parallel_items = (hi - lo) as u64;
    let range_nnz: u64 = per_row_flops.iter().sum::<u64>() / 2;
    s.working_set_bytes = 12 * range_nnz + 8 * a.cols() as u64 + 8 * (hi - lo) as u64;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn dense_spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
        let d = a.to_dense();
        (0..a.rows())
            .map(|i| (0..a.cols()).map(|j| d[i * a.cols() + j] * x[j]).sum())
            .collect()
    }

    #[test]
    fn matches_dense_reference() {
        let a = gen::uniform_random(200, 8, 1);
        let x: Vec<f64> = (0..200).map(|i| (i as f64).sin()).collect();
        let y = spmv(&a, &x);
        let want = dense_spmv(&a, &x);
        assert!(y.iter().zip(&want).all(|(u, v)| (u - v).abs() < 1e-9));
    }

    #[test]
    fn ranges_partition_the_result() {
        let a = gen::power_law(300, 10, 2.1, 3);
        let x = vec![1.5; 300];
        let full = spmv(&a, &x);
        let (top, _) = spmv_range(&a, &x, 0, 120);
        let (bot, _) = spmv_range(&a, &x, 120, 300);
        assert_eq!(top.len() + bot.len(), full.len());
        assert_eq!(&full[..120], top.as_slice());
        assert_eq!(&full[120..], bot.as_slice());
    }

    #[test]
    fn measured_and_analytic_stats_agree() {
        let a = gen::banded_fem(150, 10, 8, 5);
        let x = vec![1.0; 150];
        let (_, measured) = spmv_range(&a, &x, 20, 130);
        assert_eq!(measured, stats_for_row_range(&a, 20, 130));
    }

    #[test]
    fn empty_range_is_free() {
        let a = gen::uniform_random(50, 4, 7);
        let s = stats_for_row_range(&a, 25, 25);
        assert_eq!(s.flops, 0);
        assert_eq!(s.kernel_launches, 0);
    }

    #[test]
    fn skewed_rows_pad_warps() {
        let reg = gen::block_regular(640, 8, 9);
        let skew = gen::power_law(640, 8, 2.0, 9);
        let s_reg = stats_for_row_range(&reg, 0, 640);
        let s_skew = stats_for_row_range(&skew, 0, 640);
        let pad_reg = s_reg.simd_padded_flops as f64 / s_reg.flops as f64;
        let pad_skew = s_skew.simd_padded_flops as f64 / s_skew.flops as f64;
        assert!(
            pad_skew > pad_reg * 1.5,
            "padding: skew {pad_skew:.2} vs regular {pad_reg:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "x has wrong length")]
    fn x_length_checked() {
        let a = gen::uniform_random(10, 2, 1);
        let _ = spmv(&a, &[1.0; 5]);
    }
}
