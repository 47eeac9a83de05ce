//! Dense GEMM kernels with the shared accounting convention.
//!
//! Dense matrix multiply is the paper's *regular* motivating workload
//! (Fig. 1): per-row work is identical, so its cost profile is a closed
//! form and FLOPS-proportional static partitioning is near-optimal. The
//! kernels here execute for real (naive and blocked variants,
//! cross-checked against each other) and report [`KernelStats`] that match
//! the closed form exactly.

use nbwp_sim::KernelStats;

use crate::DenseMatrix;

/// Cache-blocking tile edge for [`gemm_blocked`].
pub const TILE: usize = 32;

/// Naive triple-loop GEMM over rows `lo..hi` of `A` (reference kernel).
///
/// # Panics
/// Panics on shape mismatch or an out-of-bounds row range.
#[must_use]
pub fn gemm_range(a: &DenseMatrix, b: &DenseMatrix, lo: usize, hi: usize) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "incompatible GEMM shapes");
    assert!(lo <= hi && hi <= a.rows(), "row range out of bounds");
    let (k, m) = (a.cols(), b.cols());
    let mut c = DenseMatrix::zeros(hi - lo, m);
    for i in lo..hi {
        let arow = a.row(i);
        let crow = c.row_mut(i - lo);
        for (p, &av) in arow.iter().enumerate().take(k) {
            let brow = b.row(p);
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
    c
}

/// Full naive GEMM.
#[must_use]
pub fn gemm(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    gemm_range(a, b, 0, a.rows())
}

/// Cache-blocked GEMM over rows `lo..hi` (tiles of [`TILE`], with `pp`/`jj`
/// tiling over the inner dimensions). Per output element the `p` loop runs
/// ascending across `pp` tiles, so the accumulation order — and therefore
/// the floating-point result — is bit-identical to [`gemm_range`].
#[must_use]
pub fn gemm_blocked_range(a: &DenseMatrix, b: &DenseMatrix, lo: usize, hi: usize) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "incompatible GEMM shapes");
    assert!(lo <= hi && hi <= a.rows(), "row range out of bounds");
    let (k, m) = (a.cols(), b.cols());
    let mut c = DenseMatrix::zeros(hi - lo, m);
    for ii in (lo..hi).step_by(TILE) {
        for pp in (0..k).step_by(TILE) {
            for jj in (0..m).step_by(TILE) {
                let i_hi = (ii + TILE).min(hi);
                let p_hi = (pp + TILE).min(k);
                let j_hi = (jj + TILE).min(m);
                for i in ii..i_hi {
                    for p in pp..p_hi {
                        let av = a.get(i, p);
                        let brow = b.row(p);
                        let crow = c.row_mut(i - lo);
                        for j in jj..j_hi {
                            crow[j] += av * brow[j];
                        }
                    }
                }
            }
        }
    }
    c
}

/// Cache-blocked GEMM (tiles of [`TILE`]); identical result to [`gemm`].
#[must_use]
pub fn gemm_blocked(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    gemm_blocked_range(a, b, 0, a.rows())
}

/// Instrumented blocked GEMM over rows `lo..hi`: executes exactly like
/// [`gemm_blocked_range`] while counting every event under the accounting
/// conventions of [`stats_for_rows`], so the measured [`KernelStats`] are
/// **identical** to the closed form (tested below). The conventions, as
/// counted here:
///
/// * `A(i, p)` is charged as a read (and as one `int_op`, and as working-set
///   first-touch) only at the row's first `jj` tile — later tiles hit cache;
/// * each `B` tile is charged once per `(ii, pp, jj)` tile visit — `B` is
///   re-streamed once per row band;
/// * `C(i, j)` is charged as a write (and first-touch) at its first `pp`
///   tile — the accumulator stays resident across the `pp` sweep;
/// * one parallel item per `(i, jj)` tile; `simd_padded == flops` (regular).
///
/// `b_bytes` is the resident size of `B`, seeding the working set.
///
/// # Panics
/// Panics on shape mismatch or an out-of-bounds row range.
#[must_use]
pub fn gemm_blocked_instrumented(
    a: &DenseMatrix,
    b: &DenseMatrix,
    lo: usize,
    hi: usize,
    b_bytes: u64,
) -> (DenseMatrix, KernelStats) {
    assert_eq!(a.cols(), b.rows(), "incompatible GEMM shapes");
    assert!(lo <= hi && hi <= a.rows(), "row range out of bounds");
    let (k, m) = (a.cols(), b.cols());
    let mut c = DenseMatrix::zeros(hi - lo, m);
    let mut s = KernelStats::default();
    let mut touched_bytes = b_bytes;
    for ii in (lo..hi).step_by(TILE) {
        for pp in (0..k).step_by(TILE) {
            for jj in (0..m).step_by(TILE) {
                let i_hi = (ii + TILE).min(hi);
                let p_hi = (pp + TILE).min(k);
                let j_hi = (jj + TILE).min(m);
                // B tile streamed once per (ii, pp, jj) visit.
                s.mem_read_bytes += 8 * ((p_hi - pp) * (j_hi - jj)) as u64;
                for i in ii..i_hi {
                    if pp == 0 && jj == 0 {
                        s.parallel_items += m.div_ceil(TILE) as u64;
                    }
                    for p in pp..p_hi {
                        if jj == 0 {
                            s.int_ops += 1;
                            s.mem_read_bytes += 8;
                            touched_bytes += 8;
                        }
                        let av = a.get(i, p);
                        let brow = b.row(p);
                        let crow = c.row_mut(i - lo);
                        for j in jj..j_hi {
                            crow[j] += av * brow[j];
                            s.flops += 2;
                            if p == 0 {
                                s.mem_write_bytes += 8;
                                touched_bytes += 8;
                            }
                        }
                    }
                }
            }
        }
    }
    s.simd_padded_flops = s.flops;
    s.kernel_launches = u64::from(hi > lo);
    s.working_set_bytes = if hi > lo { touched_bytes } else { 0 };
    (c, s)
}

/// Closed-form execution counters for multiplying `rows` rows of an
/// `(· × k)` by a `(k × m)` matrix — dense GEMM is perfectly regular, so
/// this *is* the measured profile.
///
/// Accounting: `2·k·m` flops per row (multiply-add), streaming reads of the
/// `A` band and (per tile reuse) of `B`, streaming writes of `C`; no
/// irregular traffic; `simd_padded == flops` (zero divergence).
#[must_use]
pub fn stats_for_rows(rows: usize, k: usize, m: usize, b_bytes: u64) -> KernelStats {
    if rows == 0 {
        return KernelStats::default();
    }
    let rows = rows as u64;
    let (k64, m64) = (k as u64, m as u64);
    let flops = 2 * rows * k64 * m64;
    KernelStats {
        flops,
        int_ops: rows * k64, // loop/index overhead per (i, p)
        mem_read_bytes: 8 * (rows * k64 + rows.div_ceil(TILE as u64).max(1) * k64 * m64),
        mem_write_bytes: 8 * rows * m64,
        irregular_bytes: 0,
        simd_padded_flops: flops,
        kernel_launches: u64::from(rows > 0),
        sync_rounds: 0,
        atomic_ops: 0,
        parallel_items: rows * m64.div_ceil(TILE as u64).max(1),
        working_set_bytes: b_bytes + 8 * rows * (k64 + m64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        let mut c = DenseMatrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.get(i, p) * b.get(p, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn naive_matches_reference() {
        let a = DenseMatrix::random(17, 23, 1);
        let b = DenseMatrix::random(23, 11, 2);
        assert!(gemm(&a, &b).max_abs_diff(&reference(&a, &b)) < 1e-10);
    }

    #[test]
    fn blocked_matches_naive() {
        let a = DenseMatrix::random(70, 65, 3);
        let b = DenseMatrix::random(65, 40, 4);
        assert!(gemm_blocked(&a, &b).max_abs_diff(&gemm(&a, &b)) < 1e-10);
    }

    #[test]
    fn range_stitches() {
        let a = DenseMatrix::random(20, 20, 7);
        let full = gemm(&a, &a);
        let top = gemm_range(&a, &a, 0, 8);
        let bot = gemm_range(&a, &a, 8, 20);
        for i in 0..8 {
            assert_eq!(top.row(i), full.row(i));
        }
        for i in 8..20 {
            assert_eq!(bot.row(i - 8), full.row(i));
        }
    }

    #[test]
    fn identity_like_behaviour() {
        let mut i4 = DenseMatrix::zeros(4, 4);
        for i in 0..4 {
            i4.set(i, i, 1.0);
        }
        let a = DenseMatrix::random(4, 4, 9);
        assert!(gemm(&a, &i4).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn instrumented_measures_the_closed_form() {
        // Shapes straddling tile boundaries, plus full/empty row ranges.
        for (n, k, m, lo, hi) in [
            (70, 65, 40, 0, 70),
            (64, 32, 32, 0, 64),
            (33, 17, 50, 5, 33),
            (40, 40, 40, 8, 8),
            (40, 40, 40, 12, 31),
        ] {
            let a = DenseMatrix::random(n, k, 11);
            let b = DenseMatrix::random(k, m, 12);
            let b_bytes = (8 * k * m) as u64;
            let (c, measured) = gemm_blocked_instrumented(&a, &b, lo, hi, b_bytes);
            assert_eq!(
                measured,
                stats_for_rows(hi - lo, k, m, b_bytes),
                "shape ({n},{k},{m}) rows {lo}..{hi}"
            );
            assert!(
                c.max_abs_diff(&gemm_blocked_range(&a, &b, lo, hi)) == 0.0,
                "numeric result must be bit-identical to the uninstrumented kernel"
            );
        }
    }

    #[test]
    fn stats_closed_form() {
        let s = stats_for_rows(100, 50, 60, 1000);
        assert_eq!(s.flops, 2 * 100 * 50 * 60);
        assert_eq!(s.simd_padded_flops, s.flops, "regular work has no padding");
        assert_eq!(s.irregular_bytes, 0);
        assert_eq!(s.mem_write_bytes, 8 * 100 * 60);
        let empty = stats_for_rows(0, 50, 60, 1000);
        assert_eq!(empty.flops, 0);
        assert_eq!(empty.kernel_launches, 0);
    }

    #[test]
    fn stats_proportional_to_rows() {
        let s1 = stats_for_rows(10, 32, 32, 0);
        let s2 = stats_for_rows(20, 32, 32, 0);
        assert_eq!(s2.flops, 2 * s1.flops);
        assert_eq!(s2.mem_write_bytes, 2 * s1.mem_write_bytes);
    }

    #[test]
    #[should_panic(expected = "incompatible GEMM shapes")]
    fn shape_checked() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = gemm(&a, &b);
    }
}
