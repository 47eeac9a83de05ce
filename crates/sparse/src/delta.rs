//! Batched row mutations on CSR operands: the sparse half of the drift
//! pipeline.
//!
//! A [`CsrDelta`] is an ordered script of [`RowOp`]s — structural row
//! replacements and numeric row scalings. [`CsrDelta::apply`] plays the
//! script against a matrix with one compacting O(rows + nnz) rebuild and
//! reports a [`CsrDeltaInfo`]: which rows were touched, how each touched
//! row's degree changed, and an order-sensitive *commitment* to the
//! script. The info record is exactly what the O(|delta|) fingerprint and
//! curve patches upstream consume — they never have to rescan the matrix.

use std::borrow::Cow;
use std::collections::BTreeMap;

use nbwp_sim::Digest;

use crate::Csr;

/// One mutation of a single CSR row.
#[derive(Clone, Debug, PartialEq)]
pub enum RowOp {
    /// Replace the row's pattern and values wholesale. `cols` must be
    /// strictly increasing and in bounds (the CSR invariant).
    Replace {
        /// Target row.
        row: usize,
        /// New column indices, strictly increasing.
        cols: Vec<u32>,
        /// New values, one per column index.
        vals: Vec<f64>,
    },
    /// Multiply every stored value of the row by `factor`. Pattern —
    /// and therefore every structural curve — is unchanged.
    Scale {
        /// Target row.
        row: usize,
        /// Multiplier applied to each stored value.
        factor: f64,
    },
}

impl RowOp {
    /// The row this op targets.
    #[must_use]
    pub fn row(&self) -> usize {
        match *self {
            RowOp::Replace { row, .. } | RowOp::Scale { row, .. } => row,
        }
    }
}

/// An ordered batch of row mutations. Ops compose in script order: a
/// `Scale` after a `Replace` scales the replacement, a later `Replace`
/// wins over anything earlier on the same row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CsrDelta {
    /// The mutation script, applied in order.
    pub ops: Vec<RowOp>,
}

/// What a [`CsrDelta::apply`] did, in the shape the O(|delta|) fingerprint
/// and curve patches consume.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrDeltaInfo {
    /// Rows the script touched, sorted and deduplicated. Includes rows
    /// whose pattern did not change (pure scales): their values moved.
    pub touched_rows: Vec<usize>,
    /// `(old degree, new degree)` per entry of `touched_rows`.
    pub degree_changes: Vec<(u64, u64)>,
    /// Maximum row degree of the mutated matrix.
    pub new_max_degree: u64,
    /// Change in nonzero count (`new nnz − old nnz`).
    pub nnz_delta: i64,
    /// Order-sensitive [`Digest`] commitment to the script. Mixing this into a
    /// fingerprint digest makes drifted-digest equality well-defined: two
    /// drifted fingerprints agree iff base input and op chain agree.
    pub commit: u64,
}

impl CsrDelta {
    /// A delta replacing one row.
    #[must_use]
    pub fn replace(row: usize, cols: Vec<u32>, vals: Vec<f64>) -> Self {
        CsrDelta {
            ops: vec![RowOp::Replace { row, cols, vals }],
        }
    }

    /// True when the script is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the script with one compacting rebuild, returning the
    /// mutated matrix and the [`CsrDeltaInfo`] describing what changed.
    /// The input is untouched (persistent-style update). Each run of
    /// untouched rows between two touched ones is copied in bulk: one
    /// slice copy per array and a shifted run of row pointers. Composing
    /// the script copies no row: replacements are borrowed from it, and a
    /// `Scale` copies only the values of the row it scales.
    ///
    /// # Panics
    /// Panics if an op targets a row `>= rows`, a replacement's columns are
    /// not strictly increasing and in bounds, or its `cols`/`vals` lengths
    /// differ.
    #[must_use]
    pub fn apply(&self, a: &Csr) -> (Csr, CsrDeltaInfo) {
        // Each touched row's final (cols, vals), in row order, borrowed
        // from the script or from `a`: only a scaled row owns its values.
        let mut pending: BTreeMap<usize, (&[u32], Cow<'_, [f64]>)> = BTreeMap::new();
        let mut commit = Digest::default();
        for op in &self.ops {
            match op {
                RowOp::Replace { row, cols, vals } => {
                    assert!(*row < a.rows(), "replace row {row} out of bounds");
                    assert_eq!(cols.len(), vals.len(), "cols/vals length mismatch");
                    assert!(
                        cols.windows(2).all(|w| w[0] < w[1])
                            && cols.last().is_none_or(|&c| (c as usize) < a.cols()),
                        "replacement columns must be strictly increasing and in bounds"
                    );
                    commit
                        .words([1, *row as u64])
                        .u32s(cols)
                        .words(vals.iter().map(|v| v.to_bits()));
                    pending.insert(*row, (cols, Cow::Borrowed(vals)));
                }
                RowOp::Scale { row, factor } => {
                    assert!(*row < a.rows(), "scale row {row} out of bounds");
                    commit.words([2, *row as u64, factor.to_bits()]);
                    let (_, v) = pending.entry(*row).or_insert_with(|| {
                        let (c, v) = a.row(*row);
                        (c, Cow::Borrowed(v))
                    });
                    for x in v.to_mut() {
                        *x *= *factor;
                    }
                }
            }
        }

        let touched_rows: Vec<usize> = pending.keys().copied().collect();
        let degree_changes: Vec<(u64, u64)> = pending
            .iter()
            .map(|(&r, (c, _))| (a.row_nnz(r) as u64, c.len() as u64))
            .collect();

        let mut row_ptr = Vec::with_capacity(a.rows() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(a.nnz());
        let mut vals = Vec::with_capacity(a.nnz());
        let mut copied = 0usize;
        for (&r, (c, v)) in &pending {
            copy_rows(a, copied, r, &mut row_ptr, &mut col_idx, &mut vals);
            col_idx.extend_from_slice(c);
            vals.extend_from_slice(v);
            row_ptr.push(col_idx.len());
            copied = r + 1;
        }
        copy_rows(a, copied, a.rows(), &mut row_ptr, &mut col_idx, &mut vals);
        let max_deg = row_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0) as u64;
        let nnz_delta = col_idx.len() as i64 - a.nnz() as i64;
        let out = Csr::from_raw(a.rows(), a.cols(), row_ptr, col_idx, vals);
        (
            out,
            CsrDeltaInfo {
                touched_rows,
                degree_changes,
                new_max_degree: max_deg,
                nnz_delta,
                commit: commit.finish(),
            },
        )
    }
}

/// Appends rows `lo..hi` of `a` unchanged: one slice copy per array and a
/// shifted run of row pointers.
fn copy_rows(
    a: &Csr,
    lo: usize,
    hi: usize,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<u32>,
    vals: &mut Vec<f64>,
) {
    let (start, end) = (a.row_ptr()[lo], a.row_ptr()[hi]);
    let base = col_idx.len();
    row_ptr.extend(a.row_ptr()[lo + 1..=hi].iter().map(|&p| p - start + base));
    col_idx.extend_from_slice(&a.col_indices()[start..end]);
    vals.extend_from_slice(&a.values()[start..end]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;

    /// The rebuild `apply` replaced: script composition in a hash map,
    /// then one lookup and one copy per row.
    fn apply_row_by_row(delta: &CsrDelta, a: &Csr) -> (Csr, CsrDeltaInfo) {
        use std::collections::HashMap;
        let mut pending: HashMap<usize, (Vec<u32>, Vec<f64>)> = HashMap::new();
        let mut commit = Digest::default();
        for op in &delta.ops {
            match op {
                RowOp::Replace { row, cols, vals } => {
                    commit
                        .words([1, *row as u64])
                        .u32s(cols)
                        .words(vals.iter().map(|v| v.to_bits()));
                    pending.insert(*row, (cols.clone(), vals.clone()));
                }
                RowOp::Scale { row, factor } => {
                    commit.words([2, *row as u64, factor.to_bits()]);
                    let (_, v) = pending.entry(*row).or_insert_with(|| {
                        let (c, v) = a.row(*row);
                        (c.to_vec(), v.to_vec())
                    });
                    for x in v.iter_mut() {
                        *x *= *factor;
                    }
                }
            }
        }
        let mut touched_rows: Vec<usize> = pending.keys().copied().collect();
        touched_rows.sort_unstable();
        let degree_changes = touched_rows
            .iter()
            .map(|&r| (a.row_nnz(r) as u64, pending[&r].0.len() as u64))
            .collect();
        let (mut row_ptr, mut col_idx, mut vals) = (vec![0usize], Vec::new(), Vec::new());
        let mut max_deg = 0u64;
        for r in 0..a.rows() {
            let (c, v) = match pending.get(&r) {
                Some((c, v)) => (c.as_slice(), v.as_slice()),
                None => a.row(r),
            };
            max_deg = max_deg.max(c.len() as u64);
            col_idx.extend_from_slice(c);
            vals.extend_from_slice(v);
            row_ptr.push(col_idx.len());
        }
        let nnz_delta = col_idx.len() as i64 - a.nnz() as i64;
        (
            Csr::from_raw(a.rows(), a.cols(), row_ptr, col_idx, vals),
            CsrDeltaInfo {
                touched_rows,
                degree_changes,
                new_max_degree: max_deg,
                nnz_delta,
                commit: commit.finish(),
            },
        )
    }

    /// A script of `ops` random row ops on an `n`-row square matrix,
    /// drawn from `seed`: replacements with random sorted patterns (empty
    /// ones included) and scalings, on rows that repeat, including the
    /// first and last.
    fn random_script(n: usize, ops: usize, seed: u64) -> CsrDelta {
        let mut x = seed | 1;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        let ops = (0..ops)
            .map(|_| {
                let row = match next(4) {
                    0 => 0,
                    1 => n - 1,
                    _ => next(n),
                };
                if next(3) == 0 {
                    RowOp::Scale {
                        row,
                        factor: 0.5 + next(8) as f64,
                    }
                } else {
                    let mut cols: Vec<u32> = (0..next(12)).map(|_| next(n) as u32).collect();
                    cols.sort_unstable();
                    cols.dedup();
                    let vals = cols.iter().map(|&c| f64::from(c) + 0.25).collect();
                    RowOp::Replace { row, cols, vals }
                }
            })
            .collect();
        CsrDelta { ops }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bulk_apply_equals_row_by_row_rebuild(
            n in 1usize..300,
            deg in 1usize..9,
            ops in 0usize..40,
            seed in any::<u64>(),
        ) {
            let a = gen::power_law(n, deg, 2.1, seed);
            let delta = random_script(n, ops, seed);
            prop_assert_eq!(delta.apply(&a), apply_row_by_row(&delta, &a));
        }
    }

    #[test]
    fn empty_delta_is_identity_with_distinct_commit() {
        let a = gen::uniform_random(50, 4, 1);
        let (b, info) = CsrDelta::default().apply(&a);
        assert_eq!(a, b);
        assert!(info.touched_rows.is_empty());
        assert_eq!(info.nnz_delta, 0);
        assert_eq!(info.commit, Digest::default().finish());
    }

    #[test]
    fn replace_changes_pattern_and_reports_degrees() {
        let a = gen::uniform_random(50, 4, 1);
        let old = a.row_nnz(7) as u64;
        let delta = CsrDelta::replace(7, vec![0, 3, 9, 20, 44], vec![1.0; 5]);
        let (b, info) = delta.apply(&a);
        assert_eq!(b.row_nnz(7), 5);
        assert_eq!(info.touched_rows, vec![7]);
        assert_eq!(info.degree_changes, vec![(old, 5)]);
        assert_eq!(info.nnz_delta, 5 - old as i64);
        assert_eq!(
            info.new_max_degree,
            b.row_nnz_vector().iter().copied().max().unwrap()
        );
        // Untouched rows are preserved verbatim.
        assert_eq!(a.row(8), b.row(8));
    }

    #[test]
    fn scale_preserves_pattern_and_scales_values() {
        let a = gen::uniform_random(30, 5, 2);
        let delta = CsrDelta {
            ops: vec![RowOp::Scale {
                row: 3,
                factor: 2.0,
            }],
        };
        let (b, info) = delta.apply(&a);
        assert_eq!(a.row(3).0, b.row(3).0);
        for (x, y) in a.row(3).1.iter().zip(b.row(3).1) {
            assert_eq!(x * 2.0, *y);
        }
        assert_eq!(
            info.degree_changes,
            vec![(a.row_nnz(3) as u64, a.row_nnz(3) as u64)]
        );
        assert_eq!(info.nnz_delta, 0);
    }

    #[test]
    fn ops_compose_in_script_order() {
        let a = gen::uniform_random(30, 5, 2);
        let delta = CsrDelta {
            ops: vec![
                RowOp::Replace {
                    row: 4,
                    cols: vec![1, 2],
                    vals: vec![3.0, 5.0],
                },
                RowOp::Scale {
                    row: 4,
                    factor: 10.0,
                },
            ],
        };
        let (b, _) = delta.apply(&a);
        assert_eq!(b.row(4), (&[1u32, 2][..], &[30.0, 50.0][..]));
    }

    #[test]
    fn commit_is_order_sensitive() {
        let a = gen::uniform_random(30, 5, 2);
        let d1 = CsrDelta {
            ops: vec![
                RowOp::Scale {
                    row: 1,
                    factor: 2.0,
                },
                RowOp::Scale {
                    row: 2,
                    factor: 3.0,
                },
            ],
        };
        let d2 = CsrDelta {
            ops: vec![
                RowOp::Scale {
                    row: 2,
                    factor: 3.0,
                },
                RowOp::Scale {
                    row: 1,
                    factor: 2.0,
                },
            ],
        };
        assert_ne!(d1.apply(&a).1.commit, d2.apply(&a).1.commit);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_replacement_rejected() {
        let a = gen::uniform_random(10, 3, 1);
        let _ = CsrDelta::replace(0, vec![5, 2], vec![1.0, 1.0]).apply(&a);
    }
}
