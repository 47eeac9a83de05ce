//! Fingerprint contracts that outlive any particular digest function.
//!
//! * **Statistics pins.** Every `Fingerprint` field except `digest`, and
//!   the near key built from them, is pinned as a literal for one input
//!   per benchmark family, one dense GEMM and two empty inputs. Near keys
//!   and warm hints hang off these statistics, so they must stay bitwise
//!   fixed whatever computes them. Floats are pinned as bit patterns.
//! * **Digest identity.** On random graphs and matrices, every structural
//!   edit moves the content digest — one edge inserted or deleted, one
//!   column index changed, two differing rows swapped, a non-identity
//!   column relabelling — while the same structure built another way
//!   (shuffled edge list, different numeric values) keeps it. Delta
//!   commits are functions of the script: equal scripts commit equally,
//!   and swapping two different ops moves the commit.

use nbwp_core::prelude::*;
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::gen as ggen;
use nbwp_graph::Graph;
use nbwp_sparse::delta::{CsrDelta, RowOp};
use nbwp_sparse::gen as sgen;
use nbwp_sparse::Csr;
use proptest::prelude::*;

fn platform() -> Platform {
    Platform::k40c_xeon_e5_2650()
}

/// Every fingerprint field but `digest` (floats as bit patterns, the
/// histogram as its non-empty `(bucket, count)` pairs) plus the near key.
fn stats(fp: &Fingerprint) -> String {
    let hist: Vec<(usize, u64)> = fp
        .log2_hist
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect();
    format!(
        "{} n={} m={} mean={:#018x} cv={:#018x} max={} sq={} density={:?} hist={:?} near={:?}",
        fp.kind,
        fp.n,
        fp.m,
        fp.mean_degree.to_bits(),
        fp.degree_cv.to_bits(),
        fp.max_degree,
        fp.degree_sq_sum,
        fp.density_class,
        hist,
        fp.near_key(),
    )
}

#[test]
fn sketch_statistics_are_pinned() {
    let p = platform();
    let fingerprints = [
        CcWorkload::new(ggen::web(10_000, 6, 1), p).fingerprint(),
        CcWorkload::new(ggen::road(10_000, 1), p).fingerprint(),
        SpmmWorkload::new(sgen::banded_fem(10_000, 16, 7, 1), p).fingerprint(),
        HhWorkload::new(sgen::power_law(10_000, 8, 2.2, 1), p).fingerprint(),
        DenseGemmWorkload::new(1024, p).fingerprint(),
        CcWorkload::new(Graph::from_edges(0, &[]), p).fingerprint(),
        SpmmWorkload::new(Csr::zero(10, 10), p).fingerprint(),
    ];
    let pins = [
        r#"cc n=10000 m=119046 mean=0x4027cf27bb2fec57 cv=0x3ff86db83b141e14 max=231 sq=4720788 density=Moderate hist=[(2, 15), (3, 1836), (4, 7755), (5, 294), (8, 100)] near=NearKey { kind: "cc", log2_n: 14, log2_m: 17, cv_q: 6, density: Moderate }"#,
        r#"cc n=10000 m=25832 mean=0x4004aa64c2f837b5 cv=0x3fd0030b453e769f max=4 sq=70906 density=Sparse hist=[(1, 12), (2, 9127), (3, 861)] near=NearKey { kind: "cc", log2_n: 14, log2_m: 15, cv_q: 1, density: Sparse }"#,
        r#"spmm n=10000 m=66106 mean=0x401a7141205bc01a cv=0x3fd4c59d702a82aa max=18 sq=483034 density=Sparse hist=[(1, 4), (2, 609), (3, 6128), (4, 3257), (5, 2)] near=NearKey { kind: "spmm", log2_n: 14, log2_m: 17, cv_q: 1, density: Sparse }"#,
        r#"hh n=10000 m=76398 mean=0x401e8f27bb2fec57 cv=0x402301bc311f5912 max=5202 sq=53297060 density=Sparse hist=[(1, 388), (2, 6119), (3, 2046), (4, 855), (5, 336), (6, 154), (7, 56), (8, 21), (9, 19), (11, 3), (12, 2), (13, 1)] near=NearKey { kind: "hh", log2_n: 14, log2_m: 17, cv_q: 38, density: Sparse }"#,
        r#"dense_gemm n=1024 m=1048576 mean=0x4090000000000000 cv=0x0000000000000000 max=1024 sq=1073741824 density=Dense hist=[(11, 1024)] near=NearKey { kind: "dense_gemm", log2_n: 10, log2_m: 20, cv_q: 0, density: Dense }"#,
        r#"cc n=0 m=0 mean=0x0000000000000000 cv=0x0000000000000000 max=0 sq=0 density=Sparse hist=[] near=NearKey { kind: "cc", log2_n: 0, log2_m: 0, cv_q: 0, density: Sparse }"#,
        r#"spmm n=10 m=0 mean=0x0000000000000000 cv=0x0000000000000000 max=0 sq=0 density=Sparse hist=[(0, 10)] near=NearKey { kind: "spmm", log2_n: 4, log2_m: 0, cv_q: 0, density: Sparse }"#,
    ];
    for (fp, pin) in fingerprints.iter().zip(pins) {
        assert_eq!(stats(fp), pin);
    }
}

fn graph_digest(g: Graph) -> u64 {
    CcWorkload::new(g, platform()).fingerprint().digest
}

fn matrix_digest(m: Csr) -> u64 {
    SpmmWorkload::new(m, platform()).fingerprint().digest
}

/// Square matrix from per-row column lists (sorted and deduplicated here),
/// every stored value `value`.
fn matrix(rows: &[Vec<u32>], value: f64) -> Csr {
    let n = rows.len();
    let mut ptr = vec![0usize];
    let mut idx = Vec::new();
    for cols in rows {
        let mut cols: Vec<u32> = cols.iter().map(|&c| c % n as u32).collect();
        cols.sort_unstable();
        cols.dedup();
        idx.extend_from_slice(&cols);
        ptr.push(idx.len());
    }
    let vals = vec![value; idx.len()];
    Csr::try_new(n, n, ptr, idx, vals).expect("valid CSR")
}

fn pattern(m: &Csr) -> Vec<Vec<u32>> {
    (0..m.rows()).map(|r| m.row(r).0.to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Graphs: one inserted or one deleted edge moves the digest; the
    /// same edge set in another order and orientation keeps it.
    #[test]
    fn graph_digest_tracks_edges(
        n in 3usize..60,
        raw in proptest::collection::vec((0u32..60, 0u32..60), 1..80),
        extra in (0u32..60, 0u32..60),
        pick in 0usize..80,
        rot in 0usize..80,
    ) {
        let n32 = n as u32;
        let edges: Vec<(u32, u32)> = raw.iter().map(|&(u, v)| (u % n32, v % n32)).collect();
        let g = Graph::from_edges(n, &edges);
        let base = graph_digest(g.clone());

        // Same structure another way: rotated list, every edge reversed.
        let mut shuffled: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (v, u)).collect();
        let len = shuffled.len();
        shuffled.rotate_left(rot % len);
        prop_assert_eq!(graph_digest(Graph::from_edges(n, &shuffled)), base);

        let (u, v) = (extra.0 % n32, extra.1 % n32);
        if u != v && !g.neighbors(u as usize).contains(&v) {
            let mut more = edges.clone();
            more.push((u, v));
            prop_assert_ne!(graph_digest(Graph::from_edges(n, &more)), base);
        }
        let present: Vec<(u32, u32)> = g.edges().collect();
        if !present.is_empty() {
            let gone = present[pick % present.len()];
            let fewer: Vec<(u32, u32)> = present.iter().copied().filter(|&e| e != gone).collect();
            prop_assert_ne!(graph_digest(Graph::from_edges(n, &fewer)), base);
        }
    }

    /// Matrices: a changed column index, a swap of two rows with
    /// different patterns and a non-identity column relabelling each move
    /// the digest; rebuilding the pattern with other values keeps it.
    #[test]
    fn matrix_digest_tracks_pattern(
        rows in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..8), 2..40),
        pick in (0usize..40, 0usize..8, 0u32..40),
        swap in (0usize..40, 0usize..40),
        shift in 1u32..40,
    ) {
        let n = rows.len();
        let a = matrix(&rows, 1.0);
        let base = matrix_digest(a.clone());
        let pat = pattern(&a);
        prop_assert_eq!(matrix_digest(matrix(&pat, -2.5)), base);

        // One column index changed: move entry `j` of row `r` to a column
        // the row does not hold yet.
        let (r, j, c) = (pick.0 % n, pick.1, pick.2 % n as u32);
        if !pat[r].is_empty() && !pat[r].contains(&c) {
            let mut edited = pat.clone();
            let j = j % edited[r].len();
            edited[r][j] = c;
            prop_assert_ne!(matrix_digest(matrix(&edited, 1.0)), base);
        }

        // Two rows with different patterns swapped.
        let (x, y) = (swap.0 % n, swap.1 % n);
        if pat[x] != pat[y] {
            let mut swapped = pat.clone();
            swapped.swap(x, y);
            prop_assert_ne!(matrix_digest(matrix(&swapped, 1.0)), base);
        }

        // Column relabelling c -> (c + shift) mod n; it moves the digest
        // whenever it moves the pattern.
        let relabelled: Vec<Vec<u32>> = pat
            .iter()
            .map(|cols| cols.iter().map(|&c| (c + shift) % n as u32).collect())
            .collect();
        let moved = matrix(&relabelled, 1.0);
        if pattern(&moved) != pat {
            prop_assert_ne!(matrix_digest(moved), base);
        }
    }

    /// Delta commits: equal scripts commit equally; swapping two different
    /// ops moves the commit, for graph and matrix scripts alike.
    #[test]
    fn delta_commits_follow_the_script(
        n in 4usize..50,
        seed in 0u64..500,
        e1 in (0u32..50, 0u32..50),
        e2 in (0u32..50, 0u32..50),
        r1 in 0usize..50,
        r2 in 0usize..50,
        cols in proptest::collection::vec(0u32..50, 0..6),
        factor in 1u32..9,
    ) {
        let n32 = n as u32;
        let g = ggen::random(n, 3, seed);
        let (e1, e2) = ((e1.0 % n32, e1.1 % n32), (e2.0 % n32, e2.1 % n32));
        let d = GraphDelta { insert: vec![e1, e2], delete: vec![e2] };
        let commit = d.apply(&g).1.commit;
        prop_assert_eq!(d.clone().apply(&g).1.commit, commit);
        if e1 != e2 {
            let swapped = GraphDelta { insert: vec![e2, e1], delete: vec![e2] };
            prop_assert_ne!(swapped.apply(&g).1.commit, commit);
        }

        let a = sgen::uniform_random(n, 3, seed);
        let mut cols: Vec<u32> = cols.iter().map(|&c| c % n32).collect();
        cols.sort_unstable();
        cols.dedup();
        let vals = vec![1.0; cols.len()];
        let ops = vec![
            RowOp::Replace { row: r1 % n, cols, vals },
            RowOp::Scale { row: r2 % n, factor: f64::from(factor) },
        ];
        let script = CsrDelta { ops: ops.clone() };
        let commit = script.apply(&a).1.commit;
        prop_assert_eq!(script.clone().apply(&a).1.commit, commit);
        let swapped = CsrDelta { ops: vec![ops[1].clone(), ops[0].clone()] };
        prop_assert_ne!(swapped.apply(&a).1.commit, commit);
    }
}
