//! Batched edge insertions/deletions on CSR graphs: the graph half of the
//! drift pipeline.
//!
//! A [`GraphDelta`] carries an insert list and a delete list of undirected
//! edges. [`GraphDelta::apply`] merges them into the adjacency with one
//! compacting O(n + m + |delta| log |delta|) pass — inserts land first,
//! then deletes, so an edge named in both lists ends up deleted — and
//! reports a [`GraphDeltaInfo`]: touched vertices, per-vertex degree
//! changes, and an order-sensitive commitment to the delta. Duplicate
//! inserts of existing edges and deletes of absent edges are no-ops (but
//! still committed: the digest chain tracks the *script*, not its effect).

use nbwp_sim::Digest;

use crate::Graph;

/// A batch of undirected edge insertions and deletions. `(u, v)` and
/// `(v, u)` name the same edge; self-loops are ignored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Edges to insert (no-op when already present).
    pub insert: Vec<(u32, u32)>,
    /// Edges to delete, applied after the inserts (no-op when absent).
    pub delete: Vec<(u32, u32)>,
}

/// What a [`GraphDelta::apply`] did, in the shape the O(|delta|)
/// fingerprint and curve patches consume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphDeltaInfo {
    /// Vertices incident to any named edge, sorted and deduplicated.
    pub touched: Vec<usize>,
    /// `(old degree, new degree)` per entry of `touched` (equal for
    /// vertices only named by no-op edges).
    pub degree_changes: Vec<(u64, u64)>,
    /// Maximum degree of the mutated graph.
    pub new_max_degree: u64,
    /// Change in directed arc count (`new arcs − old arcs`, always even).
    pub arcs_delta: i64,
    /// Order-sensitive [`Digest`] commitment to the delta (insert list then
    /// delete list, as given). Mixing this into a fingerprint digest makes
    /// drifted-digest equality well-defined over (base, delta chain).
    pub commit: u64,
}

impl GraphDelta {
    /// A delta inserting the given edges.
    #[must_use]
    pub fn inserts(edges: Vec<(u32, u32)>) -> Self {
        GraphDelta {
            insert: edges,
            delete: Vec::new(),
        }
    }

    /// A delta deleting the given edges.
    #[must_use]
    pub fn deletes(edges: Vec<(u32, u32)>) -> Self {
        GraphDelta {
            insert: Vec::new(),
            delete: edges,
        }
    }

    /// True when both lists are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    /// Applies the batch with one compacting adjacency merge, returning
    /// the mutated graph and the [`GraphDeltaInfo`] describing what
    /// changed. The input is untouched (persistent-style update).
    ///
    /// # Panics
    /// Panics if an endpoint is `>= g.n()`.
    #[must_use]
    pub fn apply(&self, g: &Graph) -> (Graph, GraphDeltaInfo) {
        let n = g.n();
        let mut commit = Digest::default();
        // Directed arc lists for the merge: every named edge contributes
        // both directions; sort + dedup gives per-vertex sorted runs.
        let mut ins = Vec::with_capacity(self.insert.len() * 2);
        for &(u, v) in &self.insert {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "insert ({u}, {v}) out of bounds"
            );
            commit.words([1, u64::from(u), u64::from(v)]);
            if u != v {
                ins.push((u, v));
                ins.push((v, u));
            }
        }
        let mut del = Vec::with_capacity(self.delete.len() * 2);
        for &(u, v) in &self.delete {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "delete ({u}, {v}) out of bounds"
            );
            commit.words([2, u64::from(u), u64::from(v)]);
            if u != v {
                del.push((u, v));
                del.push((v, u));
            }
        }
        ins.sort_unstable();
        ins.dedup();
        del.sort_unstable();
        del.dedup();

        let mut touched: Vec<usize> = ins.iter().chain(&del).map(|&(u, _)| u as usize).collect();
        touched.sort_unstable();
        touched.dedup();

        // Per-vertex three-way merge for touched vertices: (existing ∪
        // inserts) \ deletes, all three runs sorted. The untouched vertices
        // between two touched ones are copied as one run.
        let mut adj_ptr = Vec::with_capacity(n + 1);
        adj_ptr.push(0usize);
        let mut adj = Vec::with_capacity(g.arcs());
        let (mut ins, mut del) = (ins.as_slice(), del.as_slice());
        let mut copied = 0usize;
        for &v in &touched {
            copy_vertices(g, copied, v, &mut adj_ptr, &mut adj);
            let vu = v as u32;
            let ins_run = take_run(&mut ins, vu);
            let del_run = take_run(&mut del, vu);
            let nbrs = g.neighbors(v);
            let (mut a, mut b, mut d) = (0usize, 0usize, 0usize);
            loop {
                let next = match (nbrs.get(a), ins_run.get(b)) {
                    (Some(&x), Some(&(_, y))) => {
                        if x <= y {
                            if x == y {
                                b += 1;
                            }
                            a += 1;
                            x
                        } else {
                            b += 1;
                            y
                        }
                    }
                    (Some(&x), None) => {
                        a += 1;
                        x
                    }
                    (None, Some(&(_, y))) => {
                        b += 1;
                        y
                    }
                    (None, None) => break,
                };
                while d < del_run.len() && del_run[d].1 < next {
                    d += 1;
                }
                if d < del_run.len() && del_run[d].1 == next {
                    continue;
                }
                adj.push(next);
            }
            adj_ptr.push(adj.len());
            copied = v + 1;
        }
        copy_vertices(g, copied, n, &mut adj_ptr, &mut adj);
        let max_deg = adj_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0) as u64;

        let degree_changes: Vec<(u64, u64)> = touched
            .iter()
            .map(|&v| (g.degree(v) as u64, (adj_ptr[v + 1] - adj_ptr[v]) as u64))
            .collect();
        let arcs_delta = adj.len() as i64 - g.arcs() as i64;
        let out = Graph::from_sorted_parts(n, adj_ptr, adj);
        (
            out,
            GraphDeltaInfo {
                touched,
                degree_changes,
                new_max_degree: max_deg,
                arcs_delta,
                commit: commit.finish(),
            },
        )
    }
}

/// Splits off the leading arcs of the sorted arc list `arcs` that leave
/// vertex `v`.
fn take_run<'a>(arcs: &mut &'a [(u32, u32)], v: u32) -> &'a [(u32, u32)] {
    let len = arcs.iter().take_while(|&&(u, _)| u == v).count();
    let (run, rest) = arcs.split_at(len);
    *arcs = rest;
    run
}

/// Appends the adjacency of vertices `lo..hi` of `g` unchanged: one slice
/// copy and a shifted run of offsets.
fn copy_vertices(g: &Graph, lo: usize, hi: usize, adj_ptr: &mut Vec<usize>, adj: &mut Vec<u32>) {
    let (start, end) = (g.adj_ptr()[lo], g.adj_ptr()[hi]);
    let base = adj.len();
    adj_ptr.extend(g.adj_ptr()[lo + 1..=hi].iter().map(|&p| p - start + base));
    adj.extend_from_slice(&g.adj()[start..end]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;

    /// A vertex-by-vertex rebuild: every vertex's list is rebuilt from
    /// scratch as (existing ∪ inserts) \ deletes, untouched ones included.
    fn apply_vertex_by_vertex(delta: &GraphDelta, g: &Graph) -> (Graph, GraphDeltaInfo) {
        let n = g.n();
        let mut commit = Digest::default();
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        for &(u, v) in &delta.insert {
            commit.words([1, u64::from(u), u64::from(v)]);
            if u != v {
                ins.extend([(u, v), (v, u)]);
            }
        }
        for &(u, v) in &delta.delete {
            commit.words([2, u64::from(u), u64::from(v)]);
            if u != v {
                del.extend([(u, v), (v, u)]);
            }
        }
        ins.sort_unstable();
        ins.dedup();
        del.sort_unstable();
        del.dedup();
        let mut touched: Vec<usize> = ins.iter().chain(&del).map(|&(u, _)| u as usize).collect();
        touched.sort_unstable();
        touched.dedup();
        let (mut adj_ptr, mut adj) = (vec![0usize], Vec::new());
        let mut max_deg = 0u64;
        for v in 0..n {
            let vu = v as u32;
            let start = adj.len();
            let mut merged: Vec<u32> = g.neighbors(v).to_vec();
            merged.extend(ins.iter().filter(|&&(u, _)| u == vu).map(|&(_, w)| w));
            merged.sort_unstable();
            merged.dedup();
            merged.retain(|&w| !del.contains(&(vu, w)));
            adj.extend_from_slice(&merged);
            max_deg = max_deg.max((adj.len() - start) as u64);
            adj_ptr.push(adj.len());
        }
        let degree_changes = touched
            .iter()
            .map(|&v| (g.degree(v) as u64, (adj_ptr[v + 1] - adj_ptr[v]) as u64))
            .collect();
        let arcs_delta = adj.len() as i64 - g.arcs() as i64;
        (
            Graph::from_sorted_parts(n, adj_ptr, adj),
            GraphDeltaInfo {
                touched,
                degree_changes,
                new_max_degree: max_deg,
                arcs_delta,
                commit: commit.finish(),
            },
        )
    }

    /// `m` random vertex pairs of `0..n` drawn from `seed`, with vertex 0
    /// and `n - 1` over-represented and self-loops included.
    fn random_edges(n: usize, m: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 8 {
                0 => 0,
                1 => n as u32 - 1,
                _ => ((x >> 3) % n as u64) as u32,
            }
        };
        (0..m).map(|_| (next(), next())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bulk_apply_equals_vertex_by_vertex_merge(
            n in 1usize..300,
            inserts in 0usize..30,
            deletes in 0usize..30,
            seed in any::<u64>(),
        ) {
            let g = gen::random(n, 4, seed);
            // Deletes mix existing edges with random (mostly absent) pairs.
            let mut delete = random_edges(n, deletes, seed ^ 0x5eed);
            delete.extend(g.edges().step_by(7).take(deletes));
            let delta = GraphDelta {
                insert: random_edges(n, inserts, seed),
                delete,
            };
            prop_assert_eq!(delta.apply(&g), apply_vertex_by_vertex(&delta, &g));
        }
    }

    fn edge_set(g: &Graph) -> Vec<(u32, u32)> {
        g.edges().collect()
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = gen::web(500, 5, 3);
        let (h, info) = GraphDelta::default().apply(&g);
        assert_eq!(g, h);
        assert!(info.touched.is_empty());
        assert_eq!(info.arcs_delta, 0);
    }

    #[test]
    fn insert_and_delete_match_from_edges_rebuild() {
        let g = gen::web(400, 5, 7);
        let delta = GraphDelta {
            insert: vec![(0, 399), (10, 20), (20, 10), (5, 5)],
            delete: vec![(0, 1), (123, 256)],
        };
        let (h, info) = delta.apply(&g);
        // Reference: rebuild from the mutated edge set.
        let mut edges = edge_set(&g);
        edges.push((0, 399));
        edges.push((10, 20));
        edges.retain(|&(u, v)| (u, v) != (0, 1) && (u, v) != (123, 256));
        let reference = Graph::from_edges(400, &edges);
        assert_eq!(h, reference);
        assert!(info.touched.contains(&0) && info.touched.contains(&399));
        assert_eq!(info.arcs_delta, h.arcs() as i64 - g.arcs() as i64);
        assert_eq!(
            info.new_max_degree,
            (0..h.n()).map(|v| h.degree(v) as u64).max().unwrap()
        );
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_noops() {
        let g = gen::web(300, 5, 11);
        let (u, v) = edge_set(&g)[0];
        // Delete target is an edge that does not exist.
        let w = (0..300u32)
            .find(|&w| w != u && !g.neighbors(u as usize).contains(&w))
            .unwrap();
        let delta = GraphDelta {
            insert: vec![(u, v)],
            delete: vec![(u, w)],
        };
        let (h, info) = delta.apply(&g);
        assert_eq!(g, h);
        let i = info.touched.iter().position(|&t| t == u as usize).unwrap();
        assert_eq!(info.degree_changes[i].0, info.degree_changes[i].1);
    }

    #[test]
    fn edge_in_both_lists_ends_up_deleted() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let delta = GraphDelta {
            insert: vec![(2, 3)],
            delete: vec![(2, 3)],
        };
        let (h, _) = delta.apply(&g);
        assert_eq!(h, g);
    }

    #[test]
    fn commit_is_order_sensitive() {
        let g = gen::web(100, 4, 1);
        let a = GraphDelta::inserts(vec![(1, 2), (3, 4)]).apply(&g).1.commit;
        let b = GraphDelta::inserts(vec![(3, 4), (1, 2)]).apply(&g).1.commit;
        assert_ne!(a, b);
    }
}
