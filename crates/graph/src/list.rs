//! Hybrid list ranking — the *other* algorithm of the paper's citation \[5\]
//! (Banerjee & Kothapalli, "Hybrid Algorithms for List Ranking and Graph
//! Connected Components", HiPC 2011), included as a fifth partitioned
//! workload.
//!
//! List ranking computes, for every node of a linked list, its distance to
//! the tail. The hybrid algorithm uses a *sparse ruling set*: choose `s`
//! splitter nodes; the CPU walks the sublists between consecutive splitters
//! (embarrassingly parallel over sublists, sequential pointer chasing
//! within each), producing a *reduced list* over the splitters that the GPU
//! ranks with Wyllie's pointer jumping (log s synchronous rounds); local
//! ranks and splitter prefixes then combine in one parallel pass.
//!
//! The threshold is the **splitter fraction**: more splitters mean shorter
//! sublist chains (less serial CPU work) but a larger reduced list (more
//! GPU rounds and launches) — an interior optimum that depends on the
//! input's structure (number of independent lists, length skew).

use nbwp_sim::{percent_split, BandWork, KernelStats, Platform, RunReport};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A collection of disjoint linked lists over nodes `0..n`.
///
/// `succ[v]` is the successor of `v`, or `v` itself for a tail node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkedLists {
    succ: Vec<u32>,
    heads: Vec<u32>,
}

impl LinkedLists {
    /// Builds from a successor array (tails point to themselves).
    ///
    /// # Panics
    /// Panics if the structure is not a union of disjoint simple lists
    /// (every node must have in-degree ≤ 1 and reach a tail).
    #[must_use]
    pub fn from_succ(succ: Vec<u32>) -> Self {
        let n = succ.len();
        let mut indegree = vec![0u8; n];
        for (v, &s) in succ.iter().enumerate() {
            assert!((s as usize) < n, "successor out of bounds");
            if s as usize != v {
                indegree[s as usize] += 1;
                assert!(indegree[s as usize] <= 1, "node {s} has two predecessors");
            }
        }
        let heads: Vec<u32> = (0..n as u32)
            .filter(|&v| indegree[v as usize] == 0)
            .collect();
        // Cycle check: total nodes reachable from heads must be n.
        let mut seen = 0usize;
        for &h in &heads {
            let mut v = h;
            loop {
                seen += 1;
                assert!(seen <= n, "successor array contains a cycle");
                let s = succ[v as usize];
                if s == v {
                    break;
                }
                v = s;
            }
        }
        assert_eq!(seen, n, "successor array contains a cycle");
        LinkedLists { succ, heads }
    }

    /// Generates `lists` disjoint random lists over `n` nodes with random
    /// node numbering (the adversarial layout for pointer chasing).
    ///
    /// # Panics
    /// Panics if `lists == 0` or `lists > n`.
    #[must_use]
    pub fn random(n: usize, lists: usize, seed: u64) -> Self {
        assert!(lists > 0 && lists <= n, "invalid list count");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let mut succ: Vec<u32> = (0..n as u32).collect();
        // Cut the shuffled order into `lists` contiguous chains.
        let chunk = n.div_ceil(lists);
        for c in order.chunks(chunk) {
            for w in c.windows(2) {
                succ[w[0] as usize] = w[1];
            }
            // Tail points to itself (already the default).
        }
        LinkedLists::from_succ(succ)
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.succ.len()
    }

    /// Number of independent lists.
    #[must_use]
    pub fn lists(&self) -> usize {
        self.heads.len()
    }

    /// The successor array.
    #[must_use]
    pub fn succ(&self) -> &[u32] {
        &self.succ
    }

    /// List heads.
    #[must_use]
    pub fn heads(&self) -> &[u32] {
        &self.heads
    }

    /// Sequential ranking oracle: distance to tail per node (O(n) chase).
    #[must_use]
    pub fn rank_sequential(&self) -> Vec<u64> {
        let n = self.n();
        let mut rank = vec![0u64; n];
        for &h in &self.heads {
            // Walk to collect the chain, then assign from the tail.
            let mut chain = Vec::new();
            let mut v = h;
            loop {
                chain.push(v);
                let s = self.succ[v as usize];
                if s == v {
                    break;
                }
                v = s;
            }
            for (i, &node) in chain.iter().enumerate() {
                rank[node as usize] = (chain.len() - 1 - i) as u64;
            }
        }
        rank
    }
}

/// Outcome of one hybrid list-ranking run.
#[derive(Clone, Debug)]
pub struct HybridRankOutcome {
    /// Distance to tail per node.
    pub ranks: Vec<u64>,
    /// Timing + counters.
    pub report: RunReport,
    /// Wyllie pointer-jumping rounds on the reduced list.
    pub wyllie_rounds: u32,
    /// Splitters used (reduced-list size).
    pub splitters: usize,
}

/// Runs hybrid list ranking with `t_pct`% of the nodes chosen as splitters
/// (uniformly, deterministically in `seed`; list heads are always
/// splitters): [`hybrid_rank_units`] at
/// [`percent_split`]`(lists.n(), t_pct)`.
///
/// ```
/// use nbwp_graph::list::{hybrid_rank, LinkedLists};
/// use nbwp_sim::Platform;
/// let l = LinkedLists::random(500, 2, 9);
/// let out = hybrid_rank(&l, 10.0, &Platform::k40c_xeon_e5_2650(), 7);
/// assert_eq!(out.ranks, l.rank_sequential());
/// ```
///
/// # Panics
/// Panics if `t_pct` is outside `[0, 100]` (NaN included).
#[must_use]
pub fn hybrid_rank(
    lists: &LinkedLists,
    t_pct: f64,
    platform: &Platform,
    seed: u64,
) -> HybridRankOutcome {
    hybrid_rank_units(lists, percent_split(lists.n(), t_pct), platform, seed)
}

/// Runs hybrid list ranking with `want` uniformly drawn splitters
/// (deterministic in `seed`) on top of the list heads.
///
/// # Panics
/// Panics if `want > lists.n()`.
#[must_use]
pub fn hybrid_rank_units(
    lists: &LinkedLists,
    want: usize,
    platform: &Platform,
    seed: u64,
) -> HybridRankOutcome {
    let n = lists.n();
    assert!(want <= n, "{want} splitters out of {n} nodes");
    if n == 0 {
        return HybridRankOutcome {
            ranks: Vec::new(),
            report: RunReport::default(),
            wyllie_rounds: 0,
            splitters: 0,
        };
    }
    // Domain-separate the splitter RNG from whatever seeded the input:
    // reusing one seed verbatim would make this shuffle reproduce the
    // generator's permutation exactly, placing every splitter in the first
    // chain half (one giant serial sublist).
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD6E8_FEB8_6659_FD93);

    // --- Phase I: choose splitters (heads always included).
    let mut is_splitter = vec![false; n];
    for &h in lists.heads() {
        is_splitter[h as usize] = true;
    }
    let mut pool: Vec<u32> = (0..n as u32).collect();
    let (chosen, _) = pool.partial_shuffle(&mut rng, want);
    for &v in chosen.iter() {
        is_splitter[v as usize] = true;
    }
    let splitter_ids: Vec<u32> = (0..n as u32).filter(|&v| is_splitter[v as usize]).collect();
    let s = splitter_ids.len();
    let mut splitter_index = vec![u32::MAX; n];
    for (i, &v) in splitter_ids.iter().enumerate() {
        splitter_index[v as usize] = i as u32;
    }
    let partition_stats = KernelStats {
        int_ops: 2 * n as u64,
        mem_read_bytes: 4 * n as u64,
        mem_write_bytes: n as u64 / 8 + 4 * s as u64,
        parallel_items: platform.cpu.cores as u64,
        working_set_bytes: 8 * n as u64,
        ..KernelStats::default()
    };
    let partition = platform.cpu_time(&partition_stats);

    // --- Phase II (CPU): walk each sublist from its splitter to the next
    // splitter (or tail), recording local offsets and sublist weights.
    let mut local_offset = vec![0u64; n]; // steps from owning splitter
    let mut owner = vec![u32::MAX; n]; // splitter index owning each node
    let mut next_splitter = vec![u32::MAX; s]; // reduced-list successor
    let mut sublist_len = vec![0u64; s];
    let mut chase_steps = 0u64;
    let mut max_sublist = 0u64;
    for (i, &sp) in splitter_ids.iter().enumerate() {
        let mut v = sp;
        let mut off = 0u64;
        loop {
            owner[v as usize] = i as u32;
            local_offset[v as usize] = off;
            let nxt = lists.succ()[v as usize];
            if nxt == v {
                next_splitter[i] = i as u32; // reduced tail
                break;
            }
            if is_splitter[nxt as usize] {
                next_splitter[i] = splitter_index[nxt as usize];
                off += 1;
                break;
            }
            v = nxt;
            off += 1;
            chase_steps += 1;
        }
        sublist_len[i] = off;
        max_sublist = max_sublist.max(off);
    }
    // CPU cost: every chase step is a dependent random access; parallelism
    // is bounded by effective sublist balance (Σ len / max len).
    let total_len: u64 = sublist_len.iter().sum();
    let eff_parallel = if max_sublist == 0 {
        s as u64
    } else {
        (total_len as f64 / max_sublist as f64).round().max(1.0) as u64
    };
    let cpu_stats = KernelStats {
        int_ops: 4 * chase_steps + 2 * s as u64,
        mem_read_bytes: 8 * chase_steps,
        irregular_bytes: 8 * chase_steps,
        mem_write_bytes: 12 * chase_steps,
        parallel_items: eff_parallel,
        working_set_bytes: 16 * n as u64,
        ..KernelStats::default()
    };

    // --- Phase III (GPU): Wyllie pointer jumping on the reduced list.
    // Invariant: a *terminal* node (succ = self) carries its full distance
    // to the list end; a live node's rank is the path weight to its current
    // pointer target. Jumping absorbs the target's rank; absorbing a
    // terminal makes the absorber terminal too, so the loop provably
    // finishes in O(log s) synchronous rounds.
    let mut red_rank: Vec<u64> = sublist_len.clone(); // weight to next splitter
    let mut red_succ = next_splitter.clone();
    let mut rounds = 0u32;
    let mut gpu_stats = KernelStats::new();
    loop {
        let mut changed = false;
        let mut nr = red_rank.clone();
        let mut ns = red_succ.clone();
        for i in 0..s {
            let j = red_succ[i] as usize;
            if j != i {
                nr[i] = red_rank[i] + red_rank[j];
                ns[i] = if red_succ[j] as usize == j {
                    i as u32 // absorbed a terminal: i is now terminal
                } else {
                    red_succ[j]
                };
                changed = true;
            }
        }
        if !changed {
            break;
        }
        red_rank = nr;
        red_succ = ns;
        rounds += 1;
        gpu_stats.kernel_launches += 1;
        gpu_stats.sync_rounds += 1;
        gpu_stats.int_ops += 3 * s as u64;
        gpu_stats.mem_read_bytes += 16 * s as u64;
        gpu_stats.irregular_bytes += 12 * s as u64;
        gpu_stats.mem_write_bytes += 12 * s as u64;
    }
    gpu_stats.parallel_items = s as u64;
    gpu_stats.working_set_bytes = 24 * s as u64;
    // Wyllie computed, for each splitter, its distance to its list's tail.
    let splitter_rank = red_rank;

    // --- Phase IV: broadcast (rank = splitter rank − local offset), GPU.
    let merge_stats = KernelStats {
        int_ops: 2 * n as u64,
        mem_read_bytes: 16 * n as u64,
        irregular_bytes: 8 * n as u64,
        mem_write_bytes: 8 * n as u64,
        kernel_launches: 1,
        parallel_items: n as u64,
        working_set_bytes: 24 * n as u64,
        ..KernelStats::default()
    };
    let merge = platform.gpu_time(&merge_stats);
    let mut ranks = vec![0u64; n];
    for v in 0..n {
        let own = owner[v] as usize;
        ranks[v] = splitter_rank[own] - local_offset[v];
    }

    // Transfers: the reduced list ships to the GPU, ranks ship back.
    let gpu = BandWork {
        stats: gpu_stats,
        bytes_in: 16 * s as u64,
        bytes_out: 8 * n as u64,
    };
    let report = RunReport::two_way(platform, partition, cpu_stats, gpu, merge);
    HybridRankOutcome {
        ranks,
        report,
        wyllie_rounds: rounds,
        splitters: s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::k40c_xeon_e5_2650()
    }

    #[test]
    fn sequential_oracle_on_a_tiny_list() {
        // 3 -> 1 -> 0 -> 2(tail): ranks 3:3? no — distances to tail:
        // 3→0→? Let's build: succ[3]=1, succ[1]=0, succ[0]=2, succ[2]=2.
        let l = LinkedLists::from_succ(vec![2, 0, 2, 1]);
        assert_eq!(l.lists(), 1);
        assert_eq!(l.rank_sequential(), vec![1, 2, 0, 3]);
    }

    #[test]
    fn random_lists_are_well_formed() {
        let l = LinkedLists::random(1000, 4, 7);
        assert_eq!(l.n(), 1000);
        assert_eq!(l.lists(), 4);
        let ranks = l.rank_sequential();
        // Each list contributes one zero-rank tail.
        assert_eq!(ranks.iter().filter(|&&r| r == 0).count(), 4);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_are_rejected() {
        let _ = LinkedLists::from_succ(vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "two predecessors")]
    fn indegree_two_rejected() {
        let _ = LinkedLists::from_succ(vec![2, 2, 2]);
    }

    #[test]
    fn hybrid_matches_oracle_at_every_threshold() {
        let l = LinkedLists::random(5000, 3, 11);
        let oracle = l.rank_sequential();
        for t in [0.0, 1.0, 5.0, 25.0, 60.0, 100.0] {
            let out = hybrid_rank(&l, t, &platform(), 42);
            assert_eq!(out.ranks, oracle, "t = {t}");
        }
    }

    #[test]
    fn more_splitters_mean_more_wyllie_rounds_and_less_chasing() {
        let l = LinkedLists::random(20_000, 1, 13);
        let few = hybrid_rank(&l, 1.0, &platform(), 1);
        let many = hybrid_rank(&l, 50.0, &platform(), 1);
        assert!(many.splitters > few.splitters * 10);
        assert!(many.wyllie_rounds >= few.wyllie_rounds);
        assert!(
            many.report.breakdown.cpu_compute < few.report.breakdown.cpu_compute,
            "more splitters shorten the serial chains"
        );
    }

    #[test]
    fn threshold_zero_still_ranks_via_heads() {
        let l = LinkedLists::random(2000, 5, 17);
        let out = hybrid_rank(&l, 0.0, &platform(), 1);
        assert_eq!(out.ranks, l.rank_sequential());
        assert_eq!(out.splitters, 5, "heads are always splitters");
    }

    #[test]
    fn empty_input() {
        let l = LinkedLists::from_succ(Vec::new());
        let out = hybrid_rank(&l, 50.0, &platform(), 1);
        assert!(out.ranks.is_empty());
    }

    #[test]
    fn run_is_seed_deterministic() {
        let l = LinkedLists::random(3000, 2, 19);
        let a = hybrid_rank(&l, 10.0, &platform(), 5);
        let b = hybrid_rank(&l, 10.0, &platform(), 5);
        assert_eq!(a.ranks, b.ranks);
        assert_eq!(a.report, b.report);
    }
}
