//! Hardware-agnostic kernel execution counters.
//!
//! Every algorithm in the substrate crates (SpGEMM, Shiloach–Vishkin, DFS,
//! GEMM, …) reports what it *did* as a [`KernelStats`] record: floating-point
//! operations, integer operations, bytes moved, how many of those bytes were
//! irregular (pointer-chasing / uncoalescable), how many kernel launches and
//! synchronization rounds were needed, and how wide the available parallelism
//! was. Device cost models ([`crate::CpuModel`], [`crate::GpuModel`]) then
//! translate the same counter record into device-specific simulated time.
//!
//! Counters are *additive*: merging the stats of two kernel invocations (or
//! of two halves of a partitioned input) is plain field-wise addition, except
//! for `working_set_bytes` which takes the maximum. This additivity is what
//! makes fast analytic threshold sweeps possible (prefix sums of per-row
//! stats), and it is property-tested in `nbwp-core` against physically
//! executed kernels.

use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// Additive execution counters for one kernel (or a fragment of one).
///
/// ```
/// use nbwp_sim::KernelStats;
/// let a = KernelStats { flops: 10, ..KernelStats::default() };
/// let b = KernelStats { flops: 5, ..KernelStats::default() };
/// assert_eq!((a + b).flops, 15);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Floating-point operations performed.
    pub flops: u64,
    /// Integer / index / control operations performed.
    pub int_ops: u64,
    /// Bytes read from memory (sequential or random alike).
    pub mem_read_bytes: u64,
    /// Bytes written to memory.
    pub mem_write_bytes: u64,
    /// Subset of the bytes above that are irregular: gather/scatter accesses
    /// that a GPU cannot coalesce and a CPU prefetcher cannot hide.
    pub irregular_bytes: u64,
    /// Warp-padded flop count: for SIMD groups of width `W`, the sum over
    /// groups of `W * max(work in group)`. Equals `flops` for perfectly
    /// regular work; grows with per-item work variance (branch divergence).
    pub simd_padded_flops: u64,
    /// Number of device kernel launches (each costs fixed overhead on GPU).
    pub kernel_launches: u64,
    /// Global synchronization rounds (e.g. Shiloach–Vishkin iterations).
    pub sync_rounds: u64,
    /// Atomic read-modify-write operations.
    pub atomic_ops: u64,
    /// Independent parallel work items available (rows, vertices, …);
    /// bounds achievable device occupancy.
    pub parallel_items: u64,
    /// Size of the touched working set in bytes (merged with `max`).
    pub working_set_bytes: u64,
}

impl KernelStats {
    /// An empty counter record.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another record into this one (additive; working set by max).
    pub fn merge(&mut self, other: &KernelStats) {
        self.flops += other.flops;
        self.int_ops += other.int_ops;
        self.mem_read_bytes += other.mem_read_bytes;
        self.mem_write_bytes += other.mem_write_bytes;
        self.irregular_bytes += other.irregular_bytes;
        self.simd_padded_flops += other.simd_padded_flops;
        self.kernel_launches += other.kernel_launches;
        self.sync_rounds += other.sync_rounds;
        self.atomic_ops += other.atomic_ops;
        self.parallel_items += other.parallel_items;
        self.working_set_bytes = self.working_set_bytes.max(other.working_set_bytes);
    }

    /// Total bytes moved (reads + writes).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.mem_read_bytes + self.mem_write_bytes
    }

    /// Total operation count (flops + integer ops).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.flops + self.int_ops
    }

    /// Arithmetic intensity: operations per byte moved (`total_ops /
    /// total_bytes`), the roofline-model x-axis. Returns `0.0` when no
    /// bytes were moved — a kernel that touches no memory has no meaningful
    /// intensity, and callers plotting rooflines treat it as off-chart.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.total_bytes();
        if bytes == 0 {
            return 0.0;
        }
        self.total_ops() as f64 / bytes as f64
    }

    /// True when no work at all was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_ops() == 0 && self.total_bytes() == 0 && self.kernel_launches == 0
    }

    /// Scales every additive counter by `factor` (working set included:
    /// a half-sized run also touches roughly half the memory). Used by
    /// analytic models when replaying a measured profile at another size.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> KernelStats {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        let s = |v: u64| -> u64 {
            let x = v as f64 * factor;
            // Round to nearest; counters are approximations at this point.
            x.round() as u64
        };
        KernelStats {
            flops: s(self.flops),
            int_ops: s(self.int_ops),
            mem_read_bytes: s(self.mem_read_bytes),
            mem_write_bytes: s(self.mem_write_bytes),
            irregular_bytes: s(self.irregular_bytes),
            simd_padded_flops: s(self.simd_padded_flops),
            kernel_launches: self.kernel_launches, // launches don't scale with size
            sync_rounds: self.sync_rounds,
            atomic_ops: s(self.atomic_ops),
            parallel_items: s(self.parallel_items),
            working_set_bytes: s(self.working_set_bytes),
        }
    }
}

impl Add for KernelStats {
    type Output = KernelStats;
    fn add(self, rhs: KernelStats) -> KernelStats {
        let mut out = self;
        out.merge(&rhs);
        out
    }
}

impl AddAssign for KernelStats {
    fn add_assign(&mut self, rhs: KernelStats) {
        self.merge(&rhs);
    }
}

impl std::iter::Sum for KernelStats {
    fn sum<I: Iterator<Item = KernelStats>>(iter: I) -> KernelStats {
        iter.fold(KernelStats::default(), Add::add)
    }
}

/// Computes the warp-padded flop count for a sequence of per-item work
/// amounts executed in SIMD groups of `warp` lanes.
///
/// Items are assigned to warps in order; each warp takes as long as its
/// slowest lane, so its effective cost is `warp * max(work)`. The returned
/// value is always `>= work.iter().sum()` and equals it when all items in
/// each group carry identical work.
#[must_use]
pub fn warp_padded_cost(work: &[u64], warp: usize) -> u64 {
    assert!(warp > 0, "warp width must be positive");
    work.chunks(warp)
        .map(|chunk| {
            let max = chunk.iter().copied().max().unwrap_or(0);
            max * warp as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelStats {
        KernelStats {
            flops: 100,
            int_ops: 50,
            mem_read_bytes: 800,
            mem_write_bytes: 400,
            irregular_bytes: 200,
            simd_padded_flops: 160,
            kernel_launches: 2,
            sync_rounds: 3,
            atomic_ops: 10,
            parallel_items: 32,
            working_set_bytes: 4096,
        }
    }

    #[test]
    fn merge_is_fieldwise_addition_with_max_working_set() {
        let mut a = sample();
        let mut b = sample();
        b.working_set_bytes = 128;
        a.merge(&b);
        assert_eq!(a.flops, 200);
        assert_eq!(a.int_ops, 100);
        assert_eq!(a.mem_read_bytes, 1600);
        assert_eq!(a.kernel_launches, 4);
        assert_eq!(a.sync_rounds, 6);
        assert_eq!(a.atomic_ops, 20);
        assert_eq!(a.parallel_items, 64);
        assert_eq!(a.working_set_bytes, 4096, "working set merges by max");
    }

    #[test]
    fn add_and_sum_agree_with_merge() {
        let a = sample();
        let b = sample();
        let via_add = a + b;
        let via_sum: KernelStats = [a, b].into_iter().sum();
        assert_eq!(via_add, via_sum);
    }

    #[test]
    fn totals() {
        let s = sample();
        assert_eq!(s.total_bytes(), 1200);
        assert_eq!(s.total_ops(), 150);
        assert!(!s.is_empty());
        assert!(KernelStats::default().is_empty());
    }

    #[test]
    fn arithmetic_intensity_is_ops_per_byte() {
        let s = sample();
        // 150 ops over 1200 bytes.
        assert!((s.arithmetic_intensity() - 150.0 / 1200.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_intensity_guards_zero_bytes() {
        let s = KernelStats {
            flops: 1000,
            ..KernelStats::default()
        };
        assert_eq!(s.arithmetic_intensity(), 0.0);
        assert_eq!(KernelStats::default().arithmetic_intensity(), 0.0);
    }

    #[test]
    fn scaling_halves_work_but_not_launches() {
        let s = sample().scaled(0.5);
        assert_eq!(s.flops, 50);
        assert_eq!(s.mem_read_bytes, 400);
        assert_eq!(s.kernel_launches, 2, "fixed overheads don't scale");
        assert_eq!(s.sync_rounds, 3);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn scaling_rejects_negative() {
        let _ = sample().scaled(-1.0);
    }

    #[test]
    fn warp_padding_regular_work_has_no_overhead() {
        let work = vec![7u64; 64];
        assert_eq!(warp_padded_cost(&work, 32), 7 * 64);
    }

    #[test]
    fn warp_padding_divergent_work_pays_for_max_lane() {
        // One heavy lane in a warp of 32 makes the whole warp pay its cost.
        let mut work = vec![1u64; 32];
        work[5] = 100;
        assert_eq!(warp_padded_cost(&work, 32), 100 * 32);
    }

    #[test]
    fn warp_padding_partial_last_warp_still_pads_to_full_width() {
        let work = vec![4u64; 40]; // 32 + 8 stragglers
        assert_eq!(warp_padded_cost(&work, 32), 4 * 32 + 4 * 32);
    }

    #[test]
    fn warp_padding_empty() {
        assert_eq!(warp_padded_cost(&[], 32), 0);
    }
}
