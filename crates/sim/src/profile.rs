//! Per-item cost curves: O(1) pricing of contiguous prefix/suffix splits.
//!
//! A threshold search prices hundreds of candidate splits of the *same*
//! input. Each candidate only moves the boundary between the CPU prefix and
//! the GPU suffix, so every additive counter of the two sides is a
//! difference of prefix sums — computable in O(1) after one O(n) pass over
//! the per-item profile. The two structures here are the substrate for that
//! trick:
//!
//! * [`PrefixCurve`] — inclusive prefix sums of any additive per-item
//!   counter (`u64`, so sums are exact and order-independent);
//! * [`WarpPadCurve`] — the one *non-additive* counter,
//!   [`warp_padded_cost`]: padding depends on how items group into warps,
//!   and a split restarts the grouping on the suffix side. The curve stores
//!   per-warp prefix sums plus a boundary-warp running max (prefix side) and
//!   a warp-stride suffix DP (suffix side), so both
//!   `warp_padded_cost(&work[..s], w)` and `warp_padded_cost(&work[s..], w)`
//!   are reproduced **bitwise** for every split `s` in O(1), and any
//!   interior band `warp_padded_cost(&work[lo..hi], w)` in O(1) plus a
//!   scan of its partial tail warp (fewer than `w` items).
//!
//! Both curves store their arrays in 64-byte-aligned [`AlignedU64s`]
//! buffers drawn from a [`ProfileScratch`] arena, so steady-state rebuilds
//! are allocation-free (see the `scratch` module docs). Each curve fills
//! its arrays in exactly one routine, its span patch: a zeroed buffer set
//! is the curve of an all-zero item vector, and a build patches the whole
//! span `0..n` of it. A build is therefore bitwise a patch by
//! construction, and the patch-equals-rebuild contract only has to be
//! tested on sub-spans.
//!
//! [`warp_padded_cost`]: crate::warp_padded_cost

use crate::scratch::{AlignedU64s, ProfileScratch};

/// Inclusive prefix sums of a per-item `u64` counter; any contiguous range
/// sum is O(1). Sums are exact (no floating point), so a range sum is
/// bitwise identical to summing the slice directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixCurve {
    /// `prefix[i]` = sum of items `0..i`; `prefix[0] == 0`.
    prefix: AlignedU64s,
}

impl PrefixCurve {
    /// Builds the curve in one pass over the per-item values.
    #[must_use]
    pub fn new(items: &[u64]) -> Self {
        PrefixCurve::new_in(items, &mut ProfileScratch::new())
    }

    /// Builds the curve using buffers from `scratch` (allocation-free when
    /// the arena holds a large-enough recycled buffer): a whole-span
    /// [`PrefixCurve::patch_with`] of the zeroed curve.
    #[must_use]
    pub fn new_in(items: &[u64], scratch: &mut ProfileScratch) -> Self {
        let mut curve = PrefixCurve::from_inclusive_prefix(scratch.take(items.len() + 1));
        curve.patch_with(0, items.len(), items.iter().copied());
        curve
    }

    /// Wraps an inclusive prefix array (`len + 1` entries, leading 0)
    /// without copying. A zeroed buffer is the curve of `len` zero items,
    /// which a whole-span patch turns into any curve of that length: the
    /// way fused builders such as `RowCurves` start.
    ///
    /// # Panics
    /// Panics if `prefix` is empty or `prefix[0] != 0`.
    #[must_use]
    pub fn from_inclusive_prefix(prefix: AlignedU64s) -> Self {
        assert!(
            prefix.first() == Some(&0),
            "inclusive prefix must start with a 0 sentinel"
        );
        PrefixCurve { prefix }
    }

    /// Returns the curve's buffer to `scratch` for reuse by a later build.
    pub fn recycle(self, scratch: &mut ProfileScratch) {
        scratch.give(self.prefix);
    }

    /// Number of items the curve was built from.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prefix.len() - 1
    }

    /// True when built from an empty item list.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of items `0..split` (the CPU prefix).
    ///
    /// # Panics
    /// Panics if `split > len`.
    #[must_use]
    pub fn prefix_sum(&self, split: usize) -> u64 {
        self.prefix[split]
    }

    /// Sum of items `split..len` (the GPU suffix).
    ///
    /// # Panics
    /// Panics if `split > len`.
    #[must_use]
    pub fn suffix_sum(&self, split: usize) -> u64 {
        self.total() - self.prefix[split]
    }

    /// Sum of items `lo..hi`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > len`.
    #[must_use]
    pub fn range_sum(&self, lo: usize, hi: usize) -> u64 {
        assert!(lo <= hi, "range lo {lo} > hi {hi}");
        self.prefix[hi] - self.prefix[lo]
    }

    /// Sum of all items.
    #[must_use]
    pub fn total(&self) -> u64 {
        *self.prefix.last().expect("prefix always has a 0 sentinel")
    }

    /// The raw inclusive prefix-sum array: `len() + 1` entries starting at
    /// 0. Useful where an existing API wants a `&[u64]` prefix vector
    /// (e.g. load-balanced split search) without copying.
    #[must_use]
    pub fn as_prefix_slice(&self) -> &[u64] {
        &self.prefix
    }

    /// Rewrites the curve in place after items `lo..hi` changed to the
    /// values `new_items` yields, in O(|span| + shift): the span's prefix
    /// entries are recomputed from `prefix[lo]` and everything past `hi` is
    /// shifted by the span's sum delta. Because every entry is an exact
    /// integer sum, the patched array is **bitwise identical** to
    /// rebuilding from the full mutated item vector (the
    /// patch-equals-rebuild contract).
    ///
    /// # Panics
    /// Panics if `lo > hi`, `hi > len`, or the iterator yields a number of
    /// items different from `hi - lo`.
    pub fn patch_with<I: IntoIterator<Item = u64>>(&mut self, lo: usize, hi: usize, new_items: I) {
        PrefixCurve::patch_fused([self], lo, hi, new_items.into_iter().map(|v| [v]));
    }

    /// [`PrefixCurve::patch_with`] over `K` curves of the same items in one
    /// pass: `rows` yields, per item of the span, its new value on each of
    /// `curves`. Fused callers (`RowCurves`) patch every counter curve from
    /// one scan of their per-item records.
    ///
    /// # Panics
    /// Panics if `lo > hi`, `hi` exceeds any curve's `len`, or `rows`
    /// yields a number of items different from `hi - lo`.
    pub fn patch_fused<const K: usize, I>(
        curves: [&mut PrefixCurve; K],
        lo: usize,
        hi: usize,
        rows: I,
    ) where
        I: IntoIterator<Item = [u64; K]>,
    {
        let mut p = curves.map(|c| {
            assert!(
                lo <= hi && hi <= c.len(),
                "patch span {lo}..{hi} out of bounds"
            );
            c.prefix.as_mut_slice()
        });
        let old_hi = p.each_ref().map(|s| s[hi]);
        let mut acc = p.each_ref().map(|s| s[lo]);
        let mut it = rows.into_iter();
        for i in lo + 1..=hi {
            let row = it.next().expect("patch iterator yielded too few items");
            for ((a, v), s) in acc.iter_mut().zip(row).zip(p.iter_mut()) {
                *a += v;
                s[i] = *a;
            }
        }
        assert!(it.next().is_none(), "patch iterator yielded too many items");
        // Entries past the span are old sums plus the span's delta; wrapping
        // ops keep the (negative-delta) shift panic-free in debug builds
        // while agreeing with the non-overflowing rebuild bit-for-bit.
        for ((s, a), old) in p.iter_mut().zip(acc).zip(old_hi) {
            let delta = a.wrapping_sub(old);
            if delta != 0 {
                for slot in &mut s[hi + 1..] {
                    *slot = slot.wrapping_add(delta);
                }
            }
        }
    }
}

/// O(1) reproduction of [`warp_padded_cost`] for every prefix and suffix
/// split of a fixed per-item work vector, and O(1) plus the partial tail
/// warp for every interior band.
///
/// `warp_padded_cost` is not additive across a split: slicing restarts warp
/// grouping at the slice start, so `pad(work[..s]) + pad(work[s..])` is in
/// general `!= pad(work)`. The curve therefore precomputes:
///
/// * `full_warp_prefix[j]` — padded cost of the first `j` *complete* warps
///   (per-warp prefix sums);
/// * `running_max[i]` — max of the warp-aligned chunk containing item `i`,
///   up to and including `i` (the boundary-warp correction: a prefix split
///   mid-warp still pads its partial last warp to full width);
/// * `suffix_pad[i]` — `warp_padded_cost(&work[i..])`, via the warp-stride
///   recurrence `suffix_pad[i] = warp·max(work[i..i+warp]) +
///   suffix_pad[i+warp]`. The window max is resolved by a branchless
///   two-pass scan: a per-block reverse running max (`max(work[i..hi])`
///   within `i`'s warp-aligned block) combined with the forward
///   `running_max` of the window's tail in the next block. Every
///   `suffix_pad[i]` only reads entries at `i + warp` and beyond, so the
///   per-block fill loop carries no dependency and autovectorizes.
///
/// The suffix recurrence also prices interior bands: a band `lo..hi`
/// groups its items into warps starting at `lo`, exactly like the suffix
/// from `lo`, so its full warps telescope out of `suffix_pad` and only the
/// partial tail warp needs the items themselves
/// ([`WarpPadCurve::band_cost`]). Prefixes could telescope the same way
/// from 0; `full_warp_prefix` stores those differences densely instead, so
/// the scalar split query reads one small array rather than a second
/// `suffix_pad` cache line.
///
/// All quantities are exact `u64` arithmetic, so every query method returns
/// values bitwise equal to calling [`warp_padded_cost`] on the slice.
///
/// [`warp_padded_cost`]: crate::warp_padded_cost
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarpPadCurve {
    warp: usize,
    /// Padded cost of the first `j` complete warps, `j = 0..=n/warp`.
    full_warp_prefix: AlignedU64s,
    /// `running_max[i]` = max of `work[warp·(i/warp) ..= i]`.
    running_max: AlignedU64s,
    /// `suffix_pad[i]` = `warp_padded_cost(&work[i..])`; entry `n` is 0.
    suffix_pad: AlignedU64s,
}

impl WarpPadCurve {
    /// Builds the curve in O(n) from the per-item work vector.
    ///
    /// # Panics
    /// Panics if `warp == 0`.
    #[must_use]
    pub fn new(work: &[u64], warp: usize) -> Self {
        WarpPadCurve::new_in(work, warp, &mut ProfileScratch::new())
    }

    /// Builds the curve using buffers from `scratch` (allocation-free when
    /// the arena is warm): a whole-span [`WarpPadCurve::patch_in`] of
    /// [`WarpPadCurve::zeros_in`].
    ///
    /// # Panics
    /// Panics if `warp == 0`.
    #[must_use]
    pub fn new_in(work: &[u64], warp: usize, scratch: &mut ProfileScratch) -> Self {
        let mut curve = WarpPadCurve::zeros_in(work.len(), warp, scratch);
        curve.patch_in(work, 0, work.len(), scratch);
        curve
    }

    /// The curve of `len` zero items, its buffers taken zeroed from
    /// `scratch`: the start a whole-span [`WarpPadCurve::patch_in`] turns
    /// into the curve of any work vector of that length.
    ///
    /// # Panics
    /// Panics if `warp == 0`.
    #[must_use]
    pub fn zeros_in(len: usize, warp: usize, scratch: &mut ProfileScratch) -> Self {
        assert!(warp > 0, "warp width must be positive");
        WarpPadCurve {
            warp,
            full_warp_prefix: scratch.take(len / warp + 1),
            running_max: scratch.take(len),
            suffix_pad: scratch.take(len + 1),
        }
    }

    /// Returns the curve's buffers to `scratch` for reuse by a later build.
    pub fn recycle(self, scratch: &mut ProfileScratch) {
        scratch.give(self.full_warp_prefix);
        scratch.give(self.running_max);
        scratch.give(self.suffix_pad);
    }

    /// Number of items the curve was built from.
    #[must_use]
    pub fn len(&self) -> usize {
        self.suffix_pad.len() - 1
    }

    /// True when built from an empty work vector.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `warp_padded_cost(&work[..split], warp)`, bitwise, in O(1).
    ///
    /// # Panics
    /// Panics if `split > len`.
    #[must_use]
    pub fn prefix_cost(&self, split: usize) -> u64 {
        assert!(split <= self.len(), "split {split} out of bounds");
        let full = split / self.warp;
        let mut cost = self.full_warp_prefix[full];
        if !split.is_multiple_of(self.warp) {
            // Partial boundary warp: pads to full width on the max so far.
            cost += self.running_max[split - 1] * self.warp as u64;
        }
        cost
    }

    /// `warp_padded_cost(&work[split..], warp)`, bitwise, in O(1).
    ///
    /// # Panics
    /// Panics if `split > len`.
    #[must_use]
    pub fn suffix_cost(&self, split: usize) -> u64 {
        self.suffix_pad[split]
    }

    /// `warp_padded_cost(&work[lo..hi], warp)`, bitwise, in O(1) + O(warp).
    ///
    /// Warp grouping restarts at `lo`, so the band's `q = (hi − lo) / warp`
    /// full warps are exactly the first `q` steps of the suffix recurrence
    /// from `lo`, and they telescope out of it:
    /// `suffix_pad[lo] − suffix_pad[lo + warp·q]`. Only the partial tail
    /// warp `[lo + warp·q, hi)` — at most `warp − 1` items — is maxed item
    /// by item through `work_at(i)`, the caller's accessor for `work[i]`,
    /// and padded to full width. Prefix bands (`lo == 0`) and suffix bands
    /// (`hi == len`) need no accessor reads: they are
    /// [`WarpPadCurve::prefix_cost`] and [`WarpPadCurve::suffix_cost`].
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > len`.
    #[must_use]
    pub fn band_cost(&self, lo: usize, hi: usize, work_at: impl Fn(usize) -> u64) -> u64 {
        assert!(
            lo <= hi && hi <= self.len(),
            "band {lo}..{hi} out of bounds"
        );
        if hi == self.len() {
            return self.suffix_pad[lo];
        }
        if lo == 0 {
            return self.prefix_cost(hi);
        }
        let tail = hi - (hi - lo) % self.warp;
        let full_warps = self.suffix_pad[lo] - self.suffix_pad[tail];
        let slowest = (tail..hi).map(work_at).max().unwrap_or(0);
        full_warps + slowest * self.warp as u64
    }

    /// Raw internal arrays `(full_warp_prefix, running_max, suffix_pad)`,
    /// for benchmark parity gates that compare against an independently
    /// built curve array-by-array.
    #[doc(hidden)]
    #[must_use]
    pub fn raw_parts(&self) -> (&[u64], &[u64], &[u64]) {
        (&self.full_warp_prefix, &self.running_max, &self.suffix_pad)
    }

    /// Rewrites the curve in place after items `lo..hi` of the work vector
    /// changed; `work` is the **full mutated** vector (the patch needs to
    /// re-max windows that straddle the span's edges). Runs in
    /// O(|span| + warp + shift) and reads `work` only inside
    /// `[lo − warp + 1, hi)` rounded out to warp blocks:
    ///
    /// * `running_max` — warp-aligned forward chunk scans over the touched
    ///   blocks only;
    /// * `full_warp_prefix` — per-warp sums recomputed over the touched
    ///   blocks, later entries shifted by the span delta (exact integers);
    /// * `suffix_pad` — every window `[i, i+warp)` meeting the span is
    ///   re-solved by the per-block two-scan pass from the last touched
    ///   block backwards; for `i` below the first touched block the window
    ///   is disjoint from the span, so the recurrence
    ///   `sp[i] = max·warp + sp[i+warp]` shifts each entry by a constant
    ///   per residue class mod `warp` — applied as one vectorizable
    ///   per-block add.
    ///
    /// Every entry is an exact integer, so the patched curve is **bitwise
    /// identical** to `WarpPadCurve::new(work, warp)` (the
    /// patch-equals-rebuild contract). `patch_in(work, 0, n, ..)` is both
    /// the build ([`WarpPadCurve::new_in`]) and a whole-input drift step:
    /// a full in-place rebuild with zero allocation.
    ///
    /// # Panics
    /// Panics if `work.len() != len`, `lo > hi`, or `hi > len`.
    pub fn patch_in(&mut self, work: &[u64], lo: usize, hi: usize, scratch: &mut ProfileScratch) {
        let n = self.len();
        assert_eq!(work.len(), n, "patch work vector length mismatch");
        assert!(lo <= hi && hi <= n, "patch span {lo}..{hi} out of bounds");
        if lo == hi {
            return;
        }
        let warp = self.warp;
        let warp_u = warp as u64;

        // Forward pass over the touched blocks, blocked on warp boundaries:
        // the running max, and the full-warp prefix of every full block,
        // with a constant shift past the span.
        let b_lo = lo / warp;
        let b_hi = hi.div_ceil(warp); // exclusive block bound
        {
            let (blo, bhi) = (b_lo * warp, (b_hi * warp).min(n));
            let nf = n / warp;
            let e = b_hi.min(nf);
            let fwp = self.full_warp_prefix.as_mut_slice();
            let old_e = fwp[e];
            let mut acc = fwp[b_lo];
            let blocks = self.running_max[blo..bhi]
                .chunks_mut(warp)
                .zip(work[blo..bhi].chunks(warp));
            for (b, (rm, chunk)) in (b_lo..).zip(blocks) {
                let mut chunk_max = 0u64;
                for (slot, &w) in rm.iter_mut().zip(chunk) {
                    chunk_max = chunk_max.max(w);
                    *slot = chunk_max;
                }
                if chunk.len() == warp {
                    acc += chunk_max * warp_u;
                    fwp[b + 1] = acc;
                }
            }
            let delta = fwp[e].wrapping_sub(old_e);
            if delta != 0 {
                for slot in &mut fwp[e + 1..=nf] {
                    *slot = slot.wrapping_add(delta);
                }
            }
        }

        // Backward pass: recompute suffix_pad for every block whose windows
        // can reach the span — from `first` (the block holding index
        // lo − warp + 1) through `last` (the block holding hi − 1). Blocks
        // after `last` only see work in [hi, n): untouched. Blocks before
        // `first` have windows entirely below lo, so their entries shift by
        // the per-residue delta observed at block `first`.
        //
        // Two scans per block instead of a sliding-window deque: the window
        // [i, min(i+warp, n)) splits at i's block end into a tail within the
        // block (reverse running max `tl`) and a head of the next block
        // (covered by `running_max[end-1]`, whose chunk starts exactly at
        // the block end). All reads of `suffix_pad` land in already-filled
        // later blocks, so the fill loops are dependency-free.
        let first = lo.saturating_sub(warp - 1) / warp;
        let last = (hi - 1) / warp;
        let mut saved = if first > 0 {
            // `first` having a predecessor block forces block `first` to be
            // full (its last index ≤ lo < n), so `warp` entries exist.
            let mut s = scratch.take(warp);
            let base = first * warp;
            s.as_mut_slice()
                .copy_from_slice(&self.suffix_pad[base..base + warp]);
            Some(s)
        } else {
            None
        };
        let mut tail = scratch.take(warp.min(n));
        {
            let sp = self.suffix_pad.as_mut_slice();
            let rm = self.running_max.as_slice();
            let tl = tail.as_mut_slice();
            for b in (first..=last).rev() {
                let blo = b * warp;
                let bhi = (blo + warp).min(n);
                let mut m = 0u64;
                for i in (blo..bhi).rev() {
                    m = m.max(work[i]);
                    tl[i - blo] = m;
                }
                if bhi == n {
                    // Last block: every window stays inside the block, and
                    // its continuation is sp[n] == 0.
                    for i in blo..bhi {
                        sp[i] = tl[i - blo] * warp_u;
                    }
                } else {
                    // Full interior block: for i > blo the window crosses
                    // into the next block; for i == blo it is the block.
                    for i in blo + 1..bhi {
                        let end = (i + warp).min(n);
                        let wm = tl[i - blo].max(rm[end - 1]);
                        sp[i] = wm * warp_u + sp[end];
                    }
                    sp[blo] = tl[0] * warp_u + sp[bhi];
                }
            }
            if let Some(dl) = saved.as_mut() {
                let base = first * warp;
                let dl = dl.as_mut_slice();
                for (r, d) in dl.iter_mut().enumerate() {
                    *d = sp[base + r].wrapping_sub(*d);
                }
                for b in 0..first {
                    let bb = b * warp;
                    for (r, &d) in dl.iter().enumerate() {
                        sp[bb + r] = sp[bb + r].wrapping_add(d);
                    }
                }
            }
        }
        scratch.give(tail);
        if let Some(s) = saved {
            scratch.give(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::warp_padded_cost;

    fn pseudo_random_work(n: usize, seed: u64) -> Vec<u64> {
        // Simple LCG; heavy-tailed by squaring the low bits occasionally.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let v = state >> 56;
                if v.is_multiple_of(7) {
                    v * v
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn prefix_curve_matches_slice_sums() {
        let items = pseudo_random_work(257, 3);
        let curve = PrefixCurve::new(&items);
        for split in 0..=items.len() {
            assert_eq!(curve.prefix_sum(split), items[..split].iter().sum::<u64>());
            assert_eq!(curve.suffix_sum(split), items[split..].iter().sum::<u64>());
        }
        assert_eq!(curve.range_sum(10, 100), items[10..100].iter().sum::<u64>());
        assert_eq!(curve.total(), items.iter().sum::<u64>());
    }

    #[test]
    fn prefix_curve_empty() {
        let curve = PrefixCurve::new(&[]);
        assert!(curve.is_empty());
        assert_eq!(curve.total(), 0);
        assert_eq!(curve.prefix_sum(0), 0);
        assert_eq!(curve.suffix_sum(0), 0);
    }

    #[test]
    fn warp_pad_curve_exact_at_every_split() {
        for (n, warp, seed) in [
            (0, 32, 1),
            (1, 32, 2),
            (31, 32, 3),
            (32, 32, 4),
            (100, 32, 5),
        ] {
            let work = pseudo_random_work(n, seed);
            let curve = WarpPadCurve::new(&work, warp);
            for split in 0..=n {
                assert_eq!(
                    curve.prefix_cost(split),
                    warp_padded_cost(&work[..split], warp),
                    "prefix n={n} split={split}"
                );
                assert_eq!(
                    curve.suffix_cost(split),
                    warp_padded_cost(&work[split..], warp),
                    "suffix n={n} split={split}"
                );
            }
        }
    }

    #[test]
    fn warp_pad_curve_odd_warp_widths() {
        let work = pseudo_random_work(97, 11);
        for warp in [1, 2, 3, 5, 7, 33, 97, 200] {
            let curve = WarpPadCurve::new(&work, warp);
            for split in 0..=work.len() {
                assert_eq!(
                    curve.prefix_cost(split),
                    warp_padded_cost(&work[..split], warp),
                    "warp={warp} split={split}"
                );
                assert_eq!(
                    curve.suffix_cost(split),
                    warp_padded_cost(&work[split..], warp),
                    "warp={warp} split={split}"
                );
            }
        }
    }

    #[test]
    fn warp_pad_band_cost_exact_on_every_band() {
        for (n, warp, seed) in [
            (0, 32, 1),
            (5, 32, 2),
            (33, 32, 3),
            (100, 32, 4),
            (97, 7, 5),
        ] {
            let work = pseudo_random_work(n, seed);
            let curve = WarpPadCurve::new(&work, warp);
            for lo in 0..=n {
                for hi in lo..=n {
                    assert_eq!(
                        curve.band_cost(lo, hi, |i| work[i]),
                        warp_padded_cost(&work[lo..hi], warp),
                        "n={n} warp={warp} band {lo}..{hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn warp_pad_band_cost_reads_only_the_tail_warp() {
        let work = pseudo_random_work(200, 6);
        let curve = WarpPadCurve::new(&work, 32);
        let reads = std::cell::Cell::new(0);
        let at = |i: usize| {
            reads.set(reads.get() + 1);
            work[i]
        };
        // 17..180 holds 5 full warps and a 3-item tail.
        let _ = curve.band_cost(17, 180, at);
        assert_eq!(reads.get(), 3);
        // Prefix and suffix bands never consult the accessor.
        let _ = curve.band_cost(0, 150, at);
        let _ = curve.band_cost(9, 200, at);
        assert_eq!(reads.get(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn band_cost_bounds_checked() {
        let curve = WarpPadCurve::new(&[1, 2, 3], 2);
        let _ = curve.band_cost(2, 1, |_| 0);
    }

    #[test]
    fn warp_pad_boundary_warp_pads_to_full_width() {
        // Split mid-warp: the partial chunk pays warp * its max.
        let mut work = vec![1u64; 40];
        work[3] = 50;
        let curve = WarpPadCurve::new(&work, 32);
        // Prefix of 5 items: one partial warp, max 50 -> 50 * 32.
        assert_eq!(curve.prefix_cost(5), 50 * 32);
        // Suffix from 35: 5 items of work 1 -> one padded warp of 32.
        assert_eq!(curve.suffix_cost(35), 32);
    }

    #[test]
    fn helper_agrees() {
        // Both curve queries against direct slice evaluation for one split.
        let pad_curve_matches_direct = |work: &[u64], warp: usize, split: usize| {
            let curve = WarpPadCurve::new(work, warp);
            curve.prefix_cost(split) == warp_padded_cost(&work[..split], warp)
                && curve.suffix_cost(split) == warp_padded_cost(&work[split..], warp)
        };
        let work = pseudo_random_work(65, 9);
        for split in [0, 1, 31, 32, 33, 64, 65] {
            assert!(pad_curve_matches_direct(&work, 32, split));
        }
    }

    #[test]
    fn scratch_reuse_is_bitwise_identical() {
        // Build → recycle → rebuild through the same warm arena, for sizes
        // straddling warp boundaries; the recycled curves must compare
        // equal field-for-field to fresh ones.
        let mut scratch = ProfileScratch::new();
        for (n, warp, seed) in [
            (0, 32, 1),
            (31, 32, 2),
            (64, 32, 3),
            (100, 7, 4),
            (97, 200, 5),
        ] {
            let work = pseudo_random_work(n, seed);
            let fresh_pad = WarpPadCurve::new(&work, warp);
            let fresh_sum = PrefixCurve::new(&work);

            let pad = WarpPadCurve::new_in(&work, warp, &mut scratch);
            let sum = PrefixCurve::new_in(&work, &mut scratch);
            assert_eq!(pad, fresh_pad, "n={n} warp={warp}");
            assert_eq!(sum, fresh_sum, "n={n}");
            pad.recycle(&mut scratch);
            sum.recycle(&mut scratch);
            assert!(scratch.is_warm());

            let warm_pad = WarpPadCurve::new_in(&work, warp, &mut scratch);
            let warm_sum = PrefixCurve::new_in(&work, &mut scratch);
            assert_eq!(warm_pad, fresh_pad, "warm n={n} warp={warp}");
            assert_eq!(warm_sum, fresh_sum, "warm n={n}");
            warm_pad.recycle(&mut scratch);
            warm_sum.recycle(&mut scratch);
        }
    }

    #[test]
    fn from_inclusive_prefix_wraps_without_copying() {
        let items = [3u64, 1, 4];
        let direct = PrefixCurve::new(&items);
        let buf = AlignedU64s::from(&[0u64, 3, 4, 8][..]);
        let wrapped = PrefixCurve::from_inclusive_prefix(buf);
        assert_eq!(wrapped, direct);
    }

    #[test]
    #[should_panic(expected = "0 sentinel")]
    fn from_inclusive_prefix_rejects_missing_sentinel() {
        let _ = PrefixCurve::from_inclusive_prefix(AlignedU64s::from(&[1u64, 2][..]));
    }

    #[test]
    #[should_panic(expected = "warp width must be positive")]
    fn zero_warp_rejected() {
        let _ = WarpPadCurve::new(&[1, 2], 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn prefix_cost_bounds_checked() {
        let curve = WarpPadCurve::new(&[1, 2, 3], 2);
        let _ = curve.prefix_cost(4);
    }

    #[test]
    fn prefix_patch_equals_rebuild() {
        let base = pseudo_random_work(257, 21);
        for (lo, hi, seed) in [
            (0, 0, 1),
            (0, 257, 2),
            (0, 31, 3),
            (31, 33, 4),
            (128, 129, 5),
            (200, 257, 6),
            (256, 257, 7),
            (40, 40, 8),
        ] {
            let mut items = base.clone();
            let repl = pseudo_random_work(hi - lo, seed ^ 0xABCD);
            items[lo..hi].copy_from_slice(&repl);
            let mut patched = PrefixCurve::new(&base);
            patched.patch_with(lo, hi, repl.iter().copied());
            assert_eq!(patched, PrefixCurve::new(&items), "span {lo}..{hi}");
        }
    }

    #[test]
    fn warp_pad_patch_equals_rebuild() {
        // Spans crossing warp boundaries, touching the ends, empty, and the
        // full span — for several warp widths including
        // ones larger than n.
        let mut scratch = ProfileScratch::new();
        for warp in [1, 2, 7, 32, 33, 200] {
            let base = pseudo_random_work(161, warp as u64 + 40);
            for (lo, hi, seed) in [
                (0, 0, 1),
                (0, 161, 2),
                (0, 1, 3),
                (0, 33, 4),
                (31, 32, 5),
                (31, 33, 6),
                (64, 96, 7),
                (95, 97, 8),
                (100, 101, 9),
                (130, 161, 10),
                (160, 161, 11),
                (77, 77, 12),
            ] {
                let mut work = base.clone();
                let repl = pseudo_random_work(hi - lo, seed * 31 + warp as u64);
                work[lo..hi].copy_from_slice(&repl);
                let mut patched = WarpPadCurve::new(&base, warp);
                patched.patch_in(&work, lo, hi, &mut scratch);
                assert_eq!(
                    patched,
                    WarpPadCurve::new(&work, warp),
                    "warp={warp} span {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn warp_pad_patch_chain_stays_exact() {
        // Repeated patches accumulate no drift: after k patches the curve
        // still bitwise-matches a fresh build of the current vector.
        let mut scratch = ProfileScratch::new();
        let mut work = pseudo_random_work(200, 77);
        let mut curve = WarpPadCurve::new(&work, 32);
        let mut sums = PrefixCurve::new(&work);
        for step in 0..12u64 {
            let lo = ((step * 37) % 190) as usize;
            let hi = (lo + 1 + ((step * 13) % 10) as usize).min(200);
            let repl = pseudo_random_work(hi - lo, step + 500);
            work[lo..hi].copy_from_slice(&repl);
            curve.patch_in(&work, lo, hi, &mut scratch);
            sums.patch_with(lo, hi, repl.iter().copied());
            assert_eq!(curve, WarpPadCurve::new(&work, 32), "step {step}");
            assert_eq!(sums, PrefixCurve::new(&work), "step {step}");
        }
    }
}
