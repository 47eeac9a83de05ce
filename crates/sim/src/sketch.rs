//! Input sketches, each rule written once: the [`Digest`] behind every
//! content digest and delta commit, the [`DegreeSketch::of`] pass over CSR
//! arrays, and the [`log2_bucket`] and [`degree_moments`] rules that
//! `nbwp-core`'s `Fingerprint::apply_delta` reuses, so a fingerprint
//! patched in O(|delta|) keeps matching a fresh one bit for bit.

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One word into one lane: for a fixed lane a bijection of `w`, for a fixed
/// `w` a bijection of the lane (add, rotate, odd multiply).
#[inline]
fn round(lane: u64, w: u64) -> u64 {
    lane.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Streaming 64-bit content digest, fed one word at a time.
///
/// Word `i` updates lane `i mod 4`, and [`Digest::finish`] folds the word
/// count and the lanes in a fixed order, then avalanches. Every update is a
/// bijection of its lane and the fold is a bijection of each lane, so two
/// equally long word streams that differ in one word **always** digest
/// differently; other edits collide only by chance. The lanes are
/// independent multiply chains, so long arrays digest at memory speed. An
/// identity for caching, not a cryptographic hash.
///
/// ```
/// use nbwp_sim::Digest;
/// let a = Digest::default().word(1).u32s(&[2, 3]).finish();
/// assert_ne!(a, Digest::default().word(1).u32s(&[2, 4]).finish());
/// assert_eq!(a, Digest::default().word(1).u32s(&[2, 3]).finish());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Digest {
    lanes: [u64; 4],
    words: u64,
}

impl Digest {
    /// Feeds one word.
    #[inline]
    pub fn word(&mut self, w: u64) -> &mut Digest {
        let lane = &mut self.lanes[(self.words % 4) as usize];
        *lane = round(*lane, w);
        self.words += 1;
        self
    }

    /// Feeds every word of `ws` in order, as [`Digest::word`] would, with
    /// the four lanes held in registers.
    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) -> &mut Digest {
        let mut ws = ws.into_iter();
        while !self.words.is_multiple_of(4) {
            let Some(w) = ws.next() else { return self };
            self.word(w);
        }
        let mut lanes = self.lanes;
        let mut fed = 0u64;
        'quads: loop {
            for lane in &mut lanes {
                let Some(w) = ws.next() else { break 'quads };
                *lane = round(*lane, w);
                fed += 1;
            }
        }
        self.lanes = lanes;
        self.words += fed;
        self
    }

    /// Feeds a `u32` slice: its length, then the values two to a word (low
    /// half first, a lone last value zero-extended).
    pub fn u32s(&mut self, xs: &[u32]) -> &mut Digest {
        self.word(xs.len() as u64);
        let pairs = xs.chunks_exact(2);
        let last = pairs.remainder().first().copied();
        self.words(pairs.map(|p| u64::from(p[0]) | (u64::from(p[1]) << 32)));
        self.words(last.map(u64::from))
    }

    /// Feeds a byte slice: its length, then the bytes eight to a
    /// little-endian word (a short last word zero-padded).
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        self.word(bytes.len() as u64);
        self.words(bytes.chunks(8).map(|octet| {
            let mut word = [0u8; 8];
            word[..octet.len()].copy_from_slice(octet);
            u64::from_le_bytes(word)
        }))
    }

    /// The digest of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut h = self.words.wrapping_mul(P5);
        for &lane in &self.lanes {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// Histogram bucket of a degree: bucket 0 holds degree 0 and bucket
/// `k ≥ 1` holds degrees in `[2^(k-1), 2^k)`, capped at 63.
#[must_use]
pub fn log2_bucket(d: u64) -> usize {
    (u64::BITS - d.leading_zeros()).min(63) as usize
}

/// `(mean, coefficient of variation)` of a degree distribution from its
/// exact integer moments: item count `n`, degree sum `sum`, and squared
/// degree sum `sum_sq`.
///
/// This is the one float sequence from moments to statistics, shared by
/// [`DegreeSketch::of`] and `Fingerprint::apply_delta`: a fingerprint
/// patched in O(|delta|) reproduces a fresh sketch's mean and cv
/// **bitwise** only because both convert the same integer moments through
/// the same float operations.
#[must_use]
pub fn degree_moments(n: usize, sum: u64, sum_sq: u64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 0.0);
    }
    let nf = n as f64;
    let mean = sum as f64 / nf;
    let var = (sum_sq as f64 / nf - mean * mean).max(0.0);
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    (mean, cv)
}

/// One-pass sketch of a CSR structure (graph adjacency or a sparse matrix
/// pattern): degree moments, a log2 degree histogram and a structure
/// digest, the raw material of `nbwp-core`'s `Fingerprint`.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeSketch {
    /// Row (vertex) count.
    pub n: usize,
    /// Entry (arc / nonzero) count, which is also the degree sum.
    pub m: usize,
    /// Mean degree.
    pub mean: f64,
    /// Coefficient of variation of the degree distribution.
    pub cv: f64,
    /// Maximum degree.
    pub max: u64,
    /// Exact sum of squared degrees, so a delta can patch the second moment
    /// and re-derive `mean`/`cv` bitwise through [`degree_moments`].
    pub sum_sq: u64,
    /// Degree histogram, indexed by [`log2_bucket`].
    pub log2_hist: [u64; 64],
    /// [`Digest`] of the header words, every `ptr` entry, then `idx`. These
    /// words determine the CSR arrays, so equal digests mean equal
    /// structure up to hash collisions; numeric values never enter.
    pub digest: u64,
}

impl DegreeSketch {
    /// Sketches CSR arrays in one O(n + m) pass: `ptr` holds `n + 1`
    /// non-decreasing offsets into `idx` (one row per window) and `idx` the
    /// row entries. `header` carries identity the arrays do not, such as a
    /// matrix's column count.
    #[must_use]
    pub fn of(header: &[u64], ptr: &[usize], idx: &[u32]) -> DegreeSketch {
        let n = ptr.len().saturating_sub(1);
        let mut log2_hist = [0u64; 64];
        let (mut sum_sq, mut max) = (0u64, 0u64);
        for row in ptr.windows(2) {
            let d = (row[1] - row[0]) as u64;
            log2_hist[log2_bucket(d)] += 1;
            sum_sq += d * d;
            max = max.max(d);
        }
        let m = idx.len();
        let (mean, cv) = degree_moments(n, m as u64, sum_sq);
        let digest = Digest::default()
            .words(header.iter().copied())
            .words(ptr.iter().map(|&p| p as u64))
            .u32s(idx)
            .finish();
        DegreeSketch {
            n,
            m,
            mean,
            cv,
            max,
            sum_sq,
            log2_hist,
            digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bulk_entry_points_equal_word_at_a_time() {
        let xs: Vec<u32> = (0..11).map(|i| i * 7 + 1).collect();
        for skip in 0..5 {
            let mut one = Digest::default();
            let mut bulk = Digest::default();
            for w in 0..skip {
                one.word(w);
                bulk.word(w);
            }
            one.word(xs.len() as u64);
            for pair in xs.chunks(2) {
                let hi = pair.get(1).map_or(0, |&x| u64::from(x));
                one.word(u64::from(pair[0]) | hi << 32);
            }
            assert_eq!(bulk.u32s(&xs).finish(), one.finish(), "skip {skip}");
        }
    }

    #[test]
    fn lengths_and_padding_are_part_of_the_digest() {
        let d = |feed: fn(&mut Digest)| {
            let mut h = Digest::default();
            feed(&mut h);
            h.finish()
        };
        let empty = d(|_| {});
        assert_ne!(
            empty,
            d(|h| {
                h.word(0);
            })
        );
        assert_ne!(
            d(|h| {
                h.u32s(&[5]);
            }),
            d(|h| {
                h.u32s(&[5, 0]);
            })
        );
        assert_ne!(
            d(|h| {
                h.bytes(b"ab");
            }),
            d(|h| {
                h.bytes(b"ab\0");
            })
        );
        assert_ne!(
            d(|h| {
                h.words([1, 2]);
            }),
            d(|h| {
                h.words([2, 1]);
            })
        );
    }

    #[test]
    fn log2_bucket_bounds() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1 << 61), 62);
        assert_eq!(log2_bucket(1 << 62), 63);
        assert_eq!(log2_bucket(u64::MAX), 63);
    }

    #[test]
    fn sketch_of_small_csr() {
        // Rows of degree 2, 0, 3, 1.
        let s = DegreeSketch::of(&[4], &[0, 2, 2, 5, 6], &[0, 3, 0, 1, 2, 3]);
        assert_eq!((s.n, s.m, s.max, s.sum_sq), (4, 6, 3, 14));
        assert_eq!(s.log2_hist[..3], [1, 1, 2]);
        assert_eq!((s.mean, s.cv), degree_moments(4, 6, 14));
        let header = DegreeSketch::of(&[5], &[0, 2, 2, 5, 6], &[0, 3, 0, 1, 2, 3]);
        assert_ne!(s.digest, header.digest);
        let empty = DegreeSketch::of(&[], &[0], &[]);
        assert_eq!((empty.n, empty.m, empty.mean, empty.cv), (0, 0, 0.0, 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any single-word edit moves the digest, whatever the stream
        /// length and edit position (the lane and finish bijections).
        #[test]
        fn single_word_edits_always_move_the_digest(
            ws in proptest::collection::vec(any::<u64>(), 1..40),
            at in 0usize..40,
            delta in 1u64..u64::MAX,
        ) {
            let at = at % ws.len();
            let mut edited = ws.clone();
            edited[at] = edited[at].wrapping_add(delta);
            prop_assert_ne!(
                Digest::default().words(ws.iter().copied()).finish(),
                Digest::default().words(edited).finish()
            );
        }
    }
}
