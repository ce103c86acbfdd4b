//! Packed 0/1 training data: rows as `u64` words.
//!
//! The float training pipeline expands every sampled value into one `f32`
//! per bit before fitting — a 32× memory blow-up (100k × 64 B samples
//! become a 205 MB tensor) that is pure overhead when the inputs are bits.
//! [`PackedMatrix`] keeps the training set packed, eight value bytes per
//! word, and implements the training-side counterpart of the prediction
//! identity from [`crate::packed`]:
//!
//! * **Assignment** — per-iteration byte LUTs for `⟨c, x⟩` (built once per
//!   Lloyd iteration at `K · positions · 256` adds, amortized over N ≫ that
//!   samples) plus per-row popcounts cached at construction turn each
//!   sample-to-centroid distance into `value_len` lookups and adds.
//! * **Centroid update** — features are 0/1, so the per-cluster feature
//!   sums are *bit counts*: integer accumulators incremented by iterating
//!   the set bits of each word (`trailing_zeros` / clear-lowest-bit), then
//!   converted to `f32` once per iteration. No float adds in the inner
//!   loop, and integer partials merge exactly across worker threads.
//! * **Seeding** — k-means++ needs sample-to-sample distances, which on
//!   0/1 data are Hamming distances: one XOR + popcount per word pair, and
//!   exactly the integer the float path's `sq_dist` computes — so packed
//!   and float training draw identical seeds from the same RNG stream.
//!
//! Centroids remain fractional `f32` rows (the cluster means the paper's
//! Eq. 1 needs); only the samples stay packed.

use crate::kmeans::{Assignment, TrainSet};
use crate::matrix::Matrix;
use crate::packed::PackedPredictor;

/// A samples × bits 0/1 matrix stored packed: each row is
/// `ceil(bytes / 8)` little-endian `u64` words (LSB-first bit order within
/// each byte, matching [`crate::featurize::bits_to_features`]), with the
/// row's popcount cached for the distance identity.
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    rows: usize,
    bytes_per_row: usize,
    words_per_row: usize,
    /// `rows * words_per_row` words; tail bytes of the last word are zero.
    data: Vec<u64>,
    /// Cached per-row popcounts (`popcount(x)` of the distance identity).
    popcounts: Vec<u32>,
}

impl PackedMatrix {
    /// Packs equal-length byte values into a training set.
    ///
    /// # Panics
    /// Panics if the values do not share one length.
    pub fn from_values<V: AsRef<[u8]>>(values: &[V]) -> Self {
        let bytes_per_row = values.first().map_or(0, |v| v.as_ref().len());
        let words_per_row = bytes_per_row.div_ceil(8);
        let mut data = vec![0u64; values.len() * words_per_row];
        let mut popcounts = Vec::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            let v = v.as_ref();
            assert_eq!(v.len(), bytes_per_row, "values must share one length");
            let row = &mut data[i * words_per_row..(i + 1) * words_per_row];
            let mut pop = 0u32;
            let mut chunks = v.chunks_exact(8);
            for (w, c) in row.iter_mut().zip(&mut chunks) {
                *w = u64::from_le_bytes(c.try_into().unwrap());
                pop += w.count_ones();
            }
            let rest = chunks.remainder();
            if !rest.is_empty() {
                let mut pad = [0u8; 8];
                pad[..rest.len()].copy_from_slice(rest);
                let w = u64::from_le_bytes(pad);
                row[words_per_row - 1] = w;
                pop += w.count_ones();
            }
            popcounts.push(pop);
        }
        PackedMatrix {
            rows: values.len(),
            bytes_per_row,
            words_per_row,
            data,
            popcounts,
        }
    }

    /// Number of samples.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Feature dimensionality (bits per row).
    pub fn dims(&self) -> usize {
        self.bytes_per_row * 8
    }

    /// Value size in bytes.
    pub fn bytes_per_row(&self) -> usize {
        self.bytes_per_row
    }

    /// Row `i` as packed words.
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        &self.data[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Cached popcount of row `i`.
    #[inline]
    pub fn popcount(&self, i: usize) -> u32 {
        self.popcounts[i]
    }

    /// Hamming distance between rows `i` and `j` (one XOR + popcount per
    /// word pair) — on 0/1 features this *is* the squared L2 distance.
    /// Uses the hardware-popcnt kernel when the CPU has one.
    #[inline]
    pub fn hamming(&self, i: usize, j: usize) -> u64 {
        crate::simd::hamming_words(self.row_words(i), self.row_words(j))
    }

    /// Bits rows `i` and `j` share (one AND + popcount per word pair) — on
    /// 0/1 features this *is* their inner product, the Gram entry
    /// [`Pca::fit_packed`](crate::pca::Pca::fit_packed) needs.
    #[inline]
    pub fn shared_bits(&self, i: usize, j: usize) -> u64 {
        crate::simd::and_popcount_words(self.row_words(i), self.row_words(j))
    }

    /// Calls `f` with the index of every set bit of row `i`, ascending.
    #[inline]
    pub fn for_each_set_bit(&self, i: usize, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.row_words(i).iter().enumerate() {
            let mut w = word;
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Column-wise mean (the fraction of rows with each bit set), like
    /// [`Matrix::col_mean`]. Zero vector when empty.
    pub fn col_mean(&self) -> Vec<f32> {
        let mut counts = vec![0u32; self.dims()];
        for i in 0..self.rows {
            self.for_each_set_bit(i, |j| counts[j] += 1);
        }
        let n = self.rows.max(1) as f32;
        counts.into_iter().map(|c| c as f32 / n).collect()
    }

    /// DRAM held by the packed rows, in bytes — `1/32` of the float tensor
    /// the old pipeline materialized.
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u64>()
    }

    /// Expands the whole set into the dense float matrix (cold paths only:
    /// the elbow sweep and tests).
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.dims());
        for i in 0..self.rows {
            self.write_row(i, m.row_mut(i));
        }
        m
    }

    /// Adds row `i`'s set bits into the `bitcounts` stripe of its cluster —
    /// the integer centroid accumulator of the packed update step.
    #[inline]
    fn count_bits_into(&self, i: usize, bitcounts: &mut [u32]) {
        self.for_each_set_bit(i, |j| bitcounts[j] += 1);
    }
}

impl TrainSet for PackedMatrix {
    fn n_samples(&self) -> usize {
        self.rows
    }

    fn n_dims(&self) -> usize {
        self.dims()
    }

    fn write_row(&self, i: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dims());
        for (j, slot) in out.iter_mut().enumerate() {
            let w = self.row_words(i)[j / 64];
            *slot = ((w >> (j % 64)) & 1) as f32;
        }
    }

    fn sample_sq_dist(&self, i: usize, j: usize) -> f32 {
        self.hamming(i, j) as f32
    }

    fn dist_to_centroid(&self, i: usize, centroid: &[f32]) -> f32 {
        // Sparse form of the identity: ‖c‖² + pop(x) − 2 Σ_{set bits} c[j].
        // Cold path (empty-cluster repair), so ‖c‖² is computed in place.
        let norm: f32 = centroid.iter().map(|&v| v * v).sum();
        let mut dot = 0.0f32;
        self.for_each_set_bit(i, |j| dot += centroid[j]);
        norm + self.popcounts[i] as f32 - 2.0 * dot
    }

    /// The packed assignment pass: one LUT build per call (per Lloyd
    /// iteration), then popcount-based distances and integer bit-count
    /// centroid accumulators, parallelized over contiguous row chunks.
    fn assign(&self, centroids: &Matrix, threads: usize, labels: &mut [usize]) -> Assignment {
        let n = self.rows;
        let k = centroids.rows();
        let d = self.dims();
        debug_assert_eq!(centroids.cols(), d);
        let threads = threads.max(1).min(n.max(1));
        // Rebuilt once per iteration: K · positions · 256 adds, amortized
        // over the N samples scanned below.
        let lut = PackedPredictor::from_centroids(centroids);

        let run_chunk = |start: usize, label_chunk: &mut [usize]| -> (Assignment, Vec<u32>) {
            let mut a = Assignment::zeros(k, d);
            let mut bitcounts = vec![0u32; k * d];
            let mut dist = vec![0.0f32; k];
            for (off, l) in label_chunk.iter_mut().enumerate() {
                let i = start + off;
                let c = lut.distances_from_words(self.row_words(i), self.popcounts[i], &mut dist);
                *l = c;
                a.counts[c] += 1;
                a.sse += dist[c];
                self.count_bits_into(i, &mut bitcounts[c * d..(c + 1) * d]);
            }
            (a, bitcounts)
        };

        let (mut merged, bitcounts) = if threads == 1 || n < 256 {
            run_chunk(0, labels)
        } else {
            let chunk = n.div_ceil(threads);
            let label_chunks: Vec<&mut [usize]> = labels.chunks_mut(chunk).collect();
            let mut partials = Vec::with_capacity(threads);
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (t, label_chunk) in label_chunks.into_iter().enumerate() {
                    let run_chunk = &run_chunk;
                    handles.push(scope.spawn(move || run_chunk(t * chunk, label_chunk)));
                }
                for h in handles {
                    partials.push(h.join().expect("packed kmeans worker panicked"));
                }
            });
            let (mut merged, mut bitcounts) = (Assignment::zeros(k, d), vec![0u32; k * d]);
            for (a, bc) in partials {
                merged.sse += a.sse;
                for (m, c) in merged.counts.iter_mut().zip(&a.counts) {
                    *m += c;
                }
                // Integer partials merge exactly — no float association
                // drift across thread counts.
                for (m, b) in bitcounts.iter_mut().zip(&bc) {
                    *m += b;
                }
            }
            (merged, bitcounts)
        };

        // Bit counts *are* the 0/1 feature sums; one exact conversion per
        // iteration.
        for (s, &b) in merged.sums.iter_mut().zip(&bitcounts) {
            *s = b as f32;
        }
        merged
    }
}

/// Deterministic family-structured test values (byte-fill families with a
/// decisive margin plus one xorshift noise byte) — the one generator behind
/// every packed-vs-float training equivalence test in this crate, so the
/// data shape those tests compare on cannot silently diverge.
#[cfg(test)]
fn family_test_values(n: usize, bytes: usize, families: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| {
            let fill = ((i % families) * 255 / families) as u8;
            (0..bytes)
                .map(|b| if b == bytes - 1 { next() as u8 } else { fill })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{bits_to_features, featurize_values};
    use crate::kmeans::{KMeans, KMeansConfig};
    use crate::matrix::sq_dist;

    use super::family_test_values as family_values;

    #[test]
    fn packing_roundtrips_through_write_row() {
        for bytes in [1usize, 3, 8, 11, 16] {
            let values = family_values(9, bytes, 3, 7);
            let packed = PackedMatrix::from_values(&values);
            assert_eq!(packed.rows(), 9);
            assert_eq!(packed.dims(), bytes * 8);
            let mut row = vec![0.0f32; bytes * 8];
            for (i, v) in values.iter().enumerate() {
                packed.write_row(i, &mut row);
                assert_eq!(row, bits_to_features(v), "row {i} bytes {bytes}");
                let pop: u32 = v.iter().map(|b| b.count_ones()).sum();
                assert_eq!(packed.popcount(i), pop);
            }
        }
    }

    #[test]
    fn hamming_matches_float_sq_dist() {
        let values = family_values(12, 5, 4, 3);
        let packed = PackedMatrix::from_values(&values);
        let floats = featurize_values(&values);
        for i in 0..values.len() {
            for j in 0..values.len() {
                assert_eq!(
                    packed.sample_sq_dist(i, j),
                    sq_dist(floats.row(i), floats.row(j)),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn assignment_matches_float_assignment() {
        let values = family_values(64, 6, 4, 11);
        let packed = PackedMatrix::from_values(&values);
        let floats = featurize_values(&values);
        let centroids = {
            // A fitted float model's centroids: fractional, realistic.
            KMeans::fit(&floats, &KMeansConfig::new(4).with_seed(5))
                .centroids()
                .clone()
        };
        let mut pl = vec![0usize; 64];
        let mut fl = vec![0usize; 64];
        let pa = packed.assign(&centroids, 1, &mut pl);
        let fa = TrainSet::assign(&floats, &centroids, 1, &mut fl);
        assert_eq!(pl, fl);
        assert_eq!(pa.counts, fa.counts);
        for (p, f) in pa.sums.iter().zip(&fa.sums) {
            // Bit counts are exact; float sums of 0/1 are exact too.
            assert_eq!(p, f);
        }
        assert!((pa.sse - fa.sse).abs() <= 1e-2 * (1.0 + fa.sse));
    }

    #[test]
    fn threaded_assignment_is_exact_vs_single() {
        let values = family_values(600, 9, 5, 23);
        let packed = PackedMatrix::from_values(&values);
        let centroids = KMeans::fit_set(&packed, &KMeansConfig::new(5).with_seed(2))
            .centroids()
            .clone();
        let mut l1 = vec![0usize; 600];
        let mut l4 = vec![0usize; 600];
        let a1 = packed.assign(&centroids, 1, &mut l1);
        let a4 = packed.assign(&centroids, 4, &mut l4);
        assert_eq!(l1, l4);
        assert_eq!(a1.counts, a4.counts);
        // Integer accumulators: sums are bit-identical across thread counts.
        assert_eq!(a1.sums, a4.sums);
    }

    #[test]
    fn empty_and_ragged() {
        let empty = PackedMatrix::from_values::<&[u8]>(&[]);
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.dims(), 0);
        let r = std::panic::catch_unwind(|| {
            PackedMatrix::from_values(&[vec![0u8; 2], vec![0u8; 3]])
        });
        assert!(r.is_err(), "ragged values must be rejected");
    }

    #[test]
    fn to_matrix_equals_featurize() {
        let values = family_values(8, 7, 3, 1);
        assert_eq!(
            PackedMatrix::from_values(&values).to_matrix(),
            featurize_values(&values)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::featurize::featurize_values;
    use crate::kmeans::{KMeans, KMeansConfig};
    use proptest::prelude::*;

    proptest! {
        /// Full-fit equivalence: the packed kernel and the float reference
        /// train to the same model (identical k-means++ seeds by the exact
        /// integer-distance argument, then tolerance-level centroids). The
        /// generator keeps family margins decisive so Lloyd's trajectory
        /// has no near-ties for f32 reordering to flip.
        #[test]
        fn packed_fit_matches_float_fit(
            seed in 0u64..300,
            value_bytes in 2usize..16,
            families in 2usize..5,
            n in 24usize..80,
        ) {
            let values = super::family_test_values(n, value_bytes, families, seed);
            let cfg = KMeansConfig::new(families).with_seed(seed);
            let packed = KMeans::fit_set(&PackedMatrix::from_values(&values), &cfg);
            let floats = featurize_values(&values);
            let float = KMeans::fit(&floats, &cfg);
            prop_assert_eq!(packed.k(), float.k());
            prop_assert_eq!(packed.labels(&floats), float.labels(&floats));
            for c in 0..packed.k() {
                for (p, f) in packed.centroid(c).iter().zip(float.centroid(c)) {
                    prop_assert!(
                        (p - f).abs() <= 1e-4,
                        "centroid {} diverged: {} vs {}", c, p, f
                    );
                }
            }
            prop_assert!(
                (packed.inertia - float.inertia).abs()
                    <= 1e-3 * (1.0 + float.inertia.abs())
            );
        }
    }
}
