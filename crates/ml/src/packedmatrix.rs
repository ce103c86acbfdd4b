//! Packed 0/1 training data: rows as `u64` words.
//!
//! The float training pipeline expands every sampled value into one `f32`
//! per bit before fitting — a 32× memory blow-up (100k × 64 B samples
//! become a 205 MB tensor) that is pure overhead when the inputs are bits.
//! [`PackedMatrix`] keeps the training set packed, eight value bytes per
//! word, and trains through the store's one scorer: on 0/1 inputs
//! `‖x − c‖² = ‖c‖² + popcount(x) − 2⟨c, x⟩`, and `popcount(x)` is the
//! same for every cluster.
//!
//! * **Assignment** — the word table of the iteration's centroids
//!   ([`FoldedPredictor::from_centroids`], built once per Lloyd iteration
//!   at K weights per bit, amortized over N ≫ that samples) scores each
//!   row in integer dot products, words × K, exactly as a PUT predicts.
//!   The table's scores are within a known bound of the float ones, so a
//!   row whose runner-up lies inside that bound — a near-tie — is settled
//!   by the exact sparse distances of the clusters involved: the labels
//!   are the float argmin's, and a quantization error never steers Lloyd's
//!   trajectory.
//! * **Centroid update** — features are 0/1, so the per-cluster feature
//!   sums are *bit counts*: integer accumulators incremented by iterating
//!   the set bits of each word (`trailing_zeros` / clear-lowest-bit), then
//!   converted to `f32` once per iteration. No float adds in the inner
//!   loop, and integer partials merge exactly across worker threads.
//! * **SSE** — in closed form, in f64, from what the pass already holds:
//!   `Σᵢ popcount(xᵢ) − 2·Σ_k ⟨c_k, B_k⟩ + Σ_k n_k‖c_k‖²`, with `B_k` the
//!   bit counts of cluster k's `n_k` rows (popcounts cached per row at
//!   construction).
//! * **Seeding** — k-means++ needs sample-to-sample distances, which on
//!   0/1 data are Hamming distances: one XOR + popcount per word pair, and
//!   exactly the integer the float path's `sq_dist` computes — so packed
//!   and float training draw identical seeds from the same RNG stream.
//!
//! Centroids remain fractional `f32` rows (the cluster means the paper's
//! Eq. 1 needs); only the samples stay packed.

use crate::kmeans::{Assignment, TrainSet};
use crate::matrix::Matrix;
use crate::pca::FoldedPredictor;

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

    /// Row `i`'s nearest centroid, given its word-table `scores` and their
    /// argmin `best`. Two scores differ by `s ×` their float scores'
    /// difference to within `popcount + 1`, so only a cluster scored that
    /// close to `best` can be nearer; when there is one, the candidates'
    /// exact distances settle it, ties to the lower index.
    fn settle(&self, i: usize, best: usize, scores: &[f32], centroids: &Matrix) -> usize {
        let reach = f64::from(scores[best]) + f64::from(self.popcounts[i]) + 1.0;
        let near = (0..scores.len()).filter(|&c| f64::from(scores[c]) <= reach);
        if near.clone().count() == 1 {
            return best;
        }
        near.map(|c| (c, self.dist_to_centroid(i, centroids.row(c))))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(best, |(c, _)| c)
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

    /// The packed assignment pass: the word table built once per call (per
    /// Lloyd iteration) scores every row, a near-tie inside its bound
    /// settled exactly; integer bit-count centroid accumulators,
    /// parallelized over contiguous row chunks; the SSE in closed form from
    /// those counts.
    fn assign(&self, centroids: &Matrix, threads: usize, labels: &mut [usize]) -> Assignment {
        let n = self.rows;
        let k = centroids.rows();
        let d = self.dims();
        debug_assert_eq!(centroids.cols(), d);
        let threads = threads.max(1).min(n.max(1));
        let table = FoldedPredictor::from_centroids(centroids);
        let norms: Vec<f64> = centroids
            .iter_rows()
            .map(|row| row.iter().map(|&x| f64::from(x).powi(2)).sum())
            .collect();

        let run_chunk = |start: usize, label_chunk: &mut [usize]| -> (Vec<usize>, Vec<u32>) {
            let mut counts = vec![0usize; k];
            let mut bitcounts = vec![0u32; k * d];
            let mut scores = vec![0.0f32; k];
            let mut value = vec![0u8; self.words_per_row * 8];
            for (off, l) in label_chunk.iter_mut().enumerate() {
                let i = start + off;
                for (bytes, w) in value.chunks_exact_mut(8).zip(self.row_words(i)) {
                    bytes.copy_from_slice(&w.to_le_bytes());
                }
                let best = table.distances_into(&value[..self.bytes_per_row], &mut scores);
                let c = self.settle(i, best, &scores, centroids);
                *l = c;
                counts[c] += 1;
                self.count_bits_into(i, &mut bitcounts[c * d..(c + 1) * d]);
            }
            (counts, bitcounts)
        };

        let (counts, bitcounts) = if threads == 1 || n < 256 {
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
            let (mut counts, mut bitcounts) = (vec![0usize; k], vec![0u32; k * d]);
            for (cs, bc) in partials {
                for (m, c) in counts.iter_mut().zip(&cs) {
                    *m += c;
                }
                // Integer partials merge exactly — no float association
                // drift across thread counts.
                for (m, b) in bitcounts.iter_mut().zip(&bc) {
                    *m += b;
                }
            }
            (counts, bitcounts)
        };

        // Σᵢ‖xᵢ − c_{lᵢ}‖² = Σ pop − 2·Σ_k⟨c_k, B_k⟩ + Σ_k n_k‖c_k‖².
        let mut sse: f64 = self.popcounts.iter().map(|&p| f64::from(p)).sum();
        for (c, (row, bits)) in centroids
            .iter_rows()
            .zip(bitcounts.chunks_exact(d.max(1)))
            .enumerate()
        {
            let dot: f64 = row
                .iter()
                .zip(bits)
                .map(|(&x, &b)| f64::from(x) * f64::from(b))
                .sum();
            sse += counts[c] as f64 * norms[c] - 2.0 * dot;
        }
        // Bit counts *are* the 0/1 feature sums; one exact conversion per
        // iteration.
        Assignment {
            counts,
            sums: bitcounts.into_iter().map(|b| b as f32).collect(),
            sse: sse as f32,
        }
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

    /// Fill-byte families with one random bit flipped per value: decisive
    /// margins at every width, one byte included.
    fn flipped_families(n: usize, bytes: usize, families: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut noise = family_values(n, 1, 1, seed).into_iter();
        (0..n)
            .map(|i| {
                let mut v = vec![((i % families) * 255 / families) as u8; bytes];
                let bit = usize::from(noise.next().unwrap()[0]) % (bytes * 8);
                v[bit / 8] ^= 1 << (bit % 8);
                v
            })
            .collect()
    }

    /// Whether two SSEs agree to f32 rounding of an `n`-term sum.
    fn same_sse(a: f32, b: f32, n: usize) -> bool {
        (a - b).abs() <= n as f32 * f32::EPSILON * b.abs().max(1.0)
    }

    /// The packed pass is the float pass (`KMeans::sse`'s): the same
    /// labels, counts and sums — bit counts, so identical across thread
    /// counts — and the closed-form SSE to f32 rounding, at widths from one
    /// byte to 64 with and without a tail word.
    #[test]
    fn assignment_matches_float_assignment() {
        for bytes in [1usize, 2, 3, 7, 8, 9, 16, 31, 64] {
            let values = flipped_families(600, bytes, 4, bytes as u64);
            let packed = PackedMatrix::from_values(&values);
            let floats = featurize_values(&values);
            // A fitted float model's centroids: fractional, realistic.
            let model = KMeans::fit(&floats, &KMeansConfig::new(4).with_seed(3));
            let mut fl = vec![0usize; 600];
            let fa = TrainSet::assign(&floats, model.centroids(), 1, &mut fl);
            assert_eq!(fa.sse, model.sse(&floats));
            for threads in [1, 4] {
                let mut pl = vec![0usize; 600];
                let pa = packed.assign(model.centroids(), threads, &mut pl);
                assert_eq!(pl, fl, "{bytes} B, {threads} threads");
                assert_eq!((&pa.counts, &pa.sums), (&fa.counts, &fa.sums));
                assert!(
                    same_sse(pa.sse, fa.sse, 600),
                    "{bytes} B: {} vs {}",
                    pa.sse,
                    fa.sse
                );
            }
        }
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
        // Integer accumulators: sums are bit-identical across thread counts,
        // and so is the SSE taken from them.
        assert_eq!(a1.sums, a4.sums);
        assert_eq!(a1.sse.to_bits(), a4.sse.to_bits());
    }

    #[test]
    fn closed_form_sse_holds_through_an_empty_cluster_repair() {
        // Three distinct values and K = 5: k-means++ draws duplicate
        // centres, the duplicates' clusters come back empty, and the fit
        // repairs them.
        let values: Vec<Vec<u8>> = (0..90)
            .map(|i| vec![[0x00u8, 0x5A, 0xFF][i % 3]; 5])
            .collect();
        let packed = PackedMatrix::from_values(&values);
        let floats = featurize_values(&values);
        let mut centroids = floats.select_rows(&[0, 1, 2, 2, 0]);
        let mut labels = vec![0usize; 90];
        let a = packed.assign(&centroids, 1, &mut labels);
        assert_eq!(a.counts, vec![30, 30, 30, 0, 0]);
        assert_eq!(a.sse, 0.0);
        // Fractional centroids, the two duplicates still empty.
        centroids.row_mut(0)[0] = 0.25;
        centroids.row_mut(4)[0] = 0.5;
        centroids.row_mut(3)[7] = 0.75;
        let a = packed.assign(&centroids, 4, &mut labels);
        assert_eq!(a.counts, vec![30, 30, 30, 0, 0]);
        let float_sse = KMeans::from_centroids(centroids.clone(), 0).sse(&floats);
        assert!(same_sse(a.sse, float_sse, 90), "{} vs {float_sse}", a.sse);

        let model = KMeans::fit_set(&packed, &KMeansConfig::new(5).with_seed(1));
        assert_eq!(model.k(), 5);
        assert!(same_sse(model.inertia, model.sse(&floats), 90));
    }

    #[test]
    fn empty_and_ragged() {
        let empty = PackedMatrix::from_values::<&[u8]>(&[]);
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.dims(), 0);
        let r =
            std::panic::catch_unwind(|| PackedMatrix::from_values(&[vec![0u8; 2], vec![0u8; 3]]));
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
