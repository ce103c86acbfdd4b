//! Bit-domain K-means prediction: packed LUT distances over raw bytes.
//!
//! The float prediction path expands a value into one `f32` per bit (a 64 B
//! value becomes a 512-float heap allocation) and then runs a dense K×d
//! scan. But the inputs are always 0/1, and for a 0/1 vector `x` and a
//! fractional centroid `c` the squared Euclidean distance factors exactly:
//!
//! ```text
//! ‖x − c‖² = Σⱼ (xⱼ − cⱼ)²
//!          = Σⱼ cⱼ² + Σⱼ xⱼ² − 2 Σⱼ cⱼ xⱼ      (xⱼ² = xⱼ for bits)
//!          = ‖c‖² + popcount(x) − 2 ⟨c, x⟩
//! ```
//!
//! `‖c‖²` is a per-centroid constant, `popcount(x)` is a handful of `u64`
//! popcounts, and `⟨c, x⟩` decomposes over byte positions: for byte value
//! `b` at position `p`, the partial dot product `Σ_{bit i ∈ b} c[8p + i]`
//! takes one 256-entry table lookup. Prediction therefore costs
//! `value_len` lookups and adds per centroid — **zero featurization, zero
//! allocation** — instead of `8 × value_len` multiply-subtract-adds plus a
//! heap-allocated feature vector.
//!
//! The tables are rebuilt once per (re)train/model-swap, never per
//! operation. They are stored centroid-interleaved
//! (`lut[(pos·256 + byte)·k + c]`) so one lookup row holds all K partial
//! dot products for a byte contiguously: the scan walks the value once,
//! touching one K-float stripe per byte.

use crate::matrix::Matrix;

/// A K-means predictor specialized to 0/1 (bit-feature) inputs, operating
/// directly on the raw value bytes via packed lookup tables.
///
/// Built from a fitted model's centroids with
/// [`PackedPredictor::from_centroids`]; reproduces the float path's
/// squared distances up to f32 rounding (the summation order differs, so
/// results agree to ulp-level tolerance, not bit-for-bit).
#[derive(Debug, Clone)]
pub struct PackedPredictor {
    k: usize,
    input_bytes: usize,
    /// Centroid-interleaved partial dot products:
    /// `lut[(pos * 256 + byte) * k + c] = Σ_{bit i set in byte} centroid_c[pos*8 + i]`.
    lut: Vec<f32>,
    /// `norms[c] = ‖centroid_c‖²`.
    norms: Vec<f32>,
}

impl PackedPredictor {
    /// Builds the LUTs for a centroid matrix over bit features.
    ///
    /// # Panics
    /// Panics if the feature dimensionality is not a whole number of bytes
    /// (bit-feature models always are; centroids in PCA space go through
    /// [`BitProjector::fold`](crate::pca::BitProjector::fold) instead).
    pub fn from_centroids(centroids: &Matrix) -> Self {
        let dims = centroids.cols();
        assert!(
            dims.is_multiple_of(8),
            "packed predictor needs byte-aligned bit features, got {dims} dims"
        );
        let k = centroids.rows();
        let input_bytes = dims / 8;
        let mut lut = vec![0.0f32; input_bytes * 256 * k];
        for (c, row) in centroids.iter_rows().enumerate() {
            for pos in 0..input_bytes {
                let w = &row[pos * 8..pos * 8 + 8];
                // Subset-sum DP over byte values: clearing the lowest set
                // bit of `b` gives an already-computed prefix, so each of
                // the 256 entries costs one add.
                for b in 1usize..256 {
                    let low = b.trailing_zeros() as usize;
                    let prev = lut[(pos * 256 + (b & (b - 1))) * k + c];
                    lut[(pos * 256 + b) * k + c] = prev + w[low];
                }
            }
        }
        let norms = centroids
            .iter_rows()
            .map(|row| row.iter().map(|&v| v * v).sum())
            .collect();
        PackedPredictor {
            k,
            input_bytes,
            lut,
            norms,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Expected input length in bytes.
    pub fn input_bytes(&self) -> usize {
        self.input_bytes
    }

    /// Approximate DRAM held by the lookup tables, in bytes.
    pub fn table_bytes(&self) -> usize {
        (self.lut.len() + self.norms.len()) * std::mem::size_of::<f32>()
    }

    /// Computes the squared distance from `bytes` (as a bit vector) to
    /// every centroid into `out`, returning the argmin cluster. Performs no
    /// allocation.
    ///
    /// Dispatches to the AVX2 LUT-gather kernel when the CPU supports it
    /// (see [`crate::simd::simd_active`]); the result is **bit-for-bit**
    /// identical to [`PackedPredictor::distances_into_scalar`] either way —
    /// each centroid's f32 accumulation runs in the same byte-position
    /// order in both kernels.
    ///
    /// # Panics
    /// Panics if `bytes.len() != input_bytes` or `out.len() != k`.
    pub fn distances_into(&self, bytes: &[u8], out: &mut [f32]) -> usize {
        assert_eq!(bytes.len(), self.input_bytes, "value length mismatch");
        assert_eq!(out.len(), self.k, "distance buffer length mismatch");
        // Accumulate ⟨c, x⟩ for all centroids in one pass over the bytes.
        out.fill(0.0);
        crate::simd::lut_accumulate(&self.lut, self.k, bytes, out);
        self.finalize(popcount_bytes(bytes) as f32, out)
    }

    /// Scalar reference for [`PackedPredictor::distances_into`]: identical
    /// semantics and results, never uses SIMD. Kept public as the
    /// equivalence baseline for tests and the benchmark's scalar column.
    ///
    /// # Panics
    /// Panics if `bytes.len() != input_bytes` or `out.len() != k`.
    pub fn distances_into_scalar(&self, bytes: &[u8], out: &mut [f32]) -> usize {
        assert_eq!(bytes.len(), self.input_bytes, "value length mismatch");
        assert_eq!(out.len(), self.k, "distance buffer length mismatch");
        out.fill(0.0);
        crate::simd::lut_accumulate_scalar(&self.lut, self.k, bytes, out);
        self.finalize(popcount_bytes(bytes) as f32, out)
    }

    /// [`PackedPredictor::distances_into`] over a row of little-endian `u64`
    /// words (the [`crate::packedmatrix::PackedMatrix`] layout) with the
    /// row's popcount supplied by the caller — the training kernel computes
    /// it once per sample and reuses it every iteration.
    ///
    /// # Panics
    /// Panics if `words` is not exactly the packed form of an
    /// `input_bytes`-byte value or `out.len() != k`.
    pub fn distances_from_words(&self, words: &[u64], pop: u32, out: &mut [f32]) -> usize {
        assert_eq!(
            words.len(),
            self.input_bytes.div_ceil(8),
            "packed row length mismatch"
        );
        assert_eq!(out.len(), self.k, "distance buffer length mismatch");
        out.fill(0.0);
        #[cfg(target_endian = "little")]
        {
            // On little-endian targets the packed words *are* the byte
            // stream, so the training kernel shares the SIMD LUT-gather
            // with the prediction path.
            // SAFETY: `words` holds at least `input_bytes` bytes (asserted
            // above) and u8 has no alignment requirement.
            let bytes = unsafe {
                std::slice::from_raw_parts(words.as_ptr() as *const u8, self.input_bytes)
            };
            crate::simd::lut_accumulate(&self.lut, self.k, bytes, out);
        }
        #[cfg(not(target_endian = "little"))]
        {
            let k = self.k;
            let mut pos = 0usize;
            'words: for &w in words {
                for b in w.to_le_bytes() {
                    if pos == self.input_bytes {
                        break 'words;
                    }
                    let row = &self.lut[(pos * 256 + b as usize) * k..][..k];
                    for (acc, &x) in out.iter_mut().zip(row) {
                        *acc += x;
                    }
                    pos += 1;
                }
            }
        }
        self.finalize(pop as f32, out)
    }

    /// Turns accumulated partial dot products into squared distances via
    /// `‖c‖² + popcount(x) − 2⟨c,x⟩`, returning the argmin cluster.
    fn finalize(&self, pop: f32, out: &mut [f32]) -> usize {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (c, d) in out.iter_mut().enumerate() {
            *d = self.norms[c] + pop - 2.0 * *d;
            if *d < best_d {
                best_d = *d;
                best = c;
            }
        }
        best
    }

    /// Convenience argmin predictor (allocates a distance buffer; the hot
    /// path uses [`PackedPredictor::distances_into`] with caller scratch).
    pub fn predict(&self, bytes: &[u8]) -> usize {
        let mut dist = vec![0.0f32; self.k];
        self.distances_into(bytes, &mut dist)
    }
}

/// Population count of a byte slice, eight bytes per `popcnt`
/// (the byte tail folded into one padded word). Dispatches to the
/// hardware-popcnt kernel in [`crate::simd`] when available.
#[inline]
pub fn popcount_bytes(bytes: &[u8]) -> u64 {
    crate::simd::popcount_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{bits_to_features, featurize_values};
    use crate::kmeans::{KMeans, KMeansConfig};
    use crate::matrix::sq_dist;

    fn trained_model(values: &[Vec<u8>], k: usize) -> KMeans {
        let data = featurize_values(values);
        KMeans::fit(&data, &KMeansConfig::new(k).with_seed(11))
    }

    #[test]
    fn popcount_matches_naive() {
        for len in [0usize, 1, 7, 8, 9, 64, 65] {
            let v: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let naive: u64 = v.iter().map(|b| b.count_ones() as u64).sum();
            assert_eq!(popcount_bytes(&v), naive, "len={len}");
        }
    }

    #[test]
    fn distances_match_float_path() {
        let values: Vec<Vec<u8>> = (0..40u8)
            .map(|i| vec![i.wrapping_mul(13), !i, 0xA5, i])
            .collect();
        let model = trained_model(&values, 4);
        let packed = PackedPredictor::from_centroids(model.centroids());
        let mut dist = vec![0.0f32; 4];
        for v in &values {
            packed.distances_into(v, &mut dist);
            let f = bits_to_features(v);
            for (c, &d) in dist.iter().enumerate() {
                let reference = sq_dist(model.centroid(c), &f);
                assert!(
                    (d - reference).abs() <= 1e-3 * (1.0 + reference),
                    "cluster {c}: packed {d} vs float {reference}"
                );
            }
        }
    }

    #[test]
    fn argmin_matches_float_predict() {
        let mut values = Vec::new();
        for i in 0..30u8 {
            values.push(vec![0x00, 0x00, i % 2, 0x00]);
            values.push(vec![0xFF, 0xFF, 0xF0 | (i % 2), 0xFF]);
        }
        let model = trained_model(&values, 2);
        let packed = PackedPredictor::from_centroids(model.centroids());
        for v in &values {
            assert_eq!(packed.predict(v), model.predict(&bits_to_features(v)));
        }
    }

    #[test]
    fn exact_on_bit_centroids() {
        // Centroids that are themselves 0/1 vectors give integer distances:
        // the packed identity reduces to the Hamming distance, exactly.
        let rows = vec![
            bits_to_features(&[0x0Fu8, 0x00]),
            bits_to_features(&[0xF0u8, 0xFF]),
        ];
        let m = Matrix::from_rows(&rows);
        let packed = PackedPredictor::from_centroids(&m);
        let mut dist = vec![0.0f32; 2];
        packed.distances_into(&[0x0F, 0x01], &mut dist);
        assert_eq!(dist[0], 1.0); // one bit away from centroid 0
        assert_eq!(dist[1], 15.0); // 12 + 5 − 2·(1 shared bit)
    }

    #[test]
    fn single_cluster_zero_centroid_counts_bits() {
        let packed = PackedPredictor::from_centroids(&Matrix::zeros(1, 32));
        let mut d = [0.0f32];
        assert_eq!(packed.distances_into(&[0xFF, 0x01, 0x00, 0x80], &mut d), 0);
        assert_eq!(d[0], 10.0);
    }

    #[test]
    #[should_panic(expected = "byte-aligned")]
    fn rejects_non_byte_dims() {
        PackedPredictor::from_centroids(&Matrix::zeros(2, 12));
    }

    #[test]
    #[should_panic(expected = "value length mismatch")]
    fn rejects_wrong_value_len() {
        let p = PackedPredictor::from_centroids(&Matrix::zeros(1, 16));
        p.predict(&[0u8; 3]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::featurize::{bits_to_features, featurize_values};
    use crate::kmeans::{KMeans, KMeansConfig};
    use crate::matrix::sq_dist;
    use proptest::prelude::*;

    proptest! {
        /// The packed kernel reproduces the reference float path on random
        /// training sets and probe values: distances within f32 tolerance,
        /// and an identical argmin whenever the float path's best-vs-second
        /// margin exceeds that tolerance (near-ties may legitimately
        /// resolve either way under reordered f32 summation).
        #[test]
        fn packed_matches_float_reference(
            seed in 0u64..1000,
            value_bytes in 1usize..24,
            k in 1usize..8,
            n in 8usize..40,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let values: Vec<Vec<u8>> = (0..n)
                .map(|_| (0..value_bytes).map(|_| next() as u8).collect())
                .collect();
            let data = featurize_values(&values);
            let model = KMeans::fit(&data, &KMeansConfig::new(k).with_seed(seed));
            let packed = PackedPredictor::from_centroids(model.centroids());
            let mut dist = vec![0.0f32; model.k()];

            for v in values.iter().take(8) {
                let argmin = packed.distances_into(v, &mut dist);
                let f = bits_to_features(v);
                let mut float_d: Vec<f32> = (0..model.k())
                    .map(|c| sq_dist(model.centroid(c), &f))
                    .collect();
                for (c, (&p, &fl)) in dist.iter().zip(&float_d).enumerate() {
                    prop_assert!(
                        (p - fl).abs() <= 1e-3 * (1.0 + fl),
                        "cluster {}: packed {} vs float {}", c, p, fl
                    );
                }
                let float_best = model.predict(&f);
                float_d.sort_by(f32::total_cmp);
                let margin = if float_d.len() > 1 { float_d[1] - float_d[0] } else { f32::INFINITY };
                if margin > 1e-3 * (1.0 + float_d[0]) {
                    prop_assert_eq!(argmin, float_best);
                }
            }
        }

        /// The SIMD-dispatched kernel and the scalar reference agree
        /// **bit-for-bit** on random value widths (including byte counts
        /// that are not a multiple of 8, exercising the u64-word tail) and
        /// random cluster counts (crossing every SIMD dispatch width and
        /// the off-path fallbacks).
        #[test]
        fn simd_matches_scalar_bit_for_bit(
            seed in 0u64..5000,
            value_bytes in 1usize..40,
            k in 1usize..70,
        ) {
            let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(7);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // A synthetic centroid matrix is enough: equivalence is a
            // kernel property, independent of how centroids were fit.
            let rows: Vec<Vec<f32>> = (0..k)
                .map(|_| {
                    (0..value_bytes * 8)
                        .map(|_| (next() % 1000) as f32 / 1000.0)
                        .collect()
                })
                .collect();
            let m = Matrix::from_rows(&rows);
            let packed = PackedPredictor::from_centroids(&m);
            let value: Vec<u8> = (0..value_bytes).map(|_| next() as u8).collect();

            let mut d_simd = vec![0.0f32; k];
            let mut d_scalar = vec![0.0f32; k];
            let a_simd = packed.distances_into(&value, &mut d_simd);
            let a_scalar = packed.distances_into_scalar(&value, &mut d_scalar);
            prop_assert_eq!(a_simd, a_scalar);
            for (c, (&s, &r)) in d_simd.iter().zip(&d_scalar).enumerate() {
                prop_assert_eq!(s.to_bits(), r.to_bits(), "cluster {}", c);
            }

            // The training-side word kernel must match too (tail words are
            // zero-padded, so positions past input_bytes contribute 0).
            let words_per_row = value_bytes.div_ceil(8);
            let mut words = vec![0u64; words_per_row];
            for (i, chunk) in value.chunks(8).enumerate() {
                let mut pad = [0u8; 8];
                pad[..chunk.len()].copy_from_slice(chunk);
                words[i] = u64::from_le_bytes(pad);
            }
            let pop = popcount_bytes(&value) as u32;
            let mut d_words = vec![0.0f32; k];
            let a_words = packed.distances_from_words(&words, pop, &mut d_words);
            prop_assert_eq!(a_words, a_scalar);
            for (c, (&s, &r)) in d_words.iter().zip(&d_scalar).enumerate() {
                prop_assert_eq!(s.to_bits(), r.to_bits(), "cluster {}", c);
            }
        }
    }
}
