//! # pnw-ml — the machine-learning substrate of PNW
//!
//! The paper steers NVM writes with an unsupervised model (§V-A.1): K-means
//! clustering over the bit patterns of stored values, PCA to tame the curse
//! of dimensionality for large values, and the elbow method to pick the
//! number of clusters. The original evaluation uses scikit-learn; this crate
//! reimplements the same algorithms in pure Rust:
//!
//! * [`kmeans`] — Lloyd's algorithm with k-means++ initialization,
//!   empty-cluster repair and multicore assignment (Figure 11 compares 1- vs
//!   4-core training time).
//! * [`pca`] — principal component analysis via a symmetric eigensolver
//!   (Householder tridiagonalization + implicit-shift QL), reporting the
//!   explained-variance-ratio curve of Figure 3; for bit-valued data the
//!   fit (AND-popcount Gram matrix), the projection and the prediction run
//!   straight from the packed bytes. Prediction is the one scorer every
//!   model uses, [`FoldedPredictor`]: the feature map (the PCA basis, or
//!   the identity for a model over the raw bits) folded into the centroids
//!   and quantized to K `i8` weights per value bit, scored word by word in
//!   exact integer dot products. `‖x−c‖² = ‖c‖² + popcount(x) − 2⟨c,x⟩`
//!   on 0/1 inputs, and `popcount(x)` is the same for every cluster, so the
//!   argmin needs only `‖c‖² − 2⟨c,x⟩`: zero featurization, zero
//!   allocation on the PUT hot path.
//! * [`elbow`] — SSE-vs-K curves and knee detection (Figure 4).
//! * [`featurize`] — the bit-per-dimension encoding of §V-A.1: *"each memory
//!   location is encoded as a vector of bits, each of which is used as a
//!   feature/dimension"*.
//! * [`packedmatrix`] — the same identity on the *training* side: a
//!   samples × bits set stored as `u64` words, fit without ever expanding
//!   to the 32× larger float tensor (the word table, rebuilt once per Lloyd
//!   iteration, for the assignment step; integer bit-count accumulators for
//!   the centroid update and the closed-form SSE). [`kmeans::TrainSet`] is
//!   the seam: `KMeans::fit_set` accepts either representation.
//! * [`matrix`] / [`linalg`] — the minimal dense-matrix layer underneath.
//!
//! ```
//! use pnw_ml::kmeans::{KMeans, KMeansConfig};
//! use pnw_ml::matrix::Matrix;
//!
//! // Cluster the 6-entry example PCM of the paper's Table II.
//! let rows: Vec<Vec<f32>> = [
//!     [0., 0., 0., 0., 0., 1., 1., 1.],
//!     [0., 0., 0., 0., 1., 0., 1., 1.],
//!     [0., 0., 1., 0., 1., 1., 0., 0.],
//!     [0., 0., 1., 1., 1., 1., 0., 0.],
//!     [1., 1., 0., 1., 0., 0., 0., 0.],
//!     [0., 1., 1., 1., 0., 0., 0., 0.],
//! ].iter().map(|r| r.to_vec()).collect();
//! let data = Matrix::from_rows(&rows);
//! let model = KMeans::fit(&data, &KMeansConfig::new(3).with_seed(42));
//! let labels = model.labels(&data);
//! // Indexes {0,1}, {2,3}, {4,5} land in three distinct clusters.
//! assert_eq!(labels[0], labels[1]);
//! assert_eq!(labels[2], labels[3]);
//! assert_eq!(labels[4], labels[5]);
//! assert_ne!(labels[0], labels[2]);
//! assert_ne!(labels[2], labels[4]);
//! ```

#![warn(missing_docs)]

pub mod elbow;
pub mod featurize;
pub mod kmeans;
pub mod linalg;
pub mod matrix;
pub mod packedmatrix;
pub mod pca;
pub mod simd;

pub use elbow::{elbow_point, sse_curve};
pub use featurize::{bits_to_features, features_to_bits};
pub use kmeans::{KMeans, KMeansConfig, TrainSet};
pub use matrix::Matrix;
pub use packedmatrix::PackedMatrix;
/// [`FoldedPredictor`] under the name the benchmark's per-layer ledger
/// (`benchmark/src/layers.rs`) times it by.
pub use pca::FoldedPredictor as PackedPredictor;
pub use pca::{BitProjector, FoldedPredictor, Pca, RefreshScratch};

/// [`PackedPredictor`] — the word table of a model over the raw bits —
/// against the float K-means path it scores for: every score within the
/// quantization bound of `s ×` the f64 squared distance, so the argmin is
/// the float one wherever the float margin clears that bound.
#[cfg(test)]
mod packed {
    use crate::matrix::Matrix;
    use crate::PackedPredictor;

    /// `‖x − c_k‖²` in f64 for every cluster k.
    fn float_distances(centroids: &Matrix, v: &[u8]) -> Vec<f64> {
        let x = crate::featurize::bits_to_features(v);
        centroids
            .iter_rows()
            .map(|c| {
                c.iter()
                    .zip(&x)
                    .map(|(&c, &x)| (f64::from(x) - f64::from(c)).powi(2))
                    .sum()
            })
            .collect()
    }

    /// How far apart the scores' errors against `s ×` the float distances
    /// may spread: each score is within `(set_bits + 1) / 2` of `s ×` its
    /// distance less one constant of the value (plus slack for the f64
    /// reference's own rounding).
    fn spread_bound(v: &[u8]) -> f64 {
        crate::simd::popcount_bytes(v) as f64 + 1.0 + 2e-6
    }

    /// The spread of `scores − scale × reference` over the clusters.
    fn error_spread(scale: f64, scores: &[f32], reference: &[f64]) -> f64 {
        let errors = scores
            .iter()
            .zip(reference)
            .map(|(&q, &r)| f64::from(q) - scale * r);
        let (lo, hi) = errors.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), e| {
            (lo.min(e), hi.max(e))
        });
        hi - lo
    }

    mod tests {
        use super::*;
        use crate::featurize::{bits_to_features, featurize_values};
        use crate::kmeans::{KMeans, KMeansConfig};
        use crate::matrix::sq_dist;
        use crate::simd::popcount_bytes;

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
                let reference = float_distances(model.centroids(), v);
                let f = bits_to_features(v);
                for (c, &r) in reference.iter().enumerate() {
                    let float = f64::from(sq_dist(model.centroid(c), &f));
                    assert!((float - r).abs() <= 1e-3 * (1.0 + r), "cluster {c}");
                }
                let spread = error_spread(packed.scale(), &dist, &reference);
                assert!(spread <= spread_bound(v), "{dist:?} vs {reference:?}");
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
            let mut dist = [0.0f32; 2];
            for v in &values {
                assert_eq!(
                    packed.distances_into(v, &mut dist),
                    model.predict(&bits_to_features(v))
                );
            }
        }

        #[test]
        fn exact_on_bit_centroids() {
            // Centroids that are themselves 0/1 vectors: every centred
            // weight is ±1 before the scale, so the scale is the whole i8
            // range and the scores are the Hamming distances, scaled,
            // exactly (less constants of the value).
            let rows = vec![
                bits_to_features(&[0x0Fu8, 0x00]),
                bits_to_features(&[0xF0u8, 0xFF]),
            ];
            let packed = PackedPredictor::from_centroids(&Matrix::from_rows(&rows));
            assert_eq!(packed.scale(), 127.0);
            let mut dist = vec![0.0f32; 2];
            assert_eq!(packed.distances_into(&[0x0F, 0x01], &mut dist), 0);
            // One bit from centroid 0; 12 + 5 − 2·(1 shared bit) = 15 from
            // centroid 1.
            assert_eq!(f64::from(dist[1] - dist[0]), (15.0 - 1.0) * 127.0);
        }

        #[test]
        fn single_cluster_zero_centroid_counts_bits() {
            // A score is the distance less the value's popcount: the zero
            // centroid, whose distance *is* the popcount, scores 0.
            let value = [0xFF, 0x01, 0x00, 0x80];
            let packed = PackedPredictor::from_centroids(&Matrix::zeros(1, 32));
            let mut d = [7.0f32];
            assert_eq!(packed.distances_into(&value, &mut d), 0);
            assert_eq!(d[0], 0.0);
            // Beside an all-ones centroid (distance 32 − 10), the gap counts
            // the value's 10 set bits.
            let packed = PackedPredictor::from_centroids(&Matrix::from_rows(&[
                vec![0.0; 32],
                vec![1.0; 32],
            ]));
            let mut d = [0.0f32; 2];
            assert_eq!(packed.distances_into(&value, &mut d), 0);
            assert_eq!(f64::from(d[1] - d[0]), (22.0 - 10.0) * packed.scale());
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
            p.distances_into(&[0u8; 3], &mut [0.0]);
        }
    }

    mod proptests {
        use super::*;
        use crate::featurize::{bits_to_features, featurize_values};
        use crate::kmeans::{KMeans, KMeansConfig};
        use proptest::prelude::*;

        proptest! {
            /// The word table tracks the reference float path on random
            /// training sets and probe values: scores within the
            /// quantization bound of the scaled f64 distances, and the
            /// float argmin whenever the float best-vs-second margin clears
            /// both that bound and f32 rounding.
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
                    let reference = float_distances(model.centroids(), v);
                    let spread = error_spread(packed.scale(), &dist, &reference);
                    prop_assert!(
                        spread <= spread_bound(v),
                        "{:?} vs {:?}", dist, reference
                    );
                    let mut sorted = reference.clone();
                    sorted.sort_by(f64::total_cmp);
                    let margin = if sorted.len() > 1 { sorted[1] - sorted[0] } else { f64::INFINITY };
                    if packed.scale() * margin > spread_bound(v)
                        && margin > 1e-3 * (1.0 + sorted[0])
                    {
                        prop_assert_eq!(argmin, model.predict(&bits_to_features(v)));
                    }
                }
            }
        }
    }
}
