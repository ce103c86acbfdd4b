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
//!   fit (AND-popcount Gram matrix), the projection and the prediction
//!   (basis folded into the centroids and quantized: K `i8` weights per
//!   value bit, scored word by word in integers) all run straight from the
//!   packed bytes.
//! * [`elbow`] — SSE-vs-K curves and knee detection (Figure 4).
//! * [`featurize`] — the bit-per-dimension encoding of §V-A.1: *"each memory
//!   location is encoded as a vector of bits, each of which is used as a
//!   feature/dimension"*.
//! * [`packed`] — the bit-domain prediction kernel: per-centroid packed
//!   lookup tables turn `‖x−c‖²` into `‖c‖² + popcount(x) − 2⟨c,x⟩`, so the
//!   PUT hot path predicts straight from the raw bytes with zero
//!   featurization and zero allocation.
//! * [`packedmatrix`] — the same identity on the *training* side: a
//!   samples × bits set stored as `u64` words, fit without ever expanding
//!   to the 32× larger float tensor (per-iteration byte LUTs for the
//!   assignment step, integer bit-count accumulators for the centroid
//!   update). [`kmeans::TrainSet`] is the seam: `KMeans::fit_set` accepts
//!   either representation.
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
pub mod packed;
pub mod packedmatrix;
pub mod pca;
pub mod simd;

pub use elbow::{elbow_point, sse_curve};
pub use featurize::{bits_to_features, features_to_bits};
pub use kmeans::{KMeans, KMeansConfig, TrainSet};
pub use matrix::Matrix;
pub use packed::PackedPredictor;
pub use packedmatrix::PackedMatrix;
pub use pca::{BitProjector, FoldedPredictor, Pca, RefreshScratch};
