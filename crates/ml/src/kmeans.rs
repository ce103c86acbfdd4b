//! K-means clustering: Lloyd's algorithm with k-means++ initialization.
//!
//! This is the model at the heart of PNW (§V-A.1). The objective is the
//! paper's Eq. 1: minimize the sum of squared L2 distances between samples
//! and their cluster centroid. On bit features this equals the total
//! within-cluster Hamming distance, which is why clusters group memory
//! locations PNW can overwrite cheaply.
//!
//! Training supports multicore assignment via scoped threads —
//! Figure 11 of the paper measures exactly this (1 core vs 4 cores).
//!
//! Training is generic over [`TrainSet`]: the dense float [`Matrix`] (the
//! reference path, and the only choice after PCA projection) or the
//! bit-packed [`PackedMatrix`](crate::packedmatrix::PackedMatrix), which
//! runs the whole fit in the packed bit domain (the store's integer
//! word-table scorer, integer bit-count centroid accumulators) without ever
//! materializing the 32× larger float tensor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::{sq_dist, Matrix};

/// Per-iteration assignment statistics: what one pass over the training set
/// produces for the centroid update, regardless of the data representation.
pub struct Assignment {
    /// Samples assigned to each cluster.
    pub counts: Vec<usize>,
    /// k × d centroid sums, flattened row-major.
    pub sums: Vec<f32>,
    /// Sum of squared distances of every sample to its centroid (Eq. 1).
    pub sse: f32,
}

impl Assignment {
    /// An all-zero accumulator for `k` clusters of `d` dims.
    pub fn zeros(k: usize, d: usize) -> Self {
        Assignment {
            counts: vec![0; k],
            sums: vec![0.0; k * d],
            sse: 0.0,
        }
    }
}

/// A K-means training set. Implemented by the dense float [`Matrix`] and by
/// the packed bit matrix; [`KMeans::fit_set`] is generic over it, so K-means
/// over PCA space (floats) and over raw bit features (packed, no
/// featurization) share one fit.
///
/// Centroids stay fractional `f32` either way — only the *samples* are
/// representation-specific.
pub trait TrainSet: Sync {
    /// Number of samples.
    fn n_samples(&self) -> usize;

    /// Feature dimensionality.
    fn n_dims(&self) -> usize;

    /// Expands sample `i` into float features (`out.len() == n_dims()`).
    fn write_row(&self, i: usize, out: &mut [f32]);

    /// Squared L2 distance between samples `i` and `j`. On 0/1 data this is
    /// the Hamming distance — an exact integer in both representations, so
    /// k-means++ seeding draws identical centers from either.
    fn sample_sq_dist(&self, i: usize, j: usize) -> f32;

    /// Squared L2 distance from sample `i` to a float centroid row.
    fn dist_to_centroid(&self, i: usize, centroid: &[f32]) -> f32;

    /// One full assignment pass: labels every sample and accumulates the
    /// per-cluster counts, feature sums and the SSE.
    fn assign(&self, centroids: &Matrix, threads: usize, labels: &mut [usize]) -> Assignment;
}

impl TrainSet for Matrix {
    fn n_samples(&self) -> usize {
        self.rows()
    }

    fn n_dims(&self) -> usize {
        self.cols()
    }

    fn write_row(&self, i: usize, out: &mut [f32]) {
        out.copy_from_slice(self.row(i));
    }

    fn sample_sq_dist(&self, i: usize, j: usize) -> f32 {
        sq_dist(self.row(i), self.row(j))
    }

    fn dist_to_centroid(&self, i: usize, centroid: &[f32]) -> f32 {
        sq_dist(self.row(i), centroid)
    }

    fn assign(&self, centroids: &Matrix, threads: usize, labels: &mut [usize]) -> Assignment {
        assign(self, centroids, threads, labels)
    }
}

/// Configuration for [`KMeans::fit`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters K.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on total squared centroid movement.
    pub tol: f32,
    /// RNG seed (all training is deterministic given the seed).
    pub seed: u64,
    /// Worker threads for the assignment step (1 = single-core).
    pub threads: usize,
}

impl KMeansConfig {
    /// Defaults matching scikit-learn: k-means++ init, 50 iterations,
    /// tol 1e-4, single-threaded.
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iters: 50,
            tol: 1e-4,
            seed: 0xC0FFEE,
            threads: 1,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iters(mut self, n: usize) -> Self {
        self.max_iters = n;
        self
    }
}

/// A fitted K-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Matrix,
    /// Final within-cluster sum of squared distances (the paper's SSE /
    /// Eq. 1 objective).
    pub inertia: f32,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeans {
    /// Trains on `data` (samples × features).
    ///
    /// `k` is clamped to the number of samples. With no samples at all the
    /// model has a single all-zeros centroid so that `predict` stays total.
    pub fn fit(data: &Matrix, cfg: &KMeansConfig) -> KMeans {
        Self::fit_set(data, cfg)
    }

    /// [`KMeans::fit`] over any [`TrainSet`] representation — the packed
    /// bit matrix trains here without ever expanding to floats.
    pub fn fit_set<D: TrainSet>(data: &D, cfg: &KMeansConfig) -> KMeans {
        let n = data.n_samples();
        let d = data.n_dims();
        if n == 0 {
            return KMeans {
                centroids: Matrix::zeros(1, d),
                inertia: 0.0,
                iterations: 0,
            };
        }
        let k = cfg.k.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut centroids = kmeans_pp_init(data, k, &mut rng);

        let mut labels = vec![0usize; n];
        let mut inertia = f32::INFINITY;
        let mut iterations = 0;

        for iter in 0..cfg.max_iters.max(1) {
            iterations = iter + 1;
            let a = data.assign(&centroids, cfg.threads, &mut labels);
            inertia = a.sse;

            // Recompute centroids; repair empty clusters by stealing the
            // sample farthest from its assigned centroid.
            let mut new_centroids = Matrix::zeros(k, d);
            for c in 0..k {
                if a.counts[c] == 0 {
                    let far = farthest_sample(data, &centroids, &labels);
                    data.write_row(far, new_centroids.row_mut(c));
                } else {
                    let inv = 1.0 / a.counts[c] as f32;
                    for (dst, &s) in new_centroids.row_mut(c).iter_mut().zip(&a.sums[c * d..(c + 1) * d]) {
                        *dst = s * inv;
                    }
                }
            }

            let shift: f32 = (0..k)
                .map(|c| sq_dist(centroids.row(c), new_centroids.row(c)))
                .sum();
            centroids = new_centroids;
            if shift <= cfg.tol {
                break;
            }
        }

        // Final consistent inertia for the returned centroids.
        let a = data.assign(&centroids, cfg.threads, &mut labels);
        inertia = a.sse.min(inertia);

        KMeans {
            centroids,
            inertia,
            iterations,
        }
    }

    /// Builds a model directly from centroids (the store's untrained
    /// placeholder model). `inertia` is NaN; [`KMeans::sse`] computes it
    /// against data.
    pub fn from_centroids(centroids: Matrix, iterations: usize) -> KMeans {
        KMeans {
            centroids,
            inertia: f32::NAN,
            iterations,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Feature dimensionality.
    pub fn dims(&self) -> usize {
        self.centroids.cols()
    }

    /// Centroid of cluster `c`.
    pub fn centroid(&self, c: usize) -> &[f32] {
        self.centroids.row(c)
    }

    /// All centroids as a matrix.
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Index of the nearest centroid to `x` — `model.predict(D)` of the
    /// paper's Algorithm 2.
    pub fn predict(&self, x: &[f32]) -> usize {
        nearest(&self.centroids, x).0
    }

    /// Squared distance from `x` to every centroid, written into `out`;
    /// returns the argmin cluster. The allocation-free float scan — the
    /// reference the bit-domain scorer ([`crate::pca::FoldedPredictor`],
    /// over the raw bits or PCA space) is tested against.
    ///
    /// # Panics
    /// Panics if `out.len() != self.k()`.
    pub fn distances_into(&self, x: &[f32], out: &mut [f32]) -> usize {
        assert_eq!(out.len(), self.k(), "distance buffer length mismatch");
        let mut best = (0usize, f32::INFINITY);
        for (c, (slot, row)) in out.iter_mut().zip(self.centroids.iter_rows()).enumerate() {
            let dist = sq_dist(row, x);
            *slot = dist;
            if dist < best.1 {
                best = (c, dist);
            }
        }
        best.0
    }

    /// Labels every row of `data` — `model.labels` of Algorithm 1.
    pub fn labels(&self, data: &Matrix) -> Vec<usize> {
        let mut labels = vec![0usize; data.rows()];
        assign(data, &self.centroids, 1, &mut labels);
        labels
    }

    /// Sum of squared errors of `data` under this model (Eq. 1).
    pub fn sse(&self, data: &Matrix) -> f32 {
        let mut labels = vec![0usize; data.rows()];
        assign(data, &self.centroids, 1, &mut labels).sse
    }
}

fn nearest(centroids: &Matrix, x: &[f32]) -> (usize, f32) {
    let mut best = (0usize, f32::INFINITY);
    for (c, row) in centroids.iter_rows().enumerate() {
        let dist = sq_dist(row, x);
        if dist < best.1 {
            best = (c, dist);
        }
    }
    best
}

/// Assignment step: labels every sample, accumulating per-cluster sums,
/// counts and the SSE. Parallelized over contiguous row chunks.
fn assign(data: &Matrix, centroids: &Matrix, threads: usize, labels: &mut [usize]) -> Assignment {
    let n = data.rows();
    let k = centroids.rows();
    let d = data.cols();
    let threads = threads.max(1).min(n.max(1));

    if threads == 1 || n < 256 {
        let mut a = Assignment::zeros(k, d);
        for (i, label) in labels.iter_mut().enumerate().take(n) {
            let (c, dist) = nearest(centroids, data.row(i));
            *label = c;
            a.counts[c] += 1;
            a.sse += dist;
            for (s, &x) in a.sums[c * d..(c + 1) * d].iter_mut().zip(data.row(i)) {
                *s += x;
            }
        }
        return a;
    }

    let chunk = n.div_ceil(threads);
    let mut partials: Vec<Assignment> = Vec::with_capacity(threads);
    let label_chunks: Vec<&mut [usize]> = labels.chunks_mut(chunk).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, label_chunk) in label_chunks.into_iter().enumerate() {
            let start = t * chunk;
            handles.push(scope.spawn(move || {
                let mut a = Assignment::zeros(k, d);
                for (off, l) in label_chunk.iter_mut().enumerate() {
                    let row = data.row(start + off);
                    let (c, dist) = nearest(centroids, row);
                    *l = c;
                    a.counts[c] += 1;
                    a.sse += dist;
                    for (s, &x) in a.sums[c * d..(c + 1) * d].iter_mut().zip(row) {
                        *s += x;
                    }
                }
                a
            }));
        }
        for h in handles {
            partials.push(h.join().expect("kmeans worker panicked"));
        }
    });

    let mut merged = Assignment::zeros(k, d);
    for p in partials {
        merged.sse += p.sse;
        for (m, c) in merged.counts.iter_mut().zip(&p.counts) {
            *m += c;
        }
        for (m, s) in merged.sums.iter_mut().zip(&p.sums) {
            *m += s;
        }
    }
    merged
}

fn farthest_sample<D: TrainSet>(data: &D, centroids: &Matrix, labels: &[usize]) -> usize {
    let mut best = (0usize, -1.0f32);
    for (i, &label) in labels.iter().enumerate().take(data.n_samples()) {
        let d = data.dist_to_centroid(i, centroids.row(label));
        if d > best.1 {
            best = (i, d);
        }
    }
    best.0
}

/// Copies the selected samples into a float centroid matrix.
fn gather<D: TrainSet>(data: &D, idx: &[usize]) -> Matrix {
    let mut m = Matrix::zeros(idx.len(), data.n_dims());
    for (r, &i) in idx.iter().enumerate() {
        data.write_row(i, m.row_mut(r));
    }
    m
}

/// k-means++ seeding: first centroid uniform, then D²-weighted.
///
/// Sample-to-sample distances go through [`TrainSet::sample_sq_dist`]; on
/// 0/1 data those are exact integers in both representations, so the packed
/// and float paths draw *identical* seeds from the same RNG stream.
fn kmeans_pp_init<D: TrainSet>(data: &D, k: usize, rng: &mut StdRng) -> Matrix {
    let n = data.n_samples();
    let mut chosen = Vec::with_capacity(k);
    chosen.push(rng.gen_range(0..n));
    let mut dist2: Vec<f32> = (0..n).map(|i| data.sample_sq_dist(i, chosen[0])).collect();

    while chosen.len() < k {
        let total: f32 = dist2.iter().sum();
        let next = if total <= f32::EPSILON {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f32>() * total;
            let mut pick = n - 1;
            for (i, &d) in dist2.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        chosen.push(next);
        for (i, slot) in dist2.iter_mut().enumerate().take(n) {
            let d = data.sample_sq_dist(i, next);
            if d < *slot {
                *slot = d;
            }
        }
    }
    gather(data, &chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-D blobs.
    fn blobs() -> Matrix {
        let mut rows = Vec::new();
        let centers = [(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 10.0)];
        let mut rng = StdRng::seed_from_u64(7);
        for &(cx, cy) in &centers {
            for _ in 0..50 {
                rows.push(vec![
                    cx + rng.gen::<f32>() - 0.5,
                    cy + rng.gen::<f32>() - 0.5,
                ]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn recovers_separated_blobs() {
        let data = blobs();
        let m = KMeans::fit(&data, &KMeansConfig::new(3).with_seed(1));
        let labels = m.labels(&data);
        // Each blob is internally consistent…
        for blob in 0..3 {
            let l0 = labels[blob * 50];
            assert!(labels[blob * 50..(blob + 1) * 50].iter().all(|&l| l == l0));
        }
        // …and blobs are mutually distinct.
        assert_ne!(labels[0], labels[50]);
        assert_ne!(labels[50], labels[100]);
        assert!(m.inertia < 100.0);
    }

    #[test]
    fn table2_worked_example() {
        // The paper's Table II: 6 memory entries forming 3 pairs. The text
        // gives the exact expected centroids.
        let rows: Vec<Vec<f32>> = vec![
            vec![0., 0., 0., 0., 0., 1., 1., 1.],
            vec![0., 0., 0., 0., 1., 0., 1., 1.],
            vec![0., 0., 1., 0., 1., 1., 0., 0.],
            vec![0., 0., 1., 1., 1., 1., 0., 0.],
            vec![1., 1., 0., 1., 0., 0., 0., 0.],
            vec![0., 1., 1., 1., 0., 0., 0., 0.],
        ];
        let data = Matrix::from_rows(&rows);
        let m = KMeans::fit(&data, &KMeansConfig::new(3).with_seed(42));
        let labels = m.labels(&data);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[4]);
        assert_ne!(labels[2], labels[4]);
        // Centroid of the cluster holding rows 0,1 must be the paper's
        // [0 0 0 0 .5 .5 1 1].
        let c = m.centroid(labels[0]);
        let expected = [0.0f32, 0., 0., 0., 0.5, 0.5, 1., 1.];
        for (a, b) in c.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-6, "{c:?} != {expected:?}");
        }
        // And the paper's claim: writing d1=[0,0,0,0,1,1,1,1] into its
        // cluster flips exactly 1 bit against either member.
        let d1 = [0.0f32, 0., 0., 0., 1., 1., 1., 1.];
        assert_eq!(m.predict(&d1), labels[0]);
    }

    #[test]
    fn k_clamped_to_samples() {
        let data = Matrix::from_rows(&[vec![0.0f32, 0.0], vec![1.0, 1.0]]);
        let m = KMeans::fit(&data, &KMeansConfig::new(10));
        assert_eq!(m.k(), 2);
    }

    #[test]
    fn k1_centroid_is_mean() {
        let data = Matrix::from_rows(&[vec![0.0f32, 0.0], vec![2.0, 4.0]]);
        let m = KMeans::fit(&data, &KMeansConfig::new(1));
        assert_eq!(m.centroid(0), &[1.0, 2.0]);
    }

    #[test]
    fn empty_data_yields_total_predict() {
        let m = KMeans::fit(&Matrix::zeros(0, 4), &KMeansConfig::new(3));
        assert_eq!(m.predict(&[1.0, 2.0, 3.0, 4.0]), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs();
        let a = KMeans::fit(&data, &KMeansConfig::new(3).with_seed(9));
        let b = KMeans::fit(&data, &KMeansConfig::new(3).with_seed(9));
        assert_eq!(a.centroids(), b.centroids());
    }

    #[test]
    fn multicore_matches_single_core() {
        let data = blobs();
        let a = KMeans::fit(&data, &KMeansConfig::new(3).with_seed(5).with_threads(1));
        let b = KMeans::fit(&data, &KMeansConfig::new(3).with_seed(5).with_threads(4));
        // Same seed, same init, same deterministic reductions per chunk —
        // labels must agree (sums may differ by float association, so
        // compare assignments).
        assert_eq!(a.labels(&data), b.labels(&data));
    }

    #[test]
    fn distances_into_returns_argmin_and_full_vector() {
        let data = blobs();
        let m = KMeans::fit(&data, &KMeansConfig::new(3).with_seed(2));
        let x = data.row(0); // in blob 0
        let mut dist = vec![0.0f32; 3];
        let argmin = m.distances_into(x, &mut dist);
        assert_eq!(argmin, m.predict(x));
        for (c, &d) in dist.iter().enumerate() {
            assert_eq!(d, sq_dist(m.centroid(c), x));
            assert!(dist[argmin] <= d);
        }
    }

    #[test]
    fn duplicate_points_dont_hang_kmeanspp() {
        let data = Matrix::from_rows(&vec![vec![1.0f32, 1.0]; 20]);
        let m = KMeans::fit(&data, &KMeansConfig::new(4).with_seed(0));
        assert!(m.inertia <= f32::EPSILON);
    }

    #[test]
    fn sse_decreases_with_k() {
        let data = blobs();
        let s1 = KMeans::fit(&data, &KMeansConfig::new(1).with_seed(1)).inertia;
        let s3 = KMeans::fit(&data, &KMeansConfig::new(3).with_seed(1)).inertia;
        assert!(s3 < s1);
    }
}
