//! Principal component analysis (§V-A.1, "Addressing the Curse of
//! Dimensionality").
//!
//! Large values featurize into thousands of bit-dimensions; the paper
//! projects them onto the leading principal components before clustering
//! (Figure 3 keeps the first components explaining >80% of the variance for
//! MNIST).
//!
//! Implementation: the Gram trick. For n samples × d features with n ≤ d we
//! eigendecompose the n×n Gram matrix instead of the d×d covariance — the
//! nonzero eigenvalues coincide and each covariance eigenvector is recovered
//! as `Xᵀu / ‖Xᵀu‖`. When d < n the float fit decomposes the covariance
//! directly.
//!
//! The inputs are always bits, so the store's path never leaves the bit
//! domain:
//!
//! * **Fit** — [`Pca::fit_packed`] builds the Gram matrix from a
//!   [`PackedMatrix`] by AND-popcount (`⟨xᵢ, xⱼ⟩` of two 0/1 rows is the
//!   number of bits they share) and centers it in f64
//!   (`⟨xᵢ−μ, xⱼ−μ⟩ = Gᵢⱼ − rᵢ − rⱼ + m`); [`Pca::fit`] on a float matrix
//!   is the reference it is tested against.
//! * **Project** — [`BitProjector`] maps raw bytes to PCA space as an affine
//!   function of the set bits, `y = o + Σ_{set bits j} W[:, j]` with
//!   `o = −Wμ`.
//! * **Predict** — [`FoldedPredictor`] folds the basis into the PCA-space
//!   centroids: `‖y − c_k‖² = ‖y‖² + b_k − 2⟨g_k, x⟩` with `g_k = Wᵀc_k`
//!   (one weight per value bit) and `b_k = ‖c_k‖² − 2 c_k·o`. `‖y‖²` is the
//!   same for every k, so the argmin and the nearest-first ranking need only
//!   the K affine scores `b_k − 2⟨g_k, x⟩`. The fold quantizes them: `i8`
//!   weights and `i32` biases under one scale per model, scored word by
//!   word in exact integer dot products ([`crate::simd`]'s word-dot kernel)
//!   — K rows of 64 bytes per value word instead of `n_components` float
//!   lanes per set bit plus a K × `n_components` scan. A model over the raw
//!   bits is the fold of the identity map
//!   ([`FoldedPredictor::from_centroids`]), so every model predicts, and
//!   K-means over packed bits assigns, through this one scorer.
//!
//! Training's projections (the sample, [`Pca::refresh_packed`]) stay in
//! f32 through the per-set-bit accumulation; nothing on a store's
//! operation path scores through it.

use crate::linalg::sym_eigen;
use crate::matrix::Matrix;
use crate::packedmatrix::PackedMatrix;
use crate::simd;

/// A fitted PCA projection.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f32>,
    /// `n_components × d`, rows are unit principal axes.
    components: Matrix,
    /// Full eigenvalue spectrum (descending, length `min(n-1, d)` nonzero
    /// entries at most).
    spectrum: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits on `data` (samples × features), retaining `n_components`
    /// components (clamped to the spectrum's length) — the float reference;
    /// the store fits bit-valued samples with [`Pca::fit_packed`].
    pub fn fit(data: &Matrix, n_components: usize) -> Pca {
        let n = data.rows();
        let d = data.cols();
        if n == 0 || d == 0 {
            return Pca::empty(d);
        }
        let mean = data.col_mean();
        let xc = data.centered(&mean);
        let denom = (n.max(2) - 1) as f64;

        let (spectrum, components) = if n <= d {
            // Gram trick: G[i][j] = <xi, xj> / (n-1).
            let mut g = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..=i {
                    let v = f64::from(crate::matrix::dot(xc.row(i), xc.row(j))) / denom;
                    g[i * n + j] = v;
                    g[j * n + i] = v;
                }
            }
            axes_from_gram(&g, n, n_components, |kept| {
                let mut w = Matrix::zeros(kept.len(), d);
                for (c, u) in kept.iter().enumerate() {
                    let uf: Vec<f32> = u.iter().map(|&x| x as f32).collect();
                    w.row_mut(c).copy_from_slice(&xc.t_mat_vec(&uf));
                }
                w
            })
        } else {
            // Direct covariance: C = XcᵀXc / (n-1), d×d.
            let mut c = vec![0.0f64; d * d];
            for row in xc.iter_rows() {
                for i in 0..d {
                    let ri = f64::from(row[i]);
                    if ri == 0.0 {
                        continue;
                    }
                    for j in 0..=i {
                        c[i * d + j] += ri * f64::from(row[j]);
                    }
                }
            }
            for i in 0..d {
                for j in 0..=i {
                    let v = c[i * d + j] / denom;
                    c[i * d + j] = v;
                    c[j * d + i] = v;
                }
            }
            let eig = sym_eigen(&c, d);
            let keep = n_components.min(d);
            let mut comp = Matrix::zeros(keep, d);
            for k in 0..keep {
                for (j, &x) in eig.vectors[k].iter().enumerate() {
                    comp.set(k, j, x as f32);
                }
            }
            (eig.values, comp)
        };
        Pca::from_parts(mean, components, spectrum)
    }

    /// [`Pca::fit`] for bit-valued samples, without ever expanding them to
    /// floats: the Gram matrix is AND-popcounts over the packed rows,
    /// double-centered in f64, and the principal axes are recovered by
    /// walking each row's set bits. Always takes the Gram route (the
    /// eigensolve is n×n, and callers cap n), so for d < n the spectrum
    /// carries n − d trailing zeros the covariance route would not.
    pub fn fit_packed(data: &PackedMatrix, n_components: usize) -> Pca {
        let n = data.rows();
        let d = data.dims();
        if n == 0 || d == 0 {
            return Pca::empty(d);
        }
        let mean = data.col_mean();
        let denom = (n.max(2) - 1) as f64;

        // G[i][j] = |xi ∧ xj| is an exact integer; centering needs only its
        // row means r and grand mean m.
        let mut g = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let shared = data.shared_bits(i, j) as f64;
                g[i * n + j] = shared;
                g[j * n + i] = shared;
            }
        }
        let row_mean: Vec<f64> = g
            .chunks_exact(n)
            .map(|row| row.iter().sum::<f64>() / n as f64)
            .collect();
        let grand_mean = row_mean.iter().sum::<f64>() / n as f64;
        for (i, row) in g.chunks_exact_mut(n).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (*v - row_mean[i] - row_mean[j] + grand_mean) / denom;
            }
        }

        let (spectrum, components) = axes_from_gram(&g, n, n_components, |kept| {
            // Xcᵀu = Σᵢ uᵢ·xᵢ − μ·Σᵢ uᵢ for every kept u at once: bit-major
            // accumulators, so each set bit adds one contiguous stripe.
            let nk = kept.len();
            let mut by_bit = vec![0.0f64; d * nk];
            let mut coef = vec![0.0f64; nk];
            for i in 0..n {
                for (c, u) in coef.iter_mut().zip(kept) {
                    *c = u[i];
                }
                data.for_each_set_bit(i, |j| {
                    for (acc, c) in by_bit[j * nk..(j + 1) * nk].iter_mut().zip(&coef) {
                        *acc += c;
                    }
                });
            }
            let u_sum: Vec<f64> = kept.iter().map(|u| u.iter().sum()).collect();
            let mut w = Matrix::zeros(nk, d);
            for (j, stripe) in by_bit.chunks_exact(nk.max(1)).enumerate() {
                for (c, &acc) in stripe.iter().enumerate() {
                    w.set(c, j, (acc - f64::from(mean[j]) * u_sum[c]) as f32);
                }
            }
            w
        });
        Pca::from_parts(mean, components, spectrum)
    }

    /// Re-fits this basis to `data` **warm**: two steps (`REFRESH_ITERS`) of
    /// orthogonal (subspace) iteration on the sample covariance, started
    /// from the axes already held, in place of [`Pca::fit_packed`]'s n×n
    /// eigensolve. Each step is `Y = Xc·Wᵀ` (one per-set-bit projection per
    /// sample row), `Z = Xcᵀ·Y` (the same per-set-bit stripe accumulation
    /// the cold fit's back-projection does, then `− μ·Σy`), and modified
    /// Gram–Schmidt over the rows of `Zᵀ`. The iteration tracks the
    /// leading *subspace*, not the individual eigenpairs — there is no
    /// Rayleigh–Ritz step, because K-means distances in the projected
    /// space depend only on the subspace — so a refreshed basis carries no
    /// spectrum ([`Pca::explained_variance_ratio`] is empty).
    ///
    /// Returns `false`, leaving the basis unspecified, when it cannot be
    /// refreshed and the caller must fit cold: no axes to start from, a
    /// dimension mismatch, fewer than two rows, or a Gram–Schmidt norm that
    /// vanishes (the sample's rank fell below the axis count).
    pub fn refresh_packed(&mut self, data: &PackedMatrix, scratch: &mut RefreshScratch) -> bool {
        let (n, d, nc) = (data.rows(), data.dims(), self.n_components());
        if n < 2 || nc == 0 || d != self.input_dims() {
            return false;
        }
        self.mean = data.col_mean();
        self.spectrum.clear();
        self.total_variance = 0.0;
        let lanes = padded_lanes(nc);
        let RefreshScratch { table, by_bit, row } = scratch;
        table.resize(d * lanes, 0.0);
        by_bit.resize(d * lanes, 0.0);
        row.resize(data.bytes_per_row(), 0);
        let mut y = vec![0.0f32; nc];
        for _ in 0..REFRESH_ITERS {
            // The projector of the current axes, in the per-bit layout.
            for (j, stripe) in table.chunks_exact_mut(lanes).enumerate() {
                for (c, slot) in stripe[..nc].iter_mut().enumerate() {
                    *slot = self.components.get(c, j);
                }
            }
            let offset: Vec<f32> = (0..nc)
                .map(|c| -crate::matrix::dot(self.components.row(c), &self.mean))
                .collect();
            by_bit.fill(0.0);
            let mut y_sum = vec![0.0f64; nc];
            for i in 0..n {
                for (bytes, w) in row.chunks_mut(8).zip(data.row_words(i)) {
                    bytes.copy_from_slice(&w.to_le_bytes()[..bytes.len()]);
                }
                y.copy_from_slice(&offset);
                crate::simd::bit_accumulate(table, lanes, row, &mut y);
                data.for_each_set_bit(i, |j| {
                    for (acc, &v) in by_bit[j * lanes..][..nc].iter_mut().zip(&y) {
                        *acc += v;
                    }
                });
                for (s, &v) in y_sum.iter_mut().zip(&y) {
                    *s += f64::from(v);
                }
            }
            for (j, stripe) in by_bit.chunks_exact(lanes).enumerate() {
                for (c, &acc) in stripe[..nc].iter().enumerate() {
                    let z = f64::from(acc) - f64::from(self.mean[j]) * y_sum[c];
                    self.components.set(c, j, z as f32);
                }
            }
            if !orthonormalize_rows(&mut self.components) {
                return false;
            }
        }
        true
    }

    /// The fit of no data: no components, zero mean.
    fn empty(d: usize) -> Pca {
        Pca::from_parts(vec![0.0; d], Matrix::zeros(0, d), Vec::new())
    }

    fn from_parts(mean: Vec<f32>, components: Matrix, spectrum: Vec<f64>) -> Pca {
        let spectrum: Vec<f64> = spectrum.into_iter().map(|v| v.max(0.0)).collect();
        let total_variance: f64 = spectrum.iter().sum();
        Pca {
            mean,
            components,
            spectrum,
            total_variance,
        }
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// Input dimensionality.
    pub fn input_dims(&self) -> usize {
        self.components.cols()
    }

    /// Explained-variance ratio per spectral component (descending) — the
    /// series behind Figure 3.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        if self.total_variance <= 0.0 {
            return vec![0.0; self.spectrum.len()];
        }
        self.spectrum
            .iter()
            .map(|v| v / self.total_variance)
            .collect()
    }

    /// Cumulative explained-variance ratio (the y-axis of Figure 3).
    pub fn cumulative_variance_ratio(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.explained_variance_ratio()
            .into_iter()
            .map(|v| {
                acc += v;
                acc
            })
            .collect()
    }

    /// Smallest number of components whose cumulative variance ratio
    /// reaches `target` (e.g. 0.8 as in the paper's MNIST example).
    pub fn components_for_variance(&self, target: f64) -> usize {
        for (i, c) in self.cumulative_variance_ratio().iter().enumerate() {
            if *c >= target {
                return i + 1;
            }
        }
        self.spectrum.len()
    }

    /// Projects a single sample onto the retained components.
    pub fn transform_row(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        let centered: Vec<f32> = x.iter().zip(&self.mean).map(|(a, m)| a - m).collect();
        self.components.mat_vec(&centered)
    }

    /// Projects every row of `data`.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        if data.rows() == 0 {
            return Matrix::zeros(0, self.n_components());
        }
        let rows: Vec<Vec<f32>> = data.iter_rows().map(|r| self.transform_row(r)).collect();
        Matrix::from_rows(&rows)
    }

    /// Builds the byte-level fast projector for this basis. The input
    /// dimensionality must be a whole number of bytes (bit features).
    pub fn bit_projector(&self) -> BitProjector {
        // offset[c] = -W[c]·mean
        let offset: Vec<f32> = (0..self.n_components())
            .map(|c| -crate::matrix::dot(self.components.row(c), &self.mean))
            .collect();
        BitProjector::new(self.input_dims(), offset, |j, c| self.components.get(c, j))
    }
}

/// Orthogonal-iteration steps per [`Pca::refresh_packed`]. A constant, not
/// a knob: on the drift workload 1, 2 and 4 steps placed equally well and
/// cost 12 / 18 / 31 ms, and two is the fewest that re-converges inside
/// three refreshes after a wholesale distribution shift.
const REFRESH_ITERS: usize = 2;

/// Buffers [`Pca::refresh_packed`] reuses from call to call (the thread
/// that retrains keeps one): two `dims × n_components` per-bit tables and
/// one unpacked sample row.
#[derive(Debug, Default)]
pub struct RefreshScratch {
    table: Vec<f32>,
    by_bit: Vec<f32>,
    row: Vec<u8>,
}

/// Modified Gram–Schmidt over the rows of `m`, in place. `false` when a
/// row has (numerically) nothing left after the earlier rows are taken out
/// of it — the rows do not span `m.rows()` dimensions.
fn orthonormalize_rows(m: &mut Matrix) -> bool {
    let d = m.cols();
    for c in 0..m.rows() {
        let (done, rest) = m.as_mut_slice().split_at_mut(c * d);
        let row = &mut rest[..d];
        let before = crate::matrix::dot(row, row).sqrt();
        for prev in done.chunks_exact(d) {
            let r = crate::matrix::dot(prev, row);
            for (x, &p) in row.iter_mut().zip(prev) {
                *x -= r * p;
            }
        }
        let norm = crate::matrix::dot(row, row).sqrt();
        if norm <= 1e-5 * before || !norm.is_finite() {
            return false;
        }
        for x in row {
            *x /= norm;
        }
    }
    true
}

/// Eigendecomposes a centered, `1/(n−1)`-scaled n×n Gram matrix and
/// recovers the leading principal axes: `back_project` maps the kept
/// eigenvectors `u` (at most `keep`, null-space ones dropped) to the rows
/// `Xcᵀu`, which are normalized here. Returns the full spectrum and the
/// axes.
fn axes_from_gram(
    g: &[f64],
    n: usize,
    keep: usize,
    back_project: impl FnOnce(&[&[f64]]) -> Matrix,
) -> (Vec<f64>, Matrix) {
    let eig = sym_eigen(g, n);
    let kept: Vec<&[f64]> = eig
        .values
        .iter()
        .zip(&eig.vectors)
        .take(keep)
        // Null space — no principal axis to recover.
        .take_while(|(lam, _)| **lam > 1e-12)
        .map(|(_, u)| u.as_slice())
        .collect();
    let mut axes = back_project(&kept);
    for c in 0..axes.rows() {
        let row = axes.row_mut(c);
        let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in row {
                *x /= norm;
            }
        }
    }
    (eig.values, axes)
}

/// Row stride of a per-bit table with `n` outputs: padded to whole 8-lane
/// SIMD registers. A single output stays unpadded: a one-axis basis is
/// never worth 8× the memory.
fn padded_lanes(n: usize) -> usize {
    if n <= 1 {
        n
    } else {
        n.next_multiple_of(8)
    }
}

/// An affine map from a raw *byte* value's bits to `n_components` floats,
/// `y = offset + Σ_{set bits j} table[j]` — for a PCA basis, the projection
/// `W(x − μ)` without the intermediate bit-feature vector.
///
/// For a value with `s` set bits this costs `s × n_components` additions
/// instead of `dims × n_components` multiply-adds — a large win for the
/// sparse datasets (bags-of-words, access samples) and a constant win in
/// allocations for everything. The table holds one row per bit-feature,
/// padded to whole SIMD registers, so each set bit adds one contiguous
/// stripe ([`crate::simd`]'s per-set-bit kernel). Training projects
/// through it; prediction scores through its fold, [`FoldedPredictor`].
#[derive(Debug, Clone)]
pub struct BitProjector {
    input_bytes: usize,
    /// Row stride of `table` (`offset.len()` padded, see [`padded_lanes`]).
    lanes: usize,
    /// dims × lanes, row per bit-feature; pad lanes are zero.
    table: Vec<f32>,
    /// The constant term — `-W·mean` for a PCA basis.
    offset: Vec<f32>,
}

impl BitProjector {
    /// The map over `dims` bit-features with constant term `offset` and
    /// `weight(j, c)` the contribution of bit `j` to output `c`.
    ///
    /// # Panics
    /// Panics if `dims` is not a whole number of bytes.
    fn new(dims: usize, offset: Vec<f32>, weight: impl Fn(usize, usize) -> f32) -> Self {
        assert_eq!(dims % 8, 0, "bit features are byte-aligned");
        let lanes = padded_lanes(offset.len());
        let mut table = vec![0.0f32; dims * lanes];
        for (j, row) in table.chunks_exact_mut(lanes.max(1)).enumerate() {
            for (c, slot) in row[..offset.len()].iter_mut().enumerate() {
                *slot = weight(j, c);
            }
        }
        BitProjector {
            input_bytes: dims / 8,
            lanes,
            table,
            offset,
        }
    }

    /// Number of output components.
    pub fn n_components(&self) -> usize {
        self.offset.len()
    }

    /// Expected input length in bytes.
    pub fn input_bytes(&self) -> usize {
        self.input_bytes
    }

    /// DRAM held by the table and the constant term, in bytes.
    pub fn table_bytes(&self) -> usize {
        (self.table.len() + self.offset.len()) * std::mem::size_of::<f32>()
    }

    /// Projects a raw byte value (must match the fitted dimensionality).
    pub fn project(&self, bytes: &[u8]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.n_components()];
        self.project_into(bytes, &mut y);
        y
    }

    /// Projects a raw byte value into a caller-provided buffer — the
    /// allocation-free variant a training run's projection loop uses.
    ///
    /// # Panics
    /// Panics if `bytes` does not match the fitted dimensionality or
    /// `out.len() != self.n_components()`.
    pub fn project_into(&self, bytes: &[u8], out: &mut [f32]) {
        assert_eq!(bytes.len(), self.input_bytes, "dimension mismatch");
        assert_eq!(out.len(), self.n_components(), "output buffer mismatch");
        out.copy_from_slice(&self.offset);
        crate::simd::bit_accumulate(&self.table, self.lanes, bytes, out);
    }

    /// Projects every value into one samples × `n_components` matrix — the
    /// training set's trip to PCA space, straight from the stored bytes.
    pub fn project_values<V: AsRef<[u8]>>(&self, values: &[V]) -> Matrix {
        let mut out = Matrix::zeros(values.len(), self.n_components());
        for (i, v) in values.iter().enumerate() {
            self.project_into(v.as_ref(), out.row_mut(i));
        }
        out
    }

    /// The constant term of the map, `o` (`−W·mean` for a PCA basis).
    pub fn offset(&self) -> &[f32] {
        &self.offset
    }

    /// Bit `j`'s row of the map, `W[:, j]`: what the bit adds to each
    /// output when it is set.
    ///
    /// # Panics
    /// Panics if `j` is not a bit of the input.
    pub fn bit_weights(&self, j: usize) -> &[f32] {
        &self.table[j * self.lanes..][..self.n_components()]
    }

    /// Folds centroids living in this projection's output space back onto
    /// the value bits (see the module docs): the result scores a raw value
    /// against every centroid without projecting it.
    ///
    /// # Panics
    /// Panics if `centroids.cols() != self.n_components()`.
    pub fn fold(&self, centroids: &Matrix) -> FoldedPredictor {
        let nc = self.n_components();
        assert_eq!(centroids.cols(), nc, "centroids are not in projected space");
        // b_k = ‖c_k‖² − 2 c_k·o
        let bias: Vec<f64> = (0..centroids.rows())
            .map(|k| {
                centroids
                    .row(k)
                    .iter()
                    .zip(&self.offset)
                    .map(|(&x, &o)| f64::from(x) * (f64::from(x) - 2.0 * f64::from(o)))
                    .sum()
            })
            .collect();
        // weight(j, k) = −2·g_k[j] = −2·Σ_c W[c][j]·c_k[c]; the factor is
        // folded in here so a score is one accumulation, no epilogue.
        FoldedPredictor::quantize(self.input_bytes * 8, &bias, |j, k| {
            let g: f64 = self
                .bit_weights(j)
                .iter()
                .zip(centroids.row(k))
                .map(|(&w, &c)| f64::from(w) * f64::from(c))
                .sum();
            -2.0 * g
        })
    }
}

/// Bound on a [`FoldedPredictor`] score's magnitude: every integer up to
/// 2²⁴ is an `f32`, so the scores land in f32 scratch without rounding.
const SCORE_LIMIT: f64 = (1u32 << 24) as f64 - 1.0;

/// K-means prediction over a value's bits with the feature map folded into
/// the centroids, scored in integers — the one scorer of every model, and
/// of the packed training set's assignment step. Cluster k's float score is
/// `S_k = b_k + Σ_{set bits j} w_jk`, the squared distance to centroid k in
/// the model's feature space **minus the per-value constant** `‖y‖²` (see
/// the module docs). Its integer score is
/// `round(s·(b_k − min b)) + Σ_{set j} round(s·(w_jk − m_j))`, with `i8`
/// weights and `i32` biases.
///
/// * **Shifts.** `min b` is the smallest bias and `m_j` the midrange of bit
///   j's weights over the clusters. Both add the same amount to every
///   score of a value, so neither moves the argmin; centring each bit
///   shrinks the largest `|weight|` the `i8` range must hold (about 1.7×
///   on image models), so the scale can grow by as much.
/// * **Scale.** One `s` per model, the largest that keeps every weight in
///   `±127` and the worst-case `|score|` (every weight of one sign set)
///   below 2²⁴, so each score is an exact `f32`.
/// * **Error.** Each weight and bias is within ½ of its scaled value, so a
///   score is within `(set_bits + 1) / 2` of `s·(S_k − min b − Σ_{set j}
///   m_j)`, and any two scores' difference within `set_bits + 1` of
///   `s·(S_a − S_b)`: an argmin moves only between clusters whose float
///   scores are within `(set_bits + 1) / s` of each other.
/// * **Exactness.** The sums are integer, so every compiled kernel path
///   ([`crate::simd`]'s word-dot: AVX-512 VNNI, AVX2, portable) returns the
///   same scores; ties go to the lower index.
///
/// The table is `K` rows of 64 bytes per value *word*, so it stays
/// cache-sized for large values (62 KB at 784 B and K = 10), at a cost of
/// words × K whatever the value's content.
#[derive(Debug, Clone)]
pub struct FoldedPredictor {
    input_bytes: usize,
    k: usize,
    /// `words × k` rows of 64 weights, word-major: row `w·k + c` holds
    /// cluster c's weights for the bits of value word w (tail bits zero).
    table: Vec<i8>,
    /// `round(s·(b_k − min b))`, all ≥ 0.
    bias: Vec<i32>,
    scale: f64,
}

/// Clusters scored per kernel call: the size of the stack buffer
/// [`FoldedPredictor::distances_into`] sums in.
const SCORE_CHUNK: usize = 64;

impl FoldedPredictor {
    /// The fold of the identity map: centroids over the raw bit features
    /// themselves (`g_k = c_k`, `b_k = ‖c_k‖²`), so a score is the squared
    /// distance `‖x − c_k‖²` less the value's popcount, scaled.
    ///
    /// # Panics
    /// Panics if the feature dimensionality is not a whole number of bytes.
    pub fn from_centroids(centroids: &Matrix) -> Self {
        let norms: Vec<f64> = (0..centroids.rows())
            .map(|k| centroids.row(k).iter().map(|&v| f64::from(v).powi(2)).sum())
            .collect();
        FoldedPredictor::quantize(centroids.cols(), &norms, |j, k| {
            -2.0 * f64::from(centroids.get(k, j))
        })
    }

    /// Quantizes the float scores `bias[k] + Σ_{set bits j} weight(j, k)`
    /// over `dims` bit-features (see the type docs).
    ///
    /// # Panics
    /// Panics if `dims` is not a whole number of bytes, or is too wide for
    /// any scale to keep the scores below 2²⁴ (over 2²⁵ bits).
    fn quantize(dims: usize, bias: &[f64], weight: impl Fn(usize, usize) -> f64) -> Self {
        assert_eq!(dims % 8, 0, "bit features are byte-aligned");
        let k = bias.len();
        // Each rounding adds at most ½ to a score's magnitude.
        let headroom = SCORE_LIMIT - (dims + 1) as f64 / 2.0;
        assert!(
            headroom > 0.0,
            "{dims}-bit values are too wide to score exactly"
        );
        let mut weights: Vec<f64> = (0..dims)
            .flat_map(|j| (0..k).map(move |c| (j, c)))
            .map(|(j, c)| weight(j, c))
            .collect();
        for row in weights.chunks_exact_mut(k.max(1)) {
            let (lo, hi) = row
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &w| {
                    (lo.min(w), hi.max(w))
                });
            let mid = (lo + hi) / 2.0;
            row.iter_mut().for_each(|w| *w -= mid);
        }
        let shift = bias.iter().copied().fold(f64::INFINITY, f64::min);
        let largest = weights.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        // A score's worst case: its bias plus every weight, all one sign.
        let reach = (0..k)
            .map(|c| {
                let spread: f64 = weights.iter().skip(c).step_by(k).map(|w| w.abs()).sum();
                bias[c] - shift + spread
            })
            .fold(0.0f64, f64::max);
        let scale = [127.0 / largest, headroom / reach]
            .into_iter()
            .filter(|s| s.is_finite())
            .fold(f64::INFINITY, f64::min);
        // One cluster (the untrained placeholder): its centred weights and
        // shifted bias are all zero, and any scale is exact.
        let scale = if scale.is_finite() { scale } else { 1.0 };

        let words = (dims / 8).div_ceil(8);
        let mut table = vec![0i8; words * k * simd::WORD_BITS];
        for (j, row) in weights.chunks_exact(k.max(1)).enumerate() {
            let (word, bit) = (j / simd::WORD_BITS, j % simd::WORD_BITS);
            for (c, &w) in row.iter().enumerate() {
                table[(word * k + c) * simd::WORD_BITS + bit] =
                    (w * scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
        FoldedPredictor {
            input_bytes: dims / 8,
            k,
            table,
            bias: bias
                .iter()
                .map(|&b| ((b - shift) * scale).round() as i32)
                .collect(),
            scale,
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

    /// DRAM held by the weight table and the biases, in bytes.
    pub fn table_bytes(&self) -> usize {
        self.table.len() + self.bias.len() * std::mem::size_of::<i32>()
    }

    /// The model's scale `s`: any two scores of a value differ by `s ×`
    /// their float scores' difference, to within `set_bits + 1`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Writes the K integer scores of `bytes` into `out` (exact `f32`s) and
    /// returns the argmin cluster (ties toward the lower index). Performs no
    /// allocation.
    ///
    /// # Panics
    /// Panics if `bytes.len() != input_bytes` or `out.len() != k`.
    pub fn distances_into(&self, bytes: &[u8], out: &mut [f32]) -> usize {
        assert_eq!(bytes.len(), self.input_bytes, "value length mismatch");
        assert_eq!(out.len(), self.k, "output buffer mismatch");
        let mut sums = [0i32; SCORE_CHUNK];
        for (i, out) in out.chunks_mut(SCORE_CHUNK).enumerate() {
            let first = i * SCORE_CHUNK;
            let sums = &mut sums[..out.len()];
            sums.copy_from_slice(&self.bias[first..first + out.len()]);
            simd::word_dot(&self.table, self.k, first, bytes, sums);
            for (o, &s) in out.iter_mut().zip(sums.iter()) {
                *o = s as f32;
            }
        }
        let mut best = (0usize, f32::INFINITY);
        for (c, &s) in out.iter().enumerate() {
            if s < best.1 {
                best = (c, s);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random byte values around a few random family prototypes (each byte
    /// of a sample is its family's with probability ¾, uniform otherwise):
    /// a handful of dominant principal axes over a noisy tail.
    pub(super) fn family_values(rng: &mut StdRng, n: usize, bytes: usize) -> Vec<Vec<u8>> {
        let protos: Vec<Vec<u8>> = (0..3)
            .map(|_| (0..bytes).map(|_| rng.gen()).collect())
            .collect();
        (0..n)
            .map(|i| {
                protos[i % 3]
                    .iter()
                    .map(|&b| {
                        if rng.gen::<f32>() < 0.75 {
                            b
                        } else {
                            rng.gen()
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Data stretched along a known axis: y = 3x + noise.
    fn line_data(n: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(17);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let t: f32 = rng.gen::<f32>() * 10.0 - 5.0;
                vec![t, 3.0 * t + (rng.gen::<f32>() - 0.5) * 0.1]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn first_component_follows_dominant_axis() {
        let data = line_data(100);
        let pca = Pca::fit(&data, 1);
        let c = pca.components.row(0);
        // Direction ∝ (1, 3)/√10.
        let expected = (1.0f32 / 10.0f32.sqrt(), 3.0 / 10.0f32.sqrt());
        let (a, b) = (c[0].abs(), c[1].abs());
        assert!((a - expected.0).abs() < 0.02, "{c:?}");
        assert!((b - expected.1).abs() < 0.02, "{c:?}");
    }

    #[test]
    fn variance_ratio_concentrates_on_line() {
        let data = line_data(100);
        let pca = Pca::fit(&data, 2);
        let r = pca.explained_variance_ratio();
        assert!(r[0] > 0.99, "{r:?}");
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(pca.components_for_variance(0.8), 1);
    }

    #[test]
    fn gram_and_covariance_paths_agree() {
        // n < d triggers the Gram path; duplicate features give a known
        // answer either way. Compare projections from both paths.
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| {
                let t = i as f32;
                vec![t, 2.0 * t, -t]
            })
            .collect();
        let data = Matrix::from_rows(&rows); // n=5 > d=3 -> covariance path
        let small = data.select_rows(&[0, 1]); // n=2 < d=3 -> Gram path
        let p1 = Pca::fit(&data, 1);
        let p2 = Pca::fit(&small, 1);
        // Both must find the same 1-D subspace (up to sign).
        let a = p1.components.row(0);
        let b = p2.components.row(0);
        let dotab: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        assert!(dotab.abs() > 0.999, "a={a:?} b={b:?}");
    }

    #[test]
    fn transform_reduces_dimensions() {
        let data = line_data(50);
        let pca = Pca::fit(&data, 1);
        let t = pca.transform(&data);
        assert_eq!(t.rows(), 50);
        assert_eq!(t.cols(), 1);
        // Projection preserves the dominant variance: spread along the
        // component is comparable to the original spread.
        let var: f32 = {
            let mean = t.col_mean()[0];
            t.iter_rows().map(|r| (r[0] - mean).powi(2)).sum::<f32>() / 49.0
        };
        assert!(var > 1.0);
    }

    #[test]
    fn cumulative_is_monotone_to_one() {
        let data = line_data(30);
        let pca = Pca::fit(&data, 2);
        let cum = pca.cumulative_variance_ratio();
        for w in cum.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!((cum.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_data_safe() {
        let pca = Pca::fit(&Matrix::zeros(0, 4), 2);
        assert_eq!(pca.n_components(), 0);
        assert!(pca.explained_variance_ratio().is_empty());
    }

    #[test]
    fn constant_data_has_zero_variance() {
        let data = Matrix::from_rows(&vec![vec![5.0f32, 5.0]; 10]);
        let pca = Pca::fit(&data, 2);
        assert!(pca.total_variance.abs() < 1e-9);
    }

    #[test]
    fn bit_projector_matches_transform_row() {
        use crate::featurize::{bits_to_features, featurize_values};
        let values: Vec<Vec<u8>> = (0..20u8)
            .map(|i| vec![i, i.wrapping_mul(3), 0x0F, i])
            .collect();
        let data = featurize_values(&values);
        let pca = Pca::fit(&data, 3);
        let proj = pca.bit_projector();
        for v in &values {
            let slow = pca.transform_row(&bits_to_features(v));
            let fast = proj.project(v);
            assert_eq!(slow.len(), fast.len());
            for (a, b) in slow.iter().zip(&fast) {
                assert!((a - b).abs() < 1e-3, "{slow:?} vs {fast:?}");
            }
        }
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|_| (0..6).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit(&data, 3);
        for i in 0..3 {
            for j in 0..3 {
                let d: f32 = pca
                    .components
                    .row(i)
                    .iter()
                    .zip(pca.components.row(j))
                    .map(|(a, b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-3, "({i},{j}) dot={d}");
            }
        }
    }

    /// Slack for the f64 references' own rounding, in score units: far
    /// below the quantization bound, far above an f64 sum's error.
    const F64_SLACK: f64 = 1e-6;

    /// How far apart the scores' errors against `s ×` their f64 float
    /// scores spread. Each score is within `(set_bits + 1) / 2` of `s ×`
    /// its float score less one constant of the value, so the spread is at
    /// most `set_bits + 1`.
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

    /// The float score of `from_centroids(centroids)` for cluster `k` in
    /// f64: `‖x − c_k‖² − popcount(x)`.
    fn bits_reference(centroids: &Matrix, k: usize, v: &[u8]) -> f64 {
        centroids
            .row(k)
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let x = f64::from(v[j / 8] >> (j % 8) & 1);
                (x - f64::from(c)).powi(2) - x
            })
            .sum()
    }

    #[test]
    fn over_bits_scores_are_packed_distances_minus_popcount() {
        let mut rng = StdRng::seed_from_u64(9);
        for k in [1usize, 2, 10] {
            let rows: Vec<Vec<f32>> = (0..k)
                .map(|_| (0..13 * 8).map(|_| rng.gen::<f32>()).collect())
                .collect();
            let centroids = Matrix::from_rows(&rows);
            let folded = FoldedPredictor::from_centroids(&centroids);
            assert_eq!((folded.k(), folded.input_bytes()), (k, 13));
            // The largest centred weight takes the whole i8 range; one
            // cluster's centred weights are all zero.
            let largest = folded.table.iter().map(|w| w.unsigned_abs()).max();
            assert_eq!(largest, Some(if k == 1 { 0 } else { 127 }));
            let mut scores = vec![0.0f32; k];
            for _ in 0..50 {
                let v: Vec<u8> = (0..13).map(|_| rng.gen()).collect();
                let a = folded.distances_into(&v, &mut scores);
                let bound = (simd::popcount_bytes(&v) as f64 + 1.0) / 2.0 + F64_SLACK;
                let reference: Vec<f64> =
                    (0..k).map(|c| bits_reference(&centroids, c, &v)).collect();
                let spread = error_spread(folded.scale(), &scores, &reference);
                assert!(spread <= 2.0 * bound, "{scores:?} vs {reference:?}");
                let mut order: Vec<usize> = (0..k).collect();
                order.sort_by(|&x, &y| reference[x].total_cmp(&reference[y]));
                let margin = order
                    .get(1)
                    .map_or(f64::INFINITY, |&o| reference[o] - reference[order[0]]);
                if folded.scale() * margin > 2.0 * bound {
                    assert_eq!(a, order[0]);
                }
            }
        }
    }

    #[test]
    fn single_output_tables_stay_unpadded() {
        // The untrained placeholder of a 784 B store: one byte per value
        // bit, one bias, and an all-zero score.
        let placeholder = FoldedPredictor::from_centroids(&Matrix::zeros(1, 784 * 8));
        assert_eq!(placeholder.table_bytes(), 784 * 8 + 4);
        let mut score = [7.0];
        assert_eq!(placeholder.distances_into(&[0xFF; 784], &mut score), 0);
        assert_eq!(score, [0.0]);
        // K = 10: ten rows of 64 bytes per value word, no padding — 62 KB.
        let trained = FoldedPredictor::from_centroids(&Matrix::zeros(10, 784 * 8));
        assert_eq!(trained.table_bytes(), 784 * 8 * 10 + 10 * 4);
        // A tail word is padded to a whole row.
        let odd = FoldedPredictor::from_centroids(&Matrix::zeros(3, 13 * 8));
        assert_eq!(odd.table_bytes(), 2 * 3 * 64 + 3 * 4);
    }

    #[test]
    fn scores_stay_exact_f32s_at_the_largest_bias_spread() {
        // One centroid at zero and two far out on either side: the bias
        // spread, not the i8 range, sets the scale, and the extreme scores
        // (every bit set, none set) still sit inside 2²⁴.
        let (bits, far) = (784 * 8, 1.0e4f32);
        let centroids = Matrix::from_rows(&[vec![0.0; bits], vec![far; bits], vec![-far; bits]]);
        let folded = FoldedPredictor::from_centroids(&centroids);
        assert!(folded.scale() < 127.0 / (2.0 * f64::from(far)));
        let mut scores = [0.0f32; 3];
        for (v, set) in [(vec![0xFFu8; 784], bits), (vec![0u8; 784], 0)] {
            folded.distances_into(&v, &mut scores);
            assert!(scores.iter().all(|s| s.abs() < 16_777_216.0), "{scores:?}");
            let reference: Vec<f64> = (0..3).map(|c| bits_reference(&centroids, c, &v)).collect();
            let spread = error_spread(folded.scale(), &scores, &reference);
            assert!(spread <= set as f64 + 1.0 + 2.0 * F64_SLACK, "{scores:?}");
        }
        // The worst case — cluster 2 with every bit set — uses the range.
        folded.distances_into(&[0xFF; 784], &mut scores);
        assert!(scores[2] > 8_388_608.0, "{scores:?}");
    }

    #[test]
    fn fit_packed_handles_degenerate_inputs() {
        let empty = Pca::fit_packed(&PackedMatrix::from_values::<Vec<u8>>(&[]), 4);
        assert_eq!(empty.n_components(), 0);
        // Identical rows: zero variance, no axis to recover, projector total.
        let constant = Pca::fit_packed(&PackedMatrix::from_values(&[[0x5Au8; 16]; 6]), 4);
        assert_eq!(constant.n_components(), 0);
        assert!(constant.total_variance.abs() < 1e-9);
        assert!(constant.bit_projector().project(&[0u8; 16]).is_empty());

        // The warm refresh declines all of these and leaves the fit to the
        // caller: nothing to start from, the wrong width, too few rows, and
        // a sample whose rank has fallen below the axis count.
        let mut scratch = RefreshScratch::default();
        let mut rng = StdRng::seed_from_u64(5);
        let varied = PackedMatrix::from_values(&family_values(&mut rng, 24, 16));
        assert!(!constant.clone().refresh_packed(&varied, &mut scratch));
        let basis = Pca::fit_packed(&varied, 4);
        assert_eq!(basis.n_components(), 4);
        let wider = PackedMatrix::from_values(&family_values(&mut rng, 24, 24));
        assert!(!basis.clone().refresh_packed(&wider, &mut scratch));
        let one_row = PackedMatrix::from_values(&[[0x5Au8; 16]]);
        assert!(!basis.clone().refresh_packed(&one_row, &mut scratch));
        let flat = PackedMatrix::from_values(&[[0x5Au8; 16]; 6]);
        assert!(!basis.clone().refresh_packed(&flat, &mut scratch));
        let two_kinds = PackedMatrix::from_values(&[[0x5Au8; 16], [0xA5; 16], [0x5A; 16]]);
        assert!(!basis.clone().refresh_packed(&two_kinds, &mut scratch));
    }

    /// Norm of unit `axis` after projection onto the span of `basis`' axes.
    fn norm_inside(axis: &[f32], basis: &Pca) -> f64 {
        let inside: f64 = (0..basis.n_components())
            .map(|c| f64::from(crate::matrix::dot(axis, basis.components.row(c))).powi(2))
            .sum();
        inside.sqrt()
    }

    /// Variance of `values` along the basis' axes, summed over the axes.
    fn captured_variance(basis: &Pca, values: &[Vec<u8>]) -> f64 {
        let y = basis.bit_projector().project_values(values);
        let mean = y.col_mean();
        let sq: f64 = y
            .iter_rows()
            .flat_map(|r| r.iter().zip(&mean).map(|(&v, &m)| f64::from(v - m).powi(2)))
            .sum();
        sq / (values.len() - 1) as f64
    }

    #[test]
    fn warm_refresh_keeps_the_cold_subspace_on_stationary_data() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut scratch = RefreshScratch::default();
        for bytes in [16usize, 61, 160] {
            let values = family_values(&mut rng, 96, bytes);
            let data = PackedMatrix::from_values(&values);
            // On the data it was fit on, the top-6 subspace is a fixed
            // point of the iteration.
            let cold = Pca::fit_packed(&data, 6);
            let mut warm = cold.clone();
            assert!(warm.refresh_packed(&data, &mut scratch));
            assert_eq!(warm.n_components(), 6);
            assert!(warm.explained_variance_ratio().is_empty());
            for c in 0..6 {
                let inside = norm_inside(warm.components.row(c), &cold);
                assert!(inside >= 0.99, "{bytes} B, axis {c}: {inside}");
            }
            for (a, b) in [(0, 0), (0, 1), (2, 5), (5, 5)] {
                let dot = crate::matrix::dot(warm.components.row(a), warm.components.row(b));
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-3, "({a},{b}) dot={dot}");
            }
            // A fresh draw from the same families: the two family axes are
            // the same subspace again (the noise tail is nobody's).
            let redraw: Vec<Vec<u8>> = values
                .iter()
                .map(|v| {
                    v.iter()
                        .map(|&b| if rng.gen::<f32>() < 0.1 { rng.gen() } else { b })
                        .collect()
                })
                .collect();
            let redraw = PackedMatrix::from_values(&redraw);
            let mut warm = Pca::fit_packed(&data, 2);
            assert!(warm.refresh_packed(&redraw, &mut scratch));
            let cold = Pca::fit_packed(&redraw, 2);
            for c in 0..2 {
                let inside = norm_inside(warm.components.row(c), &cold);
                assert!(inside >= 0.99, "{bytes} B redraw, axis {c}: {inside}");
            }
        }
    }

    #[test]
    fn warm_refresh_follows_a_family_shift_within_three_refreshes() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut scratch = RefreshScratch::default();
        for bytes in [32usize, 160] {
            let old = family_values(&mut rng, 128, bytes);
            let new = family_values(&mut rng, 128, bytes);
            let mut basis = Pca::fit_packed(&PackedMatrix::from_values(&old), 6);
            let new_data = PackedMatrix::from_values(&new);
            let cold = captured_variance(&Pca::fit_packed(&new_data, 6), &new);
            let before = captured_variance(&basis, &new);
            assert!(
                before < 0.8 * cold,
                "the shift must matter: {before} vs {cold}"
            );
            for _ in 0..3 {
                assert!(basis.refresh_packed(&new_data, &mut scratch));
            }
            let after = captured_variance(&basis, &new);
            assert!(after >= 0.95 * cold, "{bytes} B: {after} vs cold {cold}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::family_values;
    use super::*;
    use crate::featurize::featurize_values;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cosine(a: &[f32], b: &[f32]) -> f64 {
        let dot = |x: &[f32], y: &[f32]| -> f64 {
            x.iter()
                .zip(y)
                .map(|(&p, &q)| f64::from(p) * f64::from(q))
                .sum()
        };
        dot(a, b) / (dot(a, a) * dot(b, b)).sqrt()
    }

    proptest! {
        /// The packed-Gram fit is the float fit: same spectrum (to 1e-6 of
        /// its largest eigenvalue — the float side rounds its Gram entries
        /// in f32, the packed side's are exact integers) and the same
        /// retained axes up to sign, wherever the eigenvalue gap makes the
        /// axis well defined. 64 cases × ≥ 16 values each.
        #[test]
        fn packed_fit_matches_float_fit(
            seed in 0u64..u64::MAX,
            value_bytes in 8usize..64,
            n in 16usize..48,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let values = family_values(&mut rng, n, value_bytes);
            let keep = 6;
            let float = Pca::fit(&featurize_values(&values), keep);
            let packed = Pca::fit_packed(&PackedMatrix::from_values(&values), keep);
            prop_assert_eq!(packed.mean.len(), float.mean.len());
            for (p, f) in packed.mean.iter().zip(&float.mean) {
                prop_assert!((p - f).abs() < 1e-6);
            }

            let top = float.spectrum[0];
            // n ≤ d here, so both took the Gram route: equal lengths.
            prop_assert_eq!(packed.spectrum.len(), float.spectrum.len());
            for (i, (p, f)) in packed.spectrum.iter().zip(&float.spectrum).enumerate() {
                prop_assert!((p - f).abs() <= 1e-6 * top, "eigenvalue {}: {} vs {}", i, p, f);
            }
            prop_assert_eq!(packed.n_components(), float.n_components());
            for c in 0..packed.n_components() {
                let gap = (c > 0)
                    .then(|| float.spectrum[c - 1] - float.spectrum[c])
                    .into_iter()
                    .chain(float.spectrum.get(c + 1).map(|next| float.spectrum[c] - next))
                    .fold(f64::INFINITY, f64::min);
                if gap > 1e-2 * top {
                    let cos = cosine(packed.components.row(c), float.components.row(c));
                    prop_assert!(cos.abs() > 0.999, "axis {}: cos {}", c, cos);
                }
            }
        }

        /// Training's projection, straight from the bytes, is the float
        /// `transform` of the featurized values. One fitted basis serves 16
        /// probes per case (64 cases): values it was fit on and fresh ones.
        #[test]
        fn byte_domain_projection_matches_float_transform(
            seed in 0u64..u64::MAX,
            value_bytes in 8usize..64,
            n in 16usize..48,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let values = family_values(&mut rng, n, value_bytes);
            let pca = Pca::fit_packed(&PackedMatrix::from_values(&values), 6);
            let mut probes: Vec<Vec<u8>> = values[..8].to_vec();
            probes.extend(family_values(&mut rng, 8, value_bytes));
            let fast = pca.bit_projector().project_values(&probes);
            let slow = pca.transform(&featurize_values(&probes));
            prop_assert_eq!((fast.rows(), fast.cols()), (slow.rows(), slow.cols()));
            for (i, (a, b)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
                prop_assert!((a - b).abs() < 1e-3, "element {}: {} vs {}", i, a, b);
            }
        }
    }
}
