//! The ML model lifecycle: bit-domain training, PCA, warm zone refits, and
//! immutable epoch-numbered prediction snapshots (§V-A.1).
//!
//! *"The ML model is constructed on DRAM as it does not need to be
//! persistent and can be reconstructed after a crash."* Two types split the
//! paper's "model" along its read/write seam:
//!
//! * [`ModelSnapshot`] — the immutable prediction state (centroids and the
//!   bit-domain score table built from them), shared as an `Arc` and
//!   swapped wholesale at each (re)train. Prediction through a snapshot
//!   takes **no lock**: every [`ShardEngine`](crate::ShardEngine) holds its
//!   own `Arc` clone and a publish replaces it under the shard's existing
//!   lock, so a reader can never observe a half-updated model.
//! * [`ModelManager`] — the trainer: configuration, the last run's PCA
//!   basis, retrain counters. It has no thread of its own: a store's one
//!   background worker owns it outright and runs it one training run at a
//!   time, never on the op hot path.
//!
//! Every model predicts the same way, through one scorer
//! ([`pnw_ml::pca::FoldedPredictor`]): K affine scores over the value's
//! bits, argmin wins, ties to the lower index. The feature map is folded
//! into the centroids and quantized — `K` `i8` weights per value bit and
//! `K` `i32` biases under one scale per model — and each 64-bit value word
//! meets its `K` rows in integer dot products, so a prediction costs
//! words × K whatever the value's set bits, and nothing on either path
//! expands a value into floats. The scores are exact on every compiled
//! kernel path and within `(set_bits + 1) / 2` of the scaled float scores,
//! less one constant of the value. What differs with
//! [`PnwConfig::uses_pca`] is the feature map and the training route:
//!
//! * **At or below the PCA threshold** the samples are packed into `u64`
//!   words ([`pnw_ml::packedmatrix`]), K-means runs on the words — its
//!   assignment step scoring through the same word table — and the table
//!   folds the identity map: the centroids over the raw bits.
//! * **Above it** the PCA basis is fit on a packed subsample (AND-popcount
//!   Gram matrix), the training set is projected straight from its bytes,
//!   K-means runs in PCA space, and the basis is then *folded into the
//!   centroids*. The table is 62 KB for a 784 B value at K = 10.
//!
//! A run reads its values through a `ZoneSource`: a snapshot already taken,
//! or the live data zone. [`ModelManager::train`] and the store's
//! synchronous retrain fit cold — same values, same seed, same model. A
//! zone fit, the store's background retrain, is everything the paper's
//! Algorithm 1 does, off the writers' path (§V-C): it takes a strided
//! sample of the live zone, projecting each value as it is read; refreshes
//! the previous run's PCA basis *warm*
//! ([`pnw_ml::pca::Pca::refresh_packed`]) instead of paying the eigensolve
//! again; builds the snapshot; and labels every bucket of the zone under
//! it. Model and labels go to the installer together, so installing is an
//! `Arc` swap and a pool rebuild with next to no predictions. Runs install
//! in the order they run, so each one replaces the model before it.
//! Training samples are capped by deterministic reservoir sampling
//! ([`reservoir_sample`], `train_sample_cap` on [`PnwConfig`]) so retrain
//! cost stops scaling with data-zone size.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pnw_ml::kmeans::{KMeans, KMeansConfig, TrainSet};
use pnw_ml::matrix::Matrix;
use pnw_ml::packedmatrix::PackedMatrix;
use pnw_ml::pca::{FoldedPredictor, Pca, RefreshScratch};

use crate::config::PnwConfig;
use crate::metrics::{BasisFit, TrainPhases, TrainStats};

/// Reusable buffers for the allocation-free prediction path.
///
/// Snapshots are shared read-only across shards, so the mutable scratch
/// lives with the caller — each [`ShardEngine`](crate::ShardEngine) owns
/// one and threads it through every prediction, making steady-state
/// PUT/DELETE heap-allocation-free. Buffers grow to the model's K on first
/// use and are reused afterwards.
#[derive(Debug, Default)]
pub struct PredictScratch {
    /// Per-cluster scores from the last [`ModelSnapshot::predict_into`]
    /// call.
    dist: Vec<f32>,
    /// Cluster-index buffer for [`ModelSnapshot::ranked_after_predict`].
    ranking: Vec<usize>,
}

impl PredictScratch {
    /// A fresh scratch (buffers allocate lazily on first prediction).
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-cluster scores from the last prediction (empty before the first
    /// [`ModelSnapshot::predict_into`] call), lower = nearer.
    ///
    /// They are integers, **scaled**: `s ×` the squared distance to each
    /// centroid in the model's feature space (the raw bits, or PCA space),
    /// less a constant of the value the scorer never computes (the
    /// popcount or `‖y‖²`, and the fold's shifts), to within
    /// `(set_bits + 1) / 2`, where `s` is the model's
    /// [`FoldedPredictor::scale`]. Their argmin, ranking and differences
    /// follow the true distances up to that bound; the absolute numbers do
    /// not.
    pub fn distances(&self) -> &[f32] {
        &self.dist
    }
}

/// The model that has learned nothing: one all-zeros centroid over the raw
/// bits, so predictions are total (matching a store whose cells are all
/// zero).
fn zero_model(value_bits: usize) -> (KMeans, FoldedPredictor) {
    let zero = Matrix::zeros(1, value_bits);
    let scorer = FoldedPredictor::from_centroids(&zero);
    (KMeans::from_centroids(zero, 0), scorer)
}

/// Result of one training run: the snapshot it would install, and what the
/// manager keeps beside it.
pub(crate) struct TrainedModel {
    /// Stamped with its epoch when a manager installs it. Allocated by the
    /// thread that ran the fit, like the tables inside it.
    snapshot: Arc<ModelSnapshot>,
    /// The run's PCA basis (PCA-configured models only) — the next zone
    /// fit's warm start.
    basis: Option<Pca>,
    /// Cost and inputs of the run; the install-side counters are still zero.
    stats: TrainStats,
}

impl TrainedModel {
    /// How long the run took, sampling included.
    pub(crate) fn fit_time(&self) -> Duration {
        self.stats.last_train_wall
    }
}

/// The immutable prediction state of one trained (or untrained) model: the
/// centroids and the bit-domain score table built from them. Epoch-numbered;
/// published as an `Arc` and never mutated, so predictions take no lock and
/// can never see a torn model.
pub struct ModelSnapshot {
    value_bits: usize,
    kmeans: KMeans,
    /// The word table, built once by the training run, read-only afterwards.
    scorer: FoldedPredictor,
    trained: bool,
    /// Install counter: 0 for the untrained placeholder, then one per
    /// completed (re)train. Monotonic per store.
    epoch: u64,
}

impl ModelSnapshot {
    /// The untrained placeholder: one all-zeros centroid over raw bits, so
    /// predictions are total from the first operation.
    pub fn untrained(cfg: &PnwConfig) -> Self {
        let value_bits = cfg.value_size * 8;
        let (kmeans, scorer) = zero_model(value_bits);
        ModelSnapshot {
            value_bits,
            kmeans,
            scorer,
            trained: false,
            epoch: 0,
        }
    }

    /// Whether this snapshot came from a completed training run.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Install counter (0 = untrained placeholder).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.kmeans.k()
    }

    /// Dimensionality of the space K-means ran in: the PCA component count
    /// for PCA-configured models, the raw bit count otherwise.
    pub fn feature_dims(&self) -> usize {
        self.kmeans.dims()
    }

    /// The fitted K-means model — the reference float path the equivalence
    /// tests and the predict microbench compare the bit-domain scorer
    /// against. Its centroids live in [`ModelSnapshot::feature_dims`] space.
    pub fn kmeans(&self) -> &KMeans {
        &self.kmeans
    }

    /// Predicts the cluster for a value — Algorithm 2 line 1.
    ///
    /// Convenience wrapper over [`ModelSnapshot::predict_into`] with a
    /// throwaway scratch; hot paths hold a [`PredictScratch`] and call
    /// `predict_into` directly.
    pub fn predict(&self, value: &[u8]) -> usize {
        self.predict_into(value, &mut PredictScratch::default())
    }

    /// Predicts the cluster for a value with zero heap allocation
    /// (buffers in `scratch` are reused across calls).
    ///
    /// The scorer reads the raw bytes and leaves the per-cluster scores in
    /// `scratch` (see [`PredictScratch::distances`]), so a fallback ranking
    /// costs one argsort, not a second scan
    /// ([`ModelSnapshot::ranked_after_predict`]).
    pub fn predict_into(&self, value: &[u8], scratch: &mut PredictScratch) -> usize {
        debug_assert_eq!(value.len() * 8, self.value_bits);
        scratch.dist.resize(self.kmeans.k(), 0.0);
        self.scorer.distances_into(value, &mut scratch.dist)
    }

    /// Ranks all clusters nearest-first from the scores the last
    /// [`ModelSnapshot::predict_into`] call left in `scratch` — the lazy
    /// half of the split prediction: the pool only asks for this when the
    /// predicted cluster's free list is empty, so the sort is never paid on
    /// the hit path. Ties break toward the lower cluster index, keeping
    /// `ranked[0]` identical to the predicted argmin.
    pub fn ranked_after_predict<'a>(&self, scratch: &'a mut PredictScratch) -> &'a [usize] {
        scratch.ranking.clear();
        scratch.ranking.extend(0..scratch.dist.len());
        let dist = &scratch.dist;
        scratch
            .ranking
            .sort_unstable_by(|&a, &b| dist[a].total_cmp(&dist[b]).then(a.cmp(&b)));
        &scratch.ranking
    }
}

/// What a training run needs from the store's configuration.
#[derive(Clone, Copy)]
pub(crate) struct TrainParams {
    /// The store's seed; a run at epoch `e` is seeded with `seed + e`.
    seed: u64,
    clusters: usize,
    auto_k: Option<(usize, usize)>,
    threads: usize,
    iters: usize,
    value_bits: usize,
    use_pca: bool,
    pca_components: usize,
    pca_sample: usize,
    /// Values a zone sample may hold (`train_sample`).
    zone_sample: usize,
    sample_cap: usize,
}

impl TrainParams {
    pub(crate) fn of(cfg: &PnwConfig) -> Self {
        TrainParams {
            seed: cfg.seed,
            clusters: cfg.clusters,
            auto_k: cfg.auto_k,
            threads: cfg.train_threads,
            iters: cfg.train_iters,
            value_bits: cfg.value_size * 8,
            use_pca: cfg.uses_pca(),
            pca_components: cfg.pca.components,
            pca_sample: cfg.pca.sample,
            zone_sample: cfg.train_sample,
            sample_cap: cfg.train_sample_cap,
        }
    }

    /// The seed of a run at `epoch`: deterministic, distinct per retrain.
    fn seed_at(&self, epoch: u64) -> u64 {
        self.seed.wrapping_add(epoch)
    }
}

/// What a training run reads stored values through: a snapshot already
/// taken (any `[Vec<u8>]`), or the live data zone, which the store's
/// worker samples — and afterwards labels — without the writers' locks.
pub(crate) trait ZoneSource {
    /// Where a strided sample of at most `cap` stored values sits, as
    /// `(shard, bucket)` pairs in zone order.
    fn sample_positions(&self, cap: usize) -> Vec<(u32, u32)>;

    /// Copies the value stored at `at` into `out`. Never torn: a training
    /// value is one that was stored.
    fn read_value(&self, at: (u32, u32), out: &mut [u8]);

    /// Predicts the stored content of every active bucket under `model`:
    /// one label vector per shard, for the engines to adopt at install
    /// (Algorithm 1 lines 4–5, off the writers' path). A source with no
    /// zone behind it has nothing to label.
    fn label_zone(&self, _model: &ModelSnapshot) -> Vec<Vec<u16>> {
        Vec::new()
    }
}

/// A snapshot already taken: every value is in the sample.
impl ZoneSource for [Vec<u8>] {
    fn sample_positions(&self, _cap: usize) -> Vec<(u32, u32)> {
        (0..self.len() as u32).map(|i| (0, i)).collect()
    }

    fn read_value(&self, at: (u32, u32), out: &mut [u8]) {
        out.copy_from_slice(&self[at.1 as usize]);
    }
}

/// Reads the values at `positions` into a packed training set.
fn read_packed<S: ZoneSource + ?Sized>(
    src: &S,
    positions: impl ExactSizeIterator<Item = (u32, u32)>,
    value_bytes: usize,
) -> PackedMatrix {
    let mut flat = vec![0u8; positions.len() * value_bytes];
    for (row, at) in flat.chunks_exact_mut(value_bytes.max(1)).zip(positions) {
        src.read_value(at, row);
    }
    let rows: Vec<&[u8]> = flat.chunks_exact(value_bytes.max(1)).collect();
    PackedMatrix::from_values(&rows)
}

/// A cold training run over `src` for a model at `epoch`: no basis to
/// refresh, so the same values and epoch give the same model.
pub(crate) fn fit_cold<S: ZoneSource + ?Sized>(
    src: &S,
    p: &TrainParams,
    epoch: u64,
) -> TrainedModel {
    let seed = p.seed_at(epoch);
    fit(src, p, seed, None, &mut RefreshScratch::default())
}

/// Owns the training machinery and the current published snapshot.
pub struct ModelManager {
    params: TrainParams,
    current: Arc<ModelSnapshot>,
    /// Cost and inputs of the last installed run; `epoch` doubles as the
    /// install counter.
    stats: TrainStats,
    /// The last installed run's PCA basis — the next zone fit's warm start.
    basis: Option<Pca>,
    /// The warm refresh's per-bit tables: one allocation for the manager's
    /// lifetime, not one per run.
    scratch: RefreshScratch,
}

impl ModelManager {
    /// Creates an untrained manager; predictions all map to cluster 0 until
    /// the first training (matching a store whose cells are all zero).
    pub fn new(cfg: &PnwConfig) -> Self {
        ModelManager {
            params: TrainParams::of(cfg),
            current: Arc::new(ModelSnapshot::untrained(cfg)),
            stats: TrainStats::default(),
            basis: None,
            scratch: RefreshScratch::default(),
        }
    }

    /// The current published snapshot. Engines clone this `Arc` and predict
    /// from it without ever touching the manager again.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.current)
    }

    /// Whether a training run has completed.
    pub fn is_trained(&self) -> bool {
        self.current.is_trained()
    }

    /// Completed training runs.
    pub fn retrains(&self) -> u64 {
        self.stats.epoch
    }

    /// Retrain observability: what the last installed run cost, phase by
    /// phase, what it trained on and labelled, what its install had left to
    /// predict, and the model epoch.
    pub fn train_stats(&self) -> TrainStats {
        self.stats.clone()
    }

    /// Trains synchronously on a snapshot of data-zone values (Algorithm 1)
    /// and installs the result. Always a cold fit, so the same values and
    /// seed give the same model. Returns the training time.
    pub fn train(&mut self, values: &[Vec<u8>]) -> Duration {
        let m = fit_cold(values, &self.params, self.stats.epoch);
        let elapsed = m.fit_time();
        self.install(m);
        elapsed
    }

    /// One background retrain's worth of training over the live `zone`:
    /// samples it, fits — refreshing the previous run's PCA basis warm when
    /// there is one — installs the model here and labels the zone under it.
    /// Returns the labels, one vector per shard, for the engines' install.
    pub(crate) fn fit_zone<S: ZoneSource + ?Sized>(&mut self, zone: &S) -> Vec<Vec<u16>> {
        let seed = self.params.seed_at(self.stats.epoch);
        let warm = self.basis.take();
        let mut m = fit(zone, &self.params, seed, warm, &mut self.scratch);
        let t = Instant::now();
        let labels = zone.label_zone(&m.snapshot);
        m.stats.phases.label = t.elapsed();
        m.stats.labelled = labels.iter().map(Vec::len).sum();
        self.install(m);
        labels
    }

    /// Records what publishing the current model left the engines to do:
    /// labels discarded as stale, and predictions made under the locks.
    pub(crate) fn record_install(&mut self, stale: usize, predicted: usize) {
        self.stats.stale_at_install = stale;
        self.stats.predicted_at_install = predicted;
    }

    /// Adopts a finished run — here or, for a store's synchronous retrain,
    /// on the caller's thread — as the next epoch: its snapshot, basis and
    /// stats.
    pub(crate) fn install(&mut self, mut m: TrainedModel) {
        let epoch = self.stats.epoch + 1;
        let snapshot = Arc::get_mut(&mut m.snapshot).expect("a run's snapshot is its own");
        snapshot.epoch = epoch;
        m.stats.epoch = epoch;
        self.current = m.snapshot;
        self.basis = m.basis;
        self.stats = m.stats;
    }
}

/// One whole training run over `src`, score table and snapshot included —
/// everything that can happen ahead of the install. With `warm`, a
/// PCA-configured run refreshes that basis instead of fitting one from
/// nothing.
fn fit<S: ZoneSource + ?Sized>(
    src: &S,
    p: &TrainParams,
    seed: u64,
    warm: Option<Pca>,
    scratch: &mut RefreshScratch,
) -> TrainedModel {
    let start = Instant::now();
    let value_bytes = p.value_bits / 8;
    // Deterministic reservoir cap: retrain cost stops scaling with
    // data-zone size. Seeded by the (per-retrain) training seed.
    let zone = src.sample_positions(p.zone_sample);
    let capped: Vec<(u32, u32)> = reservoir_sample(zone.len(), p.sample_cap, seed)
        .into_iter()
        .map(|i| zone[i])
        .collect();

    let mut phases = TrainPhases::default();
    let (mut basis, mut basis_fit) = (None, BasisFit::None);
    let (kmeans, scorer) = if capped.is_empty() {
        zero_model(p.value_bits)
    } else if p.use_pca {
        // Fit the basis on a packed subsample (the eigensolve is cubic),
        // project every sample straight from its bytes as it is read,
        // cluster in PCA space, fold the basis into the centroids.
        let t = Instant::now();
        let picks = stride_sample(capped.len(), p.pca_sample);
        let sample = read_packed(src, picks.into_iter().map(|i| capped[i]), value_bytes);
        phases.sample = t.elapsed();

        let t = Instant::now();
        // A basis that lost axes to a rank-poor sample starts over cold, so
        // it can grow back.
        let mut warm = warm.filter(|pca| pca.n_components() == p.pca_components);
        let refreshed = warm
            .as_mut()
            .is_some_and(|pca| pca.refresh_packed(&sample, scratch));
        let pca = match warm {
            Some(pca) if refreshed => pca,
            _ => Pca::fit_packed(&sample, p.pca_components),
        };
        basis_fit = if refreshed {
            BasisFit::Warm
        } else {
            BasisFit::Cold
        };
        let projector = pca.bit_projector();
        phases.pca_fit = t.elapsed();

        let t = Instant::now();
        let mut projected = Matrix::zeros(capped.len(), projector.n_components());
        let mut value = vec![0u8; value_bytes];
        for (i, &at) in capped.iter().enumerate() {
            src.read_value(at, &mut value);
            projector.project_into(&value, projected.row_mut(i));
        }
        phases.project = t.elapsed();

        let t = Instant::now();
        let kmeans = fit_kmeans(&projected, p, seed);
        phases.kmeans = t.elapsed();

        let t = Instant::now();
        let scorer = projector.fold(kmeans.centroids());
        phases.table_build = t.elapsed();
        basis = Some(pca);
        (kmeans, scorer)
    } else {
        // Packed bit-domain pipeline: no float tensor, no featurize.
        let t = Instant::now();
        let packed = read_packed(src, capped.iter().copied(), value_bytes);
        phases.sample = t.elapsed();

        let t = Instant::now();
        let kmeans = fit_kmeans(&packed, p, seed);
        phases.kmeans = t.elapsed();

        let t = Instant::now();
        let scorer = FoldedPredictor::from_centroids(kmeans.centroids());
        phases.table_build = t.elapsed();
        (kmeans, scorer)
    };

    TrainedModel {
        snapshot: Arc::new(ModelSnapshot {
            value_bits: p.value_bits,
            kmeans,
            scorer,
            trained: true,
            epoch: 0,
        }),
        basis,
        stats: TrainStats {
            last_train_wall: start.elapsed(),
            phases,
            basis: basis_fit,
            samples_pre_cap: zone.len(),
            samples_post_cap: capped.len(),
            ..TrainStats::default()
        },
    }
}

/// Picks K (the elbow method when `auto_k` is set) and runs Lloyd on either
/// training-set representation.
fn fit_kmeans<D: TrainSet>(data: &D, p: &TrainParams, seed: u64) -> KMeans {
    let k = match p.auto_k {
        Some((lo, hi)) => {
            // The sweep runs on a ≤512-row float subsample — the one place
            // the bit route still expands to floats, bounded and cold.
            let idx = stride_sample(data.n_samples(), 512);
            let mut sweep = Matrix::zeros(idx.len(), data.n_dims());
            for (row, &i) in idx.iter().enumerate() {
                data.write_row(i, sweep.row_mut(row));
            }
            elbow_k(&sweep, lo, hi, seed)
        }
        None => p.clusters,
    };
    let cfg = KMeansConfig::new(k)
        .with_seed(seed)
        .with_threads(p.threads)
        .with_max_iters(p.iters);
    KMeans::fit_set(data, &cfg)
}

/// Elbow-method K selection (§V-A.1, Figure 4): sweep the SSE curve over
/// `lo..=hi` on the (already subsampled, ≤512-row) `sweep` matrix and pick
/// the knee.
fn elbow_k(sweep: &Matrix, lo: usize, hi: usize, seed: u64) -> usize {
    let ks: Vec<usize> = (lo..=hi.min(sweep.rows().max(lo))).collect();
    let curve = pnw_ml::elbow::sse_curve(sweep, &ks, seed);
    pnw_ml::elbow::elbow_point(&curve)
}

/// Evenly-strided subsample of `0..n`, at most `cap` indices.
pub fn stride_sample(n: usize, cap: usize) -> Vec<usize> {
    if n <= cap {
        return (0..n).collect();
    }
    (0..cap).map(|i| i * n / cap).collect()
}

/// Deterministic reservoir sample (Algorithm R) of `cap` indices from
/// `0..n`, sorted ascending. Identity when `n <= cap`; the same
/// `(n, cap, seed)` always yields the same indices, so capped retraining
/// stays reproducible (the golden-stats regression in `tests/sharded.rs`
/// depends on it).
pub fn reservoir_sample(n: usize, cap: usize, seed: u64) -> Vec<usize> {
    if n <= cap {
        return (0..n).collect();
    }
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<usize> = (0..cap).collect();
    for i in cap..n {
        let j = rng.gen_range(0..i + 1);
        if j < cap {
            out[j] = i;
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnw_ml::featurize::bits_to_features;

    fn small_cfg() -> PnwConfig {
        PnwConfig::new(64, 4).with_clusters(2)
    }

    /// Asserts that `m` scores `v` through the word table of its own
    /// centroids, that each score is within the quantization bound
    /// `(set_bits + 1) / 2` of `s ×` the f64 squared distance less one
    /// constant of the value, and that the predicted cluster is the float
    /// argmin wherever the float margin exceeds twice that bound.
    fn assert_within_bound(m: &ModelSnapshot, v: &[u8]) {
        let mut scratch = PredictScratch::new();
        let got = m.predict_into(v, &mut scratch);
        let table = FoldedPredictor::from_centroids(m.kmeans().centroids());
        let mut scores = vec![0.0f32; m.k()];
        assert_eq!(table.distances_into(v, &mut scores), got);
        assert_eq!(scratch.distances(), &scores[..], "a stale or foreign table");
        let x = bits_to_features(v);
        let reference: Vec<f64> = m
            .kmeans()
            .centroids()
            .iter_rows()
            .map(|c| {
                c.iter()
                    .zip(&x)
                    .map(|(&c, &x)| (f64::from(c) - f64::from(x)).powi(2))
                    .sum()
            })
            .collect();
        let bound = (f64::from(v.iter().map(|b| b.count_ones()).sum::<u32>()) + 1.0) / 2.0 + 1e-6;
        let errors = scores
            .iter()
            .zip(&reference)
            .map(|(&q, &r)| f64::from(q) - table.scale() * r);
        let (lo, hi) = errors.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), e| {
            (lo.min(e), hi.max(e))
        });
        assert!(hi - lo <= 2.0 * bound, "{scores:?} vs {reference:?}");
        let mut order: Vec<usize> = (0..m.k()).collect();
        order.sort_by(|&a, &b| reference[a].total_cmp(&reference[b]).then(a.cmp(&b)));
        let margin = order
            .get(1)
            .map_or(f64::INFINITY, |&o| reference[o] - reference[order[0]]);
        if table.scale() * margin > 2.0 * bound {
            assert_eq!(got, order[0], "value {v:?}");
        }
    }

    /// The store moves its manager onto its worker thread and shares
    /// snapshots behind `Arc`s across every thread.
    #[test]
    fn manager_and_snapshot_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelManager>();
        assert_send_sync::<ModelSnapshot>();
    }

    #[test]
    fn untrained_predicts_zero() {
        let m = ModelManager::new(&small_cfg());
        assert!(!m.is_trained());
        let s = m.snapshot();
        assert_eq!(s.predict(&[0xFF, 0, 0, 0]), 0);
        assert_eq!(s.k(), 1);
        assert_eq!(s.epoch(), 0);
    }

    #[test]
    fn train_separates_patterns() {
        let mut m = ModelManager::new(&small_cfg());
        let mut values: Vec<Vec<u8>> = Vec::new();
        for i in 0..20u8 {
            values.push(vec![0x00, 0x00, 0x00, i % 2]); // low pattern
            values.push(vec![0xFF, 0xFF, 0xFF, 0xF0 | (i % 2)]); // high pattern
        }
        m.train(&values);
        assert!(m.is_trained());
        let m = m.snapshot();
        assert_eq!(m.k(), 2);
        let lo = m.predict(&[0, 0, 0, 1]);
        let hi = m.predict(&[0xFF, 0xFF, 0xFF, 0xF1]);
        assert_ne!(lo, hi);
        let mut scratch = PredictScratch::new();
        let c = m.predict_into(&[0, 0, 0, 0], &mut scratch);
        assert_eq!(c, lo);
        assert_eq!(m.ranked_after_predict(&mut scratch).len(), 2);
    }

    /// A zone of fixed values, labelled the way the store's zone reader
    /// labels it: one vector, one label per value.
    struct Zone(Vec<Vec<u8>>);

    impl ZoneSource for Zone {
        fn sample_positions(&self, cap: usize) -> Vec<(u32, u32)> {
            self.0.sample_positions(cap)
        }

        fn read_value(&self, at: (u32, u32), out: &mut [u8]) {
            self.0.read_value(at, out)
        }

        fn label_zone(&self, model: &ModelSnapshot) -> Vec<Vec<u16>> {
            vec![self.0.iter().map(|v| model.predict(v) as u16).collect()]
        }
    }

    /// A zone fit — the store's background retrain, here with no thread —
    /// installs in the manager and hands back what the new model predicts
    /// for every value, through the word table it built.
    #[test]
    fn background_training_installs() {
        let mut m = ModelManager::new(&small_cfg());
        let zone = Zone((0..40u8).map(|i| vec![i, !i, 0, i / 3]).collect());
        let labels = m.fit_zone(&zone);
        assert!(m.is_trained());
        assert_eq!((m.retrains(), m.snapshot().epoch()), (1, 1));
        assert_eq!(m.train_stats().labelled, zone.0.len());
        let model = m.snapshot();
        assert_eq!(labels.len(), 1);
        for (v, &l) in zone.0.iter().zip(&labels[0]) {
            assert_eq!(l as usize, model.predict(v));
            assert_within_bound(&model, v);
        }
    }

    #[test]
    fn a_zone_fit_refreshes_the_basis_warm_and_labels_what_it_predicts() {
        let cfg = PnwConfig::new(32, 256).with_clusters(2);
        let mut m = ModelManager::new(&cfg);
        // Two macro-patterns under enough noise that the sample's rank
        // covers every configured axis (a rank-poor basis restarts cold).
        let mut noisy = two_macro_patterns();
        let mut lcg = 7u32;
        for (i, v) in noisy.iter_mut().enumerate() {
            for b in &mut v[(i % 2) * 128 + 32..][..48] {
                lcg = lcg.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                *b ^= (lcg >> 24) as u8;
            }
        }
        let zone = Zone(noisy);
        m.train(&zone.0);
        assert_eq!(m.snapshot().feature_dims(), cfg.pca.components);
        assert_eq!(m.train_stats().basis, BasisFit::Cold);
        for epoch in 2..=3 {
            let labels = m.fit_zone(&zone);
            let s = m.train_stats();
            assert_eq!((s.epoch, s.basis), (epoch, BasisFit::Warm));
            assert_eq!(s.labelled, zone.0.len());
            let model = m.snapshot();
            for (v, &l) in zone.0.iter().zip(&labels[0]) {
                assert_eq!(model.predict(v), l as usize);
            }
        }
        // The warm model still separates the two patterns.
        let model = m.snapshot();
        assert_ne!(model.predict(&zone.0[0]), model.predict(&zone.0[1]));
        // A synchronous train is always cold, and labels nothing.
        m.train(&zone.0);
        assert_eq!(m.train_stats().basis, BasisFit::Cold);
        assert_eq!(m.train_stats().labelled, 0);
    }

    #[test]
    fn pca_path_for_large_values() {
        let cfg = PnwConfig::new(32, 256).with_clusters(2); // 2048 bits > threshold
        assert!(cfg.uses_pca());
        let mut m = ModelManager::new(&cfg);
        let values = two_macro_patterns();
        m.train(&values);
        let m = m.snapshot();
        // Features are PCA-projected: at most the requested components (the
        // basis truncates to the data's actual rank), far below 2048 bits.
        let dims = m.feature_dims();
        assert!(dims > 0 && dims <= cfg.pca.components, "dims={dims}");
        // The two macro-patterns still separate after projection.
        assert_ne!(m.predict(&values[0]), m.predict(&values[1]));
    }

    #[test]
    fn packed_path_matches_reference_float_path() {
        let mut m = ModelManager::new(&small_cfg());
        let values: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i, !i, i ^ 0x3C, i / 3]).collect();
        m.train(&values);
        let m = m.snapshot();
        for v in &values {
            assert_within_bound(&m, v);
        }
    }

    #[test]
    fn ranked_after_predict_orders_scratch_distances() {
        let mut m = ModelManager::new(&PnwConfig::new(64, 4).with_clusters(4));
        let values: Vec<Vec<u8>> = (0..48u8)
            .map(|i| match i % 4 {
                0 => vec![0x00, 0x00, 0x00, i % 2],
                1 => vec![0xFF, 0xFF, 0xFF, i % 2],
                2 => vec![0x0F, 0x0F, 0x0F, i % 2],
                _ => vec![0xF0, 0xF0, 0xF0, i % 2],
            })
            .collect();
        m.train(&values);
        let m = m.snapshot();
        let mut scratch = PredictScratch::new();
        let probe = [0xFFu8, 0xFF, 0xF0, 0x00];
        let cluster = m.predict_into(&probe, &mut scratch);
        let dists = scratch.distances().to_vec();
        let ranked = m.ranked_after_predict(&mut scratch);
        assert_eq!(ranked.len(), m.k());
        assert_eq!(ranked[0], cluster, "nearest-first starts at the argmin");
        for w in ranked.windows(2) {
            assert!(dists[w[0]] <= dists[w[1]]);
        }
    }

    /// Two 256 B macro-patterns with a little per-sample variation.
    fn two_macro_patterns() -> Vec<Vec<u8>> {
        let mut values = Vec::new();
        for i in 0..30u8 {
            let mut a = vec![0u8; 256];
            a[..128].fill(0xFF);
            a[200] = i;
            values.push(a);
            let mut b = vec![0u8; 256];
            b[128..].fill(0xFF);
            b[10] = i;
            values.push(b);
        }
        values
    }

    #[test]
    fn pca_model_scores_through_the_per_bit_table() {
        let cfg = PnwConfig::new(32, 256).with_clusters(2);
        let mut m = ModelManager::new(&cfg);
        let placeholder = m.snapshot();
        assert_eq!(placeholder.predict(&[0xA5; 256]), 0);
        let values = two_macro_patterns();
        m.train(&values);
        let m = m.snapshot();
        let mut scratch = PredictScratch::new();
        for v in values.iter().take(8) {
            let c = m.predict_into(v, &mut scratch);
            // The scratch holds one score per cluster; their argmin must be
            // the returned cluster.
            assert_eq!(scratch.distances().len(), m.k());
            let best = scratch
                .distances()
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(c, best);
        }
    }

    #[test]
    fn train_stats_split_the_wall_clock_by_phase() {
        let mut m = ModelManager::new(&PnwConfig::new(32, 256).with_clusters(2));
        m.train(&two_macro_patterns());
        let s = m.train_stats();
        let p = s.phases;
        for phase in [p.pca_fit, p.project, p.kmeans, p.table_build] {
            assert!(phase > Duration::ZERO, "{p:?}");
        }
        assert!(p.pca_fit + p.project + p.kmeans + p.table_build <= s.last_train_wall);

        // At or below the PCA threshold there is no basis and no projection.
        let mut m = ModelManager::new(&small_cfg());
        m.train(&[vec![0, 0, 0, 1], vec![0xFF, 0xFF, 0xFF, 0xF0]]);
        let p = m.train_stats().phases;
        assert_eq!((p.pca_fit, p.project), (Duration::ZERO, Duration::ZERO));
        assert!(p.kmeans > Duration::ZERO && p.table_build > Duration::ZERO);
    }

    /// A zone of identical values has no variance: PCA keeps no axis, the
    /// centroids have no coordinates, and every value ties on cluster 0.
    #[test]
    fn pca_model_survives_a_constant_training_set() {
        let cfg = PnwConfig::new(32, 256).with_clusters(3);
        let mut m = ModelManager::new(&cfg);
        m.train(&vec![vec![0u8; 256]; 32]);
        let m = m.snapshot();
        assert_eq!(m.feature_dims(), 0);
        let mut scratch = PredictScratch::new();
        assert_eq!(m.predict_into(&[0x3C; 256], &mut scratch), 0);
        assert_eq!(m.ranked_after_predict(&mut scratch).len(), m.k());
    }

    #[test]
    fn training_on_nothing_keeps_the_zero_centroid() {
        for cfg in [small_cfg(), PnwConfig::new(32, 256)] {
            let mut m = ModelManager::new(&cfg);
            m.train(&[]);
            assert!(m.is_trained());
            assert_eq!(m.snapshot().k(), 1);
            assert_eq!(m.snapshot().predict(&vec![0xFF; cfg.value_size]), 0);
            assert_eq!(m.train_stats().samples_post_cap, 0);
        }
    }

    #[test]
    fn retrain_rebuilds_packed_tables() {
        let mut m = ModelManager::new(&small_cfg());
        let low: Vec<Vec<u8>> = (0..20u8).map(|i| vec![0, 0, 0, i % 2]).collect();
        let high: Vec<Vec<u8>> = (0..20u8).map(|i| vec![0xFF, 0xFF, 0xFF, 0xF0 | (i % 2)]).collect();
        let mut both = low.clone();
        both.extend(high.clone());
        m.train(&both);
        // The scratch is shaped by the old model first.
        let mut scratch = PredictScratch::new();
        m.snapshot()
            .predict_into(&[0xFF, 0xFF, 0xFF, 0xFF], &mut scratch);
        // Retrain on *only* the low family: the swapped-in model must drive
        // predictions (a stale table would keep the old separation).
        m.train(&low);
        let m = m.snapshot();
        for v in &both {
            assert_eq!(
                m.predict_into(v, &mut scratch),
                m.kmeans().predict(&bits_to_features(v)),
            );
        }
    }

    #[test]
    fn snapshots_are_immutable_across_retrains() {
        let mut m = ModelManager::new(&small_cfg());
        let low: Vec<Vec<u8>> = (0..20u8).map(|i| vec![0, 0, 0, i % 2]).collect();
        m.train(&low);
        let old = m.snapshot();
        assert_eq!(old.epoch(), 1);
        let high: Vec<Vec<u8>> = (0..20u8).map(|i| vec![0xFF, 0xFF, 0xFF, i % 2]).collect();
        m.train(&high);
        // The old Arc still predicts under the old centroids — a reader
        // holding it mid-swap can never see a torn model.
        assert_eq!(old.epoch(), 1);
        assert_eq!(m.snapshot().epoch(), 2);
        let mut scratch = PredictScratch::new();
        let v = [0u8, 0, 0, 0];
        assert_eq!(
            old.predict_into(&v, &mut scratch),
            old.kmeans().predict(&bits_to_features(&v))
        );
    }

    #[test]
    fn stride_sample_bounds() {
        assert_eq!(stride_sample(5, 10), vec![0, 1, 2, 3, 4]);
        let s = stride_sample(100, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.last().unwrap() < 100);
    }

    #[test]
    fn reservoir_sample_is_deterministic_and_capped() {
        // Identity below the cap.
        assert_eq!(reservoir_sample(5, 10, 1), vec![0, 1, 2, 3, 4]);
        // Exact cap, sorted, unique, in range, deterministic.
        let a = reservoir_sample(1000, 64, 42);
        let b = reservoir_sample(1000, 64, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().unwrap() < 1000);
        // Different seeds draw different reservoirs.
        assert_ne!(a, reservoir_sample(1000, 64, 43));
        // The tail is represented (Algorithm R replaces uniformly).
        assert!(*a.last().unwrap() >= 64, "reservoir never replaced anything");
    }

    #[test]
    fn train_applies_reservoir_cap_and_reports_it() {
        let cfg = PnwConfig::new(64, 4).with_clusters(2).with_train_sample_cap(32);
        let mut m = ModelManager::new(&cfg);
        let values: Vec<Vec<u8>> = (0..200u8).map(|i| vec![i % 2 * 0xFF, i, 0, 0]).collect();
        m.train(&values);
        let stats = m.train_stats();
        assert_eq!(stats.samples_pre_cap, 200);
        assert_eq!(stats.samples_post_cap, 32);
        assert_eq!(stats.epoch, 1);
        assert!(stats.last_train_wall.as_nanos() > 0);
        // Capped training is itself deterministic.
        let mut m2 = ModelManager::new(&cfg);
        m2.train(&values);
        assert_eq!(
            m.snapshot().kmeans().centroids(),
            m2.snapshot().kmeans().centroids()
        );
    }

    #[test]
    fn auto_k_picks_cluster_count_near_structure() {
        let cfg = PnwConfig::new(64, 4).with_auto_k(1, 8);
        let mut m = ModelManager::new(&cfg);
        // Three well-separated byte families.
        let mut values = Vec::new();
        for i in 0..60u8 {
            let v = match i % 3 {
                0 => vec![0x00, 0x00, 0x00, i % 2],
                1 => vec![0xFF, 0xFF, 0x00, i % 2],
                _ => vec![0x0F, 0xF0, 0xFF, i % 2],
            };
            values.push(v);
        }
        m.train(&values);
        let k = m.snapshot().k();
        // 3 byte families × the parity sub-bit = between 3 and 6 real
        // clusters; the elbow must land in that structured range, not at
        // the extremes of the sweep.
        assert!((2..=6).contains(&k), "elbow chose k={k}");
    }

    #[test]
    fn training_time_reported() {
        let mut m = ModelManager::new(&small_cfg());
        let values: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i, 0, i, 0]).collect();
        let t = m.train(&values);
        assert!(t.as_nanos() > 0);
    }
}
