//! The ML model lifecycle: bit-domain training, PCA, background retraining,
//! and immutable epoch-numbered prediction snapshots (§V-A.1).
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
//! * [`ModelManager`] — the trainer: configuration, the background-training
//!   channel, retrain counters. Touched only on train/install boundaries,
//!   never on the op hot path.
//!
//! Every model predicts the same way — K affine scores over the value's
//! bits, argmin wins — and nothing on either path expands a value into
//! floats. What differs with [`PnwConfig::uses_pca`] is the table layout
//! and the training route:
//!
//! * **At or below the PCA threshold** the samples are packed into `u64`
//!   words ([`pnw_ml::packedmatrix`]), K-means runs on the words, and
//!   prediction gathers from a byte LUT ([`pnw_ml::packed`]: `256·K` floats
//!   per value byte, one stripe add per byte).
//! * **Above it** the PCA basis is fit on a packed subsample (AND-popcount
//!   Gram matrix), the training set is projected straight from its bytes,
//!   K-means runs in PCA space, and the basis is then *folded into the
//!   centroids* ([`pnw_ml::pca::FoldedPredictor`]: `K` floats per value
//!   bit, one stripe add per set bit). A byte LUT over a 784 B value would
//!   be 8 MB at K = 10 and miss cache on every lookup; the per-bit table is
//!   400 KB.
//!
//! The tables are built by whoever runs the fit — the background trainer
//! thread, for background retrains — so installing a model is an epoch bump
//! and an `Arc` swap. Training snapshots are capped by deterministic
//! reservoir sampling ([`reservoir_sample`], `train_sample_cap` on
//! [`PnwConfig`]) so retrain cost stops scaling with data-zone size.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pnw_ml::kmeans::{KMeans, KMeansConfig, TrainSet};
use pnw_ml::matrix::Matrix;
use pnw_ml::packed::PackedPredictor;
use pnw_ml::packedmatrix::PackedMatrix;
use pnw_ml::pca::{FoldedPredictor, Pca};

use crate::config::PnwConfig;
use crate::metrics::{TrainPhases, TrainStats};

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
    /// For models at or below the PCA threshold these are the squared
    /// distances to each centroid. For PCA-configured models they are the
    /// squared PCA-space distances **minus `‖y‖²`**, a constant of the
    /// value that the folded kernel never computes: the argmin, the ranking
    /// and every difference `d[a] − d[b]` are those of the true distances,
    /// the absolute numbers are not (and can be negative).
    pub fn distances(&self) -> &[f32] {
        &self.dist
    }
}

/// The score table of one snapshot. Which kernel a store uses follows
/// [`PnwConfig::uses_pca`] and nothing else.
enum Scorer {
    /// Byte LUT — values at or below the PCA threshold.
    Lut(PackedPredictor),
    /// Per-bit table — values above it.
    Bits(FoldedPredictor),
}

/// The model that has learned nothing: one all-zeros centroid over the raw
/// bits, so predictions are total (matching a store whose cells are all
/// zero), scored by the kernel the store's value size calls for.
fn zero_model(value_bits: usize, per_bit: bool) -> (KMeans, Scorer) {
    let zero = Matrix::zeros(1, value_bits);
    let scorer = if per_bit {
        Scorer::Bits(FoldedPredictor::over_bits(&zero))
    } else {
        Scorer::Lut(PackedPredictor::from_centroids(&zero))
    };
    (KMeans::from_centroids(zero, 0), scorer)
}

/// Result of one training run: everything a snapshot holds but its epoch.
struct TrainedModel {
    kmeans: KMeans,
    scorer: Scorer,
    /// Wall-clock training time (the Figure 11 measurement).
    elapsed: Duration,
    phases: TrainPhases,
    /// Snapshot size before the reservoir cap.
    samples_pre_cap: usize,
    /// Samples actually trained on (≤ `train_sample_cap`).
    samples_post_cap: usize,
}

/// The immutable prediction state of one trained (or untrained) model: the
/// centroids and the bit-domain score table built from them. Epoch-numbered;
/// published as an `Arc` and never mutated, so predictions take no lock and
/// can never see a torn model.
pub struct ModelSnapshot {
    value_bits: usize,
    kmeans: KMeans,
    /// Built once by the training run, read-only afterwards.
    scorer: Scorer,
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
        let (kmeans, scorer) = zero_model(value_bits, cfg.uses_pca());
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

    /// Whether predictions gather from the byte LUT
    /// ([`PackedPredictor`]) — false for PCA-configured models, which score
    /// through the per-bit folded table ([`FoldedPredictor`]).
    pub fn uses_packed(&self) -> bool {
        matches!(self.scorer, Scorer::Lut(_))
    }

    /// The fitted K-means model — the reference float path the equivalence
    /// tests and the predict microbench compare the bit-domain kernels
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
    /// Either kernel reads the raw bytes and leaves the per-cluster scores
    /// in `scratch` (see [`PredictScratch::distances`]), so a fallback
    /// ranking costs one argsort, not a second scan
    /// ([`ModelSnapshot::ranked_after_predict`]).
    pub fn predict_into(&self, value: &[u8], scratch: &mut PredictScratch) -> usize {
        debug_assert_eq!(value.len() * 8, self.value_bits);
        scratch.dist.resize(self.kmeans.k(), 0.0);
        match &self.scorer {
            Scorer::Lut(lut) => lut.distances_into(value, &mut scratch.dist),
            Scorer::Bits(folded) => folded.scores_into(value, &mut scratch.dist),
        }
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
struct TrainParams {
    clusters: usize,
    auto_k: Option<(usize, usize)>,
    threads: usize,
    iters: usize,
    value_bits: usize,
    use_pca: bool,
    pca_components: usize,
    pca_sample: usize,
    sample_cap: usize,
}

/// Owns the training machinery and the current published snapshot.
pub struct ModelManager {
    params: TrainParams,
    seed: u64,
    current: Arc<ModelSnapshot>,
    /// Cost and inputs of the last completed run; `epoch` doubles as the
    /// completed-run counter.
    stats: TrainStats,
    /// In-flight background training run. Behind a `Mutex` only so that the
    /// manager stays `Sync`; mutating methods go through `get_mut` (no lock
    /// traffic).
    pending: Mutex<Option<Receiver<TrainedModel>>>,
}

impl ModelManager {
    /// Creates an untrained manager; predictions all map to cluster 0 until
    /// the first training (matching a store whose cells are all zero).
    pub fn new(cfg: &PnwConfig) -> Self {
        ModelManager {
            params: TrainParams {
                clusters: cfg.clusters,
                auto_k: cfg.auto_k,
                threads: cfg.train_threads,
                iters: cfg.train_iters,
                value_bits: cfg.value_size * 8,
                use_pca: cfg.uses_pca(),
                pca_components: cfg.pca.components,
                pca_sample: cfg.pca.sample,
                sample_cap: cfg.train_sample_cap,
            },
            seed: cfg.seed,
            current: Arc::new(ModelSnapshot::untrained(cfg)),
            stats: TrainStats::default(),
            pending: Mutex::new(None),
        }
    }

    /// The current published snapshot. Engines clone this `Arc` and predict
    /// from it without ever touching the manager again.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.current)
    }

    /// Whether a training run has completed (fore- or background).
    pub fn is_trained(&self) -> bool {
        self.current.is_trained()
    }

    /// Completed training runs.
    pub fn retrains(&self) -> u64 {
        self.stats.epoch
    }

    /// Retrain observability: last-train wall clock and its phase split,
    /// snapshot sizes before and after the reservoir cap, and the model
    /// epoch.
    pub fn train_stats(&self) -> TrainStats {
        self.stats.clone()
    }

    /// Current number of clusters (1 until trained).
    pub fn k(&self) -> usize {
        self.current.k()
    }

    /// [`ModelSnapshot::predict`] on the current snapshot.
    pub fn predict(&self, value: &[u8]) -> usize {
        self.current.predict(value)
    }

    /// [`ModelSnapshot::predict_into`] on the current snapshot.
    pub fn predict_into(&self, value: &[u8], scratch: &mut PredictScratch) -> usize {
        self.current.predict_into(value, scratch)
    }

    /// [`ModelSnapshot::ranked_after_predict`] on the current snapshot.
    pub fn ranked_after_predict<'a>(&self, scratch: &'a mut PredictScratch) -> &'a [usize] {
        self.current.ranked_after_predict(scratch)
    }

    /// [`ModelSnapshot::kmeans`] of the current snapshot.
    pub fn kmeans(&self) -> &KMeans {
        self.current.kmeans()
    }

    /// [`ModelSnapshot::feature_dims`] of the current snapshot.
    pub fn feature_dims(&self) -> usize {
        self.current.feature_dims()
    }

    /// [`ModelSnapshot::uses_packed`] of the current snapshot.
    pub fn uses_packed(&self) -> bool {
        self.current.uses_packed()
    }

    /// The per-run training seed: deterministic, distinct per retrain.
    fn next_seed(&self) -> u64 {
        self.seed.wrapping_add(self.stats.epoch)
    }

    /// One whole training run, score table included — everything the
    /// caller's thread (the background trainer's, for background retrains)
    /// can do ahead of the install.
    fn fit(values: &[Vec<u8>], p: &TrainParams, seed: u64) -> TrainedModel {
        let start = Instant::now();
        // Deterministic reservoir cap: retrain cost stops scaling with
        // data-zone size. Seeded by the (per-retrain) training seed.
        let capped: Vec<&[u8]> = reservoir_sample(values.len(), p.sample_cap, seed)
            .into_iter()
            .map(|i| values[i].as_slice())
            .collect();

        let mut phases = TrainPhases::default();
        let (kmeans, scorer) = if capped.is_empty() {
            zero_model(p.value_bits, p.use_pca)
        } else if p.use_pca {
            // Fit the basis on a packed subsample (the eigensolve is cubic),
            // project every sample straight from its bytes, cluster in PCA
            // space, fold the basis into the centroids.
            let t = Instant::now();
            let sample: Vec<&[u8]> = stride_sample(capped.len(), p.pca_sample)
                .into_iter()
                .map(|i| capped[i])
                .collect();
            let projector = Pca::fit_packed(&PackedMatrix::from_values(&sample), p.pca_components)
                .bit_projector();
            phases.pca_fit = t.elapsed();

            let t = Instant::now();
            let projected = projector.project_values(&capped);
            phases.project = t.elapsed();

            let t = Instant::now();
            let kmeans = fit_kmeans(&projected, p, seed);
            phases.kmeans = t.elapsed();

            let t = Instant::now();
            let scorer = Scorer::Bits(projector.fold(kmeans.centroids()));
            phases.table_build = t.elapsed();
            (kmeans, scorer)
        } else {
            // Packed bit-domain pipeline: no float tensor, no featurize.
            let t = Instant::now();
            let kmeans = fit_kmeans(&PackedMatrix::from_values(&capped), p, seed);
            phases.kmeans = t.elapsed();

            let t = Instant::now();
            let scorer = Scorer::Lut(PackedPredictor::from_centroids(kmeans.centroids()));
            phases.table_build = t.elapsed();
            (kmeans, scorer)
        };

        TrainedModel {
            kmeans,
            scorer,
            elapsed: start.elapsed(),
            phases,
            samples_pre_cap: values.len(),
            samples_post_cap: capped.len(),
        }
    }

    /// Trains synchronously on a snapshot of data-zone values (Algorithm 1)
    /// and installs the result. Returns the training time.
    pub fn train(&mut self, values: &[Vec<u8>]) -> Duration {
        let m = Self::fit(values, &self.params, self.next_seed());
        let elapsed = m.elapsed;
        self.install(m);
        elapsed
    }

    /// Starts a background training run on the snapshot. No-op if one is
    /// already pending. When `done` is given, it is set (release-ordered)
    /// after the trained model is queued — a store can poll that one atomic
    /// on its op path instead of taking any lock.
    pub fn train_in_background_with(
        &mut self,
        values: Vec<Vec<u8>>,
        done: Option<Arc<AtomicBool>>,
    ) {
        if self.pending.get_mut().unwrap().is_some() {
            return;
        }
        let (tx, rx) = sync_channel(1);
        let (params, seed) = (self.params, self.next_seed());
        std::thread::spawn(move || {
            // Drop guard: the flag fires on *every* exit — after the send
            // on success (so a ready observation always finds the model in
            // the channel), and on unwind if training panics (the sender
            // is dropped first, so the observer's try_recv sees
            // Disconnected and clears its pending state instead of wedging
            // background retraining forever).
            struct SignalOnDrop(Option<Arc<AtomicBool>>);
            impl Drop for SignalOnDrop {
                fn drop(&mut self) {
                    if let Some(flag) = self.0.take() {
                        flag.store(true, Ordering::Release);
                    }
                }
            }
            let signal = SignalOnDrop(done);
            let m = Self::fit(&values, &params, seed);
            // Receiver may have been dropped (store torn down) — ignore.
            let _ = tx.send(m);
            drop(signal);
        });
        *self.pending.get_mut().unwrap() = Some(rx);
    }

    /// Whether a background run is in flight.
    pub fn training_in_progress(&self) -> bool {
        self.pending.lock().unwrap().is_some()
    }

    /// Installs a finished background model if one is ready. Returns true
    /// when a swap happened (the store must then publish
    /// [`ModelManager::snapshot`] to its engines, which relabel their
    /// pools).
    pub fn try_install_background(&mut self) -> bool {
        let pending = self.pending.get_mut().unwrap();
        let Some(rx) = pending else {
            return false;
        };
        match rx.try_recv() {
            Ok(m) => {
                *pending = None;
                self.install(m);
                true
            }
            Err(TryRecvError::Empty) => false,
            Err(TryRecvError::Disconnected) => {
                *pending = None;
                false
            }
        }
    }

    /// Blocks until the in-flight background run (if any) is installed.
    pub fn wait_for_background(&mut self) -> bool {
        let Some(rx) = self.pending.get_mut().unwrap().take() else {
            return false;
        };
        match rx.recv() {
            Ok(m) => {
                self.install(m);
                true
            }
            Err(_) => false,
        }
    }

    /// Publishes a finished run: bump the epoch, swap the `Arc`. The score
    /// table came with the model, so nothing here scales with the value
    /// size — this runs on a client's op path.
    fn install(&mut self, m: TrainedModel) {
        self.stats = TrainStats {
            last_train_wall: m.elapsed,
            phases: m.phases,
            samples_pre_cap: m.samples_pre_cap,
            samples_post_cap: m.samples_post_cap,
            epoch: self.stats.epoch + 1,
        };
        self.current = Arc::new(ModelSnapshot {
            value_bits: self.params.value_bits,
            kmeans: m.kmeans,
            scorer: m.scorer,
            trained: true,
            epoch: self.stats.epoch,
        });
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

    /// The sharded store keeps the trainer behind a `Mutex` and snapshots
    /// behind `Arc`s; both only compile if these are `Send + Sync`.
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
        assert_eq!(m.predict(&[0xFF, 0, 0, 0]), 0);
        assert_eq!(m.k(), 1);
        assert_eq!(m.snapshot().epoch(), 0);
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
        assert_eq!(m.k(), 2);
        let lo = m.predict(&[0, 0, 0, 1]);
        let hi = m.predict(&[0xFF, 0xFF, 0xFF, 0xF1]);
        assert_ne!(lo, hi);
        let mut scratch = PredictScratch::new();
        let c = m.predict_into(&[0, 0, 0, 0], &mut scratch);
        assert_eq!(c, lo);
        assert_eq!(m.ranked_after_predict(&mut scratch).len(), 2);
    }

    #[test]
    fn background_training_installs() {
        let mut m = ModelManager::new(&small_cfg());
        let values: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i, 0, 0, 0]).collect();
        m.train_in_background_with(values, None);
        assert!(m.training_in_progress());
        assert!(m.wait_for_background());
        assert!(m.is_trained());
        assert_eq!(m.retrains(), 1);
        assert!(!m.training_in_progress());
        assert_eq!(m.snapshot().epoch(), 1);
    }

    #[test]
    fn background_done_flag_set_after_model_is_ready() {
        let mut m = ModelManager::new(&small_cfg());
        let values: Vec<Vec<u8>> = (0..60u8).map(|i| vec![i, i / 2, 0, 0]).collect();
        let done = Arc::new(AtomicBool::new(false));
        m.train_in_background_with(values, Some(Arc::clone(&done)));
        // Spin until the flag flips, then the model must install instantly.
        while !done.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        assert!(m.try_install_background(), "flag implies a queued model");
        assert_eq!(m.retrains(), 1);
    }

    #[test]
    fn second_background_request_is_noop_while_pending() {
        let mut m = ModelManager::new(&small_cfg());
        let values: Vec<Vec<u8>> = (0..200u8).map(|i| vec![i, i, 0, 0]).collect();
        m.train_in_background_with(values.clone(), None);
        m.train_in_background_with(values, None); // ignored
        m.wait_for_background();
        assert_eq!(m.retrains(), 1);
    }

    #[test]
    fn pca_path_for_large_values() {
        let cfg = PnwConfig::new(32, 256).with_clusters(2); // 2048 bits > threshold
        assert!(cfg.uses_pca());
        let mut m = ModelManager::new(&cfg);
        let values = two_macro_patterns();
        m.train(&values);
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
        assert!(m.uses_packed());
        let mut scratch = PredictScratch::new();
        for v in &values {
            let packed = m.predict_into(v, &mut scratch);
            let float = m.kmeans().predict(&bits_to_features(v));
            assert_eq!(packed, float, "value {v:?}");
            // Scratch distances match the float scan within tolerance.
            for (c, &d) in scratch.distances().iter().enumerate() {
                let r = pnw_ml::matrix::sq_dist(m.kmeans().centroid(c), &bits_to_features(v));
                assert!((d - r).abs() <= 1e-3 * (1.0 + r), "c{c}: {d} vs {r}");
            }
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
        assert!(
            !m.uses_packed(),
            "the kernel follows uses_pca() from the placeholder on"
        );
        assert_eq!(m.predict(&[0xA5; 256]), 0);
        let values = two_macro_patterns();
        m.train(&values);
        assert!(!m.uses_packed());
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
            assert_eq!(m.k(), 1);
            assert_eq!(m.predict(&vec![0xFF; cfg.value_size]), 0);
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
        let mut scratch = PredictScratch::new();
        let before = m.predict_into(&[0xFF, 0xFF, 0xFF, 0xFF], &mut scratch);
        // Retrain on *only* the low family: the swapped-in model must drive
        // predictions (stale LUTs would keep the old separation).
        m.train(&low);
        for v in &both {
            assert_eq!(
                m.predict_into(v, &mut scratch),
                m.kmeans().predict(&bits_to_features(v)),
            );
        }
        let _ = before;
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
        assert_eq!(m.kmeans().centroids(), m2.kmeans().centroids());
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
        let k = m.k();
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
