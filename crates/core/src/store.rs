//! The single-threaded PNW store: a [`ShardEngine`] plus a private
//! [`ModelManager`], behind a cheap interior-mutability handle.
//!
//! This is the paper's Figure 2 system exactly as Algorithms 1–3 describe
//! it. The write path itself lives in [`crate::shard`] so the concurrent
//! [`ShardedPnwStore`](crate::ShardedPnwStore) can reuse it per shard;
//! `PnwStore` is the one-shard composition and remains the reference
//! implementation every figure harness drives.
//!
//! Since the API unification, every operation takes `&self`: the engine
//! and trainer live behind one store-wide `RwLock`, GETs take it shared
//! (the engine's read path is lock-free underneath via
//! [`pnw_nvm_sim::NvmDevice::peek`]) and writes take it exclusively. That
//! makes `PnwStore` a first-class [`Store`] — shareable behind an
//! `Arc<dyn Store>` and drivable by the same concurrent harness as the
//! sharded store — while a single-threaded caller pays only an uncontended
//! lock per op.

use std::sync::RwLock;
use std::time::Duration;

use pnw_nvm_sim::{DeviceStats, LatencyModel, WearCdf};

use crate::api::{Batch, BatchReport, Store};
use crate::config::{BackingMode, PnwConfig, RetrainMode};
use crate::durable::{geometry_hash, DurableStore, ShardCheckpoint};
use crate::error::StoreError;
use crate::metrics::{OpReport, StoreSnapshot};
use crate::model::ModelManager;
use crate::shard::{PutPath, ShardEngine};

/// The engine + trainer pair the store's lock protects. All store logic
/// lives here; the public [`PnwStore`] methods only take the lock and
/// delegate (public methods must never call each other through the lock —
/// the `RwLock` is not reentrant).
struct Inner {
    engine: ShardEngine,
    model: ModelManager,
    /// The durable metadata controller when the store is file-backed;
    /// `None` for volatile stores.
    durable: Option<DurableStore>,
}

impl Inner {
    fn put(&mut self, key: u64, value: &[u8], expires_at_ms: u64) -> Result<OpReport, StoreError> {
        self.engine.check_value(value)?;
        self.maybe_install_background();
        let (report, path) = self.engine.put_with_expiry(key, value, expires_at_ms)?;
        if path == PutPath::Fresh {
            self.maybe_trigger_retrain();
        }
        Ok(report)
    }

    fn delete(&mut self, key: u64) -> Result<bool, StoreError> {
        self.maybe_install_background();
        self.engine.delete(key)
    }

    fn retrain_now(&mut self) -> Result<Duration, StoreError> {
        let snapshot = self
            .engine
            .training_values(self.engine.config().train_sample);
        let elapsed = self.model.train(&snapshot);
        self.engine.install_model(self.model.snapshot());
        Ok(elapsed)
    }

    fn retrain_in_background(&mut self) {
        let snapshot = self
            .engine
            .training_values(self.engine.config().train_sample);
        self.model.train_in_background(snapshot);
    }

    fn maybe_install_background(&mut self) {
        if self.model.try_install_background() {
            self.engine.install_model(self.model.snapshot());
        }
    }

    fn maybe_trigger_retrain(&mut self) {
        if !self.engine.retrain_due() {
            return;
        }
        // §V-C: the load factor "warns that the system will need to be
        // retrained in the near future" — extend the zone first if reserve
        // remains, then retrain per policy.
        self.engine.extend_from_reserve_if_due();
        self.trigger_retrain_policy();
    }

    /// The retrain half of the §V-C trigger (the batch path extends
    /// in-stream via the group executor and runs only this at the end).
    fn trigger_retrain_policy(&mut self) {
        match self.engine.config().retrain {
            RetrainMode::Manual => {}
            RetrainMode::OnLoadFactor => {
                let _ = self.retrain_now();
            }
            RetrainMode::Background => {
                if !self.model.training_in_progress() {
                    self.retrain_in_background();
                }
            }
        }
    }

    fn crash_and_recover(&mut self) -> Result<(), StoreError> {
        self.engine.recover_structures()?;
        // The model is DRAM-resident: reconstruct it by retraining
        // (§V-A.1: "can be reconstructed after a crash").
        self.model = ModelManager::new(self.engine.config());
        self.retrain_now()?;
        Ok(())
    }
}

/// The Predict-and-Write key/value store.
pub struct PnwStore {
    /// The configuration, cached outside the lock so
    /// [`PnwStore::config`] and the [`Store`] accessors stay lock-free.
    cfg: PnwConfig,
    inner: RwLock<Inner>,
}

impl PnwStore {
    /// Creates a store with a fresh zeroed device.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) message when
    /// `cfg` fails [`PnwConfig::validate`] — use [`PnwConfig::build`]
    /// first to handle invalid configurations as values — and when `cfg`
    /// asks for a file backing (durable stores go through
    /// [`PnwStore::open`], which can report I/O and corruption errors).
    pub fn new(cfg: PnwConfig) -> Self {
        let cfg = cfg
            .build()
            .unwrap_or_else(|e| panic!("invalid PnwConfig: {e}"));
        assert!(
            matches!(cfg.backing, BackingMode::Volatile),
            "file-backed stores must be created with PnwStore::open"
        );
        let model = ModelManager::new(&cfg);
        PnwStore {
            cfg: cfg.clone(),
            inner: RwLock::new(Inner {
                engine: ShardEngine::new(cfg),
                model,
                durable: None,
            }),
        }
    }

    /// Opens a store according to `cfg.backing`.
    ///
    /// * [`BackingMode::Volatile`] — equivalent to [`PnwStore::new`] but
    ///   non-panicking on invalid configs.
    /// * [`BackingMode::File`] — opens (or initializes) the durable
    ///   directory: the device's cell array is loaded from its
    ///   write-through backing file, the last checkpoint plus the WAL
    ///   suffix determine the committed key set, the data zone is repaired
    ///   to exactly that set, and the DRAM-side structures (index if
    ///   DRAM-resident, pool, model) are rebuilt from it. Every committed
    ///   operation is served bit-for-bit; no unacknowledged key survives.
    pub fn open(cfg: PnwConfig) -> Result<Self, StoreError> {
        let cfg = cfg.build()?;
        let BackingMode::File(dir) = cfg.backing.clone() else {
            return Ok(PnwStore::new(cfg));
        };
        let initial = vec![ShardCheckpoint::fresh(cfg.capacity as u64)];
        let (durable, mut recovered, fresh) =
            DurableStore::open(&dir, geometry_hash(&cfg, 1), cfg.value_size, initial)?;
        let rec = recovered.remove(0);
        let mut engine = ShardEngine::open_file(cfg.clone(), durable.data_path(0))?;
        engine.set_active_buckets(rec.active as usize);
        // Retirements restore first so the repair and recovery scans skip
        // damaged media instead of writing to it.
        engine.restore_retired(&rec.retired);
        engine.repair_after_replay(&rec.committed)?;
        engine.recover_structures()?;
        // Committed keys stranded on retired buckets stay addressable (the
        // loss must surface as a typed Corruption, never a silent miss).
        engine.reindex_retired_committed(&rec.committed)?;
        // Counters restore last so the repair's own writes don't perturb
        // the checkpointed values.
        engine.restore_device_counters(rec.stats, &rec.word_writes, rec.bit_flips.as_deref());
        let mut appender = durable.wal_appender(0)?;
        appender.preload_values(rec.values);
        engine.attach_durable(appender);
        let model = ModelManager::new(&cfg);
        let store = PnwStore {
            cfg,
            inner: RwLock::new(Inner {
                engine,
                model,
                durable: Some(durable),
            }),
        };
        if !fresh && !store.is_empty() {
            // The model is DRAM-resident and died with the process;
            // reconstruct it from the recovered data zone (§V-A.1).
            store.retrain_now()?;
        }
        Ok(store)
    }

    /// Cuts a durable checkpoint: flushes the device backing, snapshots
    /// the committed state and runs the write-new → fsync → rename →
    /// superblock-bump protocol. The WAL is truncated afterwards, so
    /// recovery cost resets to zero. No-op on a volatile store.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let inner = &mut *self.inner.write().unwrap();
        let Some(durable) = inner.durable.as_mut() else {
            return Ok(());
        };
        inner.engine.sync_device()?;
        let state = inner.engine.checkpoint_state()?;
        durable.checkpoint(&[state])?;
        // The checkpointed device image is now the repair source of record;
        // the WAL value mirror can be dropped with the truncated WAL.
        inner.engine.clear_wal_values();
        Ok(())
    }

    /// Closes the store cleanly: cuts a final checkpoint (on a durable
    /// store) and drops it. Equivalent to `checkpoint()` + drop, named so
    /// call sites read as a lifecycle.
    pub fn close(self) -> Result<(), StoreError> {
        self.checkpoint()
    }

    /// Whether this store persists to a file backing.
    pub fn is_durable(&self) -> bool {
        self.inner.read().unwrap().durable.is_some()
    }

    /// Arms a torn write on the underlying device: the next data-zone
    /// write persists only `words` whole words and the device crashes
    /// (test hook for crash-consistency scenarios).
    pub fn arm_torn_write(&self, words: usize) {
        self.inner.write().unwrap().engine.arm_torn_write(words);
    }

    /// Arms a stuck-at fault on one bit of `key`'s stored value (bit 0 =
    /// LSB of the value's first byte) — the wear-out test hook. Returns
    /// whether the key was present to arm against.
    pub fn arm_stuck_at_key(
        &self,
        key: u64,
        bit: u32,
        stuck_at_one: bool,
    ) -> Result<bool, StoreError> {
        self.inner
            .write()
            .unwrap()
            .engine
            .arm_stuck_at_key(key, bit, stuck_at_one)
    }

    /// Runs one full integrity-scrub pass over the data zone: every live
    /// bucket's CRC is verified, corrupt buckets are repaired from the
    /// durable layer when a clean copy exists, and damaged media is
    /// retired from placement. Returns the cumulative scrub counters.
    pub fn scrub_pass(&self) -> Result<crate::metrics::ScrubStats, StoreError> {
        self.inner.write().unwrap().engine.scrub_pass()
    }

    /// Arms a deterministic metadata tear (superblock / WAL / checkpoint)
    /// on a durable store; no-op on a volatile one (test hook).
    pub fn arm_meta_tear(&self, tear: pnw_nvm_sim::MetaTear) {
        if let Some(d) = &self.inner.read().unwrap().durable {
            d.arm_meta_tear(tear);
        }
    }

    /// Persists the device's cell image (the NVM part's durable state) to a
    /// file. Reopen with [`PnwStore::load_image`].
    pub fn save_image(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.inner.read().unwrap().engine.save_image(path)
    }

    /// Opens a store from a previously saved cell image, rebuilding all
    /// DRAM-side state (index if
    /// [`IndexPlacement::Dram`](crate::IndexPlacement::Dram), model, pool)
    /// exactly as crash recovery would. `cfg` must match the geometry the
    /// image was created with.
    pub fn load_image(cfg: PnwConfig, path: &std::path::Path) -> Result<Self, StoreError> {
        let cfg = cfg.build()?;
        let image =
            std::fs::read(path).map_err(|_| StoreError::Nvm(pnw_nvm_sim::NvmError::Crashed))?;
        let model = ModelManager::new(&cfg);
        let store = PnwStore {
            cfg: cfg.clone(),
            inner: RwLock::new(Inner {
                engine: ShardEngine::with_device(cfg, Some(image)),
                model,
                durable: None,
            }),
        };
        store.crash_and_recover()?;
        Ok(store)
    }

    /// The store's configuration.
    pub fn config(&self) -> &PnwConfig {
        &self.cfg
    }

    /// Live key count.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().engine.len()
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative device statistics.
    pub fn device_stats(&self) -> DeviceStats {
        self.inner.read().unwrap().engine.device_stats().clone()
    }

    /// The device's latency model.
    pub fn latency_model(&self) -> LatencyModel {
        self.inner.read().unwrap().engine.device().latency_model()
    }

    /// Highest per-word write count seen anywhere on the device.
    pub fn max_word_writes(&self) -> u32 {
        self.inner.read().unwrap().engine.device().max_word_writes()
    }

    /// Figure-12-style per-word wear CDF over the *active* data zone.
    pub fn word_wear_cdf(&self) -> WearCdf {
        let inner = self.inner.read().unwrap();
        let (start, len) = inner.engine.data_zone_range();
        inner.engine.device().word_wear_cdf(start, len)
    }

    /// Figure-13-style per-bit wear CDF over the active data zone; `None`
    /// unless the store was built with
    /// [`PnwConfig::with_bit_wear`]`(true)`.
    pub fn bit_wear_cdf(&self) -> Option<WearCdf> {
        let inner = self.inner.read().unwrap();
        let (start, len) = inner.engine.data_zone_range();
        inner.engine.device().bit_wear_cdf(start, len)
    }

    /// Clears device statistics so a measurement window excludes warm-up
    /// traffic.
    pub fn reset_device_stats(&self) {
        self.inner.write().unwrap().engine.reset_device_stats();
    }

    /// Clears wear counters (Figures 12/13 measure wear over a stream that
    /// excludes warm-up writes).
    pub fn reset_wear(&self) {
        self.inner.write().unwrap().engine.reset_wear();
    }

    /// Byte range of the *active* data zone (for wear CDFs restricted to
    /// it, as in Figures 12/13).
    pub fn data_zone_range(&self) -> (usize, usize) {
        self.inner.read().unwrap().engine.data_zone_range()
    }

    /// Buckets currently in the active data zone.
    pub fn active_capacity(&self) -> usize {
        self.inner.read().unwrap().engine.active_capacity()
    }

    /// Reserved buckets not yet activated.
    pub fn reserve_remaining(&self) -> usize {
        self.inner.read().unwrap().engine.reserve_remaining()
    }

    /// Extends the data zone by up to `buckets` reserved buckets (§V-C).
    ///
    /// The freshly-activated addresses join the dynamic address pool under
    /// the current model's labels; nothing in the NVM hash index moves —
    /// *"our method to expand the size of a cluster does not impose any
    /// extra writes to the NVM"*. Call [`PnwStore::retrain_now`] (or rely
    /// on the load-factor trigger) to refresh the model on the grown zone.
    ///
    /// Returns how many buckets were activated (0 when the reserve is
    /// exhausted).
    pub fn extend_zone(&self, buckets: usize) -> usize {
        self.inner.write().unwrap().engine.extend_zone(buckets)
    }

    /// PUT / UPDATE (Algorithm 2 + §V-B.3).
    pub fn put(&self, key: u64, value: &[u8]) -> Result<OpReport, StoreError> {
        self.inner.write().unwrap().put(key, value, 0)
    }

    /// PUT with an absolute unix-ms expiry deadline (0 = never). Ignored
    /// unless the store was built with [`PnwConfig::with_ttl`].
    pub fn put_with_expiry(
        &self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
    ) -> Result<OpReport, StoreError> {
        self.inner.write().unwrap().put(key, value, expires_at_ms)
    }

    /// Ordered range scan over the inclusive key range `[lo, hi]` — see
    /// [`Store::scan`] for the consistency contract.
    pub fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        self.inner.read().unwrap().engine.scan_range(lo, hi)
    }

    /// GET (§V-B.4): through the hash index, no data-structure changes.
    ///
    /// Takes the store lock *shared*: the lookup and the value read go
    /// through [`pnw_nvm_sim::NvmDevice::peek`], so concurrent readers run
    /// in parallel (and GETs record no device statistics).
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read().unwrap().engine.get(key)
    }

    /// GET into a caller-provided buffer of exactly `value_size` bytes —
    /// the allocation-free read path. Returns whether the key was present.
    pub fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, StoreError> {
        self.inner.read().unwrap().engine.get_into(key, out)
    }

    /// DELETE (Algorithm 3): reset the flag bit, recycle the address into
    /// the pool under its *content's* label.
    pub fn delete(&self, key: u64) -> Result<bool, StoreError> {
        self.inner.write().unwrap().delete(key)
    }

    /// Pre-fills every *free* bucket's cells with values from `gen`,
    /// leaving them free. This reproduces the paper's experimental setup
    /// (§VI-B: *"we first have set aside 5K buckets as the 'old data' on
    /// the NVM"*): the pool then steers incoming writes onto bit-similar
    /// stale content. Call [`PnwStore::retrain_now`] afterwards so the
    /// model learns the prefilled distribution.
    pub fn prefill_free_buckets(
        &self,
        gen: impl FnMut() -> Vec<u8>,
    ) -> Result<usize, StoreError> {
        self.inner.write().unwrap().engine.prefill_free_buckets(gen)
    }

    /// Trains the model synchronously on the current data zone, publishes
    /// the new snapshot to the engine and rebuilds the pool under the new
    /// labels (Algorithm 1). Returns training time.
    pub fn retrain_now(&self) -> Result<Duration, StoreError> {
        self.inner.write().unwrap().retrain_now()
    }

    /// Starts a background retraining run if none is pending (§V-C). The
    /// new model is installed at a later operation boundary.
    pub fn retrain_in_background(&self) {
        self.inner.write().unwrap().retrain_in_background();
    }

    /// Blocks until an in-flight background retrain (if any) installs.
    pub fn wait_for_retrain(&self) {
        let mut inner = self.inner.write().unwrap();
        if inner.model.wait_for_background() {
            let snapshot = inner.model.snapshot();
            inner.engine.install_model(snapshot);
        }
    }

    /// Simulates a power failure followed by a restart: the DRAM state
    /// (index if [`IndexPlacement::Dram`](crate::IndexPlacement::Dram),
    /// model, pool) is discarded and rebuilt from NVM, exactly as §V-A.3
    /// describes for each architecture.
    pub fn crash_and_recover(&self) -> Result<(), StoreError> {
        self.inner.write().unwrap().crash_and_recover()
    }

    /// Point-in-time metrics snapshot.
    pub fn snapshot(&self) -> StoreSnapshot {
        let inner = self.inner.read().unwrap();
        inner.engine.snapshot(inner.model.train_stats())
    }

    /// Whether the model has completed at least one training run.
    pub fn is_trained(&self) -> bool {
        self.inner.read().unwrap().model.is_trained()
    }

    /// Completed training runs.
    pub fn retrains(&self) -> u64 {
        self.inner.read().unwrap().model.retrains()
    }

    /// Current cluster count K of the trained model.
    pub fn model_k(&self) -> usize {
        self.inner.read().unwrap().model.k()
    }

    /// Predicts the cluster for a value under the current model (the
    /// standalone prediction kernel, for benches and diagnostics).
    pub fn predict(&self, value: &[u8]) -> usize {
        self.inner.read().unwrap().model.predict(value)
    }

    /// The current immutable model snapshot (centroids and their score
    /// table) — an `Arc` clone, safe to inspect outside the lock.
    pub fn model_snapshot(&self) -> std::sync::Arc<crate::model::ModelSnapshot> {
        self.inner.read().unwrap().model.snapshot()
    }

    /// Free buckets currently in the dynamic address pool.
    pub fn pool_free(&self) -> usize {
        self.inner.read().unwrap().engine.pool().free()
    }

    #[cfg(test)]
    pub(crate) fn locate(&self, key: u64) -> Result<Option<u64>, StoreError> {
        self.inner.read().unwrap().engine.locate(key)
    }

    #[cfg(test)]
    pub(crate) fn index_len(&self) -> usize {
        self.inner.read().unwrap().engine.index_len()
    }
}

impl Store for PnwStore {
    fn name(&self) -> &'static str {
        "PNW"
    }

    fn value_size(&self) -> usize {
        self.cfg.value_size
    }

    fn put(&self, key: u64, value: &[u8]) -> Result<OpReport, StoreError> {
        PnwStore::put(self, key, value)
    }

    fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        PnwStore::get(self, key)
    }

    fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, StoreError> {
        PnwStore::get_into(self, key, out)
    }

    fn delete(&self, key: u64) -> Result<bool, StoreError> {
        PnwStore::delete(self, key)
    }

    fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        PnwStore::scan(self, lo, hi)
    }

    fn put_with_expiry(
        &self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
    ) -> Result<OpReport, StoreError> {
        PnwStore::put_with_expiry(self, key, value, expires_at_ms)
    }

    fn supports_ttl(&self) -> bool {
        self.cfg.ttl_enabled
    }

    fn len(&self) -> usize {
        PnwStore::len(self)
    }

    fn snapshot(&self) -> StoreSnapshot {
        PnwStore::snapshot(self)
    }

    fn device_stats(&self) -> DeviceStats {
        PnwStore::device_stats(self)
    }

    fn reset_device_stats(&self) {
        PnwStore::reset_device_stats(self)
    }

    fn max_word_writes(&self) -> u32 {
        PnwStore::max_word_writes(self)
    }

    fn checkpoint(&self) -> Result<(), StoreError> {
        PnwStore::checkpoint(self)
    }

    /// Batched writes: the store lock is taken **once for the whole
    /// batch**, the background-install check runs once, and every PUT goes
    /// through the engine's unreported fast path
    /// ([`ShardEngine::put_unreported`]) — bit-for-bit the same device
    /// mutations as per-op PUTs, with the per-op reporting overhead
    /// stripped. Reserve extension runs at the per-op path's op boundaries
    /// (inside the shared group executor); only the retrain *policy* is
    /// deferred to once after the batch.
    fn apply(&self, batch: &Batch) -> BatchReport {
        let mut inner = self.inner.write().unwrap();
        inner.maybe_install_background();
        let before = inner.engine.device_stats().clone();
        let mut report = BatchReport::default();
        let due = inner
            .engine
            .apply_group(batch.ops(), 0..batch.len(), &mut report);
        let delta = inner.engine.device_stats().since(&before).totals;
        report.write_stats = delta;
        report.modeled_latency = inner.engine.device().modeled_write_cost(&delta);
        if due {
            inner.trigger_retrain_policy();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Op;
    use crate::config::{IndexPlacement, UpdatePolicy};
    use std::time::Duration;

    fn store(capacity: usize, value_size: usize, k: usize) -> PnwStore {
        PnwStore::new(
            PnwConfig::new(capacity, value_size)
                .with_clusters(k)
                .with_seed(7),
        )
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pnw_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_store_round_trips_across_reopen() {
        let dir = temp_dir("roundtrip");
        let cfg = PnwConfig::new(64, 8).with_clusters(2).with_seed(7);
        {
            let s = PnwStore::open(cfg.clone().with_path(&dir)).unwrap();
            assert!(s.is_durable());
            for k in 0..20u64 {
                s.put(k, &(k * 3).to_le_bytes()).unwrap();
            }
            assert!(s.delete(4).unwrap());
            s.close().unwrap();
        }
        let s = PnwStore::open(cfg.with_path(&dir)).unwrap();
        assert_eq!(s.len(), 19);
        assert_eq!(s.get(4).unwrap(), None);
        for k in (0..20u64).filter(|&k| k != 4) {
            assert_eq!(s.get(k).unwrap().unwrap(), (k * 3).to_le_bytes());
        }
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "PnwStore::open")]
    fn new_rejects_file_backing() {
        let _ = PnwStore::new(PnwConfig::new(16, 8).with_path(temp_dir("reject")));
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let s = store(64, 8, 2);
        s.put(1, &[1u8; 8]).unwrap();
        s.put(2, &[2u8; 8]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).unwrap().unwrap(), vec![1u8; 8]);
        assert!(s.delete(1).unwrap());
        assert!(!s.delete(1).unwrap());
        assert_eq!(s.get(1).unwrap(), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn wrong_size_rejected() {
        let s = store(16, 8, 2);
        assert!(matches!(
            s.put(1, &[0u8; 4]),
            Err(StoreError::WrongValueSize { expected: 8, got: 4 })
        ));
    }

    #[test]
    #[should_panic(expected = "invalid PnwConfig")]
    fn invalid_config_is_rejected_at_the_boundary() {
        let mut cfg = PnwConfig::new(4, 8);
        cfg.clusters = 99;
        let _ = PnwStore::new(cfg);
    }

    #[test]
    fn fills_to_capacity_then_full() {
        let s = store(8, 8, 1);
        for k in 0..8u64 {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        assert!(matches!(s.put(99, &[0u8; 8]), Err(StoreError::Full)));
        s.delete(0).unwrap();
        s.put(99, &[9u8; 8]).unwrap();
    }

    #[test]
    fn update_delete_put_moves_to_similar_location() {
        let s = store(128, 8, 2);
        // Two bit-pattern families.
        for k in 0..32u64 {
            let v = if k % 2 == 0 { [0x00u8; 8] } else { [0xFFu8; 8] };
            s.put(k, &v).unwrap();
        }
        s.retrain_now().unwrap();
        // Delete everything to hand labeled buckets back to the pool.
        for k in 0..32u64 {
            s.delete(k).unwrap();
        }
        s.reset_device_stats();
        // New writes matching a family should land nearly flip-free.
        let r = s.put(100, &[0xFFu8; 8]).unwrap();
        assert!(
            r.value_write.bit_flips <= 8,
            "steered write flipped {} bits",
            r.value_write.bit_flips
        );
    }

    #[test]
    fn k1_degenerates_to_dcw() {
        // §VI-D: "when we pick k=1, the result for PNW is not different
        // from DCW".
        let s = store(32, 8, 1);
        s.put(1, &[0xF0u8; 8]).unwrap();
        s.retrain_now().unwrap();
        s.delete(1).unwrap();
        let r = s.put(2, &[0xF1u8; 8]).unwrap();
        // Exactly the Hamming distance to whatever free bucket came up —
        // with k=1 there is no steering, like DCW over a free list.
        assert!(r.value_write.bit_flips <= 64);
        assert_eq!(s.model_k(), 1);
    }

    #[test]
    fn in_place_update_policy() {
        let s = PnwStore::new(
            PnwConfig::new(32, 8)
                .with_clusters(2)
                .with_update_policy(UpdatePolicy::InPlace),
        );
        s.put(5, &[0xAAu8; 8]).unwrap();
        let free_before = s.pool_free();
        let r = s.put(5, &[0xABu8; 8]).unwrap();
        // No pool interaction, no prediction.
        assert_eq!(s.pool_free(), free_before);
        assert_eq!(r.predict, Duration::ZERO);
        assert_eq!(s.get(5).unwrap().unwrap(), vec![0xABu8; 8]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn delete_put_update_policy_changes_address() {
        let s = store(32, 8, 2);
        s.put(5, &[0xAAu8; 8]).unwrap();
        let addr1 = s.locate(5).unwrap().unwrap();
        s.put(5, &[0x55u8; 8]).unwrap();
        let addr2 = s.locate(5).unwrap().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(5).unwrap().unwrap(), vec![0x55u8; 8]);
        // With 31 other free buckets, the fresh PUT practically never
        // reuses the just-freed address… but it can (it is in the pool), so
        // only assert consistency, not inequality.
        let _ = (addr1, addr2);
    }

    #[test]
    fn prefill_then_steering() {
        let s = store(64, 8, 2);
        // Half the cells hold 0x00-family, half 0xFF-family.
        let mut i = 0u32;
        s.prefill_free_buckets(|| {
            i += 1;
            if i.is_multiple_of(2) {
                vec![0x00u8; 8]
            } else {
                vec![0xFFu8; 8]
            }
        })
        .unwrap();
        s.retrain_now().unwrap();
        s.reset_device_stats();
        let r = s.put(1, &[0xFFu8; 8]).unwrap();
        // Value write should hit an 0xFF-family bucket: ~0 flips.
        assert!(r.value_write.bit_flips <= 8, "{}", r.value_write.bit_flips);
        let r2 = s.put(2, &[0x00u8; 8]).unwrap();
        assert!(r2.value_write.bit_flips <= 8, "{}", r2.value_write.bit_flips);
    }

    #[test]
    fn nvm_index_costs_bit_flips_dram_does_not() {
        let dram = PnwStore::new(PnwConfig::new(64, 8).with_clusters(1));
        let nvm = PnwStore::new(
            PnwConfig::new(64, 8)
                .with_clusters(1)
                .with_index(IndexPlacement::Nvm),
        );
        dram.put(1, &[0x11u8; 8]).unwrap();
        nvm.put(1, &[0x11u8; 8]).unwrap();
        let d = dram.device_stats().totals.bit_flips;
        let n = nvm.device_stats().totals.bit_flips;
        assert!(n > d, "nvm index must add flips: {n} vs {d}");
    }

    #[test]
    fn crash_recovery_dram_index() {
        let s = store(64, 8, 2);
        for k in 0..20u64 {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        s.delete(3).unwrap();
        s.crash_and_recover().unwrap();
        assert_eq!(s.len(), 19);
        assert_eq!(s.get(5).unwrap().unwrap(), 5u64.to_le_bytes().to_vec());
        assert_eq!(s.get(3).unwrap(), None);
        // Store remains writable.
        s.put(100, &[7u8; 8]).unwrap();
        assert_eq!(s.len(), 20);
    }

    #[test]
    fn crash_recovery_nvm_index() {
        let s = PnwStore::new(
            PnwConfig::new(64, 8)
                .with_clusters(2)
                .with_index(IndexPlacement::Nvm),
        );
        for k in 0..20u64 {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        s.delete(7).unwrap();
        s.crash_and_recover().unwrap();
        assert_eq!(s.len(), 19);
        assert_eq!(s.get(8).unwrap().unwrap(), 8u64.to_le_bytes().to_vec());
        assert_eq!(s.get(7).unwrap(), None);
    }

    #[test]
    fn load_factor_triggers_sync_retrain() {
        let s = PnwStore::new(
            PnwConfig::new(16, 8)
                .with_clusters(2)
                .with_load_factor(0.5)
                .with_retrain(RetrainMode::OnLoadFactor),
        );
        let before = s.retrains();
        for k in 0..10u64 {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        assert!(s.retrains() > before, "retrain must have fired");
    }

    #[test]
    fn background_retrain_installs_eventually() {
        let s = PnwStore::new(
            PnwConfig::new(32, 8)
                .with_clusters(2)
                .with_load_factor(0.25)
                .with_retrain(RetrainMode::Background),
        );
        for k in 0..16u64 {
            s.put(k, &(k * 7).to_le_bytes()).unwrap();
        }
        s.wait_for_retrain();
        assert!(s.is_trained());
        assert!(s.retrains() >= 1);
        // And the store still works.
        s.put(99, &[1u8; 8]).unwrap();
        assert_eq!(s.get(99).unwrap().unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn snapshot_counters() {
        let s = store(32, 8, 2);
        s.put(1, &[1u8; 8]).unwrap();
        s.get(1).unwrap();
        s.get(2).unwrap();
        s.delete(1).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.puts, 1);
        assert_eq!(snap.gets, 2);
        assert_eq!(snap.deletes, 1);
        assert_eq!(snap.live, 0);
        assert_eq!(snap.free, 32);
        assert!(snap.availability() > 0.99);
    }

    #[test]
    fn get_does_not_touch_model_or_pool() {
        // §VI-E: "the value of K does not affect the lookup request latency
        // because in the lookup, the request does not go through the model
        // or the dynamic address pool".
        let s = store(32, 8, 4);
        s.put(1, &[1u8; 8]).unwrap();
        let free = s.pool_free();
        let predict_before = s.snapshot().predict_total;
        for _ in 0..10 {
            s.get(1).unwrap();
        }
        assert_eq!(s.pool_free(), free);
        assert_eq!(s.snapshot().predict_total, predict_before);
    }

    #[test]
    fn store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PnwStore>();
    }

    #[test]
    fn concurrent_readers_share_the_lock() {
        let s = std::sync::Arc::new(store(32, 8, 2));
        s.put(1, &[9u8; 8]).unwrap();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    assert_eq!(s.get(1).unwrap().unwrap(), vec![9u8; 8]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn save_load_image_roundtrip() {
        let dir = std::env::temp_dir().join("pnw_store_image_test.bin");
        let cfg = PnwConfig::new(32, 8).with_clusters(2).with_seed(5);
        let s = PnwStore::new(cfg.clone());
        for k in 0..16u64 {
            s.put(k, &(k * 3).to_le_bytes()).unwrap();
        }
        s.delete(4).unwrap();
        s.save_image(&dir).unwrap();

        let s2 = PnwStore::load_image(cfg, &dir).unwrap();
        assert_eq!(s2.len(), 15);
        assert_eq!(s2.get(5).unwrap().unwrap(), 15u64.to_le_bytes().to_vec());
        assert_eq!(s2.get(4).unwrap(), None);
        // Reopened store keeps working.
        s2.put(100, &[7u8; 8]).unwrap();
        assert_eq!(s2.len(), 16);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn zone_extension_adds_capacity_without_index_churn() {
        // load_factor = 1.0 disables the automatic trigger so the manual
        // extension path is what's under test.
        let s = PnwStore::new(
            PnwConfig::new(8, 8)
                .with_clusters(2)
                .with_reserve(8)
                .with_load_factor(1.0)
                .with_retrain(RetrainMode::Manual),
        );
        assert_eq!(s.active_capacity(), 8);
        assert_eq!(s.reserve_remaining(), 8);
        for k in 0..8u64 {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        assert!(matches!(s.put(99, &[0u8; 8]), Err(StoreError::Full)));
        let added = s.extend_zone(4);
        assert_eq!(added, 4);
        assert_eq!(s.active_capacity(), 12);
        assert_eq!(s.reserve_remaining(), 4);
        // New capacity is usable; old keys untouched.
        s.put(99, &[9u8; 8]).unwrap();
        assert_eq!(s.get(3).unwrap().unwrap(), 3u64.to_le_bytes().to_vec());
        // Extension never exceeds the reserve.
        assert_eq!(s.extend_zone(100), 4);
        assert_eq!(s.reserve_remaining(), 0);
        assert_eq!(s.extend_zone(1), 0);
    }

    #[test]
    fn load_factor_auto_extends_from_reserve() {
        let s = PnwStore::new(
            PnwConfig::new(8, 8)
                .with_clusters(2)
                .with_reserve(8)
                .with_load_factor(0.5)
                .with_retrain(RetrainMode::OnLoadFactor),
        );
        for k in 0..8u64 {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        // The trigger fired at >50% occupancy and pulled from the reserve.
        assert!(s.active_capacity() > 8, "auto-extension must have fired");
        assert!(s.retrains() >= 1);
        // The 9th put works without manual intervention.
        s.put(100, &[1u8; 8]).unwrap();
    }

    #[test]
    fn auto_k_store_trains_with_elbow() {
        let s = PnwStore::new(
            PnwConfig::new(64, 4)
                .with_auto_k(1, 8)
                .with_retrain(RetrainMode::Manual),
        );
        let mut i = 0u32;
        s.prefill_free_buckets(|| {
            i += 1;
            match i % 3 {
                0 => vec![0x00, 0x00, 0x00, 0x00],
                1 => vec![0xFF, 0xFF, 0xFF, 0xFF],
                _ => vec![0x0F, 0xF0, 0x0F, 0xF0],
            }
        })
        .unwrap();
        s.retrain_now().unwrap();
        assert!((2..=6).contains(&s.model_k()), "k={}", s.model_k());
    }

    #[test]
    fn index_len_matches_live() {
        let s = store(32, 8, 2);
        for k in 0..10u64 {
            s.put(k, &[k as u8; 8]).unwrap();
        }
        s.delete(0).unwrap();
        assert_eq!(s.index_len(), s.len());
    }

    #[test]
    fn trait_object_drives_the_store() {
        let s: Box<dyn Store> = Box::new(store(32, 8, 2));
        assert_eq!(s.name(), "PNW");
        assert_eq!(s.value_size(), 8);
        s.put(1, &[3u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        assert!(s.get_into(1, &mut buf).unwrap());
        assert_eq!(buf, [3u8; 8]);
        assert!(s.delete(1).unwrap());
        assert!(s.is_empty());
    }

    /// Batched apply must leave the store in the same state as the
    /// equivalent per-op sequence — and the device accounting must match
    /// bit-for-bit (the batch path's whole point is cost, not semantics).
    #[test]
    fn apply_matches_per_op_bit_for_bit() {
        let (a, b) = (store(64, 8, 2), store(64, 8, 2));
        let mut batch = Batch::new();
        for k in 0..24u64 {
            batch.put(k, &[k as u8 ^ 0x5A; 8]);
        }
        for k in (0..24u64).step_by(3) {
            batch.delete(k);
        }
        for k in 0..6u64 {
            batch.put(k, &[0xEE; 8]); // re-insert over deletes + updates
        }
        let report = a.apply(&batch);
        assert!(report.all_ok());
        assert_eq!(report.puts, 30);
        assert_eq!(report.deletes, 8);
        assert_eq!(report.deleted_existing, 8);

        let mut per_op_stats = pnw_nvm_sim::WriteStats::default();
        for op in batch.ops() {
            match op {
                Op::Put { key, value } => {
                    per_op_stats += b.put(*key, value).unwrap().total_write;
                }
                Op::Delete { key } => {
                    b.delete(*key).unwrap();
                }
            }
        }
        assert_eq!(a.device_stats(), b.device_stats());
        assert_eq!(a.len(), b.len());
        for k in 0..24u64 {
            assert_eq!(a.get(k).unwrap(), b.get(k).unwrap(), "key {k}");
        }
        // The aggregate covers everything the per-op PUT reports did, plus
        // the delete flag writes.
        assert!(report.write_stats.bit_flips >= per_op_stats.bit_flips);
        assert!(report.modeled_latency > Duration::ZERO);
    }

    #[test]
    fn apply_records_failures_and_continues() {
        let s = store(2, 8, 1);
        let mut batch = Batch::new();
        batch
            .put(1, &[1; 8])
            .put(2, &[0; 4]) // wrong size
            .put(3, &[3; 8])
            .put(4, &[4; 8]) // store full
            .delete(1);
        let r = s.apply(&batch);
        assert_eq!(r.puts, 2);
        assert_eq!(r.deleted_existing, 1);
        assert_eq!(r.failures.len(), 2);
        assert!(matches!(
            r.failures[0],
            (1, StoreError::WrongValueSize { .. })
        ));
        assert!(matches!(r.failures[1], (3, StoreError::Full)));
        assert_eq!(s.len(), 1); // key 3 survived, key 1 deleted
    }
}
