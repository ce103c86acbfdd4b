//! Model lifecycle: training snapshots, synchronous and background
//! retraining, publishing a snapshot to every shard, and the §V-C retrain
//! policy.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use super::ShardedPnwStore;
use crate::config::RetrainMode;
use crate::error::PnwError;
use crate::model::{ModelManager, ModelSnapshot};

impl ShardedPnwStore {
    /// Training snapshot across every shard's active data zone, capped at
    /// `train_sample` values total (split evenly across shards).
    fn training_snapshot(&self) -> Vec<Vec<u8>> {
        let per_shard = self.cfg.train_sample.div_ceil(self.shards.len());
        let mut values = Vec::new();
        for s in self.shards.iter() {
            values.extend(s.engine.lock().unwrap().training_values(per_shard));
        }
        values
    }

    /// Trains the shared model synchronously on all shards' data zones and
    /// publishes the new snapshot — swapping each shard's `Arc` and
    /// relabeling its pool under that shard's lock (Algorithm 1,
    /// cross-shard). Blocks writers for the duration; prefer
    /// [`RetrainMode::Background`] under live traffic. Returns training
    /// time.
    pub fn retrain_now(&self) -> Result<Duration, PnwError> {
        let snapshot = self.training_snapshot();
        let mut trainer = self.trainer.lock().unwrap();
        let elapsed = trainer.train(&snapshot);
        self.publish(&trainer);
        Ok(elapsed)
    }

    /// Starts a background retraining run if none is pending (§V-C). The
    /// new model is installed — and every shard's pool relabeled — at a
    /// later operation boundary.
    pub fn retrain_in_background(&self) {
        let mut trainer = self.trainer.lock().unwrap();
        if !trainer.training_in_progress() {
            let snapshot = self.training_snapshot();
            trainer.train_in_background_with(snapshot, Some(Arc::clone(&self.model_ready)));
        }
    }

    /// Blocks until an in-flight background retrain (if any) installs, then
    /// publishes the snapshot to every shard.
    pub fn wait_for_retrain(&self) {
        let mut trainer = self.trainer.lock().unwrap();
        if trainer.wait_for_background() {
            self.publish(&trainer);
            self.model_ready.store(false, Ordering::Release);
            self.maintenance.store(false, Ordering::Release);
        }
    }

    /// Whether the shared model has completed at least one training run.
    pub fn is_trained(&self) -> bool {
        self.trainer.lock().unwrap().is_trained()
    }

    /// Completed training runs of the shared model.
    pub fn retrains(&self) -> u64 {
        self.trainer.lock().unwrap().retrains()
    }

    /// Model epoch (install/swap count) of the published snapshot.
    pub fn model_epoch(&self) -> u64 {
        self.trainer.lock().unwrap().snapshot().epoch()
    }

    /// Current cluster count K of the trained model.
    pub fn model_k(&self) -> usize {
        self.trainer.lock().unwrap().k()
    }

    /// Predicts the cluster for a value under the current model (the
    /// standalone prediction kernel, for benches and diagnostics).
    pub fn predict(&self, value: &[u8]) -> usize {
        self.trainer.lock().unwrap().predict(value)
    }

    /// The current immutable model snapshot (centroids and their score
    /// table) — an `Arc` clone, safe to inspect outside any lock.
    pub fn model_snapshot(&self) -> Arc<ModelSnapshot> {
        self.trainer.lock().unwrap().snapshot()
    }

    /// Simulates a power failure followed by a restart: the DRAM state
    /// (index if [`IndexPlacement::Dram`](crate::IndexPlacement::Dram),
    /// model, pool) is discarded and rebuilt from NVM, exactly as §V-A.3
    /// describes for each architecture.
    pub fn crash_and_recover(&self) -> Result<(), PnwError> {
        for s in self.shards.iter() {
            s.engine.lock().unwrap().recover_structures()?;
        }
        // The model is DRAM-resident: reconstruct it by retraining
        // (§V-A.1: "can be reconstructed after a crash").
        *self.trainer.lock().unwrap() = ModelManager::new(&self.cfg);
        self.retrain_now()?;
        Ok(())
    }

    /// Publishes the trainer's current snapshot to every shard: one `Arc`
    /// swap + pool relabel per shard, each under that shard's engine lock.
    fn publish(&self, trainer: &ModelManager) {
        let snapshot = trainer.snapshot();
        for s in self.shards.iter() {
            s.engine
                .lock()
                .unwrap()
                .install_model(Arc::clone(&snapshot));
        }
    }

    /// Steady-state fast path: one atomic load. Only when the background
    /// trainer has signalled completion does an op thread take the trainer
    /// lock (non-blocking — a loser skips, the winner publishes).
    #[inline]
    pub(super) fn install_if_ready(&self) {
        if !self.model_ready.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut trainer) = self.trainer.try_lock() else {
            return;
        };
        if trainer.try_install_background() {
            self.publish(&trainer);
            self.model_ready.store(false, Ordering::Release);
            self.maintenance.store(false, Ordering::Release);
        } else if !trainer.training_in_progress() {
            // Stale flag: the run was consumed by wait_for_retrain, or its
            // thread panicked (the completion flag fires on unwind too and
            // try_install_background just saw Disconnected). Clear both
            // flags so the fast path stays fast and a later due PUT can
            // start a fresh retrain instead of wedging forever.
            self.model_ready.store(false, Ordering::Release);
            self.maintenance.store(false, Ordering::Release);
        }
    }

    /// The cross-shard half of maintenance: start (or run) a retrain per
    /// policy, serialized by the `maintenance` flag. Takes no shard lock
    /// up front (lock order stays trainer → shard).
    pub(super) fn trigger_retrain_policy(&self) {
        if self.cfg.retrain == RetrainMode::Manual {
            return;
        }
        if self
            .maintenance
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        match self.cfg.retrain {
            RetrainMode::Manual => unreachable!("handled above"),
            RetrainMode::OnLoadFactor => {
                let _ = self.retrain_now();
                self.maintenance.store(false, Ordering::Release);
            }
            RetrainMode::Background => {
                self.retrain_in_background();
                // The maintenance flag stays set until install_if_ready()
                // swaps the model in (also when a run was already pending)
                // — that is what stops every subsequent PUT from
                // re-snapshotting the data zone.
            }
        }
    }
}
