//! Model lifecycle: synchronous and background retraining, the trainer
//! thread's view of the shards, publishing a snapshot to every shard, and
//! the §V-C retrain policy.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use super::{Shard, ShardedPnwStore};
use crate::config::RetrainMode;
use crate::error::PnwError;
use crate::model::{stride_sample, ModelManager, ModelSnapshot, PredictScratch, ZoneSource};

/// The live data zone as the trainer thread sees it: every shard's
/// lock-free read view, plus its engine lock — one shard's at a time,
/// nothing else held, O(1) under it — to start a label pass's
/// rewritten-since record.
struct ZoneReader {
    shards: Arc<Vec<Shard>>,
    value_size: usize,
}

impl ZoneSource for ZoneReader {
    fn sample_positions(&self, cap: usize) -> Vec<(u32, u32)> {
        let per_shard = cap.div_ceil(self.shards.len());
        let mut positions = Vec::new();
        for (sid, s) in self.shards.iter().enumerate() {
            let picks = stride_sample(s.read.active(), per_shard);
            positions.extend(picks.into_iter().map(|b| (sid as u32, b as u32)));
        }
        positions
    }

    fn read_value(&self, (sid, b): (u32, u32), out: &mut [u8]) {
        self.shards[sid as usize].read.value_snapshot(b, out);
    }

    fn label_zone(&self, model: &ModelSnapshot) -> Vec<Vec<u16>> {
        let mut scratch = PredictScratch::new();
        let mut value = vec![0u8; self.value_size];
        let label_shard = |s: &Shard| -> Vec<u16> {
            let active = s.engine.lock().unwrap().begin_label_pass();
            let mut label = |b| {
                s.read.value_racy(b, &mut value);
                crate::shard::label_u16(model.predict_into(&value, &mut scratch))
            };
            (0..active as u32).map(&mut label).collect()
        };
        self.shards.iter().map(label_shard).collect()
    }
}

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
    /// cross-shard). Deterministic: a cold fit on a snapshot taken under
    /// the locks, labels predicted under the locks. Writers are held off
    /// while their shard is snapshotted and again while it installs, not
    /// while the model trains; under live traffic prefer
    /// [`RetrainMode::Background`], whose installs predict almost nothing.
    /// A background run in flight when this installs is discarded when it
    /// finishes — it sampled older data. Returns training time.
    pub fn retrain_now(&self) -> Result<Duration, PnwError> {
        let snapshot = self.training_snapshot();
        let mut trainer = self.trainer.lock().unwrap();
        let elapsed = trainer.train(&snapshot);
        self.publish(&mut trainer);
        Ok(elapsed)
    }

    /// Starts a background retraining run if none is in flight (§V-C): a
    /// job for the trainer thread, which samples the zone through the
    /// shards' read views, fits, and labels every bucket under the new
    /// model. The model is installed — an `Arc` swap and a pool rebuild
    /// from those labels, per shard — at a later operation boundary.
    pub fn retrain_in_background(&self) {
        let mut trainer = self.trainer.lock().unwrap();
        if !trainer.training_in_progress() {
            let zone = ZoneReader {
                shards: Arc::clone(&self.shards),
                value_size: self.cfg.value_size,
            };
            trainer.train_in_background_with(zone, Some(Arc::clone(&self.model_ready)));
        }
    }

    /// Blocks until an in-flight background retrain (if any) finishes, then
    /// publishes its model to every shard.
    pub fn wait_for_retrain(&self) {
        let mut trainer = self.trainer.lock().unwrap();
        if trainer.training_in_progress() {
            let installed = trainer.wait_for_background();
            self.end_background_run(&mut trainer, installed);
        }
    }

    /// Whether the shared model has completed at least one training run.
    pub fn is_trained(&self) -> bool {
        self.retrains() > 0
    }

    /// Completed training runs of the shared model. One atomic load: a
    /// status read never queues behind a training run.
    pub fn retrains(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Model epoch (install/swap count) of the published snapshot.
    pub fn model_epoch(&self) -> u64 {
        self.retrains()
    }

    /// Current cluster count K of the trained model.
    pub fn model_k(&self) -> usize {
        self.model_snapshot().k()
    }

    /// Predicts the cluster for a value under the current model (the
    /// standalone prediction kernel, for benches and diagnostics).
    pub fn predict(&self, value: &[u8]) -> usize {
        self.model_snapshot().predict(value)
    }

    /// The current immutable model snapshot (centroids and their score
    /// table) — an `Arc` clone of shard 0's, safe to inspect outside any
    /// lock.
    pub fn model_snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(self.shards[0].engine.lock().unwrap().model())
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
        // (§V-A.1: "can be reconstructed after a crash"). Dropping the old
        // manager joins its trainer thread, so a background run caught
        // mid-flight is over — and its result gone — before the retrain's
        // install drops whatever label-pass records it started.
        *self.trainer.lock().unwrap() = ModelManager::new(&self.cfg);
        self.retrain_now()?;
        Ok(())
    }

    /// Publishes the trainer's current snapshot to every shard, each under
    /// that shard's engine lock: one `Arc` swap and a pool rebuild — from
    /// the label pass that came with a background run, or by predicting
    /// every free bucket there and then.
    fn publish(&self, trainer: &mut ModelManager) {
        let snapshot = trainer.snapshot();
        let labels = trainer.take_zone_labels();
        let (mut stale, mut predicted) = (0, 0);
        for (sid, mut eng) in self.engines().enumerate() {
            let model = Arc::clone(&snapshot);
            let (s, p) = match &labels {
                Some(labels) => eng.install_labelled(model, &labels[sid]),
                None => (0, eng.install_model(model)),
            };
            stale += s;
            predicted += p;
        }
        trainer.record_install(stale, predicted);
        self.epoch.store(snapshot.epoch(), Ordering::Release);
    }

    /// The store's half of a background run's end: publish the model it
    /// installed — or, when it left none (the run died, or a synchronous
    /// retrain overtook it), drop the label-pass records it started — and
    /// re-arm the retrain policy.
    fn end_background_run(&self, trainer: &mut ModelManager, installed: bool) {
        if installed {
            self.publish(trainer);
        } else {
            self.engines().for_each(|mut e| e.abandon_label_pass());
        }
        self.model_ready.store(false, Ordering::Release);
        self.maintenance.store(false, Ordering::Release);
    }

    /// Steady-state fast path: one atomic load. Only when the trainer
    /// thread has signalled completion does an op thread take the trainer
    /// lock (non-blocking — a loser skips, the winner publishes).
    #[inline]
    pub(super) fn install_if_ready(&self) {
        if !self.model_ready.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut trainer) = self.trainer.try_lock() else {
            return;
        };
        let installed = trainer.try_install_background();
        // Nothing installed and nothing in flight is a stale flag — the run
        // was consumed by wait_for_retrain, died (the completion flag fires
        // on unwind too), or was overtaken by a synchronous retrain. Clear
        // up either way, so the fast path stays fast and a later due PUT
        // can start a fresh run instead of wedging forever.
        if installed || !trainer.training_in_progress() {
            self.end_background_run(&mut trainer, installed);
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
                // swaps the model in (also when a run was already in
                // flight) — that is what stops every subsequent due PUT
                // from queueing another job.
            }
        }
    }
}
