//! Model lifecycle and background work: the store's one worker thread — it
//! owns the [`ModelManager`], runs the background retrains, installs every
//! model in arrival order, shard by shard, and takes the scrubber's steps
//! between jobs — the view of the zone a fit reads, and the §V-C retrain
//! policy.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::{Shard, ShardedPnwStore};
use crate::config::{PnwConfig, RetrainMode};
use crate::error::PnwError;
use crate::metrics::TrainStats;
use crate::model::{
    fit_cold, stride_sample, ModelManager, ModelSnapshot, PredictScratch, TrainParams,
    TrainedModel, ZoneSource,
};

/// A request to the store's worker. Jobs run one at a time in arrival
/// order, so installs are serialized by construction.
pub(super) enum Job {
    /// A background retrain (§V-C), queued while `maintenance` was clear.
    Background,
    /// A synchronous retrain's install: `model`, fit on the caller's
    /// thread, installed as the next epoch — of a fresh manager with
    /// `reset`. The reply carries the install's panic, if it had one.
    Install {
        model: Box<TrainedModel>,
        reset: bool,
        reply: Sender<std::thread::Result<()>>,
    },
    /// Answered once every job queued before it has run.
    Barrier(Sender<()>),
    /// The store is going away.
    Stop,
}

/// Nothing panics while holding the published stats: they are only copied.
const STATS_POISONED: &str = "a panic while copying train stats";

/// What the store, its writers and its worker share about the model.
pub(super) struct ModelState {
    jobs: Sender<Job>,
    /// Whether ops that make retraining due queue a background retrain
    /// ([`RetrainMode::Background`]).
    background_policy: bool,
    /// Epoch of the published model, stored after every shard has it: what
    /// status reads load.
    epoch: AtomicU64,
    /// Set from the moment a background retrain is queued until the worker
    /// has installed it (or the run died): what stops every due op from
    /// queueing another.
    pub(super) maintenance: AtomicBool,
    /// What the last install cost and did, published by the worker after
    /// it, so a status read never waits for a training run.
    train: Mutex<TrainStats>,
    /// Test hook: the worker runs it as its next background retrain or
    /// install starts — to park the worker there, or to make the job panic.
    #[cfg(test)]
    pub(super) job_hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl ModelState {
    /// A store's model state, and the worker thread it spawns for the
    /// store's `shards`.
    pub(super) fn spawn(cfg: &PnwConfig, shards: &Arc<Vec<Shard>>) -> (Arc<Self>, JoinHandle<()>) {
        let (jobs, inbox) = channel();
        let state = Arc::new(ModelState {
            jobs,
            background_policy: cfg.retrain == RetrainMode::Background,
            epoch: AtomicU64::new(0),
            maintenance: AtomicBool::new(false),
            train: Mutex::default(),
            #[cfg(test)]
            job_hook: Mutex::default(),
        });
        // Nothing to verify without CRCs.
        let scrub = cfg.scrub_rate.filter(|_| cfg.integrity).map(|rate| {
            let batch = rate.clamp(1, 64);
            Scrub {
                batch,
                interval: Duration::from_secs_f64(f64::from(batch) / f64::from(rate)),
                shard: 0,
                due: Instant::now(),
            }
        });
        let worker = Worker {
            cfg: cfg.clone(),
            shards: Arc::clone(shards),
            state: Arc::clone(&state),
            manager: ModelManager::new(cfg),
            scrub,
        };
        let thread = std::thread::Builder::new()
            .name("pnw-worker".into())
            .spawn(move || worker.run(inbox))
            .expect("spawning the store's worker thread");
        (state, thread)
    }

    /// Hands `job` to the worker. The worker outlives every job but
    /// [`Job::Stop`], so a job is only lost once the store is going away.
    pub(super) fn submit(&self, job: Job) {
        let _ = self.jobs.send(job);
    }

    /// Queues a background retrain unless one is queued or running.
    fn start_background(&self) {
        use Ordering::{AcqRel, Acquire};
        if self
            .maintenance
            .compare_exchange(false, true, AcqRel, Acquire)
            .is_ok()
        {
            self.submit(Job::Background);
        }
    }

    /// The §V-C policy, for an op that made retraining due. Runs after the
    /// engine lock is released; takes no lock.
    pub(super) fn retrain_due(&self) {
        if self.background_policy {
            self.start_background();
        }
    }

    /// What the last install cost and did.
    pub(super) fn train_stats(&self) -> TrainStats {
        self.train.lock().expect(STATS_POISONED).clone()
    }

    /// Takes the test hook, if one is set, and runs it.
    #[cfg(test)]
    fn run_job_hook(&self) {
        let hook = self.job_hook.lock().unwrap().take();
        if let Some(hook) = hook {
            hook();
        }
    }
}

/// The scrubber's schedule: `batch` buckets of one shard per step, shards
/// in rotation, one step per `interval` — `scrub_rate` buckets a second
/// across the store.
struct Scrub {
    batch: u32,
    interval: Duration,
    shard: usize,
    due: Instant,
}

/// The store's one background thread (`pnw-worker`). It owns the store's
/// [`ModelManager`] outright, runs [`Job`]s in arrival order, and takes a
/// scrub step whenever one falls due between them. It holds one engine at
/// a time, through [`Shard::hold`] as every holder does.
struct Worker {
    cfg: PnwConfig,
    shards: Arc<Vec<Shard>>,
    state: Arc<ModelState>,
    manager: ModelManager,
    scrub: Option<Scrub>,
}

impl Worker {
    /// The worker's loop. A job that panics ends with its panic reported on
    /// this thread — and to a waiting `retrain_now` — and the loop goes on.
    fn run(mut self, inbox: Receiver<Job>) {
        while let Some(job) = self.next_job(&inbox) {
            match job {
                Job::Background => {
                    // Installed or died, the policy is armed again.
                    let _ = catch_unwind(AssertUnwindSafe(|| self.background()));
                    self.state.maintenance.store(false, Ordering::Release);
                }
                Job::Install {
                    model,
                    reset,
                    reply,
                } => {
                    if reset {
                        self.manager = ModelManager::new(&self.cfg);
                    }
                    let _ = reply.send(catch_unwind(AssertUnwindSafe(|| self.install(model))));
                }
                Job::Barrier(reply) => {
                    let _ = reply.send(());
                }
                Job::Stop => return,
            }
        }
    }

    /// The next job, taking every scrub step that falls due before it
    /// arrives — and one between two jobs whenever a step is overdue.
    fn next_job(&mut self, inbox: &Receiver<Job>) -> Option<Job> {
        loop {
            let Some(scrub) = &self.scrub else {
                return inbox.recv().ok();
            };
            let wait = scrub.due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                match inbox.recv_timeout(wait) {
                    Ok(job) => return Some(job),
                    Err(RecvTimeoutError::Disconnected) => return None,
                    Err(RecvTimeoutError::Timeout) => {}
                }
            }
            let _ = catch_unwind(AssertUnwindSafe(|| self.scrub_step()));
        }
    }

    /// One scrub step: CRC-verify, repair or retire the next `batch`
    /// buckets of the next shard in rotation.
    fn scrub_step(&mut self) {
        let Some(scrub) = &mut self.scrub else {
            return;
        };
        let _ = self.shards[scrub.shard]
            .hold(&self.state)
            .scrub_step(scrub.batch);
        scrub.shard = (scrub.shard + 1) % self.shards.len();
        scrub.due = Instant::now() + scrub.interval;
    }

    /// A background retrain (§V-C): a fit over the zone that refreshes the
    /// PCA basis warm and labels every bucket, then installs that adopt the
    /// labels.
    fn background(&mut self) {
        #[cfg(test)]
        self.state.run_job_hook();
        let zone = ZoneReader {
            shards: &self.shards,
            state: &self.state,
            value_size: self.cfg.value_size,
        };
        let labels = self.manager.fit_zone(&zone);
        self.publish(Some(&labels));
    }

    /// A synchronous retrain's install: the caller's model becomes the next
    /// epoch, and each shard predicts its free buckets under it.
    fn install(&mut self, model: Box<TrainedModel>) {
        #[cfg(test)]
        self.state.run_job_hook();
        self.manager.install(*model);
        self.publish(None);
    }

    /// Publishes the manager's model to every shard, one engine lock at a
    /// time: an `Arc` swap and a pool rebuild — from `labels` when a label
    /// pass came with the model, or by predicting every free bucket there
    /// and then. Then the stats, then the epoch.
    fn publish(&mut self, labels: Option<&[Vec<u16>]>) {
        let snapshot = self.manager.snapshot();
        let (mut stale, mut predicted) = (0, 0);
        for (sid, sh) in self.shards.iter().enumerate() {
            let model = Arc::clone(&snapshot);
            let mut eng = sh.hold(&self.state);
            let (s, p) = match labels {
                Some(labels) => eng.install_labelled(model, &labels[sid]),
                None => (0, eng.install_model(model)),
            };
            stale += s;
            predicted += p;
        }
        self.manager.record_install(stale, predicted);
        *self.state.train.lock().expect(STATS_POISONED) = self.manager.train_stats();
        self.state.epoch.store(snapshot.epoch(), Ordering::Release);
    }
}

/// The live data zone as a fit sees it: every shard's lock-free read view —
/// sampled at the positions
/// [`ShardEngine::training_values`](crate::ShardEngine::training_values)
/// copies, each value read seqlock-validated — plus, for the worker's label
/// pass, its engine: one shard at a time, O(1) under the lock, to start the
/// pass's rewritten-since record.
struct ZoneReader<'a> {
    shards: &'a [Shard],
    state: &'a ModelState,
    value_size: usize,
}

impl ZoneSource for ZoneReader<'_> {
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
            let active = s.hold(self.state).begin_label_pass();
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
    /// Trains the shared model synchronously and publishes it to every
    /// shard (Algorithm 1, cross-shard): a cold fit on this thread, on a
    /// strided sample of every shard's active zone (`train_sample` values in
    /// all, each read seqlock-validated), then the store's worker installs
    /// it after every job queued before it — shard by shard under its engine
    /// lock, an `Arc` swap and a relabel of every free bucket. Deterministic
    /// on a quiet store. Writers are held off only while their own shard
    /// installs; under live traffic prefer [`RetrainMode::Background`],
    /// whose installs predict almost nothing. Returns the training time; a
    /// panic in the install is resumed here.
    pub fn retrain_now(&self) -> Result<Duration, PnwError> {
        Ok(self.retrain(false))
    }

    /// [`ShardedPnwStore::retrain_now`], for a fresh manager with `reset`.
    /// The fit runs here, beside whatever the worker is running, so it
    /// never waits for a background fit; its seed follows the published
    /// epoch, as the manager's own fits do.
    fn retrain(&self, reset: bool) -> Duration {
        let epoch = if reset { 0 } else { self.retrains() };
        let zone = ZoneReader {
            shards: &self.shards,
            state: &self.model,
            value_size: self.cfg.value_size,
        };
        let model = Box::new(fit_cold(&zone, &TrainParams::of(&self.cfg), epoch));
        let fit = model.fit_time();
        let (reply, answer) = channel();
        self.model.submit(Job::Install {
            model,
            reset,
            reply,
        });
        if let Err(panic) = answer.recv().expect("the worker answers every job") {
            resume_unwind(panic);
        }
        fit
    }

    /// Queues a background retrain (§V-C) unless one is queued or running:
    /// the store's worker samples the zone through the shards' read views,
    /// fits, labels every bucket under the new model and installs it — an
    /// `Arc` swap and a pool rebuild from those labels, one shard at a time.
    pub fn retrain_in_background(&self) {
        self.model.start_background();
    }

    /// Blocks until every retrain requested before this call has installed.
    pub fn wait_for_retrain(&self) {
        let (reply, answer) = channel();
        self.model.submit(Job::Barrier(reply));
        answer.recv().expect("the worker answers every job");
    }

    /// Whether the shared model has completed at least one training run.
    pub fn is_trained(&self) -> bool {
        self.retrains() > 0
    }

    /// Completed training runs of the shared model. One atomic load: a
    /// status read never queues behind a training run.
    pub fn retrains(&self) -> u64 {
        self.model.epoch.load(Ordering::Acquire)
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
        Arc::clone(self.shards[0].hold(&self.model).model())
    }

    /// Simulates a power failure followed by a restart: the DRAM state
    /// (index if [`IndexPlacement::Dram`](crate::IndexPlacement::Dram),
    /// model, pool) is discarded and rebuilt from NVM, exactly as §V-A.3
    /// describes for each architecture. Waits out the retrain in flight
    /// first.
    pub fn crash_and_recover(&self) -> Result<(), PnwError> {
        self.wait_for_retrain();
        for s in self.shards.iter() {
            s.hold(&self.model).recover_structures(None)?;
        }
        // The model is DRAM-resident: reconstruct it by retraining from a
        // fresh manager (§V-A.1: "can be reconstructed after a crash").
        self.retrain(true);
        Ok(())
    }
}
