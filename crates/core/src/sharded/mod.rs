//! The PNW store: the one frontend over [`ShardEngine`].
//!
//! [`ShardedPnwStore`] — also exported as [`PnwStore`](crate::PnwStore),
//! a plain alias — splits the data zone into N independent
//! [`ShardEngine`]s — each with its own device slice, hash index and
//! dynamic address pool — and routes every key to one shard by hash. With
//! the default `shards = 1` it is the paper's Figure 2 system exactly as
//! Algorithms 1–3 describe it; the figure harnesses drive it that way.
//! Operations on different shards run fully in parallel. Within one shard
//! the concurrency model is **single-writer / lock-free readers**:
//!
//! * **Writes (flat combining).** Each shard's engine sits behind a
//!   `Mutex`, but contended writers never convoy on it. Every acquisition
//!   is a `Hold`, and every hold lets go the same way: it *drains the
//!   shard's command queue* — executing queued ops on behalf of the threads
//!   that submitted them (the holder is the shard's *combiner* for that
//!   moment) — unlocks, and rechecks the queue until it reads empty or
//!   another holder has the engine. A writer first tries to hold the
//!   engine; on success it executes its own op inline. On failure it pushes
//!   an owned command onto the shard's bounded queue, tries once more to
//!   hold the engine, and blocks on the command's one-shot reply, with no
//!   timeout: whoever holds the engine executes the command and sends the
//!   reply. A full queue returns [`StoreError::Backpressure`] instead of
//!   blocking — explicit feedback in place of lock convoying. A
//!   single-threaded client always wins the `try_lock`, so it only ever
//!   takes the inline path — and the engine lock is the only lock it
//!   takes: whether anything is queued is read from an atomic depth
//!   counter, not from the queue's mutex.
//!
//! * **Reads (seqlock validation).** GETs take **zero locks**. Each
//!   engine builds its read view with itself — a
//!   [`CellView`](pnw_nvm_sim::CellView) of the device cells, a lock-free
//!   [`IndexReader`](pnw_index::IndexReader), and the shard's `ShardSync`
//!   seqlock handle — and the store keeps a clone of it beside the
//!   engine's mutex. A GET reads the sequence
//!   (spinning past an odd value — a write in flight), probes the index
//!   and copies the value bytes through volatile reads, then validates
//!   the sequence: unchanged means the copy is a consistent snapshot;
//!   changed means a writer raced and the GET retries. Every engine
//!   mutation brackets itself with the sequence, so a reader can never
//!   return torn bytes, and a durable op syncs its WAL record between
//!   brackets, not inside one, so no GET waits out another op's fsync
//!   (the exceptions are in the engine's `placement` docs). A GET that
//!   had to retry is counted in
//!   [`StoreSnapshot::read_waits`](crate::StoreSnapshot::read_waits). A
//!   validated snapshot is the answer, typed errors included, so no GET
//!   goes through the engine mutex: the engine's own GET runs the same
//!   walk.
//!
//! The ML model is the one deliberately *shared* component: the paper
//! keeps it in DRAM, read-mostly, retrained in the background
//! (§V-C/§V-A.1). Every shard holds its own `Arc` of the current
//! immutable [`ModelSnapshot`](crate::ModelSnapshot). The trainer
//! ([`ModelManager`](crate::ModelManager)) belongs to the store's one
//! background worker thread, which runs every background retrain and
//! installs every model — a background run's, or one `retrain_now` fit on
//! its caller's thread — in arrival order, one shard at a time: an `Arc`
//! swap and a pool rebuild under that shard's engine lock, from the labels
//! a background run predicted lock-free.
//! With a scrub rate set, the same thread takes the scrubber's steps
//! between jobs. Ops never poll for a finished model; a due op queues a
//! background retrain with one atomic flag and a channel send. Status
//! reads (`retrains`, `snapshot().train`, …) go to an atomic epoch and
//! stats the worker publishes at install, never waiting for a run.
//!
//! Lock order is **shard engine → shard queue**; nothing takes an engine
//! lock while holding a queue lock. Status reads, checkpoints, scrubs, a
//! scan's last attempt, the worker and the test hooks all hold engines
//! the way writers do, so a queued writer is served as soon as any
//! of them lets go. A hold runs the retrain policy only *after* releasing
//! the engine lock.
//!
//! One file per concern: this file routes keys to shards and implements
//! [`Store`]; `combine` is the write frontend (the combining queue and the
//! batch path), `read` GET and scan over each shard's read walk, `model` the model
//! lifecycle and the worker, `durable` opening and checkpointing a
//! file-backed store.

mod combine;
mod durable;
mod model;
mod read;

use std::collections::VecDeque;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use pnw_nvm_sim::{DeviceStats, LatencyModel, NvmDevice, WearCdf};

use crate::api::{Batch, BatchReport, Store};
use crate::config::{BackingMode, PnwConfig};
use crate::durable::DurableStore;
use crate::error::{PnwError, StoreError};
use crate::metrics::{OpReport, StoreSnapshot};
use crate::shard::{ReadView, ShardEngine};
use combine::{Hold, OwnedOp};
use model::{Job, ModelState};

/// One shard: the engine behind its writer mutex, the bounded command
/// queue contended writers combine through, and the lock-free read view.
struct Shard {
    engine: Mutex<ShardEngine>,
    /// Commands awaiting the current combiner; bounded by `queue_cap`.
    queue: Mutex<VecDeque<OwnedOp>>,
    /// `queue.len()`, stored under the queue mutex after every push and
    /// pop, so a combiner learns "nothing queued" from one load instead of
    /// a lock round-trip. See [`Hold`]'s release for the ordering that
    /// keeps a push from being missed.
    queue_depth: AtomicUsize,
    queue_cap: usize,
    /// What lock-free GETs and scans read this shard through.
    read: ReadView,
}

impl Shard {
    /// Wraps shard `id`'s engine for a store configured by `cfg`.
    fn wrap(mut engine: ShardEngine, id: usize, cfg: &PnwConfig) -> Self {
        engine.set_shard_id(id);
        Shard {
            read: engine.read_view().clone(),
            engine: Mutex::new(engine),
            queue: Mutex::new(VecDeque::new()),
            queue_depth: AtomicUsize::new(0),
            queue_cap: cfg.shard_queue_depth.max(1),
        }
    }
}

/// A concurrent Predict-and-Write store: N shards behind one logical
/// key/value interface. All operations take `&self`; wrap the store in an
/// [`std::sync::Arc`] and clone it across threads.
pub struct ShardedPnwStore {
    cfg: PnwConfig,
    shards: Arc<Vec<Shard>>,
    /// The published model's epoch and stats, and the way to the worker.
    model: Arc<ModelState>,
    /// The store's one background thread: it owns the trainer, runs the
    /// background retrains, installs every model, and scrubs. Joined on
    /// drop.
    worker: Option<JoinHandle<()>>,
    /// The durable metadata controller when the store is file-backed
    /// (superblock, per-shard WALs, checkpoints). `None` on volatile
    /// stores. Locked only at checkpoint boundaries; the per-op WAL
    /// appends go through each shard's own [`DurableShard`]
    /// (crate::durable) handle under that shard's engine lock.
    durable: Option<Mutex<DurableStore>>,
}

impl Drop for ShardedPnwStore {
    fn drop(&mut self) {
        self.model.submit(Job::Stop);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// splitmix64 finalizer — the shard router. Independent of both index hash
/// functions so shard choice and in-shard placement stay uncorrelated.
fn route(key: u64) -> u64 {
    let mut x = key.wrapping_add(0x2545_F491_4F6C_DD1D);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ShardedPnwStore {
    /// Creates a store with `cfg.shards` shards (see
    /// [`PnwConfig::with_shards`]). `cfg.capacity` and
    /// `cfg.reserve_buckets` describe the *whole* logical store and are
    /// split as evenly as possible across shards; the shard count is
    /// clamped so every shard gets at least one bucket.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) message when
    /// `cfg` fails [`PnwConfig::validate`] — use [`PnwConfig::build`]
    /// first to handle invalid configurations as values.
    pub fn new(cfg: PnwConfig) -> Self {
        let cfg = cfg
            .build()
            .unwrap_or_else(|e| panic!("invalid PnwConfig: {e}"));
        assert!(
            matches!(cfg.backing, BackingMode::Volatile),
            "file-backed stores must be created with ShardedPnwStore::open"
        );
        let n = shard_count(&cfg);
        let shards = (0..n)
            .map(|i| Shard::wrap(ShardEngine::new(shard_config(&cfg, n, i)), i, &cfg))
            .collect();
        ShardedPnwStore::assemble(cfg, shards, None)
    }

    /// The store around its wrapped shards: its worker thread, with a fresh
    /// trainer, and the durable controller when there is one.
    fn assemble(cfg: PnwConfig, shards: Vec<Shard>, durable: Option<Mutex<DurableStore>>) -> Self {
        let shards = Arc::new(shards);
        let (model, worker) = ModelState::spawn(&cfg, &shards);
        ShardedPnwStore {
            cfg,
            shards,
            model,
            worker: Some(worker),
            durable,
        }
    }

    /// The shard a key routes to — lets crash tests aim
    /// [`ShardedPnwStore::arm_torn_write_after`] at the right shard.
    pub fn shard_of_key(&self, key: u64) -> usize {
        self.shard_of(key)
    }

    /// Arms a torn write on one shard's device (test hook for crash
    /// consistency): the next `skip` device writes land whole, the one
    /// after persists only `words` whole words, and the device crashes.
    pub fn arm_torn_write_after(&self, shard: usize, skip: u64, words: usize) {
        let mut held = self.shards[shard].hold(&self.model);
        held.arm_torn_write_after(skip, words);
    }

    /// Runs `f` while holding one shard's engine, then lets go the way
    /// every holder does, serving the writes queued meanwhile (test hook:
    /// the torn-read stress suite uses it to prove GETs complete while a
    /// writer owns the shard, and to force writers onto the queue path).
    #[doc(hidden)]
    pub fn with_shard_write_held<R>(&self, shard: usize, f: impl FnOnce() -> R) -> R {
        let _held = self.shards[shard].hold(&self.model);
        f()
    }

    /// The store's configuration (capacity fields describe the whole
    /// logical store).
    pub fn config(&self) -> &PnwConfig {
        &self.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (route(key) % self.shards.len() as u64) as usize
        }
    }

    /// PUT / UPDATE (Algorithm 2 + §V-B.3), routed to the key's shard.
    ///
    /// Takes **zero model locks**: the prediction reads the shard's own
    /// snapshot `Arc`, and the model is installed by the store's worker,
    /// never on the op path.
    /// On an uncontended shard the engine `try_lock` succeeds and the op
    /// runs inline; on a contended one the op is queued for the shard's
    /// current combiner (see the [module docs](self)).
    pub fn put(&self, key: u64, value: &[u8]) -> Result<OpReport, PnwError> {
        self.put_with_expiry(key, value, 0)
    }

    /// PUT with an absolute TTL deadline in unix milliseconds
    /// (`0` = never expires; see [`now_unix_ms`](crate::now_unix_ms)).
    /// Identical to [`ShardedPnwStore::put`] otherwise — same routing,
    /// combining and
    /// retrain policy. Requires [`PnwConfig::with_ttl`]; without the
    /// expiry zone the deadline is silently dropped.
    pub fn put_with_expiry(
        &self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
    ) -> Result<OpReport, PnwError> {
        crate::shard::check_value(&self.cfg, value)?;
        self.write(
            self.shard_of(key),
            |eng, due| eng.put_and_extend(key, value, expires_at_ms, true, due),
            |reply| OwnedOp::Put {
                key,
                value: value.to_vec(),
                expires_at_ms,
                reply,
            },
        )
    }

    /// DELETE (Algorithm 3), routed to the key's shard. Like PUT, takes no
    /// model lock, and combines through the shard queue under contention.
    pub fn delete(&self, key: u64) -> Result<bool, PnwError> {
        self.write(
            self.shard_of(key),
            |eng, _| eng.delete(key),
            |reply| OwnedOp::Delete { key, reply },
        )
    }

    /// Stored key count across all shards; an expired key counts until it
    /// is reclaimed (see [`Store::len`]).
    pub fn len(&self) -> usize {
        self.engines().map(|e| e.len()).sum()
    }

    /// Every shard's engine in shard order, each held as the iterator
    /// reaches it (and for as long as the caller keeps the hold).
    fn engines(&self) -> impl Iterator<Item = Hold<'_>> {
        self.shards.iter().map(|s| s.hold(&self.model))
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cross-shard device statistics: the sum of every shard's counters,
    /// exactly what one device serving the combined traffic would report
    /// (the shards tile one logical address space).
    pub fn device_stats(&self) -> DeviceStats {
        let parts = self.per_shard_device_stats();
        DeviceStats::merged(parts.iter())
    }

    /// Per-shard device statistics, in shard order.
    pub fn per_shard_device_stats(&self) -> Vec<DeviceStats> {
        self.engines().map(|e| e.device_stats().clone()).collect()
    }

    /// Clears every shard's device statistics (measurement windows exclude
    /// warm-up traffic).
    pub fn reset_device_stats(&self) {
        self.engines().for_each(|mut e| e.reset_device_stats());
    }

    /// Highest write count observed on any single NVM word, across all
    /// shards — the wear hot spot that bounds the whole store's lifetime.
    pub fn max_word_writes(&self) -> u32 {
        let per_shard = self.engines().map(|e| e.device().max_word_writes());
        per_shard.max().unwrap_or(0)
    }

    /// Figure-12-style per-word wear CDF over the *combined* active data
    /// zones of all shards (the per-shard CDFs merged into one
    /// population).
    pub fn word_wear_cdf(&self) -> WearCdf {
        self.merged_wear_cdf(|dev, start, len| Some(dev.word_wear_cdf(start, len)))
            .expect("at least one shard")
    }

    /// Figure-13-style per-bit wear CDF over the combined active data
    /// zones; `None` unless the store was built with
    /// [`PnwConfig::with_bit_wear`]`(true)`.
    pub fn bit_wear_cdf(&self) -> Option<WearCdf> {
        self.merged_wear_cdf(NvmDevice::bit_wear_cdf)
    }

    /// One CDF per shard over that shard's active data zone, merged into
    /// one population.
    fn merged_wear_cdf(
        &self,
        cdf: impl Fn(&NvmDevice, usize, usize) -> Option<WearCdf>,
    ) -> Option<WearCdf> {
        let mut merged: Option<WearCdf> = None;
        for shard in self.engines() {
            let (start, len) = shard.data_zone_range();
            let part = cdf(shard.device(), start, len)?;
            merged = Some(match merged {
                Some(m) => m.merge(&part),
                None => part,
            });
        }
        merged
    }

    /// Clears every shard's wear counters (Figures 12/13 measure wear over
    /// a stream that excludes warm-up writes).
    pub fn reset_wear(&self) {
        self.engines().for_each(|mut e| e.reset_wear());
    }

    /// The devices' latency model (every shard is built with the same one).
    pub fn latency_model(&self) -> LatencyModel {
        self.shards[0].hold(&self.model).device().latency_model()
    }

    /// Buckets currently in the active data zone, across all shards.
    pub fn active_capacity(&self) -> usize {
        self.engines().map(|e| e.active_capacity()).sum()
    }

    /// Reserved buckets not yet activated, across all shards.
    pub fn reserve_remaining(&self) -> usize {
        self.engines().map(|e| e.reserve_remaining()).sum()
    }

    /// Extends the data zone by up to `buckets` reserved buckets (§V-C),
    /// split across shards the way capacity is.
    ///
    /// The freshly-activated addresses join each shard's dynamic address
    /// pool under the current model's labels; nothing in the NVM hash
    /// index moves — *"our method to expand the size of a cluster does not
    /// impose any extra writes to the NVM"*. Call
    /// [`ShardedPnwStore::retrain_now`] (or rely on the background
    /// retrain policy) to refresh the model on the grown zone.
    ///
    /// Returns how many buckets were activated (0 when the reserve is
    /// exhausted).
    pub fn extend_zone(&self, buckets: usize) -> usize {
        let n = self.shards.len();
        let shards = self.engines().enumerate();
        shards
            .map(|(i, mut e)| e.extend_zone(split(buckets, n, i)))
            .sum()
    }

    /// Pre-fills every *free* bucket's cells with values from `gen`,
    /// leaving them free. This reproduces the paper's experimental setup
    /// (§VI-B: *"we first have set aside 5K buckets as the 'old data' on
    /// the NVM"*): the pool then steers incoming writes onto bit-similar
    /// stale content. Call [`ShardedPnwStore::retrain_now`] afterwards so
    /// the model learns the prefilled distribution. Returns how many
    /// buckets were filled.
    pub fn prefill_free_buckets(
        &self,
        mut gen: impl FnMut() -> Vec<u8>,
    ) -> Result<usize, StoreError> {
        let mut filled = 0;
        for mut e in self.engines() {
            filled += e.prefill_free_buckets(&mut gen)?;
        }
        Ok(filled)
    }

    /// Aggregated point-in-time snapshot: counters summed across shards,
    /// train stats as the worker published them at the last install.
    pub fn snapshot(&self) -> StoreSnapshot {
        let train = self.model.train_stats();
        let mut parts = self.engines().map(|e| e.snapshot(train.clone()));
        let mut agg = parts.next().expect("at least one shard");
        for p in parts {
            agg.live += p.live;
            agg.free += p.free;
            agg.capacity += p.capacity;
            agg.fallbacks += p.fallbacks;
            agg.device.merge(&p.device);
            agg.predict_total += p.predict_total;
            agg.puts += p.puts;
            agg.updates_in_place += p.updates_in_place;
            agg.gets += p.gets;
            agg.read_waits += p.read_waits;
            agg.deletes += p.deletes;
            agg.scrub.merge(&p.scrub);
        }
        agg
    }

    /// Runs one full synchronous scrub pass over every shard — every
    /// valid bucket is CRC-verified, proactively relocated off stuck
    /// media, repaired from the durable layer or retired — and returns
    /// the aggregated cumulative scrub counters. With
    /// [`PnwConfig::with_scrub`] the store's worker does the same work
    /// incrementally, a few buckets per step.
    pub fn scrub_pass(&self) -> Result<crate::metrics::ScrubStats, StoreError> {
        let mut agg = crate::metrics::ScrubStats::default();
        for mut e in self.engines() {
            agg.merge(&e.scrub_pass()?);
        }
        Ok(agg)
    }

    /// Forces one stuck-at bit inside the stored value of `key` (bit
    /// offset `bit` within the value, stuck at one or zero). Returns
    /// whether the key was present. Test hook for corruption scenarios —
    /// the production analogue is wear-out latching cells on its own.
    pub fn arm_stuck_at_key(
        &self,
        key: u64,
        bit: u32,
        stuck_at_one: bool,
    ) -> Result<bool, StoreError> {
        self.shards[self.shard_of(key)]
            .hold(&self.model)
            .arm_stuck_at_key(key, bit, stuck_at_one)
    }
}

impl Store for ShardedPnwStore {
    fn name(&self) -> &'static str {
        "PNW-sharded"
    }

    fn value_size(&self) -> usize {
        self.cfg.value_size
    }

    fn put(&self, key: u64, value: &[u8]) -> Result<OpReport, StoreError> {
        ShardedPnwStore::put(self, key, value)
    }

    fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        ShardedPnwStore::get(self, key)
    }

    fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, StoreError> {
        ShardedPnwStore::get_into(self, key, out)
    }

    fn delete(&self, key: u64) -> Result<bool, StoreError> {
        ShardedPnwStore::delete(self, key)
    }

    fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        ShardedPnwStore::scan(self, lo, hi)
    }

    fn put_with_expiry(
        &self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
    ) -> Result<OpReport, StoreError> {
        ShardedPnwStore::put_with_expiry(self, key, value, expires_at_ms)
    }

    fn supports_ttl(&self) -> bool {
        self.cfg.ttl_enabled
    }

    fn len(&self) -> usize {
        ShardedPnwStore::len(self)
    }

    fn snapshot(&self) -> StoreSnapshot {
        ShardedPnwStore::snapshot(self)
    }

    fn device_stats(&self) -> DeviceStats {
        ShardedPnwStore::device_stats(self)
    }

    fn reset_device_stats(&self) {
        ShardedPnwStore::reset_device_stats(self)
    }

    fn max_word_writes(&self) -> u32 {
        ShardedPnwStore::max_word_writes(self)
    }

    fn checkpoint(&self) -> Result<(), StoreError> {
        ShardedPnwStore::checkpoint(self)
    }

    /// Batched writes, the sharded store's centerpiece: the batch is
    /// grouped by shard and each shard's group runs under one engine
    /// acquisition — predicting through the shard's already-resident
    /// model snapshot `Arc`, reusing the shard's prediction scratch and
    /// bucket-image buffers across every op in the group, and (on a
    /// durable store) group-committing the whole group with one WAL
    /// fsync. A shard whose engine is held by another thread receives its
    /// group through the combining queue instead of blocking on the lock;
    /// a saturated queue fails that shard's ops with
    /// [`StoreError::Backpressure`] while other shards' groups proceed.
    fn apply(&self, batch: &Batch) -> BatchReport {
        self.apply_batch(batch)
    }
}

/// Shards a store configured by `cfg` gets: the configured count, clamped
/// so every shard holds at least one bucket.
fn shard_count(cfg: &PnwConfig) -> usize {
    cfg.shards.max(1).min(cfg.capacity.max(1))
}

fn split(total: usize, parts: usize, i: usize) -> usize {
    total / parts + usize::from(i < total % parts)
}

/// The per-shard view of the whole-store configuration: capacity and
/// reserve split as evenly as possible, one logical shard, always
/// volatile (file-backed shards get their device files through
/// [`ShardEngine::open_file`], not through the config).
fn shard_config(cfg: &PnwConfig, n: usize, i: usize) -> PnwConfig {
    let mut shard_cfg = cfg.clone();
    shard_cfg.capacity = split(cfg.capacity, n, i);
    shard_cfg.reserve_buckets = split(cfg.reserve_buckets, n, i);
    shard_cfg.shards = 1;
    shard_cfg.backing = BackingMode::Volatile;
    shard_cfg
}

#[cfg(test)]
mod commit_tests;
#[cfg(test)]
mod label_tests;
#[cfg(test)]
mod placement_tests;
#[cfg(test)]
mod read_tests;
#[cfg(test)]
mod tests;
