//! The per-shard engine: Algorithms 1–3's write path over one device slice.
//!
//! [`ShardEngine`] owns everything a store shard needs exclusive access to —
//! the emulated device, the data-zone region, the hash index and the dynamic
//! address pool — plus an `Arc` of the current immutable
//! [`ModelSnapshot`]: predictions read the shard's own snapshot clone, so
//! the op path takes **zero model locks**. When a (re)train completes, the
//! store publishes the new snapshot to every engine, which swaps the `Arc`
//! and rebuilds the pool under it together, under the shard's existing
//! lock — the pool's labels and the model that produced them can never be
//! observed out of sync. A synchronous retrain
//! ([`ShardEngine::install_model`]) predicts every free bucket there; a
//! background retrain brings the labels with it — the worker thread
//! predicted them lock-free beforehand — and the install predicts only the
//! buckets written since.
//!
//! One file per concern:
//!
//! * this file — the engine's state, construction, and the pool
//!   bookkeeping every other concern shares;
//! * `read` — the one read walk, GET and scan, which the store runs
//!   lock-free and the engine behind `&self`;
//! * `labels` — the model snapshot, the cached content labels, the label
//!   pass's rewritten-since record, and both installs;
//! * `bucket` — the single definition of the data-zone bucket format
//!   (`[ flags: u8 | pad ×3 | crc32c: u32 LE | key: u64 LE | value ]`,
//!   rounded to whole words) and of the bucket ↔ address ↔ expiry-slot
//!   arithmetic. The valid flag implements the paper's deletion protocol
//!   (*"resetting the associated flag bit"*, Algorithm 3 line 2); the key
//!   in the header is what lets a DRAM-index store rebuild its index after
//!   a crash (§V-A.3);
//! * `placement` — PUT, DELETE, the batch group and the pool hand-offs;
//! * `ttl` — deadlines, lazy expiry and ring retention;
//! * `integrity` — CRC verification, scrub, relocation and retirement;
//! * `recovery` — crash recovery, WAL-replay repair, checkpoint state;
//! * `seqlock` — the write bracket lock-free readers validate against.
//!
//! GETs go through the cell view and the index's lock-free reader, which
//! need only shared references — concurrent readers of one shard never
//! contend on a write lock (§VI-E: lookups *"do not go through the model
//! or the dynamic address pool"*).

mod bucket;
mod integrity;
mod labels;
mod placement;
mod read;
mod recovery;
mod seqlock;
mod ttl;

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use pnw_index::{AtomicHashIndex, KeyIndex, PathHashIndex};
use pnw_nvm_sim::{
    DeviceBacking, DeviceStats, FsFile, NvmConfig, NvmDevice, NvmError, Region, RegionAllocator,
    StuckAtConfig, WriteMode,
};

use crate::config::{IndexPlacement, PnwConfig};
use crate::durable::DurableShard;
use crate::error::PnwError;
use crate::metrics::{ScrubStats, StoreSnapshot, TrainStats};
use crate::model::{ModelSnapshot, PredictScratch};
use crate::pool::DynamicAddressPool;

pub(crate) use bucket::{
    checked_value_addr, deadline_passed, value_addr, BucketLayout, Header, EXPIRY_BYTES, HDR_BYTES,
};
pub(crate) use read::ReadView;
pub(crate) use seqlock::ShardSync;

/// Cached-label sentinel: the bucket's content label is unknown under the
/// current model and must be re-predicted on demand.
const LABEL_STALE: u16 = u16::MAX;

#[inline]
pub(crate) fn label_u16(cluster: usize) -> u16 {
    cluster.min(LABEL_STALE as usize) as u16
}

/// Validates a value against a configuration's value size — the one
/// implementation behind the store's early rejection and the engine's own.
#[inline]
pub(crate) fn check_value(cfg: &PnwConfig, value: &[u8]) -> Result<(), PnwError> {
    if value.len() != cfg.value_size {
        return Err(PnwError::WrongValueSize {
            expected: cfg.value_size,
            got: value.len(),
        });
    }
    Ok(())
}

/// Which code path a PUT took — callers use this to decide whether the
/// retrain trigger should be evaluated (an in-place update takes nothing
/// from the pool, so it never makes retraining due).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutPath {
    /// A predicted allocation from the pool: a new key, or an update that
    /// relocated (its vacated bucket rejoins the pool once the replacement
    /// is placed).
    Fresh,
    /// The key's own bucket rewritten through the hash index: an update on
    /// a trained volatile shard for which that flips no more bits than
    /// relocating.
    InPlace,
}

/// One shard of the Predict-and-Write store: device slice + index + pool.
pub struct ShardEngine {
    cfg: PnwConfig,
    dev: NvmDevice,
    /// Where every provisioned bucket and its expiry slot live. The expiry
    /// zone (one deadline per bucket when `cfg.ttl_enabled`) is part of the
    /// device image, so deadlines ride the same write-back backing and
    /// checkpoints as the data zone (and each PUT's WAL record).
    layout: BucketLayout,
    /// Buckets currently in the active data zone (grows via
    /// [`ShardEngine::extend_zone`] up to `cfg.capacity +
    /// cfg.reserve_buckets`).
    active_buckets: usize,
    index: Box<dyn KeyIndex>,
    index_region: Option<Region>,
    index_leaves: usize,
    pool: DynamicAddressPool,
    /// The shard's clone of the current immutable model snapshot. Swapped
    /// wholesale by [`ShardEngine::install_model`]; predictions on the op
    /// path read it directly — no lock, no manager.
    model: Arc<ModelSnapshot>,
    live: usize,
    predict_total: Duration,
    puts: u64,
    deletes: u64,
    /// What GETs and scans read the shard through, the engine's own and
    /// the store's lock-free ones alike. Its seqlock handle is set at
    /// construction and never replaced: write brackets borrow it by
    /// pointer (see `seqlock`).
    read: ReadView,
    /// Per-bucket cached content label under the *current* model
    /// ([`LABEL_STALE`] = unknown, re-predict on demand). Lets DELETE and
    /// a relocating update skip Algorithm 3's peek + predict when the
    /// bucket was written under the model that is still installed.
    labels: Vec<u16>,
    /// The rewritten-since record of the label pass in flight, one bit per
    /// provisioned bucket (`None` between passes): see `labels`.
    rewritten: Option<Vec<u64>>,
    /// Per-shard prediction scratch (scores, ranking) —
    /// the model is shared and read-only, the mutable buffers live here so
    /// steady-state PUT/DELETE allocates nothing.
    scratch: PredictScratch,
    /// The scratch stored-content labels are predicted in, apart from
    /// `scratch`: labelling the bucket an update vacates must not clobber
    /// the scores the update's pool pop ranks by.
    label_scratch: PredictScratch,
    /// Consecutive in-place rewrites of each provisioned bucket's current
    /// tenancy (reset by every placement), capped at
    /// [`MAX_IN_PLACE_RUN`](placement::MAX_IN_PLACE_RUN).
    in_place_run: Vec<u8>,
    /// PUTs that rewrote the key's own bucket ([`PutPath::InPlace`]).
    updates_in_place: u64,
    /// Reusable bucket image for the PUT write (header + value).
    bucket_img: Vec<u8>,
    /// Reusable value buffer for the scrubber's and recovery's CRC scans.
    value_buf: Vec<u8>,
    /// WAL appender when this shard is file-backed; `None` keeps the
    /// volatile op path bit-for-bit unchanged.
    durable: Option<DurableShard>,
    /// Buckets permanently removed from placement: stuck media found by
    /// write-verify, or scrub-detected corruption. Survives crashes on
    /// durable shards (WAL retire records + checkpoint).
    retired: HashSet<u32>,
    /// Integrity/wear-out counters (the GET-path failures live on
    /// [`ShardSync`] and are folded in by `scrub_stats`).
    scrub: ScrubStats,
    /// Next bucket the incremental scrubber will visit.
    scrub_cursor: u32,
}

impl ShardEngine {
    /// Creates an engine with a fresh zeroed device slice.
    pub fn new(cfg: PnwConfig) -> Self {
        Self::build(cfg, None).expect("volatile device construction cannot fail")
    }

    /// Creates an engine over a write-back device backed by `file`
    /// (fallible: the file may be unreadable or of the wrong size for
    /// this geometry).
    pub(crate) fn open_file(cfg: PnwConfig, file: Arc<dyn FsFile>) -> Result<Self, PnwError> {
        Self::build(cfg, Some(file))
    }

    fn build(cfg: PnwConfig, file: Option<Arc<dyn FsFile>>) -> Result<Self, PnwError> {
        let bucket_size = BucketLayout::stride(cfg.value_size);
        let total_buckets = cfg.capacity + cfg.reserve_buckets;
        let data_bytes = total_buckets * bucket_size;

        let (index_leaves, index_bytes) = match cfg.index {
            IndexPlacement::Dram => (0, 0),
            IndexPlacement::Nvm => {
                // Sized for the fully-extended zone so the index never has
                // to move (the §V-C property: extension touches only the
                // DRAM-side model and pool).
                let leaves = (total_buckets * 2).next_power_of_two().max(8);
                (leaves, PathHashIndex::region_bytes_for(leaves))
            }
        };
        let expiry_bytes = usize::from(cfg.ttl_enabled) * total_buckets * EXPIRY_BYTES;
        let total = (index_bytes + data_bytes + expiry_bytes + 4096).next_multiple_of(64);
        let mut alloc = RegionAllocator::new(total);
        let index_region = (index_bytes > 0).then(|| alloc.alloc(index_bytes, 64).expect("index"));
        let data = alloc
            .alloc_buckets(total_buckets, bucket_size)
            .expect("data zone");
        let expiry =
            (expiry_bytes > 0).then(|| alloc.alloc(expiry_bytes, 8).expect("expiry zone"));

        let mut nvm_cfg = NvmConfig::default()
            .with_size(total)
            .with_bit_wear(cfg.track_bit_wear);
        if let Some(endurance) = cfg.endurance_writes {
            nvm_cfg = nvm_cfg.with_stuck_at(StuckAtConfig {
                endurance_writes: Some(endurance),
                latch_probability: cfg.stuck_latch_probability,
                seed: cfg.seed,
            });
        }
        let dev = match file {
            Some(file) => NvmDevice::open(nvm_cfg.with_backing(DeviceBacking::File(file)))?,
            None => NvmDevice::new(nvm_cfg),
        };
        let index: Box<dyn KeyIndex> = match index_region {
            Some(r) => Box::new(PathHashIndex::create(r, index_leaves)),
            // Sized for the fully-extended zone: the atomic table never
            // rehashes, so lock-free readers keep a valid handle for the
            // engine's whole lifetime.
            None => Box::new(AtomicHashIndex::with_capacity(total_buckets)),
        };
        // Untrained model: one cluster, all buckets free.
        let mut pool = DynamicAddressPool::new(1, cfg.capacity);
        for b in 0..cfg.capacity as u32 {
            pool.push(0, b);
        }
        let active_buckets = cfg.capacity;
        let layout = BucketLayout::new(data, bucket_size, total_buckets, expiry);
        let sync = Arc::<ShardSync>::default();
        sync.set_active(active_buckets);
        let reader = index.reader().expect("both built-in indexes have a lock-free reader");
        let read = ReadView::new(
            dev.cell_view(),
            reader,
            sync,
            layout,
            cfg.integrity,
            cfg.value_size,
        );
        let (bucket_img, value_buf) = (
            vec![0u8; HDR_BYTES + cfg.value_size],
            vec![0u8; cfg.value_size],
        );
        let model = Arc::new(ModelSnapshot::untrained(&cfg));
        Ok(ShardEngine {
            cfg,
            dev,
            layout,
            active_buckets,
            index,
            index_region,
            index_leaves,
            pool,
            model,
            live: 0,
            predict_total: Duration::ZERO,
            puts: 0,
            deletes: 0,
            read,
            labels: vec![LABEL_STALE; total_buckets],
            rewritten: None,
            scratch: PredictScratch::new(),
            label_scratch: PredictScratch::new(),
            in_place_run: vec![0; total_buckets],
            updates_in_place: 0,
            bucket_img,
            value_buf,
            durable: None,
            retired: HashSet::new(),
            scrub: ScrubStats::default(),
            scrub_cursor: 0,
        })
    }

    /// Records this engine's shard position (for [`PnwError::Corruption`]
    /// attribution; single-shard stores keep the default 0).
    pub(crate) fn set_shard_id(&mut self, id: usize) {
        self.read.shard = id;
    }

    /// The shard's configuration (capacity fields describe this shard's
    /// slice, not the whole logical store).
    pub fn config(&self) -> &PnwConfig {
        &self.cfg
    }

    /// Stored key count; an expired key counts until it is reclaimed.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cumulative device statistics for this shard's slice.
    pub fn device_stats(&self) -> &DeviceStats {
        self.dev.stats()
    }

    /// The underlying device (wear CDFs, latency model).
    pub fn device(&self) -> &NvmDevice {
        &self.dev
    }

    /// What the store's lock-free GETs and scans read this shard through;
    /// valid for the engine's whole lifetime.
    pub(crate) fn read_view(&self) -> &ReadView {
        &self.read
    }

    /// Clears device statistics so a measurement window excludes warm-up
    /// traffic.
    pub fn reset_device_stats(&mut self) {
        self.dev.reset_stats();
    }

    /// Clears wear counters (Figures 12/13 measure wear over a stream that
    /// excludes warm-up writes).
    pub fn reset_wear(&mut self) {
        self.dev.reset_wear();
    }

    /// Byte range of the *active* data zone (for wear CDFs restricted to
    /// it, as in Figures 12/13).
    pub fn data_zone_range(&self) -> (usize, usize) {
        let len = self.active_buckets * self.layout.bucket_size();
        (self.layout.data_start(), len)
    }

    /// Buckets currently in the active data zone.
    pub fn active_capacity(&self) -> usize {
        self.active_buckets
    }

    /// Reserved buckets not yet activated.
    pub fn reserve_remaining(&self) -> usize {
        self.layout.buckets() - self.active_buckets
    }

    /// Whether pool availability has fallen below `1 - load_factor`, i.e.
    /// the §V-C retrain/extension trigger is due.
    pub fn retrain_due(&self) -> bool {
        self.pool.availability() < 1.0 - self.cfg.load_factor
    }

    /// Extends the data zone by up to `buckets` reserved buckets (§V-C).
    ///
    /// The freshly-activated addresses join the dynamic address pool under
    /// the current model's labels; nothing in the NVM hash index moves —
    /// *"our method to expand the size of a cluster does not impose any
    /// extra writes to the NVM"*. Retrain afterwards (or rely on the
    /// caller's load-factor trigger) to refresh the model on the grown
    /// zone.
    ///
    /// Returns how many buckets were activated (0 when the reserve is
    /// exhausted).
    pub fn extend_zone(&mut self, buckets: usize) -> usize {
        let add = buckets.min(self.reserve_remaining());
        let first = self.active_buckets as u32;
        for b in first..first + add as u32 {
            let label = self.label_stored(b).expect("bucket in range");
            self.pool.push(label, b);
        }
        self.active_buckets += add;
        self.read.sync.set_active(self.active_buckets);
        self.pool.set_capacity(self.effective_capacity());
        if add > 0 {
            // A failed append means the WAL is already dead; every
            // subsequent append fails too, so no committed record can ever
            // depend on the unlogged extension — swallowing the error here
            // is safe.
            let active = self.active_buckets as u64;
            let _ = self.log(|d| d.log_extend(active));
        }
        add
    }

    /// The bucket an index or WAL entry's address names. Those addresses
    /// come off the device, so they are checked: one that is no bucket base
    /// inside the zone is the out-of-bounds access it would have become.
    #[inline]
    fn bucket_of_addr(&self, addr: u64) -> Result<u32, PnwError> {
        self.layout.bucket_of(addr).ok_or_else(|| {
            let (len, size) = (self.layout.bucket_size(), self.dev.size());
            NvmError::OutOfBounds {
                addr: addr as usize,
                len,
                size,
            }
            .into()
        })
    }

    /// Bucket `b`'s base address and decoded header (no stats side
    /// effects).
    #[inline]
    fn header(&self, b: u32) -> Result<(usize, Header), PnwError> {
        let addr = self.layout.addr(b);
        Ok((addr, Header::decode(self.dev.peek(addr, HDR_BYTES)?)))
    }

    /// The tenant of bucket `b` — its address and header — when there is
    /// one: the valid flag is set *and* the index, the authority, maps the
    /// header's key to this very bucket. A valid-looking image whose key
    /// lives elsewhere (or nowhere) is stale — the last contents of media
    /// whose flag byte can no longer be cleared — and is neither served,
    /// reclaimed nor checkpointed through this bucket.
    fn tenant(&self, b: u32) -> Result<Option<(usize, Header)>, PnwError> {
        let (addr, hdr) = self.header(b)?;
        let here = hdr.valid && self.index.lookup(&self.dev, hdr.key)? == Some(addr as u64);
        Ok(here.then_some((addr, hdr)))
    }

    /// Resets the valid flag of the bucket at `addr` — Algorithm 3 line 2, a
    /// one-bit NVM update that touches nothing else in the bucket.
    #[inline]
    fn clear_flag(&mut self, addr: usize) -> Result<(), PnwError> {
        self.dev
            .write(addr, &bucket::FLAG_CLEARED, WriteMode::Diff)?;
        Ok(())
    }

    /// Validates a value against the configured value size.
    pub fn check_value(&self, value: &[u8]) -> Result<(), PnwError> {
        check_value(&self.cfg, value)
    }

    #[cfg(test)]
    pub(crate) fn index_len(&self) -> usize {
        self.index.len()
    }

    /// Points `key`'s index entry at `addr` (test hook: an entry damaged
    /// into naming no live bucket).
    #[cfg(test)]
    pub(crate) fn aim_index_entry(&mut self, key: u64, addr: u64) {
        let aimed = self.index.insert(&mut self.dev, key, addr);
        aimed.expect("the key holds an index slot");
    }

    /// GET (§V-B.4): the shard's one read walk — an index probe and one
    /// bucket read through shared references, so any number of readers can
    /// run concurrently.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, PnwError> {
        let mut v = vec![0u8; self.cfg.value_size];
        Ok(self.get_into(key, &mut v)?.then_some(v))
    }

    /// GET into a caller-provided buffer — the allocation-free read path.
    /// Returns whether the key was present.
    ///
    /// `out.len()` must equal the configured value size.
    pub fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, PnwError> {
        self.check_value(out)?;
        self.read.get_into(key, out)
    }

    /// Buckets available for placement: the active zone minus permanent
    /// retirements. Pool capacity — and with it the §V-C load-factor
    /// trigger — tracks this honestly-shrunk figure.
    #[inline]
    fn effective_capacity(&self) -> usize {
        self.active_buckets - self.retired.len()
    }

    /// Recycles a freed bucket into the pool — unless it is retired
    /// (damaged media never re-enters placement), and into the
    /// deprioritized worn tier when its cells are near the endurance
    /// limit.
    #[inline]
    fn push_free(&mut self, label: usize, bucket: u32) {
        if self.retired.contains(&bucket) {
            return;
        }
        let worn = self.bucket_worn(bucket);
        self.pool.push_tier(label, bucket, worn);
    }

    /// Whether a bucket's most-written word has consumed ≥¾ of the
    /// configured endurance budget — such buckets allocate last (the
    /// pool's worn tier), spreading imminent wear-out across time instead
    /// of concentrating failures on the hottest addresses.
    #[inline]
    fn bucket_worn(&self, bucket: u32) -> bool {
        let Some(endurance) = self.cfg.endurance_writes else {
            return false;
        };
        let threshold = (u64::from(endurance) * 3 / 4).max(1);
        let addr = self.layout.addr(bucket);
        let geo = self.dev.geometry();
        let first = geo.word_of(addr);
        let last = geo.word_of(addr + self.layout.bucket_size() - 1);
        let words = self.dev.wear().word_writes();
        words[first..=last]
            .iter()
            .any(|&w| u64::from(w) >= threshold)
    }

    /// Pre-fills every *free* bucket's cells with values from `gen`,
    /// leaving them free. This reproduces the paper's experimental setup
    /// (§VI-B: *"we first have set aside 5K buckets as the 'old data' on
    /// the NVM"*): the pool then steers incoming writes onto bit-similar
    /// stale content. Retrain afterwards so the model learns the prefilled
    /// distribution.
    pub fn prefill_free_buckets(
        &mut self,
        mut gen: impl FnMut() -> Vec<u8>,
    ) -> Result<usize, PnwError> {
        let free = self.pool.drain_all();
        let mut n = 0;
        for &bucket in &free {
            let v = gen();
            self.check_value(&v)?;
            let addr = value_addr(self.layout.addr(bucket));
            self.mark_rewritten(bucket);
            self.dev.write(addr, &v, WriteMode::Raw)?;
            n += 1;
        }
        // Back into the pool under the (still current) model's labels.
        let (relabeled, _) = self.labels_of(free);
        let k = self.model.k();
        self.rebuild_pool_tiered(k, relabeled);
        Ok(n)
    }

    /// Rebuilds the pool from `(bucket, label)` pairs, sorting each bucket
    /// into its wear tier (retired buckets never reach here — they are
    /// never in the pool to drain).
    fn rebuild_pool_tiered(&mut self, clusters: usize, relabeled: Vec<(u32, usize)>) {
        let tiered: Vec<(u32, usize, bool)> = relabeled
            .into_iter()
            .map(|(b, l)| (b, l, self.bucket_worn(b)))
            .collect();
        self.pool.rebuild_tiered(clusters, tiered);
    }

    /// Point-in-time metrics snapshot; the trainer-owned fields come from
    /// the caller as a [`TrainStats`], `k` from the shard's own snapshot.
    pub fn snapshot(&self, train: TrainStats) -> StoreSnapshot {
        StoreSnapshot {
            live: self.live,
            free: self.pool.free(),
            capacity: self.effective_capacity(),
            k: self.model.k(),
            retrains: train.epoch,
            train,
            fallbacks: self.pool.fallbacks(),
            device: self.dev.stats().clone(),
            predict_total: self.predict_total,
            puts: self.puts,
            updates_in_place: self.updates_in_place,
            gets: self.read.sync.gets(),
            read_waits: self.read.sync.read_waits(),
            deletes: self.deletes,
            scrub: self.scrub_stats(),
        }
    }

    /// The shard's integrity counters: the engine's own, plus the CRC
    /// failures lock-free GETs counted and the stuck bits the device knows.
    fn scrub_stats(&self) -> ScrubStats {
        ScrubStats {
            crc_failures: self.scrub.crc_failures + self.read.sync.crc_failures(),
            stuck_bits: self.dev.stuck_bit_count(),
            ..self.scrub
        }
    }

    /// Access to the pool (read-only).
    pub fn pool(&self) -> &DynamicAddressPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests;
