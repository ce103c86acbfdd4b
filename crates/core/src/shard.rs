//! The per-shard engine: Algorithms 1–3's write path over one device slice.
//!
//! [`ShardEngine`] owns everything a store shard needs exclusive access to —
//! the emulated device, the data-zone region, the hash index and the dynamic
//! address pool — plus an `Arc` of the current immutable
//! [`ModelSnapshot`]: predictions read the shard's own snapshot clone, so
//! the op path takes **zero model locks**. When a (re)train completes, the
//! store publishes the new snapshot to every engine via
//! [`ShardEngine::install_model`], which swaps the `Arc` and relabels the
//! pool together under the shard's existing lock — the pool's labels and
//! the model that produced them can never be observed out of sync.
//!
//! Data-zone bucket layout (16-byte header + value, rounded to whole
//! words):
//!
//! ```text
//! [ flags: u8 | pad ×7 | key: u64 LE | value ×value_size ]
//! ```
//!
//! The valid flag implements the paper's deletion protocol (*"resetting the
//! associated flag bit"*, Algorithm 3 line 2); the key in the header is what
//! lets a DRAM-index store rebuild its index after a crash (§V-A.3).
//!
//! GETs go through [`NvmDevice::peek`] and [`KeyIndex::lookup`], which need
//! only shared references — concurrent readers of one shard never contend
//! on a write lock (§VI-E: lookups *"do not go through the model or the
//! dynamic address pool"*).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pnw_index::{AtomicHashIndex, IndexReader, KeyIndex, PathHashIndex};
use pnw_nvm_sim::{
    crc32c_update, CellView, DeviceBacking, DeviceStats, NvmConfig, NvmDevice, NvmError, Region,
    RegionAllocator, StuckAtConfig, WriteMode, WriteStats,
};

use crate::config::{IndexPlacement, PnwConfig, UpdatePolicy};
use crate::durable::DurableShard;
use crate::error::PnwError;
use crate::metrics::{OpReport, ScrubStats, StoreSnapshot, TrainStats};
use std::sync::Arc;

use crate::model::{stride_sample, ModelSnapshot, PredictScratch};
use crate::pool::DynamicAddressPool;

pub(crate) const HDR_BYTES: usize = 16;
pub(crate) const FLAG_VALID: u8 = 1;

/// Bytes per bucket in the expiry zone (one `u64` LE absolute
/// unix-millisecond deadline; 0 = never expires).
pub(crate) const EXPIRY_BYTES: usize = 8;

/// The wall clock the TTL machinery runs on: absolute unix milliseconds.
/// Callers stamp deadlines with
/// [`Store::put_with_expiry`](crate::Store::put_with_expiry) relative to
/// this clock.
pub fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Cached-label sentinel: the bucket's content label is unknown under the
/// current model and must be re-predicted on demand.
const LABEL_STALE: u16 = u16::MAX;

#[inline]
fn label_u16(cluster: usize) -> u16 {
    if cluster >= LABEL_STALE as usize {
        LABEL_STALE
    } else {
        cluster as u16
    }
}

/// The integrity seal: CRC-32C over `key ‖ value`, stored in the header's
/// pad bytes `[4..8]` at PUT commit. Covering the key as well as the value
/// means a seal can never validate a value against the *wrong* key (e.g.
/// after an index entry is damaged into pointing at another live bucket).
/// Castagnoli rather than the WAL's IEEE polynomial: this runs on every
/// GET, and CRC-32C has a hardware instruction on x86-64 (the software
/// fallback is bit-identical, so store files stay portable).
#[inline]
pub(crate) fn bucket_crc(key: u64, value: &[u8]) -> u32 {
    crc32c_update(crc32c_update(0xFFFF_FFFF, &key.to_le_bytes()), value) ^ 0xFFFF_FFFF
}

/// The static device geometry a lock-free scan needs: captured once when
/// a shard is wrapped, valid for the engine's whole lifetime (regions
/// never move; the *provisioned* bucket count — capacity plus reserve —
/// never changes, unlike the dynamic active-zone size). Buckets beyond
/// the active zone carry a clear valid flag, so scanning the full
/// provisioned range through a [`CellView`] is always safe.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanGeometry {
    /// Byte offset of the data zone's first bucket.
    pub data_start: usize,
    /// Whole-bucket stride in bytes (header + value, word-rounded).
    pub bucket_size: usize,
    /// Provisioned buckets: `capacity + reserve_buckets`.
    pub buckets: usize,
    /// The configured value size.
    pub value_size: usize,
    /// Whether sealed CRCs are present to verify against.
    pub integrity: bool,
    /// Byte offset of the expiry zone, when TTL is enabled.
    pub expiry_start: Option<usize>,
}

/// The shard state the lock-free read path shares with its engine: the
/// seqlock word every mutation brackets, and the GET counter (readers
/// hold no lock, so the counter cannot live in the engine).
///
/// Write brackets nest (a batch group wraps the per-op methods it calls);
/// only the outermost bracket touches the sequence, tracked by `depth` —
/// which only the single engine owner ever mutates, so its accesses are
/// relaxed.
#[derive(Debug)]
pub(crate) struct ShardSync {
    /// Seqlock sequence: even = quiescent, odd = a mutation is in flight.
    seq: AtomicU64,
    /// Write-bracket nesting depth (engine-owner thread only).
    depth: AtomicU32,
    /// GETs served, by both the lock-free and the locked read path.
    gets: AtomicU64,
    /// CRC verification failures seen by GETs (readers hold no lock, so
    /// the counter lives with the GET counter).
    crc_failures: AtomicU64,
}

impl ShardSync {
    fn new() -> Self {
        ShardSync {
            seq: AtomicU64::new(0),
            depth: AtomicU32::new(0),
            gets: AtomicU64::new(0),
            crc_failures: AtomicU64::new(0),
        }
    }

    /// Begins a read-side critical section: spins past in-flight write
    /// brackets and returns the even sequence to validate against.
    #[inline]
    pub fn read_begin(&self) -> u64 {
        loop {
            let s = self.seq.load(Ordering::Acquire);
            if s & 1 == 0 {
                return s;
            }
            std::hint::spin_loop();
        }
    }

    /// Validates the read-side critical section begun at `s1`: `true`
    /// means no write bracket opened while the caller was reading, so
    /// everything it read is a consistent snapshot.
    #[inline]
    pub fn read_validate(&self, s1: u64) -> bool {
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) == s1
    }

    /// Counts one GET (reads take no lock, so the counter lives here).
    #[inline]
    pub fn count_get(&self) {
        self.gets.fetch_add(1, Ordering::Relaxed);
    }

    /// GETs served so far.
    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }

    /// Counts one read-path CRC verification failure.
    #[inline]
    pub fn count_crc_failure(&self) {
        self.crc_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Read-path CRC verification failures so far.
    pub fn crc_failures(&self) -> u64 {
        self.crc_failures.load(Ordering::Relaxed)
    }

    fn write_begin(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
    }

    fn write_end(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
    }
}

/// RAII write bracket: increments the seqlock on entry and exit of the
/// outermost mutation scope. Nested brackets (a batch group calling the
/// per-op methods) are counted, not re-published.
struct WriteBracket {
    sync: Arc<ShardSync>,
}

impl WriteBracket {
    #[inline]
    fn enter(sync: &Arc<ShardSync>) -> Self {
        if sync.depth.fetch_add(1, Ordering::Relaxed) == 0 {
            sync.write_begin();
        }
        WriteBracket {
            sync: Arc::clone(sync),
        }
    }
}

impl Drop for WriteBracket {
    #[inline]
    fn drop(&mut self) {
        if self.sync.depth.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.sync.write_end();
        }
    }
}

/// Validates a value against a configuration's value size — the one
/// implementation behind the store's early rejection and the engine's own.
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
/// retrain trigger should be evaluated (an in-place update touches neither
/// the pool nor the model, so it never makes retraining due).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutPath {
    /// A fresh predicted allocation from the pool (also the DELETE-then-PUT
    /// update path).
    Fresh,
    /// An in-place update straight through the hash index
    /// ([`UpdatePolicy::InPlace`]).
    InPlace,
}

/// One shard of the Predict-and-Write store: device slice + index + pool.
pub struct ShardEngine {
    cfg: PnwConfig,
    dev: NvmDevice,
    data: Region,
    /// Buckets currently in the active data zone (grows via
    /// [`ShardEngine::extend_zone`] up to `cfg.capacity +
    /// cfg.reserve_buckets`).
    active_buckets: usize,
    bucket_size: usize,
    index: Box<dyn KeyIndex>,
    index_region: Option<Region>,
    index_leaves: usize,
    /// The per-bucket expiry zone when `cfg.ttl_enabled`: one u64 LE
    /// absolute unix-ms deadline per provisioned bucket (0 = no expiry).
    /// Part of the device image, so deadlines ride the same write-through
    /// backing and checkpoints as the data zone.
    expiry: Option<Region>,
    pool: DynamicAddressPool,
    /// The shard's clone of the current immutable model snapshot. Swapped
    /// wholesale by [`ShardEngine::install_model`]; predictions on the op
    /// path read it directly — no lock, no manager.
    model: Arc<ModelSnapshot>,
    live: usize,
    predict_total: Duration,
    puts: u64,
    deletes: u64,
    /// Seqlock + GET counter shared with the lock-free read path.
    sync: Arc<ShardSync>,
    /// Per-bucket cached content label under the *current* model
    /// ([`LABEL_STALE`] = unknown, re-predict on demand). Lets DELETE and
    /// the DeletePut update skip Algorithm 3's peek + predict when the
    /// bucket was written under the model that is still installed.
    labels: Vec<u16>,
    /// Per-shard prediction scratch (scores, ranking) —
    /// the model is shared and read-only, the mutable buffers live here so
    /// steady-state PUT/DELETE allocates nothing.
    scratch: PredictScratch,
    /// Reusable bucket image for the PUT write (header + value); the pad
    /// bytes `[1..8]` are zeroed once and never touched again.
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
    /// [`ShardSync`] and are folded in at snapshot time).
    scrub: ScrubStats,
    /// Next bucket the incremental scrubber will visit.
    scrub_cursor: u32,
    /// This engine's position in a sharded store (0 for single-shard
    /// stores) — carried in [`PnwError::Corruption`] so an operator can
    /// map a failure to a device slice.
    shard_id: usize,
}

impl ShardEngine {
    /// Creates an engine with a fresh zeroed device slice.
    pub fn new(cfg: PnwConfig) -> Self {
        Self::build(cfg, None).expect("volatile device construction cannot fail")
    }

    /// Creates an engine over a write-through file-backed device at
    /// `path` (fallible: the backing file may be unreadable or of the
    /// wrong size for this geometry).
    pub(crate) fn open_file(cfg: PnwConfig, path: std::path::PathBuf) -> Result<Self, PnwError> {
        Self::build(cfg, Some(path))
    }

    fn build(cfg: PnwConfig, file: Option<std::path::PathBuf>) -> Result<Self, PnwError> {
        let bucket_size = (HDR_BYTES + cfg.value_size).next_multiple_of(8);
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
        let expiry_bytes = if cfg.ttl_enabled {
            total_buckets * EXPIRY_BYTES
        } else {
            0
        };
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
            Some(path) => NvmDevice::open(nvm_cfg.with_backing(DeviceBacking::File(path)))?,
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
        let (bucket_img, value_buf) = (
            vec![0u8; HDR_BYTES + cfg.value_size],
            vec![0u8; cfg.value_size],
        );
        let model = Arc::new(ModelSnapshot::untrained(&cfg));
        Ok(ShardEngine {
            cfg,
            dev,
            data,
            active_buckets,
            bucket_size,
            index,
            index_region,
            index_leaves,
            expiry,
            pool,
            model,
            live: 0,
            predict_total: Duration::ZERO,
            puts: 0,
            deletes: 0,
            sync: Arc::new(ShardSync::new()),
            labels: vec![LABEL_STALE; total_buckets],
            scratch: PredictScratch::new(),
            bucket_img,
            value_buf,
            durable: None,
            retired: HashSet::new(),
            scrub: ScrubStats::default(),
            scrub_cursor: 0,
            shard_id: 0,
        })
    }

    /// Records this engine's shard position (for [`PnwError::Corruption`]
    /// attribution; single-shard stores keep the default 0).
    pub(crate) fn set_shard_id(&mut self, id: usize) {
        self.shard_id = id;
    }

    /// The shard's configuration (capacity fields describe this shard's
    /// slice, not the whole logical store).
    pub fn config(&self) -> &PnwConfig {
        &self.cfg
    }

    /// Live key count.
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

    /// The shard's seqlock + GET-counter handle, shared with the
    /// lock-free read path. Stable for the engine's lifetime.
    pub(crate) fn sync_handle(&self) -> Arc<ShardSync> {
        Arc::clone(&self.sync)
    }

    /// A lock-free view of the device's cells, valid for the engine's
    /// whole lifetime (the cell buffer never moves).
    pub(crate) fn cell_view(&self) -> CellView {
        self.dev.cell_view()
    }

    /// A lock-free index reader, when this shard's index supports one
    /// (both built-in placements do).
    pub(crate) fn index_reader(&self) -> Option<IndexReader> {
        self.index.reader()
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
        (self.data.start, self.active_buckets * self.bucket_size)
    }

    /// Buckets currently in the active data zone.
    pub fn active_capacity(&self) -> usize {
        self.active_buckets
    }

    /// Reserved buckets not yet activated.
    pub fn reserve_remaining(&self) -> usize {
        self.cfg.capacity + self.cfg.reserve_buckets - self.active_buckets
    }

    /// Whether pool availability has fallen below `1 - load_factor`, i.e.
    /// the §V-C retrain/extension trigger is due.
    pub fn retrain_due(&self) -> bool {
        self.pool.availability() < 1.0 - self.cfg.load_factor
    }

    /// The shard-local half of §V-C maintenance: while the load factor is
    /// tripped and reserve remains, activate another `capacity / 4` chunk.
    /// Shared by the per-op trigger paths and the batch group executor so
    /// extension always happens at the same op boundaries.
    pub(crate) fn extend_from_reserve_if_due(&mut self) {
        if self.retrain_due() && self.reserve_remaining() > 0 {
            let chunk = (self.cfg.capacity / 4).max(1);
            self.extend_zone(chunk);
        }
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
        self.pool.set_capacity(self.effective_capacity());
        if add > 0 {
            if let Some(d) = &mut self.durable {
                // A failed append means the WAL is already dead; every
                // subsequent append fails too, so no committed record can
                // ever depend on the unlogged extension — swallowing the
                // error here is safe.
                let _ = d.log_extend(self.active_buckets as u64);
            }
        }
        add
    }

    fn bucket_addr(&self, b: u32) -> usize {
        self.data.bucket_addr(b as usize, self.bucket_size)
    }

    fn bucket_of_addr(&self, addr: u64) -> u32 {
        ((addr as usize - self.data.start) / self.bucket_size) as u32
    }

    /// Validates a value against the configured value size.
    pub fn check_value(&self, value: &[u8]) -> Result<(), PnwError> {
        check_value(&self.cfg, value)
    }

    /// Reads a bucket's stored value (without stats side effects).
    fn peek_value(&self, bucket: u32) -> Result<Vec<u8>, PnwError> {
        let addr = self.bucket_addr(bucket) + HDR_BYTES;
        Ok(self.dev.peek(addr, self.cfg.value_size)?.to_vec())
    }

    #[cfg(test)]
    pub(crate) fn index_len(&self) -> usize {
        self.index.len()
    }

    /// PUT / UPDATE (Algorithm 2 + §V-B.3) under the shard's current model
    /// snapshot.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<(OpReport, PutPath), PnwError> {
        self.put_impl(key, value, 0, true)
    }

    /// PUT with an absolute unix-ms expiry deadline (0 = never expires).
    /// Identical to [`ShardEngine::put`] except the deadline is stamped
    /// into the expiry zone alongside the placed bucket; on a store built
    /// without [`PnwConfig::with_ttl`] the deadline is silently ignored.
    pub fn put_with_expiry(
        &mut self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
    ) -> Result<(OpReport, PutPath), PnwError> {
        self.put_impl(key, value, expires_at_ms, true)
    }

    /// PUT for the batch path: performs *exactly* the same device, index
    /// and pool mutations as [`ShardEngine::put`] — so batched and per-op
    /// writes are bit-for-bit identical on the device — but skips the
    /// per-op reporting that [`OpReport`] needs: no stats snapshot/delta
    /// and no wall-clock prediction timing (the value's share of the write
    /// is nothing to skip — it falls out of the one device pass either
    /// way). [`Store::apply`](crate::Store::apply) charges the whole batch
    /// from one device-stats delta instead; the only counter the batch
    /// path does not feed is the snapshot's `predict_total`.
    pub fn put_unreported(&mut self, key: u64, value: &[u8]) -> Result<PutPath, PnwError> {
        self.put_impl(key, value, 0, false).map(|(_, path)| path)
    }

    /// The one PUT implementation behind both entry points. `report`
    /// toggles only side-effect-free instrumentation (the stats snapshot
    /// and the two clock reads around prediction) — device, index and pool
    /// mutations are identical either way, which is what lets the batch
    /// path skip the bookkeeping without forking the write path.
    fn put_impl(
        &mut self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
        report: bool,
    ) -> Result<(OpReport, PutPath), PnwError> {
        self.check_value(value)?;
        let _w = WriteBracket::enter(&self.sync);
        let mut deferred: Option<(usize, u32)> = None;

        // UPDATE handling. The DeletePut path removes the index entry
        // directly — `remove` already returns the old address, so the
        // update costs one index probe, not a lookup followed by a removal.
        match self.cfg.update_policy {
            UpdatePolicy::InPlace => {
                if let Some(addr) = self.index.get(&mut self.dev, key)? {
                    if let Some(done) = self.put_in_place(key, value, addr, expires_at_ms, report)? {
                        return Ok(done);
                    }
                    // The in-place target failed write-verify: the bucket
                    // is retired and the key unlinked — fall through to a
                    // fresh placement on healthy media.
                }
            }
            UpdatePolicy::DeletePut => {
                // Endurance-first: free the old location (it returns to
                // the pool under its content's label), then fall through
                // to a fresh predicted write. On a durable shard the freed
                // bucket is *deferred* — it joins the pool only after the
                // replacement is WAL-committed, so a torn replacement
                // write can never land on (and corrupt) the committed old
                // value.
                if let Some(addr) = self.index.remove(&mut self.dev, key)? {
                    if self.durable.is_some() {
                        deferred = Some(self.clear_bucket(addr)?);
                    } else {
                        self.delete_bucket_only(addr)?;
                    }
                }
            }
        }

        let before = report.then(|| self.dev.stats().clone());

        // Algorithm 2 line 1: predict the entry. The packed bit-domain
        // kernel reads the raw bytes — no featurization, no allocation —
        // and leaves the per-cluster distances in this shard's scratch.
        let t0 = report.then(Instant::now);
        let cluster = self.model.predict_into(value, &mut self.scratch);
        let predict = t0.map_or(Duration::ZERO, |t| t.elapsed());
        self.predict_total += predict;

        let placed = self.place_sealed(key, value, cluster, &mut deferred);
        let (bucket, fallback, value_write) = match placed {
            Ok(hit) => hit,
            // Ring retention: a full zone first reclaims expired buckets,
            // then evicts the earliest-deadline live entry — the oldest
            // frame falls off the CCTV ring — and the placement retries
            // once against the replenished pool.
            Err(PnwError::Full) if self.cfg.retention_ring => {
                if !self.ring_reclaim()? {
                    return Err(PnwError::Full);
                }
                self.place_sealed(key, value, cluster, &mut deferred)?
            }
            Err(e) => return Err(e),
        };
        let addr = self.bucket_addr(bucket);
        self.stamp_expiry(bucket, expires_at_ms)?;

        // Line 7: update the hash index.
        if let Err(e) = self.index.insert(&mut self.dev, key, addr as u64) {
            self.unwind_failed_insert(addr, cluster, bucket);
            return Err(e.into());
        }
        // The durable commit point: the op is acknowledged only once its
        // WAL record is fsynced. Volatile shards skip this entirely. With
        // integrity on, the record carries the value bytes — the clean
        // copy the scrubber repairs from.
        if let Some(d) = &mut self.durable {
            let logged = if self.cfg.integrity {
                d.log_put_value(key, addr as u64, value)
            } else {
                d.log_put(key, addr as u64)
            };
            if let Err(e) = logged {
                // Unacknowledged: roll the in-process structures back so
                // the dying store stays internally consistent. The durable
                // state is already safe — no WAL record exists, and
                // recovery clears the uncommitted header.
                let _ = self.index.remove(&mut self.dev, key);
                self.unwind_failed_insert(addr, cluster, bucket);
                return Err(e);
            }
        }
        if let Some((label, freed)) = deferred {
            self.push_free(label, freed);
        }
        self.labels[bucket as usize] = label_u16(cluster);
        self.live += 1;
        self.puts += 1;

        let out = if let Some(before) = before {
            let total = self.dev.stats().since(&before).totals;
            OpReport {
                cluster,
                fallback,
                predict,
                value_write,
                total_write: total,
                modeled_latency: self.dev.modeled_write_cost(&total),
            }
        } else {
            OpReport::default()
        };
        Ok((out, PutPath::Fresh))
    }

    /// The [`UpdatePolicy::InPlace`] update: straight through the hash
    /// index to the key's existing bucket. With integrity on, the whole
    /// sealed image is rewritten (the stored CRC must track the value) and
    /// write-verified; `None` means the media failed verification — the
    /// bucket is retired, the key unlinked, and the caller re-places the
    /// value on fresh media before acknowledging.
    fn put_in_place(
        &mut self,
        key: u64,
        value: &[u8],
        addr: u64,
        expires_at_ms: u64,
        report: bool,
    ) -> Result<Option<(OpReport, PutPath)>, PnwError> {
        let before = report.then(|| self.dev.stats().clone());
        let b = self.bucket_of_addr(addr);
        let vstats = if self.cfg.integrity {
            // The write covers the header too, to refresh the seal; the
            // value's share of it comes back from the same pass.
            self.seal_bucket_img(key, value);
            let (_, vstats) = self.dev.write_split(
                addr as usize,
                &self.bucket_img,
                WriteMode::Diff,
                HDR_BYTES,
            )?;
            self.check_durable_write()?;
            if !self.bucket_matches_img(addr as usize)? {
                // Stuck media, caught before the ack: unlink, retire, and
                // let the caller re-place the value elsewhere.
                self.scrub.crc_failures += 1;
                let _ = self.index.remove(&mut self.dev, key)?;
                self.live -= 1;
                self.retire(b)?;
                let _ = self.dev.write(addr as usize, &[0u8], WriteMode::Diff);
                return Ok(None);
            }
            if let Some(d) = &mut self.durable {
                // Refresh the WAL's clean copy so a later repair can never
                // resurrect the pre-update value.
                d.log_put_value(key, addr, value)?;
            }
            vstats
        } else {
            let vstats = self
                .dev
                .write(addr as usize + HDR_BYTES, value, WriteMode::Diff)?;
            self.check_durable_write()?;
            vstats
        };
        self.stamp_expiry(b, expires_at_ms)?;
        self.labels[b as usize] = LABEL_STALE;
        self.puts += 1;
        let out = if let Some(before) = before {
            let total = self.dev.stats().since(&before).totals;
            OpReport {
                cluster: 0,
                fallback: false,
                predict: Duration::ZERO,
                value_write: vstats,
                total_write: total,
                modeled_latency: self.dev.modeled_write_cost(&total),
            }
        } else {
            OpReport::default()
        };
        Ok(Some((out, PutPath::InPlace)))
    }

    /// Seals the reusable bucket image: valid flag, integrity CRC (zero
    /// when integrity is off — the header bytes then stay bit-identical to
    /// the pre-integrity layout), key, value.
    fn seal_bucket_img(&mut self, key: u64, value: &[u8]) {
        self.bucket_img[0] = FLAG_VALID;
        let crc = if self.cfg.integrity {
            bucket_crc(key, value)
        } else {
            0
        };
        self.bucket_img[4..8].copy_from_slice(&crc.to_le_bytes());
        self.bucket_img[8..16].copy_from_slice(&key.to_le_bytes());
        self.bucket_img[HDR_BYTES..].copy_from_slice(value);
    }

    /// Whether the cells at `addr` now hold exactly the sealed image —
    /// the write-verify read-back. False means a stuck bit of opposite
    /// polarity swallowed part of the write.
    fn bucket_matches_img(&self, addr: usize) -> Result<bool, PnwError> {
        Ok(self.dev.peek(addr, self.bucket_img.len())? == &self.bucket_img[..])
    }

    /// Algorithm 2 lines 2–6 plus write-verify: pops pool candidates until
    /// one's media accepts the sealed image bit-exact. A bucket that fails
    /// the read-back (a stuck bit latched at the opposite polarity) is
    /// retired permanently *before* the op is acknowledged and the
    /// next-ranked candidate is tried; every failure shrinks the pool, so
    /// the loop terminates.
    fn place_sealed(
        &mut self,
        key: u64,
        value: &[u8],
        cluster: usize,
        deferred: &mut Option<(usize, u32)>,
    ) -> Result<(u32, bool, WriteStats), PnwError> {
        loop {
            // Line 2: get an address from the dynamic address pool. The
            // full nearest-first ranking is an argsort of the distances
            // already in scratch, computed only if the predicted cluster
            // misses.
            let popped = {
                let (pool, scratch, model) = (&mut self.pool, &mut self.scratch, &self.model);
                pool.pop(cluster, || model.ranked_after_predict(scratch))
            };
            let (bucket, fallback) = match popped {
                Some(hit) => hit,
                None => self.forced_reuse(key, cluster, deferred)?,
            };
            let addr = self.bucket_addr(bucket);

            // Lines 3–6: one differential write covers the whole bucket
            // (header + value share cache lines; writing them separately
            // would double-count dirty lines). The same pass returns the
            // value's share of the charge, the Figure 6 metric.
            self.seal_bucket_img(key, value);
            let (_, value_write) =
                self.dev
                    .write_split(addr, &self.bucket_img, WriteMode::Diff, HDR_BYTES)?;
            self.check_durable_write()?;
            if !self.cfg.integrity || self.bucket_matches_img(addr)? {
                return Ok((bucket, fallback, value_write));
            }
            self.scrub.crc_failures += 1;
            self.retire(bucket)?;
            let _ = self.dev.write(addr, &[0u8], WriteMode::Diff);
        }
    }

    /// After a data-zone write on a durable shard: a torn write leaves the
    /// device crashed while the write call itself reports the persisted
    /// prefix — the op must surface as failed *before* it reaches the WAL
    /// (a DRAM index insert would otherwise acknowledge a torn value).
    fn check_durable_write(&self) -> Result<(), PnwError> {
        if self.durable.is_some() && self.dev.is_crashed() {
            return Err(NvmError::Crashed.into());
        }
        Ok(())
    }

    /// The pool missed while a durable DeletePut update holds the freed
    /// bucket back: at full capacity the freed bucket is the only
    /// candidate. Commit the delete first — a tear mid-rewrite must then
    /// surface as "key absent" at recovery, never as a corrupted committed
    /// value (the inherent DeletePut crash window) — and re-pop.
    fn forced_reuse(
        &mut self,
        key: u64,
        cluster: usize,
        deferred: &mut Option<(usize, u32)>,
    ) -> Result<(u32, bool), PnwError> {
        let Some((label, bucket)) = deferred.take() else {
            return Err(PnwError::Full);
        };
        self.durable
            .as_mut()
            .expect("a deferred bucket implies a durable shard")
            .log_delete(key)?;
        if self.retired.contains(&bucket) {
            // The freed bucket is retired media — it must never re-enter
            // placement, so with the pool otherwise empty there is
            // genuinely no space (the delete half stays committed).
            return Err(PnwError::Full);
        }
        let worn = self.bucket_worn(bucket);
        self.pool.push_tier(label, bucket, worn);
        let (pool, scratch, model) = (&mut self.pool, &mut self.scratch, &self.model);
        pool.pop(cluster, || model.ranked_after_predict(scratch))
            .ok_or(PnwError::Full)
    }

    /// Recycles a freed bucket into the pool — unless it is retired
    /// (damaged media never re-enters placement), and into the
    /// deprioritized worn tier when its cells are near the endurance
    /// limit.
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
    fn bucket_worn(&self, bucket: u32) -> bool {
        let Some(endurance) = self.cfg.endurance_writes else {
            return false;
        };
        let threshold = (u64::from(endurance) * 3 / 4).max(1);
        let addr = self.bucket_addr(bucket);
        let geo = self.dev.geometry();
        let first = geo.word_of(addr);
        let last = geo.word_of(addr + self.bucket_size - 1);
        let words = self.dev.wear().word_writes();
        words[first..=last]
            .iter()
            .any(|&w| u64::from(w) >= threshold)
    }

    /// Buckets available for placement: the active zone minus permanent
    /// retirements. Pool capacity — and with it the §V-C load-factor
    /// trigger — tracks this honestly-shrunk figure.
    fn effective_capacity(&self) -> usize {
        self.active_buckets - self.retired.len()
    }

    /// Permanently removes a bucket from placement. Idempotent; on a
    /// durable shard the retirement is WAL-logged (and checkpointed) so it
    /// survives crash and reopen.
    fn retire(&mut self, bucket: u32) -> Result<(), PnwError> {
        if !self.retired.insert(bucket) {
            return Ok(());
        }
        self.scrub.retired += 1;
        self.pool.set_capacity(self.effective_capacity());
        if let Some(d) = &mut self.durable {
            d.log_retire(bucket)?;
        }
        Ok(())
    }

    /// Rolls back a bucket claim whose index insert failed. On a durable
    /// shard the just-written header is cleared again so a quiescent
    /// checkpoint's header scan never sees the unacknowledged key.
    fn unwind_failed_insert(&mut self, addr: usize, cluster: usize, bucket: u32) {
        if self.durable.is_some() {
            let _ = self.dev.write(addr, &[0u8], WriteMode::Diff);
        }
        self.push_free(cluster, bucket);
    }

    /// Executes one batch group against this engine — the loop behind the
    /// store's [`Store::apply`](crate::Store::apply) override. PUTs run
    /// [`ShardEngine::put_unreported`]; after every
    /// fresh PUT the §V-C reserve extension runs at exactly the per-op
    /// path's op boundary (so a batch never reports `Full` where the same
    /// ops issued individually would have extended the zone mid-stream).
    /// Returns whether the retrain trigger became due during the group.
    ///
    /// On a durable shard the whole group is **group-committed**: WAL
    /// records accumulate in the OS page cache and one `fdatasync` at the
    /// end of the group commits them all. No op is acknowledged before
    /// `apply` returns, so the commit point the callers observe is
    /// unchanged — a crash mid-group loses only unacknowledged ops.
    pub(crate) fn apply_group(
        &mut self,
        ops: &[crate::api::Op],
        idxs: impl Iterator<Item = usize>,
        report: &mut crate::api::BatchReport,
    ) -> bool {
        use crate::api::Op;
        let _w = WriteBracket::enter(&self.sync);
        if let Some(d) = &mut self.durable {
            d.begin_group();
        }
        let mut due = false;
        let mut last_idx = 0usize;
        for i in idxs {
            last_idx = i;
            match &ops[i] {
                Op::Put { key, value } => match self.put_unreported(*key, value) {
                    Ok(path) => {
                        report.puts += 1;
                        if path == PutPath::Fresh && self.retrain_due() {
                            self.extend_from_reserve_if_due();
                            due = true;
                        }
                    }
                    Err(e) => report.failures.push((i, e)),
                },
                Op::Delete { key } => match self.delete(*key) {
                    Ok(existed) => {
                        report.deletes += 1;
                        report.deleted_existing += u64::from(existed);
                    }
                    Err(e) => report.failures.push((i, e)),
                },
            }
        }
        if let Some(d) = &mut self.durable {
            // The group's one commit point. A failed sync means none of
            // the group's unsynced records are durable — surface it on the
            // last op so the caller sees the group as failed.
            if let Err(e) = d.end_group() {
                report.failures.push((last_idx, e));
            }
        }
        due
    }

    /// GET (§V-B.4): through the hash index, no data-structure changes and
    /// no exclusive access — index lookup and value read both go through
    /// shared references ([`NvmDevice::peek`]), so any number of readers
    /// can run concurrently.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, PnwError> {
        self.sync.count_get();
        match self.index.lookup(&self.dev, key)? {
            Some(addr) => {
                let mut v = vec![0u8; self.cfg.value_size];
                self.dev.peek_into(addr as usize + HDR_BYTES, &mut v)?;
                self.verify_read(key, addr as usize, &v)?;
                // Lazy expiry: an overdue key reads as absent; the
                // scrubber cursor reclaims the bucket physically.
                if self.addr_expired(addr, now_unix_ms())? {
                    return Ok(None);
                }
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    /// Verifies a just-read value against its bucket's sealed CRC — the
    /// guarantee that no GET ever serves silently corrupted bytes. `addr`
    /// is the bucket's base address.
    fn verify_read(&self, key: u64, addr: usize, value: &[u8]) -> Result<(), PnwError> {
        if !self.cfg.integrity {
            return Ok(());
        }
        let hdr = self.dev.peek(addr, HDR_BYTES)?;
        let stored = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
        if stored == bucket_crc(key, value) {
            return Ok(());
        }
        self.sync.count_crc_failure();
        Err(PnwError::Corruption {
            key,
            shard: self.shard_id,
        })
    }

    /// GET into a caller-provided buffer — the allocation-free read path
    /// ([`NvmDevice::peek_into`] straight into `out`). Returns whether the
    /// key was present; `out` is untouched when it was not.
    ///
    /// `out.len()` must equal the configured value size.
    pub fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, PnwError> {
        if out.len() != self.cfg.value_size {
            return Err(PnwError::WrongValueSize {
                expected: self.cfg.value_size,
                got: out.len(),
            });
        }
        self.sync.count_get();
        match self.index.lookup(&self.dev, key)? {
            Some(addr) => {
                self.dev.peek_into(addr as usize + HDR_BYTES, out)?;
                self.verify_read(key, addr as usize, out)?;
                if self.addr_expired(addr, now_unix_ms())? {
                    return Ok(false);
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// DELETE (Algorithm 3): reset the flag bit, recycle the address into
    /// the pool under its *content's* label (as the given model sees it).
    pub fn delete(&mut self, key: u64) -> Result<bool, PnwError> {
        let _w = WriteBracket::enter(&self.sync);
        match self.index.remove(&mut self.dev, key)? {
            Some(addr) => {
                // An expired tenant was already logically gone: reclaim it
                // physically but report "did not exist".
                if self.addr_expired(addr, now_unix_ms())? {
                    let (label, bucket) = self.clear_bucket(addr)?;
                    self.check_durable_write()?;
                    if let Some(d) = &mut self.durable {
                        d.log_delete(key)?;
                    }
                    self.push_free(label, bucket);
                    self.scrub.expired += 1;
                    return Ok(false);
                }
                if self.durable.is_some() {
                    // Durable commit order: flag clear, then the WAL
                    // record, then the bucket joins the pool — a crash
                    // anywhere leaves the key either committed or cleanly
                    // deleted, never half-recycled.
                    let (label, bucket) = self.clear_bucket(addr)?;
                    self.check_durable_write()?;
                    self.durable
                        .as_mut()
                        .expect("checked durable")
                        .log_delete(key)?;
                    self.push_free(label, bucket);
                } else {
                    self.delete_bucket_only(addr)?;
                }
                self.deletes += 1;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn delete_bucket_only(&mut self, addr: u64) -> Result<(), PnwError> {
        let (label, bucket) = self.clear_bucket(addr)?;
        self.push_free(label, bucket);
        Ok(())
    }

    /// Algorithm 3 minus the pool push: resets the flag bit (line 2, a
    /// one-bit NVM update) and labels the stored content (lines 3–4) —
    /// from the cached label or straight from the cells, so DELETE
    /// allocates nothing. The caller decides *when* the bucket
    /// rejoins the pool (immediately for volatile shards, after the WAL
    /// commit point for durable ones).
    fn clear_bucket(&mut self, addr: u64) -> Result<(usize, u32), PnwError> {
        self.dev.write(addr as usize, &[0u8], WriteMode::Diff)?;
        let bucket = self.bucket_of_addr(addr);
        // Fast path: the label cached when this content was written is
        // still valid (same model epoch, content untouched since), and
        // prediction is deterministic — the cached label *is* what lines
        // 3–4 would compute, without the value peek or the distance scan.
        let cached = self.labels[bucket as usize];
        let label = if cached != LABEL_STALE && (cached as usize) < self.model.k() {
            cached as usize
        } else {
            self.label_stored(bucket)?
        };
        self.live -= 1;
        Ok((label, bucket))
    }

    /// Stamps `bucket`'s expiry-zone slot — always written on placement
    /// (even for 0 = "never expires"), so a stale deadline from a prior
    /// tenant can never attach to a fresh value. No-op without TTL.
    fn stamp_expiry(&mut self, bucket: u32, expires_at_ms: u64) -> Result<(), PnwError> {
        let Some(region) = self.expiry else {
            return Ok(());
        };
        let addr = region.start + bucket as usize * EXPIRY_BYTES;
        self.dev
            .write(addr, &expires_at_ms.to_le_bytes(), WriteMode::Diff)?;
        Ok(())
    }

    /// Reads `bucket`'s expiry deadline (0 = none / TTL off).
    fn peek_expiry(&self, bucket: u32) -> Result<u64, PnwError> {
        let Some(region) = self.expiry else {
            return Ok(0);
        };
        let addr = region.start + bucket as usize * EXPIRY_BYTES;
        let raw = self.dev.peek(addr, EXPIRY_BYTES)?;
        Ok(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    /// Whether the bucket at `addr` holds a value whose deadline has
    /// passed. The lazy-expiry predicate the read path applies — reads
    /// never mutate; physical reclamation belongs to the scrubber cursor.
    fn addr_expired(&self, addr: u64, now: u64) -> Result<bool, PnwError> {
        if self.expiry.is_none() {
            return Ok(false);
        }
        let deadline = self.peek_expiry(self.bucket_of_addr(addr))?;
        Ok(deadline != 0 && deadline <= now)
    }

    /// Physically reclaims `key`'s bucket with committed-delete semantics
    /// (index unlink → flag clear → WAL delete record → pool push), so an
    /// expired or ring-evicted key can never resurrect from WAL replay.
    fn reclaim_key(&mut self, key: u64, evicted: bool) -> Result<(), PnwError> {
        let Some(addr) = self.index.remove(&mut self.dev, key)? else {
            return Ok(());
        };
        let (label, bucket) = self.clear_bucket(addr)?;
        self.check_durable_write()?;
        if let Some(d) = &mut self.durable {
            d.log_delete(key)?;
        }
        self.push_free(label, bucket);
        if evicted {
            self.scrub.evicted += 1;
        } else {
            self.scrub.expired += 1;
        }
        Ok(())
    }

    /// The TTL half of the scrubber's unit of work: reclaims the bucket
    /// when its tenant's deadline has passed. Returns whether the bucket
    /// was reclaimed (the CRC scrub is then moot — the bucket is free).
    fn expire_bucket_if_due(&mut self, bucket: u32) -> Result<bool, PnwError> {
        let addr = self.bucket_addr(bucket);
        let hdr = self.dev.peek(addr, HDR_BYTES)?;
        if hdr[0] & FLAG_VALID == 0 {
            return Ok(false);
        }
        let key = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        let deadline = self.peek_expiry(bucket)?;
        if deadline == 0 || deadline > now_unix_ms() {
            return Ok(false);
        }
        // The index is authoritative: a stale image whose key lives
        // elsewhere is not this bucket's tenant and must not be reclaimed
        // through it.
        if self.index.lookup(&self.dev, key)? != Some(addr as u64) {
            return Ok(false);
        }
        self.reclaim_key(key, false)?;
        Ok(true)
    }

    /// Ring retention's reclamation sweep, run when a PUT finds the pool
    /// empty: expire every overdue bucket; if nothing was overdue, evict
    /// the live entry with the earliest (nonzero) deadline. Entries
    /// without a deadline are never evicted. Returns whether any bucket
    /// was freed.
    fn ring_reclaim(&mut self) -> Result<bool, PnwError> {
        if self.expiry.is_none() {
            return Ok(false);
        }
        let now = now_unix_ms();
        let mut freed = false;
        let mut earliest: Option<(u64, u64)> = None; // (deadline, key)
        for b in 0..self.active_buckets as u32 {
            if self.retired.contains(&b) {
                continue;
            }
            let addr = self.bucket_addr(b);
            let hdr = self.dev.peek(addr, HDR_BYTES)?;
            if hdr[0] & FLAG_VALID == 0 {
                continue;
            }
            let deadline = self.peek_expiry(b)?;
            if deadline == 0 {
                continue;
            }
            let key = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
            if self.index.lookup(&self.dev, key)? != Some(addr as u64) {
                continue;
            }
            if deadline <= now {
                self.reclaim_key(key, false)?;
                freed = true;
            } else if earliest.is_none_or(|(d, _)| deadline < d) {
                earliest = Some((deadline, key));
            }
        }
        if freed {
            return Ok(true);
        }
        let Some((_, key)) = earliest else {
            return Ok(false);
        };
        self.reclaim_key(key, true)?;
        Ok(true)
    }

    /// Ordered range scan over `[lo, hi]` (inclusive): every live,
    /// unexpired key in range with its value, ascending by key. Walks the
    /// data-zone headers rather than the index (the hash index has no
    /// order); the index is consulted per candidate as the authority — a
    /// stale image on retired media is skipped, never served. CRC-failing
    /// buckets are skipped silently (a scan is a bulk read; the loud
    /// typed-corruption contract belongs to point GETs, and the scrubber
    /// repairs or retires the bucket independently).
    pub fn scan_range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, PnwError> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        let now = now_unix_ms();
        for b in 0..self.active_buckets as u32 {
            let addr = self.bucket_addr(b);
            let hdr = self.dev.peek(addr, HDR_BYTES)?;
            if hdr[0] & FLAG_VALID == 0 {
                continue;
            }
            let key = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
            if key < lo || key > hi {
                continue;
            }
            let stored = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
            if self.index.lookup(&self.dev, key)? != Some(addr as u64) {
                continue;
            }
            let mut v = vec![0u8; self.cfg.value_size];
            self.dev.peek_into(addr + HDR_BYTES, &mut v)?;
            if self.cfg.integrity && bucket_crc(key, &v) != stored {
                continue;
            }
            if self.addr_expired(addr as u64, now)? {
                continue;
            }
            out.push((key, v));
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        Ok(out)
    }

    /// The static geometry the sharded store's lock-free scan path
    /// captures at wrap time.
    pub(crate) fn scan_geometry(&self) -> ScanGeometry {
        ScanGeometry {
            data_start: self.data.start,
            bucket_size: self.bucket_size,
            buckets: self.cfg.capacity + self.cfg.reserve_buckets,
            value_size: self.cfg.value_size,
            integrity: self.cfg.integrity,
            expiry_start: self.expiry.map(|r| r.start),
        }
    }

    /// Verifies one bucket's integrity seal — the scrubber's unit of work.
    /// A CRC failure is repaired from the WAL's clean copy when one exists
    /// (value re-placed on fresh media, damaged bucket retired); without a
    /// clean copy the bucket is retired but the key stays indexed, so the
    /// loss surfaces as a typed [`PnwError::Corruption`] on the next GET —
    /// loud, never silent. A still-intact value sitting on media with
    /// known stuck bits is relocated proactively before a future write can
    /// corrupt it.
    fn scrub_bucket(&mut self, bucket: u32) -> Result<(), PnwError> {
        if self.retired.contains(&bucket) {
            return Ok(());
        }
        // TTL sweep first — and independent of the integrity knob: an
        // expired bucket is reclaimed, making its CRC moot.
        if self.cfg.ttl_enabled && self.expire_bucket_if_due(bucket)? {
            return Ok(());
        }
        if !self.cfg.integrity {
            return Ok(());
        }
        let addr = self.bucket_addr(bucket);
        let hdr: [u8; HDR_BYTES] = self.dev.peek(addr, HDR_BYTES)?.try_into().unwrap();
        if hdr[0] & FLAG_VALID == 0 {
            return Ok(());
        }
        self.scrub.scanned += 1;
        let key = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        let stored = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
        self.dev.peek_into(addr + HDR_BYTES, &mut self.value_buf)?;
        if bucket_crc(key, &self.value_buf) == stored {
            if self.dev.stuck_bits_in(addr, self.bucket_size) > 0 {
                // Value intact but the media under it has latched: move it
                // while a verified copy can still be read back.
                let value = std::mem::take(&mut self.value_buf);
                let res = self.relocate(key, &value, bucket);
                self.value_buf = value;
                res?;
            }
            return Ok(());
        }
        self.scrub.crc_failures += 1;
        let clean = self
            .durable
            .as_ref()
            .and_then(|d| d.wal_value(key))
            .map(<[u8]>::to_vec);
        match clean {
            Some(v) => self.relocate(key, &v, bucket)?,
            None => self.retire(bucket)?,
        }
        Ok(())
    }

    /// Moves `key`'s value (a verified or WAL-clean copy) off damaged
    /// media: retires the old bucket, re-places the value through the
    /// write-verify loop, re-points the index and re-logs the put.
    fn relocate(&mut self, key: u64, value: &[u8], from: u32) -> Result<(), PnwError> {
        let deadline = self.peek_expiry(from)?;
        self.retire(from)?;
        let cluster = self.model.predict_into(value, &mut self.scratch);
        let mut deferred = None;
        let (bucket, _, _) = self.place_sealed(key, value, cluster, &mut deferred)?;
        let addr = self.bucket_addr(bucket);
        // The deadline moves with the value.
        self.stamp_expiry(bucket, deadline)?;
        let _ = self.index.remove(&mut self.dev, key)?;
        self.index.insert(&mut self.dev, key, addr as u64)?;
        if let Some(d) = &mut self.durable {
            d.log_put_value(key, addr as u64, value)?;
        }
        self.labels[bucket as usize] = label_u16(cluster);
        let _ = self
            .dev
            .write(self.bucket_addr(from), &[0u8], WriteMode::Diff);
        self.scrub.repairs += 1;
        Ok(())
    }

    /// Runs one full scrub pass over the active zone (every bucket CRC
    /// verified once) and returns the cumulative scrub counters. A
    /// [`PnwError::Full`] from a relocation (no healthy media left to move
    /// a value onto) ends the pass early — the damaged buckets stay
    /// detected-and-retired, the keys stay loudly addressable.
    pub fn scrub_pass(&mut self) -> Result<ScrubStats, PnwError> {
        let _w = WriteBracket::enter(&self.sync);
        for b in 0..self.active_buckets as u32 {
            match self.scrub_bucket(b) {
                Ok(()) => {}
                Err(PnwError::Full) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(self.scrub)
    }

    /// Scrubs the next `buckets` buckets at the rotating cursor — the
    /// rate-limited background scrubber's increment. Wraps around the
    /// active zone so every bucket is eventually revisited.
    pub fn scrub_step(&mut self, buckets: u32) -> Result<(), PnwError> {
        if self.active_buckets == 0 {
            return Ok(());
        }
        let _w = WriteBracket::enter(&self.sync);
        for _ in 0..buckets {
            let b = self.scrub_cursor % self.active_buckets as u32;
            self.scrub_cursor = (b + 1) % self.active_buckets as u32;
            match self.scrub_bucket(b) {
                Ok(()) => {}
                Err(PnwError::Full) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Test/experiment hook: arms a stuck-at fault on one bit of `key`'s
    /// *stored value* (bit 0 = LSB of the value's first byte). Returns
    /// whether the key was present to arm against.
    pub fn arm_stuck_at_key(
        &mut self,
        key: u64,
        bit: u32,
        stuck_at_one: bool,
    ) -> Result<bool, PnwError> {
        let Some(addr) = self.index.lookup(&self.dev, key)? else {
            return Ok(false);
        };
        let byte = addr as usize + HDR_BYTES + (bit / 8) as usize;
        let geo = self.dev.geometry();
        let word = geo.word_of(byte);
        let bit_in_word = ((byte - word * geo.word_bytes) * 8) as u32 + bit % 8;
        self.dev.arm_stuck_bit(word, bit_in_word, stuck_at_one)?;
        Ok(true)
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
            let addr = self.bucket_addr(bucket) + HDR_BYTES;
            self.dev.write(addr, &v, WriteMode::Raw)?;
            n += 1;
        }
        // Back into the pool under the (still current) model's labels.
        let relabeled = self.labels_of(free);
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

    /// Labels `bucket`'s stored content under the current snapshot
    /// (Algorithm 3 lines 3–4), predicting straight from the device cells —
    /// no copy, no allocation, no device statistics.
    fn label_stored(&mut self, bucket: u32) -> Result<usize, PnwError> {
        let vaddr = self.bucket_addr(bucket) + HDR_BYTES;
        let value = self.dev.peek(vaddr, self.cfg.value_size)?;
        Ok(self.model.predict_into(value, &mut self.scratch))
    }

    /// [`ShardEngine::label_stored`] for each of `buckets`.
    fn labels_of(&mut self, buckets: Vec<u32>) -> Vec<(u32, usize)> {
        buckets
            .into_iter()
            .map(|b| (b, self.label_stored(b).expect("bucket in range")))
            .collect()
    }

    /// Collects a training snapshot: the contents of all data-zone buckets
    /// (Algorithm 1 trains on "all the available data in the NVM storage"),
    /// subsampled to `cap` values.
    pub fn training_values(&self, cap: usize) -> Vec<Vec<u8>> {
        let idx = stride_sample(self.active_buckets, cap);
        idx.iter()
            .map(|&b| self.peek_value(b as u32).expect("bucket in range"))
            .collect()
    }

    /// Publishes a freshly-trained model snapshot to this shard: swaps the
    /// `Arc` and relabels all free buckets under the new centroids, both
    /// under the shard lock the caller already holds — readers of this
    /// shard can never see the pool and the model out of sync.
    pub fn install_model(&mut self, snapshot: Arc<ModelSnapshot>) {
        self.model = snapshot;
        let free = self.pool.drain_all();
        let relabeled = self.labels_of(free);
        let k = self.model.k();
        self.rebuild_pool_tiered(k, relabeled);
        // Cached content labels were computed under the previous model;
        // Algorithm 3 labels under the *current* one, so they all go
        // stale and refresh lazily on the next delete/overwrite.
        self.labels.fill(LABEL_STALE);
    }

    /// The shard's current model snapshot.
    pub fn model(&self) -> &Arc<ModelSnapshot> {
        &self.model
    }

    /// Simulates a power failure followed by a restart of this shard: the
    /// DRAM-side index (if [`IndexPlacement::Dram`]) and pool are discarded
    /// and rebuilt from NVM, exactly as §V-A.3 describes; the model
    /// snapshot reverts to the untrained placeholder. The caller owns the
    /// trainer and must retrain + [`ShardEngine::install_model`]
    /// afterwards (the model *"can be reconstructed after a crash"*,
    /// §V-A.1).
    pub fn recover_structures(&mut self) -> Result<(), PnwError> {
        let _w = WriteBracket::enter(&self.sync);
        self.dev.crash();
        self.dev.recover();

        // Rebuild the index *in place* (wipe + rescan rather than a new
        // allocation): lock-free readers hold a handle to the index's
        // storage, which must stay the same object across recovery.
        match self.cfg.index {
            IndexPlacement::Dram => {
                // Scan the data zone headers.
                self.index.clear(&mut self.dev)?;
                let mut live = 0;
                for b in 0..self.active_buckets as u32 {
                    if self.retired.contains(&b) {
                        continue;
                    }
                    let addr = self.bucket_addr(b);
                    let hdr: [u8; HDR_BYTES] =
                        self.dev.peek(addr, HDR_BYTES)?.try_into().unwrap();
                    if hdr[0] & FLAG_VALID != 0 {
                        let key = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
                        self.index.insert(&mut self.dev, key, addr as u64)?;
                        live += 1;
                    }
                }
                self.live = live;
            }
            IndexPlacement::Nvm => {
                let region = self.index_region.expect("nvm index has a region");
                let idx = PathHashIndex::recover(region, self.index_leaves, &self.dev);
                self.live = idx.len();
                self.index = Box::new(idx);
            }
        }

        // Rebuild the pool from non-valid buckets under the untrained
        // single-cluster placeholder; the caller retrains next.
        let mut free_buckets = Vec::new();
        for b in 0..self.active_buckets as u32 {
            if self.retired.contains(&b) {
                continue;
            }
            let addr = self.bucket_addr(b);
            let hdr = self.dev.peek(addr, 1)?;
            if hdr[0] & FLAG_VALID == 0 {
                free_buckets.push(b);
            }
        }
        self.pool = DynamicAddressPool::new(1, self.effective_capacity());
        for b in free_buckets {
            let worn = self.bucket_worn(b);
            self.pool.push_tier(0, b, worn);
        }
        // The model is DRAM-resident and lost with the crash; predictions
        // fall back to the untrained placeholder until the caller retrains
        // and installs (the pool above is single-cluster to match).
        self.model = Arc::new(ModelSnapshot::untrained(&self.cfg));
        self.labels.fill(LABEL_STALE);
        Ok(())
    }

    /// Sets the active-zone size directly (recovery: the WAL-replayed
    /// extension state), clamped to the provisioned bucket range.
    pub(crate) fn set_active_buckets(&mut self, n: usize) {
        self.active_buckets = n.min(self.cfg.capacity + self.cfg.reserve_buckets);
        self.pool.set_capacity(self.effective_capacity());
    }

    /// Seeds the permanent-retirement set from recovery (checkpointed
    /// list + WAL-replayed retire records). Call *before* the repair and
    /// structure-recovery scans so they skip damaged media.
    pub(crate) fn restore_retired(&mut self, retired: &[u32]) {
        self.retired.extend(retired.iter().copied());
        self.scrub.retired = self.retired.len() as u64;
        self.pool.set_capacity(self.effective_capacity());
    }

    /// Re-links committed keys whose buckets are retired: the recovery
    /// scans skip retired media, but such a key must stay addressable so
    /// its loss surfaces as a typed [`PnwError::Corruption`] on GET —
    /// never as a silent miss. Call after
    /// [`ShardEngine::recover_structures`].
    pub(crate) fn reindex_retired_committed(
        &mut self,
        committed: &HashMap<u64, u64>,
    ) -> Result<(), PnwError> {
        let _w = WriteBracket::enter(&self.sync);
        for (&key, &addr) in committed {
            let b = self.bucket_of_addr(addr);
            if self.retired.contains(&b) && self.index.lookup(&self.dev, key)?.is_none() {
                self.index.insert(&mut self.dev, key, addr)?;
                self.live += 1;
            }
        }
        Ok(())
    }

    /// Drops the WAL value mirror after a successful checkpoint (the
    /// checkpointed device image is now the repair source of record for
    /// everything the truncated WAL no longer covers).
    pub(crate) fn clear_wal_values(&mut self) {
        if let Some(d) = &mut self.durable {
            d.clear_values();
        }
    }

    /// Reconciles the data zone with the WAL-derived committed map after a
    /// crash — the step that turns "whatever the torn device holds" into
    /// exactly the committed state, before [`ShardEngine::recover_structures`]
    /// rebuilds the DRAM-side structures from the repaired zone:
    ///
    /// 1. any valid-flagged bucket whose `(key, addr)` is *not* committed
    ///    (a torn or unacknowledged put, or a committed delete whose flag
    ///    clear preceded the WAL record) has its flag cleared;
    /// 2. any committed `(key, addr)` whose flag is clear (an
    ///    unacknowledged delete or update that tore after the flag clear)
    ///    has its full header re-stamped — the value bytes are intact,
    ///    because deletion only ever touches the flag byte;
    /// 3. with an NVM-resident index, the index region (whose internal
    ///    writes are not individually WAL-framed) is zeroed and rebuilt
    ///    from the committed map alone.
    pub(crate) fn repair_after_replay(
        &mut self,
        committed: &HashMap<u64, u64>,
    ) -> Result<(), PnwError> {
        let _w = WriteBracket::enter(&self.sync);
        self.labels.fill(LABEL_STALE);
        for b in 0..self.active_buckets as u32 {
            if self.retired.contains(&b) {
                // Retired media is left exactly as found: repairing it
                // would write to known-damaged cells, and its committed
                // keys are re-linked by `reindex_retired_committed`.
                continue;
            }
            let addr = self.bucket_addr(b);
            let hdr: [u8; HDR_BYTES] = self.dev.peek(addr, HDR_BYTES)?.try_into().unwrap();
            let key = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
            let valid = hdr[0] & FLAG_VALID != 0;
            let committed_here = committed.get(&key) == Some(&(addr as u64));
            if valid && !committed_here {
                self.dev.write(addr, &[0u8], WriteMode::Diff)?;
            } else if !valid && committed_here {
                let mut fixed = [0u8; HDR_BYTES];
                fixed[0] = FLAG_VALID;
                if self.cfg.integrity {
                    // The flag-only clear this repair undoes never touched
                    // the CRC bytes, but the header image below is written
                    // whole — carry the seal forward instead of zeroing it.
                    self.dev.peek_into(addr + HDR_BYTES, &mut self.value_buf)?;
                    fixed[4..8].copy_from_slice(&bucket_crc(key, &self.value_buf).to_le_bytes());
                }
                fixed[8..16].copy_from_slice(&key.to_le_bytes());
                self.dev.write(addr, &fixed, WriteMode::Diff)?;
            }
        }
        if let Some(region) = self.index_region {
            // A torn crash can leave the path-hash region mid-update;
            // its buckets carry no CRCs, so rebuild it wholesale from the
            // committed map.
            self.dev
                .write(region.start, &vec![0u8; region.len], WriteMode::Diff)?;
            let mut idx = PathHashIndex::create(region, self.index_leaves);
            for (&key, &addr) in committed {
                idx.insert(&mut self.dev, key, addr)?;
            }
            self.index = Box::new(idx);
        }
        Ok(())
    }

    /// The committed `(key, address)` pairs as the data zone's headers
    /// state them. Only meaningful at a quiescent cut on a durable shard
    /// (no op in flight, device not crashed): then every valid-flagged
    /// header corresponds to a WAL-acknowledged put and vice versa.
    pub(crate) fn committed_entries(&self) -> Result<Vec<(u64, u64)>, PnwError> {
        let mut out = Vec::with_capacity(self.live);
        for b in 0..self.active_buckets as u32 {
            let addr = self.bucket_addr(b);
            let hdr = self.dev.peek(addr, HDR_BYTES)?;
            if hdr[0] & FLAG_VALID != 0 {
                let key = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
                if self.retired.contains(&b) && self.index.lookup(&self.dev, key)? != Some(addr as u64)
                {
                    // A stale image on retired media (the flag byte can be
                    // stuck and unclearable); the key lives elsewhere now.
                    continue;
                }
                out.push((key, addr as u64));
            }
        }
        Ok(out)
    }

    /// Collects this shard's checkpoint contribution at a quiescent cut.
    pub(crate) fn checkpoint_state(&self) -> Result<crate::durable::ShardCheckpoint, PnwError> {
        let mut retired: Vec<u32> = self.retired.iter().copied().collect();
        retired.sort_unstable();
        Ok(crate::durable::ShardCheckpoint {
            active: self.active_buckets as u64,
            entries: self.committed_entries()?,
            stats: self.dev.stats().clone(),
            word_writes: self.dev.wear().word_writes().to_vec(),
            bit_flips: self.dev.wear().bit_flips().map(<[u16]>::to_vec),
            retired,
        })
    }

    /// Restores checkpointed device counters after recovery repair (last,
    /// so the repair's own writes do not perturb the restored values).
    pub(crate) fn restore_device_counters(
        &mut self,
        stats: DeviceStats,
        word_writes: &[u32],
        bit_flips: Option<&[u16]>,
    ) {
        self.dev.restore_stats(stats);
        if !word_writes.is_empty() {
            self.dev.restore_wear(word_writes, bit_flips);
        }
    }

    /// Attaches the WAL appender that makes this shard durable.
    pub(crate) fn attach_durable(&mut self, d: DurableShard) {
        self.durable = Some(d);
    }

    /// Flushes the device's backing file; refuses on a crashed device (a
    /// checkpoint must never be cut from post-crash state).
    pub(crate) fn sync_device(&self) -> Result<(), PnwError> {
        if self.dev.is_crashed() {
            return Err(NvmError::Crashed.into());
        }
        Ok(self.dev.sync()?)
    }

    /// Arms a torn write on this shard's device (test hook).
    pub(crate) fn arm_torn_write(&mut self, words: usize) {
        self.dev.arm_torn_write(words);
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
            gets: self.sync.gets(),
            deletes: self.deletes,
            scrub: {
                let mut s = self.scrub;
                s.crc_failures += self.sync.crc_failures();
                s.stuck_bits = self.dev.stuck_bit_count();
                s
            },
        }
    }

    /// Access to the pool (read-only).
    pub fn pool(&self) -> &DynamicAddressPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardEngine>();
    }

    #[test]
    fn engine_put_get_delete_with_own_snapshot() {
        let cfg = PnwConfig::new(32, 8).with_clusters(2);
        let mut e = ShardEngine::new(cfg);
        assert_eq!(e.model().epoch(), 0, "fresh engine holds the placeholder");
        let (r, path) = e.put(1, &[0xAA; 8]).unwrap();
        assert_eq!(path, PutPath::Fresh);
        assert!(r.total_write.bit_flips > 0);
        assert_eq!(e.get(1).unwrap().unwrap(), vec![0xAA; 8]);
        assert!(e.delete(1).unwrap());
        assert_eq!(e.get(1).unwrap(), None);
        assert!(e.is_empty());
    }

    #[test]
    fn engine_get_records_no_device_reads() {
        let cfg = PnwConfig::new(16, 8).with_clusters(1);
        let mut e = ShardEngine::new(cfg);
        e.put(7, &[1; 8]).unwrap();
        let reads = e.device_stats().read_ops;
        for _ in 0..10 {
            e.get(7).unwrap();
        }
        assert_eq!(e.device_stats().read_ops, reads);
        assert_eq!(e.snapshot(TrainStats::default()).gets, 10);
    }

    #[test]
    fn in_place_put_reports_its_path() {
        let cfg = PnwConfig::new(16, 8)
            .with_clusters(1)
            .with_update_policy(UpdatePolicy::InPlace);
        let mut e = ShardEngine::new(cfg);
        let (_, p1) = e.put(5, &[0; 8]).unwrap();
        let (_, p2) = e.put(5, &[1; 8]).unwrap();
        assert_eq!(p1, PutPath::Fresh);
        assert_eq!(p2, PutPath::InPlace);
    }

    /// The batch-path PUT must leave the device in a bit-for-bit identical
    /// state to the reporting PUT — same writes, same index traffic, same
    /// pool decisions — under both update policies.
    #[test]
    fn put_unreported_matches_put_exactly() {
        for policy in [UpdatePolicy::DeletePut, UpdatePolicy::InPlace] {
            let cfg = PnwConfig::new(64, 8)
                .with_clusters(2)
                .with_seed(5)
                .with_update_policy(policy);
            let mut a = ShardEngine::new(cfg.clone());
            let mut b = ShardEngine::new(cfg);
            for round in 0..3u8 {
                for k in 0..24u64 {
                    let v = [k as u8 ^ (round * 0x3B); 8];
                    let (_, path_a) = a.put(k, &v).unwrap();
                    let path_b = b.put_unreported(k, &v).unwrap();
                    assert_eq!(path_a, path_b, "key {k} round {round}");
                }
                for k in (0..24u64).step_by(5) {
                    assert_eq!(a.delete(k).unwrap(), b.delete(k).unwrap());
                }
            }
            assert_eq!(a.device_stats(), b.device_stats(), "{policy:?}");
            assert_eq!(a.len(), b.len());
            let (sa, sb) = (
                a.snapshot(TrainStats::default()),
                b.snapshot(TrainStats::default()),
            );
            assert_eq!(sa.puts, sb.puts);
            assert_eq!(sa.free, sb.free);
        }
    }

    #[test]
    fn put_unreported_reports_full() {
        let mut e = ShardEngine::new(PnwConfig::new(2, 8).with_clusters(1));
        e.put_unreported(1, &[1; 8]).unwrap();
        e.put_unreported(2, &[2; 8]).unwrap();
        assert!(matches!(
            e.put_unreported(3, &[3; 8]),
            Err(PnwError::Full)
        ));
        assert!(matches!(
            e.put_unreported(4, &[0; 4]),
            Err(PnwError::WrongValueSize { expected: 8, got: 4 })
        ));
    }

    #[test]
    fn install_model_swaps_snapshot_and_relabels_together() {
        let cfg = PnwConfig::new(32, 8).with_clusters(2);
        let mut mgr = crate::model::ModelManager::new(&cfg);
        let mut e = ShardEngine::new(cfg);
        let values: Vec<Vec<u8>> = (0..32)
            .map(|i| vec![if i % 2 == 0 { 0x00u8 } else { 0xFF }; 8])
            .collect();
        mgr.train(&values);
        e.install_model(mgr.snapshot());
        assert_eq!(e.model().epoch(), 1);
        assert_eq!(e.model().k(), 2);
        // Pool now has one free list per cluster of the *installed* model.
        assert_eq!(e.pool().clusters(), 2);
    }

    /// A GET must never return corrupt bytes: a stuck bit that flips the
    /// stored value surfaces as a typed, non-retryable [`Corruption`]
    /// error carrying the key and shard.
    #[test]
    fn get_detects_corruption_from_stuck_bit() {
        let mut e = ShardEngine::new(PnwConfig::new(8, 8).with_clusters(1));
        e.put(1, &[0u8; 8]).unwrap();
        assert!(e.arm_stuck_at_key(1, 3, true).unwrap());
        assert!(!e.arm_stuck_at_key(99, 0, true).unwrap(), "absent key");
        assert!(matches!(
            e.get(1),
            Err(PnwError::Corruption { key: 1, shard: 0 })
        ));
        let snap = e.snapshot(TrainStats::default());
        assert!(snap.scrub.crc_failures >= 1);
        assert_eq!(snap.scrub.stuck_bits, 1);
    }

    /// Write-verify at PUT: a bucket whose media can no longer hold the
    /// sealed image is retired permanently and capacity shrinks honestly —
    /// the store reports `Full` rather than silently storing bad bytes.
    #[test]
    fn write_verify_retires_stuck_bucket() {
        let mut e = ShardEngine::new(PnwConfig::new(1, 8).with_clusters(1));
        e.put(1, &[0u8; 8]).unwrap();
        assert!(e.arm_stuck_at_key(1, 0, true).unwrap());
        assert!(e.delete(1).unwrap());
        // The only bucket has a stuck-at-one cell over a zero value: the
        // verify read can't match the sealed image, so the bucket retires
        // and the (now empty) pool reports Full.
        assert!(matches!(e.put(2, &[0u8; 8]), Err(PnwError::Full)));
        let snap = e.snapshot(TrainStats::default());
        assert_eq!(snap.scrub.retired, 1);
        assert_eq!(snap.scrub.crc_failures, 1);
        assert_eq!(snap.capacity, 0, "capacity shrinks by the retired bucket");
        assert_eq!(e.len(), 0);
    }

    /// Scrub with no durable copy to repair from: the damage is loud, not
    /// silent — the bucket retires, the key stays indexed, and every GET
    /// of it reports corruption instead of pretending the key is gone.
    #[test]
    fn scrub_without_durable_copy_retires_loudly() {
        let mut e = ShardEngine::new(PnwConfig::new(4, 8).with_clusters(1));
        e.put(1, &[0u8; 8]).unwrap();
        assert!(e.arm_stuck_at_key(1, 5, true).unwrap());
        let s = e.scrub_pass().unwrap();
        assert_eq!(s.crc_failures, 1);
        assert_eq!(s.repairs, 0, "volatile store has no clean copy");
        assert_eq!(s.retired, 1);
        assert_eq!(e.len(), 1, "loud loss: the key stays indexed");
        assert!(matches!(
            e.get(1),
            Err(PnwError::Corruption { key: 1, .. })
        ));
    }

    /// Scrub proactively relocates a still-readable value off stuck media:
    /// the stuck bit happens to match the stored polarity (CRC passes),
    /// but the bucket is a time bomb — the value moves to clean media and
    /// the damaged bucket retires.
    #[test]
    fn scrub_relocates_valid_value_off_stuck_media() {
        let mut e = ShardEngine::new(PnwConfig::new(4, 8).with_clusters(1));
        e.put(1, &[0xFFu8; 8]).unwrap();
        // Stored bit is 1 and the cell latches at 1: CRC still verifies.
        assert!(e.arm_stuck_at_key(1, 0, true).unwrap());
        let s = e.scrub_pass().unwrap();
        assert_eq!(s.crc_failures, 0);
        assert_eq!(s.repairs, 1);
        assert_eq!(s.retired, 1);
        assert_eq!(e.get(1).unwrap().unwrap(), vec![0xFF; 8]);
        let snap = e.snapshot(TrainStats::default());
        assert_eq!(snap.capacity, 3);
        assert_eq!(snap.scrub.stuck_bits, 1);
    }

    /// With integrity off the CRC home bytes (header [4..8]) stay zero —
    /// the sealed layout is bit-identical to the pre-integrity format.
    /// With it on, the stored CRC is exactly [`bucket_crc`].
    #[test]
    fn crc_home_bytes_follow_the_integrity_knob() {
        let value = [0xABu8; 8];
        let mut on = ShardEngine::new(PnwConfig::new(8, 8).with_clusters(1));
        let mut off =
            ShardEngine::new(PnwConfig::new(8, 8).with_clusters(1).with_integrity(false));
        on.put(1, &value).unwrap();
        off.put(1, &value).unwrap();
        let addr_on = on.index.lookup(&on.dev, 1).unwrap().unwrap() as usize;
        let hdr_on = on.dev.peek(addr_on, HDR_BYTES).unwrap();
        let stored = u32::from_le_bytes(hdr_on[4..8].try_into().unwrap());
        assert_eq!(stored, bucket_crc(1, &value));
        assert_ne!(stored, 0);
        let addr_off = off.index.lookup(&off.dev, 1).unwrap().unwrap() as usize;
        let hdr_off = off.dev.peek(addr_off, HDR_BYTES).unwrap();
        assert_eq!(&hdr_off[4..8], &[0u8; 4], "integrity off seals zeros");
        // And the off path never reports corruption, even for bad media.
        assert!(off.arm_stuck_at_key(1, 2, true).unwrap());
        assert!(off.get(1).is_ok());
    }
}
