//! Recovery: redoing the WAL's PUTs, then one walk that reconciles the data
//! zone with the WAL-derived committed map and rebuilds the DRAM-side
//! structures from it; and the shard's checkpoint contribution.

use std::collections::HashMap;
use std::sync::Arc;

use pnw_index::{KeyIndex, PathHashIndex};
use pnw_nvm_sim::{DeviceStats, WriteMode};

use super::{value_addr, Header, ShardEngine, LABEL_STALE};
use crate::durable::{DurableShard, PutRecord, ShardCheckpoint, WalSpan};
use crate::error::PnwError;
use crate::model::ModelSnapshot;
use crate::pool::DynamicAddressPool;

impl ShardEngine {
    /// Rebuilds this shard's DRAM-side structures from NVM after a crash
    /// or a reopen, exactly as §V-A.3 describes: the index (if
    /// [`IndexPlacement::Dram`](crate::config::IndexPlacement::Dram)) and
    /// the pool, in one walk over the data-zone headers; the model
    /// snapshot reverts to the untrained placeholder. The caller owns the
    /// trainer and must retrain + [`ShardEngine::install_model`]
    /// afterwards (the model *"can be reconstructed after a crash"*,
    /// §V-A.1).
    ///
    /// A durable open passes the WAL-derived `committed` map, after
    /// `ShardEngine::redo`, and the same walk first reconciles each bucket
    /// with it — what turns "the last checkpoint's cells plus every redone
    /// PUT" into exactly the committed state:
    ///
    /// 1. any valid-flagged bucket whose `(key, addr)` is *not* committed
    ///    (a key deleted or moved since the checkpoint) has its flag
    ///    cleared;
    /// 2. any committed `(key, addr)` whose flag is clear — a checkpointed
    ///    key whose flag clear by an unacknowledged delete reached the data
    ///    file in a later checkpoint's write-back, cut short before its
    ///    superblock bump — has its full header re-stamped: the value
    ///    bytes are intact, because deletion only ever touches the flag
    ///    byte;
    /// 3. an NVM-resident index, whose internal writes are not
    ///    individually WAL-framed, is reconciled with the map
    ///    ([`PathHashIndex::reconcile`]); a DRAM one also re-links the
    ///    committed keys on retired buckets, which the walk skips, so
    ///    their loss surfaces as a typed [`PnwError::Corruption`] on GET —
    ///    never as a silent miss.
    ///
    /// With no map (a simulated crash of a running store), the zone and a
    /// persistent index are taken as they stand.
    pub fn recover_structures(
        &mut self,
        committed: Option<&HashMap<u64, u64>>,
    ) -> Result<(), PnwError> {
        let _w = self.write_bracket();
        self.dev.crash();
        self.dev.recover();

        // Rebuild the index *in place* (wipe + rescan rather than a new
        // allocation): lock-free readers hold a handle to the index's
        // storage, which must stay the same object across recovery.
        let rescan = match (self.index_region, committed) {
            (None, _) => {
                self.index.clear(&mut self.dev)?;
                self.live = 0;
                true
            }
            (Some(region), Some(committed)) => {
                let leaves = self.index_leaves;
                let idx = PathHashIndex::reconcile(region, leaves, &mut self.dev, committed)?;
                self.live = idx.len();
                self.index = Box::new(idx);
                false
            }
            (Some(region), None) => {
                let idx = PathHashIndex::recover(region, self.index_leaves, &self.dev);
                self.live = idx.len();
                self.index = Box::new(idx);
                false
            }
        };

        // One walk over the data-zone headers, skipping retired media —
        // repairing it would write to known-damaged cells: each bucket is
        // reconciled with the committed map, then a DRAM index re-links
        // the valid ones, and the others rebuild the pool under the
        // untrained single-cluster placeholder.
        self.pool = DynamicAddressPool::new(1, self.effective_capacity());
        for b in 0..self.active_buckets as u32 {
            if self.retired.contains(&b) {
                continue;
            }
            let (addr, hdr) = self.header(b)?;
            let mut valid = hdr.valid;
            if let Some(committed) = committed {
                let here = committed.get(&hdr.key) == Some(&(addr as u64));
                if valid && !here {
                    self.clear_flag(addr)?;
                } else if !valid && here {
                    // The flag-only clear this undoes never touched the
                    // CRC bytes, but the header is written whole — re-seal
                    // it from the (intact) value instead of zeroing the
                    // seal.
                    self.dev.peek_into(value_addr(addr), &mut self.value_buf)?;
                    let fixed = Header::sealing(hdr.key, &self.value_buf, self.cfg.integrity);
                    self.dev.write(addr, &fixed.encode(), WriteMode::Diff)?;
                }
                valid = here;
            }
            if !valid {
                let worn = self.bucket_worn(b);
                self.pool.push_tier(0, b, worn);
            } else if rescan {
                self.index.insert(&mut self.dev, hdr.key, addr as u64)?;
                self.live += 1;
            }
        }
        for (&key, &addr) in committed.into_iter().flatten() {
            let b = self.bucket_of_addr(addr)?;
            if self.retired.contains(&b) && self.index.lookup(&self.dev, key)?.is_none() {
                self.index.insert(&mut self.dev, key, addr)?;
                self.live += 1;
            }
        }
        // The model is DRAM-resident and lost with the crash; predictions
        // fall back to the untrained placeholder until the caller retrains
        // and installs (the pool above is single-cluster to match).
        self.model = Arc::new(ModelSnapshot::untrained(&self.cfg));
        self.labels.fill(LABEL_STALE);
        self.abandon_label_pass();
        Ok(())
    }

    /// Sets the active-zone size directly (recovery: the WAL-replayed
    /// extension state), clamped to the provisioned bucket range.
    pub(crate) fn set_active_buckets(&mut self, n: usize) {
        self.active_buckets = n.min(self.layout.buckets());
        self.read.sync.set_active(self.active_buckets);
        self.pool.set_capacity(self.effective_capacity());
    }

    /// Seeds the permanent-retirement set from recovery (checkpointed
    /// list + WAL-replayed retire records). Call *before*
    /// [`ShardEngine::recover_structures`], so its walk skips damaged
    /// media.
    pub(crate) fn restore_retired(&mut self, retired: &[u32]) {
        self.retired.extend(retired.iter().copied());
        self.scrub.retired = self.retired.len() as u64;
        self.pool.set_capacity(self.effective_capacity());
    }

    /// Redo (ARIES): rewrites every PUT the WAL committed since the
    /// checkpoint — header, value and deadline — onto its bucket, with
    /// [`WriteMode::Diff`], so the data zone holds every acknowledged PUT
    /// whatever the write-back data file lost. Idempotent: a crash in here
    /// redoes it from the same records. A retired bucket is rewritten too:
    /// the record holds what its cells held when the PUT was acknowledged
    /// (a relocation off it that a crash cut short leaves the key there).
    /// Call before [`ShardEngine::recover_structures`].
    pub(crate) fn redo<'a>(
        &mut self,
        records: impl Iterator<Item = PutRecord<'a>>,
    ) -> Result<(), PnwError> {
        let _w = self.write_bracket();
        for put in records {
            let bucket = self.bucket_of_addr(put.addr)?;
            self.seal_bucket_img(put.key, put.value);
            self.dev.write(put.addr as usize, &self.bucket_img, WriteMode::Diff)?;
            self.stamp_expiry(bucket, put.deadline)?;
        }
        Ok(())
    }

    /// The committed `(key, address)` pairs as the data zone's headers
    /// state them. Only meaningful at a quiescent cut on a durable shard
    /// (no op in flight, device not crashed): then every tenant
    /// corresponds to a WAL-acknowledged put and vice versa. A stale image
    /// (the flag byte can be stuck and unclearable; the key lives
    /// elsewhere now) is no tenant and is left out.
    pub(crate) fn committed_entries(&self) -> Result<Vec<(u64, u64)>, PnwError> {
        let mut out = Vec::with_capacity(self.live);
        for b in 0..self.active_buckets as u32 {
            if let Some((addr, hdr)) = self.tenant(b)? {
                out.push((hdr.key, addr as u64));
            }
        }
        Ok(out)
    }

    /// Collects this shard's checkpoint contribution at a quiescent cut.
    pub(crate) fn checkpoint_state(&self) -> Result<ShardCheckpoint, PnwError> {
        let mut retired: Vec<u32> = self.retired.iter().copied().collect();
        retired.sort_unstable();
        Ok(ShardCheckpoint {
            active: self.active_buckets as u64,
            entries: self.committed_entries()?,
            stats: self.dev.stats().clone(),
            retired,
        })
    }

    /// Restores the checkpointed device stats, before
    /// [`ShardEngine::redo`]: the per-word wear the device opened with is
    /// as of the same cut, so recovery's own writes count the same way in
    /// both.
    pub(crate) fn restore_device_stats(&mut self, stats: DeviceStats) {
        self.dev.restore_stats(stats);
    }

    /// Attaches the WAL appender that makes this shard durable (again,
    /// after a checkpoint replaced its WAL). On a store that verifies
    /// CRCs it keeps the value mirror the scrub repairs from, seeded with
    /// `values` (the replay's; none after a checkpoint).
    pub(crate) fn attach_durable(&mut self, mut d: DurableShard, values: HashMap<u64, WalSpan>) {
        if self.cfg.integrity {
            d.keep_values(values);
        }
        self.durable = Some(d);
    }

    /// Writes the device's dirty pages back to its file and syncs it —
    /// the checkpoint's write-back; refuses on a crashed device (a
    /// checkpoint must never be cut from post-crash state).
    pub(crate) fn sync_device(&mut self) -> Result<(), PnwError> {
        Ok(self.dev.sync()?)
    }

    /// Arms a torn write `skip` device writes from now on this shard
    /// (test hook).
    pub(crate) fn arm_torn_write_after(&mut self, skip: u64, words: usize) {
        self.dev.arm_torn_write_after(skip, words);
    }
}
