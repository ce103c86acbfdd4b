//! Placement: PUT (Algorithm 2 + §V-B.3), DELETE (Algorithm 3), the batch
//! group, and the hand-offs between the data zone and the address pool.

use std::collections::HashSet;
use std::time::Duration;

use pnw_nvm_sim::device::hamming;
use pnw_nvm_sim::{DeviceStats, NvmError, WriteMode, WriteStats};

use super::{bucket, label_u16, value_addr, Header, PutPath, ShardEngine, HDR_BYTES};
use crate::api::{BatchReport, Op};
use crate::clock::{now_unix_ms, Tick};
use crate::config::UpdatePolicy;
use crate::error::PnwError;
use crate::metrics::OpReport;

/// The most consecutive in-place rewrites one tenancy of a bucket takes
/// under [`UpdatePolicy::Cheapest`]; the next update relocates whatever the
/// costs. Without the bound, a key whose in-place rewrite is always the
/// cheaper would pin every write to one bucket and undo the pool's FIFO
/// wear rotation (Figure 12).
pub(crate) const MAX_IN_PLACE_RUN: u8 = 7;

impl ShardEngine {
    /// PUT / UPDATE (Algorithm 2 + §V-B.3) under the shard's current model
    /// snapshot.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<(OpReport, PutPath), PnwError> {
        self.put_impl(key, value, 0, true)
    }

    /// PUT with an absolute unix-ms expiry deadline (0 = never expires).
    /// Identical to [`ShardEngine::put`] except the deadline is stamped
    /// into the expiry zone alongside the placed bucket; on a store built
    /// without [`PnwConfig::with_ttl`](crate::PnwConfig::with_ttl) the
    /// deadline is silently ignored.
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
    /// and no prediction timing (the value's share of the write
    /// is nothing to skip — it falls out of the one device pass either
    /// way). [`Store::apply`](crate::Store::apply) charges the whole batch
    /// from one device-stats delta instead; the only counter the batch
    /// path does not feed is the snapshot's `predict_total`.
    pub fn put_unreported(&mut self, key: u64, value: &[u8]) -> Result<PutPath, PnwError> {
        self.put_impl(key, value, 0, false).map(|(_, path)| path)
    }

    /// One PUT followed, at its op boundary, by the shard-local half of
    /// §V-C maintenance: when the fresh placement tripped the load factor,
    /// `due` is set and — while reserve remains — another `capacity / 4`
    /// chunk is activated. The per-op frontend and the batch group both
    /// put through here, so extension always happens at the same op
    /// boundaries (a batch never reports `Full` where the same ops issued
    /// individually would have extended the zone mid-stream).
    #[inline]
    pub(crate) fn put_and_extend(
        &mut self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
        report: bool,
        due: &mut bool,
    ) -> Result<OpReport, PnwError> {
        let (out, path) = self.put_impl(key, value, expires_at_ms, report)?;
        if path == PutPath::Fresh && self.retrain_due() {
            if self.reserve_remaining() > 0 {
                self.extend_zone((self.cfg.capacity / 4).max(1));
            }
            *due = true;
        }
        Ok(out)
    }

    /// The one PUT implementation behind every entry point. `report`
    /// toggles only side-effect-free instrumentation (the stats snapshot
    /// and the two tick reads around prediction) — device, index and pool
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
        let _w = self.write_bracket();
        // Sealed once: every location below is written, and priced, with
        // this image.
        self.seal_bucket_img(key, value);
        // A relocating update's vacated bucket, held back until the
        // replacement is placed (and, on a durable shard, WAL-committed):
        // the relocation can then neither land back on it nor — torn by a
        // crash — overwrite the committed old value.
        let mut deferred: Option<(usize, u32)> = None;
        let mut predicted = None;

        match self.cfg.update_policy {
            UpdatePolicy::InPlace => {
                if let Some(addr) = self.index.get(&mut self.dev, key)? {
                    let b = self.bucket_of_addr(addr)?;
                    if let Some(done) =
                        self.put_in_place(key, value, b, expires_at_ms, report, None)?
                    {
                        return Ok(done);
                    }
                    // The in-place target failed write-verify: the bucket
                    // is retired and the key unlinked — fall through to a
                    // fresh placement on healthy media.
                }
            }
            // The priced choice: volatile shards under a trained model.
            UpdatePolicy::Cheapest if self.durable.is_none() && self.model.is_trained() => {
                if let Some(addr) = self.index.get(&mut self.dev, key)? {
                    let b = self.bucket_of_addr(addr)?;
                    let (cluster, predict) = self.predict_timed(value, report);
                    if self.in_place_is_cheaper(b, cluster)? {
                        let p = Some((cluster, predict));
                        if let Some(done) =
                            self.put_in_place(key, value, b, expires_at_ms, report, p)?
                        {
                            return Ok(done);
                        }
                    } else {
                        let _ = self.index.remove(&mut self.dev, key)?;
                        deferred = Some(self.clear_bucket(addr)?);
                    }
                    predicted = Some((cluster, predict));
                }
            }
            UpdatePolicy::Cheapest => {
                // Durable or untrained: always relocate. `remove` returns
                // the old address, so this costs one index probe.
                if let Some(addr) = self.index.remove(&mut self.dev, key)? {
                    deferred = Some(self.clear_bucket(addr)?);
                }
            }
        }

        let before = report.then(|| self.dev.stats().clone());
        let (cluster, predict) = match predicted {
            Some(p) => p,
            None => self.predict_timed(value, report),
        };

        let placed = self.place_sealed(key, cluster, &mut deferred);
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
                self.place_sealed(key, cluster, &mut deferred)?
            }
            Err(e) => return Err(e),
        };
        let addr = self.layout.addr(bucket);
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
        let out = self.op_report(before, cluster, fallback, predict, value_write);
        Ok((out, PutPath::Fresh))
    }

    /// Algorithm 2 line 1: predict the entry. The packed bit-domain kernel
    /// reads the raw bytes — no featurization, no allocation — and leaves
    /// the per-cluster distances in this shard's scratch. Timed only when
    /// the PUT reports, on the tick clock: two `Instant` reads would
    /// serialize the core around a kernel that costs less than they do.
    #[inline]
    fn predict_timed(&mut self, value: &[u8], report: bool) -> (usize, Duration) {
        let t0 = report.then(Tick::now);
        let cluster = self.model.predict_into(value, &mut self.scratch);
        let predict = t0.map_or(Duration::ZERO, Tick::elapsed);
        self.predict_total += predict;
        (cluster, predict)
    }

    /// The [`UpdatePolicy::Cheapest`] decision for an update of bucket
    /// `b`'s tenant, the sealed image in hand: whether rewriting `b` flips
    /// no more device bits than relocating — the image diffed against the
    /// bucket the pool would hand out for `cluster` (`peek` runs `pop`'s
    /// own search), plus the flag clear left on `b`. Ties, and an empty
    /// pool, go in place; a tenancy past [`MAX_IN_PLACE_RUN`] in-place
    /// rewrites relocates whatever the costs.
    fn in_place_is_cheaper(&mut self, b: u32, cluster: usize) -> Result<bool, PnwError> {
        if self.in_place_run[b as usize] >= MAX_IN_PLACE_RUN {
            return Ok(false);
        }
        let candidate = {
            let (pool, scratch, model) = (&self.pool, &mut self.scratch, &self.model);
            pool.peek(cluster, || model.ranked_after_predict(scratch))
        };
        let Some(c) = candidate else {
            return Ok(true);
        };
        let img = &self.bucket_img[..];
        let here = self.dev.peek(self.layout.addr(b), img.len())?;
        let there = self.dev.peek(self.layout.addr(c), img.len())?;
        let relocate = hamming(there, img) + hamming(&here[..1], &bucket::FLAG_CLEARED);
        Ok(hamming(here, img) <= relocate)
    }

    /// An update that rewrites the key's own bucket `b` — every update
    /// under [`UpdatePolicy::InPlace`], the cheaper ones under
    /// [`UpdatePolicy::Cheapest`], which passes in the prediction it priced
    /// with (cached as `b`'s label and reported). With integrity on, the
    /// whole sealed image is rewritten (the stored CRC must track the
    /// value) and write-verified; `None` means the media failed
    /// verification — the bucket is retired, the key unlinked, and the
    /// caller re-places the value on fresh media before acknowledging.
    fn put_in_place(
        &mut self,
        key: u64,
        value: &[u8],
        b: u32,
        expires_at_ms: u64,
        report: bool,
        predicted: Option<(usize, Duration)>,
    ) -> Result<Option<(OpReport, PutPath)>, PnwError> {
        let before = report.then(|| self.dev.stats().clone());
        let addr = self.layout.addr(b);
        self.mark_rewritten(b);
        let vstats = if self.cfg.integrity {
            // The write covers the header too, to refresh the seal; the
            // value's share of it comes back from the same pass.
            let (_, vstats) =
                self.dev
                    .write_split(addr, &self.bucket_img, WriteMode::Diff, HDR_BYTES)?;
            self.check_durable_write()?;
            if !self.bucket_matches_img(addr)? {
                // Stuck media, caught before the ack: unlink, retire, and
                // let the caller re-place the value elsewhere.
                self.scrub.crc_failures += 1;
                let _ = self.index.remove(&mut self.dev, key)?;
                self.live -= 1;
                self.retire(b)?;
                let _ = self.clear_flag(addr);
                return Ok(None);
            }
            if let Some(d) = &mut self.durable {
                // Refresh the WAL's clean copy so a later repair can never
                // resurrect the pre-update value.
                d.log_put_value(key, addr as u64, value)?;
            }
            vstats
        } else {
            let vstats = self.dev.write(value_addr(addr), value, WriteMode::Diff)?;
            self.check_durable_write()?;
            vstats
        };
        self.stamp_expiry(b, expires_at_ms)?;
        if let Some((cluster, _)) = predicted {
            self.labels[b as usize] = label_u16(cluster);
        }
        self.in_place_run[b as usize] = self.in_place_run[b as usize].saturating_add(1);
        self.updates_in_place += 1;
        self.puts += 1;
        let (cluster, predict) = predicted.unwrap_or_default();
        let out = self.op_report(before, cluster, false, predict, vstats);
        Ok(Some((out, PutPath::InPlace)))
    }

    /// Assembles a PUT's [`OpReport`] from the device-stats snapshot taken
    /// before it; `None` (the unreported batch path) reports nothing.
    fn op_report(
        &self,
        before: Option<DeviceStats>,
        cluster: usize,
        fallback: bool,
        predict: Duration,
        value_write: WriteStats,
    ) -> OpReport {
        let Some(before) = before else {
            return OpReport::default();
        };
        let total_write = self.dev.stats().since(&before).totals;
        OpReport {
            cluster,
            fallback,
            predict,
            value_write,
            total_write,
            modeled_latency: self.dev.modeled_write_cost(&total_write),
        }
    }

    /// Seals the reusable bucket image: the committed header (the CRC is
    /// zero when integrity is off — the header bytes then stay
    /// bit-identical to the pre-integrity layout) and the value.
    pub(super) fn seal_bucket_img(&mut self, key: u64, value: &[u8]) {
        let (hdr, img_value) = self.bucket_img.split_at_mut(HDR_BYTES);
        Header::sealing(key, value, self.cfg.integrity).encode_into(hdr);
        img_value.copy_from_slice(value);
    }

    /// Whether the cells at `addr` now hold exactly the sealed image —
    /// the write-verify read-back. False means a stuck bit of opposite
    /// polarity swallowed part of the write.
    fn bucket_matches_img(&self, addr: usize) -> Result<bool, PnwError> {
        Ok(self.dev.peek(addr, self.bucket_img.len())? == &self.bucket_img[..])
    }

    /// Algorithm 2 lines 2–6 plus write-verify: pops pool candidates until
    /// one's media accepts the image [`ShardEngine::seal_bucket_img`] left
    /// sealed, bit-exact. A bucket that fails the read-back (a stuck bit
    /// latched at the opposite polarity) is retired permanently *before*
    /// the op is acknowledged and the next-ranked candidate is tried; every
    /// failure shrinks the pool, so the loop terminates. The placed bucket
    /// starts a tenancy: its in-place run is reset.
    pub(super) fn place_sealed(
        &mut self,
        key: u64,
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
            let addr = self.layout.addr(bucket);

            // Lines 3–6: one differential write covers the whole bucket
            // (header + value share cache lines; writing them separately
            // would double-count dirty lines). The same pass returns the
            // value's share of the charge, the Figure 6 metric.
            self.mark_rewritten(bucket);
            let (_, value_write) =
                self.dev
                    .write_split(addr, &self.bucket_img, WriteMode::Diff, HDR_BYTES)?;
            self.check_durable_write()?;
            if !self.cfg.integrity || self.bucket_matches_img(addr)? {
                self.in_place_run[bucket as usize] = 0;
                return Ok((bucket, fallback, value_write));
            }
            self.scrub.crc_failures += 1;
            self.retire(bucket)?;
            let _ = self.clear_flag(addr);
        }
    }

    /// After a data-zone write on a durable shard: a torn write leaves the
    /// device crashed while the write call itself reports the persisted
    /// prefix — the op must surface as failed *before* it reaches the WAL
    /// (a DRAM index insert would otherwise acknowledge a torn value).
    #[inline]
    fn check_durable_write(&self) -> Result<(), PnwError> {
        if self.durable.is_some() && self.dev.is_crashed() {
            return Err(NvmError::Crashed.into());
        }
        Ok(())
    }

    /// The pool missed while a relocating update holds its vacated bucket
    /// back: at full capacity that bucket is the only candidate. On a
    /// durable shard, commit the delete first — a tear mid-rewrite must
    /// then surface as "key absent" at recovery, never as a corrupted
    /// committed value (the inherent relocation crash window); a volatile
    /// shard has no WAL step. Then re-pop.
    fn forced_reuse(
        &mut self,
        key: u64,
        cluster: usize,
        deferred: &mut Option<(usize, u32)>,
    ) -> Result<(u32, bool), PnwError> {
        let Some((label, bucket)) = deferred.take() else {
            return Err(PnwError::Full);
        };
        if let Some(d) = &mut self.durable {
            d.log_delete(key)?;
        }
        // Retired media never re-enters placement, so with the pool
        // otherwise empty a retired freed bucket means there is genuinely
        // no space (the delete half stays committed).
        self.push_free(label, bucket);
        let (pool, scratch, model) = (&mut self.pool, &mut self.scratch, &self.model);
        pool.pop(cluster, || model.ranked_after_predict(scratch))
            .ok_or(PnwError::Full)
    }

    /// Rolls back a bucket claim whose index insert failed. On a durable
    /// shard the just-written header is cleared again so a quiescent
    /// checkpoint's header scan never sees the unacknowledged key.
    fn unwind_failed_insert(&mut self, addr: usize, cluster: usize, bucket: u32) {
        if self.durable.is_some() {
            let _ = self.clear_flag(addr);
        }
        self.push_free(cluster, bucket);
    }

    /// Executes one batch group against this engine — the loop behind the
    /// store's [`Store::apply`](crate::Store::apply) override. PUTs run
    /// unreported (see [`ShardEngine::put_unreported`]) through
    /// [`ShardEngine::put_and_extend`]. Returns whether the retrain
    /// trigger became due during the group.
    ///
    /// On a durable shard the whole group is **group-committed**: WAL
    /// records accumulate in the OS page cache and one `fdatasync` at the
    /// end of the group commits them all. No op is acknowledged before
    /// `apply` returns, so the commit point the callers observe is
    /// unchanged — a crash mid-group loses only unacknowledged ops.
    pub(crate) fn apply_group(
        &mut self,
        ops: &[Op],
        idxs: impl Iterator<Item = usize> + Clone,
        report: &mut BatchReport,
    ) -> bool {
        let _w = self.write_bracket();
        if let Some(d) = &mut self.durable {
            d.begin_group();
        }
        let counts_before = (report.puts, report.deletes, report.deleted_existing);
        let failures_before = report.failures.len();
        let mut due = false;
        for i in idxs.clone() {
            match &ops[i] {
                Op::Put { key, value } => {
                    match self.put_and_extend(*key, value, 0, false, &mut due) {
                        Ok(_) => report.puts += 1,
                        Err(e) => report.failures.push((i, e)),
                    }
                }
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
            // the group's records are durable, so none of its ops
            // completed: take its counts back and fail every op that had
            // not already failed on its own.
            if let Err(e) = d.end_group() {
                (report.puts, report.deletes, report.deleted_existing) = counts_before;
                let own: HashSet<usize> = report.failures[failures_before..]
                    .iter()
                    .map(|f| f.0)
                    .collect();
                let unsynced = idxs.filter(|i| !own.contains(i));
                report.failures.extend(unsynced.map(|i| (i, e.clone())));
            }
        }
        due
    }

    /// DELETE (Algorithm 3): reset the flag bit, recycle the address into
    /// the pool under its *content's* label (as the given model sees it).
    pub fn delete(&mut self, key: u64) -> Result<bool, PnwError> {
        let _w = self.write_bracket();
        let Some(addr) = self.index.remove(&mut self.dev, key)? else {
            return Ok(false);
        };
        // An expired tenant was already logically gone: reclaim it
        // physically but report "did not exist".
        let expired = self.addr_expired(addr, now_unix_ms)?;
        self.release(key, addr)?;
        if expired {
            self.scrub.expired += 1;
        } else {
            self.deletes += 1;
        }
        Ok(!expired)
    }

    /// The committed release of `key`'s bucket at `addr`, once the index
    /// no longer links it — the one order every delete, expiry and
    /// eviction follows: flag clear, then the WAL record, then the bucket
    /// joins the pool. A crash anywhere leaves the key either committed or
    /// cleanly deleted, never half-recycled, and it can never resurrect
    /// from WAL replay. A volatile shard has no WAL step and is otherwise
    /// the same code.
    #[inline]
    pub(super) fn release(&mut self, key: u64, addr: u64) -> Result<(), PnwError> {
        let (label, bucket) = self.clear_bucket(addr)?;
        self.check_durable_write()?;
        if let Some(d) = &mut self.durable {
            d.log_delete(key)?;
        }
        self.push_free(label, bucket);
        Ok(())
    }

    /// Algorithm 3 minus the pool push: resets the flag bit (line 2, a
    /// one-bit NVM update) and labels the stored content (lines 3–4) —
    /// from the cached label or straight from the cells, so DELETE
    /// allocates nothing. The caller decides *when* the bucket
    /// rejoins the pool (immediately for volatile shards, after the WAL
    /// commit point for durable ones).
    #[inline]
    fn clear_bucket(&mut self, addr: u64) -> Result<(usize, u32), PnwError> {
        let bucket = self.bucket_of_addr(addr)?;
        self.clear_flag(addr as usize)?;
        let (label, _) = self.content_label(bucket)?;
        self.live -= 1;
        Ok((label, bucket))
    }
}
