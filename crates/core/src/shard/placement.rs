//! Placement: PUT (Algorithm 2 + §V-B.3), DELETE (Algorithm 3), the batch
//! group, and the hand-offs between the data zone and the address pool.
//!
//! One order, place then publish — the K/V indirection of §V-B: a value is
//! written wherever it flips the fewest bits, then the index switches to
//! it. Every PUT that lands in a new bucket goes through
//! [`ShardEngine::place`], on every shard and both indexes: it stages the
//! sealed image where no index entry points, commits its WAL record with
//! no write bracket open, and only then upserts the index. A DELETE syncs
//! its record before it unlinks. A lock-free GET therefore never waits out
//! another op's fsync and never sees an effect before it is durable, and a
//! failed sync leaves the store as it was. Only two brackets span a sync:
//! the batch group's group commit, and the dry-pool retry's (a reader must
//! not see the key absent between its committed delete and its new
//! placement).
//!
//! An update is priced one way: on a trained volatile shard it rewrites
//! the key's own bucket when that flips no more bits than relocating
//! (`in_place_is_cheaper`); everywhere else it relocates. An in-place
//! rewrite is therefore volatile-only, and has no WAL step.

use std::collections::HashSet;
use std::time::Duration;

use pnw_nvm_sim::device::hamming;
use pnw_nvm_sim::{DeviceStats, NvmError, WriteMode, WriteStats};

use super::{bucket, label_u16, value_addr, Header, PutPath, ShardEngine, HDR_BYTES};
use crate::api::{BatchReport, Op};
use crate::clock::{now_unix_ms, Tick};
use crate::durable::DurableShard;
use crate::error::PnwError;
use crate::metrics::OpReport;

/// The most consecutive in-place rewrites one tenancy of a bucket takes;
/// the next update relocates whatever the costs. Without the bound, a key
/// whose in-place rewrite is always the cheaper would pin every write to
/// one bucket and undo the pool's FIFO wear rotation (Figure 12).
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
    ///
    /// A trained volatile shard prices an update in place first; every
    /// other PUT goes through [`ShardEngine::place`]. When the pool is dry
    /// while the key's old bucket is still linked, that bucket is the only
    /// candidate: the retry releases it — its delete committed first — and
    /// places afresh, inside one bracket so no reader sees the key absent
    /// mid-update. A crash in that retry may leave the key deleted, never
    /// corrupted: the inherent relocation crash window.
    fn put_impl(
        &mut self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
        report: bool,
    ) -> Result<(OpReport, PutPath), PnwError> {
        self.check_value(value)?;
        // A volatile shard's one bracket: every step below nests in it.
        let _w = self.durable.is_none().then(|| self.write_bracket());
        // Sealed once: every location below is written, and priced, with
        // this image.
        self.seal_bucket_img(key, value);
        let mut old = self.index.lookup(&self.dev, key)?;
        let mut predicted = None;
        if let Some(addr) = old.filter(|_| self.durable.is_none() && self.model.is_trained()) {
            // The priced update: volatile shards under a trained model.
            let b = self.bucket_of_addr(addr)?;
            let p = self.predict_timed(value, report);
            if self.in_place_is_cheaper(b, p.0)? {
                match self.put_in_place(key, value, b, expires_at_ms, report, p)? {
                    Some(out) => {
                        self.puts += 1;
                        return Ok((out, PutPath::InPlace));
                    }
                    // Write-verify failed: the bucket is retired and the
                    // key unlinked — re-place on healthy media.
                    None => old = None,
                }
            }
            predicted = Some(p);
        }
        let p = predicted.unwrap_or_else(|| self.predict_timed(value, report));
        let out = match (self.place(key, value, expires_at_ms, old, p, report), old) {
            (Err(PnwError::Full), Some(addr)) => {
                let _w = self.write_bracket();
                self.release(key, addr)?;
                self.place(key, value, expires_at_ms, None, p, report)?
            }
            (placed, _) => placed?,
        };
        self.puts += 1;
        Ok((out, PutPath::Fresh))
    }

    /// Places `key`'s value, sealed in the bucket image, in a new bucket —
    /// the only way a PUT lands in one: a fresh key, a relocating update,
    /// the dry-pool retry, the scrubber's relocation. `old` is the address
    /// the key is linked at, if any; `(cluster, predict)` its prediction.
    /// One order, place then publish:
    ///
    /// 1. stage: the sealed image and its deadline go into a free bucket
    ///    no index entry names;
    /// 2. commit: the WAL record is appended and synced with no bracket
    ///    open — a GET meanwhile still reads the old value; a no-op on a
    ///    volatile shard;
    /// 3. publish: the index entry is upserted, the vacated bucket's flag
    ///    cleared, and that bucket rejoins the pool.
    ///
    /// A fresh key the index has no slot for (the NVM path-hash index can
    /// run out) is refused before anything is written, so the upsert
    /// after the commit cannot fail for lack of room. A failed append or
    /// sync clears the staged bucket's flag again and returns it to the
    /// pool: the old mapping was never touched. A crash between 2 and 3
    /// leaves two valid headers for the key, and recovery's repair clears
    /// the one the WAL does not name. A dry pool is `Full` with nothing
    /// written while `old` is linked; for a fresh key, ring retention
    /// first reclaims expired buckets, then evicts the earliest-deadline
    /// live entry — the oldest frame falls off the CCTV ring — and the
    /// staging retries once.
    pub(super) fn place(
        &mut self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
        old: Option<u64>,
        (cluster, predict): (usize, Duration),
        report: bool,
    ) -> Result<OpReport, PnwError> {
        // A crashed durable shard places nothing: its dry pool is no cue
        // to commit a delete and reuse a bucket.
        self.check_durable_write()?;
        if old.is_none() && !self.index.can_insert(&self.dev, key)? {
            return Err(PnwError::Full);
        }
        let before = report.then(|| self.dev.stats().clone());
        let (bucket, fallback, value_write) = match self.place_sealed(cluster, expires_at_ms) {
            Err(PnwError::Full)
                if old.is_none() && self.cfg.retention_ring && self.ring_reclaim()? =>
            {
                self.place_sealed(cluster, expires_at_ms)?
            }
            placed => placed?,
        };
        let addr = self.layout.addr(bucket);
        if let Err(e) = self.log(|d| d.log_put(key, addr as u64, value, expires_at_ms)) {
            // Unacknowledged: the staged bucket goes back, its flag
            // cleared so a quiescent checkpoint's header scan never sees
            // the key there.
            let _w = self.write_bracket();
            let _ = self.clear_flag(addr);
            self.push_free(cluster, bucket);
            return Err(e);
        }
        let _w = self.write_bracket();
        // Line 7: update the hash index.
        self.index.insert(&mut self.dev, key, addr as u64)?;
        // The report covers the placement, not the vacated bucket's flag
        // clear.
        let out = self.op_report(before, cluster, fallback, predict, value_write);
        self.labels[bucket as usize] = label_u16(cluster);
        self.live += 1;
        // Committed, so a crash clearing the vacated flag cannot fail the
        // PUT: recovery clears a valid header whose key is committed
        // elsewhere.
        if let Some(Ok((label, freed))) = old.map(|a| self.clear_bucket(a)) {
            self.push_free(label, freed);
        }
        Ok(out)
    }

    /// Runs one WAL append; a no-op on a volatile shard. An append that
    /// finds the store dead fences this shard's device too: the torn
    /// metadata write that killed the store may have landed a whole
    /// record while its append reported failure, and no later write may
    /// reuse the bucket that record names.
    pub(super) fn log(
        &mut self,
        append: impl FnOnce(&mut DurableShard) -> Result<(), PnwError>,
    ) -> Result<(), PnwError> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        let logged = append(d);
        if logged == Err(NvmError::Crashed.into()) {
            self.dev.crash();
        }
        logged
    }

    /// Algorithm 2 line 1: predict the entry. The packed bit-domain kernel
    /// reads the raw bytes — no featurization, no allocation — and leaves
    /// the per-cluster distances in this shard's scratch. Timed only when
    /// the PUT reports, on the tick clock: two `Instant` reads would
    /// serialize the core around a kernel that costs less than they do.
    #[inline]
    pub(super) fn predict_timed(&mut self, value: &[u8], report: bool) -> (usize, Duration) {
        let t0 = report.then(Tick::now);
        let cluster = self.model.predict_into(value, &mut self.scratch);
        let predict = t0.map_or(Duration::ZERO, Tick::elapsed);
        self.predict_total += predict;
        (cluster, predict)
    }

    /// The one update rule (§V-B.3), for an update of bucket `b`'s tenant
    /// with the sealed image in hand: the update goes wherever it flips
    /// the fewest device bits — the paper's "best memory location an
    /// updated value should be written to". Both costs are exact: the
    /// image diffed against `b`'s cells (in place), and against the bucket
    /// the pool would hand out for `cluster` (`peek` runs `pop`'s own
    /// search) plus the one-bit flag clear a relocation leaves on `b`.
    /// Ties, and an empty pool, go in place. Guards keep wear and crash
    /// safety where delete-then-put had them:
    /// - only a volatile shard prices (the caller's check): an in-place
    ///   rewrite torn by a crash would destroy the committed old value
    ///   before the new one is logged;
    /// - only a trained model prices (the caller's check), so the zone a
    ///   first training samples is not left virgin;
    /// - a tenancy past [`MAX_IN_PLACE_RUN`] in-place rewrites relocates
    ///   whatever the costs;
    /// - a retired bucket relocates: a value left on it would sit on
    ///   damaged media the scrubber never visits again.
    fn in_place_is_cheaper(&mut self, b: u32, cluster: usize) -> Result<bool, PnwError> {
        if self.in_place_run[b as usize] >= MAX_IN_PLACE_RUN || self.retired.contains(&b) {
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

    /// An update that rewrites the key's own bucket `b` on a volatile
    /// shard, the priced choice: the prediction it priced with is cached
    /// as `b`'s label and reported. With integrity on, the whole sealed
    /// image is rewritten (the stored CRC must track the value) and
    /// write-verified; `None` means the media failed verification — the
    /// bucket is retired, the key unlinked, and the caller re-places the
    /// value on fresh media before acknowledging.
    fn put_in_place(
        &mut self,
        key: u64,
        value: &[u8],
        b: u32,
        expires_at_ms: u64,
        report: bool,
        (cluster, predict): (usize, Duration),
    ) -> Result<Option<OpReport>, PnwError> {
        debug_assert!(self.durable.is_none(), "a durable shard always relocates");
        let before = report.then(|| self.dev.stats().clone());
        let addr = self.layout.addr(b);
        self.mark_rewritten(b);
        let vstats = if self.cfg.integrity {
            // The write covers the header too, to refresh the seal; the
            // value's share of it comes back from the same pass.
            let (_, vstats) =
                self.dev
                    .write_split(addr, &self.bucket_img, WriteMode::Diff, HDR_BYTES)?;
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
            vstats
        } else {
            self.dev.write(value_addr(addr), value, WriteMode::Diff)?
        };
        self.stamp_expiry(b, expires_at_ms)?;
        self.labels[b as usize] = label_u16(cluster);
        self.in_place_run[b as usize] = self.in_place_run[b as usize].saturating_add(1);
        self.updates_in_place += 1;
        Ok(Some(self.op_report(before, cluster, false, predict, vstats)))
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

    /// Algorithm 2 lines 2–6 plus write-verify, inside a bracket: pops pool
    /// candidates until one's media accepts the image
    /// [`ShardEngine::seal_bucket_img`] left sealed, bit-exact, and stamps
    /// its deadline. A bucket that fails the read-back (a stuck bit latched
    /// at the opposite polarity) is retired permanently *before* the op is
    /// acknowledged and the next-ranked candidate is tried; every failure
    /// shrinks the pool, so the loop terminates. The placed bucket starts a
    /// tenancy: its in-place run is reset.
    fn place_sealed(
        &mut self,
        cluster: usize,
        expires_at_ms: u64,
    ) -> Result<(u32, bool, WriteStats), PnwError> {
        let _w = self.write_bracket();
        loop {
            // Line 2: get an address from the dynamic address pool. The
            // full nearest-first ranking is an argsort of the distances
            // already in scratch, computed only if the predicted cluster
            // misses.
            let popped = {
                let (pool, scratch, model) = (&mut self.pool, &mut self.scratch, &self.model);
                pool.pop(cluster, || model.ranked_after_predict(scratch))
            };
            let (bucket, fallback) = popped.ok_or(PnwError::Full)?;
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
                self.stamp_expiry(bucket, expires_at_ms)?;
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
    pub(super) fn check_durable_write(&self) -> Result<(), PnwError> {
        if self.durable.is_some() && self.dev.is_crashed() {
            return Err(NvmError::Crashed.into());
        }
        Ok(())
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
        let Some(addr) = self.index.lookup(&self.dev, key)? else {
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

    /// The committed release of `key`, linked at `addr` — the one order
    /// every delete, expiry, eviction and dry-pool retry follows: the WAL
    /// record is synced first, then the key is unlinked and its flag
    /// cleared inside a bracket, and the bucket joins the pool last. A GET
    /// reads the key until its delete is durable, and waits on no fsync; a
    /// failed sync leaves the key as it was; once the record is synced
    /// nothing can fail the delete (a crash in the flag clear leaves a flag
    /// recovery clears), and nothing is half-recycled or resurrected by WAL
    /// replay. A volatile shard has no WAL step and is otherwise the same
    /// code.
    #[inline]
    pub(super) fn release(&mut self, key: u64, addr: u64) -> Result<(), PnwError> {
        self.log(|d| d.log_delete(key))?;
        if let Ok((label, bucket)) = self.unlink(key, addr) {
            self.push_free(label, bucket);
        }
        Ok(())
    }

    /// Removes `key`'s index entry and clears the flag of its bucket at
    /// `addr`, inside a bracket.
    #[inline]
    fn unlink(&mut self, key: u64, addr: u64) -> Result<(usize, u32), PnwError> {
        let _w = self.write_bracket();
        let _ = self.index.remove(&mut self.dev, key)?;
        self.clear_bucket(addr)
    }

    /// Algorithm 3 minus the pool push: resets the flag bit (line 2, a
    /// one-bit NVM update) and labels the stored content (lines 3–4) —
    /// from the cached label or straight from the cells, so DELETE
    /// allocates nothing. The caller returns the bucket to the pool once
    /// the op is committed.
    #[inline]
    fn clear_bucket(&mut self, addr: u64) -> Result<(usize, u32), PnwError> {
        let bucket = self.bucket_of_addr(addr)?;
        self.clear_flag(addr as usize)?;
        let (label, _) = self.content_label(bucket)?;
        self.live -= 1;
        Ok((label, bucket))
    }
}
