//! The lock-free read path: GET and scan probe a shard's published
//! [`ReadView`] under seqlock validation and take the engine mutex only
//! for what a snapshot cannot answer.

use std::sync::Arc;

use pnw_index::IndexReader;
use pnw_nvm_sim::CellView;

use super::ShardedPnwStore;
use crate::clock::now_unix_ms;
use crate::config::PnwConfig;
use crate::error::PnwError;
use crate::shard::{
    check_value, deadline_passed, value_addr, BucketLayout, Header, ShardEngine, ShardSync,
    EXPIRY_BYTES, HDR_BYTES,
};

/// What a shard publishes to lock-free readers at construction; all of it
/// stays valid for the engine's whole lifetime.
pub(super) struct ReadView {
    /// Lock-free view of the shard's device cells (the cell buffer never
    /// moves).
    view: CellView,
    /// Lock-free index probe handle.
    reader: IndexReader,
    /// The shard's seqlock + GET counter, shared with the engine.
    sync: Arc<ShardSync>,
    /// The shard's static bucket layout. Covers every *provisioned* bucket
    /// (capacity + reserve), so zone extension never invalidates it.
    layout: BucketLayout,
}

impl ReadView {
    pub(super) fn of(engine: &ShardEngine) -> Self {
        ReadView {
            view: engine.cell_view(),
            reader: engine.index_reader(),
            sync: engine.sync_handle(),
            layout: engine.layout(),
        }
    }

    /// Buckets in the shard's active zone, as the engine last published it.
    pub(super) fn active(&self) -> usize {
        self.sync.active()
    }

    /// Copies bucket `b`'s value bytes out of the cells as they are right
    /// now — possibly torn by a racing writer. For the label pass, which
    /// discards what it made of a bucket written behind its back.
    #[inline]
    pub(super) fn value_racy(&self, b: u32, out: &mut [u8]) {
        let read = self.view.read_into(value_addr(self.layout.addr(b)), out);
        debug_assert!(read, "a provisioned bucket is inside the device");
    }

    /// Copies bucket `b`'s value bytes under seqlock validation: what comes
    /// back was stored, whole, at some instant. For training samples.
    pub(super) fn value_snapshot(&self, b: u32, out: &mut [u8]) {
        loop {
            let s1 = self.sync.read_begin();
            self.value_racy(b, out);
            if self.sync.read_validate(s1) {
                return;
            }
        }
    }

    /// Bucket `b`'s deadline (0 = none, or TTL off); `None` when the cell
    /// view refused the read.
    fn deadline(&self, b: u32) -> Option<u64> {
        let Some(slot) = self.layout.expiry_addr(b) else {
            return Some(0);
        };
        let mut d = [0u8; EXPIRY_BYTES];
        self.view
            .read_into(slot, &mut d)
            .then(|| u64::from_le_bytes(d))
    }

    /// Copies what a GET needs of the bucket an index probe named: the
    /// deadline (an overdue key reads as absent — the locked path's
    /// lazy-expiry contract), the value into `out`, and with `want_hdr` the
    /// sealed header for the caller's end-to-end check. `Some(present)` is
    /// a snapshot to serve once it validates. `None` means `addr` is no
    /// bucket of this zone or a read was refused: a torn probe when
    /// validation then fails, otherwise the locked path's to report.
    #[inline]
    fn read_bucket(
        &self,
        addr: u64,
        want_hdr: bool,
        hdr: &mut [u8; HDR_BYTES],
        out: &mut [u8],
    ) -> Option<bool> {
        if self.layout.has_expiry() {
            let b = self.layout.bucket_of(addr)?;
            if deadline_passed(self.deadline(b)?, now_unix_ms) {
                return Some(false);
            }
        }
        let base = usize::try_from(addr).ok()?;
        let read = self.view.read_into(value_addr(base), out)
            && (!want_hdr || self.view.read_into(base, hdr));
        read.then_some(true)
    }

    /// One walk over every provisioned bucket inside the read bracket
    /// begun at `s1` (buckets beyond the active zone carry a clear flag).
    /// `None` means torn or refused bytes: retake the whole snapshot.
    fn scan_once(
        &self,
        cfg: &PnwConfig,
        lo: u64,
        hi: u64,
        now: u64,
        s1: u64,
    ) -> Option<Vec<(u64, Vec<u8>)>> {
        let mut acc = Vec::new();
        for b in 0..self.layout.buckets() as u32 {
            let base = self.layout.addr(b);
            let mut raw = [0u8; HDR_BYTES];
            // Provisioned buckets are always in range; treat a refused
            // read like a failed validation.
            if !self.view.read_into(base, &mut raw) {
                return None;
            }
            let hdr = Header::decode(&raw);
            if !hdr.valid || hdr.key < lo || hdr.key > hi {
                continue;
            }
            // Index authority: a valid-looking header whose key maps
            // elsewhere (or nowhere) is a stale image — a retired
            // bucket's last contents, or a racing writer mid-move.
            if self.reader.lookup(&self.view, hdr.key) != Some(base as u64) {
                continue;
            }
            if deadline_passed(self.deadline(b)?, || now) {
                continue;
            }
            let mut value = vec![0u8; cfg.value_size];
            if !self.view.read_into(value_addr(base), &mut value) {
                return None;
            }
            if cfg.integrity && !hdr.seals(hdr.key, &value) {
                // Torn bytes from a racing writer are not media damage —
                // retake the snapshot. A validated snapshot that fails
                // CRC is real corruption; scans skip it (the contract)
                // and point GETs report it.
                if !self.sync.read_validate(s1) {
                    return None;
                }
                continue;
            }
            acc.push((hdr.key, value));
        }
        Some(acc)
    }
}

impl ShardedPnwStore {
    /// GET (§V-B.4): **zero locks** in steady state. The shard's index
    /// reader and cell view are probed under seqlock validation — an
    /// uncontended read costs two sequence loads on top of the probe, and
    /// a read racing a writer retries until it observes a quiet interval.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, PnwError> {
        let mut v = vec![0u8; self.cfg.value_size];
        Ok(self.get_into(key, &mut v)?.then_some(v))
    }

    /// GET into a caller-provided buffer of exactly `value_size` bytes —
    /// the allocation-free read path (clients reuse one buffer across
    /// operations). Returns whether the key was present.
    pub fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, PnwError> {
        check_value(&self.cfg, out)?;
        let sh = &self.shards[self.shard_of(key)];
        let rv = &sh.read;
        // The engine-locked GET, for what a validated snapshot cannot
        // answer itself.
        let locked = |out: &mut [u8]| sh.hold(&self.model).get_into(key, out);
        let integrity = self.cfg.integrity;
        let mut raw = [0u8; HDR_BYTES];
        // Set on the slow path only: a bracket was open, or a snapshot
        // failed validation.
        let mut waited = false;
        loop {
            let s1 = rv.sync.read_begin_noting(&mut waited);
            let snapshot = match rv.reader.lookup(&rv.view, key) {
                Some(addr) => rv.read_bucket(addr, integrity, &mut raw, out),
                None => Some(false),
            };
            // Only a *validated* snapshot can be served or declared
            // corrupt — an invalid one is just a racing writer (a torn
            // probe, a torn expiry word, torn bytes) and retries.
            if !rv.sync.read_validate(s1) {
                waited = true;
                continue;
            }
            if waited {
                rv.sync.count_read_wait();
            }
            let hdr = Header::decode(&raw);
            return match snapshot {
                // End-to-end verification: the sealed header must name this
                // key and seal the value bytes just read. A consistent
                // snapshot that fails is media corruption, not a torn read;
                // the locked path re-verifies and surfaces the typed error
                // with key and shard.
                Some(true) if integrity && !(hdr.key == key && hdr.seals(key, out)) => locked(out),
                // The probe validated yet names no bucket of this zone, or
                // bytes outside the device: let the locked path surface the
                // real error.
                None => locked(out),
                Some(present) => {
                    rv.sync.count_get();
                    Ok(present)
                }
            };
        }
    }

    /// Ordered range scan over `lo..=hi` across every shard, ascending by
    /// key. Each shard contributes a **seqlock-consistent snapshot**: its
    /// buckets are walked through the lock-free cell view inside one
    /// `read_begin`/`read_validate` bracket, so no returned value is ever
    /// torn — but the per-shard snapshots are taken at slightly different
    /// instants, not one global cut (see
    /// [`Store::scan`](crate::Store::scan) for the contract). A shard
    /// under heavy write traffic that keeps failing validation falls back
    /// to a brief engine-locked scan. Entries whose TTL deadline has
    /// passed are excluded; entries failing CRC are skipped (point GETs
    /// surface those loudly).
    pub fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, PnwError> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        for sid in 0..self.shards.len() {
            self.scan_shard(sid, lo, hi, &mut out)?;
        }
        // Shards partition the key space by hash, so keys are unique
        // across shards and one sort yields the global order.
        out.sort_unstable_by_key(|&(k, _)| k);
        Ok(out)
    }

    /// One shard's contribution to [`ShardedPnwStore::scan`]: the
    /// lock-free walk with retry, or the engine-locked fallback when
    /// validation keeps losing to writers.
    fn scan_shard(
        &self,
        sid: usize,
        lo: u64,
        hi: u64,
        out: &mut Vec<(u64, Vec<u8>)>,
    ) -> Result<(), PnwError> {
        /// Whole-shard snapshot attempts before conceding to the lock.
        const SCAN_RETRIES: usize = 8;
        let sh = &self.shards[sid];
        let rv = &sh.read;
        let now = now_unix_ms();
        for _ in 0..SCAN_RETRIES {
            let s1 = rv.sync.read_begin();
            let acc = rv.scan_once(&self.cfg, lo, hi, now, s1);
            if let Some(mut acc) = acc.filter(|_| rv.sync.read_validate(s1)) {
                out.append(&mut acc);
                return Ok(());
            }
        }
        out.extend(sh.hold(&self.model).scan_range(lo, hi)?);
        Ok(())
    }
}
