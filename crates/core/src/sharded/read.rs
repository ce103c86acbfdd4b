//! The store's read path: GET and scan run each shard's one read walk
//! ([`ReadView`](crate::shard::ReadView)) lock-free under seqlock
//! validation. No GET holds an engine; a scan does so only after its
//! snapshots keep losing to writers.

use super::ShardedPnwStore;
use crate::clock::now_unix_ms;
use crate::error::PnwError;
use crate::shard::check_value;

impl ShardedPnwStore {
    /// GET (§V-B.4): **zero locks**. The shard's index reader and cell view
    /// are probed under seqlock validation — an uncontended read costs two
    /// sequence loads on top of the probe, and a read racing a writer
    /// retries until it observes a quiet interval. A validated snapshot is
    /// the answer, a typed error included.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, PnwError> {
        let mut v = vec![0u8; self.cfg.value_size];
        Ok(self.get_into(key, &mut v)?.then_some(v))
    }

    /// GET into a caller-provided buffer of exactly `value_size` bytes —
    /// the allocation-free read path (clients reuse one buffer across
    /// operations). Returns whether the key was present.
    pub fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, PnwError> {
        check_value(&self.cfg, out)?;
        self.shards[self.shard_of(key)].read.get_into(key, out)
    }

    /// Ordered range scan over `lo..=hi` across every shard, ascending by
    /// key. Each shard contributes a **seqlock-consistent snapshot**: its
    /// buckets are walked through the lock-free cell view inside one
    /// `read_begin`/`read_validate` bracket, so no returned value is ever
    /// torn — but the per-shard snapshots are taken at slightly different
    /// instants, not one global cut (see
    /// [`Store::scan`](crate::Store::scan) for the contract). A shard
    /// under heavy write traffic that keeps failing validation is walked
    /// once more while its engine is held. Entries whose TTL deadline has
    /// passed are excluded; entries failing CRC are skipped (point GETs
    /// surface those loudly).
    pub fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, PnwError> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        for sid in 0..self.shards.len() {
            self.scan_shard(sid, lo, hi, &mut out);
        }
        // Shards partition the key space by hash, so keys are unique
        // across shards and one sort yields the global order.
        out.sort_unstable_by_key(|&(k, _)| k);
        Ok(out)
    }

    /// One shard's contribution to [`ShardedPnwStore::scan`]: the
    /// lock-free walk with retry, then the same walk under a hold of the
    /// engine — no write bracket opens while one is held, so that walk
    /// validates.
    fn scan_shard(&self, sid: usize, lo: u64, hi: u64, out: &mut Vec<(u64, Vec<u8>)>) {
        /// Whole-shard snapshot attempts before holding the engine.
        const SCAN_RETRIES: usize = 8;
        let sh = &self.shards[sid];
        let now = now_unix_ms();
        for attempt in 0..=SCAN_RETRIES {
            let _held = (attempt == SCAN_RETRIES).then(|| sh.hold(&self.model));
            if let Some(mut acc) = sh.read.scan(lo, hi, now) {
                out.append(&mut acc);
                return;
            }
        }
        unreachable!("a held engine opens no write bracket");
    }
}
