//! TTL and retention: the expiry zone's deadlines, lazy expiry on the read
//! path, physical reclamation, and the CCTV-style retention ring.

use pnw_nvm_sim::WriteMode;

use super::{deadline_passed, ShardEngine, EXPIRY_BYTES};
use crate::clock::now_unix_ms;
use crate::error::PnwError;

impl ShardEngine {
    /// Stamps `bucket`'s expiry-zone slot — always written on placement
    /// (even for 0 = "never expires"), so a stale deadline from a prior
    /// tenant can never attach to a fresh value. No-op without TTL. A
    /// torn stamp fails the op before its WAL record: acknowledged without
    /// its deadline, an expired key would come back at recovery.
    #[inline]
    pub(super) fn stamp_expiry(&mut self, bucket: u32, expires_at_ms: u64) -> Result<(), PnwError> {
        if let Some(addr) = self.layout.expiry_addr(bucket) {
            self.dev
                .write(addr, &expires_at_ms.to_le_bytes(), WriteMode::Diff)?;
            self.check_durable_write()?;
        }
        Ok(())
    }

    /// Reads `bucket`'s expiry deadline (0 = none / TTL off).
    #[inline]
    pub(super) fn peek_expiry(&self, bucket: u32) -> Result<u64, PnwError> {
        let Some(addr) = self.layout.expiry_addr(bucket) else {
            return Ok(0);
        };
        let raw = self.dev.peek(addr, EXPIRY_BYTES)?;
        Ok(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    /// Whether the bucket at `addr` holds a value whose deadline has
    /// passed at `now()`, which is called only for a nonzero deadline. The
    /// lazy-expiry predicate the read path applies — reads never mutate;
    /// physical reclamation belongs to the scrubber cursor.
    #[inline]
    pub(super) fn addr_expired(
        &self,
        addr: u64,
        now: impl FnOnce() -> u64,
    ) -> Result<bool, PnwError> {
        if !self.layout.has_expiry() {
            return Ok(false);
        }
        let deadline = self.peek_expiry(self.bucket_of_addr(addr)?)?;
        Ok(deadline_passed(deadline, now))
    }

    /// Physically reclaims `key`'s bucket with committed-delete semantics
    /// ([`ShardEngine::release`]), so an expired or ring-evicted key can
    /// never resurrect from WAL replay.
    fn reclaim_key(&mut self, key: u64, evicted: bool) -> Result<(), PnwError> {
        let Some(addr) = self.index.lookup(&self.dev, key)? else {
            return Ok(());
        };
        self.release(key, addr)?;
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
    pub(super) fn expire_bucket_if_due(&mut self, bucket: u32) -> Result<bool, PnwError> {
        if !deadline_passed(self.peek_expiry(bucket)?, now_unix_ms) {
            return Ok(false);
        }
        let Some((_, hdr)) = self.tenant(bucket)? else {
            return Ok(false);
        };
        self.reclaim_key(hdr.key, false)?;
        Ok(true)
    }

    /// Ring retention's reclamation sweep, run when a PUT finds the pool
    /// empty: expire every overdue bucket; if nothing was overdue, evict
    /// the live entry with the earliest (nonzero) deadline. Entries
    /// without a deadline are never evicted. Returns whether any bucket
    /// was freed.
    pub(super) fn ring_reclaim(&mut self) -> Result<bool, PnwError> {
        if !self.layout.has_expiry() {
            return Ok(false);
        }
        let now = now_unix_ms();
        let mut freed = false;
        let mut earliest: Option<(u64, u64)> = None; // (deadline, key)
        for b in 0..self.active_buckets as u32 {
            let deadline = self.peek_expiry(b)?;
            if deadline == 0 || self.retired.contains(&b) {
                continue;
            }
            let Some((_, hdr)) = self.tenant(b)? else {
                continue;
            };
            if deadline <= now {
                self.reclaim_key(hdr.key, false)?;
                freed = true;
            } else if earliest.is_none_or(|(d, _)| deadline < d) {
                earliest = Some((deadline, hdr.key));
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
}
