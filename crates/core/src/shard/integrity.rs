//! Integrity: the scrubber, relocation off damaged media, and permanent
//! bucket retirement (a GET's CRC check is the read walk's, in `read`).

use super::{value_addr, ShardEngine};
use crate::error::PnwError;
use crate::metrics::ScrubStats;

impl ShardEngine {
    /// Permanently removes a bucket from placement. Idempotent; on a
    /// durable shard the retirement is WAL-logged (and checkpointed) so it
    /// survives crash and reopen.
    pub(super) fn retire(&mut self, bucket: u32) -> Result<(), PnwError> {
        if !self.retired.insert(bucket) {
            return Ok(());
        }
        self.scrub.retired += 1;
        self.pool.set_capacity(self.effective_capacity());
        self.log(|d| d.log_retire(bucket))
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
        // A crashed durable shard scrubs nothing: a bucket a crash tore
        // mid-write fails its seal too, and is recovery's to clear, not
        // damaged media to retire.
        self.check_durable_write()?;
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
        let (addr, hdr) = self.header(bucket)?;
        if !hdr.valid {
            return Ok(());
        }
        self.scrub.scanned += 1;
        self.dev.peek_into(value_addr(addr), &mut self.value_buf)?;
        if hdr.seals(hdr.key, &self.value_buf) {
            if self.dev.stuck_bits_in(addr, self.layout.bucket_size()) > 0 {
                // Value intact but the media under it has latched: move it
                // while a verified copy can still be read back.
                let value = std::mem::take(&mut self.value_buf);
                let res = self.relocate(hdr.key, &value, bucket);
                self.value_buf = value;
                res?;
            }
            return Ok(());
        }
        self.scrub.crc_failures += 1;
        let clean = self.durable.as_ref().and_then(|d| d.wal_value(hdr.key));
        match clean {
            Some(v) => self.relocate(hdr.key, &v, bucket)?,
            None => self.retire(bucket)?,
        }
        Ok(())
    }

    /// Moves `key`'s value (a verified or WAL-clean copy) off damaged
    /// media: retires the old bucket, then places the value — with its
    /// deadline, through the write-verify loop — as a relocating update
    /// does, `from` the bucket it vacates. A dry pool ends the move with
    /// [`PnwError::Full`] and the key where it was.
    fn relocate(&mut self, key: u64, value: &[u8], from: u32) -> Result<(), PnwError> {
        let deadline = self.peek_expiry(from)?;
        self.retire(from)?;
        let predicted = self.predict_timed(value, false);
        self.seal_bucket_img(key, value);
        let old = self.layout.addr(from) as u64;
        self.place(key, value, deadline, Some(old), predicted, false)?;
        self.scrub.repairs += 1;
        Ok(())
    }

    /// Runs one full scrub pass over the active zone (every bucket CRC
    /// verified once) and returns the cumulative scrub counters — the
    /// same ones [`ShardEngine::snapshot`] reports. A
    /// [`PnwError::Full`] from a relocation (no healthy media left to move
    /// a value onto) ends the pass early — the damaged buckets stay
    /// detected-and-retired, the keys stay loudly addressable. The pass
    /// opens no bracket of its own: each expiry and relocation brackets
    /// the cells it changes, so readers wait on no scrub read.
    pub fn scrub_pass(&mut self) -> Result<ScrubStats, PnwError> {
        for b in 0..self.active_buckets as u32 {
            match self.scrub_bucket(b) {
                Ok(()) => {}
                Err(PnwError::Full) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(self.scrub_stats())
    }

    /// Scrubs the next `buckets` buckets at the rotating cursor — the
    /// rate-limited background scrubber's increment. Wraps around the
    /// active zone so every bucket is eventually revisited.
    pub fn scrub_step(&mut self, buckets: u32) -> Result<(), PnwError> {
        if self.active_buckets == 0 {
            return Ok(());
        }
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
        let byte = value_addr(addr as usize) + (bit / 8) as usize;
        let geo = self.dev.geometry();
        let word = geo.word_of(byte);
        let bit_in_word = ((byte - word * geo.word_bytes) * 8) as u32 + bit % 8;
        self.dev.arm_stuck_bit(word, bit_in_word, stuck_at_one)?;
        Ok(true)
    }
}
