//! The one read walk (§V-B.4): a GET's index probe, bucket read, expiry
//! check and CRC seal check, and a scan's walk over the data zone. The
//! store runs it lock-free under seqlock validation; the engine runs it
//! behind `&self`, where no write bracket can be open, so its first
//! validation always passes. Either way a validated snapshot is the
//! answer, typed errors included: no GET takes the engine lock.

use std::sync::Arc;

use pnw_index::IndexReader;
use pnw_nvm_sim::{CellView, NvmError};

use super::{
    checked_value_addr, deadline_passed, value_addr, BucketLayout, Header, ShardSync, EXPIRY_BYTES,
    HDR_BYTES,
};
use crate::clock::now_unix_ms;
use crate::error::PnwError;

/// What a shard's readers read it through, built with the engine: all of
/// it stays valid for the engine's whole lifetime.
#[derive(Clone)]
pub(crate) struct ReadView {
    /// Lock-free view of the shard's device cells (the cell buffer never
    /// moves).
    view: CellView,
    /// Lock-free index probe handle.
    reader: IndexReader,
    /// The shard's seqlock and read-side counters, shared with the engine.
    pub(super) sync: Arc<ShardSync>,
    /// The shard's static bucket layout. Covers every *provisioned* bucket
    /// (capacity + reserve), so zone extension never invalidates it.
    layout: BucketLayout,
    /// The shard's position in its store, named by a
    /// [`PnwError::Corruption`].
    pub(super) shard: usize,
    integrity: bool,
    value_size: usize,
}

/// What a GET read of the bucket an index probe named found, before the
/// seal is checked.
enum Snapshot {
    /// No entry, or an overdue one: the key reads as absent.
    Absent,
    /// The bucket's header and value were read.
    Read,
    /// A TTL store's entry names no bucket base of the zone; the bytes
    /// there were read all the same, so the seal is checked first.
    Stray(u64),
    /// The value's bytes lie past the device.
    OffDevice(u64),
}

impl ReadView {
    pub(super) fn new(
        view: CellView,
        reader: IndexReader,
        sync: Arc<ShardSync>,
        layout: BucketLayout,
        integrity: bool,
        value_size: usize,
    ) -> Self {
        ReadView {
            view,
            reader,
            sync,
            layout,
            shard: 0,
            integrity,
            value_size,
        }
    }

    /// Buckets in the shard's active zone, as the engine last published it.
    pub(crate) fn active(&self) -> usize {
        self.sync.active()
    }

    /// Copies bucket `b`'s value bytes out of the cells as they are right
    /// now — possibly torn by a racing writer. For the label pass, which
    /// discards what it made of a bucket written behind its back.
    #[inline]
    pub(crate) fn value_racy(&self, b: u32, out: &mut [u8]) {
        let read = self.view.read_into(value_addr(self.layout.addr(b)), out);
        debug_assert!(read, "a provisioned bucket is inside the device");
    }

    /// Copies bucket `b`'s value bytes under seqlock validation: what comes
    /// back was stored, whole, at some instant. For training samples.
    pub(crate) fn value_snapshot(&self, b: u32, out: &mut [u8]) {
        loop {
            let s1 = self.sync.read_begin();
            self.value_racy(b, out);
            if self.sync.read_validate(s1) {
                return;
            }
        }
    }

    /// Bucket `b`'s deadline (0 = none, or TTL off).
    #[inline]
    fn deadline(&self, b: u32) -> u64 {
        let Some(slot) = self.layout.expiry_addr(b) else {
            return 0;
        };
        let mut d = [0u8; EXPIRY_BYTES];
        let read = self.view.read_into(slot, &mut d);
        debug_assert!(read, "a provisioned bucket's deadline is inside the device");
        u64::from_le_bytes(d)
    }

    /// Copies what a GET needs of the bucket at `addr`: the deadline (an
    /// overdue key reads as absent, unread), the value into `out`, and on
    /// an integrity store the sealed header into `hdr`.
    #[inline]
    fn read_bucket(&self, addr: u64, hdr: &mut [u8; HDR_BYTES], out: &mut [u8]) -> Snapshot {
        let mut found = Snapshot::Read;
        if self.layout.has_expiry() {
            match self.layout.bucket_of(addr) {
                Some(b) if deadline_passed(self.deadline(b), now_unix_ms) => {
                    return Snapshot::Absent
                }
                Some(_) => {}
                None => found = Snapshot::Stray(addr),
            }
        }
        let Some(at) = checked_value_addr(addr) else {
            return Snapshot::OffDevice(addr);
        };
        if !self.view.read_into(at, out)
            || (self.integrity && !self.view.read_into(at - HDR_BYTES, hdr))
        {
            return Snapshot::OffDevice(addr);
        }
        found
    }

    /// GET into `out` (exactly `value_size` bytes): whether `key` is
    /// present. The probe and the bucket read run inside one read bracket
    /// and retry until it validates; only a validated snapshot is answered
    /// — a torn one is a racing writer — and it is the answer: the value,
    /// absent for a missing or overdue key, [`PnwError::Corruption`] when
    /// the sealed header does not name this key or seal these bytes, and
    /// the device's out-of-bounds error for an entry that names no bucket.
    /// A GET that had to retry is counted in `read_waits`.
    #[inline]
    pub(crate) fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, PnwError> {
        let mut raw = [0u8; HDR_BYTES];
        // Set on the slow path only: a bracket was open, or a snapshot
        // failed validation.
        let mut waited = false;
        loop {
            let s1 = self.sync.read_begin_noting(&mut waited);
            let snapshot = match self.reader.lookup(&self.view, key) {
                Some(addr) => self.read_bucket(addr, &mut raw, out),
                None => Snapshot::Absent,
            };
            if !self.sync.read_validate(s1) {
                waited = true;
                continue;
            }
            if waited {
                self.sync.count_read_wait();
            }
            self.sync.count_get();
            let sealed = || {
                let hdr = Header::decode(&raw);
                !self.integrity || (hdr.key == key && hdr.seals(key, out))
            };
            let out_of_bounds = |addr: u64, len| -> Result<bool, PnwError> {
                let size = self.view.len();
                Err(NvmError::OutOfBounds {
                    addr: addr as usize,
                    len,
                    size,
                }
                .into())
            };
            return match snapshot {
                Snapshot::Absent => Ok(false),
                Snapshot::OffDevice(addr) => {
                    out_of_bounds(addr.saturating_add(HDR_BYTES as u64), out.len())
                }
                // A consistent snapshot that fails its seal is media
                // corruption, not a torn read.
                _ if !sealed() => {
                    self.sync.count_crc_failure();
                    Err(PnwError::Corruption {
                        key,
                        shard: self.shard,
                    })
                }
                Snapshot::Read => Ok(true),
                Snapshot::Stray(addr) => out_of_bounds(addr, self.layout.bucket_size()),
            };
        }
    }

    /// Every live, unexpired key in `lo..=hi` with its value, from one
    /// validated walk over the provisioned buckets (those beyond the
    /// active zone carry a clear flag); `None` when the walk lost to a
    /// writer. The index is the authority: a valid-looking header whose
    /// key maps elsewhere (or nowhere) is a stale image — a retired
    /// bucket's last contents, or a racing writer mid-move — and is
    /// skipped. So is a bucket whose seal fails in a validated snapshot:
    /// a scan is a bulk read, and the loud typed error belongs to point
    /// GETs.
    pub(crate) fn scan(&self, lo: u64, hi: u64, now: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        let s1 = self.sync.read_begin();
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
            if self.reader.lookup(&self.view, hdr.key) != Some(base as u64) {
                continue;
            }
            if deadline_passed(self.deadline(b), || now) {
                continue;
            }
            let mut value = vec![0u8; self.value_size];
            if !self.view.read_into(value_addr(base), &mut value) {
                return None;
            }
            if self.integrity && !hdr.seals(hdr.key, &value) {
                // Torn bytes from a racing writer are not media damage:
                // retake the snapshot.
                if !self.sync.read_validate(s1) {
                    return None;
                }
                continue;
            }
            acc.push((hdr.key, value));
        }
        self.sync.read_validate(s1).then_some(acc)
    }
}
