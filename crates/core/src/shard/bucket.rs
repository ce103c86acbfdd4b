//! The data-zone bucket format — its single definition.
//!
//! One bucket per K/V pair: a 16-byte header plus the value, rounded up to
//! whole device words.
//!
//! ```text
//! [ flags: u8 | pad ×3 | crc32c: u32 LE | key: u64 LE | value ×value_size ]
//! ```
//!
//! * `flags` bit 0 is the valid flag — the paper's deletion protocol
//!   (*"resetting the associated flag bit"*, Algorithm 3 line 2) clears
//!   this one byte and touches nothing else.
//! * `crc32c` is the integrity seal over `key ‖ value` (see
//!   [`bucket_crc`]); it stays zero when integrity is off, so that layout
//!   is bit-identical to the pre-integrity one.
//! * `key` is what lets a DRAM-index store rebuild its index after a crash
//!   by scanning headers (§V-A.3).
//!
//! With TTL enabled, a separate expiry zone holds one `u64` LE absolute
//! unix-millisecond deadline per provisioned bucket (0 = never expires).
//!
//! Everything that decodes a header byte or turns a bucket number into a
//! device address — the engine's write paths and the one read walk (GET
//! and scan) alike — goes through [`Header`] and [`BucketLayout`].

use pnw_nvm_sim::{crc32c_update, Region};

pub(crate) const HDR_BYTES: usize = 16;
const FLAG_VALID: u8 = 1;

/// What DELETE writes over a header's first byte: the valid flag reset.
pub(crate) const FLAG_CLEARED: [u8; 1] = [0];

/// Bytes per bucket in the expiry zone.
pub(crate) const EXPIRY_BYTES: usize = 8;

/// The integrity seal: CRC-32C over `key ‖ value`, stored in the header
/// at PUT commit. Covering the key as well as the value means a seal can
/// never validate a value against the *wrong* key (e.g. after an index
/// entry is damaged into pointing at another live bucket). Castagnoli
/// rather than the WAL's IEEE polynomial: this runs on every GET, and
/// CRC-32C has a hardware instruction on x86-64 (the software fallback is
/// bit-identical, so store files stay portable).
#[inline]
pub(crate) fn bucket_crc(key: u64, value: &[u8]) -> u32 {
    crc32c_update(crc32c_update(0xFFFF_FFFF, &key.to_le_bytes()), value) ^ 0xFFFF_FFFF
}

/// A decoded bucket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub valid: bool,
    /// The stored seal (zero when sealed with integrity off).
    pub crc: u32,
    pub key: u64,
}

impl Header {
    /// Decodes the first [`HDR_BYTES`] of `hdr`.
    #[inline]
    pub fn decode(hdr: &[u8]) -> Header {
        Header {
            valid: hdr[0] & FLAG_VALID != 0,
            crc: u32::from_le_bytes(hdr[4..8].try_into().unwrap()),
            key: u64::from_le_bytes(hdr[8..16].try_into().unwrap()),
        }
    }

    /// The header a committed PUT of `(key, value)` carries.
    #[inline]
    pub fn sealing(key: u64, value: &[u8], integrity: bool) -> Header {
        let crc = if integrity { bucket_crc(key, value) } else { 0 };
        Header {
            valid: true,
            crc,
            key,
        }
    }

    /// Writes the header image over the first [`HDR_BYTES`] of `hdr`.
    #[inline]
    pub fn encode_into(&self, hdr: &mut [u8]) {
        hdr[..4].copy_from_slice(&[u8::from(self.valid) * FLAG_VALID, 0, 0, 0]);
        hdr[4..8].copy_from_slice(&self.crc.to_le_bytes());
        hdr[8..16].copy_from_slice(&self.key.to_le_bytes());
    }

    #[inline]
    pub fn encode(&self) -> [u8; HDR_BYTES] {
        let mut hdr = [0u8; HDR_BYTES];
        self.encode_into(&mut hdr);
        hdr
    }

    /// Whether the stored seal is the one `(key, value)` would carry.
    #[inline]
    pub fn seals(&self, key: u64, value: &[u8]) -> bool {
        self.crc == bucket_crc(key, value)
    }
}

/// Where a bucket's value starts, given the bucket's base address.
#[inline]
pub(crate) fn value_addr(bucket_addr: usize) -> usize {
    bucket_addr + HDR_BYTES
}

/// [`value_addr`] of an address an index entry names, which may be any
/// `u64`: `None` when the value's first byte is past the address space.
#[inline]
pub(crate) fn checked_value_addr(bucket_addr: u64) -> Option<usize> {
    usize::try_from(bucket_addr).ok()?.checked_add(HDR_BYTES)
}

/// Whether an expiry-zone deadline has passed at `now()` (0 never does).
/// The clock is read only for a nonzero deadline, so a store without TTL,
/// or a key without one, never pays for it.
#[inline]
pub(crate) fn deadline_passed(deadline: u64, now: impl FnOnce() -> u64) -> bool {
    deadline != 0 && deadline <= now()
}

/// Bucket ↔ address ↔ expiry-slot arithmetic over one shard's static
/// geometry: regions never move and the *provisioned* bucket count —
/// capacity plus reserve — never changes (unlike the dynamic active-zone
/// size), so a copy taken when a shard is wrapped stays valid for the
/// engine's whole lifetime. Buckets beyond the active zone carry a clear
/// valid flag, so walking the full provisioned range is always safe.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BucketLayout {
    data_start: usize,
    bucket_size: usize,
    buckets: usize,
    expiry_start: Option<usize>,
}

impl BucketLayout {
    /// Whole-bucket stride for a value size (header + value, word-rounded).
    pub fn stride(value_size: usize) -> usize {
        (HDR_BYTES + value_size).next_multiple_of(8)
    }

    /// The layout of `buckets` provisioned buckets of `bucket_size` bytes
    /// in `data`, with their deadline slots in `expiry` when TTL is on.
    pub fn new(data: Region, bucket_size: usize, buckets: usize, expiry: Option<Region>) -> Self {
        assert!(buckets * bucket_size <= data.len, "data zone too small");
        assert!(
            expiry.is_none_or(|r| buckets * EXPIRY_BYTES <= r.len),
            "expiry zone too small"
        );
        BucketLayout {
            data_start: data.start,
            bucket_size,
            buckets,
            expiry_start: expiry.map(|r| r.start),
        }
    }

    /// Byte offset of the data zone's first bucket.
    pub fn data_start(&self) -> usize {
        self.data_start
    }

    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// Provisioned buckets: `capacity + reserve_buckets`.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    pub fn has_expiry(&self) -> bool {
        self.expiry_start.is_some()
    }

    /// Base address of bucket `b`.
    #[inline]
    pub fn addr(&self, b: u32) -> usize {
        assert!(
            (b as usize) < self.buckets,
            "bucket {b} outside the data zone"
        );
        self.data_start + b as usize * self.bucket_size
    }

    /// The bucket whose base address is `addr`; `None` for anything that
    /// is not one — outside the zone or inside a bucket. Index entries
    /// come from the device (or a torn lock-free probe of it), so this is
    /// the check between them and any per-bucket table.
    #[inline]
    pub fn bucket_of(&self, addr: u64) -> Option<u32> {
        let off = usize::try_from(addr).ok()?.checked_sub(self.data_start)?;
        let b = off / self.bucket_size;
        (b < self.buckets && off % self.bucket_size == 0).then_some(b as u32)
    }

    /// Address of bucket `b`'s deadline slot; `None` without TTL.
    #[inline]
    pub fn expiry_addr(&self, b: u32) -> Option<usize> {
        assert!(
            (b as usize) < self.buckets,
            "bucket {b} outside the expiry zone"
        );
        Some(self.expiry_start? + b as usize * EXPIRY_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_and_seals() {
        let value = [0x5Au8; 24];
        for integrity in [true, false] {
            let h = Header::sealing(0xDEAD_BEEF_0102_0304, &value, integrity);
            assert_eq!(Header::decode(&h.encode()), h);
            assert_eq!(h.seals(h.key, &value), integrity);
            assert!(!h.seals(h.key ^ 1, &value), "the seal covers the key");
        }
        let cleared = Header {
            valid: false,
            crc: 7,
            key: 9,
        };
        assert_eq!(Header::decode(&cleared.encode()), cleared);
        // Only bit 0 of the flag byte means "valid".
        let mut raw = cleared.encode();
        raw[0] = 0xFE;
        assert!(!Header::decode(&raw).valid);
    }

    /// `bucket_of` with `data_start > 0` (the NVM-index geometry, where the
    /// index region is allocated first): everything that is not a bucket
    /// base inside the zone is `None` — in particular the zero address a
    /// torn path-hash probe can return, on which an unchecked
    /// `addr - data_start` underflows.
    #[test]
    fn bucket_of_is_checked() {
        let data = Region {
            start: 4096,
            len: 10 * 24,
        };
        let expiry = Region {
            start: 8192,
            len: 10 * EXPIRY_BYTES,
        };
        let l = BucketLayout::new(data, BucketLayout::stride(8), 10, Some(expiry));
        assert_eq!(l.bucket_size(), 24);
        for b in 0..10u32 {
            assert_eq!(l.bucket_of(l.addr(b) as u64), Some(b));
            assert_eq!(l.expiry_addr(b), Some(8192 + b as usize * 8));
        }
        assert_eq!(l.bucket_of(0), None);
        assert_eq!(l.bucket_of(4095), None, "data_start - 1");
        assert_eq!(l.bucket_of(4096 + 24 + 5), None, "mid-bucket");
        assert_eq!(l.bucket_of(4096 + 10 * 24), None, "one past the zone");
        assert_eq!(l.bucket_of(u64::MAX), None);
        let no_ttl = BucketLayout::new(data, 24, 10, None);
        assert_eq!(no_ttl.expiry_addr(3), None);
        assert!(!no_ttl.has_expiry() && l.has_expiry());
    }
}
