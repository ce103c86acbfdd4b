//! A DRAM hash index whose slots are atomics, so a single writer can
//! mutate it **in place** while lock-free readers probe it concurrently.
//!
//! This is the DRAM-placement counterpart of the seqlock read view: the
//! classic `HashMap` index rehashes on growth, which would move memory out
//! from under a racing reader. [`AtomicHashIndex`] instead uses open
//! addressing over a fixed power-of-two slot array sized at ≥ 2× the
//! store's bucket capacity — it **never rehashes**, so the [`AtomicTable`]
//! published to readers stays valid for the life of the store (including
//! across crash recovery, which clears and repopulates the same table).
//!
//! Concurrency contract:
//!
//! * exactly one writer at a time (the store's per-shard single-writer
//!   discipline guarantees this);
//! * readers call [`AtomicTable::probe`] with no lock; a probe racing a
//!   writer may return a stale or torn result — the enclosing seqlock
//!   validation in the store detects this and retries;
//! * deletion uses backward-shift compaction (no tombstones), so probe
//!   chains never degrade over time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pnw_nvm_sim::NvmDevice;

use crate::traits::{IndexError, KeyIndex};

/// Sentinel meaning "slot empty". Keys may be any `u64` (including 0 and
/// `u64::MAX`), so occupancy state lives in the address word: device byte
/// addresses are always far below `u64::MAX`.
const EMPTY_ADDR: u64 = u64::MAX;

struct Slot {
    key: AtomicU64,
    addr: AtomicU64,
}

/// The fixed-size slot array shared between the writer-side
/// [`AtomicHashIndex`] and lock-free readers.
pub struct AtomicTable {
    mask: usize,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for AtomicTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicTable")
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[inline]
fn splitmix64(key: u64) -> u64 {
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl AtomicTable {
    fn new(slot_count: usize) -> Self {
        debug_assert!(slot_count.is_power_of_two());
        let slots = (0..slot_count)
            .map(|_| Slot {
                key: AtomicU64::new(0),
                addr: AtomicU64::new(EMPTY_ADDR),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        AtomicTable {
            mask: slot_count - 1,
            slots,
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        splitmix64(key) as usize & self.mask
    }

    /// Lock-free probe: returns the address mapped to `key`, if any.
    ///
    /// Safe to call concurrently with the single writer; a probe racing a
    /// mutation may return a result that is stale or torn relative to the
    /// store's cells — callers validate through the seqlock counter and
    /// retry. In quiescent state the result is exact.
    pub fn probe(&self, key: u64) -> Option<u64> {
        let mut i = self.home(key);
        // Bounded scan: linear probing terminates at the first empty slot;
        // the explicit bound keeps a reader finite even if it races a
        // backward-shift that transiently fills its stop condition.
        for _ in 0..self.slots.len() {
            let addr = self.slots[i].addr.load(Ordering::Acquire);
            if addr == EMPTY_ADDR {
                return None;
            }
            if self.slots[i].key.load(Ordering::Relaxed) == key {
                return Some(addr);
            }
            i = (i + 1) & self.mask;
        }
        None
    }
}

/// Writer-side handle: an open-addressing hash index over an
/// [`AtomicTable`]. Implements [`KeyIndex`] (ignoring the device — the
/// table lives in DRAM) and hands the shared table to lock-free readers
/// via [`KeyIndex::reader`].
#[derive(Debug)]
pub struct AtomicHashIndex {
    table: Arc<AtomicTable>,
    live: usize,
}

impl AtomicHashIndex {
    /// Creates an index able to hold `capacity` entries. The slot array is
    /// sized at `(2 * capacity).next_power_of_two()` (load factor ≤ 50%)
    /// and never grows.
    pub fn with_capacity(capacity: usize) -> Self {
        let slot_count = (capacity.max(1) * 2).next_power_of_two().max(8);
        AtomicHashIndex {
            table: Arc::new(AtomicTable::new(slot_count)),
            live: 0,
        }
    }

    /// The shared slot array (what readers probe).
    pub fn table(&self) -> Arc<AtomicTable> {
        Arc::clone(&self.table)
    }

    /// Writer-side exact probe for `key`'s slot.
    fn slot_of(&self, key: u64) -> Option<usize> {
        let t = &self.table;
        let mut i = t.home(key);
        for _ in 0..t.slots.len() {
            let addr = t.slots[i].addr.load(Ordering::Relaxed);
            if addr == EMPTY_ADDR {
                return None;
            }
            if t.slots[i].key.load(Ordering::Relaxed) == key {
                return Some(i);
            }
            i = (i + 1) & t.mask;
        }
        None
    }
}

impl KeyIndex for AtomicHashIndex {
    fn name(&self) -> &'static str {
        "atomic-hash"
    }

    fn insert(&mut self, _dev: &mut NvmDevice, key: u64, addr: u64) -> Result<(), IndexError> {
        debug_assert_ne!(addr, EMPTY_ADDR, "EMPTY_ADDR is reserved");
        let t = &self.table;
        let mut i = t.home(key);
        for _ in 0..t.slots.len() {
            let a = t.slots[i].addr.load(Ordering::Relaxed);
            if a == EMPTY_ADDR {
                // New entry: publish the key before the address — a reader
                // that observes the address (Acquire) must also see the key.
                t.slots[i].key.store(key, Ordering::Relaxed);
                t.slots[i].addr.store(addr, Ordering::Release);
                self.live += 1;
                return Ok(());
            }
            if t.slots[i].key.load(Ordering::Relaxed) == key {
                t.slots[i].addr.store(addr, Ordering::Release);
                return Ok(());
            }
            i = (i + 1) & t.mask;
        }
        Err(IndexError::Full)
    }

    fn get(&mut self, _dev: &mut NvmDevice, key: u64) -> Result<Option<u64>, IndexError> {
        Ok(self
            .slot_of(key)
            .map(|i| self.table.slots[i].addr.load(Ordering::Relaxed)))
    }

    fn lookup(&self, _dev: &NvmDevice, key: u64) -> Result<Option<u64>, IndexError> {
        Ok(self.table.probe(key))
    }

    fn can_insert(&self, _dev: &NvmDevice, key: u64) -> Result<bool, IndexError> {
        // The linear probe finds an empty slot while any is left.
        Ok(self.live < self.table.slots.len() || self.slot_of(key).is_some())
    }

    fn remove(&mut self, _dev: &mut NvmDevice, key: u64) -> Result<Option<u64>, IndexError> {
        let Some(hole) = self.slot_of(key) else {
            return Ok(None);
        };
        let t = &self.table;
        let old = t.slots[hole].addr.load(Ordering::Relaxed);
        // Backward-shift compaction: walk the probe chain after the hole
        // and move back any entry whose home position precedes (or is) the
        // hole, so lookups never need tombstones.
        let mut i = hole;
        let mut j = hole;
        loop {
            j = (j + 1) & t.mask;
            let aj = t.slots[j].addr.load(Ordering::Relaxed);
            if aj == EMPTY_ADDR {
                break;
            }
            let kj = t.slots[j].key.load(Ordering::Relaxed);
            let home = t.home(kj);
            // Entry at j may fill hole i iff its home is cyclically no
            // later than i (i.e. it lies on a probe chain through i).
            if (j.wrapping_sub(home) & t.mask) >= (j.wrapping_sub(i) & t.mask) {
                t.slots[i].key.store(kj, Ordering::Relaxed);
                t.slots[i].addr.store(aj, Ordering::Release);
                i = j;
            }
        }
        t.slots[i].addr.store(EMPTY_ADDR, Ordering::Release);
        self.live -= 1;
        Ok(Some(old))
    }

    fn clear(&mut self, _dev: &mut NvmDevice) -> Result<(), IndexError> {
        for s in self.table.slots.iter() {
            s.addr.store(EMPTY_ADDR, Ordering::Release);
            s.key.store(0, Ordering::Relaxed);
        }
        self.live = 0;
        Ok(())
    }

    fn len(&self) -> usize {
        self.live
    }

    fn reader(&self) -> Option<crate::reader::IndexReader> {
        Some(crate::reader::IndexReader::Atomic(self.table()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnw_nvm_sim::NvmConfig;

    fn dev() -> NvmDevice {
        NvmDevice::new(NvmConfig::default().with_size(64))
    }

    #[test]
    fn basic_crud() {
        let mut d = dev();
        let mut idx = AtomicHashIndex::with_capacity(16);
        idx.insert(&mut d, 1, 100).unwrap();
        idx.insert(&mut d, 2, 200).unwrap();
        assert_eq!(idx.get(&mut d, 1).unwrap(), Some(100));
        assert_eq!(idx.lookup(&d, 2).unwrap(), Some(200));
        assert_eq!(idx.len(), 2);
        idx.insert(&mut d, 1, 150).unwrap();
        assert_eq!(idx.get(&mut d, 1).unwrap(), Some(150));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.remove(&mut d, 1).unwrap(), Some(150));
        assert_eq!(idx.get(&mut d, 1).unwrap(), None);
        assert_eq!(idx.remove(&mut d, 1).unwrap(), None);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn zero_and_max_keys_are_valid() {
        let mut d = dev();
        let mut idx = AtomicHashIndex::with_capacity(8);
        idx.insert(&mut d, 0, 11).unwrap();
        idx.insert(&mut d, u64::MAX, 22).unwrap();
        assert_eq!(idx.lookup(&d, 0).unwrap(), Some(11));
        assert_eq!(idx.lookup(&d, u64::MAX).unwrap(), Some(22));
        assert_eq!(idx.remove(&mut d, 0).unwrap(), Some(11));
        assert_eq!(idx.lookup(&d, 0).unwrap(), None);
        assert_eq!(idx.lookup(&d, u64::MAX).unwrap(), Some(22));
    }

    #[test]
    fn never_rehashes_table_identity_is_stable() {
        let mut d = dev();
        let mut idx = AtomicHashIndex::with_capacity(64);
        let table = idx.table();
        for k in 0..64u64 {
            idx.insert(&mut d, k, k * 8).unwrap();
        }
        idx.clear(&mut d).unwrap();
        for k in 0..64u64 {
            idx.insert(&mut d, k, k * 16).unwrap();
        }
        // Probes through the pre-churn Arc still see current state.
        assert_eq!(table.probe(10), Some(160));
        assert_eq!(idx.len(), 64);
    }

    #[test]
    fn reports_full_past_slot_count() {
        let mut d = dev();
        // capacity 4 -> 8 slots.
        let mut idx = AtomicHashIndex::with_capacity(4);
        let mut stored = 0u64;
        let mut full = false;
        for k in 0..16u64 {
            let room = idx.can_insert(&d, k).unwrap();
            match idx.insert(&mut d, k, k) {
                Ok(()) => stored += 1,
                Err(IndexError::Full) => {
                    full = true;
                    assert!(!room, "key {k}: the live count saw room");
                    break;
                }
                Err(e) => panic!("{e}"),
            }
            assert!(room, "key {k}");
        }
        assert_eq!(stored, 8);
        assert!(full);
        // A full table still updates a key it holds.
        assert!(idx.can_insert(&d, 3).unwrap());
        idx.insert(&mut d, 3, 30).unwrap();
    }

    #[test]
    fn backward_shift_preserves_probe_chains() {
        let mut d = dev();
        let mut idx = AtomicHashIndex::with_capacity(128);
        // Insert enough keys that probe chains form, then delete half in
        // an order that exercises the shift, and verify every survivor.
        for k in 0..128u64 {
            idx.insert(&mut d, k, k + 1000).unwrap();
        }
        for k in (0..128u64).step_by(2) {
            assert_eq!(idx.remove(&mut d, k).unwrap(), Some(k + 1000), "key {k}");
        }
        for k in 0..128u64 {
            let want = if k % 2 == 0 { None } else { Some(k + 1000) };
            assert_eq!(idx.lookup(&d, k).unwrap(), want, "key {k}");
            assert_eq!(idx.get(&mut d, k).unwrap(), want, "key {k}");
        }
        assert_eq!(idx.len(), 64);
    }

    #[test]
    fn matches_hashmap_model() {
        use std::collections::HashMap;
        let mut d = dev();
        let mut idx = AtomicHashIndex::with_capacity(64);
        let mut model: HashMap<u64, u64> = HashMap::new();
        // Deterministic pseudo-random op sequence.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..4000 {
            x = splitmix64(x);
            let key = x % 48;
            match x % 3 {
                0 => {
                    idx.insert(&mut d, key, x >> 8).unwrap();
                    model.insert(key, x >> 8);
                }
                1 => {
                    assert_eq!(idx.get(&mut d, key).unwrap(), model.get(&key).copied());
                }
                _ => {
                    assert_eq!(idx.remove(&mut d, key).unwrap(), model.remove(&key));
                }
            }
            assert_eq!(idx.len(), model.len());
        }
    }
}
