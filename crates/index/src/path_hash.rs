//! Path Hashing (Zuo & Hua, "A write-friendly and cache-optimized hashing
//! scheme for non-volatile memory systems", TPDS 2017) — the paper's NVM
//! index (§V-A.3).
//!
//! The table is an inverted complete binary tree. Level 0 holds `L` leaf
//! buckets; level `l` holds `L >> l`. A key hashes to two leaf positions;
//! the buckets it may occupy are those two leaves plus their ancestors
//! (`leaf >> l` at level `l`). Insertion writes the first empty bucket along
//! the two paths — no rehashing, no evictions, so each insert costs exactly
//! one bucket write. Deletion resets the bucket's valid flag: a single bit.
//!
//! Bucket layout (24 bytes, word aligned):
//!
//! ```text
//! [ flags: u8 | pad ×7 | key: u64 LE | addr: u64 LE ]
//! ```

use std::collections::{HashMap, HashSet};

use pnw_nvm_sim::{CellView, NvmDevice, Region, WriteMode};

use crate::traits::{IndexError, KeyIndex};

/// Bytes per bucket.
pub const BUCKET_BYTES: usize = 24;
const FLAG_VALID: u8 = 1;

#[inline]
fn h1(key: u64) -> u64 {
    // splitmix64 finalizer.
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn h2(key: u64) -> u64 {
    // Murmur3-style finalizer with different constants.
    let mut x = key.wrapping_mul(0xFF51_AFD7_ED55_8CCD) ^ 0xDEAD_BEEF_CAFE_F00D;
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// The pure geometry of a path-hashing table: region placement, leaf
/// count and per-level offsets. Doubles as the **lock-free read handle**
/// for the NVM index placement — it holds no mutable state, so it stays
/// valid forever and can probe the persistent buckets straight out of a
/// [`CellView`] while the writer mutates them (torn reads are resolved by
/// the store's seqlock validation).
#[derive(Debug, Clone)]
pub struct PathHashReader {
    region: Region,
    /// Leaf count (power of two).
    leaves: usize,
    /// Number of tree levels (`log2(leaves) + 1`).
    levels: usize,
    /// Per-level bucket offsets into the region.
    level_offsets: Vec<usize>,
}

impl PathHashReader {
    /// Byte address of the bucket at `level` on the path from `leaf`.
    #[inline]
    fn bucket_addr(&self, leaf: usize, level: usize) -> usize {
        let pos = leaf >> level;
        self.region
            .at((self.level_offsets[level] + pos) * BUCKET_BYTES)
    }

    /// Iterates candidate bucket addresses for a key: both paths, level by
    /// level (leaves first — the cache-optimized probe order of the paper).
    fn candidates(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let l1 = (h1(key) as usize) & (self.leaves - 1);
        let l2 = (h2(key) as usize) & (self.leaves - 1);
        (0..self.levels).flat_map(move |lvl| {
            let a = self.bucket_addr(l1, lvl);
            let b = self.bucket_addr(l2, lvl);
            // On shared upper levels the two paths can coincide.
            if a == b {
                vec![a]
            } else {
                vec![a, b]
            }
        })
    }

    #[inline]
    fn probe_bucket(&self, view: &CellView, addr: usize, key: u64) -> Option<Option<u64>> {
        let mut buf = [0u8; BUCKET_BYTES];
        if !view.read_into(addr, &mut buf) {
            return Some(None); // out of bounds: treat as absent
        }
        let flags = buf[0];
        let k = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        if flags & FLAG_VALID != 0 && k == key {
            let val = u64::from_le_bytes(buf[16..24].try_into().unwrap());
            return Some(Some(val));
        }
        None // keep probing
    }

    /// Lock-free probe for `key` through the device's cell view.
    ///
    /// Allocation-free; a probe racing the writer may return a stale or
    /// torn result — the caller's seqlock validation decides.
    pub fn lookup(&self, view: &CellView, key: u64) -> Option<u64> {
        let l1 = (h1(key) as usize) & (self.leaves - 1);
        let l2 = (h2(key) as usize) & (self.leaves - 1);
        for lvl in 0..self.levels {
            let a = self.bucket_addr(l1, lvl);
            if let Some(hit) = self.probe_bucket(view, a, key) {
                return hit;
            }
            let b = self.bucket_addr(l2, lvl);
            if b != a {
                if let Some(hit) = self.probe_bucket(view, b, key) {
                    return hit;
                }
            }
        }
        None
    }
}

/// A persistent path-hashing index over a region of an NVM device.
#[derive(Debug, Clone)]
pub struct PathHashIndex {
    geom: PathHashReader,
    live: usize,
}

impl PathHashIndex {
    /// Total buckets needed for `leaves` leaf positions.
    pub fn buckets_for(leaves: usize) -> usize {
        assert!(leaves.is_power_of_two(), "leaf count must be a power of two");
        2 * leaves - 1
    }

    /// Region size in bytes needed for `leaves` leaf positions.
    pub fn region_bytes_for(leaves: usize) -> usize {
        Self::buckets_for(leaves) * BUCKET_BYTES
    }

    /// Creates a fresh index over `region`, zeroing nothing (a zeroed device
    /// already reads as all-invalid buckets).
    ///
    /// # Panics
    /// Panics if the region is too small or `leaves` is not a power of two.
    pub fn create(region: Region, leaves: usize) -> Self {
        assert!(
            region.len >= Self::region_bytes_for(leaves),
            "region too small: need {} bytes, have {}",
            Self::region_bytes_for(leaves),
            region.len
        );
        let levels = leaves.trailing_zeros() as usize + 1;
        let mut level_offsets = Vec::with_capacity(levels);
        let mut off = 0usize;
        for l in 0..levels {
            level_offsets.push(off);
            off += leaves >> l;
        }
        PathHashIndex {
            geom: PathHashReader {
                region,
                leaves,
                levels,
                level_offsets,
            },
            live: 0,
        }
    }

    /// Reopens an existing index after a crash, recounting live entries from
    /// the persistent flags (the index itself needs no rebuild — that is the
    /// point of placing it in NVM, §V-A.3).
    pub fn recover(region: Region, leaves: usize, dev: &NvmDevice) -> Self {
        let mut idx = Self::create(region, leaves);
        let mut live = 0;
        for b in 0..Self::buckets_for(leaves) {
            let addr = idx.geom.region.at(b * BUCKET_BYTES);
            if let Ok(bytes) = dev.peek(addr, 1) {
                if bytes[0] & FLAG_VALID != 0 {
                    live += 1;
                }
            }
        }
        idx.live = live;
        idx
    }

    /// Reopens the index over `region` holding exactly `committed`'s
    /// mappings, writing only where the persisted table disagrees with
    /// them — after a crash that may have torn a bucket write, left a key
    /// in two buckets or lost an insert. A valid bucket stays when
    /// `committed` maps its key to its address, the bucket is on the key's
    /// path and the key is in no earlier bucket; every other valid
    /// bucket's flag is reset, and every committed key not kept is
    /// inserted, in key order. A table that already agrees costs no write.
    pub fn reconcile(
        region: Region,
        leaves: usize,
        dev: &mut NvmDevice,
        committed: &HashMap<u64, u64>,
    ) -> Result<Self, IndexError> {
        let mut idx = Self::create(region, leaves);
        let mut kept = HashSet::with_capacity(committed.len());
        for b in 0..Self::buckets_for(leaves) {
            let addr = region.at(b * BUCKET_BYTES);
            let (flags, key, val) = Self::peek_bucket(dev, addr)?;
            if flags & FLAG_VALID == 0 {
                continue;
            }
            let keep = committed.get(&key) == Some(&val)
                && idx.candidates(key).any(|a| a == addr)
                && kept.insert(key);
            if keep {
                idx.live += 1;
            } else {
                dev.write(addr, &[0u8], WriteMode::Diff)?;
            }
        }
        // In key order: where two keys' paths collide, which bucket each
        // takes depends on the order, and a reopen must lay the table out
        // the same way every time.
        let mut lost: Vec<(u64, u64)> =
            committed.iter().filter(|(k, _)| !kept.contains(*k)).map(|(&k, &v)| (k, v)).collect();
        lost.sort_unstable();
        for (key, val) in lost {
            idx.insert(dev, key, val)?;
        }
        Ok(idx)
    }

    /// Leaf capacity.
    pub fn leaves(&self) -> usize {
        self.geom.leaves
    }

    /// A detached lock-free read handle (geometry only).
    pub fn reader_handle(&self) -> PathHashReader {
        self.geom.clone()
    }

    fn candidates(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        self.geom.candidates(key)
    }

    /// Every live `(key, addr)` mapping, in table order. Reads through
    /// [`NvmDevice::peek`] (no stats, shared access) — stores whose data
    /// zone holds values only enumerate their key set through this for
    /// range scans.
    pub fn entries(&self, dev: &NvmDevice) -> Result<Vec<(u64, u64)>, IndexError> {
        let mut out = Vec::with_capacity(self.live);
        for b in 0..Self::buckets_for(self.geom.leaves) {
            let addr = self.geom.region.at(b * BUCKET_BYTES);
            let (flags, key, val) = Self::peek_bucket(dev, addr)?;
            if flags & FLAG_VALID != 0 {
                out.push((key, val));
            }
        }
        Ok(out)
    }

    fn read_bucket(dev: &mut NvmDevice, addr: usize) -> Result<(u8, u64, u64), IndexError> {
        let bytes = dev.read(addr, BUCKET_BYTES)?;
        let flags = bytes[0];
        let key = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let val = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        Ok((flags, key, val))
    }

    /// Reads a bucket through [`NvmDevice::peek`] — no stats, no write lock.
    fn peek_bucket(dev: &NvmDevice, addr: usize) -> Result<(u8, u64, u64), IndexError> {
        let bytes = dev.peek(addr, BUCKET_BYTES)?;
        let flags = bytes[0];
        let key = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let val = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        Ok((flags, key, val))
    }

    fn write_bucket(
        dev: &mut NvmDevice,
        addr: usize,
        key: u64,
        val: u64,
    ) -> Result<(), IndexError> {
        let mut buf = [0u8; BUCKET_BYTES];
        buf[0] = FLAG_VALID;
        buf[8..16].copy_from_slice(&key.to_le_bytes());
        buf[16..24].copy_from_slice(&val.to_le_bytes());
        dev.write(addr, &buf, WriteMode::Diff)?;
        Ok(())
    }

    /// Finds the bucket currently holding `key`, if any.
    fn find(&self, dev: &mut NvmDevice, key: u64) -> Result<Option<usize>, IndexError> {
        let addrs: Vec<usize> = self.candidates(key).collect();
        for addr in addrs {
            let (flags, k, _) = Self::read_bucket(dev, addr)?;
            if flags & FLAG_VALID != 0 && k == key {
                return Ok(Some(addr));
            }
        }
        Ok(None)
    }
}

impl KeyIndex for PathHashIndex {
    fn name(&self) -> &'static str {
        "path-hash"
    }

    fn insert(&mut self, dev: &mut NvmDevice, key: u64, addr: u64) -> Result<(), IndexError> {
        // Update in place if present.
        if let Some(baddr) = self.find(dev, key)? {
            Self::write_bucket(dev, baddr, key, addr)?;
            return Ok(());
        }
        let addrs: Vec<usize> = self.candidates(key).collect();
        for baddr in addrs {
            let (flags, _, _) = Self::read_bucket(dev, baddr)?;
            if flags & FLAG_VALID == 0 {
                Self::write_bucket(dev, baddr, key, addr)?;
                self.live += 1;
                return Ok(());
            }
        }
        Err(IndexError::Full)
    }

    fn get(&mut self, dev: &mut NvmDevice, key: u64) -> Result<Option<u64>, IndexError> {
        match self.find(dev, key)? {
            Some(baddr) => {
                let (_, _, val) = Self::read_bucket(dev, baddr)?;
                Ok(Some(val))
            }
            None => Ok(None),
        }
    }

    fn lookup(&self, dev: &NvmDevice, key: u64) -> Result<Option<u64>, IndexError> {
        // Unlike `find`, no `&mut dev` conflict forces collecting the
        // candidates — probe straight off the iterator.
        for addr in self.candidates(key) {
            let (flags, k, val) = Self::peek_bucket(dev, addr)?;
            if flags & FLAG_VALID != 0 && k == key {
                return Ok(Some(val));
            }
        }
        Ok(None)
    }

    fn can_insert(&self, dev: &NvmDevice, key: u64) -> Result<bool, IndexError> {
        // `insert` updates the key's slot if it has one, else takes the
        // first free candidate: either ends this walk.
        for addr in self.candidates(key) {
            let (flags, k, _) = Self::peek_bucket(dev, addr)?;
            if flags & FLAG_VALID == 0 || k == key {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn remove(&mut self, dev: &mut NvmDevice, key: u64) -> Result<Option<u64>, IndexError> {
        match self.find(dev, key)? {
            Some(baddr) => {
                let (_, _, val) = Self::read_bucket(dev, baddr)?;
                // Reset the valid flag only: a single-bit NVM update.
                dev.write(baddr, &[0u8], WriteMode::Diff)?;
                self.live -= 1;
                Ok(Some(val))
            }
            None => Ok(None),
        }
    }

    fn clear(&mut self, dev: &mut NvmDevice) -> Result<(), IndexError> {
        for b in 0..Self::buckets_for(self.geom.leaves) {
            let addr = self.geom.region.at(b * BUCKET_BYTES);
            let flags = dev.peek(addr, 1)?[0];
            if flags & FLAG_VALID != 0 {
                dev.write(addr, &[0u8], WriteMode::Diff)?;
            }
        }
        self.live = 0;
        Ok(())
    }

    fn len(&self) -> usize {
        self.live
    }

    fn reader(&self) -> Option<crate::reader::IndexReader> {
        Some(crate::reader::IndexReader::PathHash(self.reader_handle()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnw_nvm_sim::{NvmConfig, RegionAllocator};

    fn setup(leaves: usize) -> (NvmDevice, PathHashIndex) {
        let bytes = PathHashIndex::region_bytes_for(leaves);
        let mut dev = NvmDevice::new(NvmConfig::default().with_size(bytes + 4096));
        let mut alloc = RegionAllocator::new(dev.size());
        let region = alloc.alloc(bytes, 64).unwrap();
        let idx = PathHashIndex::create(region, leaves);
        let _ = &mut dev;
        (dev, idx)
    }

    #[test]
    fn insert_get_remove() {
        let (mut dev, mut idx) = setup(64);
        idx.insert(&mut dev, 42, 1000).unwrap();
        assert_eq!(idx.get(&mut dev, 42).unwrap(), Some(1000));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.remove(&mut dev, 42).unwrap(), Some(1000));
        assert_eq!(idx.get(&mut dev, 42).unwrap(), None);
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn update_in_place_does_not_grow() {
        let (mut dev, mut idx) = setup(64);
        idx.insert(&mut dev, 7, 1).unwrap();
        idx.insert(&mut dev, 7, 2).unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(&mut dev, 7).unwrap(), Some(2));
    }

    #[test]
    fn fills_well_past_leaf_collisions() {
        // Path hashing's point: load factors well above what two-choice
        // leaf-only hashing would allow. 64 leaves -> 127 buckets.
        // The probe agrees with `insert` on every key tried.
        let (mut dev, mut idx) = setup(64);
        let mut stored = 0;
        for k in 0..100u64 {
            let room = idx.can_insert(&dev, k).unwrap();
            match idx.insert(&mut dev, k, k * 2) {
                Ok(()) => stored += 1,
                Err(IndexError::Full) => {
                    assert!(!room, "key {k}: the probe saw room");
                    break;
                }
                Err(e) => panic!("{e}"),
            }
            assert!(room, "key {k}: the probe saw no room");
        }
        assert!(stored >= 70, "only stored {stored}/100");
        for k in 0..stored as u64 {
            assert_eq!(idx.get(&mut dev, k).unwrap(), Some(k * 2), "key {k}");
        }
    }

    #[test]
    fn delete_costs_one_bit() {
        let (mut dev, mut idx) = setup(64);
        idx.insert(&mut dev, 9, 90).unwrap();
        let before = dev.stats().totals.bit_flips;
        idx.remove(&mut dev, 9).unwrap();
        let delta = dev.stats().totals.bit_flips - before;
        assert_eq!(delta, 1, "delete must reset exactly the valid flag bit");
    }

    #[test]
    fn survives_crash_and_recover() {
        let (mut dev, mut idx) = setup(64);
        for k in 0..30u64 {
            idx.insert(&mut dev, k, k + 1000).unwrap();
        }
        idx.remove(&mut dev, 5).unwrap();
        let region = idx.geom.region;
        dev.crash();
        dev.recover();
        let mut idx2 = PathHashIndex::recover(region, 64, &dev);
        assert_eq!(idx2.len(), 29);
        assert_eq!(idx2.get(&mut dev, 10).unwrap(), Some(1010));
        assert_eq!(idx2.get(&mut dev, 5).unwrap(), None);
    }

    /// Reconciling against the committed map keeps the entries that agree
    /// without a write, resets a stale one, a duplicate and one off its
    /// key's path, and inserts a lost one.
    #[test]
    fn reconcile_writes_only_where_the_table_disagrees() {
        let (mut dev, mut idx) = setup(64);
        for k in 0..20u64 {
            idx.insert(&mut dev, k, k + 1000).unwrap();
        }
        let region = idx.geom.region;
        let committed: HashMap<u64, u64> = (0..20).map(|k| (k, k + 1000)).collect();
        let writes = dev.stats().write_ops;
        let clean = PathHashIndex::reconcile(region, 64, &mut dev, &committed).unwrap();
        assert_eq!(clean.len(), 20);
        assert_eq!(dev.stats().write_ops, writes, "an agreeing table costs no write");

        // Key 3 moved, key 4 was deleted and key 20 inserted since; key 5
        // sits in a second bucket too, and key 99 in a bucket off its path.
        let mut committed = committed;
        committed.insert(3, 3);
        committed.remove(&4);
        committed.insert(20, 1020);
        let free: Vec<usize> = (0..PathHashIndex::buckets_for(64))
            .map(|b| region.at(b * BUCKET_BYTES))
            .filter(|&a| dev.peek(a, 1).unwrap()[0] & FLAG_VALID == 0)
            .collect();
        let off_path = *free.iter().find(|&&a| idx.candidates(99).all(|c| c != a)).unwrap();
        let second = *free.iter().find(|&&a| a != off_path).unwrap();
        PathHashIndex::write_bucket(&mut dev, second, 5, 1005).unwrap();
        PathHashIndex::write_bucket(&mut dev, off_path, 99, 7).unwrap();
        committed.insert(99, 7);
        let mut idx = PathHashIndex::reconcile(region, 64, &mut dev, &committed).unwrap();
        assert_eq!(idx.len(), committed.len());
        assert_eq!(idx.entries(&dev).unwrap().len(), committed.len());
        for (&k, &v) in &committed {
            assert_eq!(idx.get(&mut dev, k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(idx.get(&mut dev, 4).unwrap(), None);
    }

    #[test]
    fn lookup_matches_get_without_read_stats() {
        let (mut dev, mut idx) = setup(64);
        for k in 0..20u64 {
            idx.insert(&mut dev, k, k + 500).unwrap();
        }
        let reads_before = dev.stats().read_ops;
        for k in 0..25u64 {
            let via_lookup = idx.lookup(&dev, k).unwrap();
            assert_eq!(via_lookup, idx.get(&mut dev, k).unwrap(), "key {k}");
        }
        // get() above recorded reads; lookup() itself must not have.
        let gets_only = dev.stats().read_ops - reads_before;
        assert!(gets_only > 0);
        let reads_now = dev.stats().read_ops;
        idx.lookup(&dev, 3).unwrap();
        assert_eq!(dev.stats().read_ops, reads_now);
    }

    #[test]
    fn usable_as_boxed_trait_object() {
        let (mut dev, idx) = setup(32);
        let mut boxed: Box<dyn KeyIndex> = Box::new(idx);
        boxed.insert(&mut dev, 1, 10).unwrap();
        assert_eq!(boxed.lookup(&dev, 1).unwrap(), Some(10));
        assert_eq!(boxed.name(), "path-hash");
    }

    #[test]
    fn missing_key_is_none() {
        let (mut dev, mut idx) = setup(32);
        assert_eq!(idx.get(&mut dev, 999).unwrap(), None);
        assert_eq!(idx.remove(&mut dev, 999).unwrap(), None);
    }

    #[test]
    fn full_table_reports_full() {
        let (mut dev, mut idx) = setup(2); // 3 buckets total
        let mut errs = 0;
        for k in 0..10u64 {
            let room = idx.can_insert(&dev, k).unwrap();
            let full = matches!(idx.insert(&mut dev, k, k), Err(IndexError::Full));
            assert_eq!(room, !full, "key {k}");
            errs += usize::from(full);
        }
        assert!(errs > 0);
        assert!(idx.len() <= 3);
        // A present key always has room: its update rewrites its slot.
        let present = (0..10u64).find(|&k| idx.lookup(&dev, k).unwrap().is_some()).unwrap();
        assert!(idx.can_insert(&dev, present).unwrap());
    }

    #[test]
    fn region_sizing() {
        assert_eq!(PathHashIndex::buckets_for(8), 15);
        assert_eq!(PathHashIndex::region_bytes_for(8), 15 * 24);
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use pnw_nvm_sim::{NvmConfig, NvmDevice, RegionAllocator};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Path hashing behaves like a hash map for any op sequence that
        /// stays under the table's guaranteed-placeable load.
        #[test]
        fn matches_hashmap(ops in proptest::collection::vec(
            (0u8..3, 0u64..24, any::<u64>()), 1..100)) {
            let leaves = 64usize;
            let bytes = PathHashIndex::region_bytes_for(leaves);
            let mut dev = NvmDevice::new(NvmConfig::default().with_size(bytes + 128));
            let mut alloc = RegionAllocator::new(dev.size());
            let region = alloc.alloc(bytes, 64).unwrap();
            let mut idx = PathHashIndex::create(region, leaves);
            let mut model: HashMap<u64, u64> = HashMap::new();

            for (op, key, val) in ops {
                match op {
                    0 => {
                        // 24 keys over 127 buckets: never fills.
                        idx.insert(&mut dev, key, val).expect("low load");
                        model.insert(key, val);
                    }
                    1 => {
                        prop_assert_eq!(
                            idx.get(&mut dev, key).expect("ok"),
                            model.get(&key).copied()
                        );
                    }
                    _ => {
                        prop_assert_eq!(
                            idx.remove(&mut dev, key).expect("ok"),
                            model.remove(&key)
                        );
                    }
                }
                prop_assert_eq!(idx.len(), model.len());
            }
        }

        /// Recovery from the persistent image preserves exactly the live
        /// entries.
        #[test]
        fn recovery_is_lossless(keys in proptest::collection::btree_set(0u64..64, 1..32)) {
            let leaves = 128usize;
            let bytes = PathHashIndex::region_bytes_for(leaves);
            let mut dev = NvmDevice::new(NvmConfig::default().with_size(bytes + 128));
            let mut alloc = RegionAllocator::new(dev.size());
            let region = alloc.alloc(bytes, 64).unwrap();
            let mut idx = PathHashIndex::create(region, leaves);
            for &k in &keys {
                idx.insert(&mut dev, k, k * 10).expect("low load");
            }
            let mut idx2 = PathHashIndex::recover(region, leaves, &dev);
            prop_assert_eq!(idx2.len(), keys.len());
            for &k in &keys {
                prop_assert_eq!(idx2.get(&mut dev, k).expect("ok"), Some(k * 10));
            }
        }
    }
}
