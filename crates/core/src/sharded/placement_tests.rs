//! The PNW store's own behaviour at the default `shards = 1` — the
//! paper's Figure 2 system: update placement, prefill steering, K = 1 ≡
//! DCW, index placement, load-factor retrains, zone extension, auto-K,
//! config validation and batch accounting. The `Store` contract itself
//! is checked against the reference model in `tests/store_contract.rs`.

use std::time::Duration;

use crate::api::{Batch, Op, Store};
use crate::config::{IndexPlacement, PnwConfig, RetrainMode};
use crate::error::StoreError;
use crate::shard::ShardEngine;
use crate::PnwStore;

fn store(capacity: usize, value_size: usize, k: usize) -> PnwStore {
    PnwStore::new(PnwConfig::new(capacity, value_size).with_clusters(k).with_seed(7))
}

#[test]
#[should_panic(expected = "PnwStore::open")]
fn new_rejects_file_backing() {
    let dir = std::env::temp_dir().join("pnw_rejected");
    let _ = PnwStore::new(PnwConfig::new(16, 8).with_path(dir));
}

#[test]
#[should_panic(expected = "invalid PnwConfig")]
fn invalid_config_is_rejected_at_the_boundary() {
    let mut cfg = PnwConfig::new(4, 8);
    cfg.clusters = 99;
    let _ = PnwStore::new(cfg);
}

#[test]
fn update_delete_put_moves_to_similar_location() {
    let s = store(128, 8, 2);
    // Two bit-pattern families.
    for k in 0..32u64 {
        let v = if k % 2 == 0 { [0x00u8; 8] } else { [0xFFu8; 8] };
        s.put(k, &v).unwrap();
    }
    s.retrain_now().unwrap();
    // Delete everything to hand labeled buckets back to the pool.
    for k in 0..32u64 {
        s.delete(k).unwrap();
    }
    s.reset_device_stats();
    // New writes matching a family should land nearly flip-free.
    let r = s.put(100, &[0xFFu8; 8]).unwrap();
    assert!(r.value_write.bit_flips <= 8, "steered write flipped {} bits", r.value_write.bit_flips);
}

#[test]
fn k1_degenerates_to_dcw() {
    // §VI-D: "when we pick k=1, the result for PNW is not different
    // from DCW".
    let s = store(32, 8, 1);
    s.put(1, &[0xF0u8; 8]).unwrap();
    s.retrain_now().unwrap();
    s.delete(1).unwrap();
    let r = s.put(2, &[0xF1u8; 8]).unwrap();
    // Exactly the Hamming distance to whatever free bucket came up —
    // with k=1 there is no steering, like DCW over a free list.
    assert!(r.value_write.bit_flips <= 64);
    assert_eq!(s.model_k(), 1);
}

/// A trained volatile store rewrites a one-bit update in place: every free
/// bucket is virgin, so relocating would flip the whole value and header.
#[test]
fn in_place_update_policy() {
    let s = store(32, 8, 2);
    s.put(5, &[0xAAu8; 8]).unwrap();
    s.retrain_now().unwrap();
    let before = s.snapshot();
    s.put(5, &[0xABu8; 8]).unwrap();
    // No pool interaction.
    let after = s.snapshot();
    assert_eq!(after.free, before.free);
    assert_eq!(after.updates_in_place, before.updates_in_place + 1);
    assert_eq!(s.get(5).unwrap().unwrap(), vec![0xABu8; 8]);
    assert_eq!(s.len(), 1);
}

/// The default `Cheapest` policy relocates an update when the pool's
/// candidate is the cheaper write: the key's own bucket holds `0xAA…`, every
/// free bucket already holds the new `0x55…`, so rewriting in place would
/// flip all 64 value bits and moving flips none of them.
#[test]
fn delete_put_update_policy_changes_address() {
    let s = store(32, 8, 2);
    s.prefill_free_buckets(|| vec![0x55u8; 8]).unwrap();
    s.put(5, &[0xAAu8; 8]).unwrap();
    s.retrain_now().unwrap();
    let r = s.put(5, &[0x55u8; 8]).unwrap();
    assert_eq!(r.value_write.bit_flips, 0, "landed on a 0x55 bucket, not its own");
    assert_eq!(s.snapshot().updates_in_place, 0);
    assert_eq!(s.len(), 1);
    assert_eq!(s.get(5).unwrap().unwrap(), vec![0x55u8; 8]);
}

#[test]
fn prefill_then_steering() {
    let s = store(64, 8, 2);
    // Half the cells hold 0x00-family, half 0xFF-family.
    let mut i = 0u32;
    s.prefill_free_buckets(|| {
        i += 1;
        vec![if i.is_multiple_of(2) { 0x00u8 } else { 0xFF }; 8]
    })
    .unwrap();
    s.retrain_now().unwrap();
    s.reset_device_stats();
    let r = s.put(1, &[0xFFu8; 8]).unwrap();
    // Value write should hit an 0xFF-family bucket: ~0 flips.
    assert!(r.value_write.bit_flips <= 8, "{}", r.value_write.bit_flips);
    let r2 = s.put(2, &[0x00u8; 8]).unwrap();
    assert!(r2.value_write.bit_flips <= 8, "{}", r2.value_write.bit_flips);
}

#[test]
fn nvm_index_costs_bit_flips_dram_does_not() {
    let dram = PnwStore::new(PnwConfig::new(64, 8).with_clusters(1));
    let nvm = PnwStore::new(PnwConfig::new(64, 8).with_clusters(1).with_index(IndexPlacement::Nvm));
    dram.put(1, &[0x11u8; 8]).unwrap();
    nvm.put(1, &[0x11u8; 8]).unwrap();
    let d = dram.device_stats().totals.bit_flips;
    let n = nvm.device_stats().totals.bit_flips;
    assert!(n > d, "nvm index must add flips: {n} vs {d}");
}

/// The path-hash slots after inserting `keys` in order into an index of
/// `leaves` leaves, as each slot's bytes — the store's NVM index holds the
/// same, since a key's slot depends only on the keys inserted before it.
fn path_hash_slots(leaves: usize, keys: &[u64]) -> Vec<Vec<u8>> {
    use pnw_index::{KeyIndex, PathHashIndex};
    use pnw_nvm_sim::{NvmConfig, NvmDevice, RegionAllocator};
    let bytes = PathHashIndex::region_bytes_for(leaves);
    let mut dev = NvmDevice::new(NvmConfig::default().with_size(bytes));
    let region = RegionAllocator::new(bytes).alloc(bytes, 64).unwrap();
    let mut idx = PathHashIndex::create(region, leaves);
    for &k in keys {
        let _ = idx.insert(&mut dev, k, 0);
    }
    let image = dev.peek(region.start, bytes).unwrap();
    image.chunks(pnw_index::path_hash::BUCKET_BYTES).map(<[u8]>::to_vec).collect()
}

/// A fresh key, and at most `most` keys that, inserted first, take every
/// slot the fresh key may use: each is found to land on the slot the fresh
/// key would take next.
fn a_key_with_no_slot(leaves: usize, most: usize) -> (u64, Vec<u64>) {
    let landing = |fill: &[u64], key: u64| {
        let before = path_hash_slots(leaves, fill);
        let after = path_hash_slots(leaves, &[fill, &[key]].concat());
        (0..before.len()).find(|&i| before[i] != after[i])
    };
    for fresh in 1_000.. {
        let mut fill: Vec<u64> = Vec::new();
        while let Some(slot) = landing(&fill, fresh) {
            let next =
                (0..1_000_000).find(|&k| !fill.contains(&k) && landing(&fill, k) == Some(slot));
            fill.push(next.expect("a key for every slot"));
        }
        if fill.len() <= most {
            return (fresh, fill);
        }
    }
    unreachable!()
}

/// On the NVM index a fresh key whose every slot is taken is refused while
/// the pool still has buckets: `Full`, and nothing written — device stats,
/// `len()` and the free count stay as they were. An update of a key the
/// index holds still succeeds.
#[test]
fn a_fresh_key_the_nvm_index_has_no_slot_for_is_full_and_writes_nothing() {
    let cfg = PnwConfig::new(8, 8).with_clusters(1).with_index(IndexPlacement::Nvm);
    // As the engine sizes its index: twice the buckets, in leaves.
    let (fresh, fill) = a_key_with_no_slot(16, cfg.capacity - 1);
    let volatile = PnwStore::new(cfg.clone());
    let fs = pnw_nvm_sim::SimFs::new();
    let durable = PnwStore::open_in(cfg, std::sync::Arc::new(fs)).unwrap();
    for (s, name) in [(volatile, "volatile"), (durable, "durable")] {
        for &k in &fill {
            s.put(k, &[k as u8; 8]).unwrap();
        }
        let (stats, len, free) = (s.device_stats(), s.len(), s.snapshot().free);
        assert!(free > 0, "{name}: the pool is not what is full");
        assert_eq!(s.put(fresh, &[0xAB; 8]).unwrap_err(), StoreError::Full, "{name}");
        let after = (s.device_stats(), s.len(), s.snapshot().free);
        assert_eq!(after, (stats, len, free), "{name}: the refused PUT wrote");
        assert_eq!(s.get(fresh).unwrap(), None, "{name}");
        s.put(fill[0], &[0xCD; 8]).unwrap();
        assert_eq!(s.get(fill[0]).unwrap(), Some(vec![0xCD; 8]), "{name}: update");
    }
}

#[test]
fn load_factor_triggers_sync_retrain() {
    let cfg = PnwConfig::new(16, 8).with_clusters(2).with_load_factor(0.5);
    let s = PnwStore::new(cfg.with_retrain(RetrainMode::Background));
    let before = s.retrains();
    for k in 0..10u64 {
        s.put(k, &k.to_le_bytes()).unwrap();
    }
    s.wait_for_retrain();
    assert!(s.retrains() > before, "retrain must have fired");
}

#[test]
fn background_retrain_installs_eventually() {
    let cfg = PnwConfig::new(32, 8).with_clusters(2).with_load_factor(0.25);
    let s = PnwStore::new(cfg.with_retrain(RetrainMode::Background));
    for k in 0..16u64 {
        s.put(k, &(k * 7).to_le_bytes()).unwrap();
    }
    s.wait_for_retrain();
    assert!(s.is_trained());
    assert!(s.retrains() >= 1);
    // And the store still works.
    s.put(99, &[1u8; 8]).unwrap();
    assert_eq!(s.get(99).unwrap().unwrap(), vec![1u8; 8]);
}

#[test]
fn get_does_not_touch_model_or_pool() {
    // §VI-E: "the value of K does not affect the lookup request latency
    // because in the lookup, the request does not go through the model
    // or the dynamic address pool".
    let s = store(32, 8, 4);
    s.put(1, &[1u8; 8]).unwrap();
    let before = s.snapshot();
    for _ in 0..10 {
        s.get(1).unwrap();
    }
    assert_eq!(s.snapshot().free, before.free);
    assert_eq!(s.snapshot().predict_total, before.predict_total);
}

#[test]
fn zone_extension_adds_capacity_without_index_churn() {
    // load_factor = 1.0 disables the automatic trigger so the manual
    // extension path is what's under test.
    let cfg = PnwConfig::new(8, 8).with_clusters(2).with_reserve(8).with_load_factor(1.0);
    let s = PnwStore::new(cfg.with_retrain(RetrainMode::Manual));
    assert_eq!(s.active_capacity(), 8);
    assert_eq!(s.reserve_remaining(), 8);
    for k in 0..8u64 {
        s.put(k, &k.to_le_bytes()).unwrap();
    }
    assert!(matches!(s.put(99, &[0u8; 8]), Err(StoreError::Full)));
    let added = s.extend_zone(4);
    assert_eq!(added, 4);
    assert_eq!(s.active_capacity(), 12);
    assert_eq!(s.reserve_remaining(), 4);
    // New capacity is usable; old keys untouched.
    s.put(99, &[9u8; 8]).unwrap();
    assert_eq!(s.get(3).unwrap().unwrap(), 3u64.to_le_bytes().to_vec());
    // Extension never exceeds the reserve.
    assert_eq!(s.extend_zone(100), 4);
    assert_eq!(s.reserve_remaining(), 0);
    assert_eq!(s.extend_zone(1), 0);
}

#[test]
fn load_factor_auto_extends_from_reserve() {
    let cfg = PnwConfig::new(8, 8).with_clusters(2).with_reserve(8).with_load_factor(0.5);
    let s = PnwStore::new(cfg.with_retrain(RetrainMode::Background));
    for k in 0..8u64 {
        s.put(k, &k.to_le_bytes()).unwrap();
    }
    // The trigger fired at >50% occupancy and pulled from the reserve.
    assert!(s.active_capacity() > 8, "auto-extension must have fired");
    s.wait_for_retrain();
    assert!(s.retrains() >= 1);
    // The 9th put works without manual intervention.
    s.put(100, &[1u8; 8]).unwrap();
}

#[test]
fn auto_k_store_trains_with_elbow() {
    let cfg = PnwConfig::new(64, 4).with_auto_k(1, 8);
    let s = PnwStore::new(cfg.with_retrain(RetrainMode::Manual));
    let mut i = 0u32;
    s.prefill_free_buckets(|| {
        i += 1;
        match i % 3 {
            0 => vec![0x00, 0x00, 0x00, 0x00],
            1 => vec![0xFF, 0xFF, 0xFF, 0xFF],
            _ => vec![0x0F, 0xF0, 0x0F, 0xF0],
        }
    })
    .unwrap();
    s.retrain_now().unwrap();
    assert!((2..=6).contains(&s.model_k()), "k={}", s.model_k());
}

#[test]
fn index_len_matches_live() {
    let mut e = ShardEngine::new(PnwConfig::new(32, 8).with_clusters(2).with_seed(7));
    for k in 0..10u64 {
        e.put(k, &[k as u8; 8]).unwrap();
    }
    e.delete(0).unwrap();
    assert_eq!(e.index_len(), e.len());
}

/// Batched apply must leave the store in the same state as the
/// equivalent per-op sequence — and the device accounting must match
/// bit-for-bit (the batch path's whole point is cost, not semantics).
#[test]
fn apply_matches_per_op_bit_for_bit() {
    let (a, b) = (store(64, 8, 2), store(64, 8, 2));
    let mut batch = Batch::new();
    for k in 0..24u64 {
        batch.put(k, &[k as u8 ^ 0x5A; 8]);
    }
    for k in (0..24u64).step_by(3) {
        batch.delete(k);
    }
    for k in 0..6u64 {
        batch.put(k, &[0xEE; 8]); // re-insert over deletes + updates
    }
    let report = a.apply(&batch);
    assert!(report.all_ok());
    assert_eq!((report.puts, report.deletes, report.deleted_existing), (30, 8, 8));

    let mut per_op_stats = pnw_nvm_sim::WriteStats::default();
    for op in batch.ops() {
        match op {
            Op::Put { key, value } => per_op_stats += b.put(*key, value).unwrap().total_write,
            Op::Delete { key } => assert!(b.delete(*key).unwrap()),
        }
    }
    assert_eq!(a.device_stats(), b.device_stats());
    assert_eq!(a.len(), b.len());
    for k in 0..24u64 {
        assert_eq!(a.get(k).unwrap(), b.get(k).unwrap(), "key {k}");
    }
    // The aggregate covers everything the per-op PUT reports did, plus
    // the delete flag writes.
    assert!(report.write_stats.bit_flips >= per_op_stats.bit_flips);
    assert!(report.modeled_latency > Duration::ZERO);
}
