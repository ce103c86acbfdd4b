use super::bucket::bucket_crc;
use super::placement::MAX_IN_PLACE_RUN;
use super::*;
use crate::clock::{now_unix_ms, wall_reads};

#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardEngine>();
}

#[test]
fn engine_put_get_delete_with_own_snapshot() {
    let cfg = PnwConfig::new(32, 8).with_clusters(2);
    let mut e = ShardEngine::new(cfg);
    assert_eq!(e.model().epoch(), 0, "fresh engine holds the placeholder");
    let (r, path) = e.put(1, &[0xAA; 8]).unwrap();
    assert_eq!(path, PutPath::Fresh);
    assert!(r.total_write.bit_flips > 0);
    assert_eq!(e.get(1).unwrap().unwrap(), vec![0xAA; 8]);
    assert!(e.delete(1).unwrap());
    assert_eq!(e.get(1).unwrap(), None);
    assert!(e.is_empty());
}

#[test]
fn engine_get_records_no_device_reads() {
    let cfg = PnwConfig::new(16, 8).with_clusters(1);
    let mut e = ShardEngine::new(cfg);
    e.put(7, &[1; 8]).unwrap();
    let reads = e.device_stats().read_ops;
    for _ in 0..10 {
        e.get(7).unwrap();
    }
    assert_eq!(e.device_stats().read_ops, reads);
    assert_eq!(e.snapshot(TrainStats::default()).gets, 10);
}

#[test]
fn in_place_put_reports_its_path() {
    let mut e = trained(16);
    let (_, p1) = e.put(5, &ff_minus(0)).unwrap();
    let (_, p2) = e.put(5, &ff_minus(1)).unwrap();
    assert_eq!(p1, PutPath::Fresh);
    assert_eq!(p2, PutPath::InPlace);
}

/// The batch-path PUT must leave the device in a bit-for-bit identical
/// state to the reporting PUT — same writes, same index traffic, same
/// pool decisions — with a model installed, so updates are priced and
/// both the in-place and the relocating branch run.
#[test]
fn put_unreported_matches_put_exactly() {
    let (mut a, mut b) = (trained(64), trained(64));
    let mut paths = [0u32; 2];
    for round in 0..3u8 {
        for k in 0..24u64 {
            let mut v = [k as u8; V];
            v[V - 1] ^= round;
            let (_, path_a) = a.put(k, &v).unwrap();
            let path_b = b.put_unreported(k, &v).unwrap();
            assert_eq!(path_a, path_b, "key {k} round {round}");
            paths[usize::from(path_a == PutPath::InPlace)] += 1;
        }
        for k in (0..24u64).step_by(5) {
            assert_eq!(a.delete(k).unwrap(), b.delete(k).unwrap());
        }
    }
    assert!(paths.iter().all(|&n| n > 0), "both paths taken: {paths:?}");
    assert_eq!(a.device_stats(), b.device_stats());
    assert_eq!(a.len(), b.len());
    let (sa, sb) = (
        a.snapshot(TrainStats::default()),
        b.snapshot(TrainStats::default()),
    );
    assert_eq!(sa.puts, sb.puts);
    assert_eq!(sa.free, sb.free);
    assert_eq!(sa.updates_in_place, sb.updates_in_place);
}

#[test]
fn put_unreported_reports_full() {
    let mut e = ShardEngine::new(PnwConfig::new(2, 8).with_clusters(1));
    e.put_unreported(1, &[1; 8]).unwrap();
    e.put_unreported(2, &[2; 8]).unwrap();
    assert!(matches!(
        e.put_unreported(3, &[3; 8]),
        Err(PnwError::Full)
    ));
    assert!(matches!(
        e.put_unreported(4, &[0; 4]),
        Err(PnwError::WrongValueSize { expected: 8, got: 4 })
    ));
}

#[test]
fn install_model_swaps_snapshot_and_relabels_together() {
    let cfg = PnwConfig::new(32, 8).with_clusters(2);
    let mut mgr = crate::model::ModelManager::new(&cfg);
    let mut e = ShardEngine::new(cfg);
    let values: Vec<Vec<u8>> = (0..32)
        .map(|i| vec![if i % 2 == 0 { 0x00u8 } else { 0xFF }; 8])
        .collect();
    mgr.train(&values);
    e.install_model(mgr.snapshot());
    assert_eq!(e.model().epoch(), 1);
    assert_eq!(e.model().k(), 2);
    // Pool now has one free list per cluster of the *installed* model.
    assert_eq!(e.pool().clusters(), 2);
}

/// A GET must never return corrupt bytes: a stuck bit that flips the
/// stored value surfaces as a typed, non-retryable [`Corruption`]
/// error carrying the key and shard.
#[test]
fn get_detects_corruption_from_stuck_bit() {
    let mut e = ShardEngine::new(PnwConfig::new(8, 8).with_clusters(1));
    e.put(1, &[0u8; 8]).unwrap();
    assert!(e.arm_stuck_at_key(1, 3, true).unwrap());
    assert!(!e.arm_stuck_at_key(99, 0, true).unwrap(), "absent key");
    assert!(matches!(
        e.get(1),
        Err(PnwError::Corruption { key: 1, shard: 0 })
    ));
    let snap = e.snapshot(TrainStats::default());
    assert!(snap.scrub.crc_failures >= 1);
    assert_eq!(snap.scrub.stuck_bits, 1);
}

/// Write-verify at PUT: a bucket whose media can no longer hold the
/// sealed image is retired permanently and capacity shrinks honestly —
/// the store reports `Full` rather than silently storing bad bytes.
#[test]
fn write_verify_retires_stuck_bucket() {
    let mut e = ShardEngine::new(PnwConfig::new(1, 8).with_clusters(1));
    e.put(1, &[0u8; 8]).unwrap();
    assert!(e.arm_stuck_at_key(1, 0, true).unwrap());
    assert!(e.delete(1).unwrap());
    // The only bucket has a stuck-at-one cell over a zero value: the
    // verify read can't match the sealed image, so the bucket retires
    // and the (now empty) pool reports Full.
    assert!(matches!(e.put(2, &[0u8; 8]), Err(PnwError::Full)));
    let snap = e.snapshot(TrainStats::default());
    assert_eq!(snap.scrub.retired, 1);
    assert_eq!(snap.scrub.crc_failures, 1);
    assert_eq!(snap.capacity, 0, "capacity shrinks by the retired bucket");
    assert_eq!(e.len(), 0);
}

/// Scrub with no durable copy to repair from: the damage is loud, not
/// silent — the bucket retires, the key stays indexed, and every GET
/// of it reports corruption instead of pretending the key is gone.
#[test]
fn scrub_without_durable_copy_retires_loudly() {
    let mut e = ShardEngine::new(PnwConfig::new(4, 8).with_clusters(1));
    e.put(1, &[0u8; 8]).unwrap();
    assert!(e.arm_stuck_at_key(1, 5, true).unwrap());
    let s = e.scrub_pass().unwrap();
    assert_eq!(s.crc_failures, 1);
    assert_eq!(s.repairs, 0, "volatile store has no clean copy");
    assert_eq!(s.retired, 1);
    assert_eq!(e.len(), 1, "loud loss: the key stays indexed");
    assert!(matches!(
        e.get(1),
        Err(PnwError::Corruption { key: 1, .. })
    ));
}

/// Scrub proactively relocates a still-readable value off stuck media:
/// the stuck bit happens to match the stored polarity (CRC passes),
/// but the bucket is a time bomb — the value moves to clean media and
/// the damaged bucket retires.
#[test]
fn scrub_relocates_valid_value_off_stuck_media() {
    let mut e = ShardEngine::new(PnwConfig::new(4, 8).with_clusters(1));
    e.put(1, &[0xFFu8; 8]).unwrap();
    // Stored bit is 1 and the cell latches at 1: CRC still verifies.
    assert!(e.arm_stuck_at_key(1, 0, true).unwrap());
    let s = e.scrub_pass().unwrap();
    assert_eq!(s.crc_failures, 0);
    assert_eq!(s.repairs, 1);
    assert_eq!(s.retired, 1);
    assert_eq!(e.get(1).unwrap().unwrap(), vec![0xFF; 8]);
    let snap = e.snapshot(TrainStats::default());
    assert_eq!(snap.capacity, 3);
    assert_eq!(snap.scrub.stuck_bits, 1);
}

/// A pass returns the shard's whole counters, as the snapshot does: the
/// CRC failure a GET caught and the device's stuck bits included.
#[test]
fn scrub_pass_returns_what_the_snapshot_reports() {
    let mut e = ShardEngine::new(PnwConfig::new(4, 8).with_clusters(1));
    e.put(1, &[0u8; 8]).unwrap();
    assert!(e.arm_stuck_at_key(1, 5, true).unwrap());
    assert!(e.get(1).is_err());
    let pass = e.scrub_pass().unwrap();
    let counts = (pass.crc_failures, pass.retired, pass.stuck_bits);
    assert_eq!(counts, (2, 1, 1));
    assert_eq!(pass, e.snapshot(TrainStats::default()).scrub);
}

/// With integrity off the CRC home bytes (header [4..8]) stay zero —
/// the sealed layout is bit-identical to the pre-integrity format.
/// With it on, the stored CRC is exactly [`bucket_crc`]. Either way the
/// sealed image is, byte for byte, the on-device format every store file
/// so far was written in.
#[test]
fn crc_home_bytes_follow_the_integrity_knob() {
    let value = [0xABu8; 8];
    let mut on = ShardEngine::new(PnwConfig::new(8, 8).with_clusters(1));
    let mut off =
        ShardEngine::new(PnwConfig::new(8, 8).with_clusters(1).with_integrity(false));
    on.put(1, &value).unwrap();
    off.put(1, &value).unwrap();
    let addr_on = on.index.lookup(&on.dev, 1).unwrap().unwrap() as usize;
    let hdr_on = on.dev.peek(addr_on, HDR_BYTES).unwrap();
    let stored = u32::from_le_bytes(hdr_on[4..8].try_into().unwrap());
    assert_eq!(stored, bucket_crc(1, &value));
    assert_ne!(stored, 0);
    let addr_off = off.index.lookup(&off.dev, 1).unwrap().unwrap() as usize;
    let hdr_off = off.dev.peek(addr_off, HDR_BYTES).unwrap();
    assert_eq!(&hdr_off[4..8], &[0u8; 4], "integrity off seals zeros");
    // Golden bytes: flag 0x01, pad [1..4] zero, CRC-32C LE at [4..8] (the
    // Castagnoli CRC of `01 00 00 00 00 00 00 00 AB×8`), key LE at [8..16],
    // then the value.
    const GOLDEN_CRC: [u8; 4] = [0x25, 0x62, 0x81, 0xA4];
    let golden = |crc: [u8; 4]| {
        let mut img = vec![0x01, 0, 0, 0];
        img.extend(crc);
        img.extend([1, 0, 0, 0, 0, 0, 0, 0]);
        img.extend(value);
        img
    };
    assert_eq!(on.dev.peek(addr_on, HDR_BYTES + 8).unwrap(), golden(GOLDEN_CRC));
    assert_eq!(off.dev.peek(addr_off, HDR_BYTES + 8).unwrap(), golden([0; 4]));
    assert_eq!(Header::decode(hdr_on), Header::sealing(1, &value, true));
    assert_eq!(Header::sealing(1, &value, true).encode(), hdr_on);
    // And the off path never reports corruption, even for bad media.
    assert!(off.arm_stuck_at_key(1, 2, true).unwrap());
    assert!(off.get(1).is_ok());
}

/// An index entry naming no bucket of the zone — the zero address a torn
/// path-hash probe can return, with the NVM index placing the data zone at
/// a non-zero offset — is a typed error on the locked TTL path, not an
/// `addr - data_start` underflow.
#[test]
fn out_of_zone_index_address_is_an_error_not_an_underflow() {
    let cfg = PnwConfig::new(8, 8)
        .with_clusters(1)
        .with_ttl()
        .with_index(IndexPlacement::Nvm);
    let e = ShardEngine::new(cfg);
    let start = e.layout.data_start() as u64;
    assert!(start > 0, "the index region comes first");
    for addr in [0, start - 1, start + 5, start + 8 * e.layout.bucket_size() as u64] {
        let err = e.addr_expired(addr, now_unix_ms).unwrap_err();
        assert!(matches!(err, PnwError::Nvm(NvmError::OutOfBounds { .. })), "{addr}: {err:?}");
    }
    assert_eq!(e.addr_expired(start, now_unix_ms), Ok(false));
}

// ---- The wall clock: read only for a deadline ------------------------------

#[test]
fn a_store_without_ttl_never_reads_the_wall_clock() {
    let mut e = ShardEngine::new(PnwConfig::new(16, 8).with_clusters(1));
    let reads = wall_reads();
    e.put(1, &[1; 8]).unwrap();
    e.put(1, &[2; 8]).unwrap();
    assert_eq!(e.get(1).unwrap().unwrap(), [2; 8]);
    assert!(e.delete(1).unwrap());
    assert!(!e.delete(1).unwrap());
    e.put(2, &[3; 8]).unwrap();
    e.scrub_step(16).unwrap();
    assert_eq!(wall_reads(), reads);
}

#[test]
fn a_ttl_store_reads_the_wall_clock_only_for_a_deadline_and_still_expires() {
    let mut e = ShardEngine::new(PnwConfig::new(16, 8).with_clusters(1).with_ttl());
    let reads = wall_reads();
    e.put(1, &[1; 8]).unwrap();
    assert!(e.get(1).unwrap().is_some());
    e.scrub_step(16).unwrap();
    assert!(e.delete(1).unwrap());
    assert_eq!(wall_reads(), reads, "no deadline, no clock read");

    let past = now_unix_ms() - 1;
    e.put_with_expiry(2, &[2; 8], past).unwrap();
    e.put_with_expiry(3, &[3; 8], past).unwrap();
    e.put_with_expiry(4, &[4; 8], now_unix_ms() + 3_600_000).unwrap();
    assert_eq!(e.get(2).unwrap(), None, "overdue reads as absent");
    assert!(e.get(4).unwrap().is_some());
    assert!(!e.delete(2).unwrap(), "an expired key did not exist");
    e.scrub_step(16).unwrap();
    assert_eq!(e.len(), 1, "the scrub step reclaimed key 3");
    assert_eq!(e.snapshot(TrainStats::default()).scrub.expired, 2);
    assert!(wall_reads() > reads + 2);
}

// ---- Write brackets: one publication per op ---------------------------------

/// Runs `op` and returns how far it moved the seqlock sequence, which must
/// end even (no bracket left open).
fn seq_advance<R>(e: &mut ShardEngine, op: impl FnOnce(&mut ShardEngine) -> R) -> (u64, R) {
    let before = e.read.sync.seq();
    let out = op(e);
    let after = e.read.sync.seq();
    assert_eq!(after % 2, 0, "a bracket was left open");
    (after - before, out)
}

#[test]
fn every_put_and_delete_publishes_exactly_one_bracket() {
    let mut e = trained(32);
    e.prefill_free_buckets(|| vec![0xFF; V]).unwrap();
    let (n, r) = seq_advance(&mut e, |e| e.put(1, &[0x00; V]).unwrap().1);
    assert_eq!((n, r), (2, PutPath::Fresh), "fresh");
    let (n, r) = seq_advance(&mut e, |e| e.put(1, &[0x01; V]).unwrap().1);
    assert_eq!((n, r), (2, PutPath::InPlace), "in place");
    let (n, r) = seq_advance(&mut e, |e| e.put(1, &[0xFF; V]).unwrap().1);
    assert_eq!((n, r), (2, PutPath::Fresh), "relocating");
    assert_eq!(seq_advance(&mut e, |e| e.delete(1).unwrap()), (2, true), "delete hit");
    // A miss changes nothing, so it publishes nothing.
    assert_eq!(seq_advance(&mut e, |e| e.delete(1).unwrap()), (0, false), "delete miss");
}

#[test]
fn a_batch_group_publishes_its_nested_brackets_once() {
    let mut e = trained(32);
    let mut batch = crate::api::Batch::new();
    for k in 0..6u64 {
        batch.put(k, &[k as u8; V]);
    }
    batch.delete(2).delete(99);
    let ops = batch.ops();
    let mut report = crate::api::BatchReport::default();
    let (n, _) = seq_advance(&mut e, |e| e.apply_group(ops, 0..ops.len(), &mut report));
    assert_eq!(n, 2);
    assert_eq!((report.puts, report.deletes, report.deleted_existing), (6, 2, 1));
}

#[test]
fn a_put_that_fails_inside_its_bracket_still_closes_it() {
    let mut e = ShardEngine::new(PnwConfig::new(1, V).with_clusters(1));
    e.put(1, &[1; V]).unwrap();
    let (n, r) = seq_advance(&mut e, |e| e.put(2, &[2; V]));
    assert!(matches!(r, Err(PnwError::Full)));
    assert_eq!(n, 2);
}

// ---- The priced update: the per-update placement decision ---------------

const V: usize = 8;

/// A volatile engine — every bucket virgin and free — under a model
/// trained on two byte families, `0x00…` and `0xFF…`.
fn trained(capacity: usize) -> ShardEngine {
    let cfg = PnwConfig::new(capacity, V).with_clusters(2).with_seed(5);
    let mut mgr = crate::model::ModelManager::new(&cfg);
    let values: Vec<Vec<u8>> = (0..32).map(|i| vec![[0x00, 0xFF][i % 2]; V]).collect();
    mgr.train(&values);
    let mut e = ShardEngine::new(cfg);
    e.install_model(mgr.snapshot());
    e
}

/// The bucket the index links `key` to.
fn bucket_of(e: &ShardEngine, key: u64) -> u32 {
    let addr = e.index.lookup(&e.dev, key).unwrap().expect("key stored");
    e.bucket_of_addr(addr).unwrap()
}

/// `0xFF…` with bit `i % 8` of the last byte cleared: any two of these
/// differ in at most two bits.
fn ff_minus(i: u32) -> [u8; V] {
    let mut v = [0xFF; V];
    v[V - 1] ^= 1 << (i % 8);
    v
}

#[test]
fn cheapest_goes_in_place_when_that_flips_fewer_bits() {
    let mut e = trained(32);
    e.put(1, &ff_minus(0)).unwrap();
    let b = bucket_of(&e, 1);
    // Two value bits and the seal's share, against a virgin candidate
    // that needs the whole `0xFF…` value, the header and a flag clear.
    let (r, path) = e.put(1, &ff_minus(1)).unwrap();
    assert_eq!(path, PutPath::InPlace);
    assert_eq!(bucket_of(&e, 1), b);
    assert_eq!(e.in_place_run[b as usize], 1);
    assert_eq!(e.snapshot(TrainStats::default()).updates_in_place, 1);
    // The prediction it priced with is reported and cached.
    let cluster = e.model().predict(&ff_minus(1));
    assert_eq!(r.cluster, cluster);
    assert_eq!(e.labels[b as usize], label_u16(cluster));
    assert_eq!(e.get(1).unwrap().unwrap(), ff_minus(1));
}

#[test]
fn cheapest_relocates_when_the_pool_candidate_flips_fewer_bits() {
    let mut e = trained(32);
    // Every free bucket already holds the new value's bytes.
    e.prefill_free_buckets(|| vec![0xFF; V]).unwrap();
    e.put(1, &[0x00; V]).unwrap();
    let old = bucket_of(&e, 1);
    let free = e.pool().free();
    let (r, path) = e.put(1, &[0xFF; V]).unwrap();
    assert_eq!(path, PutPath::Fresh);
    assert_ne!(bucket_of(&e, 1), old);
    assert_eq!(r.value_write.bit_flips, 0, "landed on its own bytes");
    // The vacated bucket is flag-cleared and back in the pool.
    assert!(!e.header(old).unwrap().1.valid);
    assert_eq!(e.pool().free(), free);
    assert_eq!(e.snapshot(TrainStats::default()).updates_in_place, 0);
    assert_eq!(e.get(1).unwrap().unwrap(), [0xFF; V]);
}

#[test]
fn the_eighth_consecutive_update_relocates_and_the_run_restarts() {
    let mut e = trained(32);
    e.put(1, &ff_minus(0)).unwrap();
    let b = bucket_of(&e, 1);
    for i in 1..=u32::from(MAX_IN_PLACE_RUN) {
        assert_eq!(e.put(1, &ff_minus(i)).unwrap().1, PutPath::InPlace, "update {i}");
    }
    assert_eq!(e.in_place_run[b as usize], MAX_IN_PLACE_RUN);
    // The eighth is still the cheaper in place, but the run is spent.
    assert_eq!(e.put(1, &ff_minus(8)).unwrap().1, PutPath::Fresh);
    let moved = bucket_of(&e, 1);
    assert_ne!(moved, b);
    assert_eq!(e.in_place_run[moved as usize], 0, "a new tenancy");
    assert_eq!(e.put(1, &ff_minus(9)).unwrap().1, PutPath::InPlace);
    assert_eq!(e.in_place_run[moved as usize], 1);
}

#[test]
fn an_untrained_store_always_relocates() {
    let mut e = ShardEngine::new(PnwConfig::new(32, V).with_clusters(2));
    e.put(1, &[0xAB; V]).unwrap();
    for _ in 0..3 {
        // Rewriting the same bytes in place would flip nothing.
        assert_eq!(e.put(1, &[0xAB; V]).unwrap().1, PutPath::Fresh);
    }
    assert_eq!(e.snapshot(TrainStats::default()).updates_in_place, 0);
}

#[test]
fn a_durable_shard_always_relocates() {
    let name = format!("pnw_shard_{}_durable_cheapest", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PnwConfig::new(32, V).with_clusters(2).with_path(&dir);
    let s = crate::PnwStore::open(cfg).unwrap();
    for k in 0..16u64 {
        s.put(k, &[[0x00, 0xFF][k as usize % 2]; V]).unwrap();
    }
    s.retrain_now().unwrap();
    for k in 0..16u64 {
        // Same bytes: in place would flip nothing, and still relocates.
        s.put(k, &[[0x00, 0xFF][k as usize % 2]; V]).unwrap();
    }
    assert_eq!(s.snapshot().updates_in_place, 0);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A key whose bucket the scrubber retired with no clean copy stays
/// indexed (loud). An update of it relocates however cheap the rewrite —
/// here the stuck bit even matches the new value, so write-verify would
/// pass: a value left in place would sit on media that neither the
/// scrubber nor ring reclaim visits again.
#[test]
fn an_update_never_rewrites_a_retired_bucket_in_place() {
    let mut e = trained(64);
    e.prefill_free_buckets(|| vec![0xFF; V]).unwrap();
    e.put(1, &[0x00; V]).unwrap();
    let b = bucket_of(&e, 1);
    assert!(e.arm_stuck_at_key(1, 0, true).unwrap());
    assert_eq!(e.scrub_pass().unwrap().retired, 1);
    let mut v = [0x00; V];
    v[0] = 1;
    assert_eq!(e.put(1, &v).unwrap().1, PutPath::Fresh);
    assert_eq!(e.snapshot(TrainStats::default()).updates_in_place, 0);
    assert_ne!(bucket_of(&e, 1), b);
    assert_eq!(e.get(1).unwrap().unwrap(), v);
}

/// The 7 821-write regression: a relocation whose predicted free list is
/// empty must fall back to another list, never pop the bucket it just
/// vacated (which, pushed first, would sit alone in exactly that list).
#[test]
fn a_relocation_with_an_empty_predicted_list_never_reuses_the_vacated_bucket() {
    let mut e = trained(8);
    e.put(1, &ff_minus(0)).unwrap();
    let b = bucket_of(&e, 1);
    let cluster = e.model().predict(&ff_minus(0));
    // Every free bucket is virgin, so the `0xFF…` list is empty.
    assert_eq!(e.pool().free_in(cluster), 0);
    for i in 1..=u32::from(MAX_IN_PLACE_RUN) {
        e.put(1, &ff_minus(i)).unwrap();
    }
    let (r, path) = e.put(1, &ff_minus(0)).unwrap();
    assert_eq!((path, r.fallback), (PutPath::Fresh, true));
    assert_ne!(bucket_of(&e, 1), b);
    assert_eq!(e.pool().free_in(cluster), 1, "the vacated bucket, afterwards");
    e.check_labels();
}

/// In-place and relocating updates, fresh PUTs and deletes land while a
/// label pass is open; its install still leaves every free bucket in its
/// content's list and no tenant with a wrong cached label.
#[test]
fn labels_hold_across_mixed_updates_under_a_label_pass() {
    let mut e = trained(64);
    e.prefill_free_buckets(|| vec![0x00; V]).unwrap();
    for k in 0..24u64 {
        e.put(k, &[[0x00, 0xFF][k as usize % 2]; V]).unwrap();
    }
    let cfg = e.config().clone().with_seed(9);
    let mut mgr = crate::model::ModelManager::new(&cfg);
    mgr.train(&e.training_values(usize::MAX));
    let next = mgr.snapshot();
    // The pass reads the zone as it stands when it begins.
    let active = e.begin_label_pass();
    let labels: Vec<u16> = (0..active as u32)
        .map(|b| {
            let vaddr = value_addr(e.layout.addr(b));
            label_u16(next.predict(e.dev.peek(vaddr, V).unwrap()))
        })
        .collect();
    let mut paths = [0u32; 2];
    for k in 0..24u64 {
        // Odd keys take a one-bit change (in place); even keys move from
        // `0x00…` to `0xFF…`, which no free bucket holds — in place too —
        // or back, onto a prefilled `0x00…` bucket.
        let v = if k % 2 == 1 { ff_minus(k as u32) } else { [0xFF; V] };
        paths[usize::from(e.put(k, &v).unwrap().1 == PutPath::InPlace)] += 1;
        if k % 4 == 0 {
            paths[usize::from(e.put(k, &[0x00; V]).unwrap().1 == PutPath::InPlace)] += 1;
        }
    }
    assert!(paths.iter().all(|&n| n > 0), "both paths taken: {paths:?}");
    e.put(100, &[0xFF; V]).unwrap();
    assert!(e.delete(3).unwrap());
    e.install_labelled(next, &labels);
    e.check_labels();
    for k in (0..24u64).filter(|k| k % 4 == 0) {
        e.put(k, &ff_minus(1)).unwrap();
    }
    e.check_labels();
}
