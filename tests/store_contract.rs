//! The [`Store`] contract on the PNW store (1 and 4 shards, volatile or
//! durable) and the three baselines, through `&dyn Store`. A cell the
//! oracle's op language can state (`common/oracle.rs`) is a short script
//! checked op by op against a `BTreeMap` reference. Hand-written: overfill
//! to each backend's own `Full`, bit-for-bit batch accounting, reserve
//! extension in a batch, the error taxonomy, corruption, concurrency, ring
//! retention.

mod common;

use common::oracle::{baselines, check, durable_dir, Backend, Step, Step::*};
use pnw::core_api::{now_unix_ms, Batch, IndexPlacement, PnwConfig, PnwStore, Store, StoreError};

fn contract_cfg(capacity: usize, value_size: usize) -> PnwConfig {
    PnwConfig::new(capacity, value_size).with_clusters(2.min(capacity)).with_seed(11)
}

/// All four backends at the given geometry — PNW twice, at 1 and at 4
/// shards.
fn backends(capacity: usize, value_size: usize) -> Vec<Backend> {
    let cfg = contract_cfg(capacity, value_size);
    vec![
        Backend::pnw("PNW, 1 shard", cfg.clone()),
        Backend::pnw("PNW, 4 shards", cfg.with_shards(4)),
    ]
    .into_iter()
    .chain(baselines(capacity, value_size))
    .collect()
}

/// A file-backed PNW store in its own directory.
fn durable(tag: &str, cfg: PnwConfig) -> Backend {
    Backend::pnw(&format!("durable PNW ({tag})"), cfg.with_path(durable_dir(tag)))
}

/// Writes 48 keys, reads each back both ways, overwrites half, deletes a
/// quarter twice (the second delete misses) and reads absent keys.
fn round_trip(reopen: bool) -> Vec<Step> {
    let mut script: Vec<Step> = (0..48).map(|k| Put(k, k as u8)).collect();
    script.extend((0..48).flat_map(|k| [Get(k), GetInto(k)]));
    script.extend(reopen.then_some(CloseReopen));
    script.extend((0..24).map(|k| Put(k, 0xD0 | (k % 4) as u8)));
    script.extend((0..12).flat_map(|k| [Delete(k), Delete(k)]));
    script.extend(reopen.then_some(CloseReopen));
    script.extend((0..48).flat_map(|k| [Get(k), GetInto(k)]));
    script.extend([Get(100), GetInto(100)]);
    script
}

#[test]
fn put_get_delete_round_trips_on_every_backend() {
    for b in backends(128, 16) {
        let live = check(&b, &round_trip(false));
        assert!(live.store().snapshot().device.totals.bit_flips > 0, "{}", b.name);
    }
}

#[test]
fn wrong_value_size_is_rejected_uniformly() {
    for b in backends(32, 16) {
        check(&b, &[PutWrongSize(1), Put(1, 1), GetIntoWrongSize(1)]);
    }
}

#[test]
fn overfilling_reports_full_not_a_panic() {
    for b in backends(16, 8) {
        let live = check(&b, &[]);
        let (s, name) = (live.store(), &b.name);
        // Distinct keys well past capacity: every backend must eventually
        // say Full (at its own structural limit — pool, leaves, level
        // area) instead of panicking or corrupting.
        let first_error = (0..2_000u64).find_map(|k| s.put(k, &[k as u8; 8]).err());
        assert_eq!(first_error, Some(StoreError::Full), "{name}");
        // The store keeps serving reads after rejecting writes.
        assert_eq!(s.get(0).unwrap().unwrap(), vec![0u8; 8], "{name}");
    }
}

/// Inserts, deletes and re-inserts, interleaved, ending in a miss.
fn contract_ops() -> Vec<Step> {
    let mut ops: Vec<Step> = (0..40).map(|k| Put(k, (k % 5) as u8 * 0x11)).collect();
    ops.extend((0..40).step_by(3).map(Delete));
    ops.extend((0..10).map(|k| Put(k, 0xEE)));
    ops.push(Delete(999));
    ops
}

/// `ops` as `apply`s of seven ops each.
fn batched(ops: &[Step]) -> impl Iterator<Item = Step> + '_ {
    ops.chunks(7).map(|chunk| Apply(chunk.to_vec()))
}

/// Each batch answers, and leaves contents and counters, exactly as the
/// reference does op by op.
#[test]
fn batch_apply_is_equivalent_to_per_op_on_every_backend() {
    let script: Vec<Step> = batched(&contract_ops()).chain((0..40).map(Get)).collect();
    for b in backends(128, 8) {
        check(&b, &script);
    }
}

/// The acceptance criterion for the batch path: the store driven through
/// `apply` produces *bit-for-bit* the same device state and accounting as
/// the same store driven per-op, at 1 and at 4 shards — the batch fast
/// path changes cost, never writes. Both sides answer as the reference.
#[test]
fn batch_path_matches_per_op_bit_for_bit() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    // Warm with two bit-pattern families and train, then seeded churn:
    // per-op on one store, batches of 16 on the other, same op order.
    let family = |k: u64| if k.is_multiple_of(2) { 0x00 } else { 0xFF };
    let warm: Vec<Step> = (0..96).map(|k| Put(k, family(k))).collect();
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let churn: Vec<Step> = (0..400)
        .map(|_| match (rng.gen_range(0..128u64), rng.gen_range(0..10u8)) {
            (k, 0..=6) => Put(k, family(k) ^ rng.gen_range(0..4u8)),
            (k, _) => Delete(k),
        })
        .collect();
    let per_op_side = [warm.clone(), vec![Retrain], churn.clone()].concat();
    let batches = churn.chunks(16).map(|c| Apply(c.to_vec()));
    let batch_side: Vec<Step> = [Apply(warm), Retrain].into_iter().chain(batches).collect();
    for shards in [1, 4] {
        let cfg = PnwConfig::new(256, 16).with_clusters(3).with_seed(99).with_shards(shards);
        let per_op = check(&Backend::pnw("PNW, per-op", cfg.clone()), &per_op_side);
        let batched = check(&Backend::pnw("PNW, batched", cfg), &batch_side);
        let (a, b) = (per_op.store().snapshot(), batched.store().snapshot());
        assert_eq!(a.device, b.device, "{shards} shards");
        assert_eq!((a.free, a.fallbacks), (b.free, b.fallbacks), "{shards} shards");
    }
}

/// Regression for the batch/per-op maintenance divergence: a batch must
/// never report `Full` where the same ops issued individually would have
/// extended the zone from the reserve mid-stream — extension runs at the
/// per-op path's op boundaries, so with Manual retrain the device state
/// stays bit-for-bit identical even across an auto-extension.
#[test]
fn batch_extends_from_reserve_exactly_like_per_op() {
    let cfg = PnwConfig::new(8, 8).with_clusters(2).with_seed(3).with_reserve(16);
    let cfg = cfg.with_load_factor(0.5);
    let puts: Vec<Step> = (0..12).map(|k| Put(k, k as u8)).collect();
    let per_op = check(&Backend::pnw("PNW, per-op", cfg.clone()), &puts);
    let batched = check(&Backend::pnw("PNW, batched", cfg), &[Apply(puts)]);
    let capacity = |live: &common::oracle::Live| live.store().snapshot().capacity;
    assert_eq!(capacity(&batched), capacity(&per_op));
    assert_eq!(batched.store().device_stats(), per_op.store().device_stats());
}

/// Regression for the deleted adapter's lossy error mapping: no backend
/// may ever report `ModelUnavailable` as `Full`, and batch failures carry
/// the real error.
#[test]
fn error_taxonomy_is_lossless() {
    assert_ne!(StoreError::ModelUnavailable, StoreError::Full);
    let s = PnwStore::new(PnwConfig::new(4, 8).with_clusters(1));
    let mut batch = Batch::new();
    for k in 0..5u64 {
        batch.put(k, &[k as u8; 8]);
    }
    let r = s.apply(batch.put(9, &[0u8; 2]));
    let wrong_size = StoreError::WrongValueSize { expected: 8, got: 2 };
    assert_eq!(r.failures, [(4, StoreError::Full), (5, wrong_size)], "the real errors, in order");
}

// ---------------------------------------------------------------------------
// File-backed conformance: the contract holds across drop-and-reopen.
// ---------------------------------------------------------------------------

/// The round-trip contract holds for a file-backed store *across*
/// close-and-reopen cycles in the middle of the op mix — at 1 and at 4
/// shards.
#[test]
fn file_backed_round_trips_survive_reopen_cycles() {
    for shards in [1, 4] {
        let cfg = contract_cfg(128, 16).with_shards(shards);
        check(&durable(&format!("roundtrip_{shards}"), cfg), &round_trip(true));
    }
}

/// A file-backed store that filled up (the reference knows a one-shard
/// store's exact capacity) still reports `Full` — not a panic, not
/// corruption — after a reopen, and keeps serving committed reads.
#[test]
fn file_backed_overfill_reports_full_across_reopen() {
    let mut script: Vec<Step> = (0..17).map(|k| Put(k, k as u8)).collect();
    script.extend([CloseReopen, Put(9_999, 0xAA)]);
    script.extend((0..16).map(Get));
    check(&durable("overfill", contract_cfg(16, 8)), &script);
}

/// Batched `apply` ≡ per-op on a file-backed store even when both sides
/// close and reopen mid-sequence: same answers, contents and counters,
/// and the same device accounting.
#[test]
fn file_backed_batch_apply_equals_per_op_across_reopen() {
    let ops = contract_ops();
    let (first, second) = ops.split_at(ops.len() / 2);
    let side = |first: Vec<Step>, second: Vec<Step>| {
        [first, vec![CloseReopen], second, vec![CloseReopen], (0..40).map(Get).collect()].concat()
    };
    let batch_side = side(batched(first).collect(), batched(second).collect());
    let per_op_side = side(first.to_vec(), second.to_vec());
    let batched = check(&durable("batch_side", contract_cfg(128, 8)), &batch_side);
    let per_op = check(&durable("perop_side", contract_cfg(128, 8)), &per_op_side);
    assert_eq!(batched.store().device_stats(), per_op.store().device_stats());
}

// ---------------------------------------------------------------------------
// Integrity: detected corruption surfaces identically at 1 and 4 shards.
// ---------------------------------------------------------------------------

/// A stuck bit under a sealed value turns the next read of that key into
/// a typed `Corruption { key, .. }` error — never silently wrong bytes —
/// and the contract is identical at 1 and at 4 shards. Unaffected keys
/// keep serving.
#[test]
fn corruption_surfaces_identically_on_both_pnw_frontends() {
    let cfg = contract_cfg(64, 16);
    for shards in [1, 4] {
        let store = PnwStore::new(cfg.clone().with_shards(shards));
        for k in 0..8u64 {
            store.put(k, &[0u8; 16]).unwrap();
        }
        assert!(store.arm_stuck_at_key(5, 3, true).unwrap(), "{shards} shards: key 5 is present");
        // Both read entry points report the same typed error...
        let corrupt = |got| matches!(got, Err(StoreError::Corruption { key: 5, .. }));
        assert!(corrupt(store.get(5).map(drop)), "{shards} shards: get");
        assert!(corrupt(store.get_into(5, &mut [0u8; 16]).map(drop)), "{shards} shards: get_into");
        // ...and the blast radius is one key: every other key still reads.
        for k in (0..8u64).filter(|&k| k != 5) {
            assert_eq!(store.get(k).unwrap().unwrap(), vec![0u8; 16], "key {k}");
        }
        assert!(store.snapshot().scrub.crc_failures >= 1, "{shards} shards");

        // With integrity off the store reverts to the old contract: the
        // stuck bit reads back silently (no CRC, no error) — the benchmark
        // baseline, bit-identical to the pre-integrity format.
        let off = PnwStore::new(cfg.clone().with_integrity(false).with_shards(shards));
        // Arm before the key exists: absent key, nothing to arm against.
        assert!(!off.arm_stuck_at_key(5, 3, true).unwrap(), "{shards} shards");
        off.put(5, &[0u8; 16]).unwrap();
        assert_eq!(off.get(5).unwrap().unwrap(), vec![0u8; 16], "{shards} shards");
    }

    // A bare engine (the read walk behind its owner's reference) and a
    // one-shard store (the same walk under seqlock validation), fed the
    // same ops, must answer every GET alike, and the store's scan must
    // return what those GETs serve — across live and expired TTL entries,
    // a bucket the scrubber retired, and a bucket failing its CRC — on
    // both index placements (the NVM one puts the data zone at a non-zero
    // offset).
    use pnw::core_api::ShardEngine;
    for index in [IndexPlacement::Dram, IndexPlacement::Nvm] {
        let cfg = cfg.clone().with_ttl().with_index(index);
        let (mut engine, store) = (ShardEngine::new(cfg.clone()), PnwStore::new(cfg));
        let put = |engine: &mut ShardEngine, key: u64, deadline: u64| {
            engine.put_with_expiry(key, &[key as u8; 16], deadline).unwrap();
            store.put_with_expiry(key, &[key as u8; 16], deadline).unwrap();
        };
        let later = now_unix_ms() + 3_600_000;
        (0..12u64).for_each(|k| put(&mut engine, k, if k % 2 == 0 { 0 } else { later }));
        // Key 3 (0b11): a cell stuck at its stored polarity — the CRC
        // holds, so the scrub relocates the value and retires the bucket.
        assert!(engine.arm_stuck_at_key(3, 0, true).unwrap());
        assert!(store.arm_stuck_at_key(3, 0, true).unwrap());
        assert_eq!(engine.scrub_pass().unwrap().retired, 1, "{index:?}");
        assert_eq!(store.scrub_pass().unwrap().retired, 1, "{index:?}");
        // Overdue entries go in after the scrub (which would reclaim
        // them); key 4 (0b100) then gets a cell stuck against its stored
        // polarity, and is left unscrubbed: a CRC-failing bucket.
        (12..16u64).for_each(|k| put(&mut engine, k, 1));
        assert!(engine.arm_stuck_at_key(4, 0, true).unwrap());
        assert!(store.arm_stuck_at_key(4, 0, true).unwrap());

        for key in 0..17u64 {
            let (mut locked, mut lock_free) = ([0u8; 16], [0u8; 16]);
            let answer = engine.get_into(key, &mut locked);
            assert_eq!(answer, store.get_into(key, &mut lock_free), "{index:?} key {key}");
            match key {
                4 => assert_eq!(answer, Err(StoreError::Corruption { key: 4, shard: 0 })),
                12.. => assert_eq!(answer, Ok(false), "{index:?} key {key}: overdue or absent"),
                _ => assert_eq!((answer, locked), (Ok(true), lock_free), "{index:?} key {key}"),
            }
        }
        let scanned = store.scan(0, 100).unwrap();
        let expected: Vec<(u64, Vec<u8>)> = (0..12)
            .filter(|&k| k != 4)
            .map(|k| (k, engine.get(k).unwrap().unwrap()))
            .collect();
        assert_eq!(scanned, expected, "{index:?}: CRC-failing and overdue skipped");
    }
}


// ---------------------------------------------------------------------------
// Range scans: one ordered-scan contract, four backends.
// ---------------------------------------------------------------------------

/// `scan` returns ascending committed `(key, value)` pairs over the
/// inclusive range, on every backend: empty store, empty sub-range,
/// inverted bounds, full range, and after overwrites and deletes.
#[test]
fn scan_contract_holds_on_every_backend() {
    let mut script = vec![Scan(0, u64::MAX)];
    script.extend([3, 7, 10, 11, 64, 100, 101].map(|k| Put(k, k as u8)));
    script.extend([Scan(0, u64::MAX), Scan(10, 64), Scan(7, 7), Scan(12, 63), Scan(64, 10)]);
    script.extend([Put(10, 0xEE), Delete(11), Scan(10, 64)]);
    for b in backends(128, 16) {
        check(&b, &script);
    }
}

/// A range spanning every shard of the sharded store comes back as one
/// ascending sequence that agrees with point GETs key-for-key.
#[test]
fn scan_spans_shards_and_matches_point_gets() {
    // Consecutive keys land on different shards under any reasonable
    // partition, so [0, 95] crosses all four.
    let mut script: Vec<Step> = (0..96).map(|k| Put(k, (k % 7) as u8)).collect();
    script.push(Scan(0, 95));
    script.extend((0..96).map(Get));
    check(&Backend::pnw("PNW, 4 shards", contract_cfg(256, 16).with_shards(4)), &script);
}

/// Scans running against live writers never observe a torn value, on any
/// backend: every value written is a uniform fill, so a single mixed byte
/// proves a torn read. On the sharded store this exercises the seqlock
/// snapshot path under real contention.
#[test]
fn scan_never_observes_torn_values_under_concurrent_writes() {
    for b in backends(512, 64) {
        let live = check(&b, &[]);
        let s = live.store();
        for k in 0..48u64 {
            s.put(k, &[0x01; 64]).unwrap();
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let stop = &stop;
                scope.spawn(move || {
                    let mut fill = 0x10u8.wrapping_add(t as u8);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for k in (t * 24)..(t * 24 + 24) {
                            s.put(k, &[fill; 64]).unwrap();
                        }
                        fill = fill.wrapping_add(0x11).max(1);
                    }
                });
            }
            for _ in 0..200 {
                for (k, v) in s.scan(0, 47).unwrap() {
                    assert!(
                        v.iter().all(|b| *b == v[0]),
                        "{} key {k}: torn value {:02x?}...",
                        b.name,
                        &v[..8.min(v.len())]
                    );
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(s.scan(0, 47).unwrap().len(), 48, "{}", b.name);
    }
}

// ---------------------------------------------------------------------------
// TTL: lazy expiry on the read path, at 1 and at 4 shards.
// ---------------------------------------------------------------------------

/// Past its deadline a key disappears from GET, `get_into` and scans —
/// without any explicit delete — while plain PUTs (deadline 0) never
/// expire. The key is reusable.
#[test]
fn ttl_expired_keys_hide_from_get_and_scan() {
    // Deadlines past and an hour out; plain PUTs never expire.
    let mut script = vec![PutExpiring(1, 0x11, true), PutExpiring(4, 0x44, false), Put(2, 0x22)];
    script.extend([Put(3, 0x33), Get(4), Get(1), GetInto(1), Scan(0, 10), Put(1, 0x44), Get(1)]);
    for shards in [1, 4] {
        let cfg = contract_cfg(64, 16).with_ttl().with_shards(shards);
        check(&Backend::pnw(&format!("PNW, TTL, shards = {shards}"), cfg), &script);
    }
}

/// Expiry deadlines are durable: after a kill (a drop without a
/// checkpoint — the WAL alone carries the state) and a reopen, the
/// expired key is not resurrected by WAL replay; unexpired and non-TTL
/// keys survive. A clean close/reopen cycle agrees.
#[test]
fn ttl_expiry_survives_kill_and_reopen() {
    let mut script = vec![PutExpiring(1, 0x11, true), Put(2, 0x22), Put(3, 0x33)];
    script.extend([PutExpiring(4, 0x44, false), Reopen, Get(1), Scan(0, 10), Get(2), Get(3)]);
    script.extend([Get(4), CloseReopen, Get(1), Get(4)]);
    check(&durable("ttl_kill", contract_cfg(64, 16).with_ttl()), &script);
}

// ---------------------------------------------------------------------------
// Ring retention: a full zone makes room for a fresh PUT itself — overdue
// entries first, then the live entry with the earliest deadline.
// ---------------------------------------------------------------------------

/// Runs `cell` on a ring-retention store of `capacity` 16-byte values over
/// `shards` shards, volatile and then durable (in a fresh directory).
fn ring_cell(tag: &str, capacity: usize, shards: usize, cell: impl Fn(&str, PnwConfig)) {
    let cfg = contract_cfg(capacity, 16).with_ring_retention().with_shards(shards);
    cell(&format!("volatile, {shards} shard(s)"), cfg.clone());
    let dir = durable_dir(&format!("ring_{tag}_{shards}"));
    let _ = std::fs::remove_dir_all(&dir);
    cell(&format!("durable, {shards} shard(s)"), cfg.with_path(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deadline an hour out, `rank` ms after `base`'s.
fn deadline(base: u64, rank: u64) -> u64 {
    base + 3_600_000 + rank
}

/// On one shard each fresh PUT into a full zone evicts exactly the live
/// key with the earliest deadline — not the oldest write, not the lowest
/// key — which then reads absent while every other key keeps its value.
#[test]
fn ttl_ring_evicts_exactly_the_earliest_deadline() {
    ring_cell("earliest", 8, 1, |name, cfg| {
        let store = PnwStore::open(cfg).unwrap();
        let (base, rank) = (now_unix_ms(), |k: u64| (k * 5 + 3) % 8);
        for k in 0..8 {
            store.put_with_expiry(k, &[k as u8; 16], deadline(base, rank(k))).unwrap();
        }
        let mut by_deadline: Vec<u64> = (0..8).collect();
        by_deadline.sort_by_key(|&k| rank(k));
        for (i, &victim) in by_deadline.iter().enumerate() {
            let fresh = 100 + i as u64;
            store.put_with_expiry(fresh, &[fresh as u8; 16], deadline(base, fresh)).unwrap();
            assert_eq!(store.get(victim).unwrap(), None, "{name}: key {victim} was not evicted");
            for &k in &by_deadline[i + 1..] {
                assert_eq!(store.get(k).unwrap(), Some(vec![k as u8; 16]), "{name}: key {k}");
            }
            assert_eq!(store.snapshot().scrub.evicted, i as u64 + 1, "{name}");
            assert_eq!(store.len(), 8, "{name}");
        }
    });
}

/// A full zone holding two overdue entries reclaims both, as expiries,
/// and evicts no live entry; only once the freed room is used does a
/// fresh PUT evict, and then the earliest live deadline.
#[test]
fn ttl_ring_reclaims_overdue_entries_before_evicting_live_ones() {
    ring_cell("overdue", 8, 1, |name, cfg| {
        let store = PnwStore::open(cfg).unwrap();
        let base = now_unix_ms();
        for k in 0..8 {
            let due = if k == 2 || k == 5 { 1 } else { deadline(base, k) };
            store.put_with_expiry(k, &[k as u8; 16], due).unwrap();
        }
        let reclaimed = || {
            let s = store.snapshot().scrub;
            (s.expired, s.evicted)
        };
        for (fresh, want) in [(100, (2, 0)), (101, (2, 0)), (102, (2, 1))] {
            store.put_with_expiry(fresh, &[fresh as u8; 16], deadline(base, fresh)).unwrap();
            assert_eq!(reclaimed(), want, "{name}: (expired, evicted) after PUT {fresh}");
        }
        assert_eq!(store.get(0).unwrap(), None, "{name}: key 0 had the earliest live deadline");
        for k in [1, 3, 4, 6, 7, 100, 101, 102] {
            assert_eq!(store.get(k).unwrap(), Some(vec![k as u8; 16]), "{name}: key {k}");
        }
    });
}

/// Entries without a deadline are never evicted, though their deadline
/// (0) sorts first: with one deadline entry among them, a full shard gives
/// that one up, and after that it answers `Full`.
#[test]
fn ttl_ring_never_evicts_entries_without_a_deadline() {
    for shards in [1, 4] {
        ring_cell("no_deadline", 8, shards, |name, cfg| {
            let store = PnwStore::open(cfg).unwrap();
            store.put_with_expiry(0, &[0; 16], deadline(now_unix_ms(), 0)).unwrap();
            let (mut stored, mut full) = (Vec::new(), 0);
            for k in 1..200u64 {
                match store.put(k, &[k as u8; 16]) {
                    Ok(_) => stored.push(k),
                    Err(StoreError::Full) => full += 1,
                    Err(e) => panic!("{name}: PUT {k}: {e}"),
                }
            }
            assert!(full > 0, "{name}: the zone never filled");
            assert_eq!(store.snapshot().scrub.evicted, 1, "{name}");
            assert_eq!(store.get(0).unwrap(), None, "{name}: the deadline entry was evicted");
            for k in stored {
                assert_eq!(store.get(k).unwrap(), Some(vec![k as u8; 16]), "{name}: key {k}");
            }
            assert_eq!(store.len(), 8, "{name}");
        });
    }
}

/// An evicted key stays absent across a kill (a drop without a
/// checkpoint: the WAL alone carries the state) and a reopen: eviction
/// commits a delete, so replay cannot bring the key back.
#[test]
fn ttl_ring_eviction_survives_kill_and_reopen() {
    for shards in [1, 4] {
        let dir = durable_dir(&format!("ring_kill_{shards}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = contract_cfg(16, 16).with_ring_retention().with_shards(shards).with_path(&dir);
        let store = PnwStore::open(cfg.clone()).unwrap();
        let base = now_unix_ms();
        for k in 0..40 {
            store.put_with_expiry(k, &[k as u8; 16], deadline(base, k)).unwrap();
        }
        let read_all = |s: &PnwStore| (0..40).map(|k| s.get(k).unwrap()).collect::<Vec<_>>();
        let before = read_all(&store);
        let evicted = store.snapshot().scrub.evicted;
        assert!(evicted > 0, "{shards} shard(s): nothing was evicted");
        assert_eq!(before.iter().filter(|v| v.is_none()).count() as u64, evicted);
        drop(store);
        let store = PnwStore::open(cfg).unwrap();
        assert_eq!(read_all(&store), before, "{shards} shard(s): answers changed across the kill");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// At four shards, with every fifth frame already overdue, the store
/// never holds more keys than its capacity, and every PUT succeeds.
#[test]
fn ttl_ring_keeps_len_within_capacity_at_four_shards() {
    ring_cell("bounded", 16, 4, |name, cfg| {
        let store = PnwStore::open(cfg).unwrap();
        let base = now_unix_ms();
        for k in 0..160 {
            let due = if k % 5 == 0 { 1 } else { deadline(base, k) };
            store.put_with_expiry(k, &[k as u8; 16], due).unwrap();
            assert!(store.len() <= 16, "{name}: {} keys after PUT {k}", store.len());
        }
        let s = store.snapshot().scrub;
        assert!(s.expired > 0 && s.evicted > 0, "{name}: {s:?}");
        assert_eq!(store.get(159).unwrap(), Some(vec![159; 16]), "{name}");
    });
}

/// Every backend is driveable concurrently through `&dyn Store` — the
/// contract that lets one server or load driver serve all four.
#[test]
fn every_backend_serves_concurrent_clients() {
    for b in backends(512, 8) {
        let live = check(&b, &[]);
        let s = live.store();
        s.put(7, &[0x77; 8]).unwrap();
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                scope.spawn(move || {
                    let mut buf = [0u8; 8];
                    for i in 0..60u64 {
                        if t == 0 {
                            assert!(s.apply(Batch::new().put(1_000 + i, &[i as u8; 8])).all_ok());
                        } else {
                            assert!(s.get_into(7, &mut buf).unwrap());
                            assert_eq!(buf, [0x77; 8]);
                        }
                    }
                });
            }
        });
        assert_eq!(s.len(), 61, "{}", b.name);
    }
}

// ---------------------------------------------------------------------------
// The one-shard PNW store (the paper's Figure 2 system).
// ---------------------------------------------------------------------------

fn pnw(capacity: usize, value_size: usize, k: usize) -> Backend {
    let cfg = PnwConfig::new(capacity, value_size).with_clusters(k).with_seed(7);
    Backend::pnw("PNW, 1 shard", cfg)
}

#[test]
fn put_get_delete_roundtrip() {
    check(&pnw(64, 8, 2), &[Put(1, 1), Put(2, 2), Get(1), Delete(1), Delete(1), Get(1)]);
}

#[test]
fn wrong_size_rejected() {
    check(&pnw(16, 8, 2), &[PutWrongSize(1)]);
}

#[test]
fn fills_to_capacity_then_full() {
    let mut script: Vec<Step> = (0..8).map(|k| Put(k, k as u8)).collect();
    script.extend([Put(99, 0), Delete(0), Put(99, 9)]);
    check(&pnw(8, 8, 1), &script);
}

/// Twenty keys, one deleted, a crash, then reads and a write.
fn crash_script(deleted: u64) -> Vec<Step> {
    let script = (0..20).map(|k| Put(k, k as u8));
    script.chain([Delete(deleted), Crash, Get(5), Get(deleted), Put(100, 7)]).collect()
}

#[test]
fn crash_recovery_dram_index() {
    check(&pnw(64, 8, 2), &crash_script(3));
}

#[test]
fn crash_recovery_nvm_index() {
    let cfg = PnwConfig::new(64, 8).with_clusters(2).with_index(IndexPlacement::Nvm);
    check(&Backend::pnw("PNW, NVM index", cfg), &crash_script(7));
}

#[test]
fn durable_store_round_trips_across_reopen() {
    let writes = (0..20).map(|k| Put(k, k as u8 * 3)).chain([Delete(4), CloseReopen]);
    let script: Vec<Step> = writes.chain((0..20).map(Get)).collect();
    let cfg = PnwConfig::new(64, 8).with_clusters(2).with_seed(7);
    check(&durable("store_roundtrip", cfg), &script);
}

/// A failing op is recorded at its batch index and the rest still run:
/// a wrong-size PUT, then a PUT past the two-bucket capacity.
#[test]
fn apply_records_failures_and_continues() {
    let batch = vec![Put(1, 1), PutWrongSize(2), Put(3, 3), Put(4, 4), Delete(1)];
    check(&pnw(2, 8, 1), &[Apply(batch)]);
}

#[test]
fn trait_object_drives_the_store() {
    let live = check(&pnw(32, 8, 2), &[Put(1, 3), GetInto(1), Delete(1)]);
    assert_eq!(live.store().name(), "PNW-sharded");
}

#[test]
fn snapshot_counters() {
    let live = check(&pnw(32, 8, 2), &[Put(1, 1), Get(1), Get(2), Delete(1)]);
    let snap = live.store().snapshot();
    assert_eq!(snap.free, 32);
    assert!(snap.availability() > 0.99);
}
