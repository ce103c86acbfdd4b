//! The [`Store`] trait conformance suite: one contract, four backends.
//!
//! Every behavioral guarantee the trait documents is exercised against
//! the PNW store (at 1 and at 4 shards) and the three baseline stores
//! through `Box<dyn Store>` — the exact surface the Figure 9 harness, the
//! scenario engine and the server drive. If a backend drifts from the contract, it
//! fails here, not in a harness.

use pnw::core_api::{Batch, Op, PnwConfig, PnwStore, RetrainMode, Store, StoreError};
use pnw_baselines::{FpTreeLike, NoveLsmLike, PathHashStore};

/// Fresh instances of all four backends at the given geometry — PNW
/// twice, at 1 and at 4 shards.
fn backends(capacity: usize, value_size: usize) -> Vec<Box<dyn Store>> {
    let cfg = PnwConfig::new(capacity, value_size)
        .with_clusters(2.min(capacity))
        .with_seed(11)
        .with_retrain(RetrainMode::Manual);
    vec![
        Box::new(PnwStore::new(cfg.clone())),
        Box::new(PnwStore::new(cfg.with_shards(4))),
        Box::new(FpTreeLike::new(capacity, value_size)),
        Box::new(NoveLsmLike::new(capacity, value_size)),
        Box::new(PathHashStore::new(capacity, value_size)),
    ]
}

#[test]
fn put_get_delete_round_trips_on_every_backend() {
    for s in backends(128, 16) {
        let name = s.name();
        assert_eq!(s.value_size(), 16, "{name}");
        assert!(s.is_empty(), "{name}");
        for k in 0..48u64 {
            s.put(k, &[k as u8; 16]).unwrap_or_else(|e| panic!("{name}: put {k}: {e}"));
        }
        assert_eq!(s.len(), 48, "{name}");
        for k in 0..48u64 {
            assert_eq!(s.get(k).unwrap().unwrap(), vec![k as u8; 16], "{name} key {k}");
            let mut buf = [0u8; 16];
            assert!(s.get_into(k, &mut buf).unwrap(), "{name} key {k}");
            assert_eq!(buf, [k as u8; 16], "{name} key {k}");
        }
        // Overwrite half, delete a quarter.
        for k in 0..24u64 {
            s.put(k, &[0xD0 | (k % 4) as u8; 16]).unwrap();
        }
        for k in 0..12u64 {
            assert!(s.delete(k).unwrap(), "{name} key {k}");
            assert!(!s.delete(k).unwrap(), "{name} double delete {k}");
        }
        assert_eq!(s.len(), 36, "{name}");
        assert_eq!(s.get(0).unwrap(), None, "{name}");
        assert_eq!(s.get(100).unwrap(), None, "{name} missing key");
        assert!(!s.get_into(100, &mut [0u8; 16]).unwrap(), "{name}");
        let snap = s.snapshot();
        assert_eq!(snap.live, 36, "{name}");
        // Counter convention: 72 puts; 12 deletes hit, 12 missed — only
        // the hits count, uniformly across backends.
        assert_eq!(snap.puts, 72, "{name}");
        assert_eq!(snap.deletes, 12, "{name}");
        assert!(snap.device.totals.bit_flips > 0, "{name}");
    }
}

#[test]
fn wrong_value_size_is_rejected_uniformly() {
    for s in backends(32, 16) {
        let name = s.name();
        assert!(
            matches!(
                s.put(1, &[0u8; 8]),
                Err(StoreError::WrongValueSize { expected: 16, got: 8 })
            ),
            "{name}: put of a half-size value must be rejected"
        );
        s.put(1, &[1u8; 16]).unwrap();
        assert!(
            matches!(
                s.get_into(1, &mut [0u8; 4]),
                Err(StoreError::WrongValueSize { expected: 16, got: 4 })
            ),
            "{name}: get_into with a wrong-size buffer must be rejected"
        );
    }
}

#[test]
fn overfilling_reports_full_not_a_panic() {
    for s in backends(16, 8) {
        let name = s.name();
        let mut full_seen = false;
        // Distinct keys well past capacity: every backend must eventually
        // say Full (at its own structural limit — pool, leaves, level
        // area) instead of panicking or corrupting.
        for k in 0..2_000u64 {
            match s.put(k, &[k as u8; 8]) {
                Ok(_) => {}
                Err(StoreError::Full) => {
                    full_seen = true;
                    break;
                }
                Err(e) => panic!("{name}: unexpected error {e}"),
            }
        }
        assert!(full_seen, "{name}: store never reported Full");
        // The store keeps serving reads after rejecting writes.
        assert_eq!(s.get(0).unwrap().unwrap(), vec![0u8; 8], "{name}");
    }
}

/// The op sequence used for the batch ≡ per-op check: inserts, updates,
/// deletes and re-inserts, interleaved.
fn contract_ops(value_size: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for k in 0..40u64 {
        ops.push(Op::Put {
            key: k,
            value: vec![(k % 5) as u8 * 0x11; value_size],
        });
    }
    for k in (0..40u64).step_by(3) {
        ops.push(Op::Delete { key: k });
    }
    for k in 0..10u64 {
        ops.push(Op::Put {
            key: k,
            value: vec![0xEE; value_size],
        });
    }
    ops.push(Op::Delete { key: 999 }); // miss
    ops
}

#[test]
fn batch_apply_is_equivalent_to_per_op_on_every_backend() {
    for (batched, per_op) in backends(128, 8).into_iter().zip(backends(128, 8)) {
        let name = batched.name();
        let ops = contract_ops(8);

        // Batched store: the same sequence in groups of 7.
        for chunk in ops.chunks(7) {
            let mut batch = Batch::with_capacity(chunk.len());
            for op in chunk {
                batch.push(op.clone());
            }
            let r = batched.apply(&batch);
            assert!(r.all_ok(), "{name}: {:?}", r.failures);
            assert_eq!(r.completed(), chunk.len() as u64, "{name}");
        }
        // Reference store: one op at a time.
        for op in &ops {
            match op {
                Op::Put { key, value } => {
                    per_op.put(*key, value).unwrap();
                }
                Op::Delete { key } => {
                    per_op.delete(*key).unwrap();
                }
            }
        }

        assert_eq!(batched.len(), per_op.len(), "{name}");
        for k in 0..40u64 {
            assert_eq!(batched.get(k).unwrap(), per_op.get(k).unwrap(), "{name} key {k}");
        }
        let (sa, sb) = (batched.snapshot(), per_op.snapshot());
        assert_eq!(sa.puts, sb.puts, "{name}");
        assert_eq!(sa.deletes, sb.deletes, "{name}");
        assert_eq!(sa.live, sb.live, "{name}");
    }
}

/// The acceptance criterion for the batch path: the store driven through
/// `apply` produces *bit-for-bit* the same device state and accounting as
/// the same store driven per-op, at 1 and at 4 shards — the batch fast
/// path changes cost, never writes.
#[test]
fn batch_path_matches_per_op_bit_for_bit() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    for shards in [1, 4] {
        let cfg = PnwConfig::new(256, 16)
            .with_clusters(3)
            .with_seed(99)
            .with_retrain(RetrainMode::Manual)
            .with_shards(shards);
        let per_op = PnwStore::new(cfg.clone());
        let batched = PnwStore::new(cfg);

        // Phase 1: warm both with two bit-pattern families, then train.
        let mut warm = Batch::new();
        for k in 0..96u64 {
            let fill = if k % 2 == 0 { 0x00 } else { 0xFF };
            per_op.put(k, &[fill; 16]).unwrap();
            warm.put(k, &[fill; 16]);
        }
        assert!(batched.apply(&warm).all_ok());
        per_op.retrain_now().unwrap();
        batched.retrain_now().unwrap();

        // Phase 2: seeded churn — per-op on one store, batches of 16 on
        // the other, identical op order.
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        let mut ops: Vec<Op> = Vec::new();
        for _ in 0..400 {
            let k = rng.gen_range(0..128u64);
            if rng.gen_range(0..10u8) < 7 {
                let mut v = [if k % 2 == 0 { 0x00u8 } else { 0xFFu8 }; 16];
                v[15] = rng.gen();
                ops.push(Op::Put {
                    key: k,
                    value: v.to_vec(),
                });
            } else {
                ops.push(Op::Delete { key: k });
            }
        }
        for op in &ops {
            match op {
                Op::Put { key, value } => {
                    let _ = per_op.put(*key, value);
                }
                Op::Delete { key } => {
                    let _ = per_op.delete(*key);
                }
            }
        }
        for chunk in ops.chunks(16) {
            let mut batch = Batch::with_capacity(chunk.len());
            for op in chunk {
                batch.push(op.clone());
            }
            let _ = batched.apply(&batch);
        }

        // Identical bit flips, words written, lines written, ops — the
        // whole DeviceStats struct — plus contents and counters.
        assert_eq!(
            per_op.device_stats(),
            batched.device_stats(),
            "{shards} shards"
        );
        assert_eq!(per_op.len(), batched.len(), "{shards} shards");
        for k in 0..128u64 {
            assert_eq!(per_op.get(k).unwrap(), batched.get(k).unwrap(), "key {k}");
        }
        let (s1, s2) = (per_op.snapshot(), batched.snapshot());
        assert_eq!(s1.puts, s2.puts);
        assert_eq!(s1.deletes, s2.deletes);
        assert_eq!(s1.free, s2.free);
        assert_eq!(s1.fallbacks, s2.fallbacks);
    }
}

/// Regression for the batch/per-op maintenance divergence: a batch must
/// never report `Full` where the same ops issued individually would have
/// extended the zone from the reserve mid-stream — extension runs at the
/// per-op path's op boundaries, so with Manual retrain the device state
/// stays bit-for-bit identical even across an auto-extension.
#[test]
fn batch_extends_from_reserve_exactly_like_per_op() {
    let cfg = PnwConfig::new(8, 8)
        .with_clusters(2)
        .with_seed(3)
        .with_reserve(16)
        .with_load_factor(0.5)
        .with_retrain(RetrainMode::Manual);

    let per_op = PnwStore::new(cfg.clone());
    for k in 0..12u64 {
        per_op.put(k, &[k as u8; 8]).unwrap();
    }
    assert_eq!(per_op.len(), 12);

    let mut batch = Batch::new();
    for k in 0..12u64 {
        batch.put(k, &[k as u8; 8]);
    }
    let batched = PnwStore::new(cfg);
    let r = batched.apply(&batch);
    assert!(r.all_ok(), "batch must extend instead of failing: {:?}", r.failures);
    assert_eq!(batched.len(), 12);
    assert_eq!(batched.active_capacity(), per_op.active_capacity());
    assert_eq!(batched.device_stats(), per_op.device_stats());
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
    batch.put(9, &[0u8; 2]);
    let r = s.apply(&batch);
    assert_eq!(r.failures.len(), 2);
    assert!(matches!(r.failures[0], (4, StoreError::Full)));
    assert!(
        matches!(r.failures[1], (5, StoreError::WrongValueSize { expected: 8, got: 2 })),
        "wrong-size must survive batching untouched"
    );
}

// ---------------------------------------------------------------------------
// File-backed conformance: the contract holds across drop-and-reopen.
// ---------------------------------------------------------------------------

fn contract_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pnw_contract_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cfg(capacity: usize, value_size: usize, dir: &std::path::Path) -> PnwConfig {
    PnwConfig::new(capacity, value_size)
        .with_clusters(2.min(capacity))
        .with_seed(11)
        .with_retrain(RetrainMode::Manual)
        .with_path(dir)
}

/// The round-trip contract holds for a file-backed store *across* a
/// drop-and-reopen cycle in the middle of the op mix — at 1 and at 4
/// shards.
#[test]
fn file_backed_round_trips_survive_reopen_cycles() {
    for shards in [1, 4] {
        let dir = contract_dir(&format!("roundtrip_{shards}"));
        let cfg = durable_cfg(128, 16, &dir).with_shards(shards);
        let s = PnwStore::open(cfg.clone()).unwrap();
        for k in 0..48u64 {
            s.put(k, &[k as u8; 16]).unwrap();
        }
        s.close().unwrap();

        let s = PnwStore::open(cfg.clone()).unwrap();
        for k in 0..24u64 {
            s.put(k, &[0xD0 | (k % 4) as u8; 16]).unwrap();
        }
        for k in 0..12u64 {
            assert!(s.delete(k).unwrap());
            assert!(!s.delete(k).unwrap());
        }
        s.close().unwrap();

        let s = PnwStore::open(cfg).unwrap();
        assert_eq!(s.len(), 36, "{shards} shards");
        assert_eq!(s.get(0).unwrap(), None);
        for k in 12..24u64 {
            assert_eq!(s.get(k).unwrap().unwrap(), vec![0xD0 | (k % 4) as u8; 16]);
        }
        for k in 24..48u64 {
            assert_eq!(s.get(k).unwrap().unwrap(), vec![k as u8; 16]);
            let mut buf = [0u8; 16];
            assert!(s.get_into(k, &mut buf).unwrap());
            assert_eq!(buf, [k as u8; 16]);
        }
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A file-backed store that filled up still reports `Full` — not a panic,
/// not corruption — after a reopen, and keeps serving committed reads.
#[test]
fn file_backed_overfill_reports_full_across_reopen() {
    let dir = contract_dir("overfill");
    let cfg = durable_cfg(16, 8, &dir);
    let s = PnwStore::open(cfg.clone()).unwrap();
    let mut stored = 0u64;
    let mut full_seen = false;
    for k in 0..2_000u64 {
        match s.put(k, &[k as u8; 8]) {
            Ok(_) => stored += 1,
            Err(StoreError::Full) => {
                full_seen = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(full_seen, "store never reported Full");
    s.close().unwrap();

    let s = PnwStore::open(cfg).unwrap();
    assert_eq!(s.len(), stored as usize);
    assert!(
        matches!(s.put(9_999, &[0xAA; 8]), Err(StoreError::Full)),
        "reopened full store must still say Full"
    );
    for k in 0..stored {
        assert_eq!(s.get(k).unwrap().unwrap(), vec![k as u8; 8], "key {k}");
    }
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Batched `apply` ≡ per-op on a file-backed store even when both sides
/// go through a drop-and-reopen mid-sequence: same contents, same
/// counters, same device accounting.
#[test]
fn file_backed_batch_apply_equals_per_op_across_reopen() {
    let dir_b = contract_dir("batch_side");
    let dir_p = contract_dir("perop_side");
    let cfg_b = durable_cfg(128, 8, &dir_b);
    let cfg_p = durable_cfg(128, 8, &dir_p);
    let ops = contract_ops(8);
    let half = ops.len() / 2;

    let run_batched = |ops: &[Op]| {
        let s = PnwStore::open(cfg_b.clone()).unwrap();
        for chunk in ops.chunks(7) {
            let mut batch = Batch::with_capacity(chunk.len());
            for op in chunk {
                batch.push(op.clone());
            }
            let r = s.apply(&batch);
            assert!(r.all_ok(), "{:?}", r.failures);
        }
        s.close().unwrap();
    };
    let run_per_op = |ops: &[Op]| {
        let s = PnwStore::open(cfg_p.clone()).unwrap();
        for op in ops {
            match op {
                Op::Put { key, value } => {
                    s.put(*key, value).unwrap();
                }
                Op::Delete { key } => {
                    s.delete(*key).unwrap();
                }
            }
        }
        s.close().unwrap();
    };
    // First half, reopen, second half — on both sides.
    run_batched(&ops[..half]);
    run_batched(&ops[half..]);
    run_per_op(&ops[..half]);
    run_per_op(&ops[half..]);

    let batched = PnwStore::open(cfg_b).unwrap();
    let per_op = PnwStore::open(cfg_p).unwrap();
    assert_eq!(batched.len(), per_op.len());
    for k in 0..40u64 {
        assert_eq!(batched.get(k).unwrap(), per_op.get(k).unwrap(), "key {k}");
    }
    assert_eq!(batched.device_stats(), per_op.device_stats());
    drop(batched);
    drop(per_op);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_dir_all(&dir_p);
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
    let cfg = PnwConfig::new(64, 16)
        .with_clusters(2)
        .with_seed(11)
        .with_retrain(RetrainMode::Manual);

    for shards in [1, 4] {
        let store = PnwStore::new(cfg.clone().with_shards(shards));
        for k in 0..8u64 {
            store.put(k, &[0u8; 16]).unwrap();
        }
        assert!(
            store.arm_stuck_at_key(5, 3, true).unwrap(),
            "{shards} shards: key 5 must be present to arm"
        );
        // Both read entry points report the same typed error...
        match store.get(5) {
            Err(StoreError::Corruption { key, .. }) => assert_eq!(key, 5, "{shards} shards"),
            other => panic!("{shards} shards: get must surface Corruption, got {other:?}"),
        }
        match store.get_into(5, &mut [0u8; 16]) {
            Err(StoreError::Corruption { key, .. }) => assert_eq!(key, 5, "{shards} shards"),
            other => panic!("{shards} shards: get_into must surface Corruption, got {other:?}"),
        }
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

    // The locked and the lock-free read path are two walks over one bucket
    // format. A bare engine (reads under its owner's reference) and a
    // one-shard store (seqlock reads), fed the same ops, must answer every
    // GET and scan alike — across live and expired TTL entries, a bucket
    // the scrubber retired, and a bucket failing its CRC — on both index
    // placements (the NVM one puts the data zone at a non-zero offset).
    use pnw::core_api::{now_unix_ms, IndexPlacement, ShardEngine};
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
        let scanned = engine.scan_range(0, 100).unwrap();
        assert_eq!(scanned, store.scan(0, 100).unwrap(), "{index:?}");
        let expected: Vec<u64> = (0..12).filter(|&k| k != 4).collect();
        assert_eq!(scan_keys(&scanned), expected, "{index:?}: CRC-failing and overdue skipped");
    }
}

// ---------------------------------------------------------------------------
// Range scans: one ordered-scan contract, four backends.
// ---------------------------------------------------------------------------

fn scan_keys(entries: &[(u64, Vec<u8>)]) -> Vec<u64> {
    entries.iter().map(|(k, _)| *k).collect()
}

/// `scan` returns ascending committed `(key, value)` pairs over the
/// inclusive range, on every backend: empty store, empty sub-range,
/// inverted bounds, full range, and after overwrites and deletes.
#[test]
fn scan_contract_holds_on_every_backend() {
    for s in backends(128, 16) {
        let name = s.name();
        assert!(s.scan(0, u64::MAX).unwrap().is_empty(), "{name}: empty store");

        let keys = [3u64, 7, 10, 11, 64, 100, 101];
        for &k in &keys {
            s.put(k, &[k as u8; 16]).unwrap();
        }
        let full = s.scan(0, u64::MAX).unwrap();
        assert_eq!(scan_keys(&full), keys, "{name}: full range, ascending");
        for (k, v) in &full {
            assert_eq!(v, &vec![*k as u8; 16], "{name} key {k}: value round-trips");
        }
        assert_eq!(scan_keys(&s.scan(10, 64).unwrap()), [10, 11, 64], "{name}: sub-range is inclusive");
        assert_eq!(scan_keys(&s.scan(7, 7).unwrap()), [7], "{name}: single-key range");
        assert!(s.scan(12, 63).unwrap().is_empty(), "{name}: live-key gap");
        assert!(s.scan(64, 10).unwrap().is_empty(), "{name}: inverted bounds");

        // Overwrites surface the new value; deletes drop out of the scan.
        s.put(10, &[0xEE; 16]).unwrap();
        assert!(s.delete(11).unwrap(), "{name}");
        let after = s.scan(10, 64).unwrap();
        assert_eq!(scan_keys(&after), [10, 64], "{name}: post-delete range");
        assert_eq!(after[0].1, vec![0xEE; 16], "{name}: scan sees the overwrite");
    }
}

/// A range spanning every shard of the sharded store comes back as one
/// ascending sequence that agrees with point GETs key-for-key.
#[test]
fn scan_spans_shards_and_matches_point_gets() {
    let cfg = PnwConfig::new(256, 16)
        .with_clusters(2)
        .with_seed(11)
        .with_retrain(RetrainMode::Manual)
        .with_shards(4);
    let s = PnwStore::new(cfg);
    // Consecutive keys land on different shards under any reasonable
    // partition, so [0, 95] crosses all four.
    for k in 0..96u64 {
        s.put(k, &[(k % 7) as u8; 16]).unwrap();
    }
    let all = s.scan(0, 95).unwrap();
    assert_eq!(all.len(), 96, "every shard contributes its slice");
    for (i, (k, v)) in all.iter().enumerate() {
        assert_eq!(*k, i as u64, "ascending across shard boundaries");
        assert_eq!(Some(v.clone()), s.get(*k).unwrap(), "key {k}: scan == GET");
    }
}

/// Scans running against live writers never observe a torn value, on any
/// backend: every value written is a uniform fill, so a single mixed byte
/// proves a torn read. On the sharded store this exercises the seqlock
/// snapshot path under real contention.
#[test]
fn scan_never_observes_torn_values_under_concurrent_writes() {
    for s in backends(512, 64) {
        let name = s.name();
        let s: std::sync::Arc<dyn Store> = std::sync::Arc::from(s);
        for k in 0..48u64 {
            s.put(k, &[0x01; 64]).unwrap();
        }
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut writers = Vec::new();
        for t in 0..2u64 {
            let s = std::sync::Arc::clone(&s);
            let stop = std::sync::Arc::clone(&stop);
            writers.push(std::thread::spawn(move || {
                let mut fill = 0x10u8.wrapping_add(t as u8);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for k in (t * 24)..(t * 24 + 24) {
                        s.put(k, &[fill; 64]).unwrap();
                    }
                    fill = fill.wrapping_add(0x11).max(1);
                }
            }));
        }
        for _ in 0..200 {
            for (k, v) in s.scan(0, 47).unwrap() {
                assert!(
                    v.iter().all(|b| *b == v[0]),
                    "{name} key {k}: torn value {:02x?}...",
                    &v[..8.min(v.len())]
                );
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(s.scan(0, 47).unwrap().len(), 48, "{name}");
    }
}

// ---------------------------------------------------------------------------
// TTL: lazy expiry on the read path, at 1 and at 4 shards.
// ---------------------------------------------------------------------------

/// Past its deadline a key disappears from GET, `get_into` and scans —
/// without any explicit delete — while `expires_at_ms = 0` and plain PUTs
/// never expire. The slot becomes reusable.
#[test]
fn ttl_expired_keys_hide_from_get_and_scan() {
    use pnw::core_api::now_unix_ms;
    let cfg = PnwConfig::new(64, 16)
        .with_clusters(2)
        .with_seed(11)
        .with_retrain(RetrainMode::Manual)
        .with_ttl();
    for shards in [1, 4] {
        let s = PnwStore::new(cfg.clone().with_shards(shards));
        let name = format!("{shards} shards");
        assert!(s.supports_ttl(), "{name}");
        // One deadline already past, one an hour out.
        s.put_with_expiry(1, &[0x11; 16], 1).unwrap();
        s.put_with_expiry(4, &[0x44; 16], now_unix_ms() + 3_600_000).unwrap();
        s.put_with_expiry(2, &[0x22; 16], 0).unwrap(); // 0 = never expires
        s.put(3, &[0x33; 16]).unwrap();
        assert_eq!(s.get(4).unwrap().unwrap(), vec![0x44; 16], "{name}: pre-expiry read");

        assert_eq!(s.get(1).unwrap(), None, "{name}: expired key must read as absent");
        assert!(!s.get_into(1, &mut [0u8; 16]).unwrap(), "{name}");
        assert_eq!(scan_keys(&s.scan(0, 10).unwrap()), [2, 3, 4], "{name}: expired key left the scan");

        // The key itself is reusable after expiry.
        s.put(1, &[0x44; 16]).unwrap();
        assert_eq!(s.get(1).unwrap().unwrap(), vec![0x44; 16], "{name}: re-put after expiry");
    }
}

/// Expiry deadlines are durable: after a kill (plain drop — the WAL alone
/// carries the state) and a reopen past the deadline, the expired key is
/// gone and WAL replay does not resurrect it; unexpired and non-TTL keys
/// survive. A clean close/reopen cycle agrees.
#[test]
fn ttl_expiry_survives_kill_and_reopen() {
    use pnw::core_api::now_unix_ms;
    let dir = contract_dir("ttl_kill");
    let cfg = durable_cfg(64, 16, &dir).with_ttl();

    let s = PnwStore::open(cfg.clone()).unwrap();
    s.put_with_expiry(1, &[0x11; 16], 1).unwrap(); // already past
    s.put_with_expiry(2, &[0x22; 16], 0).unwrap();
    s.put(3, &[0x33; 16]).unwrap();
    s.put_with_expiry(4, &[0x44; 16], now_unix_ms() + 3_600_000).unwrap();
    drop(s); // kill between ops: no checkpoint, recovery replays the WAL

    let s = PnwStore::open(cfg.clone()).unwrap();
    assert_eq!(s.get(1).unwrap(), None, "WAL replay must not resurrect an expired key");
    assert_eq!(scan_keys(&s.scan(0, 10).unwrap()), [2, 3, 4], "expired key stays out of scans");
    assert_eq!(s.get(2).unwrap().unwrap(), vec![0x22; 16]);
    assert_eq!(s.get(3).unwrap().unwrap(), vec![0x33; 16]);
    assert_eq!(s.get(4).unwrap().unwrap(), vec![0x44; 16], "unexpired deadline survives the kill");

    // Clean close persists the same truth.
    s.close().unwrap();
    let s = PnwStore::open(cfg).unwrap();
    assert_eq!(s.get(1).unwrap(), None, "expired key stays gone across a clean close");
    assert_eq!(s.get(4).unwrap().unwrap(), vec![0x44; 16]);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every backend is driveable concurrently through `Arc<dyn Store>` — the
/// contract that lets one server or load driver serve all four.
#[test]
fn every_backend_serves_concurrent_clients() {
    for s in backends(512, 8) {
        let name = s.name();
        let s: std::sync::Arc<dyn Store> = std::sync::Arc::from(s);
        s.put(7, &[0x77; 8]).unwrap();
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut buf = [0u8; 8];
                for i in 0..60u64 {
                    if t == 0 {
                        let mut batch = Batch::new();
                        batch.put(1_000 + i, &[i as u8; 8]);
                        assert!(batch.len() == 1);
                        let r = s.apply(&batch);
                        assert!(r.all_ok());
                    } else {
                        assert!(s.get_into(7, &mut buf).unwrap());
                        assert_eq!(buf, [0x77; 8]);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 61, "{name}");
    }
}
