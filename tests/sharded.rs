//! Workspace-level tests for the sharded concurrent store: model-based
//! multi-threaded stress, the one-shard golden-accounting regression, and
//! bit-flip conservation across shards.

use std::collections::HashMap;
use std::sync::Arc;

use pnw::core_api::{PnwConfig, RetrainMode, ShardedPnwStore};
use pnw_nvm_sim::{DeviceStats, WriteStats};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Drives the seeded reference workload of puts, overwrites, gets,
/// deletes and one retrain. PUT failures (`Full`) are part of the recorded
/// sequence and ignored, exactly as when the golden numbers were taken.
fn drive(store: &ShardedPnwStore) {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    // Warm with two bit-pattern families, train, then churn.
    for k in 0..96u64 {
        let fill = if k % 2 == 0 { 0x00 } else { 0xFF };
        let _ = store.put(k, &[fill; 16]);
    }
    store.retrain_now().unwrap();
    for _ in 0..400 {
        let k = rng.gen_range(0..128u64);
        match rng.gen_range(0..10u8) {
            0..=5 => {
                let mut v = [if k % 2 == 0 { 0x00u8 } else { 0xFFu8 }; 16];
                v[15] = rng.gen();
                let _ = store.put(k, &v);
            }
            6..=7 => {
                store.get(k).unwrap();
            }
            _ => {
                store.delete(k).unwrap();
            }
        }
    }
}

/// Golden-stats regression: at `shards = 1` the store's device accounting
/// on this seeded workload is pinned bit for bit. The literals were first
/// recorded from the deleted single-threaded `PnwStore` frontend at commit
/// f7ca638 (where a two-type equivalence test showed both agree), and
/// re-pinned once when updates became a priced per-op choice (in place or
/// relocated, whichever flips fewer bits): the counts of live keys, ops, free buckets,
/// fallbacks and retrains were unchanged, the device's bit flips fell
/// 14 103 → 13 323 and its line writes 577 → 418. Any drift in placement,
/// retraining or write accounting shows up here.
#[test]
fn one_shard_reproduces_the_reference_accounting() {
    let store = ShardedPnwStore::new(
        PnwConfig::new(256, 16)
            .with_clusters(3)
            .with_seed(99)
            .with_load_factor(0.6)
            .with_retrain(RetrainMode::Manual)
            .with_shards(1),
    );
    drive(&store);

    // Bit flips, words written, lines written, ops — the whole
    // DeviceStats struct.
    assert_eq!(
        store.device_stats(),
        DeviceStats {
            totals: WriteStats {
                bit_flips: 13323,
                aux_bit_flips: 0,
                bits_addressed: 86424,
                words_written: 927,
                lines_written: 418,
                lines_read: 418,
            },
            write_ops: 418,
            read_ops: 0,
            bytes_read: 0,
        }
    );
    assert_eq!(store.len(), 93);
    let snap = store.snapshot();
    assert_eq!(snap.puts, 335);
    assert_eq!(snap.deletes, 67);
    assert_eq!(snap.free, 163);
    assert_eq!(snap.fallbacks, 1);
    assert_eq!(snap.retrains, 1);
    assert_eq!(snap.updates_in_place, 159);
}

/// Multi-threaded stress against a `HashMap` reference model: each thread
/// owns a disjoint key range (so the model needs no cross-thread locking)
/// and random-walks puts/overwrites/gets/deletes; afterwards the store
/// must agree with the union of the per-thread models.
#[test]
fn concurrent_stress_matches_hashmap_model() {
    const THREADS: u64 = 4;
    const KEYS_PER_THREAD: u64 = 64;
    const OPS: usize = 600;

    let store = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(1024, 8)
            .with_clusters(2)
            .with_shards(4)
            .with_load_factor(0.8)
            .with_retrain(RetrainMode::Background),
    ));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
            let mut rng = StdRng::seed_from_u64(0xACE0 + t);
            let lo = t * KEYS_PER_THREAD;
            for _ in 0..OPS {
                let key = lo + rng.gen_range(0..KEYS_PER_THREAD);
                match rng.gen_range(0..10u8) {
                    0..=5 => {
                        let v: Vec<u8> = (0..8).map(|_| rng.gen()).collect();
                        store.put(key, &v).expect("capacity is ample");
                        model.insert(key, v);
                    }
                    6..=7 => {
                        assert_eq!(
                            store.get(key).expect("get ok"),
                            model.get(&key).cloned(),
                            "key {key} diverged mid-run"
                        );
                    }
                    _ => {
                        let existed = store.delete(key).expect("delete ok");
                        assert_eq!(existed, model.remove(&key).is_some(), "key {key}");
                    }
                }
            }
            model
        }));
    }

    let mut combined: HashMap<u64, Vec<u8>> = HashMap::new();
    for h in handles {
        combined.extend(h.join().expect("stress thread"));
    }

    assert_eq!(store.len(), combined.len());
    for t in 0..THREADS {
        for key in t * KEYS_PER_THREAD..(t + 1) * KEYS_PER_THREAD {
            assert_eq!(
                store.get(key).expect("get ok"),
                combined.get(&key).cloned(),
                "key {key} diverged after join"
            );
        }
    }
}

/// Bit-flip conservation: the merged cross-shard statistics are exactly
/// the sum of the per-shard deltas over any measurement window — no
/// traffic is lost or double counted by the merge.
#[test]
fn bit_flips_are_conserved_across_shards() {
    let store = ShardedPnwStore::new(PnwConfig::new(512, 16).with_clusters(2).with_shards(8));

    // Warm-up window, then reset and measure a churn window.
    for k in 0..200u64 {
        store.put(k, &[k as u8; 16]).unwrap();
    }
    let warm_parts = store.per_shard_device_stats();
    store.reset_device_stats();

    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..300 {
        let k = rng.gen_range(0..256u64);
        if rng.gen_bool(0.7) {
            let v: Vec<u8> = (0..16).map(|_| rng.gen()).collect();
            store.put(k, &v).unwrap();
        } else {
            let _ = store.delete(k).unwrap();
        }
    }

    let parts = store.per_shard_device_stats();
    let merged = store.device_stats();
    assert_eq!(merged, DeviceStats::merged(parts.iter()));
    assert_eq!(
        merged.totals.bit_flips,
        parts.iter().map(|p| p.totals.bit_flips).sum::<u64>()
    );
    assert_eq!(
        merged.totals.lines_written,
        parts.iter().map(|p| p.totals.lines_written).sum::<u64>()
    );
    assert_eq!(
        merged.write_ops,
        parts.iter().map(|p| p.write_ops).sum::<u64>()
    );
    // The reset cleared the warm-up traffic from every shard.
    assert!(warm_parts.iter().any(|p| p.totals.bit_flips > 0));
    assert!(merged.totals.bit_flips > 0);
    // Traffic really is spread over multiple shards.
    let active = parts.iter().filter(|p| p.write_ops > 0).count();
    assert!(active >= 2, "only {active} shards saw traffic");
}

/// Torn-model regression: readers and writers run while the model is
/// retrained and swapped over and over (with `auto_k`, so the cluster
/// count itself changes across epochs). Every shard swaps its snapshot
/// `Arc` and relabels its pool together under the shard lock, so no
/// operation may ever observe a half-installed model: every GET must
/// return exactly what was last PUT, every PUT must keep succeeding, and
/// the epoch must advance monotonically.
#[test]
fn readers_never_observe_a_torn_model_across_epoch_swaps() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const THREADS: u64 = 4;
    const KEYS_PER_THREAD: u64 = 48;

    let store = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(1024, 8)
            .with_shards(4)
            .with_auto_k(1, 6)
            .with_seed(3)
            .with_train_sample_cap(256),
    ));
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xEB0C + t);
            let lo = t * KEYS_PER_THREAD;
            let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
            let mut ops = 0u64;
            while !stop.load(Ordering::Relaxed) || ops < 200 {
                ops += 1;
                let key = lo + rng.gen_range(0..KEYS_PER_THREAD);
                if rng.gen_bool(0.6) {
                    let v: Vec<u8> = (0..8).map(|_| rng.gen()).collect();
                    store.put(key, &v).expect("capacity is ample");
                    model.insert(key, v);
                } else {
                    assert_eq!(
                        store.get(key).expect("get ok"),
                        model.get(&key).cloned(),
                        "key {key} diverged mid-swap"
                    );
                }
            }
            model
        }));
    }

    // Main thread: force a stream of model swaps under live traffic, with
    // shifting value families so the elbow can move K between epochs.
    let mut last_epoch = 0;
    for round in 0..8u64 {
        for k in 0..64u64 {
            let fill = match (k + round) % 3 {
                0 => 0x00u8,
                1 => 0xFF,
                _ => 0x0F,
            };
            store.put(100_000 + k, &[fill; 8]).unwrap();
        }
        store.retrain_now().unwrap();
        let epoch = store.model_epoch();
        assert!(epoch > last_epoch, "epoch must advance: {last_epoch} -> {epoch}");
        last_epoch = epoch;
    }
    stop.store(true, Ordering::Relaxed);

    let mut combined: HashMap<u64, Vec<u8>> = HashMap::new();
    for h in handles {
        combined.extend(h.join().expect("worker survived every swap"));
    }
    // Post-join: the store agrees with the union of the reference models.
    for (key, v) in &combined {
        assert_eq!(store.get(*key).unwrap().as_ref(), Some(v), "key {key}");
    }
    assert!(store.retrains() >= 8);
    let snap = store.snapshot();
    assert_eq!(snap.train.epoch, store.model_epoch());
    assert_eq!(snap.train.samples_post_cap, 256, "reservoir cap enforced");
    assert!(snap.train.samples_pre_cap >= snap.train.samples_post_cap);
}

/// Concurrent readers share one shard lock in read mode and see a frozen
/// value while writers on *other* shards proceed.
#[test]
fn readers_scale_while_writers_run_elsewhere() {
    let store = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(512, 8).with_clusters(2).with_shards(4),
    ));
    store.put(1, &[0x42; 8]).unwrap();

    let mut handles = Vec::new();
    for t in 0..3 {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            for i in 0..200u64 {
                // Reader threads hammer key 1; one writer thread churns a
                // disjoint range.
                if t == 0 {
                    store.put(1000 + i, &[i as u8; 8]).unwrap();
                } else {
                    assert_eq!(store.get(1).unwrap().unwrap(), vec![0x42; 8]);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(store.get(1).unwrap().unwrap(), vec![0x42; 8]);
    assert_eq!(store.len(), 201);
}
