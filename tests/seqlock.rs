//! Seqlock torn-read stress: lock-free GETs raced against single-writer
//! shards, with model retrains swapping snapshots mid-flight.
//!
//! Values are self-validating — both halves carry the same
//! `(key, version)` word — so a reader can detect a torn copy (mixed
//! versions) or a misdirected probe (another key's bucket) without knowing
//! which version the writer last committed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pnw::core_api::{PnwConfig, ShardedPnwStore};
use rand::{rngs::StdRng, Rng, SeedableRng};

const WRITERS: u64 = 2;
const READERS: u64 = 2;
const KEY_SPACE: u64 = 128;

fn encode(key: u64, version: u32) -> [u8; 16] {
    let word = (key << 32) | u64::from(version);
    let mut v = [0u8; 16];
    v[..8].copy_from_slice(&word.to_le_bytes());
    v[8..].copy_from_slice(&word.to_le_bytes());
    v
}

/// A value read back through a lock-free GET or scan must be one atomic
/// version of `key`'s own value.
fn assert_whole(key: u64, v: &[u8]) {
    let lo = u64::from_le_bytes(v[..8].try_into().unwrap());
    let hi = u64::from_le_bytes(v[8..].try_into().unwrap());
    assert_eq!(lo, hi, "torn value for key {key}: {lo:#x} vs {hi:#x}");
    assert_eq!(lo >> 32, key, "value from another key's bucket");
}

/// Writers churn disjoint key sets (puts, overwrites, deletes) while
/// readers hammer the whole key space through the lock-free GET and scan
/// paths and the main thread forces model swaps. The store is trained
/// before the writers start, so overwrites take both update paths —
/// rewriting the key's own bucket under the readers included. Every
/// validated read must be an atomic snapshot, and the final contents must
/// equal the union of the writers' reference models.
#[test]
fn lock_free_gets_never_observe_torn_values() {
    let store = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(512, 16)
            .with_clusters(2)
            .with_shards(4)
            .with_seed(11),
    ));
    store.retrain_now().unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    let mut writers = Vec::new();
    for t in 0..WRITERS {
        let store = Arc::clone(&store);
        writers.push(std::thread::spawn(move || {
            // Keys ≡ t (mod WRITERS) are this thread's alone, so its
            // version map is the ground truth for them.
            let mut version: HashMap<u64, u32> = HashMap::new();
            let mut rng = StdRng::seed_from_u64(0x5EA0 + t);
            for _ in 0..600 {
                let key = t + WRITERS * rng.gen_range(0..KEY_SPACE / WRITERS);
                if rng.gen_bool(0.8) {
                    let v = version.entry(key).and_modify(|v| *v += 1).or_insert(1);
                    store.put(key, &encode(key, *v)).expect("ample capacity");
                } else {
                    let existed = store.delete(key).expect("delete ok");
                    assert_eq!(existed, version.remove(&key).is_some(), "key {key}");
                }
            }
            version
        }));
    }

    let mut readers = Vec::new();
    for r in 0..READERS {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x6EAD + r);
            let mut buf = vec![0u8; 16];
            let mut hits = 0u64;
            for i in 0u64.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if i % 64 == 0 {
                    for (key, v) in store.scan(0, KEY_SPACE).expect("scan ok") {
                        assert_whole(key, &v);
                    }
                }
                let key = rng.gen_range(0..KEY_SPACE);
                if store.get_into(key, &mut buf).expect("get ok") {
                    assert_whole(key, &buf);
                    hits += 1;
                }
            }
            hits
        }));
    }

    // Model churn while readers and writers race: each swap relabels every
    // shard's pool under its engine lock.
    for _ in 0..4 {
        store.retrain_now().unwrap();
    }

    let mut expect: HashMap<u64, u32> = HashMap::new();
    for w in writers {
        expect.extend(w.join().expect("writer thread"));
    }
    stop.store(true, Ordering::Relaxed);
    let mut hits = 0;
    for r in readers {
        hits += r.join().expect("reader thread");
    }
    assert!(hits > 0, "readers must have observed live keys");

    // Final-state exactness: the store is the union of the writers'
    // reference models, version-for-version.
    assert_eq!(store.len(), expect.len());
    for key in 0..KEY_SPACE {
        let got = store.get(key).unwrap();
        match expect.get(&key) {
            Some(v) => assert_eq!(got.unwrap(), encode(key, *v), "key {key}"),
            None => assert_eq!(got, None, "key {key}"),
        }
    }
    let snap = store.snapshot();
    assert!(snap.gets >= hits, "validated reads are counted: {} >= {hits}", snap.gets);
    assert!(snap.updates_in_place > 0, "in-place rewrites raced the readers");
}

/// Liveness: GETs complete — from another thread and from the very thread
/// holding the lock — while a writer owns a shard's engine mutex. A read
/// path that touched the lock would deadlock here.
#[test]
fn gets_complete_while_a_writer_owns_the_shard() {
    let store = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(64, 16).with_clusters(1).with_shards(1),
    ));
    for k in 0..32u64 {
        store.put(k, &encode(k, 1)).unwrap();
    }
    store.with_shard_write_held(0, || {
        let s = Arc::clone(&store);
        let h = std::thread::spawn(move || {
            for k in 0..32u64 {
                assert_eq!(s.get(k).unwrap().unwrap(), encode(k, 1));
            }
        });
        h.join().unwrap();
        assert_eq!(store.get(7).unwrap().unwrap(), encode(7, 1));
        assert_eq!(store.get(999).unwrap(), None);
    });
}
