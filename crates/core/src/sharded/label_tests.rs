//! Label consistency across background installs: whatever the writers did
//! while the worker thread's label pass ran, after the install every free
//! bucket sits in the pool list its stored bytes predict and no tenant
//! carries a wrong cached label ([`ShardEngine::check_labels`]). CI also
//! runs these optimised (`cargo test --release -p pnw-core label_`), where
//! the interleavings of interest actually occur.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::*;
use crate::config::RetrainMode;

const VALUE: usize = 16;

/// Four byte families, a little per-key variation.
fn value(key: u64) -> [u8; VALUE] {
    let mut v = [[0x00, 0xFF, 0x0F, 0xA5][(key % 4) as usize]; VALUE];
    v[0] = key as u8;
    v[7] ^= (key >> 8) as u8;
    v
}

/// `value(key)` with one bit flipped: an update priced in place.
fn nudged(key: u64) -> [u8; VALUE] {
    let mut v = value(key);
    v[VALUE - 1] ^= 1;
    v
}

fn store(cfg: PnwConfig) -> ShardedPnwStore {
    let s = ShardedPnwStore::new(cfg.with_clusters(4).with_shards(2));
    for k in 0..300u64 {
        s.put(k, &value(k)).unwrap();
    }
    for k in 0..100u64 {
        assert!(s.delete(k).unwrap());
    }
    s.retrain_now().unwrap();
    s
}

fn check(s: &ShardedPnwStore) {
    s.engines().for_each(|e| e.check_labels());
}

/// Spins until the worker thread has begun its label pass on `shard`.
fn wait_for_pass_on(s: &ShardedPnwStore, shard: usize) {
    while !s.shards[shard].hold(&s.model).label_pass_running() {
        std::thread::yield_now();
    }
}

/// Starts a background run and holds it *inside* its label pass: shard 0's
/// pass is open and the worker thread cannot get past shard 1's engine
/// lock, which the returned hold has. While it is held no run can finish,
/// so writes to shard 0 go through without an install.
fn stall_inside_a_pass(s: &ShardedPnwStore) -> Hold<'_> {
    let held = s.shards[1].hold(&s.model);
    s.retrain_in_background();
    wait_for_pass_on(s, 0);
    held
}

#[test]
fn label_pass_install_on_a_quiescent_store_predicts_nothing() {
    let s = store(PnwConfig::new(512, VALUE));
    let sync = s.snapshot().train;
    assert_eq!((sync.labelled, sync.stale_at_install), (0, 0));
    assert_eq!(sync.predicted_at_install, 512 - 200, "every free bucket");
    assert!(sync.phases.label.is_zero());
    check(&s);

    s.retrain_in_background();
    s.wait_for_retrain();
    let t = s.snapshot().train;
    assert_eq!(t.epoch, 2);
    assert_eq!(t.labelled, 512, "every active bucket, on the worker thread");
    assert_eq!((t.stale_at_install, t.predicted_at_install), (0, 0));
    assert!(!t.phases.label.is_zero() && !t.phases.sample.is_zero());
    check(&s);
    // The adopted labels serve the deletes that follow.
    for k in 100..300u64 {
        assert!(s.delete(k).unwrap());
    }
    check(&s);
}

#[test]
fn label_writes_inside_a_pass_are_discarded_not_trusted() {
    let s = store(PnwConfig::new(512, VALUE));
    let on_shard_0 = |k: &u64| s.shard_of_key(*k) == 0;
    let in_place = s.snapshot().updates_in_place;
    let held = stall_inside_a_pass(&s);
    // Fresh placements, in-place updates and deletes — all on shard 0, all
    // behind the pass's back.
    let fresh: Vec<u64> = (1000..1040u64).filter(on_shard_0).collect();
    let updated: Vec<u64> = (100..160u64).filter(on_shard_0).collect();
    for &k in &fresh {
        s.put(k, &value(k)).unwrap();
    }
    for &k in &updated {
        s.put(k, &nudged(k)).unwrap();
    }
    for k in (200..240u64).filter(on_shard_0) {
        assert!(s.delete(k).unwrap());
    }
    assert_eq!(s.retrains(), 1, "no install while the pass is held");
    drop(held);
    s.wait_for_retrain();
    let snap = s.snapshot();
    assert!(
        snap.updates_in_place > in_place,
        "in-place rewrites inside the pass"
    );
    let t = snap.train;
    assert_eq!(t.epoch, 2);
    assert!(
        t.stale_at_install >= fresh.len() + updated.len(),
        "every rewritten bucket's label is thrown away: {t:?}"
    );
    check(&s);
    for &k in &updated {
        assert_eq!(s.get(k).unwrap().unwrap(), nudged(k));
    }
}

#[test]
fn label_consistency_holds_under_two_writers_and_repeated_installs() {
    let cfg = PnwConfig::new(2048, VALUE)
        // Past the load factor from the preload on: every fresh placement
        // makes a retrain due, so runs follow each other back to back.
        .with_load_factor(0.05)
        .with_retrain(RetrainMode::Background);
    let s = Arc::new(store(cfg));
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let base = 10_000 * (t + 1);
                // Until three background models have installed under them.
                for round in 0u64.. {
                    if s.retrains() >= 4 {
                        break;
                    }
                    for i in 0..60u64 {
                        s.put(base + i, &value(i + round)).unwrap();
                    }
                    for i in (0..60u64).step_by(2) {
                        s.put(base + i, &nudged(i + round)).unwrap();
                    }
                    for i in 0..60u64 {
                        assert!(s.delete(base + i).unwrap());
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    s.wait_for_retrain();
    check(&s);
    assert_eq!(s.len(), 200);
    assert!(
        s.snapshot().updates_in_place > 0,
        "in-place rewrites between installs"
    );
}

#[test]
fn label_consistency_survives_a_zone_extension_mid_pass() {
    let s = store(PnwConfig::new(512, VALUE).with_reserve(128));
    // Shard 0's pass is open: its new buckets lie past what the pass
    // covers. Shard 1's pass begins after its extension.
    let mut held = stall_inside_a_pass(&s);
    assert_eq!(s.shards[0].hold(&s.model).extend_zone(64), 64);
    assert_eq!(held.extend_zone(64), 64);
    drop(held);
    s.wait_for_retrain();
    let t = s.snapshot().train;
    assert!(t.stale_at_install >= 64, "shard 0's new buckets: {t:?}");
    assert!(t.predicted_at_install >= 64);
    assert_eq!(s.active_capacity(), 640);
    assert_eq!(s.snapshot().free, 640 - 200);
    check(&s);
}

#[test]
fn label_consistency_survives_a_change_of_k() {
    // Two families first, then eight: the elbow moves, and the background
    // model arrives with a different K than the pool was built for.
    let s = ShardedPnwStore::new(PnwConfig::new(512, VALUE).with_auto_k(1, 8).with_shards(2));
    let family = |f: u64, k: u64| {
        let mut v = [(f as u8).wrapping_mul(0x24) ^ [0x00, 0xFF][(f % 2) as usize]; VALUE];
        v[..2 * f as usize].fill(0x3C);
        v[15] ^= (k % 2) as u8;
        v
    };
    for k in 0..200u64 {
        s.put(k, &family(k % 2, k)).unwrap();
    }
    s.retrain_now().unwrap();
    let k_before = s.model_k();
    check(&s);
    for k in 0..200u64 {
        assert!(s.delete(k).unwrap());
        s.put(1000 + k, &family(k % 8, k)).unwrap();
    }
    let held = stall_inside_a_pass(&s);
    for k in (2000..2080u64).filter(|&k| s.shard_of_key(k) == 0) {
        s.put(k, &family(k % 8, k)).unwrap();
    }
    drop(held);
    s.wait_for_retrain();
    let k_after = s.model_k();
    assert_ne!(k_after, k_before, "the shift must move the elbow");
    assert!(s.engines().all(|e| e.pool().clusters() == k_after));
    check(&s);
}

#[test]
fn label_pass_in_flight_is_dropped_by_crash_and_recover() {
    let s = store(PnwConfig::new(512, VALUE));
    drop(stall_inside_a_pass(&s));
    s.crash_and_recover().unwrap();
    // The run in flight installed before the recovery; its model went with
    // the old manager, and the recovery's retrain is the fresh one's first.
    assert!(s.engines().all(|e| !e.label_pass_running()));
    assert_eq!(s.retrains(), 1, "a fresh manager, trained once");
    check(&s);
    // The policy is armed again.
    s.put(5000, &value(5000)).unwrap();
    assert!(!s.model.maintenance.load(Ordering::Acquire));
    s.retrain_in_background();
    s.wait_for_retrain();
    assert_eq!(s.retrains(), 2);
    check(&s);
}
