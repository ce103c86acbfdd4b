//! Commit, then publish: on a durable shard over the DRAM index a PUT or
//! DELETE syncs its WAL record with no write bracket open, so a lock-free
//! GET on that shard never waits for another op's fsync and still never
//! sees an effect before it is durable; and a failed sync leaves the store
//! exactly as it was.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use pnw_nvm_sim::SimFs;

use super::ShardedPnwStore;
use crate::config::{IndexPlacement, PnwConfig};

/// A one-shard durable store on a fresh simulated file system.
fn durable(index: IndexPlacement) -> (Arc<ShardedPnwStore>, PnwConfig, SimFs) {
    let fs = SimFs::new();
    let cfg = PnwConfig::new(64, 8)
        .with_clusters(1)
        .with_shards(1)
        .with_index(index);
    let store = ShardedPnwStore::open_in(cfg.clone(), Arc::new(fs.clone())).unwrap();
    (Arc::new(store), cfg, fs)
}

/// Starts a GET of `key` on its own thread; its answer arrives on the
/// returned receiver.
fn spawn_get(s: &Arc<ShardedPnwStore>, key: u64) -> std::sync::mpsc::Receiver<Option<Vec<u8>>> {
    let (tx, rx) = channel();
    let s = Arc::clone(s);
    std::thread::spawn(move || tx.send(s.get(key).unwrap()).unwrap());
    rx
}

/// A GET answered while a writer on the same shard is parked inside its
/// sync — the watchdog fails the test if the GET waits for it.
fn get_beside_a_parked_sync(s: &Arc<ShardedPnwStore>, key: u64) -> Option<Vec<u8>> {
    spawn_get(s, key)
        .recv_timeout(Duration::from_secs(20))
        .expect("a GET waited on another op's fsync")
}

#[test]
fn a_get_never_waits_on_a_put_or_delete_parked_in_its_sync() {
    let (s, _, fs) = durable(IndexPlacement::Dram);
    s.put(1, &[1; 8]).unwrap();

    // An update parked in its sync: the GET reads the old value, at once.
    let (parked, release) = fs.park_sync("wal.");
    let t = Arc::clone(&s);
    let put = std::thread::spawn(move || t.put(1, &[2; 8]).unwrap());
    parked.recv().unwrap();
    assert_eq!(get_beside_a_parked_sync(&s, 1), Some(vec![1; 8]));
    drop(release);
    put.join().unwrap();
    assert_eq!(
        s.get(1).unwrap(),
        Some(vec![2; 8]),
        "published after its sync"
    );

    // A delete parked in its sync: the key is still there until it is
    // durably gone.
    let (parked, release) = fs.park_sync("wal.");
    let t = Arc::clone(&s);
    let delete = std::thread::spawn(move || t.delete(1).unwrap());
    parked.recv().unwrap();
    assert_eq!(get_beside_a_parked_sync(&s, 1), Some(vec![2; 8]));
    drop(release);
    assert!(delete.join().unwrap());
    assert_eq!(s.get(1).unwrap(), None);
    assert_eq!(s.snapshot().read_waits, 0, "no GET took the slow path");
}

/// The NVM index keeps the publish-first order — its entry is written
/// before the record, so the bracket spans the sync — and a GET there does
/// wait, which `read_waits` counts.
#[test]
fn under_the_nvm_index_a_get_waits_out_the_sync_and_is_counted() {
    let (s, _, fs) = durable(IndexPlacement::Nvm);
    s.put(1, &[1; 8]).unwrap();
    let (parked, release) = fs.park_sync("wal.");
    let t = Arc::clone(&s);
    let put = std::thread::spawn(move || t.put(1, &[2; 8]).unwrap());
    parked.recv().unwrap();
    let get = spawn_get(&s, 1);
    assert!(
        get.recv_timeout(Duration::from_millis(200)).is_err(),
        "the GET must wait"
    );
    drop(release);
    put.join().unwrap();
    assert_eq!(get.recv().unwrap(), Some(vec![2; 8]));
    assert_eq!(s.snapshot().read_waits, 1);
}

/// A per-op sync that fails completes nothing: the update, the delete and
/// the fresh PUT each fail, every GET reads what was committed, `len()` and
/// the pool's free count are unchanged, and a reopen agrees.
#[test]
fn a_failed_sync_leaves_the_committed_state_in_memory_and_on_reopen() {
    let (s, cfg, fs) = durable(IndexPlacement::Dram);
    s.put(1, &[1; 8]).unwrap();
    s.put(2, &[2; 8]).unwrap();
    let (len, free) = (s.len(), s.snapshot().free);

    fs.fail_sync("wal.", 0);
    assert!(s.put(1, &[9; 8]).is_err(), "update");
    fs.fail_sync("wal.", 0);
    assert!(s.delete(2).is_err(), "delete");
    fs.fail_sync("wal.", 0);
    assert!(s.put(3, &[3; 8]).is_err(), "fresh key");

    let committed = |s: &ShardedPnwStore| {
        assert_eq!(s.get(1).unwrap(), Some(vec![1; 8]));
        assert_eq!(s.get(2).unwrap(), Some(vec![2; 8]));
        assert_eq!(s.get(3).unwrap(), None);
        assert_eq!((s.len(), s.snapshot().free), (len, free));
    };
    committed(&s);
    drop(s);
    committed(&ShardedPnwStore::open_in(cfg, Arc::new(fs)).unwrap());
}
