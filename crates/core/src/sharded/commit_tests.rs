//! Place, commit, then publish: on a durable shard over either index a PUT
//! or DELETE syncs its WAL record with no write bracket open, so a
//! lock-free GET on that shard never waits for another op's fsync and
//! still never sees an effect before it is durable; and a failed sync
//! leaves the store exactly as it was — in memory, through a checkpoint
//! and on reopen.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use pnw_nvm_sim::SimFs;

use super::ShardedPnwStore;
use crate::config::{IndexPlacement, PnwConfig};

/// Both index placements, the ones every test here runs on.
const INDEXES: [IndexPlacement; 2] = [IndexPlacement::Dram, IndexPlacement::Nvm];

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

/// A GET answered, on its own thread, while a writer on the same shard is
/// parked inside its sync — the watchdog fails the test if the GET waits
/// for it.
fn get_beside_a_parked_sync(s: &Arc<ShardedPnwStore>, key: u64) -> Option<Vec<u8>> {
    let (tx, rx) = channel();
    let s = Arc::clone(s);
    std::thread::spawn(move || tx.send(s.get(key).unwrap()).unwrap());
    rx.recv_timeout(Duration::from_secs(20)).expect("a GET waited on another op's fsync")
}

#[test]
fn a_get_never_waits_on_a_put_or_delete_parked_in_its_sync() {
    for index in INDEXES {
        let (s, _, fs) = durable(index);
        s.put(1, &[1; 8]).unwrap();

        // An update parked in its sync: the GET reads the old value, at
        // once.
        let (parked, release) = fs.park_sync("wal.");
        let t = Arc::clone(&s);
        let put = std::thread::spawn(move || t.put(1, &[2; 8]).unwrap());
        parked.recv().unwrap();
        assert_eq!(get_beside_a_parked_sync(&s, 1), Some(vec![1; 8]), "{index:?}");
        drop(release);
        put.join().unwrap();
        let published = s.get(1).unwrap();
        assert_eq!(published, Some(vec![2; 8]), "{index:?}: published after its sync");

        // A delete parked in its sync: the key is still there until it is
        // durably gone.
        let (parked, release) = fs.park_sync("wal.");
        let t = Arc::clone(&s);
        let delete = std::thread::spawn(move || t.delete(1).unwrap());
        parked.recv().unwrap();
        assert_eq!(get_beside_a_parked_sync(&s, 1), Some(vec![2; 8]), "{index:?}");
        drop(release);
        assert!(delete.join().unwrap());
        assert_eq!(s.get(1).unwrap(), None, "{index:?}");
        assert_eq!(s.snapshot().read_waits, 0, "{index:?}: no GET took the slow path");
    }
}

/// A per-op sync that fails completes nothing: the update, the delete and
/// the fresh PUT each fail, every GET reads what was committed, `len()` and
/// the pool's free count are unchanged, and a checkpoint and a reopen
/// agree.
#[test]
fn a_failed_sync_leaves_the_committed_state_in_memory_and_on_reopen() {
    for index in INDEXES {
        let (s, cfg, fs) = durable(index);
        s.put(1, &[1; 8]).unwrap();
        s.put(2, &[2; 8]).unwrap();
        let (len, free) = (s.len(), s.snapshot().free);

        fs.fail_sync("wal.", 0);
        assert!(s.put(1, &[9; 8]).is_err(), "{index:?}: update");
        fs.fail_sync("wal.", 0);
        assert!(s.delete(2).is_err(), "{index:?}: delete");
        fs.fail_sync("wal.", 0);
        assert!(s.put(3, &[3; 8]).is_err(), "{index:?}: fresh key");

        let committed = |s: &ShardedPnwStore, when: &str| {
            assert_eq!(s.get(1).unwrap(), Some(vec![1; 8]), "{index:?}, {when}: key 1");
            assert_eq!(s.get(2).unwrap(), Some(vec![2; 8]), "{index:?}, {when}: key 2");
            assert_eq!(s.get(3).unwrap(), None, "{index:?}, {when}: key 3");
            let counts = (s.len(), s.snapshot().free);
            assert_eq!(counts, (len, free), "{index:?}, {when}: len and free");
        };
        committed(&s, "in memory");
        s.checkpoint().unwrap();
        committed(&s, "after a checkpoint");
        drop(s);
        committed(&ShardedPnwStore::open_in(cfg, Arc::new(fs)).unwrap(), "on reopen");
    }
}
