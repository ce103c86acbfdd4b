//! Crash-recovery integration tests across the full stack.
//!
//! Two layers of recovery are exercised here:
//!
//! * **Volatile reconstruction** (`crash_and_recover`) — the paper's
//!   recovery story (§V-A.1): DRAM structures die, the NVM data zone
//!   survives, everything is rebuilt from bucket headers.
//! * **The kill-and-reopen matrix** — the durable file-backed store:
//!   {DRAM index, NVM Path-Hashing index} × {clean close, kill between
//!   ops, torn superblock replica, torn mid-WAL record, half-written
//!   checkpoint}. Every cell reopens the store from its directory and
//!   proves that each committed key is served bit-for-bit and that no
//!   phantom (unacknowledged) key survives.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use pnw_core::{
    IndexPlacement, MetaTarget, MetaTear, PnwConfig, PnwStore, ShardedPnwStore, Store,
};
use pnw_workloads::{DatasetKind, Workload};

fn populated_store(placement: IndexPlacement) -> (PnwStore, Vec<(u64, Vec<u8>)>) {
    let mut w = DatasetKind::Amazon.build(21);
    let vs = w.value_size();
    let store = PnwStore::new(
        PnwConfig::new(128, vs)
            .with_clusters(4)
            .with_index(placement),
    );
    let mut expected = Vec::new();
    for key in 0..64u64 {
        let v = w.next_value();
        store.put(key, &v).expect("room");
        expected.push((key, v));
    }
    // A few deletes and updates to make recovery non-trivial.
    for key in (0..64u64).step_by(7) {
        store.delete(key).expect("present");
        expected.retain(|(k, _)| *k != key);
    }
    for key in (1..64u64).step_by(13) {
        let v = w.next_value();
        store.put(key, &v).expect("room");
        match expected.iter_mut().find(|(k, _)| *k == key) {
            Some(e) => e.1 = v,
            // Key 14 was deleted above; this put re-inserts it.
            None => expected.push((key, v)),
        }
    }
    (store, expected)
}

#[test]
fn dram_index_recovery_rebuilds_from_headers() {
    let (store, expected) = populated_store(IndexPlacement::Dram);
    store.crash_and_recover().expect("recovery");
    assert_eq!(store.len(), expected.len());
    for (key, v) in &expected {
        assert_eq!(store.get(*key).unwrap().as_ref(), Some(v), "key {key}");
    }
    // Deleted keys stay deleted.
    assert_eq!(store.get(0).unwrap(), None);
}

#[test]
fn nvm_index_recovery_reads_persistent_index() {
    let (store, expected) = populated_store(IndexPlacement::Nvm);
    store.crash_and_recover().expect("recovery");
    assert_eq!(store.len(), expected.len());
    for (key, v) in &expected {
        assert_eq!(store.get(*key).unwrap().as_ref(), Some(v), "key {key}");
    }
}

#[test]
fn store_remains_fully_functional_after_recovery() {
    let (store, expected) = populated_store(IndexPlacement::Dram);
    store.crash_and_recover().expect("recovery");
    let mut w = DatasetKind::Amazon.build(99);
    // Keep writing and deleting after recovery.
    for key in 1000..1064u64 {
        store.put(key, &w.next_value()).expect("room after recovery");
    }
    for key in 1000..1032u64 {
        assert!(store.delete(key).expect("device ok"));
    }
    assert_eq!(store.len(), expected.len() + 32);
    // The model retrained during recovery (reconstruction, §V-A.1).
    assert!(store.is_trained());
}

#[test]
fn repeated_crashes_are_idempotent() {
    let (store, expected) = populated_store(IndexPlacement::Dram);
    for _ in 0..3 {
        store.crash_and_recover().expect("recovery");
    }
    assert_eq!(store.len(), expected.len());
    for (key, v) in expected.iter().take(5) {
        assert_eq!(store.get(*key).unwrap().as_ref(), Some(v));
    }
}

/// A torn write at the device level: the flag byte is the *first* word of
/// the bucket header, written before the value, so a write torn mid-value
/// leaves a valid-flagged bucket with a partial value — which the paper's
/// delete-then-put update order turns into a stale-but-complete *old*
/// version for updates (the new version's index entry is only written after
/// the data, Algorithm 2 line 7).
#[test]
fn torn_value_write_never_corrupts_committed_keys() {
    use pnw_baselines::{PathHashStore, Store};

    let s = PathHashStore::new(16, 32);
    s.put(1, &[0x11; 32]).expect("room");
    s.put(2, &[0x22; 32]).expect("room");
    // The committed keys survive a crash+recovery cycle of the device.
    // (PathHashStore keeps index + data in NVM, nothing to rebuild.)
    assert_eq!(s.get(1).unwrap().unwrap(), vec![0x11; 32]);
    assert_eq!(s.get(2).unwrap().unwrap(), vec![0x22; 32]);
}

// ---------------------------------------------------------------------------
// The kill-and-reopen matrix (durable file-backed store).
// ---------------------------------------------------------------------------

/// A fresh scratch directory under the test temp root, unique per test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnw_recovery_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cfg(placement: IndexPlacement, dir: &Path, vs: usize) -> PnwConfig {
    PnwConfig::new(128, vs)
        .with_clusters(4)
        .with_index(placement)
        .with_path(dir)
}

/// The committed op mix every matrix cell runs before its crash: fresh
/// puts, deletes, and delete-put updates — all acknowledged, so all of
/// them must survive any cell's crash.
fn apply_op_mix(store: &PnwStore, seed: u64) -> Vec<(u64, Vec<u8>)> {
    let mut w = DatasetKind::Amazon.build(seed);
    let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();
    for key in 0..64u64 {
        let v = w.next_value();
        store.put(key, &v).expect("room");
        expected.push((key, v));
    }
    for key in (0..64u64).step_by(7) {
        store.delete(key).expect("present");
        expected.retain(|(k, _)| *k != key);
    }
    for key in (1..64u64).step_by(13) {
        let v = w.next_value();
        store.put(key, &v).expect("room");
        match expected.iter_mut().find(|(k, _)| *k == key) {
            Some(e) => e.1 = v,
            None => expected.push((key, v)),
        }
    }
    expected
}

/// Every committed key bit-for-bit, no phantom keys, correct count.
fn assert_exact_contents(store: &PnwStore, expected: &[(u64, Vec<u8>)]) {
    assert_eq!(store.len(), expected.len(), "live key count");
    for (key, v) in expected {
        assert_eq!(
            store.get(*key).unwrap().as_ref(),
            Some(v),
            "committed key {key} must be served bit-for-bit"
        );
    }
    let committed: HashSet<u64> = expected.iter().map(|(k, _)| *k).collect();
    for key in 0..256u64 {
        if !committed.contains(&key) {
            assert_eq!(
                store.get(key).unwrap(),
                None,
                "phantom key {key} must not survive recovery"
            );
        }
    }
}

/// How a matrix cell "kills" the store after the committed op mix.
#[derive(Clone, Copy, Debug)]
enum Kill {
    /// `close()`: final checkpoint, then drop.
    CleanClose,
    /// Plain drop without a checkpoint — the WAL alone carries the state.
    BetweenOps,
    /// A checkpoint whose superblock bump tears mid-record: the new
    /// replica slot is invalid, recovery must elect the old one.
    TornSuperblock,
    /// A put whose WAL commit record tears mid-frame: the op is not
    /// acknowledged and must not survive.
    TornWal,
    /// A checkpoint whose body tears before the rename's source is
    /// complete: recovery must keep serving from the old epoch.
    TornCheckpoint,
}

fn run_matrix_cell(placement: IndexPlacement, kill: Kill, name: &str) {
    let vs = DatasetKind::Amazon.build(21).value_size();
    let dir = scratch_dir(name);
    let cfg = durable_cfg(placement, &dir, vs);

    let store = PnwStore::open(cfg.clone()).expect("fresh open");
    assert!(store.is_durable());
    let expected = apply_op_mix(&store, 21);
    match kill {
        Kill::CleanClose => store.close().expect("clean close"),
        Kill::BetweenOps => drop(store),
        Kill::TornSuperblock => {
            store.arm_meta_tear(MetaTear {
                target: MetaTarget::Superblock,
                skip: 0,
                keep_bytes: 13,
            });
            assert!(store.checkpoint().is_err(), "torn superblock must fail");
            drop(store);
        }
        Kill::TornWal => {
            store.arm_meta_tear(MetaTear {
                target: MetaTarget::Wal,
                skip: 0,
                keep_bytes: 5,
            });
            // The put's bucket write lands but its commit record tears:
            // the op fails and the store is dead from here on.
            assert!(store.put(999, &vec![0xAB; vs]).is_err());
            assert!(store.put(998, &vec![0xCD; vs]).is_err());
            drop(store);
        }
        Kill::TornCheckpoint => {
            store.arm_meta_tear(MetaTear {
                target: MetaTarget::Checkpoint,
                skip: 0,
                keep_bytes: 32,
            });
            assert!(store.checkpoint().is_err(), "torn checkpoint must fail");
            drop(store);
        }
    }

    let store = PnwStore::open(cfg).expect("reopen after kill");
    assert_exact_contents(&store, &expected);
    // The reopened store keeps serving writes.
    store.put(5000, &vec![0x5A; vs]).expect("post-recovery put");
    assert_eq!(store.get(5000).unwrap().unwrap(), vec![0x5A; vs]);
    assert!(store.delete(5000).unwrap());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn matrix_dram_clean_close() {
    run_matrix_cell(IndexPlacement::Dram, Kill::CleanClose, "dram_clean");
}

#[test]
fn matrix_dram_kill_between_ops() {
    run_matrix_cell(IndexPlacement::Dram, Kill::BetweenOps, "dram_kill");
}

#[test]
fn matrix_dram_torn_superblock_replica() {
    run_matrix_cell(IndexPlacement::Dram, Kill::TornSuperblock, "dram_super");
}

#[test]
fn matrix_dram_torn_mid_wal_record() {
    run_matrix_cell(IndexPlacement::Dram, Kill::TornWal, "dram_wal");
}

#[test]
fn matrix_dram_half_written_checkpoint() {
    run_matrix_cell(IndexPlacement::Dram, Kill::TornCheckpoint, "dram_ckpt");
}

#[test]
fn matrix_nvm_clean_close() {
    run_matrix_cell(IndexPlacement::Nvm, Kill::CleanClose, "nvm_clean");
}

#[test]
fn matrix_nvm_kill_between_ops() {
    run_matrix_cell(IndexPlacement::Nvm, Kill::BetweenOps, "nvm_kill");
}

#[test]
fn matrix_nvm_torn_superblock_replica() {
    run_matrix_cell(IndexPlacement::Nvm, Kill::TornSuperblock, "nvm_super");
}

#[test]
fn matrix_nvm_torn_mid_wal_record() {
    run_matrix_cell(IndexPlacement::Nvm, Kill::TornWal, "nvm_wal");
}

#[test]
fn matrix_nvm_half_written_checkpoint() {
    run_matrix_cell(IndexPlacement::Nvm, Kill::TornCheckpoint, "nvm_ckpt");
}

/// A torn *data-zone* write on the durable store: the device tears the
/// bucket write mid-word-stream and crashes. The op fails before it
/// reaches the WAL, so recovery must neither serve the torn key nor lose
/// any committed one.
#[test]
fn matrix_torn_data_write_is_unacknowledged() {
    let vs = DatasetKind::Amazon.build(21).value_size();
    let dir = scratch_dir("torn_data");
    let cfg = durable_cfg(IndexPlacement::Dram, &dir, vs);

    let store = PnwStore::open(cfg.clone()).unwrap();
    let expected = apply_op_mix(&store, 21);
    // Tear after one persisted word of the next data-zone write.
    store.arm_torn_write(0, 1);
    assert!(store.put(999, &vec![0xEE; vs]).is_err());
    drop(store);

    let store = PnwStore::open(cfg).unwrap();
    assert_exact_contents(&store, &expected);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// DeviceStats and per-word wear are part of the checkpoint: a reopened
/// store reports exactly the counters the checkpoint captured, so wear
/// studies survive restarts.
#[test]
fn device_stats_and_wear_survive_reopen() {
    let vs = DatasetKind::Amazon.build(21).value_size();
    let dir = scratch_dir("stats");
    let cfg = durable_cfg(IndexPlacement::Dram, &dir, vs);

    let store = PnwStore::open(cfg.clone()).unwrap();
    let _ = apply_op_mix(&store, 21);
    store.checkpoint().unwrap();
    let stats_before = store.device_stats();
    let wear_before = store.word_wear_cdf();
    assert!(stats_before.totals.bit_flips > 0);
    assert!(wear_before.max() >= 1);
    // Kill without a further checkpoint: the counters must come from the
    // checkpoint just cut, not from the repair writes recovery performs.
    drop(store);

    let store = PnwStore::open(cfg).unwrap();
    assert_eq!(store.device_stats(), stats_before);
    assert_eq!(store.word_wear_cdf(), wear_before);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Sharded store: the same kill semantics across shard-private WALs.
// ---------------------------------------------------------------------------

#[test]
fn sharded_kill_between_ops_recovers_every_shard() {
    let dir = scratch_dir("sharded_kill");
    let cfg = PnwConfig::new(128, 8)
        .with_clusters(2)
        .with_shards(4)
        .with_seed(7)
        .with_path(&dir);

    let store = ShardedPnwStore::open(cfg.clone()).unwrap();
    for k in 0..80u64 {
        store.put(k, &(k * 17).to_le_bytes()).unwrap();
    }
    for k in (0..80u64).step_by(9) {
        store.delete(k).unwrap();
    }
    // Kill: no close, no checkpoint — per-shard WALs carry everything.
    drop(store);

    let store = ShardedPnwStore::open(cfg).unwrap();
    let deleted: HashSet<u64> = (0..80u64).step_by(9).collect();
    assert_eq!(store.len(), 80 - deleted.len());
    for k in 0..80u64 {
        if deleted.contains(&k) {
            assert_eq!(store.get(k).unwrap(), None, "deleted key {k}");
        } else {
            assert_eq!(store.get(k).unwrap().unwrap(), (k * 17).to_le_bytes());
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_torn_wal_record_drops_only_the_unacknowledged_put() {
    let dir = scratch_dir("sharded_wal");
    let cfg = PnwConfig::new(128, 8)
        .with_clusters(2)
        .with_shards(4)
        .with_seed(7)
        .with_path(&dir);

    let store = ShardedPnwStore::open(cfg.clone()).unwrap();
    for k in 0..40u64 {
        store.put(k, &(k * 13).to_le_bytes()).unwrap();
    }
    // The metadata fault state is shared by every shard's WAL appender:
    // whichever shard the next put routes to, its commit record tears.
    store.arm_meta_tear(MetaTear {
        target: MetaTarget::Wal,
        skip: 0,
        keep_bytes: 3,
    });
    assert!(store.put(999, &[0xAB; 8]).is_err());
    drop(store);

    let store = ShardedPnwStore::open(cfg).unwrap();
    assert_eq!(store.len(), 40);
    assert_eq!(store.get(999).unwrap(), None, "torn put must not survive");
    for k in 0..40u64 {
        assert_eq!(store.get(k).unwrap().unwrap(), (k * 13).to_le_bytes());
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The group-commit commit point: a batched `apply` defers the WAL fsync
/// to one `sync_data` per shard group, but no op is acknowledged before
/// that fsync lands — so a kill with *no* checkpoint right after `apply`
/// returns must still recover every acknowledged op.
#[test]
fn sharded_group_commit_survives_kill_without_checkpoint() {
    let dir = scratch_dir("group_commit");
    let cfg = PnwConfig::new(128, 8)
        .with_clusters(2)
        .with_shards(4)
        .with_seed(7)
        .with_path(&dir);

    let store = ShardedPnwStore::open(cfg.clone()).unwrap();
    let mut batch = pnw_core::Batch::new();
    for k in 0..64u64 {
        batch.put(k, &(k * 29).to_le_bytes());
    }
    for k in (0..64u64).step_by(6) {
        batch.delete(k);
    }
    let r = store.apply(&batch);
    assert!(r.all_ok(), "{:?}", r.failures);
    // Kill immediately: the group fsyncs are all the durability there is.
    drop(store);

    let store = ShardedPnwStore::open(cfg).unwrap();
    let deleted: HashSet<u64> = (0..64u64).step_by(6).collect();
    assert_eq!(store.len(), 64 - deleted.len());
    for k in 0..64u64 {
        if deleted.contains(&k) {
            assert_eq!(store.get(k).unwrap(), None, "deleted key {k}");
        } else {
            assert_eq!(store.get(k).unwrap().unwrap(), (k * 29).to_le_bytes());
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL record tearing *inside* a batched group: the ops the report
/// acknowledged survive the reopen bit-for-bit, the torn shard's failed
/// ops are reported by batch index, and no key is ever served with a
/// value the batch did not commit — the group fails as a clean prefix,
/// not a scramble.
#[test]
fn sharded_torn_wal_inside_group_commits_a_clean_prefix() {
    let dir = scratch_dir("group_tear");
    let cfg = PnwConfig::new(256, 8)
        .with_clusters(2)
        .with_shards(4)
        .with_seed(7)
        .with_path(&dir);

    let store = ShardedPnwStore::open(cfg.clone()).unwrap();
    // Committed warm state, fsynced per-op before the fault is armed.
    for k in 0..24u64 {
        store.put(k, &(k * 13).to_le_bytes()).unwrap();
    }
    // The 5th WAL append after arming tears mid-frame; every later meta
    // write on the crashed device fails too.
    store.arm_meta_tear(MetaTear {
        target: MetaTarget::Wal,
        skip: 4,
        keep_bytes: 3,
    });
    let mut batch = pnw_core::Batch::new();
    for k in 100..132u64 {
        batch.put(k, &(k * 31).to_le_bytes());
    }
    let r = store.apply(&batch);
    assert!(!r.all_ok(), "the torn group must report failures");
    let failed: HashSet<usize> = r.failures.iter().map(|(i, _)| *i).collect();
    drop(store);

    let store = ShardedPnwStore::open(cfg).unwrap();
    for k in 0..24u64 {
        assert_eq!(store.get(k).unwrap().unwrap(), (k * 13).to_le_bytes());
    }
    for (i, k) in (100..132u64).enumerate() {
        let got = store.get(k).unwrap();
        if !failed.contains(&i) {
            assert_eq!(
                got.unwrap(),
                (k * 31).to_le_bytes(),
                "acknowledged batch op {i} (key {k}) must survive"
            );
        } else if let Some(v) = got {
            // An op reported failed at the group fsync boundary may have a
            // fully-persisted record; if it survives, it must be intact.
            assert_eq!(v, (k * 31).to_le_bytes(), "failed op {i} served torn bytes");
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Batched `apply` and the per-op path agree across a durable
/// close-and-reopen cycle.
#[test]
fn sharded_clean_close_preserves_batch_results() {
    let dir = scratch_dir("sharded_batch");
    let cfg = PnwConfig::new(128, 8)
        .with_clusters(2)
        .with_shards(2)
        .with_seed(7)
        .with_path(&dir);

    let store = ShardedPnwStore::open(cfg.clone()).unwrap();
    let mut batch = pnw_core::Batch::new();
    for k in 0..48u64 {
        batch.put(k, &(k * 3).to_le_bytes());
    }
    for k in (0..48u64).step_by(5) {
        batch.delete(k);
    }
    let r = store.apply(&batch);
    assert!(r.all_ok(), "{:?}", r.failures);
    store.close().unwrap();

    let store = ShardedPnwStore::open(cfg).unwrap();
    let deleted: HashSet<u64> = (0..48u64).step_by(5).collect();
    assert_eq!(store.len(), 48 - deleted.len());
    for k in 0..48u64 {
        if deleted.contains(&k) {
            assert_eq!(store.get(k).unwrap(), None);
        } else {
            assert_eq!(store.get(k).unwrap().unwrap(), (k * 3).to_le_bytes());
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable update or delete syncs its WAL record before it unlinks
/// anything, and clears the vacated bucket's flag last. These cells crash
/// at exactly that flag clear — the record synced, the clear never landing
/// — and reopen: the key reads its new value (update) or nothing (delete),
/// and the old bucket is free again, because recovery's repair clears a
/// valid header whose key is committed at another address, or not at all.
/// (Under the old order the crash landed before the record and the key
/// kept its old value.)
fn crash_at_the_vacated_flag_clear(name: &str, delete: bool) {
    let dir = scratch_dir(name);
    let cfg = PnwConfig::new(64, 8)
        .with_clusters(2)
        .with_shards(1)
        .with_seed(7)
        .with_path(&dir);
    let store = ShardedPnwStore::open(cfg.clone()).unwrap();
    for k in 0..16u64 {
        store.put(k, &(k * 11).to_le_bytes()).unwrap();
    }
    // An update writes the new bucket image, then — after its sync — the
    // flag clear; a delete's flag clear is its only cell write.
    let (skip, op) = if delete { (0, "delete") } else { (1, "update") };
    store.arm_torn_write_after(0, skip, 0);
    // The record is synced before the flag clear, so the op is committed
    // and acknowledged whatever becomes of the clear.
    let acked = if delete {
        store.delete(5).is_ok()
    } else {
        store.put(5, &[0xEE; 8]).is_ok()
    };
    assert!(acked, "the {op} committed before the crash");
    drop(store);

    let store = ShardedPnwStore::open(cfg).unwrap();
    let expected = (!delete).then(|| vec![0xEE; 8]);
    assert_eq!(
        store.get(5).unwrap(),
        expected,
        "the synced {op} is what recovers"
    );
    assert_eq!(store.len(), 16 - usize::from(delete));
    for k in (0..16u64).filter(|&k| k != 5) {
        assert_eq!(store.get(k).unwrap().unwrap(), (k * 11).to_le_bytes());
    }
    let snap = store.snapshot();
    assert_eq!(
        snap.free,
        snap.capacity - snap.live,
        "the vacated bucket is free"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_at_the_vacated_flag_clear_after_a_synced_update() {
    crash_at_the_vacated_flag_clear("flag_clear_update", false);
}

#[test]
fn crash_at_the_flag_clear_after_a_synced_delete() {
    crash_at_the_vacated_flag_clear("flag_clear_delete", true);
}

// ---------------------------------------------------------------------------
// Serving + recovery: the acknowledged prefix survives a server crash.

/// A server killed mid-pipelined-stream without a checkpoint: after the
/// WAL replay on reopen, the store holds every acknowledged write with
/// bit-exact values and nothing the client never sent — acked ⊆
/// recovered ⊆ sent. (The gap between the two inclusions is writes that
/// committed but whose ack was lost in the crash; those may legitimately
/// survive.)
#[test]
fn server_killed_mid_pipeline_recovers_exactly_the_acked_prefix() {
    use pnw_server::{Client, Request, Response, Server, ServerAddr, ServerConfig};

    let dir = scratch_dir("server_kill_pipeline");
    let cfg = PnwConfig::new(4096, 8)
        .with_clusters(2)
        .with_shards(2)
        .with_path(&dir);
    let store: std::sync::Arc<dyn Store> =
        std::sync::Arc::new(ShardedPnwStore::open(cfg.clone()).unwrap());
    let server = Server::start(
        store,
        &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().clone();

    const SENT: u64 = 400;
    fn value(k: u64) -> [u8; 8] {
        k.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes()
    }

    // One connection pipelines every PUT without waiting, then collects
    // acks in order until the crash cuts the stream.
    let client = std::thread::spawn(move || {
        let mut c = Client::connect(&addr).unwrap();
        let mut ids = Vec::new();
        for k in 0..SENT {
            match c.send(&Request::Put { key: k, value: value(k).to_vec() }) {
                Ok(id) => ids.push((id, k)),
                Err(_) => break, // the socket died under the abort
            }
        }
        let mut acked = Vec::new();
        for (id, k) in ids {
            match c.recv() {
                Ok(f) if f.id == id && f.resp == Response::Put => acked.push(k),
                _ => break,
            }
        }
        acked
    });

    // Kill the server once some writes have committed — no checkpoint,
    // so the reopen below exercises WAL replay under a torn stream.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.stats().requests_ok < 16 {
        assert!(std::time::Instant::now() < deadline, "no request ever committed");
        std::thread::yield_now();
    }
    server.abort();
    let acked = client.join().unwrap();
    assert!(!acked.is_empty(), "the kill landed before any ack reached the client");

    let store = ShardedPnwStore::open(cfg).unwrap();
    // acked ⊆ recovered: every acknowledged write survives, bit-exact.
    for &k in &acked {
        assert_eq!(
            store.get(k).unwrap().as_deref(),
            Some(&value(k)[..]),
            "acknowledged key {k} lost in the crash"
        );
    }
    // recovered ⊆ sent: whatever survived is a write this client sent,
    // never a fabricated or torn value...
    let mut recovered = 0usize;
    for k in 0..SENT {
        if let Some(v) = store.get(k).unwrap() {
            assert_eq!(v, value(k), "recovered key {k} has a torn value");
            recovered += 1;
        }
    }
    // ...and nothing outside the sent key range exists at all.
    assert_eq!(store.len(), recovered, "store holds keys the client never sent");
    assert!(recovered >= acked.len());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
