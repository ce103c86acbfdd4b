//! Crash-recovery integration tests across the full stack.
//!
//! Two layers of recovery are exercised here:
//!
//! * **Volatile reconstruction** (`crash_and_recover`) — the paper's
//!   recovery story (§V-A.1): DRAM structures die, the NVM data zone
//!   survives, everything is rebuilt from bucket headers.
//! * **The crash matrix** — the durable file-backed store on a simulated
//!   file system, crashed at every write of a seeded script on four
//!   configurations, each write torn three or four ways, and powered off
//!   at every sync (`common/crash.rs`).

mod common;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use common::crash::{self, Script, Site, Tear, CHECKPOINT, SUPERBLOCK, WAL, WRITE_BACKS};
use common::oracle::{Backend, Step};
use pnw_core::{Batch, IndexPlacement, PnwConfig, PnwStore, ShardedPnwStore, Store, StoreError};
use pnw_nvm_sim::{Crash, Fs, NvmError, Open, SimFs};
use pnw_workloads::{DatasetKind, Workload};

fn populated_store(placement: IndexPlacement) -> (PnwStore, Vec<(u64, Vec<u8>)>) {
    let vs = DatasetKind::Amazon.build(21).value_size();
    let store = PnwStore::new(
        PnwConfig::new(128, vs)
            .with_clusters(4)
            .with_index(placement),
    );
    let expected = apply_op_mix(&store, 21);
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
// The durable file-backed store.
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

/// A committed op mix: fresh puts, then deletes and updates to make
/// recovery non-trivial (key 14 is deleted, then re-inserted).
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

/// DeviceStats are part of the checkpoint and per-word wear is written
/// back with the data file: a reopened store reports exactly the counters
/// the checkpoint captured, so wear studies survive restarts. On both
/// indexes: a reopen that finds the zone and the NVM index as committed
/// writes nothing.
#[test]
fn device_stats_and_wear_survive_reopen() {
    let vs = DatasetKind::Amazon.build(21).value_size();
    for placement in [IndexPlacement::Dram, IndexPlacement::Nvm] {
        let dir = scratch_dir(&format!("stats_{placement:?}"));
        let cfg = durable_cfg(placement, &dir, vs);

        let store = PnwStore::open(cfg.clone()).unwrap();
        let _ = apply_op_mix(&store, 21);
        store.checkpoint().unwrap();
        let stats_before = store.device_stats();
        let wear_before = store.word_wear_cdf();
        assert!(stats_before.totals.bit_flips > 0);
        assert!(wear_before.max() >= 1);
        // Kill without a further checkpoint: the counters must come from
        // the checkpoint just cut, not from writes recovery performs.
        drop(store);

        let store = PnwStore::open(cfg).unwrap();
        assert_eq!(store.device_stats(), stats_before, "{placement:?}");
        assert_eq!(store.word_wear_cdf(), wear_before, "{placement:?}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint carries the map, the stats and the retired list, never the
/// wear: on the same PUT stream at 1× and 4× capacity it stays within 16 B
/// per live key, 4 B per retired bucket and 1 KiB. A second checkpoint with
/// no op in between writes no data-file page.
#[test]
fn a_checkpoint_costs_the_map_not_the_capacity() {
    for capacity in [2048, 8192] {
        let fs = SimFs::new();
        let cfg = PnwConfig::new(capacity, 64).with_clusters(2).with_shards(2).with_seed(3);
        let store = crash::open(&cfg, &fs).unwrap();
        for i in 0..3000u64 {
            let key = i % 1500;
            store.put(key, &[(i % 251) as u8; 64]).unwrap();
        }
        store.checkpoint().unwrap();
        let snap = store.snapshot();
        let name = fs.list().unwrap().into_iter().find(|n| n.starts_with("checkpoint.")).unwrap();
        let bytes = fs.read(&name).unwrap().len() as u64;
        let bound = 16 * snap.live as u64 + 4 * snap.scrub.retired + 1024;
        assert!(bytes <= bound, "capacity {capacity}: {name} is {bytes} B, bound {bound} B");
        // Any write to a data file now would die torn.
        fs.tear("data.", 0, 0);
        store.checkpoint().expect("a checkpoint with nothing dirty writes no data-file page");
    }
}

// ---------------------------------------------------------------------------
// The crash matrix (`common/crash.rs`), one test per configuration and
// site: tier-1 walks each site at k = 0, every 7th k and its last write
// (or sync); the ignored `crash_matrix_full` walks every k.
// ---------------------------------------------------------------------------

const STRIDE: u64 = 7;
const DRAM: usize = 0;
const SHARDED: usize = 1;
const NVM: usize = 2;
const TTL_RESERVE: usize = 3;

/// Configuration `config` of the matrix in directories of `test`'s own,
/// and its script, built once per configuration.
fn matrix(test: &str, config: usize) -> (Backend, &'static Script) {
    static SCRIPTS: [OnceLock<Script>; 4] = [const { OnceLock::new() }; 4];
    let script = SCRIPTS[config].get_or_init(|| Script::of(&crash::configs("script")[config]));
    (crash::configs(test).into_iter().nth(config).unwrap(), script)
}

/// Walks `sites` of configuration `config`, strided, in directories named
/// after `test`; with no sites, closes the script cleanly and checks the
/// reopen.
fn walk(test: &str, config: usize, sites: &[Site]) {
    let (backend, script) = matrix(test, config);
    if sites.is_empty() {
        crash::run(&backend, script, None, true);
    } else {
        let writes = crash::walk(&backend, script, sites, STRIDE);
        println!("{}: writes per site {writes:?}", backend.name);
    }
}

/// One test per line: its name, then the configurations and the sites it
/// walks (none: the clean close).
macro_rules! walks {
    ($($(#[$doc:meta])* $test:ident: $($config:ident $sites:expr),+;)*) => {$(
        $(#[$doc])*
        #[test]
        fn $test() {
            $(walk(stringify!($test), $config, &$sites);)+
        }
    )*};
}

const DEVICES: [Site; 4] = [Site::Device(0), Site::Device(1), Site::Device(2), Site::Device(3)];
const POWER_LOSS: Site = Site::PowerLoss;

walks! {
    matrix_dram_clean_close: DRAM [];
    matrix_dram_torn_mid_wal_record: DRAM [WAL];
    matrix_dram_torn_superblock_replica: DRAM [SUPERBLOCK];
    matrix_dram_half_written_checkpoint: DRAM [CHECKPOINT];
    matrix_nvm_clean_close: NVM [];
    matrix_nvm_torn_mid_wal_record: NVM [WAL];
    matrix_nvm_torn_superblock_replica: NVM [SUPERBLOCK];
    matrix_nvm_half_written_checkpoint: NVM [CHECKPOINT];
    /// A torn bucket, flag, expiry or index-region write on either one-shard
    /// configuration: the op it belongs to is unacknowledged and every
    /// acknowledged one survives.
    matrix_torn_data_write_is_unacknowledged: DRAM [DEVICES[0]], NVM [DEVICES[0]];
    /// A checkpoint's write-back cut before a run of dirty pages, inside
    /// it, or after it: old and new pages mixed in the data file under
    /// the old superblock, and every acknowledged op redone from the WAL.
    matrix_torn_write_back_is_redone_from_the_wal: DRAM [WRITE_BACKS[0]], NVM [WRITE_BACKS[0]];
    /// Every shard's write-back of the four-shard configuration: the
    /// other shards keep acknowledging into the old epoch's WALs.
    sharded_torn_write_back_on_any_shard: SHARDED WRITE_BACKS;
    /// Every shard's device of the four-shard configuration.
    sharded_kill_between_ops_recovers_every_shard: SHARDED DEVICES;
    /// The four shards' WALs share one store-wide append counter.
    sharded_torn_wal_record_drops_only_the_unacknowledged_put: SHARDED [WAL];
    /// The script's `Apply` group closed cleanly and reopened.
    sharded_clean_close_preserves_batch_results: SHARDED [];
    /// A kill at the checkpoint and superblock writes — the first of each
    /// right after the `Apply` group, which then survives from its WAL
    /// records alone.
    sharded_group_commit_survives_kill_without_checkpoint: SHARDED [CHECKPOINT, SUPERBLOCK];
    crash_matrix_2_shards_ttl_reserve:
        TTL_RESERVE [],
        TTL_RESERVE [DEVICES[0], DEVICES[1], WRITE_BACKS[0], WRITE_BACKS[1]],
        TTL_RESERVE [WAL, SUPERBLOCK, CHECKPOINT];
    /// The power cut at a sync of either one-shard configuration, every
    /// unsynced write lost or a seeded subset of its pages kept: the op
    /// whose sync died is unacknowledged and its record may have landed;
    /// every acknowledged op reads back bit-exact.
    matrix_power_loss_at_any_sync_keeps_every_acked_op: DRAM [POWER_LOSS], NVM [POWER_LOSS];
    /// The same on four shards, whose WALs and data files sync apart.
    sharded_power_loss_at_any_sync_keeps_every_acked_op: SHARDED [POWER_LOSS];
    ttl_reserve_power_loss_at_any_sync_keeps_every_acked_op: TTL_RESERVE [POWER_LOSS];
}

/// The simulated file system the matrix runs on against the host's: the
/// unarmed script of each configuration leaves the same files, byte for
/// byte, after `close` on both.
#[test]
fn the_simulated_file_system_leaves_the_files_the_hosts_does() {
    for config in [DRAM, SHARDED, NVM, TTL_RESERVE] {
        let (backend, script) = matrix("fidelity", config);
        let [host, sim] = crash::files_after_close(&backend, script);
        let names = |files: &crash::Files| files.keys().cloned().collect::<Vec<_>>();
        assert_eq!(names(&host), names(&sim), "{}", backend.name);
        for (name, bytes) in &host {
            assert!(bytes == &sim[name], "{}: {name} differs", backend.name);
        }
    }
}

/// The kills between ops on a one-shard configuration: a step's last
/// device write lands whole and the store dies right after it, the next
/// op not yet begun. Strided like the walk: every 7th step that writes
/// the device, and the last.
fn kill_between_ops(test: &str, config: usize) {
    let (backend, script) = matrix(test, config);
    let writes = crash::run(&backend, script, None, false).writes;
    let mut ends: Vec<u64> = writes.iter().map(|w| w[0]).collect();
    ends.dedup();
    ends.retain(|&w| w > 0);
    let strided = ends.iter().step_by(STRIDE as usize).chain(ends.last());
    for k in strided.map(|w| w - 1) {
        let run = crash::run(&backend, script, Some((DEVICES[0], k, Tear::Whole)), true);
        assert!(run.fired, "{}: device write {k} never made", backend.name);
    }
}

#[test]
fn matrix_dram_kill_between_ops() {
    kill_between_ops("dram_between_ops", DRAM);
}

#[test]
fn matrix_nvm_kill_between_ops() {
    kill_between_ops("nvm_between_ops", NVM);
}

/// A WAL record inside the script's `Apply` group — the second, after one
/// of the group's records is on file, and the last — torn each way: the
/// group is the first step to fail, the ops the report acknowledged
/// survive bit-exact, and a failed op reads its old state or, when its
/// record landed whole, its new.
#[test]
fn sharded_torn_wal_inside_group_commits_a_clean_prefix() {
    let (backend, script) = matrix("sharded_group", SHARDED);
    let apply = script.steps.iter().position(|s| matches!(s, Step::Apply(_))).unwrap();
    let Step::Apply(ops) = &script.steps[apply] else { unreachable!() };
    // One record per mutation before the group and per op in it.
    let before = script.steps[..apply].iter().filter(|s| !matches!(s, Step::Get(_))).count();
    for k in [before + 1, before + ops.len() - 1] {
        for &tear in WAL.tears() {
            let run = crash::run(&backend, script, Some((WAL, k as u64, tear)), true);
            assert_eq!(run.failed_at, Some(apply), "WAL record {k} torn {tear:?}");
        }
    }
}

/// A write-back over a data file of several pages, cut at every run of
/// dirty pages each way: the runs before the cut hold new pages, the runs
/// after it old ones, all under the old superblock, and the WAL redoes
/// every acknowledged op over them. (Each device of the matrix fits in
/// one page.)
#[test]
fn torn_write_back_of_several_pages_is_redone_from_the_wal() {
    let cfg = PnwConfig::new(12, 2048).with_clusters(2).with_seed(17);
    let backend = Backend::pnw("1 shard, 2 KiB values", cfg);
    let mut steps: Vec<Step> = (1..=6).map(|k| Step::Put(k, k as u8)).collect();
    steps.push(Step::Checkpoint);
    steps.extend([Step::Put(2, 0x22), Step::Delete(4), Step::Put(7, 0x77)]);
    let script = Script::new(&backend).with(steps);
    let writes = crash::walk(&backend, &script, &[WRITE_BACKS[0]], 1);
    println!("{}: writes per site {writes:?}", backend.name);
    // Two checkpoints, the script's and `close`'s: one writes back more
    // than one run.
    assert!(writes[0].1 >= 3, "{writes:?}: no checkpoint writes back several runs");
}

/// The first checkpoint after a recovery, on both one-shard
/// configurations: the script killed at its end, recovered, then that
/// checkpoint torn at each write of its write-back (counter pages
/// included), checkpoint file, superblock and WAL replacement, and the
/// power cut at each of its syncs. The next reopen must serve exactly what
/// one clean recovery does.
#[test]
fn matrix_first_checkpoint_after_recovery() {
    for config in [DRAM, NVM] {
        let (backend, script) = matrix("after_recovery", config);
        let writes = crash::walk_recovery(&backend, script, STRIDE);
        println!("{}: writes per site {writes:?}", backend.name);
    }
}

/// A fresh store's creation, on the one-shard DRAM configuration and on
/// four shards: each write of its data files (their headers, and the
/// first checkpoint's write-back), checkpoint file, superblock and WAL
/// resets torn each way, and the power cut at each of its syncs. The next
/// open is never refused: it gives an empty store that runs the matrix's
/// script to a clean close and passes its audit.
#[test]
fn matrix_crash_the_create() {
    for config in [DRAM, SHARDED] {
        let (backend, script) = matrix("create", config);
        let writes = crash::walk_create(&backend, script, STRIDE);
        println!("{}: the create's writes per site {writes:?}", backend.name);
    }
}

#[test]
#[ignore = "the full enumeration; run with --ignored crash_matrix"]
fn crash_matrix_full() {
    for (config, backend) in crash::configs("full").iter().enumerate() {
        println!("{}: writes per site {:?}", backend.name, crash::full(backend));
        let script = Script::of(backend);
        if [DRAM, NVM].contains(&config) {
            let writes = crash::walk_recovery(backend, &script, 1);
            println!("{}: after a recovery, writes per site {writes:?}", backend.name);
        }
        if [DRAM, SHARDED].contains(&config) {
            let writes = crash::walk_create(backend, &script, 1);
            println!("{}: the create's writes per site {writes:?}", backend.name);
        }
    }
}

/// The commit-first order's crash points (`shard/placement.rs`): a durable
/// update or delete syncs its WAL record before it unlinks anything and
/// clears the vacated bucket's flag last. The crash matrix's cells at
/// exactly that flag clear — `step`'s last of its `writes` device writes —
/// torn each way: the record is synced and the op acknowledged, so the
/// key must read its new value (update) or nothing (delete), with the
/// vacated bucket free again.
fn flag_clear_cells(test: &str, step: usize, writes: u64) -> (Backend, &'static Script) {
    let (backend, script) = matrix(test, DRAM);
    let ends = crash::run(&backend, script, None, false).writes;
    let (at, end) = (ends[step - 1][0], ends[step][0]);
    assert_eq!(end - at, writes, "{:?}", script.steps[step]);
    assert!(crash::cell(&backend, script, DEVICES[0], end - 1).fired);
    (backend, script)
}

/// The update writes its new bucket image, then the flag clear. Then the
/// cells at the update's own WAL record: landed whole while its append
/// reports failure, it must not lose the key's acknowledged old value to
/// a bucket the dying store reuses.
#[test]
fn crash_at_the_vacated_flag_clear_after_a_synced_update() {
    let (backend, script) = flag_clear_cells("update_flag_clear", crash::UPDATE, 2);
    // Every step before the update is a fresh put of one WAL record.
    let before = &script.steps[..crash::UPDATE];
    assert!(before.iter().all(|s| matches!(s, Step::Put(..))));
    assert!(crash::cell(&backend, script, WAL, crash::UPDATE as u64).fired);
}

/// The delete's flag clear is its only cell write.
#[test]
fn crash_at_the_flag_clear_after_a_synced_delete() {
    flag_clear_cells("delete_flag_clear", crash::DELETE, 1);
}

/// A power loss, not a process death: the OS drops every data-file write
/// since the checkpoint's sync, while the WAL, `fdatasync`ed per op,
/// survives. A full one-shard store is checkpointed; then a delete frees
/// one bucket for a fresh PUT, and a delete and re-put of key 5 must land
/// on 5's old bucket, the only free one. The slice of the power-loss site
/// from the checkpoint on, `close`'s syncs included, each way: at a cut
/// in `close`, keys 0, 5 and 100 must read absent, 0xEE and 0xAA.
#[test]
fn power_loss_after_checkpoint_keeps_every_acked_put() {
    let cfg = PnwConfig::new(16, 8).with_clusters(2).with_seed(7);
    let backend = Backend::pnw("1 shard, full", cfg);
    let mut steps: Vec<Step> = (0..16).map(|k| Step::Put(k, k as u8)).collect();
    steps.push(Step::Checkpoint);
    steps.extend([Step::Delete(0), Step::Put(100, 0xAA), Step::Delete(5), Step::Put(5, 0xEE)]);
    let script = Script::new(&backend).with(steps);
    let syncs = crash::run(&backend, &script, None, true).syncs;
    let (checkpointed, acked) = (syncs[16], *syncs.last().unwrap());
    let mut k = checkpointed;
    while crash::cell(&backend, &script, POWER_LOSS, k).fired {
        k += 1;
    }
    assert!(k > acked, "{}: no power loss in close: {k} syncs, {acked} by its start", backend.name);
}

/// A torn WAL record leaves bytes past the last whole frame. The store
/// reopened over it writes its next record where replay stopped, over
/// those bytes: written after them, an acknowledged PUT would sit behind
/// a frame replay stops at, and a second crash would lose it. Each tear
/// of the WAL site, on one shard and on four (the PUT after the reopen
/// goes to the torn shard).
#[test]
fn acked_put_after_reopen_from_a_torn_wal_tail_survives_a_second_crash() {
    let value = |k: u64| vec![k as u8 + 1; 8];
    for shards in [1, 4] {
        for &tear in WAL.tears() {
            let fs = SimFs::new();
            let cfg = PnwConfig::new(64, 8).with_clusters(2).with_shards(shards);
            let store = crash::open(&cfg, &fs).unwrap();
            for k in 0..4 {
                store.put(k, &value(k)).unwrap();
            }
            WAL.arm(&store, &fs, 0, tear);
            assert!(store.put(4, &value(4)).is_err(), "the torn PUT is not acknowledged");
            drop(store);

            let fs = fs.reboot();
            let store = crash::open(&cfg, &fs).unwrap();
            let next = (5..).find(|&k| store.shard_of_key(k) == store.shard_of_key(4)).unwrap();
            store.put(next, &value(next)).unwrap();
            drop(store);

            let store = crash::open(&cfg, &fs).unwrap();
            let cell = format!("{shards} shards, torn {tear:?}");
            for k in (0..4).chain([next]) {
                assert_eq!(store.get(k).unwrap(), Some(value(k)), "{cell}: acked key {k}");
            }
            let four = store.get(4).unwrap();
            assert!(four.is_none() || tear == Tear::Whole && four == Some(value(4)), "{cell}");
        }
    }
}

/// A failure the process lives through, on the one path that applies its
/// effects before its sync: a batch group. The group's delete unlinks key
/// 2 and clears its bucket's flag, then the group's one sync fails: the
/// delete is unacknowledged, but the flag clear stays in the image while
/// the store keeps serving. A checkpoint then writes it back into the data
/// file and dies at its superblock, torn three ways or the power cut at
/// its sync, so the previous checkpoint and its WAL elect at the reopen.
/// Torn, the group's record is still on file and may land; with the power
/// cut and no unsynced page kept, it is lost, and that checkpoint and WAL
/// still commit key 2: the key must read its acknowledged value, and keep
/// its bucket once the store is full — the reopen re-stamps its header.
#[test]
fn a_failed_delete_sync_then_a_torn_superblock_keeps_the_acked_value() {
    let cfg = PnwConfig::new(12, 8).with_clusters(2).with_seed(17).with_index(IndexPlacement::Nvm);
    // Not torn `Whole`: a superblock that lands elects the checkpoint cut
    // from the image the failed delete changed, which has no key 2. The
    // power is cut at the checkpoint's fourth sync, the superblock's,
    // after the data file's, the checkpoint file's and the directory's.
    let torn = SUPERBLOCK.tears()[..3].iter().map(|&tear| (SUPERBLOCK, 0, tear));
    let cut = POWER_LOSS.tears().iter().map(|&tear| (POWER_LOSS, 3, tear));
    for (site, k, tear) in torn.chain(cut) {
        let cell = format!("{site:?} torn {tear:?}");
        let fs = SimFs::new();
        let store = crash::open(&cfg, &fs).unwrap();
        for k in 1..=4u64 {
            store.put(k, &[k as u8; 8]).unwrap();
        }
        // Key 2's PUT record is gone with the WAL this replaces: only the
        // checkpoint, and the data file, hold it.
        store.checkpoint().unwrap();
        store.put(5, &[5; 8]).unwrap();
        fs.fail_sync("wal.", 0);
        let mut group = Batch::new();
        group.delete(2);
        assert!(!store.apply(&group).all_ok(), "{cell}: the failed sync fails the delete");
        site.arm(&store, &fs, k, tear);
        assert!(store.checkpoint().is_err(), "{cell}: the checkpoint died at its superblock");
        drop(store);

        // Its bucket must not rejoin the pool: fill every free bucket,
        // then read every key back.
        let store = crash::open(&cfg, &fs.reboot()).unwrap();
        let two = store.get(2).unwrap();
        let acked = (two.as_deref() == Some(&[2; 8])) as u64;
        assert!(acked == 1 || two.is_none(), "{cell}: key 2 reads {two:?}");
        if (site, tear) == (POWER_LOSS, Tear::Nothing) {
            assert_eq!(acked, 1, "{cell}: the lost delete took key 2");
        }
        let fresh = (100..).take_while(|&k| store.put(k, &[k as u8; 8]).is_ok()).count();
        assert_eq!(store.len(), 12, "{cell}: {fresh} fresh keys fit");
        let kept = [1, 3, 4, 5].into_iter().chain((acked == 1).then_some(2));
        for k in kept.chain(100..100 + fresh as u64) {
            assert_eq!(store.get(k).unwrap(), Some(vec![k as u8; 8]), "{cell}: key {k}");
        }
    }
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

// ---------------------------------------------------------------------------
// Files that are not this store's. Every one is refused with `Corrupt`
// naming the file; none is replayed into the wrong shard or read as empty.

/// The wrong-file cells' store: 2 shards of 16 B values on `SimFs`.
fn two_shards(capacity: usize) -> PnwConfig {
    PnwConfig::new(capacity, 16).with_clusters(2).with_shards(2).with_seed(5)
}

/// A store of `cfg` on an empty `SimFs`: keys 0..100 put, then, when
/// `checkpoint`, a checkpoint and keys 100..120. Dropped without `close`.
fn acked_files(cfg: &PnwConfig, checkpoint: bool) -> SimFs {
    let fs = SimFs::new();
    let store = crash::open(cfg, &fs).unwrap();
    let puts = |keys: std::ops::Range<u64>| {
        for k in keys {
            store.put(k, &[k as u8; 16]).unwrap();
        }
    };
    puts(0..100);
    if checkpoint {
        store.checkpoint().unwrap();
        puts(100..120);
    }
    drop(store);
    fs
}

/// Puts `bytes` in place of the file `name` of `fs`.
fn replace(fs: &SimFs, name: &str, bytes: &[u8]) {
    let file = fs.open(name, Open::Truncate).unwrap();
    file.write_at(bytes, 0).unwrap();
}

/// The opening of `fs` as `cfg`'s store must fail with `Corrupt` naming
/// `file` and `field`. An open that succeeds reports how many of the
/// acknowledged keys it still reads.
fn refused(cfg: &PnwConfig, fs: &SimFs, file: &str, field: &str) {
    match crash::open(cfg, fs) {
        Err(StoreError::Corrupt(why)) => {
            assert!(why.starts_with(&format!("{file} ")) && why.contains(field), "{file}: {why}")
        }
        Err(other) => panic!("{file}: refused with {other:?}, not as corrupt"),
        Ok(store) => {
            let checkpointed = fs.list().unwrap().iter().any(|n| n == "checkpoint.2");
            let acked = if checkpointed { 120 } else { 100 };
            let readable = (0..acked).filter(|&k| store.get(k).unwrap().is_some()).count();
            let len = store.len();
            panic!("{file}: opened, len() {len}, {readable} of {acked} acked keys readable")
        }
    }
}

#[test]
fn swapped_wals_are_refused() {
    let cfg = two_shards(256);
    let fs = acked_files(&cfg, false);
    let [zero, one] = ["wal.0", "wal.1"].map(|n| fs.read(n).unwrap());
    replace(&fs, "wal.0", &one);
    replace(&fs, "wal.1", &zero);
    refused(&cfg, &fs, "wal.0", "shard");
}

#[test]
fn swapped_data_files_after_a_checkpoint_are_refused() {
    let cfg = two_shards(256);
    let fs = acked_files(&cfg, true);
    let [zero, one] = ["data.0", "data.1"].map(|n| fs.read(n).unwrap());
    replace(&fs, "data.0", &one);
    replace(&fs, "data.1", &zero);
    refused(&cfg, &fs, "data.0", "shard");
}

#[test]
fn a_deleted_data_file_after_a_checkpoint_is_refused() {
    let cfg = two_shards(256);
    let fs = acked_files(&cfg, true);
    fs.remove("data.0").unwrap();
    refused(&cfg, &fs, "data.0", "missing");
}

/// `wal.1`, `data.1` and the checkpoint, each replaced by the same file of
/// a second store of the same configuration at the same epoch.
#[test]
fn a_file_of_another_store_at_the_same_epoch_is_refused() {
    let cfg = two_shards(256);
    let other = acked_files(&cfg, true);
    for name in ["wal.1", "data.1", "checkpoint.2"] {
        let fs = acked_files(&cfg, true);
        replace(&fs, name, &other.read(name).unwrap());
        refused(&cfg, &fs, name, "store id");
    }
}

#[test]
fn a_data_file_of_another_capacity_is_refused() {
    let cfg = two_shards(256);
    let fs = acked_files(&cfg, true);
    let other = acked_files(&two_shards(512), true);
    replace(&fs, "data.0", &other.read("data.0").unwrap());
    refused(&cfg, &fs, "data.0", "geometry");
}

// ---------------------------------------------------------------------------
// One owner per directory: a store holds its directory's lock for its
// life, so a second store cannot open the directory and write over the
// first one's WALs and checkpoints.

/// Opens a store on one directory twice over `open`: the second open must
/// be refused with the lock error naming `dir`, and the first store's
/// acknowledged PUTs must all read back after it drops and the directory
/// reopens. A second store that did open would cut a checkpoint over the
/// first one's WALs at its close, and lose every PUT the first
/// acknowledged after it.
fn a_second_opener_is_refused(dir: &str, open: impl Fn() -> Result<PnwStore, StoreError>) {
    let first = open().unwrap();
    let second = open().map(PnwStore::close);
    for k in 0..50u64 {
        first.put(k, &[k as u8; 16]).unwrap();
    }
    drop(first);
    let reopened = open().expect("the directory reopens once its store is dropped");
    let readable = (0..50u64).filter(|&k| reopened.get(k).unwrap() == Some(vec![k as u8; 16]));
    assert_eq!(readable.count(), 50, "{dir}: acknowledged PUTs readable after the reopen");
    let locked = StoreError::Nvm(NvmError::Locked { dir: dir.into() });
    assert_eq!(second.map(drop), Err(locked), "{dir}: the second open");
}

#[test]
fn a_second_open_of_a_live_directory_is_refused_on_the_simulated_fs() {
    let (cfg, fs) = (two_shards(256), SimFs::new());
    a_second_opener_is_refused("<simulated directory>", || crash::open(&cfg, &fs));
}

#[test]
fn a_second_open_of_a_live_directory_is_refused_on_the_hosts_fs() {
    let dir = scratch_dir("two_openers");
    let cfg = two_shards(256).with_path(&dir);
    a_second_opener_is_refused(&dir.display().to_string(), || PnwStore::open(cfg.clone()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A process that dies lets go of its directory: after a simulated death
/// the rebooted directory opens while the dead store's handle still
/// exists, and that handle's drop does not release the new store's lock.
#[test]
fn a_directory_reopens_after_its_store_dies() {
    let (cfg, fs) = (two_shards(256), SimFs::new());
    let dead = crash::open(&cfg, &fs).unwrap();
    dead.put(1, &[1; 16]).unwrap();
    fs.crash(Crash::Death);
    let fs = fs.reboot();
    let live = crash::open(&cfg, &fs).expect("a death releases the lock");
    assert_eq!(live.get(1).unwrap(), Some(vec![1; 16]));
    drop(dead);
    assert!(matches!(crash::open(&cfg, &fs), Err(StoreError::Nvm(NvmError::Locked { .. }))));
}

/// A fresh store writes each WAL once, in its first checkpoint: one sync
/// per data file and per WAL, then the checkpoint's, the directory's, the
/// superblock's and the directory's again.
#[test]
fn a_fresh_store_writes_each_wal_once() {
    for (shards, syncs) in [(1, 6), (4, 12)] {
        let fs = SimFs::new();
        let cfg = PnwConfig::new(64 * shards, 8).with_clusters(1).with_shards(shards);
        let store = crash::open(&cfg, &fs).unwrap();
        assert_eq!(fs.syncs(), syncs, "{shards} shards");
        store.put(1, &[1; 8]).unwrap();
        drop(store);
        assert_eq!(crash::open(&cfg, &fs).unwrap().get(1).unwrap(), Some(vec![1; 8]));
    }
}

// ---------------------------------------------------------------------------
// Golden store images (`tests/fixtures/store-v<N>/`): one directory per
// format version, each a store of `golden_cfg` that `write_golden_store`
// left, with a `manifest.txt` of its live keys. This build opens a copy of
// its own version's image and reads every key bit-exact, and refuses every
// older one by its version.

/// The golden images' configuration: 2 shards of 8 B values, TTL on.
fn golden_cfg(dir: &Path) -> PnwConfig {
    PnwConfig::new(16, 8).with_clusters(2).with_shards(2).with_ttl().with_seed(23).with_path(dir)
}

/// The golden images' script: six keys put and one with a deadline in
/// 2100, key 3's bucket retired off a stuck bit its value agrees with, a
/// checkpoint, then an update, a delete and a fresh put in the WAL over
/// it. The store is dropped without `close`. Returns every live key's
/// value.
fn write_golden_store(dir: &Path) -> std::collections::BTreeMap<u64, Vec<u8>> {
    let store = PnwStore::open(golden_cfg(dir)).unwrap();
    let mut live = std::collections::BTreeMap::new();
    let mut put = |key: u64, fill: u8, deadline: Option<u64>| {
        let value: Vec<u8> = (0..8).map(|i| fill ^ i).collect();
        match deadline {
            Some(at) => store.put_with_expiry(key, &value, at).map(|_| ()).unwrap(),
            None => store.put(key, &value).map(|_| ()).unwrap(),
        }
        live.insert(key, value);
    };
    for key in 1..=6 {
        put(key, 0x11 * key as u8, None);
    }
    put(7, 0x77, Some(4_102_444_800_000));
    let bit = 9;
    let three = store.get(3).unwrap().unwrap();
    assert_eq!(store.arm_stuck_at_key(3, bit, three[1] >> 1 & 1 == 1), Ok(true));
    store.scrub_pass().unwrap();
    assert_eq!(store.snapshot().scrub.retired, 1, "one bucket retired");
    store.checkpoint().unwrap();
    put(2, 0x2B, None);
    put(8, 0x88, None);
    store.delete(5).unwrap();
    live.remove(&5);
    drop(store);
    live
}

/// The image of format `version`: its files on a simulated directory,
/// and its manifest.
fn golden_store(version: u32) -> (SimFs, Vec<(u64, Vec<u8>)>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = root.join(format!("tests/fixtures/store-v{version}"));
    assert!(dir.is_dir(), "no golden image {}", dir.display());
    let mut files = crash::files(&pnw_nvm_sim::OsFs::new(&dir).unwrap());
    let manifest = files.remove("manifest.txt").expect("a manifest");
    let line = |l: &str| {
        let (key, hex) = l.split_once(' ').unwrap();
        let byte = |i: usize| u8::from_str_radix(&hex[i..i + 2], 16).unwrap();
        (key.parse().unwrap(), (0..hex.len()).step_by(2).map(byte).collect())
    };
    let manifest = String::from_utf8(manifest).unwrap().lines().map(line).collect();
    (crash::sim_fs(&files), manifest)
}

/// Writes this format's golden image. Run it once per format version,
/// with `FORMAT_VERSION` bumped: `cargo test --test recovery -- --ignored
/// write_the_golden_store_image`.
#[test]
#[ignore = "writes tests/fixtures/store-v4; run once per format version"]
fn write_the_golden_store_image() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v4");
    let _ = std::fs::remove_dir_all(&dir);
    let live = write_golden_store(&dir);
    let hex = |v: &[u8]| v.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let manifest: String = live.iter().map(|(k, v)| format!("{k} {}\n", hex(v))).collect();
    std::fs::write(dir.join("manifest.txt"), manifest).unwrap();
}

/// This format's image opens, from a copy, and serves every manifest key
/// bit-exact: the WAL's update, delete and fresh put replayed over the
/// checkpoint, the TTL key, and key 3 off its retired bucket.
#[test]
fn the_golden_store_of_this_format_reads_back_bit_exact() {
    let (fs, manifest) = golden_store(4);
    let store = crash::open(&golden_cfg(Path::new("unused")), &fs).unwrap();
    for (key, value) in &manifest {
        assert_eq!(store.get(*key).unwrap().as_ref(), Some(value), "key {key}");
    }
    assert_eq!(store.get(5).unwrap(), None, "the WAL's delete");
    assert_eq!(store.len(), manifest.len());
    assert_eq!(store.snapshot().scrub.retired, 1);
}

/// Format 3's image (no store ids, no data-file headers) is refused with
/// both versions named, never read.
#[test]
fn the_golden_store_of_format_3_is_refused_by_its_version() {
    let (fs, _) = golden_store(3);
    match crash::open(&golden_cfg(Path::new("unused")), &fs) {
        Err(StoreError::Corrupt(why)) => {
            assert!(why.contains("format version 3") && why.contains('4'), "{why}")
        }
        Err(other) => panic!("refused with {other:?}, not as corrupt"),
        Ok(_) => panic!("a format-3 store opened"),
    }
}
