use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::time::Duration;

use super::*;
use crate::config::RetrainMode;

#[test]
fn store_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedPnwStore>();
}

#[test]
fn split_distributes_remainders() {
    let parts: Vec<usize> = (0..3).map(|i| split(10, 3, i)).collect();
    assert_eq!(parts, vec![4, 3, 3]);
    assert_eq!((0..4).map(|i| split(8, 4, i)).sum::<usize>(), 8);
    assert_eq!(split(0, 4, 0), 0);
}

#[test]
fn basic_roundtrip_across_shards() {
    let s = ShardedPnwStore::new(PnwConfig::new(64, 8).with_clusters(2).with_shards(4));
    assert_eq!(s.shard_count(), 4);
    for k in 0..32u64 {
        s.put(k, &[k as u8; 8]).unwrap();
    }
    assert_eq!(s.len(), 32);
    for k in 0..32u64 {
        assert_eq!(s.get(k).unwrap().unwrap(), vec![k as u8; 8]);
    }
    assert!(s.delete(5).unwrap());
    assert!(!s.delete(5).unwrap());
    assert_eq!(s.get(5).unwrap(), None);
    assert_eq!(s.len(), 31);
}

#[test]
fn shard_count_clamped_to_capacity() {
    let s = ShardedPnwStore::new(PnwConfig::new(2, 8).with_shards(16));
    assert_eq!(s.shard_count(), 2);
}

#[test]
fn wrong_value_size_rejected_before_routing() {
    let s = ShardedPnwStore::new(PnwConfig::new(16, 8).with_shards(2));
    assert!(matches!(
        s.put(1, &[0u8; 3]),
        Err(PnwError::WrongValueSize { expected: 8, got: 3 })
    ));
}

/// A GET must complete while another thread holds the shard's engine
/// lock for writing — the proof that the steady-state read path takes
/// zero locks. (A locked read here would deadlock: the engine mutex is
/// held by the *same* thread for the duration of the closure.)
#[test]
fn get_takes_no_lock_while_writer_holds_the_shard() {
    for placement in [
        crate::IndexPlacement::Dram,
        crate::IndexPlacement::Nvm,
    ] {
        let s = ShardedPnwStore::new(
            PnwConfig::new(32, 8)
                .with_clusters(1)
                .with_shards(1)
                .with_index(placement),
        );
        s.put(7, &[0xAB; 8]).unwrap();
        let got = s.with_shard_write_held(0, || s.get(7).unwrap());
        assert_eq!(got.unwrap(), vec![0xAB; 8], "{placement:?}");
        let miss = s.with_shard_write_held(0, || s.get(8).unwrap());
        assert_eq!(miss, None);
    }
}

/// `queue.len()` as the queue mutex and the lock-free counter see it;
/// they must agree whenever the mutex is free.
fn queue_depth(sh: &Shard) -> usize {
    let q = sh.queue.lock().unwrap();
    assert_eq!(sh.queue_depth.load(Ordering::SeqCst), q.len());
    q.len()
}

/// A saturated shard queue rejects with `Backpressure` instead of
/// convoying on the engine lock; the queued op completes once the
/// holder lets go.
#[test]
fn queue_backpressure_rejects_when_full() {
    let s = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(64, 8)
            .with_clusters(1)
            .with_shards(1)
            .with_shard_queue_depth(1),
    ));
    let (first, second) = s.with_shard_write_held(0, || {
        let t = Arc::clone(&s);
        let first = std::thread::spawn(move || t.put(100, &[0; 8]));
        // The first writer fills the queue before the second one starts.
        while queue_depth(&s.shards[0]) < 1 {
            std::thread::yield_now();
        }
        let t = Arc::clone(&s);
        let second = std::thread::spawn(move || t.put(101, &[1; 8])).join();
        (first, second)
    });
    let results = [first.join().unwrap(), second.unwrap()];
    let rejected = results
        .iter()
        .filter(|r| matches!(r, Err(StoreError::Backpressure { shard: 0, depth: 1 })))
        .count();
    let applied = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(
        (applied, rejected),
        (1, 1),
        "one op queues and lands, one backs off: {results:?}"
    );
    assert_eq!(s.len(), 1);
}

/// Every kind of queued command — PUT, DELETE, a batch group — is
/// executed in queue order and answered with its own reply; the depth
/// counter follows the queue up to the cap, where `Backpressure` names
/// it, and back down to zero.
#[test]
fn queued_commands_complete_and_the_depth_counter_tracks_the_queue() {
    let s = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(64, 8)
            .with_clusters(1)
            .with_shards(1)
            .with_shard_queue_depth(3),
    ));
    s.put(1, &[1; 8]).unwrap();
    let sh = &s.shards[0];
    assert_eq!(queue_depth(sh), 0);

    // Each writer is started only once the one before it is queued, so
    // the queue order is PUT 2, DELETE 1, group.
    let queued = |depth: usize| {
        while queue_depth(sh) < depth {
            std::thread::yield_now();
        }
    };
    let (put, delete, group, rejected) = s.with_shard_write_held(0, || {
        let t = Arc::clone(&s);
        let put = std::thread::spawn(move || t.put(2, &[2; 8]));
        queued(1);
        let t = Arc::clone(&s);
        let delete = std::thread::spawn(move || t.delete(1));
        queued(2);
        let t = Arc::clone(&s);
        let group = std::thread::spawn(move || {
            let mut b = Batch::new();
            b.put(3, &[3; 8]);
            b.delete(2);
            b.put(4, &[4; 8]);
            t.apply(&b)
        });
        queued(3);
        // At the cap: turned away with the true depth, queue untouched.
        let rejected = s.put(9, &[9; 8]);
        assert_eq!(queue_depth(sh), 3);
        (put, delete, group, rejected)
    });
    assert!(
        matches!(
            rejected,
            Err(StoreError::Backpressure { shard: 0, depth: 3 })
        ),
        "{rejected:?}"
    );
    assert!(put.join().unwrap().is_ok());
    assert_eq!(delete.join().unwrap(), Ok(true));
    let report = group.join().unwrap();
    assert!(report.all_ok(), "{:?}", report.failures);
    // The group's DELETE found the key the queued PUT ahead of it wrote.
    assert_eq!(
        (report.puts, report.deletes, report.deleted_existing),
        (2, 1, 1)
    );

    assert_eq!(queue_depth(sh), 0);
    assert_eq!(s.len(), 2);
    assert_eq!(s.get(3).unwrap(), Some(vec![3; 8]));
    assert_eq!(s.get(4).unwrap(), Some(vec![4; 8]));
    assert_eq!(s.get(1).unwrap(), None);
    assert_eq!(s.get(2).unwrap(), None);
}

/// Two writers race one op each per round on one shard, and a third
/// thread loops status reads that hold the engine: a queued writer waits
/// for its reply with no timeout, so whenever one of them queues behind
/// another holder — a writer or a status read, not the test hook — that
/// holder must execute the command as it lets go, or the round never
/// ends. A spinning rendezvous and 1 KiB values make the two ops of a
/// round overlap.
#[test]
fn a_combiner_serves_queued_writers_without_their_timeout() {
    const ROUNDS: usize = 3000;
    let s = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(64, 1024)
            .with_clusters(1)
            .with_shards(1)
            .with_retrain(RetrainMode::Manual),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let (r, stop_r) = (Arc::clone(&s), Arc::clone(&stop));
    let reader = std::thread::spawn(move || {
        while !stop_r.load(Ordering::Relaxed) {
            assert!(r.len().max(r.snapshot().live) <= 16);
        }
    });
    let arrived = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    for t in 0..2u64 {
        let (s, arrived, done_tx) = (Arc::clone(&s), Arc::clone(&arrived), done_tx.clone());
        std::thread::spawn(move || {
            // Each writer owns its eight keys, so it knows every reply.
            let mut stored = [false; 8];
            for r in 0..ROUNDS {
                let key = t * 8 + (r % 8) as u64;
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < 2 * (r + 1) {
                    std::thread::yield_now();
                }
                if t == 1 && r % 3 == 2 {
                    assert_eq!(s.delete(key), Ok(stored[r % 8]));
                    stored[r % 8] = false;
                } else {
                    s.put(key, &[r as u8; 1024]).unwrap();
                    stored[r % 8] = true;
                }
            }
            done_tx.send(stored.iter().filter(|&&p| p).count()).unwrap();
        });
    }
    let live: usize = (0..2)
        .map(|_| {
            done_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("a queued writer was never served")
        })
        .sum();
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    assert_eq!(queue_depth(&s.shards[0]), 0);
    assert_eq!(s.len(), live);
}

/// The worker leaves an engine the way every holder does: with scrub
/// steps running back to back on the one shard, a writer whose PUT queues
/// behind a step is served as the step lets go.
#[test]
fn a_writer_queued_behind_a_scrub_step_is_served_without_its_timeout() {
    let cfg = PnwConfig::new(256, 64).with_clusters(1).with_shards(1);
    let s = Arc::new(ShardedPnwStore::new(cfg.with_scrub(1_000_000)));
    let (done_tx, done) = channel();
    let t = Arc::clone(&s);
    std::thread::spawn(move || {
        for i in 0..20_000u64 {
            t.put(i % 128, &[i as u8; 64]).unwrap();
        }
        done_tx.send(()).unwrap();
    });
    done.recv_timeout(Duration::from_secs(120))
        .expect("a PUT queued behind a scrub step was never served");
    assert_eq!(queue_depth(&s.shards[0]), 0);
    assert_eq!(s.len(), 128);
}

/// The state a holder leaves behind when a writer queues between its
/// last drain and its unlock — engine free, one command waiting, nobody
/// awake to run it — is exactly what the rest of its release must notice
/// from the depth counter and clear.
#[test]
fn the_post_release_recheck_runs_a_command_queued_after_the_last_drain() {
    let s = ShardedPnwStore::new(PnwConfig::new(64, 8).with_clusters(1).with_shards(1));
    let sh = &s.shards[0];
    let mut hold = sh.hold(&s.model);
    // Drained (nothing queued) and unlocked; the recheck is still to come.
    drop(hold.eng.take());
    let (reply, answer) = sync_channel(1);
    let put = OwnedOp::Put {
        key: 7,
        value: vec![7; 8],
        expires_at_ms: 0,
        reply,
    };
    s.enqueue(0, put).unwrap();
    assert_eq!(queue_depth(sh), 1);
    drop(hold);
    assert!(matches!(answer.try_recv(), Ok(Ok(_))));
    assert_eq!(queue_depth(sh), 0);
    assert_eq!(s.get(7).unwrap(), Some(vec![7; 8]));
}

#[test]
fn merged_stats_are_the_sum_of_shard_stats() {
    let s = ShardedPnwStore::new(PnwConfig::new(64, 8).with_clusters(2).with_shards(4));
    for k in 0..40u64 {
        s.put(k, &(k * 11).to_le_bytes()).unwrap();
    }
    for k in 0..10u64 {
        s.delete(k).unwrap();
    }
    let merged = s.device_stats();
    let manual = DeviceStats::merged(s.per_shard_device_stats().iter());
    assert_eq!(merged, manual);
    assert!(merged.totals.bit_flips > 0);
    // Bit-flip conservation: no shard's flips are lost or double
    // counted in the merge.
    let sum: u64 = s
        .per_shard_device_stats()
        .iter()
        .map(|d| d.totals.bit_flips)
        .sum();
    assert_eq!(merged.totals.bit_flips, sum);
}

#[test]
fn retrain_relabels_every_shard() {
    let s = ShardedPnwStore::new(PnwConfig::new(64, 8).with_clusters(2).with_shards(2));
    for k in 0..32u64 {
        let v = if k % 2 == 0 { [0x00u8; 8] } else { [0xFFu8; 8] };
        s.put(k, &v).unwrap();
    }
    s.retrain_now().unwrap();
    assert!(s.is_trained());
    assert_eq!(s.retrains(), 1);
    let snap = s.snapshot();
    assert_eq!(snap.k, 2);
    assert_eq!(snap.live, 32);
}

#[test]
fn background_retrain_swaps_on_finish() {
    let s = ShardedPnwStore::new(
        PnwConfig::new(64, 8)
            .with_clusters(2)
            .with_shards(2)
            .with_load_factor(0.25)
            .with_retrain(RetrainMode::Background),
    );
    for k in 0..48u64 {
        s.put(k, &(k * 7).to_le_bytes()).unwrap();
    }
    s.wait_for_retrain();
    assert!(s.is_trained());
    assert!(s.retrains() >= 1);
    // The store keeps serving after the swap.
    s.put(999, &[3u8; 8]).unwrap();
    assert_eq!(s.get(999).unwrap().unwrap(), vec![3u8; 8]);
}

/// 128 keys of 8 B over two shards.
fn filled() -> ShardedPnwStore {
    let s = ShardedPnwStore::new(PnwConfig::new(256, 8).with_clusters(2).with_shards(2));
    for k in 0..128u64 {
        s.put(k, &(k * 7).to_le_bytes()).unwrap();
    }
    s
}

/// Parks the store's worker as its next background retrain or install
/// starts: the first receiver hears once it is parked, and dropping the
/// sender lets it go.
fn park_next_job(s: &ShardedPnwStore) -> (Receiver<()>, Sender<()>) {
    let (parked_tx, parked) = channel();
    let (release, released) = channel::<()>();
    *s.model.job_hook.lock().unwrap() = Some(Box::new(move || {
        parked_tx.send(()).unwrap();
        let _ = released.recv();
    }));
    (parked, release)
}

/// Jobs run in arrival order: a background retrain requested before a
/// synchronous one installs first, as epoch 1, and the synchronous model —
/// epoch 2, cold, labelling nothing — is the one left installed.
#[test]
fn a_background_run_then_a_synchronous_retrain_install_in_order() {
    let s = filled();
    s.retrain_in_background();
    s.retrain_now().unwrap();
    let t = s.snapshot().train;
    assert_eq!((s.retrains(), t.epoch, t.labelled), (2, 2, 0));
    let sync = s.model_snapshot();
    assert_eq!(sync.epoch(), 2);
    for e in s.engines() {
        assert!(Arc::ptr_eq(e.model(), &sync) && !e.label_pass_running());
    }
    assert!(!s.model.maintenance.load(Ordering::Acquire));
}

/// Every background retrain and every install, of either flavour, runs on
/// the store's one named worker thread.
#[test]
fn one_named_worker_thread_runs_every_job() {
    let s = filled();
    let seen = Arc::new(Mutex::new(Vec::new()));
    for background in [false, true, false] {
        let seen = Arc::clone(&seen);
        *s.model.job_hook.lock().unwrap() = Some(Box::new(move || {
            seen.lock().unwrap().push(std::thread::current());
        }));
        if background {
            s.retrain_in_background();
            s.wait_for_retrain();
        } else {
            s.retrain_now().unwrap();
        }
    }
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 3);
    assert!(seen.iter().all(|t| t.id() == seen[0].id()), "{seen:?}");
    assert_eq!(seen[0].name(), Some("pnw-worker"));
    assert_ne!(seen[0].id(), std::thread::current().id());
    assert_eq!(s.retrains(), 3);
}

/// A job that panics costs itself only: a waiting `retrain_now` sees its
/// install's panic, a dead background run re-arms the policy, and the next
/// retrain of either flavour installs.
#[test]
fn a_panicking_job_does_not_wedge_the_next_one() {
    let s = filled();
    let fail_next = || {
        *s.model.job_hook.lock().unwrap() = Some(Box::new(|| panic!("the job was told to fail")));
    };
    fail_next();
    assert!(catch_unwind(AssertUnwindSafe(|| s.retrain_now())).is_err());
    fail_next();
    s.retrain_in_background();
    s.wait_for_retrain();
    assert_eq!(s.retrains(), 0);
    assert!(!s.model.maintenance.load(Ordering::Acquire));
    s.retrain_in_background();
    s.wait_for_retrain();
    assert_eq!(s.retrains(), 1);
    s.retrain_now().unwrap();
    assert_eq!(s.retrains(), 2);
}

/// With the worker parked inside a background retrain, a second background
/// request is a no-op, and a status read never waits: `snapshot()` from
/// another thread returns while a `retrain_now` waits behind the run.
#[test]
fn a_pending_run_absorbs_a_second_request_and_blocks_no_status_read() {
    let s = Arc::new(filled());
    let (parked, release) = park_next_job(&s);
    s.retrain_in_background();
    parked.recv().unwrap();
    s.retrain_in_background();
    let t = Arc::clone(&s);
    let retrain = std::thread::spawn(move || t.retrain_now().unwrap());
    let (read_tx, read) = channel();
    let t = Arc::clone(&s);
    std::thread::spawn(move || read_tx.send((t.snapshot(), t.retrains())).unwrap());
    let (snap, retrains) = read
        .recv_timeout(Duration::from_secs(60))
        .expect("a status read waited for the fit");
    assert_eq!((snap.retrains, snap.live, retrains), (0, 128, 0));
    drop(release);
    retrain.join().unwrap();
    assert_eq!(s.snapshot().retrains, 2);
}

#[test]
fn background_retrain_does_not_block_zone_extension() {
    // Regression: extension must run on every due PUT even while a
    // background training run is pending — a shard with reserve left
    // must never report Full just because the maintenance flag is
    // held by an uninstalled retrain.
    let s = ShardedPnwStore::new(
        PnwConfig::new(32, 8)
            .with_clusters(2)
            .with_shards(1)
            .with_reserve(96)
            .with_load_factor(0.5)
            .with_retrain(RetrainMode::Background),
    );
    for k in 0..100u64 {
        s.put(k, &(k * 3).to_le_bytes())
            .expect("reserve must absorb every put");
    }
    assert!(s.snapshot().capacity > 32, "zone must have extended");
    s.wait_for_retrain();
    assert!(s.is_trained());
}

#[test]
fn concurrent_puts_and_gets_smoke() {
    let s = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(256, 8).with_clusters(2).with_shards(4),
    ));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let s = Arc::clone(&s);
        handles.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                let key = t * 1000 + i;
                s.put(key, &key.to_le_bytes()).unwrap();
                assert_eq!(s.get(key).unwrap().unwrap(), key.to_le_bytes().to_vec());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(s.len(), 200);
}

/// Batched apply on the sharded store must be semantically identical
/// to issuing the same ops one by one — same final contents, same
/// counters — while taking each shard lock once per batch.
#[test]
fn apply_equals_per_op_across_shards() {
    let cfg = PnwConfig::new(128, 8).with_clusters(2).with_shards(4);
    let batched = ShardedPnwStore::new(cfg.clone());
    let per_op = ShardedPnwStore::new(cfg);

    let mut batch = crate::Batch::new();
    for k in 0..48u64 {
        batch.put(k, &[(k % 7) as u8; 8]);
    }
    for k in (0..48u64).step_by(4) {
        batch.delete(k);
    }
    for k in 0..8u64 {
        batch.put(k, &[0xCC; 8]);
    }
    let r = batched.apply(&batch);
    assert!(r.all_ok());
    assert_eq!(r.puts, 56);
    assert_eq!(r.deleted_existing, 12);
    assert!(r.write_stats.bit_flips > 0);

    for op in batch.ops() {
        match op {
            crate::Op::Put { key, value } => {
                per_op.put(*key, value).unwrap();
            }
            crate::Op::Delete { key } => {
                per_op.delete(*key).unwrap();
            }
        }
    }
    assert_eq!(batched.len(), per_op.len());
    assert_eq!(batched.device_stats(), per_op.device_stats());
    for k in 0..48u64 {
        assert_eq!(batched.get(k).unwrap(), per_op.get(k).unwrap(), "key {k}");
    }
    let (sa, sb) = (batched.snapshot(), per_op.snapshot());
    assert_eq!(sa.puts, sb.puts);
    assert_eq!(sa.deletes, sb.deletes);
    assert_eq!(sa.free, sb.free);
}

#[test]
fn apply_reports_failures_with_batch_indices() {
    let s = ShardedPnwStore::new(PnwConfig::new(4, 8).with_clusters(1).with_shards(2));
    let mut batch = crate::Batch::new();
    for k in 0..8u64 {
        batch.put(k, &[k as u8; 8]); // only 4 fit
    }
    batch.put(99, &[0; 3]); // wrong size, index 8
    let r = s.apply(&batch);
    assert_eq!(r.puts, 4);
    assert_eq!(r.failures.len(), 5);
    // Failure indices are sorted by batch position despite shard
    // grouping, and the wrong-size op is reported as such.
    assert!(r.failures.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(matches!(
        r.failures.last().unwrap(),
        (8, PnwError::WrongValueSize { .. })
    ));
    assert_eq!(s.len(), 4);
}

#[test]
fn concurrent_batches_and_reads_smoke() {
    let s = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(512, 8).with_clusters(2).with_shards(4),
    ));
    let mut handles = Vec::new();
    for t in 0..3u64 {
        let s = Arc::clone(&s);
        handles.push(std::thread::spawn(move || {
            let mut batch = crate::Batch::with_capacity(16);
            for round in 0..4u64 {
                batch.clear();
                for i in 0..16u64 {
                    let key = t * 1000 + round * 16 + i;
                    batch.put(key, &key.to_le_bytes());
                }
                let r = s.apply(&batch);
                assert!(r.all_ok(), "{:?}", r.failures);
                for i in 0..16u64 {
                    let key = t * 1000 + round * 16 + i;
                    assert_eq!(s.get(key).unwrap().unwrap(), key.to_le_bytes());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(s.len(), 3 * 64);
}

#[test]
fn durable_sharded_store_round_trips_across_reopen() {
    let dir = std::env::temp_dir().join(format!("pnw_sharded_{}_rt", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PnwConfig::new(64, 8)
        .with_clusters(2)
        .with_shards(4)
        .with_seed(7);
    {
        let s = ShardedPnwStore::open(cfg.clone().with_path(&dir)).unwrap();
        assert!(s.is_durable());
        assert_eq!(s.shard_count(), 4);
        for k in 0..32u64 {
            s.put(k, &(k * 5).to_le_bytes()).unwrap();
        }
        assert!(s.delete(7).unwrap());
        s.close().unwrap();
    }
    let s = ShardedPnwStore::open(cfg.with_path(&dir)).unwrap();
    assert_eq!(s.len(), 31);
    assert_eq!(s.get(7).unwrap(), None);
    for k in (0..32u64).filter(|&k| k != 7) {
        assert_eq!(s.get(k).unwrap().unwrap(), (k * 5).to_le_bytes());
    }
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merged_wear_cdf_covers_all_shards() {
    let s = ShardedPnwStore::new(PnwConfig::new(32, 8).with_clusters(1).with_shards(4));
    for k in 0..24u64 {
        s.put(k, &(!k).to_le_bytes()).unwrap();
    }
    let cdf = s.word_wear_cdf();
    // Population = every data-zone word of every shard: 32 buckets ×
    // 3 words (16 B header + 8 B value).
    assert_eq!(cdf.population, 32 * 3);
    assert!(cdf.max() >= 1);
}

/// A group whose one commit sync fails completed nothing: its counts are
/// taken back and every op that had not already failed on its own carries
/// the sync error — run inline and through the combining queue alike.
#[test]
fn a_failed_group_sync_completes_no_op_inline_or_queued() {
    let fs = pnw_nvm_sim::SimFs::new();
    let cfg = PnwConfig::new(64, 8).with_clusters(1).with_shards(1);
    let s = Arc::new(ShardedPnwStore::open_in(cfg, Arc::new(fs.clone())).unwrap());
    let batch = || {
        let mut b = Batch::new();
        b.put(1, &[1; 8]).put(2, &[0; 3]).delete(1).put(3, &[3; 8]);
        b
    };
    let check = |r: BatchReport, route: &str| {
        assert_eq!(r.completed(), 0, "{route}: {r:?}");
        assert_eq!((r.puts, r.deletes, r.deleted_existing), (0, 0, 0), "{route}");
        let idxs: Vec<usize> = r.failures.iter().map(|f| f.0).collect();
        assert_eq!(idxs, [0, 1, 2, 3], "{route}: one failure per op, in batch order");
        for (i, e) in &r.failures {
            let own = matches!(e, StoreError::WrongValueSize { .. });
            assert_eq!(own, *i == 1, "{route}: op {i} keeps its own error, the rest the sync's: {e:?}");
            assert!(own || matches!(e, StoreError::Nvm(_)), "{route}: {e:?}");
        }
    };

    fs.fail_sync("wal.", 0);
    check(s.apply(&batch()), "inline");

    fs.fail_sync("wal.", 0);
    let queued = s.with_shard_write_held(0, || {
        let t = Arc::clone(&s);
        let h = std::thread::spawn(move || t.apply(&batch()));
        while queue_depth(&s.shards[0]) == 0 {
            std::thread::yield_now();
        }
        h
    });
    check(queued.join().unwrap(), "queued");

    // The hook is one-shot: the next group commits.
    let r = s.apply(&batch());
    assert_eq!((r.completed(), r.failures.len()), (3, 1));
}
