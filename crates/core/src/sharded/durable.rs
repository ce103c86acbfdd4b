//! The file-backed store: opening (and recovering) a durable directory,
//! and cutting checkpoints.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pnw_nvm_sim::{Fs, OsFs};

use super::{shard_config, shard_count, split, Shard, ShardedPnwStore};
use crate::config::{BackingMode, PnwConfig};
use crate::durable::{geometry_hash, DurableStore, PutShape, ShardCheckpoint};
use crate::error::StoreError;
use crate::shard::ShardEngine;

impl ShardedPnwStore {
    /// Opens a store according to `cfg.backing`.
    ///
    /// * [`BackingMode::Volatile`] — equivalent to [`ShardedPnwStore::new`]
    ///   but non-panicking on invalid configs.
    /// * [`BackingMode::File`] — opens (or initializes) the durable
    ///   directory. Each shard gets its own backing file and WAL; one
    ///   superblock/checkpoint pair covers them all, so a checkpoint is
    ///   atomic across shards. Recovery replays every shard's WAL over the
    ///   last checkpoint, redoes every PUT it committed onto the device,
    ///   then walks each shard's data zone once, repairing it to exactly
    ///   its committed key set while it rebuilds the index and the pool.
    pub fn open(cfg: PnwConfig) -> Result<Self, StoreError> {
        let cfg = cfg.build()?;
        let BackingMode::File(dir) = &cfg.backing else {
            return Ok(ShardedPnwStore::new(cfg));
        };
        let fs = OsFs::new(dir)?;
        ShardedPnwStore::open_in(cfg, Arc::new(fs))
    }

    /// Opens (or initializes) the durable store of `cfg` in the directory
    /// `fs`, whatever `cfg.backing` says — the way the recovery tests run
    /// a store on a simulated file system ([`pnw_nvm_sim::SimFs`]).
    #[doc(hidden)]
    pub fn open_in(cfg: PnwConfig, fs: Arc<dyn Fs>) -> Result<Self, StoreError> {
        let cfg = cfg.build()?;
        let n = shard_count(&cfg);
        let initial = (0..n)
            .map(|i| ShardCheckpoint::fresh(split(cfg.capacity, n, i) as u64))
            .collect();
        let shape = PutShape { value_size: cfg.value_size, ttl: cfg.ttl_enabled };
        let (durable, recovered) = DurableStore::open(fs, geometry_hash(&cfg, n), shape, initial)?;
        let fresh = durable.epoch() == 0;
        let mut shards = Vec::with_capacity(n);
        for (i, rec) in recovered.into_iter().enumerate() {
            let mut engine =
                ShardEngine::open_file(shard_config(&cfg, n, i), durable.data_file(i)?)?;
            engine.set_active_buckets(rec.active as usize);
            // Retirement is restored before the walk, so it neither repairs
            // nor pools a retired bucket.
            engine.restore_retired(&rec.retired);
            engine.restore_device_stats(rec.stats.clone());
            engine.redo(rec.redo())?;
            engine.recover_structures(Some(&rec.committed))?;
            if !fresh {
                engine.attach_durable(durable.wal_appender(i, rec.wal_end)?, rec.values);
            }
            shards.push(Shard::wrap(engine, i, &cfg));
        }
        let store = ShardedPnwStore::assemble(cfg, shards, Some(Mutex::new(durable)));
        if fresh {
            // The data files and WALs are written and synced: the first
            // checkpoint names them and hands every shard its WAL.
            store.checkpoint()?;
        } else if !store.is_empty() {
            // The model is DRAM-resident and died with the process;
            // reconstruct it from the recovered data zones (§V-A.1).
            store.retrain_now()?;
        }
        Ok(store)
    }

    /// Cuts a durable checkpoint: quiesces writers by holding every
    /// shard's engine lock, writes each device's dirty pages back and
    /// syncs them, snapshots the committed state of all shards and runs
    /// the write-new → fsync → rename → superblock-bump protocol once for
    /// the whole store. Every shard then appends to a new, empty WAL. No-op
    /// on a volatile store.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        let mut durable = durable.lock().unwrap();
        // Engine locks taken in shard order (a cross-shard quiescent
        // point; in-flight seqlock readers don't touch durable state).
        let mut guards: Vec<_> = self.engines().collect();
        let mut states = Vec::with_capacity(guards.len());
        for g in &mut guards {
            g.sync_device()?;
            states.push(g.checkpoint_state()?);
        }
        let appenders = durable.checkpoint(&states)?;
        for (g, appender) in guards.iter_mut().zip(appenders) {
            g.attach_durable(appender, HashMap::new());
        }
        Ok(())
    }

    /// Closes the store cleanly: cuts a final checkpoint (on a durable
    /// store) and drops it.
    pub fn close(self) -> Result<(), StoreError> {
        self.checkpoint()
    }

    /// Whether this store persists to a file backing.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }
}
