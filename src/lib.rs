//! # pnw — Predict-and-Write, the workspace facade
//!
//! An implementation of **"Predict and Write: Using K-Means Clustering to
//! Extend the Lifetime of NVM Storage"** (Kargar, Litz & Nawab, ICDE 2021):
//! a key/value store for hybrid DRAM–NVM systems that clusters stored
//! values by bit pattern and steers every PUT/UPDATE to the free location
//! whose current cell content is most similar, so the differential write
//! flips as few NVM bits as possible.
//!
//! This crate is the front door of the workspace: it re-exports the store
//! API from [`pnw_core`] (also available unrenamed as [`core_api`]) and
//! ships the `pnw-cli` binary, the examples, and the workspace-level
//! integration tests. The subsystems live in dedicated crates — see
//! `docs/ARCHITECTURE.md` at the repository root for the full map:
//!
//! | Crate | Role |
//! |---|---|
//! | `pnw-core` | the PNW store: model manager, address pool, write path |
//! | `pnw-ml` | K-means, PCA, elbow method |
//! | `pnw-index` | DRAM hash index and NVM Path Hashing |
//! | `pnw-nvm-sim` | emulated NVM device with bit-flip/wear accounting |
//! | `pnw-schemes` | DCW, Flip-N-Write, MinShift, Captopril codecs |
//! | `pnw-baselines` | FPTree-like, NoveLSM-like, Path-Hashing stores |
//! | `pnw-workloads` | deterministic stand-ins for the paper's datasets |
//! | `pnw-server` | socket front end + client: framing, backpressure, drain |
//! | `pnw-bench` | figure/table reproduction and ablation harness |
//!
//! ## Quickstart
//!
//! ```
//! use pnw::{PnwConfig, PnwStore};
//!
//! let store = PnwStore::new(PnwConfig::new(256, 8).with_clusters(4));
//! store.put(7, b"pnw-demo").unwrap();
//! assert_eq!(store.get(7).unwrap().as_deref(), Some(&b"pnw-demo"[..]));
//! ```
//!
//! ## One `Store` trait, batched writes
//!
//! Every backend — the PNW store ([`PnwStore`] is a plain alias of
//! [`ShardedPnwStore`]; `shards` defaults to 1) and the three baseline
//! stores in `pnw-baselines` — implements the `&self`-based [`Store`]
//! trait, so one harness drives them all, per-op or in
//! [`Batch`]es:
//!
//! ```
//! use pnw::{Batch, PnwConfig, ShardedPnwStore, Store};
//!
//! let store = ShardedPnwStore::new(PnwConfig::new(256, 8).with_shards(4));
//! let mut batch = Batch::new();
//! for k in 0..64u64 {
//!     batch.put(k, &k.to_le_bytes());
//! }
//! // One shard-lock acquisition per shard for the whole batch.
//! let report = store.apply(&batch);
//! assert!(report.all_ok());
//! assert_eq!(store.len(), 64);
//! ```
//!
//! ## Concurrent store
//!
//! The store serves PUT/GET/DELETE from many threads at once: with
//! [`PnwConfig::with_shards`] keys are routed to independent shards by
//! hash, and all shards share one background-retrained model. GETs take
//! no lock at any shard count.
//!
//! ```
//! use std::sync::Arc;
//! use pnw::{PnwConfig, ShardedPnwStore};
//!
//! let store = Arc::new(ShardedPnwStore::new(
//!     PnwConfig::new(256, 8).with_clusters(4).with_shards(4),
//! ));
//! let handles: Vec<_> = (0..4u64)
//!     .map(|t| {
//!         let store = Arc::clone(&store);
//!         std::thread::spawn(move || {
//!             for i in 0..16 {
//!                 store.put(t * 100 + i, &[t as u8; 8]).unwrap();
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(store.len(), 64);
//! ```
//!
//! How this scales is measured by the repository's benchmark
//! (`BENCHMARK.json`, the standalone `benchmark/` crate): the `get-heavy`
//! workload runs one client thread per core against the sharded store.
//!
//! ## Durable persistence
//!
//! Give the config a path and the store survives process restarts — and
//! crashes, power loss included. Every mutation is logged to a CRC-framed
//! redo log (the WAL; a PUT's record carries its value) and synced before
//! it is acknowledged; the device image is written back to its data file
//! only when `checkpoint()` / `close()` cut an atomic checkpoint, and a
//! reopen redoes the WAL over the last one (see *Durability & recovery*
//! in `docs/ARCHITECTURE.md`):
//!
//! ```
//! use pnw::{PnwConfig, PnwStore};
//!
//! let dir = std::env::temp_dir().join(format!("pnw-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let cfg = PnwConfig::new(64, 8).with_clusters(2).with_path(&dir);
//!
//! let store = PnwStore::open(cfg.clone()).unwrap();
//! store.put(7, &7u64.to_le_bytes()).unwrap();
//! store.close().unwrap();
//!
//! // A new process (or a crash-recovered one) sees every committed key.
//! let store = PnwStore::open(cfg).unwrap();
//! assert_eq!(store.get(7).unwrap().unwrap(), 7u64.to_le_bytes());
//! # drop(store);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]

pub use pnw_core as core_api;
pub use pnw_server as server;

pub use pnw_core::{
    BackingMode, Batch, BatchReport, ConfigError, Op, PnwConfig, PnwStore, ShardedPnwStore,
    Store, StoreError,
};
