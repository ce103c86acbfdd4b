//! # pnw-core — the Predict-and-Write key/value store
//!
//! This crate implements the paper's primary contribution (§IV–V): a K/V
//! store for hybrid DRAM–NVM systems that extends NVM lifetime by steering
//! every PUT/UPDATE to the free memory location whose *current cell
//! content* is closest in Hamming distance to the value being written, so
//! the differential write flips as few bits as possible.
//!
//! The four components of Figure 2:
//!
//! * **ML model** ([`model`]) — K-means over the bit patterns of the data
//!   zone, with PCA in front for large values; lives in DRAM, retrained in
//!   the background.
//! * **Dynamic address pool** ([`pool`]) — per-cluster free lists of NVM
//!   addresses; lives in DRAM.
//! * **Hash index** — key → physical address; either DRAM (Figure 2a) or
//!   NVM Path Hashing (Figure 2b), both via `pnw-index`.
//! * **K/V data zone** — fixed-size buckets on the emulated NVM device.
//!
//! One store type composes these pieces: [`ShardedPnwStore`] — N
//! [`shard::ShardEngine`]s routed by key hash, single-writer with
//! lock-free GETs per shard, sharing one background-retrained model;
//! PUT/GET/DELETE take `&self` and scale across threads. [`PnwStore`] is
//! a plain alias for it: with the default `shards = 1` it is the Figure 2
//! system the figure harnesses drive.
//!
//! ## The public API
//!
//! The store — and the baseline stores in `pnw-baselines` —
//! implements the [`api::Store`] trait: `&self`-based `put` / `get` /
//! `get_into` / `delete` / `snapshot` with the unified
//! [`StoreError`], plus the batched-write entry point
//! [`api::Store::apply`] over [`Batch`]/[`Op`]. See [`api`] for the
//! contract and batch semantics.
//!
//! ## Quickstart
//!
//! ```
//! use pnw_core::{PnwConfig, PnwStore};
//!
//! // A small store: 256 buckets of 8-byte values, K = 4 clusters.
//! let store = PnwStore::new(PnwConfig::new(256, 8).with_clusters(4));
//!
//! // Warm up with "old data" and train the model on it (Algorithm 1).
//! for k in 0..128u64 {
//!     store.put(k, &k.to_le_bytes()).unwrap();
//! }
//! store.retrain_now().unwrap();
//!
//! // Subsequent writes are steered to bit-similar locations.
//! store.put(1000, &500u64.to_le_bytes()).unwrap();
//! assert_eq!(store.get(1000).unwrap().unwrap(), 500u64.to_le_bytes());
//!
//! // The device accounting behind every paper figure:
//! let s = store.device_stats();
//! assert!(s.totals.bit_flips > 0);
//! ```
//!
//! Batched writes amortize per-op overhead (one lock acquisition and one
//! model-snapshot load per shard per batch on the sharded store):
//!
//! ```
//! use pnw_core::{Batch, PnwConfig, ShardedPnwStore, Store};
//!
//! let store = ShardedPnwStore::new(PnwConfig::new(256, 8).with_shards(4));
//! let mut batch = Batch::new();
//! for k in 0..64u64 {
//!     batch.put(k, &k.to_le_bytes());
//! }
//! let report = store.apply(&batch);
//! assert!(report.all_ok());
//! assert_eq!(store.len(), 64);
//! ```

#![warn(missing_docs)]

pub mod api;
mod clock;
pub mod config;
mod durable;
pub mod error;
pub mod metrics;
pub mod model;
pub mod pool;
pub mod shard;
pub mod sharded;

pub use api::{Batch, BatchReport, Op, Store};
pub use config::{BackingMode, ConfigError, IndexPlacement, PcaPolicy, PnwConfig, RetrainMode};
pub use error::{PnwError, StoreError};
pub use metrics::{BasisFit, OpReport, ScrubStats, StoreSnapshot, TrainPhases, TrainStats};
pub use model::{ModelManager, ModelSnapshot, PredictScratch};
pub use pool::DynamicAddressPool;
pub use clock::now_unix_ms;
pub use shard::{PutPath, ShardEngine};
pub use sharded::ShardedPnwStore;

/// The PNW store under its paper name: a plain alias of
/// [`ShardedPnwStore`], which at the default `shards = 1` is the
/// single-data-zone system of Figure 2.
pub type PnwStore = ShardedPnwStore;
