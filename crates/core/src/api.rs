//! The public store API: one [`Store`] trait and the batched-write types.
//!
//! The paper's Figure 9 comparison drives PNW and three baseline stores
//! through one interface. This module is that interface made first-class:
//!
//! * [`Store`] — the `&self`-based key/value contract every backend
//!   implements: [`PnwStore`](crate::PnwStore) (an alias of
//!   [`ShardedPnwStore`](crate::ShardedPnwStore)) and the three baselines
//!   in `pnw-baselines`. Because every method takes `&self`, any backend
//!   can be shared across threads behind an `Arc<dyn Store>` and driven by
//!   the same concurrent harness.
//! * [`Batch`] / [`Op`] / [`BatchReport`] — the batched write API.
//!   [`Store::apply`] executes a group of PUT/DELETE operations in one
//!   call; backends override the default per-op loop to amortize work
//!   across the group. [`ShardedPnwStore`](crate::ShardedPnwStore) groups
//!   the batch by shard and takes each shard's write lock **at most once
//!   per batch**, predicting through the shard's already-loaded model
//!   snapshot and reusing its prediction scratch across the whole group.
//!
//! All operations report the unified [`StoreError`] — one error taxonomy
//! across backends, with nothing collapsed (the old bench-crate adapter
//! reported `ModelUnavailable` as `Full`).
//!
//! # Batch semantics
//!
//! Ops in a [`Batch`] execute independently: an op that fails (say a PUT
//! against a full shard) is recorded in [`BatchReport::failures`] and the
//! remaining ops still run, exactly as if the caller had issued them one
//! by one and ignored the error. Ops on the *same key* execute in batch
//! order. The final logical contents after `apply` are identical to
//! issuing the ops individually — including §V-C reserve extension, which
//! the PNW backends run at the same op boundaries as the per-op path, so
//! a batch never reports [`StoreError::Full`] where the per-op sequence
//! would have extended the zone mid-stream. With
//! [`RetrainMode::Manual`](crate::RetrainMode::Manual) the device-level
//! accounting is bit-for-bit identical too. What batching changes is the
//! amortized cost, the reporting granularity (one aggregate
//! [`BatchReport`] instead of one `OpReport` per op), and the *automatic
//! retrain* boundary: a `Background` retrain is requested when a shard
//! group that made it due lets go of its engine, rather than after every
//! due op, so physical placement after a mid-batch trigger may differ from
//! the per-op schedule.

use std::time::Duration;

use pnw_nvm_sim::{DeviceStats, WriteStats};

use crate::error::StoreError;
use crate::metrics::{OpReport, StoreSnapshot};

/// One key/value store over an emulated NVM device, with fixed-size value
/// buckets (the paper's data zone is an array of equal-sized entries,
/// §IV).
///
/// All methods take `&self`: implementations provide their own interior
/// mutability (per-shard locks for the PNW store, one store-wide lock
/// for the baselines), so any backend can be wrapped in an
/// [`std::sync::Arc`] and driven from several threads.
pub trait Store: Send + Sync {
    /// Store name as it appears in Figure 9 and harness output.
    fn name(&self) -> &'static str;

    /// The fixed value size in bytes.
    fn value_size(&self) -> usize;

    /// Inserts or updates a key, returning what the operation cost.
    /// Backends without a prediction path report `Duration::ZERO` predict
    /// time and cluster 0.
    fn put(&self, key: u64, value: &[u8]) -> Result<OpReport, StoreError>;

    /// Reads a key's value.
    fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError>;

    /// Reads a key's value into a caller-provided buffer of exactly
    /// [`Store::value_size`] bytes — the allocation-free read path.
    /// Returns whether the key was present; `out` is unspecified when it
    /// was not.
    fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, StoreError>;

    /// Deletes a key; returns whether it existed.
    fn delete(&self, key: u64) -> Result<bool, StoreError>;

    /// Ordered range scan: every live key in the **inclusive** range
    /// `[lo, hi]` with its value, ascending by key.
    ///
    /// Consistency contract: each returned entry is an atomically-valid
    /// committed `(key, value)` pair — a scan never observes a torn
    /// value, and on integrity-checked backends never a CRC-failing one
    /// (corrupt buckets are *skipped*; the loud
    /// [`StoreError::Corruption`] contract belongs to point GETs, which
    /// pin a specific key). On the sharded store each shard contributes a
    /// seqlock-consistent snapshot; the scan as a whole is not a single
    /// point-in-time cut across shards (a concurrent writer may land in
    /// an already-scanned shard). TTL-enabled backends exclude expired
    /// keys, exactly as GET does.
    fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, StoreError>;

    /// Inserts or updates a key with an absolute expiry deadline in unix
    /// milliseconds (0 = never expires; compare
    /// [`now_unix_ms`](crate::now_unix_ms)). Backends without TTL
    /// support ignore the deadline — check [`Store::supports_ttl`]. The
    /// default forwards to [`Store::put`].
    fn put_with_expiry(
        &self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
    ) -> Result<OpReport, StoreError> {
        let _ = expires_at_ms;
        self.put(key, value)
    }

    /// Whether [`Store::put_with_expiry`] deadlines are honored (PNW
    /// backends built with [`PnwConfig::with_ttl`](crate::PnwConfig::with_ttl)).
    fn supports_ttl(&self) -> bool {
        false
    }

    /// Stored key count. On a TTL-enabled backend a key past its deadline
    /// still counts until it is reclaimed — by a scrub pass, a DELETE
    /// (which returns `false`), an overwrite or ring eviction — although
    /// GET and [`Store::scan`] already treat it as absent.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time metrics snapshot. Backends without a model fill the
    /// model/training fields with their defaults.
    fn snapshot(&self) -> StoreSnapshot;

    /// Cumulative NVM statistics (bit flips, words, cache lines), merged
    /// across shards where applicable.
    fn device_stats(&self) -> DeviceStats;

    /// Clears the device's cumulative statistics, so a measurement window
    /// can exclude warm-up traffic (the paper measures after warming the
    /// store with "old data", §VI-A).
    fn reset_device_stats(&self);

    /// Highest write count observed on any single NVM word — the wear
    /// hot spot that bounds device lifetime (feeds
    /// [`pnw_nvm_sim::projected_lifetime_ops`]). Backends without
    /// word-granular wear tracking report 0, which projects as an
    /// unbounded lifetime.
    fn max_word_writes(&self) -> u32 {
        0
    }

    /// Flushes the store's durable state (an atomic checkpoint that
    /// empties the WALs on a file-backed store) — the drain hook a serving
    /// front end calls between "stop accepting" and process exit, so a
    /// clean shutdown never replays a WAL on the next open. No-op on
    /// volatile backends, which is the default.
    fn checkpoint(&self) -> Result<(), StoreError> {
        Ok(())
    }

    /// Executes a batch of write operations and returns the aggregate
    /// report. See the [module docs](self) for the exact semantics.
    ///
    /// The default implementation issues the ops one by one; backends with
    /// internal structure to exploit (shards, a shared model snapshot,
    /// per-shard scratch) override it.
    fn apply(&self, batch: &Batch) -> BatchReport {
        let mut report = BatchReport::default();
        for (i, op) in batch.ops().iter().enumerate() {
            match op {
                Op::Put { key, value } => match self.put(*key, value) {
                    Ok(r) => {
                        report.puts += 1;
                        report.write_stats += r.total_write;
                        report.modeled_latency += r.modeled_latency;
                    }
                    Err(e) => report.failures.push((i, e)),
                },
                Op::Delete { key } => match self.delete(*key) {
                    Ok(existed) => {
                        report.deletes += 1;
                        report.deleted_existing += u64::from(existed);
                    }
                    Err(e) => report.failures.push((i, e)),
                },
            }
        }
        report
    }
}

/// Compile-time proof that [`Store`] stays object-safe: the harnesses
/// drive every backend through `Arc<dyn Store>`.
const _: fn(&dyn Store) = |_| {};

/// One write operation in a [`Batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Insert or update `key` with `value`.
    Put {
        /// The key.
        key: u64,
        /// The value (must match the store's value size).
        value: Vec<u8>,
    },
    /// Delete `key`.
    Delete {
        /// The key.
        key: u64,
    },
}

impl Op {
    /// The key this op addresses (what sharded backends route by).
    pub fn key(&self) -> u64 {
        match self {
            Op::Put { key, .. } | Op::Delete { key } => *key,
        }
    }
}

/// An ordered group of write operations for [`Store::apply`].
///
/// ```
/// use pnw_core::{Batch, PnwConfig, PnwStore, Store};
///
/// let store = PnwStore::new(PnwConfig::new(64, 8).with_clusters(2));
/// let mut batch = Batch::new();
/// batch.put(1, &[0xAA; 8]).put(2, &[0xBB; 8]).delete(1);
/// let report = store.apply(&batch);
/// assert!(report.failures.is_empty());
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Batch {
    ops: Vec<Op>,
    /// Value buffers recovered by [`Batch::clear`], reused by the next
    /// [`Batch::put`] — a harness that refills one batch in a loop
    /// allocates value storage only on its first pass.
    spare: Vec<Vec<u8>>,
}

/// Batches compare by their op sequence; the recycled-buffer pool is an
/// allocation detail.
impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
    }
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// An empty batch with room for `n` ops.
    pub fn with_capacity(n: usize) -> Self {
        Batch {
            ops: Vec::with_capacity(n),
            spare: Vec::new(),
        }
    }

    /// Appends a PUT; returns `&mut self` for chaining.
    pub fn put(&mut self, key: u64, value: &[u8]) -> &mut Self {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(value);
        self.ops.push(Op::Put { key, value: buf });
        self
    }

    /// Appends a DELETE; returns `&mut self` for chaining.
    pub fn delete(&mut self, key: u64) -> &mut Self {
        self.ops.push(Op::Delete { key });
        self
    }

    /// Appends an already-built [`Op`].
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The ops in submission order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops queued.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Removes all ops, keeping the allocation — harness loops refill one
    /// batch instead of reallocating per group. PUT value buffers are
    /// recycled into a spare pool the next [`Batch::put`] draws from.
    pub fn clear(&mut self) {
        for op in self.ops.drain(..) {
            if let Op::Put { value, .. } = op {
                self.spare.push(value);
            }
        }
    }
}

/// What one [`Store::apply`] call did, aggregated over the whole batch.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// PUT ops that succeeded.
    pub puts: u64,
    /// DELETE ops that completed (hit or miss).
    pub deletes: u64,
    /// DELETE ops whose key existed.
    pub deleted_existing: u64,
    /// Ops that failed, as `(index into the batch, error)`. Empty on a
    /// fully-applied batch.
    pub failures: Vec<(usize, StoreError)>,
    /// Aggregate device write statistics over the whole batch.
    pub write_stats: WriteStats,
    /// Aggregate modeled NVM latency of the batch's writes under the
    /// device latency model.
    pub modeled_latency: Duration,
}

impl BatchReport {
    /// Whether every op in the batch succeeded.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Ops that completed (puts + deletes, failures excluded).
    pub fn completed(&self) -> u64 {
        self.puts + self.deletes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_collects_ops_in_order() {
        let mut b = Batch::with_capacity(3);
        b.put(1, &[1, 2]).delete(2).push(Op::Put {
            key: 3,
            value: vec![9],
        });
        assert_eq!(b.len(), 3);
        assert_eq!(b.ops()[0].key(), 1);
        assert_eq!(b.ops()[1], Op::Delete { key: 2 });
        assert_eq!(b.ops()[2].key(), 3);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn clear_recycles_put_value_buffers() {
        let mut b = Batch::new();
        b.put(1, &[7u8; 32]).delete(2);
        let ptr = match &b.ops()[0] {
            Op::Put { value, .. } => value.as_ptr(),
            _ => unreachable!(),
        };
        b.clear();
        b.put(9, &[1u8; 16]);
        let reused = match &b.ops()[0] {
            Op::Put { value, .. } => value.as_ptr(),
            _ => unreachable!(),
        };
        assert_eq!(ptr, reused, "the cleared PUT's buffer must be reused");
        assert_eq!(b.ops()[0], Op::Put { key: 9, value: vec![1u8; 16] });
    }

    #[test]
    fn report_accessors() {
        let mut r = BatchReport {
            puts: 3,
            deletes: 2,
            ..Default::default()
        };
        assert!(r.all_ok());
        assert_eq!(r.completed(), 5);
        r.failures.push((1, StoreError::Full));
        assert!(!r.all_ok());
    }
}
