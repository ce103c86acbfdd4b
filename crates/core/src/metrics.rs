//! Per-operation reports and store snapshots — the raw material of every
//! figure harness.

use std::time::Duration;

use pnw_nvm_sim::{DeviceStats, WriteStats};

/// What one PUT/DELETE did, at the granularity the paper measures.
#[derive(Debug, Clone, Default)]
pub struct OpReport {
    /// Cluster the model chose (PUT only).
    pub cluster: usize,
    /// Whether the allocation fell back to a non-predicted cluster.
    pub fallback: bool,
    /// Model prediction time (the bit-domain score kernel over the raw
    /// bytes) — the "latency of prediction per item" series of Figure 6.
    /// Taken with the process tick clock: the unserialized time-stamp
    /// counter on x86-64 with an invariant TSC, calibrated against
    /// [`Instant`](std::time::Instant), and `Instant` itself elsewhere.
    pub predict: Duration,
    /// Stats of the *value* write alone — Figure 6 counts bit updates per
    /// 512 bits of item data, excluding index/header bookkeeping.
    pub value_write: WriteStats,
    /// Stats of everything this op wrote (header + value + index).
    pub total_write: WriteStats,
    /// Modeled NVM latency of the total write under the device's latency
    /// model (the Figure 7/8 series).
    pub modeled_latency: Duration,
}

impl OpReport {
    /// Bit updates per 512 value bits for this op.
    pub fn value_flips_per_512(&self) -> f64 {
        self.value_write.flips_per_512()
    }
}

/// Where a training run's time went, phase by phase. The phases run back
/// to back on the training thread; `sample` through `table_build` make up
/// [`TrainStats::last_train_wall`] (what they leave of it is the reservoir
/// draw), and `label` follows it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainPhases {
    /// Planning the sample and reading the values the run keeps packed: the
    /// PCA basis subsample, or — at or below the PCA threshold — the whole
    /// training set. A store's retrain reads them from the live zone under
    /// seqlock validation.
    pub sample: Duration,
    /// Fitting the PCA basis on the packed subsample — cold (Gram matrix,
    /// eigensolve, axis recovery) or warm (two orthogonal-iteration steps
    /// from the previous basis), see [`TrainStats::basis`] — and building
    /// the projector table. `ZERO` for models at or below the PCA
    /// threshold.
    pub pca_fit: Duration,
    /// Projecting the training set into PCA space, each value as it is
    /// read. `ZERO` for models at or below the PCA threshold.
    pub project: Duration,
    /// K selection and Lloyd iterations.
    pub kmeans: Duration,
    /// Building the prediction table: the word table of the centroids,
    /// with the PCA basis folded in for a PCA-configured model.
    pub table_build: Duration,
    /// The label pass of a background run: predicting every active
    /// bucket's stored content under the new model, lock-free, on the
    /// worker thread. `ZERO` for a synchronous train, whose install labels
    /// under the engine locks instead.
    pub label: Duration,
}

/// How a training run came by its PCA basis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BasisFit {
    /// No basis: the model is at or below the PCA threshold (or untrained).
    #[default]
    None,
    /// Fit from nothing — every synchronous train, and a background run
    /// with no usable previous basis.
    Cold,
    /// The previous run's basis, refreshed on the new sample.
    Warm,
}

/// Retrain observability: what the last installed training run cost and
/// used, what its install left to do, plus the model epoch (install/swap
/// counter). Kept by the trainer, published by the store's worker after
/// each install and surfaced through [`StoreSnapshot::train`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainStats {
    /// Wall-clock time of the last installed run's fit, sampling included
    /// (the Figure 11 measurement), `ZERO` before the first. A background
    /// run's label pass comes on top ([`TrainPhases::label`]).
    pub last_train_wall: Duration,
    /// The phase split of the run.
    pub phases: TrainPhases,
    /// Whether the run's PCA basis was fit cold or refreshed warm.
    pub basis: BasisFit,
    /// Training-snapshot size before the reservoir cap.
    pub samples_pre_cap: usize,
    /// Samples actually trained on (≤ `train_sample_cap`).
    pub samples_post_cap: usize,
    /// Buckets the run's label pass predicted off the write path (0 for a
    /// synchronous train).
    pub labelled: usize,
    /// Of those, labels the install threw away: buckets rewritten while the
    /// pass ran, or activated after it began.
    pub stale_at_install: usize,
    /// Predictions the install made under the engine locks: every free
    /// bucket for a synchronous train, only the stale free ones after a
    /// label pass.
    pub predicted_at_install: usize,
    /// Model epoch: completed install/swap count (0 = untrained
    /// placeholder). Every published [`ModelSnapshot`](crate::model::ModelSnapshot)
    /// carries its epoch; this is the latest.
    pub epoch: u64,
}

/// Integrity and wear-out observability: what the CRC verifiers, the
/// write-verify path and the background scrubber have seen. Counters are
/// cumulative since store construction; the sharded snapshot sums them
/// across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Buckets the scrubber has CRC-verified (cumulative; a full pass over
    /// a shard scans every *live* bucket once).
    pub scanned: u64,
    /// CRC mismatches detected — by the scrubber, by GET verification or
    /// by PUT write-verify. Every one of these is a corruption that was
    /// *not* silently served.
    pub crc_failures: u64,
    /// Corrupt buckets repaired from the durable layer: the value was
    /// rewritten bit-exact to a fresh bucket and the damaged one retired.
    pub repairs: u64,
    /// Buckets permanently retired from placement (stuck media found by
    /// write-verify, or corruption with no clean durable copy).
    pub retired: u64,
    /// Stuck bits known on this shard's device (armed plus wear-latched).
    pub stuck_bits: u64,
    /// Buckets reclaimed because their TTL deadline passed — by the
    /// scrubber's expiry sweep, by a DELETE that found its key already
    /// overdue, or by ring retention's expired-first pass.
    pub expired: u64,
    /// Live entries evicted by ring retention: the earliest-deadline
    /// tenant removed to make room when the zone was full.
    pub evicted: u64,
}

impl ScrubStats {
    /// Accumulates another shard's counters into this one.
    pub fn merge(&mut self, other: &ScrubStats) {
        self.scanned += other.scanned;
        self.crc_failures += other.crc_failures;
        self.repairs += other.repairs;
        self.retired += other.retired;
        self.stuck_bits += other.stuck_bits;
        self.expired += other.expired;
        self.evicted += other.evicted;
    }
}

/// Point-in-time view of a store.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    /// Stored key count, as [`Store::len`](crate::Store::len): a key past
    /// its TTL deadline counts until it is reclaimed.
    pub live: usize,
    /// Free data-zone buckets.
    pub free: usize,
    /// Data-zone capacity in buckets.
    pub capacity: usize,
    /// Current cluster count K.
    pub k: usize,
    /// Completed training runs.
    pub retrains: u64,
    /// Retrain observability (wall clock, reservoir cap, model epoch).
    pub train: TrainStats,
    /// Pool allocations that fell back to a non-predicted cluster.
    pub fallbacks: u64,
    /// Cumulative device statistics.
    pub device: DeviceStats,
    /// Total time spent in model prediction.
    pub predict_total: Duration,
    /// PUT operations served.
    pub puts: u64,
    /// Of those, updates that rewrote the key's own bucket instead of
    /// relocating ([`PutPath::InPlace`](crate::PutPath::InPlace)); 0 for
    /// backends that make no such choice.
    pub updates_in_place: u64,
    /// GET operations served.
    pub gets: u64,
    /// Of those, lock-free GETs that found a write bracket open or failed
    /// validation and had to retry — GETs that waited on a writer; 0 for
    /// backends without a seqlock read path.
    pub read_waits: u64,
    /// DELETE operations that removed an existing key (misses are not
    /// counted — the convention every [`Store`](crate::Store) backend
    /// follows, so snapshots stay comparable across backends).
    pub deletes: u64,
    /// Integrity and wear-out counters (scrub scans, CRC failures,
    /// repairs, retirements, known stuck bits).
    pub scrub: ScrubStats,
}

impl StoreSnapshot {
    /// Mean prediction latency per PUT, over every PUT however many.
    pub fn mean_predict_latency(&self) -> Duration {
        if self.puts == 0 {
            Duration::ZERO
        } else {
            let ns = self.predict_total.as_nanos() / u128::from(self.puts);
            Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
        }
    }

    /// Pool availability (free fraction of the data zone).
    pub fn availability(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.free as f64 / self.capacity as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_report_normalization() {
        let r = OpReport {
            value_write: WriteStats {
                bit_flips: 16,
                bits_addressed: 1024,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((r.value_flips_per_512() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_derived_metrics() {
        let s = StoreSnapshot {
            live: 5,
            free: 15,
            capacity: 20,
            k: 3,
            retrains: 1,
            train: TrainStats::default(),
            fallbacks: 0,
            device: DeviceStats::default(),
            predict_total: Duration::from_micros(50),
            puts: 10,
            updates_in_place: 0,
            gets: 0,
            read_waits: 0,
            deletes: 0,
            scrub: ScrubStats::default(),
        };
        assert!((s.availability() - 0.75).abs() < 1e-12);
        assert_eq!(s.mean_predict_latency(), Duration::from_micros(5));
        // Past 2³² PUTs the mean still divides by the whole count.
        let s = StoreSnapshot {
            predict_total: Duration::from_nanos(1 << 40),
            puts: 1 << 33,
            ..s
        };
        assert_eq!(s.mean_predict_latency(), Duration::from_nanos(128));
    }

    #[test]
    fn zero_division_guards() {
        let s = StoreSnapshot {
            live: 0,
            free: 0,
            capacity: 0,
            k: 1,
            retrains: 0,
            train: TrainStats::default(),
            fallbacks: 0,
            device: DeviceStats::default(),
            predict_total: Duration::ZERO,
            puts: 0,
            updates_in_place: 0,
            gets: 0,
            read_waits: 0,
            deletes: 0,
            scrub: ScrubStats::default(),
        };
        assert_eq!(s.availability(), 0.0);
        assert_eq!(s.mean_predict_latency(), Duration::ZERO);
    }

    #[test]
    fn scrub_stats_merge_sums_every_counter() {
        let mut a = ScrubStats {
            scanned: 1,
            crc_failures: 2,
            repairs: 3,
            retired: 4,
            stuck_bits: 5,
            expired: 6,
            evicted: 7,
        };
        a.merge(&ScrubStats {
            scanned: 10,
            crc_failures: 20,
            repairs: 30,
            retired: 40,
            stuck_bits: 50,
            expired: 60,
            evicted: 70,
        });
        assert_eq!(
            a,
            ScrubStats {
                scanned: 11,
                crc_failures: 22,
                repairs: 33,
                retired: 44,
                stuck_bits: 55,
                expired: 66,
                evicted: 77,
            }
        );
    }
}
