//! The unified store error.
//!
//! One error enum serves every [`Store`](crate::api::Store) backend: the
//! PNW store in this crate and the baseline stores in `pnw-baselines`.
//! Before the API unification each surface had its own enum (`PnwError`
//! here, a `StoreError` in `pnw-baselines`) and the bench crate bridged
//! them with a lossy adapter that collapsed `ModelUnavailable` into
//! `Full`; the variants below absorb both enums with nothing collapsed.

use crate::config::ConfigError;
use pnw_index::IndexError;
use pnw_nvm_sim::NvmError;

/// Errors returned by [`Store`](crate::api::Store) operations on any
/// backend.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// No space left (data zone, leaf pool, level area or index exhausted).
    /// PNW callers should extend the zone and retrain (§V-C).
    Full,
    /// A value of the wrong size was supplied to a fixed-bucket store.
    WrongValueSize {
        /// Configured value size.
        expected: usize,
        /// Supplied size.
        got: usize,
    },
    /// The model has not been trained and the store was asked to do
    /// something that needs it (should not happen: an untrained store uses
    /// a single-cluster fallback model). Kept as its own variant — it is a
    /// store bug, not an out-of-space condition, and must never be
    /// reported as [`StoreError::Full`].
    ModelUnavailable,
    /// A shard's bounded write queue is full: the single-writer owner is
    /// not draining fast enough for the offered load. The operation was
    /// **not** applied — callers should back off and retry instead of
    /// piling onto a lock (the explicit alternative to lock convoying in
    /// the single-writer design). Carries *which* shard rejected and the
    /// queue depth at rejection, so an overload response (or a server log
    /// line) is actionable: a single hot shard reads differently from a
    /// store-wide saturation.
    Backpressure {
        /// The shard whose bounded write queue rejected the operation.
        shard: usize,
        /// That queue's depth (= its configured capacity) at rejection.
        depth: usize,
    },
    /// A stored value failed its integrity check: the bucket's sealed CRC
    /// no longer matches the bytes the media returns — stuck-at bits or
    /// other cell damage, detected before the corrupt bytes could be
    /// served. Non-retryable: retrying reads the same damaged cells. The
    /// key stays addressable (so the loss is *loud*) until it is deleted
    /// or overwritten, and the background scrubber repairs it from the
    /// durable layer when a clean copy exists.
    Corruption {
        /// The key whose stored bytes failed verification.
        key: u64,
        /// The shard whose media holds the damaged bucket.
        shard: usize,
    },
    /// The configuration the store was built from is invalid.
    Config(ConfigError),
    /// Underlying device failure.
    Nvm(NvmError),
    /// A file-backed store's durable state failed validation at open
    /// (superblock election found no valid replica, checkpoint CRC
    /// mismatch, geometry mismatch...). The message names the check that
    /// failed.
    Corrupt(String),
}

/// Legacy name of [`StoreError`], kept so pre-unification call sites keep
/// compiling. New code should spell it `StoreError`.
pub type PnwError = StoreError;

impl From<NvmError> for StoreError {
    fn from(e: NvmError) -> Self {
        StoreError::Nvm(e)
    }
}

impl From<ConfigError> for StoreError {
    fn from(e: ConfigError) -> Self {
        StoreError::Config(e)
    }
}

impl From<IndexError> for StoreError {
    fn from(e: IndexError) -> Self {
        match e {
            IndexError::Full => StoreError::Full,
            IndexError::Nvm(e) => StoreError::Nvm(e),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Full => write!(f, "store is full — extend and retrain"),
            StoreError::WrongValueSize { expected, got } => {
                write!(f, "value size {got} != configured size {expected}")
            }
            StoreError::ModelUnavailable => write!(f, "model unavailable"),
            StoreError::Backpressure { shard, depth } => {
                write!(
                    f,
                    "shard {shard} write queue is full at depth {depth} — back off and retry"
                )
            }
            StoreError::Corruption { key, shard } => {
                write!(
                    f,
                    "key {key} failed CRC verification on shard {shard} — stored bytes are damaged"
                )
            }
            StoreError::Config(e) => write!(f, "invalid configuration: {e}"),
            StoreError::Nvm(e) => write!(f, "device error: {e}"),
            StoreError::Corrupt(why) => write!(f, "durable state corrupt: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(StoreError::Full.to_string().contains("full"));
        let e = StoreError::WrongValueSize {
            expected: 8,
            got: 4,
        };
        assert!(e.to_string().contains('8'));
        assert!(e.to_string().contains('4'));
        assert!(StoreError::ModelUnavailable.to_string().contains("model"));
        let e = StoreError::Backpressure { shard: 3, depth: 1024 };
        assert!(e.to_string().contains("queue"));
        assert!(e.to_string().contains("shard 3"), "message must name the shard: {e}");
        assert!(e.to_string().contains("1024"), "message must carry the depth: {e}");
        let e = StoreError::Corrupt("checkpoint CRC mismatch".into());
        assert!(e.to_string().contains("corrupt"));
        assert!(e.to_string().contains("CRC"));
        let e = StoreError::Corruption { key: 42, shard: 3 };
        assert!(e.to_string().contains("key 42"), "message must name the key: {e}");
        assert!(e.to_string().contains("shard 3"), "message must name the shard: {e}");
    }

    /// Media corruption is a *data* error, distinct from the durable-state
    /// `Corrupt(String)` (metadata files failing validation at open) and
    /// from `Full` (which an extend-and-retrain can fix).
    #[test]
    fn corruption_is_its_own_condition() {
        let e = StoreError::Corruption { key: 1, shard: 0 };
        assert_ne!(e, StoreError::Full);
        assert_ne!(e, StoreError::Corrupt("x".into()));
    }

    #[test]
    fn conversions() {
        let e: StoreError = IndexError::Full.into();
        assert_eq!(e, StoreError::Full);
        let e: StoreError = NvmError::Crashed.into();
        assert_eq!(e, StoreError::Nvm(NvmError::Crashed));
        let e: StoreError = ConfigError::ZeroCapacity.into();
        assert_eq!(e, StoreError::Config(ConfigError::ZeroCapacity));
    }

    /// Regression for the pre-unification adapter bug: `ModelUnavailable`
    /// was mapped to `Full` on its way into the Figure 9 harness. The
    /// unified enum keeps them distinct.
    #[test]
    fn model_unavailable_is_not_full() {
        assert_ne!(StoreError::ModelUnavailable, StoreError::Full);
        assert!(!StoreError::ModelUnavailable.to_string().contains("full"));
    }

    /// The legacy alias refers to the same type.
    #[test]
    fn legacy_alias_is_the_same_type() {
        let e: PnwError = StoreError::Full;
        assert_eq!(e, StoreError::Full);
    }
}
