//! The [`KeyIndex`] trait shared by DRAM and NVM index implementations.

use pnw_nvm_sim::{NvmDevice, NvmError};

/// Index operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// No bucket available for the key (the table needs to grow).
    Full,
    /// Underlying device error.
    Nvm(NvmError),
}

impl From<NvmError> for IndexError {
    fn from(e: NvmError) -> Self {
        IndexError::Nvm(e)
    }
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Full => write!(f, "index is full"),
            IndexError::Nvm(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for IndexError {}

/// A key → address map whose persistent variants charge their writes to an
/// [`NvmDevice`]. DRAM implementations ignore the device parameter.
///
/// The trait is object-safe and `Send + Sync`: a sharded store holds one
/// boxed index per shard behind that shard's lock, and concurrent readers
/// go through [`KeyIndex::lookup`], which needs only shared references.
pub trait KeyIndex: Send + Sync {
    /// Implementation name for experiment output.
    fn name(&self) -> &'static str;

    /// Inserts or updates `key → addr`.
    fn insert(&mut self, dev: &mut NvmDevice, key: u64, addr: u64) -> Result<(), IndexError>;

    /// Looks up a key.
    fn get(&mut self, dev: &mut NvmDevice, key: u64) -> Result<Option<u64>, IndexError>;

    /// Looks up a key through shared references only.
    ///
    /// NVM implementations probe via [`NvmDevice::peek`], so a lookup
    /// records no device statistics and takes no write lock — this is the
    /// read path of the concurrent store (GETs *"do not go through the
    /// model or the dynamic address pool"*, §VI-E, and with this method
    /// they do not serialize on the device either).
    fn lookup(&self, dev: &NvmDevice, key: u64) -> Result<Option<u64>, IndexError>;

    /// Whether [`KeyIndex::insert`] of `key` finds room: the key is
    /// present, or a slot it may take is free. Takes shared references and
    /// only peeks, like [`KeyIndex::lookup`], so a caller can refuse a key
    /// before it writes anything.
    fn can_insert(&self, dev: &NvmDevice, key: u64) -> Result<bool, IndexError>;

    /// Removes a key, returning its previous address. NVM implementations
    /// reset the entry's valid flag (a 1-bit write) rather than erasing it.
    fn remove(&mut self, dev: &mut NvmDevice, key: u64) -> Result<Option<u64>, IndexError>;

    /// Removes every entry, keeping the index's backing storage (and any
    /// [`IndexReader`](crate::IndexReader) handed out earlier) valid.
    /// Recovery uses this to rebuild in place so lock-free readers created
    /// before the crash keep probing the same table afterwards.
    fn clear(&mut self, dev: &mut NvmDevice) -> Result<(), IndexError>;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A lock-free read handle for this index (see [`crate::IndexReader`]).
    /// Both indexes of this crate return `Some`; the `None` default is for
    /// an implementation without a concurrent probe, whose readers then go
    /// through [`KeyIndex::lookup`] under the owner's lock.
    fn reader(&self) -> Option<crate::IndexReader> {
        None
    }
}

/// Compile-time proof that [`KeyIndex`] stays object-safe (the sharded
/// store boxes one per shard).
const _: fn(&dyn KeyIndex) = |_| {};
