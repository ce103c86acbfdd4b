//! The per-shard seqlock every engine mutation brackets, shared with the
//! store's lock-free read path.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The shard state the lock-free read path shares with its engine: the
/// seqlock word every mutation brackets, and the GET counter (readers
/// hold no lock, so the counter cannot live in the engine).
///
/// Write brackets nest (a batch group wraps the per-op methods it calls);
/// only the outermost bracket touches the sequence, tracked by `depth` —
/// which only the single engine owner ever mutates, so its accesses are
/// relaxed.
#[derive(Debug, Default)]
pub(crate) struct ShardSync {
    /// Seqlock sequence: even = quiescent, odd = a mutation is in flight.
    seq: AtomicU64,
    /// Write-bracket nesting depth (engine-owner thread only).
    depth: AtomicU32,
    /// GETs served, by both the lock-free and the locked read path.
    gets: AtomicU64,
    /// CRC verification failures seen by GETs (readers hold no lock, so
    /// the counter lives with the GET counter).
    crc_failures: AtomicU64,
    /// The engine's active-zone size in buckets, mirrored here whenever it
    /// changes, so the worker thread can plan a training sample without
    /// the engine lock.
    active: AtomicUsize,
}

impl ShardSync {
    /// Begins a read-side critical section: spins past in-flight write
    /// brackets and returns the even sequence to validate against.
    #[inline]
    pub fn read_begin(&self) -> u64 {
        loop {
            let s = self.seq.load(Ordering::Acquire);
            if s & 1 == 0 {
                return s;
            }
            std::hint::spin_loop();
        }
    }

    /// Validates the read-side critical section begun at `s1`: `true`
    /// means no write bracket opened while the caller was reading, so
    /// everything it read is a consistent snapshot.
    #[inline]
    pub fn read_validate(&self, s1: u64) -> bool {
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) == s1
    }

    /// Counts one GET (reads take no lock, so the counter lives here).
    #[inline]
    pub fn count_get(&self) {
        self.gets.fetch_add(1, Ordering::Relaxed);
    }

    /// GETs served so far.
    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }

    /// Counts one read-path CRC verification failure.
    #[inline]
    pub fn count_crc_failure(&self) {
        self.crc_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Read-path CRC verification failures so far.
    pub fn crc_failures(&self) -> u64 {
        self.crc_failures.load(Ordering::Relaxed)
    }

    /// Publishes the engine's active-zone size (engine owner only).
    pub fn set_active(&self, buckets: usize) {
        self.active.store(buckets, Ordering::Release);
    }

    /// Buckets in the active zone as last published — never more than are
    /// provisioned, and the zone only grows while a store is open.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    fn write_begin(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
    }

    fn write_end(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
    }
}

/// RAII write bracket: increments the seqlock on entry and exit of the
/// outermost mutation scope. Nested brackets (a batch group calling the
/// per-op methods) are counted, not re-published.
pub(super) struct WriteBracket {
    sync: Arc<ShardSync>,
}

impl WriteBracket {
    #[inline]
    pub(super) fn enter(sync: &Arc<ShardSync>) -> Self {
        if sync.depth.fetch_add(1, Ordering::Relaxed) == 0 {
            sync.write_begin();
        }
        WriteBracket {
            sync: Arc::clone(sync),
        }
    }
}

impl Drop for WriteBracket {
    #[inline]
    fn drop(&mut self) {
        if self.sync.depth.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.sync.write_end();
        }
    }
}
