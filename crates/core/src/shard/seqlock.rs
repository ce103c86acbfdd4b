//! The per-shard seqlock every engine mutation brackets, shared with the
//! store's lock-free read path.
//!
//! Every PUT and DELETE opens a write bracket, on the cache line GET
//! readers poll, so a bracket does no atomic read-modify-write: it
//! borrows the engine's `ShardSync` rather than holding a reference
//! count, and the nesting depth is the owner's plain load and store.

use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use super::ShardEngine;

/// The shard state the lock-free read path shares with its engine: the
/// seqlock word every mutation brackets, and the read-side counters
/// (readers hold no lock, so the counters cannot live in the engine).
///
/// Write brackets nest (a batch group wraps the per-op methods it calls);
/// only the outermost bracket touches the sequence, tracked by `depth` —
/// which only the single engine owner ever reads or writes, so it is a
/// relaxed load and store, never a read-modify-write.
#[derive(Debug, Default)]
pub(crate) struct ShardSync {
    /// Seqlock sequence: even = quiescent, odd = a mutation is in flight.
    seq: AtomicU64,
    /// Write-bracket nesting depth (engine-owner thread only). Atomic only
    /// so that `ShardSync` can be shared; readers never touch it.
    depth: AtomicU32,
    /// The engine's active-zone size in buckets, mirrored here whenever it
    /// changes, so the worker thread can plan a training sample without
    /// the engine lock.
    active: AtomicUsize,
    /// Bumped by every GET, so kept off the line readers poll and writers
    /// publish on.
    counters: ReadCounters,
}

/// The read side's counters, on cache lines of their own: a GET's
/// `fetch_add` here never invalidates the line holding `seq`. 128 bytes,
/// because adjacent-line prefetchers move lines in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
struct ReadCounters {
    /// GETs answered by the read walk, the store's and the engine's.
    gets: AtomicU64,
    /// CRC verification failures seen by GETs.
    crc_failures: AtomicU64,
    /// GETs that found a write bracket open or failed validation at least
    /// once — the slow path, counted once per GET.
    read_waits: AtomicU64,
}

impl ShardSync {
    /// Begins a read-side critical section: spins past in-flight write
    /// brackets and returns the even sequence to validate against.
    #[inline]
    pub fn read_begin(&self) -> u64 {
        self.read_begin_noting(&mut false)
    }

    /// [`ShardSync::read_begin`] that sets `waited` when it had to spin
    /// past an open bracket.
    #[inline]
    pub fn read_begin_noting(&self, waited: &mut bool) -> u64 {
        loop {
            let s = self.seq.load(Ordering::Acquire);
            if s & 1 == 0 {
                return s;
            }
            *waited = true;
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
        self.counters.gets.fetch_add(1, Ordering::Relaxed);
    }

    /// GETs served so far.
    pub fn gets(&self) -> u64 {
        self.counters.gets.load(Ordering::Relaxed)
    }

    /// Counts one read-path CRC verification failure.
    #[inline]
    pub fn count_crc_failure(&self) {
        self.counters.crc_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Read-path CRC verification failures so far.
    pub fn crc_failures(&self) -> u64 {
        self.counters.crc_failures.load(Ordering::Relaxed)
    }

    /// Counts one lock-free GET that had to wait for a writer.
    #[inline]
    pub fn count_read_wait(&self) {
        self.counters.read_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Lock-free GETs that waited for a writer so far.
    pub fn read_waits(&self) -> u64 {
        self.counters.read_waits.load(Ordering::Relaxed)
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

    /// The seqlock sequence as it stands.
    #[cfg(test)]
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
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
///
/// It borrows the engine's `ShardSync` through a pointer rather than a
/// reference, because the engine method that holds it goes on to borrow
/// the engine mutably.
pub(super) struct WriteBracket {
    sync: NonNull<ShardSync>,
}

impl ShardEngine {
    /// Opens a write bracket on this engine's seqlock, closed when the
    /// returned guard drops — on unwind too. Open it as `let _w =
    /// self.write_bracket();` inside an engine method, so the guard drops
    /// before the method returns.
    #[inline]
    #[must_use = "the bracket closes when this guard drops"]
    pub(super) fn write_bracket(&self) -> WriteBracket {
        let sync = &*self.read.sync;
        let depth = sync.depth.load(Ordering::Relaxed);
        sync.depth.store(depth + 1, Ordering::Relaxed);
        if depth == 0 {
            sync.write_begin();
        }
        WriteBracket {
            sync: NonNull::from(sync),
        }
    }
}

impl Drop for WriteBracket {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: brackets are only made by `ShardEngine::write_bracket`,
        // and each is dropped before the engine method that opened it
        // returns. The engine holds its `Arc<ShardSync>` from construction
        // to drop and never replaces it, so the pointee is alive here, and
        // it is only ever accessed through shared references.
        let sync = unsafe { self.sync.as_ref() };
        let depth = sync.depth.load(Ordering::Relaxed) - 1;
        sync.depth.store(depth, Ordering::Relaxed);
        if depth == 0 {
            sync.write_end();
        }
    }
}
