//! The emulated NVM device.
//!
//! [`NvmDevice`] owns a DRAM buffer standing in for the physical NVM array
//! and funnels **every** write through one accounting point, so the write
//! schemes ([`pnw-schemes`](https://docs.rs/pnw-schemes)) and the stores built
//! on top are compared apples-to-apples.
//!
//! Two write modes model the two classes of hardware behaviour in the paper:
//!
//! * [`WriteMode::Raw`] — a conventional PCM write: every bit of the payload
//!   is programmed (and charged), whether or not it changed.
//! * [`WriteMode::Diff`] — a read-before-write (RBW) differential update:
//!   the old content is read, and only differing bits are programmed. This is
//!   the primitive underlying DCW, FNW, MinShift, Captopril and PNW itself
//!   (PNW Algorithm 2, lines 5–6: *"for each bit in {D} and {D'}: if they
//!   differ, update memory bit"*).

use crate::backing::{DeviceBacking, FileBacking};
use crate::fault::{FaultState, StuckAtConfig};
use crate::geometry::Geometry;
use crate::latency::LatencyModel;
use crate::stats::{DeviceStats, WriteStats};
use crate::wear::{record_flips, WearCdf, WearTracker};
use std::cell::UnsafeCell;
use std::sync::Arc;

/// Bytes per device word: the unit the write kernel loads, XORs and
/// programs. [`NvmDevice::new`] / [`NvmDevice::open`] reject any other
/// [`Geometry::word_bytes`].
pub(crate) const WORD_BYTES: usize = 8;

/// Errors returned by device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NvmError {
    /// The requested byte range does not fit in the device.
    OutOfBounds {
        /// First byte of the request.
        addr: usize,
        /// Length of the request.
        len: usize,
        /// Device capacity in bytes.
        size: usize,
    },
    /// The device is in a crashed state and rejects new operations.
    Crashed,
    /// A file-backed operation failed in the filesystem (the `ErrorKind`
    /// is carried so the error stays `Clone + PartialEq`).
    Io(std::io::ErrorKind),
    /// The configured geometry's word is not the 8 bytes the write kernel
    /// programs at a time.
    WordSize {
        /// The rejected `Geometry::word_bytes`.
        word_bytes: usize,
    },
}

impl std::fmt::Display for NvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvmError::OutOfBounds { addr, len, size } => write!(
                f,
                "access [{addr}, {}) out of bounds for device of {size} bytes",
                addr + len
            ),
            NvmError::Crashed => write!(f, "device is in crashed state"),
            NvmError::Io(kind) => write!(f, "backing-file I/O error: {kind}"),
            NvmError::WordSize { word_bytes } => write!(
                f,
                "device words are {WORD_BYTES} bytes, geometry asks for {word_bytes}"
            ),
        }
    }
}

impl std::error::Error for NvmError {}

/// How a write programs the cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Conventional write: all payload bits are programmed and charged.
    Raw,
    /// Read-before-write differential update: only differing bits are
    /// programmed and charged; untouched words/lines cost nothing.
    Diff,
}

/// Configuration of an emulated device.
#[derive(Debug, Clone)]
pub struct NvmConfig {
    /// Capacity in bytes.
    pub size: usize,
    /// Word / cache-line geometry.
    pub geometry: Geometry,
    /// Enable per-bit wear counters (costs 2 B of DRAM per emulated bit).
    pub track_bit_wear: bool,
    /// Latency model used by [`NvmDevice::modeled_write_cost`].
    pub latency: LatencyModel,
    /// Wear-induced stuck-at latching (off by default).
    pub stuck_at: StuckAtConfig,
    /// Where the cell array lives (DRAM only, or written back to a file
    /// at each [`NvmDevice::sync`]). File-backed devices must be created
    /// with [`NvmDevice::open`].
    pub backing: DeviceBacking,
}

impl Default for NvmConfig {
    fn default() -> Self {
        NvmConfig {
            size: 1 << 20,
            geometry: Geometry::default(),
            track_bit_wear: false,
            latency: LatencyModel::xpoint(),
            stuck_at: StuckAtConfig::default(),
            backing: DeviceBacking::Volatile,
        }
    }
}

impl NvmConfig {
    /// Sets the capacity.
    pub fn with_size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// Enables per-bit wear tracking (needed for Figure 13).
    pub fn with_bit_wear(mut self, on: bool) -> Self {
        self.track_bit_wear = on;
        self
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, m: LatencyModel) -> Self {
        self.latency = m;
        self
    }

    /// Sets the backing (pair with [`NvmDevice::open`] for
    /// [`DeviceBacking::File`]).
    pub fn with_backing(mut self, b: DeviceBacking) -> Self {
        self.backing = b;
        self
    }

    /// Configures wear-induced stuck-at latching (see [`StuckAtConfig`]).
    pub fn with_stuck_at(mut self, s: StuckAtConfig) -> Self {
        self.stuck_at = s;
        self
    }
}

/// The shared cell array behind an [`NvmDevice`].
///
/// Storage is a boxed `u64` slice (so the base pointer is 8-byte aligned,
/// letting [`CellView`] do word-granular volatile reads) wrapped in an
/// `UnsafeCell` so that lock-free readers holding a [`CellView`] can copy
/// bytes out *while* the single writer mutates through `&mut NvmDevice`.
///
/// This is the crossbeam-`SeqLock` discipline: the writer performs plain
/// stores, readers perform volatile loads, and an *external* sequence
/// counter (owned by the store layer) brackets every mutation so readers
/// can detect and retry torn reads. A `CellView` used without that
/// validation returns bytes that may be torn — never out of bounds, since
/// the buffer's size is fixed at construction and never reallocates.
struct CellBuf {
    words: UnsafeCell<Box<[u64]>>,
    len: usize,
}

// SAFETY: concurrent access is raw-pointer based and follows the seqlock
// discipline documented above; the buffer itself never moves or resizes.
unsafe impl Send for CellBuf {}
unsafe impl Sync for CellBuf {}

impl std::fmt::Debug for CellBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellBuf").field("len", &self.len).finish()
    }
}

impl CellBuf {
    fn new_zeroed(len: usize) -> Self {
        CellBuf {
            words: UnsafeCell::new(vec![0u64; len.div_ceil(WORD_BYTES)].into_boxed_slice()),
            len,
        }
    }

    fn from_bytes(bytes: &[u8]) -> Self {
        let buf = CellBuf::new_zeroed(bytes.len());
        // SAFETY: freshly allocated, no other reference exists yet.
        unsafe { buf.slice_mut()[..bytes.len()].copy_from_slice(bytes) };
        buf
    }

    fn base(&self) -> *mut u8 {
        // `get()` points at the Box itself; deref to reach the slice data.
        unsafe { (*self.words.get()).as_mut_ptr() as *mut u8 }
    }

    /// # Safety
    /// Caller must be the unique writer (holds `&mut NvmDevice` or has not
    /// yet shared the buffer). Concurrent `CellView` volatile reads are
    /// permitted under the seqlock discipline.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(self.base(), self.len) }
    }

    /// The cells as the 8-byte device words the write kernel programs.
    ///
    /// # Safety
    /// As for [`CellBuf::slice_mut`], and no byte view from `slice` /
    /// `slice_mut` may be live at the same time.
    #[allow(clippy::mut_from_ref)]
    unsafe fn words_mut(&self) -> &mut [u64] {
        unsafe { &mut *self.words.get() }
    }

    /// # Safety
    /// Caller must guarantee no concurrent writer, or tolerate torn bytes.
    unsafe fn slice(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.base(), self.len) }
    }
}

/// A lock-free read handle onto a device's cell array.
///
/// Cloning is an `Arc` bump. Reads are volatile byte/word copies: they never
/// fault, but bytes racing a concurrent writer may be **torn** — callers
/// must validate each read against the store's per-shard sequence counter
/// and retry (see the seqlock protocol in the store layer). The view stays
/// valid for the lifetime of the device, across recovery and model swaps,
/// because the underlying buffer never reallocates.
#[derive(Debug, Clone)]
pub struct CellView {
    buf: Arc<CellBuf>,
}

impl CellView {
    /// Device capacity in bytes.
    pub fn len(&self) -> usize {
        self.buf.len
    }

    /// Whether the device has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.buf.len == 0
    }

    /// Copies `out.len()` bytes starting at `addr` into `out` with volatile
    /// loads. Returns `false` (leaving `out` unspecified) if the range is
    /// out of bounds. The copy may be torn if it races a writer; the caller's
    /// seqlock validation decides whether to trust it.
    pub fn read_into(&self, addr: usize, out: &mut [u8]) -> bool {
        let len = out.len();
        let Some(end) = addr.checked_add(len) else {
            return false;
        };
        if end > self.buf.len {
            return false;
        }
        // SAFETY: bounds checked above; base is 8-byte aligned so the
        // word-granular loads below are aligned whenever (addr + i) % 8 == 0.
        unsafe {
            let base = self.buf.base().add(addr);
            let mut i = 0;
            while i < len && !(addr + i).is_multiple_of(8) {
                out[i] = std::ptr::read_volatile(base.add(i));
                i += 1;
            }
            while i + 8 <= len {
                let w = std::ptr::read_volatile(base.add(i) as *const u64);
                out[i..i + 8].copy_from_slice(&w.to_ne_bytes());
                i += 8;
            }
            while i < len {
                out[i] = std::ptr::read_volatile(base.add(i));
                i += 1;
            }
        }
        true
    }
}

/// An emulated NVM device: a DRAM image as the read and write path,
/// optionally written back to a backing file (see [`DeviceBacking`]).
#[derive(Debug)]
pub struct NvmDevice {
    data: Arc<CellBuf>,
    geometry: Geometry,
    latency: LatencyModel,
    stats: DeviceStats,
    wear: WearTracker,
    fault: FaultState,
    backing: Option<FileBacking>,
}

impl Clone for NvmDevice {
    /// Deep-copies the cell array: the clone gets its own buffer, detached
    /// from any [`CellView`] handed out by the original.
    fn clone(&self) -> Self {
        NvmDevice {
            data: Arc::new(CellBuf::from_bytes(self.cells())),
            geometry: self.geometry,
            latency: self.latency,
            stats: self.stats.clone(),
            wear: self.wear.clone(),
            fault: self.fault.clone(),
            backing: self.backing.clone(),
        }
    }
}

impl NvmDevice {
    /// Creates a volatile device, zero-initialized (freshly manufactured
    /// PCM cells).
    ///
    /// # Panics
    /// Panics if `cfg.backing` is [`DeviceBacking::File`] — file-backed
    /// devices are created with the fallible [`NvmDevice::open`] — or if
    /// `cfg.geometry.word_bytes` is not 8.
    pub fn new(cfg: NvmConfig) -> Self {
        assert!(
            matches!(cfg.backing, DeviceBacking::Volatile),
            "file-backed devices must be created with NvmDevice::open"
        );
        assert!(
            cfg.geometry.word_bytes == WORD_BYTES,
            "device words are {WORD_BYTES} bytes, geometry asks for {}",
            cfg.geometry.word_bytes
        );
        NvmDevice {
            data: Arc::new(CellBuf::new_zeroed(cfg.size)),
            geometry: cfg.geometry,
            latency: cfg.latency,
            stats: DeviceStats::default(),
            wear: WearTracker::new(cfg.size, cfg.geometry.word_bytes, cfg.track_bit_wear),
            fault: FaultState::new(cfg.stuck_at),
            backing: None,
        }
    }

    /// The cell array as a plain slice.
    ///
    /// Sound because `&self` on this method still means there is no *other*
    /// writer (mutation requires `&mut self`); concurrent [`CellView`]
    /// readers use volatile loads and validate via the seqlock counter.
    fn cells(&self) -> &[u8] {
        unsafe { self.data.slice() }
    }

    /// A lock-free read handle onto the cell array. See [`CellView`] for
    /// the torn-read contract.
    pub fn cell_view(&self) -> CellView {
        CellView {
            buf: Arc::clone(&self.data),
        }
    }

    /// Creates a device honoring `cfg.backing`: [`DeviceBacking::Volatile`]
    /// behaves exactly like [`NvmDevice::new`]; [`DeviceBacking::File`]
    /// takes the backing file — one no longer than its reserved header
    /// page is sized, one of this geometry is loaded as the persisted cell image and per-word wear
    /// counters, so reopening after a kill resumes from precisely what the
    /// last [`NvmDevice::sync`] wrote back. The other session counters
    /// (stats, per-bit wear, fault state) start fresh; a durable caller
    /// restores the stats from its checkpoint via
    /// [`NvmDevice::restore_stats`].
    ///
    /// A geometry whose `word_bytes` is not 8 is rejected with
    /// [`NvmError::WordSize`].
    pub fn open(cfg: NvmConfig) -> Result<Self, NvmError> {
        if cfg.geometry.word_bytes != WORD_BYTES {
            return Err(NvmError::WordSize {
                word_bytes: cfg.geometry.word_bytes,
            });
        }
        let data = CellBuf::new_zeroed(cfg.size);
        let mut wear = WearTracker::new(cfg.size, WORD_BYTES, cfg.track_bit_wear);
        let backing = match &cfg.backing {
            DeviceBacking::Volatile => None,
            DeviceBacking::File(file) => {
                // SAFETY: freshly allocated, no other reference exists yet.
                let cells = unsafe { data.slice_mut() };
                let counters = wear.counters_mut().0;
                Some(FileBacking::open(Arc::clone(file), cells, counters)?)
            }
        };
        Ok(NvmDevice {
            data: Arc::new(data),
            geometry: cfg.geometry,
            latency: cfg.latency,
            stats: DeviceStats::default(),
            wear,
            fault: FaultState::new(cfg.stuck_at),
            backing,
        })
    }

    /// Whether this device is backed by a file.
    pub fn is_file_backed(&self) -> bool {
        self.backing.is_some()
    }

    /// Writes the pages changed since the last sync — of the cells and of
    /// the per-word wear counters — back to the backing file (if any) and
    /// syncs it: until then the file holds both as of the previous sync.
    /// Fails with [`NvmError::Crashed`] on a crashed device — a torn image
    /// is written back only after [`NvmDevice::recover`] — and with the
    /// file's error when the write-back fails; one that fails with
    /// [`NvmError::Crashed`] (the file system died under it) crashes the
    /// device too.
    pub fn sync(&mut self) -> Result<(), NvmError> {
        if self.fault.is_crashed() {
            return Err(NvmError::Crashed);
        }
        let Some(b) = &mut self.backing else {
            return Ok(());
        };
        // SAFETY: `&mut self` makes this the unique writer; concurrent
        // CellView readers only read.
        let flushed = b.flush(unsafe { self.data.slice() }, self.wear.word_writes());
        if flushed == Err(NvmError::Crashed) {
            self.fault.crash();
        }
        flushed
    }

    /// Overwrites the cumulative statistics — used by recovery to restore
    /// counters from a checkpoint so wear/traffic CDFs survive a restart.
    pub fn restore_stats(&mut self, stats: DeviceStats) {
        self.stats = stats;
    }

    /// Device capacity in bytes.
    pub fn size(&self) -> usize {
        self.data.len
    }

    /// Device geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Clears cumulative statistics (wear counters are kept; use
    /// [`NvmDevice::reset_wear`] for those).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Clears wear counters (on a file-backed device, at the next sync
    /// in the file too).
    pub fn reset_wear(&mut self) {
        self.wear.reset();
        if let Some(b) = self.backing.as_mut().filter(|_| self.data.len > 0) {
            b.mark_dirty(0, self.data.len);
        }
    }

    fn check(&self, addr: usize, len: usize) -> Result<(), NvmError> {
        if self.fault.is_crashed() {
            return Err(NvmError::Crashed);
        }
        if addr.checked_add(len).is_none_or(|end| end > self.data.len) {
            return Err(NvmError::OutOfBounds {
                addr,
                len,
                size: self.data.len,
            });
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read(&mut self, addr: usize, len: usize) -> Result<&[u8], NvmError> {
        self.check(addr, len)?;
        self.stats.record_read(len);
        Ok(&self.cells()[addr..addr + len])
    }

    /// Reads without recording statistics (used by verification / tests /
    /// recovery scans that should not perturb the measurement).
    pub fn peek(&self, addr: usize, len: usize) -> Result<&[u8], NvmError> {
        if addr.checked_add(len).is_none_or(|end| end > self.data.len) {
            return Err(NvmError::OutOfBounds {
                addr,
                len,
                size: self.data.len,
            });
        }
        Ok(&self.cells()[addr..addr + len])
    }

    /// Copies `out.len()` bytes starting at `addr` into a caller-provided
    /// buffer, with [`NvmDevice::peek`] semantics (no statistics). Lets the
    /// store's GET path reuse one buffer instead of allocating per read.
    pub fn peek_into(&self, addr: usize, out: &mut [u8]) -> Result<(), NvmError> {
        out.copy_from_slice(self.peek(addr, out.len())?);
        Ok(())
    }

    /// Writes `new` at `addr` with the given mode, returning this
    /// operation's statistics (also accumulated into [`NvmDevice::stats`]).
    ///
    /// In `Diff` mode the read-before-write traffic is charged as
    /// `lines_read` over the spanned range.
    ///
    /// If a torn-write fault is armed (see [`crate::fault`]), only a prefix
    /// of the payload's words is persisted and the device transitions to the
    /// crashed state; the returned stats cover only the persisted prefix.
    pub fn write(&mut self, addr: usize, new: &[u8], mode: WriteMode) -> Result<WriteStats, NvmError> {
        self.write_split(addr, new, mode, new.len())
            .map(|(total, _)| total)
    }

    /// [`NvmDevice::write`], also returning — from the same pass over the
    /// cells — the share of the charge that belongs to `new[split..]`: what
    /// a write of just those bytes at `addr + split` would have been
    /// charged (in `Diff` mode, exactly what [`NvmDevice::diff_stats`]
    /// previews for them). Lets a caller that bundles several logical
    /// fields into one physical write (the PNW store's bucket header +
    /// value) keep per-field accounting while reading the old cells once.
    ///
    /// Returns `(total, tail)`. A `split` past the end yields an empty
    /// tail; on a torn write both cover only the persisted prefix.
    pub fn write_split(
        &mut self,
        addr: usize,
        new: &[u8],
        mode: WriteMode,
        split: usize,
    ) -> Result<(WriteStats, WriteStats), NvmError> {
        self.check(addr, new.len())?;

        // Fault injection: truncate the effective payload on a torn write.
        let new = match self.fault.arm_write(new.len(), WORD_BYTES) {
            Some(torn_len) => &new[..torn_len],
            None => new,
        };
        let end = addr + new.len();
        let tail_at = addr + split.min(new.len());

        let stats_over = |from: usize| WriteStats {
            bits_addressed: ((end - from) as u64) * 8,
            lines_read: match mode {
                WriteMode::Raw => 0,
                WriteMode::Diff => self.geometry.lines_spanned(from, end - from) as u64,
            },
            ..Default::default()
        };
        let (mut total, mut tail) = (stats_over(addr), stats_over(tail_at));

        if !new.is_empty() {
            let geometry = self.geometry;
            // One flag keeps the stuck-at machinery entirely off the common
            // path: false unless a bit is already stuck or latching is armed.
            let stuck_active = self.fault.stuck_active();
            let first = addr / WORD_BYTES;
            let last = (end - 1) / WORD_BYTES;
            // SAFETY: `&mut self` makes this the unique writer and no byte
            // view of the cells is live; concurrent CellView readers are
            // volatile and seqlock-validated.
            let words = unsafe { &mut self.data.words_mut()[first..=last] };
            let (word_writes, mut bit_flips) = self.wear.counters_mut();
            let word_writes = &mut word_writes[first..=last];
            // End of the cache line holding the last dirty word (of the
            // whole write / of the tail): a dirty word at or past it opens
            // a new dirty line.
            let (mut line_end, mut tail_line_end) = (0usize, 0usize);

            for i in 0..words.len() {
                let pos = (first + i) * WORD_BYTES;
                // The bytes of this word the payload covers: all eight,
                // except in an unaligned head or tail word.
                let (lo, hi) = (pos.max(addr), (pos + WORD_BYTES).min(end));
                let chunk = &new[lo - addr..hi - addr];
                let (new_word, mask) = match <[u8; WORD_BYTES]>::try_from(chunk) {
                    Ok(full) => (u64::from_le_bytes(full), u64::MAX),
                    Err(_) => (
                        tail_word(chunk) << ((lo - pos) * 8),
                        byte_mask(lo - pos, hi - pos),
                    ),
                };
                let old = u64::from_le(words[i]);
                // Raw programs (and charges) every covered cell; Diff only
                // the ones that differ — and skips a clean word outright.
                let charged = match mode {
                    WriteMode::Raw => mask,
                    WriteMode::Diff => (old ^ new_word) & mask,
                };
                if charged == 0 {
                    continue;
                }

                total.bit_flips += u64::from(charged.count_ones());
                total.words_written += 1;
                if pos >= line_end {
                    total.lines_written += 1;
                    line_end = (geometry.line_of(pos) + 1) * geometry.line_bytes;
                }
                let tail_charged = if lo >= tail_at {
                    charged
                } else if hi <= tail_at {
                    0
                } else {
                    charged & byte_mask(tail_at - pos, WORD_BYTES)
                };
                if tail_charged != 0 {
                    tail.bit_flips += u64::from(tail_charged.count_ones());
                    tail.words_written += 1;
                    if pos >= tail_line_end {
                        tail.lines_written += 1;
                        tail_line_end = line_end;
                    }
                }

                word_writes[i] = word_writes[i].saturating_add(1);
                if let Some(bits) = bit_flips.as_deref_mut() {
                    record_flips(bits, pos, charged);
                }

                let mut word = (old & !mask) | (new_word & mask);
                if stuck_active {
                    // Wear-induced latching: a dirty write to an
                    // over-endurance word may latch one bit at its
                    // just-written value.
                    self.fault
                        .maybe_latch(first + i, word_writes[i], u64::BITS, word);
                    // Re-impose every stuck bit over what was just
                    // programmed: reads (locked, peek, or lock-free
                    // CellView) then serve the stuck value with no
                    // special-casing anywhere else.
                    if let Some(sw) = self.fault.stuck_word(first + i) {
                        word = sw.apply(word);
                    }
                }
                words[i] = word.to_le();
            }
            if total.words_written > 0 {
                if let Some(backing) = &mut self.backing {
                    backing.mark_dirty(addr, end);
                }
            }
        }

        self.stats.record_write(&total);
        Ok((total, tail))
    }

    /// Computes what a [`WriteMode::Diff`] write of `new` at `addr` *would*
    /// charge, without mutating anything. Used by callers that bundle
    /// several logical fields into one physical write but need per-field
    /// accounting (e.g. the PNW store's bucket header + value).
    pub fn diff_stats(&self, addr: usize, new: &[u8]) -> Result<WriteStats, NvmError> {
        let old = self.peek(addr, new.len())?;
        let mut s = WriteStats {
            bits_addressed: (new.len() as u64) * 8,
            lines_read: self.geometry.lines_spanned(addr, new.len()) as u64,
            ..Default::default()
        };
        let mut last_dirty_line = usize::MAX;
        for (_, range) in self.geometry.words_in(addr, new.len()) {
            let off = range.start - addr;
            let diff = hamming(&old[off..off + range.len()], &new[off..off + range.len()]);
            if diff > 0 {
                s.bit_flips += diff;
                s.words_written += 1;
                let line = self.geometry.line_of(range.start);
                if line != last_dirty_line {
                    s.lines_written += 1;
                    last_dirty_line = line;
                }
            }
        }
        Ok(s)
    }

    /// Charges auxiliary metadata bit flips (scheme flags, rotation counters,
    /// mask updates) to the device totals without touching the data array.
    ///
    /// Schemes that keep their metadata in dedicated NVM words use this so
    /// that Figure 6's *total* bit flips include the flag overhead, exactly
    /// as the paper's comparisons do.
    pub fn charge_aux(&mut self, bits: u64) {
        self.stats.totals.aux_bit_flips += bits;
    }

    /// Modeled latency of a write with the given stats under this device's
    /// latency model.
    pub fn modeled_write_cost(&self, s: &WriteStats) -> std::time::Duration {
        self.latency.write_cost(s)
    }

    /// The latency model in effect.
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// Per-word wear CDF over `[start, start+len)` (Figure 12).
    pub fn word_wear_cdf(&self, start: usize, len: usize) -> WearCdf {
        self.wear.word_cdf(start, len)
    }

    /// Per-bit wear CDF over `[start, start+len)` (Figure 13); `None` unless
    /// the device was configured with `track_bit_wear`.
    pub fn bit_wear_cdf(&self, start: usize, len: usize) -> Option<WearCdf> {
        self.wear.bit_cdf(start, len)
    }

    /// Maximum writes observed on any word (lifetime bound).
    pub fn max_word_writes(&self) -> u32 {
        self.wear.max_word_writes()
    }

    /// Direct access to the wear tracker.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Simulates a power failure: subsequent operations fail with
    /// [`NvmError::Crashed`] until [`NvmDevice::recover`] is called. The data
    /// array retains exactly what was persisted (NVM is non-volatile).
    pub fn crash(&mut self) {
        self.fault.crash();
    }

    /// Clears the crashed state, as a restart would.
    pub fn recover(&mut self) {
        self.fault.recover();
    }

    /// Whether the device is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.fault.is_crashed()
    }

    /// Arms a torn write: the *next* write persists only `words` whole words
    /// and then the device crashes. Used by recovery tests.
    pub fn arm_torn_write(&mut self, words: usize) {
        self.fault.arm_torn_after(0, words);
    }

    /// Arms a torn write `skip` writes from now: those land whole, the one
    /// after persists only `words` whole words, and the device crashes.
    pub fn arm_torn_write_after(&mut self, skip: u64, words: usize) {
        self.fault.arm_torn_after(skip, words);
    }

    /// Latches bit `bit` of device word `word` stuck at `stuck_at_one`,
    /// forcing the cell image (and any backing file) to the stuck value
    /// immediately — arming an occupied word corrupts its at-rest data,
    /// exactly the fault a CRC-verifying read or scrub pass must catch.
    /// No statistics or wear are charged: this is damage, not a write.
    ///
    /// Bits beyond the first 64 of a (hypothetical) wider word cannot be
    /// armed; the default 8-byte geometry covers every word bit.
    pub fn arm_stuck_bit(
        &mut self,
        word: usize,
        bit: u32,
        stuck_at_one: bool,
    ) -> Result<(), NvmError> {
        let wb = self.geometry.word_bytes;
        let byte_addr = word * wb + (bit as usize) / 8;
        if (bit as usize) >= wb.min(8) * 8 || byte_addr >= self.data.len {
            return Err(NvmError::OutOfBounds {
                addr: byte_addr,
                len: 1,
                size: self.data.len,
            });
        }
        self.fault.arm_stuck_bit(word, bit, stuck_at_one);
        let buf = Arc::clone(&self.data);
        // SAFETY: `&mut self` makes this the unique writer; concurrent
        // CellView readers are volatile and seqlock-validated.
        let cells: &mut [u8] = unsafe { buf.slice_mut() };
        let m = 1u8 << (bit % 8);
        let old = cells[byte_addr];
        let forced = if stuck_at_one { old | m } else { old & !m };
        if forced != old {
            cells[byte_addr] = forced;
            if let Some(b) = &mut self.backing {
                b.mark_dirty(byte_addr, byte_addr + 1);
            }
        }
        Ok(())
    }

    /// Total stuck bits on the device (explicitly armed + wear-latched).
    pub fn stuck_bit_count(&self) -> u64 {
        self.fault.stuck_bit_count()
    }

    /// Stuck bits whose word overlaps `[addr, addr + len)` — how the store
    /// layer decides a bucket's media is damaged and must be retired.
    pub fn stuck_bits_in(&self, addr: usize, len: usize) -> u64 {
        let wb = self.geometry.word_bytes;
        self.fault
            .stuck_words()
            .filter(|(w, _)| {
                let ws = w * wb;
                ws < addr + len && ws + wb > addr
            })
            .map(|(_, s)| s.mask.count_ones() as u64)
            .sum()
    }

    /// Serializes the persistent state (the cell array) to a byte image —
    /// what would survive on the physical part across power cycles. Stats,
    /// wear counters and fault state are DRAM-side and not included.
    pub fn to_image(&self) -> &[u8] {
        self.cells()
    }
}

/// Hamming distance between two equal-length byte slices.
///
/// Operates on `u64` words — one XOR + popcount per 8 bytes — with the
/// byte tail folded into a single zero-padded word. The kernel of
/// [`NvmDevice::diff_stats`] and of the write schemes' flip counting; the
/// device's own write path diffs in place (see [`NvmDevice::write_split`]).
#[inline]
pub fn hamming(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let mut total = 0u64;
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        let xa = u64::from_le_bytes(ca.try_into().unwrap());
        let xb = u64::from_le_bytes(cb.try_into().unwrap());
        total += (xa ^ xb).count_ones() as u64;
    }
    let (ra, rb) = (chunks_a.remainder(), chunks_b.remainder());
    if !ra.is_empty() {
        total += (tail_word(ra) ^ tail_word(rb)).count_ones() as u64;
    }
    total
}

/// Zero-pads a sub-8-byte tail into one little-endian `u64`.
#[inline]
fn tail_word(bytes: &[u8]) -> u64 {
    let mut pad = [0u8; 8];
    pad[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(pad)
}

/// Mask of bytes `lo..hi` (`lo < hi <= 8`) of a little-endian word.
#[inline]
fn byte_mask(lo: usize, hi: usize) -> u64 {
    (u64::MAX >> ((WORD_BYTES - (hi - lo)) * 8)) << (lo * 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{Fs, Open, SimFs};

    fn dev(size: usize) -> NvmDevice {
        NvmDevice::new(NvmConfig::default().with_size(size))
    }

    #[test]
    fn raw_write_charges_every_bit() {
        let mut d = dev(1024);
        let s = d.write(0, &[0u8; 16], WriteMode::Raw).unwrap();
        assert_eq!(s.bit_flips, 128); // even writing zeros over zeros
        assert_eq!(s.words_written, 2);
        assert_eq!(s.lines_written, 1);
        assert_eq!(s.lines_read, 0);
    }

    #[test]
    fn diff_write_charges_only_differences() {
        let mut d = dev(1024);
        d.write(0, &[0xFFu8; 8], WriteMode::Raw).unwrap();
        let s = d.write(0, &[0xFEu8; 8], WriteMode::Diff).unwrap();
        assert_eq!(s.bit_flips, 8); // one bit per byte
        assert_eq!(s.words_written, 1);
        assert_eq!(s.lines_written, 1);
        assert_eq!(s.lines_read, 1);
    }

    #[test]
    fn diff_write_identical_touches_nothing() {
        let mut d = dev(1024);
        d.write(64, &[0xABu8; 32], WriteMode::Raw).unwrap();
        let s = d.write(64, &[0xABu8; 32], WriteMode::Diff).unwrap();
        assert_eq!(s.bit_flips, 0);
        assert_eq!(s.words_written, 0);
        assert_eq!(s.lines_written, 0);
        // But RBW still had to read the line.
        assert_eq!(s.lines_read, 1);
    }

    #[test]
    fn diff_write_counts_dirty_lines_not_spanned_lines() {
        let mut d = dev(4096);
        // 128-byte value spanning 2 lines; make only the second line differ.
        let mut old = vec![0u8; 128];
        d.write(0, &old, WriteMode::Raw).unwrap();
        old[100] = 0xFF;
        let s = d.write(0, &old, WriteMode::Diff).unwrap();
        assert_eq!(s.lines_written, 1);
        assert_eq!(s.words_written, 1);
        assert_eq!(s.bit_flips, 8);
        assert_eq!(s.lines_read, 2);
    }

    #[test]
    fn write_persists_data() {
        let mut d = dev(256);
        d.write(10, b"hello world", WriteMode::Diff).unwrap();
        assert_eq!(d.read(10, 11).unwrap(), b"hello world");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut d = dev(64);
        assert!(matches!(
            d.write(60, &[0u8; 8], WriteMode::Raw),
            Err(NvmError::OutOfBounds { .. })
        ));
        assert!(d.read(64, 1).is_err());
        // Boundary case is fine.
        assert!(d.write(56, &[0u8; 8], WriteMode::Raw).is_ok());
    }

    #[test]
    fn wear_counters_accumulate_per_word() {
        let mut d = dev(256);
        d.write(0, &[1u8; 8], WriteMode::Raw).unwrap();
        d.write(0, &[2u8; 8], WriteMode::Diff).unwrap();
        d.write(8, &[2u8; 8], WriteMode::Diff).unwrap();
        assert_eq!(d.wear().word_writes()[0], 2);
        assert_eq!(d.wear().word_writes()[1], 1);
        assert_eq!(d.max_word_writes(), 2);
    }

    #[test]
    fn clean_diff_does_not_wear() {
        let mut d = dev(256);
        d.write(0, &[7u8; 8], WriteMode::Raw).unwrap();
        d.write(0, &[7u8; 8], WriteMode::Diff).unwrap();
        assert_eq!(d.wear().word_writes()[0], 1);
    }

    #[test]
    fn bit_wear_tracks_flipped_bits_only() {
        let mut d = NvmDevice::new(NvmConfig::default().with_size(64).with_bit_wear(true));
        d.write(0, &[0b0000_0001u8], WriteMode::Diff).unwrap();
        d.write(0, &[0b0000_0011u8], WriteMode::Diff).unwrap();
        let bits = d.wear().bit_flips().unwrap();
        assert_eq!(bits[0], 1); // bit 0 flipped once (0->1)
        assert_eq!(bits[1], 1); // bit 1 flipped once
        assert_eq!(bits[2], 0);
        let cdf = d.bit_wear_cdf(0, 1).unwrap();
        assert_eq!(cdf.population, 8);
    }

    #[test]
    fn stats_accumulate_across_ops() {
        let mut d = dev(1024);
        d.write(0, &[0xFFu8; 64], WriteMode::Raw).unwrap();
        d.write(0, &[0x00u8; 64], WriteMode::Diff).unwrap();
        assert_eq!(d.stats().write_ops, 2);
        assert_eq!(d.stats().totals.bit_flips, 1024);
        d.read(0, 64).unwrap();
        assert_eq!(d.stats().read_ops, 1);
        assert_eq!(d.stats().bytes_read, 64);
    }

    #[test]
    fn charge_aux_adds_to_totals_only() {
        let mut d = dev(64);
        d.charge_aux(5);
        assert_eq!(d.stats().totals.aux_bit_flips, 5);
        assert_eq!(d.stats().write_ops, 0);
    }

    #[test]
    fn crash_blocks_io_until_recover() {
        let mut d = dev(64);
        d.write(0, b"persist!", WriteMode::Raw).unwrap();
        d.crash();
        assert!(matches!(d.read(0, 8), Err(NvmError::Crashed)));
        assert!(matches!(
            d.write(0, b"x", WriteMode::Raw),
            Err(NvmError::Crashed)
        ));
        d.recover();
        assert_eq!(d.read(0, 8).unwrap(), b"persist!");
    }

    #[test]
    fn torn_write_persists_prefix_then_crashes() {
        let mut d = dev(256);
        d.arm_torn_write(1); // persist only the first 8-byte word
        let s = d.write(0, &[0xAAu8; 24], WriteMode::Raw).unwrap();
        assert_eq!(s.words_written, 1);
        assert!(d.is_crashed());
        d.recover();
        assert_eq!(d.peek(0, 8).unwrap(), &[0xAAu8; 8]);
        assert_eq!(d.peek(8, 16).unwrap(), &[0u8; 16]);
    }

    #[test]
    fn hamming_kernel() {
        assert_eq!(hamming(&[0xFF; 16], &[0x00; 16]), 128);
        assert_eq!(hamming(&[0b1010], &[0b0101]), 4);
        assert_eq!(hamming(&[], &[]), 0);
        // Unaligned tail (not a multiple of 8).
        let a = [0xFFu8; 11];
        let b = [0xFEu8; 11];
        assert_eq!(hamming(&a, &b), 11);
    }

    #[test]
    fn diff_stats_previews_exactly_what_write_charges() {
        let mut d = dev(1024);
        d.write(0, &[0x5Au8; 96], WriteMode::Raw).unwrap();
        let new = {
            let mut v = vec![0x5Au8; 96];
            v[0] = 0xFF; // line 0
            v[70] = 0x00; // line 1
            v
        };
        let preview = d.diff_stats(0, &new).unwrap();
        let actual = d.write(0, &new, WriteMode::Diff).unwrap();
        assert_eq!(preview, actual);
        assert_eq!(preview.lines_written, 2);
        // Preview does not mutate.
        let again = d.diff_stats(0, &new).unwrap();
        assert_eq!(again.bit_flips, 0);
    }

    #[test]
    fn peek_into_matches_peek() {
        let mut d = dev(64);
        d.write(8, b"word-kernel", WriteMode::Raw).unwrap();
        let mut buf = [0u8; 11];
        d.peek_into(8, &mut buf).unwrap();
        assert_eq!(&buf, b"word-kernel");
        assert_eq!(d.stats().read_ops, 0);
        assert!(matches!(
            d.peek_into(60, &mut buf),
            Err(NvmError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn raw_write_wears_every_bit_of_the_range() {
        let mut d = NvmDevice::new(NvmConfig::default().with_size(64).with_bit_wear(true));
        // Unaligned 11-byte Raw write: all 88 bits must wear exactly once,
        // changed or not.
        d.write(3, &[0xA5u8; 11], WriteMode::Raw).unwrap();
        let bits = d.wear().bit_flips().unwrap();
        for (i, &b) in bits.iter().enumerate() {
            let expect = u16::from((3 * 8..14 * 8).contains(&i));
            assert_eq!(b, expect, "bit {i}");
        }
    }

    #[test]
    fn diff_write_wear_matches_flips_on_unaligned_tail() {
        let mut d = NvmDevice::new(NvmConfig::default().with_size(64).with_bit_wear(true));
        d.write(0, &[0x00u8; 13], WriteMode::Raw).unwrap();
        d.reset_wear();
        // 13-byte diff (one full word + 5-byte tail across two words).
        let mut new = [0x00u8; 13];
        new[0] = 0b0000_0110; // bits 1,2 of byte 0
        new[12] = 0b1000_0000; // bit 7 of byte 12
        let s = d.write(0, &new, WriteMode::Diff).unwrap();
        assert_eq!(s.bit_flips, 3);
        let bits = d.wear().bit_flips().unwrap();
        let worn: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(worn, vec![1, 2, 12 * 8 + 7]);
    }

    #[test]
    fn peek_does_not_count_reads() {
        let mut d = dev(64);
        d.peek(0, 8).unwrap();
        assert_eq!(d.stats().read_ops, 0);
        d.read(0, 8).unwrap();
        assert_eq!(d.stats().read_ops, 1);
    }

    /// A device config backed by `fs`'s file `data.0`.
    fn file_cfg(fs: &SimFs, size: usize) -> NvmConfig {
        let file = fs.open("data.0", Open::Create).unwrap();
        NvmConfig::default()
            .with_size(size)
            .with_backing(DeviceBacking::File(file))
    }

    #[test]
    fn file_backed_write_through_roundtrip() {
        let fs = SimFs::new();
        {
            let mut d = NvmDevice::open(file_cfg(&fs, 256)).unwrap();
            assert!(d.is_file_backed());
            d.write(16, b"survives the kill", WriteMode::Diff).unwrap();
            d.write(64, &[0xC3u8; 8], WriteMode::Raw).unwrap();
            d.sync().unwrap();
            // No close/drop hook: a write after the sync is still only in
            // the image when the process dies here.
            d.write(0, &[0xEEu8; 8], WriteMode::Raw).unwrap();
        }
        let d2 = NvmDevice::open(file_cfg(&fs, 256)).unwrap();
        assert_eq!(d2.peek(16, 17).unwrap(), b"survives the kill");
        assert_eq!(d2.peek(64, 8).unwrap(), &[0xC3u8; 8]);
        assert_eq!(d2.peek(0, 16).unwrap(), &[0u8; 16]);
    }

    #[test]
    fn file_backed_diff_flushes_only_dirty_words() {
        let fs = SimFs::new();
        {
            let mut d = NvmDevice::open(file_cfg(&fs, 256)).unwrap();
            d.write(0, &[0x11u8; 64], WriteMode::Raw).unwrap();
            // Dirty two non-adjacent words: the flush must coalesce runs
            // correctly and still land both in the file.
            let mut new = [0x11u8; 64];
            new[0] = 0xFF;
            new[40] = 0x00;
            let s = d.write(0, &new, WriteMode::Diff).unwrap();
            assert_eq!(s.words_written, 2);
            d.sync().unwrap();
        }
        let d2 = NvmDevice::open(file_cfg(&fs, 256)).unwrap();
        assert_eq!(d2.peek(0, 1).unwrap(), &[0xFF]);
        assert_eq!(d2.peek(40, 1).unwrap(), &[0x00]);
        assert_eq!(d2.peek(1, 39).unwrap(), &[0x11u8; 39]);
    }

    #[test]
    fn file_backed_torn_write_back_lands_a_prefix() {
        let fs = SimFs::new();
        {
            let mut d = NvmDevice::open(file_cfg(&fs, 256)).unwrap();
            d.write(32, &[0xABu8; 24], WriteMode::Raw).unwrap();
            fs.tear("data.0", 0, 37);
            assert_eq!(d.sync(), Err(NvmError::Crashed));
            assert!(d.is_crashed());
        }
        let d2 = NvmDevice::open(file_cfg(&fs.reboot(), 256)).unwrap();
        assert_eq!(d2.peek(32, 5).unwrap(), &[0xABu8; 5]);
        assert_eq!(d2.peek(37, 19).unwrap(), &[0u8; 19], "the rest of the run never landed");
    }

    #[test]
    fn file_backed_torn_write_persists_prefix_only() {
        let fs = SimFs::new();
        {
            let mut d = NvmDevice::open(file_cfg(&fs, 256)).unwrap();
            d.arm_torn_write(1); // only the first 8-byte word persists
            d.write(32, &[0xABu8; 24], WriteMode::Raw).unwrap();
            assert!(d.is_crashed());
            // A crashed image is never written back; once recovered, the
            // file must hold exactly the torn prefix.
            assert_eq!(d.sync(), Err(NvmError::Crashed));
            d.recover();
            d.sync().unwrap();
        }
        let d2 = NvmDevice::open(file_cfg(&fs, 256)).unwrap();
        assert_eq!(d2.peek(32, 8).unwrap(), &[0xABu8; 8]);
        assert_eq!(d2.peek(40, 16).unwrap(), &[0u8; 16]);
    }

    /// The per-word wear counters live in the data file beside the cells
    /// and ride the same write-back: synced counts reopen equal, counts of
    /// writes after the last sync are lost with their cells, and a torn
    /// write-back of the counter pages still opens, with whatever landed.
    #[test]
    fn wear_counters_ride_the_write_back() {
        let fs = SimFs::new();
        let synced = {
            let mut d = NvmDevice::open(file_cfg(&fs, 256)).unwrap();
            d.write(0, &[0xFFu8; 16], WriteMode::Raw).unwrap();
            d.write(8, &[0x0Fu8; 8], WriteMode::Diff).unwrap();
            d.write(200, &[0x01u8; 8], WriteMode::Raw).unwrap();
            d.sync().unwrap();
            let synced = d.wear().word_writes().to_vec();
            assert_eq!(synced[..2], [1, 2]);
            // A write after the sync: lost with its cells at the kill.
            d.write(8, &[0xAAu8; 8], WriteMode::Diff).unwrap();
            synced
        };
        let mut d = NvmDevice::open(file_cfg(&fs, 256)).unwrap();
        assert_eq!(d.wear().word_writes(), synced.as_slice());
        assert_eq!(d.peek(8, 8).unwrap(), &[0x0Fu8; 8]);
        assert_eq!(d.max_word_writes(), 2);
        // The device is one page of cells and one of counters: a write
        // dirties both, and the write-back writes the cells, then the
        // counters. Tear the counters' write after 4 bytes: the first
        // counter lands, the second keeps its synced count.
        d.write(0, &[0u8; 16], WriteMode::Raw).unwrap();
        fs.tear("data.0", 1, 4);
        assert_eq!(d.sync(), Err(NvmError::Crashed));
        let d = NvmDevice::open(file_cfg(&fs.reboot(), 256)).unwrap();
        assert_eq!(d.peek(0, 16).unwrap(), &[0u8; 16], "the cells' page landed");
        assert_eq!(d.wear().word_writes()[0], 2);
        assert_eq!(d.wear().word_writes()[1..], synced[1..]);
    }

    #[test]
    #[should_panic(expected = "file-backed devices must be created with NvmDevice::open")]
    fn new_rejects_file_backing() {
        let _ = NvmDevice::new(file_cfg(&SimFs::new(), 64));
    }

    fn narrow_words(mut cfg: NvmConfig) -> NvmConfig {
        cfg.geometry = Geometry::new(4, 32);
        cfg
    }

    #[test]
    #[should_panic(expected = "device words are 8 bytes, geometry asks for 4")]
    fn new_rejects_other_word_sizes() {
        let _ = NvmDevice::new(narrow_words(NvmConfig::default()));
    }

    #[test]
    fn open_rejects_other_word_sizes() {
        let fs = SimFs::new();
        for cfg in [narrow_words(file_cfg(&fs, 64)), narrow_words(NvmConfig::default())] {
            assert_eq!(
                NvmDevice::open(cfg).unwrap_err(),
                NvmError::WordSize { word_bytes: 4 }
            );
        }
        assert!(
            fs.read("data.0").unwrap().is_empty(),
            "rejected before the backing file is touched"
        );
    }

    #[test]
    fn armed_stuck_bit_corrupts_at_rest_data_and_resists_writes() {
        let mut d = dev(256);
        d.write(0, &[0x00u8; 8], WriteMode::Raw).unwrap();
        // Arm bit 3 of word 0 stuck-at-1: the image flips immediately.
        d.arm_stuck_bit(0, 3, true).unwrap();
        assert_eq!(d.peek(0, 1).unwrap()[0], 0b0000_1000);
        assert_eq!(d.stuck_bit_count(), 1);
        // Writes cannot clear it; all other bits still program fine.
        d.write(0, &[0x00u8; 8], WriteMode::Diff).unwrap();
        assert_eq!(d.peek(0, 1).unwrap()[0], 0b0000_1000);
        d.write(0, &[0xF0u8; 8], WriteMode::Diff).unwrap();
        assert_eq!(d.peek(0, 1).unwrap()[0], 0xF8);
        // The lock-free view serves the stuck value too.
        let mut buf = [0u8; 1];
        assert!(d.cell_view().read_into(0, &mut buf));
        assert_eq!(buf[0], 0xF8);
        // Stuck-at-0 on an occupied cell clears it.
        d.arm_stuck_bit(0, 7, false).unwrap();
        assert_eq!(d.peek(0, 1).unwrap()[0], 0x78);
        assert_eq!(d.stuck_bits_in(0, 8), 2);
        assert_eq!(d.stuck_bits_in(8, 8), 0);
    }

    #[test]
    fn arm_stuck_bit_bounds_checked() {
        let mut d = dev(64);
        assert!(matches!(
            d.arm_stuck_bit(8, 0, true),
            Err(NvmError::OutOfBounds { .. })
        ));
        assert!(matches!(
            d.arm_stuck_bit(0, 64, true),
            Err(NvmError::OutOfBounds { .. })
        ));
        assert!(d.arm_stuck_bit(7, 63, true).is_ok());
    }

    #[test]
    fn file_backed_stuck_bit_lands_in_the_file() {
        let fs = SimFs::new();
        {
            let mut d = NvmDevice::open(file_cfg(&fs, 128)).unwrap();
            d.write(0, &[0xFFu8; 8], WriteMode::Raw).unwrap();
            d.arm_stuck_bit(0, 0, false).unwrap();
            // A later write over the word must not resurrect the bit in
            // the file either.
            d.write(0, &[0xFFu8; 8], WriteMode::Diff).unwrap();
            d.sync().unwrap();
        }
        let d2 = NvmDevice::open(file_cfg(&fs, 128)).unwrap();
        assert_eq!(d2.peek(0, 1).unwrap()[0], 0xFE);
    }

    #[test]
    fn wear_latching_fires_past_endurance_and_keeps_written_value() {
        use crate::fault::StuckAtConfig;
        let mut d = NvmDevice::new(NvmConfig::default().with_size(64).with_stuck_at(
            StuckAtConfig {
                endurance_writes: Some(4),
                latch_probability: 1.0,
                ..Default::default()
            },
        ));
        // Distinct patterns so every write dirties the word (clean diffs
        // don't consume endurance).
        for i in 1..4u8 {
            d.write(0, &[i; 8], WriteMode::Diff).unwrap();
        }
        assert_eq!(d.stuck_bit_count(), 0, "under endurance: pristine");
        d.write(0, &[0xAA; 8], WriteMode::Diff).unwrap();
        assert_eq!(d.stuck_bit_count(), 1, "4th write latches");
        // The latched bit froze at the just-written value, so the image
        // still reads back exactly what was acked.
        assert_eq!(d.peek(0, 8).unwrap(), &[0xAA; 8]);
        // Determinism: a replay with the same seed latches the same bit.
        let mut d2 = NvmDevice::new(NvmConfig::default().with_size(64).with_stuck_at(
            StuckAtConfig {
                endurance_writes: Some(4),
                latch_probability: 1.0,
                ..Default::default()
            },
        ));
        for i in 1..4u8 {
            d2.write(0, &[i; 8], WriteMode::Diff).unwrap();
        }
        d2.write(0, &[0xAA; 8], WriteMode::Diff).unwrap();
        assert_eq!(
            d.fault.stuck_word(0).unwrap(),
            d2.fault.stuck_word(0).unwrap()
        );
    }

    #[test]
    fn disarmed_stuck_machinery_is_invisible() {
        let mut a = dev(256);
        let mut b = dev(256);
        for i in 0..50u64 {
            let v = i.to_le_bytes();
            let sa = a.write((i as usize % 4) * 8, &v, WriteMode::Diff).unwrap();
            let sb = b.write((i as usize % 4) * 8, &v, WriteMode::Diff).unwrap();
            assert_eq!(sa, sb);
        }
        assert_eq!(a.to_image(), b.to_image());
        assert_eq!(a.stuck_bit_count(), 0);
    }

    #[test]
    fn cell_view_reads_match_peek() {
        let mut d = dev(256);
        d.write(3, b"view me through the cell seam", WriteMode::Raw)
            .unwrap();
        let v = d.cell_view();
        assert_eq!(v.len(), 256);
        // Unaligned start, crosses word boundaries.
        let mut buf = [0u8; 29];
        assert!(v.read_into(3, &mut buf));
        assert_eq!(&buf, b"view me through the cell seam");
        // Aligned word-granular read.
        let mut w = [0u8; 16];
        assert!(v.read_into(8, &mut w));
        assert_eq!(&w[..], d.peek(8, 16).unwrap());
        // Out of bounds is a clean false, not a fault.
        assert!(!v.read_into(250, &mut w));
        assert!(!v.read_into(usize::MAX, &mut w));
    }

    #[test]
    fn cell_view_sees_writes_made_after_creation() {
        let mut d = dev(64);
        let v = d.cell_view();
        d.write(0, &[0xAB; 8], WriteMode::Diff).unwrap();
        let mut buf = [0u8; 8];
        assert!(v.read_into(0, &mut buf));
        assert_eq!(buf, [0xAB; 8]);
    }

    #[test]
    fn clone_detaches_cell_views() {
        let mut d = dev(64);
        d.write(0, &[0x11; 8], WriteMode::Raw).unwrap();
        let mut d2 = d.clone();
        let v = d.cell_view();
        d2.write(0, &[0x22; 8], WriteMode::Diff).unwrap();
        let mut buf = [0u8; 8];
        assert!(v.read_into(0, &mut buf));
        // The original's view must not observe the clone's writes.
        assert_eq!(buf, [0x11; 8]);
        assert_eq!(d2.peek(0, 8).unwrap(), &[0x22; 8]);
    }
}
