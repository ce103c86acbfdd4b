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
//!
//! One word-diff kernel does the bit work of the device: a write
//! ([`NvmDevice::write_split`]), its dry run ([`NvmDevice::diff_stats`])
//! and [`hamming`] are three passes of the same loop. Each word the payload
//! covers takes one straight-line step — XOR, popcount, a 0/1 dirty flag
//! added to the word count and ORed into its cache line's flag, the same
//! for the `split` tail under its byte mask — whole words eight bytes at a
//! time and a partial head or tail word under a byte mask, with no branch
//! on the data. A write stores every covered word back and adds its dirty
//! flag to its wear counter; per-bit wear, wear-induced stuck-at latching
//! and the stuck-bit overlay run only for dirty words, and are compiled in
//! only when one of them is on.
//!
//! The kernel is compiled three times, and `is_x86_feature_detected!`
//! picks the first this CPU runs:
//!
//! * with AVX-512 (F, BW, VL and VPOPCNTDQ): the loop cuts its whole words
//!   into runs that end at each line end and on both sides of the word the
//!   tail starts in, so a run is at most one line under one tail mask, and
//!   here a run takes one masked 8-lane step (a longer line's run, one per
//!   eight words) — load, XOR, `vpopcntq` into the total and the tail,
//!   `vptestmq` for the dirty lanes (their count is the words written, any
//!   one dirties the line), and for a write a saturating add of 1 to the
//!   dirty lanes' wear counters and a store of the dirty lanes' words. The
//!   partial head and tail words, and every word of a write with per-bit
//!   wear or stuck bits on, stay on the scalar step;
//! * with hardware `popcnt`;
//! * for the baseline target (the workspace builds for baseline x86-64,
//!   where a popcount is otherwise a sequence of shifts and adds).
//!
//! All three give the same stats, cells, wear and latched bits. Before it
//! runs, a write prefetches every cache line of its cells and of their wear
//! counters, so that on a device larger than the cache the misses of a
//! bucket's lines overlap instead of stalling the steps one line at a time.

use crate::backing::{DeviceBacking, FileBacking};
use crate::fault::{FaultState, StuckAtConfig};
use crate::geometry::Geometry;
use crate::latency::LatencyModel;
use crate::stats::{DeviceStats, WriteStats};
use crate::wear::{record_flips, WearCdf, WearTracker};
use std::cell::UnsafeCell;
use std::cmp::Ordering;
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
    /// Another opener holds the directory's lock ([`crate::Fs::lock`]):
    /// one store at a time writes a directory.
    Locked {
        /// The directory.
        dir: String,
    },
}

impl std::fmt::Display for NvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvmError::OutOfBounds { addr, len, size } => write!(
                f,
                "access of {len} bytes at {addr} out of bounds for device of {size} bytes"
            ),
            NvmError::Crashed => write!(f, "device is in crashed state"),
            NvmError::Io(kind) => write!(f, "backing-file I/O error: {kind}"),
            NvmError::WordSize { word_bytes } => write!(
                f,
                "device words are {WORD_BYTES} bytes, geometry asks for {word_bytes}"
            ),
            NvmError::Locked { dir } => {
                write!(f, "{dir} is in use: another store holds its lock")
            }
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

    /// The cells as device words.
    ///
    /// # Safety
    /// Caller must guarantee no concurrent writer.
    unsafe fn words(&self) -> &[u64] {
        unsafe { &*self.words.get() }
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
    /// The pass is the word-diff kernel's (see the [module docs](self)):
    /// every word of the range is XORed, counted and stored back with no
    /// branch on its content. Only a dirty word, and only when each is on,
    /// takes the per-bit wear count and the stuck-at latch and overlay.
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
        self.write_with(Kernel::detect(), addr, new, mode, split)
    }

    /// [`NvmDevice::write_split`] on the given compilation of the kernel.
    fn write_with(
        &mut self,
        kernel: Kernel,
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
        let split = split.min(new.len());

        let stats_over = |from: usize| WriteStats {
            bits_addressed: ((end - from) as u64) * 8,
            lines_read: match mode {
                WriteMode::Raw => 0,
                WriteMode::Diff => self.geometry.lines_spanned(from, end - from) as u64,
            },
            ..Default::default()
        };
        let (mut total, mut tail) = (stats_over(addr), stats_over(addr + split));

        let job = Job {
            addr,
            new,
            split,
            geometry: self.geometry,
            mode,
        };
        let (t, s) = if self.wear.tracks_bits() || self.fault.stuck_active() {
            self.program::<true>(kernel, job)
        } else {
            self.program::<false>(kernel, job)
        };
        total += t;
        tail += s;
        if total.words_written > 0 {
            if let Some(backing) = &mut self.backing {
                backing.mark_dirty(addr, end);
            }
        }

        self.stats.record_write(&total);
        Ok((total, tail))
    }

    /// Runs a write's pass of the kernel over the words `job` covers, with
    /// the per-dirty-word extras compiled in or out.
    fn program<const EXTRAS: bool>(
        &mut self,
        kernel: Kernel,
        job: Job<'_>,
    ) -> (WriteStats, WriteStats) {
        let words = words_of(&job);
        let (word_writes, bit_flips) = self.wear.counters_mut();
        // SAFETY: `&mut self` makes this the unique writer and no byte
        // view of the cells is live; concurrent CellView readers are
        // volatile and seqlock-validated.
        let cells = unsafe { &mut self.data.words_mut()[words.clone()] };
        let word_writes = &mut word_writes[words.clone()];
        prefetch(cells);
        prefetch(word_writes);
        kernel.run(Program::<EXTRAS> {
            words: cells,
            word_writes,
            bit_flips,
            fault: &mut self.fault,
            first: words.start,
            job,
        })
    }

    /// Computes what a [`WriteMode::Diff`] write of `new` at `addr` *would*
    /// charge, without mutating anything: the word-diff kernel's dry run.
    /// Used by callers that bundle several logical fields into one physical
    /// write but need per-field accounting (e.g. the PNW store's bucket
    /// header + value).
    pub fn diff_stats(&self, addr: usize, new: &[u8]) -> Result<WriteStats, NvmError> {
        self.diff_stats_with(Kernel::detect(), addr, new)
    }

    /// [`NvmDevice::diff_stats`] on the given compilation of the kernel.
    fn diff_stats_with(
        &self,
        kernel: Kernel,
        addr: usize,
        new: &[u8],
    ) -> Result<WriteStats, NvmError> {
        self.peek(addr, new.len())?;
        let job = Job {
            addr,
            new,
            split: new.len(),
            geometry: self.geometry,
            mode: WriteMode::Diff,
        };
        // SAFETY: `&self` means no writer is mutating the cells.
        let words = unsafe { &self.data.words()[words_of(&job)] };
        let s = WriteStats {
            bits_addressed: (new.len() as u64) * 8,
            lines_read: self.geometry.lines_spanned(addr, new.len()) as u64,
            ..Default::default()
        };
        Ok(s + kernel.run(Preview { words, job }))
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
            .map(|(_, s)| s.bits())
            .sum()
    }

    /// Serializes the persistent state (the cell array) to a byte image —
    /// what would survive on the physical part across power cycles. Stats,
    /// wear counters and fault state are DRAM-side and not included.
    pub fn to_image(&self) -> &[u8] {
        self.cells()
    }
}

/// Hamming distance between two equal-length byte slices: the word-diff
/// kernel's pass over `b` with `a` as the old words (see the [module
/// docs](self)), so the write schemes' flip counts and the store's pricing
/// of an update count exactly as a differential write charges.
#[inline]
pub fn hamming(a: &[u8], b: &[u8]) -> u64 {
    hamming_with(Kernel::detect(), a, b)
}

/// [`hamming`] on the given compilation of the kernel.
#[inline]
fn hamming_with(kernel: Kernel, a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    kernel.run(Bytes { old: a, new: b })
}

/// Asks the CPU for every 64-byte cache line of `s` at once, so that a
/// write to cells out of cache waits for its misses together rather than
/// one run at a time.
#[inline(always)]
fn prefetch<T>(s: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const CACHE_LINE: usize = 64;
        let first = s.as_ptr().cast::<i8>();
        let lead = first as usize % CACHE_LINE;
        for at in (0..std::mem::size_of_val(s) + lead).step_by(CACHE_LINE) {
            // SAFETY: SSE is baseline on x86-64, and a prefetch never
            // faults, whatever the address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_sub(lead).wrapping_add(at)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = s;
}

/// Zero-pads a sub-8-byte chunk into one little-endian `u64` (a byte at a
/// time: a variable-length copy would be a `memcpy` call).
#[inline]
fn tail_word(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() < WORD_BYTES);
    bytes
        .iter()
        .enumerate()
        .fold(0, |w, (k, &b)| w | u64::from(b) << (8 * k))
}

/// Mask of bytes `lo..hi` (`lo < hi <= 8`) of a little-endian word.
#[inline]
fn byte_mask(lo: usize, hi: usize) -> u64 {
    (u64::MAX >> ((WORD_BYTES - (hi - lo)) * 8)) << (lo * 8)
}

/// Which compilation of the word-diff kernel runs a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Compiled with AVX-512 F, BW, VL and VPOPCNTDQ (and `popcnt`), with
    /// a whole-word run in masked 8-lane steps. Only on a CPU that has
    /// them all.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx512,
    /// Compiled with the hardware `popcnt` instruction. Only on a CPU that
    /// has it.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Popcnt,
    /// Compiled for the baseline target, whose popcount may be a
    /// sequence of shifts and adds (as on baseline x86-64).
    Portable,
}

impl Kernel {
    /// Every compilation, fastest first. Only [`Kernel::available`] hands
    /// one out to run.
    const ALL: [Kernel; 3] = [Kernel::Avx512, Kernel::Popcnt, Kernel::Portable];

    /// The fastest compilation this CPU runs.
    #[inline]
    fn detect() -> Self {
        Kernel::available()
            .next()
            .expect("the portable compilation runs anywhere")
    }

    /// Every compilation this CPU runs, fastest first.
    #[inline]
    fn available() -> impl Iterator<Item = Kernel> {
        Kernel::ALL.into_iter().filter(|k| k.runs_here())
    }

    /// Whether this CPU has the instructions this compilation uses.
    #[inline]
    fn runs_here(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;
        match self {
            Kernel::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Popcnt => has!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => {
                has!("avx512f")
                    && has!("avx512bw")
                    && has!("avx512vl")
                    && has!("avx512vpopcntdq")
                    && has!("popcnt")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Runs `pass` through this compilation of [`word_diff`].
    #[inline]
    fn run<'a, P: Pass<'a>>(self, pass: P) -> P::Out {
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only `available` hands out `Avx512`, once `runs_here`
            // found every feature it is compiled with.
            Kernel::Avx512 => unsafe { word_diff_avx512(pass) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as for `Avx512`, with `popcnt`.
            Kernel::Popcnt => unsafe { word_diff_popcnt(pass) },
            _ => word_diff_portable(pass),
        }
    }
}

/// [`word_diff`] compiled for the baseline target. Kept out of line like
/// [`word_diff_popcnt`], so a caller that inlines [`hamming`] does not
/// carry a second copy of the loop it never runs on a CPU with `popcnt`.
#[inline(never)]
fn word_diff_portable<'a, P: Pass<'a>>(pass: P) -> P::Out {
    word_diff::<P, false>(pass)
}

/// [`word_diff`] compiled with hardware `popcnt`. The whole pass, its
/// setup and its result included, is inlined here, so each caller's
/// constants fold and what it does not read is never computed.
///
/// # Safety
/// The CPU must support `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn word_diff_popcnt<'a, P: Pass<'a>>(pass: P) -> P::Out {
    word_diff::<P, false>(pass)
}

/// [`word_diff`] compiled with AVX-512, its whole-word runs in 8-lane
/// steps ([`WordDiff::lanes`]); inlined whole like [`word_diff_popcnt`].
///
/// # Safety
/// The CPU must support every feature this function enables.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vpopcntdq,popcnt")]
unsafe fn word_diff_avx512<'a, P: Pass<'a>>(pass: P) -> P::Out {
    word_diff::<P, true>(pass)
}

/// The device words a job's payload covers (none for an empty one).
fn words_of(job: &Job<'_>) -> std::ops::Range<usize> {
    job.addr / WORD_BYTES..(job.addr + job.new.len()).div_ceil(WORD_BYTES)
}

/// What a pass diffs: the payload, where it lands and how it is charged.
#[derive(Clone, Copy)]
struct Job<'a> {
    /// Byte address of `new[0]`.
    addr: usize,
    new: &'a [u8],
    /// Where the tail starts in `new` (at most `new.len()`).
    split: usize,
    geometry: Geometry,
    mode: WriteMode,
}

/// One use of the word-diff kernel: where it reads the old words, what it
/// does with each word once charged, and what it returns. Word `i` is the
/// `i`-th word the payload covers.
trait Pass<'a> {
    type Out;

    /// What this pass diffs.
    fn job(&self) -> Job<'a>;

    /// The old image of word `i`, of which the payload covers the bytes
    /// from `at` on with `new[bytes]`.
    fn old(&self, i: usize, bytes: std::ops::Range<usize>, at: usize) -> u64;

    /// Takes word `i` as written: `word` is the old image with the
    /// payload's bytes merged in, `charged` the bits charged, `dirty` 1 if
    /// any was and 0 if none. A dry run keeps nothing.
    #[inline(always)]
    fn program(&mut self, _i: usize, _word: u64, _charged: u64, _dirty: u64) {}

    /// Whether the AVX-512 compilation takes this pass's whole-word runs
    /// in vector steps ([`Pass::run`]) rather than word by word.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    const LINE_RUNS: bool = true;

    /// The whole words from word `i` on that the payload's `new[bytes]`
    /// covers, as one vector step takes them.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    fn run(&mut self, i: usize, bytes: std::ops::Range<usize>) -> Run<'_>;

    /// The result, from the flips, words and lines of the whole payload
    /// and of its tail.
    fn finish(self, total: WriteStats, tail: WriteStats) -> Self::Out;
}

/// A whole-word run as a pass hands it to the vector step: a dry run's
/// old words, or a write's cells (the old words, and where the new ones
/// go) with their wear counters.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Run<'r> {
    Read(&'r [u8]),
    Write(&'r mut [u64], &'r mut [u32]),
}

/// [`NvmDevice::diff_stats`]: a dry run over the device's words.
struct Preview<'a> {
    words: &'a [u64],
    job: Job<'a>,
}

impl<'a> Pass<'a> for Preview<'a> {
    type Out = WriteStats;

    #[inline(always)]
    fn job(&self) -> Job<'a> {
        self.job
    }

    #[inline(always)]
    fn old(&self, i: usize, _: std::ops::Range<usize>, _: usize) -> u64 {
        u64::from_le(self.words[i])
    }

    #[inline(always)]
    fn run(&mut self, i: usize, bytes: std::ops::Range<usize>) -> Run<'_> {
        let words = &self.words[i..i + bytes.len() / WORD_BYTES];
        // SAFETY: the same memory, as bytes: `u8` has no alignment and no
        // invalid values, and nothing writes the words while they are read.
        Run::Read(unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), bytes.len()) })
    }

    #[inline(always)]
    fn finish(self, total: WriteStats, _: WriteStats) -> WriteStats {
        total
    }
}

/// [`hamming`]: a dry run of `new` against `old`, both from word 0.
struct Bytes<'a> {
    old: &'a [u8],
    new: &'a [u8],
}

impl<'a> Pass<'a> for Bytes<'a> {
    type Out = u64;

    #[inline(always)]
    fn job(&self) -> Job<'a> {
        Job {
            addr: 0,
            new: self.new,
            split: self.new.len(),
            // Lines do not matter to a distance: one spans the payload.
            geometry: Geometry {
                word_bytes: WORD_BYTES,
                line_bytes: usize::MAX - (WORD_BYTES - 1),
            },
            mode: WriteMode::Diff,
        }
    }

    #[inline(always)]
    fn old(&self, _: usize, bytes: std::ops::Range<usize>, at: usize) -> u64 {
        let b = &self.old[bytes];
        match <[u8; WORD_BYTES]>::try_from(b) {
            Ok(whole) => u64::from_le_bytes(whole),
            Err(_) => tail_word(b) << (at * 8),
        }
    }

    #[inline(always)]
    fn run(&mut self, _: usize, bytes: std::ops::Range<usize>) -> Run<'_> {
        Run::Read(&self.old[bytes])
    }

    #[inline(always)]
    fn finish(self, total: WriteStats, _: WriteStats) -> u64 {
        total.bit_flips
    }
}

/// [`NvmDevice::write_split`]: stores every word back and adds its dirty
/// flag to its wear counter. With `EXTRAS` (per-bit wear is tracked, or a
/// bit is stuck or latching is armed) a dirty word also takes what is on
/// of those; without it the check is compiled out.
struct Program<'a, const EXTRAS: bool> {
    words: &'a mut [u64],
    word_writes: &'a mut [u32],
    bit_flips: Option<&'a mut [u16]>,
    fault: &'a mut FaultState,
    /// Device index of word 0.
    first: usize,
    job: Job<'a>,
}

impl<'a, const EXTRAS: bool> Pass<'a> for Program<'a, EXTRAS> {
    type Out = (WriteStats, WriteStats);

    #[inline(always)]
    fn job(&self) -> Job<'a> {
        self.job
    }

    #[inline(always)]
    fn old(&self, i: usize, _: std::ops::Range<usize>, _: usize) -> u64 {
        u64::from_le(self.words[i])
    }

    #[inline(always)]
    fn program(&mut self, i: usize, mut word: u64, charged: u64, dirty: u64) {
        let writes = self.word_writes[i].saturating_add(dirty as u32);
        self.word_writes[i] = writes;
        if EXTRAS && dirty != 0 {
            self.dirty_word(i, &mut word, charged, writes);
        }
        self.words[i] = word.to_le();
    }

    // The extras take each dirty word in turn: only the scalar step has one.
    const LINE_RUNS: bool = !EXTRAS;

    #[inline(always)]
    fn run(&mut self, i: usize, bytes: std::ops::Range<usize>) -> Run<'_> {
        let words = i..i + bytes.len() / WORD_BYTES;
        Run::Write(&mut self.words[words.clone()], &mut self.word_writes[words])
    }

    #[inline(always)]
    fn finish(self, total: WriteStats, tail: WriteStats) -> (WriteStats, WriteStats) {
        (total, tail)
    }
}

impl<const EXTRAS: bool> Program<'_, EXTRAS> {
    /// The per-dirty-word extras, in their fixed order: per-bit wear, then
    /// the wear-induced latch on the incremented count, then the overlay of
    /// every stuck bit over what was just programmed (so reads — locked,
    /// peek or lock-free `CellView` — serve the stuck value with no
    /// special-casing anywhere else).
    fn dirty_word(&mut self, i: usize, word: &mut u64, charged: u64, writes: u32) {
        let at = self.first + i;
        if let Some(bits) = self.bit_flips.as_deref_mut() {
            record_flips(bits, at * WORD_BYTES, charged);
        }
        if self.fault.stuck_active() {
            self.fault.maybe_latch(at, writes, u64::BITS, *word);
            if let Some(sw) = self.fault.stuck_word(at) {
                *word = sw.apply(*word);
            }
        }
    }
}

/// The word-diff kernel: the one loop that diffs a payload against the
/// words it covers, for a write ([`Program`]), its preview ([`Preview`])
/// and [`hamming`] ([`Bytes`]). A partial head word, the whole words in
/// runs, then a partial tail word each take [`WordDiff::step`] — with
/// `LANES`, a run takes [`WordDiff::lanes`] instead — and a line's dirty
/// flag is counted as the line closes.
#[inline(always)]
fn word_diff<'a, P: Pass<'a>, const LANES: bool>(mut pass: P) -> P::Out {
    let job = pass.job();
    let new = job.new;
    let mut diff = WordDiff::new(&job);
    let line_words = (job.geometry.line_bytes / WORD_BYTES).max(1);
    // Words left in the current line, the one at hand included.
    let line_end = (job.geometry.line_of(job.addr) + 1) * job.geometry.line_bytes;
    let mut left = (line_end - job.addr / WORD_BYTES * WORD_BYTES) / WORD_BYTES;
    let phase = job.addr % WORD_BYTES;
    let head = if phase == 0 {
        0
    } else {
        (WORD_BYTES - phase).min(new.len())
    };
    let mut i = 0;
    if head > 0 {
        diff.partial(&mut pass, 0, new, 0..head, phase);
        i = 1;
        left -= 1;
        if left == 0 {
            diff.close_line();
            left = line_words;
        }
    }
    let mut at = head;
    let mut whole = (new.len() - head) / WORD_BYTES;
    while whole > 0 {
        // A run ends at a line end, and before and after the word the tail
        // starts in, so its tail mask is one constant: none, all, or (a
        // one-word run) the split word's.
        let mut run = left.min(whole);
        match i.cmp(&diff.split_word) {
            Ordering::Less => {
                run = run.min(diff.split_word - i);
                diff.words::<P, LANES>(&mut pass, i, new, at..at + run * WORD_BYTES, 0);
            }
            Ordering::Equal if diff.split_mask != u64::MAX => {
                run = 1;
                diff.words::<P, LANES>(&mut pass, i, new, at..at + WORD_BYTES, diff.split_mask);
            }
            _ => diff.words::<P, LANES>(&mut pass, i, new, at..at + run * WORD_BYTES, u64::MAX),
        }
        (i, at, whole) = (i + run, at + run * WORD_BYTES, whole - run);
        left -= run;
        if left == 0 {
            diff.close_line();
            left = line_words;
        }
    }
    if at < new.len() {
        diff.partial(&mut pass, i, new, at..new.len(), 0);
    }
    diff.close_line();
    pass.finish(diff.total, diff.tail)
}

/// The running counts of one [`word_diff`] pass, and its per-word step.
struct WordDiff {
    total: WriteStats,
    tail: WriteStats,
    /// Whether the current line has a dirty word (of the whole payload /
    /// of the tail), as 0 or 1.
    line: u64,
    tail_line: u64,
    /// `u64::MAX` in `Raw` mode, 0 in `Diff` mode.
    raw: u64,
    /// The word the tail starts in, and the mask of its tail bytes.
    split_word: usize,
    split_mask: u64,
}

impl WordDiff {
    #[inline(always)]
    fn new(job: &Job<'_>) -> Self {
        let split_at = job.addr % WORD_BYTES + job.split;
        WordDiff {
            total: WriteStats::default(),
            tail: WriteStats::default(),
            line: 0,
            tail_line: 0,
            raw: match job.mode {
                WriteMode::Raw => u64::MAX,
                WriteMode::Diff => 0,
            },
            split_word: split_at / WORD_BYTES,
            split_mask: u64::MAX << (split_at % WORD_BYTES * 8),
        }
    }

    /// Whole words from word `i` on, the payload's `new[bytes]` (whole
    /// words of one line), each under the same tail mask. With `LANES`, in
    /// vector steps.
    #[inline(always)]
    fn words<'a, P: Pass<'a>, const LANES: bool>(
        &mut self,
        pass: &mut P,
        i: usize,
        new: &[u8],
        bytes: std::ops::Range<usize>,
        tail_mask: u64,
    ) {
        #[cfg(target_arch = "x86_64")]
        if LANES && P::LINE_RUNS {
            let run = pass.run(i, bytes.clone());
            // SAFETY: only `word_diff_avx512` sets `LANES`, and it runs only
            // on a CPU with the features it is compiled with.
            unsafe { self.lanes(run, &new[bytes], tail_mask) };
            return;
        }
        let at = bytes.start;
        for (j, chunk) in new[bytes].chunks_exact(WORD_BYTES).enumerate() {
            let word = u64::from_le_bytes(chunk.try_into().unwrap());
            let from = at + j * WORD_BYTES;
            let old = pass.old(i + j, from..from + WORD_BYTES, 0);
            self.step(pass, i + j, old, word, u64::MAX, tail_mask);
        }
    }

    /// One word: `new` over `old` on the bytes of `mask` (`Raw` charges
    /// every one), of which `tail_mask` are the tail's. No branch depends
    /// on the data.
    #[inline(always)]
    fn step<'a, P: Pass<'a>>(
        &mut self,
        pass: &mut P,
        i: usize,
        old: u64,
        new: u64,
        mask: u64,
        tail_mask: u64,
    ) {
        let charged = ((old ^ new) | self.raw) & mask;
        let tail = charged & tail_mask;
        let (dirty, tail_dirty) = (u64::from(charged != 0), u64::from(tail != 0));
        self.total.bit_flips += u64::from(charged.count_ones());
        self.tail.bit_flips += u64::from(tail.count_ones());
        self.total.words_written += dirty;
        self.tail.words_written += tail_dirty;
        self.line |= dirty;
        self.tail_line |= tail_dirty;
        pass.program(i, (old & !mask) | (new & mask), charged, dirty);
    }

    /// The whole words of one run, `new` over `run`'s old words, in masked
    /// steps of eight lanes: [`WordDiff::step`] on up to eight words at
    /// once, with the same counts. A write adds 1, saturating, to each
    /// dirty lane's wear counter and stores the dirty lanes' words (a clean
    /// lane's word is its old one).
    ///
    /// # Safety
    /// The CPU runs AVX-512 F, VL and VPOPCNTDQ.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn lanes(&mut self, run: Run<'_>, new: &[u8], tail_mask: u64) {
        use std::arch::x86_64::*;
        let n = new.len() / WORD_BYTES;
        // Every lane a step reads or writes is below `n`: the lengths the
        // pointers below are good for.
        let (old, write) = match run {
            Run::Read(old) => {
                assert_eq!(old.len(), new.len());
                (old.as_ptr(), None)
            }
            Run::Write(cells, wear) => {
                assert!(cells.len() == n && wear.len() == n);
                let cells = cells.as_mut_ptr();
                (cells.cast_const().cast(), Some((cells, wear.as_mut_ptr())))
            }
        };
        // SAFETY: the caller's features; each load and store is masked to
        // the lanes of words `at..n`.
        unsafe {
            let raw = _mm512_set1_epi64(self.raw as i64);
            let tail_mask = _mm512_set1_epi64(tail_mask as i64);
            let ones = _mm256_set1_epi32(-1);
            let (mut flips, mut tail_flips) = (_mm512_setzero_si512(), _mm512_setzero_si512());
            for at in (0..n).step_by(8) {
                let lanes: __mmask8 = u8::MAX >> (8 - (n - at).min(8));
                let from = at * WORD_BYTES;
                let was = _mm512_maskz_loadu_epi64(lanes, old.add(from).cast());
                let word = _mm512_maskz_loadu_epi64(lanes, new.as_ptr().add(from).cast());
                let charged = _mm512_maskz_or_epi64(lanes, _mm512_xor_si512(was, word), raw);
                let tail = _mm512_and_si512(charged, tail_mask);
                flips = _mm512_add_epi64(flips, _mm512_popcnt_epi64(charged));
                tail_flips = _mm512_add_epi64(tail_flips, _mm512_popcnt_epi64(tail));
                let dirty = _mm512_test_epi64_mask(charged, charged);
                let tail_dirty = _mm512_test_epi64_mask(tail, tail);
                self.total.words_written += u64::from(dirty.count_ones());
                self.tail.words_written += u64::from(tail_dirty.count_ones());
                self.line |= u64::from(dirty != 0);
                self.tail_line |= u64::from(tail_dirty != 0);
                if let Some((cells, wear)) = write {
                    // `count - (-1)` under the dirty lanes not at `u32::MAX`.
                    let count = _mm256_maskz_loadu_epi32(dirty, wear.add(at).cast());
                    let bump = _mm256_mask_cmpneq_epu32_mask(dirty, count, ones);
                    let count = _mm256_sub_epi32(count, ones);
                    _mm256_mask_storeu_epi32(wear.add(at).cast(), bump, count);
                    _mm512_mask_storeu_epi64(cells.add(at).cast(), dirty, word);
                }
            }
            self.total.bit_flips += _mm512_reduce_add_epi64(flips) as u64;
            self.tail.bit_flips += _mm512_reduce_add_epi64(tail_flips) as u64;
        }
    }

    /// Word `i`, of which the payload covers only `new[bytes]`, from its
    /// byte `at`: the same step under the byte mask.
    #[inline(always)]
    fn partial<'a, P: Pass<'a>>(
        &mut self,
        pass: &mut P,
        i: usize,
        new: &[u8],
        bytes: std::ops::Range<usize>,
        at: usize,
    ) {
        let mask = byte_mask(at, at + bytes.len());
        let word = tail_word(&new[bytes.clone()]) << (at * 8);
        let old = pass.old(i, bytes, at);
        let tail_mask = match i.cmp(&self.split_word) {
            Ordering::Less => 0,
            Ordering::Equal => self.split_mask,
            Ordering::Greater => u64::MAX,
        };
        self.step(pass, i, old, word, mask, tail_mask);
    }

    /// Counts the current line's dirty flags and starts the next line.
    #[inline(always)]
    fn close_line(&mut self) {
        self.total.lines_written += self.line;
        self.tail.lines_written += self.tail_line;
        self.line = 0;
        self.tail_line = 0;
    }
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

    /// Every compilation of the word-diff kernel this CPU runs agrees with
    /// the portable one on everything a pass leaves: both `WriteStats`, the
    /// cells, word and bit wear, the stuck bits latched, the preview and
    /// the Hamming distance — for every length 0..=1024 at every start
    /// offset mod 8, in both modes, at any split, through one torn write,
    /// on lines of 32, 64 and 128 B with the per-word extras off (the
    /// AVX-512 compilation's line-run step), and on 64 B lines with them on
    /// (bit wear, stuck bits armed, latching). Prints the compilations it
    /// compared and those this CPU cannot run.
    #[test]
    fn every_compilation_matches_the_portable_one() {
        let (ran, skipped): (Vec<Kernel>, Vec<Kernel>) = Kernel::ALL
            .into_iter()
            .partition(|&k| Kernel::available().any(|a| a == k));
        println!(
            "word-diff compilations compared with Portable: {ran:?}; \
             skipped, not on this CPU: {skipped:?}"
        );
        std::thread::scope(|s| {
            for (line_bytes, extras) in [(32, false), (64, false), (128, false), (64, true)] {
                s.spawn(move || matches_the_portable_kernel(line_bytes, extras));
            }
        });
    }

    /// The device's stuck bits, by word.
    fn stuck(d: &NvmDevice) -> Vec<(usize, crate::fault::StuckWord)> {
        let mut words: Vec<_> = d.fault.stuck_words().collect();
        words.sort_by_key(|&(w, _)| w);
        words
    }

    /// One lockstep run of [`every_compilation_matches_the_portable_one`]:
    /// a device per compilation, the portable one's first.
    fn matches_the_portable_kernel(line_bytes: usize, extras: bool) {
        let mut kernels: Vec<Kernel> = Kernel::available().collect();
        kernels.rotate_right(1);
        assert_eq!(kernels[0], Kernel::Portable);
        let cfg = || {
            let mut cfg = NvmConfig::default().with_size(2048).with_bit_wear(extras);
            cfg.geometry = Geometry::new(WORD_BYTES, line_bytes);
            if extras {
                cfg = cfg.with_stuck_at(StuckAtConfig {
                    endurance_writes: Some(40),
                    latch_probability: 0.5,
                    ..Default::default()
                });
            }
            cfg
        };
        let mut devs: Vec<NvmDevice> = kernels.iter().map(|_| NvmDevice::new(cfg())).collect();
        if extras {
            for d in &mut devs {
                d.arm_stuck_bit(3, 5, true).unwrap();
                d.arm_stuck_bit(100, 63, false).unwrap();
            }
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let case = format!("{line_bytes} B lines, extras {extras}");
        for len in 0..=1024usize {
            for offset in 0..8 {
                let addr = (next() as usize % (2048 - 1024 - 8)) / 8 * 8 + offset;
                let old = devs[0].peek(addr, len).unwrap().to_vec();
                // Every other payload is the old bytes with a few bits
                // flipped (mostly clean words), the rest fresh bytes.
                let new: Vec<u8> = if offset % 2 == 0 {
                    old.iter()
                        .map(|&b| {
                            if next() % 16 == 0 {
                                b ^ 1 << (next() % 8)
                            } else {
                                b
                            }
                        })
                        .collect()
                } else {
                    (0..len).map(|_| next() as u8).collect()
                };
                let mode = if next() % 5 == 0 {
                    WriteMode::Raw
                } else {
                    WriteMode::Diff
                };
                let split = next() as usize % (len + 2);
                let torn = len == 517 && offset == 3;
                let mut want = None;
                for (&k, d) in kernels.iter().zip(&mut devs) {
                    let h = hamming_with(k, &old, &new);
                    let p = d.diff_stats_with(k, addr, &new).unwrap();
                    assert_eq!(p.bit_flips, h, "the preview charges the distance");
                    if torn {
                        d.arm_torn_write(40);
                    }
                    let w = d.write_with(k, addr, &new, mode, split).unwrap();
                    if torn {
                        assert!(d.is_crashed());
                        d.recover();
                    } else if mode == WriteMode::Diff {
                        assert_eq!(w.0, p, "the write charges its preview");
                    }
                    let want = *want.get_or_insert((h, p, w));
                    assert_eq!(
                        (h, p, w),
                        want,
                        "{k:?}: distance, preview and {mode:?} write of {len} B at {addr}, \
                         split {split}, {case}"
                    );
                }
            }
            for (k, d) in kernels.iter().zip(&devs) {
                assert_eq!(
                    d.to_image(),
                    devs[0].to_image(),
                    "{k:?}: cells after {len} B, {case}"
                );
            }
        }
        for (k, d) in kernels.iter().zip(&devs) {
            let (d0, case) = (&devs[0], format!("{k:?}, {case}"));
            assert_eq!(d.wear().word_writes(), d0.wear().word_writes(), "{case}");
            assert_eq!(d.wear().bit_flips(), d0.wear().bit_flips(), "{case}");
            assert_eq!(d.stats(), d0.stats(), "{case}");
            assert_eq!(d.stuck_bit_count(), d0.stuck_bit_count(), "{case}");
            assert_eq!(stuck(d), stuck(d0), "{case}");
        }
        if extras {
            assert!(devs[0].stuck_bit_count() > 2, "latching fired");
        }
    }

    /// A word's wear counter stops at `u32::MAX` on every compilation, with
    /// the extras off and on.
    #[test]
    fn wear_counters_saturate_on_every_compilation() {
        for kernel in Kernel::available() {
            for bit_wear in [false, true] {
                let mut d =
                    NvmDevice::new(NvmConfig::default().with_size(128).with_bit_wear(bit_wear));
                d.wear.counters_mut().0[3] = u32::MAX - 1;
                for fill in [0x5Au8, 0xA5] {
                    d.write_with(kernel, 0, &[fill; 64], WriteMode::Diff, 16)
                        .unwrap();
                }
                let writes = d.wear().word_writes();
                assert_eq!(writes[3], u32::MAX, "{kernel:?}, bit wear {bit_wear}");
                assert_eq!(writes[..8], [2, 2, 2, u32::MAX, 2, 2, 2, 2]);
            }
        }
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
