//! The device-backing seam: where the emulated NVM array's bytes live.
//!
//! [`DeviceBacking::Volatile`] is the historical device — a DRAM `Vec`
//! that vanishes with the process, which is exactly right for figure
//! harnesses and unit tests. [`DeviceBacking::File`] gives the same
//! device a durable life, write-back, in a file opened through the
//! [`crate::fs`] seam. The file's first 4 KiB page is its owner's header,
//! which this module never writes; then the cell array, zero-padded to a
//! page boundary, then the per-word wear counters (one `u32` LE per device
//! word), zero-padded to a page boundary too. The in-DRAM image
//! and counters stay the read and write path (peeks, diffs and writes
//! never touch the file); every write that changes a cell marks its
//! pages, and the pages of its words' counters, in a dirty bitmap, and
//! [`FileBacking::flush`] writes the dirty pages back and syncs the file.
//! Between flushes the file holds the cells and the counters as of the
//! last one: a process death or a power loss loses every later write and
//! the counts it made, and whoever owns the device must be able to redo
//! them (the durable store flushes at checkpoint, before the superblock
//! names the new epoch, and its WAL redoes the rest). A torn write tears
//! the image, and reaches the file only if the image is flushed
//! afterwards. A flush that fails part way — a torn write-back under
//! [`crate::fs::SimFs`] — leaves its earlier runs written, the failed one
//! in part, and every page dirty. The counters carry no checksum: they
//! are statistics and wear-out inputs, never addresses, so a torn counter
//! page opens as whatever landed.

use std::io;
use std::sync::Arc;

use crate::device::{NvmError, WORD_BYTES};
use crate::fs::FsFile;

/// The granule the dirty bitmap tracks and a flush writes back.
const PAGE: usize = 4096;

/// Bytes of one wear counter in the file.
const COUNTER: usize = 4;

/// Where a device's cell array is backed.
#[derive(Debug, Clone, Default)]
pub enum DeviceBacking {
    /// DRAM only — today's behavior, nothing survives the process.
    #[default]
    Volatile,
    /// Write-back to this file: after each flush it holds the cell array
    /// and the per-word wear counters.
    File(Arc<dyn FsFile>),
}

/// An open write-back backing file and its dirty-page bitmap. Cloning
/// shares the file handle and copies the bitmap.
#[derive(Debug, Clone)]
pub struct FileBacking {
    file: Arc<dyn FsFile>,
    /// The file offset of the first wear counter: the first page boundary
    /// at or past the cells, which start at [`PAGE`].
    counters_at: usize,
    /// One bit per [`PAGE`] of the file written since the last flush.
    dirty: Vec<u64>,
    /// Whether the file is durable apart from the dirty pages: true after
    /// a sync, false on a file opened as it was found, whose last writer
    /// may have died between a flush's writes and its sync.
    synced: bool,
}

impl FileBacking {
    /// Takes the backing file for a device whose zeroed cells and per-word
    /// wear counters are `cells` and `counters`, and returns the handle:
    ///
    /// * a file no longer than its header page is sized, synced, and
    ///   leaves both zeroed (freshly manufactured PCM);
    /// * a file of exactly that size is loaded into both, as persisted;
    /// * any other length is a geometry mismatch and is rejected.
    pub fn open(
        file: Arc<dyn FsFile>,
        cells: &mut [u8],
        counters: &mut [u32],
    ) -> Result<Self, NvmError> {
        let counters_at = PAGE + cells.len().next_multiple_of(PAGE);
        let counter_bytes = counters.len() * COUNTER;
        let size = (counters_at + counter_bytes.next_multiple_of(PAGE)) as u64;
        let len = file.len()?;
        let synced = len <= PAGE as u64;
        if synced {
            // Synced at once: a power loss must not leave a file of some
            // other length, which the next open would refuse.
            file.set_len(size)?;
            file.sync_all()?;
        } else if len == size {
            file.read_at(cells, PAGE as u64)?;
            let mut bytes = vec![0u8; counter_bytes];
            file.read_at(&mut bytes, counters_at as u64)?;
            for (c, b) in counters.iter_mut().zip(bytes.chunks_exact(COUNTER)) {
                *c = u32::from_le_bytes(b.try_into().unwrap());
            }
        } else {
            return Err(NvmError::Io(io::ErrorKind::InvalidData));
        }
        let dirty = vec![0u64; (size as usize / PAGE).div_ceil(64)];
        Ok(FileBacking {
            file,
            counters_at,
            dirty,
            synced,
        })
    }

    /// Marks the pages under device bytes `[start, end)` dirty, and the
    /// pages of the wear counters of the words they cover (`start < end`).
    #[inline]
    pub fn mark_dirty(&mut self, start: usize, end: usize) {
        debug_assert!(start < end);
        let counter = |byte: usize| self.counters_at + byte / WORD_BYTES * COUNTER;
        let counters = (counter(start), counter(end - 1) + COUNTER);
        for (start, end) in [(PAGE + start, PAGE + end), counters] {
            for page in start / PAGE..=(end - 1) / PAGE {
                self.dirty[page / 64] |= 1 << (page % 64);
            }
        }
    }

    /// Writes every dirty page back — of `cells` (the device's cell array)
    /// and of `counters` (its per-word wear) — one positioned write per run
    /// of adjacent dirty pages (never the header page), then syncs the file.
    /// The bitmap is cleared only once the sync returns, so a failed flush
    /// leaves every page it covered dirty. With no page dirty on a file
    /// already synced, there is nothing to make durable: no write, no sync.
    pub fn flush(&mut self, cells: &[u8], counters: &[u32]) -> Result<(), NvmError> {
        if self.synced && self.dirty.iter().all(|&w| w == 0) {
            return Ok(());
        }
        let cell_pages = self.counters_at / PAGE;
        let pages = cell_pages + (counters.len() * COUNTER).div_ceil(PAGE);
        let dirty = |p: usize| self.dirty[p / 64] >> (p % 64) & 1 == 1;
        let mut encoded = Vec::new();
        let mut page = 0;
        while page < pages {
            if !dirty(page) {
                page += 1;
                continue;
            }
            // A run stays inside the cells or inside the counters.
            let (run, region_end) = (page, if page < cell_pages { cell_pages } else { pages });
            while page < region_end && dirty(page) {
                page += 1;
            }
            let (start, end) = (run * PAGE, page * PAGE);
            let bytes = if run < cell_pages {
                &cells[start - PAGE..(end - PAGE).min(cells.len())]
            } else {
                let word = |at: usize| ((at - self.counters_at) / COUNTER).min(counters.len());
                let counted = &counters[word(start)..word(end)];
                encoded.clear();
                encoded.extend(counted.iter().flat_map(|c| c.to_le_bytes()));
                &encoded[..]
            };
            self.write_range(start, bytes)?;
        }
        self.file.sync_all()?;
        self.dirty.fill(0);
        self.synced = true;
        Ok(())
    }

    /// Writes `bytes` at absolute file offset `addr`.
    fn write_range(&self, addr: usize, bytes: &[u8]) -> Result<(), NvmError> {
        self.file.write_at(bytes, addr as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{Fs, Open, SimFs};

    /// A device of `size` bytes on `fs`'s `data.0`: the handle, its cells
    /// and its counters.
    fn open(fs: &SimFs, size: usize) -> Result<(FileBacking, Vec<u8>, Vec<u32>), NvmError> {
        let (mut cells, mut counters) = (vec![0u8; size], vec![0u32; size.div_ceil(WORD_BYTES)]);
        let file = fs.open("data.0", Open::Create)?;
        let b = FileBacking::open(file, &mut cells, &mut counters)?;
        Ok((b, cells, counters))
    }

    #[test]
    fn fresh_file_is_zeroed_and_sized() {
        let fs = SimFs::new();
        let (mut b, cells, counters) = open(&fs, 128).unwrap();
        assert_eq!(cells, vec![0u8; 128]);
        assert_eq!(counters, vec![0u32; 16]);
        // The reserved page, a page of cells, then a page of counters.
        assert_eq!(fs.read("data.0").unwrap(), vec![0u8; 3 * PAGE]);
        b.flush(&cells, &counters).unwrap();
    }

    #[test]
    fn reopen_returns_persisted_bytes() {
        let fs = SimFs::new();
        {
            let (mut b, mut cells, mut counters) = open(&fs, 64).unwrap();
            cells[8..16].copy_from_slice(b"durable!");
            counters[1] = 7;
            b.mark_dirty(8, 16);
            b.flush(&cells, &counters).unwrap();
            // Written to the image but never flushed: lost with the process.
            cells[0] = 0xFF;
            counters[0] = 1;
            b.mark_dirty(0, 1);
        }
        let (_, cells, counters) = open(&fs, 64).unwrap();
        assert_eq!(&cells[8..16], b"durable!");
        assert_eq!(&cells[..8], &[0u8; 8]);
        assert_eq!(counters[..2], [0, 7]);
    }

    #[test]
    fn a_torn_flush_lands_earlier_runs_and_a_prefix() {
        let fs = SimFs::new();
        let (mut b, mut cells, counters) = open(&fs, 4 * PAGE).unwrap();
        cells.fill(0xAB);
        // Two runs of cells, page 0 and pages 2–3, and their counters' page.
        b.mark_dirty(0, PAGE);
        b.mark_dirty(2 * PAGE, 4 * PAGE);
        fs.tear("data.0", 1, 13);
        assert_eq!(b.flush(&cells, &counters), Err(NvmError::Crashed));
        let landed = |file: &[u8]| -> Vec<(usize, u8)> {
            let mut runs: Vec<(usize, u8)> = Vec::new();
            for (i, &x) in file[..4 * PAGE].iter().enumerate() {
                if runs.last().is_none_or(|&(_, y)| y != x) {
                    runs.push((i, x));
                }
            }
            runs
        };
        let fs = fs.reboot();
        let torn = [(0, 0xAB), (PAGE, 0), (2 * PAGE, 0xAB), (2 * PAGE + 13, 0)];
        assert_eq!(landed(&fs.read("data.0").unwrap()[PAGE..]), torn);
        // Every page stays dirty: the flush onto the rebooted file writes
        // both runs whole, and still never the clean page.
        b.file = fs.open("data.0", Open::Existing).unwrap();
        b.flush(&cells, &counters).unwrap();
        let whole = [(0, 0xAB), (PAGE, 0), (2 * PAGE, 0xAB)];
        assert_eq!(landed(&fs.read("data.0").unwrap()[PAGE..]), whole);
    }

    /// The reserved page is its owner's: a fresh file keeps what the owner
    /// wrote there, and no flush writes it.
    #[test]
    fn the_first_page_is_never_written() {
        let fs = SimFs::new();
        fs.open("data.0", Open::Create).unwrap().write_at(b"owner's header", 0).unwrap();
        let (mut b, mut cells, counters) = open(&fs, 64).unwrap();
        cells.fill(0xAB);
        b.mark_dirty(0, 64);
        b.flush(&cells, &counters).unwrap();
        let file = fs.read("data.0").unwrap();
        assert_eq!(&file[..14], b"owner's header");
        assert!(file[14..PAGE].iter().all(|&x| x == 0));
        assert_eq!(file[PAGE..PAGE + 64], [0xAB; 64]);
        let (_, cells, _) = open(&fs, 64).unwrap();
        assert_eq!(cells, [0xAB; 64]);
    }

    /// A flush with no page dirty makes no sync once the file is synced:
    /// a fresh file is synced by its open, an existing one by its first
    /// flush (its last writer may have died before that flush's sync).
    #[test]
    fn a_clean_flush_of_a_synced_file_makes_no_sync() {
        let fs = SimFs::new();
        let (mut b, mut cells, counters) = open(&fs, 64).unwrap();
        let synced = fs.syncs();
        b.flush(&cells, &counters).unwrap();
        assert_eq!(fs.syncs(), synced, "a fresh file was synced at its open");
        cells[0] = 0xAB;
        b.mark_dirty(0, 1);
        b.flush(&cells, &counters).unwrap();
        assert_eq!(fs.syncs(), synced + 1);
        b.flush(&cells, &counters).unwrap();
        assert_eq!(fs.syncs(), synced + 1, "a second flush with nothing dirty");

        // Written, never synced: the process died inside a flush.
        fs.open("data.0", Open::Existing)
            .unwrap()
            .write_at(&[0xCD], PAGE as u64)
            .unwrap();
        let (mut b, cells, counters) = open(&fs, 64).unwrap();
        assert_eq!(cells[0], 0xCD);
        let synced = fs.syncs();
        b.flush(&cells, &counters).unwrap();
        assert_eq!(fs.syncs(), synced + 1, "the file as found is synced once");
        b.flush(&cells, &counters).unwrap();
        assert_eq!(fs.syncs(), synced + 1);
    }

    #[test]
    fn size_mismatch_rejected() {
        let fs = SimFs::new();
        // The reserved page and the cells alone, as a device without
        // counters in its file wrote.
        fs.open("data.0", Open::Create).unwrap().write_at(&[0u8; 64], PAGE as u64).unwrap();
        let mismatch = Err(NvmError::Io(io::ErrorKind::InvalidData));
        assert_eq!(open(&fs, 64).map(|_| ()), mismatch);
    }
}
