//! The device-backing seam: where the emulated NVM array's bytes live.
//!
//! [`DeviceBacking::Volatile`] is the historical device — a DRAM `Vec`
//! that vanishes with the process, which is exactly right for figure
//! harnesses and unit tests. [`DeviceBacking::File`] gives the same
//! device a durable life, write-back, in a file opened through the
//! [`crate::fs`] seam: the in-DRAM image stays the read and write path
//! (peeks, diffs and writes never touch the file), every write that
//! changes a cell marks its 4 KiB pages in a dirty bitmap, and
//! [`FileBacking::flush`] writes the dirty pages back and syncs the file.
//! Between flushes the file holds the image as of the last one: a process
//! death or a power loss loses every later write, and whoever owns the
//! device must be able to redo them (the durable store flushes at
//! checkpoint, before the superblock names the new epoch, and its WAL
//! redoes the rest). A torn write tears the image, and reaches the file
//! only if the image is flushed afterwards. A flush that fails part way —
//! a torn write-back under [`crate::fs::SimFs`] — leaves its earlier runs
//! written, the failed one in part, and every page dirty.

use std::io;
use std::sync::Arc;

use crate::device::NvmError;
use crate::fs::FsFile;

/// The granule the dirty bitmap tracks and a flush writes back.
const PAGE: usize = 4096;

/// Where a device's cell array is backed.
#[derive(Debug, Clone, Default)]
pub enum DeviceBacking {
    /// DRAM only — today's behavior, nothing survives the process.
    #[default]
    Volatile,
    /// Write-back to this file: after each flush it holds the cell array,
    /// byte for byte.
    File(Arc<dyn FsFile>),
}

/// An open write-back backing file and its dirty-page bitmap. Cloning
/// shares the file handle and copies the bitmap.
#[derive(Debug, Clone)]
pub struct FileBacking {
    file: Arc<dyn FsFile>,
    /// One bit per [`PAGE`] of the device written since the last flush.
    dirty: Vec<u64>,
}

impl FileBacking {
    /// Takes the backing file for a device of `size` bytes and returns the
    /// handle plus the initial cell image:
    ///
    /// * an empty file is sized to `size` and reads as zeroed cells
    ///   (freshly manufactured PCM);
    /// * a file of exactly `size` bytes is loaded as the persisted image;
    /// * any other length is a geometry mismatch and is rejected.
    pub fn open(file: Arc<dyn FsFile>, size: usize) -> Result<(Self, Vec<u8>), NvmError> {
        let len = file.len()?;
        let image = if len == 0 {
            file.set_len(size as u64)?;
            vec![0u8; size]
        } else if len == size as u64 {
            let mut image = vec![0u8; size];
            file.read_at(&mut image, 0)?;
            image
        } else {
            return Err(NvmError::Io(io::ErrorKind::InvalidData));
        };
        let dirty = vec![0u64; size.div_ceil(PAGE).div_ceil(64)];
        Ok((FileBacking { file, dirty }, image))
    }

    /// Marks the pages under device bytes `[start, end)` dirty
    /// (`start < end`).
    #[inline]
    pub fn mark_dirty(&mut self, start: usize, end: usize) {
        debug_assert!(start < end);
        for page in start / PAGE..=(end - 1) / PAGE {
            self.dirty[page / 64] |= 1 << (page % 64);
        }
    }

    /// Writes every dirty page of `image` (the device's cell array) back,
    /// one positioned write per run of adjacent dirty pages, then syncs
    /// the file. The bitmap is cleared only once the sync returns, so a
    /// failed flush leaves every page it covered dirty.
    pub fn flush(&mut self, image: &[u8]) -> Result<(), NvmError> {
        let pages = image.len().div_ceil(PAGE);
        let dirty = |p: usize| self.dirty[p / 64] >> (p % 64) & 1 == 1;
        let mut page = 0;
        while page < pages {
            if !dirty(page) {
                page += 1;
                continue;
            }
            let run = page;
            while page < pages && dirty(page) {
                page += 1;
            }
            let (start, end) = (run * PAGE, (page * PAGE).min(image.len()));
            self.write_range(start, &image[start..end])?;
        }
        self.file.sync_all()?;
        self.dirty.fill(0);
        Ok(())
    }

    /// Writes `bytes` at absolute device offset `addr`.
    fn write_range(&self, addr: usize, bytes: &[u8]) -> Result<(), NvmError> {
        self.file.write_at(bytes, addr as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{Fs, Open, SimFs};

    fn open(fs: &SimFs, size: usize) -> Result<(FileBacking, Vec<u8>), NvmError> {
        FileBacking::open(fs.open("data.0", Open::Create)?, size)
    }

    #[test]
    fn fresh_file_is_zeroed_and_sized() {
        let fs = SimFs::new();
        let (mut b, image) = open(&fs, 128).unwrap();
        assert_eq!(image, vec![0u8; 128]);
        assert_eq!(fs.read("data.0").unwrap().len(), 128);
        b.flush(&image).unwrap();
    }

    #[test]
    fn reopen_returns_persisted_bytes() {
        let fs = SimFs::new();
        {
            let (mut b, mut image) = open(&fs, 64).unwrap();
            image[8..16].copy_from_slice(b"durable!");
            b.mark_dirty(8, 16);
            b.flush(&image).unwrap();
            // Written to the image but never flushed: lost with the process.
            image[0] = 0xFF;
            b.mark_dirty(0, 1);
        }
        let (_, image) = open(&fs, 64).unwrap();
        assert_eq!(&image[8..16], b"durable!");
        assert_eq!(&image[..8], &[0u8; 8]);
    }

    #[test]
    fn a_torn_flush_lands_earlier_runs_and_a_prefix() {
        let fs = SimFs::new();
        let (mut b, mut image) = open(&fs, 4 * PAGE).unwrap();
        image.fill(0xAB);
        // Two runs: page 0, and pages 2–3.
        b.mark_dirty(0, PAGE);
        b.mark_dirty(2 * PAGE, 4 * PAGE);
        fs.tear("data.0", 1, 13);
        assert_eq!(b.flush(&image), Err(NvmError::Crashed));
        let landed = |file: &[u8]| -> Vec<(usize, u8)> {
            let mut runs: Vec<(usize, u8)> = Vec::new();
            for (i, &x) in file.iter().enumerate() {
                if runs.last().is_none_or(|&(_, y)| y != x) {
                    runs.push((i, x));
                }
            }
            runs
        };
        let fs = fs.reboot();
        let torn = [(0, 0xAB), (PAGE, 0), (2 * PAGE, 0xAB), (2 * PAGE + 13, 0)];
        assert_eq!(landed(&fs.read("data.0").unwrap()), torn);
        // Every page stays dirty: the flush onto the rebooted file writes
        // both runs whole, and still never the clean page.
        b.file = fs.open("data.0", Open::Existing).unwrap();
        b.flush(&image).unwrap();
        let whole = [(0, 0xAB), (PAGE, 0), (2 * PAGE, 0xAB)];
        assert_eq!(landed(&fs.read("data.0").unwrap()), whole);
    }

    #[test]
    fn size_mismatch_rejected() {
        let fs = SimFs::new();
        fs.open("data.0", Open::Create).unwrap().write_at(&[0u8; 10], 0).unwrap();
        let mismatch = Err(NvmError::Io(io::ErrorKind::InvalidData));
        assert_eq!(open(&fs, 64).map(|_| ()), mismatch);
    }
}
