//! The device-backing seam: where the emulated NVM array's bytes live.
//!
//! [`DeviceBacking::Volatile`] is the historical device — a DRAM `Vec`
//! that vanishes with the process, which is exactly right for figure
//! harnesses and unit tests. [`DeviceBacking::File`] gives the same
//! device a durable life, write-back: the in-DRAM image stays the read
//! and write path (peeks, diffs and writes never touch the filesystem),
//! every write that changes a cell marks its 4 KiB pages in a dirty
//! bitmap, and [`FileBacking::flush`] writes the dirty pages back and
//! syncs the file. Between flushes the file holds the image as of the
//! last one: a process death or a power loss loses every later write,
//! and whoever owns the device must be able to redo them (the durable
//! store flushes at checkpoint, before the superblock names the new
//! epoch, and its WAL redoes the rest). A torn write tears the image,
//! and reaches the file only if the image is flushed afterwards. A flush
//! itself can tear (a [`MetaTarget::Data`] tear armed on the device's
//! fault state): its earlier runs land, the torn one lands a prefix, and
//! the rest never do.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::device::NvmError;
use crate::fault::{FaultState, MetaTarget};

/// The granule the dirty bitmap tracks and a flush writes back.
const PAGE: usize = 4096;

/// Where a device's cell array is backed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum DeviceBacking {
    /// DRAM only — today's behavior, nothing survives the process.
    #[default]
    Volatile,
    /// Write-back to a file at this path: after each flush the file holds
    /// the cell array, byte for byte.
    File(PathBuf),
}

/// An open write-back backing file and its dirty-page bitmap. Cloning
/// shares the file handle and copies the bitmap.
#[derive(Debug, Clone)]
pub struct FileBacking {
    file: Arc<File>,
    /// One bit per [`PAGE`] of the device written since the last flush.
    dirty: Vec<u64>,
}

/// Maps an I/O failure into the device error space, keeping the kind.
pub(crate) fn io_err(e: io::Error) -> NvmError {
    NvmError::Io(e.kind())
}

impl FileBacking {
    /// Opens (or creates) the backing file for a device of `size` bytes
    /// and returns the handle plus the initial cell image:
    ///
    /// * a missing or empty file is sized to `size` and reads as zeroed
    ///   cells (freshly manufactured PCM);
    /// * a file of exactly `size` bytes is loaded as the persisted image;
    /// * any other length is a geometry mismatch and is rejected.
    pub fn open(path: &Path, size: usize) -> Result<(Self, Vec<u8>), NvmError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        let image = if len == 0 {
            file.set_len(size as u64).map_err(io_err)?;
            vec![0u8; size]
        } else if len == size as u64 {
            let mut image = vec![0u8; size];
            file.read_exact_at(&mut image, 0).map_err(io_err)?;
            image
        } else {
            return Err(NvmError::Io(io::ErrorKind::InvalidData));
        };
        let dirty = vec![0u64; size.div_ceil(PAGE).div_ceil(64)];
        Ok((
            FileBacking {
                file: Arc::new(file),
                dirty,
            },
            image,
        ))
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
    /// one positioned write per run of adjacent dirty pages, each passed
    /// through `fault`'s [`MetaTarget::Data`] filter, then syncs the file.
    /// The bitmap is cleared only once the sync returns, so a failed flush
    /// leaves every page it covered dirty. A torn run persists its prefix,
    /// syncs, and fails with [`NvmError::Crashed`].
    pub fn flush(&mut self, image: &[u8], fault: &mut FaultState) -> Result<(), NvmError> {
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
            let torn = fault.filter_meta_write(MetaTarget::Data, end - start)?;
            let keep = torn.unwrap_or(end - start);
            self.write_range(start, &image[start..start + keep])?;
            if torn.is_some() {
                self.file.sync_all().map_err(io_err)?;
                return Err(NvmError::Crashed);
            }
        }
        self.file.sync_all().map_err(io_err)?;
        self.dirty.fill(0);
        Ok(())
    }

    /// Writes `bytes` at absolute device offset `addr`.
    fn write_range(&self, addr: usize, bytes: &[u8]) -> Result<(), NvmError> {
        self.file.write_all_at(bytes, addr as u64).map_err(io_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::MetaTear;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pnw_backing_{}_{name}", std::process::id()))
    }

    #[test]
    fn fresh_file_is_zeroed_and_sized() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let (mut b, image) = FileBacking::open(&path, 128).unwrap();
        assert_eq!(image, vec![0u8; 128]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 128);
        b.flush(&image, &mut FaultState::new(Default::default())).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_returns_persisted_bytes() {
        let path = tmp("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let (mut b, mut image) = FileBacking::open(&path, 64).unwrap();
            image[8..16].copy_from_slice(b"durable!");
            b.mark_dirty(8, 16);
            b.flush(&image, &mut FaultState::new(Default::default())).unwrap();
            // Written to the image but never flushed: lost with the process.
            image[0] = 0xFF;
            b.mark_dirty(0, 1);
        }
        let (_, image) = FileBacking::open(&path, 64).unwrap();
        assert_eq!(&image[8..16], b"durable!");
        assert_eq!(&image[..8], &[0u8; 8]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_flush_lands_earlier_runs_and_a_prefix() {
        let path = tmp("torn_flush");
        let _ = std::fs::remove_file(&path);
        let (mut b, mut image) = FileBacking::open(&path, 4 * PAGE).unwrap();
        image.fill(0xAB);
        // Two runs: page 0, and pages 2–3.
        b.mark_dirty(0, PAGE);
        b.mark_dirty(2 * PAGE, 4 * PAGE);
        let mut fault = FaultState::new(Default::default());
        fault.arm_meta_tear(MetaTear { target: MetaTarget::Data, skip: 1, keep_bytes: 13 });
        assert_eq!(b.flush(&image, &mut fault), Err(NvmError::Crashed));
        assert!(fault.is_crashed());
        let landed = |file: &[u8]| -> Vec<(usize, u8)> {
            let mut runs: Vec<(usize, u8)> = Vec::new();
            for (i, &x) in file.iter().enumerate() {
                if runs.last().is_none_or(|&(_, y)| y != x) {
                    runs.push((i, x));
                }
            }
            runs
        };
        let torn = [(0, 0xAB), (PAGE, 0), (2 * PAGE, 0xAB), (2 * PAGE + 13, 0)];
        assert_eq!(landed(&std::fs::read(&path).unwrap()), torn);
        // Every page stays dirty: the flush after a recovery writes both
        // runs whole, and still never the clean page.
        fault.recover();
        b.flush(&image, &mut fault).unwrap();
        let whole = [(0, 0xAB), (PAGE, 0), (2 * PAGE, 0xAB)];
        assert_eq!(landed(&std::fs::read(&path).unwrap()), whole);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn size_mismatch_rejected() {
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, [0u8; 10]).unwrap();
        assert!(matches!(
            FileBacking::open(&path, 64),
            Err(NvmError::Io(io::ErrorKind::InvalidData))
        ));
        let _ = std::fs::remove_file(&path);
    }
}
