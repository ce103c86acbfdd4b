//! The file-system seam: every durable file — a device's data file, the
//! durable store's WAL, superblock and checkpoint — is opened, written,
//! synced, renamed and removed through [`Fs`] and [`FsFile`], after
//! LevelDB's `Env` and RocksDB's fault-injection file system.
//!
//! [`OsFs`] is a directory on the host: each call is the system call it
//! names, one for one. [`SimFs`] is a directory in memory that models
//! what a crash leaves behind, the crash model of ALICE (Pillai et al.,
//! OSDI 2014) and CrashMonkey (Mohan et al., OSDI 2018): each file keeps
//! its durable image — what its last sync made durable — beside the
//! writes since, and the directory keeps its entries as of its last
//! [`Fs::sync_dir`] beside the creates, renames and removes since.
//! [`Crash::Death`] keeps every written byte: the process died, the
//! operating system did not. [`Crash::PowerLoss`] drops every unsynced
//! directory change and every unsynced write, or keeps a seeded subset
//! of the unsynced 4 KiB pages.
//!
//! Each file fault is one [`SimFs`] hook, aimed at the files whose names
//! start with a prefix: a torn write ([`SimFs::tear`]), a failed sync the
//! process lives through ([`SimFs::fail_sync`]), a failed read
//! ([`SimFs::fail_read`]), a sync parked until the test lets it go
//! ([`SimFs::park_sync`]), and a power cut at a sync
//! ([`SimFs::cut_power`]). A torn write, and every call made on a handle
//! from before a crash, fails with [`NvmError::Crashed`].
//!
//! One writer at a time: [`Fs::lock`] takes the directory for its caller
//! alone until the [`DirLock`] drops (scfs's exclusive access; LevelDB's
//! `LOCK` file). [`OsFs`] locks the directory itself, so the lock leaves
//! no file behind; [`SimFs`] models one holder per directory, and a crash
//! lets go of it as the death of a process does.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{File, OpenOptions, TryLockError};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::device::NvmError;
use crate::fault::splitmix64;

/// The granule a power loss keeps or drops.
const PAGE: usize = 4096;

/// Maps an I/O failure into the device error space, keeping the kind.
fn io_err(e: io::Error) -> NvmError {
    NvmError::Io(e.kind())
}

/// How [`Fs::open`] treats an existing file, or a missing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Open {
    /// The file as it is; [`io::ErrorKind::NotFound`] when there is none.
    Existing,
    /// The file as it is, created empty when there is none.
    Create,
    /// An empty file: created, or an existing one truncated.
    Truncate,
}

/// One directory of durable files, named without a path.
pub trait Fs: fmt::Debug + Send + Sync {
    /// Opens `name` for reading and positioned writes.
    fn open(&self, name: &str, how: Open) -> Result<Arc<dyn FsFile>, NvmError>;
    /// The whole of `name`.
    fn read(&self, name: &str) -> Result<Vec<u8>, NvmError>;
    /// Renames `from` to `to`, replacing any file named `to`.
    fn rename(&self, from: &str, to: &str) -> Result<(), NvmError>;
    /// Removes `name`.
    fn remove(&self, name: &str) -> Result<(), NvmError>;
    /// The names of the directory's files.
    fn list(&self) -> Result<Vec<String>, NvmError>;
    /// Makes the directory's entries durable: the files created, renamed
    /// and removed since the last call.
    fn sync_dir(&self) -> Result<(), NvmError>;
    /// Takes the directory for the caller alone until the returned lock
    /// drops; while another holds it, fails with [`NvmError::Locked`].
    fn lock(&self) -> Result<DirLock, NvmError>;
}

/// An exclusive hold on an [`Fs`] directory, from [`Fs::lock`]; dropping
/// it lets go.
pub struct DirLock {
    _held: Box<dyn std::any::Any + Send + Sync>,
}

impl fmt::Debug for DirLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DirLock")
    }
}

/// An open file of an [`Fs`].
#[allow(clippy::len_without_is_empty)]
pub trait FsFile: fmt::Debug + Send + Sync {
    /// Writes all of `buf` at byte `at`, growing the file if it ends
    /// before `at + buf.len()`.
    fn write_at(&self, buf: &[u8], at: u64) -> Result<(), NvmError>;
    /// Fills `buf` from byte `at`; fails when the file ends first.
    fn read_at(&self, buf: &mut [u8], at: u64) -> Result<(), NvmError>;
    /// Grows (with zeros) or shrinks the file to `len` bytes.
    fn set_len(&self, len: u64) -> Result<(), NvmError>;
    /// The file's length in bytes.
    fn len(&self) -> Result<u64, NvmError>;
    /// Makes the file's data durable (`fdatasync`).
    fn sync_data(&self) -> Result<(), NvmError>;
    /// Makes the file's data and metadata durable (`fsync`).
    fn sync_all(&self) -> Result<(), NvmError>;
}

/// A directory on the host's file system.
#[derive(Debug)]
pub struct OsFs {
    dir: PathBuf,
}

impl OsFs {
    /// The directory `dir`, created with its parents when missing.
    pub fn new(dir: &Path) -> Result<Self, NvmError> {
        std::fs::create_dir_all(dir).map_err(io_err)?;
        Ok(OsFs {
            dir: dir.to_path_buf(),
        })
    }
}

impl Fs for OsFs {
    fn open(&self, name: &str, how: Open) -> Result<Arc<dyn FsFile>, NvmError> {
        let mut options = OpenOptions::new();
        options.read(true).write(true);
        match how {
            Open::Existing => &mut options,
            Open::Create => options.create(true).truncate(false),
            Open::Truncate => options.create(true).truncate(true),
        };
        let file = options.open(self.dir.join(name)).map_err(io_err)?;
        Ok(Arc::new(OsFile(file)))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, NvmError> {
        std::fs::read(self.dir.join(name)).map_err(io_err)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), NvmError> {
        std::fs::rename(self.dir.join(from), self.dir.join(to)).map_err(io_err)
    }

    fn remove(&self, name: &str) -> Result<(), NvmError> {
        std::fs::remove_file(self.dir.join(name)).map_err(io_err)
    }

    fn list(&self) -> Result<Vec<String>, NvmError> {
        let entries = std::fs::read_dir(&self.dir).map_err(io_err)?;
        let names = entries.map(|e| Ok(e.map_err(io_err)?.file_name().to_string_lossy().into()));
        names.collect()
    }

    fn sync_dir(&self) -> Result<(), NvmError> {
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err)
    }

    /// An `flock` on the directory's own descriptor: released when it
    /// closes, by a drop or by the death of the process.
    fn lock(&self) -> Result<DirLock, NvmError> {
        let dir = File::open(&self.dir).map_err(io_err)?;
        match dir.try_lock() {
            Ok(()) => Ok(DirLock { _held: Box::new(dir) }),
            Err(TryLockError::WouldBlock) => Err(NvmError::Locked {
                dir: self.dir.display().to_string(),
            }),
            Err(TryLockError::Error(e)) => Err(io_err(e)),
        }
    }
}

#[derive(Debug)]
struct OsFile(File);

impl FsFile for OsFile {
    fn write_at(&self, buf: &[u8], at: u64) -> Result<(), NvmError> {
        self.0.write_all_at(buf, at).map_err(io_err)
    }

    fn read_at(&self, buf: &mut [u8], at: u64) -> Result<(), NvmError> {
        self.0.read_exact_at(buf, at).map_err(io_err)
    }

    fn set_len(&self, len: u64) -> Result<(), NvmError> {
        self.0.set_len(len).map_err(io_err)
    }

    fn len(&self) -> Result<u64, NvmError> {
        Ok(self.0.metadata().map_err(io_err)?.len())
    }

    fn sync_data(&self) -> Result<(), NvmError> {
        self.0.sync_data().map_err(io_err)
    }

    fn sync_all(&self) -> Result<(), NvmError> {
        self.0.sync_all().map_err(io_err)
    }
}

/// What a crash of a [`SimFs`] leaves on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crash {
    /// The process dies: every written byte stays, synced or not.
    Death,
    /// The machine loses power: the directory falls back to its entries
    /// at the last [`Fs::sync_dir`], and each file to its image at its
    /// last sync. With a seed, a seeded subset of the 4 KiB pages written
    /// since that sync lands anyway.
    PowerLoss {
        /// `None` drops every unsynced page; `Some` draws the ones kept.
        seed: Option<u64>,
    },
}

/// An in-memory directory that can crash (see the [module docs](self)).
/// Cloning shares it. A crash kills every handle on it — the file system
/// and each open file — and [`SimFs::reboot`] hands out a live one.
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    state: Arc<Mutex<SimState>>,
    /// The boot this handle belongs to; a crash starts the next.
    boot: u64,
}

#[derive(Debug, Default)]
struct SimState {
    boot: u64,
    /// Every file ever created, by inode number; a name may be gone.
    files: Vec<SimInode>,
    names: BTreeMap<String, usize>,
    /// The entries as of the last `sync_dir`.
    synced_names: BTreeMap<String, usize>,
    /// Sync calls made, of files and of the directory.
    syncs: u64,
    /// The boot whose [`Fs::lock`] holds the directory; one of an earlier
    /// boot died with it.
    locked: Option<u64>,
    hooks: Hooks,
}

#[derive(Debug, Clone, Default)]
struct SimInode {
    /// What reads see.
    data: Vec<u8>,
    /// What the last sync made durable.
    synced: Vec<u8>,
    /// The pages written or resized since that sync.
    dirty: BTreeSet<usize>,
}

/// The armed faults; each fires once and is then disarmed.
#[derive(Debug, Default)]
struct Hooks {
    /// `(prefix, writes to let through, bytes the torn one keeps)`.
    tear: Option<(String, u64, usize)>,
    /// `(prefix, syncs to let through)`.
    fail_sync: Option<(String, u64)>,
    fail_read: Option<String>,
    park_sync: Option<(String, Sender<()>, Receiver<()>)>,
    /// `(syncs to let through, the power loss's seed)`.
    cut_power: Option<(u64, Option<u64>)>,
}

/// Counts a call down an armed hook: whether this call is the one it
/// fires at.
fn fires(left: &mut u64) -> bool {
    let fired = *left == 0;
    *left = left.saturating_sub(1);
    fired
}

impl SimInode {
    fn touch(&mut self, start: usize, end: usize) {
        if start < end {
            self.dirty.extend(start / PAGE..=(end - 1) / PAGE);
        }
    }

    fn write(&mut self, buf: &[u8], at: usize) {
        let end = at + buf.len();
        if self.data.len() < end {
            self.touch(self.data.len(), end);
            self.data.resize(end, 0);
        }
        self.data[at..end].copy_from_slice(buf);
        self.touch(at, end);
    }

    fn set_len(&mut self, len: usize) {
        let old = self.data.len();
        self.touch(old.min(len), old.max(len));
        self.data.resize(len, 0);
    }

    fn sync(&mut self) {
        self.synced.clone_from(&self.data);
        self.dirty.clear();
    }

    /// The image a power loss leaves: the synced one, plus the unsynced
    /// pages `seed` keeps.
    fn lose_power(&mut self, ino: usize, seed: Option<u64>) {
        let draw = |seed: u64, page: usize| {
            splitmix64(seed ^ splitmix64(ino as u64) ^ (page as u64) << 40)
        };
        let kept = |page: &&usize| seed.is_some_and(|seed| draw(seed, **page) & 1 == 1);
        let mut image = std::mem::take(&mut self.synced);
        for &page in self.dirty.iter().filter(kept) {
            let (start, end) = (page * PAGE, ((page + 1) * PAGE).min(self.data.len()));
            if start < end {
                if image.len() < end {
                    image.resize(end, 0);
                }
                image[start..end].copy_from_slice(&self.data[start..end]);
            }
        }
        self.synced.clone_from(&image);
        self.data = image;
        self.dirty.clear();
    }
}

impl SimState {
    fn crash(&mut self, how: Crash) {
        self.boot += 1;
        self.hooks = Hooks::default();
        if let Crash::PowerLoss { seed } = how {
            self.names.clone_from(&self.synced_names);
            for (ino, file) in self.files.iter_mut().enumerate() {
                file.lose_power(ino, seed);
            }
        }
    }

    fn inode(&self, name: &str) -> Result<usize, NvmError> {
        self.names
            .get(name)
            .copied()
            .ok_or(NvmError::Io(io::ErrorKind::NotFound))
    }

    /// Counts one sync call; the one a power cut is armed at cuts the
    /// power instead.
    fn sync_call(&mut self) -> Result<(), NvmError> {
        self.syncs += 1;
        if let Some((left, seed)) = &mut self.hooks.cut_power {
            if fires(left) {
                let seed = *seed;
                self.crash(Crash::PowerLoss { seed });
                return Err(NvmError::Crashed);
            }
        }
        Ok(())
    }
}

impl SimFs {
    /// An empty directory.
    pub fn new() -> Self {
        SimFs::default()
    }

    fn state(&self) -> MutexGuard<'_, SimState> {
        self.state
            .lock()
            .expect("no SimFs call panics holding the state")
    }

    /// The state, when this handle's boot is still running.
    fn live(&self) -> Result<MutexGuard<'_, SimState>, NvmError> {
        let state = self.state();
        if state.boot != self.boot {
            return Err(NvmError::Crashed);
        }
        Ok(state)
    }

    /// An independent copy of the directory as it stands — its files,
    /// synced and not, and its entries — with no hook armed.
    pub fn snapshot(&self) -> SimFs {
        let state = self.state();
        let copy = SimState {
            files: state.files.clone(),
            names: state.names.clone(),
            synced_names: state.synced_names.clone(),
            ..SimState::default()
        };
        SimFs {
            state: Arc::new(Mutex::new(copy)),
            boot: 0,
        }
    }

    /// A live handle on the directory as the last crash left it; the
    /// handles from before that crash stay dead.
    pub fn reboot(&self) -> SimFs {
        SimFs {
            state: Arc::clone(&self.state),
            boot: self.state().boot,
        }
    }

    /// Crashes the file system `how`.
    pub fn crash(&self, how: Crash) {
        self.state().crash(how);
    }

    /// Tears a write: of the writes to files whose names start with
    /// `prefix`, `k` land whole from now, then the next keeps only its
    /// first `keep` bytes and the process dies ([`Crash::Death`]).
    pub fn tear(&self, prefix: &str, k: u64, keep: usize) {
        self.state().hooks.tear = Some((prefix.into(), k, keep));
    }

    /// Fails a sync: of the syncs of files whose names start with
    /// `prefix`, `k` work from now, then the next makes nothing durable
    /// and returns an I/O error. The process lives on.
    pub fn fail_sync(&self, prefix: &str, k: u64) {
        self.state().hooks.fail_sync = Some((prefix.into(), k));
    }

    /// Fails every [`Fs::read`] of the files whose names start with
    /// `prefix` with an I/O error.
    pub fn fail_read(&self, prefix: &str) {
        self.state().hooks.fail_read = Some(prefix.into());
    }

    /// Parks the next sync of a file whose name starts with `prefix`: the
    /// first receiver hears once a caller is parked inside it, and
    /// dropping the sender lets it go on.
    pub fn park_sync(&self, prefix: &str) -> (Receiver<()>, Sender<()>) {
        let (parked_tx, parked) = mpsc::channel();
        let (release, released) = mpsc::channel();
        self.state().hooks.park_sync = Some((prefix.into(), parked_tx, released));
        (parked, release)
    }

    /// Cuts the power at a sync: of the sync calls from now — of any file,
    /// or of the directory — `k` work, then the next makes nothing durable
    /// and the file system crashes with [`Crash::PowerLoss`] of `seed`.
    pub fn cut_power(&self, k: u64, seed: Option<u64>) {
        self.state().hooks.cut_power = Some((k, seed));
    }

    /// The sync calls made so far, of files and of the directory.
    pub fn syncs(&self) -> u64 {
        self.state().syncs
    }
}

impl Fs for SimFs {
    fn open(&self, name: &str, how: Open) -> Result<Arc<dyn FsFile>, NvmError> {
        let mut state = self.live()?;
        let ino = match (state.inode(name), how) {
            (Ok(ino), Open::Truncate) => {
                state.files[ino].set_len(0);
                ino
            }
            (Ok(ino), _) => ino,
            (Err(_), Open::Create | Open::Truncate) => {
                state.files.push(SimInode::default());
                let ino = state.files.len() - 1;
                state.names.insert(name.into(), ino);
                ino
            }
            (Err(e), Open::Existing) => return Err(e),
        };
        Ok(Arc::new(SimFile {
            fs: self.clone(),
            ino,
            name: name.into(),
        }))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, NvmError> {
        let state = self.live()?;
        if state
            .hooks
            .fail_read
            .as_ref()
            .is_some_and(|p| name.starts_with(p.as_str()))
        {
            return Err(NvmError::Io(io::ErrorKind::Other));
        }
        Ok(state.files[state.inode(name)?].data.clone())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), NvmError> {
        let mut state = self.live()?;
        let ino = state.inode(from)?;
        state.names.remove(from);
        state.names.insert(to.into(), ino);
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), NvmError> {
        let mut state = self.live()?;
        state.inode(name)?;
        state.names.remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, NvmError> {
        Ok(self.live()?.names.keys().cloned().collect())
    }

    fn sync_dir(&self) -> Result<(), NvmError> {
        let mut state = self.live()?;
        state.sync_call()?;
        state.synced_names = state.names.clone();
        Ok(())
    }

    fn lock(&self) -> Result<DirLock, NvmError> {
        let mut state = self.live()?;
        if state.locked == Some(self.boot) {
            return Err(NvmError::Locked { dir: SIM_DIR.into() });
        }
        state.locked = Some(self.boot);
        Ok(DirLock { _held: Box::new(SimLock(self.clone())) })
    }
}

/// What a [`SimFs`] lock refusal names as its directory.
const SIM_DIR: &str = "<simulated directory>";

/// A [`SimFs`] lock of the boot its handle belongs to.
struct SimLock(SimFs);

impl Drop for SimLock {
    fn drop(&mut self) {
        let mut state = self.0.state();
        if state.locked == Some(self.0.boot) {
            state.locked = None;
        }
    }
}

/// An open file of a [`SimFs`], by inode: it follows its file through
/// renames. Its hooks match the name it was opened by.
#[derive(Debug)]
struct SimFile {
    fs: SimFs,
    ino: usize,
    name: String,
}

impl SimFile {
    fn sync(&self) -> Result<(), NvmError> {
        let parked = {
            let mut state = self.fs.live()?;
            match &state.hooks.park_sync {
                Some((prefix, ..)) if self.name.starts_with(prefix.as_str()) => {
                    state.hooks.park_sync.take()
                }
                _ => None,
            }
        };
        if let Some((_, parked, release)) = parked {
            let _ = parked.send(());
            let _ = release.recv();
        }
        let mut state = self.fs.live()?;
        state.sync_call()?;
        if let Some((prefix, left)) = &mut state.hooks.fail_sync {
            if self.name.starts_with(prefix.as_str()) && fires(left) {
                state.hooks.fail_sync = None;
                return Err(NvmError::Io(io::ErrorKind::Other));
            }
        }
        state.files[self.ino].sync();
        Ok(())
    }
}

impl FsFile for SimFile {
    fn write_at(&self, buf: &[u8], at: u64) -> Result<(), NvmError> {
        let mut state = self.fs.live()?;
        let mut keep = None;
        if let Some((prefix, left, bytes)) = &mut state.hooks.tear {
            if self.name.starts_with(prefix.as_str()) && fires(left) {
                keep = Some((*bytes).min(buf.len()));
                state.hooks.tear = None;
            }
        }
        state.files[self.ino].write(&buf[..keep.unwrap_or(buf.len())], at as usize);
        if keep.is_some() {
            state.crash(Crash::Death);
            return Err(NvmError::Crashed);
        }
        Ok(())
    }

    fn read_at(&self, buf: &mut [u8], at: u64) -> Result<(), NvmError> {
        let state = self.fs.live()?;
        let data = &state.files[self.ino].data;
        let at = at as usize;
        let src = data
            .get(at..at + buf.len())
            .ok_or(NvmError::Io(io::ErrorKind::UnexpectedEof))?;
        buf.copy_from_slice(src);
        Ok(())
    }

    fn set_len(&self, len: u64) -> Result<(), NvmError> {
        self.fs.live()?.files[self.ino].set_len(len as usize);
        Ok(())
    }

    fn len(&self) -> Result<u64, NvmError> {
        Ok(self.fs.live()?.files[self.ino].data.len() as u64)
    }

    fn sync_data(&self) -> Result<(), NvmError> {
        self.sync()
    }

    fn sync_all(&self) -> Result<(), NvmError> {
        self.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(fs: &SimFs, name: &str) -> Arc<dyn FsFile> {
        fs.open(name, Open::Create).unwrap()
    }

    /// A tear skips `k` writes to its prefix, lets every other file's
    /// writes through, fires once, and leaves every handle dead.
    #[test]
    fn a_tear_skips_then_fires_then_kills_every_handle() {
        let fs = SimFs::new();
        let (wal, sup) = (file(&fs, "wal.0"), file(&fs, "super"));
        fs.tear("wal.", 2, 5);
        sup.write_at(&[1; 48], 0).unwrap();
        wal.write_at(&[2; 20], 0).unwrap();
        wal.write_at(&[3; 20], 20).unwrap();
        assert_eq!(wal.write_at(&[4; 20], 40), Err(NvmError::Crashed));
        assert_eq!(wal.write_at(&[5; 20], 60), Err(NvmError::Crashed));
        assert_eq!(sup.write_at(&[6; 48], 0), Err(NvmError::Crashed));
        assert_eq!(fs.read("super"), Err(NvmError::Crashed));
        // A death keeps every written byte, the torn write's prefix too.
        let fs = fs.reboot();
        let mut want = [[2; 20], [3; 20]].concat();
        want.extend([4; 5]);
        assert_eq!(fs.read("wal.0").unwrap(), want);
        assert_eq!(fs.read("super").unwrap(), vec![1; 48]);
    }

    #[test]
    fn a_tear_keeps_at_most_the_write() {
        let fs = SimFs::new();
        fs.tear("checkpoint.", 0, 1_000_000);
        assert_eq!(
            file(&fs, "checkpoint.tmp").write_at(&[7; 64], 0),
            Err(NvmError::Crashed)
        );
        assert_eq!(fs.reboot().read("checkpoint.tmp").unwrap(), vec![7; 64]);
    }

    /// A power loss drops what no sync made durable: unsynced writes, and
    /// entries no `sync_dir` covered — a rename falls back to the file
    /// the name held before.
    #[test]
    fn a_power_loss_keeps_only_what_was_synced() {
        let fs = SimFs::new();
        let old = file(&fs, "wal.0");
        old.write_at(b"old", 0).unwrap();
        old.sync_data().unwrap();
        fs.sync_dir().unwrap();
        let new = file(&fs, "wal.0.tmp");
        new.write_at(b"new", 0).unwrap();
        new.sync_all().unwrap();
        fs.rename("wal.0.tmp", "wal.0").unwrap();
        let lone = file(&fs, "lone");
        lone.write_at(b"never synced", 0).unwrap();
        old.write_at(b"OLD", 0).unwrap();
        assert_eq!(fs.read("wal.0").unwrap(), b"new");
        fs.crash(Crash::PowerLoss { seed: None });
        let fs = fs.reboot();
        assert_eq!(fs.list().unwrap(), ["wal.0"]);
        assert_eq!(fs.read("wal.0").unwrap(), b"old");
    }

    /// A seeded power loss keeps some unsynced pages whole and drops the
    /// others whole, the same ones for the same seed.
    #[test]
    fn a_seeded_power_loss_keeps_a_subset_of_pages() {
        let lost = |seed| {
            let fs = SimFs::new();
            let f = file(&fs, "data.0");
            f.write_at(&vec![1; 16 * PAGE], 0).unwrap();
            f.sync_all().unwrap();
            fs.sync_dir().unwrap();
            f.write_at(&vec![2; 16 * PAGE], 0).unwrap();
            fs.crash(Crash::PowerLoss { seed: Some(seed) });
            fs.reboot().read("data.0").unwrap()
        };
        let image = lost(3);
        let kept: Vec<bool> = image.chunks(PAGE).map(|p| p[0] == 2).collect();
        for (page, &k) in image.chunks(PAGE).zip(&kept) {
            assert!(page.iter().all(|&b| b == if k { 2 } else { 1 }));
        }
        assert!(kept.contains(&true) && kept.contains(&false), "{kept:?}");
        assert_eq!(lost(3), image);
    }

    /// A failed sync makes nothing durable and reports an I/O error; the
    /// file system lives on, and the next sync works.
    #[test]
    fn a_failed_sync_leaves_the_write_unsynced() {
        let fs = SimFs::new();
        let f = file(&fs, "super");
        fs.sync_dir().unwrap();
        fs.fail_sync("super", 1);
        f.write_at(b"a", 0).unwrap();
        f.sync_all().unwrap();
        f.write_at(b"b", 0).unwrap();
        assert_eq!(f.sync_all(), Err(NvmError::Io(io::ErrorKind::Other)));
        assert_eq!(fs.read("super").unwrap(), b"b");
        let snapshot = fs.snapshot();
        f.sync_all().unwrap();
        fs.crash(Crash::PowerLoss { seed: None });
        assert_eq!(fs.reboot().read("super").unwrap(), b"b");
        snapshot.crash(Crash::PowerLoss { seed: None });
        assert_eq!(snapshot.reboot().read("super").unwrap(), b"a");
    }

    /// A power cut counts every sync call, the directory's too.
    #[test]
    fn a_power_cut_fires_at_the_kth_sync() {
        let fs = SimFs::new();
        let f = file(&fs, "wal.0");
        fs.cut_power(2, None);
        f.sync_data().unwrap();
        fs.sync_dir().unwrap();
        f.write_at(b"x", 0).unwrap();
        assert_eq!(f.sync_data(), Err(NvmError::Crashed));
        assert_eq!(fs.syncs(), 3);
        let fs = fs.reboot();
        assert_eq!(fs.read("wal.0").unwrap(), b"");
    }

    #[test]
    fn a_parked_sync_waits_for_its_release() {
        let fs = SimFs::new();
        let f = file(&fs, "wal.0");
        let (parked, release) = fs.park_sync("wal.");
        let syncing = std::thread::spawn(move || f.sync_data());
        parked.recv().unwrap();
        drop(release);
        syncing.join().unwrap().unwrap();
    }

    #[test]
    fn a_simulated_directory_has_one_lock_holder_until_a_drop_or_a_crash() {
        let fs = SimFs::new();
        let held = fs.lock().unwrap();
        let locked = NvmError::Locked { dir: SIM_DIR.into() };
        assert_eq!(fs.lock().map(drop), Err(locked.clone()));
        drop(held);
        let dead = fs.lock().expect("a drop lets go of the lock");
        fs.crash(Crash::Death);
        let fs = fs.reboot();
        let live = fs.lock().expect("a crash lets go of the lock");
        drop(dead);
        assert_eq!(fs.lock().map(drop), Err(locked), "a dead boot's lock frees no other");
        drop(live);
        fs.lock().unwrap();
    }

    #[test]
    fn a_host_directory_has_one_lock_holder_until_a_drop() {
        let dir = std::env::temp_dir().join(format!("pnw_fs_lock_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (fs, other) = (OsFs::new(&dir).unwrap(), OsFs::new(&dir).unwrap());
        let held = fs.lock().unwrap();
        let locked = NvmError::Locked { dir: dir.display().to_string() };
        assert_eq!(other.lock().map(drop), Err(locked));
        drop(held);
        other.lock().expect("a drop lets go of the lock");
        assert_eq!(fs.list().unwrap(), Vec::<String>::new(), "the lock leaves no file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_files_are_not_found() {
        let fs = SimFs::new();
        let not_found = Err(NvmError::Io(io::ErrorKind::NotFound));
        assert_eq!(fs.read("super").map(|_| ()), not_found);
        assert_eq!(fs.open("wal.0", Open::Existing).map(|_| ()), not_found);
        assert_eq!(fs.rename("a", "b"), not_found);
        assert_eq!(fs.remove("a"), not_found);
        fs.fail_read("wal.");
        file(&fs, "wal.0");
        assert_eq!(fs.read("wal.0"), Err(NvmError::Io(io::ErrorKind::Other)));
    }
}
