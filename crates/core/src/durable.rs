//! The durable metadata layer under file-backed stores: one file header,
//! superblock, WAL, checkpoint, data files.
//!
//! A file-backed store's device is write-back (`pnw-nvm-sim`'s
//! [`pnw_nvm_sim::DeviceBacking`]): its data file is written only at a
//! checkpoint, so between checkpoints the file holds the last checkpoint's
//! cells and every later change lives in DRAM and in the WAL. The WAL is
//! therefore a redo log (ARIES, Mohan et al., TODS 1992): every PUT record
//! carries its value, and on a TTL store its deadline, and recovery
//! rewrites each committed value onto the device before it reconciles the
//! data zone with the committed map. A lost page cache loses no
//! acknowledged PUT: its record was `fdatasync`ed before the ack, and the
//! data file is only ever written ahead of the superblock that names it.
//!
//! Every file opens with one [`HEADER`]-byte header, encoded and checked
//! only here: its kind's magic, the one [`FORMAT_VERSION`], the store id
//! chosen at create, the shard, an epoch and the geometry hash, under one
//! CRC. `open` takes the store id from the elected superblock and refuses,
//! with [`StoreError::Corrupt`] naming the file and the field, a WAL, data
//! file or checkpoint that is missing, headerless, not this store's or
//! shard's, or of an epoch past the superblock's. The files:
//!
//! * **superblock** (`super`) — two 64-byte slots, each the header alone,
//!   naming the store's one epoch: the checkpoint recovery starts from.
//!   Writers alternate slots by epoch parity, so a torn write can only
//!   corrupt the slot being written; the store's first is renamed in.
//! * **write-ahead log** (`wal.<shard>`) — the header, naming the epoch the
//!   log belongs to, then CRC-framed records, one per acknowledged
//!   mutation (PUT, DELETE, zone extension, retirement): `[len u32 | crc
//!   u32 | payload | end mark]`. A record is written with one positioned
//!   write at the cursor and synced *before* the operation returns — a
//!   PUT's after its new bucket image lands in DRAM — so the records over
//!   the checkpoint are exactly the acknowledged-but-not-yet-checkpointed
//!   ops. The file grows a page at a time: a record that crosses the
//!   file's end carries zeros up to the next 4 KiB boundary in the same
//!   write, so only one that crosses a page boundary changes the file's
//!   size (and makes its `fdatasync` commit the file system's journal;
//!   Pillai et al., OSDI 2014). Every byte past the cursor is zero and
//!   every frame ends in a nonzero end mark, so a frame torn at any byte
//!   never checks out. Replay stops at the first torn or invalid frame —
//!   everything after it was never acknowledged — and the cursor starts
//!   there. A record whose write or sync fails is zeroed again. A
//!   checkpoint replaces each WAL with an empty one of the new epoch; a WAL
//!   of an older epoch is skipped.
//! * **checkpoint** (`checkpoint.<epoch>`) — the header, then each shard's
//!   committed key→address map, [`DeviceStats`], active-zone size and
//!   retired-bucket list, CRC-trailed. Written to `checkpoint.tmp`,
//!   fsynced, renamed, the directory fsynced, and only then published by
//!   bumping the superblock epoch, so a crash at any byte of the protocol
//!   falls back to the previous epoch plus its WALs.
//! * **data** (`data.<shard>`) — the header in a first page the device
//!   never writes, then its cells and per-word wear counters, written back
//!   a dirty page at a time by each checkpoint ahead of its superblock.
//!
//! A fresh store truncates what a dead create left and writes and syncs
//! its data files; its first checkpoint writes each WAL once, of epoch 1,
//! beside the checkpoint, and only then the first superblock: a create
//! that dies anywhere reopens as a fresh directory.
//!
//! Every file goes through the [`Fs`] seam: the host's directory in a
//! running store, a simulated one ([`pnw_nvm_sim::SimFs`]) that tears
//! writes, fails syncs and loses power in the recovery tests. The store
//! holds the directory's lock ([`Fs::lock`]) from before it reads the
//! superblock to its drop: a second store on a live directory is refused
//! with [`NvmError::Locked`], where it would otherwise checkpoint over
//! the first one's WALs.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pnw_nvm_sim::{crc32, DeviceStats, DirLock, Fs, FsFile, NvmError, Open};

use crate::config::{IndexPlacement, PnwConfig};
use crate::error::StoreError;

/// The format every file of a store directory is written in. A format
/// change bumps it and adds a `tests/fixtures/store-v<N>/` image.
const FORMAT_VERSION: u32 = 4;
/// Each file kind's magic, the first 8 bytes of its header.
const SUPER: &[u8; 8] = b"PNWSUPR1";
const WAL: &[u8; 8] = b"PNWWALOG";
const DATA: &[u8; 8] = b"PNWDATA1";
const CHECKPOINT: &[u8; 8] = b"PNWCKPT1";
/// `magic | version u32 | shard u32 | store u64 | epoch u64 | geometry
/// u64 | crc u32 | pad u32`, the CRC over the 40 bytes before it.
const HEADER: usize = 48;
/// The shard a store-wide file (superblock, checkpoint) names.
const WHOLE_STORE: usize = u32::MAX as usize;
/// Each superblock replica owns a 64-byte slot.
const SLOT_BYTES: u64 = 64;
/// The WAL is created, and grows, a page at a time; a data file's header
/// fills its first page.
const PAGE: u64 = 4096;
/// `[len u32 | crc u32]` ahead of every WAL payload.
const WAL_FRAME_HDR: usize = 8;
/// The byte every frame ends in. Nonzero: the zeros past the cursor can
/// never complete a torn frame.
const WAL_END_MARK: u8 = 0xA5;
/// What a frame adds to its payload: its header and its end mark.
const WAL_FRAME_OVERHEAD: usize = WAL_FRAME_HDR + 1;
/// Fixed prefix of a [`REC_PUT`] payload: `tag | key u64 | addr u64`.
const PUT_PREFIX: usize = 17;

/// A PUT: `tag | key u64 | addr u64 | value[value_size]`, then on a TTL
/// store `| deadline u64` — all recovery needs to redo it.
const REC_PUT: u8 = 1;
const REC_DELETE: u8 = 2;
const REC_EXTEND: u8 = 3;
/// A bucket permanently retired from placement (stuck media). 5 bytes:
/// `tag | bucket u32`.
const REC_RETIRE: u8 = 4;

/// The header every durable file opens with, after its kind's magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    version: u32,
    shard: u32,
    store: u64,
    epoch: u64,
    geometry: u64,
}

impl Header {
    fn encode(&self, magic: &[u8; 8]) -> [u8; HEADER] {
        let mut b = [0u8; HEADER];
        b[..8].copy_from_slice(magic);
        b[8..12].copy_from_slice(&self.version.to_le_bytes());
        b[12..16].copy_from_slice(&self.shard.to_le_bytes());
        for (at, v) in [(16, self.store), (24, self.epoch), (32, self.geometry)] {
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&b[..40]);
        b[40..44].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// The header `bytes` open with, when it is whole and of the kind
    /// `magic` names; of any version, which the caller refuses by name.
    /// (Format 3's superblock record has this layout's magic, version and
    /// CRC offsets, so it is refused by its version, not as torn.)
    fn parse(bytes: &[u8], magic: &[u8; 8]) -> Option<Header> {
        let b = bytes.get(..HEADER).filter(|b| &b[..8] == magic)?;
        let u32_at = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        (crc32(&b[..40]) == u32_at(40)).then(|| Header {
            version: u32_at(8),
            shard: u32_at(12),
            store: u64_at(16),
            epoch: u64_at(24),
            geometry: u64_at(32),
        })
    }
}

fn crashed() -> StoreError {
    StoreError::Nvm(NvmError::Crashed)
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// A file `open` needs: missing, it is refused by name.
fn missing(name: &str) -> impl FnOnce(NvmError) -> StoreError + '_ {
    move |e| match e {
        NvmError::Io(ErrorKind::NotFound) => corrupt(format!("{name} is missing")),
        e => e.into(),
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes the geometry-determining config fields. A store directory
/// written under one geometry must not be opened under another: the data
/// files would parse but every address would be wrong. The hash covers
/// exactly the fields that fix bucket addresses and file sizes.
pub(crate) fn geometry_hash(cfg: &PnwConfig, n_shards: usize) -> u64 {
    let mut h = 0xD6E8_FEB8_6659_FD93u64;
    for v in [
        cfg.capacity as u64,
        cfg.value_size as u64,
        cfg.reserve_buckets as u64,
        n_shards as u64,
        match cfg.index {
            IndexPlacement::Dram => 0,
            IndexPlacement::Nvm => 1,
        },
        // The expiry zone changes the device size and every region
        // offset after it, so TTL-on and TTL-off directories are
        // mutually unreadable.
        u64::from(cfg.ttl_enabled),
    ] {
        h = splitmix(h ^ v);
    }
    h
}

/// What a PUT record carries on a store: its value size, and whether a
/// deadline follows the value (a TTL store). Both are fixed by the
/// geometry, so every PUT payload of a store has one length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PutShape {
    pub value_size: usize,
    pub ttl: bool,
}

impl PutShape {
    /// The PUT payload length — also the largest payload of any record.
    fn payload_len(self) -> usize {
        PUT_PREFIX + self.value_size + 8 * usize::from(self.ttl)
    }

    /// The PUT record in `payload`, when it is one of this shape.
    fn parse(self, payload: &[u8]) -> Option<PutRecord<'_>> {
        if payload.len() != self.payload_len() || payload[0] != REC_PUT {
            return None;
        }
        let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        let value_end = PUT_PREFIX + self.value_size;
        Some(PutRecord {
            key: u64_at(1),
            addr: u64_at(9),
            value: &payload[PUT_PREFIX..value_end],
            deadline: if self.ttl { u64_at(value_end) } else { 0 },
        })
    }
}

/// One committed PUT, as its WAL record states it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PutRecord<'a> {
    pub key: u64,
    pub addr: u64,
    pub value: &'a [u8],
    /// Absolute unix-ms deadline (0: none, or not a TTL store).
    pub deadline: u64,
}

/// One shard's contribution to a checkpoint: everything recovery needs
/// that the data file alone cannot prove.
#[derive(Debug, Clone)]
pub(crate) struct ShardCheckpoint {
    /// Buckets in the active data zone at the cut.
    pub active: u64,
    /// Committed `(key, device address)` pairs at the cut.
    pub entries: Vec<(u64, u64)>,
    /// Device counters at the cut (persisted so traffic metrics survive
    /// restarts; the per-word wear is in the data file).
    pub stats: DeviceStats,
    /// Buckets permanently retired from placement at the cut (sorted).
    /// Retirement must survive reopen: a retired bucket's media is stuck
    /// and must never re-enter the pool.
    pub retired: Vec<u32>,
}

impl ShardCheckpoint {
    /// The checkpoint a freshly-initialized shard starts from: nothing
    /// committed, `active` buckets live, zeroed counters.
    pub fn fresh(active: u64) -> Self {
        ShardCheckpoint {
            active,
            entries: Vec::new(),
            stats: DeviceStats::default(),
            retired: Vec::new(),
        }
    }
}

/// One shard's recovered state: the checkpoint image with the WAL suffix
/// replayed over it.
#[derive(Debug, Clone)]
pub(crate) struct RecoveredShard {
    /// The committed key→address map after replay. Every key in here was
    /// acknowledged; no key outside it was.
    pub committed: HashMap<u64, u64>,
    /// Active-zone size after replay.
    pub active: u64,
    /// Device counters as of the checkpoint cut.
    pub stats: DeviceStats,
    /// Buckets permanently retired from placement (checkpoint list plus
    /// any [`REC_RETIRE`] records in the WAL suffix).
    pub retired: Vec<u32>,
    /// Where the PUT record that committed each key since the checkpoint
    /// sits in the WAL — the redo set ([`RecoveredShard::redo`]) and, on
    /// a store that verifies CRCs, the seed of the shard's value mirror
    /// ([`DurableShard::keep_values`]), so repair capability survives a
    /// reopen.
    pub values: HashMap<u64, WalSpan>,
    /// Where the next record goes: the end of the last valid frame.
    pub wal_end: u64,
    /// The WAL's bytes as read at open (empty when it was skipped).
    wal: Vec<u8>,
    shape: PutShape,
}

impl RecoveredShard {
    fn from_checkpoint(s: ShardCheckpoint, shape: PutShape) -> Self {
        RecoveredShard {
            committed: s.entries.into_iter().collect(),
            active: s.active,
            stats: s.stats,
            retired: s.retired,
            values: HashMap::new(),
            wal_end: HEADER as u64,
            wal: Vec::new(),
            shape,
        }
    }

    /// The redo set: every key a WAL PUT record committed, with the
    /// address, value and deadline that record gave it.
    pub fn redo(&self) -> impl Iterator<Item = PutRecord<'_>> {
        self.values.values().map(|&(at, len)| {
            let frame = &self.wal[at as usize..at as usize + len as usize];
            let payload = &frame[WAL_FRAME_HDR..frame.len() - 1];
            self.shape.parse(payload).expect("replay kept only whole PUT records")
        })
    }
}

/// Where one PUT record sits in its shard's WAL file: the frame's byte
/// offset and its length, header and end mark included.
pub(crate) type WalSpan = (u64, u32);

/// A shard's handle on its WAL, opened readable too, plus the store-wide
/// fence. Writing a record at the cursor is the *commit point* of every
/// durable mutation.
#[derive(Debug)]
pub(crate) struct DurableShard {
    wal: Arc<dyn FsFile>,
    /// Where the next frame lands: the end of the last frame written or
    /// replayed. Every byte from here to the file's end is zero.
    cursor: u64,
    /// The file's length, a multiple of [`PAGE`].
    len: u64,
    /// The frame being written, reused so a record allocates nothing.
    frame: Vec<u8>,
    /// Set once a checkpoint failed at or after its superblock write: no
    /// record may land after it (see [`DurableStore::checkpoint`]). The
    /// checkpoint sets it holding every shard's engine lock, which orders
    /// it before this appender's next record; `Relaxed` suffices.
    fenced: Arc<AtomicBool>,
    /// Group-commit mode: appends write their frame but defer the fsync
    /// to [`DurableShard::end_group`], coalescing a whole batch group
    /// into one `sync_data` per shard.
    defer_sync: bool,
    /// Whether frames were appended since the last fsync.
    dirty: bool,
    shape: PutShape,
    /// The value mirror: where each key's PUT record sits in the WAL —
    /// what the scrubber repairs corrupt buckets from, read back from the
    /// file. Kept only once [`DurableShard::keep_values`] asks for it
    /// (a store that verifies CRCs); starts empty when a checkpoint
    /// replaces the WAL.
    values: Option<HashMap<u64, WalSpan>>,
}

impl DurableShard {
    /// Enters group-commit mode: subsequent appends write their frames
    /// immediately but defer the fsync to [`DurableShard::end_group`].
    /// Nothing appended inside the group is acknowledged until the group
    /// ends — callers must not return success to their client in between.
    pub fn begin_group(&mut self) {
        self.defer_sync = true;
    }

    /// Leaves group-commit mode and fsyncs everything appended since the
    /// last sync — the commit point of the whole group (one `sync_data`
    /// per shard group instead of one per record). A failed sync leaves
    /// the group's records in the file: the group's ops were applied in
    /// memory, and a later sync commits them with whatever follows.
    pub fn end_group(&mut self) -> Result<(), StoreError> {
        self.defer_sync = false;
        if std::mem::take(&mut self.dirty) {
            self.sync()?;
        }
        Ok(())
    }

    /// Commits a PUT/UPDATE of `key` at device address `addr`: the value
    /// bytes, and on a TTL store the deadline (`deadline` is ignored on
    /// any other), are what recovery redoes onto the device and what the
    /// scrubber repairs a later media corruption from.
    pub fn log_put(
        &mut self,
        key: u64,
        addr: u64,
        value: &[u8],
        deadline: u64,
    ) -> Result<(), StoreError> {
        debug_assert_eq!(value.len(), self.shape.value_size);
        let (key, addr, deadline) = (key.to_le_bytes(), addr.to_le_bytes(), deadline.to_le_bytes());
        let deadline: &[u8] = if self.shape.ttl { &deadline } else { &[] };
        let span = self.append(&[&[REC_PUT], &key, &addr, value, deadline])?;
        if let Some(values) = &mut self.values {
            values.insert(u64::from_le_bytes(key), span);
        }
        Ok(())
    }

    /// Commits a bucket retirement: `bucket` must never re-enter
    /// placement, across crashes and reopens.
    pub fn log_retire(&mut self, bucket: u32) -> Result<(), StoreError> {
        self.append(&[&[REC_RETIRE], &bucket.to_le_bytes()])?;
        Ok(())
    }

    /// The clean durable copy of `key`'s committed value, read back from
    /// the WAL when it still holds the record. The frame is checked again
    /// on the way out — length, CRC, end mark, kind and key — so a read
    /// that fails, or a span no longer naming this key's record, means no
    /// clean copy, never a wrong one.
    pub fn wal_value(&self, key: u64) -> Option<Vec<u8>> {
        let &(offset, len) = self.values.as_ref()?.get(&key)?;
        let mut frame = vec![0u8; len as usize];
        self.wal.read_at(&mut frame, offset).ok()?;
        let payload = frame_payload(&frame, 0, self.shape.payload_len())?;
        let put = self.shape.parse(payload).filter(|put| put.key == key)?;
        Some(put.value.to_vec())
    }

    /// Starts keeping the value mirror, seeded with `values`: a recovery
    /// replay's (the WAL was not replaced, so its PUT records are still
    /// repair-capable), or none on a WAL a checkpoint just replaced.
    pub fn keep_values(&mut self, values: HashMap<u64, WalSpan>) {
        self.values = Some(values);
    }

    /// Commits a DELETE of `key`.
    pub fn log_delete(&mut self, key: u64) -> Result<(), StoreError> {
        self.append(&[&[REC_DELETE], &key.to_le_bytes()])?;
        if let Some(values) = &mut self.values {
            values.remove(&key);
        }
        Ok(())
    }

    /// Commits a zone extension to `active` buckets.
    pub fn log_extend(&mut self, active: u64) -> Result<(), StoreError> {
        self.append(&[&[REC_EXTEND], &active.to_le_bytes()])?;
        Ok(())
    }

    /// Writes one record, its payload the concatenation of `parts`, at the
    /// cursor and fsyncs it (outside a group); returns where the frame
    /// landed. A record whose write or sync fails is zeroed again, so a
    /// later sync can never commit an op that was reported failed; the
    /// caller must not acknowledge the operation. On a fenced store no
    /// record is written, and the append fails with `Crashed`.
    fn append(&mut self, parts: &[&[u8]]) -> Result<WalSpan, StoreError> {
        let mut frame = std::mem::take(&mut self.frame);
        encode_frame(&mut frame, parts);
        debug_assert!(frame.len() - WAL_FRAME_OVERHEAD <= self.shape.payload_len());
        let written = self.write_frame(&mut frame);
        self.frame = frame;
        written
    }

    /// Writes `frame` at the cursor with one positioned write. A frame
    /// that crosses the file's end takes the zeros up to the next page
    /// boundary along, so the file's size changes once a page, not once a
    /// record.
    fn write_frame(&mut self, frame: &mut Vec<u8>) -> Result<WalSpan, StoreError> {
        if self.fenced.load(Ordering::Relaxed) {
            return Err(crashed());
        }
        let (at, n) = (self.cursor, frame.len());
        let end = at + n as u64;
        let grown = (end > self.len).then(|| end.next_multiple_of(PAGE));
        frame.resize(grown.map_or(n, |len| (len - at) as usize), 0);
        let mut written = self.wal.write_at(frame, at).map_err(StoreError::from);
        frame.truncate(n);
        if written.is_ok() {
            self.len = grown.unwrap_or(self.len);
            if !self.defer_sync {
                written = self.sync();
            }
        }
        if let Err(e) = written {
            let _ = self.wal.write_at(&vec![0; n], at);
            return Err(e);
        }
        self.dirty |= self.defer_sync;
        self.cursor = end;
        Ok((at, n as u32))
    }

    /// `fdatasync`s the WAL — where a durable op waits for the disk.
    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(self.wal.sync_data()?)
    }
}

/// Shard `sid`'s WAL file.
fn wal_name(sid: usize) -> String {
    format!("wal.{sid}")
}

/// Fills `frame` with one record: `[len u32 | crc u32 | payload | end
/// mark]`, the payload the concatenation of `parts`.
fn encode_frame(frame: &mut Vec<u8>, parts: &[&[u8]]) {
    frame.clear();
    frame.extend_from_slice(&[0; WAL_FRAME_HDR]);
    for part in parts {
        frame.extend_from_slice(part);
    }
    let payload_len = frame.len() - WAL_FRAME_HDR;
    let crc = crc32(&frame[WAL_FRAME_HDR..]);
    frame[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    frame[4..WAL_FRAME_HDR].copy_from_slice(&crc.to_le_bytes());
    frame.push(WAL_END_MARK);
}

/// The payload of the frame starting at `pos` in `bytes`, when a whole,
/// CRC-valid frame of at most `max_payload` payload bytes, end mark
/// included, starts there.
fn frame_payload(bytes: &[u8], pos: usize, max_payload: usize) -> Option<&[u8]> {
    let hdr = bytes.get(pos..pos + WAL_FRAME_HDR)?;
    let len = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
    if len == 0 || len > max_payload {
        return None;
    }
    let crc = u32::from_le_bytes(hdr[4..].try_into().unwrap());
    let at = pos + WAL_FRAME_HDR;
    let payload = bytes.get(at..at + len)?;
    let ended = bytes.get(at + len) == Some(&WAL_END_MARK);
    (ended && crc32(payload) == crc).then_some(payload)
}

/// Replays a WAL's frames over a recovered shard; returns where the
/// replay stopped, the cursor for the next record. Stops at the first
/// frame that is short, oversized, CRC-invalid, unterminated or of unknown
/// kind — by the write protocol, everything at and after such a frame was
/// never acknowledged.
fn replay_wal(bytes: &[u8], shard: &mut RecoveredShard) -> u64 {
    let shape = shard.shape;
    let mut pos = HEADER;
    while let Some(payload) = frame_payload(bytes, pos, shape.payload_len()) {
        let frame_len = WAL_FRAME_OVERHEAD + payload.len();
        let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        match (payload[0], payload.len()) {
            (REC_PUT, _) => {
                let Some(put) = shape.parse(payload) else { break };
                shard.committed.insert(put.key, put.addr);
                shard.values.insert(put.key, (pos as u64, frame_len as u32));
            }
            (REC_DELETE, 9) => {
                shard.committed.remove(&u64_at(1));
                shard.values.remove(&u64_at(1));
            }
            (REC_RETIRE, 5) => {
                let bucket = u32::from_le_bytes(payload[1..5].try_into().unwrap());
                if !shard.retired.contains(&bucket) {
                    shard.retired.push(bucket);
                }
            }
            (REC_EXTEND, 9) => {
                // `max`: replay over a checkpoint that already includes the
                // extension must not shrink the zone.
                shard.active = shard.active.max(u64_at(1));
            }
            _ => break,
        }
        pos += frame_len;
    }
    pos as u64
}

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.b.len() {
            return Err(corrupt("checkpoint truncated"));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// A checkpoint file: `header`, then each shard's state, then a CRC over
/// everything before it.
fn encode_checkpoint(header: [u8; HEADER], shards: &[ShardCheckpoint]) -> Vec<u8> {
    let mut b = header.to_vec();
    for s in shards {
        b.extend_from_slice(&s.active.to_le_bytes());
        let t = &s.stats.totals;
        for v in [
            t.bit_flips,
            t.aux_bit_flips,
            t.bits_addressed,
            t.words_written,
            t.lines_written,
            t.lines_read,
            s.stats.write_ops,
            s.stats.read_ops,
            s.stats.bytes_read,
        ] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.extend_from_slice(&(s.entries.len() as u64).to_le_bytes());
        for (k, a) in &s.entries {
            b.extend_from_slice(&k.to_le_bytes());
            b.extend_from_slice(&a.to_le_bytes());
        }
        b.extend_from_slice(&(s.retired.len() as u64).to_le_bytes());
        for r in &s.retired {
            b.extend_from_slice(&r.to_le_bytes());
        }
    }
    let crc = crc32(&b);
    b.extend_from_slice(&crc.to_le_bytes());
    b
}

/// The `n_shards` shard states of a checkpoint file whose header the
/// caller checked.
fn decode_checkpoint(body: &[u8], n_shards: usize) -> Result<Vec<ShardCheckpoint>, StoreError> {
    if body.len() < 4 {
        return Err(corrupt("checkpoint shorter than its CRC trailer"));
    }
    let (payload, trailer) = body.split_at(body.len() - 4);
    let crc = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(payload) != crc {
        return Err(corrupt("checkpoint CRC mismatch"));
    }
    let mut c = Cursor { b: payload, pos: HEADER };
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let active = c.u64()?;
        let vals: Vec<u64> = (0..9).map(|_| c.u64()).collect::<Result<_, _>>()?;
        let stats = DeviceStats {
            totals: pnw_nvm_sim::WriteStats {
                bit_flips: vals[0],
                aux_bit_flips: vals[1],
                bits_addressed: vals[2],
                words_written: vals[3],
                lines_written: vals[4],
                lines_read: vals[5],
            },
            write_ops: vals[6],
            read_ops: vals[7],
            bytes_read: vals[8],
        };
        let n_entries = c.u64()? as usize;
        let mut entries = Vec::with_capacity(n_entries.min(payload.len()));
        for _ in 0..n_entries {
            let k = c.u64()?;
            let a = c.u64()?;
            entries.push((k, a));
        }
        let n_retired = c.u64()? as usize;
        let mut retired = Vec::with_capacity(n_retired.min(payload.len()));
        for _ in 0..n_retired {
            retired.push(c.u32()?);
        }
        shards.push(ShardCheckpoint {
            active,
            entries,
            stats,
            retired,
        });
    }
    Ok(shards)
}

/// The store-level durability controller: owns the directory layout, the
/// store id, the superblock epoch and the fence it shares with every WAL
/// appender; hands out per-shard WAL appenders and data files.
#[derive(Debug)]
pub(crate) struct DurableStore {
    fs: Arc<dyn Fs>,
    n_shards: usize,
    /// The superblock's epoch: the checkpoint recovery starts from, and
    /// the epoch every current WAL belongs to. 0 until a fresh store's
    /// first checkpoint.
    epoch: u64,
    /// The id every file of this store carries.
    store: u64,
    geometry_hash: u64,
    shape: PutShape,
    fenced: Arc<AtomicBool>,
    /// The directory's lock, held for the store's life: a second store on
    /// one directory would write over this one's WALs and checkpoints.
    _lock: DirLock,
}

impl DurableStore {
    /// Opens the durable directory `fs`; `initial` describes each shard's
    /// fresh state (one entry per shard — its length fixes the shard
    /// count).
    ///
    /// A directory with no superblock is a fresh one: it gets a new store
    /// id, the returned shards are `initial`, and the store stays at epoch
    /// 0 — named by no superblock, with no WAL — until the caller has
    /// created the data files ([`DurableStore::data_file`]) and cut the
    /// first checkpoint, which writes the WALs. Otherwise the returned
    /// shards carry the checkpoint state with each WAL's suffix replayed
    /// over it.
    ///
    /// A file that exists but cannot be read fails the open with the I/O
    /// error's kind; a missing or foreign one (see the module doc) with
    /// [`StoreError::Corrupt`]. A directory another store holds is refused
    /// before anything is read, with [`NvmError::Locked`] naming it.
    pub fn open(
        fs: Arc<dyn Fs>,
        geometry_hash: u64,
        shape: PutShape,
        initial: Vec<ShardCheckpoint>,
    ) -> Result<(Self, Vec<RecoveredShard>), StoreError> {
        let n_shards = initial.len();
        let lock = fs.lock()?;
        let mut store = DurableStore {
            fs,
            n_shards,
            epoch: 0,
            store: 0,
            geometry_hash,
            shape,
            fenced: Arc::default(),
            _lock: lock,
        };
        let from_checkpoint = |s| RecoveredShard::from_checkpoint(s, shape);

        let raw = match store.fs.read("super") {
            Ok(raw) => raw,
            Err(NvmError::Io(ErrorKind::NotFound)) => {
                store.store = RandomState::new().hash_one(n_shards);
                return Ok((store, initial.into_iter().map(from_checkpoint).collect()));
            }
            Err(e) => return Err(e.into()),
        };
        let slots = raw.chunks(SLOT_BYTES as usize).take(2);
        let slots: Vec<Header> = slots.filter_map(|s| Header::parse(s, SUPER)).collect();
        let best = slots.iter().filter(|h| h.version == FORMAT_VERSION).max_by_key(|h| h.epoch);
        let best = best.or(slots.first()).copied();
        if let Some(h) = best {
            (store.store, store.epoch) = (h.store, h.epoch);
        }
        store.check("super", best, WHOLE_STORE, 0)?;

        let name = format!("checkpoint.{}", store.epoch);
        let body = store.fs.read(&name).map_err(missing(&name))?;
        store.check(&name, Header::parse(&body, CHECKPOINT), WHOLE_STORE, store.epoch)?;
        let shards = decode_checkpoint(&body, n_shards)?;

        // Clean up protocol leftovers: a half-written `checkpoint.tmp` or
        // WAL replacement, and any checkpoint the superblock does not
        // reference (a new epoch whose superblock bump tore).
        let _ = store.fs.remove("checkpoint.tmp");
        for name in store.fs.list().unwrap_or_default() {
            let stale = match name.strip_prefix("checkpoint.") {
                Some(suffix) => suffix.parse::<u64>().is_ok_and(|e| e != store.epoch),
                None => name.starts_with("wal.") && name.ends_with(".tmp"),
            };
            if stale {
                let _ = store.fs.remove(&name);
            }
        }

        let mut recovered: Vec<RecoveredShard> =
            shards.into_iter().map(from_checkpoint).collect();
        let mut replaced = false;
        for (sid, shard) in recovered.iter_mut().enumerate() {
            replaced |= store.recover_wal(sid, shard)?;
        }
        if replaced {
            store.sync_dir()?;
        }
        Ok((store, recovered))
    }

    /// The header this store stamps on a file of kind `magic`, of `shard`,
    /// at `epoch`.
    fn header(&self, magic: &[u8; 8], shard: usize, epoch: u64) -> [u8; HEADER] {
        let (version, shard, store) = (FORMAT_VERSION, shard as u32, self.store);
        Header { version, shard, store, epoch, geometry: self.geometry_hash }.encode(magic)
    }

    /// Checks that `name`, whose header is `header` (`None`: none whole of
    /// its kind), is this store's file of `shard`, field by field, of an
    /// epoch from `oldest` to the superblock's; returns that epoch.
    fn check(
        &self,
        name: &str,
        header: Option<Header>,
        shard: usize,
        oldest: u64,
    ) -> Result<u64, StoreError> {
        let h = header.ok_or_else(|| corrupt(format!("{name} has no valid header")))?;
        let fields = [
            ("format version", u64::from(h.version), u64::from(FORMAT_VERSION)),
            ("geometry hash", h.geometry, self.geometry_hash),
            ("store id", h.store, self.store),
            ("shard", u64::from(h.shard), shard as u64),
            ("epoch", h.epoch, h.epoch.clamp(oldest, self.epoch)),
        ];
        let Some((field, got, want)) = fields.into_iter().find(|(_, got, want)| got != want) else {
            return Ok(h.epoch);
        };
        Err(corrupt(format!("{name} has {field} {got}, expected {want}")))
    }

    /// Replays shard `sid`'s WAL over `shard` and leaves the file ready
    /// for records at the replay's end; returns whether the WAL had to be
    /// replaced by an empty one (the caller then syncs the directory).
    fn recover_wal(&self, sid: usize, shard: &mut RecoveredShard) -> Result<bool, StoreError> {
        let name = wal_name(sid);
        let bytes = self.fs.read(&name).map_err(missing(&name))?;
        if self.check(&name, Header::parse(&bytes, WAL), sid, 0)? < self.epoch {
            // A checkpoint that died between its superblock bump and this
            // WAL's replacement: the checkpoint holds every record.
            self.reset_wal(sid, self.epoch)?;
            return Ok(true);
        }
        let end = replay_wal(&bytes, shard);
        // A torn record past the end, or a tear that left the file off a
        // page boundary: zero the tail, so every byte past the cursor is
        // zero again.
        let dirty_tail = bytes[end as usize..].iter().any(|&b| b != 0);
        if dirty_tail || !(bytes.len() as u64).is_multiple_of(PAGE) {
            let len = (bytes.len() as u64).next_multiple_of(PAGE);
            let f = self.fs.open(&name, Open::Existing)?;
            f.write_at(&vec![0; (len - end) as usize], end)?;
            f.sync_data()?;
        }
        (shard.wal, shard.wal_end) = (bytes, end);
        Ok(false)
    }

    /// Cuts a checkpoint: write-new → fsync → rename → directory fsync →
    /// superblock bump → each WAL replaced by an empty one of the new
    /// epoch. A fresh store's first checkpoint writes its WALs, the first
    /// it has, before the directory fsync instead: no superblock names
    /// them until the bump. Returns the shards' appenders on the new WALs.
    /// The caller must have written back and synced the shard data devices
    /// first and must hold out writers for the duration of the state
    /// collection (the store does both). A fenced store cuts none.
    pub fn checkpoint(&mut self, shards: &[ShardCheckpoint]) -> Result<Vec<DurableShard>, StoreError> {
        assert_eq!(shards.len(), self.n_shards, "one checkpoint entry per shard");
        if self.fenced.load(Ordering::Relaxed) {
            return Err(crashed());
        }
        let new_epoch = self.epoch + 1;
        let f = self.fs.open("checkpoint.tmp", Open::Truncate)?;
        f.write_at(&encode_checkpoint(self.header(CHECKPOINT, WHOLE_STORE, new_epoch), shards), 0)?;
        f.sync_all()?;
        self.fs.rename("checkpoint.tmp", &format!("checkpoint.{new_epoch}"))?;
        let first = self.epoch == 0;
        if first {
            (0..self.n_shards).try_for_each(|sid| self.reset_wal(sid, new_epoch))?;
        }
        // A rename is atomic, not durable: the directory entry must reach
        // the disk before a superblock names it, or a power loss leaves a
        // superblock pointing at a checkpoint (or WAL) that does not exist.
        self.sync_dir()?;
        // The commit point: until this superblock write lands, recovery
        // elects the old epoch (old checkpoint + its WALs). Once it may
        // have landed — even if its write or sync reports a failure —
        // recovery may skip the old WALs, so no record may land in one;
        // nor in a new one before the directory names it durably. Any
        // failure from here fences the store: every later record fails.
        let old = std::mem::replace(&mut self.epoch, new_epoch);
        let appenders = (self.write_superblock().and_then(|()| self.replace_wals(!first)))
            .inspect_err(|_| self.fenced.store(true, Ordering::Relaxed))?;
        if old != 0 {
            let _ = self.fs.remove(&format!("checkpoint.{old}"));
        }
        Ok(appenders)
    }

    /// Replaces every shard's WAL with an empty one of the current epoch
    /// (`reset`; the first checkpoint wrote its WALs already), syncs the
    /// directory, and opens an appender on each.
    fn replace_wals(&self, reset: bool) -> Result<Vec<DurableShard>, StoreError> {
        if reset {
            (0..self.n_shards).try_for_each(|sid| self.reset_wal(sid, self.epoch))?;
        }
        self.sync_dir()?;
        (0..self.n_shards).map(|sid| self.wal_appender(sid, HEADER as u64)).collect()
    }

    /// Replaces shard `sid`'s WAL with an empty one of `epoch` — one page,
    /// the header and zeros — written aside, synced and renamed over it: a
    /// crash leaves the old WAL or the new, never a torn header. The caller
    /// syncs the directory.
    fn reset_wal(&self, sid: usize, epoch: u64) -> Result<(), StoreError> {
        let mut page = vec![0u8; PAGE as usize];
        page[..HEADER].copy_from_slice(&self.header(WAL, sid, epoch));
        let tmp = format!("wal.{sid}.tmp");
        let f = self.fs.open(&tmp, Open::Truncate)?;
        f.write_at(&page, 0)?;
        f.sync_all()?;
        Ok(self.fs.rename(&tmp, &wal_name(sid))?)
    }

    /// Writes the current epoch's superblock slot. A store's first
    /// superblock is written aside and renamed in, so `super` appears whole
    /// or not at all: a create that dies before it leaves a fresh directory.
    fn write_superblock(&self) -> Result<(), StoreError> {
        let epoch = self.epoch;
        let name = if epoch == 1 { "super.tmp" } else { "super" };
        let f = self.fs.open(name, Open::Create)?;
        if f.len()? < 2 * SLOT_BYTES {
            f.set_len(2 * SLOT_BYTES)?;
        }
        f.write_at(&self.header(SUPER, WHOLE_STORE, epoch), (epoch % 2) * SLOT_BYTES)?;
        f.sync_all()?;
        if epoch == 1 {
            self.fs.rename(name, "super")?;
        }
        Ok(())
    }

    /// Fsyncs the store directory, making its entries — a renamed
    /// checkpoint or WAL, freshly created files — durable.
    pub fn sync_dir(&self) -> Result<(), StoreError> {
        Ok(self.fs.sync_dir()?)
    }

    /// Shard `sid`'s device backing file: a fresh store's is truncated to
    /// its header, which the device sizes and syncs; a reopen checks the
    /// header of one that holds more than its header page.
    pub fn data_file(&self, sid: usize) -> Result<Arc<dyn FsFile>, StoreError> {
        let name = format!("data.{sid}");
        if self.epoch == 0 {
            let f = self.fs.open(&name, Open::Truncate)?;
            f.write_at(&self.header(DATA, sid, 0), 0)?;
            return Ok(f);
        }
        let f = self.fs.open(&name, Open::Existing).map_err(missing(&name))?;
        let mut header = [0; HEADER];
        if f.len()? > PAGE {
            f.read_at(&mut header, 0)?;
        }
        self.check(&name, Header::parse(&header, DATA), sid, 0)?;
        Ok(f)
    }

    /// Opens shard `sid`'s WAL for positioned writes at `cursor` — and for
    /// reading back the PUT records scrub repairs from — and couples it to
    /// the store-wide fence.
    pub fn wal_appender(&self, sid: usize, cursor: u64) -> Result<DurableShard, StoreError> {
        let wal = self.fs.open(&wal_name(sid), Open::Existing)?;
        let len = wal.len()?;
        Ok(DurableShard {
            wal,
            cursor,
            len,
            frame: Vec::with_capacity(PAGE as usize),
            fenced: Arc::clone(&self.fenced),
            defer_sync: false,
            dirty: false,
            shape: self.shape,
            values: None,
        })
    }

    /// The superblock's epoch; 0 before a fresh store's first checkpoint.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnw_nvm_sim::{OsFs, SimFs};

    const SHAPE: PutShape = PutShape { value_size: 8, ttl: false };

    /// Opens `fs` as a one-shard store of `shape`, geometry 7, cutting a
    /// fresh store's first checkpoint (a store of no data file); the
    /// `bool` is whether it was fresh.
    fn try_open(
        fs: Arc<dyn Fs>,
        shape: PutShape,
    ) -> Result<(DurableStore, Vec<RecoveredShard>, bool), StoreError> {
        let (mut store, rec) = DurableStore::open(fs, 7, shape, vec![ShardCheckpoint::fresh(4)])?;
        let fresh = store.epoch() == 0;
        if fresh {
            store.checkpoint(&[ShardCheckpoint::fresh(4)])?;
        }
        Ok((store, rec, fresh))
    }

    /// The epoch the header of WAL `bytes` names.
    fn epoch_of_wal(bytes: &[u8]) -> Option<u64> {
        Header::parse(bytes, WAL).map(|h| h.epoch)
    }

    fn open(fs: &SimFs) -> (DurableStore, Vec<RecoveredShard>, bool) {
        try_open(Arc::new(fs.clone()), SHAPE).unwrap()
    }

    /// A fresh directory of the host's, for the checks that the simulated
    /// file system behaves like it.
    fn os_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pnw_durable_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn os(dir: &std::path::Path) -> Arc<dyn Fs> {
        Arc::new(OsFs::new(dir).unwrap())
    }

    /// Replaces the file `name` of `fs` with `bytes`.
    fn overwrite(fs: &dyn Fs, name: &str, bytes: &[u8]) {
        fs.open(name, Open::Truncate).unwrap().write_at(bytes, 0).unwrap();
    }

    fn exists(fs: &SimFs, name: &str) -> bool {
        fs.list().unwrap().iter().any(|n| n == name)
    }

    /// The appender a freshly opened (or just checkpointed) WAL starts.
    fn appender(store: &DurableStore) -> DurableShard {
        store.wal_appender(0, HEADER as u64).unwrap()
    }

    fn put(wal: &mut DurableShard, key: u64, addr: u64) -> Result<(), StoreError> {
        wal.log_put(key, addr, &[key as u8; 8], 0)
    }

    fn sample_stats() -> DeviceStats {
        let mut s = DeviceStats::default();
        s.record_write(&pnw_nvm_sim::WriteStats {
            bit_flips: 10,
            aux_bit_flips: 1,
            bits_addressed: 64,
            words_written: 2,
            lines_written: 1,
            lines_read: 1,
        });
        s.record_read(32);
        s
    }

    /// A format change bumps `FORMAT_VERSION` and adds its golden store
    /// image, which `tests/recovery.rs` opens.
    #[test]
    fn this_format_has_a_golden_store_image() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let image = root.join(format!("tests/fixtures/store-v{FORMAT_VERSION}/manifest.txt"));
        assert!(image.is_file(), "no golden store image {}", image.display());
    }

    #[test]
    fn fresh_open_then_reopen_is_empty() {
        let fs = SimFs::new();
        let (store, rec, fresh) = open(&fs);
        assert!(fresh);
        assert_eq!(store.epoch(), 1);
        assert!(rec[0].committed.is_empty());
        assert_eq!(rec[0].active, 4);
        drop(store);
        let (store, rec, fresh) = open(&fs);
        assert!(!fresh);
        assert_eq!(store.epoch(), 1);
        assert!(rec[0].committed.is_empty());
        assert_eq!(rec[0].wal_end, HEADER as u64);
    }

    #[test]
    fn wal_replays_over_checkpoint() {
        let fs = SimFs::new();
        let (store, _, _) = open(&fs);
        let mut wal = appender(&store);
        put(&mut wal, 1, 100).unwrap();
        put(&mut wal, 2, 200).unwrap();
        wal.log_delete(1).unwrap();
        put(&mut wal, 1, 300).unwrap();
        wal.log_extend(6).unwrap();
        drop((wal, store));

        let (_, rec, fresh) = open(&fs);
        assert!(!fresh);
        assert_eq!(rec[0].active, 6);
        assert_eq!(rec[0].committed.len(), 2);
        assert_eq!(rec[0].committed[&1], 300);
        assert_eq!(rec[0].committed[&2], 200);
        // The redo set: each committed key's last PUT, value included.
        let mut redo: Vec<_> = rec[0].redo().map(|p| (p.key, p.addr, p.value.to_vec())).collect();
        redo.sort_unstable();
        assert_eq!(redo, vec![(1, 300, vec![1; 8]), (2, 200, vec![2; 8])]);
    }

    #[test]
    fn a_ttl_put_record_carries_its_deadline() {
        let fs = SimFs::new();
        let shape = PutShape { value_size: 8, ttl: true };
        let (store, _, _) = try_open(Arc::new(fs.clone()), shape).unwrap();
        let mut wal = appender(&store);
        wal.log_put(1, 100, &[0x11; 8], 1_234).unwrap();
        wal.log_put(2, 200, &[0x22; 8], 0).unwrap();
        drop((wal, store));
        let (_, rec, _) = try_open(Arc::new(fs.clone()), shape).unwrap();
        let mut redo: Vec<_> = rec[0].redo().map(|p| (p.key, p.deadline)).collect();
        redo.sort_unstable();
        assert_eq!(redo, vec![(1, 1_234), (2, 0)]);
        // The same WAL read under a shape without deadlines has no whole
        // PUT record: replay stops before the first.
        assert!(open(&fs).1[0].committed.is_empty());
    }

    #[test]
    fn checkpoint_truncates_wal_and_round_trips_state() {
        let fs = SimFs::new();
        let (mut store, _, _) = open(&fs);
        let mut wal = appender(&store);
        put(&mut wal, 9, 900).unwrap();
        store
            .checkpoint(&[ShardCheckpoint {
                active: 6,
                entries: vec![(9, 900)],
                stats: sample_stats(),
                retired: Vec::new(),
            }])
            .unwrap();
        assert_eq!(store.epoch(), 2);
        // An empty WAL of the new epoch: one page, the header and zeros.
        let bytes = fs.read("wal.0").unwrap();
        assert_eq!(bytes.len() as u64, PAGE);
        assert_eq!(epoch_of_wal(&bytes), Some(2));
        assert!(bytes[HEADER..].iter().all(|&b| b == 0));
        assert!(!exists(&fs, "checkpoint.1"), "old epoch removed");
        drop((wal, store));

        let (store, rec, _) = open(&fs);
        assert_eq!(store.epoch(), 2);
        assert_eq!(rec[0].active, 6);
        assert_eq!(rec[0].committed[&9], 900);
        assert_eq!(rec[0].redo().count(), 0, "the checkpoint holds the value");
        assert_eq!(rec[0].stats, sample_stats());
    }

    #[test]
    fn group_commit_replays_like_per_record_commit() {
        let fs = SimFs::new();
        let (store, _, _) = open(&fs);
        let mut wal = appender(&store);
        wal.begin_group();
        put(&mut wal, 1, 100).unwrap();
        put(&mut wal, 2, 200).unwrap();
        wal.log_delete(1).unwrap();
        wal.end_group().unwrap();
        // A second group on the same appender works too.
        wal.begin_group();
        put(&mut wal, 3, 300).unwrap();
        wal.end_group().unwrap();
        drop((wal, store));

        let (_, rec, _) = open(&fs);
        assert_eq!(rec[0].committed.len(), 2);
        assert_eq!(rec[0].committed[&2], 200);
        assert_eq!(rec[0].committed[&3], 300);
        assert!(!rec[0].committed.contains_key(&1));
    }

    #[test]
    fn torn_append_inside_group_still_fails_immediately() {
        let fs = SimFs::new();
        let (store, _, _) = open(&fs);
        let mut wal = appender(&store);
        wal.begin_group();
        put(&mut wal, 1, 100).unwrap();
        fs.tear("wal.", 0, 5);
        // The tear lands at append time, not at the group fsync — a torn
        // record surfaces on the op that wrote it.
        assert!(put(&mut wal, 2, 200).is_err());
        drop((wal, store));

        let (_, rec, _) = open(&fs.reboot());
        assert_eq!(rec[0].committed.len(), 1, "prefix before the tear replays");
        assert_eq!(rec[0].committed[&1], 100);
    }

    #[test]
    fn torn_wal_record_ends_replay_at_prefix() {
        let fs = SimFs::new();
        let (store, _, _) = open(&fs);
        let mut wal = appender(&store);
        put(&mut wal, 1, 100).unwrap();
        let end = wal.cursor;
        fs.tear("wal.", 0, 11);
        assert!(put(&mut wal, 2, 200).is_err(), "torn append is unacknowledged");
        assert!(put(&mut wal, 3, 300).is_err(), "store is dead after the tear");
        drop((wal, store));

        let fs = fs.reboot();
        let (store, rec, _) = open(&fs);
        assert_eq!(rec[0].committed.len(), 1);
        assert_eq!(rec[0].committed[&1], 100);
        // The next record goes where replay stopped, over the torn bytes,
        // which the open zeroed.
        assert_eq!(rec[0].wal_end, end);
        let bytes = fs.read("wal.0").unwrap();
        assert!(bytes[end as usize..].iter().all(|&b| b == 0));
        let mut wal = store.wal_appender(0, rec[0].wal_end).unwrap();
        put(&mut wal, 4, 400).unwrap();
        drop((wal, store));
        let (_, rec, _) = open(&fs);
        assert_eq!(rec[0].committed.len(), 2);
        assert_eq!(rec[0].committed[&4], 400);
    }

    /// The zeros past the cursor stand in for whatever a torn write did
    /// not land. A DELETE of key 3 torn after 13 bytes is missing only
    /// its key's four high bytes, zero anyway, and a PUT of a value that
    /// ends in zeros torn inside those zeros is missing nothing but zeros:
    /// only the end mark tells either from a whole frame. Torn at every
    /// byte, neither replays; whole, each does.
    #[test]
    fn a_frame_torn_at_any_byte_never_replays() {
        let frame = |parts: &[&[u8]]| {
            let mut f = Vec::new();
            encode_frame(&mut f, parts);
            f
        };
        let put = |key: u64, value: &[u8]| {
            frame(&[&[REC_PUT], &key.to_le_bytes(), &100u64.to_le_bytes(), value])
        };
        let committed = put(3, &[0x33; 8]);
        let delete = frame(&[&[REC_DELETE], &3u64.to_le_bytes()]);
        let mut zero_padded = delete[..13].to_vec();
        zero_padded.resize(delete.len() - 1, 0);
        assert_eq!(zero_padded, delete[..delete.len() - 1], "all but the end mark");
        for torn in [delete, put(4, &[0x44, 0x44, 0, 0, 0, 0, 0, 0])] {
            for keep in 0..=torn.len() {
                let mut wal = vec![0u8; HEADER];
                wal.extend_from_slice(&committed);
                wal.extend_from_slice(&torn[..keep]);
                wal.resize(PAGE as usize, 0);
                let mut shard = RecoveredShard::from_checkpoint(ShardCheckpoint::fresh(4), SHAPE);
                let end = replay_wal(&wal, &mut shard) as usize;
                let whole = keep == torn.len();
                let want = HEADER + committed.len() + if whole { torn.len() } else { 0 };
                assert_eq!(end, want, "frame {torn:?} torn after {keep} bytes");
                let (three, four) = (shard.committed.get(&3), shard.committed.get(&4));
                assert_eq!(three.is_some(), !whole || torn[8] == REC_PUT);
                assert_eq!(four.is_some(), whole && torn[8] == REC_PUT);
            }
        }
    }

    /// A record that crosses the file's end grows it to the next page
    /// boundary; the length stays a page multiple at or past the cursor,
    /// across a failed sync too, and nothing past the cursor is nonzero.
    #[test]
    fn the_wal_grows_a_page_at_a_time() {
        let fs = SimFs::new();
        let shape = PutShape { value_size: 64, ttl: false };
        let (store, _, _) = try_open(Arc::new(fs.clone()), shape).unwrap();
        let mut wal = appender(&store);
        let file_len = || fs.read("wal.0").unwrap().len() as u64;
        assert_eq!(file_len(), PAGE);
        let (records, mut growths, mut last) = (200u64, 0, PAGE);
        for key in 0..records {
            if key == 100 {
                fs.fail_sync("wal.", 0);
                assert!(wal.log_put(key, key, &[0xFF; 64], 0).is_err());
            }
            wal.log_put(key, key, &[key as u8; 64], 0).unwrap();
            let len = file_len();
            assert!(len.is_multiple_of(PAGE), "record {key}");
            assert!(len >= wal.cursor, "record {key}");
            growths += u64::from(len != last);
            last = len;
        }
        let record = (WAL_FRAME_OVERHEAD + shape.payload_len()) as u64;
        assert_eq!(record, 90);
        assert_eq!(wal.cursor, HEADER as u64 + records * record);
        assert_eq!(growths, wal.cursor.div_ceil(PAGE) - 1);
        let bytes = fs.read("wal.0").unwrap();
        assert!(bytes[wal.cursor as usize..].iter().all(|&b| b == 0));
        drop((wal, store));
        let (_, rec, _) = try_open(Arc::new(fs), shape).unwrap();
        assert_eq!(rec[0].committed.len(), records as usize);
    }

    /// On a simulated directory and on one of the host's.
    #[test]
    fn a_headerless_wal_is_refused() {
        let dir = os_dir("headerless");
        let sim: Arc<dyn Fs> = Arc::new(SimFs::new());
        for fs in [sim, os(&dir)] {
            let (store, _, _) = try_open(Arc::clone(&fs), SHAPE).unwrap();
            let mut wal = appender(&store);
            put(&mut wal, 1, 100).unwrap();
            drop((wal, store));
            let bytes = fs.read("wal.0").unwrap();
            // Frames of this format with no header ahead of them, as an
            // older store laid its WAL out; an older store's truncated,
            // empty WAL; a header whose CRC fails.
            let mut bad_crc = bytes.clone();
            bad_crc[17] ^= 1;
            for old in [&bytes[HEADER..], &[][..], &bad_crc[..]] {
                overwrite(fs.as_ref(), "wal.0", old);
                match try_open(Arc::clone(&fs), SHAPE) {
                    Err(StoreError::Corrupt(why)) => assert!(why.starts_with("wal.0 "), "{why}"),
                    other => panic!("{fs:?} opened a WAL without a valid header: {other:?}"),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint that dies between its superblock bump and replacing
    /// the WALs leaves WALs of the previous epoch: recovery skips them
    /// (their records are in the checkpoint) and starts empty ones.
    #[test]
    fn a_wal_of_an_older_epoch_is_skipped() {
        let fs = SimFs::new();
        let (mut store, _, _) = open(&fs);
        let mut wal = appender(&store);
        put(&mut wal, 1, 100).unwrap();
        let epoch_1 = fs.read("wal.0").unwrap();
        let mut ckpt = ShardCheckpoint::fresh(4);
        ckpt.entries = vec![(5, 500)];
        let wals = store.checkpoint(&[ckpt]).unwrap();
        drop((wal, wals, store));
        overwrite(&fs, "wal.0", &epoch_1);

        let (store, rec, _) = open(&fs);
        assert_eq!(rec[0].committed, HashMap::from([(5, 500)]));
        let bytes = fs.read("wal.0").unwrap();
        assert_eq!(epoch_of_wal(&bytes), Some(2), "replaced by a WAL of the checkpoint's epoch");
        let mut wal = store.wal_appender(0, rec[0].wal_end).unwrap();
        put(&mut wal, 6, 600).unwrap();
        drop((wal, store));
        let (_, rec, _) = open(&fs);
        assert_eq!(rec[0].committed, HashMap::from([(5, 500), (6, 600)]));
    }

    /// On a simulated directory, whose reads of the WAL fail, and on one
    /// of the host's, with a directory where the WAL should be.
    #[test]
    fn an_unreadable_wal_fails_open() {
        let unreadable =
            |fs| matches!(try_open(fs, SHAPE), Err(StoreError::Nvm(NvmError::Io(_))));
        let sim = SimFs::new();
        drop(open(&sim));
        sim.fail_read("wal.0");
        assert!(unreadable(Arc::new(sim)));
        let dir = os_dir("unreadable");
        drop(try_open(os(&dir), SHAPE).unwrap());
        std::fs::remove_file(dir.join("wal.0")).unwrap();
        std::fs::create_dir(dir.join("wal.0")).unwrap();
        assert!(unreadable(os(&dir)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_superblock_falls_back_to_other_replica() {
        let fs = SimFs::new();
        let (mut store, _, _) = open(&fs);
        let mut wal = appender(&store);
        put(&mut wal, 5, 500).unwrap();
        fs.tear("super", 0, 13);
        assert!(store.checkpoint(&[ShardCheckpoint::fresh(4)]).is_err());
        drop((wal, store));

        // The epoch-1 replica still elects; its checkpoint plus its WAL
        // reconstruct the committed set.
        let fs = fs.reboot();
        let (store, rec, _) = open(&fs);
        assert_eq!(store.epoch(), 1);
        assert_eq!(rec[0].committed[&5], 500);
        assert!(!exists(&fs, "checkpoint.2"), "unreferenced checkpoint cleaned up");
    }

    /// A whole, CRC-valid superblock of another format version is refused
    /// by name, not taken for a torn one.
    #[test]
    fn a_superblock_of_another_format_is_refused_by_name() {
        let fs = SimFs::new();
        drop(open(&fs));
        let (store, epoch, geometry) = (9, 1, 7);
        let slot = Header { version: 3, shard: 0, store, epoch, geometry }.encode(SUPER);
        let mut raw = vec![0u8; 2 * SLOT_BYTES as usize];
        raw[SLOT_BYTES as usize..][..HEADER].copy_from_slice(&slot);
        overwrite(&fs, "super", &raw);
        match try_open(Arc::new(fs), SHAPE) {
            Err(StoreError::Corrupt(why)) => {
                assert_eq!(why, "super has format version 3, expected 4")
            }
            other => panic!("opened a version-3 superblock: {other:?}"),
        }
    }

    /// Every file a store writes opens with its header: its kind's magic,
    /// this format, the store's id, its shard (`WHOLE_STORE` for a
    /// store-wide file), the epoch and the geometry; a second store of the
    /// same geometry gets another id.
    #[test]
    fn every_file_opens_with_this_stores_header() {
        let fs = SimFs::new();
        let fresh = || vec![ShardCheckpoint::fresh(4)];
        let (mut store, _) = DurableStore::open(Arc::new(fs.clone()), 7, SHAPE, fresh()).unwrap();
        // The device sizes the file it is handed past its header page.
        store.data_file(0).unwrap().set_len(2 * PAGE).unwrap();
        store.checkpoint(&fresh()).unwrap();
        let mut first = [0u8; HEADER];
        let (reopened, _, _) = open(&fs.snapshot());
        reopened.data_file(0).unwrap().read_at(&mut first, 0).unwrap();
        let id = store.store;
        let header = |shard: usize, epoch| {
            let (version, shard) = (FORMAT_VERSION, shard as u32);
            Some(Header { version, shard, store: id, epoch, geometry: 7 })
        };
        let files = [
            (&fs.read("super").unwrap()[SLOT_BYTES as usize..], SUPER, header(WHOLE_STORE, 1)),
            (&fs.read("checkpoint.1").unwrap()[..], CHECKPOINT, header(WHOLE_STORE, 1)),
            (&fs.read("wal.0").unwrap()[..], WAL, header(0, 1)),
            (&first[..], DATA, header(0, 0)),
        ];
        for (bytes, magic, want) in files {
            assert_eq!(Header::parse(bytes, magic), want);
            assert_eq!(Header::parse(bytes, DATA).is_some(), magic == DATA, "one magic per kind");
        }
        assert_ne!(open(&SimFs::new()).0.store, id);
    }

    #[test]
    fn torn_checkpoint_body_keeps_old_epoch() {
        let fs = SimFs::new();
        let (mut store, _, _) = open(&fs);
        let mut wal = appender(&store);
        put(&mut wal, 6, 600).unwrap();
        fs.tear("checkpoint.", 0, 20);
        assert!(store.checkpoint(&[ShardCheckpoint::fresh(4)]).is_err());
        drop((wal, store));
        let fs = fs.reboot();
        assert!(exists(&fs, "checkpoint.tmp"), "half-written body left behind");

        let (store, rec, _) = open(&fs);
        assert_eq!(store.epoch(), 1);
        assert_eq!(rec[0].committed[&6], 600);
        assert!(!exists(&fs, "checkpoint.tmp"), "tmp cleaned at open");
    }

    #[test]
    fn geometry_mismatch_is_corrupt() {
        let fs = SimFs::new();
        drop(open(&fs));
        assert!(matches!(
            DurableStore::open(Arc::new(fs), 8, SHAPE, vec![ShardCheckpoint::fresh(4)]),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupted_checkpoint_is_detected() {
        let fs = SimFs::new();
        drop(open(&fs));
        let mut body = fs.read("checkpoint.1").unwrap();
        let mid = body.len() / 2;
        body[mid] ^= 0x40;
        overwrite(&fs, "checkpoint.1", &body);
        assert!(matches!(try_open(Arc::new(fs), SHAPE), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn zeroed_superblock_is_corrupt() {
        let fs = SimFs::new();
        drop(open(&fs));
        overwrite(&fs, "super", &[0u8; 128]);
        assert!(matches!(try_open(Arc::new(fs), SHAPE), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn value_records_replay_and_mirror() {
        let fs = SimFs::new();
        let (store, _, _) = open(&fs);
        let mut wal = appender(&store);
        wal.keep_values(HashMap::new());
        wal.log_put(1, 100, &[0xAB; 8], 0).unwrap();
        wal.log_put(2, 200, &[0xCD; 8], 0).unwrap();
        wal.log_delete(2).unwrap();
        assert_eq!(wal.wal_value(1), Some(vec![0xAB; 8]));
        assert_eq!(wal.wal_value(2), None, "delete drops the mirror");
        drop((wal, store));

        let (store, mut rec, _) = open(&fs);
        let r = rec.remove(0);
        assert_eq!(r.committed.len(), 1);
        assert_eq!(r.committed[&1], 100);
        assert!(!r.values.contains_key(&2));
        // An appender keeps no mirror unless asked (a store without CRCs
        // has no scrub to repair from it).
        assert_eq!(store.wal_appender(0, r.wal_end).unwrap().wal_value(1), None);
        // Reopen hands the mirror back to a fresh appender, which reads
        // the value back out of the file.
        let mut wal = store.wal_appender(0, r.wal_end).unwrap();
        wal.keep_values(r.values);
        assert_eq!(wal.wal_value(1), Some(vec![0xAB; 8]));
        // Later appends land after the replayed tail, and read back too.
        wal.log_put(3, 300, &[0xEF; 8], 0).unwrap();
        assert_eq!(wal.wal_value(3), Some(vec![0xEF; 8]));
        assert_eq!(wal.wal_value(1), Some(vec![0xAB; 8]));
    }

    #[test]
    fn a_later_put_replaces_the_value_mirror() {
        let fs = SimFs::new();
        let (store, _, _) = open(&fs);
        let mut wal = appender(&store);
        wal.keep_values(HashMap::new());
        wal.log_put(1, 100, &[0x11; 8], 0).unwrap();
        wal.log_put(1, 160, &[0x22; 8], 0).unwrap();
        assert_eq!(wal.wal_value(1), Some(vec![0x22; 8]));
        drop((wal, store));
        let (_, rec, _) = open(&fs);
        assert_eq!(rec[0].committed[&1], 160);
        let redo: Vec<_> = rec[0].redo().map(|p| (p.key, p.addr, p.value.to_vec())).collect();
        assert_eq!(redo, vec![(1, 160, vec![0x22; 8])]);
    }

    /// A per-op append whose sync fails is zeroed in the file: it never
    /// replays, the next record commits alone in its place, and the value
    /// mirror keeps naming the last committed copy.
    #[test]
    fn a_failed_sync_takes_its_record_back() {
        let fs = SimFs::new();
        let (store, _, _) = open(&fs);
        let mut wal = appender(&store);
        wal.keep_values(HashMap::new());
        wal.log_put(1, 100, &[0x11; 8], 0).unwrap();
        fs.fail_sync("wal.", 0);
        assert!(wal.log_put(1, 160, &[0x22; 8], 0).is_err());
        assert_eq!(wal.wal_value(1), Some(vec![0x11; 8]));
        // What the file holds now replays without the failed record.
        let (_, rec, _) = open(&fs.snapshot());
        assert_eq!(rec[0].committed[&1], 100, "the failed record never replays");
        assert_eq!(rec[0].wal_end, wal.cursor);
        put(&mut wal, 2, 200).unwrap();
        drop((wal, store));

        let (_, rec, _) = open(&fs);
        assert_eq!(rec[0].committed[&1], 100, "the failed record never commits");
        assert_eq!(rec[0].committed[&2], 200);
    }

    /// A superblock write that lands but reports a failure still elects
    /// the new epoch at reopen, which skips the old WAL: the failed
    /// checkpoint fences the store, so no record is acknowledged into it.
    #[test]
    fn a_failed_superblock_sync_fences_the_store() {
        let fs = SimFs::new();
        let (mut store, _, _) = open(&fs);
        let mut wal = appender(&store);
        put(&mut wal, 1, 100).unwrap();
        fs.fail_sync("super", 0);
        let cut = ShardCheckpoint { entries: vec![(1, 100)], ..ShardCheckpoint::fresh(4) };
        assert!(store.checkpoint(std::slice::from_ref(&cut)).is_err());
        assert!(put(&mut wal, 2, 200).is_err(), "no record lands after the failed checkpoint");
        assert!(wal.log_delete(1).is_err());
        assert!(store.checkpoint(&[cut]).is_err(), "a fenced store cuts no checkpoint");
        drop((wal, store));

        let (store, rec, _) = open(&fs);
        assert_eq!(store.epoch(), 2, "the failed checkpoint's superblock landed");
        assert_eq!(rec[0].committed, HashMap::from([(1, 100)]));
    }

    #[test]
    fn retirement_survives_wal_replay_and_checkpoint() {
        let fs = SimFs::new();
        let (mut store, _, _) = open(&fs);
        let mut wal = appender(&store);
        wal.log_retire(3).unwrap();
        wal.log_retire(1).unwrap();
        wal.log_retire(3).unwrap(); // idempotent on replay
        drop(wal);

        // Crash path: retirement comes back through WAL replay.
        let (_, rec, _) = open(&fs.snapshot());
        assert_eq!(rec[0].retired, vec![3, 1]);

        // Checkpoint path: retirement persists past the WAL's replacement.
        let mut ckpt = ShardCheckpoint::fresh(4);
        ckpt.retired = vec![1, 3];
        store.checkpoint(&[ckpt]).unwrap();
        drop(store);
        let (_, rec, _) = open(&fs);
        assert_eq!(rec[0].retired, vec![1, 3]);
    }

    #[test]
    fn oversized_frame_ends_replay() {
        // A frame longer than a PUT's payload is framing garbage even if
        // its CRC and end mark check out.
        let fs = SimFs::new();
        let (store, _, _) = open(&fs);
        let mut wal = appender(&store);
        put(&mut wal, 1, 100).unwrap();
        let mut frame = Vec::new();
        encode_frame(&mut frame, &[&[REC_PUT; 64]]);
        wal.wal.write_at(&frame, wal.cursor).unwrap();
        drop((wal, store));
        let (_, rec, _) = open(&fs);
        assert_eq!(rec[0].committed.len(), 1, "replay stops at the bad frame");
    }

    #[test]
    fn geometry_hash_separates_configs() {
        let a = PnwConfig::new(64, 8);
        let b = PnwConfig::new(64, 16);
        let c = PnwConfig::new(64, 8).with_index(IndexPlacement::Nvm);
        // TTL adds the expiry zone, shifting every region offset: a
        // TTL-on directory must refuse to open under a TTL-off config.
        let d = PnwConfig::new(64, 8).with_ttl();
        assert_ne!(geometry_hash(&a, 1), geometry_hash(&b, 1));
        assert_ne!(geometry_hash(&a, 1), geometry_hash(&c, 1));
        assert_ne!(geometry_hash(&a, 1), geometry_hash(&d, 1));
        assert_ne!(geometry_hash(&a, 1), geometry_hash(&a, 2));
        assert_eq!(geometry_hash(&a, 1), geometry_hash(&a.clone(), 1));
    }
}
