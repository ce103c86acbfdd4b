//! The wire protocol: length-prefixed, CRC-framed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────┐
//! │ len: u32 LE│ crc: u32 LE│ payload (len B)  │
//! └────────────┴────────────┴──────────────────┘
//! ```
//!
//! `crc` is the CRC-32 (IEEE) of the payload, computed with the same
//! [`crc32`] the durable file formats use — a torn or bit-flipped frame is
//! detected before any field of it is interpreted. `len == 0` and
//! `len > max_frame` are protocol errors: the server answers with a typed
//! error and **quarantines the connection** (closes it) without touching
//! any other connection.
//!
//! Request payload: `id: u64`, `op: u8`, `deadline_us: u32`, op body.
//! Response payload: `id: u64`, `status: u8` (0 = ok), ok body or a
//! [`WireError`]. Request ids are chosen by the client and echoed verbatim,
//! so many requests can be pipelined on one connection and matched to
//! their responses in order.
//!
//! Everything here is pure (`&[u8]` in, `Vec<u8>` out) so the same
//! encoder/decoder pair serves the server, the client, the fuzz-ish
//! robustness tests and the protocol microbenchmark.

use std::io::{IoSlice, Read, Write};
use std::ops::Range;

use pnw_core::StoreError;
use pnw_nvm_sim::crc32;

/// Frame header bytes: `len: u32` + `crc: u32`.
pub const FRAME_HDR: usize = 8;

/// Default cap on one frame's payload. A PUT frame needs
/// `21 + value_size` bytes, a BATCH frame `13 + Σ per-op`; 1 MiB leaves
/// room for batches of thousands of 64 B values while bounding what one
/// malicious or confused client can make the server buffer.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Request opcodes (the `op` byte).
pub mod opcode {
    /// Insert or update one key.
    pub const PUT: u8 = 1;
    /// Read one key.
    pub const GET: u8 = 2;
    /// Delete one key.
    pub const DELETE: u8 = 3;
    /// Apply a batch of writes.
    pub const BATCH: u8 = 4;
    /// Liveness probe.
    pub const PING: u8 = 5;
    /// Ordered range scan.
    pub const SCAN: u8 = 6;
}

/// One operation inside a BATCH request (mirrors `pnw_core::Op`, owned).
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Insert or update `key`.
    Put {
        /// The key.
        key: u64,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Delete `key`.
    Delete {
        /// The key.
        key: u64,
    },
}

/// A decoded request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Insert or update one key.
    Put {
        /// The key.
        key: u64,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Read one key.
    Get {
        /// The key.
        key: u64,
    },
    /// Delete one key.
    Delete {
        /// The key.
        key: u64,
    },
    /// Apply a batch of writes through `Store::apply`.
    Batch {
        /// The operations, in submission order.
        ops: Vec<WireOp>,
    },
    /// Ordered range scan over `lo..=hi` (see `Store::scan`).
    Scan {
        /// Inclusive lower key bound.
        lo: u64,
        /// Inclusive upper key bound.
        hi: u64,
        /// Cap on returned entries; 0 means server-chosen (the server
        /// always bounds the reply by its frame limit regardless).
        limit: u32,
    },
    /// Liveness probe; answered without touching the store.
    Ping,
}

/// One request frame: client-chosen id, optional deadline, body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen id, echoed verbatim in the response.
    pub id: u64,
    /// Per-request deadline in microseconds from server receipt; 0 means
    /// no deadline. A request that cannot be *admitted* before its
    /// deadline fails with [`WireError::DeadlineExceeded`] instead of
    /// occupying a queue slot forever.
    pub deadline_us: u32,
    /// The operation.
    pub req: Request,
}

/// A decoded response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// PUT applied.
    Put,
    /// GET result: `None` = key absent.
    Get(Option<Vec<u8>>),
    /// DELETE completed; whether the key existed.
    Delete(bool),
    /// BATCH outcome: ops completed plus per-op failures by batch index.
    Batch {
        /// Ops that completed (puts + deletes).
        completed: u32,
        /// `(batch index, error)` for every failed op.
        failures: Vec<(u32, WireError)>,
    },
    /// SCAN result: ascending `(key, value)` entries.
    Scan {
        /// Whether the reply covers the whole requested range; `false`
        /// means the server truncated at the client's `limit` or at its
        /// own frame budget, and the client should continue from
        /// `entries.last().key + 1`.
        complete: bool,
        /// The entries, ascending by key.
        entries: Vec<(u64, Vec<u8>)>,
    },
    /// PING answered.
    Pong,
    /// The whole request failed.
    Err(WireError),
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The id of the request this answers (0 for connection-level errors
    /// whose request id could not be decoded).
    pub id: u64,
    /// The outcome.
    pub resp: Response,
}

/// The typed errors a server can put on the wire. The first seven mirror
/// [`StoreError`] one-to-one (nothing collapsed); the rest are
/// serving-layer conditions that only exist across a process boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Store/shard out of space ([`StoreError::Full`]).
    Full,
    /// Value size does not match the store's fixed bucket size.
    WrongValueSize {
        /// Configured value size.
        expected: u32,
        /// Supplied size.
        got: u32,
    },
    /// The store's model was unavailable (a store bug; never collapsed
    /// into `Full`).
    ModelUnavailable,
    /// A shard's bounded write queue rejected the op — the store-level
    /// admission control. Carries the rejecting shard and its queue depth
    /// so the client (and the server log) can tell one hot shard from
    /// store-wide saturation. Retryable with backoff.
    Backpressure {
        /// Rejecting shard id.
        shard: u32,
        /// Queue depth at rejection.
        depth: u32,
    },
    /// Invalid store configuration.
    Config(String),
    /// Underlying device failure.
    Nvm(String),
    /// Durable state failed validation.
    Corrupt(String),
    /// The request's deadline expired before it could be admitted or
    /// executed. Retryable (the op was **not** applied).
    DeadlineExceeded,
    /// The server's admission gate is full: too many requests already
    /// executing or waiting. Retryable with backoff.
    Overloaded,
    /// The server is draining (graceful shutdown): no new work is
    /// accepted. Clients should reconnect elsewhere or retry later.
    Draining,
    /// The client broke the framing or encoding; the connection is
    /// quarantined (closed) after this error is sent.
    Protocol(String),
    /// A frame exceeded the server's size limit; the connection is
    /// quarantined after this error is sent.
    TooLarge {
        /// The server's frame limit.
        limit: u32,
        /// The declared frame length.
        got: u32,
    },
    /// The stored value failed end-to-end CRC verification — the media
    /// under this key is corrupt ([`StoreError::Corruption`]).
    /// **Non-retryable**: a retry re-reads the same bad cells. The store
    /// keeps the key indexed so the loss stays loud; a background scrub
    /// may still repair it from the durable layer.
    Corruption {
        /// The key whose bucket failed verification.
        key: u64,
        /// The shard that detected the corruption.
        shard: u32,
    },
}

impl WireError {
    /// The one-byte code this error travels as.
    pub fn code(&self) -> u8 {
        match self {
            WireError::Full => 1,
            WireError::WrongValueSize { .. } => 2,
            WireError::ModelUnavailable => 3,
            WireError::Backpressure { .. } => 4,
            WireError::Config(_) => 5,
            WireError::Nvm(_) => 6,
            WireError::Corrupt(_) => 7,
            WireError::DeadlineExceeded => 8,
            WireError::Overloaded => 9,
            WireError::Draining => 10,
            WireError::Protocol(_) => 11,
            WireError::TooLarge { .. } => 12,
            WireError::Corruption { .. } => 13,
        }
    }

    /// Whether a client should retry the operation (with backoff): the
    /// op was rejected *before* being applied by an admission mechanism
    /// that drains over time.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            WireError::Backpressure { .. }
                | WireError::Overloaded
                | WireError::DeadlineExceeded
                | WireError::Draining
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Full => write!(f, "store full"),
            WireError::WrongValueSize { expected, got } => {
                write!(f, "value size {got} != configured size {expected}")
            }
            WireError::ModelUnavailable => write!(f, "model unavailable"),
            WireError::Backpressure { shard, depth } => {
                write!(f, "backpressure: shard {shard} queue full at depth {depth}")
            }
            WireError::Config(m) => write!(f, "invalid configuration: {m}"),
            WireError::Nvm(m) => write!(f, "device error: {m}"),
            WireError::Corrupt(m) => write!(f, "durable state corrupt: {m}"),
            WireError::DeadlineExceeded => write!(f, "deadline exceeded"),
            WireError::Overloaded => write!(f, "server admission gate full"),
            WireError::Draining => write!(f, "server draining"),
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
            WireError::TooLarge { limit, got } => {
                write!(f, "frame of {got} bytes exceeds the {limit}-byte limit")
            }
            WireError::Corruption { key, shard } => {
                write!(f, "key {key} failed CRC verification on shard {shard}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<&StoreError> for WireError {
    fn from(e: &StoreError) -> Self {
        match e {
            StoreError::Full => WireError::Full,
            StoreError::WrongValueSize { expected, got } => WireError::WrongValueSize {
                expected: *expected as u32,
                got: *got as u32,
            },
            StoreError::ModelUnavailable => WireError::ModelUnavailable,
            StoreError::Backpressure { shard, depth } => WireError::Backpressure {
                shard: *shard as u32,
                depth: *depth as u32,
            },
            StoreError::Config(c) => WireError::Config(c.to_string()),
            StoreError::Nvm(n) => WireError::Nvm(n.to_string()),
            StoreError::Corrupt(m) => WireError::Corrupt(m.clone()),
            StoreError::Corruption { key, shard } => WireError::Corruption {
                key: *key,
                shard: *shard as u32,
            },
        }
    }
}

/// Why a payload failed to decode.
pub type ProtoError = String;

// ---------------------------------------------------------------------------
// Little-endian cursor helpers.

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after a complete message",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// WireError encoding: code u8, aux1 u32, aux2 u32, msg_len u16, msg bytes.
// One fixed shape everywhere (top-level errors and per-op batch failures).

fn encode_wire_error(e: &WireError, out: &mut Vec<u8>) {
    let shard_buf;
    let (aux1, aux2, msg): (u32, u32, &str) = match e {
        WireError::WrongValueSize { expected, got } => (*expected, *got, ""),
        WireError::Backpressure { shard, depth } => (*shard, *depth, ""),
        WireError::TooLarge { limit, got } => (*limit, *got, ""),
        // The key needs both aux words; the shard rides in the message
        // slot as decimal text (the one fixed error shape everywhere).
        WireError::Corruption { key, shard } => {
            shard_buf = shard.to_string();
            (*key as u32, (*key >> 32) as u32, shard_buf.as_str())
        }
        WireError::Config(m) | WireError::Nvm(m) | WireError::Corrupt(m)
        | WireError::Protocol(m) => (0, 0, m.as_str()),
        _ => (0, 0, ""),
    };
    out.push(e.code());
    out.extend_from_slice(&aux1.to_le_bytes());
    out.extend_from_slice(&aux2.to_le_bytes());
    let msg = &msg.as_bytes()[..msg.len().min(u16::MAX as usize)];
    out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
    out.extend_from_slice(msg);
}

fn decode_wire_error(c: &mut Cursor<'_>) -> Result<WireError, ProtoError> {
    let code = c.u8()?;
    let aux1 = c.u32()?;
    let aux2 = c.u32()?;
    let mlen = c.u16()? as usize;
    let msg = String::from_utf8_lossy(c.take(mlen)?).into_owned();
    Ok(match code {
        1 => WireError::Full,
        2 => WireError::WrongValueSize { expected: aux1, got: aux2 },
        3 => WireError::ModelUnavailable,
        4 => WireError::Backpressure { shard: aux1, depth: aux2 },
        5 => WireError::Config(msg),
        6 => WireError::Nvm(msg),
        7 => WireError::Corrupt(msg),
        8 => WireError::DeadlineExceeded,
        9 => WireError::Overloaded,
        10 => WireError::Draining,
        11 => WireError::Protocol(msg),
        12 => WireError::TooLarge { limit: aux1, got: aux2 },
        13 => WireError::Corruption {
            key: u64::from(aux2) << 32 | u64::from(aux1),
            shard: msg
                .parse()
                .map_err(|_| format!("bad shard id in corruption error: {msg:?}"))?,
        },
        other => return Err(format!("unknown error code {other}")),
    })
}

// ---------------------------------------------------------------------------
// Request encoding.

/// Encodes a request into `out` (payload only; framing is separate).
pub fn encode_request(frame: &RequestFrame, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&frame.id.to_le_bytes());
    let op = match &frame.req {
        Request::Put { .. } => opcode::PUT,
        Request::Get { .. } => opcode::GET,
        Request::Delete { .. } => opcode::DELETE,
        Request::Batch { .. } => opcode::BATCH,
        Request::Scan { .. } => opcode::SCAN,
        Request::Ping => opcode::PING,
    };
    out.push(op);
    out.extend_from_slice(&frame.deadline_us.to_le_bytes());
    match &frame.req {
        Request::Put { key, value } => {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(value);
        }
        Request::Get { key } | Request::Delete { key } => {
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Batch { ops } => {
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                match op {
                    WireOp::Put { key, value } => {
                        out.push(opcode::PUT);
                        out.extend_from_slice(&key.to_le_bytes());
                        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                        out.extend_from_slice(value);
                    }
                    WireOp::Delete { key } => {
                        out.push(opcode::DELETE);
                        out.extend_from_slice(&key.to_le_bytes());
                    }
                }
            }
        }
        Request::Scan { lo, hi, limit } => {
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
        }
        Request::Ping => {}
    }
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<RequestFrame, ProtoError> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let op = c.u8()?;
    let deadline_us = c.u32()?;
    let req = match op {
        opcode::PUT => {
            let key = c.u64()?;
            Request::Put { key, value: c.rest().to_vec() }
        }
        opcode::GET => Request::Get { key: c.u64()? },
        opcode::DELETE => Request::Delete { key: c.u64()? },
        opcode::BATCH => {
            let n = c.u32()? as usize;
            // Each op needs ≥ 9 bytes; reject counts the payload cannot hold
            // before allocating for them.
            if n > payload.len() / 9 + 1 {
                return Err(format!("batch count {n} exceeds payload capacity"));
            }
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let kind = c.u8()?;
                let key = c.u64()?;
                match kind {
                    opcode::PUT => {
                        let vlen = c.u32()? as usize;
                        ops.push(WireOp::Put { key, value: c.take(vlen)?.to_vec() });
                    }
                    opcode::DELETE => ops.push(WireOp::Delete { key }),
                    other => return Err(format!("unknown batch op kind {other}")),
                }
            }
            Request::Batch { ops }
        }
        opcode::SCAN => {
            let lo = c.u64()?;
            let hi = c.u64()?;
            let limit = c.u32()?;
            Request::Scan { lo, hi, limit }
        }
        opcode::PING => Request::Ping,
        other => return Err(format!("unknown opcode {other}")),
    };
    c.done()?;
    Ok(RequestFrame { id, deadline_us, req })
}

// ---------------------------------------------------------------------------
// Response encoding.

/// Encodes a response into `out` (payload only).
pub fn encode_response(frame: &ResponseFrame, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&frame.id.to_le_bytes());
    match &frame.resp {
        Response::Err(e) => {
            out.push(1);
            encode_wire_error(e, out);
        }
        ok => {
            out.push(0);
            match ok {
                Response::Put => out.push(opcode::PUT),
                Response::Get(value) => {
                    out.push(opcode::GET);
                    match value {
                        Some(v) => {
                            out.push(1);
                            out.extend_from_slice(v);
                        }
                        None => out.push(0),
                    }
                }
                Response::Delete(existed) => {
                    out.push(opcode::DELETE);
                    out.push(u8::from(*existed));
                }
                Response::Batch { completed, failures } => {
                    out.push(opcode::BATCH);
                    out.extend_from_slice(&completed.to_le_bytes());
                    out.extend_from_slice(&(failures.len() as u32).to_le_bytes());
                    for (idx, e) in failures {
                        out.extend_from_slice(&idx.to_le_bytes());
                        encode_wire_error(e, out);
                    }
                }
                Response::Scan { complete, entries } => {
                    out.push(opcode::SCAN);
                    out.push(u8::from(*complete));
                    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                    for (key, value) in entries {
                        out.extend_from_slice(&key.to_le_bytes());
                        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                        out.extend_from_slice(value);
                    }
                }
                Response::Pong => out.push(opcode::PING),
                Response::Err(_) => unreachable!("handled above"),
            }
        }
    }
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<ResponseFrame, ProtoError> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let status = c.u8()?;
    let resp = match status {
        1 => Response::Err(decode_wire_error(&mut c)?),
        0 => match c.u8()? {
            opcode::PUT => Response::Put,
            opcode::GET => match c.u8()? {
                0 => Response::Get(None),
                1 => Response::Get(Some(c.rest().to_vec())),
                other => return Err(format!("bad GET found flag {other}")),
            },
            opcode::DELETE => Response::Delete(c.u8()? != 0),
            opcode::BATCH => {
                let completed = c.u32()?;
                let n = c.u32()? as usize;
                if n > payload.len() / 15 + 1 {
                    return Err(format!("failure count {n} exceeds payload capacity"));
                }
                let mut failures = Vec::with_capacity(n);
                for _ in 0..n {
                    let idx = c.u32()?;
                    failures.push((idx, decode_wire_error(&mut c)?));
                }
                Response::Batch { completed, failures }
            }
            opcode::SCAN => {
                let complete = match c.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("bad SCAN complete flag {other}")),
                };
                let n = c.u32()? as usize;
                // Each entry needs ≥ 12 bytes; reject counts the payload
                // cannot hold before allocating for them.
                if n > payload.len() / 12 + 1 {
                    return Err(format!("scan count {n} exceeds payload capacity"));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = c.u64()?;
                    let vlen = c.u32()? as usize;
                    entries.push((key, c.take(vlen)?.to_vec()));
                }
                Response::Scan { complete, entries }
            }
            opcode::PING => Response::Pong,
            other => return Err(format!("unknown response kind {other}")),
        },
        other => return Err(format!("bad status byte {other}")),
    };
    c.done()?;
    Ok(ResponseFrame { id, resp })
}

// ---------------------------------------------------------------------------
// Framing.

/// Writes one frame (`len`, `crc`, payload) to `w` with one vectored
/// write — one `writev` on a socket — unless the stream takes it in parts.
/// Does not flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut hdr = [0u8; FRAME_HDR];
    hdr[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    let mut parts = [IoSlice::new(&hdr), IoSlice::new(payload)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Why a blocking [`read_frame`] did not produce a payload.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream at a frame boundary.
    Eof,
    /// The stream ended mid-frame.
    Truncated,
    /// The declared length was zero.
    Empty,
    /// The declared length exceeds the limit; the payload was not read.
    TooLarge {
        /// The caller's frame limit.
        limit: u32,
        /// The declared length.
        got: u32,
    },
    /// The payload's CRC-32 did not match the header.
    BadCrc,
    /// An I/O error from the underlying stream.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::TooLarge { limit, got } => {
                write!(f, "frame of {got} bytes exceeds the {limit}-byte limit")
            }
            FrameError::BadCrc => write!(f, "frame CRC mismatch"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Blocking frame read into `buf` (replaced, not appended). Distinguishes
/// a clean EOF at a frame boundary from a mid-frame truncation.
pub fn read_frame(
    r: &mut impl Read,
    max_frame: usize,
    buf: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let mut hdr = [0u8; FRAME_HDR];
    let mut pos = 0;
    while pos < hdr.len() {
        match r.read(&mut hdr[pos..]) {
            Ok(0) => {
                return Err(if pos == 0 { FrameError::Eof } else { FrameError::Truncated })
            }
            Ok(n) => pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let (len, crc) = frame_header(&hdr, max_frame)?;
    buf.clear();
    buf.resize(len, 0);
    let mut pos = 0;
    while pos < buf.len() {
        match r.read(&mut buf[pos..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    if crc32(buf) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok(())
}

/// A frame header's payload length and CRC; an empty or oversized frame
/// is refused here, before its payload is read.
fn frame_header(hdr: &[u8], max_frame: usize) -> Result<(usize, u32), FrameError> {
    let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len as usize > max_frame {
        return Err(FrameError::TooLarge { limit: max_frame as u32, got: len });
    }
    Ok((len as usize, crc))
}

/// A connection's receive side: frames parsed out of a buffer that each
/// `read` fills with whatever the stream has, so one read brings a whole
/// small frame — or several pipelined ones — where [`read_frame`] spends
/// two reads on each.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes before `start` are consumed; `start..end` is buffered input.
    start: usize,
    end: usize,
    /// Header plus payload of the frame at `start`, once its header is
    /// buffered and checked against the frame limit; 0 before that.
    frame_len: usize,
}

/// What [`FrameReader::fill`] asks of the stream when the buffer has room
/// to spare: enough for a few small frames.
const READ_CHUNK: usize = 4096;

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no unconsumed byte is buffered — no frame has started.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Forgets everything buffered (the stream it came from is gone).
    pub fn clear(&mut self) {
        (self.start, self.end, self.frame_len) = (0, 0, 0);
    }

    /// The next whole frame's payload, if the buffer holds one; `Ok(None)`
    /// when more bytes are needed. The header is checked as soon as it is
    /// buffered, so an empty or oversized frame is refused before its
    /// payload is read.
    pub fn next_frame(&mut self, max_frame: usize) -> Result<Option<&[u8]>, FrameError> {
        Ok(self.next_range(max_frame)?.map(|r| &self.buf[r]))
    }

    /// [`FrameReader::next_frame`] as a range of the buffer, consumed.
    fn next_range(&mut self, max_frame: usize) -> Result<Option<Range<usize>>, FrameError> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < FRAME_HDR {
            return Ok(None);
        }
        let (len, crc) = frame_header(avail, max_frame)?;
        self.frame_len = FRAME_HDR + len;
        let Some(payload) = avail.get(FRAME_HDR..self.frame_len) else {
            return Ok(None);
        };
        if crc32(payload) != crc {
            return Err(FrameError::BadCrc);
        }
        let at = self.start + FRAME_HDR;
        self.start = at + len;
        self.frame_len = 0;
        if self.start == self.end {
            // Drained: the next read starts at the front again (the bytes
            // just handed out stay put until then).
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(at..at + len))
    }

    /// One `read` from `r` into the buffer, after making room: for the
    /// whole frame that has started, once [`FrameReader::next_frame`] has
    /// checked its header, and for at least a few small frames more.
    /// Returns the bytes read; 0 is the end of the stream.
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let pending = self.end - self.start;
        let want = self.frame_len.max(pending + READ_CHUNK);
        if pending == 0 && self.buf.len() > 16 * READ_CHUNK {
            // A large frame is done with: give its room back.
            self.buf = Vec::new();
        }
        if self.start + want > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, pending);
            if want > self.buf.len() {
                self.buf.resize(want, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Blocks until a whole frame is buffered and returns its payload —
    /// [`read_frame`], through the buffer.
    pub fn read_frame(&mut self, r: &mut impl Read, max_frame: usize) -> Result<&[u8], FrameError> {
        loop {
            if let Some(range) = self.next_range(max_frame)? {
                return Ok(&self.buf[range]);
            }
            match self.fill(r) {
                Ok(0) if self.is_empty() => return Err(FrameError::Eof),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(frame: RequestFrame) {
        let mut p = Vec::new();
        encode_request(&frame, &mut p);
        assert_eq!(decode_request(&p).unwrap(), frame);
    }

    fn roundtrip_resp(frame: ResponseFrame) {
        let mut p = Vec::new();
        encode_response(&frame, &mut p);
        assert_eq!(decode_response(&p).unwrap(), frame);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(RequestFrame {
            id: 7,
            deadline_us: 1500,
            req: Request::Put { key: 42, value: vec![0xAB; 64] },
        });
        roundtrip_req(RequestFrame { id: 8, deadline_us: 0, req: Request::Get { key: 1 } });
        roundtrip_req(RequestFrame { id: 9, deadline_us: 0, req: Request::Delete { key: 2 } });
        roundtrip_req(RequestFrame { id: 10, deadline_us: 0, req: Request::Ping });
        roundtrip_req(RequestFrame {
            id: 11,
            deadline_us: 250,
            req: Request::Scan { lo: 10, hi: u64::MAX, limit: 1000 },
        });
        roundtrip_req(RequestFrame {
            id: u64::MAX,
            deadline_us: u32::MAX,
            req: Request::Batch {
                ops: vec![
                    WireOp::Put { key: 1, value: vec![1, 2, 3] },
                    WireOp::Delete { key: 2 },
                    WireOp::Put { key: 3, value: vec![] },
                ],
            },
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(ResponseFrame { id: 1, resp: Response::Put });
        roundtrip_resp(ResponseFrame { id: 2, resp: Response::Get(None) });
        roundtrip_resp(ResponseFrame { id: 3, resp: Response::Get(Some(vec![9; 32])) });
        roundtrip_resp(ResponseFrame { id: 4, resp: Response::Delete(true) });
        roundtrip_resp(ResponseFrame { id: 5, resp: Response::Pong });
        roundtrip_resp(ResponseFrame {
            id: 11,
            resp: Response::Scan { complete: true, entries: vec![] },
        });
        roundtrip_resp(ResponseFrame {
            id: 12,
            resp: Response::Scan {
                complete: false,
                entries: vec![(1, vec![0xAA; 16]), (2, vec![]), (u64::MAX, vec![7; 8])],
            },
        });
        roundtrip_resp(ResponseFrame {
            id: 6,
            resp: Response::Batch {
                completed: 63,
                failures: vec![
                    (7, WireError::Full),
                    (8, WireError::Backpressure { shard: 3, depth: 1024 }),
                ],
            },
        });
    }

    #[test]
    fn every_wire_error_roundtrips() {
        let errors = [
            WireError::Full,
            WireError::WrongValueSize { expected: 64, got: 3 },
            WireError::ModelUnavailable,
            WireError::Backpressure { shard: 5, depth: 256 },
            WireError::Config("bad".into()),
            WireError::Nvm("crashed".into()),
            WireError::Corrupt("checkpoint CRC".into()),
            WireError::DeadlineExceeded,
            WireError::Overloaded,
            WireError::Draining,
            WireError::Protocol("trailing bytes".into()),
            WireError::TooLarge { limit: 1024, got: 4096 },
            WireError::Corruption { key: u64::MAX - 5, shard: 3 },
        ];
        let mut codes: Vec<u8> = errors.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "codes must be distinct");
        for e in errors {
            roundtrip_resp(ResponseFrame { id: 9, resp: Response::Err(e) });
        }
    }

    #[test]
    fn store_errors_map_losslessly() {
        let e: WireError = (&StoreError::Backpressure { shard: 2, depth: 77 }).into();
        assert_eq!(e, WireError::Backpressure { shard: 2, depth: 77 });
        let e: WireError = (&StoreError::WrongValueSize { expected: 8, got: 4 }).into();
        assert_eq!(e, WireError::WrongValueSize { expected: 8, got: 4 });
        let e: WireError = (&StoreError::ModelUnavailable).into();
        assert_eq!(e, WireError::ModelUnavailable);
        assert_ne!(e, WireError::Full, "ModelUnavailable must never collapse into Full");
        let e: WireError = (&StoreError::Corrupt("sb".into())).into();
        assert_eq!(e, WireError::Corrupt("sb".into()));
        let e: WireError = (&StoreError::Corruption { key: 1 << 40, shard: 2 }).into();
        assert_eq!(e, WireError::Corruption { key: 1 << 40, shard: 2 });
    }

    #[test]
    fn retryable_classification() {
        assert!(WireError::Backpressure { shard: 0, depth: 1 }.is_retryable());
        assert!(WireError::Overloaded.is_retryable());
        assert!(WireError::DeadlineExceeded.is_retryable());
        assert!(WireError::Draining.is_retryable());
        assert!(!WireError::Full.is_retryable());
        assert!(!WireError::Protocol("x".into()).is_retryable());
        assert!(
            !WireError::Corruption { key: 1, shard: 0 }.is_retryable(),
            "retrying corruption re-reads the same bad cells"
        );
    }

    #[test]
    fn framing_roundtrip_and_crc() {
        let payload = b"predict and write".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(wire.len(), FRAME_HDR + payload.len());

        let mut buf = Vec::new();
        read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME, &mut buf).unwrap();
        assert_eq!(buf, payload);

        // A flipped payload bit is caught by the CRC.
        let mut torn = wire.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x10;
        assert!(matches!(
            read_frame(&mut torn.as_slice(), DEFAULT_MAX_FRAME, &mut buf),
            Err(FrameError::BadCrc)
        ));

        // A truncated stream is distinguished from a clean EOF.
        let cut = &wire[..wire.len() - 3];
        assert!(matches!(
            read_frame(&mut &cut[..], DEFAULT_MAX_FRAME, &mut buf),
            Err(FrameError::Truncated)
        ));
        assert!(matches!(
            read_frame(&mut &[][..], DEFAULT_MAX_FRAME, &mut buf),
            Err(FrameError::Eof)
        ));
    }

    /// A writer that records each call it gets and takes only `cap` bytes
    /// of it, as a socket with a full send buffer would.
    struct CountingWriter {
        calls: usize,
        cap: usize,
        wire: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let before = self.wire.len();
            for b in bufs {
                let room = self.cap - (self.wire.len() - before);
                self.wire.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.wire.len() - before)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_call_and_survives_short_writes() {
        let payload = vec![0x5Au8; 100];
        let mut one = CountingWriter { calls: 0, cap: usize::MAX, wire: Vec::new() };
        write_frame(&mut one, &payload).unwrap();
        assert_eq!(one.calls, 1, "header and payload leave together");
        let mut short = CountingWriter { calls: 0, cap: 7, wire: Vec::new() };
        write_frame(&mut short, &payload).unwrap();
        assert_eq!(short.wire, one.wire, "a short write resumes mid-slice");
        assert_eq!(short.calls, (FRAME_HDR + 100).div_ceil(7));
        let mut buf = Vec::new();
        read_frame(&mut one.wire.as_slice(), DEFAULT_MAX_FRAME, &mut buf).unwrap();
        assert_eq!(buf, payload);
    }

    /// A reader that hands out at most `chunk` bytes per call and counts
    /// the calls.
    struct ChunkedReader<'a> {
        data: &'a [u8],
        chunk: usize,
        calls: usize,
    }

    impl Read for ChunkedReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.chunk).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn wire_of(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            write_frame(&mut wire, p).unwrap();
        }
        wire
    }

    #[test]
    fn pipelined_frames_come_out_of_one_read() {
        let payloads: Vec<Vec<u8>> = (1..=3u8).map(|i| vec![i; 30 * i as usize]).collect();
        let wire = wire_of(&payloads);
        let mut r = ChunkedReader { data: &wire, chunk: usize::MAX, calls: 0 };
        let mut frames = FrameReader::new();
        for p in &payloads {
            assert_eq!(frames.read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), &p[..]);
        }
        assert_eq!(r.calls, 1, "three frames, one read");
        assert!(frames.is_empty());
        assert!(matches!(frames.read_frame(&mut r, DEFAULT_MAX_FRAME), Err(FrameError::Eof)));
    }

    #[test]
    fn a_frame_larger_than_the_buffer_arrives_whole_through_short_reads() {
        let payloads = vec![vec![7u8; 3 * READ_CHUNK + 5], vec![9u8; 12]];
        let wire = wire_of(&payloads);
        let mut r = ChunkedReader { data: &wire, chunk: 1000, calls: 0 };
        let mut frames = FrameReader::new();
        for p in &payloads {
            assert_eq!(frames.read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), &p[..]);
        }
        // A stream that ends inside a frame is a truncation, not an EOF.
        let cut = &wire[..wire.len() - 3];
        let mut r = ChunkedReader { data: cut, chunk: 1000, calls: 0 };
        let mut frames = FrameReader::new();
        frames.read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap();
        assert!(matches!(frames.read_frame(&mut r, DEFAULT_MAX_FRAME), Err(FrameError::Truncated)));
    }

    #[test]
    fn the_buffered_reader_refuses_bad_headers_before_their_payload() {
        let mut frames = FrameReader::new();
        let hdr = [&1000u32.to_le_bytes()[..], &[0; 4]].concat();
        let mut r = ChunkedReader { data: &hdr, chunk: 8, calls: 0 };
        assert!(matches!(
            frames.read_frame(&mut r, 64),
            Err(FrameError::TooLarge { limit: 64, got: 1000 })
        ));
        let mut frames = FrameReader::new();
        let mut r = ChunkedReader { data: &[0u8; FRAME_HDR], chunk: 8, calls: 0 };
        assert!(matches!(frames.read_frame(&mut r, 64), Err(FrameError::Empty)));
        let mut torn = wire_of(&[b"abc".to_vec()]);
        torn[4] ^= 1;
        let mut frames = FrameReader::new();
        let mut r = ChunkedReader { data: &torn, chunk: 64, calls: 0 };
        assert!(matches!(frames.read_frame(&mut r, 64), Err(FrameError::BadCrc)));
    }

    #[test]
    fn oversized_and_empty_frames_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 100]).unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 64, &mut buf),
            Err(FrameError::TooLarge { limit: 64, got: 100 })
        ));
        let empty = [0u8; FRAME_HDR];
        assert!(matches!(
            read_frame(&mut &empty[..], 64, &mut buf),
            Err(FrameError::Empty)
        ));
    }

    #[test]
    fn garbage_payload_decodes_to_error_not_panic() {
        // Deterministic fuzz-ish sweep: random-ish bytes must never panic
        // the decoders, only return Err.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for len in 0..64usize {
            let mut payload = vec![0u8; len];
            for b in &mut payload {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = state as u8;
            }
            let _ = decode_request(&payload);
            let _ = decode_response(&payload);
        }
        // Trailing garbage after a valid message is rejected.
        let mut p = Vec::new();
        encode_request(
            &RequestFrame { id: 1, deadline_us: 0, req: Request::Get { key: 5 } },
            &mut p,
        );
        p.push(0xFF);
        assert!(decode_request(&p).is_err());
    }
}
