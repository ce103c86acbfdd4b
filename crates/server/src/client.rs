//! The client library: synchronous calls, explicit pipelining, and the
//! fault-injection hooks the robustness tests attack the server with.
//!
//! # Retry contract
//!
//! The client does not retry; [`ClientError::is_retryable`] tells the
//! caller when re-issuing is safe. That is [`WireError::is_retryable`]
//! errors (backpressure, overload, deadline, draining) and *connection*
//! failures — the op was rejected before being applied, or its fate is
//! unknown and every store op is idempotent (PUT overwrites, DELETE of an
//! absent key reports `false`).

use std::io::Write;
use std::time::Duration;

use crate::net::{Conn, ServerAddr};
use crate::protocol::{
    decode_response, encode_request, write_frame, FrameError, FrameReader, Request, RequestFrame,
    Response, ResponseFrame, WireError, DEFAULT_MAX_FRAME,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// A socket-level failure (connect, send, receive).
    Io(std::io::Error),
    /// The server's frame failed validation (truncated stream, bad CRC…).
    Frame(FrameError),
    /// The server's payload decoded wrongly or answered the wrong id.
    Protocol(String),
    /// A typed error from the server.
    Server(WireError),
}

impl ClientError {
    /// Whether retrying (possibly after a reconnect) can succeed: typed
    /// retryable server errors, and connection-level failures where the
    /// op's fate is unknown but re-issuing is idempotent.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Server(e) => e.is_retryable(),
            ClientError::Io(_) | ClientError::Frame(_) => true,
            ClientError::Protocol(_) => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame from server: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A connection to one [`Server`](crate::Server), with synchronous calls,
/// explicit pipelining, and fault-injection hooks.
pub struct Client {
    addr: ServerAddr,
    conn: Option<Conn>,
    next_id: u64,
    deadline_us: u32,
    req_buf: Vec<u8>,
    /// The connection's receive buffer: one read takes in a whole response,
    /// or several pipelined ones.
    frames: FrameReader,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: &ServerAddr) -> Result<Client, ClientError> {
        let conn = addr.connect()?;
        Ok(Client {
            addr: addr.clone(),
            conn: Some(conn),
            next_id: 1,
            deadline_us: 0,
            req_buf: Vec::new(),
            frames: FrameReader::new(),
        })
    }

    /// Sets the per-request deadline stamped on every subsequent request
    /// (`None` = no deadline). Durations above ~71 minutes saturate.
    pub fn set_deadline(&mut self, d: Option<Duration>) {
        self.deadline_us = match d {
            Some(d) => u32::try_from(d.as_micros()).unwrap_or(u32::MAX).max(1),
            None => 0,
        };
    }

    /// Caps how long a blocking receive waits (`None` = forever).
    pub fn set_recv_timeout(&mut self, d: Option<Duration>) -> Result<(), ClientError> {
        self.live()?.set_read_timeout(d)?;
        Ok(())
    }

    fn live(&mut self) -> Result<&mut Conn, ClientError> {
        self.conn.as_mut().ok_or_else(not_connected)
    }

    // -- pipelining ---------------------------------------------------------

    /// Sends one request without waiting; returns the id to match the
    /// response by. Responses come back in send order on a connection.
    pub fn send(&mut self, req: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = RequestFrame { id, deadline_us: self.deadline_us, req: req.clone() };
        encode_request(&frame, &mut self.req_buf);
        let buf = std::mem::take(&mut self.req_buf);
        let conn = self.live()?;
        let res = write_frame(conn, &buf).and_then(|()| conn.flush());
        self.req_buf = buf;
        res?;
        Ok(id)
    }

    /// Receives the next response frame.
    pub fn recv(&mut self) -> Result<ResponseFrame, ClientError> {
        let conn = self.conn.as_mut().ok_or_else(not_connected)?;
        let payload = self.frames.read_frame(conn, DEFAULT_MAX_FRAME)?;
        decode_response(payload).map_err(ClientError::Protocol)
    }

    // -- synchronous calls --------------------------------------------------

    /// Sends `req` and waits for its response, unwrapping typed errors.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.send(req)?;
        let frame = self.recv()?;
        if frame.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                frame.id
            )));
        }
        match frame.resp {
            Response::Err(e) => Err(ClientError::Server(e)),
            ok => Ok(ok),
        }
    }

    /// Inserts or updates one key.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<(), ClientError> {
        match self.call(&Request::Put { key, value: value.to_vec() })? {
            Response::Put => Ok(()),
            other => Err(unexpected("PUT", &other)),
        }
    }

    /// Reads one key.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(&Request::Get { key })? {
            Response::Get(v) => Ok(v),
            other => Err(unexpected("GET", &other)),
        }
    }

    /// Deletes one key; returns whether it existed.
    pub fn delete(&mut self, key: u64) -> Result<bool, ClientError> {
        match self.call(&Request::Delete { key })? {
            Response::Delete(existed) => Ok(existed),
            other => Err(unexpected("DELETE", &other)),
        }
    }

    /// Applies a batch of writes; returns `(completed, failures)`.
    #[allow(clippy::type_complexity)]
    pub fn batch(
        &mut self,
        ops: Vec<crate::protocol::WireOp>,
    ) -> Result<(u32, Vec<(u32, WireError)>), ClientError> {
        match self.call(&Request::Batch { ops })? {
            Response::Batch { completed, failures } => Ok((completed, failures)),
            other => Err(unexpected("BATCH", &other)),
        }
    }

    /// Ordered range scan over `lo..=hi`. Returns the ascending
    /// `(key, value)` entries plus whether the reply covers the whole
    /// range — `false` means the server truncated at `limit` (0 =
    /// server-chosen) or at its frame budget, and the caller continues
    /// from the last returned key + 1.
    #[allow(clippy::type_complexity)]
    pub fn scan(
        &mut self,
        lo: u64,
        hi: u64,
        limit: u32,
    ) -> Result<(Vec<(u64, Vec<u8>)>, bool), ClientError> {
        match self.call(&Request::Scan { lo, hi, limit })? {
            Response::Scan { complete, entries } => Ok((entries, complete)),
            other => Err(unexpected("SCAN", &other)),
        }
    }

    /// Liveness probe (answered even while the server drains).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("PING", &other)),
        }
    }

    // -- fault injection ----------------------------------------------------

    /// Drops the connection without any protocol goodbye — the peer sees
    /// a hard EOF or reset mid-conversation.
    pub fn kill(&mut self) {
        if let Some(conn) = self.conn.take() {
            let _ = conn.shutdown();
        }
        self.frames.clear();
    }

    /// Opens a fresh connection (after [`Client::kill`] or a server
    /// restart). Pipelined-but-unacked requests are forgotten.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        self.kill();
        self.conn = Some(self.addr.connect()?);
        Ok(())
    }

    /// Writes `bytes` verbatim onto the socket — for frames no honest
    /// encoder would produce.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        let conn = self.live()?;
        conn.write_all(bytes)?;
        conn.flush()?;
        Ok(())
    }

    /// Encodes `req` as a frame but sends only the first `keep` bytes —
    /// a torn frame, as if the sender died mid-write. The connection is
    /// then killed so the server observes the truncation.
    pub fn send_torn_frame(&mut self, req: &Request, keep: usize) -> Result<(), ClientError> {
        let frame =
            RequestFrame { id: self.next_id, deadline_us: self.deadline_us, req: req.clone() };
        self.next_id += 1;
        encode_request(&frame, &mut self.req_buf);
        let mut wire = Vec::new();
        write_frame(&mut wire, &self.req_buf)?;
        let keep = keep.min(wire.len().saturating_sub(1)).max(1);
        let conn = self.live()?;
        conn.write_all(&wire[..keep])?;
        conn.flush()?;
        self.kill();
        Ok(())
    }

    /// Sends `req` as a complete frame whose CRC field has one bit
    /// flipped — an in-flight corruption the server must detect before
    /// decoding a single payload field.
    pub fn send_corrupt_frame(&mut self, req: &Request) -> Result<(), ClientError> {
        let frame =
            RequestFrame { id: self.next_id, deadline_us: self.deadline_us, req: req.clone() };
        self.next_id += 1;
        encode_request(&frame, &mut self.req_buf);
        let mut wire = Vec::new();
        write_frame(&mut wire, &self.req_buf)?;
        wire[4] ^= 0x01; // one bit of the CRC field
        let conn = self.live()?;
        conn.write_all(&wire)?;
        conn.flush()?;
        Ok(())
    }
}

fn not_connected() -> ClientError {
    ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::NotConnected,
        "connection was killed; call reconnect()",
    ))
}

fn unexpected(what: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("{what} answered with mismatched response {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use pnw_core::{PnwConfig, PnwStore, Store};
    use std::sync::Arc;

    fn start_server() -> (Server, Client) {
        let store: Arc<dyn Store> =
            Arc::new(PnwStore::new(PnwConfig::new(256, 16).with_clusters(2)));
        let server = Server::start(
            store,
            &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
            ServerConfig::default(),
        )
        .unwrap();
        let client = Client::connect(server.local_addr()).unwrap();
        (server, client)
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let (server, mut c) = start_server();
        c.put(1, &[7u8; 16]).unwrap();
        assert_eq!(c.get(1).unwrap(), Some(vec![7u8; 16]));
        assert_eq!(c.get(2).unwrap(), None);
        assert!(c.delete(1).unwrap());
        assert!(!c.delete(1).unwrap());
        c.ping().unwrap();
        drop(c);
        server.drain().unwrap();
    }

    #[test]
    fn wrong_value_size_is_a_typed_error() {
        let (server, mut c) = start_server();
        match c.put(1, &[1u8; 3]) {
            Err(ClientError::Server(WireError::WrongValueSize { expected: 16, got: 3 })) => {}
            other => panic!("expected WrongValueSize, got {other:?}"),
        }
        drop(c);
        server.drain().unwrap();
    }

    #[test]
    fn pipelined_batchs_and_singles_interleave() {
        let (server, mut c) = start_server();
        let mut ids = Vec::new();
        for k in 0..8u64 {
            ids.push(c.send(&Request::Put { key: k, value: vec![k as u8; 16] }).unwrap());
        }
        for expected in ids {
            let frame = c.recv().unwrap();
            assert_eq!(frame.id, expected);
            assert_eq!(frame.resp, Response::Put);
        }
        let (completed, failures) = c
            .batch(vec![
                crate::protocol::WireOp::Put { key: 100, value: vec![1u8; 16] },
                crate::protocol::WireOp::Delete { key: 0 },
            ])
            .unwrap();
        assert_eq!(completed, 2);
        assert!(failures.is_empty());
        drop(c);
        server.drain().unwrap();
    }

    #[test]
    fn kill_then_reconnect_restores_service() {
        let (server, mut c) = start_server();
        c.put(1, &[1u8; 16]).unwrap();
        c.kill();
        assert!(c.get(1).is_err());
        c.reconnect().unwrap();
        assert_eq!(c.get(1).unwrap(), Some(vec![1u8; 16]));
        drop(c);
        server.drain().unwrap();
    }
}
