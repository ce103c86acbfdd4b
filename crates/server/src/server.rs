//! The serving front end: accept loop, per-connection handlers, admission
//! gate, and the drain state machine.
//!
//! # Threading model
//!
//! One OS thread per connection, bounded by [`ServerConfig::max_conns`].
//! The store API is blocking (`Store::put` may wait on a shard's
//! flat-combining engine), so every in-flight request needs a thread
//! anyway; a reactor multiplexing many connections onto few threads would
//! let one blocked store call stall every connection sharing its thread.
//! The admission gate — not the thread count — is what bounds
//! concurrent store work.
//!
//! # Admission control
//!
//! Two layers, each producing a *typed* wire error:
//!
//! 1. The server gate caps requests executing ([`ServerConfig::max_inflight`])
//!    and waiting ([`ServerConfig::max_waiting`]). A request that cannot
//!    even wait gets [`WireError::Overloaded`]; one whose deadline expires
//!    while waiting gets [`WireError::DeadlineExceeded`]. Permits are RAII
//!    ([`Drop`]-released), so an error path can never leak a slot.
//! 2. The store's own bounded per-shard write queues reject with
//!    [`StoreError::Backpressure`], forwarded losslessly as
//!    [`WireError::Backpressure`] with the shard id and queue depth.
//!
//! # Drain
//!
//! `drain()` runs the graceful-shutdown state machine: set the draining
//! flag (the accept loop stops accepting, connections answer
//! [`WireError::Draining`] to new frames for a short grace window, then
//! close) → wait for in-flight requests and connections to finish, bounded
//! by [`ServerConfig::drain_deadline`] → checkpoint the store → return.
//! `abort()` is the unclean variant for crash testing: connections are cut
//! and **no checkpoint is written**, so recovery replays the WAL.

use std::io::Write;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pnw_core::{Batch, Store, StoreError};

use crate::net::{Conn, ServerAddr};
use crate::protocol::{
    decode_request, encode_response, write_frame, FrameError, FrameReader, Request, RequestFrame,
    Response, ResponseFrame, WireError, DEFAULT_MAX_FRAME,
};

/// How often a parked connection thread wakes to check the draining and
/// stopped flags (and its idle budget).
const POLL: Duration = Duration::from_millis(50);

/// Tuning knobs for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest frame payload accepted or sent, in bytes. A larger declared
    /// length is answered with [`WireError::TooLarge`] and the connection
    /// is quarantined.
    pub max_frame: usize,
    /// Concurrent connections accepted; further connects receive a
    /// best-effort [`WireError::Overloaded`] and are closed.
    pub max_conns: usize,
    /// Requests executing against the store at once (gate permits).
    pub max_inflight: usize,
    /// Requests allowed to *wait* for a permit; the request after that is
    /// rejected immediately with [`WireError::Overloaded`].
    pub max_waiting: usize,
    /// A connection with no complete frame for this long is closed.
    pub idle_timeout: Duration,
    /// Once a frame's first byte arrives, the whole frame must arrive
    /// within this budget or the connection is quarantined as stalled
    /// mid-frame (defeats a client that sends half a frame and walks
    /// away). The connection loop notices at its next 50 ms poll tick.
    /// Also the budget for sending one response.
    pub frame_timeout: Duration,
    /// How long connections keep answering [`WireError::Draining`] after
    /// drain starts before closing — long enough for a pipelining client
    /// to observe the typed error instead of a bare EOF.
    pub drain_grace: Duration,
    /// Hard bound on the whole drain: past this, remaining connections are
    /// cut and the drain is reported as forced.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame: DEFAULT_MAX_FRAME,
            max_conns: 64,
            max_inflight: 32,
            max_waiting: 128,
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(2),
            drain_grace: Duration::from_millis(200),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

// ---------------------------------------------------------------------------
// Admission gate.

#[derive(Debug)]
struct GateState {
    executing: usize,
    waiting: usize,
    closed: bool,
}

/// Why [`Gate::acquire`] refused a permit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateReject {
    /// Executing and waiting rooms are both full.
    Overloaded,
    /// The request's deadline expired while waiting for a permit.
    DeadlineExceeded,
    /// The gate was closed (server draining or stopping).
    Closed,
}

/// Bounded two-stage admission: at most `max_inflight` permits out, at
/// most `max_waiting` callers parked waiting for one.
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_inflight: usize,
    max_waiting: usize,
}

impl Gate {
    fn new(max_inflight: usize, max_waiting: usize) -> Self {
        Gate {
            state: Mutex::new(GateState { executing: 0, waiting: 0, closed: false }),
            cv: Condvar::new(),
            max_inflight: max_inflight.max(1),
            max_waiting,
        }
    }

    /// Acquires a permit, waiting until `deadline` (forever if `None`).
    fn acquire(&self, deadline: Option<Instant>) -> Result<GatePermit<'_>, GateReject> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(GateReject::Closed);
        }
        if st.executing < self.max_inflight {
            st.executing += 1;
            return Ok(GatePermit { gate: self });
        }
        if st.waiting >= self.max_waiting {
            return Err(GateReject::Overloaded);
        }
        st.waiting += 1;
        let res = loop {
            if st.closed {
                break Err(GateReject::Closed);
            }
            if st.executing < self.max_inflight {
                st.executing += 1;
                break Ok(());
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break Err(GateReject::DeadlineExceeded);
                    }
                    let (g, _) = self.cv.wait_timeout(st, d - now).unwrap();
                    st = g;
                }
                None => st = self.cv.wait(st).unwrap(),
            }
        };
        st.waiting -= 1;
        drop(st);
        res.map(|()| GatePermit { gate: self })
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    fn in_use(&self) -> (usize, usize) {
        let st = self.state.lock().unwrap();
        (st.executing, st.waiting)
    }
}

/// An execution slot; returning it (on any path, including panics and
/// error returns) is [`Drop`]'s job, so a slot cannot leak.
#[derive(Debug)]
struct GatePermit<'a> {
    gate: &'a Gate,
}

impl Drop for GatePermit<'_> {
    /// Wakes waiters only when there are some: a `notify_all` with nobody
    /// parked is still a futex syscall.
    fn drop(&mut self) {
        let mut st = self.gate.state.lock().unwrap();
        st.executing -= 1;
        let waiters = st.waiting > 0;
        drop(st);
        if waiters {
            self.gate.cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Shared server state and statistics.

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    conn_rejects: AtomicU64,
    requests_ok: AtomicU64,
    requests_err: AtomicU64,
    overload_rejects: AtomicU64,
    deadline_rejects: AtomicU64,
    backpressure_errors: AtomicU64,
    draining_rejects: AtomicU64,
    quarantined: AtomicU64,
    corruption_errors: AtomicU64,
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections currently open.
    pub active_conns: usize,
    /// Requests executing against the store right now.
    pub executing: usize,
    /// Requests parked waiting for a gate permit right now.
    pub waiting: usize,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections refused because `max_conns` was reached.
    pub conn_rejects: u64,
    /// Requests answered with an ok status.
    pub requests_ok: u64,
    /// Requests answered with any error status.
    pub requests_err: u64,
    /// Requests rejected with [`WireError::Overloaded`].
    pub overload_rejects: u64,
    /// Requests rejected with [`WireError::DeadlineExceeded`].
    pub deadline_rejects: u64,
    /// Store-level [`WireError::Backpressure`] errors forwarded.
    pub backpressure_errors: u64,
    /// Requests rejected with [`WireError::Draining`].
    pub draining_rejects: u64,
    /// Connections quarantined (closed) for protocol violations.
    pub quarantined: u64,
    /// [`WireError::Corruption`] errors served — every one is a read that
    /// was detected as corrupt instead of silently returning bad bytes.
    pub corruption_errors: u64,
}

struct Shared {
    store: Arc<dyn Store>,
    cfg: ServerConfig,
    gate: Gate,
    /// Graceful shutdown requested: stop accepting, answer `Draining`.
    draining: AtomicBool,
    /// Hard stop: connection loops exit at the next poll tick.
    stopped: AtomicBool,
    conns: Mutex<usize>,
    conns_cv: Condvar,
    stats: Counters,
}

impl Shared {
    /// Counts a connection in; the count comes back when the returned slot
    /// drops — on a handler's unwind too, so a store op that panics costs
    /// its connection, not a `max_conns` slot and the drain's deadline.
    fn conn_opened(self: &Arc<Self>) -> ConnSlot {
        *self.conns.lock().unwrap() += 1;
        ConnSlot { shared: Arc::clone(self) }
    }

    /// Waits until no connections remain or `deadline` passes; returns the
    /// number of connections still open.
    fn wait_conns_zero(&self, deadline: Instant) -> usize {
        let mut n = self.conns.lock().unwrap();
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _) = self.conns_cv.wait_timeout(n, deadline - now).unwrap();
            n = g;
        }
        *n
    }
}

/// One open connection's share of [`Shared::conns`].
struct ConnSlot {
    shared: Arc<Shared>,
}

impl Drop for ConnSlot {
    /// Runs on a panicking handler's unwind too, so it must not panic: a
    /// poisoned count is still a valid count.
    fn drop(&mut self) {
        *self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.shared.conns_cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The server proper.

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(addr: &ServerAddr) -> std::io::Result<(Listener, ServerAddr)> {
        match addr {
            ServerAddr::Tcp(spec) => {
                let l = TcpListener::bind(spec)?;
                let bound = ServerAddr::Tcp(l.local_addr()?.to_string());
                l.set_nonblocking(true)?;
                Ok((Listener::Tcp(l), bound))
            }
            ServerAddr::Unix(path) => {
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok((Listener::Unix(l, path.clone()), ServerAddr::Unix(path.clone())))
            }
        }
    }

    /// Nonblocking accept; `Ok(None)` when no connection is pending.
    fn accept(&self) -> std::io::Result<Option<Conn>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true).ok();
                    s.set_nonblocking(false)?;
                    Ok(Some(Conn::Tcp(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Conn::Unix(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What a graceful [`Server::drain`] accomplished.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// `true` when every connection closed within the drain deadline;
    /// `false` when stragglers had to be cut.
    pub clean: bool,
    /// Connections still open when the deadline hit (0 on a clean drain).
    pub stragglers: usize,
    /// Wall time the drain took.
    pub elapsed: Duration,
}

/// A running store server. Dropping it without calling [`Server::drain`]
/// or [`Server::abort`] stops it uncleanly (like `abort`, minus the
/// bounded wait for connection threads).
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    local: ServerAddr,
}

impl Server {
    /// Binds `addr` and starts accepting connections against `store`.
    pub fn start(
        store: Arc<dyn Store>,
        addr: &ServerAddr,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let (listener, local) = Listener::bind(addr)?;
        let shared = Arc::new(Shared {
            gate: Gate::new(cfg.max_inflight, cfg.max_waiting),
            store,
            cfg,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            conns: Mutex::new(0),
            conns_cv: Condvar::new(),
            stats: Counters::default(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("pnw-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))?;
        Ok(Server { shared, accept_thread: Some(accept_thread), local })
    }

    /// The address actually bound (for `tcp://…:0`, with the real port).
    pub fn local_addr(&self) -> &ServerAddr {
        &self.local
    }

    /// A snapshot of the server's counters and live gauges.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        let (executing, waiting) = self.shared.gate.in_use();
        ServerStats {
            active_conns: *self.shared.conns.lock().unwrap(),
            executing,
            waiting,
            accepted: s.accepted.load(Ordering::Relaxed),
            conn_rejects: s.conn_rejects.load(Ordering::Relaxed),
            requests_ok: s.requests_ok.load(Ordering::Relaxed),
            requests_err: s.requests_err.load(Ordering::Relaxed),
            overload_rejects: s.overload_rejects.load(Ordering::Relaxed),
            deadline_rejects: s.deadline_rejects.load(Ordering::Relaxed),
            backpressure_errors: s.backpressure_errors.load(Ordering::Relaxed),
            draining_rejects: s.draining_rejects.load(Ordering::Relaxed),
            quarantined: s.quarantined.load(Ordering::Relaxed),
            corruption_errors: s.corruption_errors.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting → answer [`WireError::Draining`]
    /// through a grace window → wait (bounded by
    /// [`ServerConfig::drain_deadline`]) for connections to close →
    /// checkpoint the store. A checkpoint failure is returned after the
    /// network side has already shut down.
    pub fn drain(mut self) -> Result<DrainReport, StoreError> {
        let start = Instant::now();
        let deadline = start + self.shared.cfg.drain_deadline;
        self.shared.draining.store(true, Ordering::SeqCst);
        let stragglers = self.shared.wait_conns_zero(deadline);
        // Force whatever remains, then give those loops a few poll ticks
        // to observe the stop flag so their threads actually exit.
        self.shutdown_network();
        if stragglers > 0 {
            self.shared.wait_conns_zero(Instant::now() + 20 * POLL);
        }
        self.shared.store.checkpoint()?;
        Ok(DrainReport { clean: stragglers == 0, stragglers, elapsed: start.elapsed() })
    }

    /// Unclean shutdown for crash testing: cut connections, **skip the
    /// checkpoint** so the next open must replay the WAL. In-flight store
    /// operations still finish (a process kill mid-store-op is the WAL
    /// torn-write tests' territory); responses may or may not be
    /// delivered — exactly the window the acknowledged-prefix recovery
    /// test exercises.
    pub fn abort(mut self) {
        self.shutdown_network();
        self.shared.wait_conns_zero(Instant::now() + 40 * POLL);
    }

    fn shutdown_network(&mut self) {
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.gate.close();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_network();
    }
}

fn accept_loop(shared: Arc<Shared>, listener: Listener) {
    loop {
        if shared.stopped.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok(Some(conn)) => {
                let at_cap = *shared.conns.lock().unwrap() >= shared.cfg.max_conns;
                if at_cap {
                    shared.stats.conn_rejects.fetch_add(1, Ordering::Relaxed);
                    reject_conn(conn);
                    continue;
                }
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                let slot = shared.conn_opened();
                // A failed spawn drops the closure, and the slot with it.
                let _ = std::thread::Builder::new()
                    .name("pnw-conn".into())
                    .spawn(move || handle_conn(&slot.shared, conn));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Listener drops here; a Unix socket file is removed with it.
}

/// Best-effort typed rejection for a connection past `max_conns`.
fn reject_conn(mut conn: Conn) {
    let mut payload = Vec::new();
    encode_response(
        &ResponseFrame { id: 0, resp: Response::Err(WireError::Overloaded) },
        &mut payload,
    );
    let _ = write_frame(&mut conn, &payload);
    let _ = conn.flush();
    let _ = conn.shutdown();
}

// ---------------------------------------------------------------------------
// Per-connection handler.

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Why a connection's frame loop quarantines it: the typed error it is
/// sent before the close.
fn frame_wire_error(err: FrameError) -> WireError {
    match err {
        FrameError::TooLarge { limit, got } => WireError::TooLarge { limit, got },
        other => WireError::Protocol(other.to_string()),
    }
}

/// One connection's frame loop. Every `read` — under one read timeout,
/// [`POLL`], set once — fills the connection's [`FrameReader`] with
/// whatever has arrived, and every whole frame buffered is served before
/// the next read, so a small request costs one read and its response one
/// write. A timeout with no frame started checks the drain and stop flags
/// and the idle budget; with a frame started, it quarantines the sender
/// once [`ServerConfig::frame_timeout`] has passed since the read that
/// brought the frame's first byte.
fn handle_conn(shared: &Shared, mut conn: Conn) {
    if conn.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let _ = conn.set_write_timeout(Some(shared.cfg.frame_timeout));
    let mut frames = FrameReader::new();
    let mut out = Vec::new();
    // When the last read returned, when the oldest unserved byte arrived,
    // and when the last whole frame did.
    let mut last_read = Instant::now();
    let mut frame_since = last_read;
    let mut idle_since = last_read;
    let mut draining_since: Option<Instant> = None;
    loop {
        if shared.stopped.load(Ordering::SeqCst) {
            break;
        }
        if shared.draining.load(Ordering::SeqCst) {
            let t = *draining_since.get_or_insert_with(Instant::now);
            if t.elapsed() >= shared.cfg.drain_grace {
                break;
            }
        }
        let frame = match frames.next_frame(shared.cfg.max_frame) {
            Ok(Some(payload)) => decode_request(payload).map_err(|msg| {
                // The frame was intact (CRC passed) but the payload does
                // not decode: the request id is recoverable from the
                // fixed prefix.
                let id = payload
                    .get(0..8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                (id, WireError::Protocol(msg))
            }),
            Ok(None) => {
                let started = !frames.is_empty();
                match frames.fill(&mut conn) {
                    // End of stream: clean between frames, a truncation
                    // inside one.
                    Ok(0) if !started => break,
                    Ok(0) => Err((0, frame_wire_error(FrameError::Truncated))),
                    Ok(_) => {
                        last_read = Instant::now();
                        if !started {
                            frame_since = last_read;
                        }
                        continue;
                    }
                    Err(e) if is_timeout(&e) => {
                        if started && frame_since.elapsed() >= shared.cfg.frame_timeout {
                            Err((0, WireError::Protocol("frame stalled mid-read".into())))
                        } else if !started && idle_since.elapsed() >= shared.cfg.idle_timeout {
                            break;
                        } else {
                            continue;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            Err(err) => Err((0, frame_wire_error(err))),
        };
        let frame = match frame {
            Ok(f) => f,
            Err((id, wire)) => {
                // Every malformed frame quarantines exactly this
                // connection: best-effort typed error, then close.
                shared.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                shared.stats.requests_err.fetch_add(1, Ordering::Relaxed);
                send_resp(&mut conn, &mut out, ResponseFrame { id, resp: Response::Err(wire) });
                break;
            }
        };
        // The rest of the buffer, if any, came with the last read.
        (idle_since, frame_since) = (last_read, last_read);
        let resp = execute(shared, frame, last_read);
        let failed = matches!(resp.resp, Response::Err(_));
        if failed {
            shared.stats.requests_err.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.stats.requests_ok.fetch_add(1, Ordering::Relaxed);
        }
        if !send_resp(&mut conn, &mut out, resp) {
            break;
        }
    }
    let _ = conn.shutdown();
}

fn send_resp(conn: &mut Conn, scratch: &mut Vec<u8>, frame: ResponseFrame) -> bool {
    encode_response(&frame, scratch);
    write_frame(conn, scratch).and_then(|()| conn.flush()).is_ok()
}

/// Runs one decoded request to a response. Admission order: drain check →
/// gate (bounded wait, deadline-aware) → post-wait deadline check → store.
fn execute(shared: &Shared, frame: RequestFrame, recv: Instant) -> ResponseFrame {
    let RequestFrame { id, deadline_us, req } = frame;
    // PING bypasses admission: it measures liveness, not store capacity,
    // and must keep answering during drain.
    if matches!(req, Request::Ping) {
        return ResponseFrame { id, resp: Response::Pong };
    }
    if shared.draining.load(Ordering::SeqCst) {
        shared.stats.draining_rejects.fetch_add(1, Ordering::Relaxed);
        return ResponseFrame { id, resp: Response::Err(WireError::Draining) };
    }
    let deadline =
        (deadline_us > 0).then(|| recv + Duration::from_micros(u64::from(deadline_us)));
    let permit = match shared.gate.acquire(deadline) {
        Ok(p) => p,
        Err(GateReject::Overloaded) => {
            shared.stats.overload_rejects.fetch_add(1, Ordering::Relaxed);
            return ResponseFrame { id, resp: Response::Err(WireError::Overloaded) };
        }
        Err(GateReject::DeadlineExceeded) => {
            shared.stats.deadline_rejects.fetch_add(1, Ordering::Relaxed);
            return ResponseFrame { id, resp: Response::Err(WireError::DeadlineExceeded) };
        }
        Err(GateReject::Closed) => {
            shared.stats.draining_rejects.fetch_add(1, Ordering::Relaxed);
            return ResponseFrame { id, resp: Response::Err(WireError::Draining) };
        }
    };
    // Admitted, but possibly too late: the op has not touched the store
    // yet, so rejecting here is still side-effect-free.
    if let Some(d) = deadline {
        if Instant::now() >= d {
            shared.stats.deadline_rejects.fetch_add(1, Ordering::Relaxed);
            drop(permit);
            return ResponseFrame { id, resp: Response::Err(WireError::DeadlineExceeded) };
        }
    }
    let resp = run_store_op(shared, req);
    drop(permit);
    match &resp {
        Response::Err(WireError::Backpressure { .. }) => {
            shared.stats.backpressure_errors.fetch_add(1, Ordering::Relaxed);
        }
        Response::Err(WireError::Corruption { .. }) => {
            shared.stats.corruption_errors.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    ResponseFrame { id, resp }
}

fn run_store_op(shared: &Shared, req: Request) -> Response {
    let store = &*shared.store;
    match req {
        Request::Put { key, value } => match store.put(key, &value) {
            Ok(_) => Response::Put,
            Err(e) => Response::Err((&e).into()),
        },
        Request::Get { key } => match store.get(key) {
            Ok(v) => Response::Get(v),
            Err(e) => Response::Err((&e).into()),
        },
        Request::Delete { key } => match store.delete(key) {
            Ok(existed) => Response::Delete(existed),
            Err(e) => Response::Err((&e).into()),
        },
        Request::Batch { ops } => {
            let mut batch = Batch::with_capacity(ops.len());
            for op in &ops {
                match op {
                    crate::protocol::WireOp::Put { key, value } => {
                        batch.put(*key, value);
                    }
                    crate::protocol::WireOp::Delete { key } => {
                        batch.delete(*key);
                    }
                }
            }
            let report = store.apply(&batch);
            Response::Batch {
                completed: report.completed() as u32,
                failures: report
                    .failures
                    .iter()
                    .map(|(i, e)| (*i as u32, e.into()))
                    .collect(),
            }
        }
        Request::Scan { lo, hi, limit } => match store.scan(lo, hi) {
            Ok(mut entries) => {
                let mut complete = true;
                if limit > 0 && entries.len() > limit as usize {
                    entries.truncate(limit as usize);
                    complete = false;
                }
                // Bound the reply by the frame limit too: each entry
                // costs 12 bytes + the value; leave slack for the
                // response prefix. A truncated reply says so, and the
                // client resumes from the last key + 1.
                let budget = shared.cfg.max_frame.saturating_sub(64);
                let mut used = 0usize;
                let mut fit = entries.len();
                for (i, (_, v)) in entries.iter().enumerate() {
                    used += 12 + v.len();
                    if used > budget {
                        fit = i;
                        break;
                    }
                }
                if fit < entries.len() {
                    entries.truncate(fit);
                    complete = false;
                }
                Response::Scan { complete, entries }
            }
            Err(e) => Response::Err((&e).into()),
        },
        Request::Ping => Response::Pong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnw_core::{PnwConfig, PnwStore};

    #[test]
    fn gate_admits_up_to_inflight_then_bounds_waiters() {
        let gate = Gate::new(2, 1);
        let a = gate.acquire(None).unwrap();
        let b = gate.acquire(None).unwrap();
        assert_eq!(gate.in_use(), (2, 0));
        // Third caller with an already-expired deadline: waits, then times
        // out without leaking the waiting slot.
        let expired = Instant::now() - Duration::from_millis(1);
        assert_eq!(gate.acquire(Some(expired)).unwrap_err(), GateReject::DeadlineExceeded);
        assert_eq!(gate.in_use(), (2, 0));
        drop(a);
        let c = gate.acquire(Some(Instant::now() + Duration::from_secs(1))).unwrap();
        drop(b);
        drop(c);
        assert_eq!(gate.in_use(), (0, 0));
    }

    #[test]
    fn gate_rejects_overflow_waiters_immediately() {
        let gate = Gate::new(1, 0);
        let held = gate.acquire(None).unwrap();
        // max_waiting = 0: no waiting room at all.
        assert_eq!(
            gate.acquire(Some(Instant::now() + Duration::from_secs(5))).unwrap_err(),
            GateReject::Overloaded
        );
        drop(held);
    }

    #[test]
    fn gate_close_wakes_waiters() {
        let gate = Arc::new(Gate::new(1, 4));
        let held = gate.acquire(None).unwrap();
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g2.acquire(None).unwrap_err());
        // Give the waiter time to park, then close.
        std::thread::sleep(Duration::from_millis(50));
        gate.close();
        assert_eq!(waiter.join().unwrap(), GateReject::Closed);
        drop(held);
    }

    #[test]
    fn permit_released_on_drop_even_mid_panic() {
        let gate = Arc::new(Gate::new(1, 0));
        let g2 = Arc::clone(&gate);
        let _ = std::thread::spawn(move || {
            let _p = g2.acquire(None).unwrap();
            panic!("op panicked while holding a permit");
        })
        .join();
        // The permit came back despite the panic.
        assert_eq!(gate.in_use(), (0, 0));
        drop(gate.acquire(None).unwrap());
    }

    /// Raw-socket smoke test: a TCP server answers PUT/GET/PING framed by
    /// hand, without the client library.
    #[test]
    fn tcp_server_answers_raw_frames() {
        use crate::protocol::{decode_response, encode_request, read_frame};

        let store: Arc<dyn Store> =
            Arc::new(PnwStore::new(PnwConfig::new(256, 16).with_clusters(2)));
        let server = Server::start(
            store,
            &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
            ServerConfig::default(),
        )
        .unwrap();
        let mut conn = server.local_addr().connect().unwrap();

        let mut payload = Vec::new();
        let mut buf = Vec::new();
        for (id, req) in [
            (1u64, Request::Put { key: 7, value: vec![0xAB; 16] }),
            (2, Request::Get { key: 7 }),
            (3, Request::Get { key: 999 }),
            (4, Request::Ping),
        ] {
            encode_request(&RequestFrame { id, deadline_us: 0, req }, &mut payload);
            write_frame(&mut conn, &payload).unwrap();
        }
        conn.flush().unwrap();
        let mut got = Vec::new();
        for _ in 0..4 {
            read_frame(&mut conn, DEFAULT_MAX_FRAME, &mut buf).unwrap();
            got.push(decode_response(&buf).unwrap());
        }
        assert_eq!(got[0], ResponseFrame { id: 1, resp: Response::Put });
        assert_eq!(got[1], ResponseFrame { id: 2, resp: Response::Get(Some(vec![0xAB; 16])) });
        assert_eq!(got[2], ResponseFrame { id: 3, resp: Response::Get(None) });
        assert_eq!(got[3], ResponseFrame { id: 4, resp: Response::Pong });

        let stats = server.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.requests_ok, 4);
        drop(conn);
        let report = server.drain().unwrap();
        assert!(report.clean);
    }
}
