//! Protocol-robustness tests against a live server: malformed frames of
//! every kind quarantine exactly the connection that sent them — the
//! server never panics, never wedges, and keeps serving every other
//! connection — and per-request deadlines produce the typed timeout
//! without leaking an admission slot.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use pnw_core::{Batch, BatchReport, PnwConfig, PnwStore, Store, StoreError};
use pnw_nvm_sim::DeviceStats;
use pnw_server::protocol::FRAME_HDR;
use pnw_server::{Client, ClientError, Request, Server, ServerAddr, ServerConfig, WireError};

const VS: usize = 16;

fn start(cfg: ServerConfig) -> Server {
    let store: Arc<dyn Store> = Arc::new(PnwStore::new(PnwConfig::new(512, VS).with_clusters(2)));
    Server::start(store, &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(), cfg).unwrap()
}

/// A healthy connection proving the server still serves after another
/// connection was abused.
fn assert_still_serving(server: &Server, key: u64) {
    let mut ok = Client::connect(server.local_addr()).unwrap();
    ok.put(key, &[0x5A; VS]).unwrap();
    assert_eq!(ok.get(key).unwrap(), Some(vec![0x5A; VS]));
}

#[test]
fn bit_flipped_frame_quarantines_one_connection_only() {
    let server = start(ServerConfig::default());
    let mut victim = Client::connect(server.local_addr()).unwrap();
    let mut bystander = Client::connect(server.local_addr()).unwrap();
    bystander.put(1, &[1u8; VS]).unwrap();

    // A complete frame whose CRC field has one flipped bit: the server
    // must answer a typed protocol error and close this connection.
    victim.send_corrupt_frame(&Request::Get { key: 1 }).unwrap();
    let resp = victim.recv().unwrap();
    assert_eq!(resp.id, 0, "the corrupt frame's id is unreadable");
    match resp.resp {
        pnw_server::Response::Err(WireError::Protocol(_)) => {}
        other => panic!("expected Protocol error, got {other:?}"),
    }
    // Quarantined: the connection is now dead.
    assert!(victim.get(1).is_err());

    // The bystander never noticed.
    assert_eq!(bystander.get(1).unwrap(), Some(vec![1u8; VS]));
    assert_still_serving(&server, 2);
    assert_eq!(server.stats().quarantined, 1);
    server.drain().unwrap();
}

#[test]
fn truncated_frame_quarantines_without_panic() {
    let server = start(ServerConfig {
        // A short frame budget so the half-frame stall is detected fast.
        frame_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut victim = Client::connect(server.local_addr()).unwrap();
    // Half a frame, then a dead socket.
    victim.send_torn_frame(&Request::Put { key: 9, value: vec![7; VS] }, 6).unwrap();

    // The server sees the truncation (EOF mid-frame) and quarantines.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().quarantined == 0 {
        assert!(std::time::Instant::now() < deadline, "quarantine never recorded");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_still_serving(&server, 3);
    server.drain().unwrap();
}

#[test]
fn stalled_mid_frame_sender_is_quarantined() {
    let server = start(ServerConfig {
        frame_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut victim = Client::connect(server.local_addr()).unwrap();
    // A frame header promising 100 bytes, then silence — the connection
    // stays open but never delivers. The frame budget must cut it off
    // rather than hold the thread hostage.
    let mut hdr = Vec::new();
    hdr.extend_from_slice(&100u32.to_le_bytes());
    hdr.extend_from_slice(&0u32.to_le_bytes());
    victim.send_raw(&hdr).unwrap();

    let resp = victim.recv().unwrap();
    match resp.resp {
        pnw_server::Response::Err(WireError::Protocol(m)) => {
            assert!(m.contains("stalled"), "unexpected message: {m}")
        }
        other => panic!("expected stalled-frame Protocol error, got {other:?}"),
    }
    assert_still_serving(&server, 4);
    server.drain().unwrap();
}

/// The frame budget runs from the read that brought a frame's first byte,
/// and the loop notices at its next poll tick: a stalled frame is cut off
/// no sooner than `frame_timeout`, and well within a second of it.
#[test]
fn a_stalled_frame_is_cut_off_at_its_budget() {
    let budget = Duration::from_millis(300);
    let server = start(ServerConfig { frame_timeout: budget, ..ServerConfig::default() });
    let mut victim = Client::connect(server.local_addr()).unwrap();
    let t = std::time::Instant::now();
    victim.send_raw(&100u32.to_le_bytes()).unwrap();
    let resp = victim.recv().unwrap();
    let took = t.elapsed();
    assert!(matches!(resp.resp, pnw_server::Response::Err(WireError::Protocol(_))));
    assert!(took >= budget && took < budget + Duration::from_secs(1), "{took:?}");
    server.drain().unwrap();
}

/// Frames reach the server however the stream cuts them: three requests
/// in one write are answered in order, and a frame dribbled a few bytes at
/// a time — inside its budget — is served whole.
#[test]
fn frames_are_served_however_the_stream_splits_them() {
    use pnw_server::protocol::{encode_request, write_frame, RequestFrame};

    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let frame = |id: u64, req: Request| {
        let mut payload = Vec::new();
        encode_request(&RequestFrame { id, deadline_us: 0, req }, &mut payload);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        wire
    };
    let mut burst = frame(1, Request::Put { key: 8, value: vec![8; VS] });
    burst.extend(frame(2, Request::Get { key: 8 }));
    burst.extend(frame(3, Request::Ping));
    c.send_raw(&burst).unwrap();
    let ids: Vec<u64> = (0..3).map(|_| c.recv().unwrap().id).collect();
    assert_eq!(ids, [1, 2, 3]);

    for piece in frame(4, Request::Get { key: 8 }).chunks(5) {
        c.send_raw(piece).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp = c.recv().unwrap();
    assert_eq!(resp.id, 4);
    assert_eq!(resp.resp, pnw_server::Response::Get(Some(vec![8; VS])));
    assert_eq!(server.stats().quarantined, 0);
    server.drain().unwrap();
}

#[test]
fn oversized_frame_rejected_with_typed_limit() {
    let server = start(ServerConfig { max_frame: 1024, ..ServerConfig::default() });
    let mut victim = Client::connect(server.local_addr()).unwrap();
    // Declared length far past the limit; the payload is never read.
    let mut hdr = Vec::new();
    hdr.extend_from_slice(&(8 * 1024 * 1024u32).to_le_bytes());
    hdr.extend_from_slice(&0u32.to_le_bytes());
    victim.send_raw(&hdr).unwrap();

    let resp = victim.recv().unwrap();
    match resp.resp {
        pnw_server::Response::Err(WireError::TooLarge { limit: 1024, got }) => {
            assert_eq!(got, 8 * 1024 * 1024);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
    assert!(victim.ping().is_err(), "oversized frame must quarantine");
    assert_still_serving(&server, 5);
    server.drain().unwrap();
}

#[test]
fn empty_and_garbage_frames_never_panic_the_server() {
    let server = start(ServerConfig::default());
    // A zero-length frame, then raw garbage shorter than a header, then
    // a valid-CRC frame whose payload is undecodable — three fresh
    // connections, three quarantines, zero panics.
    let mut c1 = Client::connect(server.local_addr()).unwrap();
    c1.send_raw(&[0u8; FRAME_HDR]).unwrap();
    let mut c2 = Client::connect(server.local_addr()).unwrap();
    c2.send_raw(&[0xFF, 0x01]).unwrap();
    c2.kill();
    let mut c3 = Client::connect(server.local_addr()).unwrap();
    let junk = [0xEEu8; 5];
    let mut frame = Vec::new();
    frame.extend_from_slice(&(junk.len() as u32).to_le_bytes());
    frame.extend_from_slice(&pnw_nvm_sim::crc32(&junk).to_le_bytes());
    frame.extend_from_slice(&junk);
    c3.send_raw(&frame).unwrap();
    match c3.recv().unwrap().resp {
        pnw_server::Response::Err(WireError::Protocol(_)) => {}
        other => panic!("expected Protocol error for undecodable payload, got {other:?}"),
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().quarantined < 3 {
        assert!(std::time::Instant::now() < deadline, "expected 3 quarantines");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_still_serving(&server, 6);
    server.drain().unwrap();
}

// ---------------------------------------------------------------------------
// Deadline expiry without slot leaks.

/// A store whose PUTs block on a test-held mutex — the deterministic way
/// to wedge the server's single admission permit.
struct BlockingStore {
    inner: PnwStore,
    gate: Mutex<()>,
}

impl Store for BlockingStore {
    fn name(&self) -> &'static str {
        "blocking-test-store"
    }
    fn value_size(&self) -> usize {
        self.inner.value_size()
    }
    fn put(&self, key: u64, value: &[u8]) -> Result<pnw_core::OpReport, StoreError> {
        let _held = self.gate.lock().unwrap();
        self.inner.put(key, value)
    }
    fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.get(key)
    }
    fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, StoreError> {
        self.inner.get_into(key, out)
    }
    fn delete(&self, key: u64) -> Result<bool, StoreError> {
        self.inner.delete(key)
    }
    fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        self.inner.scan(lo, hi)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn snapshot(&self) -> pnw_core::StoreSnapshot {
        self.inner.snapshot()
    }
    fn device_stats(&self) -> DeviceStats {
        self.inner.device_stats()
    }
    fn reset_device_stats(&self) {
        self.inner.reset_device_stats()
    }
    fn apply(&self, batch: &Batch) -> BatchReport {
        let _held = self.gate.lock().unwrap();
        self.inner.apply(batch)
    }
}

#[test]
fn deadline_expiry_is_typed_and_leaks_no_slot() {
    let store = Arc::new(BlockingStore {
        inner: PnwStore::new(PnwConfig::new(512, VS).with_clusters(2)),
        gate: Mutex::new(()),
    });
    let server = Server::start(
        Arc::clone(&store) as Arc<dyn Store>,
        &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
        // One permit, room to wait: the blocked PUT owns the permit, the
        // deadlined request waits behind it.
        ServerConfig { max_inflight: 1, max_waiting: 8, ..ServerConfig::default() },
    )
    .unwrap();

    // Wedge the store, then occupy the only permit with a PUT that
    // blocks inside it.
    let held = store.gate.lock().unwrap();
    let addr = server.local_addr().clone();
    let blocked = std::thread::spawn(move || {
        let mut a = Client::connect(&addr).unwrap();
        a.put(1, &[1u8; VS]) // blocks until the test releases the gate
    });
    // Wait until that PUT is executing (holding the permit).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().executing != 1 {
        assert!(std::time::Instant::now() < deadline, "blocked PUT never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A deadlined request behind it: typed timeout, op never applied.
    let mut b = Client::connect(server.local_addr()).unwrap();
    b.set_deadline(Some(Duration::from_millis(50)));
    match b.put(2, &[2u8; VS]) {
        Err(ClientError::Server(WireError::DeadlineExceeded)) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(server.stats().deadline_rejects, 1);
    assert_eq!(server.stats().waiting, 0, "expired waiter must leave the queue");

    // Unblock; the wedged PUT completes.
    drop(held);
    blocked.join().unwrap().unwrap();

    // No leaked slot: the same connection immediately gets the permit.
    b.set_deadline(Some(Duration::from_secs(5)));
    b.put(3, &[3u8; VS]).unwrap();
    assert_eq!(b.get(3).unwrap(), Some(vec![3u8; VS]));
    assert_eq!(server.stats().executing, 0);
    assert_eq!(
        store.get(2).unwrap(),
        None,
        "a deadline-rejected PUT must never reach the store"
    );
    server.drain().unwrap();
}
