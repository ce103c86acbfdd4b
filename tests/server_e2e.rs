//! End-to-end serving tests: typed overload under admission pressure,
//! graceful drain under live load, connection-cap rejection, the
//! Unix-socket transport, and the robustness cells — faulted connections
//! quarantined alone, a crash and restart on the same socket followed by
//! typed saturation, and wearing media that answer exactly or with typed
//! corruption. The cells run a fixed number of closed-loop ops with
//! self-validating values, each connection writing only its own keys, and
//! fail when a property breaks. Served throughput and the open loop are
//! measured by the repository's benchmark (`served-durable`), not here.

use std::collections::HashMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pnw_core::{PnwConfig, PnwStore, ShardedPnwStore, Store, StoreError};
use pnw_server::{Client, ClientError, Request, Server, ServerAddr, ServerConfig, WireError, WireOp};
use rand::{rngs::StdRng, Rng, SeedableRng};

const VS: usize = 16;

/// A store whose PUTs can be wedged by holding `gate`, and whose PUT of
/// `panic_key` panics.
struct Wedge {
    inner: PnwStore,
    gate: Mutex<()>,
    panic_key: Option<u64>,
}

impl Wedge {
    fn new(panic_key: Option<u64>) -> Self {
        Wedge {
            inner: PnwStore::new(PnwConfig::new(256, VS).with_clusters(2)),
            gate: Mutex::new(()),
            panic_key,
        }
    }
}

impl Store for Wedge {
    fn name(&self) -> &'static str {
        "wedge"
    }
    fn value_size(&self) -> usize {
        self.inner.value_size()
    }
    fn put(&self, key: u64, value: &[u8]) -> Result<pnw_core::OpReport, StoreError> {
        if self.panic_key == Some(key) {
            panic!("store op panicked on key {key}");
        }
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
    fn device_stats(&self) -> pnw_nvm_sim::DeviceStats {
        self.inner.device_stats()
    }
    fn reset_device_stats(&self) {
        self.inner.reset_device_stats()
    }
}

/// A fresh directory for one cell's socket and durable store.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnw_server_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A self-validating value: `key ‖ version`, then bytes derived from both,
/// so a value served for the wrong key, from an older write or torn,
/// never compares equal.
fn value(key: u64, version: u64, size: usize) -> Vec<u8> {
    let mut v = [key.to_le_bytes(), version.to_le_bytes()].concat();
    let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version | 1;
    while v.len() < size {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x as u8);
    }
    v.truncate(size);
    v
}

/// Polls `done` until it holds, failing the test after `within`.
fn wait_until(within: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + within;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `ops` closed-loop PUT/GET/DELETE on `keys`, which this connection alone
/// writes, checking every answer. Without `wearing`, every op succeeds
/// with the one answer its key allows. With it, any op may fail with a
/// typed server error instead — a failed write may or may not have landed,
/// so its value (or absence) joins what the key may read as — but a GET
/// that answers still never serves a value outside that set. Returns the
/// typed `Corruption` answers seen.
fn honest_load(
    addr: &ServerAddr,
    keys: Range<u64>,
    ops: u64,
    vs: usize,
    wearing: bool,
    seed: u64,
) -> u64 {
    let mut c = Client::connect(addr).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    // Every answer a GET of the key may return: one, unless a write failed.
    let mut may: HashMap<u64, Vec<Option<Vec<u8>>>> =
        keys.clone().map(|k| (k, vec![None])).collect();
    let mut corrupt = 0;
    let mut typed = |e: ClientError, op: &str, key: u64| match e {
        ClientError::Server(w) if wearing => {
            corrupt += u64::from(matches!(w, WireError::Corruption { .. }));
        }
        e => panic!("{op} {key}: {e}"),
    };
    for n in 0..ops {
        let key = rng.gen_range(keys.clone());
        let answers = may.get_mut(&key).unwrap();
        match rng.gen_range(0..10u8) {
            0..=4 => {
                let v = value(key, n, vs);
                match c.put(key, &v) {
                    Ok(()) => *answers = vec![Some(v)],
                    Err(e) => {
                        typed(e, "PUT", key);
                        answers.push(Some(v));
                    }
                }
            }
            5..=7 => match c.get(key) {
                Ok(got) => assert!(
                    answers.contains(&got),
                    "GET {key} served {got:?}, which no write left there"
                ),
                Err(e) => typed(e, "GET", key),
            },
            _ => match c.delete(key) {
                Ok(existed) => {
                    if !answers.contains(&None) {
                        assert!(existed, "DELETE {key} missed a live key");
                    } else if answers.len() == 1 {
                        assert!(!existed, "DELETE {key} found a deleted key");
                    }
                    *answers = vec![None];
                }
                Err(e) => {
                    typed(e, "DELETE", key);
                    answers.push(None);
                }
            },
        }
    }
    corrupt
}

#[test]
fn overload_is_typed_when_waiting_room_is_full() {
    // One permit, zero waiting room, and a store wedged by a held mutex:
    // the second request must bounce immediately with Overloaded.
    let store = Arc::new(Wedge::new(None));
    let server = Server::start(
        Arc::clone(&store) as Arc<dyn Store>,
        &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
        ServerConfig { max_inflight: 1, max_waiting: 0, ..ServerConfig::default() },
    )
    .unwrap();

    let held = store.gate.lock().unwrap();
    let addr = server.local_addr().clone();
    let blocked = std::thread::spawn(move || {
        let mut a = Client::connect(&addr).unwrap();
        a.put(1, &[1u8; VS])
    });
    wait_until(Duration::from_secs(5), "the first PUT is admitted", || {
        server.stats().executing == 1
    });

    let mut b = Client::connect(server.local_addr()).unwrap();
    match b.put(2, &[2u8; VS]) {
        Err(ClientError::Server(WireError::Overloaded)) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(server.stats().overload_rejects >= 1);
    // Overloaded is retryable by contract — and once the wedge clears,
    // the retry path succeeds.
    assert!(WireError::Overloaded.is_retryable());
    drop(held);
    blocked.join().unwrap().unwrap();
    b.put(2, &[2u8; VS]).unwrap();
    server.drain().unwrap();
}

#[test]
fn drain_under_live_load_is_clean_and_typed() {
    let store: Arc<dyn Store> = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(4096, VS).with_clusters(2).with_shards(2),
    ));
    let server = Server::start(
        store,
        &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().clone();

    // Writers hammer the server until they observe the drain.
    let mut writers = Vec::new();
    for w in 0..3u64 {
        let addr = addr.clone();
        writers.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let mut acked = 0u64;
            let mut saw_draining = false;
            for i in 0..50_000u64 {
                // Cycle a small key space so the store never fills.
                match c.put(w * 1_000 + (i % 512), &[w as u8; VS]) {
                    Ok(()) => acked += 1,
                    Err(ClientError::Server(WireError::Draining)) => {
                        saw_draining = true;
                        break;
                    }
                    // Past the grace window the server just closes.
                    Err(ClientError::Io(_) | ClientError::Frame(_)) => break,
                    Err(e) => panic!("unexpected error under drain: {e}"),
                }
            }
            (acked, saw_draining)
        }));
    }
    // Let the writers get going, then drain underneath them.
    std::thread::sleep(Duration::from_millis(150));
    let report = server.drain().unwrap();
    assert!(report.clean, "{} stragglers", report.stragglers);

    let mut total_acked = 0;
    let mut any_typed = false;
    for wtr in writers {
        let (acked, typed) = wtr.join().unwrap();
        total_acked += acked;
        any_typed |= typed;
    }
    assert!(total_acked > 0, "drain fired before any write completed");
    assert!(
        any_typed,
        "at least one pipelining writer should observe the typed Draining error"
    );
}

#[test]
fn connection_cap_rejects_with_typed_error() {
    let store: Arc<dyn Store> = Arc::new(PnwStore::new(PnwConfig::new(256, VS).with_clusters(2)));
    let server = Server::start(
        store,
        &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
        ServerConfig { max_conns: 1, ..ServerConfig::default() },
    )
    .unwrap();
    let mut first = Client::connect(server.local_addr()).unwrap();
    first.ping().unwrap(); // fully established and counted

    // The second connection is bounced with a best-effort Overloaded.
    let mut second = Client::connect(server.local_addr()).unwrap();
    match second.recv() {
        Ok(frame) => {
            assert_eq!(frame.id, 0);
            assert_eq!(frame.resp, pnw_server::Response::Err(WireError::Overloaded));
        }
        // The close can race the error frame; either way it must not hang.
        Err(ClientError::Frame(_) | ClientError::Io(_)) => {}
        Err(e) => panic!("unexpected: {e}"),
    }
    assert!(server.stats().conn_rejects >= 1);
    // The established connection is unaffected.
    first.put(1, &[9u8; VS]).unwrap();
    drop(first);
    server.drain().unwrap();
}

#[test]
fn unix_socket_transport_end_to_end() {
    let dir = scratch("unix");
    let sock = dir.join("pnw.sock");
    let addr = ServerAddr::Unix(sock.clone());

    let store: Arc<dyn Store> = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(1024, VS).with_clusters(2).with_shards(2),
    ));
    let server = Server::start(store, &addr, ServerConfig::default()).unwrap();
    let mut c = Client::connect(&addr).unwrap();
    c.put(5, &[0xEE; VS]).unwrap();
    assert_eq!(c.get(5).unwrap(), Some(vec![0xEE; VS]));
    // Batches work over the same socket.
    let (completed, failures) = c
        .batch(vec![
            pnw_server::WireOp::Put { key: 6, value: vec![0x66; VS] },
            pnw_server::WireOp::Delete { key: 5 },
        ])
        .unwrap();
    assert_eq!((completed, failures.len()), (2, 0));
    assert_eq!(c.get(5).unwrap(), None);
    drop(c);
    let report = server.drain().unwrap();
    assert!(report.clean);
    assert!(!sock.exists(), "drain must remove the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ping_bypasses_admission_even_when_wedged() {
    // Gate saturated with zero waiting room: data ops bounce, PING works.
    let store: Arc<dyn Store> = Arc::new(PnwStore::new(PnwConfig::new(256, VS).with_clusters(2)));
    let server = Server::start(
        store,
        &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
        ServerConfig { max_inflight: 1, max_waiting: 0, ..ServerConfig::default() },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    // Saturate nothing — just prove PING answers without a permit by
    // sending it while another request is in flight on a second conn.
    let mut d = Client::connect(server.local_addr()).unwrap();
    let id = d.send(&Request::Put { key: 1, value: vec![1; VS] }).unwrap();
    c.ping().unwrap();
    let resp = d.recv().unwrap();
    assert_eq!(resp.id, id);
    server.drain().unwrap();
}

#[test]
fn scan_over_the_wire_pages_through_limit_and_frame_budget() {
    let store: Arc<dyn Store> =
        Arc::new(ShardedPnwStore::new(PnwConfig::new(512, VS).with_clusters(2).with_shards(4)));
    let server = Server::start(
        Arc::clone(&store),
        &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
        // A small frame keeps the budget-truncation path honest: ~28
        // bytes per entry means a full 96-key reply cannot fit.
        ServerConfig { max_frame: 1024, ..ServerConfig::default() },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for k in 0..96u64 {
        c.put(k, &[k as u8; VS]).unwrap();
    }

    // Empty range: complete and empty.
    let (entries, complete) = c.scan(200, 300, 0).unwrap();
    assert!(entries.is_empty() && complete);

    // Explicit limit truncates and says so.
    let (entries, complete) = c.scan(0, u64::MAX, 10).unwrap();
    assert_eq!(entries.len(), 10);
    assert!(!complete, "a limited reply must not claim completeness");
    assert_eq!(entries[0].0, 0);
    assert_eq!(entries[9].0, 9);

    // Paging: resume from last key + 1 until complete reassembles the
    // whole range in order, whether the server truncated at the limit or
    // at its frame budget.
    let mut all = Vec::new();
    let mut lo = 0u64;
    loop {
        let (mut page, complete) = c.scan(lo, u64::MAX, 0).unwrap();
        if let Some(&(last, _)) = page.last() {
            lo = last + 1;
        } else {
            assert!(complete, "an empty incomplete page would never terminate");
        }
        let done = complete;
        all.append(&mut page);
        if done {
            break;
        }
    }
    assert_eq!(all.len(), 96, "paging reassembles the full range");
    for (i, (k, v)) in all.iter().enumerate() {
        assert_eq!(*k, i as u64, "ascending across pages");
        assert_eq!(v, &vec![*k as u8; VS], "key {k}");
    }
    server.drain().unwrap();
}

/// Cycles an abuser through a clean kill, a torn frame and a corrupt
/// frame, reconnecting after each, with one honest PUT before every fault
/// so each one lands on a live connection. Returns the malformed frames
/// sent (torn + corrupt): exactly the connections the server must
/// quarantine, since a kill between frames is a clean EOF.
fn abuse(addr: &ServerAddr, keys: Range<u64>, cycles: u64) -> u64 {
    let mut c = Client::connect(addr).unwrap();
    let mut malformed = 0;
    for n in 0..cycles {
        let key = keys.start + n % (keys.end - keys.start);
        c.put(key, &value(key, n, VS)).unwrap();
        match n % 3 {
            0 => c.kill(),
            1 => c.send_torn_frame(&Request::Put { key, value: value(key, n, VS) }, 9).unwrap(),
            _ => c.send_corrupt_frame(&Request::Get { key }).unwrap(),
        }
        malformed += u64::from(n % 3 != 0);
        c.reconnect().unwrap();
    }
    malformed
}

#[test]
fn faulted_connections_are_quarantined_alone() {
    let store: Arc<dyn Store> = Arc::new(ShardedPnwStore::new(
        PnwConfig::new(4096, VS).with_clusters(2).with_shards(2),
    ));
    let server = Server::start(
        store,
        &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().clone();

    let honest: Vec<_> = (0..4u64)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || honest_load(&addr, w * 100..w * 100 + 32, 400, VS, false, w))
        })
        .collect();
    let abusers: Vec<_> = (0..2u64)
        .map(|a| {
            let addr = addr.clone();
            std::thread::spawn(move || abuse(&addr, 1_000 + a * 100..1_000 + a * 100 + 8, 45))
        })
        .collect();
    for h in honest {
        h.join().unwrap();
    }
    let malformed: u64 = abusers.into_iter().map(|a| a.join().unwrap()).sum();

    // Every connection has closed once the count is back to zero, so the
    // quarantine tally is final.
    wait_until(Duration::from_secs(5), "every connection closed", || {
        server.stats().active_conns == 0
    });
    assert_eq!(
        server.stats().quarantined,
        malformed,
        "one quarantine per torn or corrupt frame, none for a clean kill"
    );
    let report = server.drain().unwrap();
    assert!(report.clean, "{} stragglers", report.stragglers);
}

#[test]
fn crash_restart_on_the_same_socket_then_saturation_is_typed() {
    let dir = scratch("crash_restart");
    let addr = ServerAddr::Unix(dir.join("pnw.sock"));
    let cfg = PnwConfig::new(4096, VS).with_clusters(4).with_shards(4).with_path(dir.join("store"));
    let store: Arc<dyn Store> = Arc::new(ShardedPnwStore::open(cfg.clone()).unwrap());
    let first = Arc::downgrade(&store);
    let server = Server::start(store, &addr, ServerConfig::default()).unwrap();

    // Four writers, each PUTting its own keys in order until the crash
    // cuts it off: what it had acked is a prefix, what it sent at most
    // one more.
    const SENT: u64 = 300;
    let base = |w: u64| w * 10_000;
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                for i in 0..SENT {
                    let key = base(w) + i;
                    match c.put(key, &value(key, 0, VS)) {
                        Ok(()) => {}
                        Err(
                            ClientError::Io(_)
                            | ClientError::Frame(_)
                            | ClientError::Server(WireError::Draining),
                        ) => return (c, i, i + 1),
                        Err(e) => panic!("writer {w}: {e}"),
                    }
                }
                (c, SENT, SENT)
            })
        })
        .collect();
    wait_until(Duration::from_secs(20), "some writes committed", || {
        server.stats().requests_ok >= 200
    });
    // No checkpoint: the reopen replays the WAL. The old store must be
    // gone before the directory is opened again.
    server.abort();
    wait_until(Duration::from_secs(5), "the crashed store dropped", || first.strong_count() == 0);
    let writers: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    let store: Arc<dyn Store> = Arc::new(ShardedPnwStore::open(cfg).unwrap());
    let server = Server::start(
        store,
        &addr,
        ServerConfig { max_inflight: 2, max_waiting: 8, ..ServerConfig::default() },
    )
    .unwrap();

    // acked ⊆ recovered ⊆ sent, over the wire: each writer reconnects and
    // scans its own range.
    for (w, (mut c, acked, sent)) in writers.into_iter().enumerate() {
        c.reconnect().unwrap();
        let lo = base(w as u64);
        let (entries, complete) = c.scan(lo, lo + SENT - 1, 0).unwrap();
        assert!(complete);
        let recovered: Vec<u64> = entries
            .iter()
            .map(|(k, v)| {
                assert_eq!(v, &value(*k, 0, VS), "key {k} recovered a torn value");
                k - lo
            })
            .collect();
        assert!(
            recovered.iter().copied().take(acked as usize).eq(0..acked),
            "writer {w}: an acked write was lost ({acked} acked, recovered {recovered:?})"
        );
        assert!(
            recovered.iter().all(|&i| i < sent),
            "writer {w}: recovered a write never sent ({sent} sent)"
        );
    }

    // Saturation. A timed (warm) batch sizes the load so one batch keeps
    // its permit ~150 ms on any build and medium: eight connections share
    // two permits, so a waiter behind a whole batch outlasts its 100 ms
    // deadline. 32 768 PUTs of 16 B still fit one default-size frame.
    let mut probe = Client::connect(&addr).unwrap();
    let puts = |lo: u64, n: usize, version: u64| -> Vec<WireOp> {
        (0..n as u64)
            .map(|i| {
                let key = lo + i % 64;
                WireOp::Put { key, value: value(key, version, VS) }
            })
            .collect()
    };
    let mut t = Instant::now();
    for version in 0..2 {
        t = Instant::now();
        assert_eq!(probe.batch(puts(90_000, 1_024, version)).unwrap(), (1_024, vec![]));
    }
    let per_op = (t.elapsed() / 1_024).as_nanos().max(1);
    let batch = (150_000_000 / per_op).clamp(1_024, 32_768) as usize;

    let workers: Vec<_> = (0..8u64)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.set_deadline(Some(Duration::from_millis(100)));
                let (lo, marker) = (100_000 + w * 1_000, 200_000 + w);
                let mut stored = None;
                let mut rejected = 0u64;
                let mut reject = |e: ClientError| match e {
                    ClientError::Server(e) if e.is_retryable() => {
                        assert_ne!(e, WireError::Draining, "nothing drains yet");
                        rejected += 1;
                    }
                    e => panic!("saturation must answer with a typed retryable error: {e}"),
                };
                for round in 0..3 {
                    match c.batch(puts(lo, batch, round)) {
                        Ok((_, failures)) => {
                            for (_, e) in failures {
                                reject(ClientError::Server(e));
                            }
                        }
                        Err(e) => reject(e),
                    }
                    let v = value(marker, round, VS);
                    match c.put(marker, &v) {
                        Ok(()) => stored = Some(v),
                        Err(e) => reject(e),
                    }
                    match c.get(marker) {
                        Ok(got) => assert_eq!(got, stored, "marker {marker}"),
                        Err(e) => reject(e),
                    }
                }
                rejected
            })
        })
        .collect();
    // PING bypasses the gate: it answers while both permits are held.
    probe.set_recv_timeout(Some(Duration::from_secs(2))).unwrap();
    wait_until(Duration::from_secs(10), "both permits held", || server.stats().executing == 2);
    probe.ping().unwrap();
    let rejected: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(rejected > 0, "eight connections on two permits never saw a typed rejection");
    assert_eq!(server.stats().quarantined, 0);

    drop(probe);
    let report = server.drain().unwrap();
    assert!(report.clean, "{} stragglers", report.stragglers);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_wearing_media_answers_exact_or_typed_corruption() {
    let dir = scratch("wearing");
    // Endurance 2 with a 10% latch draw over 96 hot keys: cells latch
    // mid-run while the background scrubber races the clients to them.
    let store = Arc::new(
        ShardedPnwStore::open(
            PnwConfig::new(16_384, 64)
                .with_clusters(4)
                .with_shards(4)
                .with_path(dir.join("store"))
                .with_endurance(2)
                .with_stuck_latch_probability(0.1)
                .with_scrub(20_000),
        )
        .unwrap(),
    );
    let addr = ServerAddr::Unix(dir.join("pnw.sock"));
    let served: Arc<dyn Store> = store.clone();
    let server = Server::start(served, &addr, ServerConfig::default()).unwrap();

    // Write-verify re-places a PUT that lands on latched cells, so wear
    // alone seldom damages a value a GET then reads. Latch one bit under
    // each of 24 stored values (bit 63 is the top of the key's zero high
    // byte, forced to one): each GET of them must answer the exact value
    // (once the scrubber has repaired it from the WAL) or typed corruption.
    let mut c = Client::connect(&addr).unwrap();
    let damaged = 1_000..1_024u64;
    for k in damaged.clone() {
        c.put(k, &value(k, 0, 64)).unwrap();
        assert!(store.arm_stuck_at_key(k, 63, true).unwrap());
    }
    let mut corrupt = 0;
    for k in damaged {
        match c.get(k) {
            Ok(got) => assert_eq!(got, Some(value(k, 0, 64)), "GET {k} on latched media"),
            Err(ClientError::Server(WireError::Corruption { key, .. })) if key == k => corrupt += 1,
            Err(e) => panic!("GET {k}: {e}"),
        }
    }
    assert!(corrupt > 0, "the scrubber repaired all 24 latched values before a GET");
    drop(c);

    let clients: Vec<_> = (0..4u64)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || honest_load(&addr, w * 24..w * 24 + 24, 600, 64, true, w))
        })
        .collect();
    corrupt += clients.into_iter().map(|c| c.join().unwrap()).sum::<u64>();

    let stats = server.stats();
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.corruption_errors, corrupt, "every typed corruption reached its client");
    let report = server.drain().unwrap();
    assert!(report.clean, "{} stragglers", report.stragglers);
    let scrub = store.snapshot().scrub;
    assert!(scrub.stuck_bits + scrub.retired > 0, "the media never wore: {scrub:?}");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_store_op_costs_its_connection_not_the_drain() {
    let cfg = ServerConfig { max_conns: 1, ..ServerConfig::default() };
    let drain_deadline = cfg.drain_deadline;
    let server = Server::start(
        Arc::new(Wedge::new(Some(13))),
        &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
        cfg,
    )
    .unwrap();
    let mut a = Client::connect(server.local_addr()).unwrap();
    a.put(1, &[1u8; VS]).unwrap();
    match a.put(13, &[13u8; VS]) {
        Err(ClientError::Io(_) | ClientError::Frame(_)) => {}
        other => panic!("the panicked op's connection must just close, got {other:?}"),
    }
    wait_until(Duration::from_secs(2), "the panicked connection is uncounted", || {
        server.stats().active_conns == 0
    });
    // The one `max_conns` slot came back: a second client is served.
    let mut b = Client::connect(server.local_addr()).unwrap();
    assert_eq!(b.get(1).unwrap(), Some(vec![1u8; VS]));
    drop((a, b));
    let report = server.drain().unwrap();
    assert!(report.clean, "{} stragglers", report.stragglers);
    assert!(report.elapsed < drain_deadline / 2, "drain took {:?}", report.elapsed);
}
