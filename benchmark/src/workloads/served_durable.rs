//! `served-durable`: the full path — wire → admission → shard queue → WAL →
//! fsync → ack — plus recovery.
//!
//! A file-backed store (a directory under `--out`, on the checkout's own
//! filesystem; the store's default flush policy, `fdatasync` before ack)
//! behind `pnw_server::Server` on a Unix socket, `nproc` client connections,
//! 50% PUT / 50% GET, uniform over 32 768 keys, 64-byte values.
//!
//! * **Closed loop** for half of `--seconds`: every connection sends its next
//!   request when the reply to the last returns. Gives capacity (`ops_per_s`)
//!   and what a caller that waits for its reply sees (`put_p50_us`).
//! * A checkpoint, so the WAL that recovery replays holds exactly the open
//!   phase's PUTs whatever rate the closed loop reached.
//! * **Open loop** for the other half: Poisson arrivals at a fixed 2 000
//!   op/s, each op timed from its *scheduled* arrival. Gives what a user at a
//!   fixed rate sees (`server.sojourn_p50_us`), and how late the generator
//!   ran. Queueing amplifies every swing in disk speed here (a connection is
//!   about half busy), so on a shared disk this median moves by 12–25% across
//!   ten runs: a layer metric, not an end-to-end one.
//! * `Server::abort()` (no checkpoint), drop, `ShardedPnwStore::open` (WAL
//!   replay, `recover_ms`), then acked ⊆ recovered ⊆ sent for every key.
//!
//! Each connection writes only the keys it owns (`key % connections`), one
//! request in flight, so per key the versions sent and acked are a sequence
//! and the recovered version can be bracketed exactly. Killing the process
//! leaves the page cache intact; discarding unflushed writes is the job of
//! the repository's `tests/recovery.rs`, not simulated here.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pnw_core::{
    Batch, BatchReport, OpReport, PnwConfig, ShardedPnwStore, Store, StoreError, StoreSnapshot,
};
use pnw_nvm_sim::DeviceStats;
use pnw_server::{Client, Request, Response, Server, ServerAddr, ServerConfig};

use super::{
    ns, pattern_gen_ns, pattern_store_config, preload_batched, store_layer_metrics, Metrics,
    Params, Pass, PutStats, Workload, PATTERN_VALUE_SIZE,
};
use crate::gen::{Codec, Rng, PUT_BIT};
use crate::layers::ReplayInputs;
use crate::stats::{median, percentile, percentile_of, segment_median};
use crate::sysinfo::files_size;
use crate::trace::{self_times, Recorder, Span};

pub const KEYS: usize = 32_768;
/// Arrival rate of the open loop, all connections together.
const OPEN_RATE: f64 = 2_000.0;
/// The version every key carries when the pass starts: set-up writes each key
/// this many times.
const PRELOAD_VERSION: u32 = 2;
/// Reopens after the abort; `recover_ms` is their median.
const RECOVER_REPS: usize = 5;
/// Closed-loop ops per throughput block, per connection.
const BLOCK: usize = 256;
/// Pre-drawn ops per connection, walked cyclically.
const STREAM: usize = 1 << 17;
/// The generator sleeps until this close to an arrival's due time, then spins.
const SPIN: Duration = Duration::from_micros(200);
/// Traced run: the rates of the ladder beside the workload's own 2 000 op/s,
/// and the limits a rate must meet to count as sustained.
const LADDER: [f64; 3] = [1_000.0, 4_000.0, 8_000.0];
const LADDER_P99_LIMIT_US: f64 = 20_000.0;
const LADDER_LATE_LIMIT_US: f64 = 50_000.0;

pub struct ServedDurable;

/// A `Store` that times every call it forwards: the `store.*` spans of the
/// traced run, taken where the server calls into the store.
pub struct TracingStore {
    inner: Arc<ShardedPnwStore>,
    epoch: Instant,
    calls: Mutex<Vec<StoreCall>>,
    /// What the PUT reports add up to; the wire does not carry them.
    puts: Mutex<PutStats>,
}

#[derive(Debug, Clone, Copy)]
struct StoreCall {
    name: &'static str,
    key: u64,
    start_ns: u64,
    end_ns: u64,
}

impl TracingStore {
    fn timed<R>(&self, name: &'static str, key: u64, f: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.calls
            .lock()
            .expect("no panic holds the call log")
            .push(StoreCall {
                name,
                key,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        out
    }
}

impl Store for TracingStore {
    fn name(&self) -> &'static str {
        Store::name(&*self.inner)
    }
    fn value_size(&self) -> usize {
        Store::value_size(&*self.inner)
    }
    fn put(&self, key: u64, value: &[u8]) -> Result<OpReport, StoreError> {
        let result = self.timed("store.put", key, || self.inner.put(key, value));
        if let Ok(rep) = &result {
            self.puts
                .lock()
                .expect("no panic holds the PUT stats")
                .observe(rep);
        }
        result
    }
    fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.timed("store.get", key, || self.inner.get(key))
    }
    fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, StoreError> {
        self.timed("store.get", key, || self.inner.get_into(key, out))
    }
    fn delete(&self, key: u64) -> Result<bool, StoreError> {
        self.timed("store.delete", key, || self.inner.delete(key))
    }
    fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        self.inner.scan(lo, hi)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn snapshot(&self) -> StoreSnapshot {
        self.inner.snapshot()
    }
    fn device_stats(&self) -> DeviceStats {
        self.inner.device_stats()
    }
    fn reset_device_stats(&self) {
        self.inner.reset_device_stats()
    }
    fn max_word_writes(&self) -> u32 {
        self.inner.max_word_writes()
    }
    fn checkpoint(&self) -> Result<(), StoreError> {
        self.inner.checkpoint()
    }
    fn apply(&self, batch: &Batch) -> BatchReport {
        Store::apply(&*self.inner, batch)
    }
}

/// One client connection and what it alone knows: its op stream and, per key
/// it owns, the last version sent and the last version acked.
struct Conn {
    client: Client,
    stream: Vec<u32>,
    pos: usize,
    sent: Vec<u32>,
    acked: Vec<u32>,
    buf: Vec<u8>,
}

/// One finished request as the client saw it.
struct Done {
    put: bool,
    /// The reply came, was not an error, and (a GET) verified.
    ok: bool,
    /// When it finished, since the phase began.
    at_ns: u64,
    /// Reply time minus send time (closed loop) or minus due time (open).
    latency_ns: u32,
    /// Send time minus due time (open loop only).
    late_ns: u32,
}

impl Conn {
    /// Sends the stream's next op and checks the reply. Returns whether it
    /// was a PUT, the key, and whether it succeeded and verified.
    fn next_op(&mut self, codec: &Codec) -> (bool, u64, bool) {
        let op = self.stream[self.pos % self.stream.len()];
        self.pos += 1;
        let key = (op & !PUT_BIT) as u64;
        if op & PUT_BIT != 0 {
            let version = self.sent[key as usize] + 1;
            self.sent[key as usize] = version;
            codec.fill(key, version, &mut self.buf);
            let ok = matches!(
                self.client.call(&Request::Put {
                    key,
                    value: self.buf.clone()
                }),
                Ok(Response::Put)
            );
            if ok {
                self.acked[key as usize] = version;
            }
            (true, key, ok)
        } else {
            // Every key was preloaded, so a GET must hit and must verify.
            let ok = match self.client.call(&Request::Get { key }) {
                Ok(Response::Get(Some(value))) => codec.verify(key, &value).is_some(),
                _ => false,
            };
            (false, key, ok)
        }
    }
}

pub struct State {
    dir: PathBuf,
    cfg: PnwConfig,
    codec: Codec,
    store: Option<Arc<ShardedPnwStore>>,
    tracing: Option<Arc<TracingStore>>,
    server: Option<Server>,
    conns: Vec<Conn>,
    gen_ns_per_value: f64,
}

impl Drop for State {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.abort();
        }
        self.tracing = None;
        self.store = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn n_keys(p: &Params) -> usize {
    p.scaled(KEYS).max(128)
}

fn config(p: &Params) -> PnwConfig {
    pattern_store_config(n_keys(p))
}

/// Connection `conn`'s op stream: 50% PUTs to keys it owns, 50% GETs to any.
fn op_stream(p: &Params, conn: usize) -> Vec<u32> {
    let (n, conns) = (n_keys(p) as u64, p.threads as u64);
    let mut rng = Rng::new(p.seed ^ ((conn as u64 + 1) << 40));
    (0..p.scaled(STREAM).max(1024))
        .map(|_| {
            if rng.next_f64() < 0.5 {
                (conn as u64 + conns * rng.below(n / conns)) as u32 | PUT_BIT
            } else {
                rng.below(n) as u32
            }
        })
        .collect()
}

/// A socket path short enough for `sockaddr_un`: relative to the working
/// directory when the store directory lies under it.
fn socket_path(dir: &Path) -> PathBuf {
    let sock = dir.join("s");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| sock.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(sock)
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Poisson arrival offsets for `seconds` at `rate`, from their own stream of
/// the seed so every run of one seed offers the same schedule.
fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut rng = Rng::new(seed ^ rate.to_bits());
    let mut at = 0.0f64;
    (0..(rate * seconds).round().max(1.0) as usize)
        .map(|_| {
            at += rng.exponential(1.0 / rate);
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// What one phase produced, all connections together.
#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    rates: Vec<Vec<f64>>,
    failed: u64,
    spans: Vec<Span>,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.done.len() as u64
    }

    fn acked_puts(&self) -> u64 {
        self.done.iter().filter(|d| d.put && d.ok).count() as u64
    }

    fn latencies(&self, put: bool) -> Vec<u32> {
        self.done
            .iter()
            .filter(|d| d.put == put)
            .map(|d| d.latency_ns)
            .collect()
    }
}

/// Runs `f` on every connection, a thread each, and merges what they bring
/// back.
fn on_every_conn(conns: &mut [Conn], f: impl Fn(usize, &mut Conn) -> Phase + Sync) -> Phase {
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || f(c, conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase::default();
    for part in parts {
        phase.done.extend(part.done);
        phase.rates.extend(part.rates);
        phase.failed += part.failed;
        phase.spans.extend(part.spans);
    }
    phase
}

fn call_name(put: bool) -> &'static str {
    if put {
        "client.call.put"
    } else {
        "client.call.get"
    }
}

/// Closed loop: every connection runs whole blocks until `seconds` pass.
fn run_closed(conns: &mut [Conn], codec: &Codec, seconds: f64, epoch: Option<Instant>) -> Phase {
    let start = Instant::now();
    on_every_conn(conns, |c, conn| {
        let mut rec = epoch.map(|e| Recorder::new(e, c as u64));
        let mut phase = Phase::default();
        let mut rates = Vec::new();
        while start.elapsed().as_secs_f64() < seconds {
            let t0 = Instant::now();
            for _ in 0..BLOCK {
                let a = Instant::now();
                let (put, key, ok) = conn.next_op(codec);
                let b = Instant::now();
                phase.failed += u64::from(!ok);
                if let Some(rec) = &mut rec {
                    rec.span(call_name(put), a, b, 0, (conn.pos as u64, key));
                }
                phase.done.push(Done {
                    put,
                    ok,
                    at_ns: (b - start).as_nanos() as u64,
                    latency_ns: ns(b - a),
                    late_ns: 0,
                });
            }
            rates.push(BLOCK as f64 / t0.elapsed().as_secs_f64());
        }
        phase.rates.push(rates);
        phase.spans = rec.map_or_else(Vec::new, Recorder::into_spans);
        phase
    })
}

/// Open loop: arrival `i` is due at `schedule[i]` and belongs to connection
/// `i % connections`; a connection still waiting for a reply starts its next
/// arrival late, and the wait is charged to that arrival.
fn run_open(
    conns: &mut [Conn],
    codec: &Codec,
    schedule: &[Duration],
    epoch: Option<Instant>,
) -> Phase {
    let n_conns = conns.len();
    let start = Instant::now() + Duration::from_millis(1);
    on_every_conn(conns, |c, conn| {
        let mut rec = epoch.map(|e| Recorder::new(e, (n_conns + c) as u64));
        let mut phase = Phase::default();
        for offset in schedule.iter().skip(c).step_by(n_conns) {
            let due = start + *offset;
            wait_until(due);
            let a = Instant::now();
            let (put, key, ok) = conn.next_op(codec);
            let b = Instant::now();
            phase.failed += u64::from(!ok);
            if let Some(rec) = &mut rec {
                let op = (conn.pos as u64, key);
                let root = rec.span("op.sojourn", due, b, 0, op);
                rec.span("gen.wait", due, a, root, op);
                rec.span(call_name(put), a, b, root, op);
            }
            phase.done.push(Done {
                put,
                ok,
                at_ns: (b - start).as_nanos() as u64,
                latency_ns: ns(b - due),
                late_ns: ns(a - due),
            });
        }
        phase.spans = rec.map_or_else(Vec::new, Recorder::into_spans);
        phase
    })
}

impl Workload for ServedDurable {
    const NAME: &'static str = "served-durable";
    type State = State;

    fn setup(p: &Params, traced: bool) -> State {
        let dir = p.out.join("served-durable-store");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the store directory");
        let cfg = config(p).with_path(dir.join("store"));
        let codec = Codec::pattern(p.seed);
        let n = n_keys(p);
        let gen_ns_per_value = pattern_gen_ns(p, &codec);

        let store = Arc::new(ShardedPnwStore::open(cfg.clone()).expect("open the durable store"));
        // Preload, then update every key once: no bucket is virgin (all
        // zeros) when the model is first trained — the paper's §VI-A old-data
        // set-up (see `get_heavy`).
        for version in 1..=PRELOAD_VERSION {
            preload_batched(&store, &codec, n as u64, version);
        }
        store.retrain_now().expect("first training");
        store.checkpoint().expect("checkpoint after preload");
        store.reset_device_stats();

        let tracing = traced.then(|| {
            Arc::new(TracingStore {
                inner: Arc::clone(&store),
                epoch: Instant::now(),
                calls: Mutex::new(Vec::new()),
                puts: Mutex::new(PutStats::default()),
            })
        });
        let served: Arc<dyn Store> = match &tracing {
            Some(t) => Arc::clone(t) as Arc<dyn Store>,
            None => Arc::clone(&store) as Arc<dyn Store>,
        };
        let addr = ServerAddr::Unix(socket_path(&dir));
        let server =
            Server::start(served, &addr, ServerConfig::default()).expect("start the server");
        let mut state = State {
            dir,
            cfg,
            codec,
            store: Some(store),
            tracing,
            server: Some(server),
            conns: Vec::new(),
            gen_ns_per_value,
        };
        for c in 0..p.threads {
            state.conns.push(Conn {
                client: Client::connect(&addr).expect("connect"),
                stream: op_stream(p, c),
                pos: 0,
                sent: vec![PRELOAD_VERSION; n],
                acked: vec![PRELOAD_VERSION; n],
                buf: vec![0u8; PATTERN_VALUE_SIZE],
            });
        }
        // Warm-up: the first ops of every stream, one connection at a time.
        for conn in &mut state.conns {
            for _ in 0..p.scaled(2_000).max(16) {
                let (_, _, ok) = conn.next_op(&state.codec);
                assert!(ok, "warm-up request failed");
            }
        }
        state
    }

    fn pass(mut st: State, p: &Params, traced: bool) -> Pass {
        let store = st.store.take().expect("store is present until the pass");
        let store_dir = st.dir.join("store");
        let epoch = st.tracing.as_ref().map(|t| t.epoch);
        let half = p.seconds / 2.0;
        let stats0 = store.device_stats();
        let before = store.snapshot();

        let mut closed = run_closed(&mut st.conns, &st.codec, half, epoch);
        store.checkpoint().expect("checkpoint between the phases");
        let schedule = arrivals(p.seed, OPEN_RATE, half);
        let mut open = run_open(&mut st.conns, &st.codec, &schedule, epoch);
        let wal_bytes = files_size(&store_dir, "wal.");
        let device = store.device_stats().since(&stats0).totals;
        let acked_puts = closed.acked_puts() + open.acked_puts();

        let mut pass = Pass::default();
        let mut failed = closed.failed + open.failed;
        if traced {
            let server = st.server.as_ref().expect("server is up");
            let tracing = st.tracing.as_ref().expect("traced set-up wraps the store");
            let mut spans = std::mem::take(&mut closed.spans);
            spans.append(&mut open.spans);
            pass.layer = server_metrics(p, &mut st.conns, &st.codec, &open, &mut failed);
            pass.layer.extend(join_store_calls(&mut spans, tracing));
            let puts =
                std::mem::take(&mut *tracing.puts.lock().expect("no panic holds the PUT stats"));
            pass.layer.extend(PutStats::layer_metrics([puts]));
            pass.layer.extend(store_layer_metrics(&store, &before));
            let s = server.stats();
            pass.layer.extend([
                ("server.requests_err", s.requests_err as f64),
                ("server.overload_rejects", s.overload_rejects as f64),
                ("server.deadline_rejects", s.deadline_rejects as f64),
                ("server.backpressure_errors", s.backpressure_errors as f64),
                ("sharded.backpressure", s.backpressure_errors as f64),
                ("workloads.gen_ns_per_value", st.gen_ns_per_value),
                ("server.quarantined", s.quarantined as f64),
            ]);
            pass.spans = spans;
        }

        // Crash: cut the connections, stop the server without a checkpoint,
        // let go of every handle on the store, and open it again.
        let conns = std::mem::take(&mut st.conns);
        let (sent, acked): (Vec<Vec<u32>>, Vec<Vec<u32>>) =
            conns.into_iter().map(|c| (c.sent, c.acked)).unzip();
        st.server.take().expect("server is up").abort();
        st.tracing = None;
        let give_up = Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(&store) > 1 && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(store);
        // Dropping a store cuts no checkpoint, so every reopen replays the same
        // WAL: recovery is timed several times and the median reported.
        let mut recoveries = Vec::new();
        let mut reopened = None;
        for _ in 0..RECOVER_REPS {
            drop(reopened.take());
            let t = Instant::now();
            reopened = Some(ShardedPnwStore::open(st.cfg.clone()).expect("reopen after the abort"));
            recoveries.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let reopened = reopened.expect("recovery ran");
        let recover_ms = median(&recoveries);

        // acked ⊆ recovered ⊆ sent, key by key, against the key's owner.
        let n = sent[0].len();
        let mut buf = vec![0u8; PATTERN_VALUE_SIZE];
        let mut lost = 0u64;
        for key in 0..n {
            let owner = key % sent.len();
            let recovered = matches!(reopened.get_into(key as u64, &mut buf), Ok(true))
                .then(|| st.codec.verify(key as u64, &buf))
                .flatten();
            let ok = recovered.is_some_and(|v| acked[owner][key] <= v && v <= sent[owner][key]);
            lost += u64::from(!ok);
        }
        drop(reopened);

        pass.e2e = vec![
            ("ops_per_s", closed.rates.iter().map(|r| median(r)).sum()),
            (
                "put_p50_us",
                percentile_of(&mut closed.latencies(true), 50.0) / 1e3,
            ),
            (
                "flips_per_put",
                device.total_bit_flips() as f64 / acked_puts.max(1) as f64,
            ),
            (
                "lines_per_put",
                device.lines_written as f64 / acked_puts.max(1) as f64,
            ),
            ("recover_ms", recover_ms),
            (
                "disk_bytes_per_put",
                wal_bytes as f64 / open.acked_puts().max(1) as f64,
            ),
        ];
        pass.counts = vec![
            ("connections", sent.len() as f64),
            ("closed_ops", closed.ops() as f64),
            ("closed_put_samples", closed.acked_puts() as f64),
            ("open_arrivals", schedule.len() as f64),
            ("open_rate", OPEN_RATE),
            (
                "open_put_sojourn_p50_us",
                percentile_of(&mut open.latencies(true), 50.0) / 1e3,
            ),
            ("wal_records_replayed", open.acked_puts() as f64),
            ("verify_reads", n as f64),
        ];
        pass.attempted = closed.ops() + open.ops() + n as u64;
        pass.failed = failed + lost;
        pass
    }

    fn replay_inputs(p: &Params) -> ReplayInputs {
        ReplayInputs {
            config: config(p),
            codec: Codec::pattern(p.seed),
            preload: n_keys(p) as u64,
            ops: op_stream(
                &Params {
                    threads: 1,
                    ..p.clone()
                },
                0,
            ),
            replacement: false,
        }
    }

    /// The durable layer in-process and the wire codec alone: the two layers
    /// no volatile workload executes.
    fn extra_replays(inputs: &ReplayInputs, p: &Params) -> Metrics {
        let mut out = crate::layers::durable(inputs, p, &p.out.join("served-durable-replay"));
        out.extend(crate::layers::protocol(inputs, p));
        out
    }
}

/// `server.*` metrics that need the live server: the open phase's sojourn
/// tail and generator lateness, single-connection round trips, and the rate
/// ladder.
fn server_metrics(
    p: &Params,
    conns: &mut [Conn],
    codec: &Codec,
    open: &Phase,
    failed: &mut u64,
) -> Metrics {
    let mut out = Vec::new();
    let mut sojourn: Vec<u32> = open.done.iter().map(|d| d.latency_ns).collect();
    sojourn.sort_unstable();
    let timed: Vec<(u64, u32)> = open.done.iter().map(|d| (d.at_ns, d.latency_ns)).collect();
    let mut late: Vec<u32> = open.done.iter().map(|d| d.late_ns).collect();
    late.sort_unstable();
    out.extend([
        (
            "server.sojourn_p50_us",
            percentile_of(&mut open.latencies(true), 50.0) / 1e3,
        ),
        ("server.sojourn_p90_us", percentile(&sojourn, 90.0) / 1e3),
        // The raw p99 is the disk's 1% fsync tail; the median of per-second
        // p99s moves less when one second is bad.
        (
            "server.sojourn_p99_us",
            segment_median(&timed, 1_000_000_000, 99.0, 100) / 1e3,
        ),
        ("server.gen_late_p50_us", percentile(&late, 50.0) / 1e3),
        ("server.gen_late_p99_us", percentile(&late, 99.0) / 1e3),
    ]);

    // One connection, closed loop: what a lone caller's round trip costs.
    let conn = &mut conns[0];
    let n = p.scaled(2_000).max(32);
    let key = 0u64; // owned by connection 0
    let mut rtt = |conn: &mut Conn, req: &dyn Fn(&mut Conn) -> Request| {
        let mut lat: Vec<u32> = (0..n)
            .map(|_| {
                let request = req(conn);
                let t = Instant::now();
                let ok = !matches!(conn.client.call(&request), Err(_) | Ok(Response::Err(_)));
                let d = ns(t.elapsed());
                *failed += u64::from(!ok);
                d
            })
            .collect();
        percentile_of(&mut lat, 50.0) / 1e3
    };
    out.push(("server.ping_rtt_us_p50", rtt(conn, &|_| Request::Ping)));
    out.push((
        "server.get_rtt_us_p50",
        rtt(conn, &|_| Request::Get { key }),
    ));
    let put_rtt = rtt(conn, &|conn| {
        let version = conn.sent[key as usize] + 1;
        conn.sent[key as usize] = version;
        codec.fill(key, version, &mut conn.buf);
        Request::Put {
            key,
            value: conn.buf.clone(),
        }
    });
    // Those PUTs were acked (a failure is counted above and fails the run).
    conn.acked[key as usize] = conn.sent[key as usize];
    out.push(("server.put_rtt_us_p50", put_rtt));

    // The ladder: the open loop again at fixed rates around the workload's.
    let ladder_s = if p.quick { 0.3 } else { 5.0 };
    let mut sustained = if rate_ok(&open.done) { OPEN_RATE } else { 0.0 };
    for rate in LADDER {
        let phase = run_open(conns, codec, &arrivals(p.seed, rate, ladder_s), None);
        *failed += phase.failed;
        let p50 = percentile_of(&mut phase.latencies(true), 50.0) / 1e3;
        match rate as u32 {
            1_000 => out.push(("server.p50_us_at_1000", p50)),
            4_000 => out.push(("server.p50_us_at_4000", p50)),
            _ => {}
        }
        if rate_ok(&phase.done) && phase.failed == 0 {
            sustained = sustained.max(rate);
        }
    }
    out.push(("server.max_rate_ok", sustained));
    out
}

/// A rate is sustained when the sojourn p99 meets the limit and the last
/// tenth of the arrivals did not start late — no backlog was growing.
fn rate_ok(done: &[Done]) -> bool {
    let mut sojourn: Vec<u32> = done.iter().map(|d| d.latency_ns).collect();
    let mut end_late: Vec<u32> = {
        let mut by_time: Vec<&Done> = done.iter().collect();
        by_time.sort_by_key(|d| d.at_ns);
        by_time[by_time.len() - by_time.len() / 10..]
            .iter()
            .map(|d| d.late_ns)
            .collect()
    };
    percentile_of(&mut sojourn, 99.0) / 1e3 <= LADDER_P99_LIMIT_US
        && percentile_of(&mut end_late, 50.0) / 1e3 <= LADDER_LATE_LIMIT_US
}

/// Hangs each `store.*` call the server made under the `client.call` span
/// that caused it — same op kind, same key, inside its interval — and reads
/// the server's own share off the difference.
fn join_store_calls(spans: &mut Vec<Span>, tracing: &TracingStore) -> Metrics {
    use std::collections::HashMap;
    let calls = std::mem::take(&mut *tracing.calls.lock().expect("no panic holds the call log"));
    let mut by_key: HashMap<(bool, u64), Vec<StoreCall>> = HashMap::new();
    for c in &calls {
        by_key
            .entry((c.name == "store.put", c.key))
            .or_default()
            .push(*c);
    }
    for list in by_key.values_mut() {
        list.sort_by_key(|c| std::cmp::Reverse(c.start_ns));
    }
    let mut rec = Recorder::new(tracing.epoch, 1 << 8);
    let mut joined = std::collections::HashSet::new();
    let (mut store_put, mut store_get) = (Vec::new(), Vec::new());
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].start_ns);
    for i in order {
        let s = &spans[i];
        let put = match s.name {
            "client.call.put" => true,
            "client.call.get" => false,
            _ => continue,
        };
        // Calls are taken oldest first, so the list's tail is the candidate.
        let Some(list) = by_key.get_mut(&(put, s.key)) else {
            continue;
        };
        while list.last().is_some_and(|c| c.start_ns < s.start_ns) {
            list.pop(); // a call from before this span: warm-up or a probe
        }
        let Some(c) = list.last().copied().filter(|c| c.end_ns <= s.end_ns) else {
            continue;
        };
        list.pop();
        rec.span_ns(c.name, c.start_ns, c.end_ns, s.id, (s.op, s.key));
        joined.insert(s.id);
        if put { &mut store_put } else { &mut store_get }.push((c.end_ns - c.start_ns) as u32);
    }
    spans.extend(rec.into_spans());
    // The server's share of a call is the call's self time: wire, decode,
    // admission, hand-off and encode — everything but the store.
    let mut overhead: Vec<u32> = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| joined.contains(&s.id))
        .map(|(_, self_ns)| self_ns as u32)
        .collect();
    overhead.sort_unstable();
    vec![
        ("server.overhead_us_p50", percentile(&overhead, 50.0) / 1e3),
        ("server.overhead_us_p99", percentile(&overhead, 99.0) / 1e3),
        (
            "server.store_put_us_p50",
            percentile_of(&mut store_put, 50.0) / 1e3,
        ),
        (
            "server.store_get_us_p50",
            percentile_of(&mut store_get, 50.0) / 1e3,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_increasing_and_at_the_asked_rate() {
        let a = arrivals(11, 2_000.0, 5.0);
        assert_eq!(a.len(), 10_000);
        assert_eq!(a, arrivals(11, 2_000.0, 5.0));
        assert_ne!(a, arrivals(29, 2_000.0, 5.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (4.8..5.2).contains(&span),
            "10 000 arrivals at 2 000/s took {span} s"
        );
    }

    #[test]
    fn a_rate_is_refused_for_a_slow_tail_or_a_growing_backlog() {
        let done = |latency_us: u32, late_us: u32| -> Vec<Done> {
            (0..1000u64)
                .map(|i| Done {
                    put: i % 2 == 0,
                    ok: true,
                    at_ns: i * 1_000_000,
                    latency_ns: latency_us * 1_000,
                    // Lateness grows over the run, as a backlog's does.
                    late_ns: (late_us as u64 * 1_000 * i / 1000) as u32,
                })
                .collect()
        };
        assert!(rate_ok(&done(600, 0)));
        assert!(!rate_ok(&done(30_000, 0)), "p99 over the limit");
        assert!(
            !rate_ok(&done(600, 80_000)),
            "the last tenth started 70+ ms late"
        );
    }
}
