//! Open-loop load generation against a running
//! [`pnw_server::Server`], and the scripted crash/restart/drain
//! robustness run built on it ([`run_crash_restart`], `pnw-bench
//! server-load`).
//!
//! # Open loop, and why it matters
//!
//! A closed-loop client issues each op only after the previous one
//! completes: when the store slows down, the *offered load drops with
//! it*, which hides queueing delay — the coordinated-omission trap. This
//! harness instead schedules arrivals from a **Poisson process at a fixed
//! offered rate** (exponential inter-arrival times) and measures each
//! op's **sojourn time from its scheduled arrival**, not from when the
//! worker finally got around to sending it. A generator running behind
//! schedule keeps issuing — late ops are charged their full backlog wait,
//! so p99 at loads past saturation shows the queue growing instead of a
//! flattering service time.
//!
//! Report rows are labeled `loop_mode: "open"`; never compare them
//! against closed-loop numbers as if they measured the same quantity.
//!
//! # Retries and faults
//!
//! Retryable typed errors ([`WireError::is_retryable`]) back off with
//! full jitter and re-issue, bounded by [`LoadConfig::retry`]; the
//! sojourn clock keeps running across retries, so a PUT that needed three
//! backpressure retries reports the latency the *caller* saw. With
//! [`FaultPlan`] enabled, workers also attack the server on a schedule:
//! hard connection kills, torn frames (half a frame then a dead socket),
//! and corrupt frames (CRC bit flip), each followed by a reconnect —
//! verifying mid-load that one abused connection never takes the server
//! (or the other workers) down.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pnw_core::{PnwConfig, ShardedPnwStore, Store};
use pnw_server::{
    Client, ClientError, Request, RetryPolicy, Server, ServerAddr, ServerConfig, WireError,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::report::{num, Json, Report};
use crate::scenario::OpMix;
use crate::{obj, Scale};

/// When and how workers inject faults, in ops per worker (0 = never).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Every N ops: kill the connection mid-conversation and reconnect.
    pub kill_every: u64,
    /// Every N ops: send a torn frame (partial write + dead socket).
    pub torn_every: u64,
    /// Every N ops: send a CRC-corrupt frame (the server must quarantine
    /// exactly that connection).
    pub corrupt_every: u64,
}

impl FaultPlan {
    /// A plan that exercises every fault kind on a short cycle.
    pub fn aggressive() -> Self {
        FaultPlan { kill_every: 97, torn_every: 131, corrupt_every: 173 }
    }

    /// Whether any fault is scheduled.
    pub fn any(&self) -> bool {
        self.kill_every > 0 || self.torn_every > 0 || self.corrupt_every > 0
    }
}

/// Configuration of one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Worker connections; the offered rate is split evenly across them.
    pub connections: usize,
    /// Total offered arrival rate, ops/sec (Poisson across all workers).
    pub offered_ops_per_sec: f64,
    /// Arrivals per worker (the run length; wall time ≈ arrivals/rate).
    pub arrivals_per_conn: usize,
    /// Distinct keys (uniform popularity; the serving layer is the
    /// subject here, not cache behavior).
    pub key_space: u64,
    /// Value size in bytes (must match the server's store).
    pub value_size: usize,
    /// Operation mix.
    pub mix: OpMix,
    /// Per-request deadline stamped on the wire (`None` = unbounded).
    pub deadline: Option<Duration>,
    /// Retry policy for retryable typed errors and connection failures.
    pub retry: RetryPolicy,
    /// Fault-injection schedule.
    pub faults: FaultPlan,
    /// RNG seed; worker `w` derives `seed + w`.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 4,
            offered_ops_per_sec: 2_000.0,
            arrivals_per_conn: 1_000,
            key_space: 4_096,
            value_size: 64,
            mix: OpMix::mixed(),
            deadline: None,
            retry: RetryPolicy::default(),
            faults: FaultPlan::default(),
            seed: 0x09E4_0000_0000_0BEE,
        }
    }
}

/// Results of one open-loop run at one offered load.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Worker connections.
    pub connections: usize,
    /// The offered (scheduled) arrival rate, ops/sec.
    pub offered_ops_per_sec: f64,
    /// The rate actually completed, ops/sec of wall time.
    pub achieved_ops_per_sec: f64,
    /// Ops that eventually succeeded (possibly after retries).
    pub completed: u64,
    /// Ops that failed even after exhausting retries.
    pub failed: u64,
    /// Total retry attempts across all ops.
    pub retries: u64,
    /// Typed `Backpressure` rejections observed (pre-retry).
    pub backpressure: u64,
    /// Typed `Overloaded` rejections observed.
    pub overloaded: u64,
    /// Typed `DeadlineExceeded` rejections observed.
    pub deadline_exceeded: u64,
    /// Typed `Draining` rejections observed.
    pub draining: u64,
    /// Typed `Corruption` errors observed — reads the store *detected* as
    /// corrupt rather than serving silently. Non-retryable, so each one
    /// also counts as a failed op.
    pub corruption: u64,
    /// Faults injected (kills + torn + corrupt frames).
    pub faults_injected: u64,
    /// Reconnects performed (after faults and connection errors).
    pub reconnects: u64,
    /// Median sojourn time (scheduled arrival → completion), µs.
    pub p50_us: u64,
    /// 90th-percentile sojourn time, µs.
    pub p90_us: u64,
    /// 99th-percentile sojourn time, µs. Past saturation this grows with
    /// the backlog — the number closed-loop measurement hides.
    pub p99_us: u64,
    /// Worst sojourn time, µs.
    pub max_us: u64,
    /// Wall-clock of the measured window.
    pub elapsed: Duration,
}

#[derive(Default)]
struct Tally {
    completed: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    backpressure: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    draining: AtomicU64,
    corruption: AtomicU64,
    faults: AtomicU64,
    reconnects: AtomicU64,
}

fn note_typed_error(tally: &Tally, e: &ClientError) {
    if let ClientError::Server(w) = e {
        match w {
            WireError::Backpressure { .. } => {
                tally.backpressure.fetch_add(1, Ordering::Relaxed);
            }
            WireError::Overloaded => {
                tally.overloaded.fetch_add(1, Ordering::Relaxed);
            }
            WireError::DeadlineExceeded => {
                tally.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            WireError::Draining => {
                tally.draining.fetch_add(1, Ordering::Relaxed);
            }
            WireError::Corruption { .. } => {
                tally.corruption.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// One op under the retry policy, counting typed rejections and
/// reconnecting on connection failures. Returns whether it succeeded.
fn call_counted(
    client: &mut Client,
    req: &Request,
    retry: &RetryPolicy,
    rng_state: &mut u64,
    tally: &Tally,
) -> bool {
    let mut attempt = 0u32;
    loop {
        let err = match client.call(req) {
            Ok(_) => return true,
            Err(e) => e,
        };
        note_typed_error(tally, &err);
        if !err.is_retryable() || attempt >= retry.max_retries {
            return false;
        }
        if matches!(err, ClientError::Io(_) | ClientError::Frame(_))
            && client.reconnect().is_ok()
        {
            tally.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        std::thread::sleep(retry.backoff(attempt, rng_state));
        tally.retries.fetch_add(1, Ordering::Relaxed);
        attempt += 1;
    }
}

/// Injects the fault scheduled for op number `n` (if any); returns how
/// many faults fired.
fn maybe_fault(client: &mut Client, plan: &FaultPlan, n: u64, tally: &Tally) {
    let due = |every: u64| every > 0 && n % every == every - 1;
    if due(plan.kill_every) {
        client.kill();
        tally.faults.fetch_add(1, Ordering::Relaxed);
        if client.reconnect().is_ok() {
            tally.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }
    if due(plan.torn_every) {
        // Torn frame: half a PUT frame, then a dead socket.
        let _ = client.send_torn_frame(&Request::Get { key: 0 }, 9);
        tally.faults.fetch_add(1, Ordering::Relaxed);
        if client.reconnect().is_ok() {
            tally.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }
    if due(plan.corrupt_every) {
        // Corrupt frame: the server quarantines this connection; the
        // next call sees the typed error / EOF and reconnects.
        let _ = client.send_corrupt_frame(&Request::Get { key: 0 });
        tally.faults.fetch_add(1, Ordering::Relaxed);
        if client.reconnect().is_ok() {
            tally.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs one open-loop measurement against a server at `addr`.
///
/// Every worker needs the server's store to accept `cfg.value_size`
/// values; size them to match.
pub fn run_open_loop(addr: &ServerAddr, cfg: &LoadConfig) -> LoadReport {
    assert!(cfg.connections > 0, "need at least one connection");
    assert!(cfg.offered_ops_per_sec > 0.0, "offered load must be positive");
    let per_conn_rate = cfg.offered_ops_per_sec / cfg.connections as f64;
    let tally = Arc::new(Tally::default());
    let barrier = Arc::new(Barrier::new(cfg.connections + 1));
    let epoch = Instant::now();

    let mut handles = Vec::new();
    for w in 0..cfg.connections {
        let addr = addr.clone();
        let cfg = cfg.clone();
        let tally = Arc::clone(&tally);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.set_deadline(cfg.deadline);
            client.reseed(cfg.seed ^ (w as u64).wrapping_mul(0x9E37_79B9));
            let mut rng = StdRng::seed_from_u64(cfg.seed + w as u64);
            let mut backoff_rng = cfg.seed ^ 0xB0FF ^ (w as u64) | 1;
            let mut sojourn_us: Vec<u64> = Vec::with_capacity(cfg.arrivals_per_conn);
            let mut value = vec![0u8; cfg.value_size];

            barrier.wait();
            let start = Instant::now();
            // The Poisson arrival schedule, built incrementally: the next
            // arrival is `Exp(rate)` after the previous *scheduled* one —
            // independent of when the worker actually caught up.
            let mut scheduled = Duration::ZERO;
            for n in 0..cfg.arrivals_per_conn {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                scheduled += Duration::from_secs_f64(-u.ln() / per_conn_rate);
                // Sleep only if ahead of schedule; behind, issue at once
                // and let the sojourn clock charge the backlog.
                let now = start.elapsed();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                maybe_fault(&mut client, &cfg.faults, n as u64, &tally);
                let key = rng.gen_range(0..cfg.key_space);
                let dice: u8 = rng.gen_range(0..100u8);
                let req = if dice < cfg.mix.put_pct {
                    for b in &mut value {
                        *b = rng.gen();
                    }
                    Request::Put { key, value: value.clone() }
                } else if dice < cfg.mix.put_pct + cfg.mix.get_pct {
                    Request::Get { key }
                } else {
                    Request::Delete { key }
                };
                let ok = call_counted(&mut client, &req, &cfg.retry, &mut backoff_rng, &tally);
                if ok {
                    tally.completed.fetch_add(1, Ordering::Relaxed);
                } else {
                    tally.failed.fetch_add(1, Ordering::Relaxed);
                }
                // Coordinated-omission-safe: from *scheduled* arrival, not
                // from send.
                let sojourn = start.elapsed().saturating_sub(scheduled);
                sojourn_us.push(sojourn.as_micros() as u64);
            }
            (epoch.elapsed(), sojourn_us)
        }));
    }

    barrier.wait();
    let started = epoch.elapsed();
    let mut sojourns: Vec<u64> = Vec::new();
    let mut end = Duration::ZERO;
    for h in handles {
        let (t_end, s) = h.join().expect("load worker");
        end = end.max(t_end);
        sojourns.extend(s);
    }
    let elapsed = end.saturating_sub(started);

    sojourns.sort_unstable();
    let pct = |p: f64| -> u64 {
        if sojourns.is_empty() {
            0
        } else {
            sojourns[((sojourns.len() as f64 - 1.0) * p).round() as usize]
        }
    };
    let completed = tally.completed.load(Ordering::Relaxed);
    LoadReport {
        connections: cfg.connections,
        offered_ops_per_sec: cfg.offered_ops_per_sec,
        achieved_ops_per_sec: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        completed,
        failed: tally.failed.load(Ordering::Relaxed),
        retries: tally.retries.load(Ordering::Relaxed),
        backpressure: tally.backpressure.load(Ordering::Relaxed),
        overloaded: tally.overloaded.load(Ordering::Relaxed),
        deadline_exceeded: tally.deadline_exceeded.load(Ordering::Relaxed),
        draining: tally.draining.load(Ordering::Relaxed),
        corruption: tally.corruption.load(Ordering::Relaxed),
        faults_injected: tally.faults.load(Ordering::Relaxed),
        reconnects: tally.reconnects.load(Ordering::Relaxed),
        p50_us: pct(0.50),
        p90_us: pct(0.90),
        p99_us: pct(0.99),
        max_us: sojourns.last().copied().unwrap_or(0),
        elapsed,
    }
}

fn report_row(r: &LoadReport) -> Json {
    obj! {
        "loop_mode": "open",
        "connections": r.connections,
        "offered_ops_per_sec": num(r.offered_ops_per_sec, 1),
        "achieved_ops_per_sec": num(r.achieved_ops_per_sec, 1),
        "completed": r.completed,
        "failed": r.failed,
        "retries": r.retries,
        "backpressure": r.backpressure,
        "overloaded": r.overloaded,
        "deadline_exceeded": r.deadline_exceeded,
        "draining": r.draining,
        "corruption": r.corruption,
        "faults_injected": r.faults_injected,
        "reconnects": r.reconnects,
        "p50_us": r.p50_us,
        "p90_us": r.p90_us,
        "p99_us": r.p99_us,
        "max_us": r.max_us,
        "elapsed_ms": num(r.elapsed.as_secs_f64() * 1e3, 3),
    }
}

/// The scripted robustness run behind `pnw-bench server-load` (the CI
/// `server-smoke` and `wear-matrix` lanes), all in one process:
///
/// 1. Open a **durable** sharded store in a temp dir and serve it over a
///    Unix socket.
/// 2. Phase 1: open-loop load at a moderate offered rate **with fault
///    injection on** — connection kills, torn frames, corrupt frames.
/// 3. Kill the server **without a checkpoint** (simulated crash), reopen
///    the store from the same directory (WAL replay), restart the server
///    on the same socket; clients reconnect.
/// 4. Phase 2: open-loop load **past saturation** against a deliberately
///    small admission gate — backpressure/overload rejections and backlog
///    growth must show up as typed errors and p99, not as a wedged server.
/// 5. Write both load points (`out`, or stdout) and drain gracefully.
///    `Ok` only if the drain was clean.
///
/// `wear` runs the same script on wearing-out media: a low endurance
/// threshold with probabilistic stuck-at latching, the background
/// scrubber on, and a small key space so hot words genuinely cross the
/// threshold mid-run. The contract tightens: the server must stay up
/// through the latching, any corruption must surface as the *typed*
/// non-retryable wire error (counted per phase, never a quarantine or a
/// crash), the wear machinery must demonstrably engage (latched bits or
/// retired buckets in the final snapshot), and the drain must still be
/// clean.
pub fn run_crash_restart(
    value_size: usize,
    wear: bool,
    scale: Scale,
    out: Option<&Path>,
) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("pnw-server-load-{}", std::process::id()));
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&store_dir)
        .map_err(|e| format!("cannot create {}: {e}", store_dir.display()))?;
    let addr = ServerAddr::Unix(dir.join("pnw.sock"));
    let result = crash_restart(value_size, wear, scale, out, &store_dir, &addr);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn crash_restart(
    value_size: usize,
    wear: bool,
    scale: Scale,
    out: Option<&Path>,
    store_dir: &Path,
    addr: &ServerAddr,
) -> Result<(), String> {
    let store_cfg = || {
        let mut c = PnwConfig::new(scale.pick(16_384, 131_072), value_size)
            .with_clusters(4)
            .with_shards(4)
            .with_path(store_dir);
        if wear {
            // Endurance 2 with a 10% latch draw: the shrunken key space
            // below rewrites hot words well past the threshold mid-run,
            // so cells genuinely latch while the background scrubber
            // races the clients to the damage.
            c = c.with_endurance(2).with_stuck_latch_probability(0.1).with_scrub(20_000);
        }
        c
    };
    // Wear mode concentrates the load on few keys so per-word write
    // counts actually cross the endurance threshold within a CI run.
    let key_space = if wear { 96 } else { 4_096 };
    let open_store = || -> Result<Arc<dyn Store>, String> {
        Ok(Arc::new(
            ShardedPnwStore::open(store_cfg()).map_err(|e| format!("open store: {e}"))?,
        ))
    };

    // Phase 1: moderate load, faults on, durable server.
    let server = Server::start(open_store()?, addr, ServerConfig::default())
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!("server-load: phase 1 (faults on) against {addr}");
    let phase1 = run_open_loop(
        addr,
        &LoadConfig {
            connections: 4,
            // Below this host class's saturation point (~3k/s synchronous
            // durable PUTs over 4 conns) so phase 1 is the healthy
            // baseline and phase 2 is the one past saturation.
            offered_ops_per_sec: scale.pick(1_000.0, 2_000.0),
            arrivals_per_conn: scale.pick(300, 5_000),
            value_size,
            key_space,
            faults: FaultPlan::aggressive(),
            retry: RetryPolicy { max_retries: 6, ..Default::default() },
            seed: 0xFA17,
            ..Default::default()
        },
    );
    println!("phase1: {}", report_row(&phase1));
    if phase1.completed == 0 {
        return Err("phase 1 completed nothing".into());
    }
    if phase1.faults_injected == 0 {
        return Err("phase 1 injected no faults".into());
    }

    // Simulated crash: no checkpoint — the reopen below must replay the
    // WAL. The store object is dropped with the server.
    let stats = server.stats();
    println!(
        "server-load: killing server (no checkpoint); stats: ok {} err {} quarantined {}",
        stats.requests_ok, stats.requests_err, stats.quarantined
    );
    server.abort();

    // Restart on the same socket, same durable dir; a small admission
    // gate makes the saturation point cheap to reach. Keep a handle on
    // the store so the wear machinery can be audited after the drain.
    let store = open_store()?;
    let server = Server::start(
        store.clone(),
        addr,
        ServerConfig { max_inflight: 2, max_waiting: 8, ..ServerConfig::default() },
    )
    .map_err(|e| format!("rebind {addr}: {e}"))?;
    println!("server-load: restarted after crash (WAL replayed); phase 2 past saturation");
    let phase2 = run_open_loop(
        addr,
        &LoadConfig {
            connections: 8,
            offered_ops_per_sec: scale.pick(60_000.0, 200_000.0),
            arrivals_per_conn: scale.pick(250, 3_000),
            value_size,
            key_space,
            deadline: Some(Duration::from_millis(100)),
            retry: RetryPolicy { max_retries: 2, ..Default::default() },
            seed: 0x5A70,
            ..Default::default()
        },
    );
    println!("phase2: {}", report_row(&phase2));
    let saturated = phase2.achieved_ops_per_sec < phase2.offered_ops_per_sec * 0.9
        || phase2.overloaded + phase2.backpressure + phase2.deadline_exceeded > 0
        || phase2.p99_us > phase1.p99_us.saturating_mul(4);
    if !saturated {
        println!("server-load: warning: phase 2 did not visibly saturate this host");
    }

    let corruption_answers = phase1.corruption + phase2.corruption;
    Report::new("server_open_loop", scale)
        .field("results", vec![report_row(&phase1), report_row(&phase2)])
        .write_json(out)
        .map_err(|e| format!("write json: {e}"))?;

    // Graceful drain gates the exit code — the CI lane's whole point.
    let report = server.drain().map_err(|e| format!("drain checkpoint: {e}"))?;
    if !report.clean {
        return Err(format!("drain forced {} straggler connection(s)", report.stragglers));
    }
    println!("server-load: clean drain in {:?}", report.elapsed);

    let scrub = store.snapshot().scrub;
    println!(
        "server-load: scrub: scanned {} crc_failures {} repairs {} retired {} \
         stuck_bits {}; typed corruption answers {corruption_answers}",
        scrub.scanned, scrub.crc_failures, scrub.repairs, scrub.retired, scrub.stuck_bits,
    );
    if wear && scrub.stuck_bits == 0 && scrub.retired == 0 {
        // A wear run where nothing latched tested nothing — the knobs
        // above are tuned so this cannot happen on an honest run.
        return Err("wear mode latched no bits and retired no buckets".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_server(value_size: usize) -> Server {
        let store: Arc<dyn Store> = Arc::new(ShardedPnwStore::new(
            PnwConfig::new(16_384, value_size).with_clusters(2).with_shards(2),
        ));
        Server::start(
            store,
            &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
            ServerConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn open_loop_completes_and_reports() {
        let server = start_server(16);
        let cfg = LoadConfig {
            connections: 2,
            offered_ops_per_sec: 4_000.0,
            arrivals_per_conn: 150,
            key_space: 512,
            value_size: 16,
            ..Default::default()
        };
        let r = run_open_loop(server.local_addr(), &cfg);
        assert_eq!(r.completed + r.failed, 300);
        assert_eq!(r.failed, 0, "unloaded server must complete everything");
        assert!(r.achieved_ops_per_sec > 0.0);
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.max_us);
        server.drain().unwrap();
    }

    #[test]
    fn faults_do_not_sink_the_run() {
        let server = start_server(16);
        let cfg = LoadConfig {
            connections: 2,
            offered_ops_per_sec: 6_000.0,
            arrivals_per_conn: 120,
            key_space: 256,
            value_size: 16,
            faults: FaultPlan { kill_every: 25, torn_every: 40, corrupt_every: 55 },
            ..Default::default()
        };
        let r = run_open_loop(server.local_addr(), &cfg);
        assert!(r.faults_injected > 0, "faults must actually fire");
        assert!(r.reconnects >= r.faults_injected, "every fault reconnects");
        // The server survives: the overwhelming majority of ops complete
        // (an op racing its own injected kill may legitimately fail).
        assert!(
            r.completed as f64 >= 0.95 * (r.completed + r.failed) as f64,
            "completed {} failed {}",
            r.completed,
            r.failed
        );
        let stats = server.stats();
        assert!(stats.quarantined > 0, "corrupt frames must quarantine");
        server.drain().unwrap();
    }

    #[test]
    fn saturation_shows_up_in_sojourn_not_drops() {
        // max_inflight 1 + a load far above what one permit serves: the
        // open-loop p99 must reflect the backlog (≫ p50 service time).
        let store: Arc<dyn Store> = Arc::new(ShardedPnwStore::new(
            PnwConfig::new(16_384, 16).with_clusters(2).with_shards(2),
        ));
        let server = Server::start(
            store,
            &ServerAddr::parse("tcp://127.0.0.1:0").unwrap(),
            ServerConfig { max_inflight: 1, ..ServerConfig::default() },
        )
        .unwrap();
        let lo = run_open_loop(
            server.local_addr(),
            &LoadConfig {
                connections: 1,
                offered_ops_per_sec: 500.0,
                arrivals_per_conn: 100,
                value_size: 16,
                ..Default::default()
            },
        );
        let hi = run_open_loop(
            server.local_addr(),
            &LoadConfig {
                connections: 4,
                offered_ops_per_sec: 100_000.0,
                arrivals_per_conn: 100,
                value_size: 16,
                ..Default::default()
            },
        );
        assert!(
            hi.achieved_ops_per_sec < hi.offered_ops_per_sec * 0.9
                || hi.p99_us > lo.p99_us,
            "past saturation the report must show backlog: lo p99 {}µs hi p99 {}µs",
            lo.p99_us,
            hi.p99_us
        );
        server.drain().unwrap();
    }
}
