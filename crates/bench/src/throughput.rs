//! Multi-threaded throughput harness over any [`Store`] backend.
//!
//! The paper's figures measure bit flips and modeled latency per operation;
//! this harness measures the dimension the figures hold fixed — how many
//! operations per second the *store* sustains when several client threads
//! hit it at once. Each thread drives a shared `Arc<dyn Store>` — the
//! sharded PNW store by default, or any backend of the Figure 9 comparison
//! ([`Backend`]) — with a configurable PUT/GET/DELETE mix over
//! Zipfian-distributed keys (skewed access is the worst case for a sharded
//! design: hot keys pile onto a few shards).
//!
//! Two write paths are measured:
//!
//! * **per-op** (`batch = 0`): every PUT/DELETE is issued individually,
//!   exactly as a point-lookup client would;
//! * **batched** (`batch = N`): writes are buffered into a [`Batch`] of N
//!   ops and submitted through [`Store::apply`] — on the sharded store one
//!   lock acquisition, one background-install poll and one model-snapshot
//!   load per shard per batch instead of per op. GETs always execute
//!   immediately (reads don't batch).
//!
//! Three numbers come out per run:
//!
//! * **ops/sec** — wall-clock throughput across all threads;
//! * **p50/p99 modeled latency** — the per-operation NVM cost under the
//!   device's latency model (batched writes are charged their batch's
//!   aggregate cost split evenly across the batch);
//! * **p50/p99 predict latency** — the *measured* wall-clock cost of the
//!   model prediction inside each fresh PUT (per-op PNW runs only: the
//!   batch path deliberately skips per-op timing, and baselines have no
//!   prediction).
//!
//! By default the harness *emulates* the modeled device latency by
//! sleeping it (scaled by [`ThroughputConfig::latency_scale`]) after every
//! operation (after every batch in batched mode — same total sleep). That
//! makes each client I/O-bound — exactly like a thread waiting on a real
//! NVM DIMM — so the measured scaling reflects the store's concurrency
//! (shard parallelism, lock contention), not how many cores the benchmark
//! machine happens to have. Disable it (`emulate_latency: false`) to
//! stress the raw software path instead — that is the configuration where
//! batched vs per-op overhead is visible.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pnw_baselines::{FpTreeLike, NoveLsmLike, PathHashStore};
use pnw_core::{Batch, PnwConfig, RetrainMode, ShardedPnwStore, Store, StoreError};
use pnw_nvm_sim::{projected_lifetime_ops, LatencyModel, MemoryTech};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Which [`Store`] backend a throughput run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The sharded PNW store (see [`ThroughputConfig::shards`]).
    Pnw,
    /// The FPTree-like B+-tree baseline.
    FpTree,
    /// The NoveLSM-like LSM baseline.
    Lsm,
    /// The Path-Hashing baseline.
    PathHash,
}

impl Backend {
    /// Every backend, in Figure 9 order.
    pub fn all() -> [Backend; 4] {
        [Backend::Pnw, Backend::FpTree, Backend::Lsm, Backend::PathHash]
    }

    /// The `--store` flag spelling.
    pub fn flag(&self) -> &'static str {
        match self {
            Backend::Pnw => "pnw",
            Backend::FpTree => "fptree",
            Backend::Lsm => "lsm",
            Backend::PathHash => "path",
        }
    }

    /// Parses a `--store` flag value.
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::all().into_iter().find(|b| b.flag() == s)
    }
}

/// Operation mix in percent; must sum to 100.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// PUT share (fresh writes and updates).
    pub put_pct: u8,
    /// GET share.
    pub get_pct: u8,
    /// DELETE share.
    pub del_pct: u8,
}

impl OpMix {
    /// The default mixed workload: 40% PUT / 50% GET / 10% DELETE.
    pub fn mixed() -> Self {
        OpMix {
            put_pct: 40,
            get_pct: 50,
            del_pct: 10,
        }
    }

    /// A write-only workload (the paper's replacement-stream shape).
    pub fn write_only() -> Self {
        OpMix {
            put_pct: 100,
            get_pct: 0,
            del_pct: 0,
        }
    }

    /// A GET-heavy workload: 90% GET / 10% PUT (YCSB-B shape) — the mix
    /// where the lock-free read path carries most of the traffic.
    pub fn read_heavy() -> Self {
        OpMix {
            put_pct: 10,
            get_pct: 90,
            del_pct: 0,
        }
    }
}

/// Configuration of one throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Backend to drive.
    pub backend: Backend,
    /// Client threads.
    pub threads: usize,
    /// Store shards (see [`PnwConfig::with_shards`]; PNW backend only).
    pub shards: usize,
    /// Writes per [`Store::apply`] batch; 0 issues every op individually.
    pub batch: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Distinct keys; capacity is sized to 2× this.
    pub key_space: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Cluster count K for the model (PNW backend only).
    pub clusters: usize,
    /// Operation mix.
    pub mix: OpMix,
    /// Zipf exponent for key popularity (0 = uniform; 0.99 = YCSB-like).
    pub zipf_theta: f64,
    /// RNG seed; thread `t` uses `seed + t`.
    pub seed: u64,
    /// Multiplier applied to the modeled latency when emulating it. The
    /// default of 10× models a device an order of magnitude slower than
    /// Optane so per-op device time dominates per-op CPU time.
    pub latency_scale: u32,
    /// Sleep the (scaled) modeled latency after every operation.
    pub emulate_latency: bool,
    /// Sampling interval for the windowed time series (bit flips per PUT,
    /// retrains, model epoch per window); 0 disables the sampler.
    pub window_ms: u64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            backend: Backend::Pnw,
            threads: 1,
            shards: 8,
            batch: 0,
            ops_per_thread: 2_000,
            key_space: 4_096,
            value_size: 64,
            clusters: 4,
            mix: OpMix::mixed(),
            zipf_theta: 0.99,
            seed: 0xBEE5,
            latency_scale: 10,
            emulate_latency: true,
            window_ms: 0,
        }
    }
}

/// One sample of the windowed time series a run emits when
/// [`ThroughputConfig::window_ms`] is non-zero. Deltas are per window;
/// `retrains`/`model_epoch` are cumulative at sample time, so a step in
/// either marks the window where an adapted model went live.
#[derive(Debug, Clone)]
pub struct ThroughputWindow {
    /// Sample time since measurement start, in milliseconds.
    pub t_ms: f64,
    /// PUTs completed in this window.
    pub puts: u64,
    /// Device bit flips in this window (value + header + index).
    pub bit_flips: u64,
    /// Device bit flips per PUT in this window.
    pub flips_per_put: f64,
    /// Completed training runs, cumulative at sample time.
    pub retrains: u64,
    /// Model epoch (install count) at sample time.
    pub model_epoch: u64,
}

/// Results of one throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// How load was generated: `"closed"` — each client thread issues its
    /// next op only after the previous one completes, so the measured
    /// latency hides queueing delay (coordinated omission). The open-loop
    /// counterpart lives in [`serverbench`](crate::serverbench) and labels
    /// its rows `"open"`; the label keeps the two regimes from being
    /// compared as if they measured the same thing.
    pub loop_mode: &'static str,
    /// Backend driven (its [`Store::name`]).
    pub backend: String,
    /// Client threads used.
    pub threads: usize,
    /// Store shards used (PNW backend; 1 otherwise).
    pub shards: usize,
    /// Batch size used (0 = per-op).
    pub batch: usize,
    /// Operations completed (all threads).
    pub total_ops: u64,
    /// Wall-clock time of the measured window.
    pub elapsed: Duration,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Median modeled per-op NVM latency, in nanoseconds.
    pub p50_modeled_ns: u64,
    /// 99th-percentile modeled per-op NVM latency, in nanoseconds.
    pub p99_modeled_ns: u64,
    /// Median *measured* model-prediction latency per fresh PUT, in
    /// nanoseconds. Per-op PNW runs time every fresh PUT; batched runs
    /// time a stride of each group's fresh PUTs
    /// ([`pnw_core::BatchReport::predict_samples`]). 0 on baselines.
    pub predict_p50_ns: u64,
    /// 99th-percentile measured prediction latency per fresh PUT.
    pub predict_p99_ns: u64,
    /// PUTs served.
    pub puts: u64,
    /// GETs served.
    pub gets: u64,
    /// DELETEs served.
    pub deletes: u64,
    /// PUTs rejected with `Full` (store/shard out of space).
    pub full_errors: u64,
    /// Total NVM bit flips across the store during the measured window.
    pub bit_flips: u64,
    /// Completed training runs (warm-up train + background retrains).
    pub retrains: u64,
    /// Model epoch of the final published snapshot (== install count).
    pub model_epoch: u64,
    /// Wall-clock of the last completed training run, in milliseconds.
    pub last_train_ms: f64,
    /// Training-snapshot size before the reservoir cap, last run.
    pub train_samples_pre_cap: usize,
    /// Samples actually trained on (after the reservoir cap), last run.
    pub train_samples_post_cap: usize,
    /// Highest write count observed on any single NVM word during the
    /// run — the wear hot spot. 0 on backends without word-wear tracking.
    pub max_word_writes: u32,
    /// Operations this run's wear pattern projects until the hottest
    /// word crosses the PCM endurance limit
    /// ([`pnw_nvm_sim::projected_lifetime_ops`]). Infinite when nothing
    /// wore; serialized as JSON `null` in that case.
    pub projected_lifetime_ops: f64,
    /// Windowed time series (empty when
    /// [`ThroughputConfig::window_ms`] is 0).
    pub windows: Vec<ThroughputWindow>,
}

/// Zipfian rank sampler over `0..n` via an inverted CDF table.
#[derive(Debug, Clone)]
pub struct Zipfian {
    cum: Vec<f64>,
}

impl Zipfian {
    /// Builds the popularity distribution `p(rank) ∝ 1/(rank+1)^theta`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cum.push(acc);
        }
        let total = acc;
        for c in &mut cum {
            *c /= total;
        }
        Zipfian { cum }
    }

    /// Draws one rank (0 = most popular).
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        self.cum.partition_point(|&c| c < u) as u64
    }
}

/// Deterministic value for a key, written into a reusable buffer: one of
/// four bit-pattern families plus a per-write random tail, so the K-means
/// model has real structure to steer by while updates still flip some
/// bits. The client loop reuses one buffer per thread — a 64-byte heap
/// allocation per op otherwise shows up as ~20% of the batched PUT path.
fn fill_value(key: u64, buf: &mut [u8], rng: &mut StdRng) {
    let fill = match key % 4 {
        0 => 0x00,
        1 => 0xFF,
        2 => 0x0F,
        _ => 0xAA,
    };
    buf.fill(fill);
    let tail = buf.len().min(8);
    let start = buf.len() - tail;
    for b in &mut buf[start..] {
        *b = rng.gen();
    }
}

/// Allocating wrapper around [`fill_value`] for warm-up loops.
fn value_for(key: u64, value_size: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut v = vec![0u8; value_size];
    fill_value(key, &mut v, rng);
    v
}

/// Builds the configured backend, warms half the key space (training the
/// model on it for PNW), resets the measurement window and returns it as a
/// trait object.
fn build_store(cfg: &ThroughputConfig) -> Arc<dyn Store> {
    let capacity = (cfg.key_space * 2) as usize;
    let mut warm_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED);
    let store: Arc<dyn Store> = match cfg.backend {
        Backend::Pnw => {
            let store_cfg = PnwConfig::new(capacity, cfg.value_size)
                .with_clusters(cfg.clusters)
                .with_seed(cfg.seed)
                .with_shards(cfg.shards)
                .with_load_factor(0.95)
                .with_retrain(RetrainMode::Background);
            let store = ShardedPnwStore::new(store_cfg);
            for key in 0..cfg.key_space / 2 {
                let v = value_for(key, cfg.value_size, &mut warm_rng);
                store.put(key, &v).expect("warm-up fits");
            }
            store.retrain_now().expect("training");
            Arc::new(store)
        }
        Backend::FpTree => Arc::new(FpTreeLike::new(capacity, cfg.value_size)),
        Backend::Lsm => Arc::new(NoveLsmLike::new(capacity, cfg.value_size)),
        Backend::PathHash => Arc::new(PathHashStore::new(capacity, cfg.value_size)),
    };
    if cfg.backend != Backend::Pnw {
        for key in 0..cfg.key_space / 2 {
            let v = value_for(key, cfg.value_size, &mut warm_rng);
            store.put(key, &v).expect("warm-up fits");
        }
    }
    store.reset_device_stats();
    store
}

/// Runs one throughput measurement and returns its report.
pub fn run(cfg: &ThroughputConfig) -> ThroughputReport {
    assert_eq!(
        cfg.mix.put_pct as u16 + cfg.mix.get_pct as u16 + cfg.mix.del_pct as u16,
        100,
        "op mix must sum to 100"
    );
    let store = build_store(cfg);

    let zipf = Arc::new(Zipfian::new(cfg.key_space as usize, cfg.zipf_theta));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let puts = Arc::new(AtomicU64::new(0));
    let gets = Arc::new(AtomicU64::new(0));
    let deletes = Arc::new(AtomicU64::new(0));
    let full_errors = Arc::new(AtomicU64::new(0));

    let latency = LatencyModel::xpoint();
    let value_lines = (cfg.value_size as u64).div_ceil(64);
    let get_cost = latency.read_cost(value_lines);
    let del_cost = Duration::from_nanos(600); // one flag-line write

    // Workers stamp their own start/end against this shared epoch: the
    // coordinator thread may be descheduled for the entire run on a
    // saturated host, so a coordinator-side `Instant::now()` after the
    // barrier can land arbitrarily late and inflate ops/sec.
    let epoch = Instant::now();
    let mut handles = Vec::new();
    for t in 0..cfg.threads {
        let store = Arc::clone(&store);
        let zipf = Arc::clone(&zipf);
        let barrier = Arc::clone(&barrier);
        let (puts, gets, deletes, full_errors) = (
            Arc::clone(&puts),
            Arc::clone(&gets),
            Arc::clone(&deletes),
            Arc::clone(&full_errors),
        );
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(cfg.seed + t as u64);
            let mut lat_ns: Vec<u64> = Vec::with_capacity(cfg.ops_per_thread);
            let mut predict_ns: Vec<u64> = Vec::new();
            // GETs read into one reusable buffer per client thread — the
            // store's allocation-free read path. Batched mode also reuses
            // one Batch allocation across groups.
            let mut get_buf = vec![0u8; cfg.value_size];
            let mut val_buf = vec![0u8; cfg.value_size];
            let mut batch = Batch::with_capacity(cfg.batch);

            // Submits the pending batch: one Store::apply call, charging
            // the aggregate modeled cost split evenly across its ops.
            let flush = |batch: &mut Batch,
                         lat_ns: &mut Vec<u64>,
                         predict_ns: &mut Vec<u64>,
                         puts: &AtomicU64,
                         deletes: &AtomicU64,
                         full_errors: &AtomicU64| {
                if batch.is_empty() {
                    return;
                }
                let r = store.apply(batch);
                puts.fetch_add(r.puts, Ordering::Relaxed);
                deletes.fetch_add(r.deletes, Ordering::Relaxed);
                full_errors.fetch_add(r.failures.len() as u64, Ordering::Relaxed);
                // The batch path samples prediction latency on a stride of
                // its fresh PUTs; fold the samples into the same pool the
                // per-op path fills.
                predict_ns.extend_from_slice(&r.predict_samples);
                let per_op = r.modeled_latency / batch.len().max(1) as u32;
                for _ in 0..batch.len() {
                    lat_ns.push(per_op.as_nanos() as u64);
                }
                if cfg.emulate_latency {
                    std::thread::sleep(r.modeled_latency * cfg.latency_scale);
                }
                batch.clear();
            };

            barrier.wait();
            let t_start = epoch.elapsed();
            for _ in 0..cfg.ops_per_thread {
                let key = zipf.sample(&mut rng);
                let dice: u8 = rng.gen_range(0..100u8);
                if dice < cfg.mix.put_pct {
                    fill_value(key, &mut val_buf, &mut rng);
                    if cfg.batch > 0 {
                        // Copies into one of the batch's recycled value
                        // buffers — no allocation after the first group.
                        batch.put(key, &val_buf);
                        if batch.len() >= cfg.batch {
                            flush(
                                &mut batch,
                                &mut lat_ns,
                                &mut predict_ns,
                                &puts,
                                &deletes,
                                &full_errors,
                            );
                        }
                        continue;
                    }
                    let cost = match store.put(key, &val_buf) {
                        Ok(r) => {
                            puts.fetch_add(1, Ordering::Relaxed);
                            predict_ns.push(r.predict.as_nanos() as u64);
                            r.modeled_latency
                        }
                        Err(StoreError::Full) => {
                            // Store out of space: reclaim by deleting the
                            // key we were about to overwrite (or skip).
                            full_errors.fetch_add(1, Ordering::Relaxed);
                            let _ = store.delete(key);
                            del_cost
                        }
                        Err(e) => panic!("put failed: {e}"),
                    };
                    lat_ns.push(cost.as_nanos() as u64);
                    if cfg.emulate_latency {
                        std::thread::sleep(cost * cfg.latency_scale);
                    }
                } else if dice < cfg.mix.put_pct + cfg.mix.get_pct {
                    // Reads never batch: they execute immediately even in
                    // batched mode (read-your-writes only up to the last
                    // flush, like any write-buffered client).
                    let _ = store.get_into(key, &mut get_buf).expect("get ok");
                    gets.fetch_add(1, Ordering::Relaxed);
                    lat_ns.push(get_cost.as_nanos() as u64);
                    if cfg.emulate_latency {
                        std::thread::sleep(get_cost * cfg.latency_scale);
                    }
                } else {
                    if cfg.batch > 0 {
                        batch.delete(key);
                        if batch.len() >= cfg.batch {
                            flush(
                                &mut batch,
                                &mut lat_ns,
                                &mut predict_ns,
                                &puts,
                                &deletes,
                                &full_errors,
                            );
                        }
                        continue;
                    }
                    let _ = store.delete(key).expect("delete ok");
                    deletes.fetch_add(1, Ordering::Relaxed);
                    lat_ns.push(del_cost.as_nanos() as u64);
                    if cfg.emulate_latency {
                        std::thread::sleep(del_cost * cfg.latency_scale);
                    }
                }
            }
            flush(
                &mut batch,
                &mut lat_ns,
                &mut predict_ns,
                &puts,
                &deletes,
                &full_errors,
            );
            (t_start, epoch.elapsed(), lat_ns, predict_ns)
        }));
    }

    barrier.wait();
    // The sampler rides alongside the workers, snapshotting cumulative
    // counters every window and differencing them into a time series.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = (cfg.window_ms > 0).then(|| {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let window = Duration::from_millis(cfg.window_ms);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut rows: Vec<ThroughputWindow> = Vec::new();
            let mut last_puts = store.snapshot().puts;
            let mut last_flips = store.device_stats().totals.bit_flips;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(window);
                let snap = store.snapshot();
                let flips = store.device_stats().totals.bit_flips;
                let dputs = snap.puts - last_puts;
                let dflips = flips - last_flips;
                rows.push(ThroughputWindow {
                    t_ms: t0.elapsed().as_secs_f64() * 1e3,
                    puts: dputs,
                    bit_flips: dflips,
                    flips_per_put: if dputs == 0 {
                        0.0
                    } else {
                        dflips as f64 / dputs as f64
                    },
                    retrains: snap.retrains,
                    model_epoch: snap.train.epoch,
                });
                last_puts = snap.puts;
                last_flips = flips;
            }
            rows
        })
    });
    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.threads * cfg.ops_per_thread);
    let mut predicts: Vec<u64> = Vec::new();
    let mut span_start = Duration::MAX;
    let mut span_end = Duration::ZERO;
    for h in handles {
        let (t_start, t_end, lat, pred) = h.join().expect("worker thread");
        span_start = span_start.min(t_start);
        span_end = span_end.max(t_end);
        latencies.extend(lat);
        predicts.extend(pred);
    }
    let elapsed = span_end.saturating_sub(span_start);
    stop.store(true, Ordering::Relaxed);
    let windows = sampler
        .map(|h| h.join().expect("sampler thread"))
        .unwrap_or_default();

    latencies.sort_unstable();
    predicts.sort_unstable();
    let pct = |sorted: &[u64], p: f64| -> u64 {
        if sorted.is_empty() {
            0
        } else {
            let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            sorted[idx]
        }
    };
    let total_ops = (cfg.threads * cfg.ops_per_thread) as u64;
    let snap = store.snapshot();
    let max_wear = store.max_word_writes();
    ThroughputReport {
        loop_mode: "closed",
        backend: store.name().to_string(),
        threads: cfg.threads,
        shards: if cfg.backend == Backend::Pnw {
            cfg.shards
        } else {
            1
        },
        batch: cfg.batch,
        total_ops,
        elapsed,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_modeled_ns: pct(&latencies, 0.50),
        p99_modeled_ns: pct(&latencies, 0.99),
        predict_p50_ns: pct(&predicts, 0.50),
        predict_p99_ns: pct(&predicts, 0.99),
        puts: puts.load(Ordering::Relaxed),
        gets: gets.load(Ordering::Relaxed),
        deletes: deletes.load(Ordering::Relaxed),
        full_errors: full_errors.load(Ordering::Relaxed),
        bit_flips: store.device_stats().totals.bit_flips,
        retrains: snap.retrains,
        model_epoch: snap.train.epoch,
        last_train_ms: snap.train.last_train_wall.as_secs_f64() * 1e3,
        train_samples_pre_cap: snap.train.samples_pre_cap,
        train_samples_post_cap: snap.train.samples_post_cap,
        max_word_writes: max_wear,
        projected_lifetime_ops: projected_lifetime_ops(MemoryTech::Pcm, max_wear, total_ops),
        windows,
    }
}

/// Runs the same configuration at each thread count.
pub fn sweep(base: &ThroughputConfig, thread_counts: &[usize]) -> Vec<ThroughputReport> {
    thread_counts
        .iter()
        .map(|&threads| {
            let cfg = ThroughputConfig {
                threads,
                ..base.clone()
            };
            run(&cfg)
        })
        .collect()
}

/// Serializes reports as JSON (hand-rolled — the workspace has no JSON
/// dependency) for the perf-trajectory file `BENCH_throughput.json`.
pub fn to_json(reports: &[ThroughputReport]) -> String {
    let mut out = String::from("{\n  \"bench\": \"throughput\",\n  \"results\": [\n");
    for (i, r) in reports.iter().enumerate() {
        // Hand-rolled JSON has no spelling for IEEE infinity; an unworn
        // device (max_word_writes == 0) projects an unbounded lifetime,
        // which serializes as null.
        let lifetime = if r.projected_lifetime_ops.is_finite() {
            format!("{:.1}", r.projected_lifetime_ops)
        } else {
            "null".to_string()
        };
        let windows = r
            .windows
            .iter()
            .map(|w| {
                format!(
                    "{{\"t_ms\": {:.1}, \"puts\": {}, \"bit_flips\": {}, \
                     \"flips_per_put\": {:.3}, \"retrains\": {}, \"model_epoch\": {}}}",
                    w.t_ms, w.puts, w.bit_flips, w.flips_per_put, w.retrains, w.model_epoch
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"loop_mode\": \"{}\", \"backend\": \"{}\", \"threads\": {}, \"shards\": {}, \
             \"batch\": {}, \"total_ops\": {}, \
             \"elapsed_ms\": {:.3}, \"ops_per_sec\": {:.1}, \
             \"p50_modeled_ns\": {}, \"p99_modeled_ns\": {}, \
             \"predict_p50_ns\": {}, \"predict_p99_ns\": {}, \
             \"puts\": {}, \"gets\": {}, \"deletes\": {}, \
             \"full_errors\": {}, \"bit_flips\": {}, \
             \"retrains\": {}, \"model_epoch\": {}, \"last_train_ms\": {:.2}, \
             \"train_samples_pre_cap\": {}, \"train_samples_post_cap\": {}, \
             \"max_word_writes\": {}, \"projected_lifetime_ops\": {}, \
             \"windows\": [{}]}}{}\n",
            r.loop_mode,
            r.backend,
            r.threads,
            r.shards,
            r.batch,
            r.total_ops,
            r.elapsed.as_secs_f64() * 1e3,
            r.ops_per_sec,
            r.p50_modeled_ns,
            r.p99_modeled_ns,
            r.predict_p50_ns,
            r.predict_p99_ns,
            r.puts,
            r.gets,
            r.deletes,
            r.full_errors,
            r.bit_flips,
            r.retrains,
            r.model_epoch,
            r.last_train_ms,
            r.train_samples_pre_cap,
            r.train_samples_post_cap,
            r.max_word_writes,
            lifetime,
            windows,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes [`to_json`] output to `path`.
pub fn write_json(path: &Path, reports: &[ThroughputReport]) -> std::io::Result<()> {
    std::fs::write(path, to_json(reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_a_distribution_and_skewed() {
        let z = Zipfian::new(100, 0.99);
        assert_eq!(z.cum.len(), 100);
        assert!((z.cum.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(z.cum.windows(2).all(|w| w[1] >= w[0]));
        // Head dominance: rank 0 carries more mass than ranks 50..100 together.
        let head = z.cum[0];
        let tail = z.cum[99] - z.cum[49];
        assert!(head > tail, "head {head} vs tail {tail}");
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn uniform_theta_zero() {
        let z = Zipfian::new(4, 0.0);
        assert!((z.cum[0] - 0.25).abs() < 1e-12);
        assert!((z.cum[1] - 0.50).abs() < 1e-12);
    }

    #[test]
    fn backend_flags_round_trip() {
        for b in Backend::all() {
            assert_eq!(Backend::parse(b.flag()), Some(b));
        }
        assert_eq!(Backend::parse("bogus"), None);
    }

    #[test]
    fn small_run_reports_consistent_counts() {
        let cfg = ThroughputConfig {
            threads: 2,
            shards: 2,
            ops_per_thread: 200,
            key_space: 256,
            value_size: 16,
            clusters: 2,
            emulate_latency: false,
            ..Default::default()
        };
        let r = run(&cfg);
        assert_eq!(r.backend, "PNW-sharded");
        assert_eq!(r.loop_mode, "closed");
        assert_eq!(r.batch, 0);
        assert_eq!(r.total_ops, 400);
        assert_eq!(r.puts + r.gets + r.deletes + r.full_errors, 400);
        assert!(r.ops_per_sec > 0.0);
        assert!(r.p50_modeled_ns <= r.p99_modeled_ns);
        assert!(r.bit_flips > 0, "PUTs must have flipped bits");
        // Retrain observability: the warm-up train is always recorded.
        assert!(r.retrains >= 1);
        assert_eq!(r.model_epoch, r.retrains);
        assert!(r.last_train_ms > 0.0);
        assert!(r.train_samples_pre_cap >= r.train_samples_post_cap);
        assert!(r.train_samples_post_cap > 0);
        let j = to_json(&[r]);
        assert!(j.contains("\"backend\": \"PNW-sharded\""));
        assert!(j.contains("\"batch\": 0"));
        assert!(j.contains("\"model_epoch\""));
        assert!(j.contains("\"train_samples_post_cap\""));
    }

    #[test]
    fn windowed_run_emits_series() {
        let cfg = ThroughputConfig {
            threads: 2,
            shards: 2,
            ops_per_thread: 3_000,
            key_space: 256,
            value_size: 16,
            clusters: 2,
            mix: OpMix::write_only(),
            emulate_latency: false,
            window_ms: 1,
            ..Default::default()
        };
        let r = run(&cfg);
        assert!(!r.windows.is_empty(), "sampler produced no windows");
        // At least one window saw traffic and reports a flips/PUT rate.
        assert!(r.windows.iter().any(|w| w.puts > 0 && w.flips_per_put > 0.0));
        // Cumulative counters never go backwards across the series.
        assert!(r.windows.windows(2).all(|p| p[1].retrains >= p[0].retrains));
        assert!(r.windows.windows(2).all(|p| p[1].model_epoch >= p[0].model_epoch));
        let j = to_json(&[r]);
        assert!(j.contains("\"windows\": [{"));
        assert!(j.contains("\"flips_per_put\""));
    }

    #[test]
    fn batched_run_completes_every_op() {
        let cfg = ThroughputConfig {
            threads: 2,
            shards: 2,
            batch: 16,
            ops_per_thread: 200,
            key_space: 256,
            value_size: 16,
            clusters: 2,
            emulate_latency: false,
            ..Default::default()
        };
        let r = run(&cfg);
        assert_eq!(r.batch, 16);
        assert_eq!(r.total_ops, 400);
        assert_eq!(r.puts + r.gets + r.deletes + r.full_errors, 400);
        assert!(r.puts > 0);
        assert!(r.gets > 0, "reads run immediately in batched mode");
        assert!(r.bit_flips > 0);
        // Batched writes still carry a modeled cost.
        assert!(r.p99_modeled_ns > 0);
        // Regression: batched rows used to report 0 prediction latency;
        // the batch path now samples a stride of its fresh PUTs.
        assert!(
            r.predict_p99_ns > 0,
            "batched rows must carry sampled prediction latency"
        );
        let j = to_json(&[r]);
        assert!(j.contains("\"batch\": 16"));
    }

    #[test]
    fn read_heavy_mix_runs() {
        let cfg = ThroughputConfig {
            threads: 2,
            shards: 2,
            ops_per_thread: 200,
            key_space: 256,
            value_size: 16,
            clusters: 2,
            mix: OpMix::read_heavy(),
            emulate_latency: false,
            ..Default::default()
        };
        let r = run(&cfg);
        assert_eq!(r.total_ops, 400);
        assert!(r.gets > r.puts, "90/10 mix must be read-dominated");
        assert_eq!(r.deletes, 0);
    }

    #[test]
    fn every_baseline_backend_runs() {
        for backend in [Backend::FpTree, Backend::Lsm, Backend::PathHash] {
            let cfg = ThroughputConfig {
                backend,
                threads: 2,
                ops_per_thread: 100,
                key_space: 128,
                value_size: 16,
                emulate_latency: false,
                ..Default::default()
            };
            let r = run(&cfg);
            assert_eq!(r.total_ops, 200, "{backend:?}");
            assert_eq!(r.shards, 1);
            assert!(r.puts > 0, "{backend:?}");
            assert!(r.bit_flips > 0, "{backend:?}");
            // Baselines have no model.
            assert_eq!(r.retrains, 0);
            assert_eq!(r.predict_p99_ns, 0);
        }
    }

    #[test]
    fn predict_latencies_are_populated() {
        let cfg = ThroughputConfig {
            threads: 2,
            shards: 2,
            ops_per_thread: 150,
            key_space: 128,
            value_size: 16,
            clusters: 2,
            mix: OpMix::write_only(),
            emulate_latency: false,
            ..Default::default()
        };
        let r = run(&cfg);
        assert!(r.puts > 0);
        assert!(
            r.predict_p99_ns > 0,
            "fresh PUTs must record measured prediction latency"
        );
        assert!(r.predict_p50_ns <= r.predict_p99_ns);
        let j = to_json(&[r]);
        assert!(j.contains("\"predict_p50_ns\""));
        assert!(j.contains("\"predict_p99_ns\""));
    }

    #[test]
    fn json_shape() {
        let cfg = ThroughputConfig {
            threads: 1,
            shards: 1,
            ops_per_thread: 50,
            key_space: 64,
            value_size: 8,
            clusters: 1,
            emulate_latency: false,
            ..Default::default()
        };
        let j = to_json(&[run(&cfg)]);
        assert!(j.contains("\"bench\": \"throughput\""));
        assert!(j.contains("\"loop_mode\": \"closed\""));
        assert!(j.contains("\"threads\": 1"));
        assert!(j.contains("\"ops_per_sec\""));
    }
}
