//! The four workloads and what they share: run parameters, the result of one
//! pass, the traced run's PUT observer and the read-back verifier.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pnw_core::{Batch, OpReport, PnwConfig, RetrainMode, ShardedPnwStore, Store, StoreSnapshot};
use pnw_nvm_sim::WriteStats;

use crate::gen::Codec;
use crate::stats::percentile_of;
use crate::trace::{Recorder, Span};

pub mod drift_retrain;
pub mod get_heavy;
pub mod put_steady;
pub mod served_durable;

/// Shards in every store the benchmark builds.
pub const SHARDS: usize = 4;

/// Named measurements, in the order they were taken.
pub type Metrics = Vec<(&'static str, f64)>;

/// The value recorded under `name`; 0 when the run did not take it (a layer
/// the workload does not execute reads 0).
pub fn value_of(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Value size of the three workloads that write pattern-family values.
pub const PATTERN_VALUE_SIZE: usize = 64;

/// The store those three share: twice as many buckets as keys, K = 4, one
/// model trained in set-up and never again.
pub fn pattern_store_config(n_keys: usize) -> PnwConfig {
    PnwConfig::new(2 * n_keys, PATTERN_VALUE_SIZE)
        .with_clusters(4)
        .with_shards(SHARDS)
        .with_retrain(RetrainMode::Manual)
}

/// `workloads.gen_ns_per_value` for pattern values: one `Codec::fill`.
pub fn pattern_gen_ns(p: &Params, codec: &Codec) -> f64 {
    let mut buf = vec![0u8; PATTERN_VALUE_SIZE];
    time_per_call(p.scaled(1 << 20), |i| {
        codec.fill(i as u64, 1, std::hint::black_box(&mut buf))
    })
}

/// Writes `version` of keys `0..n` through `Store::apply`, 512 to a batch (a
/// durable store then syncs once per shard per batch, not once per key).
pub fn preload_batched(store: &ShardedPnwStore, codec: &Codec, n: u64, version: u32) {
    let mut buf = vec![0u8; store.config().value_size];
    let mut batch = Batch::new();
    for first in (0..n).step_by(512) {
        batch.clear();
        for key in first..n.min(first + 512) {
            codec.fill(key, version, &mut buf);
            batch.put(key, &buf);
        }
        assert!(Store::apply(store, &batch).all_ok(), "preload failed");
    }
}

/// Every `SAMPLE_EVERY`-th call is timed in the two sub-microsecond
/// workloads, so clock reads stay a small share of a 65 ns GET.
pub const SAMPLE_EVERY: usize = 16;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Length of the timed region. Runs end at the first whole block (or
    /// cycle) past it, and never before the fixed op window counts are taken
    /// over is complete.
    pub seconds: f64,
    /// Sizes ÷ 100: a smoke run, labelled as such and refused by `compare`.
    pub quick: bool,
    pub out: PathBuf,
    /// Client threads / connections where more than one is used:
    /// `min(nproc, 4)`.
    pub threads: usize,
}

impl Params {
    /// A size in ops, keys or buckets, divided by 100 under `--quick`.
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick {
            (n / 100).max(1)
        } else {
            n
        }
    }

    pub fn deadline_passed(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// What one pass over a workload produced.
#[derive(Default)]
pub struct Pass {
    /// End-to-end metrics this workload reports (all but `setup_s` and
    /// `peak_rss_mb`, which belong to the process).
    pub e2e: Metrics,
    /// Layer metrics observed while the workload ran (traced pass only).
    pub layer: Metrics,
    /// Op and sample counts, for the result file.
    pub counts: Metrics,
    /// Operations issued, including every verification read.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong bytes.
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// One workload: set-up (timed as `setup_s`), one pass (warm state in, timed
/// region, verification), and the inputs its layer replays are fed.
pub trait Workload {
    const NAME: &'static str;
    type State;

    /// Generates inputs, builds and preloads the store, trains the first
    /// model and (served) starts the server and connects the clients.
    /// `traced` is known here because the served store is wrapped before the
    /// server takes it.
    fn setup(p: &Params, traced: bool) -> Self::State;

    /// Runs the timed region and verifies outputs. `traced` adds the span
    /// recorder and the per-op report observers.
    fn pass(state: Self::State, p: &Params, traced: bool) -> Pass;

    /// The workload's inputs in the shape the layer replays take.
    fn replay_inputs(p: &Params) -> crate::layers::ReplayInputs;

    /// Replays of layers only this workload executes.
    fn extra_replays(_inputs: &crate::layers::ReplayInputs, _p: &Params) -> Metrics {
        Vec::new()
    }
}

pub fn ns(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// Median and 99th percentile of nanosecond samples, in microseconds.
pub fn p50_p99_us(samples: &mut [u32]) -> (f64, f64) {
    samples.sort_unstable();
    (
        crate::stats::percentile(samples, 50.0) / 1e3,
        crate::stats::percentile(samples, 99.0) / 1e3,
    )
}

/// Whether a PUT was refused by a full shard queue (`sharded.backpressure`).
pub fn is_backpressure<T>(result: &Result<T, pnw_core::StoreError>) -> bool {
    matches!(result, Err(pnw_core::StoreError::Backpressure { .. }))
}

/// Nanoseconds per call of `f`, timed over `n` calls.
pub fn time_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// The device-side end-to-end counts over a fixed op window.
pub fn count_metrics(window: &WriteStats, puts: u64, max_word_writes: u32) -> Metrics {
    let puts = puts.max(1) as f64;
    vec![
        ("flips_per_put", window.total_bit_flips() as f64 / puts),
        ("lines_per_put", window.lines_written as f64 / puts),
        ("max_word_writes", max_word_writes as f64),
    ]
}

/// What the reports of a traced pass's PUTs add up to: per-op numbers the
/// store already returns (`OpReport`), no instrumentation of its inside.
#[derive(Default)]
pub struct PutStats {
    observed: u64,
    predict_ns: Vec<u32>,
    modeled_ns: Vec<u32>,
    value: WriteStats,
    total: WriteStats,
}

impl PutStats {
    pub fn observe(&mut self, rep: &OpReport) {
        self.observed += 1;
        self.predict_ns.push(ns(rep.predict));
        self.modeled_ns.push(ns(rep.modeled_latency));
        self.value += rep.value_write;
        self.total += rep.total_write;
    }

    /// Folds several threads' stats into the layer metrics they support.
    pub fn layer_metrics(parts: impl IntoIterator<Item = PutStats>) -> Metrics {
        let mut all = PutStats::default();
        for p in parts {
            all.observed += p.observed;
            all.predict_ns.extend(p.predict_ns);
            all.modeled_ns.extend(p.modeled_ns);
            all.value += p.value;
            all.total += p.total;
        }
        all.predict_ns.sort_unstable();
        vec![
            (
                "model.predict_ns_p50",
                crate::stats::percentile(&all.predict_ns, 50.0),
            ),
            (
                "model.predict_ns_p99",
                crate::stats::percentile(&all.predict_ns, 99.0),
            ),
            ("nvm.value_flips_per_512", all.value.flips_per_512()),
            (
                "nvm.words_per_put",
                all.total.words_written as f64 / all.observed.max(1) as f64,
            ),
            (
                "nvm.modeled_put_ns_p50",
                percentile_of(&mut all.modeled_ns, 50.0),
            ),
        ]
    }
}

/// The traced pass's observer for the in-process workloads: the PUT stats,
/// plus spans for a share of the observed calls.
pub struct PutTrace {
    pub rec: Recorder,
    pub stats: PutStats,
    /// Record spans for one observed PUT in this many.
    span_every: u64,
}

impl PutTrace {
    pub fn new(epoch: Instant, lane: u64, span_every: u64) -> PutTrace {
        PutTrace {
            rec: Recorder::new(epoch, lane),
            stats: PutStats::default(),
            span_every,
        }
    }

    /// Takes the report of a PUT that ran from `start` to `end`; `op` is
    /// `(operation id, key)`.
    pub fn observe(&mut self, rep: &OpReport, start: Instant, end: Instant, op: (u64, u64)) {
        if self.stats.observed.is_multiple_of(self.span_every) {
            let id = self.rec.span("store.put", start, end, 0, op);
            // The report gives the prediction's duration, not when it began;
            // it runs first inside the engine, so it is drawn from the start.
            let s = self.rec.ns(start);
            self.rec.span_ns(
                "model.predict",
                s,
                s + rep.predict.as_nanos() as u64,
                id,
                op,
            );
        }
        self.stats.observe(rep);
    }

    /// Folds several threads' observers into layer metrics and spans.
    pub fn finish(parts: Vec<PutTrace>) -> (Metrics, Vec<Span>) {
        let (mut stats, mut spans) = (Vec::new(), Vec::new());
        for p in parts {
            stats.push(p.stats);
            spans.extend(p.rec.into_spans());
        }
        (PutStats::layer_metrics(stats), spans)
    }
}

/// Layer metrics read from the store's own public counters when a traced
/// pass ends: pool fallbacks and availability, retrains, and the wear CDF.
pub fn store_layer_metrics(store: &ShardedPnwStore, before: &StoreSnapshot) -> Metrics {
    let after = store.snapshot();
    let puts = (after.puts - before.puts).max(1) as f64;
    let wear = store.word_wear_cdf();
    vec![
        (
            "pool.fallback_share",
            (after.fallbacks - before.fallbacks) as f64 / puts,
        ),
        ("pool.availability_end", after.availability()),
        ("model.retrains", (after.retrains - before.retrains) as f64),
        (
            "model.train_ms",
            after.train.last_train_wall.as_secs_f64() * 1e3,
        ),
        ("nvm.wear_p50", wear.quantile(0.50) as f64),
        ("nvm.wear_p99", wear.quantile(0.99) as f64),
        ("nvm.wear_p999", wear.quantile(0.999) as f64),
        ("nvm.wear_max", wear.max() as f64),
    ]
}

/// Reads back `keys` and checks each value against its codec and, where the
/// workload knows it, the version last written. Returns `(reads, misses)`.
pub fn verify_present(
    store: &ShardedPnwStore,
    codec: &Codec,
    keys: impl Iterator<Item = (u64, Option<u32>)>,
) -> (u64, u64) {
    let mut buf = vec![0u8; store.config().value_size];
    let (mut reads, mut misses) = (0u64, 0u64);
    for (key, want) in keys {
        reads += 1;
        let ok = matches!(store.get_into(key, &mut buf), Ok(true))
            && codec
                .verify(key, &buf)
                .is_some_and(|v| want.is_none_or(|w| w == v));
        misses += u64::from(!ok);
    }
    (reads, misses)
}

/// Probes keys that must not be in the store. Returns `(probes, hits)`.
pub fn verify_absent(store: &ShardedPnwStore, keys: impl Iterator<Item = u64>) -> (u64, u64) {
    let mut buf = vec![0u8; store.config().value_size];
    let (mut probes, mut hits) = (0u64, 0u64);
    for key in keys {
        probes += 1;
        hits += u64::from(!matches!(store.get_into(key, &mut buf), Ok(false)));
    }
    (probes, hits)
}
