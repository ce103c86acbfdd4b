//! Scenario engine: declarative phased workload replay over any
//! [`Store`] backend.
//!
//! A [`Scenario`] is a list of [`Phase`]s, each describing one regime of
//! traffic: how keys are chosen ([`KeyDist`]), the PUT/GET/DELETE mix,
//! which bit-pattern family the values come from ([`ValueSource`]), an
//! optional per-PUT TTL, an optional offered arrival rate and optional
//! burst/quiesce cycling. [`replay`] drives the phases in order against a
//! `&dyn Store` — the PNW store at any shard count or any Figure 9
//! baseline — and emits **windowed time-series
//! metrics** ([`WindowRow`]): ops/s, value-bit flips per PUT, completed
//! retrains, the published model epoch, mean prediction latency, live
//! keys and TTL expiry/eviction counts per window.
//!
//! The windows are the point. The paper's §VI-F workload-shift experiment
//! is a *story over time* — flips/PUT is low under a trained model, jumps
//! when the distribution shifts, and re-converges once background
//! retraining installs an adapted model. A scenario makes that story a
//! first-class, replayable artifact: the committed `BENCH_scenario.json`
//! carries the windowed series plus per-phase steady states and the
//! recovery ratio (adapted steady state vs. pre-shift steady state).
//!
//! Two canonical scenarios ship with the engine:
//!
//! * [`drift`] — three phases over one store: a trained steady state, an
//!   abrupt shift to a disjoint value-pattern family (stale model), and
//!   the adapted regime after background retraining. The two families are
//!   *symmetric* (same pattern count, same random tail), so the adapted
//!   steady state is directly comparable to the pre-shift one.
//! * [`cctv`] — the §VI-C recorder as a TTL/ring-retention scenario:
//!   frames are PUT with a deadline into a
//!   [`with_ring_retention`](PnwConfig::with_ring_retention) store and
//!   never explicitly deleted; retention (expiry first, then
//!   earliest-deadline eviction) keeps the ring bounded.
//!
//! Values are fixed-size per store (every backend here is a fixed-bucket
//! design), so a phase varies the value *distribution* — the pattern
//! family the model clusters by — rather than the byte length.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pnw_core::{
    now_unix_ms, OpReport, PnwConfig, RetrainMode, ShardedPnwStore, Store, StoreError,
};
use pnw_workloads::{ImageStyle, TemplateImages, VideoConfig, VideoFrames, Workload};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::report::{num, rows_table, Json, Report};
use crate::{obj, Scale};

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
    /// A write-only workload (the paper's replacement-stream shape).
    pub fn write_only() -> Self {
        OpMix {
            put_pct: 100,
            get_pct: 0,
            del_pct: 0,
        }
    }
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

/// Where a phase's values come from.
#[derive(Debug, Clone)]
pub enum ValueSource {
    /// Synthetic bit-pattern families: the value is filled with
    /// `fills[key % fills.len()]` plus an 8-byte random tail, so the
    /// model has structure to steer by while every write still flips
    /// some bits.
    Patterns {
        /// The family's fill bytes.
        fills: Vec<u8>,
    },
    /// Template images from `pnw-workloads` (value size must be 784).
    Images {
        /// Digits or fashion.
        style: ImageStyle,
        /// Template seed.
        seed: u64,
    },
    /// Synthetic CCTV frames (value size must equal
    /// [`VideoConfig::frame_bytes`]).
    Video {
        /// Camera/scene shape.
        cfg: VideoConfig,
        /// Scene seed.
        seed: u64,
    },
}

/// A materialized [`ValueSource`] (streams hold their generator).
enum ValueGen {
    Patterns { fills: Vec<u8> },
    Stream(Box<dyn Workload>),
}

impl ValueSource {
    fn build(&self, stream_seed: u64) -> ValueGen {
        match self {
            ValueSource::Patterns { fills } => ValueGen::Patterns { fills: fills.clone() },
            ValueSource::Images { style, seed } => ValueGen::Stream(Box::new(
                TemplateImages::new(*style, *seed).with_stream_seed(stream_seed),
            )),
            ValueSource::Video { cfg, seed } => {
                ValueGen::Stream(Box::new(VideoFrames::new(cfg.clone(), *seed)))
            }
        }
    }
}

impl ValueGen {
    fn fill(&mut self, key: u64, buf: &mut [u8], rng: &mut StdRng) {
        match self {
            ValueGen::Patterns { fills } => {
                buf.fill(fills[(key % fills.len() as u64) as usize]);
                let tail = buf.len().min(8);
                let start = buf.len() - tail;
                for b in &mut buf[start..] {
                    *b = rng.gen();
                }
            }
            ValueGen::Stream(w) => {
                let v = w.next_value();
                buf.copy_from_slice(&v);
            }
        }
    }
}

/// How a phase chooses keys.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Monotonically fresh keys with a bounded working set — the paper's
    /// replacement-stream shape (§VI): once `working_set` keys are live,
    /// each PUT first deletes the oldest key (`delete_oldest: true`), or
    /// leaves reclamation to the store's TTL/ring retention
    /// (`delete_oldest: false`). Fresh placements keep arriving, so
    /// load-factor retraining stays armed.
    Replacement {
        /// Live keys the driver holds.
        working_set: usize,
        /// Whether the driver deletes the oldest key itself.
        delete_oldest: bool,
    },
    /// Zipfian keys over `key_base..key_base + key_space` (theta 0.0 =
    /// uniform) — point traffic for mixed PUT/GET/DELETE phases.
    Zipf {
        /// Skew exponent.
        theta: f64,
        /// First key of the phase's window.
        key_base: u64,
    },
}

/// Burst/quiesce cycling within a phase: issue `ops` operations, then
/// sleep `quiesce`, repeat.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// Operations per burst.
    pub ops: usize,
    /// Idle gap between bursts.
    pub quiesce: Duration,
}

/// One traffic regime.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Display name (lands in every window row).
    pub name: String,
    /// Operations this phase issues.
    pub ops: usize,
    /// PUT/GET/DELETE mix (replacement phases treat every op as a PUT).
    pub mix: OpMix,
    /// Key distribution.
    pub keys: KeyDist,
    /// Value distribution.
    pub values: ValueSource,
    /// Per-PUT TTL in milliseconds relative to issue time; `None` writes
    /// without a deadline. Ignored by stores without TTL support.
    pub ttl_ms: Option<u64>,
    /// Offered arrival rate in ops/sec; `None` replays as fast as the
    /// store completes.
    pub rate_ops_per_sec: Option<f64>,
    /// Optional burst/quiesce cycling.
    pub burst: Option<Burst>,
}

/// A named, seeded, replayable phased workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (lands in the JSON artifact).
    pub name: String,
    /// RNG seed; phase `i` streams from a function of `seed` and `i`.
    pub seed: u64,
    /// Zipfian key-space size per phase window.
    pub key_space: u64,
    /// Value size in bytes (must match the store's).
    pub value_size: usize,
    /// Operations per metrics window.
    pub window_ops: usize,
    /// The phases, replayed in order.
    pub phases: Vec<Phase>,
}

/// One metrics window of a replay.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Phase the window belongs to.
    pub phase: String,
    /// Global window index.
    pub window: usize,
    /// Operations issued in the window.
    pub ops: u64,
    /// Wall-clock of the window in milliseconds (includes pacing sleeps).
    pub wall_ms: f64,
    /// Throughput in the window.
    pub ops_per_sec: f64,
    /// PUTs that succeeded in the window.
    pub puts: u64,
    /// Value bit flips in the window (the Figure 6 measurement — header
    /// and index bookkeeping excluded).
    pub value_flips: u64,
    /// Value bit flips per successful PUT.
    pub flips_per_put: f64,
    /// Bit updates per 512 value bits (the paper's normalization).
    pub flips_per_512: f64,
    /// Completed training runs, cumulative at window end.
    pub retrains: u64,
    /// Model epoch (install count) of the published snapshot at window
    /// end — a transition marks where an adapted model went live.
    pub model_epoch: u64,
    /// Mean measured prediction latency per PUT in the window, ns.
    pub mean_predict_ns: u64,
    /// Live keys at window end.
    pub live: usize,
    /// TTL expiries in the window (scrub sweep + lazy + ring).
    pub expired: u64,
    /// Ring-retention evictions in the window.
    pub evicted: u64,
}

/// Per-phase steady state: the PUT-weighted mean over the phase's last
/// third of windows, where the regime has settled.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    /// Phase name.
    pub phase: String,
    /// Windows the phase spanned.
    pub windows: usize,
    /// Steady-state value flips per PUT.
    pub steady_flips_per_put: f64,
    /// Steady-state flips per 512 value bits.
    pub steady_flips_per_512: f64,
    /// Retrains completed during the phase.
    pub retrains: u64,
}

/// Everything one replay produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend driven ([`Store::name`]).
    pub backend: String,
    /// Whether the store accepted TTL deadlines.
    pub ttl: bool,
    /// The windowed series.
    pub windows: Vec<WindowRow>,
    /// Per-phase steady states.
    pub phases: Vec<PhaseSummary>,
    /// Last phase's steady flips/PUT over the first phase's — the
    /// re-convergence measure of the drift scenario (≈1.0 means the
    /// retrained model steers as well as the original).
    pub recovery_ratio: f64,
    /// `Full` errors the driver absorbed by shedding a key.
    pub full_errors: u64,
}

/// Window accumulator: per-op deltas gathered between window boundaries.
struct Acc {
    start: Instant,
    ops: u64,
    puts: u64,
    value_flips: u64,
    value_bits: u64,
    predict_ns: u64,
    expired0: u64,
    evicted0: u64,
}

impl Acc {
    fn new(store: &dyn Store) -> Acc {
        let snap = store.snapshot();
        Acc {
            start: Instant::now(),
            ops: 0,
            puts: 0,
            value_flips: 0,
            value_bits: 0,
            predict_ns: 0,
            expired0: snap.scrub.expired,
            evicted0: snap.scrub.evicted,
        }
    }

    fn record_put(&mut self, r: &OpReport) {
        self.puts += 1;
        self.value_flips += r.value_write.total_bit_flips();
        self.value_bits += r.value_write.bits_addressed;
        self.predict_ns += r.predict.as_nanos() as u64;
    }

    /// Closes the window: emits a [`WindowRow`] and resets the deltas.
    fn flush(&mut self, store: &dyn Store, phase: &str, windows: &mut Vec<WindowRow>) {
        let snap = store.snapshot();
        let wall = self.start.elapsed();
        let wall_ms = wall.as_secs_f64() * 1e3;
        windows.push(WindowRow {
            phase: phase.to_string(),
            window: windows.len(),
            ops: self.ops,
            wall_ms,
            ops_per_sec: if wall_ms > 0.0 { self.ops as f64 / wall.as_secs_f64() } else { 0.0 },
            puts: self.puts,
            value_flips: self.value_flips,
            flips_per_put: if self.puts == 0 {
                0.0
            } else {
                self.value_flips as f64 / self.puts as f64
            },
            flips_per_512: if self.value_bits == 0 {
                0.0
            } else {
                self.value_flips as f64 * 512.0 / self.value_bits as f64
            },
            retrains: snap.retrains,
            model_epoch: snap.train.epoch,
            mean_predict_ns: self.predict_ns.checked_div(self.puts).unwrap_or(0),
            live: snap.live,
            expired: snap.scrub.expired - self.expired0,
            evicted: snap.scrub.evicted - self.evicted0,
        });
        self.start = Instant::now();
        self.ops = 0;
        self.puts = 0;
        self.value_flips = 0;
        self.value_bits = 0;
        self.predict_ns = 0;
        self.expired0 = snap.scrub.expired;
        self.evicted0 = snap.scrub.evicted;
    }
}

/// Replays `sc` against `store` from an empty key stream. See
/// [`replay_from`] for warmed stores.
pub fn replay(store: &dyn Store, sc: &Scenario) -> ScenarioReport {
    replay_from(store, sc, 0)
}

/// Replays `sc` against `store`, starting the replacement key stream at
/// `first_key` — keys `0..first_key` are assumed live from warm-up and
/// seed the driver's working-set ring (oldest first). The driver is
/// single-threaded and deterministic given the seed (modulo wall-clock
/// TTL deadlines); concurrency is the `benchmark/` crate's subject, not
/// this engine's.
pub fn replay_from(store: &dyn Store, sc: &Scenario, first_key: u64) -> ScenarioReport {
    assert!(sc.window_ops > 0, "window_ops must be positive");
    let value_size = store.value_size();
    assert_eq!(value_size, sc.value_size, "scenario/store value size mismatch");
    let ttl_active = store.supports_ttl();

    let mut windows: Vec<WindowRow> = Vec::new();
    let mut phases: Vec<PhaseSummary> = Vec::new();
    let mut full_errors = 0u64;
    let mut val_buf = vec![0u8; value_size];
    let mut get_buf = vec![0u8; value_size];
    // Replacement-stream state persists across phases: the stream keeps
    // growing keys and the working set carries over a shift.
    let mut next_key = first_key;
    let mut live_ring: VecDeque<u64> = (0..first_key).collect();
    let mut acc = Acc::new(store);

    // Each phase's retrains are counted from the window rows, the same
    // snapshots the rows report: an install landing after a phase's last
    // row counts in the next phase, like its traffic.
    let mut retrains_before = store.snapshot().retrains;
    for (pi, phase) in sc.phases.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(sc.seed ^ (0xA11CE << 8) ^ pi as u64);
        let mut vgen = phase.values.build(sc.seed + pi as u64);
        let zipf = match &phase.keys {
            KeyDist::Zipf { theta, .. } => Some(Zipfian::new(sc.key_space as usize, *theta)),
            KeyDist::Replacement { .. } => None,
        };
        let phase_window_start = windows.len();
        let pace = phase.rate_ops_per_sec.map(|r| Duration::from_secs_f64(1.0 / r));
        let mut next_due = Instant::now();

        for op_i in 0..phase.ops {
            if let Some(gap) = pace {
                let now = Instant::now();
                if next_due > now {
                    std::thread::sleep(next_due - now);
                }
                next_due += gap;
            }
            if let Some(b) = phase.burst {
                if op_i > 0 && op_i % b.ops.max(1) == 0 {
                    std::thread::sleep(b.quiesce);
                    next_due = Instant::now();
                }
            }

            match &phase.keys {
                KeyDist::Replacement { working_set, delete_oldest } => {
                    if *delete_oldest && live_ring.len() >= *working_set {
                        let old = live_ring.pop_front().expect("ring non-empty");
                        let _ = store.delete(old);
                    }
                    let key = next_key;
                    next_key += 1;
                    vgen.fill(key, &mut val_buf, &mut rng);
                    match put(store, key, &val_buf, phase.ttl_ms, ttl_active) {
                        Ok(r) => {
                            acc.record_put(&r);
                            if *delete_oldest {
                                live_ring.push_back(key);
                            }
                        }
                        Err(StoreError::Full) => {
                            // No reclaimable tenant (e.g. retention off
                            // and the stream outgrew capacity): shed the
                            // oldest and carry on.
                            full_errors += 1;
                            if let Some(old) = live_ring.pop_front() {
                                let _ = store.delete(old);
                            }
                        }
                        Err(e) => panic!("scenario put failed: {e}"),
                    }
                }
                KeyDist::Zipf { theta: _, key_base } => {
                    let key =
                        key_base + zipf.as_ref().expect("zipf sampler built").sample(&mut rng);
                    let dice: u8 = rng.gen_range(0..100u8);
                    if dice < phase.mix.put_pct {
                        vgen.fill(key, &mut val_buf, &mut rng);
                        match put(store, key, &val_buf, phase.ttl_ms, ttl_active) {
                            Ok(r) => acc.record_put(&r),
                            Err(StoreError::Full) => {
                                full_errors += 1;
                                let _ = store.delete(key);
                            }
                            Err(e) => panic!("scenario put failed: {e}"),
                        }
                    } else if dice < phase.mix.put_pct + phase.mix.get_pct {
                        let _ = store.get_into(key, &mut get_buf).expect("get ok");
                    } else {
                        let _ = store.delete(key).expect("delete ok");
                    }
                }
            }
            acc.ops += 1;

            if acc.ops >= sc.window_ops as u64 {
                acc.flush(store, &phase.name, &mut windows);
            }
        }
        if acc.ops > 0 {
            // Close the phase's partial window so no phase's traffic
            // bleeds into the next phase's first row.
            acc.flush(store, &phase.name, &mut windows);
        }
        let rows = &windows[phase_window_start..];
        let retrains_after = rows.last().map_or(retrains_before, |w| w.retrains);
        let retrains = retrains_after - retrains_before;
        retrains_before = retrains_after;
        phases.push(summarize(&phase.name, rows, retrains));
    }

    let recovery_ratio = match (phases.first(), phases.last()) {
        (Some(a), Some(b)) if a.steady_flips_per_put > 0.0 => {
            b.steady_flips_per_put / a.steady_flips_per_put
        }
        _ => 0.0,
    };
    ScenarioReport {
        scenario: sc.name.clone(),
        backend: store.name().to_string(),
        ttl: ttl_active,
        windows,
        phases,
        recovery_ratio,
        full_errors,
    }
}

fn put(
    store: &dyn Store,
    key: u64,
    value: &[u8],
    ttl_ms: Option<u64>,
    ttl_active: bool,
) -> Result<OpReport, StoreError> {
    match ttl_ms {
        Some(ms) if ttl_active => store.put_with_expiry(key, value, now_unix_ms() + ms),
        _ => store.put(key, value),
    }
}

fn summarize(name: &str, rows: &[WindowRow], retrains: u64) -> PhaseSummary {
    // Steady state: the last third of the phase's windows (at least one),
    // PUT-weighted so sparse windows don't dominate.
    let tail = rows.len().div_ceil(3).clamp(1, rows.len().max(1));
    let steady = &rows[rows.len().saturating_sub(tail)..];
    let puts: u64 = steady.iter().map(|w| w.puts).sum();
    let flips: u64 = steady.iter().map(|w| w.value_flips).sum();
    let weighted_512: f64 = steady.iter().map(|w| w.flips_per_512 * w.puts as f64).sum();
    PhaseSummary {
        phase: name.to_string(),
        windows: rows.len(),
        steady_flips_per_put: if puts == 0 { 0.0 } else { flips as f64 / puts as f64 },
        steady_flips_per_512: if puts == 0 { 0.0 } else { weighted_512 / puts as f64 },
        retrains,
    }
}

// ---------------------------------------------------------------------------
// Canonical scenarios.

/// The first regime's pattern family.
const FAMILY_A: [u8; 4] = [0x00, 0xFF, 0x0F, 0xAA];
/// The shifted regime's family — disjoint from [`FAMILY_A`] but the same
/// size and tail, so steady states are directly comparable.
const FAMILY_B: [u8; 4] = [0x33, 0xCC, 0x55, 0xF0];

/// A scenario plus the store configuration that gives it meaning.
pub struct Spec {
    /// The phased workload.
    pub scenario: Scenario,
    /// The PNW store configuration to run it against.
    pub store_cfg: PnwConfig,
    /// Shard count for the store.
    pub shards: usize,
    /// Working-set size the store is warmed to before replay.
    pub warm: usize,
}

/// The three-phase distribution-drift scenario (§VI-F as a replayable
/// artifact): steady → shift (stale model) → adapted (background retrain
/// installed). Acceptance: the last phase's steady flips/PUT re-converges
/// to within ~10% of the first phase's.
pub fn drift(scale: Scale) -> Spec {
    let capacity = scale.pick(768, 4096);
    let working_set = capacity * 7 / 10;
    let value_size = 64;
    let per_phase = scale.pick(1500, 20_000);
    let phase = |name: &str, fills: [u8; 4], ops: usize| Phase {
        name: name.to_string(),
        ops,
        mix: OpMix::write_only(),
        keys: KeyDist::Replacement { working_set, delete_oldest: true },
        values: ValueSource::Patterns { fills: fills.to_vec() },
        ttl_ms: None,
        rate_ops_per_sec: None,
        burst: None,
    };
    Spec {
        scenario: Scenario {
            name: "drift".to_string(),
            seed: 0xD21F7,
            key_space: capacity as u64,
            value_size,
            window_ops: scale.pick(150, 1000),
            phases: vec![
                phase("steady", FAMILY_A, per_phase),
                // The shift phase runs double-length so the background
                // retrain both triggers and installs inside it; the third
                // phase then measures the adapted regime alone.
                phase("shift", FAMILY_B, per_phase * 2),
                phase("adapted", FAMILY_B, per_phase),
            ],
        },
        store_cfg: PnwConfig::new(capacity, value_size)
            .with_clusters(4)
            .with_seed(0xD21F7)
            // The 70% working set sits past the load factor, keeping
            // background retraining armed through every phase.
            .with_load_factor(0.6)
            .with_retrain(RetrainMode::Background),
        shards: 4,
        warm: working_set,
    }
}

/// The §VI-C CCTV recorder as a TTL/ring-retention scenario: frames are
/// written with a deadline and never explicitly deleted; expiry and
/// earliest-deadline eviction keep the ring bounded. Three phases (day /
/// night / day) shift the frame patterns so steering stays visible, and
/// burst/quiesce cycling gives deadlines time to lapse.
pub fn cctv(scale: Scale) -> Spec {
    let capacity = scale.pick(512, 2048);
    let value_size = 64;
    let per_phase = scale.pick(1200, 12_000);
    let phase = |name: &str, fills: [u8; 4]| Phase {
        name: name.to_string(),
        ops: per_phase,
        mix: OpMix::write_only(),
        keys: KeyDist::Replacement {
            working_set: capacity / 2,
            // Retention is the store's job here: expired frames reclaim
            // lazily and the ring evicts the earliest deadline when full.
            delete_oldest: false,
        },
        values: ValueSource::Patterns { fills: fills.to_vec() },
        ttl_ms: Some(scale.pick(400, 4000)),
        rate_ops_per_sec: None,
        burst: Some(Burst { ops: per_phase / 4, quiesce: Duration::from_millis(50) }),
    };
    Spec {
        scenario: Scenario {
            name: "cctv".to_string(),
            seed: 0xCC71,
            key_space: capacity as u64,
            value_size,
            window_ops: scale.pick(150, 1000),
            phases: vec![
                phase("day", FAMILY_A),
                phase("night", FAMILY_B),
                phase("day2", FAMILY_A),
            ],
        },
        store_cfg: PnwConfig::new(capacity, value_size)
            .with_clusters(4)
            .with_seed(0xCC71)
            .with_ring_retention()
            .with_load_factor(0.6)
            .with_retrain(RetrainMode::Background),
        shards: 4,
        warm: capacity / 2,
    }
}

/// Builds the spec's store, warms it with the first phase's distribution
/// (keys `0..spec.warm`), trains the model on the warm set and resets the
/// measurement window — the same warm-train-reset protocol every harness
/// uses.
pub fn build_store(spec: &Spec) -> ShardedPnwStore {
    let store = ShardedPnwStore::new(spec.store_cfg.clone().with_shards(spec.shards));
    let mut rng = StdRng::seed_from_u64(spec.scenario.seed ^ 0x5EED);
    let mut vgen = spec.scenario.phases[0].values.build(spec.scenario.seed);
    let ttl_ms = spec.scenario.phases[0].ttl_ms;
    let mut buf = vec![0u8; spec.scenario.value_size];
    for key in 0..spec.warm as u64 {
        vgen.fill(key, &mut buf, &mut rng);
        match ttl_ms {
            Some(ms) if store.supports_ttl() => {
                store.put_with_expiry(key, &buf, now_unix_ms() + ms).expect("warm-up fits");
            }
            _ => {
                store.put(key, &buf).expect("warm-up fits");
            }
        }
    }
    store.retrain_now().expect("warm-up training");
    store.reset_device_stats();
    store
}

/// [`replay_from`] with the spec's warm-set size as the key origin.
pub fn replay_spec(store: &dyn Store, spec: &Spec) -> ScenarioReport {
    replay_from(store, &spec.scenario, spec.warm as u64)
}

/// Replays each spec against a freshly built store, prints the per-phase
/// summary and returns the windowed series as the `scenario` report.
pub fn run(specs: &[Spec], scale: Scale) -> Report {
    let mut results = Vec::new();
    for spec in specs {
        println!(
            "== scenario '{}' ({} phases, window {} ops) ==",
            spec.scenario.name,
            spec.scenario.phases.len(),
            spec.scenario.window_ops
        );
        let store = build_store(spec);
        let r = replay_spec(&store, spec);
        let phases: Vec<Json> = r
            .phases
            .iter()
            .map(|p| {
                obj! {
                    "phase": p.phase.as_str(),
                    "windows": p.windows,
                    "steady_flips_per_put": num(p.steady_flips_per_put, 3),
                    "steady_flips_per_512": num(p.steady_flips_per_512, 3),
                    "retrains": p.retrains,
                }
            })
            .collect();
        println!("{}", rows_table(&phases).render());
        println!(
            "recovery ratio (last/first steady flips/PUT): {:.3}   ttl: {}   full errors: {}",
            r.recovery_ratio, r.ttl, r.full_errors
        );
        if r.ttl {
            let expired: u64 = r.windows.iter().map(|w| w.expired).sum();
            let evicted: u64 = r.windows.iter().map(|w| w.evicted).sum();
            println!("retention: {expired} expired, {evicted} evicted");
        }
        let windows: Vec<Json> = r
            .windows
            .iter()
            .map(|w| {
                obj! {
                    "phase": w.phase.as_str(),
                    "window": w.window,
                    "ops": w.ops,
                    "wall_ms": num(w.wall_ms, 3),
                    "ops_per_sec": num(w.ops_per_sec, 1),
                    "puts": w.puts,
                    "value_flips": w.value_flips,
                    "flips_per_put": num(w.flips_per_put, 3),
                    "flips_per_512": num(w.flips_per_512, 3),
                    "retrains": w.retrains,
                    "model_epoch": w.model_epoch,
                    "mean_predict_ns": w.mean_predict_ns,
                    "live": w.live,
                    "expired": w.expired,
                    "evicted": w.evicted,
                }
            })
            .collect();
        results.push(obj! {
            "scenario": r.scenario.as_str(),
            "backend": r.backend.as_str(),
            "ttl": r.ttl,
            "recovery_ratio": num(r.recovery_ratio, 4),
            "full_errors": r.full_errors,
            "phases": phases,
            "windows": windows,
        });
    }
    Report::new("scenario", scale).field("results", results)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a background run *installs* before the quick replay ends is
    /// a race with the store's worker (6,000 PUTs against a debug-build fit
    /// and label pass on a loaded host), so the test asserts what is not:
    /// the replay starts a run, and installs are visible in the series.
    #[test]
    fn drift_quick_replays_and_reconverges() {
        let spec = drift(Scale::Quick);
        let store = build_store(&spec);
        // A warm-up PUT may have started a run that `retrain_now` overtook;
        // retire it, so any run in flight after the replay sampled replay
        // data and installs.
        store.wait_for_retrain();
        let epoch0 = store.model_epoch();
        let r = replay_spec(&store, &spec);
        assert_eq!(r.scenario, "drift");
        assert_eq!(r.phases.len(), 3);
        assert!(r.windows.len() >= 3, "windows: {}", r.windows.len());
        assert!(r.phases.iter().all(|p| p.steady_flips_per_put > 0.0));
        // Installs happen only at op boundaries: the windowed epochs never
        // go back, and end where the per-phase retrain counts say.
        assert!(r
            .windows
            .windows(2)
            .all(|w| w[0].model_epoch <= w[1].model_epoch));
        let retrains: u64 = r.phases.iter().map(|p| p.retrains).sum();
        assert_eq!(r.windows.last().unwrap().model_epoch, epoch0 + retrains);
        // The background retrain fired during the run: installed already,
        // or in flight now.
        store.wait_for_retrain();
        assert!(
            store.model_epoch() > epoch0,
            "no background retrain started during the drift scenario"
        );
    }

    #[test]
    fn cctv_quick_retains_by_ttl_and_ring() {
        let spec = cctv(Scale::Quick);
        let store = build_store(&spec);
        assert!(store.supports_ttl());
        let r = replay_spec(&store, &spec);
        assert_eq!(r.phases.len(), 3);
        assert!(r.ttl);
        // Retention must have reclaimed something: frames either expired
        // (deadline passed) or were evicted (earliest-deadline tenant).
        let reclaimed: u64 = r.windows.iter().map(|w| w.expired + w.evicted).sum();
        assert!(reclaimed > 0, "ring retention never reclaimed a frame");
        // The driver never deletes, so the store alone bounded occupancy.
        assert!(store.len() <= spec.store_cfg.capacity);
    }

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
    fn zipf_phase_mixes_ops() {
        let sc = Scenario {
            name: "mixed".to_string(),
            seed: 9,
            key_space: 128,
            value_size: 16,
            window_ops: 100,
            phases: vec![Phase {
                name: "mixed".to_string(),
                ops: 400,
                mix: OpMix { put_pct: 40, get_pct: 50, del_pct: 10 },
                keys: KeyDist::Zipf { theta: 0.99, key_base: 0 },
                values: ValueSource::Patterns { fills: FAMILY_A.to_vec() },
                ttl_ms: None,
                rate_ops_per_sec: None,
                burst: None,
            }],
        };
        let store = ShardedPnwStore::new(PnwConfig::new(512, 16).with_clusters(2).with_shards(2));
        let r = replay(&store, &sc);
        assert_eq!(r.windows.len(), 4);
        assert!(r.windows.iter().map(|w| w.puts).sum::<u64>() > 0);
        assert!(!store.is_empty());
    }

    #[test]
    fn paced_phase_respects_rate() {
        let sc = Scenario {
            name: "paced".to_string(),
            seed: 5,
            key_space: 32,
            value_size: 8,
            window_ops: 50,
            phases: vec![Phase {
                name: "paced".to_string(),
                ops: 100,
                mix: OpMix::write_only(),
                keys: KeyDist::Zipf { theta: 0.0, key_base: 0 },
                values: ValueSource::Patterns { fills: vec![0xAA] },
                ttl_ms: None,
                rate_ops_per_sec: Some(5_000.0),
                burst: None,
            }],
        };
        let store = ShardedPnwStore::new(PnwConfig::new(64, 8).with_shards(1));
        let start = Instant::now();
        let r = replay(&store, &sc);
        // 100 ops at 5k/s ≈ 20 ms offered duration.
        assert!(start.elapsed() >= Duration::from_millis(15), "pacing ignored");
        assert_eq!(r.windows.len(), 2);
    }
}
