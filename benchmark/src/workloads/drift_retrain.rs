//! `drift-retrain`: the paper's §VI-F workload shift.
//!
//! A volatile store, one client thread plus the store's background trainer,
//! 32 768 buckets of 784-byte `TemplateImages` values (the PCA path), K = 10,
//! load factor 0.6 under a 70% working set so background retraining stays
//! armed, `RetrainMode::Background`. The stream is a replacement stream
//! (delete the oldest key, put a fresh one) that alternates Digits and
//! Fashion phases. This is the only workload where `pnw-ml` training,
//! `core.model` install/relabel and pool fallback are on the blocking path,
//! and where flips/PUT and throughput trade against each other.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pnw_core::{PnwConfig, RetrainMode, ShardedPnwStore};
use pnw_nvm_sim::WriteStats;
use pnw_workloads::{ImageStyle, TemplateImages, Workload as _};

use super::{
    count_metrics, is_backpressure, ns, p50_p99_us, store_layer_metrics, time_per_call,
    verify_absent, verify_present, Metrics, Params, Pass, PutTrace, Workload, SHARDS,
};
use crate::gen::{Codec, IMAGE_DATASET};
use crate::layers::ReplayInputs;
use crate::stats::median;

pub const BUCKETS: usize = 32_768;
pub const VALUE_SIZE: usize = 784;
pub const CLUSTERS: usize = 10;
/// Images rendered per style in set-up; values draw their body from these.
const POOL: usize = 4_096;
/// PUTs per phase (a whole number of adaptation windows); a cycle is a Digits
/// phase then a Fashion phase.
const PHASE_PUTS: usize = 60_000;
/// Whole cycles after which `max_word_writes` is read; no run is shorter.
const COUNT_CYCLES: usize = 2;
/// PUTs per window of the adaptation series (traced pass).
const ADAPT_WINDOW: usize = 5_000;
/// A window has adapted once its flips/PUT is within this factor of the
/// level the phase settles at.
const ADAPT_WITHIN: f64 = 1.25;
const SPAN_EVERY: u64 = 16;

pub struct DriftRetrain;

pub struct State {
    store: ShardedPnwStore,
    codec: Codec,
    live: VecDeque<u64>,
    working_set: usize,
    gen_ns_per_value: f64,
}

fn buckets(p: &Params) -> usize {
    p.scaled(BUCKETS).max(1024)
}

fn working_set(p: &Params) -> usize {
    buckets(p) * 7 / 10
}

fn phase_puts(p: &Params) -> usize {
    p.scaled(PHASE_PUTS)
}

fn config(p: &Params) -> PnwConfig {
    PnwConfig::new(buckets(p), VALUE_SIZE)
        .with_clusters(CLUSTERS)
        .with_shards(SHARDS)
        // The working set sits past the load factor, which keeps background
        // retraining armed through every phase.
        .with_load_factor(0.6)
        .with_retrain(RetrainMode::Background)
}

fn codec(p: &Params) -> Codec {
    Codec::images(p.seed, p.scaled(POOL).max(64))
}

/// The phase (and so the value version and style) a timed PUT belongs to.
fn phase_of(put_index: usize, phase_puts: usize) -> u32 {
    (put_index / phase_puts) as u32
}

impl Workload for DriftRetrain {
    const NAME: &'static str = "drift-retrain";
    type State = State;

    fn setup(p: &Params, _traced: bool) -> State {
        let mut images = TemplateImages::new(ImageStyle::Digits, IMAGE_DATASET)
            .with_stream_seed(p.seed ^ 0x9E37);
        let gen_ns_per_value = time_per_call(p.scaled(POOL).max(64), |_| {
            std::hint::black_box(images.next_value());
        });
        let codec = codec(p);
        let store = ShardedPnwStore::new(config(p));
        let working_set = working_set(p);
        let mut buf = vec![0u8; VALUE_SIZE];
        // Old data: a working set of Digits (phase 0 is Digits too).
        for key in 0..working_set as u64 {
            codec.fill(key, 0, &mut buf);
            store.put(key, &buf).expect("preload fits");
        }
        store.retrain_now().expect("first training");
        store.reset_device_stats();
        State {
            store,
            codec,
            live: (0..working_set as u64).collect(),
            working_set,
            gen_ns_per_value,
        }
    }

    fn pass(st: State, p: &Params, traced: bool) -> Pass {
        let State {
            store,
            codec,
            mut live,
            working_set,
            gen_ns_per_value,
        } = st;
        let phase_puts = phase_puts(p);
        let cycle = 2 * phase_puts;
        let window_puts = if p.quick {
            ADAPT_WINDOW / 100
        } else {
            ADAPT_WINDOW
        };
        let first_key = working_set as u64;
        let before = store.snapshot();
        let mut trace = traced.then(|| PutTrace::new(Instant::now(), 0, SPAN_EVERY));
        let mut lat: Vec<u32> = Vec::with_capacity(1 << 20);
        let mut rates = Vec::new();
        let mut buf = vec![0u8; VALUE_SIZE];
        let (mut puts, mut failed, mut backpressure) = (0usize, 0u64, 0u64);
        let mut max_word_writes = 0;
        // Traced pass only: flips per adaptation window, and the iterations
        // during which the store's retrain counter advanced.
        let mut window_flips: Vec<f64> = Vec::new();
        let mut flips_acc = WriteStats::default();
        let mut stalls: Vec<Duration> = Vec::new();
        let mut retrains_seen = store.retrains();

        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            for _ in 0..cycle {
                let iter_start = Instant::now();
                if live.len() >= working_set {
                    let old = live.pop_front().expect("working set is not empty");
                    failed += u64::from(!matches!(store.delete(old), Ok(true)));
                }
                let key = first_key + puts as u64;
                codec.fill(key, phase_of(puts, phase_puts), &mut buf);
                let a = Instant::now();
                let r = store.put(key, &buf);
                let b = Instant::now();
                lat.push(ns(b - a));
                backpressure += u64::from(is_backpressure(&r));
                match &r {
                    Ok(rep) => {
                        live.push_back(key);
                        if let Some(tr) = &mut trace {
                            tr.observe(rep, a, b, (puts as u64, key));
                            flips_acc += rep.total_write;
                            let now = store.retrains();
                            if now != retrains_seen {
                                // The install ran inside this iteration's
                                // delete or put: the whole iteration is the
                                // stall a client sees.
                                stalls.push(b - iter_start);
                                retrains_seen = now;
                            }
                        }
                    }
                    Err(_) => failed += 1,
                }
                puts += 1;
                if traced && puts % window_puts == 0 {
                    window_flips.push(flips_acc.total_bit_flips() as f64 / window_puts as f64);
                    flips_acc = WriteStats::default();
                }
            }
            rates.push(cycle as f64 / t0.elapsed().as_secs_f64());
            if puts == COUNT_CYCLES * cycle {
                max_word_writes = store.max_word_writes();
            }
            if puts >= COUNT_CYCLES * cycle && p.deadline_passed(start) {
                break;
            }
        }
        let elapsed = start.elapsed();
        // Let a training run that is still in flight finish, so the store is
        // quiet for the read-back.
        store.wait_for_retrain();

        let version_of = |key: u64| {
            if key < first_key {
                0
            } else {
                phase_of((key - first_key) as usize, phase_puts)
            }
        };
        let (reads, misses) = verify_present(
            &store,
            &codec,
            live.iter().map(|&k| (k, Some(version_of(k)))),
        );
        let oldest = live.front().copied().unwrap_or(0);
        let (probes, hits) = verify_absent(&store, oldest.saturating_sub(4096)..oldest);

        // The background trainer makes these counts timing-dependent, so
        // they are taken over every cycle run, not a fixed window: more shifts
        // averaged, less run-to-run spread. Only the wear reading, which grows
        // with the PUT count, stays at the fixed window.
        let device = store.device_stats().totals;
        let (p50, p99) = p50_p99_us(&mut lat);
        let mut e2e = vec![
            ("ops_per_s", median(&rates)),
            ("put_p50_us", p50),
            ("put_p99_us", p99),
        ];
        e2e.extend(count_metrics(
            &device,
            puts as u64 - failed,
            max_word_writes,
        ));

        let mut pass = Pass {
            e2e,
            counts: vec![
                ("timed_puts", puts as f64),
                ("timed_s", elapsed.as_secs_f64()),
                ("phase_puts", phase_puts as f64),
                ("wear_window_puts", (COUNT_CYCLES * cycle) as f64),
                ("put_samples", lat.len() as f64),
                ("rate_cycles", rates.len() as f64),
                ("verify_reads", (reads + probes) as f64),
                ("worst_put_ms", lat.last().map_or(0.0, |&w| w as f64 / 1e6)),
            ],
            // Each timed iteration is a delete and a put.
            attempted: 2 * puts as u64 + reads + probes,
            failed: failed + misses + hits,
            ..Pass::default()
        };
        if let Some(tr) = trace {
            let (layer, spans) = PutTrace::finish(vec![tr]);
            pass.layer = layer;
            pass.layer.extend(store_layer_metrics(&store, &before));
            pass.layer.extend([
                ("workloads.gen_ns_per_value", gen_ns_per_value),
                ("sharded.backpressure", backpressure as f64),
            ]);
            pass.layer.extend(stall_metrics(&stalls, elapsed));
            pass.layer.extend(adapt_metrics(
                &window_flips,
                phase_puts / window_puts,
                window_puts,
            ));
            pass.spans = spans;
        }
        pass
    }

    fn replay_inputs(p: &Params) -> ReplayInputs {
        ReplayInputs {
            config: config(p),
            codec: codec(p),
            preload: working_set(p) as u64,
            ops: Vec::new(),
            replacement: true,
        }
    }
}

/// `model.install_stall_ms_*` and `model.stall_share` from the iterations
/// during which `retrains()` advanced.
fn stall_metrics(stalls: &[Duration], wall: Duration) -> Metrics {
    let ms: Vec<f64> = stalls.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    vec![
        ("model.install_stall_ms_p50", median(&ms)),
        (
            "model.install_stall_ms_max",
            ms.iter().copied().fold(0.0, f64::max),
        ),
        (
            "model.stall_share",
            ms.iter().sum::<f64>() / 1e3 / wall.as_secs_f64().max(f64::EPSILON),
        ),
    ]
}

/// `model.adapt_puts` and `model.adapt_ratio` from the per-window flips/PUT
/// series. For each shift (every phase boundary) the reference is the level
/// the new phase settles at — the mean of its last quarter of windows:
/// `adapt_puts` is how many PUTs pass before every later window stays within
/// `ADAPT_WITHIN` of that level, `adapt_ratio` is the phase's worst window
/// over that level. Both are medians over the shifts. (Digits and Fashion
/// settle at different levels, so the phase before the shift is no usable
/// reference; and the spike can start a window or two after the shift, while
/// writes still land on free buckets that hold the new phase's own style from
/// a cycle ago, so the first window is no usable peak.)
fn adapt_metrics(window_flips: &[f64], windows_per_phase: usize, window_puts: usize) -> Metrics {
    let (mut adapt_puts, mut adapt_ratio) = (Vec::new(), Vec::new());
    if windows_per_phase >= 4 {
        // Phase 0 continues the preload's distribution: no shift before it.
        for phase in window_flips.chunks_exact(windows_per_phase).skip(1) {
            let tail = &phase[phase.len() - phase.len() / 4..];
            let settled = tail.iter().sum::<f64>() / tail.len() as f64;
            let adapted = phase
                .iter()
                .rposition(|&f| f > ADAPT_WITHIN * settled)
                .map_or(0, |last_high| last_high + 1);
            adapt_puts.push((adapted * window_puts) as f64);
            let worst = phase.iter().copied().fold(0.0, f64::max);
            adapt_ratio.push(worst / settled.max(f64::EPSILON));
        }
    }
    vec![
        ("model.adapt_puts", median(&adapt_puts)),
        ("model.adapt_ratio", median(&adapt_ratio)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_is_read_off_the_window_series() {
        // Two phases of 8 windows. After the shift the second starts low, for
        // one window, spikes to 4x its settled level, and is back within
        // 1.25x from its fifth window on.
        let mut series = vec![100.0; 8];
        series.extend([210.0, 800.0, 600.0, 400.0, 240.0, 200.0, 200.0, 200.0]);
        let m = adapt_metrics(&series, 8, 5_000);
        assert_eq!(
            m,
            vec![("model.adapt_puts", 20_000.0), ("model.adapt_ratio", 4.0)]
        );
        // A phase that never leaves the band adapted at once.
        let flat = vec![100.0; 16];
        assert_eq!(adapt_metrics(&flat, 8, 5_000)[0], ("model.adapt_puts", 0.0));
        // Too few windows per phase to tell a settled level: report zeros.
        assert_eq!(
            adapt_metrics(&series, 2, 5_000),
            vec![("model.adapt_puts", 0.0), ("model.adapt_ratio", 0.0)]
        );
    }

    #[test]
    fn stalls_sum_against_the_wall_clock() {
        let stalls = [
            Duration::from_millis(40),
            Duration::from_millis(60),
            Duration::from_millis(100),
        ];
        let m = stall_metrics(&stalls, Duration::from_secs(2));
        assert_eq!(m[0], ("model.install_stall_ms_p50", 60.0));
        assert_eq!(m[1], ("model.install_stall_ms_max", 100.0));
        assert!((m[2].1 - 0.1).abs() < 1e-12);
        assert_eq!(stall_metrics(&[], Duration::from_secs(1))[0].1, 0.0);
    }
}
