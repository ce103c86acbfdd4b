//! `get-heavy`: the `core.sharded` layer used the other way.
//!
//! A volatile store, `nproc` threads, 95% `get_into` / 5% `put`, Zipf(0.99)
//! keys scattered over 524 288 preloaded keys in 1 048 576 buckets (far
//! beyond the last-level cache), 64-byte values. Seqlock GET + index probe +
//! CRC verify run under cache misses with writers beside the readers, so a
//! PUT-side gain that costs readers (or the reverse) shows here. Predict-heavy
//! work, durable and server are bypassed.

use std::sync::Barrier;
use std::time::Instant;

use pnw_core::{PnwConfig, ShardedPnwStore};

use super::{
    count_metrics, is_backpressure, ns, p50_p99_us, pattern_gen_ns, pattern_store_config,
    store_layer_metrics, verify_present, Params, Pass, PutTrace, Workload, PATTERN_VALUE_SIZE,
    SAMPLE_EVERY,
};
use crate::gen::{op_ring, Codec, Zipf, PUT_BIT};
use crate::layers::ReplayInputs;
use crate::stats::median;

pub const KEYS: usize = 524_288;
const PUT_SHARE: f64 = 0.05;
/// Every key is written with these versions, in turn, before the first train.
const PRELOAD_VERSIONS: [u32; 2] = [1, 2];
/// Per-thread ring of pre-drawn ops, walked cyclically.
const RING: usize = 1 << 22;
const WARM_OPS: usize = 262_144;
const BLOCK: usize = 1 << 16;
/// Per-thread op window the device counts are taken over (whole blocks).
const COUNT_OPS: usize = 61 * BLOCK;
/// One sampled call in this many also leaves a span in a traced pass.
const SPAN_EVERY: u64 = 16;

pub struct GetHeavy;

pub struct State {
    store: ShardedPnwStore,
    rings: Vec<Vec<u32>>,
    codec: Codec,
    n_keys: usize,
    gen_ns_per_value: f64,
}

fn n_keys(p: &Params) -> usize {
    p.scaled(KEYS).max(128)
}

fn config(p: &Params) -> PnwConfig {
    pattern_store_config(n_keys(p))
}

fn thread_ring(p: &Params, zipf: &Zipf, thread: usize) -> Vec<u32> {
    let len = p.scaled(RING).next_power_of_two();
    op_ring(
        zipf,
        n_keys(p) as u64,
        len,
        PUT_SHARE,
        p.seed ^ ((thread as u64 + 1) << 32),
    )
}

/// What one client thread brings back.
struct ThreadOut {
    get_lat: Vec<u32>,
    put_lat: Vec<u32>,
    rates: Vec<f64>,
    ops: u64,
    puts: u64,
    window_puts: u64,
    failed: u64,
    backpressure: u64,
    trace: Option<PutTrace>,
}

impl Workload for GetHeavy {
    const NAME: &'static str = "get-heavy";
    type State = State;

    fn setup(p: &Params, _traced: bool) -> State {
        let n = n_keys(p);
        let zipf = Zipf::new(n, 0.99);
        let rings: Vec<Vec<u32>> = std::thread::scope(|s| {
            let zipf = &zipf;
            let handles: Vec<_> = (0..p.threads)
                .map(|t| s.spawn(move || thread_ring(p, zipf, t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ring generation"))
                .collect()
        });
        let codec = Codec::pattern(p.seed);
        let mut buf = vec![0u8; PATTERN_VALUE_SIZE];
        let gen_ns_per_value = pattern_gen_ns(p, &codec);

        let store = ShardedPnwStore::new(config(p));
        // Preload, then update every key once: no bucket is virgin (all
        // zeros) when the model is first trained — the paper's §VI-A old-data
        // set-up. Trained on a half-zero zone, K-means settles in a poor
        // optimum for some seeds and flips/PUT doubles.
        for version in PRELOAD_VERSIONS {
            for key in 0..n as u64 {
                codec.fill(key, version, &mut buf);
                store.put(key, &buf).expect("preload fits");
            }
        }
        store.retrain_now().expect("first training");
        // Warm-up: each thread's first ops, run here on one thread.
        let warm = p.scaled(WARM_OPS);
        for ring in &rings {
            for (i, &op) in ring[..warm.min(ring.len())].iter().enumerate() {
                let key = (op & !PUT_BIT) as u64;
                if op & PUT_BIT != 0 {
                    codec.fill(key, 3 + i as u32, &mut buf);
                    store.put(key, &buf).expect("warm-up update");
                } else {
                    store.get_into(key, &mut buf).expect("warm-up read");
                }
            }
        }
        store.reset_device_stats();
        State {
            store,
            rings,
            codec,
            n_keys: n,
            gen_ns_per_value,
        }
    }

    fn pass(st: State, p: &Params, traced: bool) -> Pass {
        let State {
            store,
            rings,
            codec,
            n_keys,
            gen_ns_per_value,
        } = st;
        let block = p.scaled(BLOCK).max(SAMPLE_EVERY);
        let count_blocks = p.scaled(COUNT_OPS).div_ceil(block);
        let warm = p.scaled(WARM_OPS);
        let before = store.snapshot();
        let epoch = Instant::now();
        // Threads and the coordinator meet twice around the count snapshot.
        let barrier = Barrier::new(rings.len() + 1);
        let mut window = None;

        let outs: Vec<ThreadOut> = std::thread::scope(|s| {
            let handles: Vec<_> = rings
                .iter()
                .enumerate()
                .map(|(t, ring)| {
                    let (store, codec, barrier) = (&store, &codec, &barrier);
                    s.spawn(move || {
                        let mask = ring.len() - 1;
                        let mut pos = warm;
                        let mut out = ThreadOut {
                            get_lat: Vec::with_capacity(1 << 20),
                            put_lat: Vec::with_capacity(1 << 16),
                            rates: Vec::new(),
                            ops: 0,
                            puts: 0,
                            window_puts: 0,
                            failed: 0,
                            backpressure: 0,
                            trace: traced.then(|| PutTrace::new(epoch, t as u64, 1)),
                        };
                        let mut buf = vec![0u8; PATTERN_VALUE_SIZE];
                        let mut run_block = |out: &mut ThreadOut| {
                            let t0 = Instant::now();
                            for i in 0..block {
                                let op = ring[pos & mask];
                                pos += 1;
                                let key = (op & !PUT_BIT) as u64;
                                let sampled = i % SAMPLE_EVERY == 0;
                                if op & PUT_BIT != 0 {
                                    // Versions only need to differ write to
                                    // write; the value carries its own.
                                    out.puts += 1;
                                    codec.fill(key, ((out.puts as u32) << 3) | t as u32, &mut buf);
                                    let result = if sampled {
                                        let a = Instant::now();
                                        let r = store.put(key, &buf);
                                        let b = Instant::now();
                                        out.put_lat.push(ns(b - a));
                                        if let (Some(tr), Ok(rep)) = (&mut out.trace, &r) {
                                            tr.observe(rep, a, b, (out.ops + i as u64, key));
                                        }
                                        r
                                    } else {
                                        store.put(key, &buf)
                                    };
                                    out.failed += u64::from(result.is_err());
                                    out.backpressure += u64::from(is_backpressure(&result));
                                } else if sampled {
                                    let a = Instant::now();
                                    let hit = store.get_into(key, &mut buf);
                                    let b = Instant::now();
                                    out.get_lat.push(ns(b - a));
                                    // Every GET must hit; sampled ones are
                                    // also checked byte for byte.
                                    let ok = matches!(hit, Ok(true))
                                        && codec.verify(key, &buf).is_some();
                                    out.failed += u64::from(!ok);
                                    if let Some(tr) = &mut out.trace {
                                        if i % (SAMPLE_EVERY * SPAN_EVERY as usize) == 0 {
                                            tr.rec.span(
                                                "store.get",
                                                a,
                                                b,
                                                0,
                                                (out.ops + i as u64, key),
                                            );
                                        }
                                    }
                                } else {
                                    let hit = store.get_into(key, &mut buf);
                                    out.failed += u64::from(!matches!(hit, Ok(true)));
                                }
                            }
                            out.rates.push(block as f64 / t0.elapsed().as_secs_f64());
                            out.ops += block as u64;
                        };
                        barrier.wait();
                        let start = Instant::now();
                        for _ in 0..count_blocks {
                            run_block(&mut out);
                        }
                        out.window_puts = out.puts;
                        barrier.wait();
                        barrier.wait();
                        while !p.deadline_passed(start) {
                            run_block(&mut out);
                        }
                        out
                    })
                })
                .collect();
            barrier.wait();
            barrier.wait();
            window = Some((store.device_stats().totals, store.max_word_writes()));
            barrier.wait();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });

        let (reads, misses) = verify_present(&store, &codec, (0..n_keys as u64).map(|k| (k, None)));

        let mut get_lat: Vec<u32> = outs
            .iter()
            .flat_map(|o| o.get_lat.iter().copied())
            .collect();
        let mut put_lat: Vec<u32> = outs
            .iter()
            .flat_map(|o| o.put_lat.iter().copied())
            .collect();
        let (get_p50, get_p99) = p50_p99_us(&mut get_lat);
        let (put_p50, put_p99) = p50_p99_us(&mut put_lat);
        let ops: u64 = outs.iter().map(|o| o.ops).sum();
        let failed: u64 = outs.iter().map(|o| o.failed).sum();
        let backpressure: u64 = outs.iter().map(|o| o.backpressure).sum();
        let window_puts: u64 = outs.iter().map(|o| o.window_puts).sum();
        let (window, max_word_writes) = window.expect("the count window always completes");
        let mut e2e = vec![
            // Threads finish a few blocks apart, so the rate is the sum of
            // each thread's median block rate, not ops over the longest wall.
            ("ops_per_s", outs.iter().map(|o| median(&o.rates)).sum()),
            ("put_p50_us", put_p50),
            ("put_p99_us", put_p99),
            ("get_p50_us", get_p50),
            ("get_p99_us", get_p99),
        ];
        e2e.extend(count_metrics(&window, window_puts, max_word_writes));

        let mut pass = Pass {
            e2e,
            counts: vec![
                ("threads", outs.len() as f64),
                ("timed_ops", ops as f64),
                (
                    "count_window_ops",
                    (count_blocks * block * outs.len()) as f64,
                ),
                ("count_window_puts", window_puts as f64),
                ("get_samples", get_lat.len() as f64),
                ("put_samples", put_lat.len() as f64),
                ("verify_reads", reads as f64),
            ],
            attempted: ops + reads,
            failed: failed + misses,
            ..Pass::default()
        };
        let traces: Vec<PutTrace> = outs.into_iter().filter_map(|o| o.trace).collect();
        if traced {
            let (layer, spans) = PutTrace::finish(traces);
            pass.layer = layer;
            pass.layer.extend(store_layer_metrics(&store, &before));
            pass.layer.extend([
                ("workloads.gen_ns_per_value", gen_ns_per_value),
                ("sharded.backpressure", backpressure as f64),
            ]);
            pass.spans = spans;
        }
        pass
    }

    fn replay_inputs(p: &Params) -> ReplayInputs {
        let ring = thread_ring(p, &Zipf::new(n_keys(p), 0.99), 0);
        ReplayInputs {
            config: config(p),
            codec: Codec::pattern(p.seed),
            preload: n_keys(p) as u64,
            ops: ring[..ring.len().min(p.scaled(1 << 20))].to_vec(),
            replacement: false,
        }
    }
}
