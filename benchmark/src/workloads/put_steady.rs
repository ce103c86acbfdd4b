//! `put-steady`: the paper's replacement stream on the raw software path.
//!
//! A volatile `ShardedPnwStore`, one client thread, per-op `put` updates with
//! Zipf(0.99) keys over 16 384 keys in 32 768 buckets (fits cache), 64-byte
//! pattern-family values, K = 4, the model trained once after warm-up
//! (`RetrainMode::Manual`). Predict → pool → differential write → seal →
//! index do all the work; durable, server, GET path and retraining do none.
//! One client means every count repeats exactly for a given seed.

use std::time::Instant;

use pnw_core::{PnwConfig, ShardedPnwStore};

use super::{
    count_metrics, is_backpressure, ns, p50_p99_us, pattern_gen_ns, pattern_store_config,
    store_layer_metrics, verify_absent, verify_present, Params, Pass, PutTrace, Workload,
    PATTERN_VALUE_SIZE, SAMPLE_EVERY,
};
use crate::gen::{op_ring, Codec, Zipf, PUT_BIT};
use crate::layers::ReplayInputs;
use crate::stats::median;

pub const KEYS: usize = 16_384;
/// Ring of pre-drawn keys the stream walks cyclically.
const RING: usize = 1 << 22;
/// Updates before the model is trained.
const WARM_OPS: usize = 262_144;
/// Ops per throughput block; `ops_per_s` is the median block rate.
const BLOCK: usize = 1 << 16;
/// The op window the device counts are taken over (whole blocks).
const COUNT_OPS: usize = 61 * BLOCK;
/// One sampled PUT in this many also leaves spans in a traced pass.
const SPAN_EVERY: u64 = 16;

pub struct PutSteady;

pub struct State {
    store: ShardedPnwStore,
    ring: Vec<u32>,
    pos: usize,
    codec: Codec,
    versions: Vec<u32>,
    gen_ns_per_value: f64,
}

fn n_keys(p: &Params) -> usize {
    p.scaled(KEYS).max(128)
}

fn ring(p: &Params) -> Vec<u32> {
    let n = n_keys(p);
    op_ring(
        &Zipf::new(n, 0.99),
        n as u64,
        p.scaled(RING).next_power_of_two(),
        1.0,
        p.seed,
    )
}

fn config(p: &Params) -> PnwConfig {
    pattern_store_config(n_keys(p))
}

impl Workload for PutSteady {
    const NAME: &'static str = "put-steady";
    type State = State;

    fn setup(p: &Params, _traced: bool) -> State {
        let n = n_keys(p);
        let ring = ring(p);
        let codec = Codec::pattern(p.seed);
        let mut buf = vec![0u8; PATTERN_VALUE_SIZE];
        let gen_ns_per_value = pattern_gen_ns(p, &codec);

        let store = ShardedPnwStore::new(config(p));
        let mut versions = vec![0u32; n];
        for key in 0..n as u64 {
            codec.fill(key, 1, &mut buf);
            store.put(key, &buf).expect("preload fits");
            versions[key as usize] = 1;
        }
        let warm = p.scaled(WARM_OPS);
        for &op in &ring[..warm.min(ring.len())] {
            let key = (op & !PUT_BIT) as usize;
            versions[key] += 1;
            codec.fill(key as u64, versions[key], &mut buf);
            store.put(key as u64, &buf).expect("warm-up update");
        }
        store.retrain_now().expect("first training");
        store.reset_device_stats();
        State {
            store,
            ring,
            pos: warm,
            codec,
            versions,
            gen_ns_per_value,
        }
    }

    fn pass(st: State, p: &Params, traced: bool) -> Pass {
        let State {
            store,
            ring,
            mut pos,
            codec,
            mut versions,
            gen_ns_per_value,
        } = st;
        let mask = ring.len() - 1;
        let block = p.scaled(BLOCK).max(SAMPLE_EVERY);
        let count_ops = p.scaled(COUNT_OPS).div_ceil(block) * block;
        let before = store.snapshot();
        let mut trace = traced.then(|| PutTrace::new(Instant::now(), 0, SPAN_EVERY));
        let mut lat: Vec<u32> = Vec::with_capacity(1 << 21);
        let mut rates = Vec::new();
        let mut buf = vec![0u8; PATTERN_VALUE_SIZE];
        let (mut ops, mut failed, mut backpressure) = (0usize, 0u64, 0u64);
        let mut window = None;

        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            for i in 0..block {
                let key = (ring[pos & mask] & !PUT_BIT) as usize;
                pos += 1;
                let version = versions[key] + 1;
                codec.fill(key as u64, version, &mut buf);
                let result = if i % SAMPLE_EVERY == 0 {
                    let a = Instant::now();
                    let r = store.put(key as u64, &buf);
                    let b = Instant::now();
                    lat.push(ns(b - a));
                    if let (Some(tr), Ok(rep)) = (&mut trace, &r) {
                        tr.observe(rep, a, b, ((ops + i) as u64, key as u64));
                    }
                    r
                } else {
                    store.put(key as u64, &buf)
                };
                backpressure += u64::from(is_backpressure(&result));
                match result {
                    Ok(_) => versions[key] = version,
                    Err(_) => failed += 1,
                }
            }
            rates.push(block as f64 / t0.elapsed().as_secs_f64());
            ops += block;
            if ops == count_ops {
                window = Some((store.device_stats().totals, store.max_word_writes()));
            }
            if ops >= count_ops && p.deadline_passed(start) {
                break;
            }
        }
        let elapsed = start.elapsed();

        // Every key is live (the preload wrote them all); keys past the key
        // space were never written.
        let (reads, misses) = verify_present(
            &store,
            &codec,
            versions
                .iter()
                .enumerate()
                .map(|(k, &v)| (k as u64, Some(v))),
        );
        let n = versions.len() as u64;
        let (probes, hits) = verify_absent(&store, n..n + 1024);

        let (window, max_word_writes) = window.expect("the count window always completes");
        let (p50, p99) = p50_p99_us(&mut lat);
        let mut e2e = vec![
            ("ops_per_s", median(&rates)),
            ("put_p50_us", p50),
            ("put_p99_us", p99),
        ];
        e2e.extend(count_metrics(
            &window,
            (count_ops as u64).saturating_sub(failed),
            max_word_writes,
        ));

        let mut pass = Pass {
            e2e,
            counts: vec![
                ("timed_ops", ops as f64),
                ("timed_s", elapsed.as_secs_f64()),
                ("count_window_ops", count_ops as f64),
                ("put_samples", lat.len() as f64),
                ("rate_blocks", rates.len() as f64),
                ("verify_reads", (reads + probes) as f64),
            ],
            attempted: ops as u64 + reads + probes,
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
            pass.spans = spans;
        }
        pass
    }

    fn replay_inputs(p: &Params) -> ReplayInputs {
        let ring = ring(p);
        ReplayInputs {
            config: config(p),
            codec: Codec::pattern(p.seed),
            preload: n_keys(p) as u64,
            ops: ring[..ring.len().min(p.scaled(1 << 20))].to_vec(),
            replacement: false,
        }
    }
}
