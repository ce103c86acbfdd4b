//! Cost-breakdown probe for the PUT hot path (`pnw-bench opcost`): times
//! each layer of one overwrite in isolation — device bucket write,
//! lock-free index insert/remove, Zipf sampling, value generation — and
//! the end-to-end cost per PUT through `Store::apply` (batched,
//! unreported) and `Store::put` (per-op, reported) at 64 B and 784 B
//! values, so a perf regression can be pinned to a layer without a system
//! profiler.

use std::time::Instant;

use pnw_core::{Batch, PnwConfig, RetrainMode, ShardedPnwStore, Store};
use pnw_index::{AtomicHashIndex, KeyIndex};
use pnw_nvm_sim::{NvmConfig, NvmDevice, WriteMode};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::scenario::Zipfian;
use crate::Scale;

const VALUE: usize = 64;
/// The image-sized value of the drift workloads (28 × 28 pixels).
const IMAGE_VALUE: usize = 784;
const HDR: usize = 16;

fn time<R>(label: &str, iters: u64, mut f: impl FnMut() -> R) {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    println!("{label:<44} {ns:>9.1} ns/op");
}

/// One whole-bucket differential write (header + `value` bytes, every
/// value word dirty) — the diff + wear accounting cost of a placement.
fn device_bucket_row(value: usize, iters: u64, rng: &mut StdRng) {
    let bucket = HDR + value;
    let mut dev = NvmDevice::new(NvmConfig::default().with_size(4096 * bucket));
    let mut img = vec![0u8; bucket];
    time(
        &format!("device: {bucket}B bucket write (diff+wear)"),
        iters,
        || {
            let addr = (rng.gen_range(0..4096usize)) * bucket;
            img[HDR..].fill(rng.gen());
            dev.write(addr, &img, WriteMode::Diff).unwrap()
        },
    );
}

/// End to end: Zipf overwrites against a warmed, trained sharded store,
/// batched 64 at a time and one reported `Store::put` at a time.
fn store_rows(value: usize, iters: u64, zipf: &Zipfian, rng: &mut StdRng) {
    let store = ShardedPnwStore::new(
        PnwConfig::new(8192, value)
            .with_clusters(4)
            .with_shards(8)
            .with_seed(3)
            .with_load_factor(0.95)
            .with_retrain(RetrainMode::Background),
    );
    let mut val = vec![0xA5u8; value];
    for key in 0..2048u64 {
        refresh_tail(&mut val, rng);
        store.put(key, &val).unwrap();
    }
    store.retrain_now().unwrap();

    let mut batch = Batch::with_capacity(64);
    let batches = iters / 64;
    let t0 = Instant::now();
    for _ in 0..batches {
        batch.clear();
        for _ in 0..64 {
            refresh_tail(&mut val, rng);
            batch.put(zipf.sample(rng), &val);
        }
        let r = store.apply(&batch);
        assert!(r.all_ok(), "{:?}", r.failures);
    }
    let ns = t0.elapsed().as_nanos() as f64 / (batches * 64) as f64;
    let label = format!("store: {value}B batched overwrite end-to-end");
    println!("{label:<44} {ns:>9.1} ns/op");

    time(
        &format!("store: {value}B per-op put end-to-end"),
        iters,
        || {
            refresh_tail(&mut val, rng);
            store.put(zipf.sample(rng), &val).unwrap()
        },
    );
}

/// A fresh version of a value: same fill, new last eight bytes.
fn refresh_tail(val: &mut [u8], rng: &mut StdRng) {
    let tail = val.len() - 8;
    for b in &mut val[tail..] {
        *b = rng.gen();
    }
}

/// Prints one ns/op row per layer (20 000 iterations each on a quick run,
/// 200 000 on a full one).
pub fn run(scale: Scale) {
    let iters = scale.pick(20_000u64, 200_000);
    println!("PUT layer costs ({iters} iters each):\n");

    let mut rng = StdRng::seed_from_u64(1);
    device_bucket_row(VALUE, iters, &mut rng);
    device_bucket_row(IMAGE_VALUE, iters, &mut rng);
    let mut dev = NvmDevice::new(NvmConfig::default().with_size(4096 * (HDR + VALUE)));
    let mut img = [0u8; HDR + VALUE];
    time("device: 8B flag-word write", iters, || {
        let addr = (rng.gen_range(0..4096usize)) * (HDR + VALUE);
        dev.write(addr, &[rng.gen::<u8>(), 0, 0, 0, 0, 0, 0, 0], WriteMode::Diff)
            .unwrap()
    });

    // Index: lock-free table insert + remove churn at ~50% load.
    let mut idx = AtomicHashIndex::with_capacity(8192);
    for k in 0..4096u64 {
        idx.insert(&mut dev, k, k % 97).unwrap();
    }
    time("index: atomic insert+remove pair", iters, || {
        let k = 10_000 + rng.gen_range(0..4096u64);
        idx.insert(&mut dev, k, 7).unwrap();
        idx.remove(&mut dev, k).unwrap()
    });
    time("index: atomic lookup (hit)", iters, || {
        idx.lookup(&dev, rng.gen_range(0..4096u64)).unwrap()
    });

    // Harness: key sampling and value generation.
    let zipf = Zipfian::new(4096, 0.99);
    time("harness: zipf sample", iters, || zipf.sample(&mut rng));
    time("harness: value fill (reused buf)", iters, || {
        img[HDR..].iter_mut().for_each(|b| *b = 0xA5);
        refresh_tail(&mut img, &mut rng);
    });

    store_rows(VALUE, iters, &zipf, &mut rng);
    store_rows(IMAGE_VALUE, iters / 4, &zipf, &mut rng);
}
