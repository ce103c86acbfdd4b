//! Criterion micro-benchmarks for the hot kernels: the Hamming distance,
//! the device's differential write, featurization, PCA projection, model
//! prediction and the write schemes.
//!
//! The paper reports 5–6 µs prediction latency per item on 2015-era
//! hardware (§VI-D); `predict/*` measures our equivalent.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pnw_core::{PnwConfig, PnwStore, RetrainMode, UpdatePolicy};
use pnw_ml::featurize::bits_to_features;
use pnw_nvm_sim::device::hamming;
use pnw_nvm_sim::{NvmConfig, NvmDevice, WriteMode};
use pnw_schemes::{apply, make_scheme, SchemeKind};
use pnw_workloads::{DatasetKind, Workload};

fn bench_hamming(c: &mut Criterion) {
    let mut g = c.benchmark_group("hamming");
    for size in [8usize, 64, 784, 4096] {
        let a = vec![0xA5u8; size];
        let b = vec![0x5Au8; size];
        g.bench_function(format!("{size}B"), |bench| {
            bench.iter(|| hamming(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

/// One whole-bucket `Diff` write (16 B header + 64 B / 784 B value) with
/// every value word dirty — the kernel's worst case; a clean word costs it
/// a load and a compare.
fn bench_device_write_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("device_write_diff");
    for size in [80usize, 800] {
        let mut dev = NvmDevice::new(NvmConfig::default().with_size(64 * size));
        let mut img = vec![0u8; size];
        let mut i = 0usize;
        g.bench_function(format!("{size}B"), |bench| {
            bench.iter(|| {
                i += 1;
                img[16..].fill(i as u8);
                dev.write((i % 64) * size, black_box(&img), WriteMode::Diff)
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_featurize(c: &mut Criterion) {
    let mut g = c.benchmark_group("featurize");
    for size in [4usize, 64, 784] {
        let v = vec![0xC3u8; size];
        g.bench_function(format!("{size}B"), |bench| {
            bench.iter(|| bits_to_features(black_box(&v)))
        });
    }
    g.finish();
}

/// Builds a trained store over a dataset for prediction/put benchmarks.
fn trained_store(dataset: DatasetKind, k: usize) -> (PnwStore, Box<dyn Workload>) {
    let mut w = dataset.build(77);
    let vs = w.value_size();
    let store = PnwStore::new(
        PnwConfig::new(1024, vs)
            .with_clusters(k)
            .with_retrain(RetrainMode::Manual),
    );
    store.prefill_free_buckets(|| w.next_value()).expect("prefill");
    store.retrain_now().expect("train");
    (store, w)
}

fn bench_predict(c: &mut Criterion) {
    let mut g = c.benchmark_group("predict");
    // Small values: raw 32-bit features.
    let (store, mut w) = trained_store(DatasetKind::Normal, 10);
    let v = w.next_value();
    g.bench_function("u32-k10", |b| b.iter(|| store.predict(black_box(&v))));
    // Large values: PCA-projected image features.
    let (store, mut w) = trained_store(DatasetKind::Mnist, 30);
    let v = w.next_value();
    g.bench_function("mnist-k30-pca", |b| {
        b.iter(|| store.predict(black_box(&v)))
    });
    g.finish();
}

fn bench_schemes(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheme_write_64B");
    for kind in SchemeKind::all() {
        let mut dev = NvmDevice::new(NvmConfig::default().with_size(4096));
        let mut scheme = make_scheme(kind);
        let mut w = DatasetKind::Amazon.build(5);
        let value = w.next_value();
        let v64 = &value[..64];
        g.bench_function(kind.name(), |b| {
            b.iter(|| apply(scheme.as_mut(), &mut dev, 0, black_box(v64)))
        });
    }
    g.finish();
}

fn bench_store_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    g.bench_function("put-delete-u32-k10", |b| {
        let (store, mut w) = trained_store(DatasetKind::Normal, 10);
        let mut key = 0u64;
        b.iter(|| {
            let v = w.next_value();
            store.put(key, &v).expect("room");
            store.delete(key).expect("present");
            key += 1;
        })
    });
    g.bench_function("get-u32", |b| {
        let (store, mut w) = trained_store(DatasetKind::Normal, 10);
        store.put(1, &w.next_value()).expect("room");
        b.iter(|| store.get(black_box(1)))
    });
    g.bench_function("put-inplace-update", |b| {
        let mut w = DatasetKind::Normal.build(3);
        let store = PnwStore::new(
            PnwConfig::new(256, 4)
                .with_clusters(10)
                .with_update_policy(UpdatePolicy::InPlace),
        );
        store.put(1, &w.next_value()).expect("room");
        b.iter(|| store.put(1, &w.next_value()))
    });
    g.finish();
}

/// Short measurement windows: the suite runs on shared single-CPU CI
/// alongside the figure harnesses; Criterion's statistics stay meaningful
/// at 20 samples for these deterministic kernels.
fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_hamming, bench_device_write_diff, bench_featurize, bench_predict, bench_schemes, bench_store_ops
}
criterion_main!(benches);
