//! Layer replays: the traced run feeds the start of a workload's inputs to
//! one layer's public entry point alone and times the calls from outside.
//! A layer's self time is then had by subtraction down the ladder
//! `ShardedPnwStore` ⊃ `ShardEngine` ⊃ {predict, pool, device write, CRC,
//! index}. Nothing inside the program is instrumented.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pnw_baselines::PathHashStore;
use pnw_core::model::stride_sample;
use pnw_core::{
    Batch, DynamicAddressPool, ModelManager, PnwConfig, RetrainMode, ShardEngine, ShardedPnwStore,
    Store,
};
use pnw_index::{AtomicHashIndex, KeyIndex};
use pnw_ml::featurize::featurize_values;
use pnw_ml::{KMeans, KMeansConfig, PackedMatrix, PackedPredictor, Pca};
use pnw_nvm_sim::{crc32c, LatencyModel, NvmConfig, NvmDevice, WriteMode};
use pnw_server::protocol::{
    decode_request, encode_request, encode_response, read_frame, write_frame, RequestFrame,
    ResponseFrame, DEFAULT_MAX_FRAME,
};
use pnw_server::{Request, Response};

use crate::gen::{mix64, Codec, PUT_BIT};
use crate::stats::{median, percentile_of};
use crate::sysinfo::{files_size, proc_io};
use crate::workloads::{ns, preload_batched, time_per_call, value_of, Metrics, Params};

/// Bytes of bucket header in front of each value on the device.
const BUCKET_HEADER: usize = 16;
/// PUTs the baseline comparison runs (the issue's "first 50k PUTs").
const BASELINE_PUTS: usize = 50_000;
/// Values are prepared a batch at a time outside the timed loop.
const BATCH: usize = 256;

/// A workload's inputs in the shape the replays take.
pub struct ReplayInputs {
    /// The workload's store configuration.
    pub config: PnwConfig,
    pub codec: Codec,
    /// Keys `0..preload` are live before the stream starts.
    pub preload: u64,
    /// The first ops of the workload's ring (`key | PUT_BIT`); empty for a
    /// replacement stream.
    pub ops: Vec<u32>,
    /// The stream deletes the oldest key and puts a fresh one.
    pub replacement: bool,
}

impl ReplayInputs {
    fn value_size(&self) -> usize {
        self.config.value_size
    }

    /// A volatile, manually trained copy of the workload's configuration:
    /// a replay measures one layer, not the background trainer beside it.
    fn store_config(&self) -> PnwConfig {
        self.config.clone().with_retrain(RetrainMode::Manual)
    }

    fn preload_version(&self) -> u32 {
        u32::from(!self.replacement)
    }

    /// Keys of the first `n` PUTs of the stream.
    fn put_keys(&self, n: usize) -> Vec<u64> {
        if self.replacement {
            // Never more fresh keys than there are old ones to delete.
            (self.preload..self.preload + n.min(self.preload as usize) as u64).collect()
        } else {
            self.ops
                .iter()
                .filter(|&&op| op & PUT_BIT != 0)
                .take(n)
                .map(|&op| (op & !PUT_BIT) as u64)
                .collect()
        }
    }

    /// Keys of the first `n` GETs; a stream without GETs reads what it puts.
    fn get_keys(&self, n: usize) -> Vec<u64> {
        let gets: Vec<u64> = self
            .ops
            .iter()
            .filter(|&&op| op & PUT_BIT == 0)
            .take(n)
            .map(|&op| op as u64)
            .collect();
        if !gets.is_empty() {
            gets
        } else if self.replacement {
            (0..self.preload).cycle().take(n).collect()
        } else {
            self.put_keys(n)
        }
    }

    /// The value the `i`-th PUT of the stream writes to `key`.
    fn fill_put(&self, i: usize, key: u64, buf: &mut [u8]) {
        let version = if self.replacement { 0 } else { 2 + i as u32 };
        self.codec.fill(key, version, buf);
    }

    fn fill_preload(&self, key: u64, buf: &mut [u8]) {
        self.codec.fill(key, self.preload_version(), buf);
    }

    /// Hands every preloaded key and its value to `put`, in key order.
    fn preload(&self, mut put: impl FnMut(u64, &[u8])) {
        let mut buf = vec![0u8; self.value_size()];
        for key in 0..self.preload {
            self.fill_preload(key, &mut buf);
            put(key, &buf);
        }
    }

    /// How many calls a replay makes: 1M for small values, fewer for images.
    fn replay_ops(&self, p: &Params) -> usize {
        p.scaled(if self.value_size() > 256 {
            100_000
        } else {
            1 << 20
        })
    }
}

/// Mean nanoseconds per PUT over `keys`. Values are prepared a batch at a
/// time outside the timed loop; `before_batch(first, len)` runs untimed
/// before each batch (a replacement stream deletes its oldest keys there).
fn time_puts(
    inp: &ReplayInputs,
    keys: &[u64],
    mut before_batch: impl FnMut(usize, usize),
    mut put: impl FnMut(u64, &[u8]),
) -> f64 {
    let vs = inp.value_size();
    let mut vals = vec![0u8; BATCH * vs];
    let mut total = Duration::ZERO;
    for (c, chunk) in keys.chunks(BATCH).enumerate() {
        before_batch(c * BATCH, chunk.len());
        for (j, &key) in chunk.iter().enumerate() {
            inp.fill_put(c * BATCH + j, key, &mut vals[j * vs..(j + 1) * vs]);
        }
        let t = Instant::now();
        for (j, &key) in chunk.iter().enumerate() {
            put(key, &vals[j * vs..(j + 1) * vs]);
        }
        total += t.elapsed();
    }
    total.as_nanos() as f64 / keys.len().max(1) as f64
}

/// Mean nanoseconds per call of `f` over `keys`, timed as one loop.
fn time_keys(keys: &[u64], mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for &key in keys {
        f(key);
    }
    t.elapsed().as_nanos() as f64 / keys.len().max(1) as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `ml.*`: the prediction kernel and the fits, on the workload's values.
fn ml(inp: &ReplayInputs, p: &Params) -> Metrics {
    let cfg = &inp.config;
    let vs = inp.value_size();
    let sample: Vec<Vec<u8>> = (0..inp.preload.min(cfg.train_sample_cap as u64))
        .map(|key| {
            let mut v = vec![0u8; vs];
            inp.fill_preload(key, &mut v);
            v
        })
        .collect();
    let kcfg = KMeansConfig::new(cfg.clusters)
        .with_seed(cfg.seed)
        .with_max_iters(cfg.train_iters);
    let n = inp.replay_ops(p);
    let mut out: Metrics = vec![(
        "ml.simd_active",
        f64::from(u8::from(pnw_ml::simd::simd_active())),
    )];
    if cfg.uses_pca() {
        let bits = featurize_values(&sample);
        let sub = bits.select_rows(&stride_sample(bits.rows(), cfg.pca.sample));
        let t = Instant::now();
        let pca = Pca::fit(&sub, cfg.pca.components);
        out.push(("ml.pca_fit_ms", ms(t.elapsed())));
        let projected = pca.transform(&bits);
        let t = Instant::now();
        black_box(KMeans::fit(&projected, &kcfg));
        out.push(("ml.kmeans_fit_ms", ms(t.elapsed())));
        let projector = pca.bit_projector();
        let mut features = vec![0f32; projector.n_components()];
        let t = Instant::now();
        for value in sample.iter().cycle().take(n) {
            projector.project_into(black_box(value), &mut features);
        }
        out.push((
            "ml.pca_project_ns",
            t.elapsed().as_nanos() as f64 / n as f64,
        ));
    } else {
        let packed = PackedMatrix::from_values(&sample);
        let t = Instant::now();
        let km = KMeans::fit_set(&packed, &kcfg);
        out.push(("ml.kmeans_fit_ms", ms(t.elapsed())));
        let predictor = PackedPredictor::from_centroids(km.centroids());
        let mut dist = vec![0f32; km.k()];
        let t = Instant::now();
        for value in sample.iter().cycle().take(n) {
            black_box(predictor.distances_into(black_box(value), &mut dist));
        }
        out.push((
            "ml.packed_predict_ns",
            t.elapsed().as_nanos() as f64 / n as f64,
        ));
    }
    out
}

/// `pool.pop_push_ns`: one pop from the predicted cluster and one push back.
fn pool(inp: &ReplayInputs, p: &Params) -> Metrics {
    let (k, capacity) = (inp.config.clusters, inp.config.capacity);
    let mut pool = DynamicAddressPool::new(k, capacity);
    for b in 0..capacity / 2 {
        pool.push(b % k, b as u32);
    }
    let ranking: Vec<usize> = (0..k).collect();
    let n = inp.replay_ops(p);
    let mut cluster = 0;
    let t = Instant::now();
    for _ in 0..n {
        let (bucket, _) = pool
            .pop(cluster, || &ranking)
            .expect("half the pool is free");
        pool.push(cluster, black_box(bucket));
        cluster = if cluster + 1 == k { 0 } else { cluster + 1 };
    }
    vec![("pool.pop_push_ns", t.elapsed().as_nanos() as f64 / n as f64)]
}

/// `index.*`: `AtomicHashIndex` through `KeyIndex` for writes, the lock-free
/// `IndexReader` probe for lookups, at the workload's key count.
fn index(inp: &ReplayInputs, p: &Params) -> Metrics {
    let mut dev = NvmDevice::new(NvmConfig::default().with_size(4096));
    let mut idx = AtomicHashIndex::with_capacity(inp.config.capacity);
    let keys: Vec<u64> = (0..inp.preload).collect();
    let bucket = (BUCKET_HEADER + inp.value_size()) as u64;
    let insert = time_keys(&keys, |k| {
        idx.insert(&mut dev, k, k * bucket).expect("index has room")
    });
    let reader = idx
        .reader()
        .expect("the atomic index has a lock-free reader");
    let view = dev.cell_view();
    let lookups = inp.get_keys(inp.replay_ops(p));
    let lookup = time_keys(&lookups, |k| {
        black_box(reader.lookup(&view, k));
    });
    let remove = time_keys(&keys, |k| {
        black_box(idx.remove(&mut dev, k).expect("remove"));
    });
    vec![
        ("index.insert_ns", insert),
        ("index.lookup_ns", lookup),
        ("index.remove_ns", remove),
    ]
}

/// `nvm.write_diff_ns_*`, `nvm.crc32c_ns_*`, `nvm.modeled_get_ns`: a bare
/// device of the workload's size, overwritten differentially bucket by
/// bucket with the stream's values.
fn nvm(inp: &ReplayInputs, p: &Params) -> Metrics {
    let vs = inp.value_size();
    let bucket = BUCKET_HEADER + vs;
    let buckets = inp.config.capacity;
    let mut dev = NvmDevice::new(NvmConfig::default().with_size(buckets * bucket));
    let mut img = vec![0u8; bucket];
    for b in 0..buckets {
        inp.fill_preload(b as u64, &mut img[BUCKET_HEADER..]);
        dev.write(b * bucket, &img, WriteMode::Raw)
            .expect("in range");
    }
    let n = inp.replay_ops(p);
    let keys = inp.put_keys(n);
    // Each write lands on a bucket drawn beforehand, as placement would pick.
    let targets: Vec<usize> = (0..keys.len() as u64)
        .map(|i| (mix64(i) % buckets as u64) as usize)
        .collect();
    let mut i = 0usize;
    let write = time_puts(
        inp,
        &keys,
        |_, _| {},
        |key, value| {
            img[8..16].copy_from_slice(&key.to_le_bytes());
            img[BUCKET_HEADER..].copy_from_slice(value);
            let b = targets[i];
            i += 1;
            black_box(
                dev.write(b * bucket, &img, WriteMode::Diff)
                    .expect("in range"),
            );
        },
    );
    let crc = time_keys(&keys, |key| {
        img[8] = key as u8;
        black_box(crc32c(black_box(&img[BUCKET_HEADER - 8..])));
    });
    let lines = dev.geometry().lines_spanned(0, bucket) as u64;
    let (write_name, crc_name) = if vs > 256 {
        ("nvm.write_diff_ns_784", "nvm.crc32c_ns_784")
    } else {
        ("nvm.write_diff_ns_64", "nvm.crc32c_ns_64")
    };
    vec![
        (write_name, write),
        (crc_name, crc),
        (
            "nvm.modeled_get_ns",
            LatencyModel::xpoint().read_cost(lines).as_nanos() as f64,
        ),
    ]
}

/// `shard.*`: one `ShardEngine` with the model installed and no frontend.
fn shard(inp: &ReplayInputs, p: &Params) -> Metrics {
    let cfg = inp.store_config().with_shards(1);
    let mut eng = ShardEngine::new(cfg.clone());
    inp.preload(|key, value| {
        eng.put(key, value).expect("preload fits");
    });
    let mut buf = vec![0u8; inp.value_size()];
    let mut trainer = ModelManager::new(&cfg);
    trainer.train(&eng.training_values(cfg.train_sample));
    eng.install_model(trainer.snapshot());

    let n = inp.replay_ops(p);
    let gets = inp.get_keys(n);
    let get = time_keys(&gets, |k| {
        black_box(eng.get_into(k, &mut buf).expect("get"));
    });
    let puts = inp.put_keys(n);
    // The closures below share the engine; a RefCell keeps that honest.
    let eng = std::cell::RefCell::new(eng);
    let put = time_puts(
        inp,
        &puts,
        |first, len| {
            if inp.replacement {
                for old in first..first + len {
                    eng.borrow_mut().delete(old as u64).expect("delete");
                }
            }
        },
        |key, value| {
            black_box(eng.borrow_mut().put(key, value).expect("put"));
        },
    );
    let mut eng = eng.into_inner();
    // Delete keys that are certainly live: the newest of a replacement
    // stream, the first of the key space otherwise.
    let victims: Vec<u64> = if inp.replacement {
        puts.iter().rev().take(p.scaled(65_536)).copied().collect()
    } else {
        (0..inp.preload.min(p.scaled(65_536) as u64)).collect()
    };
    let delete = time_keys(&victims, |k| {
        black_box(eng.delete(k).expect("delete"));
    });
    vec![
        ("shard.put_ns", put),
        ("shard.get_ns", get),
        ("shard.delete_ns", delete),
    ]
}

fn preloaded_store(inp: &ReplayInputs) -> ShardedPnwStore {
    let store = ShardedPnwStore::new(inp.store_config());
    inp.preload(|key, value| {
        store.put(key, value).expect("preload fits");
    });
    store.retrain_now().expect("training");
    store.reset_device_stats();
    store
}

fn delete_oldest(store: &ShardedPnwStore, first: usize, len: usize) {
    for old in first..first + len {
        store.delete(old as u64).expect("delete");
    }
}

/// Median GET latency in nanoseconds over `keys`, each call timed.
fn get_p50_ns(store: &ShardedPnwStore, keys: &[u64]) -> f64 {
    let mut buf = vec![0u8; store.config().value_size];
    let mut lat: Vec<u32> = keys
        .iter()
        .map(|&k| {
            let t = Instant::now();
            black_box(store.get_into(k, &mut buf).expect("get"));
            ns(t.elapsed())
        })
        .collect();
    percentile_of(&mut lat, 50.0)
}

/// `sharded.*`: the whole volatile store, one thread unless stated.
fn sharded(inp: &ReplayInputs, p: &Params) -> Metrics {
    let store = preloaded_store(inp);
    let n = inp.replay_ops(p);
    let mut buf = vec![0u8; inp.value_size()];
    let gets = inp.get_keys(n);
    let get = time_keys(&gets, |k| {
        black_box(store.get_into(k, &mut buf).expect("get"));
    });

    // Twenty 1 000-key scans spread over the live key range.
    let span = 1000.min(inp.preload);
    let scans: Vec<f64> = (0..20u64)
        .map(|i| {
            let lo = i * (inp.preload - span) / 20;
            let t = Instant::now();
            black_box(store.scan(lo, lo + span - 1).expect("scan").len());
            t.elapsed().as_secs_f64() * 1e6 * 1000.0 / span as f64
        })
        .collect();

    let puts = inp.put_keys(n);
    // GET latency alone, then again with one thread writing beside it. The
    // writer updates preloaded keys, so the store neither fills nor shrinks.
    let probe = &gets[..gets.len().min(p.scaled(200_000))];
    let alone = get_p50_ns(&store, probe);
    let stop = AtomicBool::new(false);
    let beside = std::thread::scope(|s| {
        s.spawn(|| {
            let mut v = vec![0u8; inp.value_size()];
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = mix64(i) % inp.preload;
                inp.codec.fill(key, inp.preload_version(), &mut v);
                store.put(key, &v).expect("put beside readers");
                i += 1;
            }
        });
        let beside = get_p50_ns(&store, probe);
        stop.store(true, Ordering::Relaxed);
        beside
    });

    let put = time_puts(
        inp,
        &puts,
        |first, len| {
            if inp.replacement {
                delete_oldest(&store, first, len);
            }
        },
        |key, value| {
            black_box(store.put(key, value).expect("put"));
        },
    );

    // The same PUTs again, 64 to a batch through `Store::apply`.
    let mut batch = Batch::with_capacity(64);
    let mut total = Duration::ZERO;
    for (c, chunk) in puts.chunks(64).enumerate() {
        batch.clear();
        for (j, &key) in chunk.iter().enumerate() {
            inp.fill_put(c * 64 + j, key, &mut buf);
            batch.put(key, &buf);
        }
        let t = Instant::now();
        let report = store.apply(&batch);
        total += t.elapsed();
        assert!(
            report.all_ok(),
            "batched replay put failed: {:?}",
            report.failures.first()
        );
    }
    vec![
        ("sharded.put_ns", put),
        ("sharded.get_ns", get),
        ("sharded.get_slowdown_under_writes", beside / alone.max(1.0)),
        (
            "sharded.apply64_ns_per_put",
            total.as_nanos() as f64 / puts.len().max(1) as f64,
        ),
        ("sharded.scan_us_per_1k", median(&scans)),
    ]
}

/// Flips per PUT of `store` over the stream's first `BASELINE_PUTS` PUTs.
fn flips_per_put(inp: &ReplayInputs, p: &Params, store: &dyn Store) -> f64 {
    let mut buf = vec![0u8; inp.value_size()];
    let keys = inp.put_keys(p.scaled(BASELINE_PUTS));
    for (i, &key) in keys.iter().enumerate() {
        if inp.replacement {
            store.delete(i as u64).expect("delete");
        }
        inp.fill_put(i, key, &mut buf);
        store.put(key, &buf).expect("put");
    }
    store.device_stats().totals.total_bit_flips() as f64 / keys.len().max(1) as f64
}

/// `baselines.*`: the same PUTs on the in-place `PathHashStore`, the
/// reference the paper's headline flip reduction is measured against.
fn baselines(inp: &ReplayInputs, p: &Params) -> Metrics {
    let inplace = PathHashStore::new(inp.config.capacity, inp.value_size());
    inp.preload(|key, value| {
        inplace.put(key, value).expect("preload fits");
    });
    inplace.reset_device_stats();
    let inplace_flips = flips_per_put(inp, p, &inplace);
    let pnw_flips = flips_per_put(inp, p, &preloaded_store(inp));
    vec![
        ("baselines.inplace_flips_per_put", inplace_flips),
        (
            "baselines.flip_reduction",
            1.0 - pnw_flips / inplace_flips.max(f64::EPSILON),
        ),
    ]
}

/// Every replay a volatile workload has, plus the two rungs had by
/// subtraction.
pub fn in_process(inp: &ReplayInputs, p: &Params) -> Metrics {
    let mut out = Metrics::new();
    for replay in [ml, pool, index, nvm, shard, sharded, baselines] {
        out.extend(replay(inp, p));
    }
    let get = |name: &str| value_of(&out, name);
    let leaves = get("ml.packed_predict_ns")
        + get("ml.pca_project_ns")
        + get("pool.pop_push_ns")
        + get("nvm.write_diff_ns_64")
        + get("nvm.write_diff_ns_784")
        + get("nvm.crc32c_ns_64")
        + get("nvm.crc32c_ns_784")
        + get("index.insert_ns");
    let derived = [
        ("shard.put_self_ns", get("shard.put_ns") - leaves),
        (
            "sharded.frontend_put_ns",
            get("sharded.put_ns") - get("shard.put_ns"),
        ),
    ];
    out.extend(derived);
    out
}

/// `durable.*`: the file-backed store in-process — no sockets — on the same
/// inputs, in a scratch directory beside the workload's own.
pub fn durable(inp: &ReplayInputs, p: &Params, dir: &Path) -> Metrics {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create replay dir");
    let cfg = inp.store_config().with_path(dir.join("store"));
    let n = p.scaled(5_000).max(64);
    let keys = inp.put_keys(n);
    let vs = inp.value_size();
    let mut buf = vec![0u8; vs];
    let put_p50_ns = |store: &ShardedPnwStore, buf: &mut [u8]| {
        let mut lat: Vec<u32> = keys
            .iter()
            .enumerate()
            .map(|(i, &key)| {
                inp.fill_put(i, key, buf);
                let t = Instant::now();
                store.put(key, buf).expect("put");
                ns(t.elapsed())
            })
            .collect();
        percentile_of(&mut lat, 50.0)
    };
    let volatile_p50 = put_p50_ns(&preloaded_store(inp), &mut buf);

    let store = ShardedPnwStore::open(cfg.clone()).expect("open durable store");
    preload_batched(&store, &inp.codec, inp.preload, inp.preload_version());
    let mut batch = Batch::new();
    store.retrain_now().expect("training");
    store.checkpoint().expect("checkpoint");

    let wal_before = files_size(&dir.join("store"), "wal.");
    let (syscw0, wchar0) = proc_io();
    let durable_p50 = put_p50_ns(&store, &mut buf);
    let (syscw1, wchar1) = proc_io();
    let wal_bytes = files_size(&dir.join("store"), "wal.") - wal_before;

    // Reopen without a checkpoint: `open` replays the records just logged.
    drop(store);
    let t = Instant::now();
    let store = ShardedPnwStore::open(cfg).expect("reopen durable store");
    let open_ms = ms(t.elapsed());

    let mut total = Duration::ZERO;
    for (c, chunk) in keys.chunks(64).enumerate() {
        batch.clear();
        for (j, &key) in chunk.iter().enumerate() {
            inp.fill_put(c * 64 + j, key, &mut buf);
            batch.put(key, &buf);
        }
        let t = Instant::now();
        let report = store.apply(&batch);
        total += t.elapsed();
        assert!(report.all_ok(), "durable batched put failed");
    }
    let t = Instant::now();
    store.checkpoint().expect("checkpoint");
    let checkpoint_ms = ms(t.elapsed());
    drop(store);

    // The floor under any durable PUT here: append one WAL-record-sized
    // write and `sync_data`, on a scratch file on the same filesystem.
    let record = vec![0xA5u8; 25 + vs];
    let mut floor: Vec<u32> = {
        use std::io::Write;
        let mut f = std::fs::File::create(dir.join("fsync-floor")).expect("scratch file");
        (0..p.scaled(2_000).max(32))
            .map(|_| {
                let t = Instant::now();
                f.write_all(&record).expect("append");
                f.sync_data().expect("sync_data");
                ns(t.elapsed())
            })
            .collect()
    };
    floor.sort_unstable();
    let _ = std::fs::remove_dir_all(dir);
    let per_put = |x: u64| x as f64 / keys.len() as f64;
    vec![
        ("durable.put_extra_us", (durable_p50 - volatile_p50) / 1e3),
        (
            "durable.apply64_us_per_put",
            total.as_secs_f64() * 1e6 / keys.len() as f64,
        ),
        ("durable.wal_bytes_per_put", per_put(wal_bytes)),
        ("durable.syscw_per_put", per_put(syscw1 - syscw0)),
        ("durable.wchar_per_put", per_put(wchar1 - wchar0)),
        ("durable.checkpoint_ms", checkpoint_ms),
        ("durable.open_ms", open_ms),
        (
            "durable.fsync_floor_us_p50",
            crate::stats::percentile(&floor, 50.0) / 1e3,
        ),
        (
            "durable.fsync_floor_us_p99",
            crate::stats::percentile(&floor, 99.0) / 1e3,
        ),
    ]
}

/// `protocol.*`: the wire codec alone, on a PUT of the workload's value size.
pub fn protocol(inp: &ReplayInputs, p: &Params) -> Metrics {
    let mut value = vec![0u8; inp.value_size()];
    inp.fill_preload(7, &mut value);
    let n = inp.replay_ops(p);
    let request = RequestFrame {
        id: 1,
        deadline_us: 0,
        req: Request::Put {
            key: 7,
            value: value.clone(),
        },
    };
    let mut payload = Vec::new();
    let encode_put = time_per_call(n, |_| encode_request(black_box(&request), &mut payload));
    let decode_put = time_per_call(n, |_| {
        black_box(decode_request(black_box(&payload)).expect("decodes"));
    });
    let response = ResponseFrame {
        id: 1,
        resp: Response::Get(Some(value)),
    };
    let mut resp_payload = Vec::new();
    let encode_get_resp = time_per_call(n, |_| {
        encode_response(black_box(&response), &mut resp_payload)
    });
    let (mut wire, mut back) = (Vec::new(), Vec::new());
    let frame = time_per_call(n, |_| {
        wire.clear();
        write_frame(&mut wire, &payload).expect("write to memory");
        read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME, &mut back).expect("read from memory");
    });
    vec![
        ("protocol.encode_put_ns", encode_put),
        ("protocol.decode_put_ns", decode_put),
        ("protocol.encode_get_resp_ns", encode_get_resp),
        ("protocol.frame_ns", frame),
    ]
}
