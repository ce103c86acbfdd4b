//! End-to-end integration: real workloads through the full PNW stack.

use std::collections::HashMap;

use pnw_baselines::PathHashStore;
use pnw_core::{IndexPlacement, PnwConfig, PnwStore, RetrainMode, ShardedPnwStore, Store};
use pnw_workloads::{DatasetKind, Workload};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Every dataset round-trips through the store: what you put is what you
/// get, across training, steering and deletes.
#[test]
fn every_dataset_roundtrips() {
    for kind in DatasetKind::all() {
        let mut w = kind.build(11);
        let vs = w.value_size();
        let store = PnwStore::new(PnwConfig::new(64, vs).with_clusters(4));
        let mut model = HashMap::new();

        for key in 0..32u64 {
            let v = w.next_value();
            store.put(key, &v).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            model.insert(key, v);
        }
        store.retrain_now().expect("train");
        // Overwrite half (exercises the priced update: in place or steered).
        for key in 0..16u64 {
            let v = w.next_value();
            store.put(key, &v).expect("update");
            model.insert(key, v);
        }
        for (key, v) in &model {
            assert_eq!(
                store.get(*key).expect("device ok").as_ref(),
                Some(v),
                "{kind:?} key {key}"
            );
        }
        assert_eq!(store.len(), model.len());
    }
}

/// Trained steering must beat untrained placement on a clusterable stream.
#[test]
fn training_reduces_bit_flips_on_clusterable_data() {
    let measure = |train: bool| -> f64 {
        let mut w = DatasetKind::Normal.build(5);
        let store = PnwStore::new(PnwConfig::new(1024, 4).with_clusters(12).with_seed(3));
        store.prefill_free_buckets(|| w.next_value()).expect("prefill");
        if train {
            store.retrain_now().expect("train");
        }
        store.reset_device_stats();
        let mut flips = 0u64;
        let mut bits = 0u64;
        for i in 0..1024u64 {
            let v = w.next_value();
            let r = store.put(i, &v).expect("room");
            flips += r.value_write.total_bit_flips();
            bits += r.value_write.bits_addressed;
            store.delete(i).expect("present");
        }
        flips as f64 * 512.0 / bits as f64
    };
    let untrained = measure(false);
    let trained = measure(true);
    // The gain is capped by the value distribution's entropy: normal u32
    // values share only their high-order bits (the low ~24 bits are noise),
    // so steering can save at most ~25% of flips here. Require a clear,
    // repeatable slice of that.
    assert!(
        trained < untrained * 0.9,
        "trained {trained:.1} should clearly beat untrained {untrained:.1}"
    );
}

/// The priced update and the wear-blind in-place reference (`PathHashStore`,
/// which rewrites every update in its own bucket) agree on semantics: only
/// placement differs. The PNW store trains midway, so its later updates
/// are priced — some in place, some relocated.
#[test]
fn update_policies_agree_on_contents() {
    let mut w = DatasetKind::Road.build(9);
    let vs = w.value_size();
    let pnw = PnwStore::new(PnwConfig::new(128, vs).with_clusters(4));
    let path = PathHashStore::new(128, vs);
    let stores: [&dyn Store; 2] = [&pnw, &path];
    let values: Vec<Vec<u8>> = (0..96).map(|_| w.next_value()).collect();
    for (i, v) in values.iter().enumerate() {
        if i == 32 {
            pnw.retrain_now().expect("train");
        }
        for s in stores {
            s.put((i % 32) as u64, v).expect("room"); // 3 versions per key
        }
    }
    for key in 0..32u64 {
        let expected = &values[64 + key as usize];
        for s in stores {
            assert_eq!(s.get(key).unwrap().as_ref(), Some(expected), "{}", s.name());
        }
    }
    for s in stores {
        assert_eq!(s.len(), 32, "{}", s.name());
    }
}

/// NVM-index configuration works end-to-end and costs more NVM traffic
/// than the DRAM-index configuration, as §V-A.3 predicts.
#[test]
fn index_placement_cost_ordering() {
    let mut flips = Vec::new();
    for placement in [IndexPlacement::Dram, IndexPlacement::Nvm] {
        let mut w = DatasetKind::Normal.build(2);
        let s = PnwStore::new(
            PnwConfig::new(256, 4)
                .with_clusters(4)
                .with_index(placement),
        );
        for i in 0..128u64 {
            s.put(i, &w.next_value()).expect("room");
        }
        flips.push(s.device_stats().totals.total_bit_flips());
    }
    assert!(flips[1] > flips[0], "NVM index must add flips: {flips:?}");
}

/// Background retraining under load factor pressure, full stack.
#[test]
fn background_retraining_under_pressure() {
    let mut w = DatasetKind::Amazon.build(4);
    let vs = w.value_size();
    let store = PnwStore::new(
        PnwConfig::new(128, vs)
            .with_clusters(6)
            .with_load_factor(0.5)
            .with_retrain(RetrainMode::Background),
    );
    for i in 0..100u64 {
        store.put(i, &w.next_value()).expect("room");
    }
    store.wait_for_retrain();
    assert!(store.retrains() >= 1);
    // Store still serves correctly after the swap.
    let v = w.next_value();
    store.put(1000, &v).expect("room");
    assert_eq!(store.get(1000).unwrap().unwrap(), v);
}

/// The PCA route end to end: a 160 B store (1280 bits, past the PCA
/// threshold) on a replacement stream, retraining in the background, is
/// driven through a shift from one set of value families to another. It
/// must keep installing models, and placement must recover: flips/PUT end
/// below the level right after the shift, when the model and the free
/// buckets both still belonged to the old families.
#[test]
fn pca_store_recovers_from_a_family_shift_in_the_background() {
    const VALUE: usize = 160;
    const WORKING_SET: u64 = 360;
    let cfg = PnwConfig::new(512, VALUE)
        .with_clusters(4)
        .with_shards(2)
        // The working set sits past the load factor: retraining stays armed.
        .with_load_factor(0.5)
        .with_retrain(RetrainMode::Background);
    assert!(cfg.uses_pca());
    let store = ShardedPnwStore::new(cfg);

    let mut rng = StdRng::seed_from_u64(0xD21F7);
    // A family is a random prototype; a sample redraws ~5% of its bytes.
    let mut families = |n: usize| -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| (0..VALUE).map(|_| rng.gen()).collect())
            .collect()
    };
    let (old, new) = (families(4), families(4));
    let mut noise = StdRng::seed_from_u64(7);
    let mut sample = |set: &[Vec<u8>], key: u64| -> Vec<u8> {
        set[(key % 4) as usize]
            .iter()
            .map(|&b| {
                if noise.gen::<f32>() < 0.05 {
                    noise.gen()
                } else {
                    b
                }
            })
            .collect()
    };
    let mut next_key = 0u64;
    // `n` replacement PUTs from `set`; returns bit flips per PUT.
    let mut run = |set: &[Vec<u8>], n: u64| -> f64 {
        let mut flips = 0u64;
        for _ in 0..n {
            if next_key >= WORKING_SET {
                assert!(store.delete(next_key - WORKING_SET).expect("delete"));
            }
            let r = store.put(next_key, &sample(set, next_key)).expect("room");
            flips += r.total_write.total_bit_flips();
            next_key += 1;
        }
        flips as f64 / n as f64
    };

    run(&old, 2 * WORKING_SET);
    store.wait_for_retrain();
    assert!(
        store.retrains() >= 1,
        "the preload must have armed a retrain"
    );
    run(&old, WORKING_SET);

    let after_shift = run(&new, 100);
    // Turn the zone over twice, let a model trained on it install, and give
    // the pool a window under that model.
    run(&new, 2 * WORKING_SET);
    store.wait_for_retrain();
    run(&new, 100);
    store.wait_for_retrain();
    let settled = run(&new, 100);

    assert!(store.retrains() >= 2, "retrains: {}", store.retrains());
    assert!(!store.snapshot().train.phases.pca_fit.is_zero());
    assert!(
        settled < after_shift * 0.75,
        "flips/PUT {after_shift:.0} right after the shift, {settled:.0} at the end"
    );
    // The newest working set reads back intact.
    for key in next_key - WORKING_SET..next_key {
        assert!(store.get(key).expect("device ok").is_some(), "key {key}");
    }
}

/// The paper's §VI-F shift, warm route against cold: two PCA-configured
/// stores (784 B images) take the same replacement stream from Digits to
/// Fashion and retrain after every window — one in the background (warm
/// basis refresh, label pass, labelled install), one synchronously (cold
/// Gram eigensolve, labels under the lock: what every retrain was before
/// the refresh existed). The schedule is explicit (window, retrain, wait),
/// so both series are the same on every host. The warm store's windowed
/// flips/PUT must be back within 1.25× of the level Fashion settles at in
/// no more PUTs than the cold store needs, and it must not pay more flips
/// on the way.
#[test]
fn pca_store_reconverges_after_a_shift_as_fast_as_the_cold_fit_does() {
    use pnw_workloads::{ImageStyle, TemplateImages};
    const BUCKETS: usize = 512;
    const WORKING_SET: u64 = 360;
    const WINDOW: u64 = 120;

    let run = |background: bool| -> (Vec<f64>, pnw_core::TrainStats) {
        // A small basis keeps the unoptimised build quick.
        let pca = pnw_core::PcaPolicy {
            components: 8,
            sample: 96,
            ..Default::default()
        };
        let cfg = PnwConfig::new(BUCKETS, 784)
            .with_clusters(10)
            .with_shards(2)
            .with_pca(pca);
        assert!(cfg.uses_pca());
        let store = ShardedPnwStore::new(cfg);
        let mut digits = TemplateImages::new(ImageStyle::Digits, 5).with_stream_seed(29);
        let mut fashion = TemplateImages::new(ImageStyle::Fashion, 5).with_stream_seed(29);
        for key in 0..WORKING_SET {
            store.put(key, &digits.next_value()).expect("preload fits");
        }
        store.retrain_now().expect("first training");
        let mut next_key = WORKING_SET;
        // One window of replacement PUTs, then one retrain on the zone as
        // it stands; returns the window's bit flips per PUT.
        let mut window = |images: &mut TemplateImages| -> f64 {
            let mut flips = 0u64;
            for _ in 0..WINDOW {
                assert!(store.delete(next_key - WORKING_SET).expect("delete"));
                let r = store.put(next_key, &images.next_value()).expect("room");
                flips += r.total_write.total_bit_flips();
                next_key += 1;
            }
            if background {
                store.retrain_in_background();
                store.wait_for_retrain();
            } else {
                store.retrain_now().expect("retrain");
            }
            flips as f64 / WINDOW as f64
        };
        for _ in 0..2 {
            window(&mut digits);
        }
        let series = (0..12).map(|_| window(&mut fashion)).collect();
        (series, store.snapshot().train)
    };
    let adapt_puts = |series: &[f64]| -> u64 {
        let tail = &series[series.len() - series.len() / 4..];
        let settled = tail.iter().sum::<f64>() / tail.len() as f64;
        let last_high = series.iter().rposition(|&f| f > 1.25 * settled);
        last_high.map_or(0, |w| w as u64 + 1) * WINDOW
    };

    let (warm, train) = run(true);
    assert_eq!(train.basis, pnw_core::BasisFit::Warm);
    assert_eq!((train.labelled, train.predicted_at_install), (BUCKETS, 0));
    let (cold, train) = run(false);
    assert_eq!(train.basis, pnw_core::BasisFit::Cold);
    assert_eq!(train.labelled, 0);

    println!("warm {warm:.0?} cold {cold:.0?}");
    assert!(
        adapt_puts(&warm) <= adapt_puts(&cold),
        "warm {warm:.0?} re-converged later than cold {cold:.0?}"
    );
    let (warm_sum, cold_sum): (f64, f64) = (warm.iter().sum(), cold.iter().sum());
    assert!(
        warm_sum <= 1.05 * cold_sum,
        "warm {warm:.0?} paid more flips than cold {cold:.0?}"
    );
}

/// GET-heavy workloads leave the data zone untouched. GETs go through the
/// lock-free `NvmDevice::peek` path (so concurrent readers never serialize
/// on the device) and therefore record no device read statistics either —
/// the store-level `gets` counter is where read traffic shows up.
#[test]
fn reads_cost_no_writes() {
    let store = PnwStore::new(PnwConfig::new(32, 8).with_clusters(2));
    store.put(1, &[0xAB; 8]).expect("room");
    let writes_before = store.device_stats().write_ops;
    let reads_before = store.device_stats().read_ops;
    for _ in 0..100 {
        store.get(1).expect("ok");
    }
    assert_eq!(store.device_stats().write_ops, writes_before);
    assert_eq!(store.device_stats().read_ops, reads_before);
    assert_eq!(store.snapshot().gets, 100);
}
