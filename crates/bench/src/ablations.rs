//! Design-choice ablations (`pnw-bench ablations`): how each choice
//! affects *bit flips*, and what it costs in time where the choice is a
//! latency trade-off (update policy, PCA on/off).
//!
//! The update table compares PNW's priced update — each update goes where
//! it flips the fewest *device* bits, header (flag, CRC seal, key)
//! included, the vacated bucket's flag clear counted against a relocation —
//! with the wear-blind in-place reference, [`PathHashStore`]. Because the
//! choice minimises the whole bucket image, the value-only column (the
//! paper's Figure 6 measure) can rise while the total falls.

use std::time::Instant;

use pnw_baselines::PathHashStore;
use pnw_core::{PcaPolicy, PnwConfig, PnwStore, RetrainMode, Store};
use pnw_workloads::{DatasetKind, Workload};

use crate::replace::{run_pnw, ReplaceParams};
use crate::table::{f2, Table};
use crate::Scale;

/// Prints the three ablation tables: update policy, PCA on/off, K
/// sensitivity.
pub fn run(scale: Scale) {
    println!("== PNW design-choice ablations ==\n");
    update_placement(scale);
    pca_quality(scale);
    k_sensitivity(scale);
}

/// The priced update vs the wear-blind in-place reference: the §V-B.3
/// trade-off made concrete. Both stores replay the same value stream: PNW
/// prefills and trains first, then both build a live set and update every
/// key twice. The reference is [`PathHashStore`] (Path Hashing, Zuo & Hua),
/// which rewrites every update in its own bucket whatever it costs.
/// `total flips / update` is everything the device programmed over the
/// update window — for `PathHashStore`, whose bucket has no header, that
/// is value bits only — and `in-place share` how many updates rewrote
/// their own bucket.
fn update_placement(scale: Scale) {
    let n = scale.pick(256, 2048);
    let live = (n / 2) as u64;
    let mut w = DatasetKind::Normal.build(41);
    let pnw = PnwStore::new(
        PnwConfig::new(n, 4)
            .with_clusters(12)
            .with_retrain(RetrainMode::Manual),
    );
    pnw.prefill_free_buckets(|| w.next_value()).expect("prefill");
    pnw.retrain_now().expect("train");
    let reference = PathHashStore::new(n, 4);
    // The live set and the updates, drawn once for both stores (and before
    // the clock starts).
    let values: Vec<_> = (0..live).map(|_| w.next_value()).collect();
    let updates: Vec<_> = (0..2 * live).map(|i| (i % live, w.next_value())).collect();

    let mut t = Table::new(vec![
        "update policy",
        "value bits / 512",
        "total flips / update",
        "in-place share",
        "ns / update",
    ]);
    let rows: [(&str, &dyn Store, bool); 2] = [
        ("cheapest (default)", &pnw, false),
        ("in-place (PathHashStore, no header)", &reference, true),
    ];
    for (name, store, always_in_place) in rows {
        for (key, v) in (0..live).zip(&values) {
            store.put(key, v).expect("room");
        }
        store.reset_device_stats();
        let in_place_before = store.snapshot().updates_in_place;
        let mut flips = 0u64;
        let mut bits = 0u64;
        let t0 = Instant::now();
        for (key, v) in &updates {
            let r = store.put(*key, v).expect("update");
            flips += r.value_write.total_bit_flips();
            bits += r.value_write.bits_addressed;
        }
        let ns = t0.elapsed().as_nanos() as f64 / updates.len() as f64;
        let total = store.device_stats().totals.total_bit_flips();
        let in_place = if always_in_place {
            updates.len() as u64
        } else {
            store.snapshot().updates_in_place - in_place_before
        };
        t.row(vec![
            name.to_string(),
            f2(flips as f64 * 512.0 / bits.max(1) as f64),
            f2(total as f64 / updates.len() as f64),
            f2(in_place as f64 / updates.len() as f64),
            format!("{ns:.0}"),
        ]);
    }
    println!("ablation: update policy (normal u32 stream)\n{}", t.render());
}

/// PCA on vs off for large values: does the projection cost clustering
/// quality (flips), on top of the latency it saves?
fn pca_quality(scale: Scale) {
    let n = scale.pick(256, 1024);
    let writes = scale.pick(256, 2048);
    let mut t = Table::new(vec!["PCA", "bit updates / 512 bits", "predict µs"]);
    for (name, threshold) in [("on (32 comps)", 1024usize), ("off (raw 6272 bits)", usize::MAX / 2)]
    {
        let mut w = DatasetKind::Mnist.build(43);
        let store = PnwStore::new(
            PnwConfig::new(n, 784)
                .with_clusters(10)
                .with_pca(PcaPolicy {
                    threshold_bits: threshold,
                    components: 32,
                    sample: 192,
                })
                .with_retrain(RetrainMode::Manual),
        );
        store.prefill_free_buckets(|| w.next_value()).expect("prefill");
        store.retrain_now().expect("train");
        store.reset_device_stats();
        let mut flips = 0u64;
        let mut bits = 0u64;
        let mut predict_ns = 0u128;
        for i in 0..writes as u64 {
            let v = w.next_value();
            let r = store.put(i, &v).expect("room");
            flips += r.value_write.total_bit_flips();
            bits += r.value_write.bits_addressed;
            predict_ns += r.predict.as_nanos();
            store.delete(i).expect("present");
        }
        t.row(vec![
            name.to_string(),
            f2(flips as f64 * 512.0 / bits.max(1) as f64),
            f2(predict_ns as f64 / 1000.0 / writes as f64),
        ]);
    }
    println!("ablation: PCA for large values (MNIST-like)\n{}", t.render());
}

/// K sensitivity beyond Figure 6's sweep: diminishing returns past the
/// number of latent classes.
fn k_sensitivity(scale: Scale) {
    let p = ReplaceParams {
        buckets: scale.pick(256, 2048),
        writes: scale.pick(256, 2048),
        seed: 47,
    };
    let mut t = Table::new(vec!["K", "bit updates / 512 bits"]);
    for k in [1usize, 4, 8, 12, 16, 24, 48, 96] {
        let s = run_pnw(DatasetKind::Amazon, k, &p, 1);
        t.row(vec![k.to_string(), f2(s.flips_per_512)]);
    }
    println!("ablation: K beyond the paper's sweep (Amazon-like)\n{}", t.render());
}
