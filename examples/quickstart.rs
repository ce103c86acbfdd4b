//! Quickstart: create a PNW store, train the model, and watch bit flips
//! drop relative to unsteered writes.
//!
//! Run with: `cargo run --release --example quickstart`

use pnw_core::{PnwConfig, PnwStore};

fn main() {
    // A store with 4096 buckets of 64-byte values, K = 8 clusters.
    let store = PnwStore::new(PnwConfig::new(4096, 64).with_clusters(8));

    // Insert some records. Values come in two bit-pattern families to give
    // the model something to learn: sensor frames that are mostly zeros and
    // log lines that are mostly ASCII.
    for k in 0..2048u64 {
        let value = make_value(k);
        store.put(k, &value).expect("store has room");
    }

    // Train the model on the data zone (Algorithm 1 of the paper). In
    // production you'd use RetrainMode::Background and a load factor; the
    // explicit call keeps the example deterministic.
    let train_time = store.retrain_now().expect("training succeeds");
    println!(
        "trained K-means with K={} in {:?}",
        store.model_k(),
        train_time
    );

    // Overwrite everything. Each update goes where it flips the fewest
    // bits: its own bucket, or the free location with the closest bit
    // pattern that the pool predicts for the new version.
    store.reset_device_stats();
    for k in 0..2048u64 {
        let value = make_value(k.wrapping_add(17));
        store.put(k, &value).expect("update succeeds");
    }

    let snap = store.snapshot();
    println!("after 2048 updates:");
    println!(
        "  bit flips per 512 bits written: {:.1} (conventional would be 512)",
        snap.device.mean_flips_per_512()
    );
    println!(
        "  cache lines written per op:     {:.2}",
        snap.device.mean_lines_per_write()
    );
    println!(
        "  mean prediction latency:        {:?}",
        snap.mean_predict_latency()
    );
    println!(
        "  pool fallbacks:                 {}",
        snap.fallbacks
    );

    // Reads go straight through the index — no model involvement.
    let v = store.get(42).expect("device ok").expect("key exists");
    assert_eq!(v, make_value(42u64.wrapping_add(17)));
    println!("  get(42) -> {} bytes, as written", v.len());
}

/// Two value families keyed by parity.
fn make_value(k: u64) -> Vec<u8> {
    let mut v = vec![0u8; 64];
    if k.is_multiple_of(2) {
        // Sparse sensor frame: a few set bytes.
        v[(k % 61) as usize] = 0x80 | (k % 32) as u8;
        v[((k / 7) % 61) as usize] = 0x01;
    } else {
        // ASCII-ish log line.
        for (i, b) in v.iter_mut().enumerate() {
            *b = b'a' + ((k as usize + i) % 26) as u8;
        }
    }
    v
}
