//! Workload shift with background retraining (§V-C + §VI-F), replayed
//! through the scenario engine.
//!
//! The store serves a stream that abruptly changes distribution
//! (digit images → fashion images) while holding a working set at ~70%
//! occupancy — past the configured load factor, so the store notices pool
//! pressure, retrains on a worker thread and swaps the model without
//! blocking writes: the paper's "hide the re-training latency" design.
//! The scenario engine replays the three phases and reports the windowed
//! flips/PUT series; the recovery ratio shows the adapted model landing
//! back near the pre-shift steady state.
//!
//! Run with: `cargo run --release --example workload_shift`

use pnw_bench::scenario::{replay, KeyDist, OpMix, Phase, Scenario, ValueSource};
use pnw_core::{PnwConfig, PnwStore, RetrainMode};
use pnw_workloads::{ImageStyle, TemplateImages, Workload};

const CAPACITY: usize = 768;
const LIVE_TARGET: usize = CAPACITY * 7 / 10;
const PER_PHASE: usize = 1500;

fn main() {
    let store = PnwStore::new(
        PnwConfig::new(CAPACITY, 784)
            .with_clusters(12)
            // Occupancy beyond 60% counts as load-factor pressure, so the
            // 70% working set keeps background retraining armed.
            .with_load_factor(0.6)
            .with_retrain(RetrainMode::Background),
    );

    let mut digits = TemplateImages::new(ImageStyle::Digits, 1);
    store
        .prefill_free_buckets(|| digits.next_value())
        .expect("prefill");
    store.retrain_now().expect("initial training");
    store.reset_device_stats();

    // Same digit templates as the warm-up (seed 1) but a fresh sample
    // stream (the engine derives the stream seed from the scenario seed) —
    // replaying the warm-up stream verbatim would score exact matches.
    let phase = |name: &str, style: ImageStyle, tseed: u64, ops: usize, rate: Option<f64>| Phase {
        name: name.to_string(),
        ops,
        mix: OpMix::write_only(),
        keys: KeyDist::Replacement {
            working_set: LIVE_TARGET,
            delete_oldest: true,
        },
        values: ValueSource::Images { style, seed: tseed },
        ttl_ms: None,
        rate_ops_per_sec: rate,
        burst: None,
    };
    let sc = Scenario {
        name: "workload-shift".to_string(),
        seed: 11,
        key_space: CAPACITY as u64,
        value_size: 784,
        window_ops: 250,
        phases: vec![
            phase("digits", ImageStyle::Digits, 1, PER_PHASE, None),
            // The shift phase runs double-length and paced at a camera-ish
            // arrival rate: 784-dimensional training takes tens of
            // milliseconds, so the wall-clock headroom is what lets the
            // background runs complete and install *during* the phase —
            // the paper's "hide the re-training latency" claim, replayed.
            phase("fashion-shift", ImageStyle::Fashion, 2, PER_PHASE * 2, Some(4_000.0)),
            phase("fashion-adapted", ImageStyle::Fashion, 2, PER_PHASE, None),
        ],
    };

    println!("replaying workload-shift scenario (digits -> fashion)\n");
    let r = replay(&store, &sc);
    for p in &r.phases {
        println!(
            "  phase {:<16} mean bit updates per 512 bits (steady): {:>6.1}   retrains: {}",
            p.phase, p.steady_flips_per_512, p.retrains
        );
    }
    println!(
        "\nrecovery ratio (adapted/pre-shift steady flips per PUT): {:.2}",
        r.recovery_ratio
    );

    let snap = store.snapshot();
    println!(
        "model retrained {} time(s) in the background; {} pool fallbacks",
        snap.retrains.saturating_sub(1),
        snap.fallbacks
    );
    assert!(snap.retrains > 1, "background retraining should have fired");
}
