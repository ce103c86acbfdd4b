//! CCTV recorder: the paper's motivating media workload (§VI-C), recorded
//! as a TTL/ring-retention scenario.
//!
//! A surveillance camera continuously overwrites a ring of frames on NVM.
//! Consecutive frames share the static background, so a steering store can
//! overwrite a bit-similar old frame instead of an arbitrary one. The PNW
//! recorder here never deletes a frame: every PUT carries a retention
//! deadline and the store's ring retention reclaims space itself — expired
//! frames first, then the earliest-deadline (oldest) frame when the ring
//! is full. A plain DCW free-list ring records the same footage for
//! comparison of bit flips and modeled device lifetime.
//!
//! Run with: `cargo run --release --example cctv_recorder`

use pnw_bench::scenario::{replay, KeyDist, OpMix, Phase, Scenario, ValueSource};
use pnw_core::{PnwConfig, PnwStore, RetrainMode};
use pnw_nvm_sim::{projected_lifetime_ops, MemoryTech, NvmConfig, NvmDevice, WriteMode};
use pnw_workloads::{VideoConfig, VideoFrames, Workload};

const RING_FRAMES: usize = 512;
const RECORDED_FRAMES: usize = 2048;
/// Retention deadline per frame — far past the run, so the ring bound
/// (earliest-deadline eviction), not wall-clock expiry, does the work.
const RETENTION_MS: u64 = 60_000;

fn main() {
    let cfg = VideoConfig::sherbrooke_like();
    let frame_bytes = cfg.frame_bytes();
    println!(
        "recording {RECORDED_FRAMES} frames of {}x{} video into a {RING_FRAMES}-frame NVM ring\n",
        cfg.width, cfg.height
    );

    // --- PNW recorder (TTL/ring retention) --------------------------------
    let mut camera = VideoFrames::new(cfg.clone(), 7);
    let store = PnwStore::new(
        PnwConfig::new(RING_FRAMES, frame_bytes)
            .with_clusters(8)
            .with_retrain(RetrainMode::Manual)
            .with_ring_retention(),
    );
    // Warm the ring with the first seconds of footage and train.
    store
        .prefill_free_buckets(|| camera.next_value())
        .expect("prefill");
    store.retrain_now().expect("train");
    store.reset_device_stats();

    let sc = Scenario {
        name: "cctv-ring".to_string(),
        seed: 7,
        key_space: RING_FRAMES as u64,
        value_size: frame_bytes,
        window_ops: 256,
        phases: vec![Phase {
            name: "record".to_string(),
            ops: RECORDED_FRAMES,
            mix: OpMix::write_only(),
            keys: KeyDist::Replacement {
                working_set: RING_FRAMES,
                // Ring semantics live in the store now: no client deletes.
                delete_oldest: false,
            },
            values: ValueSource::Video { cfg: cfg.clone(), seed: 7 },
            ttl_ms: Some(RETENTION_MS),
            rate_ops_per_sec: None,
            burst: None,
        }],
    };
    let r = replay(&store, &sc);
    let snap = store.snapshot();
    let pnw_flips = snap.device.mean_flips_per_512();
    let pnw_max_wear = store.max_word_writes();
    assert!(
        snap.scrub.expired + snap.scrub.evicted > 0,
        "ring retention should have reclaimed frames"
    );
    assert!(store.len() <= RING_FRAMES, "ring must stay bounded");

    // --- DCW free-list recorder (no steering) -----------------------------
    let mut camera = VideoFrames::new(cfg, 7);
    let bucket = frame_bytes.next_multiple_of(8);
    let mut dev = NvmDevice::new(NvmConfig::default().with_size(RING_FRAMES * bucket));
    for b in 0..RING_FRAMES {
        let f = camera.next_value();
        dev.write(b * bucket, &f, WriteMode::Raw).expect("warm");
    }
    dev.reset_stats();
    for i in 0..RECORDED_FRAMES {
        let f = camera.next_value();
        let b = i % RING_FRAMES; // plain ring: overwrite round-robin
        dev.write(b * bucket, &f, WriteMode::Diff).expect("record");
    }
    let dcw_flips = dev.stats().mean_flips_per_512();
    let dcw_max_wear = dev.max_word_writes();

    // --- report ------------------------------------------------------------
    println!("                          PNW      DCW ring");
    println!("bit flips / 512 bits   {pnw_flips:>8.1} {dcw_flips:>10.1}");
    println!("hottest word writes    {pnw_max_wear:>8} {dcw_max_wear:>10}");
    let ops = RECORDED_FRAMES as u64;
    let pnw_life = projected_lifetime_ops(MemoryTech::Pcm, pnw_max_wear, ops);
    let dcw_life = projected_lifetime_ops(MemoryTech::Pcm, dcw_max_wear, ops);
    println!("projected PCM lifetime {pnw_life:>8.2e} {dcw_life:>10.2e} (frames)");
    println!(
        "retention reclaimed    {:>8} frames ({} expired, {} evicted)",
        snap.scrub.expired + snap.scrub.evicted,
        snap.scrub.expired,
        snap.scrub.evicted
    );
    println!(
        "\nPNW reduced bit flips by {:.0}% on this stream \
         (windowed series: {} windows)",
        (1.0 - pnw_flips / dcw_flips.max(1e-9)) * 100.0,
        r.windows.len()
    );
}
