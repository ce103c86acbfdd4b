//! CCTV recorder: the paper's motivating media workload (§VI-C), recorded
//! into a TTL/ring-retention store.
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

use pnw_core::{now_unix_ms, PnwConfig, PnwStore, RetrainMode};
use pnw_nvm_sim::{projected_lifetime_ops, MemoryTech, NvmConfig, NvmDevice, WriteMode};
use pnw_workloads::{VideoConfig, VideoFrames, Workload};

const RING_FRAMES: usize = 512;
const RECORDED_FRAMES: usize = 2048;
/// Frames per printed window.
const WINDOW: usize = 256;
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

    let mut last = store.snapshot();
    for frame in 0..RECORDED_FRAMES as u64 {
        let deadline = now_unix_ms() + RETENTION_MS;
        store
            .put_with_expiry(frame, &camera.next_value(), deadline)
            .expect("ring retention makes room");
        if (frame + 1) % WINDOW as u64 == 0 {
            let snap = store.snapshot();
            let (now, then) = (&snap.device.totals, &last.device.totals);
            let flips = now.total_bit_flips() - then.total_bit_flips();
            let bits = now.bits_addressed - then.bits_addressed;
            println!(
                "  frames {:>4}..{:<4}  flips/512 {:>5.1}  expired {:>3}  evicted {:>3}  stored {}",
                frame + 1 - WINDOW as u64,
                frame + 1,
                flips as f64 * 512.0 / bits as f64,
                snap.scrub.expired - last.scrub.expired,
                snap.scrub.evicted - last.scrub.evicted,
                snap.live
            );
            assert!(snap.live <= RING_FRAMES, "ring must stay bounded");
            last = snap;
        }
    }
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
    println!("\n                          PNW      DCW ring");
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
        "\nPNW reduced bit flips by {:.0}% on this stream",
        (1.0 - pnw_flips / dcw_flips.max(1e-9)) * 100.0
    );
}
