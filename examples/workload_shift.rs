//! Workload shift with background retraining (§V-C + §VI-F).
//!
//! The store serves a stream that abruptly changes distribution
//! (digit images → fashion images) while holding a working set at ~70%
//! occupancy — past the configured load factor, so the store notices pool
//! pressure, retrains on its worker thread and swaps the model without
//! blocking writes: the paper's "hide the re-training latency" design.
//! Three phases of PUTs, each deleting the oldest key once the working set
//! is full, print flips/PUT window by window: low under the trained model,
//! a jump at the shift, back down once an adapted model installs. The run
//! asserts that story.
//!
//! Run with: `cargo run --release --example workload_shift`

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pnw_core::{PnwConfig, PnwStore, RetrainMode};
use pnw_workloads::{ImageStyle, TemplateImages, Workload};

const CAPACITY: usize = 768;
const LIVE_TARGET: usize = CAPACITY * 7 / 10;
const PER_PHASE: usize = 1500;
const WINDOW: usize = 250;
/// The adapted phase's steady flips/PUT may exceed the pre-shift phase's
/// by at most this factor.
const RECOVERY_BOUND: f64 = 1.25;

/// The replacement stream: every PUT writes a fresh key, and once
/// `LIVE_TARGET` keys are live the oldest is deleted first.
#[derive(Default)]
struct Stream {
    live: VecDeque<u64>,
    next_key: u64,
}

impl Stream {
    /// Issues `puts` PUTs of `values`, one every `gap` if given, printing
    /// each window's flips/PUT and model epoch. Returns each PUT's value
    /// bit flips.
    fn phase(
        &mut self,
        store: &PnwStore,
        name: &str,
        values: &mut TemplateImages,
        puts: usize,
        gap: Option<Duration>,
    ) -> Vec<u64> {
        let mut flips = Vec::with_capacity(puts);
        let mut due = Instant::now();
        for i in 1..=puts {
            if let Some(gap) = gap {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                due += gap;
            }
            if self.live.len() >= LIVE_TARGET {
                let oldest = self.live.pop_front().expect("working set is full");
                store.delete(oldest).expect("delete");
            }
            let r = store.put(self.next_key, &values.next_value()).expect("put");
            flips.push(r.value_write.total_bit_flips());
            self.live.push_back(self.next_key);
            self.next_key += 1;
            if i % WINDOW == 0 {
                let window = &flips[i - WINDOW..];
                println!(
                    "  {name:<16} window {:>2}  flips/PUT {:>7.1}  model epoch {}",
                    i / WINDOW,
                    mean(window),
                    store.model_epoch()
                );
            }
        }
        flips
    }
}

fn mean(flips: &[u64]) -> f64 {
    flips.iter().sum::<u64>() as f64 / flips.len().max(1) as f64
}

/// A phase's steady flips/PUT: the mean over its last third of PUTs, where
/// the regime has settled.
fn steady(flips: &[u64]) -> f64 {
    mean(&flips[flips.len() - flips.len() / 3..])
}

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

    println!("workload shift: digits -> fashion, {LIVE_TARGET} live keys of {CAPACITY}\n");
    let mut stream = Stream::default();
    // Same digit templates as the warm-up but a fresh sample stream:
    // replaying the warm-up stream verbatim would score exact matches.
    let mut digits = TemplateImages::new(ImageStyle::Digits, 1).with_stream_seed(11);
    let before = steady(&stream.phase(&store, "digits", &mut digits, PER_PHASE, None));

    // The shift phase runs double-length and paced at a camera-ish arrival
    // rate: 784-dimensional training takes tens of milliseconds, so the
    // wall-clock headroom is what lets background runs complete and
    // install *during* the phase. So its first window shows the stale
    // model's jump, and its steady state is already an adapted one.
    let epoch_at_shift = store.model_epoch();
    let mut fashion = TemplateImages::new(ImageStyle::Fashion, 2).with_stream_seed(12);
    let gap = Some(Duration::from_secs_f64(1.0 / 4_000.0));
    let flips = stream.phase(&store, "fashion-shift", &mut fashion, PER_PHASE * 2, gap);
    let (jump, shift) = (mean(&flips[..WINDOW]), steady(&flips));
    // Let the run in flight install, so the last phase measures an
    // adapted model and nothing below races the worker.
    store.wait_for_retrain();
    let epoch_adapted = store.model_epoch();

    let mut fashion = TemplateImages::new(ImageStyle::Fashion, 2).with_stream_seed(13);
    let adapted = steady(&stream.phase(&store, "fashion-adapted", &mut fashion, PER_PHASE, None));

    println!("\nflips/PUT in the shift's first window (stale model): {jump:.1}");
    println!("steady flips/PUT: digits {before:.1}, shift {shift:.1}, adapted {adapted:.1}");
    let recovery = adapted / before;
    println!("recovery ratio (adapted/pre-shift steady flips per PUT): {recovery:.2}");
    let snap = store.snapshot();
    println!(
        "model retrained {} time(s) in the background ({} after the shift began); {} pool fallbacks",
        snap.retrains.saturating_sub(1),
        epoch_adapted - epoch_at_shift,
        snap.fallbacks
    );

    assert!(
        epoch_adapted > epoch_at_shift,
        "no background retrain installed after the shift began"
    );
    assert!(
        adapted < jump,
        "the adapted model ({adapted:.1} flips/PUT) should beat the stale one ({jump:.1})"
    );
    assert!(
        recovery <= RECOVERY_BOUND,
        "adapted steady state {adapted:.1} flips/PUT is over {RECOVERY_BOUND}x the pre-shift {before:.1}"
    );
}
