//! Integrity and scrubbing overhead bench (`pnw-bench scrub`) — the
//! wear-out robustness trajectory file `BENCH_scrub.json`.
//!
//! Four sections, all on the sharded store with lock-free reads:
//!
//! 1. **GET overhead** — the same key set read with integrity off versus
//!    on (seal at PUT, CRC-32C verify on every GET), measured two ways:
//!    the *raw* software path (no device time — the worst case for
//!    relative overhead, since a read costs almost nothing), and the
//!    *serving* path, where every GET also pays the modeled NVM read
//!    latency at 1x, spin-waited for nanosecond accuracy (`sleep` cannot
//!    hit 100ns-scale waits). The 15% budget applies to the
//!    serving path — the cost a client of this store observes.
//! 2. **PUT overhead** — same comparison on the raw write path (seal +
//!    write-verify read-back).
//! 3. **Scrub under load** — a mixed workload with the background
//!    scrubber running against wear-out media (finite endurance, latching
//!    cells): throughput with the scrubber stealing cycles, plus the
//!    scrub counters proving it actually scanned/repaired/retired.
//! 4. **Time to detect** — stuck-at faults armed under live values, and
//!    how long the background scrubber takes to find every one.
//!
//! Each throughput number is the best of three interleaved runs, so a
//! noisy host window hits both sides of a comparison alike.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pnw_core::{PnwConfig, RetrainMode, ShardedPnwStore};
use pnw_nvm_sim::LatencyModel;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::report::{num, Report};
use crate::{obj, Scale};

const VALUE_SIZE: usize = 64;
const KEYS: u64 = 4_096;
/// The acceptance budget: integrity-on GETs may cost at most this much
/// throughput relative to integrity-off.
const GET_BUDGET_PCT: f64 = 15.0;
/// Background scrub rate for the time-to-detect section: a full pass over
/// the 8192-bucket store every ~160ms.
const DETECT_SCRUB_RATE: u32 = 50_000;

fn base_cfg() -> PnwConfig {
    PnwConfig::new(KEYS as usize * 2, VALUE_SIZE)
        .with_clusters(4)
        .with_shards(4)
        .with_seed(0x5C2B)
        .with_retrain(RetrainMode::Manual)
}

fn fill_random(rng: &mut StdRng, buf: &mut [u8]) {
    for b in buf.iter_mut() {
        *b = rng.gen();
    }
}

/// A warmed store: every key present, model trained on the live data.
fn warmed(cfg: PnwConfig) -> Arc<ShardedPnwStore> {
    let s = ShardedPnwStore::new(cfg);
    let mut rng = StdRng::seed_from_u64(7);
    let mut v = vec![0u8; VALUE_SIZE];
    for k in 0..KEYS {
        fill_random(&mut rng, &mut v);
        s.put(k, &v).expect("capacity 2x key space");
    }
    s.retrain_now().expect("manual retrain");
    Arc::new(s)
}

/// Drives `threads` workers for `ops_per_thread` ops each and returns
/// aggregate ops/sec. `put_pct` of ops are overwriting PUTs, the rest
/// GETs, over uniform random keys. With `device_ns > 0`, every op also
/// spin-waits that long — the modeled NVM access at 1x, applied
/// identically to both sides of a comparison.
fn drive(
    s: &Arc<ShardedPnwStore>,
    threads: usize,
    ops_per_thread: usize,
    put_pct: u8,
    device_ns: u64,
) -> f64 {
    let barrier = Arc::new(Barrier::new(threads));
    // Workers stamp their own start and end against this shared epoch:
    // with more workers than cores the coordinator can be descheduled for
    // the whole run, so a clock it starts after the barrier lands
    // arbitrarily late.
    let epoch = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let s = Arc::clone(s);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xBEEF + t as u64);
            let mut buf = vec![0u8; VALUE_SIZE];
            let mut val = vec![0u8; VALUE_SIZE];
            barrier.wait();
            let started = epoch.elapsed();
            for _ in 0..ops_per_thread {
                let k = rng.gen_range(0..KEYS);
                if rng.gen_range(0..100u8) < put_pct {
                    fill_random(&mut rng, &mut val);
                    // On worn media a PUT may find the store full of
                    // retired buckets and a GET may loudly report
                    // Corruption — tolerated, never panicked on: loud
                    // loss is the contract.
                    let _ = s.put(k, &val);
                } else {
                    let _ = s.get_into(k, &mut buf);
                }
                if device_ns > 0 {
                    let t0 = Instant::now();
                    while (t0.elapsed().as_nanos() as u64) < device_ns {
                        std::hint::spin_loop();
                    }
                }
            }
            (started, epoch.elapsed())
        }));
    }
    let (mut first, mut last) = (Duration::MAX, Duration::ZERO);
    for h in handles {
        let (started, ended) = h.join().expect("worker");
        first = first.min(started);
        last = last.max(ended);
    }
    let elapsed = last.saturating_sub(first).as_secs_f64().max(1e-9);
    (threads * ops_per_thread) as f64 / elapsed
}

/// Best-of-3 interleaved A/B: returns (best_a, best_b) ops/sec.
fn best_of_3(mut run_a: impl FnMut() -> f64, mut run_b: impl FnMut() -> f64) -> (f64, f64) {
    let (mut a, mut b) = (0f64, 0f64);
    for _ in 0..3 {
        a = a.max(run_a());
        b = b.max(run_b());
    }
    (a, b)
}

fn overhead_pct(off: f64, on: f64) -> f64 {
    if off <= 0.0 {
        0.0
    } else {
        (off - on) / off * 100.0
    }
}

/// Runs the four sections with `threads` workers (`ops_per_thread`
/// defaults to 20 000 quick / 200 000 full), prints each result line and
/// returns the `scrub` report.
pub fn run(scale: Scale, threads: usize, ops_per_thread: Option<usize>) -> Report {
    let ops_per_thread = ops_per_thread.unwrap_or(scale.pick(20_000, 200_000));
    println!(
        "Integrity/scrub overhead — {} threads, {} ops/thread, {} keys x {}B",
        threads, ops_per_thread, KEYS, VALUE_SIZE
    );

    // 1. GET path: integrity off vs on — raw software path, then the
    // serving path (modeled NVM read at 1x, spin-waited per op).
    let read_ns = LatencyModel::xpoint()
        .read_cost(VALUE_SIZE.div_ceil(64) as u64)
        .as_nanos() as u64;
    let s_off = warmed(base_cfg().with_integrity(false));
    let s_on = warmed(base_cfg());
    let (raw_off, raw_on) = best_of_3(
        || drive(&s_off, threads, ops_per_thread, 0, 0),
        || drive(&s_on, threads, ops_per_thread, 0, 0),
    );
    let raw_pct = overhead_pct(raw_off, raw_on);
    println!(
        "GET raw:     integrity off {raw_off:>12.0} ops/s   on {raw_on:>12.0} ops/s   overhead {raw_pct:+.1}%"
    );
    let (get_off, get_on) = best_of_3(
        || drive(&s_off, threads, ops_per_thread / 2, 0, read_ns),
        || drive(&s_on, threads, ops_per_thread / 2, 0, read_ns),
    );
    let get_pct = overhead_pct(get_off, get_on);
    println!(
        "GET serving: integrity off {get_off:>12.0} ops/s   on {get_on:>12.0} ops/s   overhead {get_pct:+.1}% (modeled read {read_ns} ns, budget {GET_BUDGET_PCT}%)"
    );
    if get_pct > GET_BUDGET_PCT {
        eprintln!("warning: GET integrity overhead {get_pct:.1}% exceeds the {GET_BUDGET_PCT}% budget");
    }

    // 2. PUT path: seal + write-verify vs neither.
    let (put_off, put_on) = best_of_3(
        || drive(&s_off, threads, ops_per_thread / 4, 100, 0),
        || drive(&s_on, threads, ops_per_thread / 4, 100, 0),
    );
    let put_pct = overhead_pct(put_off, put_on);
    println!(
        "PUT raw:     integrity off {put_off:>12.0} ops/s   on {put_on:>12.0} ops/s   overhead {put_pct:+.1}%"
    );

    // 3. Scrub under load on wear-out media: finite endurance, cells that
    // latch once worn, background scrubber sweeping at a fixed rate.
    // Endurance 16: the mixed phase re-writes each key ~20 times, so hot
    // words genuinely cross the wear-out threshold mid-run.
    let worn = warmed(
        base_cfg()
            .with_endurance(16)
            .with_stuck_latch_probability(0.002)
            .with_scrub(20_000),
    );
    let mixed = drive(&worn, threads, ops_per_thread / 4, 40, 0);
    let snap = worn.snapshot();
    println!(
        "SCRUB under load: {mixed:.0} ops/s — scanned {}, crc_failures {}, repairs {}, retired {}, stuck_bits {}",
        snap.scrub.scanned, snap.scrub.crc_failures, snap.scrub.repairs, snap.scrub.retired, snap.scrub.stuck_bits
    );

    // 4. Time-to-detect: arm faults that definitely corrupt live values
    // (each latches the *opposite* of the stored bit), then clock how
    // long the background scrubber takes to find every one of them.
    let det = warmed(base_cfg().with_scrub(DETECT_SCRUB_RATE));
    let n_faults = 16u64;
    for k in 0..n_faults {
        let v = det.get(k).unwrap().expect("warmed key");
        let bit = (k * 37 % (VALUE_SIZE as u64 * 8)) as u32;
        let set = v[(bit / 8) as usize] >> (bit % 8) & 1 == 1;
        det.arm_stuck_at_key(k, bit, !set).unwrap();
    }
    let armed_at = Instant::now();
    let deadline = armed_at + Duration::from_secs(30);
    let mut detect_ms = None;
    while Instant::now() < deadline {
        if det.snapshot().scrub.crc_failures >= n_faults {
            detect_ms = Some(armed_at.elapsed().as_secs_f64() * 1e3);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    match detect_ms {
        Some(ms) => println!(
            "DETECT: {n_faults} armed faults all found in {ms:.1} ms (scrub rate {DETECT_SCRUB_RATE} buckets/s)"
        ),
        None => eprintln!("warning: scrubber missed armed faults within 30s"),
    }

    let ab = |off: f64, on: f64, pct: f64| {
        obj! {
            "ops_per_sec_integrity_off": num(off, 1),
            "ops_per_sec_integrity_on": num(on, 1),
            "overhead_pct": num(pct, 2),
        }
    };
    Report::new("scrub", scale)
        .field("threads", threads)
        .field("ops_per_thread", ops_per_thread)
        .field("value_size", VALUE_SIZE)
        .field("keys", KEYS)
        .field("get_raw", ab(raw_off, raw_on, raw_pct))
        .field(
            "get_serving",
            obj! {
                "modeled_read_ns": read_ns,
                "ops_per_sec_integrity_off": num(get_off, 1),
                "ops_per_sec_integrity_on": num(get_on, 1),
                "overhead_pct": num(get_pct, 2),
                "budget_pct": num(GET_BUDGET_PCT, 1),
                "within_budget": get_pct <= GET_BUDGET_PCT,
            },
        )
        .field("put_raw", ab(put_off, put_on, put_pct))
        .field(
            "scrub_under_load",
            obj! {
                "ops_per_sec": num(mixed, 1),
                "scanned": snap.scrub.scanned,
                "crc_failures": snap.scrub.crc_failures,
                "repairs": snap.scrub.repairs,
                "retired": snap.scrub.retired,
                "stuck_bits": snap.scrub.stuck_bits,
                "capacity": snap.capacity,
                "live": snap.live,
            },
        )
        .field(
            "time_to_detect",
            obj! {
                "faults_armed": n_faults,
                "scrub_rate_buckets_per_sec": DETECT_SCRUB_RATE,
                "detect_ms": num(detect_ms.unwrap_or(f64::NAN), 1),
                "all_detected": detect_ms.is_some(),
            },
        )
}
