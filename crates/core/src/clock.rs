//! The store's clocks, in one place: the wall clock TTL deadlines are
//! stamped against, and the tick clock per-op work is timed with.
//!
//! The tick clock exists because `Instant::now()` is too dear for a
//! per-PUT measurement: on Linux x86-64 it is a vDSO `rdtscp` (or
//! `lfence; rdtsc`), which waits for every earlier load and store to
//! retire — twice per timed prediction, stalling the rest of the PUT. On
//! x86-64 with an invariant TSC the tick clock is a raw `rdtsc`, which
//! does not serialize, converted to nanoseconds by a ratio calibrated once
//! per process against `Instant`. Everywhere else it is `Instant`. The
//! choice is made at runtime, once.

use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The wall clock the TTL machinery runs on: absolute unix milliseconds.
/// Callers stamp deadlines with
/// [`Store::put_with_expiry`](crate::Store::put_with_expiry) relative to
/// this clock.
pub fn now_unix_ms() -> u64 {
    #[cfg(test)]
    WALL_READS.with(|n| n.set(n.get() + 1));
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

#[cfg(test)]
thread_local! {
    static WALL_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Wall-clock reads this thread has made so far (per thread, so tests
/// running in parallel do not see each other's reads).
#[cfg(test)]
pub(crate) fn wall_reads() -> u64 {
    WALL_READS.with(std::cell::Cell::get)
}

/// A reading of the process tick clock. Only the interval between two
/// readings means anything: see [`Tick::elapsed`].
#[derive(Clone, Copy)]
pub(crate) struct Tick(u64);

impl Tick {
    /// Reads the tick clock. The first reading in a process picks the
    /// clock and, for the TSC, calibrates it (about 4 ms, paid once,
    /// before the reading is taken).
    #[inline]
    pub(crate) fn now() -> Tick {
        Tick(ticker().read())
    }

    /// The time since this reading. An end that reads below the start —
    /// two unserialized counter reads may retire out of order — is zero.
    #[inline]
    pub(crate) fn elapsed(self) -> Duration {
        let t = ticker();
        t.between(self.0, t.read())
    }
}

/// The process's tick source, chosen on first use.
fn ticker() -> &'static Ticker {
    static TICKER: OnceLock<Ticker> = OnceLock::new();
    TICKER.get_or_init(Ticker::detect)
}

/// How the tick clock reads and converts.
#[derive(Debug, Clone, Copy)]
enum Ticker {
    /// The invariant time-stamp counter, read unserialized.
    Tsc { ns_per_tick: f64 },
    /// Nanoseconds since `epoch`, by `Instant`.
    Instant { epoch: Instant },
}

impl Ticker {
    /// The TSC when the CPU says it is invariant (constant rate, running
    /// in every power state) and it calibrates to a sane rate; `Instant`
    /// otherwise.
    fn detect() -> Ticker {
        if tsc::invariant() {
            if let Some(ns_per_tick) = tsc::calibrate() {
                return Ticker::Tsc { ns_per_tick };
            }
        }
        Ticker::fallback()
    }

    fn fallback() -> Ticker {
        Ticker::Instant {
            epoch: Instant::now(),
        }
    }

    #[inline]
    fn read(&self) -> u64 {
        match self {
            Ticker::Tsc { .. } => tsc::read(),
            Ticker::Instant { epoch } => epoch.elapsed().as_nanos() as u64,
        }
    }

    /// The interval from reading `start` to reading `end`; zero when `end`
    /// reads below `start`.
    #[inline]
    fn between(&self, start: u64, end: u64) -> Duration {
        let ticks = end.saturating_sub(start);
        match self {
            Ticker::Tsc { ns_per_tick } => {
                Duration::from_nanos((ticks as f64 * ns_per_tick) as u64)
            }
            Ticker::Instant { .. } => Duration::from_nanos(ticks),
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod tsc {
    use std::arch::x86_64::{__cpuid, _rdtsc};
    use std::time::{Duration, Instant};

    /// CPUID `0x8000_0007` EDX bit 8: the TSC ticks at a constant rate in
    /// every P-, C- and T-state.
    pub(super) fn invariant() -> bool {
        __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
    }

    #[inline]
    pub(super) fn read() -> u64 {
        // SAFETY: `rdtsc` reads a counter and touches no memory; every
        // x86-64 CPU implements it.
        unsafe { _rdtsc() }
    }

    /// Nanoseconds per tick, measured against `Instant` over `ROUNDS` spans
    /// of 1 ms each; `None` when the counter did not advance. A preemption
    /// between an `Instant` read and its paired counter read can only
    /// inflate a span's ratio, so the smallest is kept.
    pub(super) fn calibrate() -> Option<f64> {
        const SPAN: Duration = Duration::from_millis(1);
        const ROUNDS: usize = 4;
        let round = || {
            let (t0, c0) = (Instant::now(), read());
            let (ns, c1) = loop {
                let c1 = read();
                let ns = t0.elapsed();
                if ns >= SPAN {
                    break (ns, c1);
                }
            };
            let ticks = c1.checked_sub(c0).filter(|&t| t > 0)?;
            Some(ns.as_nanos() as f64 / ticks as f64)
        };
        (0..ROUNDS).try_fold(f64::INFINITY, |best, _| round().map(|r| best.min(r)))
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod tsc {
    pub(super) fn invariant() -> bool {
        false
    }

    pub(super) fn read() -> u64 {
        unreachable!("the TSC is only chosen on x86-64")
    }

    pub(super) fn calibrate() -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Times a ≥5 ms busy loop with `ticker` and with `Instant`; the two
    /// must agree within 5% on at least one of three attempts (a
    /// preemption between paired reads skews a single attempt).
    fn agrees_with_instant(ticker: &Ticker) {
        let mut seen = Vec::new();
        for _ in 0..3 {
            let (c0, t0) = (ticker.read(), Instant::now());
            while t0.elapsed() < Duration::from_millis(5) {
                std::hint::spin_loop();
            }
            let (ticked, timed) = (ticker.between(c0, ticker.read()), t0.elapsed());
            if (0.95..=1.05).contains(&(ticked.as_secs_f64() / timed.as_secs_f64())) {
                return;
            }
            seen.push((ticked, timed));
        }
        panic!("{ticker:?}: ticked vs timed {seen:?}");
    }

    #[test]
    fn the_tick_clock_agrees_with_instant_over_a_busy_loop() {
        agrees_with_instant(ticker());
        let t = Tick::now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn the_instant_fallback_reads_and_converts_nanoseconds() {
        let fallback = Ticker::fallback();
        agrees_with_instant(&fallback);
        let (a, b) = (fallback.read(), fallback.read());
        assert!(b >= a, "monotonic");
        assert_eq!(fallback.between(1_000, 3_500), Duration::from_nanos(2_500));
    }

    #[test]
    fn an_end_below_its_start_is_zero_not_centuries() {
        for t in [Ticker::Tsc { ns_per_tick: 0.4 }, Ticker::fallback()] {
            assert_eq!(t.between(1_000, 999), Duration::ZERO, "{t:?}");
            assert_eq!(t.between(u64::MAX, 0), Duration::ZERO, "{t:?}");
        }
        let tsc = Ticker::Tsc { ns_per_tick: 0.4 };
        assert_eq!(tsc.between(0, 1_000), Duration::from_nanos(400));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn an_invariant_tsc_is_the_tick_source() {
        let chosen = matches!(ticker(), Ticker::Tsc { .. });
        assert_eq!(chosen, tsc::invariant() && tsc::calibrate().is_some());
    }

    #[test]
    fn a_reported_put_times_its_prediction_and_the_batch_path_does_not() {
        use crate::{metrics::TrainStats, model::ModelManager, PnwConfig, ShardEngine};
        let cfg = PnwConfig::new(64, 64).with_clusters(4).with_seed(3);
        let values: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i.wrapping_mul(37); 64]).collect();
        let mut mgr = ModelManager::new(&cfg);
        mgr.train(&values);
        let mut e = ShardEngine::new(cfg);
        e.install_model(mgr.snapshot());
        let mut sum = Duration::ZERO;
        for k in 0..16u64 {
            let (r, _) = e.put(k, &values[k as usize]).unwrap();
            assert!(r.predict > Duration::ZERO, "put {k}");
            sum += r.predict;
        }
        for k in 16..32u64 {
            e.put_unreported(k, &values[k as usize]).unwrap();
        }
        assert_eq!(e.snapshot(TrainStats::default()).predict_total, sum);
    }

    #[test]
    fn the_wall_clock_counts_its_reads_per_thread() {
        let before = wall_reads();
        assert!(now_unix_ms() > 0);
        assert_eq!(wall_reads(), before + 1);
        std::thread::spawn(|| assert_eq!(wall_reads(), 0))
            .join()
            .unwrap();
    }
}
