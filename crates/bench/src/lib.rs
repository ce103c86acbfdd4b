//! # pnw-bench — the paper-reproduction harness
//!
//! One binary, `pnw-bench <subcommand>` (`src/main.rs` parses the
//! arguments once and dispatches), over one module per concern. Store
//! throughput and latency are *not* measured here: that is the job of the
//! repository's benchmark (`BENCHMARK.json`, the standalone `benchmark/`
//! crate).
//!
//! * [`replace`] — the replacement-workload engines behind Figures 6 and 7:
//!   warm a data zone with "old data", then stream new items over it, either
//!   through a write scheme (baselines, in-place updates) or through the PNW
//!   store (predicted placement).
//! * [`figures`] — one function per paper table/figure, returning the rows
//!   the paper plots (`fig N`, `table N`, `repro-all`). Every function
//!   takes a [`Scale`] so the same code runs as a quick smoke test or a
//!   full reproduction. Figure 9 drives all four backends (PNW, FPTree,
//!   NoveLSM, Path hashing) through the one [`Store`](pnw_core::Store)
//!   trait.
//! * [`ablations`] — design-choice ablations (`ablations`): bit flips per
//!   choice, plus the time side of PCA on/off and the update policy.
//! * [`predictbench`] — the prediction microbenchmark: the store's integer
//!   word-table scorer vs the reference float featurize-then-scan path,
//!   across value sizes and cluster counts, and on PCA-configured models vs
//!   project-then-scan (`predict`, `BENCH_predict.json`).
//! * [`trainbench`] — the retraining benchmark: the packed bit-domain
//!   training pipeline vs the float featurize-then-Lloyd reference, across
//!   value sizes, cluster counts and sample counts, and the packed vs
//!   float PCA route (`train`, `BENCH_train.json`).
//! * [`scrub`] — integrity and scrubbing overhead on wear-out media
//!   (`scrub`, `BENCH_scrub.json`).
//! * [`report`] — the one JSON report writer and artifact stamp.
//! * [`table`] — plain-text table rendering.

#![warn(missing_docs)]

pub mod ablations;
pub mod figures;
pub mod predictbench;
pub mod replace;
pub mod report;
pub mod scrub;
pub mod table;
pub mod trainbench;

/// Logical cores of this host, stamped into the bench artifacts (0 if the
/// platform cannot say).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Experiment scale, so harnesses run both as smoke tests and full repros.
/// `pnw-bench` parses `--quick` once and passes the scale down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale: CI smoke runs.
    Quick,
    /// Minutes-scale: the committed `BENCH_*.json` artifacts.
    Full,
}

impl Scale {
    /// Picks between quick and full parameter values.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
